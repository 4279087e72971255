"""Generators as q-dilation stencils on plane families, and matrix irreps.

The generators never differentiate.  H+, H-, [H3 + s]_q and the Casimir
are exact tables (n, {(a, b, i, j): {e: k}}), each the finite q-difference
operator f -> (q - q^-1)^-n sum (sum k q^e) u^i v^j f(q^a u, q^b v) with
integer counts k, and q^(a H3): f -> q^(-a N) f(q^-a u, q^a v) is exact.
Families keep (u, v) independent (physical slice v = conj(u)) because
circle-regime dilations move the arguments off it.

One evaluator (_apply) applies every table, by the eta-shift of its
operand: a family f of mode m is u^alpha v^beta G(uv) with beta - alpha =
m, so f(q^a u, q^b v) = q^(-a m) f(u, q^(a+b) v).  It calls the operand
once, on the stack (u, q^s v) of the distinct s = a + b of its tables and
s = 0, which gives the operand's own values too: two rows for H+ or H-
(s = 0, 2), three for the Casimir (s = 0, 2, 4).  A basis member hands
_apply its rows at those shifts itself (_member's rows): it takes Q_{1/2}
once, at s = 0, and each later row from the one before by Q's equation,
Q_{1/2}(q^2 eta) = Q_{1/2}(eta) (1 + q^-1 eta)/(1 + eta).  Any other
component, a pinned one or a stencil image among them, is called on the
stack.  A stencil acts on each component of its family's
decomposition, of the mode recorded there.  The Casimir is composed once
from the ladder and bracket tables, in integers, as H+H- + [H3][H3-1]: the
ordering H-H+ + [H3][H3+1] gives the same table.
Each table is built once per N, and each plan of tables once per q and
operand modes.  psi_tower applies H+, H- and the Casimir to the (J, N)
towers of one N, a J or a tuple of J, in one _apply, whose rows have the
modes M + N.

An operator and its table are built from its operand and the weight N
alone, as the plane realization is labelled by N alone; q enters only at
evaluation, so operators are parameter-covariant: the deformed scalar
products evaluate bra-side families at the inverted parameter, and
covariance makes an operator commute with that.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qcore import (
    HalfInt,
    QParam,
    Regime,
    check_not_root_of_unity,
    m_values,
    q_number,
    validate_tower,
    validate_triple,
)
from .qspecial import _psi, _ret


@dataclass(frozen=True)
class PlaneFamily:
    """A function of (u, v) parametrized by p, evaluated as family(p, u, v).

    meta is the family's Fourier decomposition: a tuple of (coefficient,
    component, mode) whose terms coefficient * component(p, u, v) add up to
    this family, and evaluator is their sum (_family).  A component is a
    callable (p, u, v) of one mode m: f(p, rho e^(i phi), rho e^(-i phi)) =
    e^(-i m phi) f(p, rho, rho), each of its terms being u^a v^b times a
    function of u v, with b - a = m.  Every family has a decomposition.
    """
    evaluator: Callable
    meta: tuple

    def __call__(self, p: QParam, u, v):
        return self.evaluator(p, u, v)


def _family(meta: tuple) -> PlaneFamily:
    """The family of decomposition meta: the sum of its terms."""
    return PlaneFamily(functools.partial(_sum_terms, meta), meta)


def _map_modes(f: PlaneFamily, op: Callable, shift: int = 0) -> PlaneFamily:
    """A linear operator applied to f: op(component, mode) on each of f's
    components, their modes shifted by shift."""
    return _family(tuple((c, op(comp, m), m + shift) for c, comp, m in f.meta))


def _member(J, M, N) -> Callable:
    """psi of the labels (J, M, N), checked by psi_family, as a component:
    called at (p, u, v) it is psi.  Its rows give _apply its values on a
    stack of eta-shifts 0, 2, ... instead, from one Q_{1/2} at shift 0.
    Both go through qspecial._psi, which checks no label again."""
    ms = (M,)

    def component(p: QParam, u, v):
        out = _psi(J, ms, N, p, u, v)
        return _ret(out[0], out.ndim == 1)  # as psi returns it
    component.rows = lambda p, u, v: _psi(J, ms, N, p, u, v, stepped=True)[0]
    return component


def psi_family(J, M, N) -> PlaneFamily:
    """Basis member as a family; the parameter stays a free slot.  It is
    one component of mode M + N, with coefficient 1."""
    J, M, N = validate_triple(J, M, N)
    return _family(((1, _member(J, M, N), (M + N).to_int()),))


def with_fixed_param(f: PlaneFamily) -> PlaneFamily:
    """Pin f at q = 1, ignoring the evaluation-time slot.

    Used for limit studies: a family frozen at q = 1 fed through a deformed
    form probes the form itself rather than the covariant family.  Each
    component is pinned, and keeps its mode (the angular structure does not
    depend on the parameter).  As q^-1 = q at q = 1, a pinned component
    mirrors on the circle as every other family does: comp(q^-1; conj u,
    conj v) = conj comp(q; u, v), which a pin at a circle q would break.
    """
    return _map_modes(f, lambda comp, m: lambda p, u, v: comp(QParam.classical(), u, v))


def combine(coeffs: Sequence[complex], families: Sequence[PlaneFamily]) -> PlaneFamily:
    """sum_i coeffs[i] * families[i]; its decomposition concatenates the
    families' components, each coefficient times coeffs[i]."""
    if len(coeffs) != len(families):
        raise ValueError("coefficient/family length mismatch")
    return _family(tuple((complex(c) * cf, comp, m)
                         for c, f in zip(coeffs, families) for cf, comp, m in f.meta))


def _h_plus(nf: float) -> tuple:
    return 1, {(1, 1, -1, 0): {-nf / 2: -1}, (-1, 1, -1, 0): {-nf / 2: 1},
               (1, 1, 0, 1): {-nf / 2: -1}, (1, -1, 0, 1): {1.5 * nf: 1}}


def _h_minus(nf: float) -> tuple:
    return 1, {(1, 1, 1, 0): {nf / 2: 1}, (-1, 1, 1, 0): {-1.5 * nf: -1},
               (1, 1, 0, -1): {nf / 2: 1}, (1, -1, 0, -1): {nf / 2: -1}}


def _bracket(nf: float, shift: int) -> tuple:
    """[H3 + shift]_q = (q^shift q^H3 - q^-shift q^-H3) / (q - q^-1), with
    q^(+-H3) f = q^(-+N) f(q^-+1 u, q^+-1 v)."""
    return 1, {(-1, 1, 0, 0): {shift - nf: 1}, (1, -1, 0, 0): {nf - shift: -1}}


def _compose(*products) -> tuple:
    """The sorted table of the sum of the (outer, inner) products, of one
    order: orders add, (a, b, i, j) after (a', b', i', j') is (a + a', b + b',
    i + i', j + j') and q^e after q^e' is q^(e + e' + a i' + b j'); counts of
    like terms add, and zero counts, then empty coefficients, are dropped."""
    out = {}
    for (n, outer), (n2, inner) in products:
        for (a, b, i, j), c in outer.items():
            for (a2, b2, i2, j2), c2 in inner.items():
                coeff = out.setdefault((a + a2, b + b2, i + i2, j + j2), {})
                for e, k in c.items():
                    for e2, k2 in c2.items():
                        x = e + e2 + a * i2 + b * j2
                        coeff[x] = coeff.get(x, 0) + k * k2
    terms = {key: {e: k for e, k in sorted(c.items()) if k} for key, c in sorted(out.items())}
    return n + n2, {key: c for key, c in terms.items() if c}


@functools.lru_cache(maxsize=256)
def _table(op: str, nf: float) -> tuple:
    """The table of op at weight nf, built once per N: op is "h_plus",
    "h_minus" or "casimir", composed as H+H- + [H3][H3-1]."""
    if op == "h_plus":
        return _h_plus(nf)
    if op == "h_minus":
        return _h_minus(nf)
    return _compose((_h_plus(nf), _h_minus(nf)), (_bracket(nf, 0), _bracket(nf, -1)))


@functools.lru_cache(maxsize=1024)
def _plan(ops: tuple, nf: float, p: QParam, modes) -> tuple:
    """What _apply reads for ops at weight nf and p on an operand of mode
    modes, or of a tuple of modes by leading row: the eta-shifts, 0 first;
    the shift index and the powers i, j of u^i v^j of each product term;
    and for each table the slice of its terms and its coefficients.  A
    table's terms are grouped by s = a + b and u^i v^j, and a group's
    coefficient sums (sum k q^e) / (q - q^-1)^n over its terms of each a,
    then those sums times q^(-a m) over a (a row array for a tuple of
    modes; a member and a tower row take the same arithmetic)."""
    tables = []
    for op in ops:
        order, terms = _table(op, nf)
        d = (p.power(1) - p.power(-1)) ** order
        groups = sorted({(a + b, i, j) for a, b, i, j in terms})
        dilations = sorted({key[0] for key in terms})
        coef = np.zeros((len(groups), len(dilations)), complex)
        for (a, b, i, j), c in terms.items():
            coef[groups.index((a + b, i, j)), dilations.index(a)] += \
                sum(k * p.power(e) for e, k in c.items()) / d
        tables.append((groups, dilations, coef))
    rows = modes if isinstance(modes, tuple) else (modes,)
    powers = {a: [p.power(-a * m) for m in rows]
              for a in {a for _, dilations, _ in tables for a in dilations}}
    shifts = sorted({0}.union(*({s for s, _, _ in groups} for groups, _, _ in tables)))
    terms, out = [], []
    for groups, dilations, coef in tables:
        c = (coef[:, :, None] * np.array([powers[a] for a in dilations])).sum(axis=1)
        out.append((slice(len(terms), len(terms) + len(groups)),
                    c if isinstance(modes, tuple) else c[:, 0]))
        terms += [(shifts.index(s), i, j) for s, i, j in groups]
    s_idx, i_pow, j_pow = (np.array(col) for col in zip(*terms))
    return tuple(shifts), s_idx, i_pow, j_pow, tuple(out)


def _apply(f: Callable, modes, ops: tuple, nf: float, p: QParam, u, v) -> list:
    """f's own values, then each operator of ops at weight nf on f, from one
    call of f on the stack (u, q^s v) of s = 0 and the eta-shifts of ops,
    or of f.rows where f has it (a basis member), which the shifts 0, 2,
    ... of every plan let step from row to row by q^2.
    modes is f's mode, or a tuple of the modes of its leading rows; each
    term's f(q^a u, q^b v) is q^(-a m) times the row s = a + b, and each
    table's terms are summed in order."""
    if p.regime is Regime.CLASSICAL:
        raise ValueError("stencil evaluation needs a deformed parameter (q != 1)")
    u, v = np.broadcast_arrays(np.asarray(u, complex), np.asarray(v, complex))
    shifts, s_idx, i_pow, j_pow, tables = _plan(ops, nf, p, modes)
    for x, k, axis in ((u, i_pow, "u"), (v, j_pow, "v")):
        if k.min() < 0 and not x.all():
            op = next(op for op, (terms, _) in zip(ops, tables) if k[terms].min() < 0)
            raise ValueError(f"{op} stencil is singular at {axis} = 0")
    stack = (np.broadcast_to(u, (len(shifts),) + u.shape),
             np.stack([p.power(s) * v if s else v for s in shifts]))
    out = f.rows(p, *stack) if hasattr(f, "rows") else f(p, *stack)
    rows = np.moveaxis(out, -u.ndim - 1, 0)
    by_term = (-1,) + (1,) * (rows.ndim - 1)
    x = rows[s_idx] * (u ** i_pow.reshape(by_term) * v ** j_pow.reshape(by_term))
    return [rows[0]] + [(c.reshape(c.shape + (1,) * (x.ndim - c.ndim)) * x[terms]).sum(axis=0)
                        for terms, c in tables]


def _sum_terms(terms, p: QParam, u, v):
    """The sum over terms, in order, of each coefficient c times its family
    at (p, u, v), from (c, family, ...) entries such as a decomposition's
    (_weighted_sum)."""
    return _weighted_sum((c, f(p, u, v)) for c, f, *_ in terms)


def _weighted_sum(terms):
    """The sum, in order, of c * value over the (c, value) pairs of terms;
    a term of coefficient 1 (a basis member) enters unmultiplied."""
    acc = None
    for c, val in terms:
        val = val if c == 1 else c * val
        acc = val if acc is None else acc + val
    return acc


def _stencil(f: PlaneFamily, op: str, N) -> PlaneFamily:
    """f under the operator op of weight N: each component of f's
    decomposition, of mode m, under op from one call of it (_apply's
    one-table case), of mode m + j - i, the j - i of every term of op."""
    nf = float(HalfInt.of(N))
    return _map_modes(f, lambda comp, m: lambda p, u, v: _apply(comp, m, (op,), nf, p, u, v)[1],
                      next(j - i for _, _, i, j in _table(op, nf)[1]))


def apply_h_plus(f: PlaneFamily, N) -> PlaneFamily:
    """Raising stencil; evaluation at u = 0 is excluded (division by u)."""
    return _stencil(f, "h_plus", N)


def apply_h_minus(f: PlaneFamily, N) -> PlaneFamily:
    """Lowering stencil; evaluation at v = 0 is excluded (division by v)."""
    return _stencil(f, "h_minus", N)


def apply_q_h3_power(f: PlaneFamily, N, a: float) -> PlaneFamily:
    """q^(a H3): f -> q^(-a N) f(q^-a u, q^a v); exact, no differencing.
    It keeps its dilated arguments: its eta-shift is 0, so by the
    eta-shift it would be a power of q times f's own values."""
    nf = float(HalfInt.of(N))
    return _map_modes(f, lambda comp, m: lambda p, u, v: p.power(-a * nf)
                      * comp(p, p.power(-a) * np.asarray(u, complex),
                             p.power(a) * np.asarray(v, complex)))


def apply_casimir(f: PlaneFamily, N) -> PlaneFamily:
    """H+H- + [H3][H3-1], equal to H-H+ + [H3][H3+1]: both orderings compose
    to one table, on the four dilations (q^a u, q^b v), (a, b) in {0, 2}^2,
    i = j in every entry, so on the eta-shifts 0, 2 and 4; that the tables
    are equal is [H+, H-] = [2 H3]_q holding exactly on the realization."""
    return _stencil(f, "casimir", N)


def psi_tower(J, N, p: QParam, u, v) -> tuple:
    """The (J, N) tower at (u, v): its members, their H+, their H- and their
    Casimir, each stacked by M = J, J-1, ..., -J on a new first axis, from
    one _apply whose rows have the modes M + N.  J may be a tuple: the
    towers of its J come stacked J by J in its order, each from its own
    stepped rows (qspecial._psi, as a member's), and each row has the bits
    of its one-J tower.  The labels are checked here, once."""
    js = tuple(map(HalfInt.of, J)) if isinstance(J, tuple) else (HalfInt.of(J),)
    N = HalfInt.of(N)
    if not js:
        raise ValueError("psi_tower needs at least one J")
    for j in js:
        validate_tower(j, N)
    towers = [(j, tuple(m_values(j))) for j in js]
    modes = tuple((m + N).to_int() for _, ms in towers for m in ms)

    def rows(p: QParam, u, v):  # _apply's stack, whose shifts are 0, 2, 4
        return np.concatenate([_psi(j, ms, N, p, u, v, stepped=True) for j, ms in towers])
    return tuple(_apply(rows, modes, ("h_plus", "h_minus", "casimir"), float(N), p, u, v))


@dataclass(frozen=True)
class IrrepMatrices:
    J: HalfInt
    p: QParam
    dimension: int
    m_list: tuple
    H3: np.ndarray
    Hplus: np.ndarray
    Hminus: np.ndarray


def matrix_irrep(J, p: QParam) -> IrrepMatrices:
    """Exact (2J+1)-dimensional ladder matrices, basis M = J, J-1, ..., -J.

    The parameter is screened against [n]_q = 0 degeneracies up to n = 2J+1
    (the largest q-number entering the ladder radicands), and circle-regime
    radicands must be nonnegative, else the square roots leave the reals.
    One column of radicands [J - M][J + M + 1], M = J-1, ..., -J, fills H+
    from M to M + 1; H- from M + 1 to M is the same two q-numbers in the
    other order, so H- is H+'s transpose bitwise (a copy, not a view).
    """
    J = HalfInt.of(J)
    if J.twice < 0:
        raise ValueError("J must be >= 0")
    check_not_root_of_unity(p, J.twice + 1)
    ms = m_values(J)
    rad = [q_number((J - m).to_int(), p) * q_number((J + m).to_int() + 1, p) for m in ms[1:]]
    for m, r in zip(ms[1:], rad):
        if r < 0:
            raise ValueError(f"negative ladder radicand at M={m + 1}")
    hplus = np.diag(np.sqrt(rad), 1)
    return IrrepMatrices(J, p, len(ms), tuple(ms), np.diag([float(m) for m in ms]),
                         hplus, hplus.T.copy())


def casimir_matrix(ir: IrrepMatrices) -> np.ndarray:
    bracket = np.diag([q_number(float(m), ir.p) * q_number(float(m) - 1.0, ir.p)
                       for m in ir.m_list])
    return ir.Hplus @ ir.Hminus + bracket
