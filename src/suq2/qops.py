"""Generators as q-dilation stencils on plane families, and matrix irreps.

The generators never differentiate.  H+, H-, [H3 + s]_q and the Casimir
are exact tables (n, {(a, b, i, j): {e: k}}), each the finite q-difference
operator f -> (q - q^-1)^-n sum (sum k q^e) u^i v^j f(q^a u, q^b v) with
integer counts k, and q^(a H3): f -> q^(-a N) f(q^-a u, q^a v) is exact.
Families keep (u, v) independent (physical slice v = conj(u)) because
circle-regime dilations move the arguments off it.

One evaluator (_stencil) applies every table: it calls the operand once,
on the table's distinct dilations stacked along a new leading axis.  The
Casimir is composed from the ladder and bracket tables once, in integers,
and both orderings give one table on four dilations.  On a tower
(psi_family with a tuple of weights M) the same call carries every member
of the irrep: they share the radial profile Q_J, which psi then evaluates
once, and the table acts on the members row by row.

An operator and its table are built from its operand and the weight N
alone, as the plane realization is labelled by N alone; q enters only at
evaluation, so operators are parameter-covariant: the deformed scalar
products evaluate bra-side families at the inverted parameter, and
covariance makes an operator commute with that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .qcore import (
    HalfInt,
    QParam,
    Regime,
    check_not_root_of_unity,
    m_values,
    q_number,
)
from .qspecial import _weights, psi


@dataclass(frozen=True)
class PlaneFamily:
    """A function of (u, v) parametrized by p, evaluated as family(p, u, v).

    meta is the family's Fourier decomposition when it is known, else None:
    a tuple of (coefficient, single-mode family, mode) whose terms
    coefficient * family(p, u, v) add up to this family.  A single-mode
    family f of mode m satisfies f(p, rho e^(i phi), rho e^(-i phi)) =
    e^(-i m phi) f(p, rho, rho): each of its terms is u^a v^b times a
    function of u v, with b - a = m.  The families the constructors below
    build from tagged families are tagged; the single-mode families
    themselves carry meta = None.
    """
    evaluator: Callable
    meta: Optional[tuple] = None

    def __call__(self, p: QParam, u, v):
        return self.evaluator(p, u, v)


def _map_modes(f: PlaneFamily, op: Callable, shift: int = 0) -> Optional[tuple]:
    """The decomposition of a linear operator applied to f: op on each of
    f's components, their modes shifted by shift; None if f has none."""
    if f.meta is None:
        return None
    return tuple((c, op(comp), m + shift) for c, comp, m in f.meta)


def psi_family(J, M, N) -> PlaneFamily:
    """Basis member as a family; the parameter stays a free slot.  It is
    one component of mode M + N, with coefficient 1.

    A tuple M gives the tower of those members instead, stacked along a new
    first axis from one psi call (see psi).  Its rows have different modes,
    so it carries no decomposition (meta = None), and inner rejects it.
    """
    J, N = HalfInt.of(J), HalfInt.of(N)
    ms = _weights(J, M, N)
    if isinstance(M, tuple):
        return PlaneFamily(lambda p, u, v: psi(J, ms, N, p, u, v))
    (M,) = ms
    mode = PlaneFamily(lambda p, u, v: psi(J, M, N, p, u, v))
    return PlaneFamily(mode.evaluator, meta=((1, mode, (M + N).to_int()),))


def with_fixed_param(f: PlaneFamily, p0: QParam) -> PlaneFamily:
    """Pin f to parameter p0, ignoring the evaluation-time slot.

    Used for limit studies: a family frozen at q = 1 fed through a deformed
    form probes the form itself rather than the covariant family.  Each
    component is pinned as well, and keeps its mode (the angular structure
    does not depend on the parameter).
    """
    return PlaneFamily(lambda p, u, v: f(p0, u, v),
                       meta=_map_modes(f, lambda comp: with_fixed_param(comp, p0)))


def combine(coeffs: Sequence[complex], families: Sequence[PlaneFamily]) -> PlaneFamily:
    """sum_i coeffs[i] * families[i]; its decomposition concatenates the
    families' components, if all of them have one."""
    if len(coeffs) != len(families):
        raise ValueError("coefficient/family length mismatch")
    cs = [complex(c) for c in coeffs]
    fs = list(families)

    def ev(p, u, v):
        acc = 0
        for c, f in zip(cs, fs):
            acc = acc + c * f(p, u, v)
        return acc
    meta = None
    if all(f.meta is not None for f in fs):
        meta = tuple((c * cf, comp, m) for c, f in zip(cs, fs) for cf, comp, m in f.meta)
    return PlaneFamily(ev, meta)


def _stencil(f: PlaneFamily, name: str, table: tuple, meta: Optional[tuple]) -> PlaneFamily:
    """f under the operator name of table (see above); the dilation axis of
    f's one call sits just before u's axes in its result (after a tower's rows)."""
    order, terms = table
    dil = sorted({key[:2] for key in terms})

    def ev(p, u, v):
        if p.regime is Regime.CLASSICAL:
            raise ValueError("stencil evaluation needs a deformed parameter (q != 1)")
        u, v = np.broadcast_arrays(np.asarray(u, complex), np.asarray(v, complex))
        for x, k, axis in ((u, 2, "u"), (v, 3, "v")):
            if np.any(x == 0) and min(key[k] for key in terms) < 0:
                raise ValueError(f"{name} stencil is singular at {axis} = 0")
        d = (p.power(1) - p.power(-1)) ** order
        out = f(p, np.stack([p.power(a) * u for a, _ in dil]),
                np.stack([p.power(b) * v for _, b in dil]))
        vals = dict(zip(dil, np.moveaxis(out, -u.ndim - 1, 0)))
        return sum(sum(k * p.power(e) for e, k in c.items()) / d * u**i * v**j * vals[a, b]
                   for (a, b, i, j), c in terms.items())
    return PlaneFamily(ev, meta)


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


def apply_h_plus(f: PlaneFamily, N) -> PlaneFamily:
    """Raising stencil; evaluation at u = 0 is excluded (division by u)."""
    return _stencil(f, "h_plus", _h_plus(float(HalfInt.of(N))),
                    _map_modes(f, lambda comp: apply_h_plus(comp, N), +1))


def apply_h_minus(f: PlaneFamily, N) -> PlaneFamily:
    """Lowering stencil; evaluation at v = 0 is excluded (division by v)."""
    return _stencil(f, "h_minus", _h_minus(float(HalfInt.of(N))),
                    _map_modes(f, lambda comp: apply_h_minus(comp, N), -1))


def apply_q_h3_power(f: PlaneFamily, N, a: float) -> PlaneFamily:
    """q^(a H3): f -> q^(-a N) f(q^-a u, q^a v); exact, no differencing."""
    nf = float(HalfInt.of(N))
    return PlaneFamily(lambda p, u, v: p.power(-a * nf)
                       * f(p, p.power(-a) * np.asarray(u, complex),
                           p.power(a) * np.asarray(v, complex)),
                       _map_modes(f, lambda comp: apply_q_h3_power(comp, N, a)))


def apply_casimir(f: PlaneFamily, N, ordering: str = "plus_minus") -> PlaneFamily:
    """H+H- + [H3][H3-1], or the equivalent H-H+ + [H3][H3+1] ordering.
    Both compose to one table, on the four dilations (q^a u, q^b v), (a, b)
    in {0, 2}^2, i = j in every entry: that the tables are equal is
    [H+, H-] = [2 H3]_q holding exactly on the realization."""
    if ordering not in ("plus_minus", "minus_plus"):
        raise ValueError(f"unknown ordering {ordering!r}")
    nf = float(HalfInt.of(N))
    hp, hm = _h_plus(nf), _h_minus(nf)
    table = (_compose((hp, hm), (_bracket(nf, 0), _bracket(nf, -1))) if ordering == "plus_minus"
             else _compose((hm, hp), (_bracket(nf, 0), _bracket(nf, +1))))
    return _stencil(f, "casimir", table,
                    _map_modes(f, lambda comp: apply_casimir(comp, N, ordering)))


@dataclass(frozen=True)
class IrrepMatrices:
    J: HalfInt
    p: QParam
    dimension: int
    m_list: tuple
    H3: np.ndarray
    Hplus: np.ndarray
    Hminus: np.ndarray


def _ladder_coeff(J: HalfInt, M: HalfInt, sign: int, p: QParam) -> float:
    """Matrix element of H+ (sign = +1) or H- (sign = -1) from M to M + sign:
    sqrt([J - sign M][J + sign M + 1])."""
    if sign > 0:
        rad = q_number((J - M).to_int(), p) * q_number((J + M).to_int() + 1, p)
    else:
        rad = q_number((J + M).to_int(), p) * q_number((J - M).to_int() + 1, p)
    if rad < 0:
        raise ValueError(f"negative ladder radicand at M={M}")
    return math.sqrt(rad)


def matrix_irrep(J, p: QParam) -> IrrepMatrices:
    """Exact (2J+1)-dimensional ladder matrices, basis M = J, J-1, ..., -J.

    The parameter is screened against [n]_q = 0 degeneracies up to n = 2J+1
    (the largest q-number entering the ladder radicands), and circle-regime
    radicands must be nonnegative, else the square roots leave the reals.
    """
    J = HalfInt.of(J)
    if J.twice < 0:
        raise ValueError("J must be >= 0")
    check_not_root_of_unity(p, J.twice + 1)
    ms = m_values(J)
    dim = len(ms)
    h3 = np.diag([float(m) for m in ms])
    hplus = np.zeros((dim, dim))
    hminus = np.zeros((dim, dim))
    for i, m in enumerate(ms):
        if i > 0:  # raising: M -> M+1 lives one row up
            hplus[i - 1, i] = _ladder_coeff(J, m, +1, p)
        if i < dim - 1:
            hminus[i + 1, i] = _ladder_coeff(J, m, -1, p)
    return IrrepMatrices(J, p, dim, tuple(ms), h3, hplus, hminus)


def casimir_matrix(ir: IrrepMatrices) -> np.ndarray:
    bracket = np.diag([q_number(float(m), ir.p) * q_number(float(m) - 1.0, ir.p)
                       for m in ir.m_list])
    return ir.Hplus @ ir.Hminus + bracket
