"""Classical and q-deformed sesquilinear forms on the plane.

The form is fixed by q alone.  It has two terms; a term evaluates the bra
family at one parameter, the ket family at another with its arguments
scaled by s = q^-1 or q, and multiplies by the rational radial weight
w_s(eta) = s/((1+eta)(1+s^2 eta)):

  real q    <f|g>_q = B1 * integral [ conj(f|_(q^-1)) w_(q^-1) g(q^-1 .)|_q
                                    + conj(f|_q)      w_q      g(q .)|_(q^-1) ]
  circle q  the same two terms with the bra parameters swapped:
            conj slot carries q in the first term, q^-1 in the
            second, keeping the form Hermitian on the circle
  q = 1     both terms are conj(f) g/(1+eta)^2 and B1 = 1, so the form is
            the classical integral conj(f) * 2/(1+eta)^2 * g

with B1 = (q - q^-1)/(2 ln q) and eta = u v on the physical slice
v = conj(u).  B1 is real in both deformed regimes (sin(tau)/tau on the
circle, principal log) -- the Hermiticity constraint B2 = conj(B1) leaves
no other choice.

Every family is its Fourier decomposition (PlaneFamily.meta): components
of exact modes, psi_(J,M,N) being one of mode M+N.  On the physical slice a
component of mode m is e^{-i m phi} times its value at phi = 0, so the
angular integral keeps only the products of like modes, and <f|g> is the
radial integral of 2 pi sum_terms w sum_m conj(F_m) G_m, where F_m sums f's
components of mode m at (rho, rho); a pair with no common mode is an exact
0.0.  The pairs of one call that share the same modes share one radial
integral.  A basis member and its H+, H- and Casimir images carry their
labels (J, M, N, operator): one pass over the pairs collects, per (J, N),
the weights and operators that the call asks for, and holds each labelled
component to the circle's bound (2J+2)|tau| < pi before any is evaluated.
At each (parameter, node set) of the call, every block then reads one
evaluation of each such tower: one plain psi call on all its weights where
only members are asked for, which gives each member the bits of its own
call, else one stencil evaluation on their stepped rows (qops).  Any other
component, a pinned one, a q^(aH3) image or an image of an image, is
called once per distinct family, side and level, at real q once per form
term.  On the circle every component
mirrors, comp(q^-1; conj x, conj y) = conj comp(q; x, y), so the second
term sums the conjugates of the first term's component values with their
coefficients: the mirror holds per component, not for a weighted sum.
That is the only scalar product, and it takes every family, since every
family has a decomposition.

At real q from |ln q| = quadrature.LATTICE_SWITCH on, a call whose every
component is labelled takes each radial integral as the Jackson sum on
the q^2 lattice (quadrature.lattice_integral), in the same integrand: the
lattice's nodes are q apart, so a ket read at q^-+1 rho is the lattice
shifted by one node, and each tower is evaluated once per parameter, on
all the lattice's nodes, with Q_{1/2} stepped along them (qspecial._psi).
The sum is exact on the representation space alone (a family pinned at
q = 1 misses by 5.7e-6 at q 0.6), so any other call keeps the radial
rule, as do q = 1 and the circle.  The sum has no error estimate, only
its rounding floor eps sum |terms|: a block whose floor, scaled as its
products, times LATTICE_FLOOR_FACTOR reaches ABS_TOL is refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import HalfInt, QParam, Regime, _check_form, _named, check_form_tower, m_values
from .qops import (
    PlaneFamily,
    _tower_values,
    _weighted_sum,
    apply_h_minus,
    apply_h_plus,
    psi_family,
)
from .quadrature import (
    ABS_TOL,
    LATTICE_FLOOR_FACTOR,
    lattice,
    lattice_integral,
    radial_integral,
)


def b_one(p: QParam) -> float:
    """B1 = (q - q^-1)/(2 ln q): 1 classically, sin(tau)/tau on the circle."""
    if p.regime is Regime.CLASSICAL:
        return 1.0
    if p.regime is Regime.POSITIVE_REAL:
        q = p.value
        return (q - 1.0 / q) / (2.0 * math.log(q))
    return math.sin(p.value) / p.value


def _terms(p: QParam):
    """(bra parameter, ket parameter, s) of each term of the form at p: the
    ket's arguments are scaled by s and the term is weighted by w_s."""
    qm1, qp1, pinv = p.power(-1), p.power(1), p.inverse()
    if p.regime is Regime.UNIT_CIRCLE:
        return ((p, p, qm1), (pinv, pinv, qp1))
    return ((pinv, p, qm1), (p, pinv, qp1))


def _components(fams, p: QParam, x, modes, tower) -> dict:
    """{(id(f), m): [(c, value), ...]} for each distinct family f of fams and
    m in modes: the coefficient and the value at (x, x) of each of f's
    components of mode m, in decomposition order.  A labelled component
    (a basis member or its H+, H- or Casimir image) takes its value from
    tower(labels, p, x), any other from its own call."""
    vals = {}
    for f in fams:
        for m in modes:
            if (id(f), m) not in vals:
                vals[id(f), m] = [(c, tower(comp.labels, p, x) if hasattr(comp, "labels")
                                   else comp(p, x, x)) for c, comp, mode in f.meta if mode == m]
    return vals


def _mode_rows(fams, vals: dict, modes) -> dict:
    """{m: rows} for each m in modes, row k the sum of fams[k]'s component
    values of mode m in vals, in decomposition order (qops._weighted_sum)."""
    sums = {key: _weighted_sum(entries) for key, entries in vals.items()}
    return {m: np.array([sums[id(f), m] for f in fams]) for m in modes}


def _scan(pairs: Sequence, p: QParam) -> tuple:
    """One pass over pairs: the pair indices of each tuple of common modes,
    {(J, N): (weights, operators)} that the labelled components ask for on
    their pair's common modes, and whether every component is labelled,
    after holding every labelled component of pairs to the form's bound at
    p (_check_form)."""
    blocks, towers, labelled = {}, {}, True
    for k, (f, g) in enumerate(pairs):
        common = tuple(sorted({m for _, _, m in f.meta} & {m for _, _, m in g.meta}))
        if common:
            blocks.setdefault(common, []).append(k)
        for _, comp, m in f.meta + g.meta:
            if not hasattr(comp, "labels"):
                labelled = False
                continue
            J, M, N, op = comp.labels
            _check_form(J, p)
            if m in common:
                ms, ops = towers.setdefault((J, N), (set(), set()))
                ms.add(M)
                ops.add(op)
    return blocks, {key: (tuple(sorted(ms, reverse=True)), tuple(sorted(ops - {None})))
                    for key, (ms, ops) in towers.items()}, labelled


def _refuse_floor(pairs, ks, floors, p: QParam):
    """Refuse a lattice block whose rounding floors, per pair ks, times
    LATTICE_FLOOR_FACTOR reach ABS_TOL, where the radial rule stops (see
    above): name the tallest tower of its worst pair."""
    worst = int(np.argmax(floors))
    if LATTICE_FLOOR_FACTOR * floors[worst] >= ABS_TOL:
        f, g = pairs[ks[worst]]
        J, _, N, _ = max((comp.labels for _, comp, _ in f.meta + g.meta), key=lambda lab: lab[0])
        raise ValueError(f"the scalar products of the J={J}, N={N} tower on the q^2 lattice "
                         f"have rounding floor {floors[worst]:.2g}, at or past the bound "
                         f"{ABS_TOL / LATTICE_FLOOR_FACTOR:g} at {_named(p)}")


def _products(pairs: Sequence, p: QParam) -> list:
    """<f|g> at p for each pair (f, g) in pairs, in order (see above)."""
    blocks, plan, labelled = _scan(pairs, p)
    lat = lattice(p.value) if labelled and p.regime is Regime.POSITIVE_REAL else None
    evaluated = {}

    def tower(labels, param, x):
        # one evaluation per tower, parameter and node set, read by every
        # block.  On the lattice the node set is the lattice's, x is a window
        # of it, and its nodes step by q^2 of p: by q^-2 of param at p^-1
        J, M, N, op = labels
        key = (J, N, param) if lat else (J, N, param, x.dtype.char, x.tobytes())
        if key not in evaluated:
            ms, ops = plan[J, N]
            nodes = x if lat is None else lat.rho
            step = 0 if lat is None else 1 if param == p else -1
            evaluated[key] = {(m, name): row for name, rows in
                              zip((None, *ops), _tower_values(((J, ms),), N, ops, param, nodes,
                                                              nodes, step))
                              for m, row in zip(ms, rows)}
        row = evaluated[key][M, op]
        return row if lat is None else row[x]

    out = [0.0] * len(pairs)
    terms, scale = _terms(p), b_one(p) * 2.0 * math.pi  # read by every block
    mirror = p.regime is Regime.UNIT_CIRCLE
    for common, ks in blocks.items():
        bras, kets = [pairs[k][0] for k in ks], [pairs[k][1] for k in ks]

        def profile(rho, bra_x, ket_x):
            # bra_x, ket_x(s): the nodes of the bra, of a ket read at s rho
            eta = rho ** 2
            acc, sides = 0, None
            for bra_p, ket_p, s in terms:
                if mirror and sides:
                    # the second term, at p^-1 on rho and q rho, mirrors the
                    # first (see above), as conj(q rho) = q^-1 rho
                    sides = [{key: [(c, np.conj(val)) for c, val in entries]
                              for key, entries in vals.items()} for vals in sides]
                else:
                    # the sides of a term may share the parameter, not the argument
                    sides = [_components(bras, bra_p, bra_x, common, tower),
                             _components(kets, ket_p, ket_x(s), common, tower)]
                bra, ket = _mode_rows(bras, sides[0], common), _mode_rows(kets, sides[1], common)
                w = s / ((1.0 + eta) * (1.0 + s * s * eta))
                for m in common:
                    acc = acc + np.conj(bra[m]) * w * ket[m]
            return acc
        if lat is None:
            res = radial_integral(lambda rho: profile(rho, rho, lambda s: s * rho))
        else:
            res = lattice_integral(profile, lat)
            _refuse_floor(pairs, ks, abs(scale) * res.error, p)
        for k, val in zip(ks, res.value.tolist()):
            out[k] = scale * val
    return out


def inner(f: PlaneFamily, g: PlaneFamily, p: QParam) -> complex:
    """<f|g> at p on the physical slice: the one-pair case of _products."""
    return _products([(f, g)], p)[0]


@dataclass(frozen=True)
class GramReport:
    labels: tuple          # ((J, M), ...) as HalfInt pairs, row/column order
    matrix: np.ndarray
    max_offdiag: float
    max_diag_dev: float


def gram(N, J_list: Sequence, p: QParam) -> GramReport:
    """Full cross-Gram of the basis tower {(J, M): J in J_list, |M| <= J}
    in the scalar product at p.

    psi_(J,M,N) has the one mode M+N, so only the upper pairs of equal M go on
    one _products call; the matrix is filled Hermitian from them, 0 elsewhere.
    A tower past psi's reach, or on the circle past the scalar product's,
    is refused before it is built (check_form_tower).
    """
    N = HalfInt.of(N)
    check_form_tower(N, sorted(map(HalfInt.of, J_list)), p)
    states = [(J, M) for J in map(HalfInt.of, J_list) for M in m_values(J)]
    fams = [psi_family(J, M, N) for J, M in states]
    twice_m = np.array([M.twice for _, M in states])
    i, j = np.nonzero(np.triu(twice_m[:, None] == twice_m))  # like-M upper pairs, row order
    vals = np.array(_products([(fams[a], fams[b]) for a, b in zip(i, j)], p), dtype=complex)
    mat = np.zeros((len(states), len(states)), dtype=complex)
    mat[j, i] = np.conj(vals)
    mat[i, j] = vals  # after the conjugates: each diagonal entry keeps its own value
    return GramReport(labels=tuple(states), matrix=mat,
                      max_offdiag=float(np.max(np.abs(vals[i != j]), initial=0.0)),
                      max_diag_dev=float(np.max(np.abs(vals[i == j] - 1.0), initial=0.0)))


def adjoint_residual(f: PlaneFamily, g: PlaneFamily, p: QParam, N) -> float:
    """|<f|H+ g> - <H- f|g>| for the operators of weight N; the scalar
    products and the operators all read the one parameter p.  The two
    scalar products are one _products call."""
    plus, minus = _products([(f, apply_h_plus(g, N)), (apply_h_minus(f, N), g)], p)
    return abs(plus - minus)


def hermitian_symmetry_residual(f: PlaneFamily, g: PlaneFamily, p: QParam) -> float:
    """|conj(<f|g>) - <g|f>|, from one _products call."""
    fg, gf = _products([(f, g), (g, f)], p)
    return abs(np.conj(fg) - gf)
