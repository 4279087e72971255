"""Classical and q-deformed sesquilinear forms on the plane.

Each form is a short table of terms; a term evaluates the bra family at one
parameter, the ket family at another (with its arguments q-scaled), and
multiplies by a rational radial weight:

  classical      <f|g>   =  integral conj(f) * 2/(1+eta)^2 * g
  deformed real  <f|g>_q = B1 * integral [ conj(f|_(q^-1)) w_(q^-1) g(q^-1 .)|_q
                                         + conj(f|_q)      w_q      g(q .)|_(q^-1) ]
  deformed circle            same two terms with the bra parameters swapped:
                           conj slot carries q in the first term, q^-1 in the
                           second, keeping the form Hermitian on the circle

with w_s(eta) = s/((1+eta)(1+s^2 eta)), B1 = (q - q^-1)/(2 ln q), and
eta = u v on the physical slice v = conj(u).  B1 is real in both regimes
(sin(tau)/tau on the circle, principal log) -- the Hermiticity constraint
B2 = conj(B1) leaves no other choice.

Every family that qops builds from basis members records its Fourier
decomposition (PlaneFamily.meta): components of exact modes, psi_(J,M,N)
being one of mode M+N.  On the physical slice a component of mode m is
e^{-i m phi} times its value at phi = 0, so the angular integral keeps only
the products of like modes and <f|g> is one radial integral of
2 pi sum_terms w sum_m conj(F_m) G_m, where F_m sums f's components of mode m
at (rho, rho).  That radial integral is the only scalar product: a family
without a decomposition is rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .qcore import HalfInt, QParam, Regime, m_values, validate_triple
from .qops import (
    PlaneFamily,
    RealizationParams,
    apply_h_minus,
    apply_h_plus,
    apply_q_h3_power,
    psi_family,
)
from .quadrature import QuadratureConfig, radial_integral


class InnerProductKind(Enum):
    CLASSICAL = "Classical"
    DEFORMED_REAL = "DeformedReal"
    DEFORMED_CIRCLE = "DeformedCircle"


_KIND_REGIME = {
    InnerProductKind.CLASSICAL: Regime.CLASSICAL,
    InnerProductKind.DEFORMED_REAL: Regime.POSITIVE_REAL,
    InnerProductKind.DEFORMED_CIRCLE: Regime.UNIT_CIRCLE,
}


def kind_for(p: QParam) -> InnerProductKind:
    for kind, regime in _KIND_REGIME.items():
        if p.regime is regime:
            return kind
    raise ValueError(f"no inner-product kind for regime {p.regime}")


def _check_kind(kind: InnerProductKind, p: QParam):
    if _KIND_REGIME[kind] is not p.regime:
        raise ValueError(f"{kind.value} inner product requires regime "
                         f"{_KIND_REGIME[kind].value}, got {p.regime.value}")


def b_one(p: QParam) -> float:
    """B1 = (q - q^-1)/(2 ln q): 1 classically, sin(tau)/tau on the circle."""
    if p.regime is Regime.CLASSICAL:
        return 1.0
    if p.regime is Regime.POSITIVE_REAL:
        q = p.value
        return (q - 1.0 / q) / (2.0 * math.log(q))
    return math.sin(p.value) / p.value


@dataclass(frozen=True)
class _Term:
    bra_p: QParam
    ket_p: QParam
    ket_scale: complex   # ket arguments are multiplied by this (a power of q)
    weight_s: complex    # w(eta) = weight_s/((1+eta)(1+weight_s^2 eta)) scaled by B1


def _terms(kind: InnerProductKind, p: QParam):
    if kind is InnerProductKind.CLASSICAL:
        return [_Term(p, p, 1.0, 1.0)]
    qm1, qp1 = p.power(-1), p.power(1)
    pinv = p.inverse()
    if kind is InnerProductKind.DEFORMED_REAL:
        return [_Term(pinv, p, qm1, qm1), _Term(p, pinv, qp1, qp1)]
    return [_Term(p, p, qm1, qm1), _Term(pinv, pinv, qp1, qp1)]


def _weight(term: _Term, kind: InnerProductKind, eta):
    if kind is InnerProductKind.CLASSICAL:
        return 2.0 / (1.0 + eta) ** 2
    s = term.weight_s
    return s / ((1.0 + eta) * (1.0 + s * s * eta))


def _modes_at(f: PlaneFamily, p: QParam, x, modes) -> dict:
    """{m: F_m} for each m in modes: f's components of mode m summed at (x, x).

    A component with coefficient 1 (a basis member) enters unmultiplied.
    """
    out = {}
    for c, comp, m in f.meta:
        if m in modes:
            val = comp(p, x, x)
            if c != 1:
                val = c * val
            out[m] = out[m] + val if m in out else val
    return out


def inner(kind: InnerProductKind, f: PlaneFamily, g: PlaneFamily, p: QParam,
          cfg: QuadratureConfig = QuadratureConfig()) -> complex:
    """Sesquilinear form <f|g> of the given kind on the physical slice.

    The modes the two families share are matched on one radial integral at
    phi = 0; no shared mode gives an exact 0.0 (angular orthogonality).
    """
    _check_kind(kind, p)
    if f.meta is None or g.meta is None:
        raise ValueError("the scalar product needs families with a Fourier decomposition")
    common = sorted({m for _, _, m in f.meta} & {m for _, _, m in g.meta})
    if not common:
        return 0.0
    terms = _terms(kind, p)

    def profile(rho):
        acc = 0
        for t in terms:
            bra = _modes_at(f, t.bra_p, rho, common)
            ket = _modes_at(g, t.ket_p, t.ket_scale * rho, common)
            w = _weight(t, kind, rho ** 2)
            for m in common:
                acc = acc + np.conj(bra[m]) * w * ket[m]
        return acc
    return b_one(p) * 2.0 * math.pi * radial_integral(profile, cfg).value


@dataclass(frozen=True)
class GramReport:
    labels: tuple          # ((J, M), ...) as HalfInt pairs, row/column order
    matrix: np.ndarray
    max_offdiag: float
    max_diag_dev: float


def gram(N, J_list: Sequence, p: QParam, kind: InnerProductKind,
         cfg: QuadratureConfig = QuadratureConfig()) -> GramReport:
    """Full cross-Gram of the basis tower {(J, M): J in J_list, |M| <= J}.

    Entries are filled Hermitian from the upper triangle.
    """
    _check_kind(kind, p)
    N = HalfInt.of(N)
    states = []
    for J in J_list:
        J = HalfInt.of(J)
        for M in m_values(J):
            validate_triple(J, M, N)
            states.append((J, M))
    n = len(states)
    mat = np.zeros((n, n), dtype=complex)
    fams = [psi_family(J, M, N) for (J, M) in states]
    for i in range(n):
        for j in range(i, n):
            val = inner(kind, fams[i], fams[j], p, cfg)
            mat[i, j] = val
            if j != i:
                mat[j, i] = np.conj(val)
    dev = mat - np.eye(n)
    off = mat - np.diag(np.diag(mat))
    return GramReport(
        labels=tuple(states),
        matrix=mat,
        max_offdiag=float(np.max(np.abs(off))) if n else 0.0,
        max_diag_dev=float(np.max(np.abs(np.diag(dev)))) if n else 0.0,
    )


def adjoint_residual(f: PlaneFamily, g: PlaneFamily, p: QParam,
                     r: RealizationParams,
                     cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """max of |<f|H+ g> - <H- f|g>| and the q^(2H3) surrogate residual, in
    the scalar product kind_for(p).

    The H3 surrogate pairs q^(2H3) on the ket with its adjoint on the bra:
    itself in the real regime (the dilation is then symmetric), its inverse
    on the circle (the dilation is unitary there).
    """
    kind = kind_for(p)
    r_plus = abs(inner(kind, f, apply_h_plus(g, r), p, cfg)
                 - inner(kind, apply_h_minus(f, r), g, p, cfg))
    bra_power = 2.0 if kind is InnerProductKind.DEFORMED_REAL else -2.0
    r_h3 = abs(inner(kind, f, apply_q_h3_power(g, r, 2.0), p, cfg)
               - inner(kind, apply_q_h3_power(f, r, bra_power), g, p, cfg))
    return max(r_plus, r_h3)


def hermitian_symmetry_residual(f: PlaneFamily, g: PlaneFamily, p: QParam,
                                cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """|conj(<f|g>) - <g|f>| in the scalar product kind_for(p)."""
    kind = kind_for(p)
    return abs(np.conj(inner(kind, f, g, p, cfg)) - inner(kind, g, f, p, cfg))
