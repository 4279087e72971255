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
from typing import Sequence

import numpy as np

from .qcore import HalfInt, QParam, Regime, m_values, validate_triple
from .qops import (
    PlaneFamily,
    apply_h_minus,
    apply_h_plus,
    apply_q_h3_power,
    psi_family,
)
from .quadrature import radial_integral


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


def inner(f: PlaneFamily, g: PlaneFamily, p: QParam) -> complex:
    """The scalar product <f|g> at p on the physical slice.

    The modes the two families share are matched on one radial integral at
    phi = 0; no shared mode gives an exact 0.0 (angular orthogonality).
    """
    if f.meta is None or g.meta is None:
        raise ValueError("the scalar product needs families with a Fourier decomposition")
    common = sorted({m for _, _, m in f.meta} & {m for _, _, m in g.meta})
    if not common:
        return 0.0
    terms = _terms(p)

    def profile(rho):
        eta = rho ** 2
        acc = 0
        for bra_p, ket_p, s in terms:
            bra = _modes_at(f, bra_p, rho, common)
            ket = _modes_at(g, ket_p, s * rho, common)
            w = s / ((1.0 + eta) * (1.0 + s * s * eta))
            for m in common:
                acc = acc + np.conj(bra[m]) * w * ket[m]
        return acc
    return b_one(p) * 2.0 * math.pi * radial_integral(profile).value


@dataclass(frozen=True)
class GramReport:
    labels: tuple          # ((J, M), ...) as HalfInt pairs, row/column order
    matrix: np.ndarray
    max_offdiag: float
    max_diag_dev: float


def gram(N, J_list: Sequence, p: QParam) -> GramReport:
    """Full cross-Gram of the basis tower {(J, M): J in J_list, |M| <= J}
    in the scalar product at p.

    Entries are filled Hermitian from the upper triangle.
    """
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
            val = inner(fams[i], fams[j], p)
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


def adjoint_residual(f: PlaneFamily, g: PlaneFamily, p: QParam, N) -> float:
    """max of |<f|H+ g> - <H- f|g>| and the q^(2H3) surrogate residual, for
    the operators of weight N; the scalar products and the operators all
    read the one parameter p.

    The H3 surrogate pairs q^(2H3) on the ket with its adjoint on the bra:
    itself in the real regime (the dilation is then symmetric), its inverse
    on the circle (the dilation is unitary there).
    """
    r_plus = abs(inner(f, apply_h_plus(g, N), p) - inner(apply_h_minus(f, N), g, p))
    bra_power = 2.0 if p.regime is Regime.POSITIVE_REAL else -2.0
    r_h3 = abs(inner(f, apply_q_h3_power(g, N, 2.0), p)
               - inner(apply_q_h3_power(f, N, bra_power), g, p))
    return max(r_plus, r_h3)


def hermitian_symmetry_residual(f: PlaneFamily, g: PlaneFamily, p: QParam) -> float:
    """|conj(<f|g>) - <g|f>|."""
    return abs(np.conj(inner(f, g, p)) - inner(g, f, p))
