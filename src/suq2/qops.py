"""Generators as q-dilation stencils on plane families, and matrix irreps.

The generators never differentiate: H3-dependent quantities go through the
exact dilations q^(a H3): f -> q^(-a N) f(q^-a u, q^a v), and the ladder
operators are finite q-difference stencils built from dilations of the two
arguments.  Families keep (u, v) independent (physical slice v = conj(u))
because circle-regime dilations move the arguments off that slice.

A stencil calls its operand once, on the dilated arguments it needs stacked
along a new leading axis (_at_dilations), so nested stencils stack further
and a whole stencil tree reaches psi in one call: each Casimir ordering
makes one call for its ladder product and one for its q-number brackets.

Stencils are parameter-covariant: the deformation parameter used by a
stencil is the one supplied at evaluation time, not the one captured at
construction.  The deformed scalar products evaluate bra-side families at
the inverted parameter, and covariance is what makes an operator commute
with that inversion.
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
    validate_triple,
)
from .qspecial import psi


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


@dataclass(frozen=True)
class RealizationParams:
    N: HalfInt
    p: QParam

    def __post_init__(self):
        object.__setattr__(self, "N", HalfInt.of(self.N))
        if self.p.regime is Regime.CLASSICAL:
            # every stencil divides by q - q^-1
            raise ValueError("dilation stencils need a deformed parameter (q != 1)")


def psi_family(J, M, N) -> PlaneFamily:
    """Basis member as a family; the parameter stays a free slot.  It is
    one component of mode M + N, with coefficient 1."""
    J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
    validate_triple(J, M, N)
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


def _require_deformed(p: QParam):
    if p.regime is Regime.CLASSICAL:
        raise ValueError("stencil evaluation needs a deformed parameter (q != 1)")


def _at_dilations(f: PlaneFamily, p: QParam, u, v, scales):
    """f at (a u, b v) for every (a, b) in scales, stacked along a new first
    axis, from one call of f on the stacked dilated arguments.  A stencil
    evaluated this way hands its operand one array, so nested stencils reach
    psi once, on the stack of every dilation the tree needs; each dilated
    argument is the product a * u (b * v) that separate calls would pass."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))
    return f(p, np.stack([a * u for a, _ in scales]), np.stack([b * v for _, b in scales]))


def apply_h_plus(f: PlaneFamily, r: RealizationParams) -> PlaneFamily:
    """Raising stencil; evaluation at u = 0 is excluded (division by u)."""
    nf = float(r.N)

    def ev(p, u, v):
        _require_deformed(p)
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        if np.any(u == 0):
            raise ValueError("h_plus stencil is singular at u = 0")
        q1, qm1 = p.power(1), p.power(-1)
        d = q1 - qm1
        f_pp, f_mp, f_pm = _at_dilations(f, p, u, v, ((q1, q1), (qm1, q1), (q1, qm1)))
        t1 = -p.power(-nf / 2) * (f_pp - f_mp) / (d * u)
        t2 = -p.power(nf / 2) * v * (p.power(-nf) * f_pp - p.power(nf) * f_pm) / d
        return t1 + t2
    return PlaneFamily(ev, _map_modes(f, lambda comp: apply_h_plus(comp, r), +1))


def apply_h_minus(f: PlaneFamily, r: RealizationParams) -> PlaneFamily:
    """Lowering stencil; evaluation at v = 0 is excluded (division by v)."""
    nf = float(r.N)

    def ev(p, u, v):
        _require_deformed(p)
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        if np.any(v == 0):
            raise ValueError("h_minus stencil is singular at v = 0")
        q1, qm1 = p.power(1), p.power(-1)
        d = q1 - qm1
        f_pp, f_mp, f_pm = _at_dilations(f, p, u, v, ((q1, q1), (qm1, q1), (q1, qm1)))
        t1 = u * p.power(-nf / 2) * (p.power(nf) * f_pp - p.power(-nf) * f_mp) / d
        t2 = p.power(nf / 2) * (f_pp - f_pm) / (d * v)
        return t1 + t2
    return PlaneFamily(ev, _map_modes(f, lambda comp: apply_h_minus(comp, r), -1))


def apply_q_h3_power(f: PlaneFamily, r: RealizationParams, a: float) -> PlaneFamily:
    """q^(a H3): f -> q^(-a N) f(q^-a u, q^a v); exact, no differencing."""
    nf = float(r.N)
    return PlaneFamily(lambda p, u, v: p.power(-a * nf)
                       * f(p, p.power(-a) * np.asarray(u, complex),
                           p.power(a) * np.asarray(v, complex)),
                       _map_modes(f, lambda comp: apply_q_h3_power(comp, r, a)))


def _bracket_h3(f: PlaneFamily, r: RealizationParams, shift: int) -> PlaneFamily:
    """[H3 + shift]_q = (q^shift q^H3 - q^-shift q^-H3) / (q - q^-1), with
    q^(+-H3) f = q^(-+N) f(q^-+1 u, q^+-1 v)."""
    nf = float(r.N)

    def ev(p, u, v):
        _require_deformed(p)
        q1, qm1 = p.power(1), p.power(-1)
        f_up, f_dn = _at_dilations(f, p, u, v, ((qm1, q1), (q1, qm1)))
        up, dn = p.power(-nf) * f_up, p.power(nf) * f_dn
        return (p.power(shift) * up - p.power(-shift) * dn) / (q1 - qm1)
    return PlaneFamily(ev, _map_modes(f, lambda comp: _bracket_h3(comp, r, shift)))


def apply_casimir(f: PlaneFamily, r: RealizationParams, ordering: str = "plus_minus") -> PlaneFamily:
    """H+H- + [H3][H3-1], or the equivalent H-H+ + [H3][H3+1] ordering."""
    if ordering == "plus_minus":
        ladder = apply_h_plus(apply_h_minus(f, r), r)
        diag = _bracket_h3(_bracket_h3(f, r, -1), r, 0)
    elif ordering == "minus_plus":
        ladder = apply_h_minus(apply_h_plus(f, r), r)
        diag = _bracket_h3(_bracket_h3(f, r, +1), r, 0)
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return PlaneFamily(lambda p, u, v: ladder(p, u, v) + diag(p, u, v),
                       _map_modes(f, lambda comp: apply_casimir(comp, r, ordering)))


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
    n_max = max(J.twice + 1, 1)
    screen = check_not_root_of_unity(p, n_max)
    if not screen.passed:
        raise ValueError(f"degenerate parameter: [{screen.offending_n}]_q vanishes")
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
