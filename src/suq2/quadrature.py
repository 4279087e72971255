"""Deterministic radial integration for the scalar products on the plane.

In x = ln eta, eta = rho^2, the radial integral is

    int_0^inf F(rho) rho drho = int F(e^(x/2)) e^x / 2 dx,

and every integrand the scalar products pass here is analytic in a strip
about the real x axis and decays at both ends about like e^(-|x|). The
sinh map x = SCALE sinh t turns that decay double-exponential, and the
trapezoid rule in t with step h on |t| <= T_MAX, weight h e^x SCALE
cosh(t) / 2, converges geometrically in 1/h: a double-exponential rule
(Takahasi & Mori, Publ. RIMS 9, 1974; Trefethen & Weideman, SIAM Rev.
56, 2014). T_MAX takes x out to about +-44, where e^(-|x|) falls below
1e-19 of its peak.

Halving h keeps every node and adds the midpoints, so the levels nest.
The first integrand call carries every node of step STEP; its even nodes
alone are the rule of step 2 STEP, and the two sums are the first
comparison.  Each refinement then evaluates the new midpoints only.  The
rule's settings are the module constants below, the one place they are
set.  The angular integral never reaches this module: qinner resolves it
exactly by pairing like Fourier modes.

At real q the integrands of the scalar products on the representation
space have a second, exact rule: the Jackson sum on the q^2 lattice
(Gasper & Rahman, Basic Hypergeometric Series, 2004, sec. 1.11),

    int G dx = 2 |ln q| sum_k G(x0 + 2k ln q)    for every offset x0,

so int_0^inf F(rho) rho drho = |ln q| sum_k eta_k F(rho_k) on the nodes
rho_k = e^(x_k / 2), x_k = x0 + 2k ln q, eta_k = rho_k^2.  Its nodes are q
apart, rho_(k+-1) = q^(+-1) rho_k, so a side of the form read at q^(+-1)
rho is the lattice shifted by one node.  The sum covers the
double-exponential rule's x-range, |x| <= SCALE sinh T_MAX, widened by the
shift 2|ln q| on each side; it has no refinement and no error estimate,
only its rounding floor eps sum_k |eta_k F(rho_k)|.  It has more nodes
than the rule's first level below |ln q| ~ 0.35, but it evaluates each
family on one node set per parameter, where the rule evaluates it on two
(rho and q^-+1 rho) per parameter at every level; LATTICE_SWITCH is where
the two cost the same, measured on the suites that take scalar products.
qinner takes it from there, on the integrands where it is exact.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

SCALE = 2.5            # C in x = ln eta = C sinh t
STEP = 1 / 18          # h of the first level: 2 T_MAX / STEP + 1 = 129 nodes
T_MAX = 64 * STEP      # the rule covers |t| <= T_MAX, |x| <= C sinh T_MAX ~ 44
ABS_TOL = 1e-10        # successive levels closer than this have converged
MAX_REFINEMENTS = 6    # halvings of h after the coarsest level, 2 STEP, before giving up
LATTICE_SWITCH = 0.08  # |ln q| from which the real-q scalar products take the lattice
LATTICE_FLOOR_FACTOR = 2  # a lattice sum's first-order error over its rounding floor


class PlaneIntegral(NamedTuple):
    value: complex | np.ndarray
    error: float | np.ndarray  # the rule's estimate, or the lattice's floor per entry


def _weighted(F: Callable, t):
    """F(rho) times the weight e^x C cosh(t) / 2 at the points t, x = C sinh t."""
    x = SCALE * np.sinh(t)
    return np.asarray(F(np.exp(0.5 * x)), dtype=complex) * (0.5 * SCALE * np.exp(x) * np.cosh(t))


def radial_integral(F: Callable) -> PlaneIntegral:
    """int_0^inf F(rho) rho drho, halving the step from STEP until successive
    values differ by < ABS_TOL in every entry of F, whose last axis runs over
    the nodes; the largest last difference is the error estimate.  Raises
    RuntimeError after MAX_REFINEMENTS halvings of the coarsest step 2 STEP,
    made in at most MAX_REFINEMENTS calls of F (see above).
    """
    n, h = round(T_MAX / STEP), STEP
    vals = _weighted(F, h * np.arange(-n, n + 1))
    total = vals.sum(-1)
    prev, est = 2 * h * vals[..., ::2].sum(-1), h * total
    calls = 1  # the first call holds the first halving
    while not (err := float(np.abs(est - prev).max())) < ABS_TOL:  # a nan never passes
        if calls == MAX_REFINEMENTS:
            raise RuntimeError("radial integral did not converge within max_refinements")
        h /= 2
        total = total + _weighted(F, h * np.arange(1 - 2 * n, 2 * n, 2)).sum(-1)
        n *= 2
        calls += 1
        prev, est = est, h * total
    return PlaneIntegral(est, err)


class Lattice(NamedTuple):
    """The nodes rho_k = e^(x_k / 2), x_k = x0 + 2k ln q, for |k| <= K + 1:
    the sum's nodes, |k| <= K, and one more on each side for the sides of
    the form read at q^(+-1) rho (window)."""
    rho: np.ndarray
    log_q: float

    def window(self, s) -> slice:
        """The nodes s rho_j of the sum's nodes rho_j, for s = q^k, k in
        {-1, 0, 1}: the sum's nodes shifted by k."""
        k = round(math.log(abs(s)) / self.log_q)
        return slice(1 + k, len(self.rho) - 1 + k)


def lattice(q: float, x0: float = 0.0) -> Lattice | None:
    """The q^2 lattice at offset x0 (see above), whose sum's nodes cover
    |x| <= SCALE sinh T_MAX + 2|ln q|; None where |ln q| < LATTICE_SWITCH,
    where the double-exponential rule costs less."""
    log_q = math.log(q)
    if abs(log_q) < LATTICE_SWITCH:
        return None
    K = math.ceil((SCALE * math.sinh(T_MAX) + abs(x0)) / (2.0 * abs(log_q))) + 1
    return Lattice(np.exp(0.5 * x0 + log_q * np.arange(-K - 1, K + 2)), log_q)


def lattice_integral(F: Callable, lat: Lattice) -> PlaneIntegral:
    """int_0^inf F(rho) rho drho as the lattice's Jackson sum, from one call
    F(rho, lat.window(1), lat.window) on the sum's nodes rho, whose last
    axis runs over the nodes; the error is the sum's rounding floor, per
    entry of F."""
    bra = lat.window(1)
    rho = lat.rho[bra]
    terms = np.asarray(F(rho, bra, lat.window), dtype=complex) * (abs(lat.log_q) * rho * rho)
    return PlaneIntegral(terms.sum(-1), np.finfo(float).eps * np.abs(terms).sum(-1))
