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
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

SCALE = 2.5            # C in x = ln eta = C sinh t
STEP = 1 / 18          # h of the first level: 2 T_MAX / STEP + 1 = 129 nodes
T_MAX = 64 * STEP      # the rule covers |t| <= T_MAX, |x| <= C sinh T_MAX ~ 44
ABS_TOL = 1e-10        # successive levels closer than this have converged
MAX_REFINEMENTS = 6    # halvings of h after the coarsest level, 2 STEP, before giving up


class PlaneIntegral(NamedTuple):
    value: complex | np.ndarray
    error: float


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
