"""Deterministic radial integration for the scalar products on the plane.

Gauss-Legendre nodes pushed through the rational map eta = (1+s)/(1-s),
rho = sqrt(eta); under this map every weight appearing in the scalar
products becomes a rational function of s, smooth up to the endpoints, and
node doubling converges geometrically.  No other radial map is offered: all
integrands here decay rationally and one well-tested map beats
configurability.  The rule's settings are the module constants below, the
one place they are set.  The angular integral never reaches this module:
qinner resolves it exactly by pairing like Fourier modes.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

RADIAL_NODES = 16      # nodes of the first level; each further level doubles them
ABS_TOL = 1e-10        # successive levels closer than this have converged
MAX_REFINEMENTS = 6    # doublings after the first level before giving up


class PlaneIntegral(NamedTuple):
    value: complex
    error: float


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on (-1, 1), built once per n.

    The arrays are shared between callers and therefore read-only.  The
    cache keeps the 64 most recently used n, far more than the node counts
    one refinement ladder visits.
    """
    s, w = np.polynomial.legendre.leggauss(n)
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def radial_rule(n: int):
    """Nodes rho_i and weights w_i with sum w_i F(rho_i) ~ int_0^inf F(rho) rho drho.

    Uses eta = (1+s)/(1-s) on Gauss-Legendre s in (-1,1); rho drho = deta/2
    and deta/ds = 2/(1-s)^2 fold the Jacobian into the weights.
    """
    s, w = gauss_legendre(n)
    eta = (1.0 + s) / (1.0 - s)
    return np.sqrt(eta), w / (1.0 - s) ** 2


def radial_integral(F: Callable) -> PlaneIntegral:
    """int_0^inf F(rho) rho drho, doubling the radial nodes from RADIAL_NODES
    until successive values differ by < ABS_TOL; the last difference is the
    error estimate.  Raises RuntimeError after MAX_REFINEMENTS doublings."""
    prev = None
    for level in range(MAX_REFINEMENTS + 1):
        rho, w = radial_rule(RADIAL_NODES * 2 ** level)
        est = complex(w @ np.asarray(F(rho), dtype=complex))
        if prev is not None:
            err = abs(est - prev)
            if err < ABS_TOL:
                return PlaneIntegral(est, err)
        prev = est
    raise RuntimeError("radial integral did not converge within max_refinements")
