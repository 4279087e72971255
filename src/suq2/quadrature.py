"""Deterministic radial integration for the scalar products on the plane.

Gauss-Legendre nodes pushed through the rational map eta = (1+s)/(1-s),
rho = sqrt(eta); under this map every weight appearing in the scalar
products becomes a rational function of s, smooth up to the endpoints, and
node doubling converges geometrically.  No other radial map is offered: all
integrands here decay rationally and one well-tested map beats
configurability.  The angular integral never reaches this module: qinner
resolves it exactly by pairing like Fourier modes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

DEFAULT_ABS_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureConfig:
    radial_nodes: int = 16
    abs_tol: float = DEFAULT_ABS_TOL
    max_refinements: int = 6

    def __post_init__(self):
        if self.radial_nodes < 8:
            raise ValueError("radial_nodes must be >= 8")
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")


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


def radial_integral(F: Callable, cfg: QuadratureConfig = QuadratureConfig()) -> PlaneIntegral:
    """int_0^inf F(rho) rho drho, doubling the radial nodes until successive
    values differ by < cfg.abs_tol; the last difference is the error estimate.

    max_refinements = 0 evaluates a single fixed-node rule with no
    convergence control (error reported as inf); used for deliberate
    coarse/fine comparisons.
    """
    prev = None
    for level in range(cfg.max_refinements + 1):
        rho, w = radial_rule(cfg.radial_nodes * 2 ** level)
        est = complex(w @ np.asarray(F(rho), dtype=complex))
        if cfg.max_refinements == 0:
            return PlaneIntegral(est, float("inf"))
        if prev is not None:
            err = abs(est - prev)
            if err < cfg.abs_tol:
                return PlaneIntegral(est, err)
        prev = est
    raise RuntimeError("radial integral did not converge within max_refinements")
