"""Deterministic radial integration for the scalar products on the plane.

Gauss-Legendre nodes pushed through the rational map eta = (1+s)/(1-s),
rho = sqrt(eta); under this map every weight appearing in the scalar
products becomes a rational function of s, smooth up to the endpoints, and
node doubling converges geometrically.  No other radial map is offered: all
integrands here decay rationally and one well-tested map beats
configurability.  The rule's settings are the module constants below, the
one place they are set.  The angular integral never reaches this module:
qinner resolves it exactly by pairing like Fourier modes.

The Gauss-Legendre rules are built here, by the algorithm of numpy's
leggauss on numpy.linalg, bit for bit its nodes and weights, as importing
numpy.polynomial for leggauss alone took about 8 ms of each CLI call.  The
integrand is evaluated once on the nodes of the first two levels together,
as most scalar products converge at the second.
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
    s, w = _leggauss(n)
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def _leggauss(n: int):
    """numpy.polynomial.legendre.leggauss(n), step for step: the eigenvalues
    of the symmetric companion matrix of L_n, one Newton step, and the
    weights 1/(L_(n-1) L_n'), each factor scaled by its largest magnitude,
    then symmetrized and rescaled to sum to 2."""
    c = np.zeros(n + 1)
    c[n] = 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))

    dy = _legval(x, c)
    df = _legval(x, _legder(c))
    x -= dy / df

    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def _legval(x, c):
    """The Legendre series with coefficients c at the points x (Clenshaw)."""
    if len(c) == 1:
        return c[0] + 0 * x
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _legder(c):
    """The coefficients of the derivative of the Legendre series c."""
    c = c.copy()
    n = len(c) - 1
    der = np.empty(n)
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * c[j]
        c[j - 2] += c[j]
    if n > 1:
        der[1] = 3 * c[2]
    der[0] = c[1]
    return der


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
    error estimate.  Raises RuntimeError after MAX_REFINEMENTS doublings.

    F is called once on the nodes of levels 0 and 1 together, then once on
    the nodes of each further level.
    """
    rho0, w0 = radial_rule(RADIAL_NODES)
    rho1, w1 = radial_rule(2 * RADIAL_NODES)
    vals = np.asarray(F(np.concatenate((rho0, rho1))), dtype=complex)
    prev = complex(w0 @ vals[:RADIAL_NODES])
    est = complex(w1 @ vals[RADIAL_NODES:])
    err = abs(est - prev)
    if err < ABS_TOL:
        return PlaneIntegral(est, err)
    for level in range(2, MAX_REFINEMENTS + 1):
        prev = est
        rho, w = radial_rule(RADIAL_NODES * 2 ** level)
        est = complex(w @ np.asarray(F(rho), dtype=complex))
        err = abs(est - prev)
        if err < ABS_TOL:
            return PlaneIntegral(est, err)
    raise RuntimeError("radial integral did not converge within max_refinements")
