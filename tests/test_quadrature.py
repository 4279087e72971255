import numpy as np
import pytest

from suq2 import quadrature
from suq2.quadrature import (
    PlaneIntegral,
    gauss_legendre,
    radial_integral,
    radial_rule,
)


def test_unit_norm_weight():
    # int_0^inf 2/(1+rho^2)^2 rho drho = 1; the rational map makes the
    # integrand a constant in s, so this is exact at any node count
    res = radial_integral(lambda rho: 2.0 / (1 + rho ** 2) ** 2)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.error < 1e-10


def test_gaussian():
    # int_0^inf e^{-rho^2} rho drho = 1/2; exponential decay is the hard case
    # for a rational map, so allow the refinement loop to do its job
    res = radial_integral(lambda rho: np.exp(-rho ** 2))
    assert res.value == pytest.approx(0.5, abs=1e-8)


def test_radial_integral_matches_plane():
    # against a fixed 256 x 16 polar grid of the same phi-independent integrand
    a = radial_integral(lambda rho: 1.0 / (1 + rho ** 2) ** 3)
    rho, w = radial_rule(256)
    phi = np.arange(16) * (2 * np.pi / 16)
    grid = np.ones_like(phi) / (2 * np.pi * (1 + rho[:, None] ** 2) ** 3)
    b = w @ grid.sum(axis=1) * (2 * np.pi / 16)
    assert a.value == pytest.approx(b, abs=1e-10)
    assert a.value == pytest.approx(0.25, abs=1e-10)


def test_refinement_reduces_error(monkeypatch):
    # same integrand, tighter tolerance -> smaller reported error estimate
    F = lambda rho: np.exp(-rho ** 2)
    monkeypatch.setattr(quadrature, "RADIAL_NODES", 8)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 8)
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-4)
    loose = radial_integral(F)
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-9)
    tight = radial_integral(F)
    assert tight.error < loose.error


def test_nonconvergence_raises():
    rng = np.random.default_rng(7)

    def noisy(rho):
        # deliberately irreproducible integrand defeats the convergence test
        return rng.normal(size=rho.shape) / (1 + rho ** 2) ** 2

    with pytest.raises(RuntimeError, match="radial integral did not converge within max_refinements"):
        radial_integral(noisy)


def test_radial_rule_weights_positive():
    rho, w = radial_rule(32)
    assert np.all(w > 0)
    assert np.all(np.diff(rho) > 0)


def test_gauss_legendre_cached_read_only_and_exact():
    s, w = gauss_legendre(24)
    assert gauss_legendre(24)[0] is s
    assert not s.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        s[0] = 0.0
    s_ref, w_ref = np.polynomial.legendre.leggauss(24)
    assert s.tobytes() == s_ref.tobytes() and w.tobytes() == w_ref.tobytes()


def test_returns_named_tuple():
    res = radial_integral(lambda rho: 1.0 / (1 + rho ** 2) ** 2)
    assert isinstance(res, PlaneIntegral)


@pytest.mark.parametrize("n", [quadrature.RADIAL_NODES * 2 ** k
                               for k in range(quadrature.MAX_REFINEMENTS + 1)])
def test_gauss_legendre_is_leggauss_bit_for_bit_on_every_level(n):
    s, w = gauss_legendre(n)
    s_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert s.tobytes() == s_ref.tobytes() and w.tobytes() == w_ref.tobytes()


def _recorded(F):
    """F, and the node counts of the calls it receives."""
    sizes = []

    def recorded(rho):
        sizes.append(rho.size)
        return F(rho)
    return recorded, sizes


def test_converging_at_level_one_calls_the_integrand_once():
    # the map makes this integrand constant in s, so levels 0 and 1 agree
    F, sizes = _recorded(lambda rho: 2.0 / (1 + rho ** 2) ** 2)
    res = radial_integral(F)
    n = quadrature.RADIAL_NODES
    assert sizes == [3 * n]
    rho0, w0 = radial_rule(n)
    rho1, w1 = radial_rule(2 * n)
    assert res.value == complex(w1 @ (2.0 / (1 + rho1 ** 2) ** 2).astype(complex))
    assert res.error == abs(res.value - complex(w0 @ (2.0 / (1 + rho0 ** 2) ** 2).astype(complex)))


def test_later_levels_each_take_one_call():
    F, sizes = _recorded(lambda rho: np.exp(-rho ** 2))
    radial_integral(F)
    n = quadrature.RADIAL_NODES
    assert len(sizes) >= 2
    assert sizes == [3 * n] + [n * 2 ** k for k in range(2, len(sizes) + 1)]
