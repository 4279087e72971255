import numpy as np
import pytest

from suq2.quadrature import (
    PlaneIntegral,
    QuadratureConfig,
    gauss_legendre,
    integrate_plane,
    radial_integral,
    radial_rule,
)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(radial_nodes=4)
    with pytest.raises(ValueError):
        QuadratureConfig(angular_nodes=0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)


def test_unit_norm_weight():
    # int 2/(2 pi (1+rho^2)^2) rho drho dphi = 1; the rational map makes the
    # radial integrand a constant in s, so this is exact at any node count
    res = integrate_plane(lambda rho, phi: 2.0 / (2 * np.pi * (1 + rho ** 2) ** 2))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.error < 1e-10


def test_fourier_mode_vanishes():
    base = integrate_plane(lambda rho, phi: 1.0 / (1 + rho ** 2) ** 2 + 0 * phi)
    for k in (1, 2, 5):
        res = integrate_plane(lambda rho, phi: np.exp(1j * k * phi) / (1 + rho ** 2) ** 2)
        assert abs(res.value) < 1e-14 * abs(base.value)


def test_gaussian():
    # int_0^inf e^{-rho^2} rho drho = 1/2; exponential decay is the hard case
    # for a rational map, so allow the refinement loop to do its job
    cfg = QuadratureConfig(radial_nodes=32, angular_nodes=1, abs_tol=1e-9, max_refinements=7)
    res = integrate_plane(lambda rho, phi: np.exp(-rho ** 2) / (2 * np.pi), cfg)
    assert res.value == pytest.approx(0.5, abs=1e-8)


def test_radial_integral_matches_plane():
    cfg = QuadratureConfig(abs_tol=1e-11)
    a = radial_integral(lambda rho: 1.0 / (1 + rho ** 2) ** 3, cfg)
    b = integrate_plane(lambda rho, phi: 1.0 / (2 * np.pi * (1 + rho ** 2) ** 3), cfg)
    assert a.value == pytest.approx(b.value, abs=1e-10)
    assert a.value == pytest.approx(0.25, abs=1e-10)


def test_refinement_reduces_error():
    # same integrand, tighter tolerance -> smaller reported error estimate
    g = lambda rho, phi: np.exp(-rho ** 2) / (2 * np.pi)
    loose = integrate_plane(g, QuadratureConfig(radial_nodes=8, angular_nodes=1,
                                                abs_tol=1e-4, max_refinements=8))
    tight = integrate_plane(g, QuadratureConfig(radial_nodes=8, angular_nodes=1,
                                                abs_tol=1e-9, max_refinements=8))
    assert tight.error < loose.error


def test_nonconvergence_raises():
    rng = np.random.default_rng(7)

    def noisy(rho, phi):
        # deliberately irreproducible integrand defeats the convergence test
        return rng.normal(size=np.broadcast(rho, phi).shape) / (1 + rho ** 2) ** 2

    with pytest.raises(RuntimeError):
        integrate_plane(noisy, QuadratureConfig(abs_tol=1e-14, max_refinements=3))


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
    res = integrate_plane(lambda rho, phi: 1.0 / (1 + rho ** 2) ** 2)
    assert isinstance(res, PlaneIntegral)
