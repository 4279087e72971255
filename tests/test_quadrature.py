import math

import mpmath
import numpy as np
import pytest

from suq2 import quadrature
from suq2.quadrature import PlaneIntegral, radial_integral


def _recorded(F):
    """F, and the rho arrays of the calls it receives."""
    calls = []

    def recorded(rho):
        calls.append(rho)
        return F(rho)
    return recorded, calls


def _t(rho):
    """The rule's t of the node rho: x = ln rho^2 = SCALE sinh t."""
    return np.arcsinh(2.0 * np.log(rho) / quadrature.SCALE)


# int_0^inf F(rho) rho drho in closed form; in x = ln eta the integrands
# decay like e^(-|x|) (the classical weight), like e^(-e^x) (a Gaussian in
# rho) and like a Gaussian in x, and one oscillates in x
CLOSED_FORMS = {
    "classical-weight": (lambda rho: 2.0 / (1 + rho ** 2) ** 2, 1.0),
    "cubic": (lambda rho: 1.0 / (1 + rho ** 2) ** 3, 0.25),
    "gaussian-in-rho": (lambda rho: np.exp(-rho ** 2), 0.5),
    "gaussian-in-x": (lambda rho: 2.0 * np.exp(-np.log(rho ** 2) ** 2) / rho ** 2, math.sqrt(math.pi)),
    # int_0^inf eta^(i a)/(1+eta)^2 deta = pi a / sinh(pi a)
    "oscillating": (lambda rho: 2.0 * rho ** 1.5j / (1 + rho ** 2) ** 2,
                    math.pi * 0.75 / math.sinh(math.pi * 0.75)),
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_closed_form_integrals(name):
    F, want = CLOSED_FORMS[name]
    res = radial_integral(F)
    assert isinstance(res, PlaneIntegral)
    assert abs(res.value - want) < 1e-13 * max(1.0, abs(want))
    assert res.error < quadrature.ABS_TOL


@pytest.mark.parametrize("name", ["classical-weight", "cubic", "gaussian-in-x", "oscillating"])
def test_decay_like_the_scalar_products_takes_one_call(name):
    # 129 nodes resolve the decays the scalar products have; the even nodes
    # confirm it
    F, sizes = _recorded(CLOSED_FORMS[name][0])
    radial_integral(F)
    assert [rho.size for rho in sizes] == [2 * round(quadrature.T_MAX / quadrature.STEP) + 1]


@pytest.mark.parametrize("name", ["classical-weight", "gaussian-in-rho"])
def test_one_call_is_the_trapezoid_sum_and_its_even_nodes(monkeypatch, name):
    # an infinite tolerance accepts the first level, whose error estimate is
    # visible for e^(-rho^2)
    monkeypatch.setattr(quadrature, "ABS_TOL", math.inf)
    F = CLOSED_FORMS[name][0]
    recorded, calls = _recorded(F)
    res = radial_integral(recorded)
    (rho,) = calls
    t = _t(rho)
    h = quadrature.STEP
    assert np.allclose(t, h * np.arange(-(t.size // 2), t.size // 2 + 1), rtol=0, atol=1e-12)
    assert abs(t[-1] - quadrature.T_MAX) < 1e-12 and t.size // 2 % 2 == 0
    # x reaches about +-44 at the ends, where e^(-|x|) is below 1e-19
    assert quadrature.SCALE * math.sinh(quadrature.T_MAX) > 40
    f = F(rho) * 0.5 * quadrature.SCALE * rho ** 2 * np.cosh(t)
    fine, coarse = h * np.sum(f), 2 * h * np.sum(f[::2])  # t = 0 is an even node
    assert res.value == pytest.approx(fine, rel=1e-15)
    if name == "classical-weight":
        assert res.error < 1e-14
    else:
        assert res.error == pytest.approx(abs(fine - coarse), rel=1e-6, abs=0) and res.error > 1e-10


@pytest.mark.parametrize("name,tol", [("gaussian-in-rho", None), ("oscillating", 0.0)],
                         ids=["converges", "raises"])
def test_refinements_evaluate_only_the_new_midpoints(monkeypatch, name, tol):
    # e^(-rho^2) = e^(-e^x) needs a second level; a zero tolerance runs
    # every level and raises
    if tol is not None:
        monkeypatch.setattr(quadrature, "ABS_TOL", tol)
    F = CLOSED_FORMS[name][0]
    recorded, calls = _recorded(F)
    try:
        res = radial_integral(recorded)
    except RuntimeError:
        res = None
    assert (res is None) == (tol == 0.0)
    assert len(calls) == (2 if res else quadrature.MAX_REFINEMENTS)
    seen = np.sort(_t(calls[0]))
    for rho in calls[1:]:
        mid = np.sort(_t(rho))
        # one new node inside each gap of the nodes seen so far, at its middle
        assert mid.size == seen.size - 1
        assert np.all(seen[:-1] < mid) and np.all(mid < seen[1:])
        assert np.allclose(mid, 0.5 * (seen[:-1] + seen[1:]), rtol=0, atol=1e-12)
        seen = np.sort(np.concatenate((seen, mid)))
    if res is not None:
        # the accepted value is the trapezoid sum over every node evaluated
        rho = np.exp(0.5 * quadrature.SCALE * np.sinh(seen))
        h = quadrature.STEP / 2 ** (len(calls) - 1)
        f = F(rho) * 0.5 * quadrature.SCALE * rho ** 2 * np.cosh(seen)
        assert res.value == pytest.approx(h * np.sum(f), rel=1e-14)


def test_nonconvergence_raises_after_max_refinements():
    rng = np.random.default_rng(7)
    calls = []

    def noisy(rho):
        # deliberately irreproducible integrand defeats the convergence test
        calls.append(rho.size)
        return rng.normal(size=rho.shape) / (1 + rho ** 2) ** 2

    with pytest.raises(RuntimeError, match="radial integral did not converge within max_refinements"):
        radial_integral(noisy)
    # MAX_REFINEMENTS halvings of the coarsest step 2 STEP, the first of
    # them in the first call: 6 calls on 4097 nodes
    n = round(quadrature.T_MAX / quadrature.STEP)
    assert calls == [2 * n + 1] + [2 * n * 2 ** k for k in range(quadrature.MAX_REFINEMENTS - 1)]
    h = 2 * quadrature.STEP / 2 ** quadrature.MAX_REFINEMENTS
    assert sum(calls) == round(2 * quadrature.T_MAX / h) + 1 == 4097


def test_the_oscillating_closed_form_is_gamma_times_gamma():
    a = 0.75
    want = complex(mpmath.gamma(1 + 1j * a) * mpmath.gamma(1 - 1j * a))
    assert want == pytest.approx(CLOSED_FORMS["oscillating"][1], rel=1e-15)
