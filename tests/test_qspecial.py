import cmath
import functools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suq2 import qspecial
from suq2 import (
    HalfInt,
    QParam,
    l_function,
    norm_constant,
    psi,
    q_factorial,
    q_finite_product,
    q_function,
    q_infinite_product,
    q_integral_exp,
    q_number,
    r_polynomial,
    vilenkin,
)

FUNCEQ_TOL_PRODUCT = 1e-12
FUNCEQ_TOL_INTEGRAL = 1e-8
L_EQ_TOL = 1e-9
CROSS_METHOD_TOL = 1e-12

P_HALF = QParam.positive_real(0.5)
P_TWO = QParam.positive_real(2.0)
P_CIRC = QParam.unit_circle(math.pi / 5)
P_CLASS = QParam.classical()

ETA_GRID = np.logspace(-2, 2, 25)


def funceq_residual(J, p, eta):
    """max |Q(q^2 eta)(1+eta) - Q(eta)(1+q^(-2J) eta)| / |Q(eta)| over the grid."""
    eta = np.asarray(eta, dtype=complex)
    qv = np.asarray(q_function(J, p, eta), complex)
    lhs = np.asarray(q_function(J, p, p.power(2) * eta), complex) * (1 + eta)
    rhs = qv * (1 + p.power(-2 * float(HalfInt.of(J))) * eta)
    return float(np.max(np.abs(lhs - rhs) / np.abs(qv)))


class TestRPolynomial:
    def test_linear_case(self):
        # J=1, M=N=0: [1]![1]! (1/([0]![1]![1]![0]!) - eta/([1]![0]![0]![1]!)) = 1 - eta
        for p in (P_TWO, P_CIRC, P_CLASS):
            assert r_polynomial(1, 0, 0, p, 2.0) == pytest.approx(-1.0)
            assert r_polynomial(1, 0, 0, p, 0.25) == pytest.approx(0.75)

    def test_stretched_state_is_constant(self):
        # M = J leaves the single k=0 term 1/[J+N]!
        p = P_TWO
        assert r_polynomial(2, 2, 1, p, 3.3) == pytest.approx(1 / q_factorial(3, p))
        assert r_polynomial(2, 2, 1, p, -7.0) == pytest.approx(1 / q_factorial(3, p))

    def test_degree(self):
        # leading power is min(J-M, J-N)
        eta = np.array([10.0, 100.0, 1000.0])
        vals = np.abs(np.asarray(r_polynomial(2, 0, 1, P_TWO, eta)))
        # degree 1: tenfold eta scales value tenfold asymptotically
        assert vals[2] / vals[1] == pytest.approx(10.0, rel=0.05)

    def test_negative_mode_sum_skips_poles(self):
        # M+N < 0 truncates the low end of k instead of dividing by zero
        v = r_polynomial(1, -1, 0, P_TWO, 1.5)
        assert np.isfinite(v)

    def test_symmetry_in_m_n(self):
        for eta in (0.2, 1.0, 5.0):
            assert r_polynomial(2, 1, 0, P_TWO, eta) == pytest.approx(
                r_polynomial(2, 0, 1, P_TWO, eta))

    def test_rejects_invalid_triple(self):
        with pytest.raises(ValueError):
            r_polynomial(1, 0.5, 0, P_TWO, 1.0)


class TestQConstructions:
    def test_finite_oracle(self):
        # J=2, q=2: 1/((1+eta/16)(1+eta/4)) at eta=1 -> 64/85
        assert q_finite_product(2, P_TWO, 1.0) == pytest.approx(64 / 85, rel=1e-15)
        assert q_finite_product(0, P_TWO, 123.0) == 1.0

    def test_finite_rejects_half_integer(self):
        with pytest.raises(ValueError):
            q_finite_product(1.5, P_TWO, 1.0)

    def test_finite_pole_reported(self):
        with pytest.raises(ValueError, match="k=0"):
            q_finite_product(1, P_TWO, -4.0)  # 1 + eta q^{-2} = 0

    def test_classical_dispatch(self):
        assert q_function(1, P_CLASS, 3.0) == pytest.approx(0.25)
        v = q_function(0.5, P_CLASS, 3.0)
        assert v == pytest.approx(0.5)

    def test_infinite_requires_real_regime(self):
        with pytest.raises(ValueError):
            q_infinite_product(1, P_CIRC, 1.0)

    def test_integral_requires_circle_regime(self):
        with pytest.raises(ValueError):
            q_integral_exp(1, P_TWO, 1.0)

    @pytest.mark.parametrize("J", [1, 2, 3])
    @pytest.mark.parametrize("p", [P_HALF, P_TWO])
    def test_finite_vs_infinite(self, J, p):
        a = np.asarray(q_finite_product(J, p, ETA_GRID))
        b = np.asarray(q_infinite_product(J, p, ETA_GRID))
        assert np.max(np.abs(a - b)) < CROSS_METHOD_TOL

    @pytest.mark.parametrize("J", [1, 2])
    def test_finite_vs_integral_on_circle(self, J):
        # (2J+1) tau must stay below pi or the integral construction's
        # L argument lands on the log branch cut; pi/23 is safe through J=11
        p = QParam.unit_circle(math.pi / 23)
        a = np.asarray(q_finite_product(J, p, ETA_GRID))
        b = np.asarray(q_integral_exp(J, p, ETA_GRID))
        assert np.max(np.abs(a - b)) < 1e-8

    def test_integral_ratio_is_q2_periodic(self):
        # the defining equation pins Q only up to a q^2-periodic factor, so
        # the two circle constructions must agree up to one; their ratio has
        # to be invariant under eta -> q^2 eta
        p = QParam.unit_circle(math.pi / 23)
        for J in (1, 2):
            eta = np.logspace(-1, 1, 9)
            r0 = np.asarray(q_finite_product(J, p, eta)) / np.asarray(q_integral_exp(J, p, eta))
            e2 = p.power(2) * eta
            r2 = np.asarray(q_finite_product(J, p, e2)) / np.asarray(q_integral_exp(J, p, e2))
            assert np.max(np.abs(r0 - r2)) < 1e-8

    @pytest.mark.parametrize("J", [0, 0.5, 1, 1.5, 2])
    @pytest.mark.parametrize("p", [P_HALF, P_TWO])
    def test_functional_equation_products(self, J, p):
        assert funceq_residual(J, p, ETA_GRID) < FUNCEQ_TOL_PRODUCT

    @pytest.mark.parametrize("J", [0, 0.5, 1, 1.5, 2])
    def test_functional_equation_integral(self, J):
        assert funceq_residual(J, P_CIRC, ETA_GRID) < FUNCEQ_TOL_INTEGRAL

    def test_decays_at_large_eta(self):
        v = q_function(1.5, P_TWO, 1e6)
        assert abs(v) < 1e-6


@pytest.mark.parametrize("call", [
    lambda: q_finite_product(1, P_TWO, np.nan),
    lambda: q_function(0.5, P_TWO, np.nan),
    lambda: q_function(1, P_CLASS, np.inf),
    lambda: r_polynomial(1, 0, 0, P_TWO, np.inf),
    lambda: r_polynomial(1, 0, 0, P_CIRC, [1.0, complex(0.0, np.nan)]),
    lambda: psi(1, 0, 0, P_TWO, np.nan, 1.0),
    lambda: psi(1, 0, 0, P_CIRC, 1.0, -np.inf),
    lambda: vilenkin(1, 0, 0, P_TWO, np.nan),
], ids=["finite-product", "infinite-product", "classical-q", "r-real", "r-circle",
        "psi-u", "psi-v", "vilenkin"])
def test_non_finite_argument_rejected(call):
    # refused up front: not propagated as nan, and no product loop runs to its cap
    with pytest.raises(ValueError, match="finite"):
        call()


class TestCircleSector:
    """The integral construction holds only for (2J+1)|tau| < pi.  Past the
    edge it used to return values off the functional equation by ~1e2."""

    # (J, tau) just past the edge, and the edge itself: (2J+1)|tau| >= pi
    OUTSIDE = [(0.5, 1.7), (0.5, 2.0), (0.5, -2.5), (1.5, 1.4), (0.5, math.pi / 2)]
    INSIDE = [(0.5, 1.4), (1.5, 0.75), (2.5, 0.46)]

    @pytest.mark.parametrize("J,tau", OUTSIDE)
    def test_default_route_rejects_outside(self, J, tau):
        with pytest.raises(ValueError, match="tau"):
            q_function(J, QParam.unit_circle(tau), ETA_GRID)

    @pytest.mark.parametrize("J,tau", OUTSIDE)
    def test_vilenkin_rejects_outside(self, J, tau):
        with pytest.raises(ValueError, match="tau"):
            vilenkin(J, 0.5, 0.5, QParam.unit_circle(tau), np.linspace(-0.5, 0.5, 5))

    @pytest.mark.parametrize("J,tau", [(1, 1.1), (2, -0.7)])
    def test_forced_integral_rejects_outside_for_integer_j(self, J, tau):
        p = QParam.unit_circle(tau)
        with pytest.raises(ValueError, match="tau"):
            q_integral_exp(J, p, ETA_GRID)
        # the finite product itself holds for every tau
        assert np.all(np.isfinite(np.asarray(q_function(J, p, ETA_GRID))))

    @pytest.mark.parametrize("J,tau", INSIDE)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_functional_equation_inside(self, J, tau, sign):
        assert funceq_residual(J, QParam.unit_circle(sign * tau), ETA_GRID) < FUNCEQ_TOL_INTEGRAL

    # (1, 1.0) and (2, +-0.6) rotate eta by (2J+1)|tau| = 3 towards the
    # negative axis, where L's former Gauss-Legendre rule did not converge
    @pytest.mark.parametrize("J,tau", [(1, 0.9), (1, -0.7), (2, 0.5), (2, -0.1),
                                       (1, 1.0), (2, 0.6), (2, -0.6)])
    def test_forced_integral_matches_finite_inside(self, J, tau):
        p = QParam.unit_circle(tau)
        a = np.asarray(q_finite_product(J, p, ETA_GRID))
        b = np.asarray(q_integral_exp(J, p, ETA_GRID))
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12


# independently computed with mpmath.quad at 30 digits on the raw contour
# integral Int_0^inf log(1 + sqrt(t)) / (t (1+t)) dt / (2 pi i):
L_GOLDEN_TAU = math.pi / 2
L_GOLDEN = -0.32724923474893679j


class TestLFunction:
    def test_golden_value(self):
        p = QParam.unit_circle(L_GOLDEN_TAU)
        v = l_function(p, 1.0)
        assert abs(v - L_GOLDEN) < 1e-10

    def test_zero_argument(self):
        assert l_function(P_CIRC, 0.0) == 0

    @pytest.mark.parametrize("eta", [np.inf, np.nan, [1.0, -np.inf], complex(1.0, np.nan)])
    def test_non_finite_argument_rejected(self, eta):
        # an infinite argument used to send the panel breaks into an endless loop
        with pytest.raises(ValueError, match="finite"):
            l_function(P_CIRC, eta)

    @pytest.mark.parametrize("tau", [math.pi / 5, -math.pi / 5, 0.45 * math.pi, -0.45 * math.pi])
    @pytest.mark.parametrize("eta", [0.3, 1.0, 4.0])
    def test_difference_equation(self, tau, eta):
        # L(q eta) - L(q^-1 eta) = Log(1 + eta)
        p = QParam.unit_circle(tau)
        r = l_function(p, p.power(1) * eta) - l_function(p, p.power(-1) * eta)
        assert abs(r - np.log(1 + eta)) < L_EQ_TOL

    def test_sign_flip_conjugates(self):
        p = QParam.unit_circle(math.pi / 5)
        a = l_function(p, 0.7)
        b = l_function(p.inverse(), 0.7)
        assert abs(a + b) < 1e-12  # odd in tau for real eta

    def test_array_shape(self):
        out = l_function(P_CIRC, np.array([0.5, 1.0, 2.0]))
        assert out.shape == (3,)

    def test_rejects_real_regime(self):
        with pytest.raises(ValueError):
            l_function(P_TWO, 1.0)

    def test_branch_cut_proximity_warns_then_fails(self):
        # eta close to the negative real axis pushes 1 + eta t^a across the
        # cut: the proximity warning fires, and the quadrature (facing a log
        # singularity a distance 1e-9 off the contour) refuses to converge
        p = QParam.unit_circle(math.pi / 5)
        with pytest.warns(RuntimeWarning, match="branch cut") as record:
            with pytest.raises(RuntimeError):
                l_function(p, -0.5 + 1e-9j)
        # the warning names the line that called l_function, not the memo
        assert [w.filename for w in record] == [__file__]


def mp_quad_l(tau, eta):
    """L(eta) at q = exp(i tau) by mpmath.quad at 30 digits.

    t = exp(-v) turns the contour integral into sign(tau)/(2 pi i) times
    Int Log(1 + eta e^(-alpha v)) / (1 + e^(-v)) dv, alpha = |tau|/pi, over
    the real line.
    """
    return math.copysign(1.0, tau) * _mp_quad_l_integral(abs(tau), complex(eta))


@functools.lru_cache(maxsize=None)
def _mp_quad_l_integral(abs_tau, eta):
    """The integral of mp_quad_l over 2 pi i.  It is cut at v = 0 and where
    |eta| e^(-alpha v) = 1, and ends where the tails fall below 1e-30: at
    v = -80, and 75/alpha past both cuts."""
    with mpmath.workdps(30):
        alpha = mpmath.mpf(abs_tau) / mpmath.pi
        eta = mpmath.mpc(eta)
        v_unit = mpmath.log(abs(eta)) / alpha
        cuts = sorted({mpmath.mpf(-80), mpmath.mpf(0), v_unit, max(v_unit, 0) + 75 / alpha})
        val = mpmath.quad(lambda v: mpmath.log(1 + eta * mpmath.exp(-alpha * v))
                          / (1 + mpmath.exp(-v)), cuts)
        return complex(val / (2j * mpmath.pi))


# 13 tau of both signs by 7 eta: real, complex, and two near the sector edge
# arg eta = +-pi, where the integrand comes closest to the Log branch cut
L_SWEEP_TAU = (0.05, -0.05, 0.12, -0.12, 0.3, -0.3, 0.7, -0.7, 1.2, -1.2, 2.0, -2.0, 2.8)
L_SWEEP_ETA = (0.3, 1.0, 4.0, 2 + 1j, 0.5 - 2j, 3 * cmath.exp(2.8j), 0.7 * cmath.exp(-2.9j))
# The largest error on this sweep of the rule the Gauss-Kronrod one replaced
# (16, 32, then 64 Gauss-Legendre nodes on every panel until two levels
# agreed to L_ABS_TOL): 1.10e-13, at tau = 0.12, eta = 3 e^(2.8i)
REPLACED_RULE_SWEEP_ERROR = 1.1e-13


class TestLAgainstMpQuad:
    def test_gauss_kronrod_pair(self):
        nodes = qspecial.GK21_NODES
        kronrod, kronrod_minus_gauss = qspecial.GK21_WEIGHTS.T
        gauss = kronrod - kronrod_minus_gauss
        xs, ws = np.polynomial.legendre.leggauss(10)
        assert np.all(np.diff(nodes) > 0) and np.array_equal(nodes, -nodes[::-1])
        assert np.max(np.abs(nodes[gauss != 0] - xs)) < 1e-15
        assert np.max(np.abs(gauss[gauss != 0] - ws)) < 1e-15
        for k in range(34):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(nodes ** k @ kronrod - exact) < (1e-15 if k < 32 else 1)
        assert abs(nodes ** 32 @ kronrod - 2.0 / 33) > 1e-13  # degree 31 and no further

    def test_sweep_no_worse_than_the_replaced_rule(self):
        errors = [abs(l_function(QParam.unit_circle(tau), eta) - mp_quad_l(tau, eta))
                  for tau in L_SWEEP_TAU for eta in L_SWEEP_ETA]
        assert max(errors) <= REPLACED_RULE_SWEEP_ERROR

    # inputs on which the replaced rule raised "did not converge"
    @pytest.mark.parametrize("tau,eta", [
        (0.005, 30.0),                      # 3000-wide panels at small tau
        (0.1, 5 * cmath.exp(-3j)),          # 0.14 from the negative axis
        (-0.1, 5 * cmath.exp(-3j)),
        (0.01, 5 * cmath.exp(-3j)),
        # the forced integral route at J = 1, tau = 1 and at J = 2, tau = +-0.6
        # rotates eta by -(2J+1) tau = -+3
        (1.0, 10 * cmath.exp(-3j)),
        (0.6, 10 * cmath.exp(-3j)),
        (-0.6, 10 * cmath.exp(3j)),
    ])
    def test_formerly_failing_inputs(self, tau, eta):
        want = mp_quad_l(tau, eta)
        assert abs(l_function(QParam.unit_circle(tau), eta) - want) < qspecial.L_ABS_TOL

    def test_q_near_the_sector_edge(self):
        # (2J+1) tau = 3.12: the rotated argument q^-6 eta lies 0.02 from the cut
        p = QParam.unit_circle(0.52)
        want = cmath.exp(mp_quad_l(0.52, p.power(-6) * 3) - mp_quad_l(0.52, p.power(-1) * 3))
        assert abs(q_function(2.5, p, 3.0) - want) < 1e-12 * abs(want)


class _ExactMemoCases:
    """The _ExactMemo rules, run against one evaluator's memo: evaluate(eta)
    goes through the memo, UNCACHED names the function it calls on a miss."""

    ETA = np.array([0.3, 1.0 + 0.5j, 4.0])

    @pytest.fixture
    def memo(self, monkeypatch):
        """This evaluator's memo, emptied for the test."""
        memo = getattr(qspecial, self.MEMO)
        monkeypatch.setattr(memo, "entries", {})
        monkeypatch.setattr(memo, "nbytes", 0)
        return memo

    @pytest.fixture
    def misses(self, memo, monkeypatch):
        """Arguments of the uncached evaluations that run after emptying the memo."""
        calls = []
        uncached = getattr(qspecial, self.UNCACHED)

        def counted(*args):
            calls.append(args)
            return uncached(*args)

        monkeypatch.setattr(qspecial, self.UNCACHED, counted)
        return calls

    def test_mutating_a_result_leaves_the_memo_intact(self, misses):
        first = self.evaluate(self.ETA)
        want = first.copy()
        first[:] = 0.0
        second = self.evaluate(self.ETA)
        assert second.tobytes() == want.tobytes()
        second[:] = 0.0
        assert self.evaluate(self.ETA).tobytes() == want.tobytes()
        assert len(misses) == 1

    def test_hit_equals_fresh_computation_bitwise(self, misses):
        miss = self.evaluate(self.ETA)
        hit = self.evaluate(self.ETA)
        assert len(misses) == 1
        fresh = self.uncached(self.ETA.astype(complex))
        assert hit.tobytes() == miss.tobytes() == fresh.tobytes()

    def test_real_and_complex_dtypes_share_the_exact_value(self, misses):
        a = self.evaluate(np.array([0.5, 2.0]))
        b = self.evaluate(np.array([0.5 + 0j, 2.0 + 0j]))
        assert len(misses) == 1
        assert a.tobytes() == b.tobytes()

    def test_byte_bound_evicts_oldest_first(self, memo, misses, monkeypatch):
        # one 8-point entry holds 2 * 8 * 16 bytes (key bytes plus values)
        monkeypatch.setattr(memo, "max_bytes", 3 * 256)
        grids = [np.linspace(0.1, 1.0, 8) * (k + 1) for k in range(4)]
        want = [self.evaluate(g) for g in grids]
        assert len(memo.entries) == 3
        assert memo.nbytes == 3 * 256
        assert len(misses) == 4
        assert self.evaluate(grids[3]).tobytes() == want[3].tobytes()
        assert len(misses) == 4
        assert self.evaluate(grids[0]).tobytes() == want[0].tobytes()
        assert len(misses) == 5  # grids[0] was the oldest, evicted

    def test_oversized_result_is_not_stored(self, memo, misses, monkeypatch):
        # ETA's entry needs 2 * 3 * 16 = 96 bytes
        monkeypatch.setattr(memo, "max_bytes", 95)
        self.evaluate(self.ETA)
        self.evaluate(self.ETA)
        assert len(misses) == 2
        assert memo.entries == {} and memo.nbytes == 0


class TestLFunctionMemo(_ExactMemoCases):
    MEMO, UNCACHED = "_l_memo", "_l_quadrature"

    @staticmethod
    def evaluate(eta):
        return l_function(P_CIRC, eta)

    @staticmethod
    def uncached(arr):
        val, warned = qspecial._l_quadrature(P_CIRC, arr)
        assert not warned
        return val

    def test_distinct_inputs_never_share_an_entry(self, misses):
        calls = [
            lambda: l_function(P_CIRC, 0.7),
            lambda: l_function(P_CIRC.inverse(), 0.7),
            lambda: l_function(P_CIRC, np.array([0.7])),
            lambda: l_function(P_CIRC, np.array([[0.7]])),
        ]
        first = [call() for call in calls]
        # a scalar and [eta] are one input: the array hits the scalar's entry
        assert len(misses) == len(calls) - 1
        again = [call() for call in calls]
        assert len(misses) == len(calls) - 1
        assert isinstance(first[0], complex) and isinstance(again[0], complex)
        assert abs(first[0] + first[1]) < 1e-12  # the inverse really is -L here
        assert [np.shape(v) for v in again] == [(), (), (1,), (1, 1)]
        assert np.array([first[0]]).tobytes() == first[2].tobytes()
        for a, b in zip(first, again):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_branch_cut_warning_and_error_on_every_call(self, memo, misses):
        p = QParam.unit_circle(math.pi / 5)
        for _ in range(3):
            with pytest.warns(RuntimeWarning, match="branch cut"):
                with pytest.raises(RuntimeError):
                    l_function(p, -0.5 + 1e-9j)
        assert len(misses) == 3
        assert memo.entries == {}

    def test_warned_result_is_never_stored(self, memo, misses, monkeypatch):
        # a margin wider than pi makes every evaluation warn, converged or not
        monkeypatch.setattr(qspecial, "BRANCH_CUT_MARGIN", 4.0)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="branch cut"):
                l_function(P_CIRC, 0.7)
        assert len(misses) == 2
        assert memo.entries == {}


P_PRODUCT = QParam.positive_real(math.exp(-1.0))


class TestInfiniteProductMemo(_ExactMemoCases):
    MEMO, UNCACHED = "_product_memo", "_infinite_product"

    @staticmethod
    def evaluate(eta):
        return q_infinite_product(1.5, P_PRODUCT, eta)

    @staticmethod
    def uncached(arr):
        return qspecial._infinite_product(HalfInt.of(1.5), P_PRODUCT.value, arr)

    def test_distinct_inputs_never_share_an_entry(self, misses):
        # at this eta numpy's 0-d arithmetic would round differently from
        # the one-element array's
        eta = 0.741 - 3.863j
        calls = [
            lambda: q_infinite_product(0.5, P_PRODUCT, eta),
            lambda: q_infinite_product(1.5, P_PRODUCT, eta),
            lambda: q_infinite_product(0.5, P_PRODUCT.inverse(), eta),
            lambda: q_infinite_product(0.5, P_PRODUCT, np.array([eta])),
            lambda: q_infinite_product(0.5, P_PRODUCT, np.array([[eta]])),
        ]
        first = [call() for call in calls]
        # a scalar and [eta] are one input: the array hits the scalar's entry
        assert len(misses) == len(calls) - 1
        again = [call() for call in calls]
        assert len(misses) == len(calls) - 1
        assert isinstance(first[0], complex) and isinstance(again[0], complex)
        assert [np.shape(v) for v in again] == [(), (), (), (1,), (1, 1)]
        assert np.array([first[0]]).tobytes() == first[3].tobytes()
        for a, b, (J, p) in zip(first, again, [(0.5, P_PRODUCT), (1.5, P_PRODUCT),
                                               (0.5, P_PRODUCT.inverse())]):
            assert a == b == per_factor_infinite_product(J, p, eta)
        for a, b in zip(first[3:], again[3:]):
            assert a.tobytes() == b.tobytes()
            assert a.tobytes() == per_factor_infinite_product(0.5, P_PRODUCT, np.array([eta])).tobytes()

    @pytest.mark.parametrize("q,eta,error", [
        (0.5, np.array([1.0, -32.0]), ValueError),   # pole in factor 3
        (0.5, 1e308, ValueError),                    # factor 0 overflows
        (1.0001, 1.0, RuntimeError),                 # the factor cap
    ], ids=["pole", "overflow", "cap"])
    def test_errors_on_every_call(self, memo, misses, q, eta, error):
        for _ in range(2):
            with pytest.raises(error):
                q_infinite_product(0.5, QParam.positive_real(q), eta)
        assert len(misses) == 2
        assert memo.entries == {}


def test_l_and_product_entries_never_evict_each_other(monkeypatch):
    assert qspecial._l_memo.max_bytes == qspecial.MEMO_MAX_BYTES == 2**20
    assert qspecial._product_memo.max_bytes == qspecial.MEMO_MAX_BYTES
    assert qspecial._l_memo is not qspecial._product_memo
    # room for one 8-point entry each: a shared store would keep only one
    for memo in (qspecial._l_memo, qspecial._product_memo):
        monkeypatch.setattr(memo, "entries", {})
        monkeypatch.setattr(memo, "nbytes", 0)
        monkeypatch.setattr(memo, "max_bytes", 256)
    grid = np.linspace(0.1, 1.0, 8)
    for _ in range(2):
        l_function(P_CIRC, grid)
        q_infinite_product(0.5, P_HALF, grid)
    assert [key[0] for key in qspecial._l_memo.entries] == ["L"]
    assert [key[0] for key in qspecial._product_memo.entries] == ["Q"]
    assert qspecial._l_memo.nbytes == qspecial._product_memo.nbytes == 256


P_E = QParam.positive_real(math.exp(-1.0))
P_TAU = QParam.unit_circle(0.2)
_RNG = np.random.default_rng(11)
SCALAR_ETAS = _RNG.uniform(0.05, 5.0, 30) * np.exp(1j * _RNG.uniform(-2.0, 2.0, 30))
SCALAR_XIS = _RNG.uniform(-0.95, 0.95, 30)

# every evaluator route: its name, then f(x) and the points x it takes
SCALAR_ROUTES = {
    "Q-classical": (lambda x: q_function(1.5, P_CLASS, x), SCALAR_ETAS),
    "Q-finite-real": (lambda x: q_function(2, P_E, x), SCALAR_ETAS),
    "Q-finite-circle": (lambda x: q_function(1, P_TAU, x), SCALAR_ETAS),
    "Q-infinite": (lambda x: q_function(0.5, P_E, x), SCALAR_ETAS),
    "Q-integral": (lambda x: q_function(0.5, P_TAU, x), SCALAR_ETAS),
    "L": (lambda x: l_function(P_TAU, x), SCALAR_ETAS),
    "R": (lambda x: r_polynomial(2, 1, 0, P_E, x), SCALAR_ETAS),
    "psi-real": (lambda x: psi(1.5, 0.5, 0.5, P_E, x, np.conj(x)), SCALAR_ETAS),
    "psi-circle": (lambda x: psi(1.5, 0.5, 0.5, P_TAU, x, np.conj(x)), SCALAR_ETAS),
    "vilenkin-real": (lambda x: vilenkin(2, 1, 0, P_E, x), SCALAR_XIS),
    "vilenkin-circle": (lambda x: vilenkin(1.5, 0.5, 0.5, P_TAU, x), SCALAR_XIS),
}


@pytest.mark.parametrize("name", list(SCALAR_ROUTES))
def test_scalar_gives_the_bits_of_the_one_element_array(name, monkeypatch):
    # memos that store nothing, so that both sides are computed
    monkeypatch.setattr(qspecial, "_l_memo", qspecial._ExactMemo(0))
    monkeypatch.setattr(qspecial, "_product_memo", qspecial._ExactMemo(0))
    route, points = SCALAR_ROUTES[name]
    for x in points:
        scalar, array = route(x), route(np.array([x]))
        assert isinstance(scalar, complex) and array.shape == (1,)
        assert np.array([scalar]).tobytes() == array.tobytes(), x


class TestNormConstant:
    def test_oracles(self):
        assert norm_constant(0, 0, 0, P_TWO) == pytest.approx(1 / math.sqrt(2 * math.pi))
        want = math.sqrt(q_number(2, P_TWO) / (2 * math.pi))
        assert norm_constant(0.5, 0.5, 0.5, P_TWO) == pytest.approx(want)
        # classical J=1, M=N=0: sqrt(1! 3!/1!) sqrt(1/(1 2!)) / sqrt(2 pi)
        assert norm_constant(1, 0, 0, P_CLASS) == pytest.approx(0.690988298942671)

    def test_circle_negative_radicand_rejected(self):
        # tau = pi/4: [4]_q = 0 and [5]_q < 0 poison [2J+1]! for J = 2
        p = QParam.unit_circle(math.pi / 4 + 0.05)
        with pytest.raises(ValueError, match="positivity"):
            norm_constant(2, 0, 0, p)


class TestPsi:
    def test_origin_regular(self):
        # negative M+N would naively put v^{M+N} poles at v=0; the combined
        # polynomial form must stay finite
        v = psi(1, -1, 0, P_TWO, 0.0, 0.0)
        assert np.isfinite(v)
        v = psi(1.5, -0.5, -1.5, P_CIRC, 0.0, 0.0)
        assert np.isfinite(v)

    def test_ground_state_value(self):
        # J=M=N=0: psi = Q_0 / sqrt(2 pi) = 1/sqrt(2 pi) everywhere
        for p in (P_TWO, P_CIRC, P_CLASS):
            assert psi(0, 0, 0, p, 0.7, 0.2) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_mode_scaling(self):
        # under (u, v) -> (e^{i a} u, e^{-i a} ... ) only v carries the phase
        # physically; with u = r e^{i phi}, v = conj(u), psi ~ e^{-i (M+N) phi}
        p = P_TWO
        J, M, N = 1, 1, 0
        r = 0.8
        for phi in (0.3, 1.1):
            u = r * np.exp(1j * phi)
            a = psi(J, M, N, p, u, np.conj(u))
            b = psi(J, M, N, p, r, r)
            assert abs(a - b * np.exp(-1j * (float(M) + float(N)) * phi)) < 1e-13

    def test_broadcasts(self):
        u = np.linspace(0.1, 1.0, 7)
        out = psi(1, 0, 1, P_TWO, u, u)
        assert out.shape == (7,)


TOWER_POINTS = {
    "scalar": (0.7 * np.exp(0.4j), 0.7 * np.exp(-0.4j)),
    "n-by-1": (np.linspace(0.3, 2.5, 9) * np.exp(0.25j), np.array([1.1 - 0.2j])),
    "stacked": (np.linspace(0.3, 2.5, 12).reshape(3, 4) * np.exp(0.7j),
                np.linspace(0.3, 2.5, 12).reshape(3, 4) * np.exp(-0.7j)),
}


class TestPsiTower:
    """psi with a tuple of weights: the members stacked on a new first axis
    from one Q evaluation, each row with the bits of its own call."""

    @pytest.mark.parametrize("p", [QParam.positive_real(0.6), QParam.positive_real(2.5),
                                   QParam.unit_circle(0.2), QParam.unit_circle(-0.2)],
                             ids=["q0.6", "q2.5", "tau0.2", "tau-0.2"])
    @pytest.mark.parametrize("J,N", [(2, 0), (1.5, 0.5), (0.5, 0.5)])
    @pytest.mark.parametrize("points", list(TOWER_POINTS))
    def test_rows_have_the_bits_of_the_scalar_m_calls(self, p, J, N, points):
        u, v = TOWER_POINTS[points]
        ms = tuple(HalfInt(t) for t in range(HalfInt.of(J).twice, -HalfInt.of(J).twice - 1, -2))
        got = psi(J, ms, N, p, u, v)
        want = np.stack([np.asarray(psi(J, M, N, p, u, v)) for M in ms])
        assert got.shape == want.shape == (len(ms),) + np.broadcast(u, v).shape
        assert got.tobytes() == want.tobytes()

    def test_evaluates_q_once(self, monkeypatch):
        calls = []
        q_function = qspecial.q_function

        def counted(J, p, eta):
            calls.append(np.shape(eta))
            return q_function(J, p, eta)
        monkeypatch.setattr(qspecial, "q_function", counted)
        u = np.linspace(0.3, 2.0, 5)
        out = psi(1.5, (1.5, 0.5, -0.5, -1.5), 0.5, P_TWO, u, u)
        assert out.shape == (4, 5) and calls == [(5,)]

    def test_a_one_weight_tuple_keeps_its_axis(self):
        out = psi(1, (0,), 0, P_TWO, 0.5, 0.5)
        assert isinstance(out, np.ndarray) and out.shape == (1,)
        assert out[0] == psi(1, 0, 0, P_TWO, 0.5, 0.5)

    @pytest.mark.parametrize("M", [(), (1, 2), (1, 0.5), (1, None), (1, "x")],
                             ids=["empty", "above-J", "mixed-class", "none", "str"])
    def test_bad_weights_rejected(self, M):
        with pytest.raises(ValueError):
            psi(1, M, 0, P_TWO, 0.5, 0.5)


class TestVilenkin:
    def test_trivial(self):
        assert vilenkin(0, 0, 0, P_TWO, 0.3) == pytest.approx(1.0)

    def test_classical_legendre(self):
        # q = 1, N = 0 reduces to (-i)^M sqrt((J-M)!/(J+M)!) P_J^M(xi)
        xi = np.linspace(-0.9, 0.9, 7)
        v10 = np.asarray(vilenkin(1, 0, 0, P_CLASS, xi))
        assert np.max(np.abs(v10 - xi)) < 1e-12
        v11 = np.asarray(vilenkin(1, 1, 0, P_CLASS, xi))
        want = (-1j) * math.sqrt(1 / 2) * (-np.sqrt(1 - xi ** 2))
        assert np.max(np.abs(v11 - want)) < 1e-12
        v20 = np.asarray(vilenkin(2, 0, 0, P_CLASS, xi))
        assert np.max(np.abs(v20 - (3 * xi ** 2 - 1) / 2)) < 1e-12

    def test_phase_divided_value_is_real_at_real_q(self):
        for (J, M, N) in [(1, 1, 0), (1.5, 0.5, -0.5), (2, 1, 1)]:
            e = int(2 * J - M - N)
            for xi in (-0.5, 0.1, 0.8):
                v = vilenkin(J, M, N, P_TWO, xi) / (1j ** e)
                assert abs(np.imag(v)) < 1e-12

    def test_rejects_xi_outside_open_interval(self):
        with pytest.raises(ValueError):
            vilenkin(1, 0, 0, P_TWO, 1.0)
        with pytest.raises(ValueError):
            vilenkin(1, 0, 0, P_TWO, -1.5)


def per_factor_infinite_product(J, p, eta):
    """The factor-at-a-time loop q_infinite_product replaced: the bitwise
    reference.  A scalar eta runs as [eta], as in q_infinite_product."""
    q, Jf = p.value, float(J)
    arr = np.atleast_1d(np.asarray(eta, dtype=complex))
    out = np.ones_like(arr)
    ratio = q * q if q < 1.0 else q ** -2
    for k in range(qspecial.PRODUCT_MAX_FACTORS):
        if q < 1.0:
            num = 1.0 + arr * q ** (2 * k)
            den = 1.0 + arr * q ** (-2 * Jf + 2 * k)
        else:
            num = 1.0 + arr * q ** (-2 * Jf - 2 * k - 2)
            den = 1.0 + arr * q ** (-2 * k - 2)
        if np.any(np.abs(den) < qspecial.POLE_TOL):
            raise ValueError(f"infinite-product pole in factor k={k}")
        factor = num / den
        out = out * factor
        gap = np.max(np.abs(factor - 1.0))
        if gap < qspecial.PRODUCT_FACTOR_TOL and gap * ratio / (1.0 - ratio) < qspecial.PRODUCT_TAIL_TOL:
            return out.item() if np.ndim(eta) == 0 else out
    raise RuntimeError("infinite product did not converge within the factor cap")


def mpmath_infinite_product(J, q, eta):
    """Q_J(eta) from q-Pochhammer symbols at 30 digits."""
    with mpmath.workdps(30):
        q, J, eta = mpmath.mpf(q), mpmath.mpf(J), mpmath.mpmathify(eta)
        if q < 1:
            return mpmath.qp(-eta, q ** 2) / mpmath.qp(-eta * q ** (-2 * J), q ** 2)
        r = q ** -2
        return mpmath.qp(-eta * q ** (-2 * J - 2), r) / mpmath.qp(-eta * r, r)


# (m, n) shapes of eta; () is a scalar, and 4100 points exceed one block
ETA_SHAPES = [(), (1,), (7,), (40,), (3, 5), (4100,), (2, 2100)]


class TestInfiniteProductBlocks:
    """Blocked evaluation of the real-q product: the same bits, the same stop
    factor and the same errors as the factor-at-a-time loop."""

    @given(log_q=st.floats(0.05, 1.5), above_one=st.booleans(),
           twice_j=st.integers(1, 9), shape=st.sampled_from(ETA_SHAPES),
           is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_per_factor_loop(self, log_q, above_one, twice_j, shape,
                                              is_complex, seed):
        p = QParam.positive_real(math.exp(log_q if above_one else -log_q))
        J = twice_j / 2
        rng = np.random.default_rng(seed)
        eta = np.exp(rng.uniform(-5.0, 5.0, shape))
        if is_complex:
            eta = eta * np.exp(1j * rng.uniform(-3.0, 3.0, shape))
        got = q_infinite_product(J, p, eta)
        want = per_factor_infinite_product(J, p, eta)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("q,eta,k", [
        (0.5, np.array([1.0, -32.0]), 3),    # 1 - 32 q^(2k-1) = 0
        (2.0, np.array([-4.0]), 0),          # 1 - 4 q^(-2k-2) = 0
        (0.5, np.concatenate([np.ones(4999), [-32.0]]), 3),  # one factor per block
    ], ids=["q<1", "q>1", "past-first-block"])
    def test_pole_raises_without_warning(self, q, eta, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(f'infinite-product pole in factor k={k}')}$"):
                q_infinite_product(0.5, QParam.positive_real(q), eta)
        with pytest.raises(ValueError, match=f"k={k}$"):
            per_factor_infinite_product(0.5, QParam.positive_real(q), eta)

    @pytest.mark.parametrize("q", [0.37, 0.6, 0.85, 1.25, 1.7, 2.7])
    @pytest.mark.parametrize("J", [0.5, 1.5, 2.5])
    def test_matches_q_pochhammer_ratio(self, q, J):
        eta = [0.01, 0.3, 1.0, 4.0, 12.5, 40.0, 2 + 1j, 0.5 - 3j]
        got = np.asarray(q_infinite_product(J, QParam.positive_real(q), eta))
        want = np.array([complex(mpmath_infinite_product(J, q, e)) for e in eta])
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    @pytest.mark.parametrize("q", [0.3, 0.4, 0.45, 0.6])
    @pytest.mark.parametrize("J", [1.5, 2])
    def test_q_pinned_to_q_pochhammer_ratio_on_funceq_grid(self, q, J, monkeypatch):
        # the grid of the funceq suite, where its old residual raised false
        # alarms; a (1 + 1e-13) change of one product factor fails this pin
        want = np.array([complex(mpmath_infinite_product(J, q, e)) for e in ETA_GRID])

        def pin():
            got = np.asarray(q_function(J, QParam.positive_real(q), ETA_GRID))
            return float(np.max(np.abs(got - want) / np.abs(want)))

        assert pin() <= 1e-14
        if J == 2:
            return  # the finite product runs no _multipliers
        multipliers = qspecial._multipliers

        def mutated(q, Jf, ks):
            a, b = multipliers(q, Jf, ks)
            return [x * (1 + 1e-13) if k == 0 else x for k, x in zip(ks, a)], b

        monkeypatch.setattr(qspecial, "_multipliers", mutated)
        monkeypatch.setattr(qspecial._product_memo, "entries", {})
        monkeypatch.setattr(qspecial._product_memo, "nbytes", 0)
        assert pin() > 5e-14

    @pytest.mark.parametrize("eta", [1e308, -1e308, 1.7e308j, 1e308 + 1e308j])
    def test_overflowing_first_factor_raises(self, eta):
        # |eta| q^(-2J) overflows at q = 1/2, J = 1/2: the product used to
        # return 0 or nan with only a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^infinite-product factor k=0 overflows"):
                q_infinite_product(0.5, P_HALF, eta)

    @pytest.mark.parametrize("q,eta", [(0.5, 1e300), (0.5, 3e307), (2.0, 1e308)])
    def test_large_eta_short_of_overflow_matches_q_pochhammer_ratio(self, q, eta):
        got = q_infinite_product(0.5, QParam.positive_real(q), eta)
        want = complex(mpmath_infinite_product(0.5, q, eta))
        assert abs(got - want) / abs(want) < 1e-13

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_eta_gives_empty_result(self, shape):
        out = q_infinite_product(0.5, P_HALF, np.zeros(shape))
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == complex

    def test_q_near_one_reaches_the_factor_cap(self):
        # 2(1e5)(1e-4) = 20 e-folds leave |factor - 1| near 1e-13 at the cap
        with pytest.raises(RuntimeError, match="did not converge within the factor cap"):
            q_infinite_product(0.5, QParam.positive_real(1.0001), 1.0)
