import cmath
import functools
import itertools
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suq2 import qcore, qspecial, quadrature, suites
from suq2 import (
    HalfInt,
    QParam,
    l_function,
    m_values,
    norm_constant,
    psi,
    q_factorial,
    q_function,
    q_infinite_product,
    q_integral_exp,
    q_number,
    r_polynomial,
    vilenkin,
)
from suq2.qcore import Regime

FUNCEQ_TOL_PRODUCT = 1e-12
FUNCEQ_TOL_INTEGRAL = 1e-10
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


def mp_q_number(x, p):
    """[x] at p in mpmath at the current precision."""
    x = mpmath.mpf(x)
    if p.regime is qcore.Regime.CLASSICAL:
        return x
    if p.regime is qcore.Regime.UNIT_CIRCLE:
        tau = mpmath.mpf(p.value)
        return mpmath.sin(x * tau) / mpmath.sin(tau)
    q = mpmath.mpf(p.value)
    return (q ** x - q ** -x) / (q - 1 / q)


def mp_power(x, p):
    """q^x at p in mpmath, x real."""
    if p.regime is qcore.Regime.CLASSICAL:
        return mpmath.mpf(1)
    if p.regime is qcore.Regime.UNIT_CIRCLE:
        return mpmath.expj(mpmath.mpf(x) * p.value)
    return mpmath.mpf(p.value) ** x


@functools.lru_cache(maxsize=None)
def mp_factorials(n, p, dps):
    """[0]!, ..., [n]! at p with dps digits."""
    with mpmath.workdps(dps):
        fact = [mpmath.mpf(1)]
        for k in range(1, n + 1):
            fact.append(fact[-1] * mp_q_number(k, p))
        return fact


def mp_r_coefficients(J, M, N, p):
    """(k0, [c_k0, ..., c_kmax]) of R from exact q-factorial quotients."""
    jm, jn, mn = (J - M).to_int(), (J - N).to_int(), (M + N).to_int()
    fact = mp_factorials(J.twice + 1, p, mpmath.mp.dps)
    k0 = max(0, -mn)
    return k0, [fact[jn] * fact[jm] / (fact[k] * fact[jm - k] * fact[jn - k] * fact[mn + k])
                for k in range(k0, min(jm, jn) + 1)]


def mp_r(J, M, N, p, eta):
    """R(eta) = sum_k c_k (-eta)^k in mpmath."""
    k0, coeffs = mp_r_coefficients(J, M, N, p)
    eta = mpmath.mpmathify(eta)
    return sum(c * (-eta) ** (k0 + i) for i, c in enumerate(coeffs))


def mp_steps(j, M, N, p):
    """The closed forms a_j and b_j of R's recurrence in mpmath."""
    def brace(x):
        return 2 * mpmath.re(mp_power(x, p)) if p.regime is not qcore.Regime.POSITIVE_REAL else (
            mp_power(x, p) + mp_power(-x, p))
    m, n = mpmath.mpf(float(M)), mpmath.mpf(float(N))
    t = 0 if M.twice == 0 or N.twice == 0 else (
        mp_q_number(2, p) * mp_q_number(m, p) * mp_q_number(n, p) / mp_q_number(j, p))
    w = mp_q_number(2 * j + 1, p) / (mp_q_number(j + 1 + m, p) * mp_q_number(j + 1 + n, p)
                                      * brace(j))
    return (w * (mp_q_number(j + 1, p) * brace(m + n) + t),
            -w * (mp_q_number(j + 1, p) * brace(m - n) - t))


def spin_sample(J):
    """The weights -J, -J+1, 0 or 1/2, J-1 and J, as far as they are weights of J."""
    t = J.twice
    return sorted({m for m in (-t, 2 - t, t % 2, t - 2, t) if -t <= m <= t}, key=int)


IDENTITY_PARAMS = [QParam.classical(), QParam.positive_real(1.3), QParam.positive_real(0.7),
                   QParam.unit_circle(0.1), QParam.unit_circle(-0.07)]
# the oracle grid of R and psi: J 10 .. 60 in four regimes; each integer J
# takes the integer weights and J + 1/2 the half-integer ones
ORACLE_PARAMS = [QParam.classical(), QParam.positive_real(1.3), QParam.positive_real(0.7),
                 QParam.unit_circle(0.02)]
ORACLE_ETAS = [0.5, 3.0, 0.7 + 0.4j, 1e3]


def oracle_triples(J):
    """(J, M, N) with M, N in {0, 1, -1, 3}, and (J + 1/2, M, N) with M, N in
    {1/2, -1/2}."""
    for weights, twice in (((0, 2, -2, 6), 2 * J), ((1, -1), 2 * J + 1)):
        for mt, nt in itertools.product(weights, repeat=2):
            yield HalfInt(twice), HalfInt(mt), HalfInt(nt)


class TestRRecurrence:
    """R from its one-term row at J0 = max(|M|, |N|) by the three-term
    recurrence in J, against exact sums."""

    @pytest.mark.parametrize("p", IDENTITY_PARAMS, ids=["q1", "q1.3", "q0.7", "tau0.1", "tau-0.07"])
    def test_closed_forms_satisfy_the_recurrence(self, p):
        # as polynomials in eta, at 50 digits: R_(j+1) = (a + b eta) R_j
        # + (1 - a)(1 + q^2j eta)(1 + q^-2j eta) R_(j-1), for |M|, |N| <= 3
        # and J0 <= j <= J0 + 5; and the step constants the code uses are
        # these closed forms rounded
        with mpmath.workdps(50):
            worst = 0
            for mt, nt in itertools.product(range(-6, 7), repeat=2):
                if (mt - nt) % 2:
                    continue
                M, N = HalfInt(mt), HalfInt(nt)
                J0 = HalfInt(max(abs(mt), abs(nt)))
                polys = {}
                for i in range(7):
                    J = HalfInt(J0.twice + 2 * i)
                    k0, c = mp_r_coefficients(J, M, N, p)
                    polys[i] = [mpmath.mpf(0)] * k0 + [x * (-1) ** (k0 + n) for n, x in enumerate(c)]
                _, _, _, (a_f, b_f, _) = qspecial._r_steps(HalfInt(J0.twice + 12), M, N, p,
                                                        qcore._q_factorials(max(0, mt + nt), p))
                for i in range(6):
                    j = mpmath.mpf(J0.twice + 2 * i) / 2
                    a, b = mp_steps(j, M, N, p)
                    assert abs(a_f[i, 0] - a) <= 1e-13 * abs(a) + 1e-300
                    assert abs(b_f[i, 0] - b) <= 1e-13 * abs(b) + 1e-300
                    rhs = _poly_add(_poly_mul([a, b], polys[i]), _poly_mul(
                        _poly_mul([1 - a], [1, mp_power(2 * j, p)]),
                        _poly_mul([1, mp_power(-2 * j, p)], polys[i - 1] if i else [0])))
                    lhs = polys[i + 1]
                    scale = max(abs(x) for x in lhs)
                    worst = max(worst, max(abs(x - y) for x, y in
                                           itertools.zip_longest(lhs, rhs, fillvalue=0)) / scale)
            assert worst < 1e-45

    @pytest.mark.parametrize("p", ORACLE_PARAMS, ids=["q1", "q1.3", "q0.7", "tau0.02"])
    def test_against_mpmath_sums(self, p):
        # J up to 60, where the alternating sum lost every digit at q = 1
        worst, refused = 0.0, 0
        with mpmath.workdps(60):
            for J in range(10, 61, 10):
                for Jh, M, N in oracle_triples(J):
                    for eta in ORACLE_ETAS:
                        want = mp_r(Jh, M, N, p, eta)
                        if abs(want) > sys.float_info.max:  # R itself leaves the float range
                            with pytest.raises(ValueError, match="R for .* leaves the float range"):
                                r_polynomial(Jh, M, N, p, eta)
                            refused += 1
                            continue
                        want = complex(want)
                        worst = max(worst, abs(r_polynomial(Jh, M, N, p, eta) - want) / abs(want))
        assert worst < 1e-11 and refused < 150

    def test_the_reach_example(self):
        # the alternating sum printed 7219870178.3125 here
        assert r_polynomial(60, 0, 0, P_CLASS, 0.5) == pytest.approx(-543999400.174, rel=1e-11)

    def test_a_set_takes_linear_q_number_calls(self, monkeypatch):
        # the step constants: O(J) q-numbers
        calls = []
        q_number_ = qcore.q_number

        def counted(x, p):
            calls.append(x)
            return q_number_(x, p)
        monkeypatch.setattr(qcore, "q_number", counted)
        monkeypatch.setattr(qspecial, "q_number", counted)
        J, p = HalfInt.of(30), QParam.positive_real(1.1)
        for mt, nt in itertools.product(range(-60, 61, 6), repeat=2):
            calls.clear()
            r_polynomial(J, HalfInt(mt), HalfInt(nt), p, 0.5)
            assert 0 < len(calls) <= 10 * (30 + 1), (mt, nt)

    def test_the_reach_is_the_float_range_of_r(self):
        # (45, 30, 30) at q = 1.3: the last sum coefficients divide by
        # [75]!, out of the float range, yet R(0.5) is about 1e-208; a
        # start 1/[M+N]! out of the float range is refused
        p = QParam.positive_real(1.3)
        with mpmath.workdps(60):
            want = complex(mp_r(HalfInt(90), HalfInt(60), HalfInt(60), p, 0.5))
        assert r_polynomial(45, 30, 30, p, 0.5) == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValueError, match=r"\[120\]! leaves the float range at q = 1.3"):
            r_polynomial(61, 60, 60, p, 0.5)

    def test_a_start_out_of_the_float_range_is_refused(self):
        # M + N < 0: the start c = [2 J0]!/[J0 + max(M, N)]! is 200! at q = 1
        with pytest.raises(ValueError, match=re.escape(
                "R for (J,M,N)=(200,-100,-100) leaves the float range at q = 1.0")):
            r_polynomial(200, -100, -100, QParam.classical(), 0.5)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b):
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]


def product_q_factorial(n, p):
    """q_factorial as it was: its own running product [2][3]...[n]."""
    out = 1.0
    for k in range(2, n + 1):
        out *= q_number(k, p)
        if not sys.float_info.min <= abs(out) < math.inf:
            raise ValueError("q-factorial")
    return out


def separate_factorial_norm_constant(J, M, N, p):
    """norm_constant as it was with six q-factorials built apart."""
    twoj = J.twice
    rad1 = (product_q_factorial((J + N).to_int(), p) * product_q_factorial(twoj + 1, p)
            / product_q_factorial((J - N).to_int(), p))
    rad2 = (product_q_factorial((J + M).to_int(), p)
            / (product_q_factorial((J - M).to_int(), p) * product_q_factorial(twoj, p)))
    if rad1 < 0 or rad2 < 0:
        raise ValueError("negative radicand")
    return math.sqrt(rad1) * math.sqrt(rad2) / math.sqrt(2.0 * math.pi)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return type(err)


def _r_start(J, M, N, p, fact):
    """R's start constant c as _r_steps reads it from the table fact."""
    return qspecial._r_steps(J, M, N, p, fact)[2]


def separate_factorial_r_start(J, M, N, p):
    """R's start constant with [M+N]! built apart, for M+N >= 0."""
    return 1.0 / product_q_factorial((M + N).to_int(), p)


@pytest.mark.parametrize("p", [QParam.positive_real(1.3), QParam.positive_real(0.7), P_CLASS,
                               QParam.unit_circle(0.2)], ids=["q1.3", "q0.7", "q1", "tau0.2"])
def test_one_factorial_table_keeps_every_bit(p):
    # _psi_record reads R's start 1/[M+N]! and the six factorials of the
    # norm from one running product; each is the product q_factorial
    # forms, in the same order, so starts, norms and refusals are unchanged;
    # the public norm_constant also refuses a norm out of the normal range
    values = refusals = out_of_range = 0
    for twice in range(61):  # J <= 30
        J = HalfInt(twice)
        fact = qcore._q_factorials(twice + 1, p)  # the table of _psi_record
        for mt, nt in itertools.product(spin_sample(J), repeat=2):
            M, N = HalfInt(mt), HalfInt(nt)
            starts = mt + nt >= 0
            want = (_outcome(separate_factorial_r_start, J, M, N, p) if starts else None,
                    _outcome(separate_factorial_norm_constant, J, M, N, p))
            got = (_outcome(_r_start, J, M, N, p, fact) if starts else None,
                   _outcome(qspecial._norm_constant, J, M, N, p, fact))
            assert repr(got) == repr(want), (J, M, N)
            normal = want[1] is ValueError or sys.float_info.min <= want[1] < math.inf
            got = (_outcome(_r_start, J, M, N, p, qcore._q_factorials(mt + nt, p))
                   if starts else None, _outcome(norm_constant, J, M, N, p))
            assert repr(got) == repr((want[0], want[1] if normal else ValueError)), (J, M, N)
            values += ValueError not in want
            refusals += ValueError in want
            out_of_range += not normal
    # within J <= 30 only the circle refuses: a radicand past its sector; at
    # real q a radicand's factorials can overflow mid-formula, as at
    # (30, 0, 0), q 0.7, whose norm came out nan
    assert values > 400 and (refusals > 0) == (p.regime is qcore.Regime.UNIT_CIRCLE)
    assert (out_of_range > 0) == (p.regime is qcore.Regime.POSITIVE_REAL)


class TestQConstructions:
    def test_finite_oracle(self):
        # J=2, q=2: 1/((1+eta/16)(1+eta/4)) at eta=1 -> 64/85
        assert q_function(2, P_TWO, 1.0) == pytest.approx(64 / 85, rel=1e-15)
        assert q_function(0, P_TWO, 123.0) == 1.0

    def test_finite_pole_reported(self):
        with pytest.raises(ValueError, match="k=0"):
            q_function(1, P_TWO, -4.0)  # 1 + eta q^{-2} = 0

    @pytest.mark.parametrize("p", [P_TWO, P_TWO.inverse()], ids=["q2", "q0.5"])
    def test_finite_pole_names_the_first_vanishing_factor(self, p):
        # J = 3: factor k is 1 + eta q^(2k-6); at q = 2 factor 2 vanishes at
        # eta = -4 and factor 1 at -16, at q = 1/2 factor 1 at -1/16
        eta = np.array([-4.0, 0.5, -16.0]) if p is P_TWO else np.array([-1 / 16, 2.0])
        with pytest.raises(ValueError, match="^finite-product pole: factor k=1 vanishes$"):
            q_function(3, p, eta)

    @pytest.mark.parametrize("J", [1, 2.5, 4])
    @pytest.mark.parametrize("p", [P_TWO, QParam.unit_circle(0.2)], ids=["q2", "tau0.2"])
    def test_finite_factors_have_the_bits_of_one_by_one_division(self, J, p):
        eta = ETA_GRID.reshape(5, 5) * np.exp(0.3j)
        # Q_(j+1) = Q_j / (1 + q^(-2j-2) eta) from j = J mod 1 up, the steps psi takes
        twice = HalfInt.of(J).twice
        want = np.ones_like(eta) if twice % 2 == 0 else np.asarray(q_function(0.5, p, eta))
        for t in range(twice % 2, twice, 2):  # t = 2j
            want = want / (1.0 + p.power(-t - 2) * eta)
        assert np.asarray(q_function(J, p, eta)).tobytes() == want.tobytes()

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
        a = np.asarray(q_function(J, p, ETA_GRID))
        b = np.asarray(q_infinite_product(J, p, ETA_GRID))
        assert np.max(np.abs(a - b)) < CROSS_METHOD_TOL

    @pytest.mark.parametrize("J", [1, 2])
    def test_finite_vs_integral_on_circle(self, J):
        # (2J+1) tau must stay below pi or the integral construction's
        # L argument lands on the log branch cut; pi/23 is safe through J=11
        p = QParam.unit_circle(math.pi / 23)
        a = np.asarray(q_function(J, p, ETA_GRID))
        b = np.asarray(q_integral_exp(J, p, ETA_GRID))
        assert np.max(np.abs(a - b)) < 1e-8

    def test_integral_ratio_is_q2_periodic(self):
        # the defining equation pins Q only up to a q^2-periodic factor, so
        # the two circle constructions must agree up to one; their ratio has
        # to be invariant under eta -> q^2 eta
        p = QParam.unit_circle(math.pi / 23)
        for J in (1, 2):
            eta = np.logspace(-1, 1, 9)
            r0 = np.asarray(q_function(J, p, eta)) / np.asarray(q_integral_exp(J, p, eta))
            e2 = p.power(2) * eta
            r2 = np.asarray(q_function(J, p, e2)) / np.asarray(q_integral_exp(J, p, e2))
            assert np.max(np.abs(r0 - r2)) < 1e-8

    @pytest.mark.parametrize("J", [0, 0.5, 1, 1.5, 2])
    @pytest.mark.parametrize("p", [P_HALF, P_TWO])
    def test_functional_equation_products(self, J, p):
        assert funceq_residual(J, p, ETA_GRID) < FUNCEQ_TOL_PRODUCT

    @pytest.mark.parametrize("J", [0, 0.5, 1, 1.5, 2])
    def test_functional_equation_integral(self, J):
        assert funceq_residual(J, P_CIRC, ETA_GRID) < FUNCEQ_TOL_INTEGRAL

    @pytest.mark.parametrize("p", [P_TWO, P_CIRC])
    @pytest.mark.parametrize("J", [-0.5, -1, -1.5])
    def test_negative_j_rejected(self, J, p):
        # the finite-product factors count up from J = 0 or 1/2
        with pytest.raises(ValueError, match="J >= 0"):
            q_function(J, p, 1.0)

    def test_decays_at_large_eta(self):
        v = q_function(1.5, P_TWO, 1e6)
        assert abs(v) < 1e-6


@pytest.mark.parametrize("call", [
    lambda: q_function(1, P_TWO, np.nan),
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
        a = np.asarray(q_function(J, p, ETA_GRID))
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

    def test_negative_real_axis_refused(self):
        # 1 + eta t vanishes on the contour at t = -1/eta; the quadrature
        # would warn of the branch cut and then fail to converge
        with pytest.raises(ValueError, match=re.escape(
                "l_function needs eta off the negative real axis at eta = -1.0, tau = 0.2")):
            l_function(QParam.unit_circle(0.2), -1.0)
        with pytest.raises(ValueError, match=re.escape(
                f"off the negative real axis at eta = -2.0, tau = {P_CIRC.value!r}")):
            l_function(P_CIRC, np.array([0.5, 1.0 - 1e-9j, -2.0, complex(-3.0, -0.0)]))

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


L_INVERSION_TAU = (0.2, -0.05, 0.01)


def l_oracle_error(tau, eta):
    """|l_function - mp_quad_l| in units of 1e-15 |L| + 1e-14.  The oracle
    integrates eta itself, whatever |eta|: its cuts reach (ln|eta| + 75)/alpha,
    past the (ln|eta| + 60)/alpha where the integrand falls below 1e-26."""
    want = mp_quad_l(tau, eta)
    return abs(l_function(QParam.unit_circle(tau), eta) - want) / (1e-15 * abs(want) + 1e-14)


class TestLInversion:
    # l_function integrates 1/eta where |eta| > 1 and turns L(1/eta) into
    # L(eta) by L(eta) + L(1/eta) = sigma [(Log eta)^2/(2 alpha)
    # + pi^2 (alpha + 1/alpha)/6] / (2 pi i); where it integrated eta, the
    # panels sized by |eta| gave up from |eta| 1e40 at tau 0.01, 1e80 at
    # tau 0.05 and 1e150 at tau 0.2
    @pytest.mark.parametrize("tau", L_INVERSION_TAU)
    @pytest.mark.parametrize("eta", [1e10, 1e19, 1e40, 1e80, 1e150, 1e250])
    def test_large_eta_matches_the_oracle(self, tau, eta):
        assert l_oracle_error(tau, eta) < 1

    @pytest.mark.parametrize("tau", L_INVERSION_TAU)
    @pytest.mark.parametrize("eta", [1e6 * cmath.exp(3.1j), 1e40 * cmath.exp(-3.1j),
                                     30 * cmath.exp(-3.1j), 0.5 * cmath.exp(3.1j)])
    def test_complex_eta_near_the_cut_matches_the_oracle(self, tau, eta):
        assert l_oracle_error(tau, eta) < 1

    @pytest.mark.parametrize("tau", L_INVERSION_TAU)
    @pytest.mark.parametrize("arg", [0.0, 2.5, -2.5, 3.1, -3.1])
    def test_both_formulas_meet_at_the_unit_circle(self, tau, arg):
        # |eta| = 1 - 1e-9 is integrated, 1 + 1e-9 inverted
        for radius in (1 - 1e-9, 1 + 1e-9):
            assert l_oracle_error(tau, radius * cmath.exp(1j * arg)) < 1

    def test_empty_eta_gives_empty_result(self):
        out = l_function(P_CIRC, np.zeros((0, 3)))
        assert isinstance(out, np.ndarray) and out.shape == (0, 3) and out.dtype == complex


def mp_log_sum_product(J, q, eta):
    """Q_J(eta) at real q as exp of the sum of the logs of the infinite
    product's factors at 30 digits, summed until |eta| q^(2k), shifted by
    2J, is below e^-80."""
    with mpmath.workdps(30):
        q, J, eta = mpmath.mpf(q), mpmath.mpf(J), mpmath.mpmathify(eta)
        log_q = abs(mpmath.log(q))
        n = int(mpmath.ceil((mpmath.log(abs(eta)) + 2 * J * log_q + 80) / (2 * log_q)))
        if q < 1:
            num, den = (q ** (2 * k) for k in range(n)), (q ** (2 * k - 2 * J) for k in range(n))
        else:
            num = (q ** (-2 * J - 2 * k - 2) for k in range(n))
            den = (q ** (-2 * k - 2) for k in range(n))
        return mpmath.exp(sum(mpmath.log1p(a * eta) - mpmath.log1p(b * eta)
                              for a, b in zip(num, den)))


class TestHalfIntegerQAgainstOracles:
    """Half-integer J >= 3/2 is Q_{1/2} divided by finite-product factors;
    each oracle computes Q_J whole, at its own J."""

    ETA = [0.05, 0.3, 1.0, 2.5 + 1j, 7.0, 20.0]
    TOL = 1e-14

    @pytest.mark.parametrize("q", [math.exp(0.1), math.exp(-0.1), math.exp(1.0), math.exp(-1.0),
                                   0.6, 1.3])
    @pytest.mark.parametrize("J", [1.5, 2.5])
    def test_real_q_matches_the_log_sum(self, J, q):
        got = np.asarray(q_function(J, QParam.positive_real(q), self.ETA))
        want = np.array([complex(mp_log_sum_product(J, q, e)) for e in self.ETA])
        assert np.max(np.abs(got - want) / np.abs(want)) < self.TOL

    @pytest.mark.parametrize("tau", [0.1, -0.1, 0.2, -0.25, 0.29])
    @pytest.mark.parametrize("J", [1.5, 2.5])
    def test_circle_matches_the_l_difference(self, J, tau):
        p = QParam.unit_circle(tau)
        got = np.asarray(q_function(J, p, self.ETA))
        want = np.array([cmath.exp(mp_quad_l(tau, p.power(-(2 * J + 1)) * e)
                                   - mp_quad_l(tau, p.power(-1) * e)) for e in self.ETA])
        assert np.max(np.abs(got - want) / np.abs(want)) < self.TOL


def mp_q_half(p, eta):
    """Q_{1/2}(eta) by its regime's oracle: the log-sum at real q, the
    difference of the two mp_quad_l at q^-2 eta and q^-1 eta on the circle."""
    if p.regime is Regime.POSITIVE_REAL:
        return complex(mp_log_sum_product(0.5, p.value, eta))
    return cmath.exp(mp_quad_l(p.value, p.power(-2) * eta) - mp_quad_l(p.value, p.power(-1) * eta))


def _radial_nodes(stride):
    """Every stride-th node rho of the radial rule's first level."""
    n = round(quadrature.T_MAX / quadrature.STEP)
    t = quadrature.STEP * np.arange(-n, n + 1, stride)
    return np.exp(0.5 * quadrature.SCALE * np.sinh(t))


def _stepped(J, M, N, p, u, v):
    """psi's rows on a stack of q^2 steps, through qspecial's psi entry."""
    J, ms, N = qspecial._weights(J, M, N)
    out = qspecial._psi(J, ms, N, p, u, v, stepped=True)
    return out if isinstance(M, tuple) else out[0]


class TestQHalfSteps:
    """psi's rows on the eta-shifts 0, 2, 4 (_psi, stepped) take Q_{1/2} at
    shift 0 and each later row from the one before, by Q's equation at
    J = 1/2; funceq and q_function keep evaluating Q at q^2 eta."""

    @staticmethod
    def stack(p, u, v):
        """u v on the stack (u, q^s v), s = 0, 2, 4, as qops._apply builds it."""
        return u * np.stack([v, p.power(2) * v, p.power(4) * v])

    @pytest.mark.parametrize("p", [QParam.positive_real(0.7), QParam.positive_real(1.3),
                                   QParam.positive_real(2.5), QParam.unit_circle(0.2),
                                   QParam.unit_circle(-0.12), QParam.unit_circle(0.01)],
                             ids=["q0.7", "q1.3", "q2.5", "tau0.2", "tau-0.12", "tau0.01"])
    def test_derived_rows_are_no_worse_than_direct_evaluation(self, p):
        # against the oracle at the rows' own eta, on the stencil suites'
        # sample points and on radial nodes as the ket side scales them by
        # q^-1; where L's error dominates (the circle's nodes, up to 1.5e-11
        # at tau 0.01) the derived rows inherit the shift-0 row's, which the
        # direct evaluation also has.  Two q^2 steps add at most 8 roundings.
        circle = p.regime is Regime.UNIT_CIRCLE
        u, v = suites.sample_points(3 if circle else 20, 0)
        rho = _radial_nodes(40 if circle else 8) * p.power(-1)
        for x, y in ((u, v), (rho, rho)):
            eta = self.stack(p, x, y)
            derived = qspecial._q_half_steps(p, eta).reshape(eta.shape)
            direct = np.asarray(q_function(0.5, p, eta))
            assert derived[0].tobytes() == direct[0].tobytes()
            want = np.array([[mp_q_half(p, e) for e in row] for row in eta])
            errors = [float(np.max(np.abs(got - want) / np.abs(want))) for got in (derived, direct)]
            assert errors[0] <= errors[1] + 8 * sys.float_info.epsilon, errors

    @pytest.mark.parametrize("p", [QParam.positive_real(math.exp(-1.0)), QParam.unit_circle(0.2)],
                             ids=["real", "circle"])
    def test_psi_steps_take_q_half_once_and_keep_psi_apart(self, monkeypatch, p):
        # one Q_{1/2} request, on the shift-0 row, whose values are psi's at
        # (u, v); psi on the same stack evaluates every row itself, under its
        # own memo key
        monkeypatch.setattr(qspecial, "_psi_memo", qspecial._ExactMemo(2**20))
        requests = []
        q_half = qspecial._q_half

        def recorded(J, p, arr):
            requests.append(arr.shape)
            return q_half(J, p, arr)
        monkeypatch.setattr(qspecial, "_q_half", recorded)
        u, v = suites.sample_points(5, 1)
        U, V = np.broadcast_to(u, (3, 5)), np.stack([v, p.power(2) * v, p.power(4) * v])
        ms = (1.5, 0.5, -0.5, -1.5)
        stepped = _stepped(1.5, ms, 0.5, p, U, V)
        assert requests == [(5,)] and stepped.shape == (4, 3, 5)
        assert stepped[:, 0].tobytes() == psi(1.5, ms, 0.5, p, u, v).tobytes()
        direct = psi(1.5, ms, 0.5, p, U, V)
        assert requests == [(5,), (5,), (15,)]
        assert np.max(np.abs(direct - stepped)) <= 1e-13 * np.max(np.abs(direct))
        assert _stepped(1.5, 0.5, 0.5, p, U, V).tobytes() == stepped[1].tobytes()
        assert len(qspecial._psi_memo.entries) == 4

    def test_integer_j_rows_are_psi_on_the_stack(self):
        u, v = suites.sample_points(5, 1)
        p = QParam.unit_circle(0.2)
        U, V = np.broadcast_to(u, (2, 5)), np.stack([v, p.power(2) * v])
        got = _stepped(2, (1, 0), 1, p, U, V)
        assert got.tobytes() == psi(2, (1, 0), 1, p, U, V).tobytes()


class _NoLookup(dict):
    """A memo's entries that refuse every lookup."""

    def get(self, key, default=None):
        raise AssertionError(f"looked up {key!r}")


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

    def test_input_past_the_bound_makes_no_key_and_no_lookup(self, memo, misses, monkeypatch):
        # ETA holds 48 bytes: past a bound of 47 its entry is never stored
        want = self.evaluate(self.ETA)
        monkeypatch.setattr(memo, "entries", _NoLookup())
        monkeypatch.setattr(memo, "nbytes", 0)
        monkeypatch.setattr(memo, "max_bytes", 47)
        for _ in range(2):
            assert self.evaluate(self.ETA).tobytes() == want.tobytes()
        assert len(misses) == 3
        assert memo.entries == {} and memo.nbytes == 0


class _QHalfMemoCases(_ExactMemoCases):
    """Q_{1/2}'s memo in one regime: q_function at J = 1/2 reaches it, and
    UNCACHED, the regime's public construction of Q_{1/2}, runs on a miss."""

    MEMO = "_q_half_memo"

    def evaluate(self, eta):
        return q_function(0.5, self.P, eta)

    def uncached(self, arr):
        return getattr(qspecial, self.UNCACHED)(0.5, self.P, arr)

    def test_distinct_inputs_never_share_an_entry(self, misses):
        eta = self.SCALAR_ETA
        calls = [
            lambda: q_function(0.5, self.P, eta),
            lambda: q_function(0.5, self.P.inverse(), eta),
            lambda: q_function(0.5, self.P, np.array([eta])),
            lambda: q_function(0.5, self.P, np.array([[eta]])),
            lambda: q_function(1.5, self.P, eta),
        ]
        first = [call() for call in calls]
        # a scalar and [eta] are one input, and every half-integer J divides
        # the one entry of Q_{1/2}
        assert len(misses) == 3
        again = [call() for call in calls]
        assert len(misses) == 3
        assert isinstance(first[0], complex) and isinstance(again[0], complex)
        assert [np.shape(v) for v in again] == [(), (), (1,), (1, 1), ()]
        assert np.array([first[0]]).tobytes() == first[2].tobytes()
        for a, b in zip(first, again):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_warned_result_is_never_stored(self, memo, misses, monkeypatch):
        self.warn(monkeypatch)
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # silenced, and still not stored
                self.evaluate(0.7)
        assert len(misses) == 2
        assert memo.entries == {}


P_PRODUCT = QParam.positive_real(math.exp(-1.0))


class TestQHalfMemoReal(_QHalfMemoCases):
    P, UNCACHED = P_PRODUCT, "q_infinite_product"
    # at this eta numpy's 0-d arithmetic would round differently from the
    # one-element array's
    SCALAR_ETA = 0.741 - 3.863j

    @staticmethod
    def warn(monkeypatch):
        # the product emits no warning: a miss that moves the branch-cut
        # count stands in for one
        product = qspecial.q_infinite_product

        def warned(*args):
            monkeypatch.setattr(qspecial, "_branch_cut_warnings", qspecial._branch_cut_warnings + 1)
            return product(*args)
        monkeypatch.setattr(qspecial, "q_infinite_product", warned)

    @pytest.mark.parametrize("q,eta,error", [
        (0.5, np.array([1.0, -32.0]), ValueError),   # pole in factor 3
        (0.5, 1e308, ValueError),                    # factor 0 overflows
        (1.0001, 1.0, ValueError),                   # the factor cap
    ], ids=["pole", "overflow", "cap"])
    def test_errors_on_every_call(self, memo, misses, q, eta, error):
        for _ in range(2):
            with pytest.raises(error):
                q_function(0.5, QParam.positive_real(q), eta)
        assert len(misses) == 2
        assert memo.entries == {}


class TestQHalfMemoCircle(_QHalfMemoCases):
    P, UNCACHED = P_CIRC, "q_integral_exp"
    SCALAR_ETA = 0.7

    @staticmethod
    def warn(monkeypatch):
        # a margin wider than pi makes every evaluation warn, converged or not
        monkeypatch.setattr(qspecial, "BRANCH_CUT_MARGIN", 4.0)

    def test_branch_cut_warning_and_error_on_every_call(self, memo, misses):
        # Q_{1/2}'s second L argument, q^-1 eta, is -0.5 + 1e-9j
        eta = (-0.5 + 1e-9j) / P_CIRC.power(-1.0)
        for _ in range(3):
            with pytest.warns(RuntimeWarning, match="branch cut"):
                with pytest.raises(RuntimeError):
                    q_function(0.5, P_CIRC, eta)
        assert len(misses) == 3
        assert memo.entries == {}

    def test_sector_is_checked_before_the_lookup(self, memo, misses):
        # (2J+1) pi/5 passes pi at J = 5/2, though Q_{1/2}'s entry is there
        q_function(0.5, P_CIRC, self.ETA)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"J=5/2 on the circle needs \(2J\+1\)"):
                q_function(2.5, P_CIRC, self.ETA)
        assert len(misses) == 1 and len(memo.entries) == 1


def test_q_half_and_psi_are_the_only_memos():
    memos = [v for v in vars(qspecial).values() if isinstance(v, qspecial._ExactMemo)]
    assert memos == [qspecial._q_half_memo, qspecial._psi_memo]
    assert [m.max_bytes for m in memos] == [qspecial.MEMO_MAX_BYTES] * 2 == [2**20] * 2


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
    monkeypatch.setattr(qspecial, "_q_half_memo", qspecial._ExactMemo(0))
    monkeypatch.setattr(qspecial, "_psi_memo", qspecial._ExactMemo(0))
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

    @pytest.mark.parametrize("J,M,N,q", [(30, 0, 0, 0.7), (24.5, -24.5, 24.5, 1.3)])
    def test_a_norm_out_of_the_float_range_is_refused(self, J, M, N, q):
        # [J+N]![2J+1]! overflows before its division: the norm was nan or inf
        p = QParam.positive_real(q)
        label = f"({HalfInt.of(J)},{HalfInt.of(M)},{HalfInt.of(N)})"
        with pytest.raises(ValueError, match=re.escape(
                f"norm_constant for (J,M,N)={label} leaves the float range at q = {q}")):
            norm_constant(J, M, N, p)
        with pytest.raises(ValueError, match=re.escape(f"psi for (J,M,N)={label}")):
            psi(J, M, N, p, 0.5, 0.5)  # psi's refusal of the row keeps its words

    def test_circle_negative_radicand_rejected(self):
        # tau = pi/4: [4]_q = 0 and [5]_q < 0 poison [2J+1]! for J = 2
        p = QParam.unit_circle(math.pi / 4 + 0.05)
        with pytest.raises(ValueError, match="positivity"):
            norm_constant(2, 0, 0, p)


class TestPsiFloatRange:
    """psi refuses a row whose lead, or lead times Q, leaves the float range."""

    def test_a_norm_that_underflows_is_refused(self):
        # at tau 0.01 the norm radicand [J+M]!/([J-M]![2J]!) of (50, -49, 0)
        # underflows to 0, so every value of the row would be 0 or nan
        with pytest.raises(ValueError, match=re.escape(
                "psi for (J,M,N)=(50,-49,0) leaves the float range at tau = 0.01")):
            psi(50, -49, 0, QParam.unit_circle(0.01), 0.5, 0.5)

    def test_a_row_that_overflows_is_refused(self):
        # at u = 1e-100, v = 1e100 (uv = 1) the row of (2, 2, 2) carries
        # v^4 = 1e400; the first row out of range is named, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "psi for (J,M,N)=(2,2,2) leaves the float range at q = 1.0")):
                psi(2, (1, 2), 2, P_CLASS, np.array([0.5, 1e-100]), np.array([0.5, 1e100]))

    @pytest.mark.parametrize("p", [P_CLASS, P_TWO, P_CIRC], ids=["classical", "q2", "circle"])
    @pytest.mark.parametrize("J,M,N", [(1, 0, 0), (1.5, 0.5, 0.5)])
    def test_finite_arguments_whose_product_overflows_are_refused(self, p, J, M, N):
        # u v = 1e400 is not a float: every regime and J refuses it alike,
        # with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"psi for (J,M,N)=({HalfInt.of(J)},{HalfInt.of(M)},{HalfInt.of(N)}) "
                    "leaves the float range at ")):
                psi(J, M, N, p, 1e200, 1e200)


def mp_psi(J, M, N, p, u, v):
    """psi from 60-digit sums: the norm and phase as floats, Q_J(uv) as the
    product of its finite factors (times the float Q_{1/2} at half-integer
    J off q = 1), R(uv) v^(M+N) summed exactly."""
    with mpmath.workdps(60):
        uu, vv = mpmath.mpmathify(u), mpmath.mpmathify(v)
        eta = uu * vv
        if p.regime is qcore.Regime.CLASSICAL:
            q_j = (1 + eta) ** -mpmath.mpf(float(J))
        else:
            q_j = mpmath.mpf(1) if J.is_integer() else mpmath.mpmathify(
                complex(q_function(0.5, p, complex(u) * complex(v))))
            for t in range(J.twice, 1, -2):  # the factors 1 + q^(-t) eta, t = 2J .. 2 or 3
                q_j /= 1 + mp_power(-t, p) * eta
        lead = norm_constant(J, M, N, p) * p.power(-float(N) * float(M) / 2.0)
        return lead * q_j * mp_r(J, M, N, p, eta) * vv ** (M + N).to_int()


class TestPsiScaledStart:
    """Where |eta|^J0 may pass 2^START_BITS, as at the radial rule's nodes
    from J0 = 6 on, every start of a call runs on u, v and the factors of Q
    scaled by powers of 2, and an exact ldexp takes each row back: a point
    whose plain start stays normal keeps its bits, and one whose plain start
    leaves the range gets its value."""

    @pytest.mark.parametrize("J,M,N", [(17, 0, 0), (20, -20, -20), (20, 20, 20), (20, 20, -20),
                                       (20, 3, -7), (20.5, 0.5, -0.5), (30, -30, -30)])
    @pytest.mark.parametrize("eta", [1e10, 1e19])
    def test_large_eta_against_mpmath(self, J, M, N, eta):
        J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
        got = psi(J, M, N, P_CLASS, math.sqrt(eta), math.sqrt(eta))
        want = complex(mp_psi(J, M, N, P_CLASS, math.sqrt(eta), math.sqrt(eta)))
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    @pytest.mark.parametrize("p", [P_CLASS, QParam.positive_real(1.3), QParam.positive_real(0.7),
                                   QParam.unit_circle(0.2)], ids=["q1", "q1.3", "q0.7", "tau0.2"])
    def test_scaled_start_is_the_plain_start_where_both_are_in_range(self, p):
        # off the diagonal, |u| != |v|, at |uv| from 6 to 2000: alone, every
        # call starts plain; beside a point at uv = 1e60 the calls from
        # J = 2 on take the scaled start at every point
        u = np.linspace(2.0, 40.0, 7) * np.exp(0.3j)
        v = np.linspace(3.0, 50.0, 7) * np.exp(-0.1j)
        for twice in range(9):  # J <= 4
            J = HalfInt(twice)
            ms = tuple(m_values(J))
            for N in m_values(J):
                plain = qspecial._psi_rows(J, ms, N, p, u, v)
                beside = qspecial._psi_rows(J, ms, N, p, np.append(u, 1e30), np.append(v, 1e30))
                scale = np.max(np.abs(plain), axis=1, keepdims=True)
                assert np.all(np.abs(beside[:, :7] - plain) <= 1e-12 * scale), (J, N)

    @pytest.mark.parametrize("p", [P_CLASS, QParam.positive_real(1.3)], ids=["q1", "q1.3"])
    @pytest.mark.parametrize("J,M,N", [(8, 6, 0), (8.5, -6.5, 0.5), (12, 7, -7)])
    def test_a_point_has_the_bits_of_its_own_call(self, p, J, M, N):
        # beside points at 1e19 and 1e25 the call takes the scaled start,
        # so a row from J0 >= 6 has at 1 .. 1e12 the bits of a call on those
        # alone, which starts plain
        eta = np.array([1.0, 1e6, 1e12, 1e19, 1e25])
        u, v = np.sqrt(eta) * np.exp(0.2j), np.sqrt(eta) * np.exp(-0.5j)
        got = psi(J, M, N, p, u, v)
        for k in range(3):
            assert got[k:k + 1].tobytes() == psi(J, M, N, p, u[k:k + 1], v[k:k + 1]).tobytes()
        assert got[:3].tobytes() == psi(J, M, N, p, u[:3], v[:3]).tobytes()
        want = [complex(mp_psi(HalfInt.of(J), HalfInt.of(M), HalfInt.of(N), p, a, b))
                for a, b in zip(u, v)]
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("J,M,N,p,rho", [
        (33, 33, 0, P_CLASS, 3121832373.7),
        (19, 16, 19, QParam.positive_real(0.7), 3.203246940555058e-10),
    ], ids=["last-node-q1", "first-node-q0.7"])
    def test_the_rule_end_values_against_mpmath(self, J, M, N, p, rho):
        # at the radial rule's last and first nodes the plain start leaves
        # the range ((-u)^33 overflows, v^35 underflows) and psi printed 0;
        # the values, 4.24e-304 and 1.98e-298, are normal floats
        J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
        got = psi(J, M, N, p, rho, rho)
        want = complex(mp_psi(J, M, N, p, rho, rho))
        assert want != 0 and abs(got - want) <= 1e-13 * abs(want), (got, want)

    @pytest.mark.parametrize("p,j_max", [(P_CLASS, 12), (QParam.positive_real(1.3), 12),
                                         (QParam.positive_real(0.7), 12),
                                         (QParam.unit_circle(0.2), 7)],
                             ids=["q1", "q1.3", "q0.7", "tau0.2"])
    def test_a_plain_start_has_the_bits_of_the_scaled_start(self, p, j_max, monkeypatch):
        # the gate skips the scaled start only where it changes no bit: at
        # |eta| from 1e-12 to 1e12, on |u| = |v| and on the real diagonal
        # beside its conjugate (v = rho - 0j), each row has the bits, signs
        # of zeros included, of the same call beside eta = 1e30, which
        # scales the calls from J = 7/2 on, and of the call made with
        # START_BITS = 0, which scales every call
        root = np.sqrt(np.geomspace(1e-12, 1e12, 9))
        u = np.concatenate((root * np.exp(0.3j), root + 0j))
        v = np.concatenate((root * np.exp(-0.1j), np.conj(root + 0j)))
        plain, beside = {}, {}
        for twice in range(2 * j_max + 1):
            J = HalfInt(twice)
            ms = tuple(m_values(J))
            for N in m_values(J):
                plain[J, N] = qspecial._psi_rows(J, ms, N, p, u, v)
                beside[J, N] = qspecial._psi_rows(J, ms, N, p, np.append(u, 1e15),
                                                  np.append(v, 1e15))[:, :-1]
        monkeypatch.setattr(qspecial, "START_BITS", 0.0)
        for (J, N), rows in plain.items():
            assert beside[J, N].tobytes() == rows.tobytes(), (J, N)
            scaled = qspecial._psi_rows(J, tuple(m_values(J)), N, p, u, v)
            assert scaled.tobytes() == rows.tobytes(), (J, N)


class TestPsiOracle:
    """psi against 60-digit sums on the oracle grid of R, and at eta = 1e19."""

    @pytest.mark.parametrize("p", ORACLE_PARAMS, ids=["q1", "q1.3", "q0.7", "tau0.02"])
    def test_against_mpmath_sums(self, p):
        roots = np.sqrt(np.array(ORACLE_ETAS + [1e19], dtype=complex))
        worst, accepted = 0.0, 0
        for J in range(10, 61, 10):
            for Jh, M, N in oracle_triples(J):
                try:
                    norm = norm_constant(Jh, M, N, p)
                except ValueError:
                    norm = math.nan
                if not sys.float_info.min <= norm < math.inf:  # its factorials leave the range
                    with pytest.raises(ValueError, match="leaves the float range"):
                        psi(Jh, M, N, p, roots, roots)
                    continue
                got = psi(Jh, M, N, p, roots, roots)
                for g, r in zip(got, roots):
                    want = complex(mp_psi(Jh, M, N, p, r, r))
                    worst = max(worst, abs(g - want) / abs(want))
                accepted += 1
        assert worst < 1e-11 and accepted >= 40


# the large-|ln q| grid of R and psi: |ln q| up to 1.39 on both sides of 1,
# J <= 12, eta over fourteen decades
LN_Q_PARAMS = [QParam.positive_real(q) for q in (0.25, 0.5, 0.7, 1.3, 4.0)]
LN_Q_TRIPLES = [(8, 6, 5), (12, 0, 0), (12, 3, -2), (10, -4, -6), (11.5, 2.5, -0.5),
                (9.5, -1.5, -3.5), (6, 2, 2), (12, -5, 7)]
LN_Q_ETAS = [1e-6, 1e-4, 1e-2, 0.5, 1.0, 7.0, 1e2, 1e4, 1e6, 1e8]
LN_Q_TOL = 64  # times eps times the k-sum's condition number
STEP_ULPS = 8
STEP_PARAMS = LN_Q_PARAMS + [QParam.unit_circle(0.2), QParam.unit_circle(-0.15), P_CLASS]


class TestLargeLogQ:
    """R and psi where a_j is within 1e-14 of 1 or closer: R's coefficient
    1 - a_j is a product of q-numbers (_r_steps), so nothing cancels in it.
    Taken as 1.0 - a_j, it put R(1e5) at (8, 6, 5), q 0.25, 1.0% off."""

    @pytest.mark.parametrize("p", STEP_PARAMS, ids=["q0.25", "q0.5", "q0.7", "q1.3", "q4",
                                                    "tau0.2", "tau-0.15", "q1"])
    def test_one_minus_a_against_mpmath(self, p):
        # steps[2] against 1 - a_j in 50 digits, for |M|, |N| <= 6 and
        # J up to 12 (inside the circle's sector): a few ulps, and exactly 0
        # at j = M or N, where R_(j-1) is 0; the worst seen is 5.5 ulps, at
        # tau -0.15, and 4.5 at real q
        eps, circle = sys.float_info.epsilon, p.regime is qcore.Regime.UNIT_CIRCLE
        with mpmath.workdps(50):
            for mt, nt in itertools.product(range(-12, 13), repeat=2):
                if (mt - nt) % 2:
                    continue
                M, N = HalfInt(mt), HalfInt(nt)
                J = HalfInt(24 - mt % 2)
                while circle and (J.twice + 1) * abs(p.value) >= math.pi:
                    J = HalfInt(J.twice - 2)
                J0 = max(abs(mt), abs(nt))
                _, _, _, steps = qspecial._r_steps(J, M, N, p,
                                                   qcore._q_factorials(max(0, (mt + nt) // 2), p))
                for i, got in enumerate(steps[2, :, 0]):
                    j = mpmath.mpf(J0 + 2 * i) / 2
                    if 2 * j in (0, mt, nt):
                        assert got == 0.0, (M, N, j)
                        continue
                    want = 1 - mp_steps(j, M, N, p)[0]
                    assert abs(got - want) <= STEP_ULPS * eps * abs(want), (M, N, j)

    @pytest.mark.parametrize("p", LN_Q_PARAMS, ids=["q0.25", "q0.5", "q0.7", "q1.3", "q4"])
    def test_r_and_psi_against_mpmath_sums(self, p):
        # relative to eps times cond = sum |c_k eta^k| / |R|; the worst seen
        # is 36, at q 0.7, where R(12, 0, 0) near eta = 0 is the recurrence's
        # own floor (R is about 1 there)
        eps = sys.float_info.epsilon
        for J, M, N in LN_Q_TRIPLES:
            J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
            with mpmath.workdps(60):
                k0, coeffs = mp_r_coefficients(J, M, N, p)
                for eta in LN_Q_ETAS:
                    want = mp_r(J, M, N, p, eta)
                    cond = float(sum(abs(c) * mpmath.mpf(eta) ** (k0 + i)
                                     for i, c in enumerate(coeffs)) / abs(want))
                    tol = LN_Q_TOL * eps * cond
                    got = r_polynomial(J, M, N, p, eta)
                    assert abs(got - complex(want)) <= tol * abs(want), (J, M, N, eta)
                    u = math.sqrt(eta) * cmath.exp(0.3j)
                    got = psi(J, M, N, p, u, u.conjugate())
                    want = complex(mp_psi(J, M, N, p, u, u.conjugate()))
                    assert abs(got - want) <= tol * abs(want), (J, M, N, eta)

    def test_the_printed_example(self):
        got = r_polynomial(8, 6, 5, QParam.positive_real(0.25), 1e5)
        assert abs(got - -2.4821662455895520e-34) <= 1e-13 * 2.4821662455895520e-34


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

    @pytest.mark.parametrize("p", [QParam.positive_real(1.3), QParam.unit_circle(0.2)],
                             ids=["q1.3", "tau0.2"])
    def test_rows_are_the_defining_formula(self, p):
        # row M = norm q^(-NM/2) Q_J(uv) R(uv) v^(M+N), R summed from its
        # exact coefficients, on stacked points off the diagonal
        u, v = TOWER_POINTS["stacked"]
        J, N = HalfInt.of(3), HalfInt.of(1)
        ms = tuple(HalfInt(t) for t in range(J.twice, -J.twice - 1, -2))
        got = psi(J, ms, N, p, u, v)
        qval = q_function(J, p, u * v)
        k0s = []
        for row, M in zip(got, ms):
            with mpmath.workdps(30):
                k0, coeffs = mp_r_coefficients(J, M, N, p)
            r = sum(complex(c) * (-(u * v)) ** (k0 + i) for i, c in enumerate(coeffs))
            want = (norm_constant(J, M, N, p) * p.power(-float(N) * float(M) / 2.0)
                    * qval * r * v ** (M + N).to_int())
            assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want)), M
            k0s.append(qspecial._psi_record(J, M, N, p)[2])
        assert k0s == [0, 0, 0, 0, 0, 1, 2]  # M+N = 4 .. -2

    def test_evaluates_q_once(self, monkeypatch):
        monkeypatch.setattr(qspecial, "_psi_memo", qspecial._ExactMemo(0))
        calls = []
        q_values = qspecial._q_values  # q_function's evaluation, which psi calls

        def counted(J, p, eta):
            calls.append(np.shape(eta))
            return q_values(J, p, eta)
        monkeypatch.setattr(qspecial, "_q_values", counted)
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

    @pytest.mark.parametrize("J,M,N,message", [
        (-1, 0, 0, r"J = -1 must be >= 0"),
        (1, 2, 2, r"need \|N\| <= J, got \(J,N\) = \(1,2\)"),  # the tower before M
        (1, 0.5, 0, r"\(J,M,N\) = \(1,1/2,0\) must be integers or half-integers together"),
        (1, 2, 0, r"need \|M\| <= J, got \(J,M,N\) = \(1,2,0\)"),
        (1, (0, 2), 0, r"need \|M\| <= J, got \(J,M,N\) = \(1,2,0\)"),
        (1, (), 0, r"psi needs at least one weight M"),
        (0.3, 0, 0, r"0.3 is not a half-integer"),
        (6, 7, 0, r"need \|M\| <= J, got \(J,M,N\) = \(6,7,0\)"),  # the labels before the sector
    ])
    def test_psi_and_vilenkin_refuse_a_bad_label_in_their_words(self, J, M, N, message):
        # the labels come first, before the circle's sector and the points
        p = QParam.unit_circle(0.5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            psi(J, M, N, p, math.nan, 0.5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            vilenkin(J, M, N, p, 2.0)

    def test_vilenkin_makes_a_scalar_m_before_n(self):
        with pytest.raises(ValueError, match=r"^0.3 is not a half-integer$"):
            vilenkin(1, 0.3, 0.2, P_TWO, 0.5)


class TestPsiMemo:
    """psi's memo, keyed on (J, the weights, N, p, the shapes and the
    complex bytes of u and v), under the _ExactMemo rules."""

    U = np.array([0.3, 1.0 + 0.5j, 4.0])

    @pytest.fixture
    def memo(self, monkeypatch):
        memo = qspecial._psi_memo
        monkeypatch.setattr(memo, "entries", {})
        monkeypatch.setattr(memo, "nbytes", 0)
        return memo

    @pytest.fixture
    def misses(self, memo, monkeypatch):
        """Arguments of the uncached evaluations that run after emptying the memo."""
        calls = []
        uncached = qspecial._psi_rows

        def counted(*args):
            calls.append(args)
            return uncached(*args)

        monkeypatch.setattr(qspecial, "_psi_rows", counted)
        return calls

    @pytest.mark.parametrize("M", [0.5, (1.5, 0.5, -0.5)], ids=["member", "tower"])
    def test_hit_is_a_fresh_copy_with_the_bits_of_a_miss(self, misses, M):
        u, v = self.U, np.conj(self.U)
        first = psi(1.5, M, 0.5, P_TWO, u, v)
        want = first.copy()
        first[...] = 0.0
        second = psi(1.5, M, 0.5, P_TWO, u, v)
        assert second.tobytes() == want.tobytes()
        second[...] = 0.0
        assert psi(1.5, M, 0.5, P_TWO, u, v).tobytes() == want.tobytes()
        assert len(misses) == 1
        fresh = qspecial._psi_rows(*misses[0])
        assert fresh.reshape(want.shape).tobytes() == want.tobytes()

    @pytest.mark.parametrize("M", [0.5, (1.5, 0.5, -0.5)], ids=["member", "tower"])
    def test_input_past_the_bound_makes_no_key_and_no_lookup(self, memo, misses, monkeypatch, M):
        # u and v hold 96 bytes: past a bound of 95 their entry is never stored
        u, v = self.U, np.conj(self.U)
        want = psi(1.5, M, 0.5, P_TWO, u, v)
        monkeypatch.setattr(memo, "entries", _NoLookup())
        monkeypatch.setattr(memo, "nbytes", 0)
        monkeypatch.setattr(memo, "max_bytes", 95)
        for _ in range(2):
            assert psi(1.5, M, 0.5, P_TWO, u, v).tobytes() == want.tobytes()
        assert len(misses) == 3
        assert memo.entries == {} and memo.nbytes == 0

    def test_scalar_and_one_element_array_share_an_entry(self, misses):
        u, v = 0.7 * np.exp(0.4j), 0.7 * np.exp(-0.4j)
        scalar = psi(1.5, 0.5, 0.5, P_TWO, u, v)
        array = psi(1.5, 0.5, 0.5, P_TWO, np.array([u]), np.array([v]))
        assert len(misses) == 1
        assert isinstance(scalar, complex) and array.shape == (1,)
        assert np.array([scalar]).tobytes() == array.tobytes()

    def test_distinct_inputs_never_share_an_entry(self, misses):
        a, b, c = 0.7 + 0.1j, 1.3 - 0.2j, 0.4 + 0.9j
        calls = [
            lambda: psi(1.5, 0.5, 0.5, P_TWO, a, b),
            lambda: psi(1.5, 0.5, 0.5, P_TWO, b, a),
            lambda: psi(1.5, -0.5, 0.5, P_TWO, a, b),
            lambda: psi(1.5, (0.5, -0.5), 0.5, P_TWO, a, b),
            lambda: psi(1.5, 0.5, 0.5, P_TWO.inverse(), a, b),
            lambda: psi(1.5, 0.5, 0.5, P_TWO, np.array([[a]]), b),
            # the same bytes of u and v together, split differently
            lambda: psi(1.5, 0.5, 0.5, P_TWO, np.array([a, b]), np.array([c])),
            lambda: psi(1.5, 0.5, 0.5, P_TWO, np.array([a]), np.array([b, c])),
        ]
        first = [call() for call in calls]
        again = [call() for call in calls]
        assert len(misses) == len(calls)
        for x, y in zip(first, again):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()

    def test_errors_on_every_call(self, memo, misses):
        # at tau = 0.01 the norm of (50, -49, 0) underflows; at q = 2 the
        # J = 1 factor 1 + eta q^-2 vanishes at eta = -4
        p = QParam.unit_circle(0.01)
        for _ in range(3):
            with pytest.raises(ValueError, match="leaves the float range"):
                psi(50, -49, 0, p, 0.5, 0.5)
            with pytest.raises(ValueError, match="finite-product pole: factor k=0"):
                psi(1, 0, 0, P_TWO, -4.0, 1.0)
        assert len(misses) == 6
        assert memo.entries == {}

    # at tau = 1, J = 1/2, the L argument q^-1 u v is 1e-4 e^(i(pi - 9e-7)),
    # within the margin of the Log branch cut; its quadrature converges
    CUT_P = QParam.unit_circle(1.0)
    CUT_U = 1e-4 * np.exp(1j * (math.pi - 9e-7)) / CUT_P.power(-1.0)

    def test_branch_cut_warning_on_every_call(self, memo, misses):
        for _ in range(3):
            with pytest.warns(RuntimeWarning, match="branch cut"):
                psi(0.5, 0.5, 0.5, self.CUT_P, self.CUT_U, 1.0)
        assert len(misses) == 3
        assert memo.entries == {}

    def test_silenced_warning_is_still_not_stored(self, memo, misses):
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                psi(0.5, 0.5, 0.5, self.CUT_P, self.CUT_U, 1.0)
        assert len(misses) == 2
        assert memo.entries == {}

    def test_has_its_own_byte_bound(self):
        assert qspecial._psi_memo.max_bytes == qspecial.MEMO_MAX_BYTES
        assert qspecial._psi_memo is not qspecial._q_half_memo


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

    @pytest.mark.parametrize("p", [QParam.positive_real(1.4), QParam.positive_real(0.6), P_CLASS,
                                   QParam.unit_circle(0.2), QParam.unit_circle(-0.13)],
                             ids=["q1.4", "q0.6", "q1", "tau0.2", "tau-0.13"])
    def test_matches_the_radicand_formula(self, p):
        # psi on the diagonal against the formula it replaced
        xi = np.linspace(-0.9, 0.9, 7)
        for J in (HalfInt(t) for t in range(9)):
            for M, N in itertools.product(m_values(J), repeat=2):
                got = np.asarray(vilenkin(J, M, N, p, xi))
                want = radicand_vilenkin(J, M, N, p, xi)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (J, M, N)

    @pytest.mark.parametrize("p", [QParam.positive_real(1.001), P_CLASS, QParam.unit_circle(0.2)],
                             ids=["q1.001", "q1", "tau0.2"])
    def test_a_tuple_of_weights_keeps_the_bits_of_each_call(self, p):
        xi = np.linspace(-0.8, 0.8, 9)
        ms = (1.5, -0.5, 0.5)
        rows = vilenkin(1.5, ms, 0.5, p, xi)
        assert rows.shape == (3, 9)
        for M, row in zip(ms, rows):
            assert row.tobytes() == vilenkin(1.5, M, 0.5, p, xi).tobytes(), M
        one = vilenkin(1.5, ms, 0.5, p, 0.3)
        assert one.shape == (3,)
        assert [complex(x) for x in one] == [vilenkin(1.5, M, 0.5, p, 0.3) for M in ms]
        with pytest.raises(ValueError):
            vilenkin(1.5, (), 0.5, p, xi)
        with pytest.raises(ValueError, match=r"\|M\| <= J"):
            vilenkin(1.5, (0.5, 2.5), 0.5, p, xi)

    def test_the_circle_needs_the_sector_for_every_j(self):
        xi = np.linspace(-0.9, 0.9, 7)
        # (2J+1)|tau| = 3.213 > pi; the radicand [8]![8]! is still positive
        with pytest.raises(ValueError, match="tau"):
            vilenkin(4, 4, 4, QParam.unit_circle(0.357), xi)
        for J, tau in [(4, 0.349), (4, -0.349), (3.5, 0.39), (3.5, -0.39)]:
            for M, N in itertools.product(m_values(HalfInt.of(J)), repeat=2):
                assert np.all(np.isfinite(vilenkin(J, M, N, QParam.unit_circle(tau), xi)))


def radicand_vilenkin(J, M, N, p, xi):
    """vilenkin as its own formula: i^(2J-M-N) sqrt([J+M]![J+N]!/([J-M]![J-N]!))
    eta^((M+N)/2) Q_J(eta) R(eta) at eta = (1+xi)/(1-xi)."""
    eta = (1.0 + xi) / (1.0 - xi)
    rad = (q_factorial((J + M).to_int(), p) * q_factorial((J + N).to_int(), p)
           / (q_factorial((J - M).to_int(), p) * q_factorial((J - N).to_int(), p)))
    return (1j ** ((2 * J.twice - M.twice - N.twice) // 2) * math.sqrt(rad)
            * eta ** (float(M + N) / 2.0) * q_function(J, p, eta) * r_polynomial(J, M, N, p, eta))


def per_factor_infinite_product(J, p, eta):
    """The product a factor at a time, each point multiplying its factors
    0 .. K of qspecial._last_factors and 1 past them: the bitwise reference
    for the blocks and their order.  A scalar eta runs as [eta], as in
    q_infinite_product."""
    q, Jf = p.value, float(J)
    arr = np.atleast_1d(np.asarray(eta, dtype=complex))
    out = np.ones_like(arr)
    last = qspecial._last_factors(q, Jf, np.abs(arr))
    for k in range(int(last.max()) + 1):
        if q < 1.0:
            num = 1.0 + arr * q ** (2 * k)
            den = 1.0 + arr * q ** (-2 * Jf + 2 * k)
        else:
            num = 1.0 + arr * q ** (-2 * Jf - 2 * k - 2)
            den = 1.0 + arr * q ** (-2 * k - 2)
        if np.any(np.abs(den) < qspecial.POLE_TOL):
            raise ValueError(f"infinite-product pole in factor k={k}")
        out = out * np.where(k > last, 1.0, num / den)
    return out.item() if np.ndim(eta) == 0 else out


def stop_gap(q):
    """The gap from 1 within which the product's factors count as 1: below
    1e-18, with the geometric tail gap r / (1 - r), r = q^(+-2), below 1e-14."""
    r = q * q if q < 1.0 else q ** -2
    return min(1e-18, 1e-14 * (1.0 - r) / r) if r else 1e-18


def mpmath_first_factor_within(q, J, eta, gap, limit):
    """The first k < limit whose product factor is within gap of 1 at 40
    digits, else limit; factor k less 1 is (rho - 1) b_k eta / (1 + b_k eta),
    with b_k and rho = a_k / b_k as in _multipliers."""
    with mpmath.workdps(40):
        q, J, eta = mpmath.mpf(q), mpmath.mpf(J), mpmath.mpc(eta)
        if q < 1:
            rho, b, r = q ** (2 * J), q ** (-2 * J), q ** 2
        else:
            rho, b, r = q ** (-2 * J), q ** -2, q ** -2
        for k in range(limit):
            if abs((rho - 1) * b * eta / (1 + b * eta)) < gap:
                return k
            b *= r
    return limit


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

    @pytest.mark.parametrize("q", [0.7, 0.37, 1.6])
    def test_a_point_has_the_bits_of_its_own_call(self, q):
        # each point stops on its own, so its neighbours cannot move its
        # bits: at q 0.7 the point 1.3 alone once ended ...955, beside 5.0 ...954
        p = QParam.positive_real(q)
        eta = np.array([1.3, 5.0, 0.02, 40.0 + 3j, 1e-3, 7.5])
        together = q_infinite_product(0.5, p, eta)
        alone = np.array([q_infinite_product(0.5, p, e) for e in eta])
        assert together.tobytes() == alone.tobytes()

    def test_any_memory_layout_gives_the_bits_of_c_order(self):
        # a Fortran-ordered eta, as a transposed 2-D array, once lost every
        # write of the product and came back as ones, which the Q_{1/2}
        # memo then kept under the key of the C-ordered values
        p = QParam.positive_real(0.7)
        eta2d = np.linspace(0.23, 9.17, 12).reshape(3, 4) * np.exp(0.31j)
        for f in (lambda e: q_infinite_product(0.5, p, e), lambda e: q_function(1.5, p, e)):
            got = f(eta2d.T)
            want = f(np.ascontiguousarray(eta2d.T))
            assert got.shape == want.shape == (4, 3)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert np.allclose(q_infinite_product(0.5, p, eta2d.T),
                           per_factor_infinite_product(0.5, p, eta2d.T), rtol=1e-15, atol=0)

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
        monkeypatch.setattr(qspecial._q_half_memo, "entries", {})
        monkeypatch.setattr(qspecial._q_half_memo, "nbytes", 0)
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

    def test_q_near_one_is_refused_before_any_factor(self, monkeypatch):
        # 2(1e5)(1e-4) = 20 e-folds would leave |factor - 1| near 1e-13 at the cap
        asked = []
        multipliers = qspecial._multipliers

        def recorded(q, Jf, ks):
            asked.extend(ks)
            return multipliers(q, Jf, ks)

        monkeypatch.setattr(qspecial, "_multipliers", recorded)
        with pytest.raises(ValueError, match=r"^infinite product needs 161189 factors "
                                             r"at q = 1\.0001, past the cap of 100000$"):
            q_infinite_product(0.5, QParam.positive_real(1.0001), 1.0)
        assert asked == [0]  # only the overflow test of factor 0


class TestInfiniteProductCount:
    """Each point's last factor K, fixed before the first block, against the
    first factor within the stop gap of 1 at 40 digits."""

    @given(q_above=st.one_of(st.floats(0.05, 1.5).map(math.exp), st.just(1e200)),
           above_one=st.booleans(), J=st.sampled_from([-1.5, -0.5, 0.5, 1, 1.5, 2.5, 3]),
           abs_eta=st.one_of(st.floats(-40.0, 44.0).map(math.exp), st.just(1e308)),
           phase=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_count_is_the_first_factor_within_the_gap_or_one_past(self, q_above, above_one, J,
                                                                  abs_eta, phase):
        q = q_above if above_one else 1.0 / q_above
        eta = abs_eta * complex(math.cos(phase), math.sin(phase))
        K = qspecial._last_factors(q, float(J), np.abs(np.array([eta])))
        assert K.dtype == float and K.shape == (1,)
        K = int(K[0])
        first = mpmath_first_factor_within(q, J, eta, stop_gap(q), K + 2)
        assert 0 <= K - first <= 1

    def test_a_multiplier_out_of_the_float_range_is_refused(self):
        # at q < 1 the denominators' multipliers are q^(2k - 2J); q^-4
        # overflows at q = 1e-200
        with pytest.raises(ValueError, match="^infinite-product multiplier overflows at q = 1e-200$"):
            q_infinite_product(2, QParam.positive_real(1e-200), 1.0)

    @pytest.mark.parametrize("q", [1e-200, 1e200])
    @pytest.mark.parametrize("J", [-1.5, 0.5, 3])
    def test_extreme_q_and_eta(self, q, J):
        # q^(+-2) underflows to 0, rho = q^(-+2J) and |eta| b_0 can leave
        # the float range, and eta = 0 has no logarithm
        eta = np.array([0.0, 1e-300, 1.0, 1e100 - 1e100j, 1e308, -2e307j])
        K = qspecial._last_factors(q, J, np.abs(eta))
        first = [mpmath_first_factor_within(q, J, e, stop_gap(q), int(k) + 2)
                 for e, k in zip(eta, K)]
        assert K[0] == first[0] == 0
        assert all(0 <= k - f <= 1 for k, f in zip(K, first))
