import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suq2 import (
    HalfInt,
    QParam,
    Regime,
    check_not_root_of_unity,
    inv_q_factorial,
    m_values,
    q_factorial,
    q_number,
    validate_triple,
)

SYM_TOL = 1e-13


class TestQParam:
    def test_regime_dispatch(self):
        assert QParam.positive_real(2.0).regime is Regime.POSITIVE_REAL
        assert QParam.unit_circle(0.3).regime is Regime.UNIT_CIRCLE
        assert QParam.classical().regime is Regime.CLASSICAL
        assert QParam.from_q(1.0).regime is Regime.CLASSICAL
        assert QParam.from_q(0.5).regime is Regime.POSITIVE_REAL

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            QParam.positive_real(-1.0)
        with pytest.raises(ValueError):
            QParam.positive_real(1.0)
        with pytest.raises(ValueError):
            QParam.unit_circle(0.0)
        with pytest.raises(ValueError):
            QParam.unit_circle(3.5)

    @pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_q(self, q):
        with pytest.raises(ValueError, match="finite"):
            QParam.positive_real(q)
        with pytest.raises(ValueError):
            QParam.from_q(q)

    def test_complex_value_and_inverse(self):
        p = QParam.unit_circle(math.pi / 5)
        assert p.complex_value() == pytest.approx(np.exp(1j * math.pi / 5))
        assert p.inverse().value == -math.pi / 5
        assert QParam.positive_real(2.0).inverse().value == 0.5

    def test_power_is_exact_on_the_circle(self):
        p = QParam.unit_circle(math.pi / 3)
        # q^3 = e^{i pi} should land exactly on -1 via cos/sin
        z = p.power(3)
        assert z.real == pytest.approx(-1.0, abs=1e-15)
        assert abs(z.imag) < 1e-15


class TestHalfInt:
    def test_arithmetic(self):
        a = HalfInt.of(1.5)
        assert a.twice == 3
        assert float(a + HalfInt.of(0.5)) == 2.0
        assert float(a - 1) == 0.5
        assert float(-a) == -1.5
        assert not a.is_integer()
        assert HalfInt.of(2).to_int() == 2
        assert str(a) == "3/2"
        assert str(HalfInt.of(2)) == "2"

    def test_of_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            HalfInt.of(0.3)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e308])
    def test_of_rejects_non_finite_values(self, x):
        # round(inf) raises OverflowError, which the CLI would not catch
        with pytest.raises(ValueError):
            HalfInt.of(x)

    @pytest.mark.parametrize("x", [np.float32("inf"), np.float32("nan"), np.float64("-inf"),
                                   "1", "a", 1j, 1 + 0j, None, [1], (1,)],
                             ids=["f32-inf", "f32-nan", "f64-ninf", "str-digit", "str",
                                  "complex", "complex-real", "none", "list", "tuple"])
    def test_of_rejects_other_types_with_value_error(self, x):
        with pytest.raises(ValueError, match="not a finite half-integer"):
            HalfInt.of(x)

    @pytest.mark.parametrize("x,twice", [(np.float32(1.5), 3), (np.int64(-2), -4),
                                         (np.array(2.5), 5)])
    def test_of_accepts_numpy_scalars(self, x, twice):
        assert HalfInt.of(x) == HalfInt(twice)

    def test_validate_triple(self):
        validate_triple(HalfInt.of(1), HalfInt.of(0), HalfInt.of(-1))
        with pytest.raises(ValueError):
            validate_triple(HalfInt.of(1), HalfInt.of(0.5), HalfInt.of(0))  # parity
        with pytest.raises(ValueError):
            validate_triple(HalfInt.of(1), HalfInt.of(2), HalfInt.of(0))  # |M| > J
        with pytest.raises(ValueError):
            validate_triple(HalfInt.of(-1), HalfInt.of(0), HalfInt.of(0))

    def test_m_values_descending(self):
        ms = m_values(HalfInt.of(1.5))
        assert [float(m) for m in ms] == [1.5, 0.5, -0.5, -1.5]


class TestQNumber:
    def test_oracle_real(self):
        # (2^3 - 2^-3)/(2 - 1/2) = 7.875/1.5, exact in binary floats
        assert q_number(3, QParam.positive_real(2.0)) == 5.25

    def test_oracle_circle(self):
        p = QParam.unit_circle(math.pi / 7)
        want = math.sin(3 * math.pi / 7) / math.sin(math.pi / 7)
        assert q_number(3, p) == pytest.approx(want, rel=1e-15)

    def test_classical_is_identity(self):
        assert q_number(2.5, QParam.classical()) == 2.5

    @pytest.mark.parametrize("q", [1e200, 1e-200])
    def test_float_overflow_is_a_value_error_naming_q(self, q):
        p = QParam.positive_real(q)
        with pytest.raises(ValueError, match=r"overflows at q = 1e[+-]200"):
            q_number(3, p)
        with pytest.raises(ValueError, match=r"overflows at q = 1e[+-]200"):
            p.power(3 if q > 1 else -3)

    def test_circle_result_is_float(self):
        # computed as a sine ratio, not via complex division
        v = q_number(1.5, QParam.unit_circle(0.4))
        assert isinstance(v, float)

    @given(st.floats(-20, 20), st.sampled_from([0.3, 0.5, 2.0, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_inversion_and_oddness(self, x, q):
        p = QParam.positive_real(q)
        pi_ = p.inverse()
        assert abs(q_number(x, p) - q_number(x, pi_)) < SYM_TOL * max(1, abs(q_number(x, p)))
        assert abs(q_number(-x, p) + q_number(x, p)) < SYM_TOL * max(1, abs(q_number(x, p)))

    def test_classical_limit_shrinks(self):
        # [x]_q - x is even in ln q, so the deviation drops quadratically in
        # (q - 1); assert at least linear shrink to stay agnostic about order
        x = 2.5
        d1 = abs(q_number(x, QParam.positive_real(1 + 1e-3)) - x)
        d2 = abs(q_number(x, QParam.positive_real(1 + 1e-4)) - x)
        assert d2 < d1 / 8


class TestQFactorial:
    def test_oracles(self):
        p = QParam.positive_real(2.0)
        assert q_factorial(0, p) == 1.0
        assert q_factorial(3, p) == 13.125  # 1 * 2.5 * 5.25
        assert inv_q_factorial(2, p) == pytest.approx(0.4, rel=1e-15)
        assert inv_q_factorial(-1, p) == 0.0
        assert inv_q_factorial(-5, p) == 0.0

    def test_rejects_bad_n(self):
        p = QParam.positive_real(2.0)
        with pytest.raises(ValueError):
            q_factorial(-1, p)
        with pytest.raises(ValueError):
            q_factorial(1.5, p)

    @pytest.mark.parametrize("q", [0.5, 2.0, 1.7])
    def test_inverse_roundtrip(self, q):
        p = QParam.positive_real(q)
        for n in range(31):
            assert q_factorial(n, p) * inv_q_factorial(n, p) == pytest.approx(1.0, rel=1e-12)

    def test_classical_matches_factorial(self):
        p = QParam.classical()
        assert q_factorial(6, p) == float(math.factorial(6))

    @pytest.mark.parametrize("n,p,where", [
        (1000, QParam.positive_real(1.2), "q = 1.2"),    # inf from k = 83
        (171, QParam.classical(), "q = 1.0"),            # 171! > 1.8e308
        (2000, QParam.unit_circle(0.2), "tau = 0.2"),    # inf from k = 765
        (3000, QParam.unit_circle(1.5), "tau = 1.5"),    # 0 from k = 1085
        # subnormal from k = 1026; at n = 1084 it reads 5e-324 for 2.93e-324
        (1084, QParam.unit_circle(1.5), "tau = 1.5"),
    ], ids=["real", "classical", "circle-overflow", "circle-underflow", "circle-subnormal"])
    def test_leaving_the_float_range_raises(self, n, p, where):
        with pytest.raises(ValueError, match=rf"\[{n}\]! leaves the float range at {where}$"):
            q_factorial(n, p)
        with pytest.raises(ValueError, match="float range"):  # not a ZeroDivisionError
            inv_q_factorial(n, p)

    def test_largest_classical_factorial_is_finite(self):
        assert q_factorial(170, QParam.classical()) == pytest.approx(float(math.factorial(170)))


class TestDegeneracyScreen:
    def test_real_q_always_passes(self):
        assert check_not_root_of_unity(QParam.positive_real(0.5), 50) is None

    def test_circle_detects_vanishing_q_number(self):
        p = QParam.unit_circle(math.pi / 4)  # [4]_q = sin(pi)/sin(pi/4) = 0
        assert check_not_root_of_unity(p, 3) is None
        with pytest.raises(ValueError, match=r"\[4\]_q"):
            check_not_root_of_unity(p, 4)

    def test_requires_positive_n_max(self):
        with pytest.raises(ValueError):
            check_not_root_of_unity(QParam.classical(), 0)
