"""Exact half-integer bookkeeping and q-deformed arithmetic.

The deformation parameter lives in one of three regimes: positive real
q != 1, generic unit-circle q = exp(i*tau), or the classical point q = 1
(handled by analytic limits, never by a small-epsilon stand-in).  All
q-numbers here are real for real arguments in every regime; the circle
regime evaluates [x] = sin(x*tau)/sin(tau) directly so realness is exact
by construction.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

EPS_DEGENERACY = 1e-12


class Regime(Enum):
    POSITIVE_REAL = "PositiveReal"
    UNIT_CIRCLE = "UnitCircle"
    CLASSICAL = "Classical"


@dataclass(frozen=True)
class QParam:
    """Deformation parameter: regime plus its defining real number.

    value holds q for POSITIVE_REAL, tau for UNIT_CIRCLE, and is unused
    (1.0) for CLASSICAL.
    """

    regime: Regime
    value: float

    @staticmethod
    def positive_real(q: float) -> "QParam":
        if not (q > 0 and math.isfinite(q)) or q == 1.0:
            raise ValueError(f"positive-real regime needs finite q > 0, q != 1, got {q}")
        return QParam(Regime.POSITIVE_REAL, float(q))

    @staticmethod
    def unit_circle(tau: float) -> "QParam":
        if not (-math.pi < tau < math.pi) or tau == 0.0:
            raise ValueError(f"unit-circle regime needs tau in (-pi,0)u(0,pi), got {tau}")
        return QParam(Regime.UNIT_CIRCLE, float(tau))

    @staticmethod
    def classical() -> "QParam":
        return QParam(Regime.CLASSICAL, 1.0)

    @staticmethod
    def from_q(q: float) -> "QParam":
        """q = 1 selects the classical regime, any other positive q the real one."""
        return QParam.classical() if q == 1.0 else QParam.positive_real(q)

    def complex_value(self) -> complex:
        if self.regime is Regime.UNIT_CIRCLE:
            return complex(math.cos(self.value), math.sin(self.value))
        return complex(self.value if self.regime is Regime.POSITIVE_REAL else 1.0)

    def inverse(self) -> "QParam":
        """The parameter with q replaced by 1/q (tau by -tau)."""
        if self.regime is Regime.POSITIVE_REAL:
            return QParam(Regime.POSITIVE_REAL, 1.0 / self.value)
        if self.regime is Regime.UNIT_CIRCLE:
            return QParam(Regime.UNIT_CIRCLE, -self.value)
        return self

    def power(self, x: float) -> complex:
        """q**x with real exponent: exp(x ln q) or exp(i x tau)."""
        if self.regime is Regime.POSITIVE_REAL:
            try:
                return complex(self.value ** x)
            except OverflowError:
                raise ValueError(f"q**{x:g} overflows at q = {self.value!r}") from None
        if self.regime is Regime.UNIT_CIRCLE:
            t = x * self.value
            return complex(math.cos(t), math.sin(t))
        return complex(1.0)

    def describe(self) -> dict:
        return {"regime": self.regime.value, "value": self.value}


@dataclass(frozen=True, order=True)
class HalfInt:
    """An exact half-integer, stored as twice its value."""

    twice: int

    @staticmethod
    def of(x: Union["HalfInt", int, float]) -> "HalfInt":
        """x as a HalfInt; anything that is not a finite real half-integer
        (an infinity or nan of any float type, a str, a complex, None, a
        list) raises ValueError."""
        if isinstance(x, HalfInt):
            return x
        try:
            doubled = 2 * x
            twice = round(doubled)  # rejects non-numbers and non-finite floats
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{x!r} is not a finite half-integer") from None
        if doubled != twice:
            raise ValueError(f"{x} is not a half-integer")
        return HalfInt(int(twice))

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __float__(self):
        return self.twice / 2.0

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def to_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __str__(self):
        return str(self.twice // 2) if self.is_integer() else f"{self.twice}/2"


def validate_triple(J: HalfInt, M: HalfInt, N: HalfInt) -> None:
    """Irrep triple: same integrality class, |M| <= J, |N| <= J, J >= 0."""
    J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
    if J.twice < 0:
        raise ValueError(f"J = {J} must be >= 0")
    if (J.twice - M.twice) % 2 or (J.twice - N.twice) % 2:
        raise ValueError(f"(J,M,N) = ({J},{M},{N}) must be integers or half-integers together")
    if abs(M.twice) > J.twice or abs(N.twice) > J.twice:
        raise ValueError(f"need |M| <= J and |N| <= J, got (J,M,N) = ({J},{M},{N})")


def m_values(J: HalfInt) -> list:
    """Weight labels M = J, J-1, ..., -J in descending order."""
    J = HalfInt.of(J)
    return [HalfInt(J.twice - 2 * k) for k in range(J.twice + 1)]


def j_values(N, j_max) -> list:
    """Tower labels J = |N|, |N|+1, ..., up to j_max in ascending order."""
    N, j_max = HalfInt.of(N), HalfInt.of(j_max)
    return [HalfInt(t) for t in range(abs(N.twice), j_max.twice + 1, 2)]


def q_number(x: float, p: QParam) -> float:
    """[x] = (q^x - q^-x)/(q - q^-1); sin(x tau)/sin(tau) on the circle; x classically."""
    x = float(x)
    if p.regime is Regime.CLASSICAL:
        return float(x)
    if p.regime is Regime.UNIT_CIRCLE:
        return math.sin(x * p.value) / math.sin(p.value)
    q = p.value
    try:
        return (q ** x - q ** (-x)) / (q - 1.0 / q)
    except OverflowError:
        raise ValueError(f"q-number [{x:g}] overflows at q = {q!r}") from None


def _q_factorials(n_max: int, p: QParam) -> list:
    """[0]!, [1]!, ..., [n_max]! from one running product [2][3]...; the
    list ends early, before the first product that leaves the normal float
    range, so [n]! is in range exactly when n is below its length."""
    table = [1.0, 1.0][:max(0, n_max + 1)]
    out = 1.0
    for k in range(2, n_max + 1):
        out *= q_number(k, p)
        if not sys.float_info.min <= abs(out) < math.inf:
            break
        table.append(out)
    return table


def _factorial(table: list, n: int, p: QParam) -> float:
    """[n]! read from a _q_factorials table at p; an n past its end raises."""
    if n >= len(table):
        name = "tau" if p.regime is Regime.UNIT_CIRCLE else "q"
        raise ValueError(f"q-factorial [{n}]! leaves the float range at {name} = {p.value!r}")
    return table[n]


def q_factorial(n: int, p: QParam) -> float:
    """[n]! = [n][n-1]...[1], with [0]! = 1.  Rejects n < 0, and a running
    product that overflows to inf or falls below the smallest normal float
    (a subnormal keeps too few bits, and 0 would make 1/[n]! infinite)."""
    if n != int(n):
        raise ValueError(f"q_factorial needs an integer, got {n}")
    n = int(n)
    if n < 0:
        raise ValueError("q_factorial undefined for n < 0")
    return _factorial(_q_factorials(n, p), n, p)


def check_not_root_of_unity(p: QParam, n_max: int) -> None:
    """Raise ValueError naming the first n in 1..n_max with |[n]| <= EPS_DEGENERACY;
    only the circle regime can fail."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if p.regime is not Regime.UNIT_CIRCLE:
        return
    for n in range(1, n_max + 1):
        if abs(q_number(n, p)) <= EPS_DEGENERACY:
            raise ValueError(f"degenerate parameter: [{n}]_q vanishes")
