"""Exact half-integer bookkeeping and q-deformed arithmetic.

The deformation parameter lives in one of three regimes: positive real
q != 1, generic unit-circle q = exp(i*tau), or the classical point q = 1
(handled by analytic limits, never by a small-epsilon stand-in).  All
q-numbers here are real for real arguments in every regime; the circle
regime evaluates [x] = sin(x*tau)/sin(tau) directly so realness is exact
by construction.

The scalar q-arithmetic of the special functions at fixed labels lives
here too, apart from their arguments: the circle's sector rule and its
scalar product's bound, columns of powers of q, the normalization
constant of psi, and the start and step constants of R's three-term
recurrence in J.  qspecial applies them to eta.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

EPS_DEGENERACY = 1e-12
# the most factors of one point's infinite product (qspecial), which also caps
# the lists sized by J: Q's finite factors and R's recurrence steps
PRODUCT_MAX_FACTORS = 100_000


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


def validate_tower(J: HalfInt, N: HalfInt) -> None:
    """Tower labels, as HalfInt: J >= 0, J and N of one integrality class,
    |N| <= J; the errors name only J and N."""
    if J.twice < 0:
        raise ValueError(f"J = {J} must be >= 0")
    if (J.twice - N.twice) % 2:
        raise ValueError(f"(J,N) = ({J},{N}) must be integers or half-integers together")
    if abs(N.twice) > J.twice:
        raise ValueError(f"need |N| <= J, got (J,N) = ({J},{N})")


def validate_triple(J, M, N) -> tuple:
    """The irrep triple as HalfInt, made in the order J, M, N and returned:
    the tower (J, N) of validate_tower, then M of J's class with |M| <= J."""
    J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
    validate_tower(J, N)
    if (J.twice - M.twice) % 2:
        raise ValueError(f"(J,M,N) = ({J},{M},{N}) must be integers or half-integers together")
    if abs(M.twice) > J.twice:
        raise ValueError(f"need |M| <= J, got (J,M,N) = ({J},{M},{N})")
    return J, M, N


def m_values(J: HalfInt) -> list:
    """Weight labels M = J, J-1, ..., -J in descending order."""
    J = HalfInt.of(J)
    return [HalfInt(J.twice - 2 * k) for k in range(J.twice + 1)]


def j_values(N, j_max, p: QParam) -> list:
    """Tower labels J = |N|, |N|+1, ..., up to j_max in ascending order, of a
    tower for the scalar product: refused by check_form_tower at p before a
    label past the first it refuses is made."""
    N, j_max = HalfInt.of(N), HalfInt.of(j_max)
    twice = range(abs(N.twice), j_max.twice + 1, 2)
    check_form_tower(N, map(HalfInt, twice), p)
    return list(map(HalfInt, twice))


def check_tower(N: HalfInt, J_list, p: QParam) -> None:
    """Refuse the first J of J_list past psi's reach, naming p: J against N, then
    the sector and [2J+1]!, which read no M and refuse some J <= 102 at any q."""
    for J in J_list:
        validate_tower(J, N)
        _check_sector(J, p)
        q_factorial(J.twice + 1, p)


def check_form_tower(N: HalfInt, J_list, p: QParam) -> None:
    """check_tower's rules for each J of J_list, then the scalar product's
    bound on the circle (_check_form), J by J, so the first J that either
    refuses is the one named."""
    for J in J_list:
        check_tower(N, (J,), p)
        _check_form(J, p)


def q_number(x: float, p: QParam) -> float:
    """[x] = (q^x - q^-x)/(q - q^-1); sin(x tau)/sin(tau) on the circle; x classically."""
    x = float(x)
    if p.regime is Regime.CLASSICAL:
        return float(x)
    if p.regime is Regime.UNIT_CIRCLE:
        return math.sin(x * p.value) / math.sin(p.value)
    q = p.value
    try:  # near q = 1 the quotient can overflow where the powers do not
        out = (q ** x - q ** (-x)) / (q - 1.0 / q)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"q-number [{x:g}] overflows at q = {q!r}")
    return out


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
        raise ValueError(f"q-factorial [{n}]! leaves the float range at {_named(p)}")
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


def _named(p: QParam) -> str:
    """p as the errors name it: q = value, or tau = value on the circle."""
    return f"{'tau' if p.regime is Regime.UNIT_CIRCLE else 'q'} = {p.value!r}"


def _check_sector(J: HalfInt, p: QParam):
    """Refuse a circle q outside (2J+1)|tau| < pi, where Q_J fails its
    equation and the q-numbers [n], n <= 2J+1, are no longer all positive;
    any other q passes."""
    if p.regime is Regime.UNIT_CIRCLE and (J.twice + 1) * abs(p.value) >= math.pi:
        raise ValueError(f"J={J} on the circle needs (2J+1)|tau| < pi, "
                         f"got tau={p.value!r}")


def _check_form(J: HalfInt, p: QParam):
    """Refuse a circle q outside (2J+2)|tau| < pi, where the scalar product
    of a tower up to J no longer holds; any other q passes.  The bound is
    measured and derived, not taken from the paper: Q_J's last finite
    factor 1 + q^(-2J) eta has its pole on the ray at angle -(pi - 2J tau),
    the form reads the ket at eta = q^(-+2) rho^2, on the rays at angle
    -+2 tau, and the two meet at (2J+2)|tau| = pi.  Past it the radial
    integral crosses the pole's ray and no longer continues the form."""
    if p.regime is Regime.UNIT_CIRCLE and (J.twice + 2) * abs(p.value) >= math.pi:
        raise ValueError(f"the scalar product on the circle needs (2J+2)|tau| < pi, "
                         f"got J={J}, tau={p.value!r}")


def _check_cap(count: int, what: str, *args) -> None:
    """Refuse what.format(*args), a list of count entries, past
    PRODUCT_MAX_FACTORS before it is built; only a refusal formats it."""
    if count > PRODUCT_MAX_FACTORS:
        raise ValueError(f"{what.format(*args)}, past the cap of {PRODUCT_MAX_FACTORS}")


@functools.lru_cache(maxsize=1024)
def _powers(J0: HalfInt, J: HalfInt, p: QParam, sign: int, offset: int):
    """The read-only column of q^(2 sign j + offset), j = J0 .. J-1."""
    column = np.array([p.power(sign * t + offset) for t in range(J0.twice, J.twice, 2)])
    column.flags.writeable = False  # the cache hands it to every caller
    return column.reshape(-1, 1)


def _norm_constant(J: HalfInt, M: HalfInt, N: HalfInt, p: QParam, fact: list) -> float:
    """norm_constant of a valid triple, its factorials read from fact, a
    _q_factorials table at p."""
    twoj = J.twice
    rad1 = (_factorial(fact, (J + N).to_int(), p) * _factorial(fact, twoj + 1, p)
            / _factorial(fact, (J - N).to_int(), p))
    rad2 = (_factorial(fact, (J + M).to_int(), p)
            / (_factorial(fact, (J - M).to_int(), p) * _factorial(fact, twoj, p)))
    if rad1 < 0 or rad2 < 0:
        raise ValueError(
            f"negative radicand in norm_constant for (J,M,N)=({J},{M},{N}); "
            "the circle parameter is outside the positivity domain tau < pi/(2J+1)")
    return math.sqrt(rad1) * math.sqrt(rad2) / math.sqrt(2.0 * math.pi)


def _r_steps(J: HalfInt, M: HalfInt, N: HalfInt, p: QParam, fact: list):
    """(J0, k0, c, steps): R = c (-eta)^k0 at J0 = max(|M|, |N|), R = 0 at
    J0 - 1, k0 = max(0, -(M+N)), and for j = J0 .. J-1 the recurrence of a
    terminating 2phi1 (Gasper & Rahman, Basic Hypergeometric Series, ch. 2)

        R_(j+1) = (a_j + b_j eta) R_j + (1 - a_j)(1 + q^(2j) eta)(1 + q^(-2j) eta) R_(j-1),
        a_j = [2j+1] ([j+1] {M+N} + t_j) / ([j+1+M][j+1+N] {j}),
        b_j = -[2j+1] ([j+1] {M-N} - t_j) / ([j+1+M][j+1+N] {j}),
        1 - a_j = -{j+1}[j+1][j-M][j-N] / ({j}[j][j+1+M][j+1+N]),

    {x} = q^x + q^-x, t_j = [2][M][N]/[j] (0 if MN = 0), denominators > 0
    in the circle's sector (2J+1)|tau| < pi; steps holds a, b and 1 - a as
    (J - J0, 1) columns.  1 - a_j is taken as that product, of ratios near
    1 each, not as 1.0 - a_j, which loses its digits where a_j is near 1 (at
    large |ln q|); it is 0 at j = M or N, and at j = 0, where it is 0/0 and
    multiplies R_(-1) = 0.  c is 1/[M+N]!, read from fact (a _q_factorials table at p),
    or for M+N < 0 [2 J0]!/[J0 + max(M, N)]!, k0 q-numbers; a c out of the
    normal range is refused, as are more than PRODUCT_MAX_FACTORS steps or
    start factors (past the cap the factors, each at least 1 and most at
    least 2, leave the float range)."""
    J0 = HalfInt(max(abs(M.twice), abs(N.twice)))
    count = (J.twice - J0.twice) // 2
    _check_cap(count, "R for (J,M,N)=({},{},{}) needs {} recurrence steps", J, M, N, count)
    mn = (M + N).to_int()
    k0 = max(0, -mn)
    _check_cap(k0, "R for (J,M,N)=({},{},{}) needs {} start factors", J, M, N, k0)
    c = (1.0 / _factorial(fact, mn, p) if mn >= 0 else
         math.prod(q_number(J0.twice - k0 + i, p) for i in range(1, k0 + 1)))
    if not sys.float_info.min <= abs(c) < math.inf:
        raise ValueError(f"R for (J,M,N)=({J},{M},{N}) leaves the float range at {_named(p)}")
    mf, nf = float(M), float(N)
    bsum, bdiff = ((p.power(x) + p.power(-x)).real for x in (mf + nf, mf - nf))
    cross = q_number(2, p) * q_number(mf, p) * q_number(nf, p) if M.twice and N.twice else 0.0
    a, b, rest = [], [], []
    for t in range(J0.twice, J.twice, 2):
        j = t / 2.0
        q_j, q_j1 = q_number(j, p), q_number(j + 1, p)
        t_j = cross / q_j if cross else 0.0
        brace = (p.power(j) + p.power(-j)).real
        up_m, up_n = q_number(j + 1 + mf, p), q_number(j + 1 + nf, p)
        w = q_number(t + 1, p) / (up_m * up_n * brace)
        a.append(w * (q_j1 * bsum + t_j))
        b.append(-w * (q_j1 * bdiff - t_j))
        rest.append(-((p.power(j + 1) + p.power(-j - 1)).real / brace) * (q_j1 / q_j)
                    * (q_number(j - mf, p) / up_m) * (q_number(j - nf, p) / up_n) if t else 0.0)
    # a copy, not a view: one array object per record in psi's cache, which
    # hands it to every caller read-only
    steps = np.array([a, b, rest]).reshape(3, -1, 1).copy()
    steps.flags.writeable = False
    return J0, k0, c, steps
