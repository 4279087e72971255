"""The q-special-function family for the plane realization.

Everything here revolves around the radial profile Q_J(eta), defined by the
q-difference equation

    Q(q^2 eta) (1 + eta) = Q(eta) (1 + q^(-2J) eta),

built from one transcendental per regime, Q_{1/2}: a convergent infinite
product at positive real q, the exponential of an integral kernel L at
unit-circle q.  Half-integer J divides Q_{1/2} by the factors
(1 + q^(2k-2J) eta), k < J - 1/2, whose product is Q for integer J: this
telescopes from the product at real q, and follows from
L(q eta) - L(q^-1 eta) = Log(1 + eta) on the circle (Faddeev & Kashaev,
hep-th/9310070).  On top of Q sit the terminating R polynomials, whose
coefficients follow from one another by term ratios and whose one Horner
sum serves both R and psi, the normalization constants, and the basis
functions psi = (norm) Q_J(uv) R(uv) v^(M+N) on the plane.  The q-Vilenkin
functions on (-1, 1) are psi on the diagonal u = v, rescaled.

eta is accepted as complex everywhere: q-dilated arguments in the circle
regime rotate eta off the positive axis, and the functional-equation residual
is the referee certifying those evaluations.  All evaluators broadcast over
numpy arrays.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings

import numpy as np

from .qcore import (
    HalfInt,
    QParam,
    Regime,
    _factorial,
    _q_factorials,
    q_number,
    validate_triple,
)

L_ABS_TOL = 1e-12
# l_function gives up after this many rounds of panel bisection (a singularity
# 1e-9 off the contour needs about 30) or on a round of more panels (tiny
# |tau|, where rounding keeps every panel above its share of L_ABS_TOL)
L_MAX_ROUNDS = 16
L_MAX_PANELS = 256
PRODUCT_FACTOR_TOL = 1e-18
PRODUCT_TAIL_TOL = 1e-14
PRODUCT_MAX_FACTORS = 100_000
POLE_TOL = 1e-300            # a product factor this small is a pole of Q
# entries per block of the infinite product (factors x points) and of each L
# quadrature round (points x panels x 21 nodes); keeps the temporaries in cache
BLOCK_ELEMENTS = 2**12
BRANCH_CUT_MARGIN = 1e-6
# The byte bound of each exact-input memo.  Over ten batches of each
# benchmark workload (verify --suite all on the circle and at real q, gram
# and eval on the circle) one operation stores at most 0.095 MB of Q_{1/2}
# (0.067 MB on the circle), so nothing is evicted; an unbounded psi memo
# holds up to 1.07 MiB (real q) and 0.97 MiB (circle), and what the bound
# evicts there is not asked for again
MEMO_MAX_BYTES = 2**20


# The 10-point Gauss / 21-point Kronrod pair on [-1, 1], as published with
# QUADPACK (qk21): the nonnegative Kronrod nodes in descending order, their
# Kronrod weights, and the Gauss weights of the nodes at odd positions.
_GK21_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_GK21_KRONROD = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980616370, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_GK21_GAUSS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)


def _gauss_kronrod_21():
    """The 21 nodes in ascending order and a (21, 2) weight matrix whose
    columns give the Kronrod sum and the Kronrod minus the Gauss sum."""
    half = np.array(_GK21_NODES)
    nodes = np.concatenate((-half, half[-2::-1]))
    kronrod = np.concatenate((_GK21_KRONROD, _GK21_KRONROD[-2::-1]))
    gauss = np.zeros(21)
    gauss[1:10:2] = _GK21_GAUSS
    gauss[11:20:2] = _GK21_GAUSS[::-1]
    return nodes, np.stack((kronrod, kronrod - gauss), axis=1)


GK21_NODES, GK21_WEIGHTS = _gauss_kronrod_21()


class _ExactMemo:
    """Results of one evaluator keyed on its exact input, oldest first.

    A key is (the evaluator's parameters, the shapes of its array
    arguments, their complex bytes), the bytes last, so p and p.inverse(),
    or a (1,)- and a (1, 1)-shaped eta, never share an entry.  A scalar
    reaches the evaluators as shape (1,) (see _as_complex), so it shares
    the entry of [x], whose bits it has.  Every call returns a fresh copy,
    so callers may mutate it.  A result whose evaluation raised or emitted
    the branch-cut warning of l_function is never stored, even where the
    caller silenced the warning, so the warning and the errors recur on
    every call.  The stored keys and values stay under max_bytes, evicting
    the oldest entry first; a larger result is not stored at all.
    """

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self.entries: dict = {}
        self.nbytes = 0

    def lookup(self, key, compute):
        """The value for key; on a miss, the value compute() returns."""
        val = self.entries.get(key)
        if val is None:
            warnings_before = _branch_cut_warnings
            val = compute()
            if _branch_cut_warnings == warnings_before:
                self._store(key, val)
        return val.copy()

    def _store(self, key, val):
        size = len(key[-1]) + val.nbytes
        if size > self.max_bytes:
            return
        while self.nbytes + size > self.max_bytes:
            oldest = next(iter(self.entries))
            self.nbytes -= len(oldest[-1]) + self.entries.pop(oldest).nbytes
        self.entries[key] = val
        self.nbytes += size


_q_half_memo = _ExactMemo(MEMO_MAX_BYTES)
_psi_memo = _ExactMemo(MEMO_MAX_BYTES)
# branch-cut warnings _l_quadrature has emitted: a memo stores no result whose
# evaluation moved it, though l_function's caller may have silenced the warning
_branch_cut_warnings = 0


def _as_complex(x):
    """x as a complex array and whether x is a scalar.  A scalar comes back
    with shape (1,), so that x and [x] take the same array arithmetic and
    give the same bits: numpy's complex arithmetic rounds differently on
    0-d operands."""
    arr = np.asarray(x, dtype=complex)
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on small arrays
        raise ValueError("arguments must be finite")
    return (arr.reshape(1), True) if arr.ndim == 0 else (arr, False)


def _ret(arr, scalar):
    return arr.item() if scalar else arr


def _r_coefficients(J: HalfInt, M: HalfInt, N: HalfInt, p: QParam, fact: list):
    """(k0, (c_k0, ..., c_kmax)) of R, c_k = [J-N]![J-M]!/([k]![J-M-k]![J-N-k]![M+N+k]!).

    The range k0 = max(0, -(M+N)) .. kmax = min(J-M, J-N) is exactly where
    no factorial in c_k is of a negative number.  c_k0 is 1/[M+N]! for
    M+N >= 0, else prod_{i=1..k0} [J+M+i][J+N+i]/[i]; each next coefficient
    follows from c_{k+1}/c_k = [J-M-k][J-N-k]/([k+1][M+N+k+1]), so a set
    takes O(J) q-numbers.  Rejected: a lead [J-N]![J-M]! that overflows,
    though each factorial is finite, and a [M+N+kmax]! out of the float
    range, where the last coefficients underflow.  The factorials are read
    from fact, a _q_factorials table at p.
    """
    jm, jn, mn = (J - M).to_int(), (J - N).to_int(), (M + N).to_int()
    if not math.isfinite(_factorial(fact, jn, p) * _factorial(fact, jm, p)):
        raise ValueError(f"R coefficients for (J,M,N)=({J},{M},{N}) leave the float range "
                         f"at {_named(p)}")
    k0, kmax = max(0, -mn), min(jm, jn)
    _factorial(fact, mn + kmax, p)
    c = (1.0 / _factorial(fact, mn, p) if mn >= 0 else
         math.prod(q_number(float(J + M + i), p) * q_number(float(J + N + i), p)
                   / q_number(i, p) for i in range(1, k0 + 1)))
    coeffs = [c]
    for k in range(k0, kmax):
        c *= (q_number(jm - k, p) * q_number(jn - k, p)
              / (q_number(k + 1, p) * q_number(mn + k + 1, p)))
        coeffs.append(c)
    return k0, tuple(coeffs)


def _horner(coeffs, x):
    """sum_j coeffs[j] x^j by Horner's rule, on the complex array x."""
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def r_polynomial(J, M, N, p: QParam, eta):
    """Terminating k-sum R(eta) = sum_k c_k (-eta)^k (see _r_coefficients),
    evaluated as (-eta)^k0 P(-eta) with P the Horner sum of the c_k; a value
    out of the float range is refused."""
    J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
    validate_triple(J, M, N)
    arr, scalar = _as_complex(eta)
    k0, coeffs = _r_coefficients(J, M, N, p, _q_factorials(J.twice, p))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        out = (-arr) ** k0 * _horner(coeffs, -arr)
    if not np.all(np.isfinite(out)):
        _point_error(f"R for (J,M,N)=({J},{M},{N}) leaves the float range", arr,
                     ~np.isfinite(out), p)
    return _ret(out, scalar)


def q_finite_product(J, p: QParam, eta):
    """Q for integer J: product of J reciprocal linear factors (1 for J = 0),
    which is q_function at integer J >= 0."""
    J = HalfInt.of(J)
    if not J.is_integer() or J.twice < 0:
        raise ValueError(f"finite product needs integer J >= 0, got {J}")
    return q_function(J, p, eta)


def _divide_factors(J: HalfInt, p: QParam, arr, out, inv=None):
    """out / prod_{k < floor(J)} (1 + q^(2k-2J) eta), for J >= 0: the
    J-dependence of Q, applied to Q_0 = 1 or to Q_{1/2}.  Given inv = 1/eta,
    each factor is divided by eta first, inv + q^(2k-2J), so the result is
    out eta^floor(J) / prod (1 + q^(2k-2J) eta)."""
    for k in range(J.twice // 2):
        power = p.power(2 * k - J.twice)
        factor = 1.0 + arr * power if inv is None else inv + power
        if np.any(np.abs(factor) < POLE_TOL):
            raise ValueError(f"finite-product pole: factor k={k} vanishes")
        out = out / factor
    return out


def q_infinite_product(J, p: QParam, eta):
    """Q for positive real q via the convergent product branch for q<1 or q>1.

    Truncation: stop at the first factor k with max |factor - 1| < 1e-18 over
    the points and the geometric tail bound (ratio q^2 or q^-2) below 1e-14;
    hard cap 1e5 factors.  The rule is evaluated in blocks of factors, each a
    (factors x points) array of at most BLOCK_ELEMENTS entries with
    one pole test and one convergence test.  The first block reaches the
    factor where |eta| q^(2k), shifted by 2J, falls below 2^-60; later blocks
    take the cap.  The factors up to the stop are multiplied in order, so the
    result is bit for bit the factor-by-factor product.  An empty eta gives
    an empty result of its shape.  An eta so large that factor 0 overflows
    is rejected.
    """
    J = HalfInt.of(J)
    if p.regime is not Regime.POSITIVE_REAL:
        raise ValueError("infinite product is defined for the positive-real regime only")
    arr, scalar = _as_complex(eta)
    return _ret(_infinite_product(J, p.value, arr), scalar)


def _multipliers(q, Jf, ks):
    """The multipliers of eta in the numerators and denominators of factors ks.

    Python's ** in the per-factor expressions: numpy's power may round
    differently.  A power that overflows a float is rejected.
    """
    try:
        if q < 1.0:
            return [q ** (2 * k) for k in ks], [q ** (-2 * Jf + 2 * k) for k in ks]
        return [q ** (-2 * Jf - 2 * k - 2) for k in ks], [q ** (-2 * k - 2) for k in ks]
    except OverflowError:
        raise ValueError(f"infinite-product multiplier overflows at q = {q!r}") from None


def _infinite_product(J, q, arr):
    """The product of q_infinite_product on eta's complex array."""
    Jf = float(J)
    out = np.ones_like(arr)
    if arr.size == 0:
        return out
    flat = arr.reshape(-1)
    ratio = q * q if q < 1.0 else q ** -2
    log_q = abs(math.log(q))
    amax = float(np.max(np.abs(flat)))
    a, b = _multipliers(q, Jf, range(1))
    if not math.isfinite(amax * max(a[0], b[0])):  # it would return 0 or nan and only warn
        raise ValueError(f"infinite-product factor k=0 overflows at |eta| = {amax:g}")
    k_est = (math.log(amax) + 42.0 + 2.0 * abs(Jf) * log_q) / (2.0 * log_q) if amax else 0.0
    cap = max(1, BLOCK_ELEMENTS // flat.size)
    rows = min(cap, max(1, math.ceil(k_est) + 1))
    start = 0
    while start < PRODUCT_MAX_FACTORS:
        ks = range(start, min(start + rows, PRODUCT_MAX_FACTORS))
        a, b = _multipliers(q, Jf, ks)
        num = 1.0 + flat * np.array(a)[:, None]
        den = 1.0 + flat * np.array(b)[:, None]
        poles = np.any(np.abs(den) < POLE_TOL, axis=1)
        n_ok = int(np.argmax(poles)) if poles.any() else len(ks)  # divide only before a pole
        factor = num[:n_ok] / den[:n_ok]
        gap = np.max(np.abs(factor - 1.0), axis=1)
        done = (gap < PRODUCT_FACTOR_TOL) & (gap * ratio / (1.0 - ratio) < PRODUCT_TAIL_TOL)
        converged = bool(done.any())
        stop = int(np.argmax(done)) + 1 if converged else n_ok
        # out of place and in eta's shape, as numpy's complex multiply rounds
        # differently in place and on scalars
        for row in factor[:stop].reshape((stop,) + arr.shape):
            out = out * row
        if converged:
            return out
        if n_ok < len(ks):
            raise ValueError(f"infinite-product pole in factor k={start + n_ok}")
        start += len(ks)
        rows = cap
    raise RuntimeError("infinite product did not converge within the factor cap")


def _low_breaks(alpha, u_max):
    """Panel breaks on (0, u_max): fixed ones up to 40, past which
    1/(1 + e^(-u)) is 1 to within 5e-18, then steps of max(10, 5/alpha),
    over which only the Log varies."""
    pts = [b for b in (0.0, 2.0, 5.0, 10.0, 20.0, 40.0) if b < u_max]
    step = max(10.0, 5.0 / alpha)
    x = pts[-1]
    while x < u_max:
        x = min(x + step, u_max)
        pts.append(x)
    return pts


def l_function(p: QParam, eta):
    """Integral kernel L(eta) for unit-circle q = exp(i tau).

    Parameters
    ----------
    p : QParam
        Must be in the unit-circle regime, tau in (-pi, 0) u (0, pi).
    eta : complex scalar or array
        Argument; complex values off the negative real axis are accepted,
        and a value on it is refused with a ValueError.

    Notes
    -----
    The defining contour integral runs over t in (0, inf) with integrand
    Log(1 + eta t^(tau/pi)) / (t (1 + t)) (sign and exponent flip for
    negative tau).  Substituting t = exp(-v) gives the integrand
    Log(1 + eta e^(-alpha v)) / (1 + e^(-v)), alpha = |tau|/pi, on the real
    line: analytic, with exponentially decaying tails, where the raw integral
    keeps an algebraic t^(alpha - 1) endpoint singularity.  The line is cut
    into fixed panels, each integrated by a 10-point Gauss / 21-point Kronrod
    pair (GK21_NODES, GK21_WEIGHTS), with |K21 - G10| maximized over the
    points as the panel's error.  The K21 sums are returned once the panel
    errors add up to less than L_ABS_TOL.  Otherwise the panels within an
    equal share of the tolerance left are kept and the others bisected, for
    at most L_MAX_ROUNDS rounds of at most L_MAX_PANELS panels, past which
    it raises RuntimeError.  A round evaluates and sums the points in blocks
    of at most BLOCK_ELEMENTS (points x panels x 21) entries; the panels are
    kept or bisected on the error maximized over all the points, so the
    result is bit for bit that of one block.
    """
    if p.regime is not Regime.UNIT_CIRCLE:
        raise ValueError("l_function is defined for the unit-circle regime only")
    arr, scalar = _as_complex(eta)
    on_cut = (arr.imag == 0) & (arr.real < 0)  # 1 + eta t vanishes on the contour
    if np.any(on_cut):
        _point_error("l_function needs eta off the negative real axis", arr, on_cut, p)
    return _ret(_l_quadrature(p, arr), scalar)


def _l_quadrature(p: QParam, arr):
    """L on the complex array arr, in its shape."""
    global _branch_cut_warnings
    flat = arr.reshape(-1)
    tau = p.value
    alpha = abs(tau) / math.pi
    sigma = 1.0 if tau > 0 else -1.0
    amax = float(np.max(np.abs(flat))) if flat.size else 0.0
    if amax == 0.0:
        return np.zeros_like(arr)

    # t = exp(-v): 11 equal panels on (-u_high, 0) for t > 1, _low_breaks for t < 1
    u_low = max(30.0, (math.log(amax) + 40.0) / alpha)
    u_high = 55.0 + math.log1p(amax)
    breaks = np.concatenate((-np.linspace(0.0, u_high, 12)[:0:-1], _low_breaks(alpha, u_low)))
    lo, hi = breaks[:-1], breaks[1:]
    total = np.zeros(flat.shape, dtype=complex)
    error = 0.0
    warned = False
    for _ in range(L_MAX_ROUNDS):
        if lo.size > L_MAX_PANELS:
            break
        half = 0.5 * (hi - lo)[:, None]
        v = half * GK21_NODES + 0.5 * (lo + hi)[:, None]
        t = np.exp(-alpha * v)
        g = half / (1.0 + np.exp(-v))
        step = max(1, BLOCK_ELEMENTS // t.size)
        sums = np.empty((flat.size, lo.size, 2), dtype=complex)
        for i in range(0, flat.size, step):
            sums[i:i + step], max_phase = _l_panel_sums(flat[i:i + step], t, g)
            if not warned and math.pi - max_phase < BRANCH_CUT_MARGIN:
                _branch_cut_warnings += 1
                # frames: here, l_function, its caller
                warnings.warn("l_function integrand within 1e-6 of the Log branch cut",
                              RuntimeWarning, stacklevel=3)
                warned = True
        panel_error = np.max(np.abs(sums[..., 1]), axis=0) / (2.0 * math.pi)
        if error + float(np.sum(panel_error)) < L_ABS_TOL:
            total += np.sum(sums[..., 0], axis=1)
            return (sigma * total / (2j * math.pi)).reshape(arr.shape)
        ok = panel_error < (L_ABS_TOL - error) / panel_error.size
        total += np.sum(sums[:, ok, 0], axis=1)
        error += float(np.sum(panel_error[ok]))
        lo, hi = lo[~ok], hi[~ok]
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack((lo, mid), axis=1).reshape(-1), np.stack((mid, hi), axis=1).reshape(-1)
    raise RuntimeError("l_function quadrature did not converge")


def _l_panel_sums(points, t, g):
    """The K21 and K21 - G10 sums of the L integrand at each point on each
    panel, a (points, panels, 2) array, and the largest |arg(1 + eta t)|.
    t holds e^(-alpha v) and g the weight half / (1 + e^(-v)) at the
    (panels, 21) nodes."""
    re, im = points.real[:, None, None], points.imag[:, None, None]
    x, y = 1.0 + re * t, im * t           # 1 + eta e^(-alpha v): points x panels x 21
    phase = np.arctan2(y, x)
    max_phase = float(np.max(np.abs(phase)))
    log_abs = np.log(np.hypot(x, y, out=x), out=x)  # Log(1+z) = log|1+z| + i arg(1+z)
    log_abs *= g
    phase *= g
    return log_abs @ GK21_WEIGHTS + 1j * (phase @ GK21_WEIGHTS), max_phase


def q_integral_exp(J, p: QParam, eta):
    """Q on the circle: exp of L at two rotated arguments, any half-integer J;
    valid only for (2J+1)|tau| < pi, past which it fails the functional equation."""
    J = HalfInt.of(J)
    if p.regime is not Regime.UNIT_CIRCLE:
        raise ValueError("integral-exponential construction needs the unit-circle regime")
    _check_sector(J, p)
    arr, scalar = _as_complex(eta)
    shift = p.power(-(2.0 * float(J) + 1.0))
    la = l_function(p, shift * arr)
    lb = l_function(p, p.power(-1.0) * arr)
    return _ret(np.exp(np.asarray(la - lb, dtype=complex)), scalar)


def _check_sector(J: HalfInt, p: QParam):
    """Refuse a circle q outside (2J+1)|tau| < pi, where Q_J fails its
    equation and the q-numbers [n], n <= 2J+1, are no longer all positive."""
    if (J.twice + 1) * abs(p.value) >= math.pi:
        raise ValueError(f"J={J} on the circle needs (2J+1)|tau| < pi, "
                         f"got tau={p.value!r}")


def q_function(J, p: QParam, eta):
    """Q_J: (1+eta)^(-J) classically; else, for J >= 0, 1 divided by floor(J)
    linear factors for integer J, and for half-integer J the regime's Q_{1/2}
    divided by the same factors, which on the circle needs (2J+1)|tau| < pi.  Q_J has no zero, so
    a 0 has underflowed: it is refused, as is a value that is not finite."""
    J = HalfInt.of(J)
    arr, scalar = _as_complex(eta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        out = _q_values(J, p, arr)
    bad = ~np.isfinite(out) | (out == 0)
    if np.any(bad):
        _point_error(f"Q_J for J = {J} leaves the float range", arr, bad, p)
    return _ret(out, scalar)


def _q_values(J: HalfInt, p: QParam, arr):
    """q_function on eta's complex array, with nothing refused: psi takes the
    points where Q_J underflows to its far form."""
    if p.regime is Regime.CLASSICAL:
        return (1.0 + arr) ** (-float(J))
    if J.twice < 0:
        raise ValueError(f"Q needs J >= 0, got {J}")
    half = np.ones_like(arr) if J.is_integer() else _q_half(J, p, arr)
    return _divide_factors(J, p, arr, half)


def _q_half(J: HalfInt, p: QParam, arr):
    """The regime's Q_{1/2} on eta's complex array, for a half-integer J >= 1/2,
    which on the circle needs (2J+1)|tau| < pi.

    Results are memoized on (p, eta's shape, eta's complex bytes) under
    MEMO_MAX_BYTES; see _ExactMemo for the rules.  Every half-integer J
    shares the entry, so the sector of J is checked before the lookup.
    """
    if p.regime is Regime.POSITIVE_REAL:
        evaluate = q_infinite_product
    else:
        _check_sector(J, p)
        evaluate = q_integral_exp
    return _q_half_memo.lookup((p, arr.shape, arr.tobytes()), lambda: evaluate(0.5, p, arr))


def _q_far(J: HalfInt, p: QParam, eta):
    """Q_J(eta) eta^floor(J) on eta's complex array, for large |eta|, where
    Q_J itself underflows: each finite factor is divided by eta first."""
    n, inv = J.twice // 2, 1.0 / eta
    if p.regime is Regime.CLASSICAL:
        return (1.0 + inv) ** (-float(n)) * (1.0 + eta) ** (n - float(J))
    half = np.ones_like(eta) if J.is_integer() else _q_half(J, p, eta)
    return _divide_factors(J, p, eta, half, inv)


def norm_constant(J, M, N, p: QParam) -> float:
    """Normalization of psi: sqrt([J+N]![2J+1]!/[J-N]!) sqrt([J+M]!/([J-M]![2J]!)) / sqrt(2 pi).

    In the circle regime a q-factorial ratio can turn negative (q-numbers
    change sign past tau = pi/n); that is rejected rather than silently
    continued into complex square roots.
    """
    J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
    validate_triple(J, M, N)
    return _norm_constant(J, M, N, p, _q_factorials(J.twice + 1, p))


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


def psi(J, M, N, p: QParam, u, v):
    """Basis function on the plane at independent arguments (u, v).

    Physical evaluation uses v = conj(u); the arguments stay independent
    because q-dilations in the circle regime break that conjugacy.

    M may also be a tuple of weights, which must not be empty: the members
    (J, M[i], N) come back stacked along a new first axis, from one
    evaluation of the radial profile Q_J(u v) that they all share.  Each row
    takes the arithmetic of its own M, so it has the bits of psi(J, M[i],
    N, p, u, v); at scalar u and v the result has shape (len(M),).

    Results are memoized on (J, the weights, N, p, the shapes and the
    complex bytes of u and v) under MEMO_MAX_BYTES; see _ExactMemo for the
    rules.
    """
    J, N = HalfInt.of(J), HalfInt.of(N)
    ms = _weights(J, M, N)
    u_arr, u_scalar = _as_complex(u)
    v_arr, v_scalar = _as_complex(v)
    key = (J, ms, N, p, u_arr.shape, v_arr.shape, u_arr.tobytes() + v_arr.tobytes())
    out = _psi_memo.lookup(key, lambda: _psi_rows(J, ms, N, p, u_arr, v_arr))
    scalar = u_scalar and v_scalar
    if not isinstance(M, tuple):
        return _ret(out[0], scalar)
    return out.reshape(len(ms)) if scalar else out


def _psi_rows(J: HalfInt, ms: tuple, N: HalfInt, p: QParam, u_arr, v_arr):
    """The uncached psi of each weight in ms, stacked.  The row of M is
    lead Q(uv) (-u)^k0 v^(k0+M+N) P(-uv), with P the Horner sum of the R
    coefficients (see r_polynomial)."""
    records = [_psi_record(J, m, N, p) for m in ms]
    with np.errstate(over="ignore", invalid="ignore"):
        eta = u_arr * v_arr
        if np.count_nonzero(np.isfinite(eta)) != eta.size:  # finite u, v whose product is not
            _float_range_error(J, ms[0], N, p)
        qval = _q_values(J, p, eta)
        rows = np.stack([lead * qval * (-u_arr) ** k0 * v_arr ** (k0 + mn) * _horner(coeffs, -eta)
                         for lead, k0, mn, coeffs in records])
        # where lead Q leaves the normal range or the row is not finite, the far form
        leads = np.abs([lead for lead, *_ in records])
        far = ~np.isfinite(rows) | (np.multiply.outer(leads, np.abs(qval)) < sys.float_info.min)
    if np.any(far):
        _far_rows(J, ms, N, p, records, u_arr, v_arr, eta, rows, far)
    return rows


def _far_rows(J: HalfInt, ms: tuple, N: HalfInt, p: QParam, records, u, v, eta, rows, far):
    """Overwrite rows[far] with the far form, for large |eta|, eta = uv: with
    n = floor(J), d the degree of P and s = 2(k0+d-n) + M+N, the row is
    (-1)^(k0+d) [Q eta^n] eta^(s//2) (u/v)^(-(M+N)//2) u^(s mod 2) P~(-1/eta),
    P~ the Horner sum of the coefficients in reverse.  Q eta^n is about
    eta^(n-J) and s <= 1, so nothing overflows where the plain form did; a
    far value that is still not finite raises."""
    n = J.twice // 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        qfar = _q_far(J, p, eta)
        for row, take, m, (lead, k0, mn, coeffs) in zip(rows, far, ms, records):
            d = len(coeffs) - 1
            s = 2 * (k0 + d - n) + mn
            value = ((-1) ** (k0 + d) * lead * qfar * eta ** (s // 2) * (u / v) ** ((-mn) // 2)
                     * (u if s % 2 else 1.0) * _horner(coeffs[::-1], -1.0 / eta))
            if not np.all(np.isfinite(value[take])):
                _float_range_error(J, m, N, p)
            row[take] = value[take]


def _float_range_error(J, M, N, p: QParam):
    raise ValueError(f"psi for (J,M,N)=({J},{M},{N}) leaves the float range at {_named(p)}")


def _named(p: QParam) -> str:
    """p as the errors name it: q = value, or tau = value on the circle."""
    return f"{'tau' if p.regime is Regime.UNIT_CIRCLE else 'q'} = {p.value!r}"


def _point_error(what: str, arr, bad, p: QParam):
    """Raise `what` at the first point of eta's array arr where bad holds."""
    x = complex(arr[np.argmax(bad)])
    raise ValueError(f"{what} at eta = {(x.real if x.imag == 0 else x)!r}, {_named(p)}")


def _weights(J: HalfInt, M, N: HalfInt) -> tuple:
    """The weights a psi call evaluates, each checked against (J, N): those
    of a tuple M, which must not be empty, else (M,)."""
    ms = tuple(HalfInt.of(m) for m in M) if isinstance(M, tuple) else (HalfInt.of(M),)
    if not ms:
        raise ValueError("psi needs at least one weight M")
    for m in ms:
        validate_triple(J, m, N)
    return ms


@functools.lru_cache(maxsize=1024)
def _psi_record(J: HalfInt, M: HalfInt, N: HalfInt, p: QParam):
    """What psi reads for one (J, M, N, p): the norm constant times the phase
    q^(-NM/2), k0, M+N and the R coefficients, built first so that an R
    lead out of the float range is the error reported.  A lead out of the
    normal range raises a ValueError naming (J, M, N) and q.  R(uv) v^(M+N) is
    (-u)^k0 v^(k0+M+N) P(-uv), both exponents nonnegative, so psi is finite
    at 0.  A negative radicand raises on every call, as lru_cache stores no
    error."""
    fact = _q_factorials(J.twice + 1, p)
    k0, coeffs = _r_coefficients(J, M, N, p, fact)
    lead = _norm_constant(J, M, N, p, fact) * p.power(-float(N) * float(M) / 2.0)
    if not sys.float_info.min <= abs(lead) < math.inf:
        _float_range_error(J, M, N, p)
    return lead, k0, (M + N).to_int(), coeffs


def vilenkin(J, M, N, p: QParam, xi):
    """q-Vilenkin function on xi in (-1, 1): i^(2J-M-N) sqrt(2 pi/[2J+1])
    q^(NM/2) psi at u = v = sqrt(eta), eta = (1+xi)/(1-xi), that is
    sqrt([J+M]![J+N]!/([J-M]![J-N]!)) eta^((M+N)/2) Q_J(eta) R(eta) under the
    fixed phase i^(2J-M-N).  At positive real q the rest is real, at q = 1,
    N = 0 these are Legendre-type functions, and on the circle every J needs
    (2J+1)|tau| < pi."""
    J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
    validate_triple(J, M, N)
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    if scalar:  # as in _as_complex: xi and [xi] give the same bits
        xi_arr = xi_arr.reshape(1)
    if np.any(xi_arr <= -1.0) or np.any(xi_arr >= 1.0):
        raise ValueError("vilenkin argument xi must lie in (-1, 1)")
    if p.regime is Regime.UNIT_CIRCLE:
        _check_sector(J, p)
    root = np.sqrt((1.0 + xi_arr) / (1.0 - xi_arr))
    scale = (1j ** ((2 * J.twice - M.twice - N.twice) // 2)
             * math.sqrt(2.0 * math.pi / q_number(J.twice + 1, p))
             * p.power(float(N) * float(M) / 2.0))
    return _ret(scale * psi(J, M, N, p, root, root), scalar)
