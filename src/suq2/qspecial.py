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
hep-th/9310070).  On top of Q sit the terminating R polynomials, built
in J from one term by a three-term recurrence whose one loop serves R and
psi, the normalization constants, and the basis functions
psi = (norm) Q_J(uv) R(uv) v^(M+N) on the plane.  The q-Vilenkin
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
    _check_cap,
    _check_sector,
    _named,
    _norm_constant,
    _powers,
    _q_factorials,
    _r_steps,
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
POLE_TOL = 1e-300            # a product factor this small is a pole of Q
# entries per block of the infinite product (factors x points) and of each L
# quadrature round (points x panels x 21 nodes); keeps the temporaries in cache
BLOCK_ELEMENTS = 2**12
BRANCH_CUT_MARGIN = 1e-6
# The byte bound of each exact-input memo.  With both memos unbounded, one
# operation of the benchmark's batches (seeds 1-10 of verify --suite all at
# real q, 18 operations a batch, and on the circle, 7) stores at most 0.035 MB
# of Q_{1/2} (0.002 MB on the circle) and 0.68 MiB of psi (0.32 MiB), so
# nothing is evicted
MEMO_MAX_BYTES = 2**20
# a third of the normal range's binary exponents: psi's start is its lead times
# Q_J0 times the monomial, the last two within |uv|^(+-J0) of 1 on |u| = |v|
START_BITS = (1 - sys.float_info.min_exp) / 3


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
    the oldest entry first; a larger result is not stored at all, and an
    input whose bytes alone pass max_bytes makes no key and no lookup.
    """

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self.entries: dict = {}
        self.nbytes = 0

    def lookup(self, params: tuple, arrays: tuple, compute):
        """The value for the key (params, the arrays' shapes, their bytes); on
        a miss, the value compute() returns."""
        if sum(a.nbytes for a in arrays) > self.max_bytes:
            return compute()  # never stored: see _store
        key = (*params, *(a.shape for a in arrays), b"".join(a.tobytes() for a in arrays))
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


def _recur(x, steps, eta, up, inv=1.0):
    """The one loop of R and psi: x_J from x_J0 = x, x_(J0-1) = 0 and, for
    j = J0 .. J-1, x_(j+1) = (a_j + b_j eta) inv_j x_j + (1 - a_j) up_j x_(j-1),
    steps = (a, b, 1 - a) of _r_steps, a row of up and inv per j.  R's own
    recurrence is inv_j = 1, up_j = (1 + q^(2j) eta)(1 + q^(-2j) eta); that
    of X_j = Q_j R_j is inv_j = Q_(j+1)/Q_j = 1/(1 + q^(-2j-2) eta) and
    up_j = (1 + q^(2j) eta) inv_j (up may be None for one step)."""
    a, b, c = steps
    P, S = (a + b * eta) * inv, (c * up if len(a) > 1 else None)
    prev = None
    for j, Pj in enumerate(P):
        x, prev = (Pj * x if prev is None else Pj * x + S[j] * prev), x
    return x


def r_polynomial(J, M, N, p: QParam, eta):
    """R(eta) = sum_k c_k (-eta)^k, c_k = [J-N]![J-M]!/([k]![J-M-k]![J-N-k]![M+N+k]!),
    by the recurrence in J of _r_steps, where the alternating sum cancels.
    On the circle J needs (2J+1)|tau| < pi; a value out of range is refused."""
    J, M, N = validate_triple(J, M, N)
    _check_sector(J, p)
    arr, scalar = _as_complex(eta)
    J0, k0, c, steps = _r_steps(J, M, N, p, _q_factorials(max(0, (M + N).to_int()), p))
    flat = arr.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        up = (1.0 + _powers(J0, J, p, 1, 0) * flat) * (1.0 + _powers(J0, J, p, -1, 0) * flat)
        out = _recur(c * (-flat) ** k0, steps, flat, up).reshape(arr.shape)
    if not np.all(np.isfinite(out)):
        _point_error(f"R for (J,M,N)=({J},{M},{N}) leaves the float range", arr,
                     ~np.isfinite(out), p)
    return _ret(out, scalar)


def _finite_factors(J: HalfInt, p: QParam, arr):
    """The factors 1 + q^(-2j-2) eta, j = J mod 1 .. J-1, one row per j, of
    Q_J = Q_(J mod 1) / prod, for J >= 0, on eta's flattened array.  A
    vanishing factor, a pole of Q, raises and is named by k = J-1-j, as
    the factor 1 + q^(2k-2J) eta; the smallest such k is named."""
    _check_cap(J.twice // 2, "Q_J for J = {} needs {} finite factors", J, J.twice // 2)
    factors = 1.0 + _powers(HalfInt(J.twice % 2), J, p, -1, -2) * arr.reshape(-1)
    small = np.abs(factors) < POLE_TOL
    if small.any():
        k = len(factors) - 1 - int(np.nonzero(small.any(axis=1))[0][-1])
        raise ValueError(f"finite-product pole: factor k={k} vanishes")
    return factors


def q_infinite_product(J, p: QParam, eta):
    """Q for positive real q via the convergent product branch for q<1 or q>1.

    Each point multiplies its factors 0 .. K of _last_factors and counts
    later ones as exactly 1, so it has the bits of its own call; a count
    past PRODUCT_MAX_FACTORS is refused before any factor.  Blocks of
    factors, at most BLOCK_ELEMENTS (factors x points), take one pole test
    each, and each point's factors are multiplied in order.  An empty eta
    gives an empty result of its shape; an eta whose factor 0 overflows is refused.
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


def _last_factors(q, Jf, abs_eta):
    """K per point, as floats: factor k is 1 + (rho - 1) b_k eta / (1 + b_k eta),
    rho = e^(-2J|ln q|), b_k = b_0 e^(-2k|ln q|), ln b_0 = 2J|ln q| (q < 1)
    or -2|ln q| (q > 1); with y = b_k |eta| < 1 its gap from 1 is at most
    |rho - 1| y/(1 - y), so every factor from K = max(0, ceil((ln|eta| +
    ln b_0 + ln((|rho - 1| + g)/g)) / (2|ln q|))) on is within the stop gap
    g of 1.  In logs: rho, q^(+-2) and |eta| b_0 may leave the float range."""
    two_log_q = 2.0 * abs(math.log(q))
    ratio = q * q if q < 1.0 else q ** -2
    gap = PRODUCT_FACTOR_TOL  # and its tail gap ratio / (1 - ratio) below 1e-14
    if ratio:  # it underflows to 0 at extreme q
        gap = min(gap, PRODUCT_TAIL_TOL * (1.0 - ratio) / ratio)
    log_rho = -Jf * two_log_q
    top = max(log_rho, 0.0)  # ln(|rho - 1| + g) = top + ln(|rho - 1| e^-top + g e^-top)
    log_rho_gap = top + math.log(-math.expm1(-abs(log_rho)) + gap * math.exp(-top))
    log_b0 = Jf * two_log_q if q < 1.0 else -two_log_q
    with np.errstate(divide="ignore"):  # eta = 0 takes factor 0 alone
        x = (np.log(abs_eta) + (log_b0 + log_rho_gap - math.log(gap))) / two_log_q
    return np.maximum(np.ceil(x), 0.0)


def _infinite_product(J, q, arr):
    """The product of q_infinite_product on eta's complex array."""
    Jf = float(J)
    flat = arr.reshape(-1)
    out = np.ones(flat.shape, dtype=complex)  # in C order, whatever arr's layout
    if arr.size == 0:
        return out.reshape(arr.shape)
    abs_eta = np.abs(flat)
    amax = float(abs_eta.max())
    a, b = _multipliers(q, Jf, range(1))
    if not math.isfinite(amax * max(a[0], b[0])):  # it would return 0 or nan and only warn
        raise ValueError(f"infinite-product factor k=0 overflows at |eta| = {amax:g}")
    last = _last_factors(q, Jf, abs_eta)
    count = int(last.max()) + 1
    _check_cap(count, "infinite product needs {} factors at q = {!r}", count, q)
    rows = max(1, BLOCK_ELEMENTS // flat.size)
    for start in range(0, count, rows):
        ks = range(start, min(start + rows, count))
        a, b = _multipliers(q, Jf, ks)
        den = 1.0 + flat * np.array(b)[:, None]
        poles = np.any(np.abs(den) < POLE_TOL, axis=1)
        if poles.any():  # raised before the division, which would warn
            raise ValueError(f"infinite-product pole in factor k={start + int(np.argmax(poles))}")
        factor = (1.0 + flat * np.array(a)[:, None]) / den
        factor[np.arange(start, ks.stop, dtype=float)[:, None] > last] = 1.0
        for row in factor:  # out of place: numpy's complex multiply rounds
            out = out * row  # differently in place and on scalars,
            # and np.multiply.reduce(factor, axis=0) differently again
    return out.reshape(arr.shape)


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
    keeps an algebraic t^(alpha - 1) endpoint singularity.  Where |eta| > 1
    it integrates z = 1/eta instead, by the inversion identity L(eta) +
    L(1/eta) = sigma [(Log eta)^2/(2 alpha) + pi^2 (alpha + 1/alpha)/6]/(2 pi i),
    sigma the sign of tau (Faddeev & Kashaev), so 24 panels that depend on tau
    alone serve every |z| <= 1, each integrated by a 10-point Gauss / 21-point
    Kronrod pair (GK21_NODES, GK21_WEIGHTS), with |K21 - G10| maximized over
    the points as the panel's error.  The K21 sums are returned once the
    panel errors add up to less than L_ABS_TOL.  Otherwise the panels within
    an equal share of the tolerance left are kept and the others bisected,
    for at most L_MAX_ROUNDS rounds of at most L_MAX_PANELS panels, past
    which it raises RuntimeError.  A round evaluates and sums the points in
    blocks of at most BLOCK_ELEMENTS (points x panels x 21) entries; the
    panels are kept or bisected on the error maximized over all the points,
    so the result is bit for bit that of one block.  A call whose integrand
    comes within BRANCH_CUT_MARGIN of the Log branch cut warns once; the
    margin is taken at each point's first node, where |arg(1 + z t)| peaks.
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
    alpha = abs(p.value) / math.pi
    outer = np.abs(flat) > 1.0
    z = flat.copy()
    z[outer] = 1.0 / flat[outer]

    # t = exp(-v): 11 equal panels on (-56, 0), breaks to 40, past which 1/(1 + e^(-v))
    # is 1 within 5e-18, and 8 equal ones to 40/alpha, past which |Log(1 + z t)| < 5e-18
    breaks = np.concatenate((np.linspace(-56.0, 0.0, 12)[:-1], (0.0, 2.0, 5.0, 10.0, 20.0),
                             np.linspace(40.0, 40.0 / alpha, 9)))
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
            sums[i:i + step], max_phase = _l_panel_sums(z[i:i + step], t, g)
            if not warned and math.pi - max_phase < BRANCH_CUT_MARGIN:
                _branch_cut_warnings += 1
                # frames: here, l_function, its caller
                warnings.warn(f"l_function integrand within {BRANCH_CUT_MARGIN} of the Log "
                              "branch cut", RuntimeWarning, stacklevel=3)
                warned = True
        panel_error = np.max(np.abs(sums[..., 1]), axis=0, initial=0.0) / (2.0 * math.pi)
        if error + float(np.sum(panel_error)) < L_ABS_TOL:
            total += np.sum(sums[..., 0], axis=1)
            log = np.log(flat[outer])  # the inversion identity, times 2 pi i / sigma
            total[outer] = (log * log / (2.0 * alpha) + math.pi ** 2 * (alpha + 1.0 / alpha) / 6.0
                            - total[outer])
            return (math.copysign(1.0, p.value) * total / (2j * math.pi)).reshape(arr.shape)
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
    (panels, 21) nodes.  |arg(1 + eta t)| grows with t, its t-derivative
    having the sign of Im eta, and t is largest at the first node of the
    first panel, both being in ascending v: the largest is read there."""
    re, im = points.real[:, None, None], points.imag[:, None, None]
    x, y = 1.0 + re * t, im * t           # 1 + eta e^(-alpha v): points x panels x 21
    phase = np.arctan2(y, x)
    max_phase = float(np.max(np.abs(phase[:, 0, 0])))
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


def q_function(J, p: QParam, eta):
    """Q_J: (1+eta)^(-J) classically; else, for J >= 0, 1 divided by floor(J)
    linear factors for integer J, and for half-integer J the regime's Q_{1/2}
    divided by the same factors, which on the circle needs (2J+1)|tau| < pi.
    A 0 is refused as an underflow, as is a value that is not finite.  Off
    the negative real axis Q_J has no zero; on it the same refusal also
    catches Q's true zeros (Q_{1/2}(-1) = 0 at q < 1)."""
    J = HalfInt.of(J)
    arr, scalar = _as_complex(eta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        out = _q_values(J, p, arr)
    bad = ~np.isfinite(out) | (out == 0)
    if np.any(bad):
        _point_error(f"Q_J for J = {J} leaves the float range", arr, bad, p)
    return _ret(out, scalar)


def _q_values(J: HalfInt, p: QParam, arr):
    """q_function on eta's complex array, with nothing refused."""
    if p.regime is Regime.CLASSICAL:
        return (1.0 + arr) ** (-float(J))
    if J.twice < 0:
        raise ValueError(f"Q needs J >= 0, got {J}")
    out = np.ones_like(arr) if J.is_integer() else _q_half(J, p, arr)
    for factor in _finite_factors(J, p, arr) if J.twice > 1 else ():
        out = out / factor.reshape(arr.shape)
    return out


def _q_half(J: HalfInt, p: QParam, arr):
    """The regime's Q_{1/2} on eta's complex array, for a half-integer J >= 1/2,
    which on the circle needs (2J+1)|tau| < pi.

    Results are memoized on (p, eta's shape, eta's complex bytes) under
    MEMO_MAX_BYTES; see _ExactMemo for the rules.  Every half-integer J
    shares the entry, so the sector of J is checked before the lookup.
    """
    _check_sector(J, p)
    evaluate = q_infinite_product if p.regime is Regime.POSITIVE_REAL else q_integral_exp
    return _q_half_memo.lookup((p,), (arr,), lambda: evaluate(0.5, p, arr))


def norm_constant(J, M, N, p: QParam) -> float:
    """Normalization of psi: sqrt([J+N]![2J+1]!/[J-N]!) sqrt([J+M]!/([J-M]![2J]!)) / sqrt(2 pi).

    In the circle regime a q-factorial ratio can turn negative (q-numbers
    change sign past tau = pi/n); that is rejected rather than silently
    continued into complex square roots.  A value out of the normal float
    range, as where a radicand's factorials overflow mid-formula, is refused.
    """
    J, M, N = validate_triple(J, M, N)
    norm = _norm_constant(J, M, N, p, _q_factorials(J.twice + 1, p))
    if not sys.float_info.min <= norm < math.inf:
        _float_range_error(J, M, N, p, "norm_constant")
    return norm


def psi(J, M, N, p: QParam, u, v):
    """Basis function on the plane at independent arguments (u, v).

    Physical evaluation uses v = conj(u); the arguments stay independent
    because q-dilations in the circle regime break that conjugacy.  On the
    circle every J needs (2J+1)|tau| < pi.

    M may also be a tuple of weights, which must not be empty: the members
    (J, M[i], N) come back stacked along a new first axis, from one
    evaluation of the radial profile Q that they all share.  Each row
    takes the arithmetic of its own M, so it has the bits of psi(J, M[i],
    N, p, u, v); at scalar u and v the result has shape (len(M),).

    The labels are checked here (_weights), the rest in _psi, whose memo
    keeps the results.
    """
    J, ms, N = _weights(J, M, N)
    out = _psi(J, ms, N, p, u, v)
    return out if isinstance(M, tuple) else _ret(out[0], out.ndim == 1)  # 1-D at scalar u, v


def _psi(J: HalfInt, ms: tuple, N: HalfInt, p: QParam, u, v, stepped=False):
    """psi of (J, each weight of ms, N), stacked on a new first axis, of
    shape (len(ms),) at scalar u and v.  The labels come checked, by
    _weights or by qops when it built the basis family or tower; past them
    it refuses as psi does: the circle's sector, points not finite, then
    each record.
    Stepped, row k of u and v is (u_0, q^(2k) v_0), as qops._apply stacks
    the eta-shifts 0, 2, ...: the bits of psi there, except that Q_{1/2}
    is evaluated at row 0 alone and each later row takes it from the one
    before by Q(q^2 eta) = Q(eta) (1 + q^-1 eta)/(1 + eta) (_q_half_steps);
    q_function, and so funceq, keeps evaluating Q at q^2 eta itself.
    Results are memoized on (J, ms, N, p, stepped, the shapes and the
    complex bytes of u and v) under MEMO_MAX_BYTES; see _ExactMemo.
    """
    _check_sector(J, p)
    u_arr, u_scalar = _as_complex(u)
    v_arr, v_scalar = _as_complex(v)
    out = _psi_memo.lookup((J, ms, N, p, stepped), (u_arr, v_arr),
                           lambda: _psi_rows(J, ms, N, p, u_arr, v_arr, stepped))
    return out.reshape(len(ms)) if u_scalar and v_scalar else out


def _q_half_steps(p: QParam, eta):
    """Q_{1/2} on eta's flattened array, whose rows along the first axis are
    q^2 steps apart (see _psi): row 0 by _q_half, each later row from
    the one before."""
    rows = eta.reshape(len(eta), -1)
    out = np.empty_like(rows)
    out[0] = _q_half(HalfInt(1), p, rows[0])
    q_inv = p.power(-1)
    for k in range(1, len(rows)):
        out[k] = out[k - 1] * (1.0 + q_inv * rows[k - 1]) / (1.0 + rows[k - 1])
    return out.reshape(-1)


def _psi_rows(J: HalfInt, ms: tuple, N: HalfInt, p: QParam, u_arr, v_arr, stepped=False):
    """The uncached psi of each weight in ms, stacked: lead X_J, by _recur
    from X_J0 = Q_J0 (-u)^k0 v^(k0+M+N), X_j = Q_j R_j v^(M+N), eta = uv,
    whose steps stay bounded as eta -> 0 and as eta -> inf.  Every Q_J0
    comes from the call's one Q, at J mod 1, by the factors Q_(j+1)/Q_j;
    stepped, u and v are a stack of q^2 steps and Q_{1/2} is _q_half_steps'.
    Where |eta|^J0 may pass 2^START_BITS, the starts run on u' = u 2^-a and
    v' = v 2^-b in [1/2, 1) and on the factors times 2^c, c = max(a + b, 0);
    ldexp takes each row back by e = k0 a + (k0+M+N) b - floor(J0) c, which
    is exact: a start that stays normal keeps its bits.  A value out of the
    float range is refused."""
    records = [_psi_record(J, m, N, p) for m in ms]
    base = HalfInt(J.twice % 2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eta = u_arr * v_arr
        shape, flat = eta.shape, eta.reshape(-1)
        amax = np.maximum.reduce(size := np.abs(flat), initial=1.0)
        amin = np.minimum.reduce(size, initial=1.0)
        # uv, or a factor 1 + q^(-2j-2) uv of Q, is not a float: |q^(-2j-2)|
        # is largest at an end of j = J mod 1 .. J-1
        if not (amax < 1e100 or math.isfinite(
                amax * max(abs(p.power(-base.twice - 2)), abs(p.power(-J.twice))))):
            _float_range_error(J, ms[0], N, p)
        inv = 1.0 / _finite_factors(J, p, flat) if J.twice > 1 else None  # Q_(j+1)/Q_j
        uf, vf = (w.reshape(-1) if w.shape == shape else np.broadcast_to(w, shape).reshape(-1)
                  for w in (u_arr, v_arr))
        bits = max(math.frexp(amax)[1], -math.frexp(amin)[1])  # |uv|'s range, in binary
        top = max(r[1] for r in records) if float(J) * bits >= START_BITS else base  # J0 <= J
        if scaled := float(top) * bits >= START_BITS:
            a, b = (np.frexp(np.abs(w))[1] for w in (uf, vf))
            c, uf, vf = np.maximum(a + b, 0), _ldexp(uf, -a), _ldexp(vf, -b)
        start = _ldexp(inv[:(top - base).to_int()], c) if scaled and inv is not None else inv
        if not base.twice:
            qs = [np.ones_like(flat)]
        else:
            qs = [_q_half_steps(p, eta) if stepped else _q_values(base, p, flat)]
        ratio = None
        out = np.empty((len(ms),) + shape, dtype=complex)  # one object for the memo to keep
        for row, (lead, J0, k0, mn, steps) in zip(out.reshape(len(ms), -1), records):
            i = (J0 - base).to_int()  # floor(J0)
            while len(qs) <= i:
                qs.append(qs[-1] * start[len(qs) - 1])
            x = lead * qs[i]  # times (-u)^k0 v^(k0+M+N), one of whose powers is 1
            if k0 or mn:
                x = x * ((-uf) ** k0 if k0 else vf ** mn)
            if len(steps[0]) > 1 and ratio is None:  # (1 + q^(2j) eta) Q_(j+1)/Q_j
                ratio = (1.0 + _powers(base, J, p, 1, 0) * flat) * inv
            if len(steps[0]):
                x = _recur(x, steps, flat, ratio if ratio is None else ratio[i:], inv[i:])
            row[:] = _ldexp(x, k0 * a + (k0 + mn) * b - i * c) if scaled else x
    if np.count_nonzero(np.isfinite(out)) != out.size:
        bad = ~np.isfinite(out).reshape(len(ms), -1).all(axis=1)
        _float_range_error(J, ms[int(np.argmax(bad))], N, p)
    return out


def _ldexp(x, k):
    """x 2^k on a complex array, part by part: exact where it is normal, the
    sign of a zero included, as a complex product by 2^k is not."""
    out = np.empty_like(x)
    out.real, out.imag = np.ldexp(x.real, k), np.ldexp(x.imag, k)
    return out


def _float_range_error(J, M, N, p: QParam, what="psi"):
    raise ValueError(f"{what} for (J,M,N)=({J},{M},{N}) leaves the float range at {_named(p)}")


def _point_error(what: str, arr, bad, p: QParam):
    """Raise `what` at the first point of eta's array arr where bad holds."""
    x = complex(arr[np.argmax(bad)])
    raise ValueError(f"{what} at eta = {(x.real if x.imag == 0 else x)!r}, {_named(p)}")


def _weights(J, M, N) -> tuple:
    """(J, the weights, N) of a psi or vilenkin call, checked: (M,), made
    in validate_triple's order J, M, N, or each weight of a tuple M, which
    must not be empty, made after J and N."""
    if not isinstance(M, tuple):
        J, M, N = validate_triple(J, M, N)
        return J, (M,), N
    J, N = HalfInt.of(J), HalfInt.of(N)
    ms = tuple(map(HalfInt.of, M))
    if not ms:
        raise ValueError("psi needs at least one weight M")
    for m in ms:
        validate_triple(J, m, N)
    return J, ms, N


@functools.lru_cache(maxsize=1024)
def _psi_record(J: HalfInt, M: HalfInt, N: HalfInt, p: QParam):
    """What psi reads for one (J, M, N, p): the lead (the norm constant
    times the phase q^(-NM/2) times R's start c), J0, k0, M+N and the steps
    of _r_steps.  A lead out of the normal range
    raises, naming (J, M, N) and q, on every call, as lru_cache stores no
    error.  Both exponents of (-u)^k0 v^(k0+M+N) are >= 0: psi is finite at 0."""
    fact = _q_factorials(J.twice + 1, p)
    norm = _norm_constant(J, M, N, p, fact)
    J0, k0, c, steps = _r_steps(J, M, N, p, fact)
    lead = norm * p.power(-float(N) * float(M) / 2.0) * c
    if not sys.float_info.min <= abs(lead) < math.inf:
        _float_range_error(J, M, N, p)
    return lead, J0, k0, (M + N).to_int(), steps


def vilenkin(J, M, N, p: QParam, xi):
    """q-Vilenkin function on xi in (-1, 1): i^(2J-M-N) sqrt(2 pi/[2J+1])
    q^(NM/2) psi at u = v = sqrt(eta), eta = (1+xi)/(1-xi), that is
    sqrt([J+M]![J+N]!/([J-M]![J-N]!)) eta^((M+N)/2) Q_J(eta) R(eta) under the
    fixed phase i^(2J-M-N).  At positive real q the rest is real, at q = 1,
    N = 0 these are Legendre-type functions, and on the circle every J needs
    (2J+1)|tau| < pi.

    M may also be a tuple of weights, as in psi: the rows come back stacked
    from one psi call, each with the bits of vilenkin(J, M[i], N, p, xi)."""
    J, ms, N = _weights(J, M, N)
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    if scalar:  # as in _as_complex: xi and [xi] give the same bits
        xi_arr = xi_arr.reshape(1)
    if np.any(xi_arr <= -1.0) or np.any(xi_arr >= 1.0):
        raise ValueError("vilenkin argument xi must lie in (-1, 1)")
    root = np.sqrt((1.0 + xi_arr) / (1.0 - xi_arr))
    values = _psi(J, ms, N, p, root, root)  # which checks the circle's sector first
    rows = [(1j ** ((2 * J.twice - m.twice - N.twice) // 2)
             * math.sqrt(2.0 * math.pi / q_number(J.twice + 1, p))
             * p.power(float(N) * float(m) / 2.0)) * row for m, row in zip(ms, values)]
    if not isinstance(M, tuple):
        return _ret(rows[0], scalar)
    out = np.stack(rows)
    return out.reshape(len(ms)) if scalar else out
