"""The q-special-function family for the plane realization.

Everything here revolves around the radial profile Q_J(eta), defined by the
q-difference equation

    Q(q^2 eta) (1 + eta) = Q(eta) (1 + q^(-2J) eta),

which admits three concrete constructions: a finite product (integer J, any
regime), a convergent infinite product (positive real q), and an exponential
of an integral kernel L (unit-circle q).  The kernel satisfies
L(q eta) - L(q^-1 eta) = Log(1 + eta).  On top of Q sit the terminating
R polynomials, the normalization constants, the basis functions psi on the
plane, and the q-Vilenkin functions on (-1, 1).

eta is accepted as complex everywhere: q-dilated arguments in the circle
regime rotate eta off the positive axis, and the functional-equation residual
is the referee certifying those evaluations.  All evaluators broadcast over
numpy arrays.
"""
from __future__ import annotations

import functools
import math
import warnings
from enum import Enum

import numpy as np

from .qcore import (
    HalfInt,
    QParam,
    Regime,
    inv_q_factorial,
    q_factorial,
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
# and eval on the circle) one operation stores at most 0.29 MB of products
# and 0.13 MB of L, so nothing is evicted
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

    A key is (tag, the evaluator's parameters, eta's shape, eta's complex
    bytes), the bytes last, so p and p.inverse(), or a (1,)- and a
    (1, 1)-shaped eta, never share an entry.  A scalar eta reaches the
    evaluators as shape (1,) (see _as_complex), so it shares the entry of
    [eta], whose bits it has.  Every call returns a fresh copy,
    so callers may mutate it.  A result whose evaluation raised or reported
    a warning is never stored, so the warning and the errors recur on every
    call.  The stored keys and values stay under max_bytes, evicting the
    oldest entry first; a larger result is not stored at all.
    """

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self.entries: dict = {}
        self.nbytes = 0

    def lookup(self, key, compute):
        """The value for key; on a miss, compute() returns (value, warned)."""
        val = self.entries.get(key)
        if val is None:
            val, warned = compute()
            if not warned:
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


_l_memo = _ExactMemo(MEMO_MAX_BYTES)
_product_memo = _ExactMemo(MEMO_MAX_BYTES)


class QFunctionMethod(Enum):
    FINITE_PRODUCT = "FiniteProduct"
    INFINITE_PRODUCT = "InfiniteProduct"
    INTEGRAL_EXP = "IntegralExp"


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


def _r_coefficients(J: HalfInt, M: HalfInt, N: HalfInt, p: QParam):
    """Yield (k, c_k) of the R k-sum, c_k = [J-N]![J-M]!/([k]![J-M-k]![J-N-k]![M+N+k]!).

    The range k = max(0, -(M+N)) .. min(J-M, J-N) is exactly where no
    inverse factorial vanishes.  A lead [J-N]![J-M]! that overflows is
    rejected, though each factorial is finite.
    """
    jm, jn, mn = (J - M).to_int(), (J - N).to_int(), (M + N).to_int()
    lead = q_factorial(jn, p) * q_factorial(jm, p)
    if not math.isfinite(lead):
        name = "tau" if p.regime is Regime.UNIT_CIRCLE else "q"
        raise ValueError(f"R coefficients for (J,M,N)=({J},{M},{N}) leave the float range "
                         f"at {name} = {p.value!r}")
    for k in range(max(0, -mn), min(jm, jn) + 1):
        yield k, (lead
                  * inv_q_factorial(k, p)
                  * inv_q_factorial(jm - k, p)
                  * inv_q_factorial(jn - k, p)
                  * inv_q_factorial(mn + k, p))


def r_polynomial(J, M, N, p: QParam, eta):
    """Terminating k-sum sum_k c_k (-eta)^k with q-factorial coefficients
    (see _r_coefficients); polynomial in eta."""
    J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
    validate_triple(J, M, N)
    arr, scalar = _as_complex(eta)
    out = np.zeros_like(arr)
    for k, c in _r_coefficients(J, M, N, p):
        out = out + c * (-arr) ** k
    return _ret(out, scalar)


def q_finite_product(J, p: QParam, eta):
    """Q for integer J: product of J reciprocal linear factors (1 for J = 0)."""
    J = HalfInt.of(J)
    if not J.is_integer() or J.twice < 0:
        raise ValueError(f"finite product needs integer J >= 0, got {J}")
    arr, scalar = _as_complex(eta)
    out = np.ones_like(arr)
    for k in range(J.to_int()):
        factor = 1.0 + arr * p.power(-2 * J.to_int() + 2 * k)
        if np.any(np.abs(factor) < POLE_TOL):
            raise ValueError(f"finite-product pole: factor k={k} vanishes")
        out = out / factor
    return _ret(out, scalar)


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

    Results are memoized on (J, p, eta's shape, eta's complex bytes) under
    MEMO_MAX_BYTES, with a scalar eta and [eta] on one entry; see _ExactMemo
    for the rules.
    """
    J = HalfInt.of(J)
    if p.regime is not Regime.POSITIVE_REAL:
        raise ValueError("infinite product is defined for the positive-real regime only")
    arr, scalar = _as_complex(eta)
    val = _product_memo.lookup(("Q", J, p, arr.shape, arr.tobytes()),
                               lambda: (_infinite_product(J, p.value, arr), False))
    return _ret(val, scalar)


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
    """The uncached product of q_infinite_product on eta's complex array."""
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
        Argument; complex values off the negative real axis are accepted.

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

    Results are memoized on (p, eta's shape, eta's complex bytes) under
    MEMO_MAX_BYTES; see _ExactMemo for the rules.  A result whose
    evaluation emitted the branch-cut warning is never stored.
    """
    if p.regime is not Regime.UNIT_CIRCLE:
        raise ValueError("l_function is defined for the unit-circle regime only")
    arr, scalar = _as_complex(eta)
    val = _l_memo.lookup(("L", p, arr.shape, arr.tobytes()), lambda: _l_quadrature(p, arr))
    return _ret(val, scalar)


def _l_quadrature(p: QParam, arr):
    """L on the complex array arr; returns (values in its shape, whether it warned)."""
    flat = arr.reshape(-1)
    tau = p.value
    alpha = abs(tau) / math.pi
    sigma = 1.0 if tau > 0 else -1.0
    amax = float(np.max(np.abs(flat))) if flat.size else 0.0
    if amax == 0.0:
        return np.zeros_like(arr), False

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
                # frames: here, the memo's compute lambda and lookup, l_function, its caller
                warnings.warn("l_function integrand within 1e-6 of the Log branch cut",
                              RuntimeWarning, stacklevel=5)
                warned = True
        panel_error = np.max(np.abs(sums[..., 1]), axis=0) / (2.0 * math.pi)
        if error + float(np.sum(panel_error)) < L_ABS_TOL:
            total += np.sum(sums[..., 0], axis=1)
            return (sigma * total / (2j * math.pi)).reshape(arr.shape), warned
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
    if (J.twice + 1) * abs(p.value) >= math.pi:
        raise ValueError(f"integral-exponential construction for J={J} needs "
                         f"(2J+1)|tau| < pi, got tau={p.value!r}")
    arr, scalar = _as_complex(eta)
    shift = p.power(-(2.0 * float(J) + 1.0))
    la = l_function(p, shift * arr)
    lb = l_function(p, p.power(-1.0) * arr)
    return _ret(np.exp(np.asarray(la - lb, dtype=complex)), scalar)


def default_construction(J, p: QParam) -> QFunctionMethod | None:
    """The Q construction q_function runs for (J, p): finite product for
    integer J, else infinite product (real q) or integral exponential
    (circle q); None classically, where Q is (1+eta)^(-J)."""
    if p.regime is Regime.CLASSICAL:
        return None
    if HalfInt.of(J).is_integer():
        return QFunctionMethod.FINITE_PRODUCT
    if p.regime is Regime.POSITIVE_REAL:
        return QFunctionMethod.INFINITE_PRODUCT
    return QFunctionMethod.INTEGRAL_EXP


def q_function(J, p: QParam, eta):
    """Evaluate Q_J by the construction default_construction(J, p) picks."""
    J = HalfInt.of(J)
    method = default_construction(J, p)
    if method is None:
        arr, scalar = _as_complex(eta)
        return _ret((1.0 + arr) ** (-float(J)), scalar)
    if method is QFunctionMethod.FINITE_PRODUCT:
        return q_finite_product(J, p, eta)
    if method is QFunctionMethod.INFINITE_PRODUCT:
        return q_infinite_product(J, p, eta)
    return q_integral_exp(J, p, eta)


def norm_constant(J, M, N, p: QParam) -> float:
    """Normalization of psi: sqrt([J+N]![2J+1]!/[J-N]!) sqrt([J+M]!/([J-M]![2J]!)) / sqrt(2 pi).

    In the circle regime a q-factorial ratio can turn negative (q-numbers
    change sign past tau = pi/n); that is rejected rather than silently
    continued into complex square roots.
    """
    J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
    validate_triple(J, M, N)
    twoj = J.twice
    rad1 = (q_factorial((J + N).to_int(), p) * q_factorial(twoj + 1, p)
            / q_factorial((J - N).to_int(), p))
    rad2 = (q_factorial((J + M).to_int(), p)
            / (q_factorial((J - M).to_int(), p) * q_factorial(twoj, p)))
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
    """
    J, N = HalfInt.of(J), HalfInt.of(N)
    ms = _weights(J, M, N)
    u_arr, u_scalar = _as_complex(u)
    v_arr, v_scalar = _as_complex(v)
    records = [_psi_record(J, m, N, p) for m in ms]
    qval = q_function(J, p, u_arr * v_arr)
    rows = []
    for lead, mn, terms in records:
        poly = np.zeros_like(u_arr)
        for k, c in terms:
            poly = poly + c * u_arr ** k * v_arr ** (k + mn)
        rows.append(np.asarray(lead * qval * poly, dtype=complex))
    scalar = u_scalar and v_scalar
    if not isinstance(M, tuple):
        return _ret(rows[0], scalar)
    out = np.stack(rows)
    return out.reshape(len(ms)) if scalar else out


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
    q^(-NM/2), M+N, and the (k, (-1)^k c_k) of R(eta) v^(M+N) expanded as
    sum_k (-1)^k c_k u^k v^(k+M+N).  Both exponents are nonnegative over the
    k range, so psi is polynomial and finite at 0.  A negative radicand
    raises on every call, as lru_cache stores no error.
    """
    lead = norm_constant(J, M, N, p) * p.power(-float(N) * float(M) / 2.0)
    terms = tuple((k, -c if k % 2 else c) for k, c in _r_coefficients(J, M, N, p))
    return lead, (M + N).to_int(), terms


def vilenkin(J, M, N, p: QParam, xi):
    """q-Vilenkin function on xi in (-1, 1), via eta = (1+xi)/(1-xi).

    Carries the fixed phase i^(2J-M-N); at positive real q the remaining
    factor is real, and at q = 1, N = 0 these reduce to Legendre-type
    functions.
    """
    J, M, N = HalfInt.of(J), HalfInt.of(M), HalfInt.of(N)
    validate_triple(J, M, N)
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    if scalar:  # as in _as_complex: xi and [xi] give the same bits
        xi_arr = xi_arr.reshape(1)
    if np.any(xi_arr <= -1.0) or np.any(xi_arr >= 1.0):
        raise ValueError("vilenkin argument xi must lie in (-1, 1)")
    eta = (1.0 + xi_arr) / (1.0 - xi_arr)
    expo = 2 * J.twice - M.twice - N.twice
    phase = 1j ** (expo // 2)
    rad = (q_factorial((J + M).to_int(), p) * q_factorial((J + N).to_int(), p)
           / (q_factorial((J - M).to_int(), p) * q_factorial((J - N).to_int(), p)))
    if rad < 0:
        raise ValueError("negative radicand in vilenkin; circle parameter outside positivity domain")
    mn = (M + N).to_int()
    out = (phase * math.sqrt(rad) * eta ** (mn / 2.0)
           * np.asarray(q_function(J, p, eta), dtype=complex)
           * np.asarray(r_polynomial(J, M, N, p, eta), dtype=complex))
    return _ret(np.asarray(out, dtype=complex), scalar)
