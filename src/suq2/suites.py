"""Named verification suites: each checks one family of identities and
returns a list of cases with measured residuals against its tolerance.

Sample-point grids are seeded and all node counts fixed, so a suite run is
deterministic for identical inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qcore import HalfInt, QParam, Regime, j_values, m_values, q_number
from .qinner import adjoint_residual, gram, hermitian_symmetry_residual, inner
from .qops import (
    _ladder_coeff,
    apply_casimir,
    apply_h_minus,
    apply_h_plus,
    casimir_matrix,
    combine,
    matrix_irrep,
    psi_family,
    with_fixed_param,
)
from .qspecial import QFunctionMethod, default_construction, q_function, vilenkin

MATRIX_TOL = 1e-12
FUNCEQ_TOL_PRODUCT = 1e-12
FUNCEQ_TOL_INTEGRAL = 1e-8
LADDER_TOL = 1e-8
CASIMIR_TOL = 1e-8
HERMITICITY_TOL = 1e-7
CONJ_SYMMETRY_TOL = 1e-8
GRAM_TOL = 1e-6
LIMIT_SHRINK_TOL = 1.0       # residual is 8*d(h/10)/d(h); < 1 means at least linear
LIMIT_DEVIATION_TOL = 1e-5
VILENKIN_LIMIT_TOL = 1e-6
VILENKIN_CLASSICAL_TOL = 1e-12

STENCIL_N_VALUES = (0, 0.5, 1)   # the N of each ladder and casimir case
STENCIL_POINTS = 20              # off-axis sample points per ladder/casimir case
FUNCEQ_ETA_POINTS = 25           # log grid eta in [1e-2, 1e2]
LIMIT_STEPS = (1e-3, 1e-4, 1e-5)  # q = 1 + h for the q -> 1 limit; inner takes the first two

# each suite in report order: (the run_suite arguments its suite_<name>
# takes, the j_max that `all` pins whatever --J-max says or None, the
# regime the suite does not apply in or None; run_suite reads it for a
# single suite too).  Names, not functions: see _dispatch.
_SUITES = {
    "matrix": (("p", "j_max", "tol"), None, None),
    "funceq": (("p", "j_list", "tol"), None, Regime.CLASSICAL),
    "ladder": (("p", "j_max", "seed", "tol"), 3, Regime.CLASSICAL),
    "casimir": (("p", "j_max", "seed", "tol"), 3, Regime.CLASSICAL),
    "hermiticity": (("p", "j_max", "N", "seed", "tol"), 2, Regime.CLASSICAL),
    "gram": (("p", "N", "j_list", "j_max", "tol"), None, None),
    "limit": ((), None, Regime.UNIT_CIRCLE),
}
SUITE_NAMES = (*_SUITES, "all")


@dataclass(frozen=True)
class Case:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(math.isfinite(self.residual) and self.residual < self.tol)


def sample_points(n: int = 20, seed: int = 0):
    """Off-axis sample points: radii in [0.3, 3], eighth-turn phases."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.3, 3.0, n)
    phase = rng.integers(0, 8, n) * (math.pi / 4)
    u = r * np.exp(1j * phase)
    return u, np.conj(u)


def _rel(diff, *terms) -> float:
    """max |diff| over the largest magnitude among the terms it compares,
    floored at 1."""
    scale = max(1.0, *(float(np.max(np.abs(t))) for t in terms))
    return float(np.max(np.abs(diff))) / scale


def _half_range(j_max) -> list:
    j_max = HalfInt.of(j_max)
    return [HalfInt(t) for t in range(1, j_max.twice + 1)]


def suite_matrix(p: QParam, j_max=4.5, tol: float = MATRIX_TOL) -> list:
    """The irrep relations [H3, H+-] = +-H+-, [H+, H-] = [2 H3]_q, the
    Casimir = [J][J+1] and H+^dagger = H-, each residual relative to the
    largest entry among the terms it compares (entries reach 3e3 at
    J = 9/2, |ln q| ~ 1)."""
    cases = []
    for J in _half_range(j_max):
        ir = matrix_irrep(J, p)
        h3p, hp3 = ir.H3 @ ir.Hplus, ir.Hplus @ ir.H3
        h3m, hm3 = ir.H3 @ ir.Hminus, ir.Hminus @ ir.H3
        pm, mp = ir.Hplus @ ir.Hminus, ir.Hminus @ ir.Hplus
        want = np.diag([q_number(2.0 * float(m), p) for m in ir.m_list])
        cas = casimir_matrix(ir)
        cas_want = q_number(J, p) * q_number(J + 1, p) * np.eye(ir.dimension)
        hp_adj = ir.Hplus.T.conj()
        residual = max(_rel(h3p - hp3 - ir.Hplus, h3p, hp3, ir.Hplus),
                       _rel(h3m - hm3 + ir.Hminus, h3m, hm3, ir.Hminus),
                       _rel(pm - mp - want, pm, mp, want),
                       _rel(cas - cas_want, cas, cas_want),
                       _rel(hp_adj - ir.Hminus, hp_adj, ir.Hminus))
        cases.append(Case(f"matrix J={J}", residual, tol))
    return cases


def _valid_n(J: HalfInt) -> list:
    out = []
    for N in STENCIL_N_VALUES:
        N = HalfInt.of(N)
        if (J.twice - N.twice) % 2 == 0 and abs(N.twice) <= J.twice:
            out.append(N)
    return out


def suite_ladder(p: QParam, j_max=3, seed: int = 0, tol: float = LADDER_TOL) -> list:
    """H+ and H- on every member of each (J, N) tower: the neighbour times
    the matrix element, or 0 at the top and at the bottom.  Each tower is
    evaluated whole (psi_family with the tuple of its weights), so the
    members, their H+ and their H- are one psi call each."""
    u, v = sample_points(STENCIL_POINTS, seed)
    cases = []
    for J in _half_range(j_max):
        ms = tuple(m_values(J))  # descending: M + 1 sits one row up, M - 1 one down
        for N in _valid_n(J):
            tower = psi_family(J, ms, N)
            vals = tower(p, u, v)
            up = apply_h_plus(tower, N)(p, u, v)
            down = apply_h_minus(tower, N)(p, u, v)
            worst = 0.0
            for i, M in enumerate(ms):
                if M.twice < J.twice:
                    rhs = _ladder_coeff(J, M, +1, p) * vals[i - 1]
                    worst = max(worst, _rel(up[i] - rhs, rhs))
                else:
                    worst = max(worst, float(np.max(np.abs(up[i]))))
                if M.twice > -J.twice:
                    rhs = _ladder_coeff(J, M, -1, p) * vals[i + 1]
                    worst = max(worst, _rel(down[i] - rhs, rhs))
                else:
                    worst = max(worst, float(np.max(np.abs(down[i]))))
            cases.append(Case(f"ladder J={J} N={N}", worst, tol))
    return cases


def suite_casimir(p: QParam, j_max=3, seed: int = 0, tol: float = CASIMIR_TOL) -> list:
    """Both Casimir orderings on every member of each (J, N) tower against
    [J][J+1] times the member and against each other; each tower is
    evaluated whole, as in suite_ladder."""
    u, v = sample_points(STENCIL_POINTS, seed)
    cases = []
    for J in _half_range(j_max):
        for N in _valid_n(J):
            want = q_number(J, p) * q_number(J + 1, p)
            tower = psi_family(J, tuple(m_values(J)), N)
            refs = want * tower(p, u, v)
            pm = apply_casimir(tower, N, "plus_minus")(p, u, v)
            mp = apply_casimir(tower, N, "minus_plus")(p, u, v)
            worst = 0.0
            for ref, a, b in zip(refs, pm, mp):
                worst = max(worst, _rel(a - ref, ref), _rel(b - ref, ref), _rel(a - b, b))
            cases.append(Case(f"casimir J={J} N={N}", worst, tol))
    return cases


def suite_funceq(p: QParam, j_list=(0, 0.5, 1, 1.5, 2), tol: Optional[float] = None) -> list:
    """Relative residual of Q(q^2 eta)(1+eta) = Q(eta)(1+q^(-2J) eta) under
    the default construction dispatch, on a log grid eta in [1e-2, 1e2].

    Each point's |lhs - rhs| is divided by the larger of |lhs| and |rhs|,
    the size of the terms compared: rounding at their last bit is all a
    correct Q leaves.  The terms fall to about 1e-3 at eta = 1e2 (J = 2),
    so no floor at 1 is taken; they never vanish, as Q has no zero.
    """
    eta = np.logspace(-2, 2, FUNCEQ_ETA_POINTS)
    cases = []
    for J in j_list:
        J = HalfInt.of(J)
        qv = np.asarray(q_function(J, p, eta), complex)
        lhs = np.asarray(q_function(J, p, p.power(2) * eta), complex) * (1 + eta)
        rhs = qv * (1 + p.power(-2.0 * float(J)) * eta)
        residual = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))))
        integral_route = default_construction(J, p) is QFunctionMethod.INTEGRAL_EXP
        case_tol = tol if tol is not None else (
            FUNCEQ_TOL_INTEGRAL if integral_route else FUNCEQ_TOL_PRODUCT)
        cases.append(Case(f"funceq J={J}", residual, case_tol))
    return cases


def _span_pairs(j_max, N: HalfInt, seed):
    """Three pairs of random combinations, of 3 and of 2 distinct members
    of the N tower up to j_max; a tower of fewer than 3 members raises."""
    states = []
    for J in j_values(N, j_max):
        states.extend(psi_family(J, M, N) for M in m_values(J))
    if len(states) < 3:
        raise ValueError(f"hermiticity span pairs need at least 3 basis states; the N={N} "
                         f"tower up to --J-max {HalfInt.of(j_max)} has {len(states)}")
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(3):
        idx_f = rng.choice(len(states), size=3, replace=False)
        idx_g = rng.choice(len(states), size=2, replace=False)
        f = combine(rng.normal(size=3) + 1j * rng.normal(size=3), [states[i] for i in idx_f])
        g = combine(rng.normal(size=2) + 1j * rng.normal(size=2), [states[i] for i in idx_g])
        pairs.append((f, g))
    return pairs


def suite_hermiticity(p: QParam, j_max=2, N=0, seed: int = 0,
                      tol: float = HERMITICITY_TOL) -> list:
    if p.regime is Regime.CLASSICAL:
        raise ValueError("hermiticity suite needs a deformed parameter (q != 1)")
    N_h = HalfInt.of(N)
    pairs = _span_pairs(j_max, N_h, seed)
    j0 = HalfInt(abs(N_h.twice) + 2)  # smallest tower member with >= 2 states
    cases = [Case("adjoint basis pair",
                  adjoint_residual(psi_family(j0, j0, N_h), psi_family(j0, j0 - 1, N_h),
                                   p, N_h),
                  tol)]
    for i, (f, g) in enumerate(pairs, 1):
        cases.append(Case(f"adjoint span pair {i}", adjoint_residual(f, g, p, N_h), tol))
        cases.append(Case(f"conjugate symmetry pair {i}",
                          hermitian_symmetry_residual(f, g, p), CONJ_SYMMETRY_TOL))
    return cases


def suite_gram(p: QParam, N=0, j_list: Optional[Sequence] = None, j_max=2,
               tol: float = GRAM_TOL) -> list:
    if j_list is None:
        j_list = j_values(N, j_max)
    rep = gram(N, j_list, p)
    label = ",".join(str(HalfInt.of(J)) for J in j_list) or "(empty)"
    residual = max(rep.max_offdiag, rep.max_diag_dev) if rep.labels else 0.0
    return [Case(f"gram N={HalfInt.of(N)} J={{{label}}}", residual, tol)]


# classical Legendre-type references for the q -> 1 check: value is
# (-i)^M sqrt((J-M)!/(J+M)!) P_J^M(xi) with Condon-Shortley P_J^M
_LEGENDRE = {
    (0, 0): lambda x: np.ones_like(x),
    (1, 0): lambda x: x,
    (1, 1): lambda x: -np.sqrt(1 - x ** 2),
    (2, 0): lambda x: (3 * x ** 2 - 1) / 2,
    (2, 1): lambda x: -3 * x * np.sqrt(1 - x ** 2),
    (2, 2): lambda x: 3 * (1 - x ** 2),
    (3, 0): lambda x: (5 * x ** 3 - 3 * x) / 2,
    (3, 2): lambda x: 15 * x * (1 - x ** 2),
    (3, 3): lambda x: -15 * (1 - x ** 2) ** 1.5,
}


def _legendre_reference(J: int, M: int, xi):
    J, M = int(J), int(M)
    scale = math.sqrt(math.factorial(J - M) / math.factorial(J + M))
    return (-1j) ** M * scale * _LEGENDRE[(J, M)](xi)


def suite_limit() -> list:
    """q -> 1 behavior: deformed inner products of parameter-pinned pairs
    approach the classical values (deviation even in ln q, so the measured
    shrink is quadratic; the pass condition only demands at-least-linear),
    and q-Vilenkin values extrapolated to h = 0 from the three steps of
    LIMIT_STEPS (the quadratic through them) hit the Legendre-type
    references.  The Vilenkin deviation really is O(q-1): the factor
    products are not symmetric under q -> 1/q, so odd powers survive."""
    h1, h2 = LIMIT_STEPS[:2]
    p_cl = QParam.classical()
    cases = []
    for (J, M, N) in [(1, 0, 0), (1, 1, 0), (1.5, 0.5, 0.5)]:
        fam = with_fixed_param(psi_family(J, M, N), p_cl)
        cl = inner(fam, fam, p_cl)
        d1 = abs(inner(fam, fam, QParam.positive_real(1 + h1)) - cl)
        d2 = abs(inner(fam, fam, QParam.positive_real(1 + h2)) - cl)
        tag = f"(J={HalfInt.of(J)},M={HalfInt.of(M)},N={HalfInt.of(N)})"
        cases.append(Case(f"inner limit {tag} deviation", d1, LIMIT_DEVIATION_TOL))
        cases.append(Case(f"inner limit {tag} shrink", 8.0 * d2 / d1, LIMIT_SHRINK_TOL))

    xi = np.linspace(-0.8, 0.8, 9)
    # the Lagrange weights of the value at h = 0
    weights = [math.prod(hj / (hj - hi) for hj in LIMIT_STEPS if hj != hi)
               for hi in LIMIT_STEPS]
    for (J, M) in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        extrap = sum(w * np.asarray(vilenkin(J, M, 0, QParam.positive_real(1 + h), xi))
                     for w, h in zip(weights, LIMIT_STEPS))
        residual = float(np.max(np.abs(extrap - _legendre_reference(J, M, xi))))
        cases.append(Case(f"vilenkin limit (J={J},M={M})", residual, VILENKIN_LIMIT_TOL))
    # at q = 1 exactly the values must hit the references at full precision,
    # on every row of the table, not only the four extrapolated above
    for (J, M) in sorted(_LEGENDRE):
        v = np.asarray(vilenkin(J, M, 0, p_cl, xi))
        residual = float(np.max(np.abs(v - _legendre_reference(J, M, xi))))
        cases.append(Case(f"vilenkin classical (J={J},M={M})", residual,
                          VILENKIN_CLASSICAL_TOL))
    return cases


def suite_args(name: str, regime: Regime) -> tuple:
    """The run_suite arguments that suite `name` reads in this regime: those
    of its _SUITES entry, or for `all` those of the suites it runs there,
    less j_list and tol, which `all` does not pass on."""
    if name != "all":
        return _SUITES[name][0]
    return tuple(dict.fromkeys(arg for args, _, skip in _SUITES.values() if regime is not skip
                               for arg in args if arg not in ("j_list", "tol")))


def _dispatch(name: str, **given) -> list:
    # looked up by name at call time, so a rebound suite function is the one
    # that runs; a None argument leaves the suite's own default in place
    fn = globals()[f"suite_{name}"]
    return fn(**{k: given[k] for k in _SUITES[name][0] if given.get(k) is not None})


def run_suite(name: str, p: QParam, j_max=None, j_list=None, N=0,
              seed: int = 0, tol: Optional[float] = None) -> list:
    """Run a named suite; each argument left None takes the suite's default.

    A suite applies in every regime but the one _SUITES skips it in: `all`
    runs those that apply, without j_list or tol, and a single suite that
    does not apply raises ValueError, as does a single suite with no case
    (a --J-max below the first J of its range).
    """
    if name == "all":
        cases = []
        for sub, (_, pinned, skip) in _SUITES.items():
            if p.regime is not skip:
                cases += _dispatch(sub, p=p, j_max=pinned or j_max, N=N, seed=seed)
        return cases
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if p.regime is _SUITES[name][2]:
        raise ValueError(f"suite {name} does not apply in the {p.regime.value} regime")
    cases = _dispatch(name, p=p, j_max=j_max, j_list=j_list, N=N, seed=seed, tol=tol)
    if not cases:  # a J range with no member; the empty gram tower still has its case
        at = "" if j_max is None else f" at --J-max {HalfInt.of(j_max)}"
        raise ValueError(f"suite {name} has no case to run{at}")
    return cases
