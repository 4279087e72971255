"""Named verification suites: each checks one family of identities and
returns a list of cases with measured residuals against its tolerance.

Sample-point grids are seeded and all node counts fixed, so a suite run is
deterministic for identical inputs.  The draws come from the standard
library's random.Random, which the interpreter has loaded already:
importing numpy.random for a few dozen draws took about 25 ms of each CLI
call.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qcore import (
    HalfInt,
    QParam,
    Regime,
    check_form_tower,
    check_tower,
    j_values,
    m_values,
    q_number,
)
from .qinner import _products, gram
from .qops import (
    apply_h_minus,
    apply_h_plus,
    casimir_matrix,
    matrix_irrep,
    psi_family,
    psi_tower,
    with_fixed_param,
)
from .qspecial import _psi_record, q_function, vilenkin

MATRIX_TOL = 1e-12
FUNCEQ_TOL_PRODUCT = 1e-12
FUNCEQ_TOL_INTEGRAL = 1e-10
STENCIL_TOL = 1e-8
HERMITICITY_TOL = 1e-7
CONJ_SYMMETRY_TOL = 1e-8
GRAM_TOL = 1e-6
LIMIT_SHRINK_TOL = 1.0       # residual is 8*d(h/10)/d(h); < 1 means at least linear
LIMIT_DEVIATION_TOL = 1e-5
VILENKIN_LIMIT_TOL = 1e-9
VILENKIN_CLASSICAL_TOL = 1e-12

STENCIL_N_VALUES = (0, 0.5, 1)   # the N of each ladder and casimir case
STENCIL_POINTS = 20              # off-axis sample points per ladder/casimir case
GRAM_J_MAX = 2                   # the top of gram's tower when no J is given
FUNCEQ_ETA_POINTS = 25           # log grid eta in [1e-2, 1e2]
LIMIT_STEPS = (1e-3, 1e-4, 1e-5)  # q = 1 + h for the q -> 1 limit; inner takes the first two

# each suite in report order: (the run_suite arguments its suite_<name>
# takes, the regime the suite does not apply in or None).  Names, not
# functions: run_suite looks each suite function up when it runs it.
_SUITES = {
    "matrix": (("p", "j_max", "tol"), None),
    "funceq": (("p", "j_list", "tol"), Regime.CLASSICAL),
    "ladder": (("p", "j_max", "seed", "tol"), Regime.CLASSICAL),
    "casimir": (("p", "j_max", "seed", "tol"), Regime.CLASSICAL),
    "hermiticity": (("p", "j_max", "N", "tol"), Regime.CLASSICAL),
    "gram": (("p", "N", "j_list", "j_max", "tol"), None),
    "limit": ((), Regime.UNIT_CIRCLE),
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


def _rng(seed: int) -> random.Random:
    """The generator of a suite's draws; a negative seed is refused, where
    random.Random would take it for its absolute value."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def sample_points(n: int = STENCIL_POINTS, seed: int = 0):
    """Off-axis sample points: radii uniform in [0.3, 3], then phases
    uniform over the eight eighth-turns."""
    rng = _rng(seed)
    r = np.array([rng.uniform(0.3, 3.0) for _ in range(n)])
    phase = np.array([rng.randrange(8) for _ in range(n)]) * (math.pi / 4)
    u = r * np.exp(1j * phase)
    return u, np.conj(u)


def _rel(diff, *terms) -> float:
    """max |diff| over the largest magnitude among the terms it compares,
    floored at 1."""
    scale = max(1.0, *(float(np.max(np.abs(t))) for t in terms))
    return float(np.max(np.abs(diff))) / scale


def _rel_rows(diff, *terms) -> float:
    """The largest over the leading rows of _rel of each row, in one pass."""
    def row_max(x):
        return np.max(np.abs(x).reshape(len(x), -1), axis=1)
    scale = np.maximum(1.0, np.max([row_max(t) for t in terms], axis=0))
    return float(np.max(row_max(diff) / scale))


def _half_range(j_max):
    """J = 1/2, 1, ..., j_max, made one at a time: a suite that a J refuses
    stops before the labels past it are made."""
    return map(HalfInt, range(1, HalfInt.of(j_max).twice + 1))


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


@functools.lru_cache(maxsize=1)
def _towers(p: QParam, j_max: HalfInt, seed: int) -> tuple:
    """(J, N, *psi_tower) at the seeded sample points, for J = 1/2, 1, ...,
    j_max and each N of STENCIL_N_VALUES in J's class with |N| <= J, in that
    order.  The towers are checked one at a time, as psi would refuse them
    before it evaluates (the labels, the circle's sector and [2J+1]!, then
    the record of each weight), so the first that psi refuses stops the suite
    before a label past it is made; then each N takes one psi_tower call on
    all its J.  The last evaluation is kept, read-only, so the second
    stencil suite of an `all` run reads the first one's; a refusal is not
    kept and recurs on every call."""
    labels = []
    for J in _half_range(j_max):
        for N in map(HalfInt.of, STENCIL_N_VALUES):
            if (J.twice - N.twice) % 2 == 0 and abs(N.twice) <= J.twice:
                check_tower(N, (J,), p)
                for M in m_values(J):
                    _psi_record(J, M, N, p)
                labels.append((J, N))
    u, v = sample_points(STENCIL_POINTS, seed)
    rows = {}  # (J, N) -> its slice of the stacked rows of its N
    for N in dict.fromkeys(N for _, N in labels):
        js = tuple(J for J, n in labels if n == N)
        batch = psi_tower(js, N, p, u, v)
        for arr in batch:
            arr.flags.writeable = False
        start = 0
        for J in js:
            rows[J, N] = [arr[start:start + J.twice + 1] for arr in batch]
            start += J.twice + 1
    return tuple((J, N, *rows[J, N]) for J, N in labels)


def suite_ladder(p: QParam, j_max=3, seed: int = 0, tol: float = STENCIL_TOL) -> list:
    """H+ and H- on every member of each (J, N) tower against the transposed
    irrep matrices acting on the tower's rows: the neighbour times the
    matrix element, or 0 at the top and at the bottom.  The towers of each
    N are evaluated by one psi_tower call (_towers), which keeps that
    evaluation for suite_casimir at the same (p, j_max, seed)."""
    cases = []
    for J, N, vals, h_plus, h_minus, _ in _towers(p, HalfInt.of(j_max), seed):
        ir = matrix_irrep(J, p)  # after psi_tower: psi's sector refusal comes first
        worst = 0.0
        for got, mat in ((h_plus, ir.Hplus), (h_minus, ir.Hminus)):
            # einsum, not @: a complex @ goes through BLAS, whose first call
            # raises the process's peak memory
            want = np.einsum("ki,kn->in", mat, vals)
            worst = max(worst, _rel_rows(got - want, want))
        cases.append(Case(f"ladder J={J} N={N}", worst, tol))
    return cases


def suite_casimir(p: QParam, j_max=3, seed: int = 0, tol: float = STENCIL_TOL) -> list:
    """The Casimir on every member of each (J, N) tower against [J][J+1]
    times the member; the towers are evaluated as in suite_ladder, and in
    an `all` run are the evaluation that suite_ladder left in _towers."""
    cases = []
    for J, N, vals, _, _, cas in _towers(p, HalfInt.of(j_max), seed):
        refs = q_number(J, p) * q_number(J + 1, p) * vals
        cases.append(Case(f"casimir J={J} N={N}", _rel_rows(cas - refs, refs), tol))
    return cases


def suite_funceq(p: QParam, j_list=(0, 0.5, 1, 1.5, 2), tol: Optional[float] = None) -> list:
    """Relative residual of Q(q^2 eta)(1+eta) = Q(eta)(1+q^(-2J) eta) under
    q_function, on a log grid eta in [1e-2, 1e2].

    Each point's |lhs - rhs| is divided by the larger of |lhs| and |rhs|,
    the size of the terms compared: rounding at their last bit is all a
    correct Q leaves.  The terms fall to about 1e-3 at eta = 1e2 (J = 2),
    so no floor at 1 is taken; on this positive grid they never vanish, as
    Q has no zero off the negative real axis.
    """
    eta = np.logspace(-2, 2, FUNCEQ_ETA_POINTS)
    cases = []
    for J in j_list:
        J = HalfInt.of(J)
        qv = np.asarray(q_function(J, p, eta), complex)
        lhs = np.asarray(q_function(J, p, p.power(2) * eta), complex) * (1 + eta)
        rhs = qv * (1 + p.power(-2.0 * float(J)) * eta)
        residual = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))))
        integral_route = p.regime is Regime.UNIT_CIRCLE and not J.is_integer()
        case_tol = tol if tol is not None else (
            FUNCEQ_TOL_INTEGRAL if integral_route else FUNCEQ_TOL_PRODUCT)
        cases.append(Case(f"funceq J={J}", residual, case_tol))
    return cases


def suite_hermiticity(p: QParam, j_max=2, N=0, tol: float = HERMITICITY_TOL) -> list:
    """H+ against the adjoint of H- on the whole N tower up to j_max, in one
    _products call.  For every pair of members with M_a = M_b + 1 it takes
    A+_ab = <psi_a|H+ psi_b> and A-_ab = <H- psi_a|psi_b>: for f = sum c_a psi_a
    and g = sum d_b psi_b, <f|H+ g> - <H- f|g> = c^dagger (A+ - A-) d, and the
    pairs of any other M share no mode.  The cases:

      adjoint tower       max |A+ - A-|
      irrep elements      max |A+_ab - delta_(J_a J_b) <M_a|H+|M_b>|, the
                          element of matrix_irrep, as the basis is orthonormal
      conjugate symmetry  max |<psi_a|psi_b> - conj <psi_b|psi_a>| over the
                          pairs of equal M, each product computed on its own
      adjoint basis pair  |A+ - A-| for psi_(j0, j0) and psi_(j0, j0 - 1),
                          j0 = |N| + 1, which may lie above j_max

    A tower past psi's reach is refused before its labels are made
    (j_values), one of fewer than 3 states raises, and j0 is held to the
    scalar product's bound."""
    N, j_max = HalfInt.of(N), HalfInt.of(j_max)
    states = [(J, M) for J in j_values(N, j_max, p) for M in m_values(J)]
    if len(states) < 3:
        raise ValueError(f"hermiticity span pairs need at least 3 basis states; the N={N} "
                         f"tower up to --J-max {j_max} has {len(states)}")
    j0 = HalfInt(abs(N.twice) + 2)  # smallest tower member with >= 2 states
    check_form_tower(N, (j0,), p)  # j0 may lie above the tower's j_max
    by_m = {}
    for s in states:
        by_m.setdefault(s[1], []).append(s)
    ladder = [(a, b) for a in states for b in by_m.get(a[1] - 1, ())]
    basis = ((j0, j0), (j0, j0 - 1))
    members = {s: psi_family(*s, N) for s in dict.fromkeys((*states, *basis))}
    plus = {s: apply_h_plus(f, N) for s, f in members.items()}
    minus = {s: apply_h_minus(f, N) for s, f in members.items()}
    sides = {"plus": (members, plus), "minus": (minus, members), "like": (members, members)}
    # A+ and A- of each ladder pair and of the basis pair, then each like-M
    # product; a pair asked for twice is one product
    keys = list(dict.fromkeys(
        [(kind, a, b) for a, b in (*ladder, basis) for kind in ("plus", "minus")]
        + [("like", a, b) for a in states for b in by_m[a[1]]]))
    vals = dict(zip(keys, _products([(sides[k][0][a], sides[k][1][b]) for k, a, b in keys], p)))
    irreps = {J: matrix_irrep(J, p) for J in dict.fromkeys(J for J, _ in states)}

    def element(a, b):  # <M_a|H+|M_b> of J_a's irrep, 0 across J
        if a[0] != b[0]:
            return 0.0
        return irreps[a[0]].Hplus[(a[0] - a[1]).to_int(), (b[0] - b[1]).to_int()]

    def adjoint(a, b):
        return abs(vals["plus", a, b] - vals["minus", a, b])

    return [
        Case("adjoint tower", max(adjoint(a, b) for a, b in ladder), tol),
        Case("irrep elements", max(abs(vals["plus", a, b] - element(a, b)) for a, b in ladder),
             tol),
        Case("conjugate symmetry", max(abs(vals[k] - np.conj(vals["like", k[2], k[1]]))
                                       for k in keys if k[0] == "like"), CONJ_SYMMETRY_TOL),
        Case("adjoint basis pair", adjoint(*basis), tol),
    ]


def suite_gram(p: QParam, N=0, j_list: Optional[Sequence] = None, j_max=GRAM_J_MAX,
               tol: float = GRAM_TOL) -> list:
    """The Gram matrix of the N tower up to j_max, or of the levels j_list,
    against the identity; a tower of no state raises, as in suite_hermiticity."""
    if j_list is None:
        j_list = j_values(N, j_max, p)  # refused before a tall tower's labels are made
    if not j_list:
        raise ValueError(f"gram needs at least 1 basis state; the N={HalfInt.of(N)} "
                         f"tower up to --J-max {HalfInt.of(j_max)} has 0")
    rep = gram(N, j_list, p)
    label = ",".join(str(HalfInt.of(J)) for J in j_list)
    return [Case(f"gram N={HalfInt.of(N)} J={{{label}}}",
                 max(rep.max_offdiag, rep.max_diag_dev), tol)]


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
    labels = [(1, 0, 0), (1, 1, 0), (1.5, 0.5, 0.5)]
    fams = [with_fixed_param(psi_family(J, M, N)) for J, M, N in labels]
    # the three pinned pairs of one q are one scalar-product call
    cl, at_h1, at_h2 = (_products([(f, f) for f in fams], p)
                        for p in (QParam.classical(), QParam.positive_real(1 + h1),
                                  QParam.positive_real(1 + h2)))
    cases = []
    for (J, M, N), c, x1, x2 in zip(labels, cl, at_h1, at_h2):
        d1, d2 = abs(x1 - c), abs(x2 - c)
        tag = f"(J={HalfInt.of(J)},M={HalfInt.of(M)},N={HalfInt.of(N)})"
        cases.append(Case(f"inner limit {tag} deviation", d1, LIMIT_DEVIATION_TOL))
        cases.append(Case(f"inner limit {tag} shrink", 8.0 * d2 / d1, LIMIT_SHRINK_TOL))

    xi = np.linspace(-0.8, 0.8, 9)
    # the Lagrange weights of the value at h = 0
    weights = [math.prod(hj / (hj - hi) for hj in LIMIT_STEPS if hj != hi)
               for hi in LIMIT_STEPS]
    # one vilenkin call per (J, q), on the weights of J that a case reads
    for J, ms in ((1, (0, 1)), (2, (1, 2))):
        extrap = sum(w * vilenkin(J, ms, 0, QParam.positive_real(1 + h), xi)
                     for w, h in zip(weights, LIMIT_STEPS))
        for M, row in zip(ms, extrap):
            residual = float(np.max(np.abs(row - _legendre_reference(J, M, xi))))
            cases.append(Case(f"vilenkin limit (J={J},M={M})", residual, VILENKIN_LIMIT_TOL))
    # at q = 1 exactly the values must hit the references at full precision,
    # on every row of the table, not only the four extrapolated above
    for J in sorted({J for J, _ in _LEGENDRE}):
        ms = tuple(M for j, M in sorted(_LEGENDRE) if j == J)
        for M, v in zip(ms, vilenkin(J, ms, 0, QParam.classical(), xi)):
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
    return tuple(dict.fromkeys(arg for args, skip in _SUITES.values() if regime is not skip
                               for arg in args if arg not in ("j_list", "tol")))


def run_suite(name: str, p: QParam, j_max=None, j_list=None, N=None, seed=None,
              tol: Optional[float] = None) -> list:
    """Run a named suite; each argument left None takes the suite's default.

    A suite applies in every regime but the one _SUITES skips it in: `all`
    runs each that applies as a single suite, with the same j_max, N and
    seed and without j_list or tol, so it raises where one of them would.  A
    single suite that does not apply raises ValueError, as does one with no
    case (a --J-max below its first J), and gram and hermiticity raise on a
    tower too small to test.
    """
    if name == "all":
        return [case for sub, (_, skip) in _SUITES.items() if p.regime is not skip
                for case in run_suite(sub, p, j_max=j_max, N=N, seed=seed)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    args, skip = _SUITES[name]
    if p.regime is skip:
        raise ValueError(f"suite {name} does not apply in the {p.regime.value} regime")
    given = {"p": p, "j_max": j_max, "j_list": j_list, "N": N, "seed": seed, "tol": tol}
    # looked up by name at call time, so a rebound suite function is the one
    # that runs; a None argument leaves the suite's own default in place
    cases = globals()[f"suite_{name}"](**{k: given[k] for k in args if given[k] is not None})
    if not cases:  # a J range with no member
        at = "" if j_max is None else f" at --J-max {HalfInt.of(j_max)}"
        raise ValueError(f"suite {name} has no case to run{at}")
    return cases
