"""Deterministic work counts (no timing): no Gauss-Legendre rule is built,
and every distinct argument of Q_{1/2} is evaluated once, by two L
quadratures on the circle and by one product at J = 1/2 at real q; psi
builds each (J, M, N, p) record once and evaluates each distinct input
once, and a built basis family or tower checks no label again; the
stencil suites evaluate the towers of each N in one stencil
evaluation, each tower whole and its shifted rows from one Q_{1/2} per
point, and the second of them reads the first one's evaluation; the suite scalar
products of one batch that share the same modes are one converged radial
integral, and at least 95% of the products take one integrand call; gram
hands over only the pairs of equal weight M.  Each test empties the
memos whose hits would hide the evaluations it counts, and starts without
the tower evaluation that the stencil suites keep."""
from collections import Counter

import numpy as np
import pytest

from suq2 import qcore, qinner, qops, qspecial, quadrature, suites
from suq2.qcore import HalfInt, QParam, Regime, m_values
from suq2.suites import STENCIL_N_VALUES, run_suite


@pytest.fixture(autouse=True)
def _cold_towers():
    """No test reads a tower evaluation that an earlier one left in _towers."""
    suites._towers.cache_clear()


def _empty(monkeypatch, memo):
    """Empty one of qspecial's memos for the test."""
    monkeypatch.setattr(memo, "entries", {})
    monkeypatch.setattr(memo, "nbytes", 0)


def _spy(monkeypatch, owner, name, key=lambda *args, **kw: args, calls=None):
    """Rebind owner.name to append key(*args, **kw) to calls (a new list by
    default) on every call and then call through; return calls."""
    calls = [] if calls is None else calls
    fn = getattr(owner, name)

    def spied(*args, **kw):
        calls.append(key(*args, **kw))
        return fn(*args, **kw)

    monkeypatch.setattr(owner, name, spied)
    return calls


def _record_q_half(monkeypatch):
    """The exact arguments of every request for Q_{1/2}, hit or miss."""
    return _spy(monkeypatch, qspecial, "_q_half",
                key=lambda J, p, arr: (p, arr.shape, arr.tobytes()))


def _record_members(monkeypatch):
    """The (J, ms, N, p) of every basis-member evaluation through qops: its
    values and the rows on the eta-shifts that the stencils read, both
    through qspecial's one psi entry (_psi), whose weights ms are a tuple."""
    return _spy(monkeypatch, qops, "_psi", key=lambda J, ms, N, p, *rest, **kw: (J, ms, N, p))


def _count_norm_constants(monkeypatch):
    """The (J, M, N, p) of every normalization constant, which _psi_record reads."""
    return _spy(monkeypatch, qspecial, "_norm_constant", key=lambda J, M, N, p, fact: (J, M, N, p))


def test_casimir_suite_evaluates_each_q_half_argument_once_and_no_leggauss(monkeypatch):
    _empty(monkeypatch, qspecial._psi_memo)
    _empty(monkeypatch, qspecial._q_half_memo)

    # a Gauss rule is built by numpy's leggauss or from the eigenvalues of
    # its Jacobi matrix; count both
    built = []
    quadratures = _spy(monkeypatch, qspecial, "_l_quadrature")
    evaluations = _spy(monkeypatch, qspecial, "q_integral_exp")
    keys = _record_q_half(monkeypatch)
    for owner, name in ((np.polynomial.legendre, "leggauss"), (np.linalg, "eigvalsh"),
                        (np.linalg, "eigh")):
        _spy(monkeypatch, owner, name, key=lambda *args, name=name, **kw: name, calls=built)
    cases = run_suite("casimir", QParam.unit_circle(0.2))

    assert cases and all(c.passed for c in cases)
    assert built == []  # l_function's Gauss-Kronrod pair is a module constant
    assert len(keys) > len(set(keys))  # the stencils do revisit arguments
    assert len(evaluations) == len(set(keys))
    assert len(quadratures) == 2 * len(set(keys))  # L at q^-2 eta and at q^-1 eta


@pytest.mark.parametrize("suite,q,N,repeats", [("casimir", 0.8, 0, False),
                                               ("hermiticity", 1.3, 0.5, True)])
def test_real_q_suite_runs_each_product_and_each_psi_record_once(monkeypatch, suite, q, N, repeats):
    _empty(monkeypatch, qspecial._psi_memo)
    _empty(monkeypatch, qspecial._q_half_memo)
    qspecial._psi_record.cache_clear()

    products = _spy(monkeypatch, qspecial, "_infinite_product",
                    key=lambda J, q, arr: (J, q, arr.shape, arr.tobytes()))
    keys = _record_q_half(monkeypatch)
    members = _record_members(monkeypatch)
    norm_constants = _count_norm_constants(monkeypatch)
    try:
        cases = run_suite(suite, QParam.positive_real(q), N=N)
    finally:
        qspecial._psi_record.cache_clear()

    assert cases and all(c.passed for c in cases)
    # a tower call reads the record of each of its weights
    records = [(J, m, N, p) for J, ms, N, p in members for m in ms]
    assert len(keys) > len(set(keys))  # the stencils and the quadratures revisit arguments
    assert len(products) == len(set(products)) == len(set(keys))
    # casimir reads each record in its one call per tower on the shifts; the
    # scalar products of hermiticity ask again
    assert (len(records) > len(set(records))) is repeats
    assert len(norm_constants) == len(set(norm_constants)) == len(set(records))


def test_memo_bound_evicts_nothing_in_a_real_q_all_run(monkeypatch):
    # at its byte bound the Q_{1/2} memo keeps every distinct input of the
    # largest real-q run recorded in the golden gate
    _empty(monkeypatch, qspecial._q_half_memo)
    _empty(monkeypatch, qspecial._psi_memo)
    products = _spy(monkeypatch, qspecial, "_infinite_product")
    keys = _record_q_half(monkeypatch)
    cases = run_suite("all", QParam.positive_real(2.5), N=0.5, seed=3)
    assert cases and all(c.passed for c in cases)
    assert len(keys) > len(set(keys)) == len(products)
    assert qspecial._q_half_memo.nbytes <= qspecial.MEMO_MAX_BYTES


def test_real_q_all_run_evaluates_each_distinct_psi_input_once(monkeypatch):
    # at its byte bound the psi memo keeps every input of this run that
    # recurs: the stencils' dilations and the scalar products' nodes that
    # more than one suite asks for
    _empty(monkeypatch, qspecial._psi_memo)
    evaluated = _spy(monkeypatch, qspecial, "_psi_rows",
                     key=lambda J, ms, N, p, u, v, stepped=False: (
                         J, ms, N, p, stepped, u.shape, v.shape, u.tobytes() + v.tobytes()))
    calls = _record_members(monkeypatch)
    cases = run_suite("all", QParam.positive_real(2.5), N=0.5, seed=3)
    assert cases and all(c.passed for c in cases)
    assert len(evaluated) == len(set(evaluated)) == 88
    # 97 of the 185 calls (158 for members' values, 27 on the stencils'
    # shifts) are repeats; gram's batch asks for each state once per form
    # term and level, not once per pair.  194 calls when casimir repeated ladder's 9
    # tower calls, and 99 evaluations when the limit suite's vilenkin took
    # one weight a call
    assert len(calls) == 185
    assert qspecial._psi_memo.nbytes <= qspecial.MEMO_MAX_BYTES


@pytest.mark.parametrize("q", [0.6, 2.5])
def test_real_q_all_run_runs_the_product_at_j_half_only(monkeypatch, q):
    # half-integer J >= 3/2 divides Q_{1/2} by finite-product factors
    _empty(monkeypatch, qspecial._q_half_memo)
    _empty(monkeypatch, qspecial._psi_memo)
    products = _spy(monkeypatch, qspecial, "_infinite_product")
    cases = run_suite("all", QParam.positive_real(q), N=0.5, seed=3)
    assert cases and all(c.passed for c in cases)
    assert products and {J for J, _, _ in products} == {HalfInt.of(0.5)}


@pytest.mark.parametrize("p,seed,quadratures,products", [
    (QParam.unit_circle(0.2), 3, 14, 0), (QParam.positive_real(0.367879), None, 0, 11)],
    ids=["tau0.2-seed3", "q0.367879"])
def test_all_run_at_n_half_evaluation_count(monkeypatch, p, seed, quadratures, products):
    # the runs that separate memos of L and of the product made: a memo
    # keyed on Q_{1/2}'s argument loses none of their repeats.  Each distinct
    # argument is evaluated once, by two quadratures or by one product.  On
    # the circle the scalar products evaluate psi at q alone, their second
    # form term mirroring the first (30 quadratures when both terms ran).
    # The stencils' shifted rows take Q_{1/2} from their shift-0 row: 18
    # quadratures and 15 products when each row took its own
    _empty(monkeypatch, qspecial._q_half_memo)
    _empty(monkeypatch, qspecial._psi_memo)
    runs = {name: _spy(monkeypatch, qspecial, name)
            for name in ("_l_quadrature", "_infinite_product")}
    keys = _record_q_half(monkeypatch)
    cases = run_suite("all", p, N=0.5, seed=seed)
    assert cases and all(c.passed for c in cases)
    assert len(keys) > len(set(keys))
    assert len(runs["_l_quadrature"]) == quadratures
    assert len(runs["_infinite_product"]) == products
    per_argument = 2 if p.regime is Regime.UNIT_CIRCLE else 1
    assert quadratures + products == per_argument * len(set(keys))


def test_circle_all_run_evaluates_no_psi_at_the_inverse_parameter(monkeypatch):
    # the scalar products' second form term, at q^-1, reads the conjugates
    # of the first term's component values; every psi is asked for at q
    _empty(monkeypatch, qspecial._psi_memo)
    members = _record_members(monkeypatch)
    evaluated = _spy(monkeypatch, qspecial, "_psi_rows", key=lambda J, ms, N, p, *rest, **kw: p)
    p = QParam.unit_circle(0.2)
    cases = run_suite("all", p)
    assert cases and all(c.passed for c in cases)
    assert any(c.name.startswith("adjoint span pair") for c in cases)
    params = [param for *_, param in members]
    assert set(params) == set(evaluated) == {p}


@pytest.mark.parametrize("tau", [0.2, -0.05, 0.01])
def test_every_l_quadrature_starts_on_the_same_24_panels(monkeypatch, tau):
    # points with |eta| > 1 are integrated at 1/eta, so the first round's
    # panels are a function of tau alone, whatever |eta| the call holds
    firsts = []
    quadrature, panel_sums = qspecial._l_quadrature, qspecial._l_panel_sums

    def recorded_quadrature(p, arr):
        firsts.append(None)
        return quadrature(p, arr)

    def recorded_panel_sums(points, t, g):
        if firsts[-1] is None:
            firsts[-1] = (t, g)
        return panel_sums(points, t, g)

    monkeypatch.setattr(qspecial, "_l_quadrature", recorded_quadrature)
    monkeypatch.setattr(qspecial, "_l_panel_sums", recorded_panel_sums)
    p = QParam.unit_circle(tau)
    for eta in (0.0, 1e-300, 0.5, 1.0, 1 + 1e-9, 30.0, 1e80 * np.exp(2.5j), 1e300,
                np.array([1e-3, 2 + 5j, 1e250])):
        qspecial.l_function(p, eta)
    t, g = firsts[0]
    assert t.shape == (24, 21)
    assert all(np.array_equal(ti, t) and np.array_equal(gi, g) for ti, gi in firsts)


def test_psi_errors_fire_on_every_call(monkeypatch):
    qspecial._psi_record.cache_clear()
    norm_constants = _count_norm_constants(monkeypatch)
    # at tau = 0.01 the norm of (50, -49, 0) underflows to 0
    p = QParam.unit_circle(0.01)
    for _ in range(3):
        with pytest.raises(ValueError, match="leaves the float range"):
            qspecial.psi(50, -49, 0, p, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"\|M\| <= J"):
            qspecial.psi(1, 2, 0, p, 0.5, 0.5)
    assert len(norm_constants) == 3
    assert qspecial._psi_record.cache_info().currsize == 0


def test_cap_checks_format_their_messages_only_on_refusal(monkeypatch):
    # R's steps and start factors and Q's finite factors are checked against
    # the cap on every evaluation; below it no label is formatted
    qspecial._psi_record.cache_clear()
    formatted = []
    text = HalfInt.__str__
    monkeypatch.setattr(HalfInt, "__str__", lambda self: formatted.append(self) or text(self))
    p, eta = QParam.positive_real(1.3), np.array([0.5, 2.0])
    qspecial.r_polynomial(3, -2, -1, p, eta)
    qspecial.q_function(3, p, eta)
    qspecial.psi(3, (2, -1), 1, p, eta, eta)
    assert formatted == []
    with pytest.raises(ValueError, match="^Q_J for J = 100001 needs 100001 finite factors, past"):
        qspecial.q_function(100001, p, eta)
    assert formatted


@pytest.mark.parametrize("p,N", [(QParam.positive_real(0.8), 0.5), (QParam.unit_circle(0.2), 0)],
                         ids=["q0.8-N0.5", "tau0.2"])
def test_suite_scalar_products_stay_on_the_radial_path(monkeypatch, p, N):
    errors, products = [], []
    radial_integral, batch = qinner.radial_integral, qinner._products

    def recorded_radial_integral(F):
        res = radial_integral(F)
        errors.append(res.error)
        return res

    def recorded_products(pairs, p):
        common = [tuple(sorted({m for _, _, m in f.meta} & {m for _, _, m in g.meta}))
                  for f, g in pairs]
        vals = batch(pairs, p)
        products.append((set(common) - {()}, list(zip(common, vals))))
        return vals

    monkeypatch.setattr(qinner, "radial_integral", recorded_radial_integral)
    monkeypatch.setattr(qinner, "_products", recorded_products)
    monkeypatch.setattr(suites, "_products", recorded_products)  # the limit suite's
    cases = run_suite("all", p, N=N)
    assert cases and all(c.passed for c in cases)
    assert any(c.name.startswith("adjoint span pair") for c in cases)
    # one converged radial integral per set of common modes of a batch (a
    # lone product with a common mode is its own batch); a pair with none
    # is an exact float 0.0 with no integral
    assert len(errors) == sum(len(blocks) for blocks, _ in products) > 0
    assert any(len(pairs) > len(blocks) > 0 for blocks, pairs in products)  # gram's batch
    assert all(type(v) is float and v == 0.0
               for _, pairs in products for common, v in pairs if not common)
    assert max(errors) < quadrature.ABS_TOL


def test_gram_hands_only_like_weight_pairs_to_the_products(monkeypatch):
    # the 961 states of J <= 30 make 462,241 upper pairs, of which only the
    # 10,416 of equal M share a mode; the products themselves are not run
    monkeypatch.setattr(qinner, "_products", lambda pairs, p: [1.0] * len(pairs))
    calls = _spy(monkeypatch, qinner, "_products", key=lambda pairs, p: pairs)
    rep = qinner.gram(0, range(31), QParam.classical())
    assert len(rep.labels) == 961 and [len(pairs) for pairs in calls] == [10416]
    assert all({m for _, _, m in f.meta} == {m for _, _, m in g.meta} for f, g in calls[0])


@pytest.mark.parametrize("N,pairs", [(0, 14), (0.5, 8)], ids=["N0", "N0.5"])
def test_gram_suite_hands_its_like_weight_pairs_to_the_products(monkeypatch, N, pairs):
    # the default tower, J up to 2: 45 upper pairs at N 0, 21 at N 1/2
    calls = _spy(monkeypatch, qinner, "_products", key=lambda pairs, p: pairs)
    cases = run_suite("gram", QParam.positive_real(1.2), N=N)
    assert cases and all(c.passed for c in cases)
    assert [len(c) for c in calls] == [pairs]


@pytest.mark.parametrize("p,N", [(QParam.positive_real(0.39), 0), (QParam.positive_real(2.58), 0.5),
                                 (QParam.unit_circle(0.29), 0)], ids=["q0.39-N0", "q2.58-N0.5", "tau0.29"])
def test_suite_scalar_products_take_one_integrand_call(monkeypatch, p, N):
    # the first call carries the rule of step h and, in its even nodes, that
    # of step 2h; at |ln q| ~ 0.95 the two agree for nearly every product.
    # A radial integral carries one product per row of its integrand.
    calls = []
    radial_integral = qinner.radial_integral

    def counted_radial_integral(F):
        count, rows = [0], [0]

        def counted(rho):
            count[0] += 1
            out = F(rho)
            rows[0] = len(out)
            return out
        try:
            return radial_integral(counted)
        finally:
            calls.extend([count[0]] * rows[0])

    monkeypatch.setattr(qinner, "radial_integral", counted_radial_integral)
    cases = run_suite("all", p, N=N)
    assert cases and all(c.passed for c in cases)
    assert len(calls) > 20 and calls.count(1) >= 0.95 * len(calls)


def _count_applies(monkeypatch):
    """The modes of every stencil evaluation (qops._apply)."""
    return _spy(monkeypatch, qops, "_apply", key=lambda f, m, *rest: m)


@pytest.mark.parametrize("p", [QParam.unit_circle(0.2), QParam.positive_real(0.8)],
                         ids=["tau0.2", "q0.8"])
def test_casimir_suite_calls_psi_once_per_stencil_tree(monkeypatch, p):
    # per (J, N), one call carrying the whole tower on its three eta-shifts,
    # the reference values and the Casimir, and per N one stencil evaluation
    members = _record_members(monkeypatch)
    applies = _count_applies(monkeypatch)
    cases = run_suite("casimir", p)
    assert cases and all(c.passed for c in cases)
    calls = [(J, ms, N) for J, ms, N, _ in members]
    assert all(M == tuple(m_values(J)) for J, M, _ in calls)
    per_pair = Counter((J, N) for J, _, N in calls)
    assert len(per_pair) == len(cases) and set(per_pair.values()) == {1}
    assert len(applies) == len(STENCIL_N_VALUES)


def _count_psi(monkeypatch):
    """The (J, ms, N, p) of every basis-member call through qops, and the
    arguments of every evaluation that the memo does not answer."""
    _empty(monkeypatch, qspecial._psi_memo)
    return _record_members(monkeypatch), _spy(monkeypatch, qspecial, "_psi_rows")


@pytest.mark.parametrize("suite", ["ladder", "casimir"])
def test_ladder_and_casimir_call_psi_once_per_tower(monkeypatch, suite):
    # the tower, its H+, its H- and its Casimir from one call on the
    # eta-shifts 0, 2 and 4: 9 calls and 9 evaluations for the 9 towers up
    # to J 3 (27 and 18 with a call per table), in 3 stencil evaluations,
    # one per N, whose rows hold its towers J by J (9 with one per tower)
    calls, evaluated = _count_psi(monkeypatch)
    applies = _count_applies(monkeypatch)
    cases = run_suite(suite, QParam.positive_real(1.3), j_max=3)
    assert len(cases) == 9 and all(c.passed for c in cases)
    assert all(M == tuple(m_values(J)) for J, M, *_ in calls)
    assert (len(calls), len(evaluated)) == (9, 9)
    assert [len(m) for m in applies] == [2 + 4 + 6, 3 + 5 + 7, 3 + 5 + 7]  # N 1/2, 0, 1


def test_all_run_evaluates_psi_nine_times_for_ladder_and_casimir(monkeypatch):
    # one evaluation per (J, N) tower: casimir reads the towers that ladder
    # evaluated in the same run, calling nothing (27 evaluations with a psi
    # call per table); the run's 11 stencil evaluations are ladder's 3 and
    # hermiticity's 8 (26 with one per tower and casimir's 9 again)
    calls, evaluated = _count_psi(monkeypatch)
    applies = _count_applies(monkeypatch)
    during = {}
    for name in ("ladder", "casimir"):
        def counted(*args, _suite=getattr(suites, f"suite_{name}"), _name=name, **kw):
            before = len(calls), len(evaluated), len(applies)
            try:
                return _suite(*args, **kw)
            finally:
                during[_name] = (len(calls) - before[0], len(evaluated) - before[1],
                                 len(applies) - before[2])
        monkeypatch.setattr(suites, f"suite_{name}", counted)
    cases = run_suite("all", QParam.unit_circle(0.2), seed=3)
    assert cases and all(c.passed for c in cases)
    assert during == {"ladder": (9, 9, 3), "casimir": (0, 0, 0)}
    assert len(applies) == 11


def test_all_run_at_tau_0_2_runs_l_on_140_points(monkeypatch):
    # L point-quadratures: the points of every _l_quadrature call, 220 when
    # each stencil row took its own Q_{1/2} and 420 with a psi call per
    # table of ladder and casimir
    _empty(monkeypatch, qspecial._q_half_memo)
    _empty(monkeypatch, qspecial._psi_memo)
    runs = _spy(monkeypatch, qspecial, "_l_quadrature")
    cases = run_suite("all", QParam.unit_circle(0.2), seed=3)
    assert cases and all(c.passed for c in cases)
    assert sum(arr.size for _, arr in runs) == 140


# the L argument 1e-4 e^(i(pi - 9e-7)) at tau = 1 sits within the margin of
# the Log branch cut, yet its quadrature converges; it comes last, so it
# falls in a later block than the first
CUT_ETA = 1e-4 * np.exp(1j * (np.pi - 9e-7))


@pytest.mark.parametrize("tau,eta", [
    (0.2, np.linspace(0.02, 8.0, 2000)),
    (1.0, np.concatenate((np.linspace(0.1, 3.0, 40) * np.exp(0.5j), [CUT_ETA]))),
], ids=["grid2000", "branch-cut"])
def test_l_function_bits_do_not_depend_on_point_blocks(monkeypatch, tau, eta):
    p = QParam.unit_circle(tau)
    warns = tau == 1.0

    def evaluate():
        if not warns:
            return qspecial.l_function(p, eta)
        with pytest.warns(RuntimeWarning, match="branch cut"):
            return qspecial.l_function(p, eta)

    blocked = evaluate()
    # a round has at least 12 panels of 21 nodes, so the default splits the points
    assert eta.size * 12 * 21 > qspecial.BLOCK_ELEMENTS
    monkeypatch.setattr(qspecial, "BLOCK_ELEMENTS", 2**30)
    one_block = evaluate()
    assert blocked.tobytes() == one_block.tobytes()


@pytest.mark.parametrize("p,quadratures,products", [
    (QParam.unit_circle(0.2), 4, 0), (QParam.positive_real(1.3), 0, 2)], ids=["tau0.2", "q1.3"])
def test_funceq_evaluates_q_at_q2_eta_itself(monkeypatch, p, quadratures, products):
    # funceq referees Q's equation, so it takes no step by it: Q_{1/2} at
    # the grid eta and at q^2 eta, each by two quadratures or one product,
    # which every half-integer J of its list shares
    _empty(monkeypatch, qspecial._q_half_memo)
    _empty(monkeypatch, qspecial._psi_memo)
    runs = {name: _spy(monkeypatch, qspecial, name)
            for name in ("_l_quadrature", "_infinite_product")}
    keys = _record_q_half(monkeypatch)
    cases = run_suite("funceq", p)
    assert cases and all(c.passed for c in cases)
    eta = np.logspace(-2, 2, suites.FUNCEQ_ETA_POINTS)
    assert set(keys) == {(p, eta.shape, np.asarray(x, complex).tobytes())
                         for x in (eta, p.power(2) * eta)}
    assert len(runs["_l_quadrature"]) == quadratures
    assert len(runs["_infinite_product"]) == products


def test_limit_suite_makes_one_call_per_j_and_q(monkeypatch):
    # one vilenkin call per (J, q) on the weights it reads, 10 (21 with one
    # per (J, M, q)); one scalar-product call per q for the three pinned
    # pairs, 3 (9 with one per pair)
    vilenkins = _spy(monkeypatch, suites, "vilenkin", key=lambda J, M, *rest: (J, M))
    products = _spy(monkeypatch, suites, "_products", key=lambda pairs, p: len(pairs))
    cases = run_suite("limit", QParam.positive_real(1.2))
    assert len(cases) == 6 + 4 + 9 and all(c.passed for c in cases)
    assert vilenkins == [(1, (0, 1))] * 3 + [(2, (1, 2))] * 3 + [
        (0, (0,)), (1, (0, 1)), (2, (0, 1, 2)), (3, (0, 2, 3))]
    assert products == [3, 3, 3]


@pytest.mark.parametrize("p", [QParam.positive_real(1.3), QParam.unit_circle(0.2)],
                         ids=["q1.3", "tau0.2"])
def test_built_members_and_towers_check_no_label_again(monkeypatch, p):
    # psi_family and psi_tower check their labels when they are built; a
    # family on the radial rule's 129 first nodes and a tower batch at the
    # stencil suites' sample points check none again.  Public psi does.
    _empty(monkeypatch, qspecial._psi_memo)
    family = qops.psi_family(1.5, 0.5, 0.5)
    checks = []
    for module, name in ((qcore, "validate_triple"), (qspecial, "validate_triple"),
                         (qops, "validate_triple"), (qspecial, "_weights")):
        _spy(monkeypatch, module, name, key=lambda *args, name=name: name, calls=checks)
    n = round(quadrature.T_MAX / quadrature.STEP)
    rho = np.exp(0.5 * quadrature.SCALE * np.sinh(quadrature.STEP * np.arange(-n, n + 1)))
    u, v = suites.sample_points(suites.STENCIL_POINTS, 0)
    assert rho.size == 129
    family(p, rho, rho)
    qops.apply_h_plus(family, 0.5)(p, u, v)
    qops.psi_tower((0.5, 1.5, 2.5), 0.5, p, u, v)
    assert checks == []
    qspecial.psi(1.5, 0.5, 0.5, p, rho, rho)
    assert checks == ["_weights", "validate_triple"]
