import math
import re
from collections import Counter

import numpy as np
import pytest

from suq2 import qinner, qops, quadrature
from suq2.qcore import HalfInt, QParam, Regime, j_values, m_values
from suq2.qinner import (
    GramReport,
    adjoint_residual,
    b_one,
    gram,
    hermitian_symmetry_residual,
    inner,
)
from suq2.qops import (
    apply_h_minus,
    apply_h_plus,
    apply_q_h3_power,
    combine,
    psi_family,
    with_fixed_param,
)

NORM_TOL = 1e-8
GRAM_TOL = 1e-6
HERM_TOL = 1e-7
SYM_TOL = 1e-8

P_REAL = QParam.positive_real(1.2)
P_CIRC = QParam.unit_circle(math.pi / 23)
P_CLASS = QParam.classical()


class TestPrefactor:
    def test_b_one_values(self):
        q = 1.2
        assert b_one(P_REAL) == pytest.approx((q - 1 / q) / (2 * math.log(q)), rel=1e-15)
        t = math.pi / 23
        assert b_one(P_CIRC) == pytest.approx(math.sin(t) / t, rel=1e-15)
        assert b_one(P_CLASS) == 1.0

    def test_normalization_identity(self):
        # (ln q/(q-q^-1)) (B1 + conj(B1)) = 1 holds exactly in both regimes
        for p, lnq in ((P_REAL, math.log(P_REAL.value)), (P_CIRC, 1j * P_CIRC.value)):
            q1, qm1 = p.power(1), p.power(-1)
            val = (lnq / (q1 - qm1)) * (b_one(p) + np.conj(b_one(p)))
            assert complex(val) == pytest.approx(1.0, rel=1e-15)

    def test_prefactor_classical_limit(self):
        for h in (1e-3, 1e-6):
            assert b_one(QParam.positive_real(1 + h)) == pytest.approx(1.0, abs=2 * h)


class TestNorms:
    def test_classical_unit_norm(self):
        f = psi_family(0, 0, 0)
        assert inner(f, f, P_CLASS) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("J,N", [(0.5, 0.5), (1, 0), (1.5, 0.5)])
    def test_deformed_real_unit_norms(self, J, N):
        f = psi_family(J, J, N)
        assert inner(f, f, P_REAL) == pytest.approx(1.0, abs=NORM_TOL)

    @pytest.mark.parametrize("J,N", [(0.5, 0.5), (1, 0), (1.5, 0.5)])
    def test_deformed_circle_unit_norms(self, J, N):
        f = psi_family(J, J, N)
        assert inner(f, f, P_CIRC) == pytest.approx(1.0, abs=NORM_TOL)

    def test_diagonal_entries_positive(self):
        for p in (P_REAL, P_CIRC):
            for (J, M, N) in [(1, 0, 0), (2, -1, 0), (1.5, 0.5, 0.5)]:
                v = inner(psi_family(J, M, N), psi_family(J, M, N), p)
                assert v.real > 0
                assert abs(v.imag) < 1e-12


def rational_gauss_rule(n):
    """Nodes rho_i and weights w_i with sum w_i F(rho_i) ~ int_0^inf F(rho) rho drho:
    numpy's n-point Gauss-Legendre rule in s pushed through eta = (1+s)/(1-s).
    It shares no code and no node with suq2.quadrature."""
    s, w = np.polynomial.legendre.leggauss(n)
    return np.sqrt((1.0 + s) / (1.0 - s)), w / (1.0 - s) ** 2


def fixed_level_gram(N, js, p, step):
    """gram with every scalar product the trapezoid sum of the radial rule
    at one step, with no refinement: the coarse and fine grams of the
    step-halving check.  The radial rule is forced at every q, as the
    lattice would take the products from |ln q| = LATTICE_SWITCH."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "LATTICE_SWITCH", math.inf)
        mp.setattr(quadrature, "STEP", step)
        mp.setattr(quadrature, "ABS_TOL", math.inf)
        return gram(N, js, p)


def rule_gram(N, js, p, n):
    """gram with every scalar product one rational_gauss_rule(n) sum; F
    returns one row of node values per product of a like-mode block.  It
    takes the radial rule's place at every q (see fixed_level_gram)."""
    rho, w = rational_gauss_rule(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "LATTICE_SWITCH", math.inf)
        mp.setattr(qinner, "radial_integral", lambda F: quadrature.PlaneIntegral(
            np.asarray(F(rho), dtype=complex) @ w, math.inf))
        return gram(N, js, p)


class TestGram:
    def test_real_tower_identity(self):
        rep = gram(0, [0, 1, 2], P_REAL)
        assert rep.max_offdiag < GRAM_TOL
        assert rep.max_diag_dev < GRAM_TOL
        assert len(rep.labels) == 9

    def test_circle_tower_identity(self):
        rep = gram(0.5, [0.5, 1.5], P_CIRC)
        assert rep.max_offdiag < GRAM_TOL
        assert rep.max_diag_dev < GRAM_TOL
        assert len(rep.labels) == 6

    def test_matrix_hermitian(self):
        rep = gram(0, [0, 1], P_REAL)
        assert np.max(np.abs(rep.matrix - rep.matrix.conj().T)) < 1e-14

    def test_empty_tower(self):
        rep = gram(0, [], P_REAL)
        assert rep.matrix.shape == (0, 0)
        assert rep.labels == ()
        assert rep.max_offdiag == 0.0

    def test_invalid_tower_rejected(self):
        with pytest.raises(ValueError):
            gram(0, [0.5], P_REAL)  # J=1/2 with N=0: parity

    @pytest.mark.parametrize("p,js,msg", [
        (QParam.positive_real(2.0), [300, 1, 200],
         "q-factorial [401]! leaves the float range at q = 2.0"),
        (QParam.positive_real(0.5), [0, 40], "q-factorial [81]! leaves the float range at q = 0.5"),
        (QParam.unit_circle(-0.2), [20, 8, 0],
         "J=8 on the circle needs (2J+1)|tau| < pi, got tau=-0.2"),
    ], ids=["q2", "q0.5", "tau-0.2"])
    def test_tower_past_psi_reach_refused_before_any_family(self, p, js, msg, monkeypatch):
        # each J, smallest first, against psi's rules that read no M
        def unbuilt(*args):
            raise AssertionError("a family was built")

        monkeypatch.setattr(qinner, "psi_family", unbuilt)
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            gram(0, js, p)

    def test_refinement_shrinks_deviation(self):
        coarse = fixed_level_gram(0, [0, 1, 2], P_REAL, 0.5)
        fine = fixed_level_gram(0, [0, 1, 2], P_REAL, 0.25)
        c = max(coarse.max_offdiag, coarse.max_diag_dev)
        f = max(fine.max_offdiag, fine.max_diag_dev)
        assert f < c / 10


class TestAgainstAnIndependentRule:
    """Gram matrices on the radial rule against a 2048-node rational_gauss_rule,
    which is accurate to about 1e-12 on these towers, and against the
    identity they must equal."""

    @pytest.mark.parametrize("p,N,js", [
        (QParam.positive_real(0.7), 0.5, [0.5, 1.5, 2.5]),
        (QParam.unit_circle(0.2), 0.5, [0.5, 1.5]),
        (P_CLASS, 0, [0, 1, 2, 3]),
    ], ids=["q0.7", "tau0.2", "q1"])
    def test_gram_matches_the_independent_rule(self, p, N, js):
        got = gram(N, js, p).matrix
        want = rule_gram(N, js, p, 2048).matrix
        assert np.max(np.abs(got - want)) < 1e-11
        assert np.max(np.abs(got - np.eye(len(got)))) < 1e-14

    @pytest.mark.parametrize("p,N,js", [
        (QParam.positive_real(2.0), 0, [0, 1, 2, 3]),
        (QParam.positive_real(0.5), 1, [1, 2, 3]),
    ], ids=["q2", "q0.5"])
    def test_gram_is_closer_to_the_identity_than_the_independent_rule(self, p, N, js):
        # at |ln q| ~ 0.7 the 2048-node rule errs by about 3e-9
        got = gram(N, js, p).matrix
        want = rule_gram(N, js, p, 2048).matrix
        eye = np.eye(len(got))
        assert np.max(np.abs(got - eye)) < 1e-13
        assert np.max(np.abs(got - want)) < 1e-8
        assert np.max(np.abs(got - eye)) < 1e-3 * np.max(np.abs(want - eye))


def polar_grid_inner(f, g, p, radial_nodes=64, angles=16):
    """<f|g> from the families' whole evaluators on a fixed rational_gauss_rule
    x angular-trapezoid grid of the physical slice v = conj(u): the
    reference that the mode-matched radial path of inner must meet, on
    nodes of its own."""
    rho, w = rational_gauss_rule(radial_nodes)
    u = rho[:, None] * np.exp(2j * np.pi * np.arange(angles) / angles)
    v = np.conj(u)
    eta = rho[:, None] ** 2
    if p.regime is Regime.CLASSICAL:
        terms = [(p, p, 1.0, 2.0 / (1 + eta) ** 2)]
    else:
        # (bra parameter, ket parameter, ket scale s, weight w_s(eta))
        qm1, qp1, pinv = p.power(-1), p.power(1), p.inverse()
        bras = (pinv, p) if p.regime is Regime.POSITIVE_REAL else (p, pinv)
        terms = [(bra, ket, s, s / ((1 + eta) * (1 + s * s * eta)))
                 for bra, ket, s in zip(bras, (p, pinv), (qm1, qp1))]
    integrand = sum(np.conj(f(bra, u, v)) * weight * g(ket, s * u, s * v)
                    for bra, ket, s, weight in terms)
    return b_one(p) * (w @ integrand.sum(axis=1)) * (2 * np.pi / angles)


class TestGramBatch:
    """gram hands its like-M upper pairs to one batch of scalar products: one
    integral per like-mode block, and each (J, N) tower's psi requested
    whole, once per parameter and node set that a side of the form reads,
    for every block: at real q on the lattice, once per parameter, as each
    side reads the lattice's nodes shifted; on the circle once, as the
    second term mirrors the first, and at q = 1 once per side, as its two
    terms read the same.  A radial integral stops on its largest entry
    difference; on these towers every pair of a block converges on the same
    level, so the batch changes no bit of any entry."""

    @pytest.mark.parametrize("p,N,js,asks", [
        (P_REAL, 0, [0, 1, 2], 2),
        (P_CIRC, 0.5, [0.5, 1.5], 2),
        (P_CLASS, 0, [0, 1, 2], 2),
    ], ids=["real", "circle-N0.5", "classical"])
    def test_gram_is_inner_of_each_pair(self, monkeypatch, p, N, js, asks):
        levels, asked = [], []
        radial_integral, lattice_integral, entry = (
            qinner.radial_integral, qinner.lattice_integral, qops._psi)

        def counted(F):
            levels.append(0)

            def counted_F(*args):
                levels[-1] += 1
                return F(*args)
            return counted_F

        def recorded_psi(J, ms, N, p, u, v, stepped=False, lattice=0):
            # a tower's values, through qspecial's one psi entry
            asked.append((J, ms, p, np.asarray(u).tobytes()))
            return entry(J, ms, N, p, u, v, stepped, lattice)

        monkeypatch.setattr(qinner, "radial_integral", lambda F: radial_integral(counted(F)))
        monkeypatch.setattr(qinner, "lattice_integral",
                            lambda F, lat: lattice_integral(counted(F), lat))
        monkeypatch.setattr(qops, "_psi", recorded_psi)
        rep = gram(N, js, p)
        monkeypatch.undo()

        states = rep.labels
        # one integral per M (5 for J up to 2), all on the first integrand
        # call here, which asks for each tower whole (all its weights) once
        # per parameter and node set: the blocks after the first ask for
        # nothing (at real q each asked for its own states once per side and
        # form term; on the radial rule, each tower was asked for 4 times)
        assert len(levels) == len({M for _, M in states}) and set(levels) == {1}
        assert len(asked) == len(set(asked))
        assert all(ms == tuple(m_values(J)) for J, ms, *_ in asked)
        assert Counter(J for J, *_ in asked) == {HalfInt.of(J): asks for J in js}
        fams = [psi_family(J, M, N) for J, M in states]
        for i, (_, Mi) in enumerate(states):
            for j in range(i, len(states)):
                val = inner(fams[i], fams[j], p)  # the float 0.0 for unlike modes
                assert rep.matrix[i, j].tobytes() == np.complex128(val).tobytes()
                if j != i:
                    assert rep.matrix[j, i].tobytes() == np.complex128(np.conj(val)).tobytes()
                if states[j][1] != Mi:  # unlike modes: the CLI prints 0, not -0
                    for v in (rep.matrix[i, j], rep.matrix[j, i]):
                        assert f"{v.real:.17g},{v.imag:.17g}" == "0,0"


def _every_upper_pair_gram(N, J_list, p):
    """gram's report as (labels, matrix, max_offdiag, max_diag_dev) from every
    upper pair on one _products call, the matrix filled one pair at a time."""
    N = HalfInt.of(N)
    states = [(J, M) for J in map(HalfInt.of, J_list) for M in m_values(J)]
    fams = [psi_family(J, M, N) for J, M in states]
    upper = [(i, j) for i in range(len(states)) for j in range(i, len(states))]
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for (i, j), val in zip(upper, qinner._products([(fams[i], fams[j]) for i, j in upper], p)):
        mat[i, j] = val
        if j != i:
            mat[j, i] = np.conj(val)
    diag = np.diag(mat)
    return (tuple(states), mat, float(np.max(np.abs(mat - np.diag(diag)), initial=0.0)),
            float(np.max(np.abs(diag - 1.0), initial=0.0)))


def _tower(p, N, j_max):
    """A parametrize row: p, N and the labels of the N tower up to j_max at p."""
    return p, N, j_values(N, j_max, p)


class TestGramLikeWeightPairs:
    """gram integrates only the pairs of equal M; every other pair has no
    common mode, so the report is that of all upper pairs, bit for bit."""

    @pytest.mark.parametrize("p,N,js", [
        _tower(P_CLASS, 0, 8),
        _tower(P_CLASS, 0.5, 4.5),
        _tower(QParam.positive_real(1.3), 0.5, 5.5),
        _tower(QParam.positive_real(0.7), 0, 6),
        _tower(QParam.unit_circle(0.1), 0, 8),
        _tower(QParam.unit_circle(0.2), 0.5, 3.5),
        (P_REAL, 0.5, [2.5]),
        (P_CIRC, 0, [3]),
        (P_REAL, 1, []),
    ], ids=["classical-N0-J8", "classical-N0.5-J4.5", "q1.3-N0.5-J5.5", "q0.7-N0-J6",
            "tau0.1-N0-J8", "tau0.2-N0.5-J3.5", "q1.2-J2.5-only", "circle-J3-only", "empty"])
    def test_gram_is_every_upper_pair_bit_for_bit(self, p, N, js):
        rep = gram(N, js, p)
        labels, mat, max_offdiag, max_diag_dev = _every_upper_pair_gram(N, js, p)
        assert rep.labels == labels
        # bytes: the diagonal keeps its own value, an unlike-M zero prints 0, not -0
        assert rep.matrix.shape == mat.shape and rep.matrix.tobytes() == mat.tobytes()
        assert (rep.max_offdiag, rep.max_diag_dev) == (max_offdiag, max_diag_dev)


class TestModeMatching:
    def test_cross_mode_is_exact_zero(self):
        v = inner(psi_family(1, 1, 0), psi_family(1, 0, 0), P_REAL)
        assert v == 0.0

    def test_fast_path_matches_trapezoid(self):
        f1, f2 = psi_family(2, 1, 0), psi_family(2, 1, 0)
        a = inner(f1, f2, P_REAL)
        b = polar_grid_inner(f1, f2, P_REAL)
        assert abs(a - b) < 1e-9
        # and on a pair that is zero by orthogonality (same mode, J differ)
        f3 = psi_family(1, 1, 0)
        a = inner(f1, f3, P_REAL)
        b = polar_grid_inner(f1, f3, P_REAL)
        assert abs(a - b) < 1e-9


# members (J, M) of the N tower up to J 2 that tower_span_pair combines,
# 3 in the bra and 2 in the ket; they share the modes M + N = 0 and 1
SPAN_LABELS = {0: ([(1, 0), (2, 1), (1, -1)], [(2, 0), (1, 1)]),
               0.5: ([(0.5, -0.5), (1.5, 0.5), (1.5, 1.5)], [(1.5, -0.5), (0.5, 0.5)])}


def tower_span_pair(N, seed=3):
    """Random combinations of the SPAN_LABELS members of the N tower, whose
    stencil images and scalar products the tower's labels carry."""
    rng = np.random.default_rng(seed)
    return tuple(combine(rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels)),
                         [psi_family(J, M, N) for J, M in labels])
                 for labels in SPAN_LABELS[N])


class TestRadialPathMatchesPlaneGrid:
    """The mode-matched radial path against the polar-grid reference, on
    span pairs of tower members and every stencil family of them."""

    @pytest.mark.parametrize("p", [QParam.positive_real(1.3), QParam.unit_circle(0.2)],
                             ids=["real", "circle"])
    @pytest.mark.parametrize("N", [0, 0.5])
    def test_span_pairs_and_stencils(self, p, N):
        bra_power = 2.0 if p.regime is Regime.POSITIVE_REAL else -2.0
        f, g = tower_span_pair(N)
        pairs = [(f, g), (g, f), (f, apply_h_plus(g, N)), (apply_h_minus(f, N), g),
                 (f, apply_q_h3_power(g, N, 2.0)), (apply_q_h3_power(f, N, bra_power), g)]
        for bra, ket in pairs:
            radial = inner(bra, ket, p)
            plane = polar_grid_inner(bra, ket, p)
            # relative, floored at 1: a pair with no common mode is an exact
            # 0.0 on the radial path and a few 1e-14 on the plane grid
            assert abs(radial - plane) <= 1e-12 * max(1.0, abs(radial), abs(plane))

    def test_classical_span_pairs(self):
        # q = 1 runs as the s = 1 case of the real rows; the reference keeps
        # its own one-term form with weight 2/(1+eta)^2
        f, g = span_families()
        for bra, ket in [(f, g), (g, f), (f, f)]:
            radial = inner(bra, ket, P_CLASS)
            plane = polar_grid_inner(bra, ket, P_CLASS)
            assert abs(radial - plane) <= 1e-12 * max(1.0, abs(radial), abs(plane))


def span_families(seed=5):
    rng = np.random.default_rng(seed)
    f = combine(rng.normal(size=3) + 1j * rng.normal(size=3),
                [psi_family(1, 0, 0), psi_family(2, 1, 0), psi_family(1, -1, 0)])
    g = combine(rng.normal(size=2) + 1j * rng.normal(size=2),
                [psi_family(2, 0, 0), psi_family(1, 1, 0)])
    return f, g


class TestAdjointness:
    def test_basis_pair_real(self):
        res = adjoint_residual(psi_family(1, 0, 0), psi_family(1, -1, 0),
                               P_REAL, 0)
        assert res < HERM_TOL

    def test_singlet_trivial(self):
        res = adjoint_residual(psi_family(0, 0, 0), psi_family(0, 0, 0),
                               P_REAL, 0)
        assert res < 1e-12

    def test_span_real(self):
        f, g = span_families()
        res = adjoint_residual(f, g, P_REAL, 0)
        assert res < HERM_TOL

    def test_span_circle(self):
        f, g = span_families()
        res = adjoint_residual(f, g, P_CIRC, 0)
        assert res < HERM_TOL

    def test_conjugate_symmetry(self):
        f, g = span_families(9)
        assert hermitian_symmetry_residual(f, g, P_REAL) < SYM_TOL
        assert hermitian_symmetry_residual(f, g, P_CIRC) < SYM_TOL


class TestFormBound:
    """Every basis member and member image in a scalar product is held to
    the circle's bound (2J+2)|tau| < pi before any value is evaluated; a
    normalized member past it read -0.0283."""

    FORM = (r"^the scalar product on the circle needs \(2J\+2\)\|tau\| < pi, "
            r"got J=5/2, tau=0\.5$")

    @pytest.mark.parametrize("pair", [
        lambda f: (f, f),
        lambda f: (psi_family(0.5, 0.5, 0.5), apply_h_plus(f, 0.5)),
        lambda f: (combine([1.0, 2.0], [psi_family(0.5, 0.5, 0.5), f]), psi_family(0.5, 0.5, 0.5)),
    ], ids=["member", "image", "combination"])
    def test_a_member_past_the_form_bound_is_refused_unevaluated(self, pair, monkeypatch):
        def unevaluated(F):
            raise AssertionError("a radial integral ran")

        monkeypatch.setattr(qinner, "radial_integral", unevaluated)
        with pytest.raises(ValueError, match=self.FORM):
            inner(*pair(psi_family(2.5, 0.5, 0.5)), QParam.unit_circle(0.5))

    def test_a_pinned_member_carries_no_labels(self):
        # pinned at q = 1, its values are the form's to probe at any tau
        f = with_fixed_param(psi_family(2.5, 0.5, 0.5))
        assert math.isfinite(abs(inner(f, f, QParam.unit_circle(0.5))))


class TestClassicalLimit:
    def test_deformed_real_approaches_classical(self):
        # families pinned at q = 1: the limit probes the form, not the family
        for (J, M, N) in [(1, 0, 0), (1, 1, 0), (1.5, 0.5, 0.5)]:
            fam = with_fixed_param(psi_family(J, M, N))
            cl = inner(fam, fam, P_CLASS)
            d1 = abs(inner(fam, fam, QParam.positive_real(1 + 1e-3)) - cl)
            d2 = abs(inner(fam, fam, QParam.positive_real(1 + 1e-4)) - cl)
            # the deviation is even in ln q, hence quadratic in h; assert at
            # least linear shrink so the test does not over-claim the order
            assert d2 < d1 / 8
            assert d1 < 1e-5
