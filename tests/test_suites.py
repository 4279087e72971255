"""Named verification suites: case bookkeeping, tolerance routing, and the
dispatcher's composition rules."""
import math

import numpy as np
import pytest

from suq2 import qspecial, suites
from suq2.qcore import HalfInt, QParam, Regime
from suq2.suites import (
    MATRIX_TOL,
    FUNCEQ_TOL_INTEGRAL,
    FUNCEQ_TOL_PRODUCT,
    SUITE_NAMES,
    Case,
    _legendre_reference,
    run_suite,
    sample_points,
    suite_casimir,
    suite_funceq,
    suite_gram,
    suite_hermiticity,
    suite_ladder,
    suite_limit,
    suite_matrix,
)

P_REAL = QParam.positive_real(1.2)
P_BIG = QParam.positive_real(2.0)
P_CIRC = QParam.unit_circle(math.pi / 23)
P_CLASS = QParam.classical()


class TestCase:
    def test_passed_requires_finite_and_below_tol(self):
        assert Case("a", 1e-10, 1e-8).passed
        assert not Case("b", 1e-7, 1e-8).passed
        assert not Case("c", float("inf"), 1e-8).passed
        assert not Case("d", float("nan"), 1e-8).passed

    def test_boundary_is_strict(self):
        assert not Case("e", 1e-8, 1e-8).passed

    def test_passed_is_plain_bool(self):
        # residuals often arrive as numpy scalars; JSON needs Python bool
        assert Case("f", np.float64(1e-10), 1e-8).passed is True


class TestSamplePoints:
    def test_deterministic_per_seed(self):
        u1, v1 = sample_points(20, seed=5)
        u2, v2 = sample_points(20, seed=5)
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)

    def test_seed_changes_points(self):
        u1, _ = sample_points(20, seed=0)
        u2, _ = sample_points(20, seed=1)
        assert not np.array_equal(u1, u2)

    def test_radii_and_conjugate_slice(self):
        u, v = sample_points(50, seed=2)
        assert np.all((np.abs(u) >= 0.3) & (np.abs(u) <= 3.0))
        assert np.allclose(v, np.conj(u))


class TestMatrixSuite:
    def test_passes_real_and_circle(self):
        for p in (P_BIG, P_CIRC):
            cases = suite_matrix(p, j_max=2.5)
            assert len(cases) == 5
            assert all(c.passed for c in cases)

    def test_case_names_carry_j(self):
        names = [c.name for c in suite_matrix(P_REAL, j_max=1)]
        assert names == ["matrix J=1/2", "matrix J=1"]

    @pytest.mark.parametrize("q", [2.588784, 0.386458])
    def test_large_entries_pass_at_rounding_level(self, q):
        # entries reach 3e3 at J = 9/2, |ln q| ~ 0.95: the unscaled residual
        # was 1.4e-12 against 1e-12 on correct matrices
        (case,) = suite_matrix(QParam.positive_real(q), j_max=4.5)[-1:]
        assert case.name == "matrix J=9/2" and case.residual < 1e-15

    def test_perturbed_ladder_entry_fails(self, monkeypatch):
        # one H+ entry off by 1e-11 relative breaks H+^dagger = H- by 1e-11
        # of the largest entry
        matrix_irrep = suites.matrix_irrep

        def mutated(J, p):
            ir = matrix_irrep(J, p)
            ir.Hplus[np.unravel_index(np.argmax(ir.Hplus), ir.Hplus.shape)] *= 1 + 1e-11
            return ir

        monkeypatch.setattr(suites, "matrix_irrep", mutated)
        (case,) = suite_matrix(QParam.positive_real(2.588784), j_max=4.5)[-1:]
        assert not case.passed and case.residual > 0.9e-11 > MATRIX_TOL


class TestLadderCasimirSuites:
    def test_ladder_passes(self):
        cases = suite_ladder(P_REAL, j_max=1.5)
        assert all(c.passed for c in cases)
        # N grid {0, 1/2, 1} filtered by J-N parity
        assert [c.name for c in cases] == [
            "ladder J=1/2 N=1/2", "ladder J=1 N=0", "ladder J=1 N=1",
            "ladder J=3/2 N=1/2"]

    def test_casimir_passes(self):
        cases = suite_casimir(P_BIG, j_max=1.5)
        assert all(c.passed for c in cases)
        assert all(c.tol == 1e-8 for c in cases)


class TestFunceqSuite:
    def test_product_route_tolerance_real(self):
        cases = suite_funceq(P_BIG, j_list=(0, 0.5, 1))
        assert all(c.tol == FUNCEQ_TOL_PRODUCT for c in cases)
        assert all(c.passed for c in cases)

    def test_integral_route_tolerance_only_half_integer_circle(self):
        cases = suite_funceq(P_CIRC, j_list=(0.5, 1, 1.5, 2))
        tols = {c.name: c.tol for c in cases}
        assert tols["funceq J=1/2"] == FUNCEQ_TOL_INTEGRAL
        assert tols["funceq J=3/2"] == FUNCEQ_TOL_INTEGRAL
        assert tols["funceq J=1"] == FUNCEQ_TOL_PRODUCT
        assert tols["funceq J=2"] == FUNCEQ_TOL_PRODUCT
        assert all(c.passed for c in cases)

    def test_tol_override(self):
        cases = suite_funceq(P_BIG, j_list=(1,), tol=0.5)
        assert cases[0].tol == 0.5

    @pytest.mark.parametrize("q", [0.386167, 0.426617, 0.3, 0.4])
    def test_small_q_passes_at_rounding_level(self, q):
        # both sides are ~|Q(eta)(1 + q^(-2J) eta)|, up to 1.2e4 |Q(eta)|:
        # dividing by |Q(eta)| gave 1.2e-12 to 4.1e-12 on correct values
        cases = suite_funceq(QParam.positive_real(q), j_list=(1.5, 2))
        assert all(c.passed and c.residual < 1e-14 for c in cases)

    @pytest.mark.parametrize("eps,fails", [(1e-11, True), (1e-13, False)])
    def test_perturbed_product_factor(self, monkeypatch, eps, fails):
        # factor 0's eta multiplier off by eps moves Q by up to eps relative,
        # unevenly in eta; the residual sees about 0.43 eps at q = 0.4.  The
        # 1e-13 case stays under the 1e-12 tolerance; the mpmath pin in
        # test_qspecial catches it
        multipliers = qspecial._multipliers

        def mutated(q, Jf, ks):
            a, b = multipliers(q, Jf, ks)
            return [x * (1 + eps) if k == 0 else x for k, x in zip(ks, a)], b

        monkeypatch.setattr(qspecial, "_multipliers", mutated)
        monkeypatch.setattr(qspecial._product_memo, "entries", {})
        monkeypatch.setattr(qspecial._product_memo, "nbytes", 0)
        (case,) = suite_funceq(QParam.positive_real(0.4), j_list=(1.5,))
        assert case.tol == FUNCEQ_TOL_PRODUCT
        assert case.passed is not fails
        assert case.residual > 0.3 * eps


class TestHermiticitySuite:
    def test_rejects_classical(self):
        with pytest.raises(ValueError, match="deformed"):
            suite_hermiticity(P_CLASS)

    def test_passes_at_half_integer_tower(self):
        cases = suite_hermiticity(P_REAL, j_max=1.5, N=0.5)
        assert all(c.passed for c in cases)
        assert sum("adjoint" in c.name for c in cases) == 4
        assert sum("symmetry" in c.name for c in cases) == 3

    @pytest.mark.parametrize("j_max,N", [(0, 0), (0.5, 0.5), (1, 2)])
    def test_rejects_a_tower_of_fewer_than_three_states(self, j_max, N):
        with pytest.raises(ValueError, match="at least 3 basis states"):
            suite_hermiticity(P_REAL, j_max=j_max, N=N)

    def test_three_states_suffice(self):
        cases = suite_hermiticity(P_REAL, j_max=1, N=1)
        assert len(cases) == 7 and all(c.passed for c in cases)


class TestGramSuite:
    def test_default_tower_label(self):
        (case,) = suite_gram(P_REAL, N=0, j_max=2)
        assert case.name == "gram N=0 J={0,1,2}"
        assert case.passed

    def test_half_integer_tower_starts_at_abs_n(self):
        (case,) = suite_gram(P_CIRC, N=0.5, j_max=1.5)
        assert case.name == "gram N=1/2 J={1/2,3/2}"
        assert case.passed

    def test_empty_tower_reports_zero(self):
        (case,) = suite_gram(P_REAL, N=1, j_max=0.5)
        assert case.name == "gram N=1 J={(empty)}"
        assert case.residual == 0.0 and case.passed


class TestLimitSuite:
    def test_all_cases_pass(self):
        cases = suite_limit()
        assert all(c.passed for c in cases), [
            (c.name, c.residual) for c in cases if not c.passed]

    def test_case_families_present(self):
        names = [c.name for c in suite_limit()]
        assert sum("deviation" in n for n in names) == 3
        assert sum("shrink" in n for n in names) == 3
        assert sum("vilenkin limit" in n for n in names) == 4
        assert sum("vilenkin classical" in n for n in names) == 9

    def test_shrink_is_quadratic_in_practice(self):
        # deviation even in ln q: tenfold h drop shrinks ~100x, so the
        # at-least-linear statistic 8*d2/d1 sits far below 1
        shrinks = [c.residual for c in suite_limit() if "shrink" in c.name]
        assert all(s < 0.2 for s in shrinks)


class TestLegendreReference:
    def test_closed_forms(self):
        xi = np.linspace(-0.9, 0.9, 7)
        assert np.allclose(_legendre_reference(1, 0, xi), xi)
        assert np.allclose(_legendre_reference(2, 0, xi), (3 * xi ** 2 - 1) / 2)

    def test_phase_and_scale_at_m1(self):
        xi = np.array([0.3])
        want = (-1j) * math.sqrt(0.5) * (-math.sqrt(1 - 0.09))
        assert np.allclose(_legendre_reference(1, 1, xi), want)


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope", P_REAL)

    @pytest.mark.parametrize("name,j_max", [("matrix", 0), ("ladder", -1), ("casimir", 0)])
    def test_single_suite_with_no_case_rejected(self, name, j_max):
        with pytest.raises(ValueError, match=f"suite {name} has no case to run"):
            run_suite(name, P_REAL, j_max=j_max)

    def test_empty_gram_tower_keeps_its_case(self):
        (case,) = run_suite("gram", P_REAL, N=1, j_max=0.5)
        assert case.name == "gram N=1 J={(empty)}" and case.passed

    def test_suite_names_constant(self):
        assert SUITE_NAMES == ("matrix", "funceq", "ladder", "casimir",
                               "hermiticity", "gram", "limit", "all")

    def test_single_named_suite_dispatch(self):
        cases = run_suite("matrix", P_BIG, j_max=HalfInt.of(1))
        assert [c.name for c in cases] == ["matrix J=1/2", "matrix J=1"]

    def test_funceq_j_list_passthrough(self):
        cases = run_suite("funceq", P_BIG, j_list=[HalfInt.of(0.5)])
        assert [c.name for c in cases] == ["funceq J=1/2"]

    def test_all_composition_classical_skips_deformed_suites(self):
        cases = run_suite("all", P_CLASS)
        names = " ".join(c.name for c in cases)
        assert "matrix" in names and "gram" in names and "limit" in names
        assert "ladder" not in names and "adjoint" not in names
        assert all(c.passed for c in cases)

    def test_all_composition_real_q(self):
        cases = run_suite("all", P_REAL, j_max=HalfInt.of(1))
        names = " ".join(c.name for c in cases)
        for token in ("matrix", "funceq", "ladder", "casimir", "adjoint",
                      "gram", "vilenkin"):
            assert token in names
        assert all(c.passed for c in cases)

    def test_all_composition_circle_skips_limit(self):
        # keep it cheap: only check the composition, not the full default sizes
        cases = run_suite("all", P_CIRC, j_max=HalfInt.of(1))
        names = " ".join(c.name for c in cases)
        assert "vilenkin" not in names and "inner limit" not in names
        assert "matrix" in names and "funceq" in names

    def test_dispatch_resolves_suites_at_call_time(self, monkeypatch):
        # a profiler that rebinds suites.suite_* must see every dispatched
        # call, from a single suite and from `all` alike
        from suq2 import suites
        seen = []

        def spy(p, j_max=4.5, tol=1e-12):
            seen.append((j_max, tol))
            return [Case("spy", 0.0, tol)]  # a single suite with no case raises
        monkeypatch.setattr(suites, "suite_matrix", spy)
        run_suite("matrix", P_CLASS, j_max=HalfInt.of(1), tol=0.5)
        run_suite("all", P_CLASS, j_max=HalfInt.of(0))
        assert seen == [(HalfInt.of(1), 0.5), (HalfInt.of(0), 1e-12)]

    def test_regime_attribute_consistency(self):
        assert P_CLASS.regime is Regime.CLASSICAL
        assert P_CIRC.regime is Regime.UNIT_CIRCLE
