import math

import numpy as np
import pytest

from suq2 import qinner
from suq2.qcore import QParam, Regime
from suq2.qinner import (
    GramReport,
    adjoint_residual,
    b_one,
    gram,
    hermitian_symmetry_residual,
    inner,
)
from suq2.qops import (
    PlaneFamily,
    apply_h_minus,
    apply_h_plus,
    apply_q_h3_power,
    combine,
    psi_family,
    with_fixed_param,
)
from suq2.quadrature import PlaneIntegral, radial_rule
from suq2.suites import _span_pairs

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


def fixed_node_gram(N, js, p, nodes):
    """gram with every scalar product one radial_rule(nodes) sum, with no
    refinement: the coarse and fine grams of the node-doubling check."""
    def one_rule(F):
        rho, w = radial_rule(nodes)
        return PlaneIntegral(complex(w @ np.asarray(F(rho), dtype=complex)), math.inf)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qinner, "radial_integral", one_rule)
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

    def test_refinement_shrinks_deviation(self):
        coarse = fixed_node_gram(0, [0, 1, 2], P_REAL, 8)
        fine = fixed_node_gram(0, [0, 1, 2], P_REAL, 16)
        c = max(coarse.max_offdiag, coarse.max_diag_dev)
        f = max(fine.max_offdiag, fine.max_diag_dev)
        assert f < c / 10


def polar_grid_inner(f, g, p, radial_nodes=64, angles=16):
    """<f|g> from the families' whole evaluators on a fixed radial_rule x
    angular-trapezoid grid of the physical slice v = conj(u): the reference
    that the mode-matched radial path of inner must meet.  inner's ladder
    settles at 32 radial nodes on the families below, so 64 shares no node
    with it."""
    rho, w = radial_rule(radial_nodes)
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

    def test_family_without_decomposition_rejected(self):
        f = psi_family(1, 0, 0)
        with pytest.raises(ValueError, match="Fourier decomposition"):
            inner(PlaneFamily(f.evaluator), f, P_REAL)
        with pytest.raises(ValueError, match="Fourier decomposition"):
            inner(f, PlaneFamily(f.evaluator), P_REAL)


class TestRadialPathMatchesPlaneGrid:
    """The mode-matched radial path against the polar-grid reference, on
    the hermiticity suite's span pairs and every stencil family it pairs."""

    @pytest.mark.parametrize("p", [QParam.positive_real(1.3), QParam.unit_circle(0.2)],
                             ids=["real", "circle"])
    @pytest.mark.parametrize("N", [0, 0.5])
    def test_span_pairs_and_stencils(self, p, N):
        bra_power = 2.0 if p.regime is Regime.POSITIVE_REAL else -2.0
        f, g = _span_pairs(2, N, 3)[0]
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


class TestClassicalLimit:
    def test_deformed_real_approaches_classical(self):
        # families pinned at q = 1: the limit probes the form, not the family
        for (J, M, N) in [(1, 0, 0), (1, 1, 0), (1.5, 0.5, 0.5)]:
            fam = with_fixed_param(psi_family(J, M, N), P_CLASS)
            cl = inner(fam, fam, P_CLASS)
            d1 = abs(inner(fam, fam, QParam.positive_real(1 + 1e-3)) - cl)
            d2 = abs(inner(fam, fam, QParam.positive_real(1 + 1e-4)) - cl)
            # the deviation is even in ln q, hence quadratic in h; assert at
            # least linear shrink so the test does not over-claim the order
            assert d2 < d1 / 8
            assert d1 < 1e-5
