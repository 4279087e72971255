import math

import numpy as np
import pytest

from suq2 import QParam, inner, q_number
from suq2.qops import (
    IrrepMatrices,
    PlaneFamily,
    _bracket_h3,
    apply_casimir,
    apply_h_minus,
    apply_h_plus,
    apply_q_h3_power,
    casimir_matrix,
    combine,
    matrix_irrep,
    psi_family,
    with_fixed_param,
)

LADDER_TOL = 1e-9
MATRIX_COMM_TOL = 1e-13
CASIMIR_MATRIX_TOL = 1e-12
CONJUGATION_TOL = 1e-10

P_TWO = QParam.positive_real(2.0)
P_CIRC = QParam.unit_circle(math.pi / 17)


def sample_points(n=20, seed=3):
    # off-axis points; stencils exclude u = 0 and v = 0
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.3, 3.0, n)
    phi = rng.choice(np.arange(8) * (np.pi / 4), n)
    u = r * np.exp(1j * phi)
    return u, np.conj(u)


def rel_residual(lhs, rhs):
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def constant_family(c) -> PlaneFamily:
    return PlaneFamily(lambda p, u, v: c * np.ones_like(np.asarray(u, dtype=complex) * np.asarray(v, dtype=complex)))


def monomial_family(j: int, k: int) -> PlaneFamily:
    return PlaneFamily(lambda p, u, v: np.asarray(u, complex) ** j * np.asarray(v, complex) ** k)


class TestStencils:
    def test_h_plus_kills_constants(self):
        g = apply_h_plus(constant_family(3.7), 0)
        u, v = sample_points(6)
        assert np.max(np.abs(g(P_TWO, u, v))) < 1e-15

    def test_h_minus_monomial_oracle(self):
        # hand expansion for f = u v, N = 0: both stencil terms reduce to
        # q u^2 v and q u, so (H- f)(1,1) = 2q; q = 2 gives 4
        g = apply_h_minus(monomial_family(1, 1), 0)
        assert complex(g(P_TWO, 1.0, 1.0)) == pytest.approx(4.0)

    def test_stencils_reject_axis_points(self):
        with pytest.raises(ValueError):
            apply_h_plus(monomial_family(1, 1), 0)(P_TWO, 0.0, 1.0)
        with pytest.raises(ValueError):
            apply_h_minus(monomial_family(1, 1), 0)(P_TWO, 1.0, 0.0)

    def test_rejects_classical_parameter(self):
        g = apply_h_plus(monomial_family(1, 1), 0)
        with pytest.raises(ValueError):
            g(QParam.classical(), 1.0, 1.0)


def ladder_coeff(J, M, sign, p):
    if sign > 0:
        return math.sqrt(q_number(J - M, p) * q_number(J + M + 1, p))
    return math.sqrt(q_number(J + M, p) * q_number(J - M + 1, p))


class TestLadderOnBasis:
    @pytest.mark.parametrize("p", [P_TWO, P_CIRC], ids=["real", "circle"])
    @pytest.mark.parametrize("J,N", [(1, 0), (1.5, 0.5), (2, 1), (3, 0)])
    def test_raising(self, p, J, N):
        u, v = sample_points()
        ms = np.arange(-J, J, 1.0)  # M < J
        for M in ms:
            lhs = apply_h_plus(psi_family(J, M, N), N)(p, u, v)
            rhs = ladder_coeff(J, M, +1, p) * psi_family(J, M + 1, N)(p, u, v)
            assert rel_residual(lhs, rhs) < LADDER_TOL

    @pytest.mark.parametrize("p", [P_TWO, P_CIRC], ids=["real", "circle"])
    @pytest.mark.parametrize("J,N", [(1, 0), (1.5, 0.5)])
    def test_lowering(self, p, J, N):
        u, v = sample_points()
        for M in np.arange(-J + 1, J + 1, 1.0):
            lhs = apply_h_minus(psi_family(J, M, N), N)(p, u, v)
            rhs = ladder_coeff(J, M, -1, p) * psi_family(J, M - 1, N)(p, u, v)
            assert rel_residual(lhs, rhs) < LADDER_TOL

    @pytest.mark.parametrize("p", [P_TWO, P_CIRC], ids=["real", "circle"])
    def test_top_and_bottom_annihilated(self, p):
        J, N = 1.5, 0.5
        u, v = sample_points()
        top = apply_h_plus(psi_family(J, J, N), N)(p, u, v)
        bot = apply_h_minus(psi_family(J, -J, N), N)(p, u, v)
        assert np.max(np.abs(top)) < 1e-12
        assert np.max(np.abs(bot)) < 1e-12

    def test_q2h3_spectral(self):
        # q^{2 H3} multiplies the (J, M, N) member by q^{2M}
        p = P_TWO
        for (J, M, N) in [(1, 1, 0), (1.5, -0.5, 0.5), (2, 0, 1)]:
            u, v = sample_points(8)
            lhs = apply_q_h3_power(psi_family(J, M, N), N, 2.0)(p, u, v)
            rhs = p.power(2 * M) * psi_family(J, M, N)(p, u, v)
            assert rel_residual(lhs, rhs) < 1e-12

    def test_q_h3_inverse_composes_to_identity(self):
        p = P_CIRC
        f = psi_family(1.5, 0.5, 0.5)
        g = apply_q_h3_power(apply_q_h3_power(f, 0.5, 2.0), 0.5, -2.0)
        u, v = sample_points(6)
        assert rel_residual(g(p, u, v), f(p, u, v)) < 1e-13


class TestCasimir:
    @pytest.mark.parametrize("p", [P_TWO, P_CIRC], ids=["real", "circle"])
    @pytest.mark.parametrize("J,N", [(0.5, 0.5), (1, 0), (2, 1), (3, 0), (2.5, 0.5)])
    def test_eigenvalue(self, p, J, N):
        u, v = sample_points()
        want = q_number(J, p) * q_number(J + 1, p)
        interior = -J + 1 if J >= 1 else J  # top state plus one non-edge state
        for M in {J, interior}:
            f = psi_family(J, M, N)
            lhs = apply_casimir(f, N)(p, u, v)
            assert rel_residual(lhs, want * f(p, u, v)) < 1e-8

    def test_eigenvalue_oracle(self):
        # [1/2]_2 [3/2]_2 = (sqrt2/2)(7/(2 sqrt2)) / (3/2)^2 = (7/4)/(9/4) = 7/9
        want = q_number(0.5, P_TWO) * q_number(1.5, P_TWO)
        assert want == pytest.approx(7 / 9, rel=1e-14)
        f = psi_family(0.5, 0.5, 0.5)
        u, v = sample_points(5)
        lhs = apply_casimir(f, 0.5)(P_TWO, u, v)
        assert rel_residual(lhs, want * f(P_TWO, u, v)) < 1e-10

    def test_orderings_agree(self):
        p = P_TWO
        f = psi_family(1.5, 0.5, 0.5)
        u, v = sample_points()
        a = apply_casimir(f, 0.5, "plus_minus")(p, u, v)
        b = apply_casimir(f, 0.5, "minus_plus")(p, u, v)
        assert rel_residual(a, b) < 1e-9

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            apply_casimir(constant_family(1.0), 0, "sideways")


def three_call_h_plus(f, N):
    """The raising stencil with one call of f per dilation."""
    nf = float(N)

    def ev(p, u, v):
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
        q1, qm1 = p.power(1), p.power(-1)
        d = q1 - qm1
        f_pp = f(p, q1 * u, q1 * v)
        t1 = -p.power(-nf / 2) * (f_pp - f(p, qm1 * u, q1 * v)) / (d * u)
        t2 = -p.power(nf / 2) * v * (p.power(-nf) * f_pp - p.power(nf) * f(p, q1 * u, qm1 * v)) / d
        return t1 + t2
    return PlaneFamily(ev)


def three_call_h_minus(f, N):
    """The lowering stencil with one call of f per dilation."""
    nf = float(N)

    def ev(p, u, v):
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
        q1, qm1 = p.power(1), p.power(-1)
        d = q1 - qm1
        f_pp = f(p, q1 * u, q1 * v)
        t1 = u * p.power(-nf / 2) * (p.power(nf) * f_pp - p.power(-nf) * f(p, qm1 * u, q1 * v)) / d
        t2 = p.power(nf / 2) * (f_pp - f(p, q1 * u, qm1 * v)) / (d * v)
        return t1 + t2
    return PlaneFamily(ev)


def two_call_bracket_h3(f, N, shift):
    """[H3 + shift]_q from separate q^H3 and q^-H3 evaluations."""
    up = apply_q_h3_power(f, N, 1.0)
    dn = apply_q_h3_power(f, N, -1.0)

    def ev(p, u, v):
        d = p.power(1) - p.power(-1)
        return (p.power(shift) * up(p, u, v) - p.power(-shift) * dn(p, u, v)) / d
    return PlaneFamily(ev)


def separate_call_casimir(f, N, ordering):
    if ordering == "plus_minus":
        ladder = three_call_h_plus(three_call_h_minus(f, N), N)
        diag = two_call_bracket_h3(two_call_bracket_h3(f, N, -1), N, 0)
    else:
        ladder = three_call_h_minus(three_call_h_plus(f, N), N)
        diag = two_call_bracket_h3(two_call_bracket_h3(f, N, +1), N, 0)
    return PlaneFamily(lambda p, u, v: ladder(p, u, v) + diag(p, u, v))


STACKED_CASES = {
    "h_plus": (apply_h_plus, three_call_h_plus),
    "h_minus": (apply_h_minus, three_call_h_minus),
    "casimir_plus_minus": (lambda f, N: apply_casimir(f, N, "plus_minus"),
                           lambda f, N: separate_call_casimir(f, N, "plus_minus")),
    "casimir_minus_plus": (lambda f, N: apply_casimir(f, N, "minus_plus"),
                           lambda f, N: separate_call_casimir(f, N, "minus_plus")),
}


class TestStackedStencils:
    """The stencils evaluate their operand once, on the stacked dilations;
    the per-point arithmetic is that of one call per dilation."""

    @pytest.mark.parametrize("op", sorted(STACKED_CASES))
    @pytest.mark.parametrize("q", [0.6, 2.5])
    @pytest.mark.parametrize("J,N", [(1, 0), (2, 0), (1.5, 0.5), (2.5, 0.5)])
    def test_real_q_bits_match_separate_calls(self, op, q, J, N):
        p = QParam.positive_real(q)
        stacked, separate = STACKED_CASES[op]
        u, v = sample_points()
        for M in np.arange(-J, J + 1, 1.0):
            f = psi_family(J, M, N)
            got = stacked(f, N)(p, u, v)
            want = separate(f, N)(p, u, v)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), M

    @pytest.mark.parametrize("op", sorted(STACKED_CASES))
    @pytest.mark.parametrize("tau", [math.pi / 17, -0.25])
    @pytest.mark.parametrize("J,N", [(1, 0), (1.5, 0.5)])
    def test_circle_matches_separate_calls(self, op, tau, J, N):
        # stacking changes the points L is refined over, so only last bits move
        p = QParam.unit_circle(tau)
        stacked, separate = STACKED_CASES[op]
        u, v = sample_points()
        for M in np.arange(-J, J + 1, 1.0):
            f = psi_family(J, M, N)
            got = stacked(f, N)(p, u, v)
            want = separate(f, N)(p, u, v)
            scale = float(np.max(np.abs(want)))
            assert float(np.max(np.abs(got - want))) <= 1e-13 * max(scale, 1.0), M

    @pytest.mark.parametrize("M,rows", [(0.5, ()), ((1.5, 0.5, -0.5, -1.5), (4,))],
                             ids=["member", "tower"])
    def test_nested_stencils_reach_psi_once(self, M, rows):
        shapes = []
        base = psi_family(1.5, M, 0.5)

        def recorded(p, u, v):
            shapes.append(np.shape(u))
            return base(p, u, v)
        f = PlaneFamily(recorded)
        u, v = sample_points()
        ladder = apply_h_plus(apply_h_minus(f, 0.5), 0.5)(P_TWO, u, v)
        diag = _bracket_h3(_bracket_h3(f, 0.5, -1), 0.5, 0)(P_TWO, u, v)
        assert shapes == [(3, 3, u.size), (2, 2, u.size)]
        assert ladder.shape == diag.shape == rows + (u.size,)


TOWER_STENCILS = {
    "h_plus": apply_h_plus,
    "h_minus": apply_h_minus,
    "casimir_plus_minus": lambda f, N: apply_casimir(f, N, "plus_minus"),
    "casimir_minus_plus": lambda f, N: apply_casimir(f, N, "minus_plus"),
}


class TestTowerFamilies:
    """psi_family with a tuple of weights: every stencil acts on the stacked
    members row by row, with the bits of the per-member families."""

    @pytest.mark.parametrize("op", sorted(TOWER_STENCILS))
    @pytest.mark.parametrize("p", [QParam.positive_real(0.6), QParam.positive_real(2.5),
                                   QParam.unit_circle(0.2), QParam.unit_circle(-0.2)],
                             ids=["q0.6", "q2.5", "tau0.2", "tau-0.2"])
    @pytest.mark.parametrize("J,N", [(2, 0), (1.5, 0.5)])
    def test_rows_have_the_bits_of_the_member_families(self, op, p, J, N):
        ms = tuple(np.arange(J, -J - 1, -1.0))
        u, v = sample_points()
        got = TOWER_STENCILS[op](psi_family(J, ms, N), N)(p, u, v)
        assert got.shape == (len(ms), u.size)
        for row, M in zip(got, ms):
            want = TOWER_STENCILS[op](psi_family(J, M, N), N)(p, u, v)
            assert row.tobytes() == want.tobytes(), M

    def test_has_no_decomposition_and_inner_rejects_it(self):
        tower = psi_family(1, (1, 0, -1), 0)
        assert tower.meta is None
        with pytest.raises(ValueError, match="Fourier decomposition"):
            inner(tower, psi_family(1, 0, 0), P_TWO)

    @pytest.mark.parametrize("M", [(), (1, 2), (0, 0.5), (1, [0])],
                             ids=["empty", "above-J", "mixed-class", "list-weight"])
    def test_bad_weights_rejected_when_built(self, M):
        with pytest.raises(ValueError):
            psi_family(1, M, 0)


class TestConjugationIdentity:
    @pytest.mark.parametrize("p", [P_TWO, P_CIRC], ids=["real", "circle"])
    def test_q2h3_conjugates_ladders(self, p):
        # q^{2H3} H± q^{-2H3} = q^{±2} H± on polynomial families
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        f = combine(coeffs, [monomial_family(1, 1), monomial_family(2, 0), monomial_family(0, 2)])
        u, v = sample_points(12)
        for apply_op, s in ((apply_h_plus, +2.0), (apply_h_minus, -2.0)):
            lhs = apply_q_h3_power(apply_op(apply_q_h3_power(f, 0.5, -2.0), 0.5), 0.5, 2.0)(p, u, v)
            rhs = p.power(s) * apply_op(f, 0.5)(p, u, v)
            assert rel_residual(lhs, rhs) < CONJUGATION_TOL


class TestMatrixIrrep:
    def test_spin_half(self):
        ir = matrix_irrep(0.5, P_TWO)
        assert ir.dimension == 2
        assert np.allclose(ir.Hplus, [[0, 1], [0, 0]])
        assert np.allclose(ir.Hminus, [[0, 0], [1, 0]])
        assert np.allclose(ir.H3, [[0.5, 0], [0, -0.5]])

    @pytest.mark.parametrize("p", [QParam.positive_real(0.5), P_TWO,
                                   QParam.unit_circle(math.pi / 17)],
                             ids=["half", "two", "circle17"])
    def test_commutation_relations(self, p):
        for twice_j in range(1, 10):
            J = twice_j / 2
            ir = matrix_irrep(J, p)
            c1 = ir.H3 @ ir.Hplus - ir.Hplus @ ir.H3 - ir.Hplus
            c2 = ir.H3 @ ir.Hminus - ir.Hminus @ ir.H3 + ir.Hminus
            comm = ir.Hplus @ ir.Hminus - ir.Hminus @ ir.Hplus
            want = np.diag([q_number(2.0 * float(m), p) for m in ir.m_list])
            assert np.max(np.abs(c1)) < MATRIX_COMM_TOL
            assert np.max(np.abs(c2)) < MATRIX_COMM_TOL
            assert np.max(np.abs(comm - want)) < MATRIX_COMM_TOL

    def test_casimir_matrix(self):
        for p in (P_TWO, QParam.unit_circle(math.pi / 17)):
            for J in (0.5, 1, 2.5, 4.5):
                ir = matrix_irrep(J, p)
                want = q_number(J, p) * q_number(J + 1, p) * np.eye(ir.dimension)
                assert np.max(np.abs(casimir_matrix(ir) - want)) < CASIMIR_MATRIX_TOL

    def test_adjointness(self):
        ir = matrix_irrep(2.5, P_TWO)
        assert np.array_equal(ir.Hplus.T, ir.Hminus)

    def test_degenerate_parameter_rejected(self):
        # tau = pi/4 makes [4]_q = 0; J = 3/2 needs [n] through n = 4
        p = QParam.unit_circle(math.pi / 4)
        matrix_irrep(1, p)  # n through 3: fine
        with pytest.raises(ValueError, match="degenerate"):
            matrix_irrep(1.5, p)

    def test_negative_radicand_rejected(self):
        # tau = 2pi/5: [3]_q = sin(6pi/5)/sin(2pi/5) < 0 while |[4]_q| = 1
        # passes the degeneracy screen, so J = 3/2 hits [1][3] < 0
        p = QParam.unit_circle(2 * math.pi / 5)
        with pytest.raises(ValueError, match="radicand"):
            matrix_irrep(1.5, p)


class TestCombine:
    def test_linearity(self):
        f = combine([2.0, -1j], [monomial_family(1, 0), monomial_family(0, 1)])
        u, v = sample_points(4)
        want = 2.0 * u - 1j * v
        assert np.allclose(f(P_TWO, u, v), want)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            combine([1.0], [monomial_family(1, 0), monomial_family(0, 1)])


FOURIER_ANGLES = 32
FOURIER_TOL = 1e-13


def _decomposed_families(p, N):
    """Every qops constructor, singly and nested, on a tower at this N."""
    J = 1.0 if N != 0.5 else 1.5
    states = [psi_family(J, M, N) for M in (J, J - 1, -J)] + [psi_family(J + 1, J - 1, N)]
    rng = np.random.default_rng(7)
    span = combine(rng.normal(size=4) + 1j * rng.normal(size=4), states)
    pair = combine([0.3 - 1.1j, 2.0], [states[1], states[3]])  # one mode, two components
    p_pin = QParam.positive_real(1.1) if p.regime is P_TWO.regime else QParam.unit_circle(0.05)
    stencils = {
        "h_plus": apply_h_plus(span, N),
        "h_minus": apply_h_minus(span, N),
        "q_h3": apply_q_h3_power(span, N, 2.0),
        "bracket_h3": _bracket_h3(span, N, 1),
        "casimir_pm": apply_casimir(span, N, "plus_minus"),
        "casimir_mp": apply_casimir(span, N, "minus_plus"),
    }
    return {
        "psi": states[0],
        "fixed_param": with_fixed_param(states[1], p_pin),
        "combine": span,
        "combine_one_mode": pair,
        **stencils,
        "h_plus_h_minus_q_h3": apply_h_plus(apply_h_minus(apply_q_h3_power(span, N, -1.0), N), N),
        "h_plus_twice": apply_h_plus(apply_h_plus(pair, N), N),
        "combine_of_stencils": combine([1.0, -2j, 0.5], [stencils["h_plus"], stencils["h_minus"],
                                                         stencils["casimir_pm"]]),
        "fixed_param_of_stencil": with_fixed_param(stencils["h_minus"], p_pin),
    }


class TestFourierDecomposition:
    """Every family built from basis members records the modes it contains:
    on a circle |u| = rho its samples carry energy in those modes only, each
    component is e^(-i m phi) times its value at phi = 0, and the components
    add up to the family's own evaluator."""

    @pytest.mark.parametrize("N", [0, 0.5, 1])
    @pytest.mark.parametrize("p", [QParam.positive_real(1.3), QParam.unit_circle(0.2)],
                             ids=["real", "circle"])
    def test_components_resum_and_declare_every_mode(self, p, N):
        phi = np.arange(FOURIER_ANGLES) * (2 * np.pi / FOURIER_ANGLES)
        for name, fam in _decomposed_families(p, N).items():
            assert fam.meta, name
            for rho in (0.7, 1.6):
                u, v = rho * np.exp(1j * phi), rho * np.exp(-1j * phi)
                whole = np.asarray(fam(p, u, v))
                scale = max(1.0, float(np.max(np.abs(whole))))
                resum = 0
                for c, comp, m in fam.meta:
                    assert comp.meta is None and isinstance(m, int), name
                    vals = np.asarray(comp(p, u, v))
                    radial = comp(p, rho, rho) * np.exp(-1j * m * phi)
                    assert np.max(np.abs(vals - radial)) < FOURIER_TOL * scale, (name, m)
                    resum = resum + c * vals
                assert np.max(np.abs(resum - whole)) < FOURIER_TOL * scale, name
                # fft bin j holds the e^(i j phi) content: mode m is bin -m mod 32
                spectrum = np.abs(np.fft.fft(whole)) / FOURIER_ANGLES
                declared = {-m % FOURIER_ANGLES for _, _, m in fam.meta}
                stray = [j for j in range(FOURIER_ANGLES) if j not in declared]
                assert np.max(spectrum[stray]) < FOURIER_TOL * scale, name
                assert np.max(spectrum[sorted(declared)]) > 1e-3 * scale, name

    def test_modes_follow_the_operators(self):
        f = combine([1.0, 2.0], [psi_family(2, 1, 0), psi_family(2, -2, 0)])
        assert [m for _, _, m in f.meta] == [1, -2]
        assert [c for c, _, _ in f.meta] == [1.0, 2.0]
        assert [m for _, _, m in apply_h_plus(f, 0).meta] == [2, -1]
        assert [m for _, _, m in apply_h_minus(f, 0).meta] == [0, -3]
        for same in (apply_q_h3_power(f, 0, 2.0), _bracket_h3(f, 0, 0), apply_casimir(f, 0),
                     with_fixed_param(f, P_CIRC)):
            assert [m for _, _, m in same.meta] == [1, -2]
        assert psi_family(1.5, -0.5, 0.5).meta[0][0::2] == (1, 0)

    def test_unknown_decomposition_stays_unknown(self):
        raw = monomial_family(2, 1)
        for fam in (raw, apply_h_plus(raw, 0), apply_casimir(raw, 0), with_fixed_param(raw, P_TWO),
                    combine([1.0, 1.0], [raw, psi_family(1, 0, 0)])):
            assert fam.meta is None
        u, v = sample_points(6)
        assert np.array_equal(apply_h_plus(raw, 0)(P_TWO, u, v),
                              apply_h_plus(PlaneFamily(raw.evaluator), 0)(P_TWO, u, v))
