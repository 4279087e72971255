import inspect
import math
import types

import numpy as np
import pytest

from suq2 import QParam, q_number, qcore, qinner, qops
from suq2.qops import (
    IrrepMatrices,
    PlaneFamily,
    apply_casimir,
    apply_h_minus,
    apply_h_plus,
    apply_q_h3_power,
    casimir_matrix,
    combine,
    matrix_irrep,
    psi_family,
    psi_tower,
    with_fixed_param,
)
from suq2.qcore import HalfInt
from suq2.qspecial import psi

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


def single_mode(ev, mode: int) -> PlaneFamily:
    """The family of the one component ev, of mode mode."""
    return qops._family(((1, ev, mode),))


def constant_family(c) -> PlaneFamily:
    return single_mode(lambda p, u, v: c * np.ones_like(np.asarray(u, dtype=complex)
                                                        * np.asarray(v, dtype=complex)), 0)


def monomial_family(j: int, k: int) -> PlaneFamily:
    return single_mode(lambda p, u, v: np.asarray(u, complex) ** j * np.asarray(v, complex) ** k,
                       k - j)


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
        # each operator refuses, by its own name, the axes it divides by
        f = monomial_family(1, 1)
        for op, name, singular in ((apply_h_plus, "h_plus", "u"), (apply_h_minus, "h_minus", "v"),
                                   (apply_casimir, "casimir", "uv")):
            for axis, (u, v) in (("u", (0.0, 1.0)), ("v", (1.0, 0.0))):
                if axis in singular:
                    with pytest.raises(ValueError, match=f"^{name} stencil is singular at {axis} = 0$"):
                        op(f, 0)(P_TWO, u, v)
                else:
                    assert np.isfinite(op(f, 0)(P_TWO, u, v))

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

    @pytest.mark.parametrize("ordering", ["plus_minus", "minus_plus"])
    def test_agrees_with_each_separate_call_ordering(self, ordering):
        p = P_TWO
        f = psi_family(1.5, 0.5, 0.5)
        u, v = sample_points()
        got = apply_casimir(f, 0.5)(p, u, v)
        want = separate_call_casimir(f, 0.5, ordering)(p, u, v)
        assert rel_residual(got, want) < 1e-9


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
    return ev


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
    return ev


def two_call_bracket_h3(f, N, shift):
    """[H3 + shift]_q from one call of f for each of q^H3 and q^-H3, where
    q^(+-H3) f = q^(-+N) f(q^-+1 u, q^+-1 v)."""
    nf = float(N)

    def ev(p, u, v):
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
        q1, qm1 = p.power(1), p.power(-1)
        up = p.power(-nf) * f(p, qm1 * u, q1 * v)
        dn = p.power(nf) * f(p, q1 * u, qm1 * v)
        return (p.power(shift) * up - p.power(-shift) * dn) / (q1 - qm1)
    return ev


def separate_call_casimir(f, N, ordering):
    if ordering == "plus_minus":
        ladder = three_call_h_plus(three_call_h_minus(f, N), N)
        diag = two_call_bracket_h3(two_call_bracket_h3(f, N, -1), N, 0)
    else:
        ladder = three_call_h_minus(three_call_h_plus(f, N), N)
        diag = two_call_bracket_h3(two_call_bracket_h3(f, N, +1), N, 0)
    return lambda p, u, v: ladder(p, u, v) + diag(p, u, v)


# each stencil: (the operator, its row of psi_tower's result, its eta-shifts)
SHIFT_CASES = {
    "h_plus": (apply_h_plus, 1, 2),
    "h_minus": (apply_h_minus, 2, 2),
    "casimir": (apply_casimir, 3, 3),
}
# each definition with one call of f per dilation of each nested stencil:
# (the stencil it defines, the definition); the one Casimir table is checked
# against both orderings
NESTED_DEFINITIONS = {
    "h_plus": ("h_plus", three_call_h_plus),
    "h_minus": ("h_minus", three_call_h_minus),
    "casimir_plus_minus": ("casimir", lambda f, N: separate_call_casimir(f, N, "plus_minus")),
    "casimir_minus_plus": ("casimir", lambda f, N: separate_call_casimir(f, N, "minus_plus")),
}
SHIFT_PARAMS = [QParam.positive_real(2.5), QParam.positive_real(0.6), P_CIRC,
                QParam.unit_circle(-0.25)]


class TestShiftEvaluation:
    """A stencil calls its operand once, at (u, q^s v) for the distinct
    eta-shifts s = a + b of its table and s = 0, and takes f(q^a u, q^b v)
    as q^(-a m) times the row s for an operand of mode m."""

    @pytest.mark.parametrize("op", sorted(NESTED_DEFINITIONS))
    @pytest.mark.parametrize("p", SHIFT_PARAMS, ids=["q2.5", "q0.6", "tau_pi/17", "tau-0.25"])
    @pytest.mark.parametrize("J,N", [(1, 0), (2, 0), (1.5, 0.5), (2.5, 0.5)])
    def test_members_and_towers_match_the_nested_definitions(self, op, p, J, N):
        # the tables add their terms in another order than the nested
        # stencils, at other points; the worst difference seen is 3.1e-13,
        # for H+ on the top member at q 2.5, J 5/2, whose value is rounding
        # around 0
        name, separate = NESTED_DEFINITIONS[op]
        stencil, row, _ = SHIFT_CASES[name]
        u, v = sample_points()
        tower = psi_tower(J, N, p, u, v)[row]
        for got_tower, M in zip(tower, np.arange(J, -J - 1, -1.0)):
            f = psi_family(J, M, N)
            want = separate(f, N)(p, u, v)
            scale = max(1.0, float(np.max(np.abs(want))))
            for got in (stencil(f, N)(p, u, v), got_tower):
                assert got.shape == want.shape
                assert float(np.max(np.abs(got - want))) <= 1e-12 * scale, M

    @pytest.mark.parametrize("op", sorted(SHIFT_CASES))
    def test_a_stencil_calls_its_operand_once_on_its_shifts(self, op):
        shapes = []
        base = psi_family(1.5, 0.5, 0.5)

        def recorded(p, u, v):
            shapes.append((np.shape(u), np.shape(v)))
            return base(p, u, v)
        stencil, _, shifts = SHIFT_CASES[op]
        u, v = sample_points()
        got = stencil(single_mode(recorded, 1), 0.5)(P_TWO, u, v)
        assert shapes == [((shifts, u.size), (shifts, u.size))]
        assert got.shape == (u.size,)

    @pytest.mark.parametrize("p", SHIFT_PARAMS, ids=["q2.5", "q0.6", "tau_pi/17", "tau-0.25"])
    @pytest.mark.parametrize("N", [0, 0.5, 1])
    def test_every_plan_steps_its_rows_by_q_squared(self, p, N):
        # a member's and a tower's stepped rows take row k from row k - 1
        # by one q^2 step, so every plan they meet must put its rows on the
        # shifts 0, 2, ..., 2k: each stencil alone, and the tower's three
        N = HalfInt.of(N)
        nf, member_mode = float(N), (N + N).to_int()  # the member M = N
        tower_modes = tuple((m + N).to_int() for m in qcore.m_values(N + HalfInt(2)))
        for ops, want in ((("h_plus",), (0, 2)), (("h_minus",), (0, 2)),
                          (("casimir",), (0, 2, 4))):
            assert qops._plan(ops, nf, p, member_mode)[0] == want, ops
        assert qops._plan(("h_plus", "h_minus", "casimir"), nf, p, tower_modes)[0] == (0, 2, 4)

    def test_only_a_member_hands_over_its_rows(self, monkeypatch):
        # a member under a stencil reads its stepped rows from qspecial's
        # psi entry; a pinned member and a q^(aH3) image are called on the
        # stack, and their members take psi's values there; a stencil image
        # is called on the stack too, and its own stencil's member reads its
        # stepped rows
        calls = []
        entry = qops._psi

        def recorded(J, ms, N, p, u, v, stepped=False):
            calls.append(("rows" if stepped else "values", p, np.shape(u)))
            return entry(J, ms, N, p, u, v, stepped)
        monkeypatch.setattr(qops, "_psi", recorded)
        f = psi_family(1.5, 0.5, 0.5)
        u, v = sample_points(4)
        routes = {
            "member": (apply_h_plus(f, 0.5), [("rows", P_TWO, (2, 4))]),
            "pinned": (apply_h_plus(with_fixed_param(f), 0.5),
                       [("values", QParam.classical(), (2, 4))]),
            "q_h3": (apply_h_plus(apply_q_h3_power(f, 0.5, 2.0), 0.5),
                     [("values", P_TWO, (2, 4))]),
            "nested": (apply_h_plus(apply_h_minus(f, 0.5), 0.5),
                       [("rows", P_TWO, (2, 2, 4))]),
        }
        for route, (g, want) in routes.items():
            calls.clear()
            g(P_TWO, u, v)
            assert calls == want, route

    def test_a_coefficient_one_term_enters_the_sum_unmultiplied(self):
        # (1+0j) * (-0-0j) is 0-0j: a basis member multiplied by its
        # coefficient 1 would lose the sign of a zero real part
        def zeros(p, u, v):
            return np.full(2, complex(-0.0, -0.0))
        f = psi_family(1, 0, 0)
        u, v = sample_points(2)
        for c in (1, 1.0, 1 + 0j):
            got = qops._sum_terms([(c, zeros, 0)], P_TWO, u, v)
            assert got.tobytes() == zeros(P_TWO, u, v).tobytes(), c
        got = qops._sum_terms([(2j, f, 0), (1, zeros, 0)], P_TWO, u, v)
        assert got.tobytes() == (2j * f(P_TWO, u, v) + zeros(P_TWO, u, v)).tobytes()

    def test_each_component_is_called_once(self):
        # a family of two modes: each component is called once on its shifts
        calls = []

        def recorded(M):
            base = psi_family(1, M, 0)
            return single_mode(lambda p, u, v: calls.append(M) or base(p, u, v), M)
        f = combine([1.0, 2j], [recorded(1), recorded(-1)])
        u, v = sample_points()
        got = apply_h_minus(f, 0)(P_TWO, u, v)
        assert calls == [1, -1] and [m for _, _, m in apply_h_minus(f, 0).meta] == [0, -2]
        want = three_call_h_minus(f, 0)(P_TWO, u, v)
        assert rel_residual(got, want) < 1e-13

    @pytest.mark.parametrize("N", [0, 0.5, 1, -1.5])
    def test_casimir_orderings_compose_to_one_table(self, N):
        # [H+, H-] = [2 H3]_q holds exactly on the realization, so the
        # orderings H+H- + [H3][H3-1] and H-H+ + [H3][H3+1] agree entry by
        # entry, in the same sorted order, with the one Casimir table, and
        # the dilations (-2, 2) and (2, -2) of the products cancel
        nf = float(N)
        hp, hm = qops._h_plus(nf), qops._h_minus(nf)
        pm = qops._compose((hp, hm), (qops._bracket(nf, 0), qops._bracket(nf, -1)))
        mp = qops._compose((hm, hp), (qops._bracket(nf, 0), qops._bracket(nf, +1)))
        assert pm == mp and list(pm[1].items()) == list(mp[1].items())
        assert list(qops._table("casimir", nf)[1].items()) == list(pm[1].items())
        order, terms = pm
        assert order == 2 and len(terms) == 12
        assert {key[:2] for key in terms} == {(0, 0), (0, 2), (2, 0), (2, 2)}
        assert {a + b for a, b, _, _ in terms} == {0, 2, 4}
        assert all(i == j for _, _, i, j in terms)

    def test_tables_are_built_once_per_n_and_evaluated_once_per_q(self):
        for cache in (qops._table, qops._plan):
            cache.cache_clear()
        f = psi_family(1, 0, 0)
        u, v = sample_points(4)
        for p in (P_TWO, P_TWO, P_CIRC, P_TWO):
            apply_casimir(f, 0)(p, u, v)
        assert qops._table.cache_info().misses == 1  # composed once, for N 0
        assert qops._plan.cache_info().misses == 2  # evaluated once per q

    @pytest.mark.parametrize("N", [0, 0.5, 1, -1.5])
    @pytest.mark.parametrize("p", [P_TWO, P_CIRC], ids=["real", "circle"])
    def test_every_plan_steps_by_q_squared(self, N, p):
        # a member steps its rows from one shift to the next by q^2 (_apply)
        for ops in (("h_plus",), ("h_minus",), ("casimir",), ("h_plus", "h_minus", "casimir")):
            shifts = qops._plan(ops, float(N), p, 0)[0]
            assert shifts == tuple(range(0, 2 * len(shifts), 2)) and len(shifts) > 1, ops

    @pytest.mark.parametrize("N", [0, 0.5, 1, -1.5])
    def test_every_term_of_a_table_shifts_the_mode_alike(self, N):
        # a stencil reads its mode shift from its table's first term, so
        # every u^i v^j term of the table must carry the same j - i
        for op, shift in (("h_plus", 1), ("h_minus", -1), ("casimir", 0)):
            terms = qops._table(op, float(N))[1]
            assert terms and {j - i for _, _, i, j in terms} == {shift}, op


class TestPsiTower:
    """psi_tower: a (J, N) tower's members, H+, H- and Casimir from one call
    on its eta-shifts, each row with the bits of the operator on its own
    member; a tuple of J stacks its towers, each row with the same bits."""

    @pytest.mark.parametrize("op", sorted(SHIFT_CASES))
    @pytest.mark.parametrize("p", [QParam.positive_real(0.6), QParam.positive_real(2.5),
                                   QParam.unit_circle(0.2), QParam.unit_circle(-0.2)],
                             ids=["q0.6", "q2.5", "tau0.2", "tau-0.2"])
    @pytest.mark.parametrize("J,N", [(2, 0), (1.5, 0.5), ((0.5, 1.5, 2.5), 0.5), ((1, 2), 1)],
                             ids=["J2-N0", "J1.5-N0.5", "J-tuple-N0.5", "J-tuple-N1"])
    def test_rows_have_the_bits_of_the_member_families(self, op, p, J, N):
        labels = [(j, M) for j in (J if isinstance(J, tuple) else (J,))
                  for M in np.arange(j, -j - 1, -1.0)]
        u, v = sample_points()
        stencil, row, _ = SHIFT_CASES[op]
        members, got = (psi_tower(J, N, p, u, v)[k] for k in (0, row))
        assert got.shape == members.shape == (len(labels), u.size)
        for got_row, member, (j, M) in zip(got, members, labels):
            f = psi_family(j, M, N)
            assert member.tobytes() == f(p, u, v).tobytes(), (j, M)
            assert got_row.tobytes() == stencil(f, N)(p, u, v).tobytes(), (j, M)

    def test_one_psi_call_on_the_tower_and_its_three_shifts(self, monkeypatch):
        # the rows on the shifts are stepped rows from qspecial's psi entry,
        # one call per J
        calls = []
        entry = qops._psi

        def recorded(J, ms, N, p, u, v, stepped=False):
            calls.append(("rows" if stepped else "values", ms, np.shape(u), np.shape(v)))
            return entry(J, ms, N, p, u, v, stepped)
        monkeypatch.setattr(qops, "_psi", recorded)
        u, v = sample_points()
        out = psi_tower(1.5, 0.5, P_TWO, u, v)
        ms = (1.5, 0.5, -0.5, -1.5)
        assert calls == [("rows", tuple(map(HalfInt.of, ms)), (3, u.size), (3, u.size))]
        assert len(out) == 4 and all(x.shape == (4, u.size) for x in out)
        calls.clear()
        out = psi_tower((0.5, 1.5), 0.5, P_TWO, u, v)
        assert [M for _, M, _, _ in calls] == [(HalfInt.of(0.5), HalfInt.of(-0.5)),
                                               tuple(map(HalfInt.of, ms))]
        assert len(out) == 4 and all(x.shape == (6, u.size) for x in out)

    @pytest.mark.parametrize("J,N,message", [
        (0.5, 0, r"^\(J,N\) = \(1/2,0\) must be integers or half-integers together$"),
        (1, 2, r"^need \|N\| <= J, got \(J,N\) = \(1,2\)$"),
        (-1, 0, r"^J = -1 must be >= 0$"),
        ((0.5, 1), 0.5, r"^\(J,N\) = \(1,1/2\) must be integers or half-integers together$"),
        ((), 0, r"^psi_tower needs at least one J$")])
    def test_refuses_a_tower_that_psi_refuses(self, J, N, message):
        u, v = sample_points(3)
        with pytest.raises(ValueError, match=message):
            psi_tower(J, N, P_TWO, u, v)

    @pytest.mark.parametrize("M", [(), (1, 2), (0, 0.5), (1, [0])],
                             ids=["empty", "above-J", "mixed-class", "list-weight"])
    def test_psi_family_refuses_a_tuple_of_weights(self, M):
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

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError, match="^J must be >= 0$"):
            matrix_irrep(-1, P_TWO)

    def test_degenerate_parameter_rejected(self):
        # tau = pi/4 makes [4]_q = 0; J = 3/2 needs [n] through n = 4
        p = QParam.unit_circle(math.pi / 4)
        matrix_irrep(1, p)  # n through 3: fine
        with pytest.raises(ValueError, match="degenerate"):
            matrix_irrep(1.5, p)

    def test_negative_radicand_rejected(self):
        # tau = 2pi/5: [3]_q = sin(6pi/5)/sin(2pi/5) < 0 while |[4]_q| = 1
        # passes the degeneracy screen, so J = 3/2 hits [1][3] < 0; tau = 1
        # makes [6]_q < 0, so J = 3 hits [1][6] < 0 at M = 2.  The refusal
        # names M + 1 of the first negative radicand [J - M][J + M + 1]
        for J, tau, M in ((1.5, 2 * math.pi / 5, "3/2"), (3, 1.0, "3")):
            with pytest.raises(ValueError, match=f"^negative ladder radicand at M={M}$"):
                matrix_irrep(J, QParam.unit_circle(tau))

    @pytest.mark.parametrize("p", [QParam.positive_real(0.3), QParam.positive_real(2.718282),
                                   QParam.unit_circle(0.2), QParam.unit_circle(-0.2),
                                   QParam.classical()],
                             ids=["q0.3", "q2.718282", "tau0.2", "tau-0.2", "q1"])
    def test_h_minus_is_a_copy_of_the_transpose_of_h_plus(self, p):
        # each entry of H- is the radicand of its H+ entry, the same two
        # q-numbers in the other order; H- owns its memory, so writing into
        # one ladder leaves the other as built
        for twice in range(14):
            ir = matrix_irrep(twice / 2, p)
            assert ir.Hminus.tobytes() == np.ascontiguousarray(ir.Hplus.T).tobytes(), twice
            assert not np.shares_memory(ir.Hminus, ir.Hplus), twice


class TestWithFixedParam:
    @pytest.mark.parametrize("p", [QParam.positive_real(1.3), QParam.unit_circle(0.2)],
                             ids=["q1.3", "tau0.2"])
    def test_pins_every_component_at_q_1(self, p):
        f = combine([0.3 - 1.1j, 2.0], [psi_family(1.5, 0.5, 0.5), psi_family(2.5, -0.5, 0.5)])
        u, v = sample_points(6)
        got = with_fixed_param(f)(p, u, v)
        assert got.tobytes() == f(QParam.classical(), u, v).tobytes()


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
    stencils = {
        "h_plus": apply_h_plus(span, N),
        "h_minus": apply_h_minus(span, N),
        "q_h3": apply_q_h3_power(span, N, 2.0),
        "casimir": apply_casimir(span, N),
    }
    return {
        "psi": states[0],
        "fixed_param": with_fixed_param(states[1]),
        "combine": span,
        "combine_one_mode": pair,
        **stencils,
        "h_plus_h_minus_q_h3": apply_h_plus(apply_h_minus(apply_q_h3_power(span, N, -1.0), N), N),
        "h_plus_twice": apply_h_plus(apply_h_plus(pair, N), N),
        "combine_of_stencils": combine([1.0, -2j, 0.5], [stencils["h_plus"], stencils["h_minus"],
                                                         stencils["casimir"]]),
        "stencil_of_fixed_param": apply_h_minus(with_fixed_param(span), N),
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
                    assert not isinstance(comp, PlaneFamily) and isinstance(m, int), name
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
        for same in (apply_q_h3_power(f, 0, 2.0), apply_casimir(f, 0),
                     with_fixed_param(f)):
            assert [m for _, _, m in same.meta] == [1, -2]
        assert psi_family(1.5, -0.5, 0.5).meta[0][0::2] == (1, 0)


SESQUILINEAR_TOL = 1e-14


class TestSesquilinearity:
    """<c f|g> = conj(c) <f|g> and <g|c f> = c <g|f> for every family
    builder: a form that mirrored one term into the other, or applied a
    component's coefficient on the wrong side, would break it.  The four
    products of one family are one qinner._products call, so they share
    their radial nodes."""

    @pytest.mark.parametrize("N", [0, 0.5, 1])
    @pytest.mark.parametrize("p", [QParam.positive_real(1.3), QParam.unit_circle(0.2),
                                   QParam.unit_circle(-0.15)],
                             ids=["q1.3", "tau0.2", "tau-0.15"])
    def test_scalar_product_is_sesquilinear(self, p, N):
        # g spans the two towers, J and J + 1, that _decomposed_families draws on
        J = HalfInt.of(1.5 if N == 0.5 else 1)
        rng = np.random.default_rng(5)
        members = [psi_family(Jt, M, N) for Jt in (J, J + 1) for M in qcore.m_values(Jt)]
        g = combine(rng.normal(size=len(members)) + 1j * rng.normal(size=len(members)), members)
        for name, f in _decomposed_families(p, N).items():
            for c in (1j, 0.6 - 1.7j):
                cf = combine([c], [f])
                cf_g, f_g, g_cf, g_f = qinner._products([(cf, g), (f, g), (g, cf), (g, f)], p)
                assert abs(f_g) > 1e-6 and abs(g_f) > 1e-6, name
                for got, want in ((cf_g, np.conj(c) * f_g), (g_cf, c * g_f)):
                    assert abs(got - want) <= SESQUILINEAR_TOL * abs(want), (name, c)


MIRROR_RADII = np.exp(np.arange(-20.0, 21.0))  # rho = e^-20, ..., e^20


class TestCircleMirror:
    """On the circle q^-1 = conj(q), and every component mirrors exactly:
    comp(q^-1; conj x, conj y) = conj comp(q; x, y).  That makes the circle
    form's second term the conjugate of its first (B2 = conj(B1)).  It is
    checked off the slice at (u, 1.7 v) and on the points where the form
    evaluates, (rho, rho) and (q^-1 rho, q^-1 rho).  array_equal, not bytes:
    the two sides may differ in the sign of a zero."""

    @pytest.mark.parametrize("N", [0, 0.5, 1])
    @pytest.mark.parametrize("p", [QParam.unit_circle(0.2), QParam.unit_circle(-0.15)],
                             ids=["tau0.2", "tau-0.15"])
    def test_every_component_mirrors(self, p, N):
        u, v = sample_points(6)
        shrunk = p.power(-1) * MIRROR_RADII
        points = [(u, 1.7 * v), (MIRROR_RADII, MIRROR_RADII), (shrunk, shrunk)]
        for name, fam in _decomposed_families(p, N).items():
            for k, (_, comp, _) in enumerate(fam.meta):
                for x, y in points:
                    mirrored = comp(p.inverse(), np.conj(x), np.conj(y))
                    assert np.array_equal(mirrored, np.conj(comp(p, x, y))), (name, k)

    @pytest.mark.parametrize("N", [0, 0.5, 1])
    @pytest.mark.parametrize("p", [QParam.unit_circle(0.2), QParam.unit_circle(-0.15)],
                             ids=["tau0.2", "tau-0.15"])
    def test_products_equal_both_terms_evaluated_in_full(self, monkeypatch, p, N):
        # _products mirrors the first term's component values into the
        # second; here each block's integrand at the first radial level is
        # redone with both terms evaluated at their own parameters, as at
        # real q.  A mirror of the coefficient-weighted sum would fail it.
        fams = list(_decomposed_families(p, N).values())
        pairs = [(f, g) for f in fams for g in fams]
        blocks = {}
        for f, g in pairs:
            common = tuple(sorted({m for _, _, m in f.meta} & {m for _, _, m in g.meta}))
            if common:  # else an exact 0.0, with no integral
                blocks.setdefault(common, []).append((f, g))
        firsts = []
        radial_integral = qinner.radial_integral

        class FirstLevel(Exception):
            pass

        def first_level(F):
            def recorded(rho):
                firsts.append((rho, F(rho)))
                raise FirstLevel
            try:
                radial_integral(recorded)
            except FirstLevel:
                return types.SimpleNamespace(value=np.zeros(len(firsts[-1][1])))

        monkeypatch.setattr(qinner, "radial_integral", first_level)
        qinner._products(pairs, p)
        assert len(firsts) == len(blocks) > 1
        for (common, block), (rho, got) in zip(blocks.items(), firsts):
            eta, want = rho ** 2, 0
            for bra_p, ket_p, s in qinner._terms(p):
                w = s / ((1.0 + eta) * (1.0 + s * s * eta))
                for m in common:
                    bra, ket = (np.array([qops._sum_terms([t for t in h.meta if t[2] == m],
                                                          hp, x, x) for h in side])
                                for side, hp, x in (([f for f, _ in block], bra_p, rho),
                                                    ([g for _, g in block], ket_p, s * rho)))
                    want = want + np.conj(bra) * w * ket
            assert np.array_equal(got, want), common


def _public_functions() -> dict:
    """qops' own public functions by name."""
    return {name: fn for name, fn in vars(qops).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == qops.__name__}


def _annotated_builders() -> set:
    """The public qops functions annotated to return a PlaneFamily."""
    return {name for name, fn in _public_functions().items()
            if fn.__annotations__.get("return") == "PlaneFamily"}


def test_every_public_family_builder_is_annotated():
    # a benchmark tracer finds the builders whose families it wraps by the
    # return annotation "PlaneFamily" alone, so a builder without it would
    # go untraced; each public function is called on sample arguments
    fam = psi_family(1, 0, 0)
    u, v = sample_points(3)
    sample = {"f": fam, "J": 1, "M": 0, "N": 0, "p": P_TWO, "a": 1.0,
              "coeffs": [1.0], "families": [fam], "ir": matrix_irrep(1, P_TWO), "u": u, "v": v}
    builders = set()
    for name, fn in _public_functions().items():
        params = inspect.signature(fn).parameters.values()
        args = [sample[prm.name] for prm in params if prm.default is inspect.Parameter.empty]
        if isinstance(fn(*args), PlaneFamily):
            builders.add(name)
    assert builders == _annotated_builders()
    assert {"psi_family", "apply_h_plus", "apply_h_minus", "apply_casimir"} <= builders


def test_the_family_catalogue_calls_every_builder(monkeypatch):
    # the Fourier, sesquilinearity and mirror checks run over
    # _decomposed_families, so a builder it never calls would go unchecked
    called = set()

    def recorded(name):
        builder = getattr(qops, name)

        def wrapper(*args):
            called.add(name)
            return builder(*args)
        return wrapper
    for name in _annotated_builders():
        monkeypatch.setitem(globals(), name, recorded(name))
    _decomposed_families(QParam.unit_circle(0.2), 0.5)
    assert called == _annotated_builders()
