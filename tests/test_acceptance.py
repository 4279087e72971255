"""End-to-end acceptance: eight criteria, each printing one pass/fail line.

Every criterion recomputes its residuals from the public API at the stated
parameters and tolerances; nothing is reused from cached suite output.  The
status lines are written to the real stdout so they stay visible under
pytest's capture.
"""
import math
import sys

import numpy as np
import pytest

from suq2.qcore import HalfInt, QParam, m_values, q_number
from suq2.qinner import gram, inner
from suq2.qops import (
    apply_h_minus,
    apply_h_plus,
    casimir_matrix,
    combine,
    matrix_irrep,
    psi_family,
)
from suq2.qspecial import (
    l_function,
    q_function,
    q_infinite_product,
    q_integral_exp,
)
from suq2.suites import suite_casimir, suite_ladder, suite_limit
from test_qinner import fixed_level_gram

MATRIX_TOL = 1e-12
FUNCEQ_PRODUCT_TOL = 1e-12
FUNCEQ_INTEGRAL_TOL = 1e-10
L_EQ_TOL = 1e-9
LADDER_TOL = 1e-8
GRAM_TOL = 1e-6
GRAM_SHRINK = 10.0
ADJOINT_TOL = 1e-7
SYMMETRY_TOL = 1e-8
VILENKIN_TOL = 1e-9
CROSS_REAL_TOL = 1e-12
CROSS_CIRCLE_TOL = 1e-8

P_HALF = QParam.positive_real(0.5)
P_TWO = QParam.positive_real(2.0)
P_SEVENTEEN = QParam.unit_circle(math.pi / 17)
P_REAL = QParam.positive_real(1.2)
P_CIRC = QParam.unit_circle(math.pi / 23)

ETA_GRID = np.logspace(-2, 2, 25)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status}  {detail}", file=sys.__stdout__)


def test_criterion_1_matrix_irreps():
    worst = 0.0
    for p in (P_HALF, P_TWO, P_SEVENTEEN):
        for twice in range(1, 10):
            J = HalfInt(twice)
            ir = matrix_irrep(J, p)
            eye = np.eye(ir.dimension)
            c1 = ir.H3 @ ir.Hplus - ir.Hplus @ ir.H3 - ir.Hplus
            c2 = ir.H3 @ ir.Hminus - ir.Hminus @ ir.H3 + ir.Hminus
            comm = (ir.Hplus @ ir.Hminus - ir.Hminus @ ir.Hplus
                    - np.diag([q_number(2.0 * float(m), p) for m in ir.m_list]))
            cas = casimir_matrix(ir) - q_number(J, p) * q_number(J + 1, p) * eye
            worst = max(worst, *(float(np.max(np.abs(x)))
                                 for x in (c1, c2, comm, cas)))
    ok = worst < MATRIX_TOL
    report(1, "matrix irreps", ok, f"max residual {worst:.3e} (tol {MATRIX_TOL:g})")
    assert ok, f"matrix residual {worst:.3e} >= {MATRIX_TOL:g}"


def test_criterion_2_functional_equation():
    worst_product, worst_integral = 0.0, 0.0
    for p in (P_HALF, P_TWO, QParam.unit_circle(math.pi / 5),
              QParam.unit_circle(math.pi / 23)):
        for J in (0, 0.5, 1, 1.5, 2):
            J = HalfInt.of(J)
            qv = np.asarray(q_function(J, p, ETA_GRID), complex)
            lhs = np.asarray(q_function(J, p, p.power(2) * ETA_GRID), complex) * (1 + ETA_GRID)
            rhs = qv * (1 + p.power(-2.0 * float(J)) * ETA_GRID)
            res = float(np.max(np.abs(lhs - rhs) / np.abs(qv)))
            if p.regime.name == "UNIT_CIRCLE" and not J.is_integer():
                worst_integral = max(worst_integral, res)
            else:
                worst_product = max(worst_product, res)
    ok = worst_product < FUNCEQ_PRODUCT_TOL and worst_integral < FUNCEQ_INTEGRAL_TOL
    report(2, "Q functional equation", ok,
           f"products {worst_product:.3e} (tol {FUNCEQ_PRODUCT_TOL:g}), "
           f"integral {worst_integral:.3e} (tol {FUNCEQ_INTEGRAL_TOL:g})")
    assert worst_product < FUNCEQ_PRODUCT_TOL
    assert worst_integral < FUNCEQ_INTEGRAL_TOL


def test_criterion_3_l_equation():
    worst = 0.0
    for tau in (math.pi / 5, -math.pi / 5, 0.45 * math.pi, -0.45 * math.pi):
        p = QParam.unit_circle(tau)
        q = p.complex_value()
        for eta in (0.3, 1.0, 4.0):
            res = abs(l_function(p, q * eta) - l_function(p, eta / q)
                      - np.log(1 + eta))
            worst = max(worst, float(res))
    ok = worst < L_EQ_TOL
    report(3, "L difference equation", ok, f"max residual {worst:.3e} (tol {L_EQ_TOL:g})")
    assert ok, f"L residual {worst:.3e} >= {L_EQ_TOL:g}"


def test_criterion_4_ladder_casimir_pointwise():
    worst = 0.0
    for p in (P_REAL, P_CIRC):
        for case in suite_ladder(p, j_max=3) + suite_casimir(p, j_max=3):
            worst = max(worst, case.residual)
    ok = worst < LADDER_TOL
    report(4, "ladder/Casimir pointwise", ok,
           f"max residual {worst:.3e} (tol {LADDER_TOL:g})")
    assert ok, f"ladder/Casimir residual {worst:.3e} >= {LADDER_TOL:g}"


def test_criterion_5_orthonormality():
    towers = [(P_REAL, 0, [0, 1, 2]), (P_REAL, 0.5, [0.5, 1.5]),
              (P_CIRC, 0, [0, 1, 2]), (P_CIRC, 0.5, [0.5, 1.5])]
    worst_dev, worst_ratio = 0.0, math.inf
    for p, N, js in towers:
        rep = gram(N, js, p)
        worst_dev = max(worst_dev, rep.max_offdiag, rep.max_diag_dev)
        coarse = fixed_level_gram(N, js, p, 0.5)
        fine = fixed_level_gram(N, js, p, 0.25)
        c = max(coarse.max_offdiag, coarse.max_diag_dev)
        f = max(fine.max_offdiag, fine.max_diag_dev)
        worst_ratio = min(worst_ratio, c / f)
    ok = worst_dev < GRAM_TOL and worst_ratio >= GRAM_SHRINK
    report(5, "orthonormality", ok,
           f"identity deviation {worst_dev:.3e} (tol {GRAM_TOL:g}), "
           f"step-halving shrink {worst_ratio:.1f}x (need >= {GRAM_SHRINK:g}x)")
    assert worst_dev < GRAM_TOL
    assert worst_ratio >= GRAM_SHRINK


def _span_pair(j_max, seed):
    states = [psi_family(J, M, 0)
              for J in range(j_max + 1) for M in m_values(HalfInt.of(J))]
    rng = np.random.default_rng(seed)
    f = combine(rng.normal(size=3) + 1j * rng.normal(size=3),
                [states[i] for i in rng.choice(len(states), 3, replace=False)])
    g = combine(rng.normal(size=2) + 1j * rng.normal(size=2),
                [states[i] for i in rng.choice(len(states), 2, replace=False)])
    return f, g


def test_criterion_6_hermiticity():
    worst_adj, worst_sym = 0.0, 0.0
    for p in (P_REAL, P_CIRC):
        for seed in (0, 1, 2):
            f, g = _span_pair(2, seed)
            adj = abs(inner(f, apply_h_plus(g, 0), p)
                      - inner(apply_h_minus(f, 0), g, p))
            sym = abs(np.conj(inner(f, g, p)) - inner(g, f, p))
            worst_adj = max(worst_adj, float(adj))
            worst_sym = max(worst_sym, float(sym))
    ok = worst_adj < ADJOINT_TOL and worst_sym < SYMMETRY_TOL
    report(6, "hermiticity", ok,
           f"adjoint {worst_adj:.3e} (tol {ADJOINT_TOL:g}), "
           f"conjugate symmetry {worst_sym:.3e} (tol {SYMMETRY_TOL:g})")
    assert worst_adj < ADJOINT_TOL
    assert worst_sym < SYMMETRY_TOL


def test_criterion_7_classical_limit():
    cases = suite_limit()
    inner_dev = [c for c in cases if "deviation" in c.name]
    inner_shrink = [c for c in cases if "shrink" in c.name]
    vile_extrap = [c for c in cases if "vilenkin limit" in c.name]
    vile_exact = [c for c in cases if "vilenkin classical" in c.name]
    assert len(inner_dev) == 3 and len(vile_extrap) == 4
    ok = all(c.passed for c in cases)
    worst_extrap = max(c.residual for c in vile_extrap)
    report(7, "classical limit", ok,
           f"inner deviation {max(c.residual for c in inner_dev):.3e}, "
           f"linear-convergence statistic {max(c.residual for c in inner_shrink):.3f} (< 1), "
           f"vilenkin extrapolated {worst_extrap:.3e} (tol {VILENKIN_TOL:g})")
    for c in cases:
        assert c.passed, f"{c.name}: {c.residual:.3e} >= {c.tol:g}"
    assert worst_extrap < VILENKIN_TOL
    assert max(c.residual for c in vile_exact) < 1e-12


def test_criterion_8_cross_construction():
    worst_real = 0.0
    for p in (P_HALF, P_TWO):
        for J in (1, 2, 3):
            a = np.asarray(q_function(J, p, ETA_GRID))
            b = np.asarray(q_infinite_product(J, p, ETA_GRID))
            worst_real = max(worst_real, float(np.max(np.abs(a - b) / np.abs(a))))
    worst_circle = 0.0
    for J in (1, 2, 3):
        r0 = (np.asarray(q_function(J, P_CIRC, ETA_GRID))
              / np.asarray(q_integral_exp(J, P_CIRC, ETA_GRID)))
        shifted = P_CIRC.power(2) * ETA_GRID
        r2 = (np.asarray(q_function(J, P_CIRC, shifted))
              / np.asarray(q_integral_exp(J, P_CIRC, shifted)))
        worst_circle = max(worst_circle, float(np.max(np.abs(r0 - r2))))
    ok = worst_real < CROSS_REAL_TOL and worst_circle < CROSS_CIRCLE_TOL
    report(8, "cross construction", ok,
           f"finite/infinite {worst_real:.3e} (tol {CROSS_REAL_TOL:g}), "
           f"ratio periodicity {worst_circle:.3e} (tol {CROSS_CIRCLE_TOL:g})")
    assert worst_real < CROSS_REAL_TOL
    assert worst_circle < CROSS_CIRCLE_TOL
