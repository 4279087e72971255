"""Deterministic work counts (no timing): on the circle no Gauss-Legendre
rule is built, and every distinct l_function input runs its quadrature
once; at real q every distinct infinite-product input runs its
product once, and psi builds each (J, M, N, p) record once; the stencil
suites evaluate each (J, N) tower whole, in a few psi calls; every suite
scalar product with a common mode is one converged radial integral."""
from collections import Counter

import numpy as np
import pytest

from suq2 import qinner, qops, qspecial, quadrature, suites
from suq2.qcore import HalfInt, QParam, m_values
from suq2.quadrature import gauss_legendre
from suq2.suites import run_suite


def test_casimir_suite_runs_each_l_value_once_and_no_leggauss(monkeypatch):
    gauss_legendre.cache_clear()
    monkeypatch.setattr(qspecial._l_memo, "entries", {})
    monkeypatch.setattr(qspecial._l_memo, "nbytes", 0)

    legendre = np.polynomial.legendre
    leggauss_n = []
    leggauss = legendre.leggauss

    def counted_leggauss(n):
        leggauss_n.append(n)
        return leggauss(n)

    quadratures = []
    uncached = qspecial._l_quadrature

    def counted_quadrature(p, arr):
        quadratures.append(arr.size)
        return uncached(p, arr)

    keys = []
    l_function = qspecial.l_function

    def recorded_l_function(p, eta):
        arr = np.asarray(eta, dtype=complex)
        keys.append((p, arr.shape, arr.tobytes()))
        return l_function(p, eta)

    monkeypatch.setattr(legendre, "leggauss", counted_leggauss)
    monkeypatch.setattr(qspecial, "_l_quadrature", counted_quadrature)
    monkeypatch.setattr(qspecial, "l_function", recorded_l_function)
    try:
        cases = run_suite("casimir", QParam.unit_circle(0.2))
    finally:
        gauss_legendre.cache_clear()

    assert cases and all(c.passed for c in cases)
    assert leggauss_n == []  # l_function's Gauss-Kronrod pair is a module constant
    assert len(keys) > len(set(keys))  # the stencils do revisit arguments
    assert len(quadratures) == len(set(keys))


@pytest.mark.parametrize("suite,q,N", [("casimir", 0.8, 0), ("hermiticity", 1.3, 0.5)])
def test_real_q_suite_runs_each_product_and_each_psi_record_once(monkeypatch, suite, q, N):
    monkeypatch.setattr(qspecial._product_memo, "entries", {})
    monkeypatch.setattr(qspecial._product_memo, "nbytes", 0)
    qspecial._psi_record.cache_clear()

    products = []
    uncached = qspecial._infinite_product

    def counted_product(J, q, arr):
        products.append((J, q, arr.shape, arr.tobytes()))
        return uncached(J, q, arr)

    keys = []
    q_infinite_product = qspecial.q_infinite_product

    def recorded_product(J, p, eta):
        arr = np.asarray(eta, dtype=complex)
        keys.append((HalfInt.of(J), p, arr.shape, arr.tobytes()))
        return q_infinite_product(J, p, eta)

    records = []
    psi = qspecial.psi

    def recorded_psi(J, M, N, p, u, v):
        # a tower call (tuple M) reads the record of each of its weights
        for m in M if isinstance(M, tuple) else (M,):
            records.append((HalfInt.of(J), HalfInt.of(m), HalfInt.of(N), p))
        return psi(J, M, N, p, u, v)

    norm_constants = []
    norm_constant = qspecial.norm_constant

    def counted_norm_constant(J, M, N, p):
        norm_constants.append((J, M, N, p))
        return norm_constant(J, M, N, p)

    monkeypatch.setattr(qspecial, "_infinite_product", counted_product)
    monkeypatch.setattr(qspecial, "q_infinite_product", recorded_product)
    monkeypatch.setattr(qops, "psi", recorded_psi)  # the basis families call it there
    monkeypatch.setattr(qspecial, "norm_constant", counted_norm_constant)
    try:
        cases = run_suite(suite, QParam.positive_real(q), N=N)
    finally:
        qspecial._psi_record.cache_clear()

    assert cases and all(c.passed for c in cases)
    assert len(keys) > len(set(keys))  # the stencils and the quadratures revisit arguments
    assert len(products) == len(set(products)) == len(set(keys))
    assert len(records) > len(set(records))
    assert len(norm_constants) == len(set(norm_constants)) == len(set(records))


def test_memo_bound_evicts_nothing_in_a_real_q_all_run(monkeypatch):
    # at its byte bound the product memo keeps every distinct input of the
    # largest real-q run recorded in the golden gate
    monkeypatch.setattr(qspecial._product_memo, "entries", {})
    monkeypatch.setattr(qspecial._product_memo, "nbytes", 0)

    products = []
    uncached = qspecial._infinite_product

    def counted_product(J, q, arr):
        products.append((J, q, arr.shape, arr.tobytes()))
        return uncached(J, q, arr)

    monkeypatch.setattr(qspecial, "_infinite_product", counted_product)
    cases = run_suite("all", QParam.positive_real(2.5), N=0.5, seed=3)
    assert cases and all(c.passed for c in cases)
    assert len(products) == len(set(products))
    assert qspecial._product_memo.nbytes <= qspecial.MEMO_MAX_BYTES


def test_psi_errors_fire_on_every_call(monkeypatch):
    qspecial._psi_record.cache_clear()
    norm_constants = []
    norm_constant = qspecial.norm_constant

    def counted_norm_constant(J, M, N, p):
        norm_constants.append((J, M, N, p))
        return norm_constant(J, M, N, p)

    monkeypatch.setattr(qspecial, "norm_constant", counted_norm_constant)
    # tau = pi/4 + 0.05 makes [2J+1]! negative for J = 2
    p = QParam.unit_circle(np.pi / 4 + 0.05)
    for _ in range(3):
        with pytest.raises(ValueError, match="negative radicand"):
            qspecial.psi(2, 0, 0, p, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"\|M\| <= J"):
            qspecial.psi(1, 2, 0, p, 0.5, 0.5)
    assert len(norm_constants) == 3
    assert qspecial._psi_record.cache_info().currsize == 0


@pytest.mark.parametrize("p,N", [(QParam.positive_real(0.8), 0.5), (QParam.unit_circle(0.2), 0)],
                         ids=["q0.8-N0.5", "tau0.2"])
def test_suite_scalar_products_stay_on_the_radial_path(monkeypatch, p, N):
    errors, products = [], []
    radial_integral, inner = qinner.radial_integral, qinner.inner

    def recorded_radial_integral(F):
        res = radial_integral(F)
        errors.append(res.error)
        return res

    def recorded_inner(*args, **kw):
        products.append(inner(*args, **kw))
        return products[-1]

    monkeypatch.setattr(qinner, "radial_integral", recorded_radial_integral)
    monkeypatch.setattr(qinner, "inner", recorded_inner)
    monkeypatch.setattr(suites, "inner", recorded_inner)
    cases = run_suite("all", p, N=N)
    assert cases and all(c.passed for c in cases)
    assert any(c.name.startswith("adjoint span pair") for c in cases)
    # one converged radial integral per scalar product with a common mode;
    # the others are an exact 0.0 with no integral
    assert len(errors) == sum(v != 0.0 for v in products) > 0
    assert max(errors) < quadrature.ABS_TOL


@pytest.mark.parametrize("p", [QParam.unit_circle(0.2), QParam.positive_real(0.8)],
                         ids=["tau0.2", "q0.8"])
def test_casimir_suite_calls_psi_once_per_stencil_tree(monkeypatch, p):
    # per (J, N), each call carrying the whole tower: the reference values,
    # then one call for the H+H- or H-H+ tree and one for the bracket tree of
    # each Casimir ordering
    calls = []
    psi = qspecial.psi

    def recorded_psi(J, M, N, p, u, v):
        calls.append((HalfInt.of(J), M, HalfInt.of(N)))
        return psi(J, M, N, p, u, v)

    monkeypatch.setattr(qops, "psi", recorded_psi)
    cases = run_suite("casimir", p)
    assert cases and all(c.passed for c in cases)
    assert all(M == tuple(m_values(J)) for J, M, _ in calls)
    per_pair = Counter((J, N) for J, _, N in calls)
    assert len(per_pair) == len(cases) and max(per_pair.values()) <= 5


def test_ladder_and_casimir_call_psi_at_most_eight_times_per_tower(monkeypatch):
    # the tower, its H+ and its H-; then the five calls of the Casimir suite
    calls = []
    psi = qspecial.psi

    def recorded_psi(J, M, N, p, u, v):
        calls.append((HalfInt.of(J), M, HalfInt.of(N)))
        return psi(J, M, N, p, u, v)

    monkeypatch.setattr(qops, "psi", recorded_psi)
    p = QParam.positive_real(1.3)
    cases = run_suite("ladder", p) + run_suite("casimir", p)
    assert cases and all(c.passed for c in cases)
    assert all(M == tuple(m_values(J)) for J, M, _ in calls)
    per_pair = Counter((J, N) for J, _, N in calls)
    assert len(per_pair) == len(cases) // 2 and max(per_pair.values()) <= 8


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
    monkeypatch.setattr(qspecial._l_memo, "max_bytes", 0)  # every call runs the quadrature
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
