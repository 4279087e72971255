"""Deterministic work counts (no timing): on the circle every Gauss-Legendre
rule is built once per n, and every distinct l_function input runs its
quadrature once."""
import numpy as np

from suq2 import qspecial
from suq2.qcore import QParam
from suq2.quadrature import gauss_legendre
from suq2.suites import run_suite


def test_casimir_suite_builds_each_rule_and_each_l_value_once(monkeypatch):
    gauss_legendre.cache_clear()
    monkeypatch.setattr(qspecial, "_l_memo", {})
    monkeypatch.setattr(qspecial, "_l_memo_bytes", 0)

    legendre = np.polynomial.legendre
    leggauss_n = []
    leggauss = legendre.leggauss

    def counted_leggauss(n):
        leggauss_n.append(n)
        return leggauss(n)

    quadratures = []
    uncached = qspecial._l_quadrature

    def counted_quadrature(p, flat):
        quadratures.append(flat.size)
        return uncached(p, flat)

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
    assert leggauss_n and len(leggauss_n) == len(set(leggauss_n))
    assert len(keys) > len(set(keys))  # the stencils do revisit arguments
    assert len(quadratures) == len(set(keys))
