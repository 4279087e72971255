"""The real-q scalar products on the q^2 lattice (quadrature.lattice): the
Jackson sum against its own 40-digit value, its offset invariance, the
families that keep the radial rule, and Q_{1/2} stepped along the lattice."""
import functools
import math

import mpmath
import numpy as np
import pytest

from suq2 import qinner, qspecial, quadrature
from suq2.qcore import HalfInt, QParam, j_values, m_values
from suq2.qinner import _products, gram
from suq2.qops import psi_family, with_fixed_param
from suq2.suites import GRAM_J_MAX

DPS = 40
X_MAX = 80  # the 40-digit sums run over |x_k| <= X_MAX; the integrands decay like e^-|x|


def mp_q_number(n, q):
    return (q ** n - q ** -n) / (q - 1 / q)


def mp_factorial(n, q):
    return mpmath.fprod(mp_q_number(k, q) for k in range(1, n + 1))


@functools.lru_cache(maxsize=None)
def mp_q_half(q, k):
    """Q_{1/2}(eta) at eta = q^(2k) by the infinite product of its branch, as
    q-Pochhammer symbols: (-eta; q^2)/(-q^-1 eta; q^2) below q = 1, (-q^-3
    eta; q^-2)/(-q^-2 eta; q^-2) above."""
    eta = q ** (2 * k)
    if q < 1:
        return mpmath.qp(-eta, q * q) / mpmath.qp(-eta / q, q * q)
    return mpmath.qp(-eta / q ** 3, q ** -2) / mpmath.qp(-eta / q ** 2, q ** -2)


@functools.lru_cache(maxsize=None)
def mp_psi(J: HalfInt, M: HalfInt, N: HalfInt, q, k):
    """psi_(J,M,N) at the parameter q (an mpf) on the diagonal u = v = q0^k
    of the lattice of q0 = q or 1/q, at DPS digits: the norm, the phase
    q^(-NM/2), Q_J, R and v^(M+N), each in closed form."""
    with mpmath.workdps(DPS):
        rho = q ** k
        eta = rho * rho
        m, n = (mpmath.mpf(x.twice) / 2 for x in (M, N))
        fact = functools.partial(mp_factorial, q=q)
        norm = mpmath.sqrt(fact((J + N).to_int()) * fact(J.twice + 1) / fact((J - N).to_int())
                           * fact((J + M).to_int()) / (fact((J - M).to_int()) * fact(J.twice))
                           / (2 * mpmath.pi))
        q_j = mpmath.mpf(1) if J.is_integer() else mp_q_half(q, k)
        for t in range(J.twice, 1, -2):  # 1 + q^-t eta, t = 2J, 2J - 2, ... down to 2 or 3
            q_j /= 1 + q ** -t * eta
        jm, jn, mn = (J - M).to_int(), (J - N).to_int(), (M + N).to_int()
        r = mpmath.fsum(fact(jn) * fact(jm) / (fact(i) * fact(jm - i) * fact(jn - i) * fact(mn + i))
                        * (-eta) ** i for i in range(max(0, -mn), min(jm, jn) + 1))
        return norm * q ** (-n * m / 2) * q_j * r * rho ** mn


def mp_lattice_products(pairs, q0):
    """<f|g> of basis-member pairs ((J, M), (J', M)) of weight N at q0, as the
    Jackson sum B1 2 pi |ln q| sum_k eta_k (w_(1/q) conj(f_(1/q)(rho_k))
    g_q(rho_(k-1)) + w_q conj(f_q(rho_k)) g_(1/q)(rho_(k+1))), rho_k = q^k,
    at DPS digits; and each sum's scale, the same sum of absolute values."""
    with mpmath.workdps(DPS):
        q = mpmath.mpf(q0)
        inv, log_q = 1 / q, mpmath.log(q)
        b1 = (q - inv) / (2 * log_q)
        K = int(X_MAX / (2 * abs(float(log_q)))) + 1
        out = []
        for (J, M, N), (J2, M2, N2) in pairs:
            total = mass = mpmath.mpf(0)
            for k in range(-K, K + 1):
                eta = q ** (2 * k)
                terms = (mp_psi(J, M, N, inv, -k) * inv / ((1 + eta) * (1 + inv * inv * eta))
                         * mp_psi(J2, M2, N2, q, k - 1),
                         mp_psi(J, M, N, q, k) * q / ((1 + eta) * (1 + q * q * eta))
                         * mp_psi(J2, M2, N2, inv, -k - 1))
                total += eta * sum(terms)
                mass += eta * sum(map(abs, terms))
            scale = b1 * 2 * mpmath.pi * abs(log_q)
            out.append((complex(scale * total), float(abs(scale) * mass)))
        return out


def _tower_pairs(N, js):
    """The like-M upper pairs of the N tower of the levels js, as labels."""
    N = HalfInt.of(N)
    states = [(HalfInt.of(J), M) for J in js for M in m_values(HalfInt.of(J))]
    return [((J, M, N), (J2, M2, N)) for i, (J, M) in enumerate(states)
            for J2, M2 in states[i:] if M2 == M]


class TestAgainstTheFortyDigitSums:
    """_products at real q above the switch is the lattice's Jackson sum:
    within 1e-13 of each sum's scale of its 40-digit value (the identity
    behind it: Gasper & Rahman, Basic Hypergeometric Series, sec. 1.11)."""

    @pytest.mark.parametrize("q,N,js", [
        (2.0, 0, (0, 1, 2)), (0.5, 0, (0, 1, 2)), (4.0, 0, (0, 1, 2)), (0.25, 0, (0, 1, 2)),
        (2.0, 1, (1, 2)), (0.25, 1, (1, 2)),
        (0.6, 0.5, (0.5, 1.5)), (1.5, 0.5, (0.5, 1.5)),
    ], ids=["q2-N0", "q0.5-N0", "q4-N0", "q0.25-N0", "q2-N1", "q0.25-N1", "q0.6-N0.5",
            "q1.5-N0.5"])
    def test_products_are_the_lattice_sums(self, q, N, js):
        pairs = _tower_pairs(N, js)
        got = _products([(psi_family(*f), psi_family(*g)) for f, g in pairs],
                        QParam.positive_real(q))
        want = mp_lattice_products(pairs, q)
        for (f, g), val, (ref, scale) in zip(pairs, got, want):
            assert abs(val - ref) <= 1e-13 * scale, (f, g)
        # and the sums are the scalar products: the tower is orthonormal
        assert max(abs(ref - (f[0] == g[0])) for (f, g), (ref, _) in zip(pairs, want)) < 1e-30


class TestOffsetInvariance:
    """The Jackson sum is the integral at every offset x0 of its lattice."""

    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9, 1.2, 2.0, 3.0])
    @pytest.mark.parametrize("N", [0, 0.5, 1])
    def test_the_default_towers_agree_at_offsets_0_and_ln_q(self, monkeypatch, q, N):
        p = QParam.positive_real(q)
        js = j_values(HalfInt.of(N), HalfInt.of(GRAM_J_MAX), p)
        at_zero = gram(N, js, p).matrix
        lattice = quadrature.lattice
        monkeypatch.setattr(qinner, "lattice", lambda q: lattice(q, math.log(q)))
        shifted = gram(N, js, p).matrix
        assert np.max(np.abs(shifted - at_zero)) < 1e-13

    def test_an_offset_lattice_covers_the_same_range(self):
        for q in (0.3, 1.2, 1e10):
            for x0 in (0.0, math.log(q)):
                lat = quadrature.lattice(q, x0)
                x = 2 * np.log(lat.rho[lat.window(1)])
                reach = quadrature.SCALE * math.sinh(quadrature.T_MAX) + 2 * abs(math.log(q))
                assert x.min() <= -reach and x.max() >= reach


class TestWhoTakesTheLattice:
    """Only calls whose every component is labelled take the lattice, and
    only at real q from |ln q| = LATTICE_SWITCH: the sum is exact on the
    representation space alone."""

    # HEAD's values of these three products at q 0.6 on the radial rule
    PINNED = [(0.7952811705195573 + 0j), (1.5900779132140261 + 0j), (1.0000000000000002 + 0j)]

    def test_a_call_with_a_pinned_component_keeps_the_radial_rule(self, monkeypatch):
        p = QParam.positive_real(0.6)
        member = psi_family(1.5, 0.5, 0.5)
        pinned = with_fixed_param(member)
        sums = []
        lattice_integral = qinner.lattice_integral
        monkeypatch.setattr(qinner, "lattice_integral",
                            lambda F, lat: sums.append(None) or lattice_integral(F, lat))
        got = _products([(pinned, pinned), (pinned, member), (member, member)], p)
        assert sums == [] and got == self.PINNED
        _products([(member, member)], p)  # alone, the member takes the lattice
        assert sums == [None]

    @pytest.mark.parametrize("p", [QParam.classical(), QParam.unit_circle(0.2),
                                   QParam.positive_real(math.exp(0.05)),
                                   QParam.positive_real(math.exp(-0.05))],
                             ids=["q1", "tau0.2", "q1.05", "q0.95"])
    def test_the_circle_q_1_and_real_q_below_the_switch_keep_the_radial_rule(self, monkeypatch, p):
        assert quadrature.LATTICE_SWITCH > 0.05
        monkeypatch.setattr(qinner, "lattice_integral", None)  # any call raises
        rep = gram(0.5, [0.5, 1.5], p)
        assert max(rep.max_offdiag, rep.max_diag_dev) < 1e-9


class TestQHalfOnTheLattice:
    """Q_{1/2} on the lattice: one product at the node nearest 1, every other
    node by Q(q^2 eta) = Q(eta)(1 + q^-1 eta)/(1 + eta), in either direction."""

    @pytest.mark.parametrize("q,nodes", [(1.105171, 443), (0.904837, 443), (1.03, None),
                                         (2.0, None), (0.3, None)])
    def test_every_node_is_the_product_of_its_own(self, monkeypatch, q, nodes):
        monkeypatch.setattr(quadrature, "LATTICE_SWITCH", 0.0)  # q 1.03 is below it
        lat = quadrature.lattice(q)
        assert nodes is None or lat.rho.size == nodes
        eta = (lat.rho * lat.rho).astype(complex)
        for p, step in ((QParam.positive_real(q), 1), (QParam.positive_real(1 / q), -1)):
            got = qspecial._q_half_lattice(p, eta, step)
            want = qspecial.q_infinite_product(0.5, p, eta)
            assert np.max(np.abs(got / want - 1)) < 1e-13

    def test_one_product_per_lattice_and_routes_kept_apart(self, monkeypatch):
        p = QParam.positive_real(1.3)
        monkeypatch.setattr(qspecial, "_q_half_memo", qspecial._ExactMemo(2**20))
        products = []
        infinite_product = qspecial._infinite_product
        monkeypatch.setattr(qspecial, "_infinite_product",
                            lambda J, q, arr: products.append(arr.size) or infinite_product(J, q, arr))
        eta = (quadrature.lattice(1.3).rho ** 2).astype(complex)
        stepped = qspecial._q_half_lattice(p, eta, 1)
        assert products == [1]
        # the product route on the same bytes computes its own values, and
        # the lattice route then reads its own memo entry again
        direct = qspecial._q_half(HalfInt(1), p, eta)
        assert products == [1, eta.size] and direct.tobytes() != stepped.tobytes()
        assert qspecial._q_half_lattice(p, eta, 1).tobytes() == stepped.tobytes()
        assert products == [1, eta.size]
