"""Elliptic-kernel tests.

mpmath's own ellipk/ellipe/ellipfun/jtheta serve as independent oracles (the
package routines use AGM/Landen/q-series directly, sharing no code with
them); degenerate values and classical identities are asserted on top.
"""

import random
import sys

import mpmath
import pytest
from mpmath import mp, mpf, sqrt, quad, sin, pi, exp

from sixvertex import (DomainError, Precision, elliptic_E, elliptic_K,
                       elliptic_data_from_gamma, jacobi_sn_cn_dn, jacobi_zeta,
                       phase_params, theta, theta_all, theta1_prime_zero)
from sixvertex import cli, specfun
from sixvertex.specfun import identity_checks

P = Precision(256)
TOL = mpf(2) ** (-248)          # 2^(-bits+8)


def test_K_degenerate_modulus():
    with mp.workprec(300):
        assert abs(elliptic_K(mpf(0), P) - pi / 2) < TOL


def test_K_selfdual_point():
    with mp.workprec(300):
        k = 1 / sqrt(mpf(2))
        assert abs(elliptic_K(k, P) - elliptic_K(sqrt(1 - k ** 2), P)) < TOL


def test_K_against_quadrature():
    # independent oracle: direct numerical quadrature of the defining integral
    with mp.workprec(340):
        k = mpf("0.8")
        oracle = quad(lambda th: 1 / sqrt(1 - k ** 2 * sin(th) ** 2),
                      [0, pi / 2])
        assert abs(elliptic_K(k, P) - oracle) < TOL


def test_K_monotone():
    with mp.workprec(300):
        grid = [mpf(i) / 20 for i in range(0, 20)]
        vals = [elliptic_K(k, P) for k in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_K_domain_error():
    with pytest.raises(DomainError):
        elliptic_K(mpf(1), P)
    with pytest.raises(DomainError):
        elliptic_K(mpf("1.2"), P)


@pytest.mark.parametrize("kstr", ["0.3", "0.707106", "0.95"])
def test_K_E_against_mpmath(kstr):
    with mp.workprec(300):
        k = mpf(kstr)
        assert abs(elliptic_K(k, P) - mpmath.ellipk(k ** 2)) < TOL
        assert abs(elliptic_E(k, P) - mpmath.ellipe(k ** 2)) < TOL


def test_legendre_relation():
    with mp.workprec(300):
        k = mpf("0.77")
        kp = sqrt(1 - k ** 2)
        lhs = (elliptic_E(k, P) * elliptic_K(kp, P)
               + elliptic_E(kp, P) * elliptic_K(k, P)
               - elliptic_K(k, P) * elliptic_K(kp, P))
        assert abs(lhs - pi / 2) < TOL


def test_sn_cn_dn_trig_limit():
    with mp.workprec(300):
        u = mpf("0.83")
        sn, cn, dn = jacobi_sn_cn_dn(u, mpf(0), P)
        assert abs(sn - sin(u)) < TOL
        assert abs(cn - mpmath.cos(u)) < TOL
        assert dn == 1


def test_sn_cn_dn_quarter_period():
    with mp.workprec(300):
        k = mpf("0.6")
        K = elliptic_K(k, P)
        sn, cn, dn = jacobi_sn_cn_dn(K, k, P)
        assert abs(sn - 1) < TOL
        assert abs(cn) < TOL
        assert abs(dn - sqrt(1 - k ** 2)) < TOL


def test_sn_cn_dn_identities_sampled():
    rng = random.Random(7)
    with mp.workprec(300):
        for _ in range(8):
            k = mpf(rng.uniform(0.05, 0.95))
            u = mpf(rng.uniform(0, 1)) * elliptic_K(k, P)
            sn, cn, dn = jacobi_sn_cn_dn(u, k, P)
            assert abs(sn ** 2 + cn ** 2 - 1) < TOL
            assert abs(dn ** 2 + k ** 2 * sn ** 2 - 1) < TOL


def test_sn_cn_dn_against_mpmath():
    rng = random.Random(11)
    with mp.workprec(300):
        for _ in range(5):
            k = mpf(rng.uniform(0.1, 0.9))
            u = mpf(rng.uniform(0.05, 1.4))
            sn, cn, dn = jacobi_sn_cn_dn(u, k, P)
            m = k ** 2
            assert abs(sn - mpmath.ellipfun("sn", u, m)) < TOL
            assert abs(cn - mpmath.ellipfun("cn", u, m)) < TOL
            assert abs(dn - mpmath.ellipfun("dn", u, m)) < TOL


def test_theta_q_zero_limits():
    with mp.workprec(300):
        z = mpf("0.41")
        assert theta(3, z, mpf(0), P) == 1
        assert theta(4, z, mpf(0), P) == 1


def test_theta1_prime_product_identity():
    with mp.workprec(300):
        for qs in ("0.001", "0.01", "0.1", "0.3"):
            q = mpf(qs)
            lhs = theta1_prime_zero(q, P)
            rhs = theta(2, 0, q, P) * theta(3, 0, q, P) * theta(4, 0, q, P)
            assert abs((lhs - rhs) / rhs) < TOL


def test_theta2_small_nome_series():
    # oracle: the series summed explicitly, theta_2(0,q) = 2 q^{1/4} sum q^{n(n+1)}
    with mp.workprec(300):
        q = mpf("0.01")
        oracle = 2 * q ** (mpf(1) / 4) * sum(q ** (n * (n + 1)) for n in range(12))
        assert abs(theta(2, 0, q, P) - oracle) < TOL


THETA_NOMES = {               # id -> nome, built at the test's precision
    # term m = 3 of theta_1 lies between 2^-bits q^(1/4) and 2^-bits, at
    # 1024 and 256 bits: a stop rule not relative to q skips it
    "2^-476": lambda: mpf(2) ** -476,
    "1e-36": lambda: mpf("1e-36"),
    "0.001": lambda: mpf("0.001"),
    "exp(-pi^2/2)": lambda: exp(-pi ** 2 / 2),    # the af nome at gamma=1
    "0.17": lambda: mpf("0.17"),
    "0.3": lambda: mpf("0.3"),
    "0.6": lambda: mpf("0.6"),
}


def _theta_l1(j, z, q, derivative, bits):
    """Sum of the absolute terms of the theta_j series (or its z-derivative)."""
    total = mpf(1) if j in (3, 4) and derivative == 0 else mpf(0)
    n = 0 if j in (1, 2) else 1
    while True:
        m = 2 * n + 1 if j in (1, 2) else 2 * n
        mag = 2 * q ** ((n + mpf(1) / 2) ** 2 if j in (1, 2) else n ** 2)
        trig = mpmath.sin(m * z) if (j == 1) != (derivative == 1) \
            else mpmath.cos(m * z)
        total += mag * m ** derivative * abs(trig)
        if mag * m < mpf(2) ** (-bits - 16) and n >= 2:
            return total
        n += 1


@pytest.mark.parametrize("zs", ["0", "1e-20", "0.83", "-2.2", "40.1", "157.3"])
@pytest.mark.parametrize("qs", list(THETA_NOMES))
@pytest.mark.parametrize("bits", [128, 256, 1024, 2048])
def test_theta_against_mpmath(bits, qs, zs):
    # bound: 2^(-bits+8) times the series' l1 norm (a 64-bit estimate is
    # enough), plus the oracle's own rounding at 4*bits
    p = Precision(bits)
    with mp.workprec(bits):
        q, z = THETA_NOMES[qs](), mpf(zs)
    rows = theta_all(z, q, p)
    for j in (1, 2, 3, 4):
        assert rows[j - 1][0] == theta(j, z, q, p)
        for d, got in enumerate(rows[j - 1]):
            with mp.workprec(4 * bits):
                err = abs(got - mpmath.jtheta(j, z, q, d))
            with mp.workprec(64):
                bound = mpf(2) ** (-bits + 8) * _theta_l1(j, z, q, d, bits) \
                    + mpf(2) ** (-4 * bits + 8)
            assert err <= bound, (j, d, mp.nstr(err, 5), mp.nstr(bound, 5))


@pytest.mark.parametrize("qs", ["1e-40", "0.3"])
def test_theta_relative_digits_at_zeros(qs):
    # the integer pass adds the bits below 1 of sin z, cos z and q^(1/4) to
    # its scale, so theta_1 near 0 and theta_2 near pi/2 keep relative digits
    bits = 256
    p = Precision(bits)
    with mp.workprec(bits):
        q = mpf(qs)
        points = ((0, mpf("1e-30")), (0, mpf("-1e-60")), (1, pi / 2))
    for i, z in points:
        got = theta_all(z, q, p)[i][0]
        with mp.workprec(4 * bits):
            ref = mpmath.jtheta(i + 1, z, q)
            assert abs(got / ref - 1) < mpf(2) ** (-bits + 8), (i, z)


def test_theta_domain_errors():
    with pytest.raises(DomainError):
        theta(2, mpf(0), mpf(1), P)
    with pytest.raises(DomainError):
        theta(5, mpf(0), mpf("0.1"), P)


def test_zeta_special_points():
    with mp.workprec(300):
        k = mpf("0.6")
        K = elliptic_K(k, P)
        assert jacobi_zeta(mpf(0), k, P) == 0
        assert abs(jacobi_zeta(K, k, P)) < TOL
        assert jacobi_zeta(mpf("0.9"), mpf(0), P) == 0


def test_zeta_odd_and_periodic():
    with mp.workprec(300):
        k = mpf("0.77")
        K = elliptic_K(k, P)
        for us in ("0.2", "0.55", "0.9"):
            u = mpf(us) * K
            assert abs(jacobi_zeta(u, k, P) + jacobi_zeta(-u, k, P)) < TOL
            assert abs(jacobi_zeta(u + 2 * K, k, P) - jacobi_zeta(u, k, P)) < TOL


def _zeta_from_theta(u, k, p):
    """Z(u, k) = (pi/2K) theta_4'(v)/theta_4(v), v = pi*u/(2K), in the nome
    q = exp(-pi*K'/K): the log-derivative of theta_4."""
    pp = Precision(p.bits + 16)
    with p.work():
        K = elliptic_K(k, pp)
        q = exp(-pi * elliptic_K(sqrt(1 - mpf(k) ** 2), pp) / K)
        th, dth, _ = theta_all(pi * mpf(u) / (2 * K), q, p)[3]
        return (pi / (2 * K)) * dth / th


def test_zeta_two_routes_agree():
    # Landen route vs the log-derivative of theta_4
    with mp.workprec(300):
        for us, ks in (("0.7", "0.6"), ("1.1", "0.9")):
            u, k = mpf(us), mpf(ks)
            d = jacobi_zeta(u, k, P) - _zeta_from_theta(u, k, P)
            assert abs(d) < mpf(2) ** (-240)


@pytest.mark.parametrize("ks", ["0.1", "0.5", "0.9", "0.999", "0.999999"])
def test_landen_zeta_against_incomplete_E(ks):
    # Z(u) = E(am u, k) - u*E/K by mpmath's incomplete E at 4x the bits
    bits = 512
    p = Precision(bits)
    for us in ("0.01", "0.3", "0.5", "0.77", "0.99"):
        with mp.workprec(4 * bits):
            k = mpf(ks)
            m = k * k
            K = mpmath.ellipk(m)
            u = mpf(us) * K
            am = mpmath.asin(mpmath.ellipfun("sn", u, m=m))
            ref = mpmath.ellipe(am, m) - u * mpmath.ellipe(m) / K
        z = jacobi_zeta(u, k, p)
        with mp.workprec(4 * bits):
            assert abs(z - ref) <= mpf(2) ** (-bits + 8) * max(1, abs(ref)), us


# The kernels in the thermodynamic sweep's form: the same exact decimal
# inputs at 256 and at 1024 bits agree to 2^(-256+8) relative, with k near
# 0 and near 1, q near 0 and near 1 (af gamma = 0.05 to 200), and z away
# from the zeros of theta_j and of its derivatives.
SWEEP_HI = Precision(1024)


def _assert_sweep(run, what):
    """run(p) at P and at SWEEP_HI agree value by value to 2^(-248) relative."""
    got, ref = run(P), run(SWEEP_HI)
    assert len(got) == len(ref)
    with mp.workprec(1100):
        for i, (x, r) in enumerate(zip(got, ref)):
            assert abs(x - r) <= TOL * abs(r), (what, i, mp.nstr(abs(x / r - 1), 5))


@pytest.mark.parametrize("ks", ["1e-8", "1e-12", "1e-20", "0.3", "0.9",
                                "0.999999", "0.999999999999"])
def test_agm_relative_digits_at_small_modulus(ks):
    # K, E, sn/cn/dn and Z from the AGM of 1 and k'.  Z is about
    # k^2 sin(2u)/4 at small k: c_n = (a_(n-1) - b_(n-1))/2 cancelled and
    # lost 20, 49 and 102 of 256 bits at k = 1e-8, 1e-12, 1e-20
    with mp.workprec(1100):
        k, us = mpf(ks), (mpf("0.37"), mpf("1.1"))
    _assert_sweep(lambda p: [elliptic_K(k, p), elliptic_E(k, p)], ks)
    for u in us:
        _assert_sweep(lambda p: [*jacobi_sn_cn_dn(u, k, p),
                                 jacobi_zeta(u, k, p)], (ks, u))


@pytest.mark.parametrize("gs", ["0.05", "0.1", "0.2", "1", "5", "20", "30",
                                "100", "200"])
def test_elliptic_data_relative_digits_at_small_gamma(gs):
    # k' -> 1 as gamma -> 0: K' as K(k') formed k = sqrt(1 - k'^2) and lost
    # 13, 47 and 118 of 256 bits at gamma = 0.2, 0.1 and 0.05; k -> 1 as
    # gamma grows: K as K(k) formed k' and lost 5, 32 and 62 bits at
    # gamma = 10, 20 and 30; q -> 1 as gamma grows: the theta series
    # cancelled unseen, and k' lost 25 and 97 bits at gamma = 100 and 200.
    # theta_all runs at the af nome q = exp(-pi^2/(2 gamma)), 1e-43 to 0.976
    with mp.workprec(1100):
        g = mpf(gs)
        q = exp(-pi ** 2 / (2 * g))

    def data(p):
        d = elliptic_data_from_gamma(g, p)
        return d.k, d.kprime, d.bigK, d.bigKprime, d.q

    _assert_sweep(data, gs)
    for zs in ("0.41", "1.3"):
        z = mpf(zs)
        _assert_sweep(lambda p: [x for row in theta_all(z, q, p) for x in row],
                      (gs, zs))


def test_one_agm_per_modulus():
    # K, E, sn/cn/dn and the Landen Zeta at one (k, bits) share one AGM build
    agm = specfun._agm
    agm.cache_clear()
    k, u, p = mpf("0.6"), mpf("0.7"), Precision(256)

    def landen_routes():
        return (elliptic_K(k, p), elliptic_E(k, p), jacobi_sn_cn_dn(u, k, p),
                jacobi_zeta(u, k, p))

    for _ in range(3):
        cached = landen_routes()
    assert agm.cache_info().misses == 1
    agm.cache_clear()
    assert landen_routes() == cached
    assert agm.cache_info().misses == 1


def test_elliptic_data_nome():
    with mp.workprec(300):
        data = elliptic_data_from_gamma(pi / 2, P)
        assert abs(data.q - exp(-pi)) < TOL
        data1 = elliptic_data_from_gamma(mpf(1), P)
        assert abs(data1.q - exp(-pi ** 2 / 2)) < TOL
        # headline digits of the gamma=1 nome
        assert abs(data1.q - mpf("0.0071918")) < mpf("1e-7")


@pytest.mark.parametrize("gs", ["0.2", "1", "5"])
def test_elliptic_data_round_trip(gs):
    with mp.workprec(300):
        g = mpf(gs)
        data = elliptic_data_from_gamma(g, P)
        assert abs(data.bigKprime / data.bigK - pi / (2 * g)) < mpf(2) ** (-128)
        assert abs(data.k ** 2 + data.kprime ** 2 - 1) < TOL


def test_precision_scaling():
    # doubling the precision moves results by far less than 2^(-bits/2)
    with mp.workprec(600):
        k = mpf("0.8")
        lo = elliptic_K(k, Precision(128))
        hi = elliptic_K(k, Precision(256))
        assert abs(lo - hi) < mpf(2) ** (-64)
        zlo = jacobi_zeta(mpf("0.7"), k, Precision(128))
        zhi = jacobi_zeta(mpf("0.7"), k, Precision(256))
        assert abs(zlo - zhi) < mpf(2) ** (-64)


@pytest.mark.parametrize("bits", [128, 2048])
def test_identity_suite_passes(bits):
    # the suite that `sixvertex check identities` prints
    rows = identity_checks(Precision(bits))
    assert len(rows) == 19
    failed = [(name, mp.nstr(val, 5)) for name, val, tol in rows
              if not abs(val) < tol]
    assert not failed


def test_bulk_grid_builds_elliptic_data_once(monkeypatch):
    # a multi-zeta af bulk grid at one gamma: the gamma-only data is built in
    # the first row and reused; later rows run only zeta-dependent theta
    # passes: one for theta_2 in f, one for theta_1..theta_4' at the
    # endpoints
    import sys
    from sixvertex import cli, specfun
    calls = []
    original = specfun.theta_all

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sixvertex") \
                and getattr(module, "theta_all", None) is original:
            monkeypatch.setattr(module, "theta_all", wrapper)
    bits, gamma = 512, "0.9"
    cache = specfun._elliptic_data
    cache.cache_clear()
    specfun.theta1_prime_zero.cache_clear()
    per_row = []
    for t in ("-0.72", "-0.3", "0.05", "0.4", "0.81"):
        before = len(calls)
        cli._bulk_row(phase_params("af", t, gamma, Precision(bits)), bits)
        per_row.append(len(calls) - before)
    assert all(n == 2 for n in per_row[1:]), per_row
    assert per_row[0] > per_row[1], per_row
    info = cache.cache_info()
    assert info.misses == 1 and info.hits == 2 * len(per_row) - 1, info

    pp = Precision(bits + 32)
    g = phase_params("af", "0.4", gamma, Precision(bits)).gamma
    cached = elliptic_data_from_gamma(g, pp)
    assert cache.cache_info().misses == 1
    cache.cache_clear()
    fresh = elliptic_data_from_gamma(g, pp)
    assert cache.cache_info().misses == 1 and fresh is not cached
    with mp.workprec(bits + 64):
        for field in ("k", "kprime", "bigK", "bigKprime", "q"):
            assert abs(getattr(cached, field) - getattr(fresh, field)) \
                < mpf(2) ** (-bits + 8), field
