"""Acceptance suite.

One test (or test group) per criterion, each printing a pass/fail line with
the measured quantity and its tolerance (run with -s to see them inline).

Four of the reference statements behind these gates are numerically false
and are kept as STRICT xfails right next to the corrected assertion that
passes:

  * criterion 3's literal form equates Z_N(1,1,sqrt2) with the Aztec tiling
    count 2^(N(N+1)/2); the enumeration oracle gives 2^(N^2/2), the tiling
    count being 2^(N/2) times larger (the vertex->domino correspondence
    weighs each configuration by 2^(number of +1 entries), not (sqrt2)^n_c);
  * criterion 5's spread-contraction bound (25%) holds at zeta=0 but
    measures ~29.3% at zeta=0.4 over the stated window;
  * criterion 7's low-temperature clause omits an additive log 2;
  * criterion 8's naive-Ansatz failure is ~5e-4 at gamma=1, zeta=0.3, not
    >1e-2 (it is still six orders above the fe/d residuals, which is the
    point being demonstrated).
"""

import pytest
from mpmath import mp, mpf, sqrt, exp, log, pi, cos

from sixvertex import (Precision, Z_bruteforce, asm_count, bulk_f,
                       chemb_residual, density_normalization, dfdzeta,
                       elliptic_E, elliptic_K, elliptic_data_from_gamma,
                       endpoints, f_small_gamma, F_modular, jacobi_sn_cn_dn,
                       jacobi_zeta, ode_check, partition_Z, phase_params,
                       rho_at, subleading_AF_fit, tau_sequence, theta,
                       theta1_prime_zero, toda_residual, weights_from)

P256 = Precision(256)

INTERIOR = {"fe": [("1.5", "0.4"), ("2.0", "0.7")],
            "d": [("0.3", "1.0"), ("-0.2", "0.9")],
            "af": [("0.3", "1.0"), ("-0.5", "1.3")]}


def _params(phase, t, gamma, p=P256):
    with mp.workprec(p.bits + 32):
        return phase_params(phase, mpf(t), mpf(gamma), p)


def report(name, measured, tol, passed=None, note=""):
    if passed is None:
        passed = measured < tol
    status = "PASS" if passed else "FAIL"
    extra = f"  ({note})" if note else ""
    print(f"ACCEPTANCE {name}: measured={mp.nstr(mpf(measured), 6)} "
          f"tol={mp.nstr(mpf(tol), 4)} {status}{extra}")
    return passed


def test_criterion_01_oracle_equivalence():
    worst = mpf(0)
    for phase, pts in INTERIOR.items():
        for t, g in pts:
            prm = _params(phase, t, g)
            w = weights_from(prm, P256)
            for n in range(1, 6):
                zdet = partition_Z(prm, n, P256)
                zbf = Z_bruteforce(n, w.a, w.b, w.c, P256)
                with mp.workprec(288):
                    worst = max(worst, abs((zdet - zbf) / zbf))
    assert report("1 oracle-equivalence", worst, mpf("1e-20"))


def test_criterion_02_asm_growth_rate():
    with mp.workprec(320):
        prm = phase_params("d", mpf(0), pi / 3, P256)
        scale = sqrt(mpf(3)) / 2
        for n in range(1, 6):
            z = partition_Z(prm, n, P256)
            expected = scale ** (n * n) * asm_count(n)
            assert abs((z - expected) / expected) < mpf("1e-20")
        target = 3 * sqrt(mpf(3)) / 4
        devs = {}
        for n in (6, 12):
            a_n = partition_Z(prm, n, P256) / scale ** (n * n)
            devs[n] = abs(a_n ** (mpf(1) / (n * n)) - target) / target
    ok = report("2 asm-growth-rate", devs[12], mpf("0.02"),
                note=f"dev(6)={mp.nstr(devs[6], 4)} > dev(12)")
    assert ok and devs[12] < devs[6]


def test_criterion_03_free_fermion_point():
    # corrected statement: both routes give 2^(N^2/2); the Aztec tiling
    # count is 2^(N/2) times that (oracle-derived; see module docstring)
    with mp.workprec(320):
        prm = phase_params("d", mpf(0), pi / 4, P256)
        worst = mpf(0)
        for n in range(1, 6):
            expected = mpf(2) ** (mpf(n * n) / 2)
            zbf = Z_bruteforce(n, mpf(1), mpf(1), sqrt(mpf(2)), P256)
            zdet = sqrt(mpf(2)) ** (n * n) * partition_Z(prm, n, P256)
            worst = max(worst, abs((zbf - expected) / expected),
                        abs((zdet - expected) / expected))
            tiling = mpf(2) ** (mpf(n) / 2) * zbf
            worst = max(worst, abs((tiling - 2 ** (n * (n + 1) // 2))
                                   / tiling))
    assert report("3 free-fermion/aztec (corrected)", worst, mpf("1e-20"))


@pytest.mark.xfail(strict=True,
                   reason="Z_N(1,1,sqrt2) = 2^(N^2/2) by enumeration; the "
                          "quoted 2^(N(N+1)/2) is the tiling count, larger "
                          "by the correspondence factor 2^(N/2)")
def test_criterion_03_literal():
    with mp.workprec(320):
        z2 = Z_bruteforce(2, mpf(1), mpf(1), sqrt(mpf(2)), P256)
        passed = abs((z2 - 8) / 8) < mpf("1e-20")
    report("3-literal Z_2(1,1,sqrt2)=8", abs((z2 - 8) / 8), mpf("1e-20"),
           passed, note="enumeration gives 4")
    assert passed


def test_criterion_04_toda_identity():
    # residual limited by the 5-point stencil: h = 2^(-bits/5) balances
    # h^4 truncation against 2^(-bits)/h^2 roundoff, so the achievable
    # scale is ~2^(-3*bits/5) ~ 1e-46 at 256 bits, far below the 1e-20 gate
    worst = mpf(0)
    for phase, pts in INTERIOR.items():
        prm = _params(phase, *pts[0])
        for n in range(1, 9):
            worst = max(worst, toda_residual(prm, n, P256))
    assert report("4 toda-identity", worst, mpf("1e-20"))


def _spread_data(zeta_str):
    p = Precision(512)
    prm = _params("af", zeta_str, "1.0", p)
    taus = tau_sequence(prm, 16, p)[1:]
    ratios, _ = subleading_AF_fit(taus, prm, p)
    f = bulk_f(prm, p).f
    with mp.workprec(544):
        low = ratios[0:8]     # N = 2..9
        high = ratios[7:15]   # N = 9..16
        ratio = (max(high) - min(high)) / (max(low) - min(low))
        tail = abs(mpf(taus[-1].log_scaled) / 256 - mpf(f)) / abs(mpf(f))
    return ratio, tail


def test_criterion_05_af_free_energy_zeta0():
    ratio, tail = _spread_data("0")
    ok1 = report("5 af-spread-ratio zeta=0", ratio, mpf("0.25"))
    ok2 = report("5 af-f-at-N16 zeta=0", tail, mpf("0.01"))
    assert ok1 and ok2


def test_criterion_05_af_free_energy_zeta04_n16_clause():
    _, tail = _spread_data("0.4")
    assert report("5 af-f-at-N16 zeta=0.4", tail, mpf("0.01"))


@pytest.mark.xfail(strict=True,
                   reason="measured spread ratio at zeta=0.4 is ~0.293 over "
                          "N=2..16; the stated 0.25 gate only holds at "
                          "zeta=0 at this desk scale")
def test_criterion_05_af_spread_zeta04_literal():
    ratio, _ = _spread_data("0.4")
    passed = ratio < mpf("0.25")
    report("5-literal af-spread-ratio zeta=0.4", ratio, mpf("0.25"), passed)
    assert passed


def test_criterion_06_derivative_identity_grid():
    p = Precision(96)
    worst_df = mpf(0)
    worst_ch = mpf(0)
    with mp.workprec(128):
        gammas = [mpf("0.5") + mpf("0.375") * i for i in range(5)]
        zetas = [mpf("-0.8") + mpf("0.4") * i for i in range(5)]
    for g in gammas:
        for z in zetas:
            with mp.workprec(128):
                prm = phase_params("af", z * g, g, p)
            ep, closed = dfdzeta(prm, p)
            geom = endpoints(prm, p)
            with mp.workprec(128):
                worst_df = max(worst_df, abs(ep - closed))
                worst_ch = max(worst_ch, abs(chemb_residual(prm, geom, p)))
    ok1 = report("6 dfdzeta endpoint-vs-theta (5x5)", worst_df, mpf("1e-8"))
    ok2 = report("6 chemical-potential residual (5x5)", worst_ch, mpf("1e-8"))
    assert ok1 and ok2


def test_criterion_07_expansion_consistency():
    # small-gamma series vs closed theta form (corrected series sign)
    prm = _params("af", "0.24", "0.8")
    f_series, _ = f_small_gamma(prm, 40, P256)
    f_closed = bulk_f(prm, P256).f
    with mp.workprec(288):
        d1 = abs(f_series - f_closed)
    ok1 = report("7 small-gamma series vs theta form", d1, mpf("1e-20"))

    # leading singular part at gamma = 0.4 within 5%
    prm4 = _params("af", "0.12", "0.4")
    fs, sing = f_small_gamma(prm4, 60, P256)
    with mp.workprec(288):
        d_form = log((pi / (2 * mpf("0.4"))) / cos(pi * mpf("0.3") / 2))
        rel = abs((fs - d_form - sing) / sing)
    ok2 = report("7 singular-part scaling", rel, mpf("0.05"))

    # modular series is the physical free energy (corrected series sign)
    prm2 = _params("af", "0.6", "2.0")
    F = F_modular(prm2, 60, P256)
    fe = bulk_f(prm2, P256)
    w = weights_from(prm2, P256)
    with mp.workprec(288):
        d3 = abs(F + log(w.a * w.b) + fe.f)
    ok3 = report("7 modular series = -log(ab)-f", d3, mpf("1e-20"))

    # low-temperature limit with the log 2 restored
    prm10 = _params("af", "0.5", "10")
    F10 = F_modular(prm10, 60, P256)
    with mp.workprec(288):
        d4 = abs(F10 + mpf(15) + mpf("0.0125") - log(2))
    ok4 = report("7 low-T limit (corrected, +log2)", d4, 10 * exp(-mpf(20)))
    assert ok1 and ok2 and ok3 and ok4


@pytest.mark.xfail(strict=True,
                   reason="the quoted low-T form omits log 2; |F+1.5g+"
                          "t^2/2g| measures ~0.693 at gamma=10")
def test_criterion_07_low_temperature_literal():
    prm10 = _params("af", "0.5", "10")
    F10 = F_modular(prm10, 60, P256)
    with mp.workprec(288):
        d = abs(F10 + mpf(15) + mpf("0.0125"))
    passed = d < 10 * exp(-mpf(20))
    report("7-literal low-T limit", d, 10 * exp(-mpf(20)), passed)
    assert passed


def test_criterion_08_ode_checks():
    p = Precision(128)
    r_fe = ode_check(_params("fe", "1.5", "0.4", p), p)
    r_d = ode_check(_params("d", "0.3", "1.0", p), p)
    ok1 = report("8 fe closed form vs ODE", r_fe, mpf("1e-10"))
    ok2 = report("8 d closed form vs ODE", r_d, mpf("1e-10"))

    naive = ode_check(_params("af", "0.3", "1.0", p), p, theta_factor=False)
    ok3 = report("8 af naive residual exceeds fe/d scale", mpf(1e6) * r_fe,
                 naive, naive > mpf("1e-4") and naive > 1e6 * r_fe,
                 note=f"naive={mp.nstr(naive, 4)}")

    ansatz = ode_check(_params("af", "0.2", "1.0"), P256, n=6)
    ok4 = report("8 af theta-modulated bilinear residual", ansatz, mpf("1e-6"))
    assert ok1 and ok2 and ok3 and ok4


@pytest.mark.xfail(strict=True,
                   reason="naive residual at gamma=1, zeta=0.3 measures "
                          "~5e-4, not the quoted >1e-2")
def test_criterion_08_naive_failure_literal():
    p = Precision(128)
    naive = ode_check(_params("af", "0.3", "1.0", p), p, theta_factor=False)
    passed = naive > mpf("1e-2")
    report("8-literal af naive residual > 1e-2", naive, mpf("1e-2"), passed)
    assert passed


def test_criterion_09_specfun_identity_suite():
    tol = mpf(2) ** (-248)
    worst = mpf(0)
    with mp.workprec(320):
        # Jacobi identities on a deterministic grid
        for i in range(4):
            k = mpf("0.15") + mpf("0.2") * i
            K = elliptic_K(k, P256)
            u = (mpf(i + 1) / 6) * K
            sn, cn, dn = jacobi_sn_cn_dn(u, k, P256)
            worst = max(worst, abs(sn ** 2 + cn ** 2 - 1),
                        abs(dn ** 2 + k ** 2 * sn ** 2 - 1))
        # Legendre
        k = mpf("0.77")
        kp = sqrt(1 - k ** 2)
        worst = max(worst, abs(elliptic_E(k, P256) * elliptic_K(kp, P256)
                               + elliptic_E(kp, P256) * elliptic_K(k, P256)
                               - elliptic_K(k, P256) * elliptic_K(kp, P256)
                               - pi / 2))
        # theta_1'(0) product identity
        for qs in ("0.001", "0.01", "0.1", "0.3"):
            q = mpf(qs)
            lhs = theta1_prime_zero(q, P256)
            rhs = theta(2, 0, q, P256) * theta(3, 0, q, P256) \
                * theta(4, 0, q, P256)
            worst = max(worst, abs((lhs - rhs) / rhs))
        # Zeta structure
        k = mpf("0.6")
        K = elliptic_K(k, P256)
        u = mpf("0.37") * K
        worst = max(worst, abs(jacobi_zeta(u, k, P256)
                               + jacobi_zeta(-u, k, P256)),
                    abs(jacobi_zeta(u + 2 * K, k, P256)
                        - jacobi_zeta(u, k, P256)),
                    abs(jacobi_zeta(K, k, P256)))
    ok = report("9 specfun identity suite", worst, tol)
    # nome round trip at the looser documented tolerance
    with mp.workprec(320):
        worst_rt = mpf(0)
        for gs in ("0.2", "1", "5"):
            ed = elliptic_data_from_gamma(mpf(gs), P256)
            worst_rt = max(worst_rt, abs(ed.bigKprime / ed.bigK
                                         - pi / (2 * mpf(gs))))
    ok2 = report("9 nome round-trip", worst_rt, mpf(2) ** (-128))
    assert ok and ok2


def test_criterion_10_density_fe():
    p = Precision(96)
    prm = _params("fe", "1.5", "0.4", p)
    geom = endpoints(prm, p)
    with mp.workprec(128):
        norm = abs(density_normalization(prm, geom, p) - 1)
        plateau = max(abs(rho_at(prm, geom, mpf(m), p) - 1)
                      for m in ("0.1", "0.3", "0.45"))
        bound = max(mpf(rho_at(prm, geom, mpf(m), p)) - 1
                    for m in ("0.6", "1.0", "1.5", "1.9"))
    ok1 = report("10 fe normalization", norm, mpf("1e-8"))
    ok2 = report("10 fe saturated plateau", plateau, mpf("1e-6"))
    ok3 = report("10 fe bound rho<=1", bound, mpf("1e-6"),
                 passed=bound < mpf("1e-6"))
    assert ok1 and ok2 and ok3


def test_criterion_10_density_d():
    p = Precision(96)
    prm = _params("d", "0.3", "1.0", p)
    geom = endpoints(prm, p)
    with mp.workprec(128):
        norm = abs(density_normalization(prm, geom, p) - 1)
        negativity = max(-mpf(rho_at(prm, geom, mpf(m), p))
                         for m in ("-1.5", "-0.4", "0.7", "3.9"))
    ok1 = report("10 d normalization", norm, mpf("1e-8"))
    ok2 = report("10 d nonnegativity", negativity, mpf("1e-30"),
                 passed=negativity <= 0)
    assert ok1 and ok2


def test_criterion_10_density_af():
    p72 = Precision(72)
    prm = _params("af", "0.3", "1.0", p72)
    geom = endpoints(prm, p72)
    with mp.workprec(104):
        plateau = abs(rho_at(prm, geom, mpf(0), p72) - mpf("0.5"))
        bound = max(mpf(rho_at(prm, geom, mpf(m), p72)) - mpf("0.5")
                    for m in ("-1.2", "0.5", "2.6", "4.5"))
    ok2 = report("10 af saturated plateau", plateau, mpf("1e-6"))
    ok3 = report("10 af bound rho<=1/(2 gamma)", bound, mpf("1e-6"),
                 passed=bound < mpf("1e-6"))
    p64 = Precision(64)
    prm64 = _params("af", "0.3", "1.0", p64)
    geom64 = endpoints(prm64, p64)
    with mp.workprec(96):
        norm = abs(density_normalization(prm64, geom64, p64) - 1)
    ok1 = report("10 af normalization", norm, mpf("1e-8"))
    assert ok1 and ok2 and ok3
