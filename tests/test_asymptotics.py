"""Thermodynamic-limit layer: endpoints, free energies, expansions,
resolvents/densities, subleading fits.

Two commonly quoted statements about these limits fail numerically and are
kept here as strict xfails with their corrected counterparts asserted next
to them:
  * the low-temperature limit of F misses an additive log 2,
  * the naive second-derivative test of the af bulk f fails only at the
    5e-4 level at gamma=1 (not 1e-2),
and the small-gamma/low-temperature correction series enter with the
opposite sign to the usually quoted ones (the corrected signs are what the
closed theta form and the exact finite-N data confirm; see the sign tests
below).
"""

import functools

import mpmath
import pytest
from mpmath import (mp, mpf, mpc, sqrt, sinh, cosh, tanh, exp, log, pi, cos,
                    sin, asin, ellipf, ellipk, ellippi, fprod, quad, re, im)
from mpmath.calculus.quadrature import QuadratureRule

from sixvertex import exactcore, specfun
from sixvertex import (CutoffTooSmallError, DegenerateGeometryError,
                       DomainError, Precision, QuadratureError, F_modular, bulk_f, chemb_residual,
                       density_normalization, dfdzeta, endpoints,
                       f_small_gamma, ode_check, phase_params, resolvent,
                       rho_at, saddle_residual, SaddleGeometry,
                       subleading_AF_fit, smooth_fit_D, tau_sequence,
                       partition_Z, weights_from)
from sixvertex.asymptotics import freenergy
from sixvertex.asymptotics.resolvent import _af_omega
from sixvertex.precision import rounded

P = Precision(256)
P128 = Precision(128)
P96 = Precision(96)


def _params(phase, t, gamma, p=P):
    with mp.workprec(p.bits + 32):
        return phase_params(phase, mpf(t), mpf(gamma), p)


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------


class TestEndpoints:
    def test_fe_shifted_point(self):
        # t - |gamma| = 2: alpha = coth 1, beta = tanh 1, product 1
        geom = endpoints(_params("fe", "2.4", "0.4"), P)
        with mp.workprec(300):
            assert abs(geom.alpha - cosh(mpf(1)) / sinh(mpf(1))) < mpf(2) ** (-240)
            assert abs(geom.beta - tanh(mpf(1))) < mpf(2) ** (-240)
            assert abs(geom.alpha * geom.beta - 1) < mpf(2) ** (-240)

    def test_d_symmetric_point(self):
        geom = endpoints(_params("d", "0", "1.0"), P)
        with mp.workprec(300):
            assert abs(geom.alpha + pi) < mpf(2) ** (-240)
            assert abs(geom.beta - pi) < mpf(2) ** (-240)

    def test_d_product_rule(self):
        geom = endpoints(_params("d", "0.37", "1.1"), P)
        with mp.workprec(300):
            assert abs(-geom.alpha * geom.beta - pi ** 2) < mpf(2) ** (-238)

    def test_af_symmetric_point(self):
        prm = _params("af", "0", "1.0")
        geom = endpoints(prm, P)
        with mp.workprec(300):
            assert abs(geom.u_inf - geom.elliptic.bigK / 2) < mpf(2) ** (-240)
            assert abs(geom.alpha + geom.beta) < mpf(2) ** (-235)
            assert abs(geom.alpha_prime + geom.beta_prime) < mpf(2) ** (-235)

    def test_af_ordering(self):
        geom = endpoints(_params("af", "0.3", "1.0"), P)
        assert geom.alpha < geom.alpha_prime < 0 < geom.beta_prime < geom.beta

    def test_af_nome_independent_of_zeta(self):
        qs = []
        for t in ("-0.5", "0", "0.5"):
            geom = endpoints(_params("af", t, "1.0"), P)
            qs.append(geom.elliptic.q)
        with mp.workprec(300):
            assert abs(qs[0] - qs[1]) < mpf(2) ** (-248)
            assert abs(qs[2] - qs[1]) < mpf(2) ** (-248)

    def test_af_degenerate_zeta(self):
        with pytest.raises(DegenerateGeometryError):
            endpoints(_params("af", "0.999999999999999999999999999999999999",
                              "1.0", P128), P128)

    def test_chemb_residual_small(self):
        for t, g in (("0.3", "1.0"), ("-0.4", "0.8"), ("0.56", "1.7")):
            prm = _params("af", t, g, P96)
            geom = endpoints(prm, P96)
            assert abs(chemb_residual(prm, geom, P96)) < mpf("1e-8")

    @pytest.mark.parametrize("t,g", [("0.4", "1"), ("0.08", "0.2"),
                                     ("0.04", "0.1"), ("0.02", "0.05")])
    def test_chemb_residual_is_relative_to_beta_prime(self, t, g):
        # zeta = 0.4: beta' is 1.4e-42 at gamma = 0.05, where an absolute
        # residual below 1e-97 would still hide a loss of 74 bits
        prm = phase_params("af", t, g, P)
        geom = endpoints(prm, P)
        assert abs(chemb_residual(prm, geom, P)) < mpf(2) ** (-P.bits + 16)

    def test_af_endpoints_run_no_agm_and_no_landen(self, monkeypatch):
        # once the gamma memo exists the af endpoints are theta quotients
        # alone: no AGM build, no sn/cn/dn and no Zeta
        endpoints(_params("af", "0.3", "1.0"), P)
        specfun._agm.cache_clear()

        def refuse(*args):
            raise AssertionError("af endpoints entered the Landen route")

        monkeypatch.setattr(specfun, "_landen", refuse)
        for t in ("-0.7", "0.2", "0.95"):
            geom = endpoints(_params("af", t, "1.0"), P)
            assert geom.alpha < geom.alpha_prime < 0 < geom.beta_prime < geom.beta
        assert specfun._agm.cache_info().misses == 0


def _af_endpoints_oracle(prm, bits):
    """alpha, alpha', beta', beta by mpmath's ellipk, ellipfun and ellipe at
    4*bits, each beta' = 2KZ(u_inf) plus one term (no cancellation)."""
    with mp.workprec(4 * bits):
        m = mpmath.mfrom(q=exp(-pi ** 2 / (2 * prm.gamma)))
        K = ellipk(m)
        u = K * (1 - prm.zeta) / 2
        sn, cn, dn = (mpmath.ellipfun(f, u, m=m) for f in ("sn", "cn", "dn"))
        Z = mpmath.ellipe(mpmath.atan2(sn, cn), m) - u * mpmath.ellipe(m) / K
        bp = 2 * K * Z
        return (bp - 2 * K * sn * dn / cn, bp - 2 * K * m * sn * cn / dn, bp,
                bp + 2 * K * cn * dn / sn)


@pytest.mark.parametrize("zs", ["-0.95", "0.95", "-0.999999", "0.999999",
                                "0.9999999999"])
@pytest.mark.parametrize("gs", ["0.2", "1", "5"])
@pytest.mark.parametrize("bits", [256, 1024])
def test_af_endpoints_near_band_collapse(bits, gs, zs):
    # as |zeta| -> 1 one band shrinks to a point; each endpoint keeps
    # 2^(-bits+8) relative accuracy
    p = Precision(bits)
    with mp.workprec(bits + 96):
        t = mpf(zs) * mpf(gs)
    prm = phase_params("af", t, gs, p)
    geom = endpoints(prm, p)
    got = (geom.alpha, geom.alpha_prime, geom.beta_prime, geom.beta)
    ref = _af_endpoints_oracle(prm, bits)
    with mp.workprec(4 * bits):
        for name, x, r in zip(("alpha", "alpha'", "beta'", "beta"), got, ref):
            assert abs(x - r) <= mpf(2) ** (-bits + 8) * abs(r), \
                (name, mp.nstr(abs(x / r - 1), 5))


# ---------------------------------------------------------------------------
# bulk free energy
# ---------------------------------------------------------------------------


class TestBulkF:
    def test_d_ice_point(self):
        with mp.workprec(300):
            prm = phase_params("d", mpf(0), pi / 3, P)
            fe = bulk_f(prm, P)
            assert abs(exp(fe.f) - mpf(3) / 2) < mpf(2) ** (-240)
            assert abs(fe.z_limit - mpf(9) / 8) < mpf(2) ** (-240)
            # implied ASM growth rate
            rate = fe.z_limit / (sqrt(mpf(3)) / 2)
            assert abs(rate - 3 * sqrt(mpf(3)) / 4) < mpf(2) ** (-238)

    def test_d_free_fermion_point(self):
        with mp.workprec(300):
            prm = phase_params("d", mpf(0), pi / 4, P)
            fe = bulk_f(prm, P)
            assert abs(exp(fe.f) - 2) < mpf(2) ** (-240)
            assert abs(fe.z_limit - 1) < mpf(2) ** (-240)

    def test_fe_closed_form(self):
        prm = _params("fe", "2.4", "0.4")
        fe = bulk_f(prm, P)
        with mp.workprec(300):
            assert abs(exp(fe.f) - 1 / sinh(mpf(2))) < mpf(2) ** (-240)

    def test_z_limit_consistency(self):
        for phase, t, g in (("fe", "1.5", "0.4"), ("d", "0.3", "1.0"),
                            ("af", "0.3", "1.0")):
            prm = _params(phase, t, g)
            fe = bulk_f(prm, P)
            w = weights_from(prm, P)
            with mp.workprec(300):
                assert abs(fe.z_limit - w.a * w.b * exp(fe.f)) < mpf(2) ** (-235)
                assert abs(fe.F + log(w.a * w.b) + fe.f) < mpf(2) ** (-235)

    def test_af_reduces_to_d_at_small_gamma(self):
        # q = exp(-pi^2/0.1) is astronomically small
        af = bulk_f(_params("af", "0.015", "0.05", P128), P128)
        d = bulk_f(_params("d", "0.015", "0.05", P128), P128)
        with mp.workprec(160):
            assert abs(af.f - d.f) < mpf("1e-3")


# ---------------------------------------------------------------------------
# derivative identity
# ---------------------------------------------------------------------------


class TestDfdzeta:
    def test_symmetric_points_vanish(self):
        for phase in ("d", "af"):
            ep, closed = dfdzeta(_params(phase, "0", "1.0"), P128)
            assert abs(ep) < mpf("1e-30")
            assert abs(closed) < mpf("1e-30")

    def test_fe_both_forms_are_minus_coth(self):
        ep, closed = dfdzeta(_params("fe", "2.4", "0.4"), P)
        with mp.workprec(300):
            target = -cosh(mpf(2)) / sinh(mpf(2))
            assert abs(ep - target) < mpf(2) ** (-238)
            assert abs(closed - target) < mpf(2) ** (-238)

    def test_d_forms_agree(self):
        ep, closed = dfdzeta(_params("d", "0.37", "1.1"), P)
        with mp.workprec(300):
            assert abs(ep - closed) < mpf(2) ** (-238)

    @pytest.mark.parametrize("t,g", [("0.4", "1.0"), ("-0.24", "0.6"),
                                     ("1.3", "1.625")])
    def test_af_forms_agree(self, t, g):
        ep, closed = dfdzeta(_params("af", t, g, P128), P128)
        with mp.workprec(160):
            assert abs(ep - closed) < mpf("1e-8")

    def test_af_matches_finite_difference_of_f(self):
        prm = _params("af", "0.3", "1.0")
        _, closed = dfdzeta(prm, P)
        with mp.workprec(300):
            h = mpf(2) ** (-50)
            fp = bulk_f(_params("af", mpf("0.3") + h, "1.0"), P).f
            fm = bulk_f(_params("af", mpf("0.3") - h, "1.0"), P).f
            fd = (fp - fm) / (2 * h)   # d/dt = (1/gamma) d/dzeta; gamma = 1
            assert abs(fd - closed) < mpf(2) ** (-95)


# ---------------------------------------------------------------------------
# series expansions
# ---------------------------------------------------------------------------


class TestExpansions:
    def test_small_gamma_series_matches_theta_form(self):
        prm = _params("af", "0.24", "0.8")   # zeta = 0.3
        fs, _ = f_small_gamma(prm, 40, P)
        fe = bulk_f(prm, P)
        with mp.workprec(300):
            assert abs(fs - fe.f) < mpf(2) ** (-128)

    def test_correction_sign_vs_quoted_series(self):
        # the af free energy lies BELOW the d-phase form at equal zeta
        prm = _params("af", "0.3", "1.0")
        af = bulk_f(prm, P).f
        with mp.workprec(300):
            d_form = log((pi / 2) / cos(pi * mpf("0.3") / 2))
            assert af < d_form

    def test_singular_part_scaling(self):
        # (f_series - f_d) approaches the leading singular term within 5%
        prm = _params("af", "0.12", "0.4")
        fs, sing = f_small_gamma(prm, 60, P)
        with mp.workprec(300):
            d_form = log((pi / (2 * mpf("0.4"))) / cos(pi * mpf("0.3") / 2))
            diff = fs - d_form
            assert sing < 0
            assert abs(diff - sing) < mpf("0.05") * abs(sing)

    def test_singular_part_vanishes_toward_boundary(self):
        prm = _params("af", "0.799999999", "0.8")
        _, sing = f_small_gamma(prm, 40, P128)
        with mp.workprec(160):
            assert abs(sing) < exp(-pi ** 2 / mpf("0.8")) * mpf("1e-15")

    def test_next_order_suppression_ratio(self):
        # after subtracting the leading singular term the remainder scales
        # like exp(-2 pi^2/gamma): successive gammas give the predicted ratio
        remainders = {}
        for gs in ("0.5", "0.4", "0.3"):
            with mp.workprec(300):
                g = mpf(gs)
                prm = phase_params("af", mpf("0.3") * g, g, P)
            fs, sing = f_small_gamma(prm, 80, P)
            with mp.workprec(300):
                d_form = log((pi / (2 * g)) / cos(pi * mpf("0.3") / 2))
                remainders[gs] = abs(fs - d_form - sing)
        with mp.workprec(300):
            for hi, lo in (("0.5", "0.4"), ("0.4", "0.3")):
                predicted = -2 * pi ** 2 * (1 / mpf(lo) - 1 / mpf(hi))
                measured = log(remainders[lo] / remainders[hi])
                assert abs(measured - predicted) < 1

    def test_modular_series_is_exact_identity(self):
        prm = _params("af", "0.6", "2.0")   # zeta = 0.3
        F = F_modular(prm, 60, P)
        fe = bulk_f(prm, P)
        w = weights_from(prm, P)
        with mp.workprec(300):
            assert abs(F - (-log(w.a * w.b) - fe.f)) < mpf("1e-20")

    def test_modular_series_converges_near_boundary(self):
        prm = _params("af", "1.98", "2.0", P128)   # zeta = 0.99
        F = F_modular(prm, 200, P128)
        assert mp.isfinite(F)

    @pytest.mark.parametrize("series,t,g,m_min", [
        (f_small_gamma, "0.3", "1", 18), (F_modular, "0.9", "5", 15)],
        ids=["f_small_gamma", "F_modular"])
    def test_series_cutoff_keeps_every_bit(self, series, t, g, m_min):
        # a tail bound of 2^(-bits/2) accepted m_max = 10, which kept only
        # 159.5 and 193.5 of 256 bits; 2^(-bits-8) takes m_min
        prm = _params("af", t, g)
        for m_max in (10, m_min - 1):
            with pytest.raises(CutoffTooSmallError, match=r"2\^\(-bits-8\)"):
                series(prm, m_max, P)
        hi = Precision(1024)
        got = series(prm, m_min, P)
        # m_max caps the series: it stops at m_min whatever the cap
        assert series(prm, 100, P) == got
        ref = series(phase_params("af", t, g, hi), 100, hi)
        if series is f_small_gamma:
            got, ref = got[0], ref[0]
        with mp.workprec(1024):
            assert abs(got - ref) <= mpf(2) ** (-248) * abs(ref)

    def test_low_temperature_limit_with_log2(self):
        # corrected low-T form: F -> -(3/2)g - t^2/(2g) + log 2 + O(e^{-2g})
        prm = _params("af", "0.5", "10")
        F = F_modular(prm, 60, P)
        with mp.workprec(300):
            resid = F + mpf(3) * 10 / 2 + mpf("0.5") ** 2 / 20 - log(2)
            assert abs(resid) < 10 * exp(-mpf(20))

    @pytest.mark.xfail(strict=True,
                       reason="the quoted low-T limit omits the additive log 2; "
                              "the measured offset is log 2 ~ 0.693")
    def test_low_temperature_limit_quoted_form(self):
        prm = _params("af", "0.5", "10")
        F = F_modular(prm, 60, P)
        with mp.workprec(300):
            assert abs(F + mpf(3) * 10 / 2 + mpf("0.5") ** 2 / 20) \
                < 10 * exp(-mpf(20))


# ---------------------------------------------------------------------------
# ODE / bilinear checks
# ---------------------------------------------------------------------------


class TestOdeCheck:
    def test_fe_closed_form_satisfies(self):
        assert ode_check(_params("fe", "1.5", "0.4", P128), P128) < mpf("1e-10")

    def test_d_closed_form_satisfies(self):
        assert ode_check(_params("d", "0.3", "1.0", P128), P128) < mpf("1e-10")

    def test_af_naive_fails_by_orders_of_magnitude(self):
        prm = _params("af", "0.3", "1.0", P128)
        naive = ode_check(prm, P128, theta_factor=False)
        fe_resid = ode_check(_params("fe", "1.5", "0.4", P128), P128)
        assert naive > mpf("1e-4")
        assert naive > mpf(10) ** 6 * fe_resid

    @pytest.mark.xfail(strict=True,
                       reason="the naive-f failure at gamma=1, zeta=0.3 "
                              "measures ~5e-4, not the stated >1e-2")
    def test_af_naive_failure_quoted_threshold(self):
        prm = _params("af", "0.3", "1.0", P128)
        assert ode_check(prm, P128, theta_factor=False) > mpf("1e-2")

    def test_af_theta_ansatz_satisfies_bilinear(self):
        # the theta_4-modulated form solves the Toda equation exactly: with
        # f'' and (log theta_4)'' in closed form the residual is rounding
        prm = _params("af", "0.2", "1.0")
        for n in (2, 6, 20):
            assert ode_check(prm, P, n=n) < mpf(2) ** (-P.bits + 16), n

    @pytest.mark.parametrize("phase,t,g", [
        ("fe", "0.4000000000000001", "0.4"),
        ("fe", "0.40000000000000000000000000000001", "0.4"),
        ("d", "0.9999999999999999", "1")])
    def test_boundary_residual_is_rounding(self, phase, t, g):
        # 1e-16 and 1e-32 from the log singularity of f at the boundary,
        # where a finite difference in t would lose its digits or leave
        # the phase region
        prm = phase_params(phase, t, g, P)
        assert ode_check(prm, P) < mpf(2) ** (-P.bits + 16)

    def test_af_second_derivative_against_jtheta(self):
        # oracle: f' = -(pi/2g) (log theta_2)'(pi t/2g) and
        # f'' = -(pi/2g)^2 (log theta_2)''(pi t/2g) from mpmath's
        # jtheta(2, ., q, d) at 4x the bits
        prm = _params("af", "0.3", "1.0")
        with mp.workprec(P.bits + 32):
            _, df, d2f = exactcore.PHASE_TABLE["af"].f(prm, P)
        with mp.workprec(4 * P.bits):
            g = prm.gamma
            z, q = pi * prm.t / (2 * g), exp(-pi ** 2 / (2 * g))
            th, d1, d2 = (mpmath.jtheta(2, z, q, d) for d in range(3))
            for got, ref in ((df, -(pi / (2 * g)) * d1 / th),
                             (d2f, -(pi / (2 * g)) ** 2
                              * (d2 / th - (d1 / th) ** 2))):
                assert abs(got - ref) < mpf(2) ** (-P.bits + 8) * abs(ref)

    @pytest.mark.parametrize("phase,t,g", [
        ("fe", "1.5", "0.4"), ("fe", "0.41", "-0.4"),
        ("d", "0.3", "1.0"), ("d", "-0.9999", "1.5")])
    def test_first_derivative_closed_forms(self, phase, t, g):
        # f' = -coth(t - |gamma|) in fe, (pi/2g) tan(pi t/2g) in d, at 4x
        # the bits
        prm = phase_params(phase, t, g, P)
        with mp.workprec(P.bits + 32):
            got = exactcore.PHASE_TABLE[phase].f(prm, P)[1]
        with mp.workprec(4 * P.bits):
            t, g = prm.t, prm.gamma
            ref = -mpmath.coth(t - abs(g)) if phase == "fe" \
                else (pi / (2 * g)) * mpmath.tan(pi * t / (2 * g))
            assert abs(got - ref) < mpf(2) ** (-P.bits + 8) * abs(ref)

    def test_warm_af_ode_check_makes_four_theta_passes(self, monkeypatch):
        # f, f' and f'' share one theta_2 pass; theta_4 and its derivatives
        # at u_n, and theta_4 at u_(n+1) and u_(n-1), are the other three
        prm = _params("af", "0.2", "1.0")
        ode_check(prm, P)
        calls = []
        original = specfun.theta_all

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for module in (specfun, exactcore, freenergy):
            monkeypatch.setattr(module, "theta_all", counting)
        ode_check(prm, P)
        assert len(calls) == 4, calls


# ---------------------------------------------------------------------------
# resolvent and density
# ---------------------------------------------------------------------------


def _cut_integral(roots, lo, hi, p: Precision, w=lambda x: 1):
    """int_lo^hi w(x) dx / sqrt|P(x)| by tanh-sinh quadrature, the oracle of
    the af closed forms.  The inverse square root at each root end is
    absorbed by x = a + (b-a) sin^2(t) between adjacent roots a, b, and by
    x = r + (mu-r) v^2 from a root r to a point mu of its band.  Raises
    QuadratureError if mpmath's error estimate exceeds 2^(-bits+8) of the
    value."""
    others = [r for r in roots if r != lo and r != hi]

    def smooth(x):   # the factors of P that no substitution absorbed
        return 2 * w(x) / sqrt(abs(fprod(x - r for r in others)))

    if lo in roots and hi in roots:
        val, err = quad(lambda t: smooth(lo + (hi - lo) * sin(t) ** 2),
                        [0, pi / 2], error=True)
    else:
        # v in [0, 1] keeps the integrand O(1): quad's tolerance is absolute
        root, span = (hi, lo - hi) if hi in roots else (lo, hi - lo)
        val, err = (sqrt(abs(span)) * x for x in quad(
            lambda v: smooth(root + span * v * v), [0, 1], error=True))
    if err > mpf(2) ** (8 - p.bits) * abs(val):
        raise QuadratureError(f"quadrature from {mp.nstr(lo, 8)} stalled at "
                              f"error {mp.nstr(err, 5)}", achieved=err)
    return val


def _ray_omega(roots, z):
    """int_z^inf dx / sqrt P(x) by tanh-sinh quadrature, the oracle of the
    closed-form af resolvent.  Principal roots of the four linear factors
    pin the cuts to the bands.  The path is the horizontal ray at Im(z),
    split below the branch points right of z; for real z left of the
    support it first lifts off the axis."""
    def s(x):
        return fprod(sqrt(x - r) for r in roots)

    if im(z) == 0 and re(z) < roots[0]:
        leg = quad(lambda u: 1 / s(z + mpc(0, 1) * u), [0, 1]) * mpc(0, 1)
        return leg + _ray_omega(roots, mpc(re(z), 1))
    marks = sorted(r - re(z) for r in roots if r > re(z))
    return quad(lambda sdist: 1 / s(z + sdist), [mpf(0)] + marks + [mp.inf])


def _af_point(gamma, zeta, p):
    """af params, geometry and the roots alpha < alpha' < beta' < beta."""
    with mp.workprec(p.bits + 64):
        prm = phase_params("af", mpf(zeta) * mpf(gamma), gamma, p)
    geom = endpoints(prm, p)
    with p.work():
        roots = (mpf(geom.alpha), mpf(geom.alpha_prime),
                 mpf(geom.beta_prime), mpf(geom.beta))
    return prm, geom, roots


class TestResolvent:
    def test_large_z_normalization(self):
        for phase, t, g in (("fe", "1.5", "0.4"), ("d", "0.3", "1.0"),
                            ("af", "0.3", "1.0")):
            prm = _params(phase, t, g, P96)
            geom = endpoints(prm, P96)
            with mp.workprec(128):
                om = resolvent(prm, geom, mpf(10) ** 6, P96)
                assert abs(om * 10 ** 6 - 1) < mpf("1e-5")

    def test_on_support_raises(self):
        prm = _params("d", "0.3", "1.0", P96)
        geom = endpoints(prm, P96)
        with pytest.raises(DomainError):
            resolvent(prm, geom, mpf("0.5"), P96)

    def test_af_gap_and_band_raise_but_left_exterior_works(self):
        prm = _params("af", "0.3", "1.0", P96)
        geom = endpoints(prm, P96)
        with pytest.raises(DomainError):
            resolvent(prm, geom, mpf(0), P96)       # saturated gap
        with pytest.raises(DomainError):
            resolvent(prm, geom, mpf(2), P96)       # unsaturated band
        left = resolvent(prm, geom, mpf(geom.alpha) - 1, P96)
        with mp.workprec(128):
            # real z left of the support: omega real and negative
            assert abs(left.imag) < mpf("1e-20")
            assert left.real < 0

    def test_conjugate_symmetry(self):
        prm = _params("af", "0.3", "1.0", P96)
        geom = endpoints(prm, P96)
        z = mpc(2, mpf("0.25"))
        up = resolvent(prm, geom, z, P96)
        dn = resolvent(prm, geom, mpc(2, -mpf("0.25")), P96)
        with mp.workprec(128):
            assert abs(up.real - dn.real) < mpf("1e-25")
            assert abs(up.imag + dn.imag) < mpf("1e-25")

    def test_af_saddle_equation_both_bands(self):
        prm = _params("af", "0.3", "1.0", Precision(72))
        geom = endpoints(prm, Precision(72))
        with mp.workprec(104):
            right = (mpf(geom.beta_prime) + mpf(geom.beta)) / 2
            left = (mpf(geom.alpha) + mpf(geom.alpha_prime)) / 2
        for mu in (right, left):
            assert abs(saddle_residual(prm, geom, mu, Precision(72))) < mpf("1e-9")

    def test_d_saddle_equation(self):
        prm = _params("d", "0.3", "1.0")
        geom = endpoints(prm, P)
        # +-1e-30 sit next to the jump of V' = sign(mu) - zeta at 0
        for mu in ("-0.9", "0.2", "2.5", "1e-30", "-1e-30"):
            assert abs(saddle_residual(prm, geom, mpf(mu), P)) \
                < mpf(2) ** (8 - P.bits)
        for mu in (mpf(0), mpf(geom.alpha) - 1, mpf(geom.beta) + 1):
            with pytest.raises(DomainError):
                saddle_residual(prm, geom, mu, P)

    def test_fe_saddle_equation(self):
        prm = _params("fe", "2.4", "0.4")
        geom = endpoints(prm, P)
        assert abs(saddle_residual(prm, geom, mpf(1), P)) < mpf(2) ** (8 - P.bits)
        with pytest.raises(DomainError):
            saddle_residual(prm, geom, mpf("0.5"), P)    # saturated part

    @pytest.mark.parametrize("phase,t,g", [
        ("fe", "2.4", "0.4"), ("d", "0.3", "1.0"), ("af", "0.3", "1.0")])
    def test_saddle_domain_is_the_unsaturated_support(self, phase, t, g):
        # every end of the support and of a saturated interval is refused,
        # and mu = 0 with it; the middle of each unsaturated piece is not
        prm = _params(phase, t, g, P96)
        geom = endpoints(prm, P96)
        with P96.work():
            (lo, hi), sat = geom.support, geom.saturated
            ends = sorted({lo, hi, mpf(0)} | {x for ab in sat for x in ab})
            mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        for mu in ends:
            with pytest.raises(DomainError):
                saddle_residual(prm, geom, mu, P96)
        for mu in mids:
            if not any(a <= mu <= b for a, b in sat):
                assert abs(saddle_residual(prm, geom, mu, P96)) < mpf(2) ** -80


def _profile(prm, geom, n, p):
    """rho at the n midpoints of the support, as the density command samples
    it, with the saturated intervals and the bound."""
    with p.work():
        (lo, hi), sat, bound = geom.support, geom.saturated, geom.bound
        step = (hi - lo) / n
        mus = [lo + (i + mpf(1) / 2) * step for i in range(n)]
    return [(mu, rho_at(prm, geom, mu, p)) for mu in mus], sat, bound


class TestDensity:
    def test_fe_plateau_and_norm(self):
        # saturation boundary is tanh(t_e/2) = tanh(0.55) ~ 0.5005
        prm = _params("fe", "1.5", "0.4", P96)
        geom = endpoints(prm, P96)
        for mu in ("0.1", "0.3", "0.45"):
            assert abs(rho_at(prm, geom, mpf(mu), P96) - 1) < mpf("1e-6")
        assert abs(density_normalization(prm, geom, P96) - 1) < mpf("1e-8")

    def test_d_norm_and_positivity(self):
        prm = _params("d", "0.3", "1.0", P96)
        geom = endpoints(prm, P96)
        assert abs(density_normalization(prm, geom, P96) - 1) < mpf("1e-8")
        grid, _, bound = _profile(prm, geom, 24, P96)
        assert all(r >= 0 for _, r in grid)
        assert bound == mp.inf

    def test_af_plateau_value(self):
        prm = _params("af", "0.3", "1.0", Precision(72))
        geom = endpoints(prm, Precision(72))
        r0 = rho_at(prm, geom, mpf(0), Precision(72))
        with mp.workprec(104):
            assert abs(r0 - mpf(1) / 2) < mpf("1e-6")

    def test_af_zero_off_the_support(self):
        prm = _params("af", "0.3", "1.0")
        geom = endpoints(prm, P)
        for mu in (mpf(geom.alpha) - 1, mpf(geom.beta) + 1):
            assert rho_at(prm, geom, mu, P) == 0

    def test_af_profile_marks_saturation_and_bound(self):
        prm = _params("af", "0.3", "1.0", Precision(72))
        geom = endpoints(prm, Precision(72))
        grid, sat, bound = _profile(prm, geom, 13, Precision(72))
        with mp.workprec(104):
            (a, b), = sat
            assert abs(mpf(a) - mpf(geom.alpha_prime)) < mpf("1e-18")
            assert abs(mpf(b) - mpf(geom.beta_prime)) < mpf("1e-18")
            bound = mpf(bound)
            for mu, r in grid:
                assert mpf(r) <= bound + mpf("1e-6")
                if mpf(a) < mpf(mu) < mpf(b):
                    assert abs(mpf(r) - bound) < mpf("1e-6")
        # saturated fraction of total mass is below 1
        with mp.workprec(104):
            frac = (mpf(b) - mpf(a)) * bound
            assert 0 < frac < 1

    def test_af_norm_contour(self):
        p = Precision(64)
        prm = _params("af", "0.3", "1.0", p)
        geom = endpoints(prm, p)
        assert abs(density_normalization(prm, geom, p) - 1) < mpf("1e-8")

    def test_af_on_cut_integrals_at_working_precision(self):
        tol = mpf(2) ** -240
        prm = _params("af", "0.3", "1.0")
        geom = endpoints(prm, P)
        p512 = Precision(512)
        prm512 = _params("af", "0.3", "1.0", p512)
        geom512 = endpoints(prm512, p512)
        with mp.workprec(288):
            roots = al, alp, bep, be = (
                mpf(geom.alpha), mpf(geom.alpha_prime),
                mpf(geom.beta_prime), mpf(geom.beta))
            # a quarter into the inner band from its free end, three quarters
            # into the outer one
            inner, gap = (3 * al + alp) / 4, (alp + bep) / 2
            outer = (bep + 3 * be) / 4
        for mu in (inner, gap, outer):
            r256 = rho_at(prm, geom, mu, P)
            r512 = rho_at(prm512, geom512, mu, p512)
            with mp.workprec(544):
                assert abs(r256 - r512) < tol * r512
        with mp.workprec(288):
            assert abs(rho_at(prm, geom, gap, P) - mpf(1) / 2) < tol
            # rho_at integrates from a band's free end; from its saturated
            # end, rho = 1/(2 gamma) - the cut integral from mu to that end / pi
            for mu, a, b in ((inner, inner, alp), (outer, bep, outer)):
                from_core = mpf(1) / 2 - _cut_integral(roots, a, b, P) / pi
                assert abs(rho_at(prm, geom, mu, P) - from_core) < tol
            assert abs(density_normalization(prm, geom, P) - 1) < tol
        for mu in (inner, outer):
            assert abs(saddle_residual(prm, geom, mu, P)) < tol
        with pytest.raises(DomainError):
            saddle_residual(prm, geom, gap, P)    # saturated: no equation

        # int rho(mu) / (z - mu) dmu, with rho's own cut integral swapped
        # outside, against the closed form of resolvent()
        p96 = Precision(96)
        prm96 = _params("af", "0.3", "1.0", p96)
        geom96 = endpoints(prm96, p96)
        z = mpc(2, 1)
        with mp.workprec(128):
            roots = al, alp, bep, be = (
                mpf(geom96.alpha), mpf(geom96.alpha_prime),
                mpf(geom96.beta_prime), mpf(geom96.beta))

            def cut(a, b, *w):
                return _cut_integral(roots, a, b, p96, *w)

            outer_band = cut(bep, be, lambda x: log(z - bep) - log(z - x))
            inner_band = cut(bep, be) * (log(z - al) - log(z - alp)) \
                - cut(al, alp, lambda x: log(z - al) - log(z - x))
            core = (log(z - alp) - log(z - bep)) / 2
            omega = (outer_band + inner_band) / pi + core
            assert abs(omega - resolvent(prm96, geom96, z, p96)) < mpf(2) ** -80


@pytest.mark.parametrize("bits", [256, 512])
@pytest.mark.parametrize("gamma", ["0.5", "1", "2"])
@pytest.mark.parametrize("zeta", ["-0.9", "-0.5", "0", "0.4", "0.9"])
def test_af_rho_closed_form_against_quadrature(zeta, gamma, bits):
    # rho_at evaluates a band integral of 1/sqrt|P| in closed form.  The
    # oracles: _cut_integral and the Legendre form g F(phi, m), each from the
    # band end nearer mu, at interior mu and 1e-30 from each root; and
    # Gauss-Legendre quadrature at two interior points
    p = Precision(bits)
    with mp.workprec(bits + 64):
        prm = phase_params("af", mpf(zeta) * mpf(gamma), gamma, p)
    geom = endpoints(prm, p)
    tol = mpf(2) ** (8 - bits)
    with p.work():
        roots = al, alp, bep, be = (
            mpf(geom.alpha), mpf(geom.alpha_prime),
            mpf(geom.beta_prime), mpf(geom.beta))
        g = 2 / sqrt((be - alp) * (bep - al))
        m = (be - bep) * (alp - al) / ((be - alp) * (bep - al))
        assert abs(m - mpf(geom.elliptic.kprime) ** 2) < tol
        full = _cut_integral(roots, bep, be, p)   # either band, g K(m)
        assert abs(g * ellipk(m) / full - 1) < tol
        inner, outer = (3 * al + alp) / 4, (bep + 3 * be) / 4
        eps = mpf("1e-30")
        mus = (inner, al + eps, alp - eps, (alp + bep) / 2, bep + eps,
               be - eps, outer)

    def oracle(mu):   # pi rho by quadrature from the band end nearer mu
        if mu < alp:
            return (_cut_integral(roots, al, mu, p) if mu - al < alp - mu
                    else full - _cut_integral(roots, mu, alp, p))
        if mu > bep:
            return (_cut_integral(roots, mu, be, p) if be - mu < mu - bep
                    else full - _cut_integral(roots, bep, mu, p))
        return full

    def legendre(mu):   # Byrd-Friedman g F(phi, m) from the root nearer mu
        def F(sn2):
            return g * ellipf(asin(sqrt(sn2)), m)
        if mu < alp:
            if mu - al < alp - mu:   # 256.00
                return F((be - alp) * (mu - al) / ((alp - al) * (be - mu)))
            return full - F((bep - al) * (alp - mu)    # 257.00
                            / ((alp - al) * (bep - mu)))
        if be - mu < mu - bep:   # 251.00
            return F((bep - al) * (be - mu) / ((be - bep) * (mu - al)))
        return full - F((be - alp) * (mu - bep)    # 252.00
                        / ((be - bep) * (mu - alp)))

    def direct(a, b):   # x = a + (b - a) sin^2 t from the root a
        others = [r for r in roots if r != a]
        return quad(lambda t: 2 * sqrt(abs(b - a)) * cos(t) / sqrt(abs(fprod(
            a + (b - a) * sin(t) ** 2 - r for r in others))), [0, pi / 2],
            method="gauss-legendre")

    for mu in mus:
        rho = rho_at(prm, geom, mu, p)
        with p.work():
            assert abs(pi * rho / oracle(mu) - 1) < tol, mu
            if not alp <= mu <= bep:
                assert abs(pi * rho / legendre(mu) - 1) < tol, mu
    with p.work():
        assert abs(pi * rho_at(prm, geom, inner, p) / direct(al, inner) - 1) < tol
        assert abs(pi * rho_at(prm, geom, outer, p) / direct(be, outer) - 1) < tol


_AF_POINTS = [("1", "0.3"), ("0.5", "-0.9"), ("2", "0.9"), ("0.3", "0.5")]


@pytest.mark.parametrize("gamma,zeta,bits",
                         [g_z + (96,) for g_z in _AF_POINTS] + [("1", "0.3", 256)])
def test_af_omega_closed_form_against_ray(gamma, zeta, bits):
    # resolvent() is one complex Carlson R_F; the oracle integrates along a
    # ray.  z: left of alpha on the axis, just above each band and the gap,
    # right of beta on the axis, and in the left half-plane.  At 256 bits
    # only the first and last, the ray costing about 0.3 s per z there
    p = Precision(bits)
    prm, geom, roots = _af_point(gamma, zeta, p)
    al, alp, bep, be = roots
    tol = mpf(2) ** (8 - bits)
    with p.work():
        h = mpf("1e-3")
        zs = [mpc(al - 1), mpc((al + alp) / 2, h), mpc((alp + bep) / 2, h),
              mpc((bep + be) / 2, h), mpc(be + 1), mpc(-be, be)]
    for z in (zs if bits == 96 else zs[::5]):
        omega = resolvent(prm, geom, z, p)
        with p.work():
            assert abs(omega / _ray_omega(roots, z) - 1) < tol, z

    # on a band the same form is omega(mu + i0), whose Im is -+pi rho
    with p.work():
        eps = mpf(2) ** (-bits // 2)
        mus = [(al + alp) / 2, (bep + be) / 2, al + eps, alp - eps,
               bep + eps, be - eps]
    for mu in mus:
        rho = rho_at(prm, geom, mu, p)
        with p.work():
            assert abs(abs(im(_af_omega(prm, geom, mpc(mu)))) / (pi * rho)
                       - 1) < tol, mu


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("gamma,zeta", _AF_POINTS + [("4", "-0.3")])
def test_af_normalization_closed_form_against_quadrature(gamma, zeta, bits):
    # the af normalization is Legendre's complete K and Pi; the oracle is the
    # Fubini sum of the x-weighted cut integrals by quadrature
    p = Precision(bits)
    prm, geom, roots = _af_point(gamma, zeta, p)
    al, alp, bep, be = roots
    tol = mpf(2) ** (8 - bits)
    norm = density_normalization(prm, geom, p)
    with p.work():
        g = 2 / sqrt((be - alp) * (bep - al))
        m = (be - bep) * (alp - al) / ((be - alp) * (bep - al))
        K = ellipk(m)
        outer = _cut_integral(roots, bep, be, p, lambda x: x - bep)
        lower = _cut_integral(roots, al, alp, p, lambda x: x - al)
        pi2 = ellippi(-(be - bep) / (bep - al), m)
        pi1 = ellippi(-(alp - al) / (be - alp), m)
        assert abs(g * ((be - al) * pi2 - (bep - al) * K) / outer - 1) < tol
        assert abs(g * (be - al) * (K - pi1) / lower - 1) < tol
        fubini = (outer + (alp - al) * _cut_integral(roots, bep, be, p)
                  - lower) / pi + (bep - alp) / (2 * mpf(prm.gamma))
        assert abs(norm - fubini) < tol
        assert abs(norm - 1) < tol


def test_resolvent_layer_runs_no_quadrature(monkeypatch):
    # resolvent, density, saddle residual and normalization are closed forms
    # in every phase: no quadrature rule runs, however mpmath.quad was
    # imported, so the slow routes cannot come back unnoticed
    calls = []
    summation = QuadratureRule.summation

    def counting(self, *args, **kwargs):
        calls.append(args)
        return summation(self, *args, **kwargs)
    monkeypatch.setattr(QuadratureRule, "summation", counting)
    for phase, t, g in (("fe", "1.5", "0.4"), ("d", "0.3", "1.0"),
                        ("af", "0.3", "1.0")):
        prm = _params(phase, t, g, P96)
        geom = endpoints(prm, P96)
        (lo, hi), sat = geom.support, geom.saturated
        with P96.work():
            zs = (lo - 1, mpc(2, 1), mpc(-hi, hi))
            mus = [lo + (hi - lo) * i / 7 for i in range(1, 7)]
        for z in zs:
            resolvent(prm, geom, z, P96)
        for mu in mus:
            rho_at(prm, geom, mu, P96)
            if not any(a <= mu <= b for a, b in sat):
                saddle_residual(prm, geom, mu, P96)
        density_normalization(prm, geom, P96)
        assert calls == [], phase


# ---------------------------------------------------------------------------
# subleading fits
# ---------------------------------------------------------------------------


class TestFits:
    def _taus(self, prm, p, lo, hi):
        return tau_sequence(prm, hi, p)[lo - 1:]

    def test_af_ratios_keep_every_bit(self):
        # r_N comes from tau_N/c_N, not from its rounded log, whose absolute
        # error grows like N^2 |f|
        ratios = {}
        for bits in (256, 1024):
            p = Precision(bits)
            prm = phase_params("af", "0", "1", p)
            ratios[bits], _ = subleading_AF_fit(self._taus(prm, p, 2, 60),
                                                prm, p)
        with mp.workprec(1024):
            for r, ref in zip(ratios[256], ratios[1024]):
                assert abs(r - ref) <= mpf(2) ** (-256 + 8) * abs(ref)

    def test_af_spread_shrinks_and_control_does_not(self):
        p = Precision(320)
        prm = _params("af", "0", "1.0", p)
        taus = self._taus(prm, p, 2, 16)
        ratios, spread_hi = subleading_AF_fit(taus, prm, p)
        lower, spread_lo = subleading_AF_fit(taus[:8], prm, p)
        assert spread_hi < spread_lo
        # control: without the theta factor the sequence keeps oscillating
        _, spread_ctl = subleading_AF_fit(taus, prm, p, subtract_theta=False)
        assert spread_ctl > mpf("1.5") * spread_hi

    def test_d_kappa_stable_across_windows(self):
        p = Precision(320)
        with mp.workprec(360):
            prm = phase_params("d", mpf(0), pi / 3, p)
        _, k1, _, _ = smooth_fit_D(self._taus(prm, p, 6, 16), prm, p)
        _, k2, _, _ = smooth_fit_D(self._taus(prm, p, 10, 20), prm, p)
        assert abs(k1 - k2) < 0.01
        # report scale: the ice-point exponent is near -5/36 ~ -0.1389
        assert -0.25 < k1 < -0.05

    def test_insufficient_data(self):
        p = Precision(128)
        prm = _params("af", "0", "1.0", p)
        taus = self._taus(prm, p, 2, 4)
        with pytest.raises(Exception):
            subleading_AF_fit(taus, prm, p)


# ---------------------------------------------------------------------------
# the accuracy contract, swept
# ---------------------------------------------------------------------------

# Each value at 256 bits against the same call at 1024 bits, from the same
# decimal strings (and the same dyadic mu and z), to 2^(-bits+8) relative;
# density_normalization against its exact value 1.  Left out, because
# their value is a rounding error with no digits to compare:
# saddle_residual, chemb_residual and ode_check.
SWEEP = [("fe", "1.5", "0.4"), ("fe", "0.400001", "0.4"),
         ("fe", "2.4", "-0.4"), ("fe", "3", "1.2"),
         ("d", "0.3", "1.0"), ("d", "0.95", "1.0"), ("d", "-0.95", "1.0"),
         ("d", "-0.2", "0.5"),
         ("af", "0.3", "1.0"), ("af", "0.95", "1.0"), ("af", "-0.95", "1.0"),
         ("af", "0.04", "0.1"), ("af", "1.5", "5"), ("af", "9", "30")]
SWEEP_BITS, SWEEP_REF = Precision(256), Precision(1024)


@functools.lru_cache(maxsize=None)
def _sweep_point(phase, t, g, p):
    prm = phase_params(phase, t, g, p)
    return prm, endpoints(prm, p)


def _flat(x):
    """The numbers in a record, tuple or list, nested, Nones dropped."""
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _flat(y)
    elif x is not None:
        yield x


def _assert_contract(got, ref, what, bits=SWEEP_BITS.bits):
    got, ref = list(_flat(got)), list(_flat(ref))
    assert len(got) == len(ref), what
    with mp.workprec(4 * bits):
        for x, r in zip(got, ref):
            if r == 0 or r == mp.inf:
                assert x == r, what
            else:
                assert abs(x - r) <= mpf(2) ** (-bits + 8) * abs(r), \
                    (what, mp.nstr(abs(x / r - 1), 5))


# af at gamma = 200 (q = exp(-pi^2/400)): the theta series cancels by
# 139 bits there, which lost 73 of 256 bits of f before the series counted it
@pytest.mark.parametrize("phase,t,g", SWEEP + [("af", "60", "200")])
def test_contract_sweep(phase, t, g):
    _, ref_geom = _sweep_point(phase, t, g, SWEEP_REF)
    with mp.workprec(SWEEP_REF.bits):
        lo, hi = ref_geom.support
        w = hi - lo
        mu = rounded(lo + w / 3, SWEEP_BITS)
        z = mpc(mu, rounded(w / 5, SWEEP_BITS))
    vals = {}
    for p in (SWEEP_BITS, SWEEP_REF):
        prm, geom = _sweep_point(phase, t, g, p)
        vals[p] = {"bulk_f": bulk_f(prm, p), "endpoints": geom,
                   "dfdzeta": dfdzeta(prm, p),
                   "rho_at": rho_at(prm, geom, mu, p),
                   "resolvent": resolvent(prm, geom, z, p)}
    for name in vals[SWEEP_REF]:
        _assert_contract(vals[SWEEP_BITS][name], vals[SWEEP_REF][name], name)
    prm, geom = _sweep_point(phase, t, g, SWEEP_BITS)
    _assert_contract(density_normalization(prm, geom, SWEEP_BITS), mpf(1),
                     "density_normalization")


@pytest.mark.parametrize("phase,t,g", SWEEP)
def test_exact_layer_contract_sweep(phase, t, g):
    # tau_N/c_N with its log for N <= 40, Z_12 and the weights
    vals = {}
    for p in (SWEEP_BITS, SWEEP_REF):
        prm, _ = _sweep_point(phase, t, g, p)
        vals[p] = {"tau_sequence": tau_sequence(prm, 40, p),
                   "partition_Z": partition_Z(prm, 12, p),
                   "weights_from": weights_from(prm, p)}
    for name in vals[SWEEP_REF]:
        _assert_contract(vals[SWEEP_BITS][name], vals[SWEEP_REF][name], name)


# Points 1e-16 inside an edge, where f and its t-derivatives are singular
# (t = |gamma| in fe, |t| = gamma in d and af), and d next to gamma = pi/2,
# where c = sin 2 gamma cancels.  No point sits closer: phase_params keeps
# the inputs to bits+64, about 2^(-bits+36) relative to an edge distance of
# 1e-30, so such a point's own rounding would miss the contract.
EDGE_SWEEP = [("fe", "0.4000000000000001", "0.4"),
              ("fe", "0.4000000000000001", "-0.4"),
              ("d", "0.9999999999999999", "1"),
              ("d", "-0.9999999999999999", "1"),
              ("af", "0.9999999999999999", "1"),
              ("af", "-0.9999999999999999", "1"),
              ("d", "0.3", "1.5707963267948965")]


@pytest.mark.parametrize("phase,t,g", EDGE_SWEEP)
def test_edge_contract_sweep(phase, t, g):
    # the phase record's (f, f', f''), the thermodynamic layer and the exact
    # layer, each at 256 bits against 1024
    vals = {}
    for p in (SWEEP_BITS, SWEEP_REF):
        prm, geom = _sweep_point(phase, t, g, p)
        with p.work():
            record = exactcore.PHASE_TABLE[phase].f(prm, p)
        vals[p] = {"record": [rounded(x, p) for x in record],
                   "bulk_f": bulk_f(prm, p), "endpoints": geom,
                   "dfdzeta": dfdzeta(prm, p),
                   "tau_sequence": tau_sequence(prm, 40, p),
                   "partition_Z": partition_Z(prm, 12, p),
                   "weights_from": weights_from(prm, p)}
    for name in vals[SWEEP_REF]:
        _assert_contract(vals[SWEEP_BITS][name], vals[SWEEP_REF][name], name)


# The fe and d sweep points, and endpoints off the saddle, where the closed
# forms sqrt(alpha beta) and sqrt(-alpha beta)/pi are not 1: any
# 0 < beta < alpha (fe) and alpha < 0 < beta (d).  af's oracle is
# test_af_normalization_closed_form_against_quadrature.
_NORM_CASES = ([pt + (None,) for pt in SWEEP if pt[0] != "af"]
               + [("fe", "1.5", "0.4", ("3", "0.2")),
                  ("fe", "1.5", "0.4", ("1.25", "0.75")),
                  ("d", "0.3", "1.0", ("-2", "1.25")),
                  ("d", "0.3", "1.0", ("-0.5", "7"))])


@pytest.mark.parametrize("bits", [96, 256])
@pytest.mark.parametrize("phase,t,g,ends", _NORM_CASES, ids=lambda v: (
    "-".join(v) if isinstance(v, tuple) else None))
def test_normalization_closed_form_against_quadrature(phase, t, g, ends,
                                                      bits):
    # tanh-sinh quadrature of rho_at, split at the saturation end (fe) and
    # at the log singularity mu = 0 (d)
    p, pq = Precision(bits), Precision(bits + 32)
    prm, geom = _sweep_point(phase, t, g, p)
    if ends is not None:
        al, be = (mpf(x) for x in ends)
        geom = (SaddleGeometry(al, be, (mpf(0), al), ((mpf(0), be),), mpf(1))
                if phase == "fe" else
                SaddleGeometry(al, be, (al, be), (), mp.inf))
    norm = density_normalization(prm, geom, p)
    with pq.work():
        (lo, hi), sat = geom.support, geom.saturated
        split = sat[0][1] if sat else mpf(0)
        val, err = quad(lambda mu: rho_at(prm, geom, mu, pq), [lo, split, hi],
                        error=True)
        assert err < mpf(2) ** (-bits - 8) * val
        assert abs(norm - val) <= mpf(2) ** (8 - bits) * val
        if ends is None:
            assert abs(norm - 1) <= mpf(2) ** (8 - bits)


@pytest.mark.parametrize("phase,t,g", SWEEP)
def test_rho_at_keeps_every_bit_near_the_support_ends(phase, t, g):
    # rho goes like sqrt(end - mu), so it amplifies the rounding of the end
    # by about end / (2 (end - mu)): the geometry's bits+32 keep every bit
    # to 1e-10 of the support's width from an end, and 2^(-bits+8) at 1e-12
    _, ref_geom = _sweep_point(phase, t, g, SWEEP_REF)
    with mp.workprec(SWEEP_REF.bits):
        lo, hi = ref_geom.support
        w = hi - lo
        mus = [rounded(end + sign * mpf(delta) * w, SWEEP_BITS)
               for end, sign in ((lo, 1), (hi, -1))
               for delta in ("1e-4", "1e-8", "1e-12")]
    rhos = {p: [rho_at(*_sweep_point(phase, t, g, p), mu, p) for mu in mus]
            for p in (SWEEP_BITS, SWEEP_REF)}
    _assert_contract(rhos[SWEEP_BITS], rhos[SWEEP_REF], "rho_at")
