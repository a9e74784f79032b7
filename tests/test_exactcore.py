"""Exact finite-N machinery: weights, derivatives of phi, scaled Hankel
determinants, discrete-sum and Laplace cross-checks, bilinear residuals.
The discrete-sum route to tau_N (:func:`tau_discrete_sum`) is a test oracle
and lives here."""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp, mpf, sqrt, sinh, cosh, sin, cos, cot, coth, pi, exp, log

from sixvertex import (CutoffTooSmallError, PhaseDomainError, PhaseParams,
                       PrecisionExhaustedError, Precision, c_factor,
                       laplace_moment_check, partition_Z, phase_params,
                       phi_derivatives, tau_scaled, tau_sequence,
                       toda_residual, toda_residuals, weights_from,
                       Z_bruteforce)
from sixvertex import exactcore
from sixvertex.exactcore import PHASE_AF, PHASE_FE
from sixvertex.precision import rounded

P = Precision(256)


def _params(phase, t, gamma, p=P):
    with mp.workprec(p.bits + 32):
        return phase_params(phase, mpf(t), mpf(gamma), p)


class TestWeights:
    def test_af_symmetric_point(self):
        w = weights_from(_params("af", "0", "1"), P)
        with mp.workprec(300):
            assert abs(w.a - sinh(mpf(1))) < mpf(2) ** (-250)
            assert abs(w.b - sinh(mpf(1))) < mpf(2) ** (-250)
            assert abs(w.c - sinh(mpf(2))) < mpf(2) ** (-250)

    def test_d_ice_point(self):
        with mp.workprec(300):
            w = weights_from(phase_params("d", mpf(0), pi / 3, P), P)
            for x in (w.a, w.b, w.c):
                assert abs(x - sqrt(mpf(3)) / 2) < mpf(2) ** (-250)

    def test_fe_substitution(self):
        w = weights_from(_params("fe", "2", "0.5"), P)
        with mp.workprec(300):
            assert abs(w.a - sinh(mpf("1.5"))) < mpf(2) ** (-250)
            assert abs(w.b - sinh(mpf("2.5"))) < mpf(2) ** (-250)
            assert abs(w.c - sinh(mpf(1))) < mpf(2) ** (-250)

    @pytest.mark.parametrize("phase,t,gamma,frag", [
        ("fe", "1", "2", "|gamma| < t"),
        ("d", "0.5", "0.4", "|t| < gamma"),
        ("d", "0.1", "1.7", "0 < gamma < pi/2"),
        ("af", "1.2", "1.0", "|t| < gamma"),
        ("af", "0.1", "-1.0", "gamma > 0"),
    ])
    def test_phase_domain_errors_name_inequality(self, phase, t, gamma, frag):
        with pytest.raises(PhaseDomainError, match=None) as err:
            _params(phase, t, gamma)
        assert frag in str(err.value)


class TestPhiDerivatives:
    def test_af_value_at_origin(self):
        prm = _params("af", "0", "1.3")
        table = phi_derivatives(prm, 0, P)
        with mp.workprec(300):
            assert abs(table[0] - 2 * cosh(mpf("1.3")) / sinh(mpf("1.3"))) \
                < mpf(2) ** (-250)

    def test_d_value_at_origin(self):
        prm = _params("d", "0", "0.9")
        table = phi_derivatives(prm, 0, P)
        with mp.workprec(300):
            assert abs(table[0] - 2 * cos(mpf("0.9")) / sin(mpf("0.9"))) \
                < mpf(2) ** (-250)

    def test_closed_form_ratio(self):
        # phi = c/(a*b) in every phase
        for phase, t, g in (("fe", "1.5", "0.4"), ("d", "0.3", "1.0"),
                            ("af", "0.3", "1.0")):
            prm = _params(phase, t, g)
            w = weights_from(prm, P)
            table = phi_derivatives(prm, 0, P)
            with mp.workprec(300):
                assert abs(table[0] - w.c / (w.a * w.b)) < mpf(2) ** (-245)

    @pytest.mark.parametrize("phase,t,g", [
        ("fe", "1.5", "0.4"), ("d", "0.3", "1.0"), ("af", "0.3", "1.0")])
    def test_first_derivative_against_stencil(self, phase, t, g):
        # oracle: central difference of phi itself at elevated precision
        hp = Precision(520)
        prm = _params(phase, t, g, hp)
        table = phi_derivatives(prm, 1, hp)
        with mp.workprec(620):
            h = mpf(2) ** (-60)
            plus = phi_derivatives(_params(phase, mpf(t) + h, g, hp), 0, hp)
            minus = phi_derivatives(_params(phase, mpf(t) - h, g, hp), 0, hp)
            fd = (plus[0] - minus[0]) / (2 * h)
            assert abs(fd - table[1]) < mpf(2) ** (-110)

    @pytest.mark.parametrize("phase,t,g", [
        ("fe", "1.5", "0.4"), ("af", "0.3", "1"), ("af", "0", "1"),
        ("d", "0.3", "1"), ("d", "0", "1")])
    def test_table_against_closed_form_and_1024_bits(self, phase, t, g):
        # orders 0..24 against mpmath's numerical derivatives of the closed
        # form, which share nothing with the recurrence; orders up to 190
        # (tau to N=96) against the recurrence at 1024 bits.  At t = 0 phi is
        # even, so its odd orders vanish.
        prm = phase_params(phase, t, g, P)
        table = phi_derivatives(prm, 190, P)
        ref = phi_derivatives(phase_params(phase, t, g, Precision(1024)), 190,
                              Precision(1024))
        tol = mpf(2) ** (-P.bits + 8)
        with mp.workprec(P.bits + 64):
            T, G = mpf(t), mpf(g)
            phi = {"fe": lambda s: coth(s - G) - coth(s + G),
                   "af": lambda s: coth(G + s) + coth(G - s),
                   "d": lambda s: cot(G + s) + cot(G - s)}[phase]
            for n, r in enumerate(mp.diffs(phi, T, 24)):
                v = table[n]
                if T == 0 and n % 2:
                    assert v == 0, n
                else:
                    assert abs(v - r) <= tol * abs(r), n
        with mp.workprec(1024):
            for n, (v, r) in enumerate(zip(table, ref)):
                assert abs(v - r) <= tol * abs(r), n


class TestTau:
    def test_n1_is_phi(self):
        prm = _params("af", "0.3", "1.0")
        tv = tau_scaled(prm, 1, P)
        table = phi_derivatives(prm, 0, P)
        with mp.workprec(300):
            assert abs(tv.scaled_tau - table[0]) < mpf(2) ** (-245)

    def test_n2_closed_form(self):
        prm = _params("d", "0.2", "1.1")
        tv = tau_scaled(prm, 2, P)
        table = phi_derivatives(prm, 2, P)
        with mp.workprec(300):
            expected = table[0] * table[2] - table[1] ** 2
            assert abs((tv.scaled_tau - expected) / expected) < mpf(2) ** (-245)

    def test_c_factor(self):
        assert [c_factor(n) for n in range(1, 6)] == [1, 1, 4, 144, 82944]

    def test_partition_n1_is_c(self):
        for phase, t, g in (("fe", "2", "0.5"), ("d", "0.3", "1.0"),
                            ("af", "0.3", "1.0")):
            prm = _params(phase, t, g)
            w = weights_from(prm, P)
            with mp.workprec(300):
                assert abs((partition_Z(prm, 1, P) - w.c) / w.c) < mpf(2) ** (-245)

    def test_partition_n2_closed_form(self):
        prm = _params("af", "0.4", "1.2")
        w = weights_from(prm, P)
        with mp.workprec(300):
            expected = w.c ** 2 * (w.a ** 2 + w.b ** 2)
            got = partition_Z(prm, 2, P)
            assert abs((got - expected) / expected) < mpf(2) ** (-245)

    @pytest.mark.parametrize("n,asm", [(4, 42), (5, 429)])
    def test_ice_point_counts(self, n, asm):
        with mp.workprec(300):
            prm = phase_params("d", mpf(0), pi / 3, P)
            z = partition_Z(prm, n, P)
            expected = (sqrt(mpf(3)) / 2) ** (n * n) * asm
            assert abs((z - expected) / expected) < mpf("1e-20")

    def test_symmetry_in_t(self):
        # a <-> b exchange leaves Z invariant in d and af
        for phase in ("d", "af"):
            plus = _params(phase, "0.37", "1.1")
            minus = _params(phase, "-0.37", "1.1")
            for n in (3, 6):
                zp = partition_Z(plus, n, P)
                zm = partition_Z(minus, n, P)
                with mp.workprec(300):
                    assert abs((zp - zm) / zp) < mpf("1e-20")

    def test_positivity_and_log(self):
        for phase, t, g in (("fe", "1.5", "0.4"), ("d", "0.3", "1.0"),
                            ("af", "0.3", "1.0")):
            prm = _params(phase, t, g)
            for n in (1, 4, 7):
                tv = tau_scaled(prm, n, P)
                assert tv.scaled_tau > 0
                with mp.workprec(300):
                    assert abs(tv.log_scaled - log(tv.scaled_tau)) < mpf(2) ** (-240)

    def test_disagreeing_reruns_raise(self, monkeypatch):
        # a pivot error that does not shrink with the working precision
        # keeps the two runs apart in every round
        precs = []
        norms = exactcore._orthogonal_norms

        def noisy(moments, N):
            precs.append(mp.prec)
            out = norms(moments, N)
            return out[:-1] + [out[-1] * (1 + mp.prec * mpf(2) ** -100)]

        monkeypatch.setattr(exactcore, "_orthogonal_norms", noisy)
        with pytest.raises(PrecisionExhaustedError, match="after 3 rounds"):
            tau_sequence(_params("af", "0.3", "1.0"), 4, P)
        assert len(precs) == 6
        assert precs[0] < precs[2] < precs[4]

    @pytest.mark.parametrize("factor", [2, mpf(2) ** 1000], ids=["gap1", "gap2e1000"])
    def test_gap_near_one_doubles_added_bits(self, factor, monkeypatch):
        # a first run with no correct bit: w + log2(gap) would measure w and
        # the gap, not the loss, so the next round doubles w - bits instead
        precs = []
        norms = exactcore._orthogonal_norms

        def broken_first_run(moments, N):
            precs.append(mp.prec)
            out = norms(moments, N)
            return [factor * h for h in out] if len(precs) == 1 else out

        monkeypatch.setattr(exactcore, "_orthogonal_norms", broken_first_run)
        seq = tau_sequence(_params("af", "0.3", "1.0"), 4, P)
        assert len(precs) == 4
        assert precs[2] - P.bits == 2 * (precs[0] - P.bits)
        monkeypatch.undo()
        assert seq == tau_sequence(_params("af", "0.3", "1.0"), 4, P)

    @pytest.mark.parametrize("phase,t,g,n_max", [
        ("af", "0.3", "1", 96), ("d", "0.3", "1", 32), ("fe", "1.5", "0.4", 24)])
    def test_one_round_after_the_prefix(self, phase, t, g, n_max, monkeypatch):
        # the 16-order first round predicts a w at which N_max certifies
        sizes = []
        norms = exactcore._orthogonal_norms

        def counted(moments, N):
            sizes.append(N)
            return norms(moments, N)

        monkeypatch.setattr(exactcore, "_orthogonal_norms", counted)
        tau_sequence(_params(phase, t, g), n_max, P)
        assert sizes == [16, 16, n_max, n_max]

    @pytest.mark.parametrize("phase,t,g", [
        ("fe", "1.5", "0.4"), ("af", "0.3", "1"), ("d", "0.3", "1")])
    def test_eight_order_prefix_up_to_16(self, phase, t, g, monkeypatch):
        # fe loses 62 bits by N=16, more than bits + 64 leaves: an 8-order
        # first round predicts it, so one pair of 16-order passes certifies
        sizes = []
        norms = exactcore._orthogonal_norms

        def counted(moments, N):
            sizes.append(N)
            return norms(moments, N)

        monkeypatch.setattr(exactcore, "_orthogonal_norms", counted)
        tau_sequence(_params(phase, t, g), 16, P)
        assert sizes == [8, 8, 16, 16]

    def test_rows_certified_against_the_decimal_input(self):
        # log tau_N moves with t in proportion to N^2: rounding t to 256 bits
        # put the N=96 row 2^-245.5 off the decimal input
        seq = tau_sequence(phase_params("af", "0.3", "1", P), 96, P)
        p_ref = Precision(1024)
        ref = tau_sequence(phase_params("af", "0.3", "1", p_ref), 96, p_ref)
        with mp.workprec(1024):
            for tv, tr in zip(seq, ref):
                rel = (tv.scaled_tau - tr.scaled_tau) / tr.scaled_tau
                assert abs(rel) < mpf(2) ** (-248), tv.n

    @pytest.mark.parametrize("phase,t,g,n_max", [
        ("fe", "1.5", "0.4", 24), ("af", "0.3", "1", 96)])
    def test_sequence_certified_against_1024_bits(self, phase, t, g, n_max):
        # fe beyond N=16 and af at N=96 lose 96 and 177 bits to the moments;
        # both runs take the same 256-bit t and gamma
        prm = _params(phase, t, g)
        seq = tau_sequence(prm, n_max, P)
        ref = tau_sequence(prm, n_max, Precision(1024))
        with mp.workprec(1024):
            for tv, tr in zip(seq, ref):
                rel = (tv.scaled_tau - tr.scaled_tau) / tr.scaled_tau
                assert abs(rel) < mpf(2) ** (-248)

    def test_fe_negative_gamma_flips_odd_orders(self):
        # phi(-gamma) = -phi(gamma): tau_N changes by (-1)^N, |tau_N| not
        plus = tau_sequence(_params("fe", "1.5", "0.4"), 7, P)
        minus = tau_sequence(_params("fe", "1.5", "-0.4"), 7, P)
        with mp.workprec(256):
            for tp, tm in zip(plus, minus):
                assert tm.scaled_tau == (-1) ** tp.n * tp.scaled_tau
                assert tm.log_scaled == tp.log_scaled

    @pytest.mark.parametrize("t", ["0.7", "1.5", "2.4"])
    def test_fe_negative_gamma_mirrors_every_layer(self, t):
        # fe allows gamma < 0, and sigma = sign(gamma - t) = -1 on both
        # sides: phi and c change sign, a and b swap, tau_N/c_N gains (-1)^N
        plus = _params("fe", t, "0.4")
        with mp.workprec(P.bits + 64):   # negation rounds to the context
            minus = phase_params("fe", plus.t, -plus.gamma, P)
            assert minus.gamma == -plus.gamma
        table_p, table_m = (phi_derivatives(prm, 78, P)
                            for prm in (plus, minus))
        wp, wm = weights_from(plus, P), weights_from(minus, P)
        seq_p, seq_m = tau_sequence(plus, 40, P), tau_sequence(minus, 40, P)
        with mp.workprec(P.bits):
            assert table_m == tuple(-v for v in table_p)
            assert (wm.a, wm.b, wm.c) == (wp.b, wp.a, -wp.c) and wm.c < 0
            assert [tv.scaled_tau for tv in seq_m] \
                == [(-1) ** tv.n * tv.scaled_tau for tv in seq_p]
        for tv, z in zip(seq_m, exactcore.z_from_tau(minus, seq_m[:6], P)):
            zbf = Z_bruteforce(tv.n, wm.a, wm.b, wm.c, P)
            with mp.workprec(P.bits + 32):
                assert abs((z - zbf) / zbf) < mpf(2) ** (-P.bits // 2)

    @pytest.mark.parametrize("phase,t,g", [
        ("fe", "1.5", "0.4"), ("d", "0.3", "1"), ("af", "0.3", "1")])
    def test_sequence_matches_mpmath_det(self, phase, t, g):
        # every leading minor against mp.det of the same block, built from
        # a 512-bit phi table
        p = Precision(256)
        prm = _params(phase, t, g, p)
        seq = tau_sequence(prm, 16, p)
        table = phi_derivatives(prm, 30, Precision(512))
        with mp.workprec(512):
            for n, tv in enumerate(seq, 1):
                ref = mp.det(mp.matrix(
                    [[table[i + k] / (mp.factorial(i) * mp.factorial(k))
                      for k in range(n)] for i in range(n)]))
                assert tv.n == n
                assert abs((tv.scaled_tau - ref) / ref) < mpf(2) ** (-240)

    def test_precision_doubling_stability(self):
        prm = _params("af", "0.3", "1.0")
        lo = tau_scaled(prm, 8, Precision(128)).log_scaled
        hi = tau_scaled(_params("af", "0.3", "1.0", Precision(256)), 8,
                        Precision(256)).log_scaled
        with mp.workprec(300):
            assert abs(lo - hi) < mpf(2) ** (-64)


def _chebyshev_exact(moments, N: int) -> list:
    """Norms h_0..h_{N-1} of the integer moments[0..2N-2], as Fractions, by
    the Chebyshev algorithm of :func:`exactcore._orthogonal_norms` in exact
    rational arithmetic (0.2 s at N = 100)."""
    L = len(moments)
    prev, cur = [0] * L, [Fraction(m) for m in moments]
    norms, shift, last = [], 0, 1
    for k in range(N):
        h = cur[k]
        norms.append(h)
        if k + 1 == N:
            return norms
        ratio = cur[k + 1] / h
        alpha, beta = ratio - shift, h / last
        nxt = [0] * L
        for l in range(k + 1, L - k - 1):
            nxt[l] = cur[l + 1] - alpha * cur[l] - beta * prev[l]
        prev, cur, shift, last = cur, nxt, ratio, h


class TestOrthogonalNorms:
    # the Chebyshev pass against exact monic norms, N = 100; each bound is
    # the loss of the floating-point pass it replaced (laguerre, hermite) or
    # of the integer pass itself (laplace) plus 8 bits
    N = 100

    @classmethod
    def laguerre(cls):
        # weight exp(-x) on [0, oo): mu_n = n!, h_k = (k!)^2
        return ([mp.factorial(n) for n in range(2 * cls.N - 1)],
                [mp.factorial(k) ** 2 for k in range(cls.N)])

    @classmethod
    def hermite(cls):
        # weight exp(-x^2) on R: mu_2j = Gamma(j + 1/2), odd moments 0,
        # h_k = k! sqrt(pi) / 2^k
        return ([mp.gamma(mpf(n + 1) / 2) if n % 2 == 0 else mpf(0)
                 for n in range(2 * cls.N - 1)],
                [mp.factorial(k) * sqrt(pi) / mpf(2) ** k for k in range(cls.N)])

    @classmethod
    def laplace(cls):
        # weight exp(-|x|) on R, the DWBC measure at Delta = -1, u = 0:
        # mu_n = phi^(n) = 2 n! for even n, 0 for odd n; h_k exact rationals
        mu = [2 * factorial(n) if n % 2 == 0 else 0
              for n in range(2 * cls.N - 1)]
        return ([mpf(m) for m in mu],
                [mpf(h.numerator) / h.denominator
                 for h in _chebyshev_exact(mu, cls.N)])

    def moments(self, family, W):
        """The family's moments rounded to W bits and its exact norms."""
        with mp.workprec(3 * W):
            moments, exact = getattr(self, family)()
        with mp.workprec(W):
            return [+m for m in moments], exact

    @pytest.mark.parametrize("family,W,bound", [
        ("laguerre", 1024, 207 + 8), ("hermite", 512, 148 + 8),
        ("laplace", 512, 114 + 8)])
    def test_closed_form_norms(self, family, W, bound):
        moments, exact = self.moments(family, W)
        with mp.workprec(W):
            norms = exactcore._orthogonal_norms(moments, self.N)
        assert len(norms) == self.N
        with mp.workprec(3 * W):
            worst = max(abs((h - e) / e) for h, e in zip(norms, exact))
            assert W + log(worst, 2) <= bound

    @pytest.mark.parametrize("family,W", [
        ("laguerre", 1024), ("hermite", 512), ("laplace", 512)])
    def test_negated_moments_flip_every_norm(self, family, W):
        moments, _ = self.moments(family, W)
        with mp.workprec(W):
            plus = exactcore._orthogonal_norms(moments, self.N)
            minus = exactcore._orthogonal_norms([-m for m in moments], self.N)
            assert all(m == -h for h, m in zip(plus, minus))


# ---------------------------------------------------------------------------
# Discrete-sum cross-check (fe / af phases carry a discrete measure)
# ---------------------------------------------------------------------------


def _stieltjes(nodes, weights, N: int, probes=()):
    """Norms h_0..h_{N-1} of the monic orthogonal polynomials pi_k of
    sum_l weights[l] delta(x - nodes[l]), and the Christoffel-Darboux kernel
    K(x) = sum_k pi_k(x)^2 / |h_k| at every probe, by the discretized
    Stieltjes procedure (Gautschi 2004, section 2.2) on the values of pi_k
    at the nodes; no moment is formed.  Probes are weightless nodes."""
    xs, n = nodes + list(probes), len(nodes)
    prev, cur = [0] * len(xs), [mpf(1)] * len(xs)
    norms, kernel = [], [0] * len(probes)
    for k in range(N):
        mass = [w * v * v for w, v in zip(weights, cur)]
        norms.append(mp.fsum(mass))
        kernel = [s + v * v / abs(norms[k]) for s, v in zip(kernel, cur[n:])]
        if k + 1 == N:
            return norms, kernel
        alpha = mp.fdot(mass, nodes) / norms[k]
        beta = norms[k] / norms[k - 1] if k else 0
        prev, cur = cur, [(x - alpha) * v - beta * u
                          for x, v, u in zip(xs, cur, prev)]


def tau_discrete_sum(params: PhaseParams, N: int, cutoff: int,
                     p: Precision = Precision()):
    """Unscaled tau_N = h_0 ... h_{N-1} from one O(cutoff * N) Stieltjes
    pass (:func:`_stieltjes`) on the modes |l| <= cutoff of the measure with
    moments phi^(n)(t): fe: x_l = -2l, w_l = 4 exp(-2tl) sinh(2 gamma l),
    l >= 1; af: x_l = 2l, w_l = 2 exp(2tl - 2 gamma |l|).  No phi table.

    The modes beyond the cutoff multiply tau_N by det(I + A) <= exp(T),
    T = sum_{|l|>cutoff} |w_l| K(x_l), with K from the same pass at the near
    tail modes.  The zeros of pi_k lie inside the node range, so at distance
    d from it a step of 2 multiplies |w_l| K(x_l) by at most
    r = q ((d+2)/d)^(2N-2), q the ratio of successive |w_l| (constant in af,
    falling in fe); once r <= sqrt(q) < 1, a geometric series bounds the
    rest.  Raises CutoffTooSmallError when exp(T) - 1, and
    PrecisionExhaustedError when the gap to a rerun at 32 more bits,
    exceeds 2^(-bits/2) relative; CutoffTooSmallError also below N modes.
    """
    if params.phase not in (PHASE_FE, PHASE_AF):
        raise PhaseDomainError("discrete sum exists in fe/af phases only")
    if N < 1:
        raise ValueError("N must be >= 1")
    t, g = params.t, params.gamma
    if params.phase == PHASE_FE:
        modes, node, sides = range(1, cutoff + 1), -2, (1,)
        weight = lambda l: 4 * exp(-2 * t * l) * sinh(2 * g * l)
    else:
        modes, node, sides = range(-cutoff, cutoff + 1), 2, (1, -1)
        weight = lambda l: 2 * exp(2 * t * l - 2 * g * abs(l))
    if len(modes) < N:
        raise CutoffTooSmallError(f"{len(modes)} modes cannot carry N={N}")
    with p.work(64):
        tail = []  # (l, 1) per near tail mode, (l, 1/(1 - r)) closing a side
        for side in sides:
            for m in itertools.count(cutoff + 1):
                q = abs(weight(side * (m + 1)) / weight(side * m))
                r = q * (1 + mpf(1) / (m - cutoff)) ** (2 * N - 2)
                if r <= mp.sqrt(q) < 1:
                    tail.append((side * m, 1 / (1 - r)))
                    break
                tail.append((side * m, 1))
        nodes, weights = [node * l for l in modes], [weight(l) for l in modes]
        rerun = mp.fprod(_stieltjes(nodes, weights, N)[0])
    with p.work():
        norms, kernel = _stieltjes(nodes, weights, N,
                                   [node * l for l, _ in tail])
        tau, tol = mp.fprod(norms), mpf(2) ** (-p.bits // 2)
        gap = abs(tau / rerun - 1)
        if gap > tol:
            raise PrecisionExhaustedError(
                f"rerun gap {mp.nstr(gap, 5)} > 2^(-bits/2); raise bits")
        T = mp.fsum(abs(weight(l)) * f * K
                    for (l, f), K in zip(tail, kernel))
        if mp.expm1(T) > tol:
            raise CutoffTooSmallError(
                f"tail bound {mp.nstr(T, 5)}; raise cutoff above {cutoff}")
    return rounded(tau, p)


class TestDiscreteSum:
    def test_fe_n1_telescopes_to_phi(self):
        p = Precision(128)
        prm = _params("fe", "1.5", "0.4", p)
        total = tau_discrete_sum(prm, 1, 40, p)
        table = phi_derivatives(prm, 0, p)
        with mp.workprec(160):
            assert abs((total - table[0]) / total) < mpf(2) ** (-60)

    def test_af_n1_telescopes_to_phi(self):
        p = Precision(128)
        prm = _params("af", "0.3", "1.0", p)
        total = tau_discrete_sum(prm, 1, 70, p)
        table = phi_derivatives(prm, 0, p)
        with mp.workprec(160):
            assert abs((total - table[0]) / total) < mpf(2) ** (-60)

    @pytest.mark.parametrize("n", [2, 3])
    def test_fe_matches_determinant(self, n):
        p = Precision(192)
        prm = _params("fe", "1.5", "0.4", p)
        total = tau_discrete_sum(prm, n, 68, p)
        det = tau_scaled(prm, n, p)
        with mp.workprec(224):
            ref = mpf(det.scaled_tau) * c_factor(n)
            assert abs((total - ref) / ref) < mpf(2) ** (-90)

    def test_af_n3_matches_determinant_tightly(self):
        # the sum's own tail certificate is 2^(-bits/2), so 160 bits already
        # guarantees far better than the 1e-20 comparison below
        psum = Precision(160)
        total = tau_discrete_sum(_params("af", "0.3", "1.0", psum), 3, 68, psum)
        det = tau_scaled(_params("af", "0.3", "1.0"), 3, P)
        with mp.workprec(300):
            ref = mpf(det.scaled_tau) * c_factor(3)
            assert abs((total - ref) / ref) < mpf("1e-20")

    def test_fe_n4_matches_determinant(self):
        p = Precision(128)
        prm = _params("fe", "1.5", "0.4", p)
        total = tau_discrete_sum(prm, 4, 32, p)
        det = tau_scaled(prm, 4, p)
        with mp.workprec(160):
            ref = mpf(det.scaled_tau) * c_factor(4)
            assert abs((total - ref) / ref) < mpf(2) ** (-60)

    def test_af_n4_matches_determinant(self):
        p = Precision(96)
        prm = _params("af", "0.3", "1.0", p)
        total = tau_discrete_sum(prm, 4, 38, p)
        det = tau_scaled(prm, 4, p)
        with mp.workprec(128):
            ref = mpf(det.scaled_tau) * c_factor(4)
            assert abs((total - ref) / ref) < mpf(2) ** (-44)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fe_negative_gamma_matches_determinant(self, n):
        # every mode weight is negative, so tau_N carries the sign (-1)^N
        p = Precision(128)
        prm = _params("fe", "1.5", "-0.4", p)
        total = tau_discrete_sum(prm, n, 40, p)
        det = tau_scaled(prm, n, p)
        with mp.workprec(160):
            ref = mpf(det.scaled_tau) * c_factor(n)
            assert (total > 0) == (n % 2 == 0)
            assert abs((total - ref) / ref) < mpf("2e-31")

    @pytest.mark.parametrize("phase,t,g,cutoff", [
        ("af", "0.3", "1.0", 240),
        ("fe", "1.5", "0.4", 200),
    ])
    def test_n64_matches_tau_sequence(self, phase, t, g, cutoff):
        p = Precision(128)
        prm = _params(phase, t, g, p)
        total = tau_discrete_sum(prm, 64, cutoff, p)
        seq = tau_sequence(prm, 64, p)
        with mp.workprec(160):
            ref = mpf(seq[-1].scaled_tau) * c_factor(64)
            assert abs((total - ref) / ref) < mpf(2) ** (-p.bits // 2)

    def test_cutoff_too_small_raises(self):
        p = Precision(128)
        prm = _params("af", "0.3", "1.0", p)
        with pytest.raises(CutoffTooSmallError):
            tau_discrete_sum(prm, 2, 6, p)

    def test_fewer_modes_than_n_raises(self):
        with pytest.raises(CutoffTooSmallError):
            tau_discrete_sum(_params("fe", "1.5", "0.4"), 3, 2, P)

    def test_rounding_loss_raises(self):
        # at 64 bits the fe pass keeps no correct digit by N=64; only the
        # rerun at 32 more bits sees it
        p = Precision(64)
        with pytest.raises(PrecisionExhaustedError):
            tau_discrete_sum(_params("fe", "1.5", "0.4", p), 64, 64, p)

    def test_d_phase_rejected(self):
        with pytest.raises(PhaseDomainError):
            tau_discrete_sum(_params("d", "0.3", "1.0"), 2, 30, P)


class TestToda:
    TOL = mpf(2) ** (-112 + 16)

    @pytest.mark.parametrize("phase,t,g", [
        ("fe", "1.5", "0.4"), ("d", "0.3", "1.0"), ("af", "0.2", "1.0")])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_residual_small(self, phase, t, g, n):
        prm = _params(phase, t, g)
        assert toda_residual(prm, n, P) < self.TOL

    def test_af_example_point(self):
        prm = _params("af", "0.2", "1.0")
        assert toda_residual(prm, 4, P) < mpf(2) ** (-112)

    def test_fe_example_point(self):
        prm = _params("fe", "1.5", "0.4")
        assert toda_residual(prm, 6, P) < mpf(2) ** (-112)

    @pytest.mark.parametrize("phase,t,g", [
        ("fe", "0.4000001", "0.4"), ("af", "0.99999", "1"),
        ("d", "0.99999", "1")])
    def test_near_the_region_boundary(self, phase, t, g):
        # a step of 2^(-bits/5), blind to the distance 1e-7 or 1e-5 to the
        # boundary, failed from N = 2 in fe (1.4e-24 at N = 12) and from
        # N = 8 in af and d (1.4e-32 at N = 12)
        resid = toda_residuals(phase_params(phase, t, g, P), 12, P)
        assert max(resid) < mpf(2) ** (-P.bits // 2 + 16)

    def test_sequence_equals_per_n_calls(self):
        # leading minors do not depend on N_max, so neither do the residuals
        prm = _params("af", "0.2", "1.0")
        seq = toda_residuals(prm, 5, P)
        assert seq == [toda_residual(prm, n, P) for n in range(1, 6)]


class TestLaplaceMoments:
    def test_symmetric_point_values(self):
        # moment 0 = 2 cot(pi/3) = 2/sqrt(3); moment 1 vanishes by parity
        p = Precision(128)
        with mp.workprec(192):
            prm = phase_params("d", mpf(0), pi / 3, p)
            table = phi_derivatives(prm, 1, p)
            assert abs(table[0] - 2 / sqrt(mpf(3))) < mpf(2) ** (-120)
            assert abs(table[1]) < mpf(2) ** (-120)
        assert laplace_moment_check(prm, 1, p) < mpf("1e-20")

    def test_interior_point_moments(self):
        p = Precision(128)
        prm = _params("d", "0.3", "1.0", p)
        assert laplace_moment_check(prm, 6, p) < mpf("1e-10")

    def test_wrong_phase_rejected(self):
        with pytest.raises(PhaseDomainError):
            laplace_moment_check(_params("af", "0.3", "1.0"), 2, P)
