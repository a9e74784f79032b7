"""Exact finite-size machinery for the six-vertex model with domain wall
boundary conditions.

The N x N partition function is a Hankel determinant of derivatives of a
single generating function phi(t).  Everything here is exact at finite N:
Boltzmann weights, the derivatives of phi from the Taylor recurrence of its
Riccati equation, the scaled determinant tau_N / c_N with
c_N = (prod_{n<N} n!)^2, the partition function Z_N = (a*b)^(N^2) * tau_N / c_N,
the Laplace-moment cross-check in d, and the Toda residual in t, whose
5-point t-step scales with the phase point's distance to the region's edge,
which is also the distance to phi's nearest pole, so the points stay inside.
The discrete-sum route to tau_N in fe and af (a Stieltjes pass on the
modes) is a test oracle and lives in tests/test_exactcore.py.

The three phases are one parameterization.  Each is a :class:`Phase` record
in PHASE_TABLE (its region, the sign s of F'' = s F, and its bulk f with
f' and f'' in t from one evaluation at a phase point), and the weights and
phi follow from s by one formula with sigma = sign(gamma - t).

tau_N / c_N is a Hankel determinant of the moments phi^(n)(t) of a measure
of one sign (phi is its Laplace transform in all three phases), hence a
product of orthogonal-polynomial norms: one O(N^2) Chebyshev-algorithm pass
yields tau_1/c_1 .. tau_N/c_N at once.  The phi table and the pass are
certified together by a rerun of both at 32 more bits, and a first round on
16 orders (8 for N <= 16) predicts the precision that a long sequence needs
(:func:`tau_sequence`).

Both O(N^2) loops run on Python integers in scaled fixed point: the Taylor
coefficients of the Riccati recurrence scaled by a power of two per order,
the Chebyshev pass's mixed moments by one per anti-diagonal.  Every shift
and division rounds toward zero on the magnitude, so negated moments give
exactly negated norms; only O(N) values (the recurrence coefficients and
the norms) are mpf.  Each loop loses about as many bits as the same loop in
mpf arithmetic, and costs 0.2 to 0.4 of it up to about 1000 bits, where
the mpf object overhead dominated; at 1400 to 3000 bits the integer
products themselves are most of the cost, and the gain falls to 1.2-2x."""

from __future__ import annotations

import itertools
from math import factorial
from operator import mul
from typing import NamedTuple

from mpmath import mp, mpf, sin, cos, sinh, cosh, exp, log, nint, pi, quad

from .errors import (
    PhaseDomainError,
    PrecisionExhaustedError,
    QuadratureError,
)
from .precision import Precision, fixed, rounded, shr
from .specfun import elliptic_data_from_gamma, theta_all, theta1_prime_zero

PHASE_FE = "fe"
PHASE_D = "d"
PHASE_AF = "af"


class PhaseParams(NamedTuple):
    """Validated phase point, kept to bits + 64 of the Precision it was built
    at: zeta = t/gamma, and the edge t - |gamma| (fe), gamma - |t| (d, af)."""

    phase: str
    t: object
    gamma: object
    zeta: object
    edge: object


class Weights(NamedTuple):
    a: object
    b: object
    c: object


def _f_fe(params: PhaseParams, p: Precision):
    """fe: f = -log sinh x, f' = -coth x, f'' = 1/sinh^2 x at x = edge."""
    s = sinh(params.edge)
    return -log(s), -cosh(params.edge) / s, 1 / s ** 2


def _f_d(params: PhaseParams, p: Precision):
    """d: exp(f) = k/cos z, f' = k tan z, f'' = k^2/cos^2 z; k = pi/2gamma,
    z = k t, with cos z = sin(k edge) and tan z = sin(z)/cos z."""
    k = pi / (2 * params.gamma)
    c = sin(k * params.edge)
    return log(k / c), k * sin(k * params.t) / c, k ** 2 / c ** 2


def _f_af(params: PhaseParams, p: Precision):
    """af: exp(f) = k theta_1'(0)/theta_2(z) in the nome q, f' = -k
    (log theta_2)'(z), f'' = -k^2 (log theta_2)''(z); k = pi/2gamma, z = k t,
    from one :func:`~sixvertex.specfun.theta_all` pass.  z is formed at
    bits + 64, as theta_2 near its zero at z = pi/2 amplifies its rounding."""
    pp, g = Precision(p.bits + 32), params.gamma
    q = elliptic_data_from_gamma(g, pp).q
    k = pi / (2 * g)
    with p.work(64):
        z = pi * params.t / (2 * g)
    th, d1, d2 = theta_all(z, q, pp)[1]
    return (log(k * theta1_prime_zero(q, pp) / th), -k * d1 / th,
            -k ** 2 * (d2 / th - (d1 / th) ** 2))


class Phase(NamedTuple):
    """One phase: its region as (test(t, gamma), PhaseDomainError text)
    pairs, checked in order; the sign s of F'' = s F (F = sinh for s = 1,
    sin for s = -1) and of y' = s - y^2, which y = F'/F solves; and
    f(params, p) -> (f, f', f''), the bulk free energy f = lim
    log(tau_N/c_N)/N^2 and its t-derivatives in closed form at the point."""

    region: tuple
    sign: int
    f: object


PHASE_TABLE = {
    PHASE_FE: Phase(
        ((lambda t, g: abs(g) < t, "fe phase requires |gamma| < t"),),
        1, _f_fe),
    PHASE_D: Phase(
        ((lambda t, g: 0 < g < pi / 2, "d phase requires 0 < gamma < pi/2"),
         (lambda t, g: abs(t) < g, "d phase requires |t| < gamma")),
        -1, _f_d),
    PHASE_AF: Phase(
        ((lambda t, g: g > 0, "af phase requires gamma > 0"),
         (lambda t, g: abs(t) < g, "af phase requires |t| < gamma")),
        1, _f_af),
}
PHASES = tuple(PHASE_TABLE)
_KERNEL = {1: (sinh, cosh), -1: (sin, cos)}   # (F, F') by the sign s


def phase_params(phase, t, gamma, p: Precision = Precision()) -> PhaseParams:
    """Build a PhaseParams, enforcing the phase's region (:class:`Phase`).

    fe: |gamma| < t;  d: |t| < gamma and 0 < gamma < pi/2;  af: |t| < gamma,
    gamma > 0.  The error message names the violated inequality.  t, gamma
    and zeta are kept to bits + 64: log tau_N depends on t in proportion to
    N^2, so the results, not the inputs, are rounded to bits.  Pass decimal
    strings to keep t and gamma as exact as that.  edge is formed from the
    t and gamma kept, where abs is exact, and rounded once.
    """
    phase = phase.lower()
    if phase not in PHASES:
        raise PhaseDomainError(f"unknown phase {phase!r}, expected one of {PHASES}")
    pw = Precision(p.bits + 64)
    with pw.work():
        t, gamma = mpf(t), mpf(gamma)
        for inside, text in PHASE_TABLE[phase].region:
            if not inside(t, gamma):
                raise PhaseDomainError(text)
        t, gamma, zeta = (rounded(x, pw) for x in (t, gamma, t / gamma))
    with p.work(64):
        edge = t - abs(gamma) if phase == PHASE_FE else gamma - abs(t)
    return PhaseParams(phase, t, gamma, zeta, edge)


def weights_from(params: PhaseParams, p: Precision = Precision()) -> Weights:
    """Boltzmann weights a, b, c = F(|gamma - t|), F(gamma + t), F(2 gamma),
    F = sinh (fe, af) or sin (d) by the sign of :class:`Phase`, at bits+64."""
    F = _KERNEL[PHASE_TABLE[params.phase].sign][0]
    with p.work(64):
        t, g = params.t, params.gamma
        a, b, c = F(abs(g - t)), F(g + t), F(2 * g)
    return Weights(rounded(a, p), rounded(b, p), rounded(c, p))


# ---------------------------------------------------------------------------
# Fixed-point integers
#
# The phi table and the Chebyshev pass run on Python integers, each standing
# for an integer times a power of two fixed by its position.  Every rounding
# (``precision.fixed``, ``precision.shr``) is toward zero on the magnitude,
# so negated inputs give exactly negated outputs.
# ---------------------------------------------------------------------------


def _mantissa(c, steps) -> tuple:
    """(m, e) with c = m 2^e exactly and e <= min(steps): c times an integer
    that is scaled down by 2^step is m times it shifted right by
    step - e >= 0."""
    sign, m, e, _ = c._mpf_
    lift = max(0, e - min(steps))
    return (-m if sign else m) << lift, e - lift


# ---------------------------------------------------------------------------
# Derivatives of phi(t)
#
# phi = c/(ab) is a difference of two cotangent-type terms y(x) = F'(x)/F(x),
# each a solution of the Riccati equation of its phase's sign s:
#   d/dx coth x = 1 - coth^2 x      (s = 1: fe, af)
#   d/dx cot x  = -1 - cot^2 x      (s = -1: d)
# so the Taylor coefficients of y about one point follow from y(x) alone.
# ---------------------------------------------------------------------------


def _riccati_taylor(y0, sign, s: int, order_max: int, W: int) -> list:
    """Taylor coefficients a_0..a_order_max of the solution of y' = sign - y^2
    with y = y0 at the expansion point, as the integers
    A_n = a_n 2^(s(n+1) + W), from

        a_{n+1} = (sign * [n = 0] - sum_{i<=n} a_i a_{n-i}) / (n + 1).

    2^s is at least the radius of convergence r, and a_n is about
    +-r^-(n+1) (the residue 1 of the nearest pole), so |A_n| keeps about
    W bits or more at every order.  In these units the convolution is an
    exact integer dot product whose symmetric half is summed
    (O(order_max^2) products in all); then one shift by W and one division
    by n + 1, both toward zero, give A_{n+1}.  2s + 2W >= 0 keeps the
    constant term an integer.
    """
    A = [fixed(y0, s + W)]
    for n in range(order_max):
        k = (n + 1) // 2
        conv = 2 * sum(map(mul, A[:k], A[n:n - k:-1]))
        if n % 2 == 0:
            conv += A[n // 2] ** 2
        if n == 0:
            conv -= sign << (2 * s + 2 * W)
        q = shr(-conv, W)
        A.append(q // (n + 1) if q >= 0 else -(-q // (n + 1)))
    return A


def phi_derivatives(params: PhaseParams, order_max: int,
                    p: Precision = Precision()) -> tuple:
    """phi^(n)(t) for n = 0..order_max, each rounded to bits, from the Taylor
    recurrence of :func:`_riccati_taylor` (O(order_max^2) integer
    products).

    With sigma = sign(gamma - t) and y = F'/F of the phase's sign s
    (coth in fe and af, cot in d), every phase has
    phi = c/(ab) = sigma (y(t + gamma) - y(t - gamma)), so
    phi^(n)(t) = sigma n! (a_n - b_n) with a_n, b_n the Taylor coefficients
    of y at t + gamma and at t - gamma.  Each series runs in fixed point at
    W = bits + 32 and the scale 2^s of :func:`_riccati_taylor`, the least
    power of two above its radius, the distance from x = t +- gamma to y's
    nearest pole (|x| for coth, the distance to pi*Z for cot).
    n! (a_n - b_n) is formed exactly from the two integer series, and each
    value is rounded once to bits.  Against a 1600-bit reference the
    fixed-point series at bits = 256 lose at most 8.4 of their W bits up to
    order 190 and 10.0 up to order 598 (fe t=1.5 gamma=0.4, af and d t=0.3
    gamma=1), so values are good to about 2^(-bits) relative.
    """
    if order_max < 0:
        raise ValueError("order_max must be >= 0")
    sign = PHASE_TABLE[params.phase].sign
    F, dF = _KERNEL[sign]
    with p.work():
        W = mp.prec
        t, g = mpf(params.t), mpf(params.gamma)
        sigma = 1 if g > t else -1
        series = []
        for x in (t + g, t - g):
            r = abs(x - pi * nint(x / pi)) if sign < 0 else abs(x)
            s = max(r.exp + r.bc, -W)
            series.append((s, _riccati_taylor(dF(x) / F(x), sign, s,
                                              order_max, W)))
    (sa, a), (sb, b) = series
    values = []
    with mp.workprec(p.bits):
        for n in range(order_max + 1):
            ea, eb = sa * (n + 1), sb * (n + 1)
            e = max(ea, eb)
            man = sigma * ((a[n] << (e - ea)) - (b[n] << (e - eb)))
            values.append(mpf((factorial(n) * man, -e - W)))
    return tuple(values)


# ---------------------------------------------------------------------------
# Scaled Hankel determinants: every tau_N / c_N from one moment recurrence
# ---------------------------------------------------------------------------


class TauValue(NamedTuple):
    """tau_N / c_N at one phase point, with the logarithm of its magnitude."""

    n: int
    scaled_tau: object
    log_scaled: object


def c_factor(N: int) -> int:
    """c_N = (prod_{n=0}^{N-1} n!)^2 as an exact integer."""
    prod = 1
    for n in range(N):
        prod *= factorial(n)
    return prod * prod


def _orthogonal_norms(moments, N: int) -> list:
    """Norms h_0..h_{N-1} of the monic orthogonal polynomials pi_k of the
    moments[0..2N-2], which are the pivots of the Hankel matrix moments[i+k].

    Chebyshev algorithm (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004, section 2.1.7): row k holds the mixed moments
    sigma_{k,l} = <pi_k, x^l> for k <= l <= 2N-2-k, h_k = sigma_{k,k}, and

        sigma_{k+1,l} = sigma_{k,l+1} - alpha_k sigma_{k,l} - beta_k sigma_{k-1,l}.

    sigma_{k,l} is about moments[k+l] in size, so it is held as an integer
    S times 2^E[k+l], the exponent fixed per anti-diagonal by the moments:
    |S| is about 2^W for sigma_{0,l}, W = mp.prec (a zero moment takes the
    exponent of the one before it).  sigma_{k,l+1} already sits on the
    anti-diagonal of sigma_{k+1,l}; each of the other two terms is one
    integer product with the mantissa of alpha_k or beta_k and one shift
    toward zero.  Only alpha_k, beta_k and h_k, O(N) in all, are mpf values
    at W bits.  Closed-form moments lose 211 of 1024 bits (Laguerre, N=100)
    and 149 of 512 (Hermite, N=100) here; the Hankel moments of phi lose
    about as much as the same pass in floating point.
    """
    W = mp.prec
    moments = [mpf(m) for m in moments]
    E = []
    for m in moments:
        E.append(m.exp + m.bc - W if m else E[-1] if E else 0)
    cur = [fixed(m, -e) for m, e in zip(moments, E)]
    L = len(cur)
    # exponent steps to anti-diagonal d from d-1 and from d-2
    up1 = [0] + [E[d] - E[d - 1] for d in range(1, L)]
    up2 = [0, 0] + [E[d] - E[d - 2] for d in range(2, L)]
    prev = [0] * L
    norms, shift, last = [], 0, 1
    for k in range(N):
        if not cur[k]:
            raise PrecisionExhaustedError(
                f"zero pivot at order {k + 1}; increase Precision.bits")
        h = mpf((cur[k], E[2 * k]))
        norms.append(h)
        if k + 1 == N:
            break
        ratio = mpf((cur[k + 1], E[2 * k + 1])) / h
        alpha, beta = ratio - shift, h / last
        # sigma_{k+1,l} for l = k+1..L-k-2 lies on anti-diagonals 2k+2..L-1
        ma, ea = _mantissa(alpha, up1[2 * k + 2:])
        mb, eb = _mantissa(beta, up2[2 * k + 2:])
        nxt = [0] * L
        nxt[k + 1:L - k - 1] = [
            c1 - shr(ma * c0, da - ea) - shr(mb * p0, db - eb)
            for c1, c0, p0, da, db in zip(cur[k + 2:L - k], cur[k + 1:],
                                          prev[k + 1:], up1[2 * k + 2:],
                                          up2[2 * k + 2:])]
        prev, cur, shift, last = cur, nxt, ratio, h
    return norms


# The first round of a sequence beyond 16 orders runs on 16 orders only,
# of one beyond 8 orders on 8; the growth of its loss over its second half
# predicts the w of the full round.
_PREFIX = 16


def _round(params: PhaseParams, N: int, w: int):
    """tau_n / c_n for n = 1..N at w bits, each run from its own phi table
    at w and at w + 32, and the relative gap between the two runs per n."""
    runs = []
    for bits in (w, w + 32):
        moments = phi_derivatives(params, 2 * N - 2, Precision(bits))
        with mp.workprec(bits):
            norms = _orthogonal_norms(moments, N)
            runs.append(list(itertools.accumulate(
                (h / factorial(k) ** 2 for k, h in enumerate(norms)),
                lambda a, b: a * b)))
    with mp.workprec(w + 32):
        gaps = [abs((lo - hi) / hi) for lo, hi in zip(*runs)]
    return runs[0], gaps


def _loss(w: int, gap) -> int:
    """Bits lost by a run at w bits whose rerun differs by gap (relative)."""
    return max(0, w + int(mp.log(gap, 2))) if gap else 0


def tau_sequence(params: PhaseParams, N_max: int,
                 p: Precision = Precision()) -> list:
    """tau_N / c_N for N = 1..N_max from one O(N_max^2) moment recurrence.

    phi^(n)(t) are the moments of a measure of one sign in every phase
    (discrete modes at x = -2l in fe and 2l in af, the density of
    :func:`laplace_moment_check` in d), so tau_N / c_N = prod_{k<N} h_k / (k!)^2
    with the norms h_k of :func:`_orthogonal_norms`.  The moments are
    ill-conditioned, so each result is certified by a rerun: a round runs
    the phi table and the recurrence at w and again at w + 32, and the w run
    is returned when both agree to 2^(-bits-8) relative at every order.

    The loss grows about linearly with N.  Beyond N_max = 16 a first round
    at w = bits + 64 on orders 1..m, m = 16, measures the losses L_{m/2}
    and L_m, and the full round runs at w = bits + 24 + 1.3 L (at least
    bits + 64), with L = L_m + (L_m - L_{m/2})(N_max - m)/(m/2) the running
    loss extrapolated to N_max; for 8 < N_max <= 16 the first round runs
    on m = 8 orders (fe loses 62 bits by N = 16, more than bits + 64
    leaves).  A failed round is rerun at w = bits + 64 + L for the loss L it
    measured, or with twice the added bits w - bits when its gap exceeds
    2^-32 (the w run then kept no correct bit, and L would measure w, not
    the loss); a third failed round raises PrecisionExhaustedError.
    """
    if N_max < 1:
        raise ValueError("N must be >= 1")
    w = p.bits + 64
    if N_max > _PREFIX // 2:
        prefix = _PREFIX if N_max > _PREFIX else _PREFIX // 2
        _, gaps = _round(params, prefix, w)
        half = _loss(w, gaps[prefix // 2 - 1])
        full = _loss(w, gaps[prefix - 1])
        predicted = full + (full - half) * (N_max - prefix) / (prefix // 2)
        w = max(w, p.bits + 24 + int(1.3 * predicted))
    for _ in range(3):
        run, gaps = _round(params, N_max, w)
        gap = max(gaps)
        if gap <= mpf(2) ** (-p.bits - 8):
            with p.work():   # s is good to 2^(-bits-8); its log needs no more
                return [TauValue(n, rounded(s, p), rounded(log(abs(s)), p))
                        for n, s in enumerate(run, 1)]
        loss = _loss(w, gap)
        if gap > mpf(2) ** -32:
            w = p.bits + 2 * (w - p.bits)
        else:
            w = p.bits + 64 + loss
    raise PrecisionExhaustedError(
        f"tau_N/c_N runs 32 bits apart still differ by {mp.nstr(gap, 5)} "
        f"relative after 3 rounds (loss {loss} bits); increase Precision.bits")


def tau_scaled(params: PhaseParams, N: int,
               p: Precision = Precision()) -> TauValue:
    """tau_N / c_N, the last element of :func:`tau_sequence`.

    Callers that need several N should take them from one tau_sequence
    call: it costs the same as its largest N.
    """
    return tau_sequence(params, N, p)[-1]


def z_from_tau(params: PhaseParams, taus, p: Precision = Precision()) -> list:
    """Z_N = (a*b)^(N^2) * tau_N / c_N for each computed tau_N / c_N of taus
    (a tau_sequence or part of one), all from one a*b at bits + 64."""
    w = weights_from(params, Precision(p.bits + 64))
    with p.work():
        ab = mpf(w.a) * mpf(w.b)
        return [rounded(ab ** (tau.n * tau.n) * mpf(tau.scaled_tau), p)
                for tau in taus]


def partition_Z(params: PhaseParams, N: int, p: Precision = Precision()):
    """Z_N = (a*b)^(N^2) * tau_N / c_N."""
    return z_from_tau(params, [tau_scaled(params, N, p)], p)[0]


# ---------------------------------------------------------------------------
# Bilinear (Toda) residual
# ---------------------------------------------------------------------------


def toda_residuals(params: PhaseParams, N_max: int, p: Precision) -> list:
    """Relative residuals of the bilinear identity for N = 1..N_max.

    With s_N = tau_N / c_N the identity at fixed gamma reads
        s_N s_N'' - (s_N')^2 = N^2 s_{N+1} s_{N-1},   N^2 = c_{N+1}c_{N-1}/c_N^2,
    and s_0 = 1 by the tau_0 = 1 convention.  s_N' and s_N'' are 5-point
    central differences on t + i h, i = -2..2, built at bits + 64, with
    h = 2^(min(0, floor(log2 r)) - floor(bits/5)), r = params.edge the
    distance from t to the region's boundary: in units of min(1, r), h^4
    truncation balances 2^(-bits)/h^2 roundoff, a residual of ~2^(-3bits/5).
    r is also the distance from t to phi's nearest pole (at t = +-gamma;
    d's poles at +-(pi - gamma) lie farther), and 2h < r keeps every point
    inside.  One :func:`tau_sequence` to N_max + 1 per point serves every N.
    """
    if N_max < 1:
        raise ValueError("N must be >= 1")
    pw = Precision(p.bits + 64)
    with pw.work():
        t, r = params.t, params.edge
        h = mpf(2) ** (min(0, r.exp + r.bc - 1) - p.bits // 5)
        points = [phase_params(params.phase, t + i * h, params.gamma, pw)
                  for i in (-2, -1, 0, 1, 2)]
        # s_0 = 1 .. s_{N_max+1} at each point
        seqs = [[mpf(1)] + [mpf(tv.scaled_tau)
                            for tv in tau_sequence(prm, N_max + 1, pw)]
                for prm in points]
        out = []
        for N in range(1, N_max + 1):
            m2, m1, s, p1, p2 = (seq[N] for seq in seqs)
            d1 = (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)
            d2 = (-p2 + 16 * p1 - 30 * s + 16 * m1 - m2) / (12 * h ** 2)
            rhs = N * N * seqs[2][N + 1] * seqs[2][N - 1]
            out.append(rounded(abs(s * d2 - d1 ** 2 - rhs) / abs(rhs), p))
    return out


def toda_residual(params: PhaseParams, N: int, p: Precision = Precision()):
    """Relative residual of the bilinear identity at one N, the last
    element of :func:`toda_residuals`.

    Callers that need several N should take them from one toda_residuals
    call: it costs the same as its largest N.
    """
    return toda_residuals(params, N, p)[-1]


# ---------------------------------------------------------------------------
# Laplace-moment check (d phase carries a smooth measure)
# ---------------------------------------------------------------------------


def laplace_moment_check(params: PhaseParams, i_max: int,
                         p: Precision = Precision()):
    """Max | quadrature moment - phi^(i) | for i = 0..i_max (d phase).

    The smooth measure has density sinh(lambda(pi-2 gamma)/2)/sinh(lambda pi/2);
    moments are integrated over the whole line with exponential tails and
    compared against :func:`phi_derivatives`.
    """
    if params.phase != PHASE_D:
        raise PhaseDomainError("Laplace-moment check applies to the d phase")
    moments = phi_derivatives(params, i_max, Precision(p.bits + 32))
    with p.work():
        t, g = mpf(params.t), mpf(params.gamma)

        def density(lam):
            if lam == 0:
                return (pi - 2 * g) / pi
            return sinh(lam * (pi - 2 * g) / 2) / sinh(lam * pi / 2)

        worst = mpf(0)
        for i in range(i_max + 1):
            val, err = quad(lambda lam: lam ** i * exp(t * lam) * density(lam),
                            [mp.ninf, 0, mp.inf], error=True)
            if err > mpf(2) ** (-p.bits // 2):
                raise QuadratureError(
                    f"moment {i} quadrature stalled at error {mp.nstr(err, 5)}",
                    achieved=err)
            worst = max(worst, abs(val - mpf(moments[i])))
    return rounded(worst, p)
