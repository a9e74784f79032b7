"""Arbitrary-precision elliptic kernel.

One memoized arithmetic-geometric mean per (k, k', bits), :func:`_agm`,
gives K and E, the K and K' of a gamma, and the descending Landen pass
:func:`_landen`, which yields Jacobi sn/cn/dn and, from the same
amplitudes, Jacobi's Zeta as sum c_n sin phi_n (:func:`jacobi_zeta`).
Jacobi theta_1..theta_4 and their first two z-derivatives come from one
truncated q-series pass on Python integers, :func:`theta_all`, the only
theta series loop here; it costs a few integer products per term and no
transcendental function after its start.  The af saddle geometry is built
from theta quotients in the nome (see :mod:`sixvertex.asymptotics.geometry`),
so the Landen route is its independent check.  All routines take an
explicit :class:`~sixvertex.precision.Precision`; there is no module-level
precision state.

Three memos live here, each for the life of the process: :func:`_agm` per
(k, k', bits), the elliptic data of a gamma per (gamma, bits) behind
:func:`elliptic_data_from_gamma`, and :func:`theta1_prime_zero` per
(q, bits).  :func:`identity_checks` is the identity suite that
``sixvertex check identities`` and the tests share.

The nome convention throughout is q = exp(-pi*K'/K).  The dual nome under a
modular transformation, exp(-2*gamma) when q = exp(-pi^2/(2*gamma)), shows up
in the low-temperature series of :mod:`sixvertex.asymptotics` but no general
modular-transformation facility is provided here.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp, mpf, sqrt, sin, cos, cos_sin, asin, exp, pi

from .errors import DomainError
from .precision import Precision, fixed, rounded, shr

GUARD_HALF = 16


class EllipticData(NamedTuple):
    """Modulus/period bundle: k, k', K(k), K'(k) and the nome q."""

    k: object
    kprime: object
    bigK: object
    bigKprime: object
    q: object


def _check_modulus(k):
    if k < 0 or k >= 1:
        raise DomainError(f"modulus k={k} outside [0, 1)")


@lru_cache(maxsize=64)
def _agm(k, kprime, p: Precision):
    """The AGM of 1 and k' = sqrt(1 - k^2), memoized per (k, k', bits): the
    sequences a_0..a_N and c_0..c_N at bits + 32, run until
    c_N < 2^(-bits-16).  The only AGM loop here.  k' is an argument so that
    the theta k and k' of :func:`elliptic_data_from_gamma` keep every bit:
    sqrt(1 - x^2) lost 62 of 256 bits of K at gamma = 30, 118 of K' at 0.05.

    c_0 = k and c_n = (a_(n-1) - b_(n-1))/2, formed as c_(n-1)^2/(4 a_n)
    (equal, since c_n^2 = a_n^2 - b_n^2): the difference cancels when k is
    small, about 2 log2(1/k) - 32 bits of Jacobi's Zeta at 256 bits, and
    the quotient does not."""
    with p.work():
        a, c, b = [mpf(1)], [k], kprime
        tol = mpf(2) ** (-(p.bits + GUARD_HALF))
        while abs(c[-1]) > tol:
            a_prev = a[-1]
            a.append((a_prev + b) / 2)
            c.append(c[-1] ** 2 / (4 * a[-1]))
            b = sqrt(a_prev * b)
        return tuple(a), tuple(c)


def elliptic_K(k, p: Precision):
    """Complete elliptic integral of the first kind, K = pi/(2 a_N)."""
    _check_modulus(k)
    with p.work():
        a, _ = _agm(mpf(k), sqrt(1 - mpf(k) ** 2), p)
        out = pi / (2 * a[-1])
    return rounded(out, p)


def elliptic_E(k, p: Precision):
    """Complete elliptic integral of the second kind.

    The deficit series of the same AGM as K: E = K * (1 - sum 2**(n-1)
    c_n**2), c_0 = k.  Needed for the Legendre relation.
    """
    _check_modulus(k)
    with p.work():
        a, c = _agm(mpf(k), sqrt(1 - mpf(k) ** 2), p)
        deficit = c[0] ** 2 / 2
        for n in range(1, len(c)):
            deficit += mpf(2) ** (n - 1) * c[n] ** 2
        out = (pi / (2 * a[-1])) * (1 - deficit)
    return rounded(out, p)


def _landen(u, k, p: Precision):
    """sn, cn, dn and Jacobi's Zeta at (u, k) from one descending Landen
    pass over :func:`_agm` (Abramowitz-Stegun 16.4, 17.6), at bits + 32.

    The amplitude starts at phi_N = 2^N a_N u and descends by
    phi_(n-1) = (phi_n + asin((c_n/a_n) sin phi_n))/2 to phi_0 = am(u);
    Z(u) = sum_(n=1..N) c_n sin phi_n takes the sines the pass makes anyway.
    """
    with p.work():
        k = mpf(k)
        a, c = _agm(k, sqrt(1 - k ** 2), p)
        n = len(a) - 1
        phi = mpf(2) ** n * a[n] * mpf(u)
        Z = mpf(0)
        for i in range(n, 0, -1):
            s = sin(phi)
            Z += c[i] * s
            phi = (phi + asin(c[i] / a[i] * s)) / 2
        sn = sin(phi)
        return sn, cos(phi), sqrt(1 - k ** 2 * sn ** 2), Z


def jacobi_sn_cn_dn(u, k, p: Precision):
    """Jacobi elliptic functions on the real axis.

    Descending Landen transformation (AGM backward recursion for the
    amplitude), which stays well conditioned up to u = K.  The AGM depends
    on k alone (:func:`_agm`), so many u at one k run it once.
    """
    _check_modulus(k)
    return tuple(rounded(x, p) for x in _landen(u, k, p)[:3])


def theta_all(z, q, p: Precision):
    """(theta_j, theta_j', theta_j'') at (z, q) for j = 1..4, primes in z,
    as a tuple indexed by j - 1, from one series pass.

    Term m = 1, 2, ... is 2 q^(m^2/4) trig(m z): odd m feed theta_1 (sin,
    sign (-1)^((m-1)/2)) and theta_2 (cos), even m theta_3 (cos) and
    theta_4 (cos, sign (-1)^(m/2)); each derivative takes its factor m or
    -m^2 term-wise.  The pass stops at the first m with
    2 q^(m^2/4) m^2 < 2^(-bits-8-e) (e below), past which the terms fall
    super-geometrically.

    The sums run on Python integers at the scale 2^(-F), the fixed-point
    idiom of :mod:`sixvertex.exactcore`: one cos_sin(z), q^(1/4) and
    q^(1/2) at bits + 48 + c (c below), then q^(m^2/4) stepped by ratios
    q^((2m+1)/4) that are stepped by q^(1/2), and (cos mz, sin mz) by a
    rotation through z, each product shifted back toward zero.  The
    relative errors of the mpf inputs only perturb the rotation's angle and
    length and the q-powers' scale.  The shifts leave by term m about 2m^2
    units of 2^(-F) on the q-power and 2m on the rotated pair, so the d-th
    derivative is off by less than 2^(-F) sum_(m<=M) (3m^2 + 3) m^d, below
    2^(-bits+8-e) while M < 1500 (M is 106 for q = 0.6 at 2048 bits).
    Here e is the bits below 1 of min(|sin z|, |cos z|), of q and (c) of
    2 sqrt(pi/eps) exp(-pi^2/(4 eps)), eps = -ln q, so 2^(-e) lies below
    the size of every row: 2 q^(1/4) |sin z| of theta_1 near z = 0
    (|cos z| of theta_2 near pi/2), 8 q of theta_3'' and theta_4'', and
    the lower bound that Jacobi's imaginary transformation gives theta_4(0)
    as q -> 1, where terms of size 1 cancel (theta_1, theta_2 shrink
    alike).  c is 0 for q <= 1/4 (af gamma < 3.6), where theta_4(0) >=
    1 - 2q >= 1/2, 68 at af gamma = 100 and 139 at gamma = 200.
    F = bits + 48 + e and the stop rule's 2^(-e) make both the rounding and
    the truncation bounds relative to that size, however close to 0 or 1
    q is.  Each value is rounded once to bits.
    """
    if not (0 <= q < 1):
        raise DomainError(f"nome q={q} outside [0, 1)")
    lost = 0
    if q > 0.25:
        eps = -math.log(q)
        lost = max(0, math.floor(math.pi ** 2 / (4 * eps * math.log(2))
                                 - math.log2(2 * math.sqrt(math.pi / eps))))
    with mp.workprec(p.bits + 48 + lost):
        c, s = cos_sin(mpf(z))
        q = mpf(q)
        r2 = sqrt(q)
        r = sqrt(r2)
    e = lost + sum(max(0, -(x.exp + x.bc)) for x in (min(abs(c), abs(s)), q))
    F = p.bits + 48 + e
    C, S, R, R2 = (fixed(x, F) for x in (c, s, r, r2))
    mag, ratio = 2 * R, shr(R * R2, F)       # 2 q^(m^2/4), q^((2m+1)/4)
    cm, sm = C, S                            # cos mz, sin mz
    tol = 1 << (F - p.bits - 8 - e)
    sums = [[0, 0, 0] for _ in range(4)]
    sums[2][0] = sums[3][0] = 1 << F
    m = 1
    while mag * m * m >= tol:
        mc, ms = shr(mag * cm, F), shr(mag * sm, F)
        cos_terms = (mc, -m * ms, -m * m * mc)
        sign = -1 if m & 2 else 1            # (-1)^floor(m/2)
        if m & 1:
            rows = ((0, sign, (ms, m * mc, -m * m * ms)), (1, 1, cos_terms))
        else:
            rows = ((2, 1, cos_terms), (3, sign, cos_terms))
        for j, sg, terms in rows:
            sums[j] = [acc + sg * t for acc, t in zip(sums[j], terms)]
        mag, ratio = shr(mag * ratio, F), shr(ratio * R2, F)
        cm, sm = shr(cm * C - sm * S, F), shr(sm * C + cm * S, F)
        m += 1
    with mp.workprec(p.bits):
        return tuple(tuple(mpf((v, -F)) for v in row) for row in sums)


def theta(j, z, q, p: Precision):
    """Jacobi theta function theta_j(z, q), j in 1..4: the value of
    :func:`theta_all`."""
    if j not in (1, 2, 3, 4):
        raise DomainError(f"theta index {j} not in 1..4")
    return theta_all(z, q, p)[j - 1][0]


def jacobi_zeta(u, k, p: Precision):
    """Jacobi Zeta Z(u, k) = E(am u, k) - u*E/K, as the AGM form
    sum c_n sin phi_n over the descending Landen amplitudes
    (Abramowitz-Stegun 17.6), from the same pass as :func:`jacobi_sn_cn_dn`.
    It shares the AGM with K but no theta series, nome or quadrature.
    """
    _check_modulus(k)
    return rounded(_landen(u, k, p)[3], p)


def elliptic_data_from_gamma(gamma, p: Precision):
    """Elliptic data for nome q = exp(-pi^2/(2*gamma)).

    k = theta_2^2/theta_3^2 and k' = theta_4^2/theta_3^2 at z=0, so
    K = pi/(2 AGM(1, k')) and K' = pi/(2 AGM(1, k)).  By construction
    K'/K = pi/(2*gamma), which the test suite verifies as a round trip.

    Results are memoized per (gamma, bits), with gamma taken at the working
    precision bits+32; every caller shares the same immutable
    :class:`EllipticData`.
    """
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    with p.work():
        return _elliptic_data(mpf(gamma), p)


@lru_cache(maxsize=64)
def _elliptic_data(gamma, p: Precision):
    with p.work():
        q = exp(-pi ** 2 / (2 * gamma))
        pp = Precision(p.bits + GUARD_HALF)
        _, (th2, _, _), (th3, _, _), (th4, _, _) = theta_all(0, q, pp)
        k, kprime = (th2 / th3) ** 2, (th4 / th3) ** 2
        with pp.work():
            bigK = pi / (2 * _agm(k, kprime, pp)[0][-1])
            bigKprime = pi / (2 * _agm(kprime, k, pp)[0][-1])
        return EllipticData(
            k=rounded(k, p),
            kprime=rounded(kprime, p),
            bigK=rounded(bigK, p),
            bigKprime=rounded(bigKprime, p),
            q=rounded(q, p),
        )


@lru_cache(maxsize=64)
def theta1_prime_zero(q, p: Precision):
    """theta_1'(0, q) = d/dz theta_1 at z = 0, memoized per (q, bits)."""
    return theta_all(0, q, p)[0][1]


def identity_checks(p: Precision):
    """The specfun identity suite at precision p (bound 2^(-bits+8)).

    Returns (name, measured, tolerance) rows: a row passes when
    |measured| < tolerance.  The nome round trip is bounded by
    2^(-bits/2).
    """
    rng = random.Random(20260809)
    tol = mpf(2) ** (-p.bits + 8)
    out = []
    with p.work():
        # Jacobi identities at sampled (u, k)
        for i in range(4):
            k = mpf(rng.uniform(0.05, 0.95))
            K = elliptic_K(k, p)
            u = mpf(rng.uniform(0, 1)) * K
            sn, cn, dn = jacobi_sn_cn_dn(u, k, p)
            out.append((f"sn2+cn2-1_sample{i}", sn ** 2 + cn ** 2 - 1, tol))
            out.append((f"dn2+k2sn2-1_sample{i}", dn ** 2 + k ** 2 * sn ** 2 - 1, tol))
        # Legendre relation
        k = mpf("0.77")
        kp = sqrt(1 - k ** 2)
        E, Ep = elliptic_E(k, p), elliptic_E(kp, p)
        K, Kp = elliptic_K(k, p), elliptic_K(kp, p)
        out.append(("legendre_relation", E * Kp + Ep * K - K * Kp - pi / 2, tol))
        # theta_1'(0) = theta_2 theta_3 theta_4 (0)
        for q in ("0.001", "0.01", "0.1", "0.3"):
            q = mpf(q)
            th = theta_all(0, q, p)
            rhs = th[1][0] * th[2][0] * th[3][0]
            out.append((f"theta1prime_q{q}", (th[0][1] - rhs) / rhs, tol))
        # Zeta oddness / periodicity / quarter-period zero
        k = mpf("0.6")
        K = elliptic_K(k, p)
        u = mpf("0.37") * K
        out.append(("zeta_odd", jacobi_zeta(u, k, p) + jacobi_zeta(-u, k, p), tol))
        out.append(("zeta_period_2K",
                    jacobi_zeta(u + 2 * K, k, p) - jacobi_zeta(u, k, p), tol))
        out.append(("zeta_at_K", jacobi_zeta(K, k, p), tol))
        # nome round trip
        for gs in ("0.2", "1", "5"):
            ed = elliptic_data_from_gamma(mpf(gs), p)
            out.append((f"KprimeK_gamma{gs}",
                        ed.bigKprime / ed.bigK - pi / (2 * mpf(gs)),
                        mpf(2) ** (-p.bits // 2)))
    return out
