"""Arbitrary-precision elliptic kernel.

One memoized arithmetic-geometric mean per (k, bits), :func:`_agm`, gives
the complete elliptic integrals K and E and the descending Landen pass
:func:`_landen`, which yields Jacobi sn/cn/dn and, from the same
amplitudes, Jacobi's Zeta as sum c_n sin phi_n (:func:`jacobi_zeta`).
Jacobi theta functions come from truncated q-series; :func:`theta_pair`
returns theta_j and its z-derivative from one pass.  The af saddle
geometry is built from theta quotients in the nome (see
:mod:`sixvertex.asymptotics.geometry`), so the Landen route is its
independent check.  All routines take an explicit
:class:`~sixvertex.precision.Precision`; there is no module-level precision
state.

The theta series costs a few multiplications per term and no transcendental
function after its start: the q-powers are stepped by ratios that are
themselves stepped by q^2, and the trigonometric factors by a rotation
through the angle 2z.  Both recurrences round once or twice per step, which
the 32 guard bits absorb (see :func:`theta`).  Three memos live here, each
for the life of the process: :func:`_agm` per (k, bits), the elliptic data
of a gamma per (gamma, bits) behind :func:`elliptic_data_from_gamma`, and
:func:`theta1_prime_zero` per (q, bits).  :func:`identity_checks` is the
identity suite that ``sixvertex check identities`` and the tests share.

The nome convention throughout is q = exp(-pi*K'/K).  The dual nome under a
modular transformation, exp(-2*gamma) when q = exp(-pi^2/(2*gamma)), shows up
in the low-temperature series of :mod:`sixvertex.asymptotics` but no general
modular-transformation facility is provided here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mpf, sqrt, sin, cos, cos_sin, asin, exp, pi

from .errors import DomainError
from .precision import Precision, rounded

GUARD_HALF = 16


@dataclass(frozen=True)
class EllipticData:
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
def _agm(k, p: Precision):
    """The AGM of 1 and k' = sqrt(1 - k^2), memoized per (k, bits): the
    sequences a_0..a_N and c_0..c_N (c_0 = k, c_n = (a_(n-1) - b_(n-1))/2)
    at bits + 32, run until c_N < 2^(-bits-16).  The only AGM loop here."""
    with p.work():
        a, c = [mpf(1)], [k]
        b = sqrt(1 - k ** 2)
        tol = mpf(2) ** (-(p.bits + GUARD_HALF))
        while abs(c[-1]) > tol:
            a_prev = a[-1]
            a.append((a_prev + b) / 2)
            c.append((a_prev - b) / 2)
            b = sqrt(a_prev * b)
        return tuple(a), tuple(c)


def elliptic_K(k, p: Precision):
    """Complete elliptic integral of the first kind, K = pi/(2 a_N)."""
    _check_modulus(k)
    with p.work():
        a, _ = _agm(mpf(k), p)
        out = pi / (2 * a[-1])
    return rounded(out, p)


def elliptic_E(k, p: Precision):
    """Complete elliptic integral of the second kind.

    The deficit series of the same AGM as K: E = K * (1 - sum 2**(n-1)
    c_n**2), c_0 = k.  Needed for the Legendre relation.
    """
    _check_modulus(k)
    with p.work():
        a, c = _agm(mpf(k), p)
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
        a, c = _agm(k, p)
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


def _theta_sums(j, z, q, p: Precision):
    """theta_j(z, q) and its z-derivative, summed in one pass at bits + 32.

    Stops by the rule of :func:`theta`.  Term n has magnitude
    2*q**((n+1/2)**2) with m = 2n+1 (j=1,2, from n=0) or 2*q**(n**2) with
    m = 2n (j=3,4, from n=1), times sin(m z) or cos(m z).
    """
    if j not in (1, 2, 3, 4):
        raise DomainError(f"theta index {j} not in 1..4")
    if not (0 <= q < 1):
        raise DomainError(f"nome q={q} outside [0, 1)")
    tol = p.tail_tol()
    z, q = mpf(z), mpf(q)
    q2 = q * q
    if j in (1, 2):
        n, m, val = 0, 1, mpf(0)
        c, s = cos_sin(z)
        c2, s2 = c * c - s * s, 2 * c * s
        mag, ratio = 2 * sqrt(sqrt(q)), q2         # ratios q^(2n+2)
    else:
        n, m, val = 1, 2, mpf(1)
        c2, s2 = cos_sin(2 * z)
        c, s = c2, s2
        mag, ratio = 2 * q, q2 * q                 # ratios q^(2n+1)
    der = mpf(0)
    while True:
        a = -mag if n % 2 and j in (1, 4) else mag
        if j == 1:
            val += a * s
            der += m * a * c
        else:
            val += a * c
            der -= m * a * s
        if mag * m < tol and n >= 2:
            return val, der
        mag *= ratio
        ratio *= q2
        c, s = c * c2 - s * s2, s * c2 + c * s2
        n += 1
        m += 2


def theta(j, z, q, p: Precision):
    """Jacobi theta function theta_j(z, q), j in 1..4.

    The series is truncated once the term bound drops below 2**(-bits-8);
    terms decay super-geometrically in n so this bound is rigorous.

    The terms come from recurrences, not from powers and sines: each
    q-power is the previous one times a ratio q^(2n+2) (j=1,2, seeded with
    2*q^(1/4)) or q^(2n+1) (j=3,4), and each ratio the previous one times
    q^2; (cos mz, sin mz) is the previous pair rotated by 2z.  By term n the
    q-power carries a relative rounding error of about n^2/2 units in the
    last place of the working precision bits+32, and the rotated pair an
    absolute one of about 4n, so the sum is off by less than
    (n^2 + 8n) * 2^(-bits-32) times the sum of the term magnitudes
    2*q^(...)*m^d (d = 1 for the derivative of :func:`theta_pair`).  That
    is below 2^(-bits-8) times the same sum while n < 4000; n stays under
    60 for q <= 0.6 at 2048 bits.
    """
    with p.work():
        out = _theta_sums(j, z, q, p)[0]
    return rounded(out, p)


def theta_pair(j, z, q, p: Precision):
    """(theta_j(z, q), d/dz theta_j(z, q)) from one series pass, each
    rounded as :func:`theta` rounds it; the derivative is the term-wise
    differentiated series, so no finite difference enters."""
    with p.work():
        val, der = _theta_sums(j, z, q, p)
    return rounded(val, p), rounded(der, p)


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

    The modulus comes from theta quotients (k = theta_2^2/theta_3^2 at z=0);
    K and K' then follow from the AGM.  By construction K'/K = pi/(2*gamma),
    which the test suite verifies as a round trip.

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
        theta3_sq = theta(3, 0, q, pp) ** 2
        k = theta(2, 0, q, pp) ** 2 / theta3_sq
        kprime = theta(4, 0, q, pp) ** 2 / theta3_sq
        bigK = elliptic_K(k, pp)
        bigKprime = elliptic_K(kprime, pp)
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
    return theta_pair(1, 0, q, p)[1]


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
            lhs = theta1_prime_zero(q, p)
            rhs = theta(2, 0, q, p) * theta(3, 0, q, p) * theta(4, 0, q, p)
            out.append((f"theta1prime_q{q}", (lhs - rhs) / rhs, tol))
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
