"""Bulk free energies and their analytic cross-checks.

f = lim log(tau_N/c_N)/N^2, with f' and f'', is the closed form of each
phase's record in ``exactcore.PHASE_TABLE``, f(params, p); F = -log(a*b) - f
is the physical free energy; z_limit = lim Z_N^(1/N^2) = a*b*exp(f).

Two series evaluations of the af free energy are provided: a small-gamma
expansion around the d-phase form (nome q) and a low-temperature expansion in
the dual nome exp(-2*gamma).  Both expansions circulate with the correction
series carrying the opposite sign; the signs used here are fixed against the
closed theta-function form and exact finite-N data, which the test suite
pins down.
"""

from __future__ import annotations

from typing import NamedTuple

from mpmath import mp, mpf, cos, exp, log, pi, sin, sinh

from ..errors import CutoffTooSmallError, PhaseDomainError
from ..exactcore import (PHASE_AF, PHASE_D, PHASE_FE, PHASE_TABLE, PhaseParams,
                         weights_from)
from ..precision import Precision, rounded
from ..specfun import elliptic_data_from_gamma, theta, theta_all
from .geometry import endpoints


class FreeEnergy(NamedTuple):
    """f (determinant normalization), F = -log(ab) - f, and lim Z^(1/N^2)."""

    f: object
    F: object
    z_limit: object


def bulk_f(params: PhaseParams, p: Precision = Precision()) -> FreeEnergy:
    """Bulk free energy: f from the phase's record in ``PHASE_TABLE``,
    F = -log(ab) - f and z_limit = ab exp(f)."""
    with p.work():
        f = PHASE_TABLE[params.phase].f(params, p)[0]
        w = weights_from(params, Precision(p.bits + 32))
        ab = mpf(w.a) * mpf(w.b)
        F = -log(ab) - f
        z_limit = ab * exp(f)
    return FreeEnergy(rounded(f, p), rounded(F, p), rounded(z_limit, p))


def dfdzeta(params: PhaseParams, p: Precision = Precision()):
    """The free-energy derivative, via endpoints and via the closed form.

    Returns (endpoint_form, closed_form).  d and af differentiate with
    respect to zeta: the sum of the support ends over 4 against gamma f',
    f' from the phase's record.  fe differentiates with respect to the
    shifted t (its f does not depend on zeta separately): -(alpha + beta)/2
    against f'.  The two are analytically equal; their difference checks
    the geometry against the closed form of f.
    """
    geom = endpoints(params, p)
    with p.work():
        closed = PHASE_TABLE[params.phase].f(params, p)[1]
        if params.phase == PHASE_FE:
            ep = -(mpf(geom.alpha) + mpf(geom.beta)) / 2
        else:
            ends = (geom.alpha, geom.alpha_prime, geom.beta_prime, geom.beta)
            ep = sum(mpf(e) for e in ends if e is not None) / 4
            closed *= params.gamma
    return rounded(ep, p), rounded(closed, p)


def _series(total, term, tail, m_max: int, p: Precision):
    """total + term(1) + ... + term(m) for the first m whose tail(m + 1), a
    bound on the terms after m, is at most 2^(-bits-8); CutoffTooSmallError
    when the cap m_max comes first."""
    m = 0
    while (bound := tail(m + 1)) > mpf(2) ** (-p.bits - 8):
        if m == m_max:
            raise CutoffTooSmallError(
                f"series tail bound {mp.nstr(bound, 5)} above 2^(-bits-8); "
                f"raise m_max beyond {m_max}")
        m += 1
        total += term(m)
    return total


def f_small_gamma(params: PhaseParams, m_max: int, p: Precision = Precision()):
    """Small-gamma expansion of the af free energy around the d-phase form.

    f = log[(pi/2g)/cos(pi t/2g)]
        - 2 sum_{m>=1} (1/m) q^{2m}/(1-q^{2m}) (1 - (-1)^m cos(m pi t/g)),
    q = exp(-pi^2/(2g)), its first term the d record's f (d and af share
    the edge gamma - |t|).  Returns (f_series, f_sing_leading) where
    f_sing_leading = -4 exp(-pi^2/g) cos^2(pi t/2g) is the leading term of
    the series (the singular part of f across the d/af boundary), with cos
    as sin(pi edge/2g).  The series stops by :func:`_series`.
    """
    if params.phase != PHASE_AF:
        raise PhaseDomainError("small-gamma expansion applies to af only")
    with p.work():
        t, g = params.t, params.gamma
        q = exp(-pi ** 2 / (2 * g))
        total = _series(
            PHASE_TABLE[PHASE_D].f(params, p)[0],
            lambda m: -2 * (mpf(1) / m) * q ** (2 * m) / (1 - q ** (2 * m))
            * (1 - (-1) ** m * cos(m * pi * t / g)),
            lambda m: 4 * q ** (2 * m) / (m * (1 - q ** 2) ** 2), m_max, p)
        sing = -4 * exp(-pi ** 2 / g) * sin(pi * params.edge / (2 * g)) ** 2
    return rounded(total, p), rounded(sing, p)


def F_modular(params: PhaseParams, m_max: int, p: Precision = Precision()):
    """Physical af free energy F = -log(ab) - f in the dual nome exp(-2g):

    F = -g/2 - t^2/(2g) - log sinh(g+t) + t
        - 2 sum_{m>=1} (1/m) [exp(-2mg)/sinh(2mg)] sinh^2(m(g-t)).

    Converges for |t| < gamma; ideal for large gamma where the direct theta
    series is slow.  The series stops by :func:`_series`.
    """
    if params.phase != PHASE_AF:
        raise PhaseDomainError("modular-series free energy applies to af only")
    with p.work():
        t, g = params.t, params.gamma
        # term_m <= exp(-2m(g+t)) / (m (1 - exp(-4g))); geometric tail bound
        ratio = exp(-2 * (g + t))
        total = _series(
            -g / 2 - t ** 2 / (2 * g) - log(sinh(g + t)) + t,
            lambda m: -2 * (mpf(1) / m) * (exp(-2 * m * g) / sinh(2 * m * g))
            * sinh(m * (g - t)) ** 2,
            lambda m: ratio ** m / (m * (1 - ratio) * (1 - exp(-4 * g))),
            m_max, p)
    return rounded(total, p)


def ode_check(params: PhaseParams, p: Precision = Precision(), n: int = 6,
              theta_factor: bool = True):
    """Residual of the closed-form free energies against f'' = exp(2f).

    f and f'' are the closed forms of the phase's record in ``PHASE_TABLE``
    (fe: f'' = 1/sinh^2(t - |gamma|); d: (pi/2g)^2/cos^2(pi t/2g);
    af: -(pi/2g)^2 (log theta_2)''(pi t/2g)), so no finite difference
    enters and the residual holds at any distance from the phase boundary.

    fe/d: relative residual of f''(t) - exp(2f), zero up to rounding.

    af: the bulk f alone does not satisfy the equation.  With
    theta_factor=True (default) the full asymptotic form
    A_N(t) = c_N exp(N^2 f) theta_4(u_N), u_N = (pi/2)(1+t/g) N, is
    substituted into the bilinear identity at size n in its logarithmic
    form (log A_N)'' = A_{N+1} A_{N-1} / A_N^2, that is

        N^2 f'' + (pi N/2g)^2 (log theta_4)''(u_N)
            = N^2 exp(2f) theta_4(u_{N+1}) theta_4(u_{N-1}) / theta_4(u_N)^2,

    and the residual is returned relative to the right-hand side; with
    theta_factor=False the naive pointwise residual of the bulk f is
    returned (expected to be far above the fe/d residuals -- that failure
    is the point).
    """
    pw = Precision(p.bits + 32)
    with pw.work():
        t, g = params.t, params.gamma
        f, _, d2f = PHASE_TABLE[params.phase].f(params, p)
        if params.phase != PHASE_AF or not theta_factor:
            return rounded(abs((d2f - exp(2 * f)) / exp(2 * f)), p)

        if n < 1:
            raise ValueError("n must be >= 1")
        q = elliptic_data_from_gamma(g, pw).q
        u = lambda N: (pi / 2) * (1 + t / g) * N
        th4, d1, d2 = theta_all(u(n), q, pw)[3]
        lhs = n * n * d2f + (pi * n / (2 * g)) ** 2 \
            * (d2 / th4 - (d1 / th4) ** 2)
        rhs = n * n * exp(2 * f) * theta(4, u(n + 1), q, pw) \
            * theta(4, u(n - 1), q, pw) / th4 ** 2
        return rounded(abs((lhs - rhs) / rhs), p)
