"""Subleading-correction analysis of the exact tau sequence.

In the af phase log(tau_N/c_N) - N^2 f oscillates with N; dividing out the
predicted theta_4((pi/2)(1+zeta)N) factor turns it into a sequence r_N that
settles toward a constant.  The d phase instead carries a smooth power-law
correction r_N ~ kappa log N + const whose exponent is reported from a fit,
never asserted.  r_N is formed at bits+32 from tau_N/c_N, not from its
rounded log, whose absolute error grows like N^2 |f|.
"""

from __future__ import annotations

import math

from mpmath import mpf, log, pi

from ..errors import InsufficientDataError, PhaseDomainError
from ..exactcore import PHASE_AF, PHASE_D, PhaseParams
from ..precision import Precision, rounded
from ..specfun import elliptic_data_from_gamma, theta
from .freenergy import bulk_f


def _check_sequence(taus):
    if len(taus) < 4:
        raise InsufficientDataError("need at least 4 consecutive tau values")
    ns = [tv.n for tv in taus]
    if ns != list(range(ns[0], ns[0] + len(ns))):
        raise InsufficientDataError("tau values must cover consecutive N")
    return ns


def subleading_AF_fit(taus, params: PhaseParams, p: Precision = Precision(),
                      subtract_theta: bool = True):
    """Theta-modulated ratios r_N and their top-half spread (af phase).

        r_N = log(tau_N/c_N) - N^2 f - log theta_4((pi/2)(1+zeta) N, q)

    with q = exp(-pi^2/(2 gamma)).  A spread (max - min over the upper half
    of the N range) that shrinks as the window moves up evidences convergence
    of r_N to the constant of the asymptotic form.  subtract_theta=False
    omits the theta term (control experiment: the raw sequence keeps
    oscillating).
    """
    if params.phase != PHASE_AF:
        raise PhaseDomainError("theta-modulated fit applies to af only")
    ns = _check_sequence(taus)
    with p.work():
        pp = Precision(p.bits + 32)
        f = mpf(bulk_f(params, pp).f)
        q = elliptic_data_from_gamma(params.gamma, pp).q
        zeta = mpf(params.zeta)
        ratios = []
        for tv in taus:
            r = log(abs(tv.scaled_tau)) - tv.n ** 2 * f
            if subtract_theta:
                r -= log(theta(4, (pi / 2) * (1 + zeta) * tv.n, q, pp))
            ratios.append(rounded(r, p))
        half = [r for n, r in zip(ns, ratios) if 2 * n >= ns[0] + ns[-1]]
        spread = rounded(max(half) - min(half), p)
    return ratios, spread


def smooth_fit_D(taus, params: PhaseParams, p: Precision = Precision()):
    """Least-squares fit r_N = log(tau_N/c_N) - N^2 f = kappa log N + const
    in the d phase.  Returns (r_N, kappa, const, max_fit_residual): the r_N
    unrounded at bits+32, the fit as floats; kappa is a reported quantity
    (the smooth-correction exponent), not a checked one.
    """
    if params.phase != PHASE_D:
        raise PhaseDomainError("power-law fit applies to d only")
    ns = _check_sequence(taus)
    with p.work():
        f = mpf(bulk_f(params, Precision(p.bits + 32)).f)
        ratios = [log(abs(tv.scaled_tau)) - tv.n ** 2 * f for tv in taus]
    rs = [float(r) for r in ratios]
    xs = [math.log(n) for n in ns]
    n = len(xs)
    sx, sy = sum(xs), sum(rs)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, rs))
    kappa = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    const = (sy - kappa * sx) / n
    resid = max(abs(y - kappa * x - const) for x, y in zip(xs, rs))
    return ratios, kappa, const, resid
