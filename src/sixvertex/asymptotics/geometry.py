"""Saddle-point endpoint geometry of the eigenvalue density.

fe and d admit closed-form endpoints.  In af the support splits into two
bands around a saturated core, parameterized by elliptic functions with nome
q = exp(-pi^2/(2*gamma)).  The endpoints are theta quotients at
v = pi*(1-zeta)/4 in that nome (DLMF 22.2, 22.16(iii)), each beta' plus one
term, so no root-finding is involved and no large terms cancel as
|zeta| -> 1.  The chemical-potential balance between the two bands is
exposed as a residual check, on the independent Landen route.
"""

from __future__ import annotations

from typing import NamedTuple

from mpmath import mp, mpf, tan, tanh, cosh, sinh, pi

from ..errors import (DegenerateGeometryError, PhaseDomainError,
                      PrecisionExhaustedError)
from ..exactcore import PHASE_AF, PHASE_D, PHASE_FE, PhaseParams
from ..precision import Precision, rounded
from ..specfun import _landen, elliptic_data_from_gamma, theta_all


class SaddleGeometry(NamedTuple):
    """Support endpoints of the limiting eigenvalue density, kept to bits+32.

    fe: alpha = coth(t_e/2), beta = tanh(t_e/2), t_e = t - |gamma| = edge;
        their product is 1.  The density lives on [0, alpha] and saturates
        at 1 on [0, beta].
    d:  single band [alpha, beta], alpha < 0 < beta, (-alpha)*beta = pi^2.
    af: alpha < alpha_prime < 0 < beta_prime < beta; [alpha_prime,
        beta_prime] is saturated at 1/(2*gamma); the elliptic data are
        ``elliptic_data_from_gamma(gamma, Precision(bits + 32))``.

    support (lo, hi), the saturated intervals and the density's bound (1 in
    fe, 1/(2*gamma) in af, +inf in d, a smooth measure) restate the above.
    """

    alpha: object
    beta: object
    support: tuple
    saturated: tuple
    bound: object
    alpha_prime: object = None
    beta_prime: object = None


def endpoints(params: PhaseParams, p: Precision = Precision()) -> SaddleGeometry:
    """Endpoint geometry for a validated phase point, kept to the bits+32 it
    is computed at, which :func:`rho_at` needs near a support end.

    af: theta_j = theta_j(v, q) at v = pi*(1-zeta)/4 = pi*u/(2K) give
    beta' = pi theta_4'/theta_4 = 2K Z(u) and, each beta' plus one term,
    beta = beta' + 2K k' theta_2 theta_3/(theta_1 theta_4) (2K cn dn/sn),
    alpha = beta' - 2K theta_1 theta_3/(theta_2 theta_4) (2K sn dn/cn) and
    alpha' = beta' - 2K k theta_1 theta_2/(theta_3 theta_4) (2K k^2 sn cn/dn).
    """
    with p.work(64):
        # tan, theta_1 and theta_2 near a pole or zero as |zeta| -> 1
        # amplify a rounding of these: keep bits+64
        v, w = pi * (1 - params.zeta) / 4, pi * (1 + params.zeta) / 4
    with p.work():
        if params.phase == PHASE_FE:
            alpha = cosh(params.edge / 2) / sinh(params.edge / 2)
            beta = tanh(params.edge / 2)
            return SaddleGeometry(alpha, beta, (mpf(0), alpha),
                                  ((mpf(0), beta),), mpf(1))
        if params.phase == PHASE_D:
            alpha, beta = -pi * tan(v), pi * tan(w)
            return SaddleGeometry(alpha, beta, (alpha, beta), (), mp.inf)

        # af: elliptic parameterization
        if params.edge < params.gamma * mpf(2) ** (-p.bits // 2):
            raise DegenerateGeometryError(   # 1 - |zeta| = edge/gamma
                "af geometry degenerates at zeta = +/-1 (t -> +/-gamma)")
        pp = Precision(p.bits + 32)
        ell = elliptic_data_from_gamma(params.gamma, pp)
        K, q = mpf(ell.bigK), ell.q
        th = theta_all(v, q, pp)
        th1, th2, th3, th4 = (row[0] for row in th)
        beta_prime = pi * th[3][1] / th4
        beta = beta_prime + 2 * K * ell.kprime * th2 * th3 / (th1 * th4)
        alpha = beta_prime - 2 * K * th1 * th3 / (th2 * th4)
        alpha_prime = beta_prime - 2 * K * ell.k * th1 * th2 / (th3 * th4)
        return SaddleGeometry(
            alpha, beta, (alpha, beta), ((alpha_prime, beta_prime),),
            1 / (2 * params.gamma), alpha_prime, beta_prime)


def chemb_residual(params: PhaseParams, geom: SaddleGeometry,
                   p: Precision = Precision()):
    """Residual of the two-band chemical-potential balance (af phase),

        (beta' - (beta - beta') * sn/(cn*dn) * Z(u_inf)) / min(1, |beta'|),

    u_inf = K(1 - zeta)/2, relative where beta' < 1 (it is 1e-42 at
    gamma = 0.05) and never looser than the absolute residual.  sn, cn, dn
    and Z come from one descending Landen pass over the AGM of the gamma's
    k and k' (``specfun._landen``), independent of the theta quotients that
    built the geometry, so a small residual certifies beta and beta'.  Once
    k' < 2^(-bits/2) the rounded k holds almost none of 1 - k and the pass
    loses about 2 log2(1/cn) bits, which more working bits do not restore:
    where that exceeds bits it raises PrecisionExhaustedError.
    """
    if params.phase != PHASE_AF:
        raise PhaseDomainError("chemical-potential residual applies to af only")
    with p.work():
        pp = Precision(p.bits + 32)
        ell = elliptic_data_from_gamma(params.gamma, pp)
        u_inf = ell.bigK * (1 - params.zeta) / 2
        sn, cn, dn, Z = _landen(u_inf, ell.k, ell.kprime, pp)
        if cn ** 2 < mpf(2) ** -p.bits:
            raise PrecisionExhaustedError(
                f"chemical-potential residual loses about "
                f"{mp.nstr(-2 * mp.log(cn, 2), 4)} of {p.bits} bits; raise bits")
        bp = mpf(geom.beta_prime)
        resid = bp - (mpf(geom.beta) - bp) * (sn / (cn * dn)) * Z
        resid /= min(1, abs(bp))
    return rounded(resid, p)
