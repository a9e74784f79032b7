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

from dataclasses import dataclass

from mpmath import mpf, tan, tanh, cosh, sinh, pi

from ..errors import DegenerateGeometryError, PhaseDomainError
from ..exactcore import PHASE_AF, PHASE_D, PHASE_FE, PhaseParams
from ..precision import Precision, rounded
from ..specfun import (EllipticData, _landen, elliptic_data_from_gamma,
                       theta_all)


@dataclass(frozen=True)
class SaddleGeometry:
    """Support endpoints of the limiting eigenvalue density.

    fe: alpha = coth(t_e/2), beta = tanh(t_e/2) with t_e the gamma-shifted
        parameter; their product is 1.  The density lives on
        [0, max(alpha, beta)] and saturates at 1 on [0, min(alpha, beta)].
    d:  single band [alpha, beta], alpha < 0 < beta, (-alpha)*beta = pi^2.
    af: alpha < alpha_prime < 0 < beta_prime < beta; [alpha_prime,
        beta_prime] is saturated at 1/(2*gamma); elliptic and u_inf carry the
        parameterization.
    """

    alpha: object
    beta: object
    alpha_prime: object = None
    beta_prime: object = None
    elliptic: EllipticData = None
    u_inf: object = None


def endpoints(params: PhaseParams, p: Precision = Precision()) -> SaddleGeometry:
    """Endpoint geometry for a validated phase point.

    af: theta_j = theta_j(v, q) at v = pi*(1-zeta)/4 = pi*u_inf/(2K) give
    beta' = pi theta_4'/theta_4 = 2K Z(u_inf) and, each beta' plus one term,
    beta = beta' + 2K k' theta_2 theta_3/(theta_1 theta_4) (2K cn dn/sn),
    alpha = beta' - 2K theta_1 theta_3/(theta_2 theta_4) (2K sn dn/cn) and
    alpha' = beta' - 2K k theta_1 theta_2/(theta_3 theta_4) (2K k^2 sn cn/dn).
    """
    if params.phase == PHASE_FE:
        with p.work():
            t_e = mpf(params.t) - abs(mpf(params.gamma))
            alpha = cosh(t_e / 2) / sinh(t_e / 2)
            beta = tanh(t_e / 2)
        return SaddleGeometry(rounded(alpha, p), rounded(beta, p))

    if params.phase == PHASE_D:
        with p.work():
            zeta = mpf(params.zeta)
            alpha = -pi * tan(pi * (1 - zeta) / 4)
            beta = pi * tan(pi * (1 + zeta) / 4)
        return SaddleGeometry(rounded(alpha, p), rounded(beta, p))

    # af: elliptic parameterization
    with p.work():
        zeta = mpf(params.zeta)
        if abs(abs(zeta) - 1) < mpf(2) ** (-p.bits // 2):
            raise DegenerateGeometryError(
                "af geometry degenerates at zeta = +/-1 (t -> +/-gamma)")
        pp = Precision(p.bits + 32)
        ell = elliptic_data_from_gamma(params.gamma, pp)
        K, q = mpf(ell.bigK), ell.q
        v = pi * (1 - zeta) / 4
        th = theta_all(v, q, pp)
        th1, th2, th3, th4 = (row[0] for row in th)
        beta_prime = pi * th[3][1] / th4
        beta = beta_prime + 2 * K * ell.kprime * th2 * th3 / (th1 * th4)
        alpha = beta_prime - 2 * K * th1 * th3 / (th2 * th4)
        alpha_prime = beta_prime - 2 * K * ell.k * th1 * th2 / (th3 * th4)
        u_inf = K * (1 - zeta) / 2
    return SaddleGeometry(
        rounded(alpha, p),
        rounded(beta, p),
        alpha_prime=rounded(alpha_prime, p),
        beta_prime=rounded(beta_prime, p),
        elliptic=ell,
        u_inf=rounded(u_inf, p),
    )


def chemb_residual(params: PhaseParams, geom: SaddleGeometry,
                   p: Precision = Precision()):
    """Residual of the two-band chemical-potential balance (af phase),

        beta' - (beta - beta') * sn/(cn*dn) * Z(u_inf).

    sn, cn, dn and Z come from one descending Landen pass over the AGM of k
    (``specfun._landen``, behind ``jacobi_sn_cn_dn`` and ``jacobi_zeta``),
    independent of the theta quotients that built the geometry, so a small
    residual certifies beta and beta' against it.
    """
    if params.phase != PHASE_AF:
        raise PhaseDomainError("chemical-potential residual applies to af only")
    with p.work():
        pp = Precision(p.bits + 32)
        sn, cn, dn, Z = _landen(geom.u_inf, geom.elliptic.k, pp)
        resid = mpf(geom.beta_prime) - (mpf(geom.beta) - mpf(geom.beta_prime)) \
            * (sn / (cn * dn)) * Z
    return rounded(resid, p)
