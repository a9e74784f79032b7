"""Saddle-point endpoint geometry of the eigenvalue density.

fe and d admit closed-form endpoints.  In af the support splits into two
bands around a saturated core, parameterized by elliptic functions with nome
q = exp(-pi^2/(2*gamma)); the endpoints follow from Jacobi sn/cn/dn and the
Zeta function at u_inf = K(1-zeta)/2, so no root-finding is involved.  The
chemical-potential balance between the two bands is exposed as a residual
check instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, tan, tanh, cosh, sinh, pi

from ..errors import DegenerateGeometryError, PhaseDomainError
from ..exactcore import PHASE_AF, PHASE_D, PHASE_FE, PhaseParams
from ..precision import Precision, rounded
from ..specfun import (EllipticData, elliptic_data_from_gamma, jacobi_sn_cn_dn,
                       jacobi_zeta, jacobi_zeta_from_E)


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

    phase: str
    alpha: object
    beta: object
    alpha_prime: object = None
    beta_prime: object = None
    elliptic: EllipticData = None
    u_inf: object = None


def endpoints(params: PhaseParams, p: Precision = Precision()) -> SaddleGeometry:
    """Endpoint geometry for a validated phase point."""
    if params.phase == PHASE_FE:
        with p.work():
            t_e = mpf(params.t) - abs(mpf(params.gamma))
            alpha = cosh(t_e / 2) / sinh(t_e / 2)
            beta = tanh(t_e / 2)
        return SaddleGeometry(PHASE_FE, rounded(alpha, p), rounded(beta, p))

    if params.phase == PHASE_D:
        with p.work():
            zeta = mpf(params.zeta)
            alpha = -pi * tan(pi * (1 - zeta) / 4)
            beta = pi * tan(pi * (1 + zeta) / 4)
        return SaddleGeometry(PHASE_D, rounded(alpha, p), rounded(beta, p))

    # af: elliptic parameterization
    with p.work():
        zeta = mpf(params.zeta)
        if abs(abs(zeta) - 1) < mpf(2) ** (-p.bits // 2):
            raise DegenerateGeometryError(
                "af geometry degenerates at zeta = +/-1 (t -> +/-gamma)")
        pp = Precision(p.bits + 32)
        ell = elliptic_data_from_gamma(params.gamma, pp)
        K = mpf(ell.bigK)
        u_inf = K * (1 - zeta) / 2
        sn, cn, dn = jacobi_sn_cn_dn(u_inf, ell.k, pp)
        Z = jacobi_zeta(u_inf, ell.k, pp)
        beta_prime = 2 * K * Z
        beta = beta_prime + 2 * K * cn * dn / sn
        alpha = beta - 2 * K * dn / (sn * cn)
        alpha_prime = beta - 2 * K * cn / (sn * dn)
    return SaddleGeometry(
        PHASE_AF,
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

    The Zeta value here comes from the Landen route
    (:func:`~sixvertex.specfun.jacobi_zeta_from_E`, sum c_n sin phi_n over
    the descending amplitudes), independent of the theta-series route that
    built the geometry, so a small residual really does certify mutual
    consistency of the endpoint equations.
    """
    if geom.phase != PHASE_AF:
        raise PhaseDomainError("chemical-potential residual applies to af only")
    with p.work():
        pp = Precision(p.bits + 32)
        sn, cn, dn = jacobi_sn_cn_dn(geom.u_inf, geom.elliptic.k, pp)
        Z_indep = jacobi_zeta_from_E(geom.u_inf, geom.elliptic.k, pp)
        resid = mpf(geom.beta_prime) - (mpf(geom.beta) - mpf(geom.beta_prime)) \
            * (sn / (cn * dn)) * Z_indep
    return rounded(resid, p)
