"""Closed forms for the limiting eigenvalue density: resolvent, values, mass.

Nothing here integrates numerically: fe and d are elementary, and in af each
is an elliptic integral over P = (x-alpha)(x-alpha')(x-beta')(x-beta) in
Carlson's closed forms.  The resolvent omega(z) = int_z^inf dx / sqrt P(x) is
one complex R_F (:func:`_af_omega`), which on a band also gives the saddle
equation's boundary value omega(mu + i0); the density is a band integral of
1/sqrt|P| from a root of P, one real R_F (:func:`_band_integral`); the
normalization is complete integrals of the first and third kinds.
"""

from __future__ import annotations

from mpmath import (mpf, mpc, sqrt, log, pi, conj, re, im, atan, fprod,
                    elliprf, ellipk, ellippi)

from ..errors import DomainError
from ..exactcore import PHASE_AF, PHASE_D, PHASE_FE, PhaseParams
from ..precision import Precision, rounded
from .geometry import SaddleGeometry


def _fe_omega(params, geom, z):
    lo, hi = mpf(geom.beta), mpf(geom.alpha)
    return params.edge - 2 * log((sqrt(lo * (z - hi)) + sqrt(hi * (z - lo)))
                                 / sqrt(z * (hi - lo)))


def _d_omega(params, geom, z):
    zeta = mpf(params.zeta)
    al, be = mpf(geom.alpha), mpf(geom.beta)
    return (1 - zeta) / 2 + (2 / (mpc(0, 1) * pi)) * log(
        (sqrt(be * (z - al)) - mpc(0, 1) * sqrt(-al * (z - be)))
        / sqrt(z * (be - al)))


def _af_roots(geom):
    return (mpf(geom.alpha), mpf(geom.alpha_prime),
            mpf(geom.beta_prime), mpf(geom.beta))


def _af_omega(params, geom, z):
    """Integral of 1/sqrt(quartic) from z to +infinity, z off the support.

    Carlson's 2 R_F(U_12^2, U_13^2, U_14^2) (DLMF 19.29.4 with x -> inf),
    with y_j = sqrt(z - r_j) principal roots, which pin the cuts to the
    bands, and U_12 = y_1 y_2 + y_3 y_4, U_13 = y_1 y_3 + y_2 y_4,
    U_14 = y_1 y_4 + y_2 y_3.  Homogeneity takes U_12 out of R_F with its
    sign: the root sqrt(U_12^2) would flip the sign on the left half-plane.
    For real z on a band the principal roots give omega(z + i0).
    """
    y1, y2, y3, y4 = (sqrt(z - r) for r in _af_roots(geom))
    u12 = y1 * y2 + y3 * y4
    return 2 / u12 * elliprf(1, ((y1 * y3 + y2 * y4) / u12) ** 2,
                             ((y1 * y4 + y2 * y3) / u12) ** 2)


def resolvent(params: PhaseParams, geom: SaddleGeometry, z,
              p: Precision = Precision()):
    """omega(z) = int rho(mu)/(z - mu) dmu for z off the support."""
    with p.work():
        z = mpc(z)
        if im(z) < 0:
            # real measure: omega(conj z) = conj(omega(z))
            return conj(resolvent(params, geom, conj(z), p))
        lo, hi = geom.support
        if im(z) == 0 and lo <= re(z) <= hi:
            raise DomainError("z on the support; use rho_at for the density")
        out = _OMEGA[params.phase](params, geom, z)
        return mpc(rounded(re(out), p), rounded(im(out), p))


def _rho_fe(params, geom, mu, p):
    lo, hi = mpf(geom.beta), mpf(geom.alpha)
    if not lo < mu < hi:   # saturated on [0, lo], empty off [0, hi]
        return mpf(1 if 0 <= mu <= lo else 0)
    return 2 / pi * atan(sqrt(lo * (hi - mu) / (hi * (mu - lo))))


def _rho_d(params, geom, mu, p):
    al, be = mpf(geom.alpha), mpf(geom.beta)
    if not al < mu < be:
        return mpf(0)
    # log(0) = -inf puts rho = inf at the log singularity mu = 0
    return abs(2 / pi ** 2 * (log(sqrt(be * (mu - al)) + sqrt(-al * (be - mu)))
                              - log(abs(mu) * (be - al)) / 2))


def _band_integral(roots, r0, y):
    """int dx / sqrt|P(x)| from the root r0 to y, no root strictly between.

    This is g F(phi, m) (Byrd-Friedman 251.00-257.00), with
    g = 2 / sqrt((beta - alpha')(beta' - alpha)) and the cross-ratio
    m = (beta - beta')(alpha' - alpha) / ((beta - alpha')(beta' - alpha)).
    x -> 1/(x - r0) turns P into a cubic and gives the same integral in
    Carlson's symmetric form, 2 R_F(u_1, u_2, u_3) / sqrt(prod |r - r0|)
    with u_r = |r - y| / (|y - r0| |r - r0|) over the other three roots r.
    Each u_r is a ratio of root differences: no amplitude phi is formed and
    nothing cancels near either band end.  y the band's other root gives
    the full band, g K(m).
    """
    others = [r for r in roots if r != r0]
    u = [abs((r - y) / ((y - r0) * (r - r0))) for r in others]
    return 2 * elliprf(*u) / sqrt(abs(fprod(r - r0 for r in others)))


def _rho_af(params, geom, mu, p):
    # rho = |Im omega(mu + i0)| / pi, and Im(1/sqrt P(x + i0)) is
    # -1/sqrt|P| on the outer band, +1/sqrt|P| on the inner one, 0 elsewhere.
    # Both full bands are g K(m), so pi rho is the part of mu's band on the
    # far side of mu from the saturated core, and a full band on the core.
    al, alp, bep, be = roots = _af_roots(geom)
    if not al < mu < be:
        return mpf(0)
    if mu <= alp:
        return _band_integral(roots, al, mu) / pi
    return _band_integral(roots, be, max(mu, bep)) / pi


def _norm_af(params, geom):
    al, alp, bep, be = _af_roots(geom)
    g = 2 / sqrt((be - alp) * (bep - al))
    m = (be - bep) * (alp - al) / ((be - alp) * (bep - al))
    pis = ellippi(-(alp - al) / (be - alp), m) \
        + ellippi(-(be - bep) / (bep - al), m)
    bands = (be - al) * pis - (be + bep - al - alp) * ellipk(m)
    return g * bands / pi + (bep - alp) / (2 * mpf(params.gamma))


_OMEGA = {PHASE_FE: _fe_omega, PHASE_D: _d_omega, PHASE_AF: _af_omega}
_RHO = {PHASE_FE: _rho_fe, PHASE_D: _rho_d, PHASE_AF: _rho_af}
_NORM = {PHASE_FE: lambda params, geom: sqrt(geom.alpha * geom.beta),
         PHASE_D: lambda params, geom: sqrt(-geom.alpha * geom.beta) / pi,
         PHASE_AF: _norm_af}


def rho_at(params: PhaseParams, geom: SaddleGeometry, mu,
           p: Precision = Precision()):
    """Density rho(mu) = |Im omega(mu + i0)| / pi at a single point.

    Near an end of the support rho goes like sqrt(end - mu) and amplifies
    the end's rounding by about end / (2 (end - mu)); with the geometry at
    bits+32 the result is good to 2^(-bits+8) relative, losing no bit, to
    1e-10 of the support's width from an end, and loses at most 8 bits at
    1e-12.
    """
    with p.work():
        out = _RHO[params.phase](params, geom, mpf(mu), p)
    return rounded(out, p)


def density_normalization(params: PhaseParams, geom: SaddleGeometry,
                          p: Precision = Precision()):
    """int rho(mu) dmu over the support, in closed form in the endpoints.

    By parts, int rho = -int mu rho'(mu) dmu, as mu rho is 0 at both ends.
    fe: rho' lives on (beta, alpha), where rho = 2u/pi at
    mu(u) = alpha beta / (alpha sin^2 u + beta cos^2 u), which gives
    (2/pi) int_0^(pi/2) mu(u) du = sqrt(alpha beta).  d: rho = (2/pi^2) L,
    mu L' = -sqrt(-alpha beta) / (2 sqrt((mu - alpha)(beta - mu))), which
    gives sqrt(-alpha beta)/pi.  Both are 1 at the saddle endpoints.  af:
    rho on a band is a band integral up to a band end; swapping the
    integrations leaves, over pi sqrt|P(x)| dx, (x - beta') on [beta', beta]
    for the outer band and (alpha' - alpha) on [beta', beta] less
    (x - alpha) on [alpha, alpha'] for the inner one.  With g and m of
    :func:`_band_integral`, those are g ((beta - alpha) Pi(n_2|m)
    - (beta' - alpha) K(m)), g K(m) and g (beta - alpha) (K(m) - Pi(n_1|m)),
    n_1 = -(alpha' - alpha) / (beta - alpha') and
    n_2 = -(beta - beta') / (beta' - alpha) (Byrd-Friedman 251-257).  The
    saturated core adds (beta' - alpha') / (2 gamma).
    """
    with p.work():
        out = _NORM[params.phase](params, geom)
    return rounded(out, p)


def saddle_residual(params: PhaseParams, geom: SaddleGeometry, mu,
                    p: Precision = Precision()):
    """Residual of the variational equation on the unsaturated support:

        omega(mu+i0) + omega(mu-i0) - V'(mu)

    with V' = 2*edge for fe and sign(mu) - zeta for d/af: twice the real part
    of the closed-form omega(mu + i0), which is the same on both sides of
    the cut.  mu off the support, on a saturated interval (both read from
    the geometry) or at the jump mu = 0 of V' raises DomainError.
    """
    with p.work():
        mu = mpf(mu)
        if params.phase == PHASE_FE:
            target = 2 * params.edge
        else:
            target = (1 if mu > 0 else -1) - mpf(params.zeta)
        (lo, hi), sat = geom.support, geom.saturated
        if not lo < mu < hi or mu == 0 or any(a <= mu <= b for a, b in sat):
            raise DomainError("mu is off the unsaturated support")
        out = 2 * re(_OMEGA[params.phase](params, geom, mpc(mu))) - target
    return rounded(out, p)
