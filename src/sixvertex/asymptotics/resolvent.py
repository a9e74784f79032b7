"""Resolvent of the limiting eigenvalue density and the density itself.

fe and d use the closed-form resolvents; af evaluates the quartic-root
integral along a support-avoiding path.  The quartic square root is assembled
from principal square roots of the four linear factors, which pins its branch
cuts exactly to the two support bands; paths keep a fixed imaginary part so
every factor stays on one branch.

Density values come from the imaginary part of the resolvent just above the
axis: closed forms tolerate an offset near the working epsilon, while the af
quadrature uses the documented offsets {1e-3, 1e-4, 1e-5} with two rounds of
Richardson extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, mpc, sqrt, log, pi, quad, conj, re, im

from ..errors import DomainError
from ..exactcore import PHASE_AF, PHASE_D, PHASE_FE, PhaseParams
from ..precision import Precision, rounded
from .geometry import SaddleGeometry

_RICHARDSON_EPS = ("1e-3", "1e-4", "1e-5")


@dataclass(frozen=True)
class DensityProfile:
    """Sampled limiting density with its saturation data.

    bound is 1 in the rescaled fe variables, 1/(2*gamma) in af, and +inf in
    d (smooth measure, no discreteness constraint).
    """

    grid: tuple                 # ((mu, rho), ...)
    saturated_intervals: tuple  # ((lo, hi), ...)
    bound: object
    support: tuple              # (lo, hi)


def _fe_omega(params, geom, z):
    t_e = mpf(params.t) - abs(mpf(params.gamma))
    lo = min(mpf(geom.alpha), mpf(geom.beta))   # saturation boundary
    hi = max(mpf(geom.alpha), mpf(geom.beta))   # support endpoint
    return t_e - 2 * log((sqrt(lo * (z - hi)) + sqrt(hi * (z - lo)))
                         / sqrt(z * (hi - lo)))


def _d_omega(params, geom, z):
    zeta = mpf(params.zeta)
    al, be = mpf(geom.alpha), mpf(geom.beta)
    return (1 - zeta) / 2 + (2 / (mpc(0, 1) * pi)) * log(
        (sqrt(be * (z - al)) - mpc(0, 1) * sqrt(-al * (z - be)))
        / sqrt(z * (be - al)))


def _af_quartic_root(geom):
    roots = (mpf(geom.alpha), mpf(geom.alpha_prime),
             mpf(geom.beta_prime), mpf(geom.beta))

    def s(z):
        out = mpc(1)
        for r in roots:
            out *= sqrt(z - r)
        return out

    return s, roots


def _af_omega(geom, z):
    """Integral of 1/sqrt(quartic) from z to +infinity.

    The path is the horizontal ray at Im(z) (the real ray for real z right of
    the support), split at the abscissae of the remaining branch points so
    the quadrature sees the near-cut peaks as endpoints.  For real z left of
    the support the path first lifts vertically off the axis; the integrand
    is analytic off the cuts, so the value is path-independent.
    """
    s, roots = _af_quartic_root(geom)
    if im(z) == 0 and roots[0] <= re(z) <= roots[-1]:
        raise DomainError("real z on the support or in the saturated gap; "
                          "evaluate at mu + i*eps instead")
    if im(z) == 0 and re(z) < roots[0]:
        lift = mpc(re(z), 1)
        leg = quad(lambda u: 1 / s(z + mpc(0, 1) * u), [0, 1]) * mpc(0, 1)
        return leg + _af_omega(geom, lift)
    marks = sorted(r - re(z) for r in roots if r > re(z))
    segments = [mpf(0)] + marks + [mp.inf]
    offset = z

    def integrand(sdist):
        return 1 / s(offset + sdist)

    return quad(integrand, segments)


def resolvent(params: PhaseParams, geom: SaddleGeometry, z,
              p: Precision = Precision()):
    """omega(z) = int rho(mu)/(z - mu) dmu for z off the support."""
    with p.work():
        z = mpc(z)
        if im(z) < 0:
            # real measure: omega(conj z) = conj(omega(z))
            return conj(resolvent(params, geom, conj(z), p))
        if params.phase == PHASE_FE:
            if im(z) == 0 and re(z) <= max(mpf(geom.alpha), mpf(geom.beta)) \
                    and re(z) >= 0:
                raise DomainError("z on the support")
            out = _fe_omega(params, geom, z)
        elif params.phase == PHASE_D:
            if im(z) == 0 and mpf(geom.alpha) <= re(z) <= mpf(geom.beta):
                raise DomainError("z on the support")
            out = _d_omega(params, geom, z)
        else:
            out = _af_omega(geom, z)
        return mpc(rounded(re(out), p), rounded(im(out), p))


def _rho_closed(params, geom, mu, p: Precision):
    eps = mpf(2) ** (-p.bits // 2)
    om = (_fe_omega if params.phase == PHASE_FE else _d_omega)(
        params, geom, mpc(mu, eps))
    return abs(im(om)) / pi


def _rho_af(params, geom, mu, p: Precision):
    vals = []
    for e in _RICHARDSON_EPS:
        om = _af_omega(geom, mpc(mu, mpf(e)))
        vals.append(abs(im(om)) / pi)
    r1 = (10 * vals[1] - vals[0]) / 9
    r2 = (10 * vals[2] - vals[1]) / 9
    return (10 * r2 - r1) / 9


def rho_at(params: PhaseParams, geom: SaddleGeometry, mu,
           p: Precision = Precision()):
    """Density rho(mu) = |Im omega(mu + i0)| / pi at a single point."""
    with p.work():
        mu = mpf(mu)
        if params.phase == PHASE_AF:
            out = _rho_af(params, geom, mu, p)
        else:
            out = _rho_closed(params, geom, mu, p)
    return rounded(out, p)


def support_and_saturation(params: PhaseParams, geom: SaddleGeometry):
    """((lo, hi), saturated intervals, bound) of the limiting density.

    Evaluate in a working-precision context; see :class:`DensityProfile`
    for the bound.
    """
    if params.phase == PHASE_FE:
        lo_s = min(mpf(geom.alpha), mpf(geom.beta))
        hi = max(mpf(geom.alpha), mpf(geom.beta))
        return (mpf(0), hi), ((mpf(0), lo_s),), mpf(1)
    if params.phase == PHASE_D:
        return (mpf(geom.alpha), mpf(geom.beta)), (), mp.inf
    return ((mpf(geom.alpha), mpf(geom.beta)),
            ((mpf(geom.alpha_prime), mpf(geom.beta_prime)),),
            1 / (2 * mpf(params.gamma)))


def density(params: PhaseParams, geom: SaddleGeometry, grid_size: int,
            p: Precision = Precision()) -> DensityProfile:
    """Sample rho on a uniform interior grid and mark saturated intervals."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    with p.work():
        (lo, hi), sat, bound = support_and_saturation(params, geom)
        step = (hi - lo) / grid_size
        grid = []
        for i in range(grid_size):
            mu = lo + (i + mpf(1) / 2) * step
            grid.append((rounded(mu, p), rho_at(params, geom, mu, p)))
    return DensityProfile(tuple(grid), tuple(sat), bound, (rounded(lo, p),
                                                           rounded(hi, p)))


def density_normalization(params: PhaseParams, geom: SaddleGeometry,
                          p: Precision = Precision()):
    """int rho(mu) dmu over the support.

    fe/d integrate the closed-form density directly.  For af the epsilon
    offsets floor the pointwise accuracy near band edges, so the same number
    is computed as the contour integral (1/2 pi i) oint omega(z) dz over a
    rectangle enclosing the support, which uses the quadrature resolvent only
    well away from its cuts.
    """
    with p.work():
        (lo, hi), sat, _ = support_and_saturation(params, geom)
        if params.phase in (PHASE_FE, PHASE_D):
            pts = [lo] + [x for iv in sat for x in iv if lo < x < hi] + [hi]
            if params.phase == PHASE_D:
                pts.append(mpf(0))   # integrable log singularity at the kink
            margin = (hi - lo) * mpf(2) ** (-p.bits // 2)
            pts[0] += margin
            out = quad(lambda mu: _rho_closed(params, geom, mu, p), sorted(set(pts)))
            return rounded(out, p)

        height = mpf(1)
        pad = mpf(1)
        left, right = lo - pad, hi + pad
        corners = [mpc(right, -height), mpc(right, height),
                   mpc(left, height), mpc(left, -height), mpc(right, -height)]
        total = mpc(0)
        for z0, z1 in zip(corners[:-1], corners[1:]):
            # omega is analytic on the contour: fixed-order Gauss-Legendre
            # converges spectrally and keeps the number of resolvent
            # evaluations small
            seg = quad(lambda s: _af_omega(geom, z0 + (z1 - z0) * s), [0, 1],
                       method="gauss-legendre", maxdegree=6)
            total += seg * (z1 - z0)
        out = re(total / (2 * pi * mpc(0, 1)))
    return rounded(out, p)


def saddle_residual(params: PhaseParams, geom: SaddleGeometry, mu,
                    p: Precision = Precision()):
    """Residual of the variational equation on the unsaturated support:

        omega(mu+i0) + omega(mu-i0) - V'(mu)

    with V' = 2*t_e for fe and sign(mu) - zeta for d/af.  The af boundary
    value is Richardson-extrapolated in the offset like the density.
    """
    with p.work():
        mu = mpf(mu)
        if params.phase == PHASE_FE:
            target = 2 * (mpf(params.t) - abs(mpf(params.gamma)))
        else:
            target = (1 if mu > 0 else -1) - mpf(params.zeta)
        if params.phase == PHASE_AF:
            vals = []
            for e in _RICHARDSON_EPS:
                vals.append(2 * re(_af_omega(geom, mpc(mu, mpf(e)))))
            r1 = (10 * vals[1] - vals[0]) / 9
            r2 = (10 * vals[2] - vals[1]) / 9
            both = (10 * r2 - r1) / 9
        else:
            eps = mpf(2) ** (-p.bits // 2)
            om = (_fe_omega if params.phase == PHASE_FE else _d_omega)(
                params, geom, mpc(mu, eps))
            both = 2 * re(om)
        out = both - target
    return rounded(out, p)
