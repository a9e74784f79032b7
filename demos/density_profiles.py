"""Limiting eigenvalue densities in the three phases.

Ferroelectric: support [0, coth(t_e/2)], saturated at rho = 1 on
[0, tanh(t_e/2)].  Disordered: one smooth band with an integrable
log singularity at the origin.  Antiferroelectric: two bands around a core
saturated at 1/(2 gamma).  Each profile integrates to 1.
"""

from mpmath import mp, mpf

from sixvertex import (Precision, density, density_normalization, endpoints,
                       phase_params)


def show(phase, t, g, grid, p):
    with mp.workprec(p.bits + 32):
        prm = phase_params(phase, mpf(t), mpf(g), p)
    geom = endpoints(prm, p)
    prof = density(prm, geom, grid, p)
    lo, hi = prof.support
    print(f"== {phase}: t={t}, gamma={g} ==")
    print(f"  support [{mp.nstr(mpf(lo), 8)}, {mp.nstr(mpf(hi), 8)}]  "
          f"bound = {prof.bound if prof.bound != mp.inf else 'none'}")
    for a, b in prof.saturated_intervals:
        print(f"  saturated interval [{mp.nstr(mpf(a), 8)}, {mp.nstr(mpf(b), 8)}]")
    for mu, rho in prof.grid:
        bar = "#" * int(40 * float(rho) / max(float(r) for _, r in prof.grid))
        print(f"  mu={mp.nstr(mpf(mu), 8):12s} rho={mp.nstr(mpf(rho), 8):12s} {bar}")
    norm = density_normalization(prm, geom, p)
    print(f"  integral of rho: {mp.nstr(norm, 12)}\n")


show("fe", "1.5", "0.4", 14, Precision(96))
show("d", "0.3", "1.0", 14, Precision(96))
show("af", "0.3", "1.0", 14, Precision(96))
