"""Limiting eigenvalue densities in the three phases.

Ferroelectric: support [0, coth(t_e/2)], saturated at rho = 1 on
[0, tanh(t_e/2)].  Disordered: one smooth band with an integrable
log singularity at the origin.  Antiferroelectric: two bands around a core
saturated at 1/(2 gamma).  Each profile integrates to 1.
"""

from mpmath import mp, mpf

from sixvertex import (Precision, density_normalization, endpoints,
                       phase_params, rho_at)


def show(phase, t, g, grid, p):
    with mp.workprec(p.bits + 32):
        prm = phase_params(phase, mpf(t), mpf(g), p)
    geom = endpoints(prm, p)
    with p.work():
        (lo, hi), sat, bound = geom.support, geom.saturated, geom.bound
        step = (hi - lo) / grid
        mus = [lo + (i + mpf(1) / 2) * step for i in range(grid)]
    rhos = [rho_at(prm, geom, mu, p) for mu in mus]
    print(f"== {phase}: t={t}, gamma={g} ==")
    print(f"  support [{mp.nstr(lo, 8)}, {mp.nstr(hi, 8)}]  "
          f"bound = {bound if bound != mp.inf else 'none'}")
    for a, b in sat:
        print(f"  saturated interval [{mp.nstr(a, 8)}, {mp.nstr(b, 8)}]")
    top = max(float(r) for r in rhos)
    for mu, rho in zip(mus, rhos):
        bar = "#" * int(40 * float(rho) / top)
        print(f"  mu={mp.nstr(mu, 8):12s} rho={mp.nstr(rho, 8):12s} {bar}")
    norm = density_normalization(prm, geom, p)
    print(f"  integral of rho: {mp.nstr(norm, 12)}\n")


show("fe", "1.5", "0.4", 14, Precision(96))
show("d", "0.3", "1.0", 14, Precision(96))
show("af", "0.3", "1.0", 14, Precision(96))
