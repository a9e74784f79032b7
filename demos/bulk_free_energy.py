"""Bulk free energy across the three phases, checked against finite N.

f = lim log(tau_N/c_N)/N^2 has closed forms in all phases; in the
antiferroelectric one it involves theta functions of nome exp(-pi^2/2gamma).
The finite-size sequence log(tau_N/c_N)/N^2 drifts toward f like 1/N, and
the derivative of f with respect to zeta = t/gamma equals the endpoint
combination of the saddle geometry.
"""

from mpmath import mp, mpf, exp, pi

from sixvertex import (Precision, bulk_f, dfdzeta, elliptic_data_from_gamma,
                       endpoints, phase_params, tau_sequence)

p = Precision(256)

print("== closed forms at one interior point per phase ==")
for phase, t, g in (("fe", "1.5", "0.4"), ("d", "0.3", "1.0"),
                    ("af", "0.3", "1.0")):
    with mp.workprec(288):
        prm = phase_params(phase, mpf(t), mpf(g), p)
    fe = bulk_f(prm, p)
    print(f"  {phase}: f = {mp.nstr(fe.f, 15)}   "
          f"lim Z^(1/N^2) = {mp.nstr(fe.z_limit, 15)}")

print("\n== finite-N drift toward f (af, gamma=1, zeta=0.3) ==")
with mp.workprec(288):
    prm = phase_params("af", mpf("0.3"), mpf("1.0"), p)
fe = bulk_f(prm, p)
taus = tau_sequence(prm, 16, p)
for n in (2, 4, 8, 12, 16):
    tv = taus[n - 1]
    with mp.workprec(288):
        approx = mpf(tv.log_scaled) / n ** 2
        rel = (approx - mpf(fe.f)) / mpf(fe.f)
    print(f"  N={n:2d}: log(tau/c)/N^2 = {mp.nstr(approx, 12)}  rel dev = {mp.nstr(rel, 4)}")
print(f"  f            = {mp.nstr(fe.f, 12)}")

print("\n== derivative identity: endpoints vs theta form (af) ==")
for t in ("-0.6", "-0.2", "0.2", "0.6"):
    with mp.workprec(288):
        prm = phase_params("af", mpf(t), mpf("1.0"), p)
    ep, closed = dfdzeta(prm, p)
    with mp.workprec(288):
        diff = abs(ep - closed)
    print(f"  zeta={t}: (a+a'+b'+b)/4 = {mp.nstr(ep, 15)}  |diff| = {mp.nstr(diff, 3)}")

print("\n== af endpoints and elliptic data (gamma=1, zeta=0.3) ==")
with mp.workprec(288):
    prm = phase_params("af", mpf("0.3"), mpf("1.0"), p)
geom = endpoints(prm, p)
q = elliptic_data_from_gamma(prm.gamma, p).q
with mp.workprec(288):
    print(f"  alpha={mp.nstr(geom.alpha, 10)}  alpha'={mp.nstr(geom.alpha_prime, 10)}"
          f"  beta'={mp.nstr(geom.beta_prime, 10)}  beta={mp.nstr(geom.beta, 10)}")
    print(f"  nome q = {mp.nstr(q, 10)} "
          f"(= exp(-pi^2/2) = {mp.nstr(exp(-pi ** 2 / 2), 10)}; depends on gamma only)")
