"""The oscillating subleading factor in the antiferroelectric regime.

log(tau_N/c_N) - N^2 f keeps oscillating with N; dividing out
theta_4((pi/2)(1+zeta)N) (same nome as f) turns the sequence into one that
settles toward a constant.  With every t-derivative in closed form
(f'' and (log theta_4)''), the fe and d free energies satisfy f'' = exp(2f)
to rounding; the af bulk f alone fails it, while the theta-modulated form
satisfies the bilinear (Toda) identity to rounding; both facts are shown
below.  The disordered phase carries instead a smooth power-law correction
whose exponent is fitted.
"""

from mpmath import mp, mpf, pi

from sixvertex import (Precision, ode_check, phase_params, smooth_fit_D,
                       subleading_AF_fit, tau_sequence)

p = Precision(320)

print("== modulated ratios r_N (af, gamma=1, zeta=0) ==")
with mp.workprec(352):
    prm = phase_params("af", mpf(0), mpf(1), p)
taus = tau_sequence(prm, 16, p)[1:]          # N = 2..16
ratios, spread = subleading_AF_fit(taus, prm, p)
raw, spread_raw = subleading_AF_fit(taus, prm, p, subtract_theta=False)
print("   N   with theta_4        without (control)")
for n, r, rr in zip(range(2, 17), ratios, raw):
    print(f"  {n:2d}   {mp.nstr(r, 10):16s}    {mp.nstr(rr, 10)}")
print(f"  top-half spread: {mp.nstr(spread, 6)} (modulated)  "
      f"vs {mp.nstr(spread_raw, 6)} (control)")

print("\n== bilinear (second-derivative) test, derivatives in closed form ==")
p128 = Precision(128)
for phase, t, g in (("fe", "1.5", "0.4"), ("d", "0.3", "1.0")):
    with mp.workprec(160):
        prm2 = phase_params(phase, mpf(t), mpf(g), p128)
    print(f"  {phase}: closed-form residual = {mp.nstr(ode_check(prm2, p128), 4)}")
with mp.workprec(160):
    prm2 = phase_params("af", mpf("0.3"), mpf("1.0"), p128)
print(f"  af, bulk f alone:        residual = "
      f"{mp.nstr(ode_check(prm2, p128, theta_factor=False), 4)}   <- fails")
with mp.workprec(160):
    prm2 = phase_params("af", mpf("0.2"), mpf("1.0"), p128)
print(f"  af, theta-modulated (N=6): residual = "
      f"{mp.nstr(ode_check(prm2, p128, n=6), 4)}   <- passes")

print("\n== disordered phase: smooth correction exponent (ice point) ==")
with mp.workprec(352):
    ice = phase_params("d", mpf(0), pi / 3, p)
taus_d = tau_sequence(ice, 20, p)[5:]        # N = 6..20
_, kappa, const, resid = smooth_fit_D(taus_d, ice, p)
print(f"  r_N ~ kappa log N + const: kappa = {kappa:.5f}, const = {const:.5f}"
      f" (max fit residual {resid:.2e})")
print("  (reported, not asserted; -5/36 ~ -0.13889 is the known ice-point value)")
