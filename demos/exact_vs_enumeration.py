"""Exact finite-size partition functions two ways.

The N x N partition function with domain-wall boundaries is computed both by
brute-force enumeration of all ice configurations and by the scaled Hankel
determinant; the two must agree to working precision.  At the symmetric
trigonometric point the values are (sqrt3/2)^(N^2) times the alternating-
sign-matrix counts 1, 2, 7, 42, 429, ...
"""

from mpmath import mp, mpf, sqrt, pi

from sixvertex import (Precision, Z_bruteforce, asm_count, enumerate_dwbc,
                       partition_Z, phase_params, weights_from)
from sixvertex.oracle import MAX_ENUM_N

p = Precision(192)

print("== ASM counts from enumeration ==")
for n in range(1, MAX_ENUM_N + 1):
    print(f"  A({n}) = {asm_count(n)}")

print("\n== census at N=3 (n_a, n_b, n_c) : multiplicity ==")
for triple, mult in enumerate_dwbc(3).census:
    print(f"  {triple} : {mult}")

print("\n== determinant vs enumeration at an interior af point ==")
with mp.workprec(224):
    prm = phase_params("af", mpf("0.3"), mpf("1.0"), p)
w = weights_from(prm, p)
print(f"  weights a={mp.nstr(w.a, 10)} b={mp.nstr(w.b, 10)} c={mp.nstr(w.c, 10)}")
for n in range(1, 6):
    z_det = partition_Z(prm, n, p)
    z_bf = Z_bruteforce(n, w.a, w.b, w.c, p)
    with mp.workprec(224):
        rel = abs((z_det - z_bf) / z_bf)
    print(f"  N={n}: Z={mp.nstr(z_det, 15)}   |det-enum|/Z = {mp.nstr(rel, 3)}")

print("\n== ice point: Z_N = (sqrt3/2)^(N^2) A(N) ==")
with mp.workprec(224):
    ice = phase_params("d", mpf(0), pi / 3, p)
    scale = sqrt(mpf(3)) / 2
for n in range(1, 6):
    z = partition_Z(ice, n, p)
    with mp.workprec(224):
        ratio = z / scale ** (n * n)
    print(f"  N={n}: Z / (sqrt3/2)^(N^2) = {mp.nstr(ratio, 12)}   A({n}) = {asm_count(n)}")

print("\n== free-fermion point: Z_N(1,1,sqrt2) = 2^(N^2/2) ==")
with mp.workprec(224):
    c = sqrt(mpf(2))
for n in range(1, 6):
    z = Z_bruteforce(n, mpf(1), mpf(1), c, p)
    with mp.workprec(224):
        tilings = mpf(2) ** (mpf(n) / 2) * z
    print(f"  N={n}: Z = {mp.nstr(z, 12)} = 2^{n * n}/2 ;"
          f"  2^(N/2) Z = {mp.nstr(tilings, 12)} (domino tilings of order {n})")
