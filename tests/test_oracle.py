"""Enumeration oracle: counts, censuses, and agreement with the determinant;
closed forms on the free-fermion line and at the ice point for large N."""

import random
from math import factorial

import pytest
from mpmath import mp, mpf, sqrt, pi

from sixvertex import (Precision, Z_bruteforce, asm_count, enumerate_dwbc,
                       partition_Z, phase_params, tau_sequence, weights_from)
from sixvertex.exactcore import z_from_tau
from sixvertex.oracle import _CHOICES, MAX_ENUM_N

P = Precision(256)

ASM = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436, 7: 218348, 8: 10850216,
       9: 911835460, 10: 129534272700}


def test_asm_sequence():
    assert MAX_ENUM_N == max(ASM)
    for n, count in ASM.items():
        assert asm_count(n) == count


def test_n1_census():
    res = enumerate_dwbc(1)
    assert res.config_count == 1
    assert res.census == (((0, 0, 1), 1),)


def test_n2_census():
    res = enumerate_dwbc(2)
    triples = sorted(t for t, m in res.census for _ in range(m))
    assert triples == [(0, 2, 2), (2, 0, 2)]


def test_census_sums_and_symmetry():
    for n in range(1, 6):
        res = enumerate_dwbc(n)
        as_dict = dict(res.census)
        for (na, nb, nc), mult in res.census:
            assert na + nb + nc == n * n
            assert as_dict.get((nb, na, nc)) == mult   # a<->b reflection
        assert sum(as_dict.values()) == ASM[n]


def test_c_count_parity():
    # n_c is odd for every configuration (N + 2 * number of (-1)s)
    for n in range(1, 6):
        for (na, nb, nc), _ in enumerate_dwbc(n).census:
            assert (nc - n) % 2 == 0


def test_choices_obey_ice_rule_and_boundary():
    # enumerate_dwbc only composes these entries, so checking each one covers
    # the ice rule and the boundary arrows of every state it counts: each
    # entry lists exactly the two-in/two-out completions, with the arrow
    # pointing right in the last column and up in the last row
    for (h_left, v_above, last_col, last_row), choices in _CHOICES.items():
        allowed = set()
        for h_right in (False, True):
            for v_below in (False, True):
                ins = ((h_left is True) + (h_right is False)
                       + (v_above is False) + (v_below is True))
                if (ins == 2 and (h_right or not last_col)
                        and (v_below or not last_row)):
                    allowed.add((h_right, v_below))
        assert {(h, v) for h, v, _ in choices} == allowed
        assert len(choices) == len(allowed)
        for h_right, v_below, kind in choices:
            pattern = (h_left, h_right, v_above, v_below)
            assert kind == (0 if pattern in ((True,) * 4, (False,) * 4)
                            else 1 if h_left == h_right else 2)


def test_out_of_range():
    with pytest.raises(ValueError):
        enumerate_dwbc(0)
    with pytest.raises(ValueError):
        enumerate_dwbc(MAX_ENUM_N + 1)


def test_free_fermion_point_and_aztec_counts():
    # At (1, 1, sqrt2): Z_N = sum (sqrt2)^(n_c) = 2^(N^2/2) (frozen from the
    # enumeration itself).  The Aztec-diamond tiling count adds the factor
    # 2^(N/2) of the vertex->domino correspondence (each tiling is weighted
    # 2^(number of +1s) = 2^((n_c+N)/2) over ASMs), giving 2^(N(N+1)/2):
    # 2, 8, 64, 1024, 32768.
    aztec = [2, 8, 64, 1024, 32768]
    with mp.workprec(300):
        c = sqrt(mpf(2))
        for n in range(1, 6):
            z = Z_bruteforce(n, mpf(1), mpf(1), c, P)
            expected = mpf(2) ** (mpf(n * n) / 2)
            assert abs((z - expected) / expected) < mpf("1e-20")
            tilings = mpf(2) ** (mpf(n) / 2) * z
            assert abs((tilings - aztec[n - 1]) / tilings) < mpf("1e-20")


def test_ones_give_asm_counts():
    for n in range(1, 6):
        z = Z_bruteforce(n, mpf(1), mpf(1), mpf(1), P)
        assert abs(z - ASM[n]) < mpf("1e-30")


def test_determinant_equivalence_random_weights():
    rng = random.Random(314)
    points = {"fe": [("1.5", "0.4"), ("2.0", "0.7"), ("1.1", "0.9")],
              "d": [("0.3", "1.0"), ("-0.2", "0.9"), ("0.55", "1.4")],
              "af": [("0.3", "1.0"), ("-0.5", "1.3"), ("0.8", "1.1")]}
    del rng  # phase points double as the random weight triples
    for phase, pts in points.items():
        for t, g in pts:
            with mp.workprec(300):
                prm = phase_params(phase, mpf(t), mpf(g), P)
            w = weights_from(prm, P)
            for n in (2, 4, 5):
                zdet = partition_Z(prm, n, P)
                zbf = Z_bruteforce(n, w.a, w.b, w.c, P)
                with mp.workprec(300):
                    assert abs((zdet - zbf) / zbf) < mpf("1e-20")


def test_determinant_equals_enumeration_beyond_six():
    # the three phase points of `check oracle`, at its tolerance 2^(-bits/2)
    tol = mpf(2) ** (-P.bits // 2)
    for phase, t, g in (("fe", "1.5", "0.4"), ("d", "0.3", "1.0"),
                        ("af", "0.3", "1.0")):
        with mp.workprec(300):
            prm = phase_params(phase, mpf(t), mpf(g), P)
        w = weights_from(prm, P)
        for n in range(7, MAX_ENUM_N + 1):
            zdet = partition_Z(prm, n, P)
            zbf = Z_bruteforce(n, w.a, w.b, w.c, P)
            with mp.workprec(300):
                assert abs((zdet - zbf) / zbf) < tol


def _asm_product(n_max):
    """A_1..A_n_max of the product formula prod_{k<N} (3k+1)!/(N+k)!, by its
    ratio A_(N+1)/A_N = N! (3N+1)! / ((2N)! (2N+1)!) in exact integers."""
    out = [1]
    for n in range(1, n_max):
        out.append(out[-1] * factorial(n) * factorial(3 * n + 1)
                   // (factorial(2 * n) * factorial(2 * n + 1)))
    return out


def test_asm_product_matches_enumeration():
    assert _asm_product(MAX_ENUM_N) == [asm_count(n) for n in ASM] \
        == list(ASM.values())


def _d_sequence(t, gamma, n_max):
    """Z_1..Z_n_max in d at (t, gamma), gamma an mpf at bits + 96."""
    prm = phase_params("d", t, gamma, P)
    return z_from_tau(prm, tau_sequence(prm, n_max, P), P)


@pytest.mark.parametrize("t", ["0", "0.3", "-0.5"])
def test_free_fermion_line_to_n200(t):
    # gamma = pi/4: c = 1 and a^2 + b^2 = 1, so Z_N = 1 at every N and t
    with mp.workprec(P.bits + 96):
        gamma = pi / 4
    zs = _d_sequence(t, gamma, 200)
    with mp.workprec(P.bits + 64):
        worst = max(abs(z - 1) for z in zs)
        assert worst <= mpf(2) ** (-P.bits + 8), mp.nstr(worst, 5)


def test_ice_point_to_n200():
    # t = 0, gamma = pi/3: Z_N = (sqrt3/2)^(N^2) A_N (Kuperberg, Zeilberger)
    with mp.workprec(P.bits + 96):
        gamma = pi / 3
    zs = _d_sequence("0", gamma, 200)
    with mp.workprec(P.bits + 64):
        for n, (z, asm) in enumerate(zip(zs, _asm_product(200)), start=1):
            expected = (sqrt(3) / 2) ** (n * n) * asm
            assert abs(z / expected - 1) <= mpf(2) ** (-P.bits + 8), n
