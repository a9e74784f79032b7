"""Brute-force enumeration of six-vertex configurations with domain wall
boundary conditions.

Ground truth for the determinant machinery: a row-transfer sweep assigns edge
arrows vertex by vertex under the ice rule (two in, two out per vertex) and
carries, for each state of the vertical arrows, the vertex-type census of
every partial configuration that reaches it.  No alternating-sign-matrix
bijection is used, so the count doubles as a check of that correspondence.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from mpmath import mpf

from .precision import Precision, rounded

MAX_ENUM_N = 10

# Edge conventions: horizontal True = arrow points right, vertical True =
# arrow points up.  A vertex sees (h_left, h_right, v_above, v_below); the six
# ice-rule patterns split into the two a-type, two b-type and two c-type
# vertices.  The labeling is pinned functionally by Z_1 = c and
# Z_2 = c^2 (a^2 + b^2), both asserted in the tests.
_A_TYPE = {(True, True, True, True), (False, False, False, False)}
_B_TYPE = {(True, True, False, False), (False, False, True, True)}
_C_TYPE = {(True, False, True, False), (False, True, False, True)}
_VERTEX_KIND = {}
for _pat in _A_TYPE:
    _VERTEX_KIND[_pat] = 0
for _pat in _B_TYPE:
    _VERTEX_KIND[_pat] = 1
for _pat in _C_TYPE:
    _VERTEX_KIND[_pat] = 2

# (h_left, v_above, last column, last row) -> list of (h_right, v_below, kind);
# the right boundary arrows exit and the bottom boundary arrows enter (up)
_CHOICES = {}
for _pat, _kind in _VERTEX_KIND.items():
    for _last_col in (False, True):
        for _last_row in (False, True):
            _key = (_pat[0], _pat[2], _last_col, _last_row)
            _CHOICES.setdefault(_key, [])
            if (_pat[1] or not _last_col) and (_pat[3] or not _last_row):
                _CHOICES[_key].append((_pat[1], _pat[3], _kind))

_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class EnumResult(NamedTuple):
    """Vertex-type census of every DWBC configuration at size n."""

    n: int
    census: tuple          # ((n_a, n_b, n_c), multiplicity) pairs
    config_count: int


@lru_cache(maxsize=None)
def enumerate_dwbc(N: int) -> EnumResult:
    """All DWBC ice states on an N x N lattice (1 <= N <= MAX_ENUM_N).

    Boundary arrows: horizontal edges point outward (left edge False, right
    edge True), vertical edges point inward (top False = down, bottom True =
    up).  Vertices are swept row by row.  A state is the horizontal arrow
    right of the last swept vertex followed by the N vertical arrows below
    the swept vertices of the current row and above the rest; each state maps
    (n_a, n_b, n_c) to the number of partial configurations reaching it.
    The last-column and last-row entries of _CHOICES prune the boundary
    arrows, so one state is left at the end.
    """
    if not 1 <= N <= MAX_ENUM_N:
        raise ValueError(f"N={N} outside supported enumeration range 1..{MAX_ENUM_N}")
    last = N - 1
    states = {(False,) * (N + 1): Counter({(0, 0, 0): 1})}   # top: down
    for row in range(N):
        for col in range(N):
            swept = {}
            for (h, *v), census in states.items():
                h_left = h if col else False            # left boundary: False
                for h_right, v_below, kind in _CHOICES[
                        (h_left, v[col], col == last, row == last)]:
                    v[col] = v_below
                    out = swept.setdefault((h_right, *v), Counter())
                    da, db, dc = _UNIT[kind]
                    for (na, nb, nc), mult in census.items():
                        out[(na + da, nb + db, nc + dc)] += mult
            states = swept
    (census,) = states.values()
    return EnumResult(N, tuple(sorted(census.items())), sum(census.values()))


def Z_bruteforce(N: int, a, b, c, p: Precision = Precision()):
    """Partition function sum a^n_a b^n_b c^n_c over the enumerated census."""
    result = enumerate_dwbc(N)
    with p.work():
        a, b, c = mpf(a), mpf(b), mpf(c)
        total = mpf(0)
        for (na, nb, nc), mult in result.census:
            total += mult * a ** na * b ** nb * c ** nc
    return rounded(total, p)


def asm_count(N: int) -> int:
    """Number of DWBC states (equals the alternating-sign-matrix count)."""
    return enumerate_dwbc(N).config_count
