"""Brute-force enumeration of six-vertex configurations with domain wall
boundary conditions.

Ground truth for the determinant machinery: a depth-first sweep assigns edge
arrows row by row, propagating the ice rule (two in, two out per vertex), and
tallies each configuration's vertex-type census.  No alternating-sign-matrix
bijection is used, so the count doubles as a check of that correspondence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mpf

from .precision import Precision, rounded

MAX_ENUM_N = 6

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


@dataclass(frozen=True)
class ArrowGrid:
    """Full edge assignment of one ice state.

    horizontal[r][c] for r < n, c <= n: True = arrow points right.
    vertical[r][c] for r <= n, c < n: True = arrow points up.
    Row index 0 is the top; the DWBC boundary fixes horizontal[r][0] =
    False, horizontal[r][n] = True, vertical[0][c] = False and
    vertical[n][c] = True.
    """

    n: int
    horizontal: tuple
    vertical: tuple


@dataclass(frozen=True)
class EnumResult:
    """Vertex-type census of every DWBC configuration at size n."""

    n: int
    census: tuple          # ((n_a, n_b, n_c), multiplicity) pairs
    config_count: int


def _ice_states(N: int):
    """Depth-first sweep over the DWBC ice states of an N x N lattice.

    Vertices are visited row by row.  Each takes one of the ice-rule choices
    (h_right, v_below, kind) that its left and upper edges allow, and the
    boundary arrows prune the last column and the last row on the spot.
    Yields once per state the N*N chosen triples in row-major order and the
    running (n_a, n_b, n_c) census.  Both lists are updated in place, so a
    caller copies what it keeps.
    """
    if not 1 <= N <= MAX_ENUM_N:
        raise ValueError(f"N={N} outside supported enumeration range 1..{MAX_ENUM_N}")
    last = N - 1
    path = [None] * (N * N)
    counts = [0, 0, 0]

    def visit(k):
        row, col = divmod(k, N)
        h_left = path[k - 1][0] if col else False     # left boundary: False
        v_above = path[k - N][1] if row else False    # top boundary: down
        for choice in _CHOICES[(h_left, v_above, col == last, row == last)]:
            path[k] = choice
            counts[choice[2]] += 1
            if k == N * N - 1:
                yield path, counts
            else:
                yield from visit(k + 1)
            counts[choice[2]] -= 1

    yield from visit(0)


@lru_cache(maxsize=None)
def enumerate_dwbc(N: int) -> EnumResult:
    """All DWBC ice states on an N x N lattice (1 <= N <= 6).

    Boundary arrows: horizontal edges point outward (left edge False, right
    edge True), vertical edges point inward (top False = down, bottom True =
    up).
    """
    census = Counter(tuple(counts) for _, counts in _ice_states(N))
    return EnumResult(N, tuple(sorted(census.items())), sum(census.values()))


def configurations(N: int):
    """Yield every DWBC ice state as an explicit ArrowGrid (test-scale N)."""
    for path, _ in _ice_states(N):
        rows = [path[r * N:(r + 1) * N] for r in range(N)]
        horizontal = tuple((False,) + tuple(ch[0] for ch in row) for row in rows)
        vertical = ((False,) * N,) + tuple(tuple(ch[1] for ch in row)
                                           for row in rows)
        yield ArrowGrid(N, horizontal, vertical)


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
