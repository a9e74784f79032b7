"""Binary-precision plumbing on top of mpmath.

Every public operation in this package takes an explicit :class:`Precision`
instead of relying on the caller to have configured ``mpmath.mp``.  Internally
computations run with a guard margin and results are rounded back to the
requested width, so documented error bounds are of the form 2**(-bits+g) with
a small g.  The fixed-point integer helpers that the integer loops of
:mod:`sixvertex.exactcore` and :mod:`sixvertex.specfun` share live here too.
"""

from __future__ import annotations

from collections import namedtuple

from mpmath import mp

# Extra working bits used inside kernels.  All advertised error bounds assume
# at most 8 guard digits are lost, so 32 leaves ample slack.
GUARD_BITS = 32


class Precision(namedtuple("Precision", "bits")):
    """Binary precision of real arithmetic (mantissa bits)."""

    __slots__ = ()

    def __new__(cls, bits: int = 256):
        if bits < 64:
            raise ValueError("Precision.bits must be >= 64")
        return super().__new__(cls, bits)

    def work(self, extra: int = GUARD_BITS):
        """Context manager running the enclosed block at bits+extra."""
        return mp.workprec(self.bits + extra)


def rounded(x, p: Precision):
    """Round x to p.bits (mpmath re-rounds on unary plus)."""
    with mp.workprec(p.bits):
        return +x


def fixed(x, e: int) -> int:
    """x * 2^e as an integer, rounded toward zero."""
    sign, man, ex, _ = x._mpf_
    shift = ex + e
    man = man << shift if shift >= 0 else man >> -shift
    return -man if sign else man


def shr(x: int, s: int) -> int:
    """x / 2^s rounded toward zero (s >= 0)."""
    return x >> s if x >= 0 else -(-x >> s)
