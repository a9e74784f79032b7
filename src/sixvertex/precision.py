"""Binary-precision plumbing on top of mpmath.

Every public operation in this package takes an explicit :class:`Precision`
instead of relying on the caller to have configured ``mpmath.mp``.  Internally
computations run with a guard margin and results are rounded back to the
requested width, so documented error bounds are of the form 2**(-bits+g) with
a small g.  The 5-point central-difference stencil and the bilinear-identity
residual that the residual checks share live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

# Extra working bits used inside kernels.  All advertised error bounds assume
# at most 8 guard digits are lost, so 32 leaves ample slack.
GUARD_BITS = 32


@dataclass(frozen=True)
class Precision:
    """Binary precision of real arithmetic (mantissa bits)."""

    bits: int = 256

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("Precision.bits must be >= 64")

    def work(self, extra: int = GUARD_BITS):
        """Context manager running the enclosed block at bits+extra."""
        return mp.workprec(self.bits + extra)

    def tail_tol(self):
        """Series truncation target, 2**(-bits-8) per the numerics policy."""
        return mpf(2) ** (-self.bits - 8)


def rounded(x, p: Precision):
    """Round x to p.bits (mpmath re-rounds on unary plus)."""
    with mp.workprec(p.bits):
        return +x


def central_differences(vals, h):
    """First and second derivatives at the centre of five samples.

    vals are f(x-2h), f(x-h), f(x), f(x+h), f(x+2h); the 5-point central
    stencils have truncation error O(h^4).
    """
    d1 = (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)
    d2 = (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1] - vals[0]) \
        / (12 * h ** 2)
    return d1, d2


def bilinear_residual(vals, h, rhs):
    """|A A'' - A'^2 - rhs| / |rhs| at the centre of five samples of A
    (the samples of :func:`central_differences`)."""
    d1, d2 = central_differences(vals, h)
    return abs(vals[2] * d2 - d1 ** 2 - rhs) / abs(rhs)
