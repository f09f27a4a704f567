"""Certified enclosures [lo_n / den, hi_n / den], their comparison, and pi.

Every numeric quantity that feeds an inequality check is carried as an
interval, integer endpoints over one positive denominator, that provably
contains the true value.  Callers write each side from its exact endpoints:
every side the paper needs is monotone in pi and in the eigenvalue-sum
endpoints, so no interval algebra is required.  An inequality "holds" only
when the endpoints clear each other (or both sides are exact), decided by
integer cross-multiplication, and is undecided when the intervals overlap.
Fraction endpoints are built only when `lo` or `hi` is read.

The only irrational constant needed anywhere is pi, kept here as a frozen
outward-rounded enclosure of width 1e-30 (30 decimal digits, over 10^30).
"""

from __future__ import annotations

import math
from fractions import Fraction


class Enclosure:
    """The closed interval [lo_n / den, hi_n / den], integers with den > 0.

    Immutable by convention.  Two enclosures are equal when they are the
    same set of reals, whatever their denominators.
    """

    __slots__ = ("lo_n", "hi_n", "den")

    def __init__(self, lo_n: int, hi_n: int, den: int = 1):
        if not (den > 0 and lo_n <= hi_n):
            raise ValueError(f"empty enclosure or denominator <= 0: [{lo_n}, {hi_n}] / {den}")
        self.lo_n, self.hi_n, self.den = lo_n, hi_n, den

    @staticmethod
    def exact(x) -> "Enclosure":
        num, den = x.as_integer_ratio()  # an int, Fraction or float
        return Enclosure(num, num, den)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_n, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_n, self.den)

    @property
    def value(self) -> float:
        """Midpoint as a float (display only, not certified)."""
        return (self.lo_n + self.hi_n) / (2 * self.den)

    @property
    def err(self) -> float:
        """Float upper bound on the distance from .value to the truth."""
        width, twice = self.hi_n - self.lo_n, 2 * self.den
        e = width / twice  # correctly rounded, so one step up reaches the truth
        p, q = e.as_integer_ratio()
        return math.nextafter(e, math.inf) if p * twice < width * q else e

    def ge(self, other: "Enclosure") -> bool | None:
        """True or False only when the relation between the two *true* values
        is decided by the enclosures; None means undecided.  Exact-vs-exact
        decides ties (this is what lets equality cases like mu_1(S_n) = n
        pass as "holds")."""
        return ge(self.lo_n, self.hi_n, self.den, other.lo_n, other.hi_n, other.den)

    def __eq__(self, other):
        if not isinstance(other, Enclosure):
            return NotImplemented
        return (self.lo_n * other.den, self.hi_n * other.den) == (other.lo_n * self.den, other.hi_n * self.den)

    def __repr__(self):
        return f"Enclosure({self.value:.17g} +- {self.err:.3g})"


def ge(lo_n: int, hi_n: int, den: int, other_lo_n: int, other_hi_n: int, other_den: int) -> bool | None:
    """Enclosure.ge on the endpoints of [lo_n, hi_n] / den and
    [other_lo_n, other_hi_n] / other_den, for callers that hold integers."""
    lo, other_hi = lo_n * other_den, other_hi_n * den
    if lo > other_hi or (lo == other_hi and lo_n == hi_n and other_lo_n == other_hi_n):
        return True
    if hi_n * other_den < other_lo_n * den:
        return False
    return None


# pi truncated/rounded-up at 30 decimal places; the true value continues
# ...3279502884..., so the real pi lies strictly inside.
PI = Enclosure(3141592653589793238462643383279, 3141592653589793238462643383280, 10**30)
