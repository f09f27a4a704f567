"""Certified [lo, hi] enclosures, their comparison, and the pi constant.

Every numeric quantity that feeds an inequality check is carried as an
interval [lo, hi] with Fraction endpoints that provably contains the true
value.  Callers build each side from its exact endpoints: every side the
paper needs is monotone in pi and in the eigenvalue-sum endpoints, so no
interval algebra is required.  An inequality "holds" only when the relevant
endpoints clear each other (or both sides are exact), and is reported as
undecided when the intervals overlap.

The only irrational constant needed anywhere is pi, kept here as a frozen
outward-rounded enclosure of width 1e-30 (30 decimal digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Enclosure:
    """A closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def exact(x) -> "Enclosure":
        f = Fraction(x)
        return Enclosure(f, f)

    @property
    def value(self) -> float:
        """Midpoint as a float (display only, not certified)."""
        return float((self.lo + self.hi) / 2)

    @property
    def err(self) -> float:
        """Float upper bound on the distance from .value to the truth."""
        half = (self.hi - self.lo) / 2
        e = float(half)
        # outward-round the float conversion
        while Fraction(e) < half:
            e = math.nextafter(e, math.inf)
        return e

    def ge(self, other: "Enclosure") -> bool | None:
        """True or False only when the relation between the two *true* values
        is decided by the enclosures; None means undecided.  Exact-vs-exact
        decides ties (this is what lets equality cases like mu_1(S_n) = n
        pass as "holds")."""
        if self.lo > other.hi or self.lo == self.hi == other.lo == other.hi:
            return True
        if self.hi < other.lo:
            return False
        return None

    def __repr__(self):
        return f"Enclosure({self.value:.17g} +- {self.err:.3g})"


# pi truncated/rounded-up at 30 decimal places; the true value continues
# ...3279502884..., so the real pi lies strictly inside.
PI = Enclosure(
    Fraction("3.141592653589793238462643383279"),
    Fraction("3.141592653589793238462643383280"),
)
