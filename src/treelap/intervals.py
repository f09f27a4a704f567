"""Exact rational enclosures for certified comparisons.

Every numeric quantity that feeds an inequality check is carried as an
interval [lo, hi] with Fraction endpoints that provably contains the true
value.  Comparisons then reduce to exact rational arithmetic: an inequality
"holds" only when the relevant endpoints clear each other (or both sides
are exact), and is reported as undecided when the intervals overlap.

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

    # ---- constructors ------------------------------------------------

    @staticmethod
    def exact(x) -> "Enclosure":
        f = Fraction(x)
        return Enclosure(f, f)

    @staticmethod
    def from_value_err(value: float, err: float) -> "Enclosure":
        """Enclosure of a float known to within +-err (err itself exact)."""
        v = Fraction(value)
        e = Fraction(err)
        return Enclosure(v - e, v + e)

    # ---- views -------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

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

    # ---- arithmetic (outward-exact: endpoints are exact rationals) ----

    def __add__(self, other) -> "Enclosure":
        o = _coerce(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other) -> "Enclosure":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Enclosure":
        o = _coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Enclosure(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "Enclosure":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("enclosure straddles zero")
        return Enclosure(1 / self.hi, 1 / self.lo)

    # ---- certified comparisons ----------------------------------------
    #
    # ge/le return True or False only when the relation between the two
    # *true* values is decided by the enclosures; None means undecided.
    # Exact-vs-exact comparisons decide ties (this is what lets equality
    # cases like mu_1(S_n) = n pass as "holds").

    def ge(self, other) -> bool | None:
        o = _coerce(other)
        if self.is_exact and o.is_exact:
            return self.lo >= o.lo
        if self.lo > o.hi:
            return True
        if self.hi < o.lo:
            return False
        return None

    def le(self, other) -> bool | None:
        return _coerce(other).ge(self)

    def __repr__(self):
        return f"Enclosure({self.value:.17g} +- {self.err:.3g})"


def _coerce(x) -> Enclosure:
    if isinstance(x, Enclosure):
        return x
    return Enclosure.exact(x)


# pi truncated/rounded-up at 30 decimal places; the true value continues
# ...3279502884..., so the real pi lies strictly inside.
PI = Enclosure(
    Fraction("3.141592653589793238462643383279"),
    Fraction("3.141592653589793238462643383280"),
)
