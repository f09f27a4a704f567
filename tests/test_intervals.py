"""Exact-rational enclosures, their comparison and the pi constant."""

import math
from fractions import Fraction

import pytest

from treelap.intervals import PI, Enclosure

from conftest import pi_rational_bounds


def test_pi_enclosure_matches_machin_series():
    machin = pi_rational_bounds(32)
    # the frozen 30-digit constant must contain the independently computed value
    assert PI.lo <= machin.lo and machin.hi <= PI.hi
    assert PI.hi - PI.lo == Fraction(1, 10**30)
    assert abs(float(PI.lo) - math.pi) < 1e-15


def test_certified_comparisons():
    assert Enclosure.exact(2).ge(Enclosure.exact(2)) is True
    assert Enclosure.exact(1).ge(Enclosure.exact(2)) is False
    wide = Enclosure(Fraction(0), Fraction(3))
    assert wide.ge(Enclosure.exact(1)) is None
    assert wide.ge(Enclosure.exact(4)) is False
    assert wide.ge(Enclosure.exact(-1)) is True
    assert Enclosure.exact(1).ge(wide) is None
    # touching endpoints decide only when both sides are exact
    assert Enclosure.exact(3).ge(wide) is None
    assert wide.ge(Enclosure.exact(0)) is None


def test_err_is_outward():
    e = Enclosure(Fraction(0), Fraction(1, 3))
    assert Fraction(e.err) >= (e.hi - e.lo) / 2
    assert e.value == pytest.approx(1 / 6)


def test_empty_rejected():
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))
