"""Exact-rational enclosure arithmetic and the pi constant."""

import math
from fractions import Fraction

import pytest

from treelap.intervals import PI, Enclosure

from conftest import pi_rational_bounds


def test_pi_enclosure_matches_machin_series():
    machin = pi_rational_bounds(32)
    # the frozen 30-digit constant must contain the independently computed value
    assert PI.lo <= machin.lo and machin.hi <= PI.hi
    assert PI.width == Fraction(1, 10**30)
    assert abs(float(PI.lo) - math.pi) < 1e-15


def test_arithmetic():
    a = Enclosure(Fraction(1), Fraction(2))
    b = Enclosure(Fraction(-1), Fraction(1, 2))
    assert (a + b).lo == 0 and (a + b).hi == Fraction(5, 2)
    assert (a - 1).lo == 0
    assert (-a).hi == -1
    assert (a * 2).hi == 4
    assert (a * b).lo == -2 and (a * b).hi == 1
    assert a.reciprocal().lo == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        b.reciprocal()


def test_certified_comparisons():
    assert Enclosure.exact(2).ge(Enclosure.exact(2)) is True
    assert Enclosure.exact(1).ge(2) is False
    wide = Enclosure(Fraction(0), Fraction(3))
    assert wide.ge(1) is None
    assert wide.ge(4) is False
    assert wide.ge(Fraction(-1)) is True
    assert Enclosure.exact(1).le(wide) is None


def test_err_is_outward():
    e = Enclosure(Fraction(0), Fraction(1, 3))
    assert Fraction(e.err) >= e.width / 2
    assert e.value == pytest.approx(1 / 6)


def test_empty_rejected():
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))
