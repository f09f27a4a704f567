"""Exact-rational enclosures, their comparison and the pi constant."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelap.bounds import _row_slack
from treelap.intervals import PI, Enclosure

from conftest import fraction_err, fraction_ge, fraction_slack, fraction_value, pi_rational_bounds


def test_pi_enclosure_matches_machin_series():
    machin = pi_rational_bounds(32)
    # the frozen 30-digit constant must contain the independently computed value
    assert PI.lo <= machin.lo and machin.hi <= PI.hi
    assert PI.hi - PI.lo == Fraction(1, 10**30)
    assert abs(float(PI.lo) - math.pi) < 1e-15


def test_certified_comparisons():
    assert Enclosure.exact(2).ge(Enclosure.exact(2)) is True
    assert Enclosure.exact(1).ge(Enclosure.exact(2)) is False
    wide = Enclosure(0, 3)
    assert wide.ge(Enclosure.exact(1)) is None
    assert wide.ge(Enclosure.exact(4)) is False
    assert wide.ge(Enclosure.exact(-1)) is True
    assert Enclosure.exact(1).ge(wide) is None
    # touching endpoints decide only when both sides are exact
    assert Enclosure.exact(3).ge(wide) is None
    assert wide.ge(Enclosure.exact(0)) is None


def test_err_is_outward():
    e = Enclosure(0, 1, 3)
    assert Fraction(e.err) >= (e.hi - e.lo) / 2
    assert e.value == pytest.approx(1 / 6)


def test_empty_rejected():
    with pytest.raises(ValueError):
        Enclosure(1, 0)
    with pytest.raises(ValueError):
        Enclosure(0, 1, 0)


def test_equal_as_sets_of_reals():
    assert Enclosure(1, 2, 3) == Enclosure(2, 4, 6)
    assert Enclosure(1, 2, 3) != Enclosure(1, 3, 3)
    assert Enclosure.exact(Fraction(2, 3)) == Enclosure(4, 4, 6)
    assert (Enclosure(1, 2, 3).lo, Enclosure(1, 2, 3).hi) == (Fraction(1, 3), Fraction(2, 3))


_numerators = st.one_of(st.integers(-1000, 1000), st.integers(-10**40, 10**40))
_denominators = st.one_of(st.integers(1, 1000), st.integers(1, 10**40))


@st.composite
def _enclosures(draw) -> Enclosure:
    lo, hi = sorted((draw(_numerators), draw(_numerators)))
    return Enclosure(lo, hi, draw(_denominators))


@st.composite
def _enclosure_pairs(draw) -> tuple[Enclosure, Enclosure]:
    """Two enclosures over unrelated denominators, or the second one ending
    exactly where the first starts, or two exact ones at the same number."""
    a, b = draw(_enclosures()), draw(_enclosures())
    shape = draw(st.sampled_from(("unrelated", "touching", "tie")))
    if shape == "unrelated":
        return a, b
    k = draw(st.integers(1, 10**6), label="denominator factor")
    if shape == "tie":
        return Enclosure(a.lo_n, a.lo_n, a.den), Enclosure(a.lo_n * k, a.lo_n * k, a.den * k)
    width = draw(st.one_of(st.just(0), _numerators.map(abs)), label="width")
    return a, Enclosure(a.lo_n * k - width, a.lo_n * k, a.den * k)


@settings(max_examples=500, deadline=None)
@given(_enclosure_pairs())
def test_integer_comparison_matches_the_fraction_formulas(pair):
    for x, y in (pair, pair[::-1]):
        assert x.ge(y) is fraction_ge(x.lo, x.hi, y.lo, y.hi)
        assert _row_slack(x.lo_n, x.hi_n, x.den, y.lo_n, y.hi_n, y.den) == fraction_slack(x.lo, y.hi)
        assert x.value == fraction_value(x.lo, x.hi)
        assert x.err == fraction_err(x.lo, x.hi)
