"""Exact comparisons checked against sympy's sign of the same radical sum."""

import math
from fractions import Fraction as F

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbound.exactnum import QuadNum, RadicalSum, compare_scalars

SQUARE_FREE = [2, 3, 5, 6, 7, 10, 13, 61, 69, 2374, 22281]
PROPS = settings(derandomize=True, database=None, max_examples=60, deadline=None)

coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def radical_sums(draw):
    """1-4 distinct square-free radicands, with or without a rational part."""
    rads = draw(st.lists(st.sampled_from(SQUARE_FREE), min_size=1, max_size=4, unique=True))
    terms = {m: draw(coeffs) for m in rads}
    if draw(st.booleans()):
        terms[1] = draw(coeffs)
    return RadicalSum(terms)


@st.composite
def cancelling_quadnums(draw):
    """n*sqrt(m) + a and c*sqrt(k) + b with c*sqrt(k) ~ n*sqrt(m) to ~18 digits."""
    m, k = draw(st.lists(st.sampled_from(SQUARE_FREE), min_size=2, max_size=2, unique=True))
    n = draw(st.integers(10**17, 10**18))
    c = math.isqrt(n * n * m // k) + draw(st.integers(-1, 1))
    a, b = draw(st.sampled_from([(0, 0), (0, 1), (F(1, 3), 0), (-2, F(-7, 5))]))
    return QuadNum(a, n, m), QuadNum(b, c, k)


def _sympy(x):
    if isinstance(x, QuadNum):
        return sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(x.m)
    if not isinstance(x, RadicalSum):
        return sympy.Rational(x)
    return sum((sympy.Rational(c) * sympy.sqrt(m) for m, c in x.terms.items()), sympy.Integer(0))


def _oracle_sign(expr) -> int:
    s = sympy.sign(expr)
    assert s in (-1, 0, 1), f"sympy left the sign of {expr} open"
    return int(s)


def _check_order(x, y):
    d = _oracle_sign(_sympy(x) - _sympy(y))
    assert compare_scalars(x, y) == d
    assert (x < y) == (d < 0)
    assert (x > y) == (d > 0)
    assert (x == y) == (d == 0)


@PROPS
@given(radical_sums(), radical_sums(), st.booleans())
def test_radicalsum_order_matches_sympy(x, y, same):
    if same:
        y = RadicalSum(dict(x.terms))
    assert x.sign() == _oracle_sign(_sympy(x))
    _check_order(x, y)


@PROPS
@given(cancelling_quadnums(), radical_sums())
def test_cancelling_sums_match_sympy(pair, tail):
    x, y = pair
    _check_order(x, y)
    # the same near-tie as RadicalSums, alone (radical-pair algebra) and
    # with a tail of more radicals (interval refinement)
    rx, ry = RadicalSum.of(x), RadicalSum.of(y)
    _check_order(rx, ry)
    _check_order(rx + tail, ry)
    diff = rx - ry + tail.scale(F(1, 10**18))
    assert diff.sign() == _oracle_sign(_sympy(diff))
    _check_order(diff, 0)
