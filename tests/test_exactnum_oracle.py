"""Exact arithmetic checked against sympy: comparisons against the sign of
the same radical sum, square-free parts against ``factorint``, and quadratic
roots against ``sympy.roots``."""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbound.exactnum import Poly1, QuadNum, RadicalSum, compare_scalars, square_free_core

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


# the Miller-Rabin witnesses, the primes just above them and primes around 1e6
FACTOR_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 999983, 1000003]


@st.composite
def prime_power_products(draw):
    n = 1
    for p in draw(st.lists(st.sampled_from(FACTOR_PRIMES), min_size=1, max_size=4, unique=True)):
        n *= p ** draw(st.integers(1, 5))
    return n


def _check_square_free_core(n):
    core, sq = square_free_core(n)
    assert core * sq * sq == n
    assert all(e == 1 for e in sympy.factorint(core).values())
    want_core = want_sq = 1
    for p, e in sympy.factorint(n).items():
        want_core *= p ** (e % 2)
        want_sq *= p ** (e // 2)
    assert (core, sq) == (want_core, want_sq)


@PROPS
@given(prime_power_products())
def test_square_free_core_of_prime_powers_matches_factorint(n):
    _check_square_free_core(n)


@PROPS
@given(st.integers(1, 10**18))
def test_square_free_core_matches_factorint(n):
    _check_square_free_core(n)


@st.composite
def squares_of_large_primes(draw):
    """A small core times p**(2k), p a prime in (1000, 2**40), one bit size
    as likely as another: Pollard rho needs about sqrt(p) steps for p**2."""
    p = sympy.prevprime(2 ** draw(st.integers(11, 40)) - draw(st.integers(0, 999)))
    return draw(st.sampled_from([1, 2, 3, 6, 7, 30, 2374])) * p ** (2 * draw(st.integers(1, 3)))


@PROPS
@given(squares_of_large_primes())
def test_square_free_core_of_squares_of_large_primes_matches_factorint(n):
    _check_square_free_core(n)


# the 12 Miller-Rabin bases are deterministic below psi_12 only: psi_12 itself
# (399165290221 * 798330580441) passes as a prime and is kept as one factor
PSI_12 = 318665857834031151167461


@pytest.mark.parametrize("n", [PSI_12, PSI_12 * 1009**2, PSI_12**2])
def test_square_free_core_at_the_miller_rabin_bound(n):
    core, sq = square_free_core(n)
    assert core * sq * sq == n
    assert all(e == 1 for e in sympy.factorint(core).values())


def test_square_free_core_high_prime_power():
    # every power of 41 is divided out at once, not one rho split at a time
    assert square_free_core(41**900) == (1, 41**450)


small_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
nonzero_coeffs = small_coeffs.filter(bool)


@st.composite
def low_degree_polys(draw):
    """Degree 0-2 polynomials, either sign of the leading coefficient:
    constant, linear, generic, rational-root and double-root quadratics."""
    a = draw(nonzero_coeffs)
    kind = draw(st.sampled_from(["constant", "linear", "generic", "rational", "double"]))
    if kind == "constant":
        return Poly1([a])
    if kind == "linear":
        return Poly1([draw(small_coeffs), a])
    if kind == "generic":
        return Poly1([draw(small_coeffs), draw(small_coeffs), a])
    r = draw(small_coeffs)
    s = r if kind == "double" else draw(small_coeffs)
    return Poly1([a * r * s, -a * (r + s), a])


@PROPS
@given(low_degree_polys())
def test_real_roots_match_sympy(p):
    x = sympy.Symbol("x")
    expr = sum((sympy.Rational(c) * x**i for i, c in enumerate(p.coeffs)), sympy.Integer(0))
    want = sorted((r for r in sympy.roots(sympy.Poly(expr, x)) if r.is_real), key=sympy.default_sort_key)
    got = p.real_roots()
    assert len(got) == len(want)  # a double root is reported once
    for r in got:
        assert p.evaluate(r) == 0
        (w,) = [w for w in want if _oracle_sign(_sympy(r) - w) == 0]
        # rational roots are Fractions, irrational ones conjugate QuadNums
        assert type(r) is (F if w.is_rational else QuadNum)
    for lo, hi in zip(got, got[1:]):
        assert compare_scalars(lo, hi) < 0
        assert _oracle_sign(_sympy(hi) - _sympy(lo)) == 1


# Poly1 kernels: integer Horner evaluation and integer-discriminant roots,
# with coefficients over a common denominator up to 12

poly_coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def eval_points(draw):
    """An int, a Fraction, an irrational QuadNum or a rational QuadNum."""
    kind = draw(st.sampled_from(["int", "fraction", "quad", "rational_quad"]))
    if kind == "int":
        return draw(st.integers(-20, 20))
    a = draw(poly_coeffs)
    if kind == "fraction":
        return a
    if kind == "rational_quad":
        return QuadNum(a)
    return QuadNum(a, draw(nonzero_coeffs), draw(st.sampled_from(SQUARE_FREE)))


def _sympy_poly(p, x):
    return sum((sympy.Rational(c) * x**i for i, c in enumerate(p.coeffs)), sympy.Integer(0))


@PROPS
@given(st.lists(poly_coeffs, max_size=5), eval_points())
def test_poly_evaluate_matches_sympy(cs, x):
    p = Poly1(cs)
    got = p.evaluate(x)
    if p.is_zero():
        assert type(got) is F and got == 0
        return
    want = sympy.expand(_sympy_poly(p, _sympy(x)))
    assert sympy.expand(_sympy(got) - want) == 0
    if isinstance(x, QuadNum):
        assert type(got) is QuadNum
        assert type(got.a) is F and type(got.b) is F
        assert got.m == (x.m if got.b else 0)
    else:
        assert type(got) is F


def test_real_roots_rejects_zero_and_high_degree():
    with pytest.raises(ValueError):
        Poly1([]).real_roots()
    with pytest.raises(NotImplementedError):
        Poly1([1, 0, 0, F(1, 3)]).real_roots()
    assert Poly1([F(5, 7)]).real_roots() == []
