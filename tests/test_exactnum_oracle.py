"""Exact arithmetic checked against sympy: comparisons against the sign of
the same radical sum, square-free parts against ``factorint``, quadratic
roots against ``sympy.roots``, each spade row against its written fields,
and the Clifford bound against its exported piece table."""

import decimal
import math
import random
from collections import Counter
from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbound.bounds import _FALLBACK_CASE, SPADE_CASES, Interval, NestedRadical, SlopeOutOfTable, _band
from tiltbound.bounds import clifford_bound, clifford_family
from tiltbound import exactnum, verify
from tiltbound.exactnum import Poly1, QuadNum, RadicalSum, compare_scalars, decimal_str, floor_scalar, square_free_core

SQUARE_FREE = [2, 3, 5, 6, 7, 10, 13, 61, 69, 2374, 22281]
PROPS = settings(derandomize=True, database=None, max_examples=60, deadline=None)

coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def radical_sums(draw, min_radicals=1):
    """min_radicals-4 distinct square-free radicands, with or without a
    rational part."""
    rads = draw(st.lists(st.sampled_from(SQUARE_FREE), min_size=min_radicals, max_size=4, unique=True))
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
    # the same near-tie as RadicalSums, alone (two radicals) and with a
    # tail of more radicals; both are decided by the enclosure loop
    rx, ry = RadicalSum.of(x), RadicalSum.of(y)
    _check_order(rx, ry)
    _check_order(rx + tail, ry)
    diff = rx - ry + tail.scale(F(1, 10**18))
    assert diff.sign() == _oracle_sign(_sympy(diff))
    _check_order(diff, 0)


def test_compare_mixed_radicands_against_sympy():
    rng = random.Random(71)
    rads = [2, 3, 5, 7, 13, 61, 69, 2374]
    for _ in range(2000):
        m, k = rng.sample(rads, 2)
        x, y = (
            QuadNum(F(rng.randrange(-30, 31), rng.randrange(1, 9)), F(rng.randrange(-30, 31), rng.randrange(1, 9)), r)
            for r in (m, k)
        )
        _check_order(x, y)


def _below_2_100(rng):
    """x = r*n*sqrt(m) + a and y = r*c*sqrt(k) + a over distinct radicands,
    n/c the closest fraction to sqrt(k/m) with c <= 2**112: |x - y| < 2**-100
    (checked by sympy), and the cleared numerators keep it that small."""
    m, k = rng.sample(SQUARE_FREE, 2)
    alpha = sympy.Rational(sympy.sqrt(sympy.Rational(k, m)).evalf(120))
    nc = F(int(alpha.p), int(alpha.q)).limit_denominator(2**112)
    r = F(rng.randrange(1, 50), rng.randrange(1, 50))
    a = rng.choice([0, F(1, 3), F(-7, 5)])
    x, y = QuadNum(a, r * nc.numerator, m), QuadNum(a, r * nc.denominator, k)
    assert 0 < abs(_sympy(x) - _sympy(y)) < sympy.Rational(1, 2**100)
    return x, y


def test_near_ties_below_2_100_double_the_bits(monkeypatch):
    # QuadNum pairs over distinct radicands and two-radical RadicalSums within
    # 2**-100 of 0, on both sides: the enclosure loop doubles its bits at
    # least twice, and each sign agrees with sympy
    bits_seen = []
    enclosure = exactnum._enclosure

    def spy(terms, den, bits):
        bits_seen.append(bits)
        return enclosure(terms, den, bits)

    monkeypatch.setattr(exactnum, "_enclosure", spy)
    rng = random.Random(2100)
    for _ in range(40):
        x, y = _below_2_100(rng)
        diff = RadicalSum.of(x) - RadicalSum.of(y)
        for u, v in ((x, y), (y, x), (diff, 0), (-diff, 0)):
            bits_seen.clear()
            assert compare_scalars(u, v) == _oracle_sign(_sympy(u) - _sympy(v))
            assert len(set(bits_seen)) >= 3, bits_seen


# floors and decimals of irrational values: floor_scalar against sympy's
# floor, decimal_str against a 120-digit value rounded by the decimal module


@PROPS
@given(radical_sums(min_radicals=2), st.integers(-(10**6), 10**6))
def test_floor_of_radical_sums_matches_sympy(x, k):
    for s in (x, x + k, -x):
        assert floor_scalar(s) == sympy.floor(_sympy(s)), s


def test_floor_within_2_100_of_an_integer_matches_sympy():
    # two radicals within 2**-100 of 0, shifted to an integer k, with a tail
    # of up to two more radicals far below that: floors on both sides of k
    rng = random.Random(2101)
    sides = Counter()
    for _ in range(40):
        x, y = _below_2_100(rng)
        k = rng.randrange(-1000, 1001)
        tail = {m: F(rng.choice((-1, 1)) * rng.randrange(1, 50), rng.randrange(1, 9) << 200)
                for m in rng.sample(SQUARE_FREE, rng.randint(0, 2))}
        near = RadicalSum.of(x) - RadicalSum.of(y) + RadicalSum(tail)
        for s in (near + k, -near + k):
            want = sympy.floor(_sympy(s))
            assert floor_scalar(s) == want, s
            sides[want - k] += 1
    assert set(sides) == {-1, 0}


_REFERENCE = decimal.Context(prec=200, rounding=decimal.ROUND_HALF_UP)


def _reference_decimal(x, digits):
    """x at 120 significant digits (sympy), rounded by the decimal module to
    `digits` significant digits, half away from zero; an integer part longer
    than that is kept whole, as decimal_str keeps it."""
    v = decimal.Decimal(str(sympy.N(_sympy(x), 120)))
    if not v:
        return "0"
    exp = min(v.adjusted() - digits + 1, 0)
    return format(v.quantize(decimal.Decimal(1).scaleb(exp), context=_REFERENCE), "f")


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _near_zero_sums(rng, n):
    """Sums of 2-4 radicals whose rational part cancels them to within
    about 10**-k of 0, k in 10..25 (the rational part is the radicals'
    60-digit value rounded to k decimals)."""
    for _ in range(n):
        terms = {m: F(rng.choice((-1, 1)) * rng.randrange(1, 51), rng.randrange(1, 12))
                 for m in rng.sample(SQUARE_FREE, rng.randint(2, 4))}
        k = rng.randint(10, 25)
        with mpmath.workdps(60):
            v = sum(_mp(c) * mpmath.sqrt(m) for m, c in terms.items())
            terms[1] = F(-int(mpmath.nint(v * 10**k)), 10**k)
        yield RadicalSum(terms)


def test_decimal_str_near_zero_matches_a_120_digit_reference():
    # decimal_str keeps its relative precision however close to 0 a sum of
    # radicals lies: every digit is an exact floor
    for x in _near_zero_sums(random.Random(25), 1000):
        assert decimal_str(x, 10) == _reference_decimal(x, 10), x


def _battery(rng, n):
    """Rationals (some ending in a 5, half-way at some digit counts),
    QuadNums and 2-4-radical sums, scaled by 10**j for j in -30..30."""
    for _ in range(n):
        kind = rng.choice(["rational", "half", "quad", "sum"])
        if kind == "rational":
            x = F(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        elif kind == "half":
            x = F(2 * rng.randrange(-10**6, 10**6) + 1, 2 * 10 ** rng.randrange(0, 8))
        else:
            rads = rng.sample(SQUARE_FREE, 1 if kind == "quad" else rng.randint(2, 4))
            terms = {m: F(rng.randrange(-50, 51), rng.randrange(1, 12)) for m in rads + [1]}
            x = RadicalSum(terms).to_exact()
        yield x * F(10) ** rng.randint(-30, 30), rng.randint(4, 30)


def test_decimal_str_matches_a_120_digit_reference():
    for x, digits in _battery(random.Random(2025), 600):
        assert decimal_str(x, digits) == _reference_decimal(x, digits), (x, digits)


# QuadNum arithmetic with a rational operand: an int, a Fraction or a bool acts
# on (a, b) directly, and must give what the operand gives as a rational QuadNum


@st.composite
def irrational_quadnums(draw):
    """a + b*sqrt(m), b != 0; radicands with a square factor are reduced."""
    m = draw(st.sampled_from(SQUARE_FREE + [8, 12, 50]))
    return QuadNum(draw(coeffs), draw(coeffs.filter(bool)), m)


rational_operands = st.one_of(
    st.integers(-50, 50), coeffs, st.booleans(), st.builds(QuadNum, coeffs)
)

RATIONAL_OPS = {
    "q+r": lambda q, r: q + r,
    "q-r": lambda q, r: q - r,
    "r+q": lambda q, r: r + q,
    "r-q": lambda q, r: r - q,
    "q*r": lambda q, r: q * r,
    "r*q": lambda q, r: r * q,
    "q/r": lambda q, r: q / r,
    "r/q": lambda q, r: r / q,
}


@PROPS
@given(irrational_quadnums(), rational_operands)
def test_rational_operand_arithmetic_matches_sympy(q, r):
    wrapped = r if isinstance(r, QuadNum) else QuadNum(r)
    sq, sr = _sympy(q), _sympy(r)
    for name, op in RATIONAL_OPS.items():
        if name == "q/r" and r == 0:
            with pytest.raises(ZeroDivisionError):
                op(q, r)
            continue
        got = op(q, r)
        assert type(got) is QuadNum and type(got.a) is F and type(got.b) is F, (name, got)
        assert repr(got) == repr(op(q, wrapped)), name
        # a quotient is checked by multiplying back, which needs no radsimp
        if name == "q/r":
            assert sympy.expand(_sympy(got) * sr - sq) == 0, name
        elif name == "r/q":
            assert sympy.expand(_sympy(got) * sq - sr) == 0, name
        else:
            assert sympy.expand(_sympy(got) - op(sq, sr)) == 0, name


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


# below 48781 * 97561 Miller-Rabin needs only the bases 2, 7 and 61, and that
# number is the least strong pseudoprime to all three (Jaeschke 1993): at it
# the 12 bases take over
JAESCHKE = 4_759_123_141


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def test_square_free_core_at_the_three_base_bound():
    assert JAESCHKE == 48781 * 97561 == exactnum._SMALL_BASES_BOUND
    assert all(_strong_probable_prime(JAESCHKE, a) for a in (2, 7, 61))
    assert not exactnum._is_probable_prime(JAESCHKE)
    assert square_free_core(JAESCHKE) == (JAESCHKE, 1)
    assert square_free_core(4 * JAESCHKE) == (JAESCHKE, 2)
    assert square_free_core(9 * JAESCHKE) == (JAESCHKE, 3)
    assert square_free_core(JAESCHKE * 97561) == (48781, 97561)


def test_miller_rabin_below_the_three_base_bound():
    # primes just below the bound are primes, and so are their squares'
    # roots; every number just below it with no prime factor under 1,000 is
    # classed as sympy classes it; 2251 * 11251 is a strong pseudoprime to
    # the bases 2, 3 and 5, and 61 finds it
    p, primes = JAESCHKE, []
    while len(primes) < 20:
        p = sympy.prevprime(p)
        primes.append(p)
    for p in primes:
        assert exactnum._is_probable_prime(p)
        assert square_free_core(p) == (p, 1)
        assert square_free_core(6 * p**2) == (6, p)
    rough = [n for n in range(JAESCHKE - 20_000, JAESCHKE) if math.gcd(n, exactnum._TRIAL_PRODUCT) == 1]
    assert len(rough) > 1000
    assert [n for n in rough if exactnum._is_probable_prime(n) != sympy.isprime(n)] == []
    spsp = 2251 * 11251
    assert all(_strong_probable_prime(spsp, a) for a in (2, 3, 5))
    assert not exactnum._is_probable_prime(spsp)
    assert square_free_core(spsp) == (spsp, 1)


@PROPS
@given(st.integers(10**6, 10**10))
def test_square_free_core_around_the_three_base_bound_matches_factorint(n):
    _check_square_free_core(n)


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


def _quadratic_triples():
    """Seeded integer (c, b, a), a != 0 of either sign: generic triples and
    ones built with a negative, zero, perfect square or square-free (times a
    square) discriminant.  Entries are below 10, below 10**6, or multiples
    of 10**14 up to 10**20 (large, but with discriminants that Pollard rho
    splits within its budget)."""
    rng = random.Random(28)
    triples = []
    for size, scale in ((10, 1), (10**6, 1), (10**6, 10**14)):
        for _ in range(25):
            a = rng.choice((-1, 1)) * rng.randint(1, size) * scale
            b, c, t, u = (rng.randint(-size, size) * scale for _ in range(4))
            m = rng.choice(SQUARE_FREE)
            triples += [
                (c, b, a),
                (a * (t * t + 1), 2 * a * t, a),  # a((x + t)^2 + 1): negative
                (a * t * t, 2 * a * t * u, a * u * u),  # a(ux + t)^2: zero
                (a * t * u, a * (t + u), a),  # a(x + t)(x + u): a square
                (t * t - m * u * u, 2 * t, 1),  # roots -t +- u*sqrt(m)
            ]
    return triples


def test_quadratic_roots_match_sympy():
    x = sympy.Symbol("x")
    kinds = Counter()
    for c, b, a in _quadratic_triples():
        if a == 0:
            continue
        got = exactnum._quadratic_roots(c, b, a)
        poly = a * x**2 + b * x + c
        want = sorted((r for r in sympy.roots(sympy.Poly(poly, x)) if r.is_real), key=lambda r: r.evalf(60))
        assert len(got) == len(want), (c, b, a)  # a double root is reported once
        for r, w in zip(got, want):
            assert sympy.expand(poly.subs(x, _sympy(r))) == 0
            assert type(r) is (F if w.is_rational else QuadNum), (c, b, a)
            assert abs(sympy.N(_sympy(r) - w, 60)) <= abs(sympy.N(w, 60)) * sympy.Float(10) ** -50
            if type(r) is QuadNum:
                assert r.m > 1 and type(r.a) is F and type(r.b) is F
        for lo, hi in zip(got, got[1:]):
            assert compare_scalars(lo, hi) < 0
        kinds[len(got), type(got[0]) if got else None] += 1
    assert set(kinds) == {(0, None), (1, F), (2, F), (2, QuadNum)}


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


# spade rows: SpadeCase evaluates only ``integral``, the cleared form that
# __post_init__ derives; the oracle builds each row from its written fields


def _row_parts(row, x, y):
    """(linear part, radicand, ratio) of the row as sympy expressions from
    the written fields; the radicand or the ratio is None where the row has
    none, and a ratio is (numerator, denominator)."""
    R = sympy.Rational
    lin = R(row.lin[0]) * x + R(row.lin[1]) * y
    rad = ratio = None
    if row.srt is not None:
        rad = sympy.expand(sum(R(c) * m for c, m in zip(row.q, (x * x, x * y, y * y))))
    if row.num is not None:
        num = sum(R(c) * m for c, m in zip(row.num, (x * x, x * y, y * y)))
        ratio = (num, sympy.expand(R(row.den[0]) * x + R(row.den[1]) * y))
    return lin, rad, ratio


def _spade_row_points(row, rng, n):
    """Seeded rational, sqrt(2)-scaled and a+b*sqrt(2) points: slopes in the
    row's ranges (or a band's) and anywhere in [-30, 30], plus a zero of a
    ratio row's denominator."""
    r2 = QuadNum(0, 1, 2)
    ranges = (row.ranges or (_band(rng.randint(1, 4))[row.case_id - 8],)) if row.case_id else (Interval(-30, 30),)
    for _ in range(n):
        r = rng.choice(ranges)
        s = r.lo + (r.hi - r.lo) * F(rng.randint(0, 20), 20) if rng.random() < 0.5 else F(rng.randint(-600, 600), 20)
        y = F(rng.randint(1, 40), rng.randint(1, 9))
        if row.den is not None and rng.random() < 0.2:
            s = -row.den[1] / row.den[0]
        x = s * y
        yield x, y
        yield x * r2, y * r2
        yield QuadNum(x, F(rng.randint(-9, 9), rng.randint(1, 4)), 2), QuadNum(y, F(rng.randint(-9, 9), 3), 2)


@pytest.mark.parametrize("row", (*SPADE_CASES, _FALLBACK_CASE), ids=lambda row: f"case{row.case_id}")
def test_spade_row_matches_its_written_fields(row):
    outcomes = Counter()
    for x, y in _spade_row_points(row, random.Random(row.case_id), 16):
        lin, rad, ratio = _row_parts(row, _sympy(x), _sympy(y))
        if ratio is not None and ratio[1] == 0:
            outcomes["zero denominator"] += 1
            with pytest.raises(SlopeOutOfTable, match="ratio denominator vanishes"):
                row.value(x, y)
            continue
        if rad is not None and not rad.is_Rational:
            outcomes["nested radical"] += 1
            with pytest.raises(NestedRadical):
                row.value(x, y)
            continue
        if rad is not None and rad < 0:
            outcomes["negative radicand"] += 1
            with pytest.raises(SlopeOutOfTable, match="negative radicand"):
                row.value(x, y)
            continue
        outcomes["value"] += 1
        want = lin + (sympy.Rational(row.srt) * sympy.sqrt(rad) if rad is not None else ratio[0] / ratio[1])
        assert sympy.expand(sympy.radsimp(_sympy(row.value(x, y)) - want)) == 0, (x, y)
    # every outcome the row can reach is reached: x^2 + 20y^2 is never negative
    reachable = {"value", "zero denominator"} if row.num else {"value", "nested radical"}
    if row.srt is not None and row.q[2] < 0:
        reachable.add("negative radicand")
    assert set(outcomes) == reachable


def _replay_clifford(table: list, r: int, d: int):
    """r times the value at mu = d/r of the table row holding mu, or None:
    the JSON-ready rows alone, read by sympy, with nothing from the library."""
    mu = sympy.Rational(d, r)
    for row in table:
        lo, hi = sympy.sympify(row["lo"]), sympy.sympify(row["hi"])
        above = mu >= lo if row["lo_closed"] else mu > lo
        below = mu <= hi if row["hi_closed"] else mu < hi
        if bool(above) and bool(below):
            num, den = (sum(sympy.Rational(c) * mu**i for i, c in enumerate(row.get(key, ["1"]))) for key in ("poly", "den"))
            return r * num / den
    return None


# the fixed slopes the clifford suite samples first
_FIXED_MU = [F(0), F(1), F(2), F(16), F(48), F(64), F(63), F(62), F(6202, 100), F(6205, 100), F(2024, 1000), F(2025, 1000)]


def test_clifford_table_replays_in_sympy():
    table = clifford_family.to_table()
    assert [row.get("den") for row in table] == [["64", "-1"], None, None, None]
    assert verify._mu_samples()[: len(_FIXED_MU)] == _FIXED_MU
    for mu in _FIXED_MU:
        for scale in (1, 3):
            r, d = scale * mu.denominator, scale * mu.numerator
            got = clifford_bound((r, d))
            assert sympy.Rational(got.numerator, got.denominator) == _replay_clifford(table, r, d), (r, d)
    assert _replay_clifford(table, 1, 32) is None and _replay_clifford(table, 1, 65) is None
