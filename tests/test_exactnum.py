import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbound import exactnum
from tiltbound.exactnum import (
    ExactRing,
    MPoly,
    MixedRadicandError,
    NotHomogeneous,
    ParseError,
    Poly1,
    QuadNum,
    RadicalSum,
    clear_denominators,
    compare_scalars,
    decimal_str,
    floor_scalar,
    format_rat,
    format_scalar,
    parse_rat,
    parse_scalar,
    poly_equal,
    radical_identity_check,
    scalar_sign,
    sqrt_exact,
    square_free_core,
    unscale,
)
from tiltbound.verify import run_suite


def test_square_free_core_basic():
    assert square_free_core(1) == (1, 1)
    assert square_free_core(244) == (61, 2)
    assert square_free_core(2374) == (2374, 1)
    assert square_free_core(12) == (3, 2)
    assert square_free_core(10**6) == (1, 1000)


def test_square_free_core_large_prime_square():
    p = 1_000_003  # found by Pollard rho, not among the small primes
    core, sq = square_free_core(p * p * 5)
    assert core == 5 and sq == p


def test_square_free_core_pollard_rho_path():
    p, q = 1_000_003, 1_000_033
    core, sq = square_free_core(p * q)
    assert core == p * q and sq == 1
    core, sq = square_free_core(p * p * q * q)
    assert core == 1 and sq == p * q


def test_square_free_core_high_prime_power(monkeypatch):
    # trial division takes 41 out first, so Miller-Rabin never runs on the
    # 4,822-bit power, only on the 20-bit prime cofactor of the second input
    seen = []
    inner = exactnum._is_probable_prime

    def recording(n):
        seen.append(n)
        return inner(n)

    monkeypatch.setattr(exactnum, "_is_probable_prime", recording)
    assert square_free_core(41**900) == (1, 41**450)
    assert square_free_core(41**901 * 1_000_003) == (41 * 1_000_003, 41**450)
    assert seen and max(n.bit_length() for n in seen) <= 64


def test_square_free_core_power_of_a_large_prime():
    # Pollard rho exhausts its budget on 1800269641579**2 (about 1.7 s) and
    # on its cube: a square cofactor is rooted by isqrt instead, and a power
    # of one prime gives up the prime to gcd(2**n - 2, n)
    p = 1800269641579
    assert square_free_core(p**2 * 6) == (6, p)
    assert square_free_core(p**4 * 6) == (6, p**2)
    assert square_free_core(p**3 * 6) == (6 * p, p)


def test_pollard_rho_never_sees_a_square(monkeypatch):
    # the clifford suite's radicands include squares such as 2**20 * 3**2 * 5591**2
    seen = []
    inner = exactnum._pollard_rho

    def recording(n, budget):
        seen.append(n)
        return inner(n, budget)

    monkeypatch.setattr(exactnum, "_pollard_rho", recording)
    reports = run_suite("clifford")
    assert all(r.status == "pass" for r in reports)
    # rho's first factor of 1231**3 * 1583 is the square 1231**2
    assert square_free_core(1231**3 * 1583) == (1231 * 1583, 1231)
    # a square of two primes is rooted before rho splits it
    assert square_free_core(1009**2 * 1013**2 * 7) == (7, 1009 * 1013)
    assert seen and not [n for n in seen if math.isqrt(n) ** 2 == n]


def test_miller_rabin_never_sees_a_square(monkeypatch):
    # a cofactor is rooted by math.isqrt before Miller-Rabin tests it
    seen = []
    inner = exactnum._is_probable_prime

    def recording(n):
        seen.append(n)
        return inner(n)

    monkeypatch.setattr(exactnum, "_is_probable_prime", recording)
    reports = run_suite("clifford")
    assert all(r.status == "pass" for r in reports)
    assert square_free_core(2**20 * 3**2 * 5591**2) == (1, 2**10 * 3 * 5591)
    assert square_free_core(1_000_003**2 * 5) == (5, 1_000_003)
    assert square_free_core(1800269641579**4 * 6) == (6, 1800269641579**2)
    assert square_free_core(1231**3 * 1583) == (1231 * 1583, 1231)
    assert square_free_core(1009**2 * 1013**2 * 7) == (7, 1009 * 1013)
    assert seen and not [n for n in seen if math.isqrt(n) ** 2 == n]


def test_quadnum_normalization():
    x = QuadNum(0, 1, 244)  # sqrt(244) = 2 sqrt(61)
    assert (x.a, x.b, x.m) == (F(0), F(2), 61)
    y = QuadNum(3, 2, 9)  # 3 + 2*3
    assert y.is_rational and y.as_fraction() == 9
    assert QuadNum(F(1, 2)).m == 0


# -- compare_scalars spec examples --------------------------------------------


def test_compare_sqrt13_vs_rational():
    assert compare_scalars(QuadNum(0, 1, 13), F(18, 5)) > 0  # 13 > 324/100


def test_compare_breakpoint_positive():
    bp = QuadNum(F(4, 3), F(-1, 3), 13)  # (4 - sqrt 13)/3
    assert compare_scalars(bp, 0) > 0


def test_compare_reflexive():
    x = QuadNum(F(7, 5), F(-2, 3), 61)
    assert compare_scalars(x, x) == 0


def test_compare_mixed_radicands():
    # (4-sqrt13)/3 = 0.1315... vs (256-32*sqrt61)/96 = 0.0635...
    a = QuadNum(F(4, 3), F(-1, 3), 13)
    b = QuadNum(F(256, 96), F(-32, 96), 61)
    assert compare_scalars(a, b) > 0
    assert compare_scalars(b, a) < 0
    assert compare_scalars(a, a) == 0


FRACTION_ARITHMETIC = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__floordiv__", "__mod__", "__pow__", "__neg__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
]


def test_compare_against_a_quadnum_does_no_fraction_arithmetic(monkeypatch):
    # a rational against one radical and two values over one radicand are
    # signed on the integers that exactnum._int_parts writes: no Fraction
    # is added, multiplied, divided or compared on the way
    sqrt13 = QuadNum(0, 1, 13)
    pairs = [
        (F(18, 5), sqrt13),  # 18/5 - sqrt(13): opposite signs, decided by the norm -1
        (sqrt13, F(-7, 2)),
        (QuadNum(F(4, 3), F(-1, 3), 13), QuadNum(F(8, 3), F(-1, 3), 13)),
        (QuadNum(F(1, 2), F(1, 3), 13), QuadNum(F(1, 2), F(1, 3), 13)),
    ]
    calls = []

    def spy(name, fn):
        def counting(*args):
            calls.append(name)
            return fn(*args)

        return counting

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(F, name, spy(name, getattr(F, name)))
    signs = [compare_scalars(x, y) for x, y in pairs]
    assert calls == []
    assert signs == [-1, 1, -1, 0]


def test_compare_against_mpmath_oracle():
    # an irrational x (b != 0) is compared with the sign of x - p at 60
    # digits, far above its distance from p; a rational one exactly
    rng = random.Random(13)
    for _ in range(10_000):
        a = F(rng.randrange(-50, 51), rng.randrange(1, 12))
        b = F(rng.randrange(-50, 51), rng.randrange(1, 12))
        m = rng.choice([2, 3, 5, 13, 61, 69, 2374])
        x = QuadNum(a, b, m)
        p = F(rng.randrange(-200, 201), rng.randrange(1, 40))
        if b == 0:
            want = (a > p) - (a < p)
        else:
            with mpmath.workdps(60):
                d = mpmath.mpf(a.numerator) / a.denominator - mpmath.mpf(p.numerator) / p.denominator
                d += mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(m)
                assert abs(d) > mpmath.mpf(10) ** -40
            want = 1 if d > 0 else -1
        assert compare_scalars(x, p) == want, (x, p)


# int and Fraction pairs are decided on integers; Fraction's own order is the oracle
RATIONAL_EDGES = [0, F(0), 3, F(3), -3, F(-3), F(7, 2), F(-7, 2), F(1, 3), F(-1, 3), 10**40, F(-(10**40), 7)]


def _fraction_order(x, y) -> int:
    return (F(x) > F(y)) - (F(x) < F(y))


@pytest.mark.parametrize("x", RATIONAL_EDGES, ids=repr)
def test_rational_compare_and_sign_match_fraction_order(x):
    assert scalar_sign(x) == _fraction_order(x, 0)
    for y in RATIONAL_EDGES:
        assert compare_scalars(x, y) == _fraction_order(x, y), (x, y)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.one_of(st.integers(), st.fractions()), st.one_of(st.integers(), st.fractions()))
def test_rational_compare_matches_fraction_order_randomized(x, y):
    assert compare_scalars(x, y) == _fraction_order(x, y)
    assert compare_scalars(y, x) == -_fraction_order(x, y)
    assert scalar_sign(x) == _fraction_order(x, 0)


def test_quadnum_field_axioms_same_radicand():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.choice([2, 5, 13, 61])
        mk = lambda: QuadNum(F(rng.randrange(-9, 10), rng.randrange(1, 5)),
                             F(rng.randrange(-9, 10), rng.randrange(1, 5)), m)
        x, y, z = mk(), mk(), mk()
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if y.sign() != 0:
            assert (x / y) * y == x


def test_quadnum_division_by_zero_raises():
    for numerator, zero in ((QuadNum(1, 1, 2), 0), (QuadNum(1, 1, 2), QuadNum(0)), (F(1), QuadNum(0))):
        with pytest.raises(ZeroDivisionError):
            numerator / zero


def test_quadnum_mixed_arithmetic_raises():
    with pytest.raises(MixedRadicandError):
        QuadNum(0, 1, 2) + QuadNum(0, 1, 3)
    with pytest.raises(MixedRadicandError):
        QuadNum(0, 1, 2) * QuadNum(1, 1, 5)


def test_sqrt_exact():
    assert sqrt_exact(F(9, 4)) == F(3, 2)
    v = sqrt_exact(F(20))
    assert isinstance(v, QuadNum) and (v.b, v.m) == (F(2), 5)
    assert sqrt_exact(0) == 0
    with pytest.raises(ValueError):
        sqrt_exact(-1)


def test_serialization_round_trip():
    values = [
        F(5, 8),
        F(-7, 16),
        F(51, 44),
        QuadNum(F(4, 3), F(-1, 3), 13),
        QuadNum(F(256, 3), F(-32, 3), 61),
        QuadNum(0, 1, 2374),
        QuadNum(F(-5), F(7, 2), 5),
    ]
    for v in values:
        text = format_scalar(v)
        back = parse_scalar(text)
        assert compare_scalars(back, v) == 0
        assert format_scalar(back) == text


def test_rat_serialization():
    assert format_rat(F(3)) == "3"
    assert format_rat(F(-5, 8)) == "-5/8"
    assert parse_rat("51/44") == F(51, 44)
    with pytest.raises(ParseError):
        parse_rat("nope")


def test_parse_scalar_reads_exponents():
    # a sign after e / E belongs to the exponent, not to the a + b split
    assert parse_scalar("2e-1*sqrt(3)") == QuadNum(0, F(1, 5), 3)
    assert parse_scalar("1+2e-3*sqrt(2)") == QuadNum(1, F(1, 500), 2)
    assert parse_scalar("1+2E-3*sqrt(2)") == QuadNum(1, F(1, 500), 2)


def test_parse_refuses_exponents_past_the_digit_limit():
    # refused at the text, before Fraction builds a million-digit integer
    limit = sys.get_int_max_str_digits()
    assert parse_rat(f"1e{limit}") == 10**limit
    for text in ("1e1000000", "1e-1000000"):
        with pytest.raises(ParseError, match="exceeds the"):
            parse_rat(text)
        with pytest.raises(ParseError, match="exceeds the"):
            parse_scalar(f"1+{text}*sqrt(2)")


def test_decimal_str():
    assert decimal_str(F(1, 32), 12) == "0.0312500000000"
    s = decimal_str(QuadNum(0, 1, 2), 12)
    assert abs(float(s) - math.sqrt(2)) < 1e-10
    assert decimal_str(F(0), 8) == "0"
    assert decimal_str(F(-9, 100), 6).startswith("-0.09")
    # a half-way value rounds away from zero, as a Fraction, a rational
    # QuadNum or a rational RadicalSum
    for q, text in ((F(10005, 10000), "1.001"), (F(10015, 10000), "1.002")):
        assert decimal_str(QuadNum(q), 4) == text
        assert decimal_str(RadicalSum.of(q), 4) == text
    for q, text in ((F(-10005, 10000), "-1.001"), (F(-10015, 10000), "-1.002")):
        assert decimal_str(q, 4) == text
    # a carry past the last digit keeps its extra digit
    assert decimal_str(F(999995, 10**6), 4) == "1.0000"
    with pytest.raises(ValueError):
        decimal_str(F(1), 2)


def _power_of_ten_text(k, digits):
    """10**k written with `digits` significant digits, or its whole integer
    part where that is longer."""
    if k >= digits - 1:
        return "1" + "0" * k
    if k >= 0:
        return "1" + "0" * k + "." + "0" * (digits - 1 - k)
    return "0." + "0" * (-k - 1) + "1" + "0" * (digits - 1)


@pytest.mark.parametrize("digits", [4, 12, 20])
def test_decimal_str_powers_of_ten_keep_their_digits(digits):
    # the exponent is found by exact floors: 10**-k as a binary float is not
    # 10**-k, and it once made 1/10 print with 13 significant digits
    for k in range(1, 31):
        for q in (F(1, 10**k), F(10**k)):
            want = _power_of_ten_text(k if q > 1 else -k, digits)
            for x in (q, QuadNum(q), RadicalSum.of(q)):
                assert decimal_str(x, digits) == want, (q, digits)
                assert decimal_str(-x, digits) == "-" + want, (q, digits)


def test_decimal_str_far_below_one():
    # 10**-1001 underflows a binary float to 0.0, and a bracket of fixed
    # absolute width holds no digit of a value this small
    for x, digits in ((F(3, 7 * 10**1000), "428571428571"), (QuadNum(0, F(1, 10**1001), 2), "141421356237")):
        assert decimal_str(x, 12) == "0." + "0" * 1000 + digits
        assert decimal_str(RadicalSum.of(x) * -1, 12) == "-0." + "0" * 1000 + digits


def test_integers_past_the_text_limit_are_refused_by_name():
    # the interpreter writes at most sys.get_int_max_str_digits() digits of an
    # int as text; past that the renderers raise ExactError naming the limit
    big = 10**5000
    limit = sys.get_int_max_str_digits()
    message = f"cannot write a {big.bit_length()}-bit integer as text: it exceeds the {limit:,}-digit limit"
    cases = [
        (format_rat, F(big)),
        (format_rat, F(1, big)),
        (format_scalar, F(1, big)),
        (decimal_str, F(big)),
        (str, QuadNum(big, 1, 2)),
        (str, RadicalSum({1: 1, 2: big})),
        (str, Poly1([1, big])),
    ]
    for render, x in cases:
        with pytest.raises(exactnum.ExactError, match=message):
            render(x)
    # the digits of big*sqrt(2), 16,611 bits, come from one floor
    with pytest.raises(exactnum.ExactError, match="a 16611-bit integer"):
        decimal_str(QuadNum(0, big, 2))
    # 10**-5000 has one significant digit
    assert decimal_str(F(1, big), 4) == "0." + "0" * 4999 + "1000"


def test_renderer_text_is_pinned():
    assert format_scalar(RadicalSum({1: F(1, 2), 2: 3, 3: -1})) == "1/2 + 3*sqrt(2) + -1*sqrt(3)"
    assert str(RadicalSum({1: F(1, 2), 2: 3, 3: -1})) == "1/2 + 3*sqrt(2) + -1*sqrt(3)"
    assert str(Poly1([1, -8, 3])) == "1 + -8*x + 3*x^2"
    assert str(Poly1([0, 0, F(-1, 2)])) == "-1/2*x^2"
    for zero in (RadicalSum({}), Poly1([]), Poly1([0, 0])):
        assert str(zero) == "0"
    assert format_scalar(RadicalSum({})) == "0"


def test_radical_sum_sign_and_compare():
    s = RadicalSum.of(QuadNum(0, 1, 2)) + RadicalSum.of(QuadNum(0, 1, 3)) - F(3)
    # sqrt2 + sqrt3 = 3.146... > 3
    assert s.sign() > 0
    t = RadicalSum.of(QuadNum(0, 1, 2)) + RadicalSum.of(QuadNum(0, 1, 3)) + RadicalSum.of(
        QuadNum(0, 1, 5)
    ) - F(539, 100)
    # 3.1462 + 2.2360 = 5.3823 < 5.39
    assert t.sign() < 0
    zero = RadicalSum.of(QuadNum(1, 2, 5)) - RadicalSum.of(QuadNum(1, 2, 5))
    assert zero.sign() == 0 and zero.is_zero()
    assert RadicalSum.of(F(1, 3)).to_exact() == F(1, 3)
    q = RadicalSum.of(QuadNum(2, -1, 7)).to_exact()
    assert isinstance(q, QuadNum) and q == QuadNum(2, -1, 7)


# -- MPoly ---------------------------------------------------------------------


def test_poly_equal_examples():
    r, d = MPoly.variables("r", "d")
    assert poly_equal((r + d) ** 2, r * r + 2 * r * d + d * d)
    a, x = MPoly.variables("a", "x")
    assert poly_equal((a + x) ** 2 - (a - x) ** 2, 4 * a * x)
    assert not poly_equal(r * r, r * d)


def test_poly_equal_requires_same_universe():
    (r,) = MPoly.variables("r")
    (d,) = MPoly.variables("d")
    with pytest.raises(ValueError):
        poly_equal(r, d)


def test_poly_equal_evaluation_soundness():
    rng = random.Random(99)
    r, d = MPoly.variables("r", "d")
    p = (r + d) ** 2 - 3 * (r * d) + F(5, 7) * d
    q = r * r - r * d + d * d + F(5, 7) * d
    assert poly_equal(p, q)
    for _ in range(100):
        point = {
            "r": F(rng.randrange(-20, 21), rng.randrange(1, 9)),
            "d": F(rng.randrange(-20, 21), rng.randrange(1, 9)),
        }
        assert p.evaluate(point) == q.evaluate(point)


def test_mpoly_degree_and_homogeneity():
    r, d = MPoly.variables("r", "d")
    p = r * r * d - 2 * (d ** 3)
    assert p.degree() == 3 and p.is_homogeneous()
    assert not (p + r).is_homogeneous()


# -- radical_identity_check ----------------------------------------------------


def _delta_polys(claim_coeff: int):
    r, d = MPoly.variables("r", "d")
    inner = 1280 * (r * d) - 97280 * (r * r) - 5 * (d * d)
    c_form = 4096 * (r * r) - 32 * (r * d)
    disc = inner * inner - 300 * (c_form * c_form)
    claimed = claim_coeff * (r * r) - 1280 * (r * d) + 5 * (d * d)
    return disc, claimed


def test_radical_identity_sqrt_delta():
    disc, claimed = _delta_polys(66560)  # 65r * 1024
    lo = QuadNum(F(256, 3), F(-32, 3), 61)
    assert radical_identity_check(disc, claimed, (lo, F(16)))


def test_radical_identity_sqrt_delta_prime():
    r, d = MPoly.variables("r", "d")
    inner = 1280 * (r * d) - 84992 * (r * r) - 5 * (d * d)
    c_form = 4096 * (r * r) - 32 * (r * d)
    disc = inner * inner - 60 * (c_form * c_form)
    claimed = 5 * (d * d) - 1280 * (r * d) + 78848 * (r * r)
    assert radical_identity_check(disc, claimed, (F(48), F(64)))


def test_radical_identity_perturbed_fails():
    disc, claimed = _delta_polys(67584)  # 66r * 1024
    lo = QuadNum(F(256, 3), F(-32, 3), 61)
    assert not radical_identity_check(disc, claimed, (lo, F(16)))


def test_radical_identity_sign_failure():
    (x,) = MPoly.variables("x")
    disc = x * x
    claimed = -1 * x
    assert not radical_identity_check(disc, claimed, (F(1), F(2)))


def test_radical_identity_not_homogeneous():
    r, d = MPoly.variables("r", "d")
    with pytest.raises(NotHomogeneous):
        radical_identity_check(r * r + r, r, (F(0), F(1)))


# -- Poly1 ---------------------------------------------------------------------


def test_poly1_roots():
    p = Poly1([F(-1, 8), F(-79, 220), F(5, 8)])
    roots = p.real_roots()
    assert len(roots) == 2
    left = roots[0]
    assert isinstance(left, QuadNum) and left.m == 2374
    assert compare_scalars(left, QuadNum(F(79, 275), F(-3, 275), 2374)) == 0
    assert Poly1([6, -5, 1]).real_roots() == [F(2), F(3)]
    assert Poly1([1, 0, 1]).real_roots() == []
    assert Poly1([2, 4]).real_roots() == [F(-1, 2)]


def test_poly1_compose_affine():
    p = Poly1([F(-1, 2), 0, 1])  # x^2 - 1/2
    q = p.compose_affine(F(1), F(-1))  # (1-t)^2 - 1/2
    assert q == Poly1([F(1, 2), -2, 1])


def test_floor_scalar_huge_quadnum():
    big = 10**400
    assert floor_scalar(QuadNum(big, 1, 2)) == big + 1
    assert floor_scalar(QuadNum(big, -1, 2)) == big - 2
    assert floor_scalar(QuadNum(F(1, 3), F(-5, 7), 13)) == -3  # 1/3 - 5*sqrt(13)/7 = -2.24...


def test_radicalsum_sign_under_large_cancellation():
    # the two terms agree to about 18 digits, so a float evaluation of x
    # has no correct digit and its sign is noise
    x = RadicalSum({2: 174963553055941314, 3: -142857142857142875})
    assert (x > 0) is False
    assert (x < 0) is True
    assert compare_scalars(x, 0) == -1


def test_radicalsum_sign_needs_more_than_16384_bits():
    # x = ((sqrt3 - sqrt2)(sqrt2 - 1))^3000 > 0 expanded over 1, sqrt2, sqrt3,
    # sqrt6: 8,774-bit coefficients cancel down to a value near 10^-2642

    def mul(u, v):
        a, b, c, d = u
        e, f, g, h = v
        return (
            a * e + 2 * b * f + 3 * c * g + 6 * d * h,
            a * f + b * e + 3 * (c * h + d * g),
            a * g + c * e + 2 * (b * h + d * f),
            a * h + d * e + b * g + c * f,
        )

    base, x = mul((0, -1, 1, 0), (-1, 1, 0, 0)), (1, 0, 0, 0)
    for _ in range(3000):
        x = mul(x, base)
    terms = RadicalSum(dict(zip((1, 2, 3, 6), x)))
    assert terms.sign() == 1
    assert (-terms).sign() == -1


def test_radicalsum_reduces_keys_that_are_not_square_free():
    # the constructor writes a key k as core*sq^2 and adds c*sq to the core's
    # coefficient, so equality, hash and sign agree with compare_scalars
    cases = [
        (RadicalSum({4: 1}), 2),
        (RadicalSum({12: 1}), QuadNum(0, 2, 3)),
        (RadicalSum({8: 1, 2: -2, 3: 1, 12: F(-1, 2)}), 0),
        (RadicalSum({4: 1, 1: -2, 2: 1, 8: F(-1, 2)}), 0),
    ]
    for x, y in cases:
        assert x == y and hash(x) == hash(y)
        assert compare_scalars(x, y) == 0 and (x - y).sign() == 0
    assert RadicalSum({8: 1, 2: -2, 3: 1, 12: F(-1, 2)}).is_zero()
    for key in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            RadicalSum({key: 1})


def test_arithmetic_does_not_refactor_the_radicand(monkeypatch):
    x = QuadNum(1, 1, 999983 * 1000003)
    calls = []
    inner = exactnum.square_free_core

    def counting(n):
        calls.append(n)
        return inner(n)

    monkeypatch.setattr(exactnum, "square_free_core", counting)
    results = [-x, x + 1, x - x, x * x, x / 4, x / (x + 2), abs(-x), floor_scalar(x + F(1, 2))]
    root = sqrt_exact(F(8, 3))
    assert calls == [24]
    assert (results[2].b, results[2].m) == (0, 0)
    assert (results[4].a, results[4].b, results[4].m) == (F(1, 4), F(1, 4), 999983 * 1000003)
    assert (root.a, root.b, root.m) == (0, F(2, 3), 6)


def _parts(x):
    return (x.a, x.b) if isinstance(x, QuadNum) else (F(x),)


def test_clear_denominators_is_the_least_integer_frame():
    rng = random.Random(67)

    def rat():
        return F(rng.randrange(-60, 61), rng.randrange(1, 40))

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randrange(-60, 61)
        if kind == 1:
            return rat()
        b = rat() if kind == 2 else F(0)  # kind 3: a rational QuadNum
        return QuadNum(rat(), b, rng.choice((2, 3, 12, 45)))

    assert clear_denominators(()) == ([], 1)
    for _ in range(300):
        values = [value() for _ in range(rng.randrange(1, 6))]
        scaled, den = clear_denominators(values)
        parts = [q for x in values for q in _parts(x)]
        assert all((q * den).denominator == 1 for q in parts)
        # least: no proper divisor den/p clears every part
        for p in (p for p in range(2, 40) if den % p == 0 and all(p % k for k in range(2, p))):
            assert any((q * (den // p)).denominator != 1 for q in parts)
        for x, y in zip(values, scaled, strict=True):
            if isinstance(x, QuadNum):
                assert type(y) is QuadNum and y.m == x.m
                assert y.a.denominator == y.b.denominator == 1
            else:
                assert type(y) is int
            assert unscale(y, den) == x


# -- ExactRing: the derived arithmetic of the four value types ----------------------


def _rat(rng):
    return F(rng.randrange(-9, 10), rng.randrange(1, 6))


def _mpoly(rng):
    r, d = MPoly.variables("r", "d")
    return _rat(rng) * r * r + _rat(rng) * r * d + _rat(rng)


RING_VALUES = {
    "QuadNum": lambda rng: QuadNum(_rat(rng), _rat(rng), 12),
    "RadicalSum": lambda rng: RadicalSum({1: _rat(rng), 2: _rat(rng), 3: _rat(rng), 5: _rat(rng)}),
    "MPoly": _mpoly,
    "Poly1": lambda rng: Poly1([_rat(rng) for _ in range(rng.randrange(0, 4))]),
}
RING_ONE = {"QuadNum": lambda a: QuadNum(1), "MPoly": lambda a: MPoly.const(a.vars, 1), "Poly1": lambda a: Poly1([1])}


def _structure(x):
    """Exact parts of a value with their types, so equal means equal in type too."""
    if isinstance(x, QuadNum):
        return (QuadNum, (type(x.a), x.a), (type(x.b), x.b), x.m)
    if isinstance(x, MPoly):
        return (MPoly, x.vars, {e: (type(c), c) for e, c in x.terms.items()})
    return (Poly1, tuple((type(c), c) for c in x.coeffs))


@pytest.mark.parametrize("kind", list(RING_VALUES))
def test_exact_ring_identities(kind):
    rng = random.Random(sum(map(ord, kind)))
    make = RING_VALUES[kind]
    assert ExactRing in type(make(rng)).__mro__
    for _ in range(40):
        a, b = make(rng), make(rng)
        assert a - b == a + (-b)
        for k in (rng.randrange(-9, 10), _rat(rng)):
            assert k + a == a + k and k - a == -a + k
            assert k * a == a * k
            assert type(k + a) is type(k * a) is type(k - a) is type(a)
        if kind in RING_ONE:
            product = RING_ONE[kind](a)
            for n in range(4):
                assert _structure(a**n) == _structure(product), n
                product = product * a
        else:
            assert a**0 == 1
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        setattr(a, next(iter(type(a).__slots__)), 1)


NOT_EXPONENTS = (-1, -2, F(-2), F(1, 2), 1.5)


def test_exact_ring_refuses_negative_and_non_int_exponents():
    for x in (QuadNum(1, 1, 2), Poly1([1, 1]), RadicalSum({1: 1, 2: 1, 3: 1})):
        for n in NOT_EXPONENTS:
            with pytest.raises(TypeError):
                x**n


def test_mpoly_negative_power_raises_at_once():
    # a square-and-multiply loop without the exponent check never ends on a
    # negative exponent, so the calls run in a child process that is stopped
    # after a few seconds
    code = (
        "from fractions import Fraction\n"
        "from tiltbound.exactnum import MPoly\n"
        "r, d = MPoly.variables('r', 'd')\n"
        f"for n in {NOT_EXPONENTS!r}:\n"
        "    try:\n"
        "        (r + 1) ** n\n"
        "    except TypeError:\n"
        "        print('TypeError')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(exactnum.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["TypeError"] * len(NOT_EXPONENTS)


# -- ExactRing: one equality and one hash ----------------------------------------

_Q = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_NONZERO_Q = _Q.filter(bool)
_VARS = st.sampled_from([("r", "d"), ("x",)])
_EXACT = st.one_of(
    st.integers(-6, 6),
    _Q,
    st.builds(QuadNum, _Q),
    # radicands 8 and 12 reduce to 2 and 3
    st.builds(QuadNum, _Q, _NONZERO_Q, st.sampled_from([2, 3, 8, 12])),
    st.dictionaries(st.sampled_from([1, 2, 3, 6]), _Q, max_size=3).map(RadicalSum),
    st.builds(MPoly.const, _VARS, _Q),
    st.builds(lambda c, e: MPoly(("r", "d"), {(e, 1): c}), _Q, st.integers(0, 2)),
    st.lists(_Q, max_size=3).map(Poly1),
)


def _equal_forms(x):
    """Values of every exact type equal to x, built independently of it."""
    if isinstance(x, (int, F)) or (isinstance(x, QuadNum) and not x.b):
        f = F(x) if isinstance(x, (int, F)) else x.a
        forms = [f, QuadNum(f), RadicalSum.of(f), Poly1([f]), MPoly.const(("r", "d"), f), MPoly.const(("x",), f)]
        return forms + [f.numerator] * (f.denominator == 1)
    if isinstance(x, QuadNum):
        return [QuadNum(x.a, x.b / 2, 4 * x.m), RadicalSum.of(x)]
    if isinstance(x, RadicalSum):
        return [RadicalSum(dict(x.terms)), x.to_exact()]
    if isinstance(x, MPoly):
        return [MPoly(x.vars, dict(x.terms))]
    return [Poly1(x.coeffs)]


_PAIRS = st.one_of(
    st.tuples(_EXACT, _EXACT),
    _EXACT.flatmap(lambda x: st.tuples(st.just(x), st.sampled_from(_equal_forms(x)))),
    st.tuples(_EXACT, st.one_of(st.floats(), st.text(max_size=3))),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(pair=_PAIRS)
def test_equality_is_symmetric_and_hash_consistent(pair):
    a, b = pair
    assert (a == b) == (b == a)
    assert (a != b) == (not a == b)
    if a == b:
        assert hash(a) == hash(b)
    if isinstance(b, (float, str)):
        assert a != b and b != a


def test_equal_values_hash_equal_across_types():
    for a, b in (
        (Poly1([1]), 1),
        (RadicalSum({1: 1}), 1),
        (MPoly.const(("x",), 2), 2),
        (QuadNum(1, 1, 2), RadicalSum({1: 1, 2: 1})),
        (QuadNum(3), Poly1([3])),
        (MPoly.const(("x",), 2), MPoly.const(("r", "d"), 2)),
    ):
        assert a == b and b == a and hash(a) == hash(b), (a, b)
    assert len({Poly1([3]), 3, F(3)}) == 1
    assert MPoly.variables("x")[0] != MPoly.variables("x", "y")[0]
