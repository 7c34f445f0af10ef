import random
from fractions import Fraction as F

import pytest

from tiltbound import tilt, verify, walls
from tiltbound.chern import S222, X24, ChernVec, grr_push_to_k3, CurveClass
from tiltbound.exactnum import MPoly, Poly1, QuadNum, compare_scalars, rational_or_quad, scalar_sign
from tiltbound.tilt import TiltParams, wall_det_core
from tiltbound.verify import run_suite
from tiltbound.walls import (
    BN_THRESHOLD_POLY,
    DegenerateWall,
    NoIntersection,
    OutOfRange,
    WallLine,
    ZeroReducedCharacter,
    bn_threshold,
    first_wall_bounds,
    gamma_curve,
    gamma_piece,
    gamma_piece_index,
    intersect_line_with_piece,
    line_gamma_intersection,
    nested_wall_line,
)


# -- nested wall lines -----------------------------------------------------------


def test_nested_wall_line_structure_sheaf():
    line = nested_wall_line(ChernVec(X24, (1, 0, 0, 0)), TiltParams(F(1, 2), -1))
    # alpha + beta/2 = 0
    assert (line.a, line.b, line.c) == (1, F(1, 2), 0)
    assert line.contains(TiltParams(F(1, 2), -1))
    assert line.contains(TiltParams(0, 0))


def test_nested_wall_line_torsion_slope():
    v = grr_push_to_k3(CurveClass(1, 16))  # ch0 = 0, slope mu/4 - 16 = -12
    p0 = TiltParams(F(1), F(0))
    line = nested_wall_line(v, p0)
    assert line.contains(p0)
    # alpha = s*beta + c with s = inum2/inum1 = -48/32 (the K3 chart scales
    # this by H^2, recovering the mu/4 - 16 figure)
    s = v.inum(2) / v.inum(1)
    assert s == F(-3, 2)
    assert line.contains(TiltParams(1 + s, 1))


def test_nested_wall_line_degenerate():
    v = ChernVec(X24, (1, 1, F(1, 2), F(1, 6)))
    p_h = TiltParams(v.inum(2) / v.inum(0), v.inum(1) / v.inum(0))
    with pytest.raises(DegenerateWall):
        nested_wall_line(v, p_h)
    with pytest.raises(ZeroReducedCharacter):
        nested_wall_line(ChernVec(X24, (0, 0, 0, 1)), TiltParams(1, 0))


def test_nested_wall_line_is_the_determinant():
    # the line's (A, B, C), read off wall_det_core at (0, 0), (1, 0), (0, 1)
    # and normalized by the first nonzero of (A, B), on rational and
    # irrational base points
    rng = random.Random(71)
    r2 = QuadNum(0, 1, 2)

    def param():
        x = F(rng.randrange(-12, 13), rng.randrange(1, 5))
        return x + r2 * F(rng.randrange(-3, 4), rng.randrange(1, 4)) if rng.random() < 0.5 else x

    checked = 0
    for _ in range(200):
        ctx = rng.choice((S222, X24))
        v = ChernVec(ctx, [F(rng.randrange(0, 4))] + [F(rng.randrange(-8, 9), rng.choice((1, 2, 4))) for _ in range(ctx.dim)])
        p0 = TiltParams(param(), param())
        try:
            line = nested_wall_line(v, p0)
        except (DegenerateWall, ZeroReducedCharacter):
            continue
        nums = v.inums()
        cc = wall_det_core(nums, 0, 0, p0.alpha, p0.beta)
        ca = wall_det_core(nums, 1, 0, p0.alpha, p0.beta) - cc
        cb = wall_det_core(nums, 0, 1, p0.alpha, p0.beta) - cc
        scale = ca if scalar_sign(ca) else cb
        assert (line.a, line.b, line.c) == tuple(rational_or_quad(x / scale) for x in (ca, cb, cc))
        assert line.contains(p0)
        checked += 1
    assert checked > 150


def _line_through_both(wall_line_core):
    """The line's value at p0 and, homogeneously, at p_H = (n2 : n1 : n0),
    over MPoly: both vanish for the nested wall."""
    n0, n1, n2, a0, b0 = MPoly.variables("n0", "n1", "n2", "a0", "b0")
    ca, cb, cc = wall_line_core((n0, n1, n2), a0, b0)
    return ca * a0 + cb * b0 + cc, ca * n2 + cb * n1 + cc * n0


def _wall_line_core_with_2(nums, a0, b0):
    r, s1, s2 = nums[0], nums[1], nums[2]
    return b0 * r - s1, s2 - 2 * a0 * r, a0 * s1 - b0 * s2


def test_wall_line_core_passes_through_p0_and_p_h():
    at_p0, at_p_h = _line_through_both(tilt.wall_line_core)
    assert at_p0.is_zero() and at_p_h.is_zero()


def test_wall_line_core_with_2_for_1_fails_proof_nested_walls_and_suite(monkeypatch):
    at_p0, at_p_h = _line_through_both(_wall_line_core_with_2)
    assert not at_p0.is_zero()
    # nested_wall_line and wall_det_core share one copy of the coefficients
    monkeypatch.setattr(tilt, "wall_line_core", _wall_line_core_with_2)
    monkeypatch.setattr(walls, "wall_line_core", _wall_line_core_with_2)
    failed = []
    for test in (
        test_nested_wall_line_structure_sheaf,
        test_nested_wall_line_torsion_slope,  # rank 0: the mutated term vanishes
        test_nested_wall_line_degenerate,
    ):
        try:
            test()
        except (AssertionError, pytest.fail.Exception):
            failed.append(test.__name__)
    assert failed == ["test_nested_wall_line_structure_sheaf", "test_nested_wall_line_degenerate"]
    status = {r.check_name: r.status for r in run_suite("walls")}
    assert [name for name, st in status.items() if st == "fail"] == ["walls_q_invariance_randomized"]


# -- Gamma ------------------------------------------------------------------------


def test_gamma_values():
    assert gamma_curve(0) == 0
    assert gamma_curve(F(1, 2)) == F(1, 4)
    assert gamma_curve(2) == 16  # integer convention 4n^2
    assert gamma_curve(F(-7, 2)) == gamma_piece(-3).evaluate(F(-7, 2))
    assert gamma_curve(F(-7, 2)) == gamma_piece(-4).evaluate(F(-7, 2))


def test_gamma_piece_index():
    assert gamma_piece_index(F(3, 4)) == 1
    assert gamma_piece_index(F(-3, 4)) == -1
    assert gamma_piece_index(F(5, 2)) == 3  # ties go to the upper piece


def test_gamma_below_parabola():
    for k in range(-128, 129):
        x = F(k, 32)
        g = gamma_curve(x)
        if x.denominator == 1:
            assert g == 4 * x * x
        else:
            assert g < 4 * x * x


def _gamma_reference(x: F) -> F:
    """Gamma through its piece polynomial: 4x^2 at an integer, else
    gamma_piece(gamma_piece_index(x)).evaluate(x)."""
    if x.denominator == 1:
        return 4 * x * x
    return gamma_piece(gamma_piece_index(x)).evaluate(x)


def test_gamma_matches_the_piece_polynomials():
    rng = random.Random(30)
    # every half-integer and integer in [-20, 20] (the piece index moves up
    # at the half-integers), k/64 on [-8, 8], and wide seeded rationals
    points = [F(k, 2) for k in range(-40, 41)] + [F(k, 64) for k in range(-512, 513)]
    points += [F(rng.randrange(-10**6, 10**6 + 1), rng.randrange(1, 10**4)) for _ in range(1000)]
    points += [F(rng.randrange(-10**6, 10**6 + 1), rng.randrange(1, 20)) for _ in range(1000)]
    assert sum(x < 0 for x in points) > 1000
    for x in points:
        value = gamma_curve(x)
        assert type(value) is F and value == _gamma_reference(x), x
    for n in range(-20, 21):
        value = gamma_curve(n)
        assert type(value) is F and value == 4 * n * n


def test_rational_gamma_builds_no_piece(monkeypatch):
    calls = []

    def spy(name, fn):
        def counting(*args):
            calls.append(name)
            return fn(*args)

        return counting

    monkeypatch.setattr(Poly1, "__init__", spy("Poly1", Poly1.__init__))
    monkeypatch.setattr(walls, "floor_scalar", spy("floor_scalar", walls.floor_scalar))
    monkeypatch.setattr(walls, "gamma_piece", spy("gamma_piece", walls.gamma_piece))
    values = [gamma_curve(x) for x in (F(1, 2), F(-7, 2), F(3, 64), F(-999999, 1000))]
    assert calls == []
    assert values == [F(1, 4), F(193, 4), F(-4051, 4096), F(799998200001, 200000)]
    # an irrational argument still takes its piece, and the spies see it
    gamma_curve(QuadNum(0, F(1, 5), 5))
    assert calls == ["floor_scalar", "gamma_piece", "Poly1"]


def test_gamma_quadnum_argument():
    x = QuadNum(0, F(1, 5), 5)  # sqrt(5)/5 ~ 0.447
    val = gamma_curve(x)
    # piece 0: 5x^2 - 1 = 5/5 - 1 = 0
    assert scalar_sign(val) == 0


# -- line/Gamma intersections ------------------------------------------------------


def test_intersection_examples():
    assert line_gamma_intersection(F(97, 10), "right") == F(5, 2)
    assert line_gamma_intersection(F(-63, 4), "left") == F(-4)
    x = line_gamma_intersection(0, "right")
    assert isinstance(x, QuadNum) and x == QuadNum(0, F(1, 5), 5)


def test_intersection_residuals_sweep():
    from tiltbound.walls import _LEFT_RANGES, _RIGHT_RANGES

    for side, table in (("right", _RIGHT_RANGES), ("left", _LEFT_RANGES)):
        for lo, hi, n in table:
            piece = gamma_piece(n)
            for i in range(24):
                k = lo + (hi - lo) * F(i, 24)
                x = line_gamma_intersection(k, side)
                assert scalar_sign(k * x - piece.evaluate(x)) == 0


def test_intersection_out_of_table():
    with pytest.raises(OutOfRange):
        line_gamma_intersection(F(1, 3), "right")  # gap (1/4, 1/2)
    with pytest.raises(OutOfRange):
        line_gamma_intersection(F(20), "right")


def test_intersection_no_intersection():
    with pytest.raises(NoIntersection):
        intersect_line_with_piece(F(1), 2, True)  # y = x misses 5x^2-4x+3


def _reference_intersection(k, side):
    """line_gamma_intersection as first written: the range scan, then the
    roots of Poly1([n*n - 1, -2*n - k, 5])."""
    k = F(k)
    table = walls._RIGHT_RANGES if side == "right" else walls._LEFT_RANGES
    for lo, hi, n in table:
        if lo <= k <= hi:
            return _reference_piece(k, n, side == "right")
    raise OutOfRange(k)


def _reference_piece(k, n, upper_root):
    roots = Poly1([n * n - 1, -2 * n - k, 5]).real_roots()
    if not roots:
        raise NoIntersection(k, n)
    return roots[-1] if upper_root else roots[0]


def _same_outcome(got, want):
    """Both calls return the same value of the same type, or raise the same
    exception class."""
    try:
        value = want()
    except (OutOfRange, NoIntersection) as exc:
        with pytest.raises(type(exc)):
            got()
        return type(exc)
    x = got()
    assert type(x) is type(value) and x == value and repr(x) == repr(value)
    return type(x)


def test_intersection_matches_the_poly1_roots():
    # the integer quadratic formula gives the old Poly1 roots: the check's
    # 1,600 slopes, every range end, random slopes inside each range and
    # across [-25, 25] (the table's gaps and its far ends refuse)
    rng = random.Random(28)
    slopes = []
    for side, table in verify._INTERSECT_RANGES.items():
        for lo, hi, _ in table:
            step = (hi - lo) / verify._K_PER_RANGE
            slopes += [(lo + step * i, side) for i in range(verify._K_PER_RANGE)]
            slopes += [(lo, side), (hi, side)]
            slopes += [(lo + (hi - lo) * F(rng.randrange(1, 10**6), 10**6), side) for _ in range(25)]
    slopes += [(F(rng.randrange(-2500, 2501), rng.randrange(1, 101)), side) for side in ("right", "left") for _ in range(300)]
    outcomes = [
        _same_outcome(lambda: line_gamma_intersection(k, side), lambda: _reference_intersection(k, side))
        for k, side in slopes
    ]
    assert {F, QuadNum, OutOfRange} <= set(outcomes)
    # every piece and slope, both roots: a negative discriminant refuses
    pieces = [
        (F(rng.randrange(-600, 601), rng.randrange(1, 31)), rng.randrange(-6, 7), rng.random() < 0.5)
        for _ in range(600)
    ]
    outcomes = [
        _same_outcome(lambda: intersect_line_with_piece(k, n, up), lambda: _reference_piece(k, n, up))
        for k, n, up in pieces
    ]
    assert {F, QuadNum, NoIntersection} <= set(outcomes)


def _reference_scan(k, side):
    """The piece index of line_gamma_intersection's range scan as first
    written, in Fraction comparisons lo <= k <= hi; None off the table."""
    table = walls._RIGHT_RANGES if side == "right" else walls._LEFT_RANGES
    for lo, hi, n in table:
        if lo <= k <= hi:
            return n
    return None


def test_integer_range_scan_matches_the_fraction_scan(monkeypatch):
    # the cross-multiplied scan picks the Fraction scan's piece and root side
    # on every range end, each end -+ 1/10^9 and 2,000 seeded slopes in
    # [-18, 10], on both sides, and refuses with the same OutOfRange message
    ends = {end for table in (walls._RIGHT_RANGES, walls._LEFT_RANGES) for lo, hi, _ in table for end in (lo, hi)}
    eps = F(1, 10**9)
    rng = random.Random(29)
    slopes = sorted(ends) + [e + d for e in sorted(ends) for d in (-eps, eps)]
    for _ in range(2000):
        den = rng.randrange(1, 1000)
        slopes.append(F(rng.randrange(-18 * den, 10 * den + 1), den))
    monkeypatch.setattr(walls, "_intersect", lambda p, q, n, upper: (F(p, q), n, upper))
    picked = set()
    for k in slopes:
        for side in ("right", "left"):
            n = _reference_scan(k, side)
            if n is None:
                with pytest.raises(OutOfRange) as exc:
                    line_gamma_intersection(k, side)
                assert str(exc.value) == f"slope {k} outside the intersection table ({side})"
            else:
                assert line_gamma_intersection(k, side) == (k, n, side == "right")
            picked.add((side, n))
    assert picked == {("right", n) for n in (None, 0, 1, 2)} | {("left", n) for n in (None, 0, -1, -2, -3, -4)}
    # an end shared by two ranges goes to the smaller |n|
    for k, side, n in ((F(11, 2), "right", 1), (F(-11, 2), "left", -1), (F(-97, 10), "left", -2), (F(-193, 14), "left", -3)):
        assert line_gamma_intersection(k, side) == (k, n, side == "right")


def test_rational_piece_intersections():
    # piece 1 intersections are rational: x0 = (2+k)/5
    for k in (F(1, 2), F(3, 2), F(5), F(11, 2)):
        x = line_gamma_intersection(k, "right")
        assert x == (2 + k) / 5


# -- first wall --------------------------------------------------------------------


def test_first_wall_basic():
    fw = first_wall_bounds(16)
    assert (fw.beta1_min, fw.beta2_max) == (F(-7, 2), F(1, 2))
    assert not fw.bn_semistable
    assert fw.exceptional_case is None


def test_first_wall_bn_flag():
    assert first_wall_bounds(2).bn_semistable
    assert not first_wall_bounds(3).bn_semistable
    # exact threshold root
    thr = bn_threshold()
    assert scalar_sign(BN_THRESHOLD_POLY.evaluate(thr)) == 0
    assert first_wall_bounds(F(2024, 1000)).bn_semistable
    assert not first_wall_bounds(F(2025, 1000)).bn_semistable
    assert compare_scalars(F(2024, 1000), thr) < 0 < compare_scalars(F(2025, 1000), thr)


def test_first_wall_exceptions():
    fw = first_wall_bounds(F(127, 2))
    assert fw.exceptional_case == "mu_63_64" and fw.beta2_max == 2
    fw = first_wall_bounds(F(63, 2))
    assert fw.exceptional_case == "mu_31_32" and fw.beta2_max == 1
    fw = first_wall_bounds(F(65, 2))
    assert fw.exceptional_case == "mu_32_33" and fw.beta1_min == -3
    assert fw.beta2_max == F(65, 64)


def test_first_wall_out_of_range():
    with pytest.raises(OutOfRange):
        first_wall_bounds(65)
    with pytest.raises(OutOfRange):
        first_wall_bounds(-1)


def test_first_wall_width_invariant():
    for k in range(0, 257):
        mu = F(64 * k, 256)
        fw = first_wall_bounds(mu)
        width = fw.beta2_max - fw.beta1_min
        cap = 4 if fw.exceptional_case is None else F(4) + F(1, 32)
        assert width <= cap
        assert fw.beta1_min >= -4 and fw.beta2_max <= 4
        assert fw.beta1_min < fw.beta2_max


def test_secant_relation():
    # Gamma(mu/32) - Gamma(mu/32 - 4) = mu - 64, all mu (periodic correction cancels)
    for k in range(0, 257):
        mu = F(64 * k, 256)
        assert gamma_curve(mu / 32) - gamma_curve(mu / 32 - 4) == mu - 64


def test_wall_line_normalization():
    line = WallLine(F(-8), F(-4), 0)
    assert (line.a, line.b, line.c) == (1, F(1, 2), 0)
    line2 = WallLine(0, F(3), F(6))
    assert (line2.a, line2.b, line2.c) == (0, 1, 2)
    with pytest.raises(ValueError):
        WallLine(0, 0, 1)
