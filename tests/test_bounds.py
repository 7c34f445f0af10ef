import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbound import bounds, exactnum
from tiltbound.bounds import (
    _FALLBACK_CASE,
    BN_THRESHOLD_POLY,
    CLIFFORD_BREAK,
    BoundsError,
    Interval,
    OutOfDomain,
    Piece,
    PiecewiseBound,
    SlopeOutOfTable,
    SlopeOutsideTheorem,
    SPADE_CASES,
    bg_bound_surface,
    bg_bound_threefold,
    bg_linear_family,
    bg_quadratic_family,
    bg_refined_family,
    _TABLE_BOUNDARIES,
    _band,
    _nearest_band,
    bn_threshold,
    clifford_bound,
    clifford_case,
    clifford_family,
    piecewise_check,
    spade,
    spade_case_for_slope,
    spade_fallback,
)
from tiltbound.chern import CurveClass
from tiltbound.convexopt import triangle_from_first_wall
from tiltbound.exactnum import Poly1, QuadNum, RadicalSum, compare_scalars, floor_scalar, scalar_sign
from tiltbound.walls import OutOfRange, first_wall_bounds


# -- spade -------------------------------------------------------------------------


def test_spade_examples():
    assert spade((0, 1)) == QuadNum(0, 1, 5)
    assert spade((-1, 1)) == F(5, 3)


def test_spade_homogeneity():
    rng = random.Random(3)
    count = 0
    while count < 200:
        x = F(rng.randrange(-40, 41), rng.randrange(1, 8))
        y = F(rng.randrange(1, 40), rng.randrange(1, 8))
        t = F(rng.randrange(1, 30), rng.randrange(1, 8))
        try:
            base = spade((x, y))
        except SlopeOutOfTable:
            continue
        scaled = spade((t * x, t * y))
        assert compare_scalars(scaled, t * base) == 0
        count += 1


def test_spade_fallback_homogeneous():
    p = spade_fallback((F(1, 3), F(1, 2)))
    q = spade_fallback((F(7, 3), F(7, 2)))
    assert compare_scalars(q, 7 * p) == 0


def test_spade_out_of_table_and_fallback():
    with pytest.raises(SlopeOutOfTable):
        spade((F(1, 3), 1))  # slope in the gap (1/4, 1/2)
    v = spade((F(1, 3), 1), fallback=True)
    assert compare_scalars(v, spade_fallback((F(1, 3), 1))) == 0


def test_spade_requires_positive_y():
    for p in ((1, 0), (1, -1)):
        for bound in (spade, spade_fallback, lambda p: spade(p, fallback=True)):
            with pytest.raises(OutOfDomain):
                bound(p)


def test_spade_case_dispatch():
    assert spade_case_for_slope(F(6)).case_id == 1
    assert spade_case_for_slope(F(2)).case_id == 2
    assert spade_case_for_slope(F(0)).case_id == 3
    assert spade_case_for_slope(F(-2)).case_id == 4
    assert spade_case_for_slope(F(-9)).case_id == 5
    assert spade_case_for_slope(F(-23, 2)).case_id == 6
    assert spade_case_for_slope(F(-17)).case_id == 7
    # band rows own their endpoints
    assert spade_case_for_slope(F(-3)).case_id == 8
    assert spade_case_for_slope(F(-4)).case_id == 8
    assert spade_case_for_slope(F(3)).case_id == 9
    assert spade_case_for_slope(F(4)).case_id == 9
    assert spade_case_for_slope(F(15, 2)).case_id == 9
    assert spade_case_for_slope(F(8)).case_id == 9
    assert spade_case_for_slope(F(-199, 10)).case_id == 8  # n = 5 band [-20, -99/5]
    with pytest.raises(SlopeOutOfTable):
        spade_case_for_slope(F(11))  # gap (97/10, 35/3)


def test_spade_agreement_at_shared_closed_boundaries():
    # -11/2: cases 4 and 5; -97/10: cases 5 and 6; -193/14: cases 6 and 7;
    # 11/2: cases 2 and 1 -- the formulas agree exactly there
    pairs = {
        F(11, 2): (1, 0),
        F(-11, 2): (3, 4),
        F(-97, 10): (4, 5),
        F(-193, 14): (5, 6),
    }
    for s, (i, j) in pairs.items():
        va = SPADE_CASES[i].value(s, F(1))
        vb = SPADE_CASES[j].value(s, F(1))
        assert compare_scalars(va, vb) == 0


def test_spade_gap_at_band_boundaries():
    # at 15/2 the case-1 and case-9 formulas differ by exactly 1/30
    v1 = SPADE_CASES[0].value(F(15, 2), F(1))
    v9 = SPADE_CASES[8].value(F(15, 2), F(1))
    assert v9 - v1 == F(1, 30)
    # at -3 the case-4 and case-8 rows genuinely differ
    v4 = SPADE_CASES[3].value(F(-3), F(1))
    v8 = SPADE_CASES[7].value(F(-3), F(1))
    assert v8 - v4 == F(4, 3) - F(5, 5)  # 4/3 vs 1 = 1/3
    assert v8 == F(4, 3) and v4 == F(1)


def test_spade_irrational_slope_dispatch():
    s = QuadNum(0, 1, 2)  # sqrt 2 in [1/2, 3)
    assert spade_case_for_slope(s).case_id == 2


def test_spade_huge_irrational_slope_is_out_of_table():
    with pytest.raises(SlopeOutOfTable):
        spade((QuadNum(10**400, 1, 2), 1))


def test_slope_table_derived_views():
    from tiltbound.bounds import _TABLE_BOUNDARIES
    from tiltbound.walls import _LEFT_RANGES, _RIGHT_RANGES

    assert list(_TABLE_BOUNDARIES) == [
        F(-107, 6), F(-16), F(-63, 4), F(-193, 14), F(-12), F(-35, 3), F(-97, 10), F(-8),
        F(-15, 2), F(-11, 2), F(-4), F(-3), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2),
        F(3), F(4), F(11, 2), F(15, 2), F(8), F(97, 10),
    ]
    # right: rows 3, 2, 1; left: rows 3, 4, 5, 6, 7
    assert _RIGHT_RANGES == [
        (F(-1, 4), F(1, 4), 0),
        (F(1, 2), F(11, 2), 1),
        (F(11, 2), F(97, 10), 2),
    ]
    assert _LEFT_RANGES == [
        (F(-1, 4), F(1, 4), 0),
        (F(-11, 2), F(-1, 2), -1),
        (F(-97, 10), F(-11, 2), -2),
        (F(-193, 14), F(-97, 10), -3),
        (F(-107, 6), F(-193, 14), -4),
    ]
    for n in range(1, 5):
        for s in (F(-4 * n), F(1 - 4 * n * n, n)):
            assert spade_case_for_slope(s).case_id == 8
        for s in (F(4 * n * n - 1, n), F(4 * n)):
            assert spade_case_for_slope(s).case_id == 9
    # shared closed endpoints belong to the lower-numbered row
    for s, case_id in ((F(11, 2), 1), (F(-11, 2), 4), (F(-97, 10), 5), (F(-193, 14), 6)):
        assert spade_case_for_slope(s).case_id == case_id


def _contains(r, s):
    # exact rich comparisons of Fraction and QuadNum
    return (r.lo < s or (r.lo_closed and r.lo == s)) and (s < r.hi or (r.hi_closed and s == r.hi))


def _reference_dispatch(s):
    """The band rows first, then a scan of rows 1-7 in order."""
    if isinstance(s, QuadNum) and s.is_rational:
        s = s.as_fraction()
    n = _nearest_band(s)
    if n != 0:
        case8, case9 = _band(abs(n))
        if n < 0 and _contains(case8, s):
            return SPADE_CASES[7]
        if n > 0 and _contains(case9, s):
            return SPADE_CASES[8]
    for row in SPADE_CASES[:7]:
        if any(_contains(r, s) for r in row.ranges):
            return row
    return None


def _dispatch_or_none(s):
    try:
        return spade_case_for_slope(s)
    except SlopeOutOfTable:
        return None


def test_bisect_dispatch_matches_row_scan():
    eps = F(1, 10**9)
    slopes = [b + d for b in _TABLE_BOUNDARIES for d in (0, eps, -eps)]
    for n in range(1, 31):
        for r in _band(n):
            for end in (r.lo, r.hi):
                slopes += [end, -end, end + eps, end - eps]
    rng = random.Random(97)
    slopes += [F(rng.randrange(-25000, 15000), rng.randrange(1, 1000)) for _ in range(20000)]
    for _ in range(3000):
        m = rng.choice([2, 3, 5, 6, 7, 13, 61, 69, 2374])
        a = F(rng.randrange(-200, 121), rng.randrange(1, 10))
        b = F(rng.randrange(-40, 40) or 1, rng.randrange(1, 10))
        slopes.append(QuadNum(a, b, m))
    out_of_table = 0
    for s in slopes:
        expected = _reference_dispatch(s)
        assert _dispatch_or_none(s) is expected, s
        out_of_table += expected is None
    assert 0 < out_of_table < len(slopes)


_R2 = QuadNum(0, 1, 2)
_RAT = st.fractions(min_value=-200, max_value=200, max_denominator=40)
_POINTS = {
    "rational": st.tuples(_RAT, _RAT),
    # plain ints, as in the brute force's integer frame (no clear_denominators)
    "integer": st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6)),
    "sqrt2_scaled": st.tuples(_RAT, _RAT).map(lambda xy: (xy[0] * _R2, xy[1] * _R2)),
    "a_plus_b_sqrt2": st.tuples(_RAT, _RAT, _RAT, _RAT).map(
        lambda c: (QuadNum(c[0], c[1], 2), QuadNum(c[2], c[3], 2))
    ),
}


@pytest.mark.parametrize("kind", list(_POINTS))
@pytest.mark.parametrize("row", (*SPADE_CASES, _FALLBACK_CASE), ids=lambda row: f"case{row.case_id}")
def test_enclosure_brackets_the_exact_value(row, kind):
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(point=_POINTS[kind], bits=st.sampled_from((0, 1, 5, 64)))
    def check(point, bits):
        x, y = point
        try:
            value = row.value(x, y)
        except Exception as exc:  # the enclosure refuses the same points
            with pytest.raises(Exception) as refused:
                row.enclosure(x, y, bits)
            assert type(refused.value) is type(exc)
            return
        lo, hi = row.enclosure(x, y, bits)
        scaled = RadicalSum.of(value).scale(2**bits)
        assert (scaled - lo).sign() >= 0 and (scaled - hi).sign() <= 0
        assert hi - lo <= abs(row.srt.numerator if row.srt is not None else 0) + 2

    check()


def _count_square_free_core(monkeypatch) -> list:
    """The argument of every square_free_core call, from exactnum or bounds."""
    calls, original = [], exactnum.square_free_core

    def counted(n):
        calls.append(n)
        return original(n)

    for module in (exactnum, bounds):
        monkeypatch.setattr(module, "square_free_core", counted)
    return calls


@pytest.mark.parametrize(
    "row", [row for row in SPADE_CASES if row.srt is not None] + [_FALLBACK_CASE], ids=lambda row: f"case{row.case_id}"
)
def test_spade_finishes_a_rational_point_in_one_step(row, monkeypatch):
    # the value is built from one square_free_core of the frame's radicand,
    # with no sqrt_exact; the fallback row is reached from an off-table slope
    s = (row.ranges[0].lo + row.ranges[0].hi) / 2 if row.ranges else F(3, 8)
    y = F(7, 3)
    calls = _count_square_free_core(monkeypatch)
    monkeypatch.setattr(bounds, "sqrt_exact", None)
    value = spade((s * y, y), fallback=not row.ranges)
    assert len(calls) == 1, calls
    assert isinstance(value, QuadNum) and value.b


def test_irrational_spade_point_factors_only_its_radicand(monkeypatch):
    # RadicalSum.to_exact collapses over a key that is already square-free
    r2, expected = QuadNum(0, 1, 2), QuadNum(0, 5, 2)
    calls = _count_square_free_core(monkeypatch)
    assert SPADE_CASES[2].value(r2, 2 * r2) == expected
    assert calls == [162]


# -- clifford -----------------------------------------------------------------------


def test_clifford_examples():
    assert clifford_bound((1, 0)) == 1
    assert clifford_bound((1, 16)) == F(9, 4)
    assert clifford_bound((1, 64)) == 18


def test_clifford_forced_values():
    for r in range(1, 8):
        assert clifford_bound((r, 0)) == r
        assert clifford_bound((r, 64 * r)) == 18 * r


def test_clifford_break_switch():
    # the sqrt(69) breakpoint is a root of 5 mu^2 - 1152 mu + 52224
    val = 5 * CLIFFORD_BREAK * CLIFFORD_BREAK - 1152 * CLIFFORD_BREAK + 52224
    assert scalar_sign(val) == 0
    below = F(62)  # < (576-32 sqrt69)/5 ~ 62.036
    above = F(6204, 100)
    assert compare_scalars(below, CLIFFORD_BREAK) < 0 < compare_scalars(above, CLIFFORD_BREAK)
    r, d = below.denominator, below.numerator
    assert clifford_bound((r, d)) == 5 * d * d / F(1024 * r) + 5 * r - F(d, 8)
    r, d = above.denominator, above.numerator
    assert clifford_bound((r, d)) == d - 46 * r


def test_clifford_breakpoints_are_pinned():
    # both are derived as real_roots of polynomials; their written fields stay
    for root, fields in ((CLIFFORD_BREAK, (F(576, 5), F(-32, 5), 69)), (bn_threshold(), (F(256, 3), F(-32, 3), 61))):
        assert type(root) is QuadNum
        assert (root.a, root.b, root.m) == fields
        assert (type(root.a), type(root.b), type(root.m)) == (F, F, int)


def test_clifford_pieces_meet_with_one_jump():
    # the bound jumps at the Brill-Noether threshold, from 64/(64 - mu) to
    # 1 + 5 mu^2/1024 per rank, and is continuous at the sqrt(69) switch
    rep = piecewise_check(clifford_family, "continuity")
    assert not rep.ok
    ((x, left, right),) = rep.details
    assert x == bn_threshold()
    assert left == QuadNum(F(4, 19), F(2, 19), 61)  # (4 + 2*sqrt(61))/19 ~ 1.0327
    assert right == QuadNum(F(634, 9), F(-80, 9), 61)  # (634 - 80*sqrt(61))/9 ~ 1.0200
    assert compare_scalars(left, right) > 0
    high, linear = clifford_family.pieces[2:]
    assert high.interval.hi == linear.interval.lo == CLIFFORD_BREAK
    assert high.value(CLIFFORD_BREAK) == linear.value(CLIFFORD_BREAK) == QuadNum(F(346, 5), F(-32, 5), 69)


def test_clifford_uncovered_band():
    with pytest.raises(SlopeOutsideTheorem):
        clifford_bound((1, 32))
    with pytest.raises(SlopeOutsideTheorem):
        clifford_bound((1, 65))
    with pytest.raises(OutOfDomain):
        clifford_bound((0, 1))


@pytest.mark.parametrize(
    "mu, case",
    [
        (F(0), "bn"),
        (F(2024, 1000), "bn"),  # below (256 - 32 sqrt 61)/3 ~ 2.024003
        (F(2025, 1000), "low"),
        (F(16), "low"),
        (F(48), "high"),
        (F(62), "high"),  # below CLIFFORD_BREAK ~ 62.0376
        (F(6204, 100), "linear"),
        (F(64), "linear"),
    ],
)
def test_clifford_case(mu, case):
    for r in (1, 3):
        e = CurveClass(r, r * mu)
        assert clifford_case(e) == case
        assert triangle_from_first_wall(e).mu_case == ("high" if case == "linear" else case)


def test_clifford_case_domain():
    for mu in (F(-1, 64), F(16001, 1000), F(32), F(47999, 1000), F(4097, 64)):
        with pytest.raises(SlopeOutsideTheorem):
            clifford_case(CurveClass(2, 2 * mu))
    for r in (0, -1):
        with pytest.raises(OutOfDomain):
            clifford_case(CurveClass(r, 1))


def _reference_case(e: CurveClass) -> str:
    """The Clifford case decided on Fractions: the domain by comparisons,
    the Brill-Noether band by ``BN_THRESHOLD_POLY.evaluate`` and the sqrt(69)
    switch by ``compare_scalars`` with ``CLIFFORD_BREAK``."""
    if e.r < 1:
        raise OutOfDomain("the Clifford cases need r >= 1")
    mu = e.slope
    if not (0 <= mu <= 16 or 48 <= mu <= 64):
        raise SlopeOutsideTheorem(f"mu = {mu} outside [0,16] u [48,64]")
    if mu <= 16:
        return "bn" if BN_THRESHOLD_POLY.evaluate(mu) > 0 else "low"
    return "high" if compare_scalars(mu, CLIFFORD_BREAK) <= 0 else "linear"


def _outcome(fn, *args):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (BoundsError, OutOfRange) as exc:
        return type(exc), str(exc)


def _convergents(x, max_den: int) -> list:
    """Continued-fraction convergents of an irrational x up to denominator
    max_den, by exact floors; they lie alternately below and above x."""
    out, (h0, h1), (k0, k1) = [], (0, 1), (1, 0)
    while True:
        a = floor_scalar(x)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        if k1 > max_den:
            return out
        out.append(F(h1, k1))
        x = 1 / (x - a)


def test_clifford_switches_match_the_fraction_decisions():
    rng = random.Random(30)
    # both switch roots, written out here so that a changed library
    # coefficient flips a case at a convergent: (256 - 32*sqrt(61))/3 and
    # (576 - 32*sqrt(69))/5
    roots = {"bn": QuadNum(F(256, 3), F(-32, 3), 61), "high": QuadNum(F(576, 5), F(-32, 5), 69)}
    near = {}
    for below, root in roots.items():
        for i, mu in enumerate(_convergents(root, 10**6)):
            assert compare_scalars(mu, root) == (-1 if i % 2 == 0 else 1)
            near[mu] = below if i % 2 == 0 else {"bn": "low", "high": "linear"}[below]
    assert min(mu.denominator for mu in near) == 1 and 10**5 < max(mu.denominator for mu in near) <= 10**6
    mus = [F(k, 64) for k in range(0, 64 * 64 + 1)] + list(near)
    mus += [F(rng.randrange(-2 * q, 66 * q + 1), q) for q in (rng.randrange(1, 10**4) for _ in range(4000))]
    seen = set()
    for mu in mus:
        in_range = 0 <= mu <= 64
        fw = _outcome(first_wall_bounds, mu)
        if in_range:
            assert fw.bn_semistable == (BN_THRESHOLD_POLY.evaluate(mu) > 0)
            if near.get(mu) in ("bn", "low"):
                assert fw.bn_semistable == (near[mu] == "bn"), mu
        else:
            assert fw == (OutOfRange, "mu must lie in [0, 64]")
        for r in (1, 3, F(5, 2)):
            e = CurveClass(r, r * mu)
            case = _outcome(clifford_case, e)
            assert case == _outcome(_reference_case, e), (r, mu)
            seen.add(case if isinstance(case, str) else case[0])
            if mu in near:
                assert case == near[mu], (r, mu)
            if not isinstance(case, str):
                assert _outcome(clifford_bound, e) == case
                continue
            piece = clifford_family.piece_at(mu)
            assert piece.name == case
            bound = clifford_bound(e)
            assert type(bound) is F and bound == r * piece.poly.evaluate(mu) / piece.den.evaluate(mu)
            assert triangle_from_first_wall(e).mu_case == ("high" if case == "linear" else case)
    assert seen == {"bn", "low", "high", "linear", SlopeOutsideTheorem}
    for r in (0, F(1, 2), -1):
        e = CurveClass(r, 8)
        assert _outcome(clifford_case, e) == _outcome(_reference_case, e) == (OutOfDomain, "the Clifford cases need r >= 1")


# -- bg families ----------------------------------------------------------------------


def test_bg_surface_examples():
    assert bg_bound_surface(F(1, 10)) == F(-9, 100)
    assert bg_bound_surface(F(1, 2)) == F(1, 32)
    # continuity at (4-sqrt13)/3, root of 3x^2-8x+1
    bp = (4 - QuadNum(0, 1, 13)) / 3
    p1 = bg_quadratic_family.pieces[0].poly.evaluate(bp)
    p2 = bg_quadratic_family.pieces[1].poly.evaluate(bp)
    assert compare_scalars(p1, p2) == 0


def test_bg_surface_domain():
    with pytest.raises(OutOfDomain):
        bg_bound_surface(F(0))
    with pytest.raises(OutOfDomain):
        bg_bound_surface(F(1))


def test_bg_threefold_linear_examples():
    assert bg_bound_threefold(F(1, 5), "linear") == F(-1, 10)
    assert bg_bound_threefold(F(10, 11), "linear") == F(79, 242)
    assert bg_bound_threefold(F(-10, 11), "linear") == F(79, 242)  # |x|
    with pytest.raises(OutOfDomain):
        bg_bound_threefold(F(3, 2), "linear")


def test_bg_threefold_quadratic():
    # an integer twists to 0, where the family's first piece is closed and 0
    for x in (0, 3, -2, QuadNum(4), 5):
        value = bg_bound_threefold(x, "quadratic")
        assert type(value) is F and value == 0, x
    assert bg_bound_threefold(F(3, 2), "quadratic") == bg_bound_threefold(F(1, 2), "quadratic")
    assert bg_bound_threefold(F(1, 2), "quadratic") == F(1, 32)


def test_bg_threefold_refined():
    # on [1/5, 1/4] the refined value is the parabola (the stronger of the two)
    x = F(9, 40)
    line = F(9, 32) * x - F(5, 32)
    parabola = F(5, 8) * x * x - F(1, 8)
    assert bg_bound_threefold(x, "refined") == min(line, parabola) == parabola
    with pytest.raises(OutOfDomain):
        bg_bound_threefold(F(6, 10), "refined")


def test_bg_strictly_below_classical():
    for k in range(1, 256):
        x = F(k, 256)
        assert bg_bound_surface(x) < x * x / 2
        assert bg_bound_threefold(x, "quadratic") < x * x / 2


# -- piecewise engine -----------------------------------------------------------------


def test_linear_continuity_values():
    rep = piecewise_check(bg_linear_family, "continuity")
    assert rep.ok
    assert bg_linear_family.evaluate(F(1, 5)) == F(-1, 10)
    assert bg_linear_family.evaluate(F(1, 2)) == F(1, 32)
    assert bg_linear_family.evaluate(F(4, 5)) == F(1, 5)
    assert bg_linear_family.evaluate(F(10, 11)) == F(79, 242)


def test_quadratic_continuity():
    rep = piecewise_check(bg_quadratic_family, "continuity")
    assert rep.ok


def test_dominance_equality_set():
    rep = piecewise_check(bg_linear_family, "dominance", bg_quadratic_family)
    assert rep.ok
    points, has_interval, witness = rep.details
    assert not has_interval and witness is None
    expected = [F(0), F(1, 5), F(1, 2), F(4, 5), F(10, 11), F(1)]
    assert len(points) == 6
    for got, want in zip(points, expected):
        assert compare_scalars(got, want) == 0


def test_refined_dominance():
    secant, parabola, tail = bg_refined_family
    rep = piecewise_check(secant, "dominance", bg_quadratic_family)
    assert rep.ok
    pts, _, _ = rep.details
    assert [str(p) for p in pts] == ["1/5", "1/4"]
    assert piecewise_check(parabola, "dominance", bg_quadratic_family).ok
    assert piecewise_check(tail, "dominance", bg_quadratic_family).ok


def test_convexity_check():
    rep = piecewise_check(bg_quadratic_family, "convexity_on")
    # every piece is convex, but the bound itself has concave kinks at the
    # first and third breakpoints (slope drops); the report records them
    per_piece, kinks = rep.details
    assert all(per_piece)
    assert len(kinks) == 3


def test_piece_table_export():
    table = bg_linear_family.to_table()
    assert len(table) == 5
    assert table[0]["poly"] == ["0", "-1/2"]


# a ratio piece, 1/(1 + x) on [0, 1], beside a polynomial one
_RATIO = PiecewiseBound(
    "ratio",
    [
        Piece(Interval(F(0), F(1)), Poly1([1]), Poly1([1, 1])),
        Piece(Interval(F(1), F(2)), Poly1([F(1, 2)])),
    ],
)


def test_ratio_piece_refuses_convexity():
    # the check reads a piece's numerator alone, so a ratio piece is refused
    with pytest.raises(ValueError, match="ratio"):
        piecewise_check(_RATIO, "convexity_on")
    with pytest.raises(ValueError, match="ratio"):
        piecewise_check(clifford_family, "convexity_on")


def test_ratio_piece_refuses_dominance():
    for f, g in ((_RATIO, bg_linear_family), (bg_linear_family, _RATIO)):
        with pytest.raises(ValueError, match="ratio"):
            piecewise_check(f, "dominance", g)


def test_ratio_piece_values_and_continuity():
    assert _RATIO.evaluate(F(1, 3)) == F(3, 4)
    assert _RATIO.evaluate(F(1)) == F(1, 2)
    assert piecewise_check(_RATIO, "continuity").ok
    assert _RATIO.to_table()[0]["den"] == ["1", "1"]
    assert "den" not in _RATIO.to_table()[1]


def test_out_of_domain_evaluate():
    with pytest.raises(OutOfDomain):
        bg_linear_family.evaluate(F(2))
