import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbound.bounds import (
    _FALLBACK_CASE,
    SPADE_CASES,
    Interval,
    NestedRadical,
    SlopeOutOfTable,
    SlopeOutsideTheorem,
    _band,
    clifford_bound,
    spade,
    spade_fallback,
)
from tiltbound import bounds, convexopt, exactnum
from tiltbound.convexopt import (
    ConvexChain,
    ConvexOptError,
    DegenerateTriangle,
    GridTooLarge,
    ORIGIN,
    PlanePoint,
    _cone_order,
    _walk_plan,
    clifford_chain_bound,
    maximize_bruteforce,
    maximize_reduced,
    spade_sum,
    triangle_from_first_wall,
)
from tiltbound.exactnum import Poly1, QuadNum, RadicalSum, compare_scalars, floor_scalar, scalar_sign, sqrt_exact


# -- chains -----------------------------------------------------------------------


def test_chain_validation():
    with pytest.raises(ValueError):
        ConvexChain([PlanePoint(1, 1)])  # must start at origin
    with pytest.raises(ValueError):
        ConvexChain([ORIGIN, PlanePoint(1, 0)])  # increments need y > 0
    with pytest.raises(ValueError):
        # slopes must be non-increasing
        ConvexChain([ORIGIN, PlanePoint(-1, 1), PlanePoint(1, 2)])
    chain = ConvexChain([ORIGIN, PlanePoint(1, 1), PlanePoint(1, 2)])
    assert chain.segments() == 2


def test_chain_collinear_merge():
    chain = ConvexChain([ORIGIN, PlanePoint(1, 1), PlanePoint(2, 2), PlanePoint(2, 3)])
    merged = chain.merged()
    assert merged.segments() == 2
    assert merged.vertices[1] == PlanePoint(2, 2)


def test_spade_sum_examples():
    assert spade_sum(ConvexChain([ORIGIN, PlanePoint(0, 2)])).to_exact() == QuadNum(0, 2, 5)
    tri = triangle_from_first_wall((1, 16))
    chain = ConvexChain([ORIGIN, tri.p, tri.q])
    assert spade_sum(chain).to_exact() == F(9, 4)
    assert spade_sum(ConvexChain([ORIGIN])).to_exact() == 0


def test_spade_sum_collinear_insertion_invariant():
    rng = random.Random(43)
    base = ConvexChain([ORIGIN, PlanePoint(-1, 1), PlanePoint(-4, 3)])
    value = spade_sum(base)
    # insert a collinear midpoint on the first segment
    mid = PlanePoint(F(-1, 2), F(1, 2))
    refined = ConvexChain([ORIGIN, mid, PlanePoint(-1, 1), PlanePoint(-4, 3)])
    assert (spade_sum(refined) - value).is_zero()


# -- triangles ----------------------------------------------------------------------


def test_triangle_examples():
    tri = triangle_from_first_wall((1, 16))
    assert (tri.q.x, tri.q.y) == (-48, 4)
    assert (tri.p.x, tri.p.y) == (F(1, 4), F(1, 2))
    tri64 = triangle_from_first_wall((1, 64))
    assert (tri64.q.x, tri64.q.y) == (0, 4)
    assert (tri64.p_triple.x, tri64.p_triple.y) == (16, 2)
    assert (tri64.p_prime.x, tri64.p_prime.y) == (16, 2)
    tri0 = triangle_from_first_wall((1, 0))
    assert tri0.degenerate and tri0.p.y == 0
    with pytest.raises(SlopeOutsideTheorem):
        triangle_from_first_wall((1, 32))


def test_p_prime_slopes():
    tri = triangle_from_first_wall((1, 63))
    assert tri.p_prime.slope() == F(63 - 48, 2)
    assert (tri.q - tri.p_prime).slope() == -8


# -- reduced maximization --------------------------------------------------------------


def test_maximize_reduced_thm_triangle():
    tri = triangle_from_first_wall((1, 16))
    res = maximize_reduced(tri.origin, tri.p, tri.q)
    assert compare_scalars(res.value, F(9, 4)) == 0
    assert res.chain.segments() == 2
    assert res.chain.vertices[1] == tri.p


def test_maximize_reduced_collapsed():
    q = PlanePoint(-48, 4)
    p_on = PlanePoint(-24, 2)
    res = maximize_reduced(ORIGIN, p_on, q)
    assert compare_scalars(res.value, F(4, 3)) == 0  # spade(O->Q)


def test_maximize_reduced_degenerate():
    with pytest.raises(DegenerateTriangle):
        maximize_reduced(ORIGIN, PlanePoint(1, 0), PlanePoint(-48, 4))
    with pytest.raises(DegenerateTriangle):
        # slope order violated: slope(OP) < slope(OQ)
        maximize_reduced(ORIGIN, PlanePoint(-5, 1), PlanePoint(-2, 2))


def test_maximize_reduced_sharp_exceeds_closed_form_at_mu8():
    # documented subtlety: with the verbatim slope-table rows, the edge
    # vertex at slope -3 beats the closed form 21/16 (944/705 > 21/16)
    tri = triangle_from_first_wall((1, 8))
    res = maximize_reduced(tri.origin, tri.p, tri.q, fallback=True)
    assert compare_scalars(res.value, F(944, 705)) == 0
    assert compare_scalars(res.value, clifford_bound((1, 8))) > 0


# maximize_reduced values only chains whose segments lie on cone slopes; that
# is exact because every row is convex along an affine path with y > 0.


# n*s at the ends of the band-n ranges of rows 8 and 9, as polynomials in n
# (bounds._band(-n) and _band(n)): row 8 on [-4n, (1 - 4n^2)/n], row 9 on
# [(4n^2 - 1)/n, 4n]
BAND_ENDS_TIMES_N = {8: (Poly1([0, 0, -4]), Poly1([1, 0, -4])), 9: (Poly1([-1, 0, 4]), Poly1([0, 0, 4]))}


def test_spade_rows_are_convex_along_paths():
    # a proof from SpadeCase.integral, c*value = L.(x, y) + S*sqrt(Q) + N/D
    # with c > 0, for every range and every band; L is affine
    roots, ratios = {}, {}
    for row in SPADE_CASES + (_FALLBACK_CASE,):
        c, _, s, q, num, den = row.integral
        assert c > 0 and (q is None or num is None), row.case_id
        if q is not None:
            # along a + t*d, Q = Q(a) + 2t*B(a, d) + t^2*Q(d) and
            # Q(a)*Q(d) - B(a, d)^2 = det G*(a x d)^2, G the Gram matrix of Q,
            # so (sqrt Q)'' has the sign of det G: S*sqrt(Q) is convex iff S*det G > 0
            roots[row.case_id] = s * (4 * q[0] * q[2] - q[1] ** 2)  # 4*S*det G
        elif num is not None:
            # N = alpha*D^2 + beta*D*u + gamma*u^2 for u independent of D, so
            # N/D = alpha*D + beta*u + gamma*u^2/D, convex where N(k)*D > 0
            # for the kernel direction k of D, N(k) = gamma*u(k)^2
            k = (den[1], -den[0])
            n_k = num[0] * k[0] ** 2 + num[1] * k[0] * k[1] + num[2] * k[1] ** 2
            ratios[row.case_id] = n_k
            # D(s*y, y) = y*D(s, 1) with y > 0, and D(s, 1) is affine in s,
            # so its signs at the exact end slopes decide each range
            for r in row.ranges or ():
                for end in (r.lo, r.hi):
                    assert n_k * (den[0] * end + den[1]) > 0, (row.case_id, end)
    assert all(v > 0 for v in roots.values()), roots
    assert roots == {1: 240, 3: 80, 5: 240, 6: 640, 7: 1200, 0: 80}
    assert ratios == {2: 5, 4: 5, 8: -4, 9: 4}
    # bands: n*D(s, 1) = d0*(n*s) + d1*n at each end is a polynomial in n;
    # written in m = n - 1 >= 0 with nonnegative coefficients and a positive
    # constant (times N(k)), it is positive for every band n >= 1
    for row in SPADE_CASES[7:]:
        (d0, d1), n_k = row.integral[5], ratios[row.case_id]
        for end in BAND_ENDS_TIMES_N[row.case_id]:
            shifted = (end * d0 + Poly1([0, d1])).compose_affine(1, 1) * n_k
            assert shifted.coeffs[0] > 0 and min(shifted.coeffs) >= 0, (row.case_id, end)
    # _band's n*s has degree at most 2 in n, so three bands pin its polynomials
    for n in (1, 2, 3, 7):
        for row, band in zip(SPADE_CASES[7:], (_band(-n), _band(n))):
            assert [n * e for e in band] == [p.evaluate(n) for p in BAND_ENDS_TIMES_N[row.case_id]]


@st.composite
def row_segments(draw):
    """A row and two points whose slopes lie in one closed range of it."""
    row = draw(st.sampled_from(SPADE_CASES + (_FALLBACK_CASE,)))
    if row is _FALLBACK_CASE:
        rng = Interval(F(-40), F(40))
    elif row.ranges is None:
        n = draw(st.integers(1, 12))
        rng = Interval(*_band(n if row.case_id == 9 else -n))
    else:
        rng = draw(st.sampled_from(row.ranges))
    points = []
    for _ in range(2):
        s = rng.lo + (rng.hi - rng.lo) * F(draw(st.integers(0, 96)), 96)
        y = draw(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8))
        points.append(PlanePoint(s * y, y))
    return row, points[0], points[1]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(row_segments())
def test_spade_rows_are_midpoint_convex(segment):
    row, a, b = segment
    mid = (a + b).scale(F(1, 2))

    def value(w):
        return RadicalSum.of(row.value(w.x, w.y))

    assert (value(a) + value(b) - value(mid).scale(2)).sign() >= 0, (row.case_id, a, b)


# -- the closed-form recipe -----------------------------------------------------------------


def test_clifford_chain_examples():
    res = clifford_chain_bound(1, 16)
    assert res.value == F(9, 4) and res.branch == "gamma_wall_triangle"
    res = clifford_chain_bound(1, 64)
    assert res.value == 18 and res.branch == "max_branch_linear"
    res = clifford_chain_bound(1, 2)
    assert res.value == F(32, 31) and res.branch == "bn_bogomolov"


def test_clifford_chain_matches_closed_form_dense():
    for num in list(range(0, 33)) + list(range(96, 129)):
        mu = F(num, 2)
        if not (0 <= mu <= 16 or 48 <= mu <= 64):
            continue
        r, d = mu.denominator, mu.numerator
        assert compare_scalars(clifford_chain_bound(r, d).value, clifford_bound((r, d))) == 0


# -- brute force ------------------------------------------------------------------------


def test_bruteforce_trivial_grids():
    tri = triangle_from_first_wall((1, 16))
    res = maximize_bruteforce(tri.origin, tri.p, tri.q, 1)
    assert compare_scalars(res.value, F(9, 4)) == 0  # grid 1 can still go via P
    res8 = maximize_bruteforce(tri.origin, tri.p, tri.q, 8)
    assert compare_scalars(res8.value, F(9, 4)) == 0
    assert res8.chain.merged().segments() <= 2


def test_bruteforce_degenerate_collapse():
    # a collapsed triangle has Q = lam*P with lam > 1: every chain on that
    # ray is worth spade(Q) and merges to O->Q, at every grid
    q = PlanePoint(-48, 4)
    p_on = PlanePoint(-24, 2)
    off_p, off_q = PlanePoint(10, 1), PlanePoint(30, 3)  # slope 10: off the table
    for n in range(1, 10):
        res = maximize_bruteforce(ORIGIN, p_on, q, n)
        assert compare_scalars(res.value, F(4, 3)) == 0, n
        assert res.chain.vertices == (ORIGIN, q), n
        with pytest.raises(ConvexOptError):
            maximize_bruteforce(ORIGIN, off_p, off_q, n)
        res = maximize_bruteforce(ORIGIN, off_p, off_q, n, fallback=True)
        assert compare_scalars(res.value, spade_fallback(off_q)) == 0, n
        assert res.chain.vertices == (ORIGIN, off_q), n


def test_bruteforce_values_only_the_winning_chain_exactly(monkeypatch):
    # the first case-6 triangle of acceptance 05 at grid 40: its 1,471 cone
    # directions are compared by integer enclosures, so a row is valued
    # exactly (and a radicand factored) once per distinct step of the
    # winning chain, and never for the directions that lose
    p, q = PlanePoint(F(-1227, 64), F(3, 2)), PlanePoint(F(-18513, 800), F(9, 5))
    calls = {"value": 0, "square_free_core": 0}
    value, square_free_core = bounds.SpadeCase.value, exactnum.square_free_core

    def counted_value(self, x, y):
        calls["value"] += 1
        return value(self, x, y)

    def counted_core(n):
        calls["square_free_core"] += 1
        return square_free_core(n)

    monkeypatch.setattr(bounds.SpadeCase, "value", counted_value)
    for module in (exactnum, bounds):
        monkeypatch.setattr(module, "square_free_core", counted_core)
    res = maximize_bruteforce(ORIGIN, p, q, 40)
    steps = res.chain.segments()  # distinct directions never merge here
    assert steps == 2
    assert calls["value"] <= steps and calls["square_free_core"] <= steps, calls
    assert compare_scalars(res.value, maximize_reduced(ORIGIN, p, q).value) <= 0


def test_bruteforce_values_only_the_steps_that_fit_the_grid(monkeypatch):
    # a direction (a, b) with max(a, 0) + b > n has no step in the grid: of
    # the 1,471 directions of grid 40, 981 fit, the walk plan holds exactly
    # those, and only those are valued
    fits = [(a, b) for a, b in _cone_order(40) if max(a, 0) + b <= 40]
    assert (len(fits), len(_cone_order(40))) == (981, 1471)
    assert [(a, b) for a, b, *_ in _walk_plan(40)] == fits
    calls = []
    enclosure = bounds.SpadeCase.enclosure

    def counted(self, x, y, bits):
        calls.append((x, y))
        return enclosure(self, x, y, bits)

    monkeypatch.setattr(bounds.SpadeCase, "enclosure", counted)
    tri = triangle_from_first_wall((1, 16))
    res = maximize_bruteforce(tri.origin, tri.p, tri.q, 40)
    assert 0 < len(calls) <= len(fits), len(calls)
    assert compare_scalars(res.value, F(9, 4)) == 0


def test_bruteforce_rebuilds_one_vertex_per_run_of_steps(monkeypatch):
    # the winning chain of that triangle takes about 80 raw grid steps in 2
    # directions: each run of equal steps becomes one vertex, not one each
    p, q = PlanePoint(F(-1227, 64), F(3, 2)), PlanePoint(F(-18513, 800), F(9, 5))
    sizes = []

    class RecordingChain(ConvexChain):
        def __init__(self, vertices):
            vertices = tuple(vertices)
            sizes.append(len(vertices))
            super().__init__(vertices)

    monkeypatch.setattr(convexopt, "ConvexChain", RecordingChain)
    res = maximize_bruteforce(ORIGIN, p, q, 40)
    assert sizes and max(sizes) <= 3, sizes
    assert res.chain.vertices[-1] == q


def test_walk_plan_walks_exactly_the_usable_cells():
    # for every grid, each direction with a step in the grid walks, row by
    # row, exactly the targets (i, j) whose source (i - a, j - b) is a grid
    # cell and whose line c = b*i - a*j >= max(0, -a*n) a chain from O to Q
    # can use; equal rows are one range object
    for n in range(1, 61):
        width = n + 1
        plan = _walk_plan(n)
        assert [(a, b) for a, b, *_ in plan] == [(a, b) for a, b in _cone_order(n) if max(a, 0) + b <= n], n
        for a, b, delta, rows, _ in plan:
            assert delta == a * width + b, (n, a, b)
            c_min = max(0, -a * n)
            usable = [
                i * width + j
                for j in range(b, n + 1)
                for i in range(max(a, 0), n - j + 1)
                if b * i - a * j >= c_min
            ]
            assert [w for row in rows for w in row] == usable, (n, a, b)
        rows = [row for *_, dir_rows, _ in plan for row in dir_rows]
        assert len({id(row) for row in rows}) == len({(row.start, row.stop) for row in rows}), n
    rows = [row for *_, dir_rows, _ in _walk_plan(40) for row in dir_rows]
    counts = (len(_walk_plan(40)), len(rows), len({id(row) for row in rows}), sum(map(len, rows)))
    assert counts == (981, 10509, 821, 76072)


def test_bruteforce_is_the_same_from_a_cold_and_a_warm_plan():
    # the walk plan is built by the first call on a grid and reused after:
    # value and chain do not depend on which call built it
    lo, hi = F(-29, 10), F(-6, 10)  # the case-4 hull, as oracle-grid40 cuts it
    s_pq, s_oq, s_op = (lo + (hi - lo) * F(c, 48) for c in (24, 34, 39))
    p = PlanePoint(s_op * 3, 3)
    q_y = 3 * (s_op - s_pq) / (s_oq - s_pq)
    q = PlanePoint(s_oq * q_y, q_y)
    r2 = QuadNum(0, 1, 2)
    cases = [
        (p, q, 40, False),
        (p.scale(r2), q.scale(r2), 40, False),
        (PlanePoint(-24, 2), PlanePoint(-48, 4), 9, False),  # collapsed
        (PlanePoint(10, 1), PlanePoint(30, 3), 9, True),  # collapsed, off the table
        (PlanePoint(16, 1), PlanePoint(F(1, 3), 2), 13, True),
    ]
    for p, q, n, fallback in cases:
        convexopt._walk_plan.cache_clear()
        cold = maximize_bruteforce(ORIGIN, p, q, n, fallback=fallback)
        assert convexopt._walk_plan.cache_info().misses == 1
        warm = maximize_bruteforce(ORIGIN, p, q, n, fallback=fallback)
        assert convexopt._walk_plan.cache_info().hits == 1
        assert type(cold.value) is type(warm.value), (p, q, n)
        assert compare_scalars(cold.value, warm.value) == 0, (p, q, n)
        assert cold.chain.vertices == warm.chain.vertices, (p, q, n)


def test_walk_plan_parents_are_the_farey_parents():
    # every direction but (1, 0) and (-1, 1) is the sum of two plan
    # directions forming a unimodular pair, the lower-slope one earlier in
    # the plan and the higher-slope one later
    for n in range(1, 61):
        plan = _walk_plan(n)
        for k, (a, b, _, _, parents) in enumerate(plan):
            if (a, b) in ((1, 0), (-1, 1)):
                assert parents is None, (n, a, b)
                continue
            i, j = parents
            assert 0 <= i < k < j < len(plan), (n, a, b)
            (a1, b1), (a2, b2) = plan[i][:2], plan[j][:2]
            assert (a1 + a2, b1 + b2) == (a, b), (n, a, b)
            assert a1 * b2 - a2 * b1 == 1, (n, a, b)


def _acceptance_05_triangles():
    """The 20 wall triangles of test_acceptance_05, drawn the same way."""
    rng = random.Random(0xACCE55)
    hulls = [
        (F(-29, 10), F(-6, 10)),
        (F(-24, 100), F(24, 100)),
        (F(6, 10), F(29, 10)),
        (F(-96, 10), F(-82, 10)),
        (F(-134, 10), F(-125, 10)),
        (F(-177, 10), F(-162, 10)),
        (F(-39, 10), F(-31, 10)),
        (F(31, 10), F(39, 10)),
    ]
    triangles = []
    for idx in range(20):
        lo, hi = hulls[idx % len(hulls)]
        s_pq, s_oq, s_op = (lo + (hi - lo) * F(c, 48) for c in sorted(rng.sample(range(1, 48), 3)))
        y_p = F(rng.randrange(1, 5), rng.randrange(1, 3))
        y_q = y_p * (s_op - s_pq) / (s_oq - s_pq)
        triangles.append((PlanePoint(s_op * y_p, y_p), PlanePoint(s_oq * y_q, y_q)))
    return triangles


def _kept_directions(monkeypatch):
    """Record, per brute-force call, the (a, b) that ``_undominated`` keeps."""
    kept = []
    undominated = convexopt._undominated

    def recording(plan, valued):
        indices = undominated(plan, valued)
        kept.append([plan[k][:2] for k in indices])
        return indices

    monkeypatch.setattr(convexopt, "_undominated", recording)
    return kept


def test_undominated_drops_only_on_a_certified_gap(monkeypatch):
    # grid 1: (1, 0), (0, 1) and (-1, 1), where (0, 1) = (1, 0) + (-1, 1);
    # each entry ends with (lo, hi) of its step's value * 2**64
    plan = _walk_plan(1)
    assert [entry[:2] for entry in plan] == [(1, 0), (0, 1), (-1, 1)] and plan[1][4] == (0, 2)
    cases = [
        ([(10, 10), (20, 20), (10, 10)], [0, 1, 2]),  # exact tie
        ([(10, 12), (19, 21), (10, 12)], [0, 1, 2]),  # overlapping enclosures
        ([(10, 12), (19, 20), (10, 12)], [0, 1, 2]),  # hi equals the parents' lo sum
        ([(10, 12), (18, 19), (10, 12)], [0, 2]),  # strict certified gap
        ([None, (-50, -49), (10, 12)], [1, 2]),  # a parent refused
        ([(10, 12), (0, 0), None], [0, 1]),  # the other parent refused
        ([(10, 12), None, (10, 12)], [0, 2]),  # the direction refused
    ]
    for valued, kept in cases:
        assert convexopt._undominated(plan, valued) == kept, valued
    kept = _kept_directions(monkeypatch)
    # on a collapsed triangle every step lies on one ray, where spade is
    # additive: each direction ties its parents exactly and is kept
    for p, q, fallback in ((PlanePoint(-24, 2), PlanePoint(-48, 4), False), (PlanePoint(10, 1), PlanePoint(30, 3), True)):
        for n in (1, 5, 12):
            maximize_bruteforce(ORIGIN, p, q, n, fallback=fallback)
            assert kept[-1] == [entry[:2] for entry in _walk_plan(n)], (p, n)
    # in each single-row hull of acceptance 05 the two cone edges beat every
    # direction between them, certified by the enclosures at grid 40
    for p, q in _acceptance_05_triangles():
        res = maximize_bruteforce(ORIGIN, p, q, 40)
        assert kept[-1] == [(1, 0), (-1, 1)], (p, q)
        assert res.chain.vertices == (ORIGIN, p, q), (p, q)


def test_bruteforce_grid_guard():
    tri = triangle_from_first_wall((1, 16))
    with pytest.raises(GridTooLarge):
        maximize_bruteforce(tri.origin, tri.p, tri.q, 61)


def test_bruteforce_below_reduced_random_triangles():
    # single-case slope hulls: ratio-valued (case 4) and radical (case 3)
    rng = random.Random(61)
    for _ in range(4):
        # case 4 hull: slopes in (-3, -1/2]
        s1 = F(-1, 2) - F(rng.randrange(0, 30), 60)  # slope(OP)
        s3 = s1 - F(rng.randrange(10, 50), 60)  # slope(PQ)
        if s3 <= -3:
            continue
        yp = F(rng.randrange(1, 4))
        yq = yp + F(rng.randrange(1, 4))
        p = PlanePoint(s1 * yp, yp)
        q = PlanePoint(p.x + s3 * (yq - yp), yq)  # edge PQ has slope exactly s3
        red = maximize_reduced(ORIGIN, p, q)
        bf = maximize_bruteforce(ORIGIN, p, q, 12)
        assert compare_scalars(bf.value, red.value) <= 0
        assert bf.chain.merged().segments() <= 2


def test_weak_triangle_inequality_within_case_regions():
    # spade(OA) + spade(AB) >= spade(OB) when all slopes share a case region
    from tiltbound.bounds import spade

    rng = random.Random(67)
    regions = [
        (F(-29, 10), F(-11, 20)),  # case 4
        (F(-24, 100), F(24, 100)),  # case 3
        (F(11, 20), F(29, 10)),  # case 2
        (F(-96, 10), F(-81, 10)),  # case 5
        (F(-192, 14), F(-122, 10)),  # case 6
    ]
    count = 0
    while count < 60:
        lo, hi = regions[count % len(regions)]
        span = hi - lo
        s1 = lo + span * F(rng.randrange(25, 48), 48)  # slope(OA), larger
        s2 = lo + span * F(rng.randrange(1, 24), 48)  # slope(AB), smaller
        ya = F(rng.randrange(1, 5), rng.randrange(1, 3))
        yab = F(rng.randrange(1, 5), rng.randrange(1, 3))
        a = PlanePoint(s1 * ya, ya)
        b = a + PlanePoint(s2 * yab, yab)
        if not (lo < b.slope() < hi):
            continue
        lhs = RadicalSum.of(spade((a.x, a.y))) + RadicalSum.of(spade(((b - a).x, (b - a).y)))
        rhs = RadicalSum.of(spade((b.x, b.y)))
        assert (lhs - rhs).sign() >= 0, (s1, s2)
        count += 1


# -- the brute force's integer cone order --------------------------------------------------


def _reference_cone(p, q, n):
    """Primitive (a, b) in [-n, n]^2 with y(a*P + b*Q) > 0 and slope in
    [slope(PQ), slope(OP)], by a stable exact sort on decreasing slope."""
    s_op, s_pq = p.slope(), (q - p).slope()
    recs = []
    for a in range(-n, n + 1):
        for b in range(-n, n + 1):
            if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                continue
            vy = a * p.y + b * q.y
            if scalar_sign(vy) <= 0:
                continue
            s = (a * p.x + b * q.x) / vy
            if compare_scalars(s, s_pq) < 0 or compare_scalars(s, s_op) > 0:
                continue
            recs.append((s, a, b))
    recs.sort(key=lambda rec: rec[0], reverse=True)
    return [(a, b) for _, a, b in recs]


def _random_triangle(rng, scalar):
    """P, Q with slope(OP) > slope(OQ) > slope(PQ) and y(P) < y(Q), y(P) > 0."""
    while True:
        p = PlanePoint(scalar(rng), abs(scalar(rng)))
        q = PlanePoint(scalar(rng), abs(scalar(rng)))
        if scalar_sign(p.y) <= 0 or scalar_sign((q - p).y) <= 0:
            continue
        s_op, s_oq, s_pq = p.slope(), q.slope(), (q - p).slope()
        if compare_scalars(s_op, s_oq) > 0 and compare_scalars(s_oq, s_pq) > 0:
            return p, q


def _rational(rng):
    return F(rng.randrange(-60, 61), rng.randrange(1, 9))


def _quadratic(rng):
    return QuadNum(_rational(rng), F(rng.randrange(-20, 21), rng.randrange(1, 5)), 2)


def test_cone_order_matches_slope_sort_on_random_triangles():
    rng = random.Random(71)
    for scalar in (_rational, _quadratic):
        for _ in range(12):
            p, q = _random_triangle(rng, scalar)
            n = rng.randrange(1, 13)
            assert list(_cone_order(n)) == _reference_cone(p, q, n), (p, q, n)


def test_cone_order_matches_slope_sort_on_grids_1_to_40():
    tri = triangle_from_first_wall((1, 16))
    for n in range(1, 41):
        assert list(_cone_order(n)) == _reference_cone(tri.p, tri.q, n), n


def _reference_cone_order(n):
    """_cone_order as first written: the same directions sorted on a
    Fraction key b/(a+b), with a+b = 0 last."""
    cone = [(a, b) for b in range(n + 1) for a in range(-b, n + 1) if (a, b) != (0, 0) and math.gcd(a, b) == 1]
    cone.sort(key=lambda ab: (ab[0] + ab[1] == 0, F(ab[1], ab[0] + ab[1] or 1)))
    return cone


def test_cone_order_integer_key_matches_the_fraction_sort():
    # grids 1-40 are checked against the slope sort above; these reach the
    # largest grid the brute force allows (60)
    for n in (47, 53, 60):
        assert list(_cone_order(n)) == _reference_cone_order(n), n


def test_reduced_chains_bend_inside_the_cone():
    # a returned 2-chain O -> V -> Q has both segments in the triangle's
    # cone: y > 0 and slope in [slope(PQ), slope(OP)]
    rng = random.Random(89)
    r2 = QuadNum(0, 1, 2)
    triangles = [_random_triangle(rng, _rational) for _ in range(40)]
    triangles += [(p.scale(r2), q.scale(r2)) for p, q in triangles[:15]]
    bends = 0
    for p, q in triangles:
        try:
            res = maximize_reduced(ORIGIN, p, q, fallback=True)
        except SlopeOutOfTable:
            continue  # no chain of the triangle is evaluable
        assert res.chain.vertices[-1] == q, (p, q)
        if res.chain.segments() == 1:
            continue
        bends += 1
        v = res.chain.vertices[1]
        for w in (v, q - v):
            assert scalar_sign(w.y) > 0, (p, q, v)
            s = w.slope()
            assert compare_scalars((q - p).slope(), s) <= 0 <= compare_scalars(p.slope(), s), (p, q, v)
    assert bends >= 50, bends


def test_bruteforce_on_quadnum_triangle_scales_the_rational_one():
    # every coordinate is sqrt(2) times a rational one; both maxima are
    # homogeneous of degree 1, so they scale by sqrt(2)
    # (the second triangle's directions leave it at irrational u)
    r2 = QuadNum(0, 1, 2)
    for p0, q0 in (
        (PlanePoint(F(19, 100), 1), PlanePoint(F(-1, 15), F(10, 3))),
        (PlanePoint(F(-3, 4), 20), PlanePoint(F(-32, 3), F(41, 2))),
    ):
        p, q = p0.scale(r2), q0.scale(r2)
        for res, res0 in (
            (maximize_reduced(ORIGIN, p, q), maximize_reduced(ORIGIN, p0, q0)),
            (maximize_bruteforce(ORIGIN, p, q, 8), maximize_bruteforce(ORIGIN, p0, q0, 8)),
        ):
            expected = RadicalSum.of(0)
            for m, c in RadicalSum.of(res0.value).terms.items():
                expected = expected + RadicalSum.of(sqrt_exact(2 * m) * c)
            assert (RadicalSum.of(res.value) - expected).is_zero()
            assert res.chain.vertices == tuple(v.scale(r2) for v in res0.chain.vertices)


def test_spade_on_quadnum_point_adds_across_radicands():
    r2 = QuadNum(0, 1, 2)
    value = spade((F(19, 100) * r2, r2))
    # sqrt(2) * spade((19/100, 1)) = sqrt(2) * (19/200 + 7*sqrt(4089)/200)
    assert RadicalSum.of(value) == RadicalSum({2: F(19, 200), 8178: F(7, 200)})


def _reference_bruteforce(p, q, n, fallback=False):
    """The DP as first written: every simplex point sorted by progress along
    each direction, exact RadicalSum comparisons, strict improvement only."""
    dirs = []
    for a, b in _reference_cone(p, q, n):
        try:
            val = spade((a * p.x + b * q.x, a * p.y + b * q.y), fallback=fallback)
        except SlopeOutOfTable:
            continue
        dirs.append((a, b, RadicalSum.of(val).scale(F(1, n))))
    points = [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]
    dp = {(0, 0): (RadicalSum.of(0), ())}
    for a, b, val in dirs:
        for i, j in sorted(points, key=lambda ij: a * ij[0] + b * ij[1]):
            if (i, j) not in dp or not (0 <= i + a and 0 <= j + b and i + j + a + b <= n):
                continue
            value, steps = dp[(i, j)]
            cand = value + val
            cur = dp.get((i + a, j + b))
            if cur is None or cand > cur[0]:
                dp[(i + a, j + b)] = (cand, steps + ((a, b),))
    value, steps = dp[(0, n)]
    verts = [ORIGIN]
    for a, b in steps:
        verts.append(verts[-1] + PlanePoint((a * p.x + b * q.x) / n, (a * p.y + b * q.y) / n))
    return value, ConvexChain(verts).merged()


def _reference_reduced(p, q, fallback=False):
    """maximize_reduced as first written in closed form: O->Q, then every
    pair of cone slopes straddling slope(OQ), solved by Cramer's rule, in
    first-visit order with strict improvement only (non-collapsed triangles)."""
    s_op, s_oq, s_pq, collapsed = convexopt._triangle_slopes(ORIGIN, p, q)
    assert not collapsed
    slopes, owners, cells = convexopt._cone_rows(s_pq, s_op, fallback)
    k = next(i for i, s in enumerate(slopes) if compare_scalars(s, s_oq) >= 0)
    on_oq = compare_scalars(slopes[k], s_oq) == 0
    top = len(slopes) - 1
    best = None
    value = convexopt._largest_value({owners[k], cells[k - 1], cells[k]} if on_oq else {cells[k - 1]}, q)
    if value is not None:
        best = (value, ConvexChain([ORIGIN, q]))
    vectors = [q - p, *(PlanePoint(s, 1) for s in slopes[1:-1]), p]
    f = {}
    for i in (top, *range(top)):
        if not (on_oq and i == k):
            f[i] = convexopt._largest_value({owners[i], *cells[max(i - 1, 0) : i + 1]}, vectors[i])
    below, above = range(k), range(k + on_oq, top)
    for i, j in [(top, j) for j in reversed(below)] + [(i, j) for j in below for i in above]:
        if f[i] is None or f[j] is None:
            continue
        e_i, e_j = vectors[i], vectors[j]
        det = e_i.x * e_j.y - e_i.y * e_j.x
        lam = (q.x * e_j.y - q.y * e_j.x) / det
        mu = (e_i.x * q.y - e_i.y * q.x) / det
        value = f[i] * lam + f[j] * mu
        if best is None or value > best[0]:
            best = (value, ConvexChain([ORIGIN, e_i.scale(lam), q]))
    if best is None:
        raise SlopeOutOfTable("no spade-evaluable chain in this triangle")
    return convexopt.ReducedResult(best[0].to_exact(), best[1])


def test_bruteforce_matches_sorted_reference_dp(monkeypatch):
    kept = _kept_directions(monkeypatch)
    rng = random.Random(83)
    triangles = [(tri.p, tri.q) for tri in (triangle_from_first_wall((1, 16)),)]
    # single-case hulls of rows 4, 3, 6 and the band of row 9
    for lo, hi in ((F(-29, 10), F(-6, 10)), (F(-24, 100), F(24, 100)), (F(-134, 10), F(-125, 10)), (F(31, 10), F(39, 10))):
        s_pq, s_oq, s_op = (lo + (hi - lo) * F(c, 48) for c in sorted(rng.sample(range(1, 48), 3)))
        y_p = F(rng.randrange(1, 5), rng.randrange(1, 3))
        y_q = y_p * (s_op - s_pq) / (s_oq - s_pq)
        triangles.append((PlanePoint(s_op * y_p, y_p), PlanePoint(s_oq * y_q, y_q)))
    r2 = QuadNum(0, 1, 2)
    triangles.append((PlanePoint(F(19, 100), 1).scale(r2), PlanePoint(F(-1, 15), F(10, 3)).scale(r2)))
    # a triangle across rows whose winning chains pass through edge PQ
    triangles.append((PlanePoint(F(31, 8), F(57, 7)), PlanePoint(1, 20)))
    cases = [(p, q, False) for p, q in triangles]
    # a wide cone: its inner table boundaries change the row inside the cone,
    # and its a < 0 directions lose cells to the Q-side bound
    cases += [(PlanePoint(16, 1), PlanePoint(F(1, 3), 2), fallback) for fallback in (False, True)]
    for p, q, fallback in cases:
        for n in (7, 10, 13):
            value, chain = _reference_bruteforce(p, q, n, fallback)
            res = maximize_bruteforce(ORIGIN, p, q, n, fallback=fallback)
            assert (RadicalSum.of(res.value) - value).is_zero(), (p, q, n, fallback)
            assert res.chain.vertices == chain.vertices, (p, q, n, fallback)
    # a case-6 hull at grid 22, where the enclosures drop all but 2 of the
    # 301 directions before the DP: the reference values and walks them all
    lo, hi = F(-134, 10), F(-125, 10)
    s_pq, s_oq, s_op = (lo + (hi - lo) * F(c, 48) for c in (5, 20, 44))
    y_q = 2 * (s_op - s_pq) / (s_oq - s_pq)
    p, q = PlanePoint(2 * s_op, 2), PlanePoint(s_oq * y_q, y_q)
    value, chain = _reference_bruteforce(p, q, 22)
    res = maximize_bruteforce(ORIGIN, p, q, 22)
    assert (len(_walk_plan(22)), kept[-1]) == (301, [(1, 0), (-1, 1)])
    assert (RadicalSum.of(res.value) - value).is_zero()
    assert res.chain.vertices == chain.vertices


def test_bruteforce_decides_overlapping_enclosures_exactly(monkeypatch):
    # enclosures widened by 2**70 overlap at every comparison, so each one is
    # decided by the exact values: the DP must still match the reference
    enclosure = bounds.SpadeCase.enclosure

    def widened(self, x, y, bits):
        lo, hi = enclosure(self, x, y, bits)
        return lo - 2**70, hi + 2**70

    tri = triangle_from_first_wall((1, 16))
    s_pq, s_oq, s_op = F(-29, 10), F(-2), F(-6, 10)  # a case-4 hull
    y_q = 2 * (s_op - s_pq) / (s_oq - s_pq)
    r2 = QuadNum(0, 1, 2)
    triangles = [
        (tri.p, tri.q),
        (PlanePoint(2 * s_op, 2), PlanePoint(s_oq * y_q, y_q)),
        (PlanePoint(F(19, 100), 1).scale(r2), PlanePoint(F(-1, 15), F(10, 3)).scale(r2)),
    ]
    monkeypatch.setattr(bounds.SpadeCase, "enclosure", widened)
    for p, q in triangles:
        value, chain = _reference_bruteforce(p, q, 7)
        res = maximize_bruteforce(ORIGIN, p, q, 7)
        assert (RadicalSum.of(res.value) - value).is_zero(), (p, q)
        assert res.chain.vertices == chain.vertices, (p, q)


# -- an oracle for small grids that shares no code with the DP ----------------------------


def _multisets(dirs, u, v):
    """Every multiset of ``dirs`` (pairs of nonnegative ints, not both 0)
    summing to (u, v), as a tuple with equal entries adjacent."""
    if (u, v) == (0, 0):
        yield ()
        return
    if not dirs:
        return
    (du, dv), rest = dirs[0], dirs[1:]
    most = min(t // d for t, d in ((u, du), (v, dv)) if d)
    for k in range(most + 1):
        for tail in _multisets(rest, u - k * du, v - k * dv):
            yield ((du, dv),) * k + tail


def _enumerated_maxima(p, q, n, fallback=False):
    """(value, merged vertex lists of the maximizers) over every chain on the
    grid-n lattice of O-P-Q, by enumeration: a chain is a multiset of cone
    directions (u, v) = (a + b, b) >= 0, primitive, summing to (n, n), sorted
    by decreasing slope (increasing v/u), and worth the sum of ``spade`` over
    its increments (a*P + b*Q)/n; a chain with a refused increment is out.
    No DP, walk plan or enclosure.  (None, []) when no chain is valued."""
    cone = [(u, v) for u in range(n + 1) for v in range(n + 1) if math.gcd(u, v) == 1]
    best, maximizers = None, []
    for multiset in _multisets(cone, n, n):
        chain = sorted(multiset, key=lambda uv: F(uv[1], uv[0]) if uv[0] else math.inf)
        total, verts = RadicalSum.of(0), [ORIGIN]
        try:
            for (u, v), run in itertools.groupby(chain):
                count = len(list(run))
                a, b = u - v, v
                inc = PlanePoint((a * p.x + b * q.x) / n, (a * p.y + b * q.y) / n)
                total = total + RadicalSum.of(spade(inc, fallback=fallback)).scale(count)
                verts.append(verts[-1] + inc.scale(count))
        except (SlopeOutOfTable, NestedRadical):
            continue
        if best is None or total > best:
            best, maximizers = total, [tuple(verts)]
        elif total == best:
            maximizers.append(tuple(verts))
    return best, maximizers


def test_bruteforce_matches_the_enumerated_maximum_on_small_grids():
    # the value equals the enumeration's on grids 1-5, and so does the chain
    # when one multiset attains it; seeded rational triangles, wide cones
    # across table rows (with and without the fallback), single-row hulls,
    # and linear-row triangles: the wall triangles at mu = 63 and 64 (the
    # linear Clifford piece) and collapsed ones, where spade is linear along
    # the one ray and every chain ties
    rng = random.Random(97)
    cases = [(*_random_triangle(rng, _rational), False) for _ in range(6)]
    cases += [(*_random_triangle(rng, _rational), True) for _ in range(4)]
    cases += [(PlanePoint(16, 1), PlanePoint(F(1, 3), 2), fallback) for fallback in (False, True)]
    cases += [(p, q, False) for p, q in _acceptance_05_triangles()[:8]]
    for mu in (63, 64):
        tri = triangle_from_first_wall((1, mu))
        cases.append((tri.p, tri.q, False))
    cases += [(PlanePoint(-24, 2), PlanePoint(-48, 4), False), (PlanePoint(10, 1), PlanePoint(30, 3), True)]
    unique = 0
    for p, q, fallback in cases:
        for n in range(1, 6):
            best, maximizers = _enumerated_maxima(p, q, n, fallback)
            if best is None:
                with pytest.raises(ConvexOptError):
                    maximize_bruteforce(ORIGIN, p, q, n, fallback=fallback)
                continue
            res = maximize_bruteforce(ORIGIN, p, q, n, fallback=fallback)
            assert (RadicalSum.of(res.value) - best).is_zero(), (p, q, n, fallback)
            merged = {ConvexChain(verts).merged().vertices for verts in maximizers}
            assert res.chain.vertices in merged, (p, q, n, fallback)
            unique += len(maximizers) == 1
    assert unique > 50, unique


# -- directions from the slope table ----------------------------------------------------


def _band_ends(n):
    """The ends of row 8's and row 9's band-n ranges, n >= 1: row 8 on
    [-4n, (1 - 4n^2)/n], row 9 on [(4n^2 - 1)/n, 4n]."""
    return F(-4 * n), F(1 - 4 * n * n, n), F(4 * n * n - 1, n), F(4 * n)


def _table_slopes_inside(lo, hi):
    """Every range end of rows 1-9 strictly inside (lo, hi), from SPADE_CASES."""
    ends = {end for row in SPADE_CASES[:7] for r in row.ranges for end in (r.lo, r.hi)}
    n = 1
    while 4 * n - 1 < max(abs(lo), abs(hi)):
        ends.update(_band_ends(n))
        n += 1
    return sorted(s for s in ends if lo < s < hi)


def _reference_cone_rows(s_pq, s_op, fallback, *inside):
    """_cone_rows as first written: every table boundary, every band end up
    to the wider edge and ``inside`` filtered against both edges, then sorted."""
    bands = range(1, (floor_scalar(max(-s_pq, s_op)) + 1) // 4 + 1)
    ends = [*bounds._TABLE_BOUNDARIES, *inside, *(end for n in bands for end in _band_ends(n))]
    inner = {s for s in ends if compare_scalars(s_pq, s) < 0 and compare_scalars(s, s_op) < 0}
    slopes = [s_pq, *sorted(inner), s_op]
    owners = [bounds._row_or_fallback(s, fallback) for s in slopes]
    cells = [bounds._row_or_fallback((a + b) / 2, fallback) for a, b in zip(slopes, slopes[1:])]
    return slopes, owners, cells


def test_cone_rows_match_the_reference_filter():
    # bisecting the sorted table boundaries keeps the filter's slopes (and
    # their types), owners and cells: rational and a+b*sqrt(2) edges, edges
    # on a table boundary or a band end, and wide cones up to |s| = 1024
    rng = random.Random(97)
    ends = _table_slopes_inside(F(-41), F(41))

    def edge(kind):
        if kind == "rational":
            return F(rng.randrange(-400, 401), rng.randrange(1, 25))
        if kind == "sqrt2":
            return QuadNum(F(rng.randrange(-120, 121), rng.randrange(1, 9)), F(rng.randrange(-40, 41), rng.randrange(1, 9)), 2)
        return rng.choice(ends)

    kinds = ("rational", "sqrt2", "end")
    cases = [(F(1, 3) - s, F(s), fallback) for s in (16, 64, 256, 1024) for fallback in (False, True)]
    cases += [(F(s - 3, 2), F(s), False) for s in (-1024, 256)]  # narrow cones far out
    for _ in range(400):
        a, b = edge(rng.choice(kinds)), edge(rng.choice(kinds))
        if compare_scalars(a, b):
            cases.append((min(a, b), max(a, b), rng.random() < 0.5))
    assert len(cases) > 380
    for k, (s_pq, s_op, fallback) in enumerate(cases):
        inside = ((), (edge(kinds[k % 3]),), (edge("end"),))[k % 3]
        got = convexopt._cone_rows(s_pq, s_op, fallback, *inside)
        want = _reference_cone_rows(s_pq, s_op, fallback, *inside)
        assert got == want, (s_pq, s_op, fallback, inside)
        assert [type(s) for s in got[0]] == [type(s) for s in want[0]], (s_pq, s_op, inside)


def test_cone_rows_start_at_the_band_of_the_nearer_edge(monkeypatch):
    # a narrow cone far from 0 compares only the ends of the bands it can
    # reach: 4 and 3 comparisons here, not 1,026 and 2,047 from band 1 up
    calls = []
    compare = bounds.compare_scalars

    def counted(x, y):
        calls.append((x, y))
        return compare(x, y)

    for s_pq, s_op in ((F(2045, 2), F(1024)), (F(-1024), F(-2045, 2))):
        with monkeypatch.context() as m:
            m.setattr(bounds, "compare_scalars", counted)
            calls.clear()
            ends = bounds._table_ends_inside(s_pq, s_op)
        assert len(calls) <= 8, (s_pq, s_op, len(calls))
        assert len(ends) == 1  # one band end inside, +-(4*256**2 - 1)/256
        for fallback in (False, True):
            got = convexopt._cone_rows(s_pq, s_op, fallback)
            assert got == _reference_cone_rows(s_pq, s_op, fallback)
            assert got[0] == [s_pq, *ends, s_op]


def _recorded_points(monkeypatch):
    """Every point passed to SpadeCase.value from now on, in call order."""
    points = []
    value = bounds.SpadeCase.value

    def recorded(self, x, y):
        points.append(PlanePoint(x, y))
        return value(self, x, y)

    monkeypatch.setattr(bounds.SpadeCase, "value", recorded)
    return points


def test_reduced_values_each_cone_slope_once_on_its_vector(monkeypatch):
    # Q, P, Q-P and (s, 1) for every table boundary s inside
    # (slope(PQ), slope(OP)) but slope(OQ), upward, each in one run (one
    # call per row): no other point is valued, and none is valued twice
    rng = random.Random(97)
    triangles = [_random_triangle(rng, _rational) for _ in range(30)]
    triangles.append((PlanePoint(30, 3), PlanePoint(F(371778, 13253), F(1419, 457))))
    points = _recorded_points(monkeypatch)
    for p, q in triangles:
        points.clear()
        try:
            maximize_reduced(ORIGIN, p, q, fallback=True)
        except SlopeOutOfTable:
            pass
        inner = _table_slopes_inside((q - p).slope(), p.slope())
        expected = [q, p, q - p] + [PlanePoint(s, 1) for s in inner if s != q.slope()]
        assert [w for w, _ in itertools.groupby(points)] == expected, (p, q)


def test_reduced_valuations_are_linear_in_the_cone_slopes(monkeypatch):
    # wide cones: each of the B slopes, and Q, is valued with at most three
    # rows, and the hull walk makes at most two turn tests per point, so
    # there are at most 3*(B + 1) valuations and 3*(B + 1) exact signs
    # (146, 529 and 2,688 signs here)
    points = _recorded_points(monkeypatch)
    signs = []
    sign = RadicalSum.sign

    def counted(self):
        signs.append(self)
        return sign(self)

    monkeypatch.setattr(RadicalSum, "sign", counted)
    # the last is draw 89 of _random_triangle(random.Random(2026), _quadratic)
    p = PlanePoint(QuadNum(43, 8, 2), QuadNum(-6, F(17, 4), 2))
    q = PlanePoint(QuadNum(-38, 1, 2), QuadNum(F(-29, 5), F(14, 3), 2))
    cases = [(PlanePoint(s, 1), PlanePoint(F(1, 3), 2), True, b) for s, b in ((64, 73), (256, 265))]
    for p_, q_, fallback, b in [*cases, (p, q, False, 2676)]:
        slopes, _, _ = convexopt._cone_rows((q_ - p_).slope(), p_.slope(), fallback)
        assert len(slopes) == b
        points.clear()
        signs.clear()
        res = maximize_reduced(ORIGIN, p_, q_, fallback=fallback)
        assert 0 < len(points) <= 3 * (b + 1), (b, len(points))
        assert len(signs) <= 3 * (b + 1), (b, len(signs))
        if fallback:
            assert compare_scalars(maximize_bruteforce(ORIGIN, p_, q_, 4, fallback=True).value, res.value) <= 0
    # the oracle finds no evaluable chain in the irrational one at grids 2
    # and 4, so its value is pinned, and spade_sum of its chain is that value
    value = QuadNum(F(-1299508889, 1929920), F(24940571617, 48633984), 2)
    assert compare_scalars(res.value, value) == 0
    assert compare_scalars(spade_sum(res.chain), value) == 0
    with pytest.raises(NestedRadical):
        maximize_reduced(ORIGIN, p, q, fallback=True)


def test_reduced_values_a_cone_edge_with_the_row_that_owns_it():
    # a segment on a cone edge is worth its owner row's value there, not
    # only the adjacent cell's.  The mu = 64 wall triangle P = (15, 2),
    # Q = (0, 4) has slope(OP) = 15/2, owned by row 9 (band 2), while row 1
    # holds the cell below: O -> P -> Q is worth 241/15 + 16/15 = 257/15
    p, q = PlanePoint(15, 2), PlanePoint(0, 4)
    assert compare_scalars(spade(p) + spade(q - p), F(257, 15)) == 0
    pins = [(p, q, F(257, 15))]
    for r, value in ((1, F(257, 15)), (2, F(514, 15)), (3, F(257, 5))):
        tri = triangle_from_first_wall((r, 64 * r))
        pins.append((tri.p, tri.q, value))
    pins.append((PlanePoint(F(15, 2), 1), PlanePoint(F(23, 2), 2), F(391, 30)))
    # the one cone cell here, (1/4, 1/2), is off the table: only the edges'
    # owner rows (3 and 2) value a chain
    pins.append((PlanePoint(4, 8), PlanePoint(F(9, 2), 10), QuadNum(F(81, 4), F(1, 4), 321)))
    for p, q, value in pins:
        res = maximize_reduced(ORIGIN, p, q)
        assert compare_scalars(res.value, value) == 0, (p, q, res.value)
        assert compare_scalars(spade_sum(res.chain), value) == 0, (p, q, res.chain)
        assert compare_scalars(maximize_bruteforce(ORIGIN, p, q, 2).value, value) == 0, (p, q)

    # every pair s_op > s_pq of the 26 table and band boundaries with
    # |s| <= 18 as the triangle's edges, at two scales
    ends = _table_slopes_inside(F(-19), F(19))
    assert len(ends) == 26
    calls = 0
    for s_op, s_pq in itertools.combinations(reversed(ends), 2):
        for y_p, t in ((1, 1), (2, F(1, 3))):
            p = PlanePoint(s_op * y_p, y_p)
            q = p + PlanePoint(s_pq * t, t)
            for fallback in (False, True):
                try:
                    red = maximize_reduced(ORIGIN, p, q, fallback=fallback).value
                except SlopeOutOfTable:
                    red = None
                for n in (2, 6):
                    try:
                        bf = maximize_bruteforce(ORIGIN, p, q, n, fallback=fallback).value
                    except ConvexOptError:
                        continue
                    calls += 1
                    assert red is not None, (p, q, fallback, n)
                    assert compare_scalars(bf, red) <= 0, (p, q, fallback, n)
    assert calls == 2600, calls


def _outcome(call):
    """(type, value, chain vertices) of a reduced result, or (type, message)
    of the exception it raises."""
    try:
        res = call()
    except (ConvexOptError, SlopeOutOfTable, NestedRadical) as exc:
        return type(exc), str(exc)
    return type(res.value), res.value, res.chain.vertices


def test_reduced_hull_matches_the_reference_pair_loop():
    # the upper-hull walk gives the pair loop's value, chain (ties included)
    # and exception on every triangle family, with and without the fallback
    triangles = [
        # ties: P on the bridge line (the hull edge over slope(OQ)); in the
        # third, the vertex just below slope(OQ) is between collinear ones
        (PlanePoint(8, 1), PlanePoint(F(27, 2), 2)),
        (PlanePoint(4, 1), PlanePoint(F(7, 2), 2)),
        (PlanePoint(16, 2), PlanePoint(F(107, 6), F(7, 3))),
        # ties: the lowest hull vertex on the bridge line
        (PlanePoint(F(47, 8), F(22, 3)), PlanePoint(F(-27, 2), F(47, 4))),
        (PlanePoint(F(22, 5), F(53, 8)).scale(QuadNum(0, 1, 2)), PlanePoint(F(-54, 7), F(19, 2)).scale(QuadNum(0, 1, 2))),
        # ties: Q on the bridge line, so O -> Q
        (PlanePoint(F(11, 2), 1), PlanePoint(6, 2)),
    ]
    rng = random.Random(7)
    triangles += [_random_triangle(rng, _rational) for _ in range(60)]
    triangles += [_random_triangle(rng, _quadratic) for _ in range(12)]
    rng = random.Random(11)
    r2 = QuadNum(0, 1, 2)
    triangles += [(p.scale(r2), q.scale(r2)) for p, q in (_random_triangle(rng, _rational) for _ in range(40))]
    triangles += [
        (tri.p, tri.q)
        for r in (1, 2, 3)
        for d in (*range(1, 16 * r + 1, 3 * r + 1), *range(48 * r, 64 * r + 1, 3 * r + 1))
        for tri in (triangle_from_first_wall((r, d)),)
    ]
    ends = _table_slopes_inside(F(-19), F(19))
    for s_op, s_pq in itertools.islice(itertools.combinations(reversed(ends), 2), 0, None, 5):
        p = PlanePoint(2 * s_op, 2)
        triangles.append((p, p + PlanePoint(s_pq / 3, F(1, 3))))
    for p, q in triangles:
        for fallback in (False, True):
            ref = _outcome(lambda: _reference_reduced(p, q, fallback))
            res = _outcome(lambda: maximize_reduced(ORIGIN, p, q, fallback))
            assert res == ref, (p, q, fallback)


def test_reduced_reaches_a_chain_across_two_rows():
    # O -> V -> Q has slopes 97/10 (row 1 closes there) and -107/6 (row 7
    # opens there); neither is an integer m or (4m^2 - 1)/m
    p, q = PlanePoint(30, 3), PlanePoint(F(371778, 13253), F(1419, 457))
    v = PlanePoint(F(643481025, 21893956), F(33169125, 10946978))
    assert (v.slope(), (q - v).slope()) == (F(97, 10), F(-107, 6))
    chain_value = spade_sum(ConvexChain([ORIGIN, v, q]))
    assert chain_value.to_exact() == F(95768783, 3127708)
    res = maximize_reduced(ORIGIN, p, q)
    assert (RadicalSum.of(res.value) - chain_value).sign() >= 0


def test_reduced_bounds_the_grid40_oracle_across_rows():
    p, q = PlanePoint(F(-1359, 58), 2), PlanePoint(F(-74811, 98), F(1914, 49))
    red = maximize_reduced(ORIGIN, p, q, fallback=True)
    bf = maximize_bruteforce(ORIGIN, p, q, 40, fallback=True)
    assert compare_scalars(bf.value, red.value) <= 0
    # the value is a supremum, not attained: its vertex V has slopes -107/6
    # (row 7 opens) and -99/5 (band 5 of row 8 closes), and chains just past
    # V, with both increments off the table, come within 1e-5 of it
    v = red.chain.vertices[1]
    assert (v.slope(), (q - v).slope()) == (F(-107, 6), F(-99, 5))
    near = spade_sum(ConvexChain([ORIGIN, v - PlanePoint(F(1, 10**6), F(1, 10**6)), q]), fallback=True)
    gap = RadicalSum.of(red.value) - near
    assert gap.sign() > 0 and (gap - RadicalSum.of(F(1, 10**5))).sign() < 0


def test_both_optimizers_reject_the_same_triangles():
    p, q = PlanePoint(F(1, 4), F(1, 2)), PlanePoint(-48, 4)
    bad = [
        (PlanePoint(1, 1), p, q, ValueError),  # O is not the origin
        (ORIGIN, PlanePoint(1, 0), q, DegenerateTriangle),  # y(P) = 0
        (ORIGIN, p, PlanePoint(-48, -4), DegenerateTriangle),  # y(Q) < 0
        (ORIGIN, PlanePoint(-5, 1), PlanePoint(-2, 2), DegenerateTriangle),  # slope order
        (ORIGIN, PlanePoint(-48, 4), PlanePoint(-49, 3), DegenerateTriangle),  # PQ falls
    ]
    for o, p_, q_, exc in bad:
        with pytest.raises(exc):
            maximize_reduced(o, p_, q_)
        with pytest.raises(exc):
            maximize_bruteforce(o, p_, q_, 4)
    with pytest.raises(GridTooLarge):  # the grid is checked first
        maximize_bruteforce(PlanePoint(1, 1), p, q, 61)
    # a collapsed triangle with y(Q) <= y(P): the reduced optimizer values O->Q
    big, small = PlanePoint(-48, 4), PlanePoint(-24, 2)
    assert compare_scalars(maximize_reduced(ORIGIN, big, small).value, spade(small)) == 0
    with pytest.raises(DegenerateTriangle):
        maximize_bruteforce(ORIGIN, big, small, 4)


def test_reduced_refuses_candidates_that_need_a_nested_radical():
    # some candidates sit in a square-root row at a point with an
    # a + b*sqrt(2) radicand; skipping them (as before) reported less than an
    # earlier exact result here, so the optimizer raises instead
    p = PlanePoint(QuadNum(F(43, 5), 4, 2), QuadNum(F(41, 3), -8, 2))
    q = PlanePoint(QuadNum(F(6, 5), 2, 2), QuadNum(F(19, 2), F(-19, 4), 2))
    for fallback in (False, True):
        with pytest.raises(NestedRadical):
            maximize_reduced(ORIGIN, p, q, fallback=fallback)
    # the oracle values only chains it can evaluate, so it still answers
    maximize_bruteforce(ORIGIN, p, q, 6)
