"""Convex-chain maximization of spade sums over first-wall triangles.

A chain starts at the origin, its increments have y > 0 and weakly
decreasing slope x/y, and the sum of the increments' spade values bounds
global sections of Harder-Narasimhan configurations.  Three tools:

* ``maximize_reduced`` -- sharp maximum over 1- and 2-segment chains in a
  triangle O-P-Q: each cone slope (slope(PQ), the table boundaries inside,
  slope(OQ), slope(OP)) is valued once on its vector, and the maximum is
  read at slope(OQ) off the upper hull of the points (slope, value / y),
  built by one monotone-chain walk.
* ``maximize_bruteforce`` -- independent oracle: exact DP over convex
  lattice chains on the (grid_n x grid_n) refinement of the triangle.  In
  lattice coordinates (a, b) -> a*P + b*Q the directions are the integer
  cone a+b >= 0, b >= 0, by increasing b/(a+b), and each direction relaxes
  the DP only along the lattice lines parallel to it that a chain from O
  to Q can still use (exact integer bounds; a step too long for the grid
  is never valued).  That lattice walk depends on the grid alone and is
  built once per grid, on the first call.  Exactness is lazy: a merge walk
  down the same boundary list gives each direction its row,
  ``SpadeCase.enclosure`` values it by integer enclosures (no factoring),
  and ``SpadeCase.value`` builds exact values, at the same integral point,
  only where two enclosures overlap and for the winning chain.  Before the
  DP, a direction is dropped when its enclosures certify that its two
  Farey parents, which sum to it, are worth strictly more: no maximal
  chain uses it, so the value is always the full DP's.
* ``clifford_chain_bound`` -- the wall-triangle derivation of the Clifford
  bound (universal bound on the O->P leg, fixed case rows for the others,
  Bogomolov value in the Brill-Noether band, and the d - 46r branch on
  [48, 64]); the closed-form Clifford cases equal this quantity.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    _row_or_fallback,
    _table_ends_inside,
    SPADE_CASES,
    NestedRadical,
    PlanePoint,
    SlopeOutOfTable,
    clifford_case,
    spade,
    spade_fallback,
)
from .chern import CurveClass
from .exactnum import (
    RadicalSum,
    clear_denominators,
    compare_scalars,
    format_scalar,
    scalar_sign,
)

__all__ = [
    "ConvexOptError",
    "DegenerateTriangle",
    "GridTooLarge",
    "PlanePoint",
    "ConvexChain",
    "spade_sum",
    "WallTriangle",
    "triangle_from_first_wall",
    "ReducedResult",
    "maximize_reduced",
    "clifford_chain_bound",
    "CliffordChainResult",
    "maximize_bruteforce",
    "BruteForceResult",
]


class ConvexOptError(Exception):
    pass


class DegenerateTriangle(ConvexOptError):
    """Edge slopes are not strictly ordered slope(OP) > slope(OQ) > slope(PQ)."""


class GridTooLarge(ConvexOptError):
    """Brute-force grid refinement above the complexity guard."""


ORIGIN = PlanePoint(0, 0)


class ConvexChain:
    """Vertex chain from the origin; increments have y > 0 and weakly
    decreasing slopes (collinear consecutive increments are permitted and
    never change spade sums)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = tuple(vertices)
        if not vs or not vs[0].is_zero():
            raise ValueError("chain must start at the origin")
        incs = [b - a for a, b in zip(vs, vs[1:])]
        if any(scalar_sign(inc.y) <= 0 for inc in incs):
            raise ValueError("chain increments need y > 0")
        for u, w in zip(incs, incs[1:]):
            if compare_scalars(u.slope(), w.slope()) < 0:
                raise ValueError("increment slopes must be non-increasing")
        object.__setattr__(self, "vertices", vs)

    def __setattr__(self, *a):
        raise AttributeError("ConvexChain is immutable")

    def increments(self):
        return [b - a for a, b in zip(self.vertices, self.vertices[1:])]

    def merged(self) -> "ConvexChain":
        """Collinear consecutive increments merged into single segments."""
        incs = self.increments()
        if not incs:
            return self
        out = [incs[0]]
        for inc in incs[1:]:
            if compare_scalars(out[-1].slope(), inc.slope()) == 0:
                out[-1] = out[-1] + inc
            else:
                out.append(inc)
        verts = [ORIGIN]
        for inc in out:
            verts.append(verts[-1] + inc)
        return ConvexChain(verts)

    def segments(self) -> int:
        return len(self.vertices) - 1

    def to_json(self) -> list:
        return [v.to_json() for v in self.vertices]

    def __repr__(self):
        pts = ", ".join(f"({format_scalar(v.x)}, {format_scalar(v.y)})" for v in self.vertices)
        return f"ConvexChain[{pts}]"


def spade_sum(chain: ConvexChain, fallback: bool = False) -> RadicalSum:
    """Exact sum of spade over the chain's increments (RadicalSum)."""
    total = RadicalSum.of(0)
    for inc in chain.increments():
        total = total + RadicalSum.of(spade(inc, fallback=fallback))
    return total


# ---------------------------------------------------------------------------
# first-wall triangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WallTriangle:
    """Vertices of the potential-first-wall triangle for a curve class,
    with the [48,64]-case auxiliary points."""

    origin: PlanePoint
    p: PlanePoint | None
    q: PlanePoint
    mu_case: str  # "bn" | "low" | "high"
    degenerate: bool = False
    p_prime: PlanePoint | None = None
    p_triple: PlanePoint | None = None


def triangle_from_first_wall(e: CurveClass | tuple) -> WallTriangle:
    """Triangle O-P-Q from the extremal first wall at slope mu = d/r; its
    mu_case is the ``clifford_case``, with "linear" folded into "high"."""
    if isinstance(e, tuple):
        e = CurveClass(*e)
    case = clifford_case(e)
    r, d = e.r, e.d
    q = PlanePoint(d - 64 * r, 4 * r)
    a = 5 * d * d / Fraction(1024) / r
    if case in ("bn", "low"):
        p = PlanePoint(a - r, Fraction(d, 32))
        return WallTriangle(ORIGIN, p, q, case, degenerate=(d == 0))
    p = PlanePoint(a - d / Fraction(8) + 3 * r, Fraction(d, 32))
    p_prime = PlanePoint(d - 48 * r, 2 * r)
    p_triple = PlanePoint(d / Fraction(2) - 16 * r, d / Fraction(16) - 2 * r)
    return WallTriangle(ORIGIN, p, q, "high", p_prime=p_prime, p_triple=p_triple)


# ---------------------------------------------------------------------------
# sharp reduced maximization
# ---------------------------------------------------------------------------

def _triangle_slopes(o: PlanePoint, p: PlanePoint, q: PlanePoint) -> tuple:
    """(slope(OP), slope(OQ), slope(PQ) or None if y(Q) <= y(P), collapsed)
    of O-P-Q with O the origin and y(P), y(Q) > 0; unless collapsed
    (slope(OP) = slope(OQ)) it needs slope(OP) > slope(OQ) > slope(PQ)."""
    if not o.is_zero():
        raise ValueError("first vertex must be the origin")
    if scalar_sign(p.y) <= 0 or scalar_sign(q.y) <= 0:
        raise DegenerateTriangle("P and Q must have y > 0")
    s_op, s_oq = p.slope(), q.slope()
    s_pq = (q - p).slope() if scalar_sign((q - p).y) > 0 else None
    collapsed = compare_scalars(s_op, s_oq) == 0
    if not collapsed and (
        s_pq is None or compare_scalars(s_op, s_oq) <= 0 or compare_scalars(s_oq, s_pq) <= 0
    ):
        raise DegenerateTriangle("need y(Q) > y(P) and slope(OP) > slope(OQ) > slope(PQ)")
    return s_op, s_oq, s_pq, collapsed


def _cone_rows(s_pq, s_op, fallback: bool, *inside) -> tuple:
    """(slopes, owners, cells) of the cone [s_pq, s_op]: slopes is s_pq, the
    slope-table boundaries and the slopes ``inside`` strictly inside, then
    s_op, increasing; owners[k] is the row owning slopes[k] and cells[k] the
    row on the open cell (slopes[k], slopes[k+1]), which no boundary cuts
    (off the table, the fallback row if requested, else None)."""
    slopes = [s_pq, *_table_ends_inside(s_pq, s_op, *inside), s_op]
    owners = [_row_or_fallback(s, fallback) for s in slopes]
    cells = [_row_or_fallback((a + b) / 2, fallback) for a, b in zip(slopes, slopes[1:])]
    return slopes, owners, cells


@dataclass(frozen=True)
class ReducedResult:
    value: object
    chain: ConvexChain


def _largest_value(rows, w: PlanePoint):
    """Largest value at w of the rows that are not None and value it (a row
    refuses an off-range radicand or pole with SlopeOutOfTable); None if
    none does.  NestedRadical is not caught."""
    values = []
    for row in rows - {None}:
        try:
            values.append(RadicalSum.of(row.value(w.x, w.y)))
        except SlopeOutOfTable:
            pass
    return max(values, default=None)


def maximize_reduced(
    o: PlanePoint, p: PlanePoint, q: PlanePoint, fallback: bool = False
) -> ReducedResult:
    """Sharp maximum of spade sums over 1- and 2-segment chains in O-P-Q.

    The cone slopes s_k are slope(PQ), the slope-table boundaries strictly
    inside (slope(PQ), slope(OP)), slope(OQ) and slope(OP); f_k is the
    largest value at e_k (Q - P, (s, 1), Q or P) of the rows owning s_k or
    a cone cell next to it (off the table, the fallback row when requested).
    A 2-chain O->V->Q, worth g(V) = spade(V) + spade(Q - V), has V and Q - V
    in the cone.  Fix the closed cone cells holding slope(V) and
    slope(Q - V): the V that keep them there form a convex polygon cut out
    by the rays from O and from Q at the cells' end slopes, and on it g,
    with each cell's row extended to its ends, is convex, so its supremum
    sits at a vertex: O or Q (the chain O->Q), or V = lam*e_i with
    Q - V = mu*e_j for s_i > slope(OQ) > s_j (Cramer's rule).  Every row is
    homogeneous of degree 1, so that is worth lam*f_i + mu*f_j, y(Q) times
    the chord of the points (s_k, f_k/y(e_k)), k = i, j, at slope(OQ), and
    O->Q is y(Q) times Q's own point.  So the maximum is y(Q) times their
    upper hull at slope(OQ), one monotone-chain walk (A. M. Andrew, IPL
    1979) whose turn at b is the sign of det[(x, y, f)] over a, b, c, < 0
    when b is strictly below the chord a-c.  It is O->Q if Q is on the hull,
    else the hull edge over slope(OQ), the bridge; a certified upper bound
    for all chain values, attained or a supremum.  A value at Q, P or Q - P
    that needs a nested radical raises NestedRadical, never skipped.

    Every row is convex along an affine path with y > 0.  Square-root rows
    (1, 3, 5, 6, 7 and the fallback): with the radicand along p0 + t*d
    written At^2 + Bt + C, 4AC - B^2 = 4 det(M) (p0 x d)^2 for
    M = [[xx, xy/2], [xy/2, yy]], and srt * det(M) = 10 > 0.  Ratio rows
    (2, 4, 8, 9): num = c*y^2 and den D is linear, so (c*y^2/D)'' =
    2c Y(t_pole)^2 D1^2 / D^3, and c*D > 0 on every range and band of these
    rows.

    Ties keep the first maximizer in the order O->Q, P with the lower slopes
    nearest slope(OQ) first, each lower slope upward with the upper ones
    upward: bridge-line points stay on the hull, so O->Q if Q is on it, else
    P and the vertex just below slope(OQ) if P is on the bridge line, else
    the vertex just above and the lowest vertex on the bridge line.
    """
    s_op, s_oq, s_pq, collapsed = _triangle_slopes(o, p, q)
    if collapsed:
        try:
            value = RadicalSum.of(spade(q, fallback=fallback))
        except SlopeOutOfTable:
            raise SlopeOutOfTable("collapsed triangle with off-table slope") from None
        return ReducedResult(value.to_exact(), ConvexChain([ORIGIN, q]))

    slopes, owners, cells = _cone_rows(s_pq, s_op, fallback, s_oq)
    kq, top = slopes.index(s_oq), len(slopes) - 1
    vectors = [q - p, *(PlanePoint(s, 1) for s in slopes[1:-1]), p]
    vectors[kq] = q
    f = {  # Q, then P: the order a NestedRadical is met in
        i: _largest_value({owners[i], *cells[max(i - 1, 0) : i + 1]}, vectors[i])
        for i in dict.fromkeys((kq, top, *range(top)))
    }

    def turn(a: int, b: int, c: int) -> int:
        (xa, ya), (xb, yb), (xc, yc) = ((vectors[k].x, vectors[k].y) for k in (a, b, c))
        return (f[a] * (xb * yc - xc * yb) + f[b] * (xc * ya - xa * yc) + f[c] * (xa * yb - xb * ya)).sign()

    hull = []
    for c in (k for k in range(top + 1) if f[k] is not None):
        while len(hull) > 1 and turn(hull[-2], hull[-1], c) < 0:
            hull.pop()
        hull.append(c)
    if kq in hull:
        return ReducedResult(f[kq].to_exact(), ConvexChain([ORIGIN, q]))
    m = bisect.bisect(hull, kq)
    if not 0 < m < len(hull):
        raise SlopeOutOfTable("no spade-evaluable chain in this triangle")
    j, i = hull[m - 1], hull[m]  # the bridge
    if i != top and hull[-1] == top and turn(j, i, top) == 0:
        i = top
    while i != top and m > 1 and turn(hull[m - 2], j, i) == 0:
        m -= 1  # down to the lowest vertex on the bridge line
    j = hull[m - 1]
    e_i, e_j = vectors[i], vectors[j]
    det = e_i.x * e_j.y - e_i.y * e_j.x  # > 0: slope(e_i) > slope(e_j)
    lam = (q.x * e_j.y - q.y * e_j.x) / det
    mu = (e_i.x * q.y - e_i.y * q.x) / det
    return ReducedResult((f[i] * lam + f[j] * mu).to_exact(), ConvexChain([ORIGIN, e_i.scale(lam), q]))


# ---------------------------------------------------------------------------
# the Clifford wall-triangle derivation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordChainResult:
    value: object
    branch: str  # "bn_bogomolov" | "gamma_wall_triangle" | "max_branch_linear"
    chain: ConvexChain | None


def clifford_chain_bound(r, d) -> CliffordChainResult:
    """Re-derive the Clifford bound through the wall-triangle reduction:
    Bogomolov value on the Brill-Noether band; universal bound on the O->P
    leg plus the case-7/6 row on P->Q for mu <= 16; case-1 plus case-5 rows
    on [48, 64] together with the d - 46r branch, whichever is larger.
    """
    e = CurveClass(r, d)
    tri = triangle_from_first_wall(e)
    r, d = e.r, e.d
    q = tri.q
    if tri.mu_case == "bn":
        # hom <= rk - (H.ch1)^2 / (2 H^2 ch2) for the pushforward itself
        value = -4 * q.y * q.y / q.x
        return CliffordChainResult(value, "bn_bogomolov", ConvexChain([ORIGIN, q]))
    p = tri.p
    if tri.mu_case == "low":
        f1 = spade_fallback(p)
        f2 = spade(q - p)
        chain = ConvexChain([ORIGIN, p, q])
        return CliffordChainResult(f1 + f2, "gamma_wall_triangle", chain)
    # mu in [48, 64]: case-1 row on OP, case-5 row on PQ (the proof's rows)
    f1 = SPADE_CASES[0].value(p.x, p.y)
    f2 = SPADE_CASES[4].value((q - p).x, (q - p).y)
    triangle_value = f1 + f2
    linear_value = d - 46 * r
    if compare_scalars(triangle_value, linear_value) >= 0:
        return CliffordChainResult(
            triangle_value, "gamma_wall_triangle", ConvexChain([ORIGIN, p, q])
        )
    return CliffordChainResult(linear_value, "max_branch_linear", None)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceResult:
    value: object
    chain: ConvexChain


def _cone_order(n: int) -> tuple:
    """Primitive (a, b) in [-n, n]^2 with a+b >= 0 and b >= 0, by increasing
    b/(a+b), with a+b = 0 last.

    In cone coordinates a*P + b*Q = (a+b)*P + b*(Q-P).  For a non-collapsed
    triangle P and Q-P (both with y > 0, slope(OP) > slope(PQ)) span the
    cone of vectors with y > 0 and slope in [slope(PQ), slope(OP)], so this
    is that cone's direction set, by strictly decreasing slope, for every
    such triangle.  A collapsed triangle (slope(OP) = slope(OQ)) has
    Q = lam*P with lam = y(Q)/y(P) > 1, so every direction here is
    ((a+b) + b*(lam-1))*P with y > 0, and by homogeneity every chain along
    that one ray is worth spade(Q): any of its direction sets and orders
    gives the same maximum and the merged chain O->Q.

    The sort key is the integer floor(4n^2 * b/(a+b)), not a Fraction per
    direction: with 0 < a+b <= 2n, two distinct b/(a+b) differ by at least
    1/(2n)^2, so 4n^2 times them differ by at least 1 and their floors keep
    their order (the only direction with a+b = 0 is (-1, 1)).
    """
    cone = [
        (a, b)
        for b in range(n + 1)
        for a in range(-b, n + 1)
        if (a, b) != (0, 0) and math.gcd(a, b) == 1
    ]
    scale = 4 * n * n
    cone.sort(key=lambda ab: (ab[0] + ab[1] == 0, ab[1] * scale // (ab[0] + ab[1] or 1)))
    return tuple(cone)


@functools.lru_cache(maxsize=None)  # n <= 60 (GridTooLarge), immutable results
def _walk_plan(n: int) -> tuple:
    """(a, b, delta, rows, parents) for each direction (a, b) of
    ``_cone_order(n)`` with a step in the grid (max(a, 0) + b <= n), in that
    order: the cell (i, j) sits at i*(n + 1) + j, delta = a*(n + 1) + b is
    the flat step, rows are the ranges of target cells the direction walks,
    and parents are the plan indices of its Farey parents (None for (1, 0)
    and (-1, 1)).  Built once per grid on the first brute-force call; equal
    rows are one object.

    Farey parents: in the cone coordinates u = a + b >= 0, v = b >= 0 every
    direction but (u, v) = (1, 0) and (0, 1) is the sum of the unique pair
    d1 = (u1, v1), d2 = (u - u1, v - v1) of nonnegative vectors with
    v*u1 - u*v1 = 1 (its Stern-Brocot parents): u1 is the inverse of v
    modulo u in 1..u.  Both have coordinates at most max(u, v) =
    max(a, 0) + b, so both fit the grid whenever (a, b) does.

    Every target w comes after its source w - (a, b), so a direction's steps
    chain within its pass: rows of constant j by increasing j.  Only the
    cells a chain from O to Q can use at this pass are walked:
    c = b*i - a*j is constant along each line parallel to (a, b), and a
    usable cell has c >= c_min = max(0, -a*n).
    - O side: a reached cell is a sum of earlier directions (a', b'), each
      with b*a' - a*b' >= 0, so c >= 0.
    - Q side: Q - (i, j) = (-i, n - j) must be a sum of this and later
      directions, so b*i + a*(n - j) >= 0, i.e. c >= -a*n.
    A pruned line is still unreached (O side) or read by no later pass (the
    Q side only tightens along the order), so every cell a kept one reads
    gets the same record.  For (1, 0), c = -j: the row j = 0.
    """
    width = n + 1
    interned: dict = {}
    plan = []
    fits = [(a, b) for a, b in _cone_order(n) if max(a, 0) + b <= n]
    index = {ab: k for k, ab in enumerate(fits)}
    for a, b in fits:
        if b:
            c_min = max(0, -a * n)
            j_max = b * n // (a + b) if a > 0 else n  # last row with b*(n - j) >= a*j + c_min
            spans = [
                (-(-(a * j + c_min) // b) * width + j, (n - j) * width + j + 1)
                for j in range(b, j_max + 1)
            ]
        else:
            spans = [(width, n * width + 1)]
        rows = tuple(interned.setdefault(span, range(*span, width)) for span in spans)
        parents = None
        if (a, b) not in ((1, 0), (-1, 1)):
            u1 = pow(b, -1, a + b) or a + b
            v1 = (b * u1 - 1) // (a + b)
            parents = (index[(u1 - v1, v1)], index[(a - u1 + v1, b - v1)])
        plan.append((a, b, a * width + b, rows, parents))
    return tuple(plan)


def _undominated(plan: tuple, valued: list) -> list:
    """Indices k, increasing, of the valued plan directions that their Farey
    parents do not certainly beat: valued[k] ends with integers lo <= value
    * 2**64 <= hi of the step along plan[k] (None: refused), and k is
    dropped only when both parents i, j are valued and hi_k < lo_i + lo_j.
    An exact tie, overlapping enclosures or a refused parent keeps it."""
    kept = []
    for k, (entry, val) in enumerate(zip(plan, valued)):
        if val is None:
            continue
        parents = entry[4]
        if parents is not None:
            first, second = valued[parents[0]], valued[parents[1]]
            if first is not None and second is not None and val[-1] < first[-2] + second[-2]:
                continue
        kept.append(k)
    return kept


def maximize_bruteforce(
    o: PlanePoint, p: PlanePoint, q: PlanePoint, grid_n: int, fallback: bool = False
) -> BruteForceResult:
    """Exact maximum of spade sums over convex chains on the lattice
    {(i*P + j*Q)/grid_n : i, j >= 0, i + j <= grid_n}, any segment count.

    Deterministic dynamic program over the primitive directions (a, b) of
    the triangle's cone by strictly decreasing slope, in the order
    ``_cone_order`` takes from the integers alone (collapsed triangles
    included).  Each direction walks the lattice lines along it from the
    line's first point (every cell after the cell one step back), so
    unbounded reuse of a direction within its pass realizes the collinear
    merge.  It walks only what a chain from O to Q can use: a direction
    (a, b) with max(a, 0) + b > grid_n has no step in the grid and is
    skipped unvalued, and a cell (i, j) is walked only if
    b*i - a*j >= max(0, -a*grid_n).  Pruned cells are never read by kept
    ones, so the value, the chain and the tie-breaks are those of the full
    walk.  That lattice walk depends on grid_n alone: ``_walk_plan`` builds
    it once per grid (with the proof), and a call only values the
    directions and relaxes the cells.  Increments off the slope table
    (unless the fallback values them) or needing a nested radical are
    excluded.

    Dominated directions are dropped before the DP (``_undominated``).  The
    maximum over chains O -> Q is a maximum over multisets of valued
    directions summing to (0, grid_n): sorted by slope, each is one convex
    chain in the triangle, and the DP reaches every one.  A direction
    d = d1 + d2 with Farey parents d1, d2 (``_walk_plan``) that are both
    valued, and whose enclosures certify hi(d) < lo(d1) + lo(d2), is worth
    strictly less than d1 and d2 together; both fit the grid whenever d
    does, so replacing d by them in a multiset gives a strictly better
    chain with the same end point, and no maximal multiset contains d.  So
    dropping every such d leaves the maximum, which is attained, unchanged.
    Nothing here assumes a row is convex, and each drop is decided on the
    triangle's own integer enclosures: an exact tie, overlapping enclosures
    or a refused parent keeps the direction.  The value is therefore always
    the full DP's, and so is the chain whenever the maximal multiset is
    unique; among several maximal multisets it may settle on another one.

    Exactness is lazy.  A merge walk down the cone's boundary list (the one
    ``maximize_reduced`` walks, without slope(OQ): all rational) gives each
    direction its row, and ``SpadeCase.enclosure`` values it as integers
    around value * 2**64 with no factoring: ``clear_denominators`` writes
    the triangle's coordinates over their common denominator D, so each
    step a*P + b*Q is a point over n*D with integral coordinates (ints, or
    QuadNums with integral parts for an irrational triangle).  The DP
    compares these enclosures; exact ``RadicalSum`` values are built only
    where two overlap and for the winning chain, once per step:
    ``SpadeCase.value`` at the integral point its enclosure read, over n*D.
    Every decision is exact, so the value and the chain are the exact DP's
    over the directions kept.
    """
    if grid_n > 60:
        raise GridTooLarge("grid_n must be <= 60")
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    s_op, _, s_pq, _ = _triangle_slopes(o, p, q)
    if s_pq is None:
        raise DegenerateTriangle("edge PQ must rise (y(Q) > y(P))")

    n = grid_n
    (px, py, qx, qy), big_d = clear_denominators((p.x, p.y, q.x, q.y))
    scale = n * big_d  # the step (a*P + b*Q)/n is worth value(x, y)/scale

    # rows by a merge walk: the directions come by strictly decreasing
    # slope, so the cone's inner boundaries slopes[1:-1] are passed once,
    # downward; P owns slope(OP), Q - P owns slope(PQ), and a collapsed
    # triangle (no inner boundary) takes its one slope's row everywhere
    slopes, owners, cells = _cone_rows(s_pq, s_op, fallback)
    inner = [None, *((s.numerator, s.denominator) for s in slopes[1:-1])]  # by index in slopes

    def side(k: int, x, y) -> int:
        """Sign of slope(x, y) - slopes[k] for an inner boundary (y > 0)."""
        return scalar_sign(x * inner[k][1] - inner[k][0] * y)

    k = len(inner) - 1
    plan = _walk_plan(n)
    valued = []  # per plan direction (row, x, y, lo, hi): lo <= step value * 2**64 <= hi; None if refused
    for a, b, *_ in plan:
        x, y = a * px + b * qx, a * py + b * qy
        if b == 0:
            row = owners[-1]
        elif a + b == 0:
            row = owners[0]
        else:
            while k and side(k, x, y) < 0:
                k -= 1
            row = owners[k] if k and side(k, x, y) == 0 else cells[k]
        if row is None:
            valued.append(None)
            continue
        try:
            lo, hi = row.enclosure(x, y, 64)
        except (SlopeOutOfTable, NestedRadical):
            valued.append(None)
            continue
        valued.append((row, x, y, lo // scale, -(-hi // scale)))
    # (a, b, delta, rows, row, x, y, lo, hi) for the directions a maximal chain may use
    dirs = [(*plan[k][:4], *valued[k]) for k in _undominated(plan, valued)]

    step_values: dict = {}

    def step_value(k: int) -> RadicalSum:
        value = step_values.get(k)
        if value is None:
            row, x, y = dirs[k][4:7]  # the point the enclosure read
            value = step_values[k] = RadicalSum.of(row.value(x, y)).scale(Fraction(1, scale))
        return value

    # DP on certified integer enclosures, one entry per cell (i, j) at
    # i*(n + 1) + j: lo_of <= value * 2**64 <= hi_of, summed from the steps'
    # enclosures.  A record is the tuple (parent record, direction index),
    # immutable and freed when no cell or record holds it; exact values are
    # cached by id(record) next to the record, which keeps the id unique.
    # A chain has at most 2n steps (a + b >= 1 but for (-1, 1), b <= n), so
    # ``floor`` is below every reachable lo: an unreached cell's hi_of.
    root = (None, None)
    exact = {id(root): (root, RadicalSum.of(0))}

    def exact_of(rec: tuple) -> RadicalSum:
        pending = []
        while id(rec) not in exact:
            pending.append(rec)
            rec = rec[0]
        total = exact[id(rec)][1]
        for item in reversed(pending):
            total = total + step_value(item[1])
            exact[id(item)] = (item, total)
        return total

    width = n + 1
    floor = 2 * n * min([0, *(d[7] for d in dirs)]) - 1
    lo_of = [floor] * (width * width)
    hi_of = list(lo_of)
    rec_of: list = [None] * (width * width)
    lo_of[0] = hi_of[0] = 0
    rec_of[0] = root
    for k, (_, _, delta, rows, _, _, _, val_lo, val_hi) in enumerate(dirs):
        for row in rows:
            for w in row:
                src = w - delta
                base = rec_of[src]
                if base is None:
                    continue
                cand_lo = lo_of[src] + val_lo
                if cand_lo > hi_of[w]:
                    lo_of[w] = cand_lo
                    hi_of[w] = hi_of[src] + val_hi
                    rec_of[w] = (base, k)
                elif hi_of[src] + val_hi > lo_of[w]:  # overlap: decide exactly
                    cand = exact_of(base) + step_value(k)
                    if cand > exact_of(rec_of[w]):
                        rec_of[w] = rec = (base, k)
                        exact[id(rec)] = (rec, cand)
                        lo_of[w] = cand_lo
                        hi_of[w] = hi_of[src] + val_hi
    rec = rec_of[n]  # the cell (0, n), Q
    if rec is None:
        raise ConvexOptError("no spade-evaluable chain reaches Q on this grid")
    # reconstruct and recompute the exact value of the winning chain
    steps = []
    while rec is not root:
        rec, k = rec
        steps.append(k)
    steps.reverse()
    verts = [ORIGIN]
    total = RadicalSum.of(0)
    for k, run in itertools.groupby(steps):  # one vertex per run of equal steps
        a, b = dirs[k][:2]
        count = len(list(run))
        t = Fraction(count, n)
        verts.append(verts[-1] + PlanePoint((a * p.x + b * q.x) * t, (a * p.y + b * q.y) * t))
        total = total + step_value(k).scale(count)
    chain = ConvexChain(verts).merged()
    return BruteForceResult(total.to_exact(), chain)
