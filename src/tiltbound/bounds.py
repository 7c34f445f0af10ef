"""Piecewise bounds: the nine-case global-section bound on the K3 (spade),
the Clifford bound for the genus-65 curve, and the surface/threefold
Bogomolov-Gieseker families, plus a small exact piecewise-function engine
(continuity, convexity, dominance with exact equality sets).

Coordinates for spade: points (x, y) = (ch2, H.ch1/H^2) on the K3 with
H^2 = 8; the case selector is the slope x/y and every formula is
homogeneous of degree 1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .chern import CurveClass
from .exactnum import (
    _enclosure,
    _int_parts,
    _poly_min_on_interval,
    Poly1,
    QuadNum,
    RadicalSum,
    as_fraction,
    clear_denominators,
    compare_scalars,
    floor_scalar,
    format_scalar,
    rational_or_quad,
    scalar_sign,
    sqrt_exact,
    square_free_core,
)

__all__ = [
    "BoundsError",
    "SlopeOutOfTable",
    "NestedRadical",
    "SlopeOutsideTheorem",
    "OutOfDomain",
    "PlanePoint",
    "SPADE_CASES",
    "spade_case_for_slope",
    "spade",
    "spade_fallback",
    "BN_THRESHOLD_POLY",
    "bn_threshold",
    "CLIFFORD_BREAK",
    "clifford_family",
    "clifford_case",
    "clifford_bound",
    "bg_bound_surface",
    "bg_bound_threefold",
    "bg_quadratic_family",
    "bg_linear_family",
    "bg_refined_family",
    "classical_bogomolov",
    "Interval",
    "Piece",
    "PiecewiseBound",
    "piecewise_check",
    "CheckReport",
]


class BoundsError(Exception):
    pass


class SlopeOutOfTable(BoundsError):
    """x/y falls in none of the nine spade ranges."""


class NestedRadical(BoundsError):
    """A square-root row at a point whose radicand is irrational: its value
    would need a nested radical, which the exact scalars cannot hold."""


class SlopeOutsideTheorem(BoundsError):
    """mu outside [0,16] u [48,64]; the Clifford theorem does not cover it."""


class OutOfDomain(BoundsError):
    """Argument outside a bound's stated domain."""


# ---------------------------------------------------------------------------
# spade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """[lo, hi] with open/closed flags; endpoints exact (QuadNum allowed)."""

    lo: object
    hi: object
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, x) -> bool:
        cl = compare_scalars(x, self.lo)
        ch = compare_scalars(x, self.hi)
        return (cl > 0 or (self.lo_closed and cl == 0)) and (
            ch < 0 or (self.hi_closed and ch == 0)
        )


@dataclass(frozen=True)
class PlanePoint:
    """Point (ch2, H.ch1/H^2) in the K3 character plane; exact coordinates."""

    x: object
    y: object

    def __post_init__(self):
        for name in ("x", "y"):
            v = getattr(self, name)
            if not isinstance(v, QuadNum):
                object.__setattr__(self, name, as_fraction(v))

    def __add__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.x - other.x, self.y - other.y)

    def scale(self, t) -> "PlanePoint":
        return PlanePoint(self.x * t, self.y * t)

    def slope(self):
        if scalar_sign(self.y) == 0:
            raise ZeroDivisionError("slope of a horizontal increment")
        return self.x / self.y

    def is_zero(self) -> bool:
        return scalar_sign(self.x) == 0 and scalar_sign(self.y) == 0

    def to_json(self) -> dict:
        return {"x": format_scalar(self.x), "y": format_scalar(self.y)}


@dataclass(frozen=True)
class SpadeCase:
    """One row of the slope table.

    value(x, y) = lin_x*x + lin_y*y + srt*sqrt(q_xx x^2 + q_xy xy + q_yy y^2)
                + num(x,y)/den(x,y)   (num quadratic form, den linear form)
    with at most one of the sqrt / ratio parts present (checked on creation).
    The written fields are the readable table; ``value`` and ``enclosure``
    both evaluate ``integral``, through ``_frame``.
    """

    case_id: int
    ranges: tuple | None  # Interval per range; None for band rows
    lin: tuple  # (coeff of x, coeff of y)
    srt: Fraction | None = None
    q: tuple | None = None  # (xx, xy, yy)
    num: tuple | None = None  # quadratic form (xx, xy, yy)
    den: tuple | None = None  # linear form (x, y)
    # c times the row with integer coefficients, the one evaluated form:
    # (c, (L_x, L_y), S, Q, N, D) with c*value = L.(x, y) + S*sqrt(Q(x, y))
    # + N(x, y)/D(x, y); derived from the fields above
    integral: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if self.srt is not None and self.num is not None:
            raise ValueError("a row has a square-root part or a ratio part, not both")
        if any(v.denominator != 1 for v in (*(self.q or ()), *(self.den or ()))):
            raise ValueError("radicand and denominator forms need integer coefficients")
        scaled, c = clear_denominators((*self.lin, self.srt or 0, *(self.num or ())))
        q, den = (form and tuple(v.numerator for v in form) for form in (self.q, self.den))
        num = self.num and tuple(scaled[3:])
        object.__setattr__(self, "integral", (c, tuple(scaled[:2]), scaled[2], q, num, den))

    def _frame(self, x, y) -> tuple:
        """(out, div, rad) with value(x, y) = (out + S*sqrt(rad))/div for the
        ``integral`` root coefficient S: the row's one evaluation and the one
        home of its refusals.  The point is written over one denominator d
        (an int point already is), so value(x, y) = value(d*x, d*y)/d by
        homogeneity: rad is an int, div a nonzero int, and out an int or, at
        an irrational point, a QuadNum."""
        d = 1
        if type(x) is not int or type(y) is not int:
            (x, y), d = clear_denominators((x, y))
        c, (lx, ly), s, q, num, den = self.integral
        out, div, rad = lx * x + ly * y, c * d, 0
        if num is not None:
            denom = den[0] * x + den[1] * y
            if scalar_sign(denom) == 0:
                raise SlopeOutOfTable("ratio denominator vanishes")
            quad = num[0] * x * x + num[1] * x * y + num[2] * y * y
            if isinstance(out, QuadNum):
                out = out + quad / denom
            else:
                out, div = out * denom + quad, div * denom
        if s:
            rad = q[0] * x * x + q[1] * x * y + q[2] * y * y
            if isinstance(rad, QuadNum):
                u, v, _, _ = _int_parts(rad)
                if v:
                    raise NestedRadical(f"nested radical sqrt({format_scalar(rad / (d * d))})")
                rad = u
            if rad < 0:
                raise SlopeOutOfTable("negative radicand outside the case range")
        return out, div, rad

    def value(self, x, y):
        """The row's exact value at (x, y), finished from ``_frame``.

        At a rational point the frame is all integers, so the value is built
        in one step from ``square_free_core(rad) = (core, sq)``: the Fraction
        (out + S*sq)/div when core is 1 (or S or rad is 0), else the QuadNum
        out/div + (S*sq/div)*sqrt(core).  At an irrational point the root's
        radicand may differ from the coordinates', so the sum is taken in
        ``RadicalSum``."""
        out, div, rad = self._frame(x, y)
        s = self.integral[2]
        if not s:
            return Fraction(out, div) if type(out) is int else out / div
        if isinstance(out, QuadNum):
            root = RadicalSum.of(s * sqrt_exact(rad))
            return (RadicalSum.of(out) + root).scale(Fraction(1, div)).to_exact()
        if not rad:
            return Fraction(out, div)
        core, sq = square_free_core(rad)
        if core == 1:
            return Fraction(out + s * sq, div)
        return QuadNum._reduced(Fraction(out, div), Fraction(s * sq, div), core)

    def enclosure(self, x, y, bits: int) -> tuple[int, int]:
        """Integers lo <= value(x, y) * 2**bits <= hi, with no factoring: one
        ``exactnum._enclosure`` of the frame's terms, the exact part and
        S*sqrt(rad), so hi - lo <= 3, and a ratio row at a rational point is
        exact to within one unit.  Refuses what ``value`` refuses.  At an
        irrational point the exact part a + b*sqrt(m) is cleared of its
        denominators first (a ratio row leaves them)."""
        out, div, rad = self._frame(x, y)
        terms = [(out, 1)]
        if isinstance(out, QuadNum):
            u, v, m, w = _int_parts(out)
            terms, div = [(u, 1), (v, m)], div * w
        return _enclosure((*terms, (self.integral[2], rad)), div, bits)


def _rng(lo, lo_c, hi, hi_c):
    return Interval(as_fraction(lo), as_fraction(hi), lo_c, hi_c)


SPADE_CASES: tuple[SpadeCase, ...] = (
    SpadeCase(
        1,
        (_rng(Fraction(11, 2), True, Fraction(15, 2), False), _rng(8, False, Fraction(97, 10), True)),
        (Fraction(7, 6), Fraction(2, 3)),
        srt=Fraction(-1, 6),
        q=(Fraction(1), Fraction(8), Fraction(-44)),
    ),
    SpadeCase(
        2,
        (_rng(Fraction(1, 2), True, 3, False), _rng(4, False, Fraction(11, 2), True)),
        (Fraction(1), Fraction(0)),
        num=(Fraction(0), Fraction(0), Fraction(5)),
        den=(Fraction(1), Fraction(2)),
    ),
    SpadeCase(
        3,
        (_rng(Fraction(-1, 4), True, Fraction(1, 4), True),),
        (Fraction(1, 2), Fraction(0)),
        srt=Fraction(1, 2),
        q=(Fraction(1), Fraction(0), Fraction(20)),
    ),
    SpadeCase(
        4,
        (_rng(Fraction(-11, 2), True, -4, False), _rng(-3, False, Fraction(-1, 2), True)),
        (Fraction(0), Fraction(0)),
        num=(Fraction(0), Fraction(0), Fraction(5)),
        den=(Fraction(-1), Fraction(2)),
    ),
    SpadeCase(
        5,
        (_rng(Fraction(-97, 10), True, -8, False), _rng(Fraction(-15, 2), False, Fraction(-11, 2), True)),
        (Fraction(-1, 6), Fraction(2, 3)),
        srt=Fraction(-1, 6),
        q=(Fraction(1), Fraction(-8), Fraction(-44)),
    ),
    SpadeCase(
        6,
        (_rng(Fraction(-193, 14), True, -12, False), _rng(Fraction(-35, 3), False, Fraction(-97, 10), True)),
        (Fraction(-1, 16), Fraction(3, 8)),
        srt=Fraction(-1, 16),
        q=(Fraction(1), Fraction(-12), Fraction(-124)),
    ),
    SpadeCase(
        7,
        (_rng(Fraction(-107, 6), True, -16, False), _rng(Fraction(-63, 4), False, Fraction(-193, 14), True)),
        (Fraction(-1, 30), Fraction(4, 15)),
        srt=Fraction(-1, 30),
        q=(Fraction(1), Fraction(-16), Fraction(-236)),
    ),
    SpadeCase(
        8,
        None,
        (Fraction(0), Fraction(0)),
        num=(Fraction(0), Fraction(0), Fraction(-4)),
        den=(Fraction(1), Fraction(0)),
    ),
    SpadeCase(
        9,
        None,
        (Fraction(1), Fraction(0)),
        num=(Fraction(0), Fraction(0), Fraction(4)),
        den=(Fraction(1), Fraction(0)),
    ),
)

# the universal bound x/2 + sqrt(x^2 + 20y^2)/2 is row 3's formula on every slope
_FALLBACK_CASE = replace(SPADE_CASES[2], case_id=0, ranges=())


def _owner_tables(ranges) -> tuple[tuple, tuple, tuple]:
    """(boundaries, point owners, gap owners) of (owner, Interval) pairs.

    The boundaries are every range end, sorted.  Gap k is the open interval
    between boundaries k-1 and k (gap 0 lies below the first boundary, the
    last gap above the last one); an unowned point or gap holds None.  Each
    range marks its endpoint indices; pairs are marked in reverse, so where
    two ranges share a closed endpoint the earlier pair's owner owns it.
    """
    boundaries = tuple(sorted({end for _, r in ranges for end in (r.lo, r.hi)}))
    index = {b: k for k, b in enumerate(boundaries)}
    points: list = [None] * len(boundaries)
    gaps: list = [None] * (len(boundaries) + 1)
    for owner, r in reversed(ranges):
        i, j = index[r.lo], index[r.hi]
        gaps[i + 1 : j + 1] = [owner] * (j - i)
        points[i + 1 : j] = [owner] * (j - i - 1)
        if r.lo_closed:
            points[i] = owner
        if r.hi_closed:
            points[j] = owner
    return boundaries, tuple(points), tuple(gaps)


def _owner(tables: tuple, s):
    """The owner of the exact scalar s in ``_owner_tables`` output, or None:
    a three-way bisection of the boundaries, one ``compare_scalars`` a step,
    ending on the boundary s equals or on the gap that holds s."""
    boundaries, points, gaps = tables
    lo, hi = 0, len(boundaries)
    while lo < hi:
        mid = (lo + hi) // 2
        c = compare_scalars(s, boundaries[mid])
        if not c:
            return points[mid]
        lo, hi = (lo, mid) if c < 0 else (mid + 1, hi)
    return gaps[lo]


# rows 1-7 by their ranges: the slopes where they begin or end, and the row
# owning each such slope and each gap between them (the lower row on a tie)
_SPADE_OWNERS = _owner_tables([(row, r) for row in SPADE_CASES[:7] for r in row.ranges])
_TABLE_BOUNDARIES = _SPADE_OWNERS[0]


def _band(n: int) -> tuple[Fraction, Fraction]:
    """Ends (lo, hi) of band n != 0, the closed range 4n^2 - 1 <= n*s <= 4n^2
    between 4n and (4n^2 - 1)/n: row 9's for n > 0, row 8's for n < 0."""
    inner, outer = Fraction(4 * n * n - 1, n), Fraction(4 * n)
    return (inner, outer) if n > 0 else (outer, inner)


def _nearest_band(s) -> int:
    """Integer n with 4n closest to the slope (ties go up): floor(s/4 + 1/2)."""
    return (floor_scalar(s) + 2) // 4


def spade_case_for_slope(s) -> SpadeCase:
    """Slope-table dispatch: the row of rows 1-7 owning s, else the band row
    of the band nearest s (the bands lie in gaps of rows 1-7)."""
    s = rational_or_quad(s)
    row = _owner(_SPADE_OWNERS, s)
    if row is not None:
        return row
    n = _nearest_band(s)
    if n:
        lo, hi = _band(n)
        if compare_scalars(s, lo) >= 0 and compare_scalars(s, hi) <= 0:
            return SPADE_CASES[8 if n > 0 else 7]
    raise SlopeOutOfTable(f"slope {format_scalar(s)} not covered by the table")


def _row_or_fallback(s, fallback: bool):
    """The row owning slope s; off the table the fallback row if requested."""
    try:
        return spade_case_for_slope(s)
    except SlopeOutOfTable:
        return _FALLBACK_CASE if fallback else None


def _table_ends_inside(lo, hi, *extra) -> list:
    """The slope-table ends and the slopes ``extra`` strictly inside
    (lo, hi), increasing, each once (the first of equal slopes in the order
    rows 1-7, extra, bands).  The ends of rows 1-7 are bisected; each band
    end has its own band as its nearest, so every band end inside is in a
    band from ``_nearest_band(lo)`` to ``_nearest_band(hi)``."""
    table = _TABLE_BOUNDARIES[bisect.bisect_right(_TABLE_BOUNDARIES, lo) : bisect.bisect_left(_TABLE_BOUNDARIES, hi)]
    bands = (end for n in range(_nearest_band(lo), _nearest_band(hi) + 1) if n for end in _band(n))
    inside = [s for s in (*extra, *bands) if compare_scalars(lo, s) < 0 and compare_scalars(s, hi) < 0]
    return sorted({*table, *inside})


def _spade_point(p: PlanePoint | tuple) -> tuple:
    """(x, y) of a point or a pair; OutOfDomain unless y > 0."""
    if isinstance(p, tuple):
        p = PlanePoint(*p)
    if scalar_sign(p.y) <= 0:
        raise OutOfDomain("spade needs y > 0")
    return p.x, p.y


def spade(p: PlanePoint | tuple, fallback: bool = False):
    """Global-section excess bound for a Brill-Noether semistable class.

    Exact value of the slope-table row containing x/y; homogeneous of
    degree 1.  Raises SlopeOutOfTable off the table unless ``fallback``
    requests the universal formula x/2 + sqrt(x^2 + 20 y^2)/2.
    """
    x, y = _spade_point(p)
    s = x / y
    try:
        row = spade_case_for_slope(s)
    except SlopeOutOfTable:
        if fallback:
            return _FALLBACK_CASE.value(x, y)
        raise
    return row.value(x, y)


def spade_fallback(p: PlanePoint | tuple):
    """The universal bound x/2 + sqrt(x^2 + 20y^2)/2 (valid on every slope);
    OutOfDomain unless y > 0, as for ``spade``."""
    return _FALLBACK_CASE.value(*_spade_point(p))


# ---------------------------------------------------------------------------
# piecewise engine
# ---------------------------------------------------------------------------

_ONE = Poly1([1])


@dataclass(frozen=True)
class Piece:
    """One sub-interval with the ratio poly/den of two polynomials of degree
    at most 2; den is 1 on a polynomial piece.  name labels the piece when
    it is a case of its bound (the Clifford pieces)."""

    interval: Interval
    poly: Poly1
    den: Poly1 = _ONE
    name: str = ""

    def value(self, x):
        v = self.poly.evaluate(x)
        return v if self.den.coeffs == (1,) else v / self.den.evaluate(x)


class PiecewiseBound:
    """Ordered pieces with strictly increasing, non-overlapping intervals.

    Gaps between consecutive intervals are allowed (``clifford_family`` has
    the uncovered band (16, 48)); continuity is only meaningful at shared
    breakpoints.  ``piece_at`` is the one lookup: a bisection of the piece
    ends (``_owner_tables``); a closed end two pieces share is the left's.
    """

    __slots__ = ("name", "pieces", "_owners")

    def __init__(self, name: str, pieces: Sequence[Piece]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pieces", tuple(pieces))
        for a, b in zip(self.pieces, self.pieces[1:]):
            if compare_scalars(a.interval.hi, b.interval.lo) > 0:
                raise ValueError(f"{name}: overlapping pieces")
        object.__setattr__(self, "_owners", _owner_tables([(p, p.interval) for p in self.pieces]))

    def __setattr__(self, *a):
        raise AttributeError("PiecewiseBound is immutable")

    def piece_at(self, x) -> Piece | None:
        """The piece whose interval holds x, or None where no piece does."""
        return _owner(self._owners, x)

    def evaluate(self, x):
        piece = self.piece_at(x)
        if piece is None:
            raise OutOfDomain(f"{self.name}: {format_scalar(x)} outside the domain")
        return piece.value(x)

    def shared_breakpoints(self):
        """(x, left piece, right piece) where consecutive intervals touch."""
        out = []
        for a, b in zip(self.pieces, self.pieces[1:]):
            if compare_scalars(a.interval.hi, b.interval.lo) == 0:
                out.append((a.interval.hi, a, b))
        return out

    def to_table(self) -> list:
        """Exact JSON-ready piece table for audit; a ratio piece's row also
        holds its denominator's coefficients under "den"."""
        rows = []
        for p in self.pieces:
            row = {
                "lo": format_scalar(p.interval.lo),
                "hi": format_scalar(p.interval.hi),
                "lo_closed": p.interval.lo_closed,
                "hi_closed": p.interval.hi_closed,
            }
            row["poly"] = [format_scalar(c) for c in p.poly.coeffs]
            if p.den.coeffs != (1,):
                row["den"] = [format_scalar(c) for c in p.den.coeffs]
            rows.append(row)
        return rows


def _pw(name, rows) -> PiecewiseBound:
    return PiecewiseBound(name, [Piece(Interval(lo, hi, lo_c, hi_c), Poly1(cs)) for lo, lo_c, hi, hi_c, cs in rows])


# ---------------------------------------------------------------------------
# Clifford bound on the curve
# ---------------------------------------------------------------------------

# t < 0 with t = -(3/1024) mu^2 + mu/2 - 1 is equivalent (on [0, 64]) to
# 3 mu^2 - 512 mu + 1024 > 0, whose lower root is the threshold below.
BN_THRESHOLD_POLY = Poly1([1024, -512, 3])
_BN_THRESHOLD = BN_THRESHOLD_POLY.real_roots()[0]

# the two [48, 64] pieces; they switch at the lower root of high - linear,
# (5 mu^2 - 1152 mu + 52224)/1024
_HIGH = Poly1([5, Fraction(-1, 8), Fraction(5, 1024)])  # 5 - mu/8 + 5 mu^2/1024
_LINEAR = Poly1([-46, 1])  # mu - 46
CLIFFORD_BREAK = (_HIGH - _LINEAR).real_roots()[0]

# the per-rank Clifford bound in mu = d/r, one piece per ``clifford_case``
# name: clifford_bound is r times the value of the named piece
clifford_family = PiecewiseBound(
    "clifford",
    [
        Piece(Interval(Fraction(0), _BN_THRESHOLD, True, False), Poly1([64]), Poly1([64, -1]), "bn"),  # 64/(64 - mu)
        Piece(Interval(_BN_THRESHOLD, Fraction(16)), Poly1([1, 0, Fraction(5, 1024)]), name="low"),  # 1 + 5 mu^2/1024
        Piece(Interval(Fraction(48), CLIFFORD_BREAK, True, False), _HIGH, name="high"),
        Piece(Interval(CLIFFORD_BREAK, Fraction(64)), _LINEAR, name="linear"),
    ],
)


def bn_threshold() -> QuadNum:
    """(256 - 32*sqrt(61))/3, the end of the Brill-Noether-semistable range:
    the lower root of ``BN_THRESHOLD_POLY``."""
    return _BN_THRESHOLD


def _clifford_piece(e: CurveClass) -> tuple[Piece, Fraction]:
    """The ``clifford_family`` piece holding mu = d/r, and mu; or the refusal."""
    if e.r < 1:
        raise OutOfDomain("the Clifford cases need r >= 1")
    mu = e.slope
    piece = clifford_family.piece_at(mu)
    if piece is None:
        raise SlopeOutsideTheorem(f"mu = {mu} outside [0,16] u [48,64]")
    return piece, mu


def clifford_case(e: CurveClass) -> str:
    """The name of the ``clifford_family`` piece holding mu = d/r: "bn" on
    [0, (256-32*sqrt(61))/3), "low" up to 16; "high" from 48 to
    ``CLIFFORD_BREAK``, "linear" beyond it, up to 64.  OutOfDomain for
    r < 1, SlopeOutsideTheorem on (16, 48) and off [0, 64]."""
    return _clifford_piece(e)[0].name


def clifford_bound(e: CurveClass | tuple):
    """Upper bound for h^0 of a semistable bundle of rank r, degree d on C:
    r times the value at mu of the ``clifford_family`` piece that
    ``clifford_case`` names, that is 64r^2/(64r - d) (bn), r + 5d^2/1024r
    (low), 5d^2/1024r + 5r - d/8 (high) or d - 46r (linear)."""
    if isinstance(e, tuple):
        e = CurveClass(*e)
    piece, mu = _clifford_piece(e)
    return e.r * piece.value(mu)


# ---------------------------------------------------------------------------
# Bogomolov-Gieseker families
# ---------------------------------------------------------------------------

_SQRT13 = QuadNum(0, 1, 13)
_BP_A = (4 - _SQRT13) / 3  # (4 - sqrt(13))/3
_BP_B = (_SQRT13 - 1) / 3  # (sqrt(13) - 1)/3

# ch2/(H^2 ch0) bound on the surface S' in x = H.ch1/(H^2 ch0), 0 < x < 1
bg_quadratic_family = _pw(
    "bg_quadratic",
    [
        (Fraction(0), True, _BP_A, True, [0, -1, 1]),  # x^2 - x
        (_BP_A, False, Fraction(1, 2), True, [Fraction(-1, 8), 0, Fraction(5, 8)]),
        (Fraction(1, 2), False, _BP_B, False, [0, Fraction(-1, 4), Fraction(5, 8)]),
        (_BP_B, True, Fraction(1), True, [Fraction(-1, 2), 0, 1]),  # x^2 - 1/2
    ],
)

# H.ch2/(H^3 ch0) linear bound on X in |x| = |H^2 ch1 / H^3 ch0|
bg_linear_family = _pw(
    "bg_linear",
    [
        (Fraction(0), True, Fraction(1, 5), True, [0, Fraction(-1, 2)]),
        (Fraction(1, 5), True, Fraction(1, 2), True, [Fraction(-3, 16), Fraction(7, 16)]),
        (Fraction(1, 2), True, Fraction(4, 5), True, [Fraction(-1, 4), Fraction(9, 16)]),
        (Fraction(4, 5), True, Fraction(10, 11), True, [Fraction(-8, 11), Fraction(51, 44)]),
        (Fraction(10, 11), True, Fraction(1), True, [Fraction(-31, 22), Fraction(21, 11)]),
    ],
)

# the three refined pieces of the linear theorem's closing clause: a secant,
# the quadratic family's piece 2 on [1/5, 1/2] and its piece 4
bg_refined_family = (
    _pw("bg_refined_secant", [(Fraction(1, 5), True, Fraction(1, 4), True, [Fraction(-5, 32), Fraction(9, 32)])]),
    _pw("bg_refined_parabola", [(Fraction(1, 5), True, Fraction(1, 2), True, bg_quadratic_family.pieces[1].poly.coeffs)]),
    PiecewiseBound("bg_refined_tail", bg_quadratic_family.pieces[3:]),
)


def classical_bogomolov(x):
    """The classical bound x^2/2 in the same normalization."""
    x = rational_or_quad(x)
    return x * x / 2


def bg_bound_surface(x):
    """Surface Bogomolov-Gieseker bound; domain 0 < x < 1 strictly."""
    x = rational_or_quad(x)
    if compare_scalars(x, 0) <= 0 or compare_scalars(x, 1) >= 0:
        raise OutOfDomain("bg_bound_surface needs 0 < x < 1")
    return bg_quadratic_family.evaluate(x)


def bg_bound_threefold(x, family: str = "quadratic"):
    """Threefold bound for H.ch2/(H^3 ch0).

    quadratic: the surface family in threefold ratios, after the integer
    twist x -> x - floor(x) of the final clause; linear: the five-piece
    linear theorem on |x| <= 1; refined: minimum of the applicable refined
    pieces.
    """
    x = rational_or_quad(x)
    if family == "quadratic":
        return bg_quadratic_family.evaluate(x - floor_scalar(x))
    if family == "linear":
        if compare_scalars(abs(x), 1) > 0:
            raise OutOfDomain("linear family needs |x| <= 1")
        return bg_linear_family.evaluate(abs(x))
    if family == "refined":
        pieces = [p for p in (fam.piece_at(abs(x)) for fam in bg_refined_family) if p is not None]
        if not pieces:
            raise OutOfDomain(f"no refined piece covers |x| = {abs(x)}")
        return min(p.value(abs(x)) for p in pieces)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# checks: continuity, convexity, dominance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    kind: str
    ok: bool
    details: tuple


def _polynomial_pieces(*fs: PiecewiseBound) -> None:
    """ValueError on a piece of fs whose denominator is not 1: the convexity
    and dominance checks read a piece's numerator alone."""
    for f in fs:
        if any(p.den.coeffs != (1,) for p in f.pieces):
            raise ValueError(f"{f.name}: a ratio piece; the check needs polynomial pieces")


def piecewise_check(f: PiecewiseBound, check: str, other: PiecewiseBound | None = None) -> CheckReport:
    """continuity | convexity_on | dominance (f >= other) with exact data.
    Continuity values each piece in full; convexity_on and dominance raise
    ValueError on a ratio piece."""
    if check == "continuity":
        bad = []
        for x, left, right in f.shared_breakpoints():
            lv = left.value(x)
            rv = right.value(x)
            if compare_scalars(lv, rv) != 0:
                bad.append((x, lv, rv))
        return CheckReport("continuity", not bad, tuple(bad))
    if check == "convexity_on":
        _polynomial_pieces(f)
        convex = tuple(p.poly.degree() < 2 or p.poly.coeffs[2] >= 0 for p in f.pieces)
        kinks = tuple(
            (x, compare_scalars(right.poly.derivative().evaluate(x), left.poly.derivative().evaluate(x)))
            for x, left, right in f.shared_breakpoints()
        )
        return CheckReport("convexity_on", all(convex) and all(k >= 0 for _, k in kinks), (convex, kinks))
    if check == "dominance":
        if other is None:
            raise ValueError("dominance needs a second bound")
        _polynomial_pieces(f, other)
        return _dominance(f, other)
    raise ValueError(f"unknown check {check!r}")


def _overlap(i1: Interval, i2: Interval) -> Interval | None:
    lo = i1.lo if compare_scalars(i1.lo, i2.lo) >= 0 else i2.lo
    hi = i1.hi if compare_scalars(i1.hi, i2.hi) <= 0 else i2.hi
    if compare_scalars(lo, hi) > 0:
        return None
    lo_closed = i1.contains(lo) and i2.contains(lo)
    hi_closed = i1.contains(hi) and i2.contains(hi)
    if compare_scalars(lo, hi) == 0 and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def _dominance(f: PiecewiseBound, g: PiecewiseBound) -> CheckReport:
    """f >= g on the common domain; details = (sorted exact equality set,
    whether some overlap is an interval of equality, witness)."""
    equal_points = []
    ok, has_interval, witness = True, False, None
    for pf in f.pieces:
        for pg in g.pieces:
            ov = _overlap(pf.interval, pg.interval)
            if ov is None:
                continue
            diff = pf.poly - pg.poly
            if diff.is_zero():
                # identical formulas: equality on the whole overlap; record endpoints
                equal_points.extend(x for x in (ov.lo, ov.hi) if ov.contains(x))
                has_interval = True
                continue
            # dominance fails where diff's minimum over the overlap hull is
            # negative, even at an open end (continuity carries the sign
            # inside); the witness is the smallest such minimum
            v, x = _poly_min_on_interval(diff, ov.lo, ov.hi)
            if scalar_sign(v) < 0 and (witness is None or v < witness[1]):
                ok = False
                witness = (x, v)
            equal_points.extend(r for r in diff.real_roots() if ov.contains(r))
    # each equality point once: an exact value hashes by its value
    details = (tuple(sorted(dict.fromkeys(equal_points))), has_interval, witness)
    return CheckReport("dominance", ok, details)
