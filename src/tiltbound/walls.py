"""Wall geometry on the degree-8 K3: nested wall lines, the Le Potier-type
boundary curve, line-curve intersections, and the first-wall bounds for
pushforwards of curve classes.

The boundary curve on S(2,2,2) (H^2 = 8) is

    Gamma(x) = 4x^2 - 1 + (x - n)^2   for x in [n-1/2, n+1/2], x != n,
    Gamma(n) = 4n^2                   at integers,

equivalently the piece polynomial 5x^2 - 2nx + (n^2 - 1) away from the
integer points; the open gap (n, 4n^2-1)..(n, 4n^2) is carried by wall
endpoints, not by the function value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import BN_THRESHOLD_POLY, SPADE_CASES, _nearest_band, bn_threshold
from .chern import ChernVec, WrongContext
from .exactnum import (
    Poly1,
    QuadNum,
    Scalar,
    _quadratic_roots,
    as_fraction,
    floor_scalar,
    format_scalar,
    rational_or_quad,
    scalar_sign,
)
from .tilt import TiltParams, wall_line_core

__all__ = [
    "WallError",
    "ZeroReducedCharacter",
    "DegenerateWall",
    "OutOfRange",
    "NoIntersection",
    "WallLine",
    "nested_wall_line",
    "gamma_piece",
    "gamma_piece_index",
    "gamma_curve",
    "line_gamma_intersection",
    "FirstWallBounds",
    "first_wall_bounds",
    "bn_threshold",
    "BN_THRESHOLD_POLY",
]


class WallError(Exception):
    pass


class ZeroReducedCharacter(WallError):
    """The reduced character (H^n.ch0, H^(n-1).ch1, H^(n-2).ch2) vanishes."""


class DegenerateWall(WallError):
    """The base point coincides with p_H(v); every line through it works."""


class OutOfRange(WallError):
    """Slope outside the covered range."""


class NoIntersection(WallError):
    """The line misses the requested curve piece (negative discriminant)."""


@dataclass(frozen=True)
class WallLine:
    """A*alpha + B*beta + C = 0 in the (alpha, beta) parameter plane, with
    exact scalar coefficients (QuadNums for irrational parameters),
    normalized so the first nonzero of (A, B) equals 1."""

    a: Scalar
    b: Scalar
    c: Scalar

    def __post_init__(self):
        a, b, c = map(rational_or_quad, (self.a, self.b, self.c))
        if a == 0 and b == 0:
            raise ValueError("degenerate line coefficients")
        scale = a if a != 0 else b
        for name, x in zip("abc", (a, b, c)):
            object.__setattr__(self, name, rational_or_quad(x / scale))

    def evaluate(self, p: TiltParams):
        return self.a * p.alpha + self.b * p.beta + self.c

    def contains(self, p: TiltParams) -> bool:
        return scalar_sign(self.evaluate(p)) == 0

    def __str__(self):
        return (
            f"{format_scalar(self.a)}*alpha + {format_scalar(self.b)}*beta"
            f" + {format_scalar(self.c)} = 0"
        )


def nested_wall_line(v: ChernVec, p0: TiltParams) -> WallLine:
    """The nested-wall line through p0 and p_H(v), as the vanishing of
    det[(1, alpha, beta), (1, alpha0, beta0), (H^n.ch0, H^(n-2).ch2, H^(n-1).ch1)],
    with the coefficients of ``tilt.wall_line_core``; v needs dimension >= 2
    (WrongContext otherwise).
    """
    if v.context.dim < 2:
        raise WrongContext("nested wall lines need dimension >= 2")
    nums = v.inums()
    if not any(nums[:3]):
        raise ZeroReducedCharacter("reduced character is zero")
    ca, cb, cc = wall_line_core(nums, p0.alpha, p0.beta)
    if scalar_sign(ca) == 0 and scalar_sign(cb) == 0:
        # p0 equals p_H(v): r != 0 and (a0, b0) = (s2/r, s1/r)
        raise DegenerateWall("base point lies on p_H(v); the line is not unique")
    return WallLine(ca, cb, cc)


# ---------------------------------------------------------------------------
# Gamma curve
# ---------------------------------------------------------------------------


def gamma_piece_index(x) -> int:
    """Nearest integer n with x in [n - 1/2, n + 1/2]: floor(x + 1/2), so
    n + 1/2 goes up to n + 1 (the pieces of n and n + 1 agree there)."""
    return floor_scalar(x + Fraction(1, 2))


def _gamma_coeffs(n: int) -> tuple[int, int, int]:
    """(n^2 - 1, -2n, 5): the integer coefficients, low to high, of Gamma's
    piece near the integer n, the one home of the rule."""
    return n * n - 1, -2 * n, 5


def gamma_piece(n: int) -> Poly1:
    """Piece polynomial 5x^2 - 2n x + (n^2 - 1) of Gamma near the integer n."""
    return Poly1(_gamma_coeffs(n))


def gamma_curve(x) -> Scalar:
    """Exact Gamma(x) with the integer-point convention Gamma(n) = 4n^2.

    A rational x = p/q (q > 0) is valued on integers: Fraction(4p^2) at an
    integer, else the ``_gamma_coeffs`` (c0, c1, c2) of the piece of n =
    (2p + q) // (2q), which is ``gamma_piece_index(x)``, over q^2:
    Fraction(c2 p^2 + c1 pq + c0 q^2, q^2).  An irrational QuadNum x is
    valued by ``gamma_piece(gamma_piece_index(x)).evaluate(x)``."""
    x = rational_or_quad(x)
    if isinstance(x, QuadNum):
        return gamma_piece(gamma_piece_index(x)).evaluate(x)
    p, q = x.numerator, x.denominator
    if q == 1:
        return Fraction(4 * p * p)
    c0, c1, c2 = _gamma_coeffs((2 * p + q) // (2 * q))
    return Fraction((c2 * p + c1 * q) * p + c0 * q * q, q * q)


# line_gamma_intersection dispatch: (k-range closure, piece index) per side,
# one entry per static spade row: the hull of the row's ranges, and the n
# whose band 4n sits between its two ranges (0 for the one-range row 3).  At
# a boundary k the intersection lands on a piece edge and still satisfies
# k*x = piece_n(x); a k shared by two rows goes to the smaller |n|.  The
# scan reads each end's numerator and denominator and compares k = p/q with
# it by one cross-multiplied integer.
_PIECE_RANGES = [
    (row.ranges[0].lo, row.ranges[-1].hi, _nearest_band((row.ranges[0].hi + row.ranges[-1].lo) / 2))
    for row in SPADE_CASES[:7]
]
_RIGHT_RANGES = sorted((r for r in _PIECE_RANGES if r[2] >= 0), key=lambda r: r[2])
_LEFT_RANGES = sorted((r for r in _PIECE_RANGES if r[2] <= 0), key=lambda r: -r[2])


def line_gamma_intersection(k, side: str) -> Scalar:
    """x-coordinate where y = k*x meets the Gamma piece selected by k.

    side 'right' follows the positive-slope table ranges, 'left' the
    negative ones; substituting back gives k*x = piece(x) exactly.
    """
    k = as_fraction(k)
    if side == "right":
        table = _RIGHT_RANGES
        pick_hi = True
    elif side == "left":
        table = _LEFT_RANGES
        pick_hi = False
    else:
        raise ValueError("side must be 'right' or 'left'")
    p, q = k.numerator, k.denominator
    for lo, hi, n in table:
        if lo.numerator * q <= p * lo.denominator and p * hi.denominator <= hi.numerator * q:
            return _intersect(p, q, n, pick_hi)
    raise OutOfRange(f"slope {k} outside the intersection table ({side})")


def intersect_line_with_piece(k, n: int, upper_root: bool) -> Scalar:
    """Solve k*x = 5x^2 - 2n x + n^2 - 1 exactly; NoIntersection if no real root."""
    k = as_fraction(k)
    return _intersect(k.numerator, k.denominator, n, upper_root)


def _intersect(p: int, q: int, n: int, upper_root: bool) -> Scalar:
    """``intersect_line_with_piece`` at k = p/q (q > 0): for the piece's
    ``_gamma_coeffs`` (c0, c1, c2), q times the piece minus k*x has the
    integer coefficients c0 q, c1 q - p, c2 q that ``_quadratic_roots`` takes."""
    c0, c1, c2 = _gamma_coeffs(n)
    roots = _quadratic_roots(c0 * q, c1 * q - p, c2 * q)
    if not roots:
        raise NoIntersection(f"slope {Fraction(p, q)} misses the piece at n={n}")
    return roots[-1] if upper_root else roots[0]


# ---------------------------------------------------------------------------
# first wall of a pushed-forward curve class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstWallBounds:
    """Bounds for the first-wall endpoints of the pushforward at slope mu."""

    beta1_min: object
    beta2_max: object
    bn_semistable: bool
    exceptional_case: str | None = None


def first_wall_bounds(mu) -> FirstWallBounds:
    """Endpoint bounds beta1 >= mu/32 - 4, beta2 <= mu/32, widened on the
    three vertical-segment windows; bn_semistable is the exact sign test of
    the y-intercept t.  Windows are decided on cross-multiplied integers."""
    mu = as_fraction(mu)
    p, q = mu.numerator, mu.denominator
    if not 0 <= p <= 64 * q:
        raise OutOfRange("mu must lie in [0, 64]")
    beta1 = Fraction(p - 128 * q, 32 * q)
    beta2 = Fraction(p, 32 * q)
    # t < 0 exactly below bn_threshold() on [0, 64], where the Clifford
    # bound's "bn" piece ends
    bn = mu < bn_threshold()
    tag = None
    if 31 * q <= p <= 32 * q:
        beta2 = Fraction(1)
        tag = "mu_31_32"
    elif 63 * q <= p <= 64 * q:
        beta2 = Fraction(2)
        tag = "mu_63_64"
    if 32 * q <= p <= 33 * q:
        beta1 = Fraction(-3)
        tag = "mu_32_33" if tag is None else tag
    return FirstWallBounds(beta1, beta2, bn, tag)
