"""Slope machinery: mu, tilt slope in three charts, Brill-Noether slope,
H-discriminant, the quadratic form Q, and stability-parameter predicates.

Charts.  Three equivalent parameterizations of tilt stability occur:

* canonical:  nu(E) = (H^(n-2).ch2^bH - (a^2/2) H^n.ch0) / H^(n-1).ch1^bH
  (alpha enters as alpha^2/2, ch2 twisted);
* linear:     nu(E) = (H^(n-2).ch2      -  a     H^n.ch0) / H^(n-1).ch1^bH,
  the working convention of the wall determinants and of Q (alpha linear,
  ch2 untwisted); nu(O[1]) = a/beta here, so the parameter pair
  (a, beta) = (delta^2, delta) gives nu(O[1]) = delta;
* k3:         nu(E) = H^2 (ch2 - a ch0) / H.ch1^bH on a surface ("H^2 part
  inside alpha").

They satisfy nu_canonical(a,b) = nu_linear((a^2+b^2)/2, b) - b and, on a
surface, nu_canonical = nu_k3/H^2 - b with a_k3 = H^2 (a^2+b^2)/2; both
conversions are exposed below and verified by the test-suite anchor values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chern import ChernVec, X24, exp_twist, twist_core, weighted_frame
from .exactnum import (
    ExactOrder, QuadNum, as_fraction, compare_scalars, floor_scalar, format_scalar, scalar_sign, unscale,
)

__all__ = [
    "TiltError",
    "InvalidRegion",
    "PreconditionError",
    "TiltParams",
    "SlopeValue",
    "mu_slope",
    "twisted_inums",
    "nu_tilt",
    "linear_params_from_canonical",
    "k3_alpha_from_canonical",
    "bn_slope",
    "delta_H",
    "delta_core",
    "q_form",
    "q_core",
    "wall_line_core",
    "wall_det_core",
    "wall_q_invariance_check",
    "RegionFlags",
    "stability_region_predicates",
]


class TiltError(Exception):
    pass


class InvalidRegion(TiltError):
    """Canonical-chart tilt slope requested with alpha <= beta^2/2."""


class PreconditionError(TiltError):
    """A stated collinearity/degeneracy precondition fails."""


@dataclass(frozen=True)
class TiltParams:
    """Stability parameters (alpha, beta); exact rationals or QuadNums."""

    alpha: object
    beta: object

    def __post_init__(self):
        for name in ("alpha", "beta"):
            x = getattr(self, name)
            if not isinstance(x, QuadNum):
                object.__setattr__(self, name, as_fraction(x))


class SlopeValue(ExactOrder):
    """A slope: an exact finite value or +infinity (torsion denominators)."""

    __slots__ = ("value",)
    _INF = None

    def __init__(self, value):
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("SlopeValue is immutable")

    @classmethod
    def finite(cls, v) -> "SlopeValue":
        return cls(v)

    @classmethod
    def infinity(cls) -> "SlopeValue":
        if cls._INF is None:
            inf = cls(None)
            cls._INF = inf
        return cls._INF

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def _cmp(self, other) -> int:
        if not isinstance(other, SlopeValue):
            other = SlopeValue(other)
        if self.is_infinite and other.is_infinite:
            return 0
        if self.is_infinite:
            return 1
        if other.is_infinite:
            return -1
        return compare_scalars(self.value, other.value)

    def __eq__(self, other):
        if isinstance(other, (SlopeValue, int, Fraction, QuadNum)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash(None) if self.is_infinite else hash(self.value)

    def __repr__(self):
        return "SlopeValue(+inf)" if self.is_infinite else f"SlopeValue({format_scalar(self.value)})"


def mu_slope(v: ChernVec, normalized: bool = False) -> SlopeValue:
    """Classical slope H^(n-1).ch1/ch0 (or its H^n-normalized form c1/c0)."""
    if v.context.dim < 1:
        raise TiltError("slope needs dimension >= 1")
    if v.c[0] == 0:
        return SlopeValue.infinity()
    num = v.c[1] if normalized else v.inum(1)
    return SlopeValue.finite(num / v.c[0])


def twisted_inums(v: ChernVec, beta) -> tuple:
    """(H^(n-i).ch_i^(beta H))_i as numbers; beta may be Fraction or QuadNum."""
    return exp_twist(v.inums(), beta)


def nu_tilt(v: ChernVec, p: TiltParams, chart: str = "canonical") -> SlopeValue:
    """Tilt slope in the requested chart (see module docstring)."""
    if v.context.dim < 2:
        raise TiltError("tilt slope needs dimension >= 2")
    a, b = p.alpha, p.beta
    tw = twisted_inums(v, b)
    den = tw[1]
    if chart == "canonical":
        if compare_scalars(a, b * b / 2) <= 0:
            raise InvalidRegion("canonical chart requires alpha > beta^2/2")
        num = tw[2] - (a * a / 2) * tw[0]
    elif chart == "linear":
        num = v.inum(2) - a * tw[0]
    elif chart == "k3":
        if v.context.dim != 2:
            raise TiltError("k3 chart is a surface chart")
        # H^2 (ch2 - a ch0) / H.ch1^bH; here a is the absorbed alpha_K3
        num = v.context.degree * (v.inum(2) - a * v.c[0])
    else:
        raise ValueError(f"unknown chart {chart!r}")
    if scalar_sign(den) == 0:
        return SlopeValue.infinity()
    return SlopeValue.finite(num / den)


def linear_params_from_canonical(p: TiltParams) -> TiltParams:
    """Linear-chart parameters with the same walls: a = (alpha^2+beta^2)/2."""
    return TiltParams((p.alpha * p.alpha + p.beta * p.beta) / 2, p.beta)


def k3_alpha_from_canonical(p: TiltParams):
    """K3-chart absorbed alpha: H^2 (alpha^2+beta^2)/2 with H^2 = 8."""
    return 8 * (p.alpha * p.alpha + p.beta * p.beta) / 2


def bn_slope(v: ChernVec) -> SlopeValue:
    """Brill-Noether slope H^(n-2).ch2 / H^(n-1).ch1."""
    if v.context.dim < 2:
        raise TiltError("Brill-Noether slope needs dimension >= 2")
    if v.inum(1) == 0:
        return SlopeValue.infinity()
    return SlopeValue.finite(v.inum(2) / v.inum(1))


# Formula cores.  Each takes the inum tuple (H^(n-i).ch_i)_i as plain numbers
# and never divides, so it runs over any commutative ring: Fractions and
# QuadNums, the ints of ``chern.weighted_frame``, MPoly variables.  Give
# inum i weight i, beta weight 1 and alpha weight 2: every core is
# homogeneous in these weights.


def delta_core(nums):
    """nums[1]^2 - 2 nums[0] nums[2]; weight 2."""
    return nums[1] * nums[1] - 2 * nums[0] * nums[2]


def q_core(nums, alpha, beta, tw):
    """36 Q for tw = twist_core(nums, beta), which is 3! times the twisted
    inums: 36 (2 alpha - beta^2) Delta + 4 tw[2]^2 - 6 tw[1] tw[3]; weight 4."""
    return 36 * (2 * alpha - beta * beta) * delta_core(nums) + 4 * tw[2] * tw[2] - 6 * tw[1] * tw[3]


def wall_line_core(nums, a0, b0) -> tuple:
    """(A, B, C) with A*a + B*b + C = det of rows (1, a, b), (1, a0, b0),
    (nums[0], nums[2], nums[1]): the nested wall through (a0, b0) and
    p_H(nums); weights 1, 2, 3, linear in nums."""
    r, s1, s2 = nums[0], nums[1], nums[2]
    return b0 * r - s1, s2 - a0 * r, a0 * s1 - b0 * s2


def wall_det_core(nums, a, b, a0, b0):
    """The ``wall_line_core`` determinant at (a, b); weight 3, linear in nums."""
    ca, cb, cc = wall_line_core(nums, a0, b0)
    return ca * a + cb * b + cc


def delta_H(v: ChernVec) -> Fraction:
    """H-discriminant (H^(n-1).ch1)^2 - 2 H^n.ch0 * H^(n-2).ch2."""
    if v.context.dim < 2:
        raise TiltError("discriminant needs dimension >= 2")
    return delta_core(v.inums())


def q_form(v: ChernVec, p: TiltParams):
    """(2a - b^2) * Delta + 4 (H.ch2^bH)^2 - 6 H^2.ch1^bH * ch3^bH on X:
    ``q_core`` in the ``weighted_frame``, over 36 * M^2 * L^4."""
    if v.context is not X24:
        raise TiltError("Q is defined on X24")
    M, L, nums, (a,), (b,) = weighted_frame(v.inums(), (p.alpha,), (p.beta,))
    return unscale(q_core(nums, a, b, twist_core(nums, b)), 36 * M * M * L**4)


def wall_q_invariance_check(v: ChernVec, p0: TiltParams, p1: TiltParams) -> bool:
    """ch1^b1H * Q_{p0} == ch1^b0H * Q_{p1} for p0, p1 on one nested wall.

    The cores run once per point in the ``weighted_frame``, on ints (on
    QuadNums with integral parts for irrational parameters).  The frame
    scales the determinant, linear in the character, by M*L^3, and each side
    of the identity, cubic in it, by the same 216*M^3*L^5.
    """
    _, _, nums, (a0, a1), (b0, b1) = weighted_frame(v.inums(), (p0.alpha, p1.alpha), (p0.beta, p1.beta))
    if scalar_sign(wall_det_core(nums, a1, b1, a0, b0)) != 0:
        raise PreconditionError("parameters are not collinear with p_H(v)")
    if v.context is not X24:
        raise TiltError("Q is defined on X24")
    tw0, tw1 = twist_core(nums, b0), twist_core(nums, b1)
    lhs = tw1[1] * q_core(nums, a0, b0, tw0)
    rhs = tw0[1] * q_core(nums, a1, b1, tw1)
    return compare_scalars(lhs, rhs) == 0


@dataclass(frozen=True)
class RegionFlags:
    thm13_circle: bool
    thm13_ab: bool
    thm35_region: bool


def stability_region_predicates(p: TiltParams, a, b) -> RegionFlags:
    """Exact evaluation of the three stability-parameter inequalities."""
    al, be = p.alpha, p.beta
    fl = floor_scalar(be)
    shifted = be - fl - Fraction(1, 2)
    circle = compare_scalars(al * al + shifted * shifted, Fraction(1, 4)) > 0
    a = as_fraction(a)
    b = as_fraction(b)
    ab = compare_scalars(a, al * al / 6 + abs(b) * al / 2) > 0
    frac = be - fl
    region = compare_scalars(al, be * be / 2 + frac * (1 - frac) / 2) > 0
    return RegionFlags(circle, ab, region)
