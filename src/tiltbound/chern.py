"""Chern characters on the quadric-quartic variety tower.

The tower is C(2,2,2,4) in S(2,2,2), S'(2,2,4) and X(2,4), all of Picard
rank 1 with hyperplane class H.  A character is stored through coefficients
c_i with ch_i = c_i * H^i, so every pairing the bounds need is the single
uniform accessor ``inum(i) = H^(n-i).ch_i = c_i * H^n``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import as_fraction, clear_denominators, format_rat, parse_rat, unscale

__all__ = [
    "ChernError",
    "ZeroClass",
    "UnsupportedCut",
    "WrongContext",
    "VarietyContext",
    "ChernVec",
    "CurveClass",
    "CONTEXTS",
    "C2224",
    "S222",
    "S224",
    "X24",
    "twist_core",
    "weighted_frame",
    "exp_twist",
    "twist_beta",
    "grr_push_to_k3",
    "restrict_to_divisor",
    "curve_class_of",
    "dual_shift_char",
    "spherical_twist_char",
    "chi_euler",
    "mukai_square",
]


class ChernError(Exception):
    pass


class ZeroClass(ChernError):
    """Both rank and degree of a curve class are zero."""


class UnsupportedCut(ChernError):
    """No registered divisor restriction between these contexts."""


class WrongContext(ChernError):
    """Operation is defined on a different member of the tower."""


@dataclass(frozen=True)
class VarietyContext:
    """One member of the tower; chi_coeffs pair with the inum vector."""

    name: str
    dim: int
    degree: int  # H^n
    genus: int | None
    chi_coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if (self.genus is not None) != (self.dim == 1):
            raise ValueError("genus present iff dimension 1")
        if len(self.chi_coeffs) != self.dim + 1:
            raise ValueError("chi_coeffs length must be dim+1")


# chi(E) as sum_i chi_coeffs[i] * inum_i(E) with inum_i = H^(n-i).ch_i:
#   curve C:  chi = deg + (1-g) rk            -> (-2, 1)          (g = 65)
#   K3 S:     chi = ch2 + 2 ch0               -> (1/4, 0, 1)      (H^2 = 8)
#   S':       chi = ch2 - H.ch1 + 20 ch0      -> (5/4, -1, 1)     (H^2 = 16)
#   X:        chi = 7/12 H^2.ch1 + ch3        -> (0, 7/12, 0, 1)  (H^3 = 8)
C2224 = VarietyContext("C2224", 1, 32, 65, (Fraction(-2), Fraction(1)))
S222 = VarietyContext("S222", 2, 8, None, (Fraction(1, 4), Fraction(0), Fraction(1)))
S224 = VarietyContext("S224", 2, 16, None, (Fraction(5, 4), Fraction(-1), Fraction(1)))
X24 = VarietyContext("X24", 3, 8, None, (Fraction(0), Fraction(7, 12), Fraction(0), Fraction(1)))

CONTEXTS = {ctx.name: ctx for ctx in (C2224, S222, S224, X24)}

# (source, multiple) -> target for divisor restriction
_CUT_REGISTRY = {("X24", 2): S224, ("S224", 2): C2224}


@dataclass(frozen=True)
class ChernVec:
    """Character on one context: ch_i = c[i] * H^i, c exact rationals."""

    context: VarietyContext
    c: tuple

    def __post_init__(self):
        if len(self.c) != self.context.dim + 1:
            raise ValueError(
                f"{self.context.name} needs {self.context.dim + 1} coefficients, got {len(self.c)}"
            )
        object.__setattr__(self, "c", tuple(map(as_fraction, self.c)))

    # H^(n-i).ch_i as a number; the only pairing the formulas ever use.
    def inum(self, i: int) -> Fraction:
        return self.c[i] * self.context.degree

    def inums(self) -> tuple:
        """(inum(0), ..., inum(dim)): the tuple the formula cores take."""
        return tuple(x * self.context.degree for x in self.c)

    @property
    def rank(self) -> Fraction:
        return self.c[0]

    def to_json(self) -> str:
        return json.dumps({"context": self.context.name, "c": [format_rat(x) for x in self.c]})

    @classmethod
    def from_json(cls, text: str) -> "ChernVec":
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ChernError("ChernVec JSON nests too deeply") from exc
        name = data.get("context") if isinstance(data, dict) else None
        if not isinstance(name, str) or name not in CONTEXTS:
            raise ChernError(f"ChernVec JSON needs a context among {sorted(CONTEXTS)}")
        coords = data.get("c")
        if not isinstance(coords, list) or not all(isinstance(t, str) for t in coords):
            raise ChernError('ChernVec JSON needs "c": a list of rational strings')
        return cls(CONTEXTS[name], tuple(parse_rat(t) for t in coords))

    def __str__(self):
        return f"{self.context.name}({', '.join(format_rat(x) for x in self.c)})"


def vec(name: str, *c) -> ChernVec:
    return ChernVec(CONTEXTS[name], c)


@dataclass(frozen=True)
class CurveClass:
    """Rank and degree of a sheaf class on the curve C."""

    r: Fraction
    d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", as_fraction(self.r))
        object.__setattr__(self, "d", as_fraction(self.d))

    @property
    def slope(self) -> Fraction:
        if self.r == 0:
            raise ZeroDivisionError("slope of a rank-0 class")
        return self.d / self.r


def twist_core(nums, beta) -> tuple:
    """exp(-beta*H) * sum_i nums[i] H^i, truncated at len(nums), times d!
    (d = len(nums) - 1): entry i is sum_k (d!/k!) (-beta)^k nums[i - k].

    The integer weights d!/k! stand in for the division by k!, so the core is
    division-free and nums and beta may lie in any commutative ring (int,
    QuadNum, MPoly).  It is homogeneous when nums[i] has weight i and beta
    weight 1: nums[i]*L**i and beta*L give entry i times L**i.
    """
    step = -beta
    weight = math.factorial(len(nums) - 1)
    terms, power = [weight], 1  # terms[k] = (d!/k!) (-beta)^k
    for k in range(1, len(nums)):
        weight //= k
        power = power * step
        terms.append(weight * power)
    out = []
    for i, x in enumerate(nums):
        x = terms[0] * x
        for k in range(1, i + 1):
            x = x + terms[k] * nums[i - k]
        out.append(x)
    return tuple(out)


def weighted_frame(nums, alphas, betas) -> tuple:
    """The cores' integer frame: (M, L, nums', alphas', betas').

    ``clear_denominators`` gives L for the alphas and betas together and M
    for the rational nums; nums'[i] = M*nums[i]*L**i, alpha' = alpha*L**2
    and beta' = beta*L are ints, or QuadNums with integral parts.  A core
    of weight w and degree e in nums is then M**e * L**w times its value."""
    params, L = clear_denominators((*alphas, *betas))
    frame, M = clear_denominators(nums)
    k = len(alphas)
    return M, L, tuple(x * L**i for i, x in enumerate(frame)), [a * L for a in params[:k]], params[k:]


def exp_twist(nums, beta) -> tuple:
    """Degree-wise parts of exp(-beta*H) * sum_i nums[i] H^i, truncated at
    len(nums): the i-th entry is sum_k (-beta)^k / k! * nums[i - k].  nums
    are rationals, beta any exact scalar (Fraction or QuadNum).  Runs
    ``twist_core`` in the ``weighted_frame`` and divides entry i by
    d! * M * L**i once: entry 0 is nums[0] itself, a Fraction."""
    M, L, frame, _, (b,) = weighted_frame(nums, (), (beta,))
    den = math.factorial(len(nums) - 1) * M
    out = []
    for x in twist_core(frame, b):
        out.append(unscale(x, den))
        den *= L
    return tuple(out)


def twist_beta(v: ChernVec, beta) -> ChernVec:
    """Twisted character ch^(beta*H) = exp(-beta*H) * ch for rational beta."""
    return ChernVec(v.context, exp_twist(v.c, as_fraction(beta)))


def grr_push_to_k3(e: CurveClass) -> ChernVec:
    """Character of the pushforward of a curve class to the K3 (genus 65)."""
    if e.r == 0 and e.d == 0:
        raise ZeroClass("pushforward of the zero class")
    if e.r < 0:
        raise ValueError("pushforward expects r >= 0")
    # ch = (0, 4r*H, d - 64r); on S222 the ch2 number d-64r is c2 * H^2
    return ChernVec(S222, (Fraction(0), 4 * e.r, Fraction(e.d - 64 * e.r, 8)))


def restrict_to_divisor(v: ChernVec, m: int) -> ChernVec:
    """Character bookkeeping of restriction to a degree-m hyperplane cut.

    rk is preserved, H_Y^(n-2).ch1 = m * H^(n-1).ch1, and in dimension 3
    also ch2 = m * H.ch2; with both registered cuts (X24 -> S224 -> C2224,
    m = 2) the c-coefficients simply truncate.  No semistability is implied.
    """
    if v.context.dim < 2:
        raise UnsupportedCut("restriction needs dimension >= 2")
    target = _CUT_REGISTRY.get((v.context.name, m))
    if target is None:
        raise UnsupportedCut(f"no registered cut of {v.context.name} with multiple {m}")
    return ChernVec(target, v.c[: target.dim + 1])


def curve_class_of(v: ChernVec) -> CurveClass:
    """(rank, degree) of a character on the curve context."""
    if v.context is not C2224:
        raise WrongContext("curve class only on C2224")
    return CurveClass(v.c[0], v.inum(1))


def dual_shift_char(v: ChernVec) -> ChernVec:
    """Character of the shifted derived dual E*[1]: signs (-,+,-,+)."""
    signs = [(-1) ** (i + 1) for i in range(len(v.c))]
    return ChernVec(v.context, tuple(s * x for s, x in zip(signs, v.c)))


def spherical_twist_char(v: ChernVec, w: int, direction: str) -> ChernVec:
    """Cone against w copies of the structure sheaf: ev subtracts, can adds."""
    if v.context not in (S222, X24):
        raise WrongContext("spherical twists only on S222 or X24")
    if w < 0:
        raise ValueError("w must be >= 0")
    if direction not in ("ev", "can"):
        raise ValueError("direction must be 'ev' or 'can'")
    delta = -w if direction == "ev" else w
    return ChernVec(v.context, (v.c[0] + delta,) + v.c[1:])


def chi_euler(v: ChernVec) -> Fraction:
    """Exact Euler characteristic from the context's Riemann-Roch pairing."""
    return sum((k * v.inum(i) for i, k in enumerate(v.context.chi_coeffs)), Fraction(0))


def mukai_square(v: ChernVec) -> Fraction:
    """Self-pairing of the Mukai vector (r, c1*H, ch2 + r) on the K3."""
    if v.context is not S222:
        raise WrongContext("Mukai square only on S222")
    r, c1 = v.c[0], v.c[1]
    return 8 * c1 * c1 - 2 * r * v.inum(2) - 2 * r * r
