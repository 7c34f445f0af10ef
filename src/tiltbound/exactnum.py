"""Exact scalar arithmetic.

Rationals are plain ``fractions.Fraction`` (aliased ``Rat``).  On top of that
this module provides

* ``QuadNum`` -- numbers a + b*sqrt(m) with exact, float-free comparison,
  including across two distinct radicands (enclosure refinement);
* ``RadicalSum`` -- finite sums q0 + sum_i c_i*sqrt(m_i) with an exact zero
  test and sign determination by enclosure refinement, used when convex-chain
  sums mix several radicals;
* ``MPoly`` -- sparse multivariate polynomials over Q for identity checking;
* ``Poly1`` -- dense univariate polynomials over Q with exact roots up to
  degree 2, used by the piecewise-bound engine, the wall geometry and the
  verifier;
* ``radical_identity_check`` -- certifies sqrt(D) = R by checking R^2 = D
  polynomially and R >= 0 on a stated slope domain.

Everything is immutable and pure; no float is made (``float()`` of an
exact value raises TypeError; ``math`` serves integers).  Only this module
decides order, and only on integers.  ``_int_parts`` is the one split of an
int, a Fraction or a QuadNum into ints (u + v*sqrt(m))/w, and
``_sign_terms`` the one sign test of integer terms n*sqrt(m): one radical by
its norm, larger sums by the floor that ``_floor_irrational`` finds by
doubling the bits of ``_enclosure``, the one integer enclosure of a sum of
square roots.  ``compare_scalars`` signs one integer term map for x - y
(an int/Fraction pair, one cross-multiplied integer), ``floor_scalar``
reads the enclosure at bits = 0 for one radical and the loop for more,
``decimal_str`` takes every digit from ``floor_scalar``, and the spade rows'
``enclosure`` reads ``_enclosure`` too.  ``ExactOrder`` derives the rich
comparisons (so ``min``, ``max``, ``sorted`` apply).  Beside it,
``ExactRing`` derives the arithmetic of the four value types above from
their own ``+``, unary ``-`` and ``*``: subtraction, the reflected
operators, ``**`` and immutability; and their ``==`` and ``hash`` from one
canonical key, so a rational value equals and hashes as its Fraction.
``rational_or_quad`` is the one demotion of a rational ``QuadNum`` to a
Fraction, and ``QuadNum``'s ``+``, ``*`` and ``/`` act on (a, b) directly
when the other operand is an int or a Fraction.

Exact inputs only: ``as_fraction`` is the one door through which a value
becomes a rational, at every constructor and entry point, so a binary float
or a string raises TypeError instead of being converted; text enters through
``parse_rat`` / ``parse_scalar``.  A Fraction passes that door as itself, so
no constructor copies the Fractions of the library's own arithmetic.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rat = Fraction
Scalar = Union[Fraction, "QuadNum"]

__all__ = [
    "Rat",
    "Scalar",
    "ExactError",
    "MixedRadicandError",
    "NotHomogeneous",
    "ParseError",
    "square_free_core",
    "sqrt_exact",
    "QuadNum",
    "RadicalSum",
    "ExactOrder",
    "ExactRing",
    "compare_scalars",
    "scalar_sign",
    "as_fraction",
    "rational_or_quad",
    "clear_denominators",
    "unscale",
    "floor_scalar",
    "parse_rat",
    "format_rat",
    "parse_scalar",
    "format_scalar",
    "decimal_str",
    "MPoly",
    "poly_equal",
    "radical_identity_check",
    "Poly1",
]


class ExactError(Exception):
    """Base class for exact-arithmetic errors."""


class MixedRadicandError(ExactError):
    """Arithmetic (not comparison) between distinct radicands was requested."""


class NotHomogeneous(ExactError):
    """radical_identity_check received degree-incompatible polynomials."""


class ParseError(ExactError):
    """Malformed exact-number text."""


# ---------------------------------------------------------------------------
# square-free decomposition
# ---------------------------------------------------------------------------

# square_free_core first walks these trial primes, all found by one gcd with
# their product, so a cofactor below _TRIAL_BOUND**2 is 1 or a prime; a larger
# cofactor is rooted with math.isqrt while it is a perfect square, and only
# then goes to Miller-Rabin, which never sees a small factor or a square
_TRIAL_BOUND = 1000
_TRIAL_PRIMES = tuple(p for p in range(2, _TRIAL_BOUND) if all(p % q for q in range(2, math.isqrt(p) + 1)))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
# Miller-Rabin witnesses in two tiers: the bases 2, 7, 61 are deterministic
# below 4759123141 = 48781 * 97561, the least strong pseudoprime to all three
# (Jaeschke, Math. Comp. 61, 1993); the 12 bases 2..37 below psi_12 =
# 318665857834031151167461 (Sorenson-Webster), the least composite that
# passes them all (399165290221 * 798330580441)
_SMALL_BASES = (2, 7, 61)
_SMALL_BASES_BOUND = 4_759_123_141
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin for n >= ``_TRIAL_BOUND**2`` with no prime factor below
    ``_TRIAL_BOUND`` and not a perfect square: ``square_free_core``'s
    cofactors after its ``math.isqrt`` test.  On the bases ``_SMALL_BASES``
    below ``_SMALL_BASES_BOUND`` (exact there), else on ``_SMALL_PRIMES``
    (exact below psi_12)."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_BASES if n < _SMALL_BASES_BOUND else _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Pollard rho steps one square_free_core call may take, about 2.5 s at 128
# bits; a product of two distinct primes of about 40 bits can already exhaust
# them (a square or a prime power never reaches rho)
_RHO_STEPS = 1 << 20


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """A nontrivial factor of composite odd n and the rho steps left."""
    rng = random.Random(0xC0FFEE ^ n)
    while budget:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1 and budget:
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if 1 < d < n:
            return d, budget
    raise ExactError(f"no factor of a {n.bit_length()}-bit radicand within {_RHO_STEPS} rho steps")


def square_free_core(n: int) -> tuple[int, int]:
    """Decompose n > 0 as ``core * sq**2`` with core square-free.

    Each prime factor p is found once and divided out to its full power, in
    this order.  First the walk: ``math.gcd(n, _TRIAL_PRODUCT)`` names the
    primes of ``_TRIAL_PRIMES`` that divide n, and the walk over them ends
    once p**2 exceeds what is left of that gcd, which is then one prime.
    The cofactor left is 1 or a prime below ``_TRIAL_BOUND**2``.  Above it,
    a number m is rooted by ``math.isqrt`` while it is a perfect square (a
    fourth power is rooted twice), and only then tested by Miller-Rabin
    (``_is_probable_prime``: bases 2, 7, 61 below 4759123141, the 12 bases
    of ``_SMALL_PRIMES`` above).  One that fails is split without rho where
    it can be: a power q**k of one prime by gcd(2**m - 2, m), which q
    divides.  Only what is left goes to Pollard rho, with ``_RHO_STEPS``
    steps in all before ExactError; the factors rho returns take the same
    path, so neither rho nor Miller-Rabin sees a square.  Above psi_12 (see
    ``_SMALL_PRIMES``) a number that passes Miller-Rabin is used as one
    prime factor.
    """
    if n <= 0:
        raise ValueError("square_free_core requires n > 0")
    core, sq = 1, 1
    small = math.gcd(n, _TRIAL_PRODUCT)
    trial = iter(_TRIAL_PRIMES)
    budget = _RHO_STEPS
    while n > 1:
        if small > 1:
            p = next(trial)
            if p * p > small:
                p = small
            elif small % p:
                continue
            small //= p
        else:
            p = n
            while p >= _TRIAL_BOUND * _TRIAL_BOUND:
                root = math.isqrt(p)
                if root * root == p:
                    p = root
                    continue
                if _is_probable_prime(p):
                    break
                # p = q**k has q | 2**p - 2, as p = 1 (mod q - 1)
                g = math.gcd(pow(2, p, p) - 2, p)
                p, budget = (g, budget) if 1 < g < p else _pollard_rho(p, budget)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            core *= p
        sq *= p ** (e // 2)
    return core, sq


def sqrt_exact(q: Fraction | int) -> Scalar:
    """Exact square root of a nonnegative rational, as Fraction or QuadNum."""
    q = as_fraction(q)
    if q < 0:
        raise ValueError("sqrt_exact of a negative rational")
    if q == 0:
        return Fraction(0)
    core, sq = square_free_core(q.numerator * q.denominator)
    coeff = Fraction(sq, q.denominator)
    if core == 1:
        return coeff
    return QuadNum._reduced(Fraction(0), coeff, core)


# ---------------------------------------------------------------------------
# signs and enclosures of sums of square roots
# ---------------------------------------------------------------------------


def _sgn(x) -> int:
    """Sign of an int or a Fraction, read from its numerator."""
    n = x.numerator
    return (n > 0) - (n < 0)


def _enclosure(terms, den: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits * sum(n*sqrt(m) for n, m in terms) / den <= hi
    for integer pairs (n, m), m >= 0, and an integer den > 0 (or den < 0 if
    every term is exact, as at a ratio row's int frame): the library's one
    enclosure of an irrational value.  Each term costs one ``math.isqrt`` of
    n*n*m shifted left by 2*bits; it is exact when that is a square (a
    rational part, m = 1, takes a shift instead) and widens the sum by 1
    otherwise, and the division by den rounds outward."""
    lo = hi = 0
    for n, m in terms:
        if m == 1:
            lo, hi = lo + (n << bits), hi + (n << bits)
            continue
        sq = n * n * m << 2 * bits
        r = math.isqrt(sq)
        e = r * r != sq
        if n < 0:
            lo, hi = lo - r - e, hi - r
        else:
            lo, hi = lo + r, hi + r + e
    return lo // den, -(-hi // den)


def _floor_irrational(pairs, den: int) -> int:
    """floor(sum(n*sqrt(m) for n, m in pairs) / den) for an irrational sum
    and den > 0: the one refinement loop.  The value times 2**bits lies
    strictly inside its ``_enclosure`` (lo, hi), so its floor is lo >> bits
    once no multiple of 2**bits lies strictly inside; until then the bits
    double, from 32.  An irrational value is no integer, so the loop ends."""
    bits = 32
    while True:
        lo, hi = _enclosure(pairs, den, bits)
        if lo >> bits == (hi - 1) >> bits:
            return lo >> bits
        bits *= 2


def _norm(u, v, m):
    """u*u - v*v*m, the norm of u + v*sqrt(m), for ints or Fractions."""
    return u * u - v * v * m


def _sign_terms(terms: Mapping[int, int]) -> int:
    """Sign of sum(n*sqrt(m)) over {m: n} for int n (a zero adds nothing)
    and distinct keys m, 1 for the rational part, else square-free m > 1:
    the library's one sign test.  u + b*sqrt(m) is decided by its norm
    u^2 - b^2 m.  Square roots of distinct square-free integers are linearly
    independent over Q (Besicovitch, 1940), so a sum of two or more radicals
    is irrational, and its sign is that of its ``_floor_irrational``."""
    u = terms.get(1, 0)
    rad = [(n, m) for m, n in terms.items() if n and m != 1]
    if len(rad) > 1:
        return 1 if _floor_irrational([(u, 1), *rad], 1) >= 0 else -1
    su = (u > 0) - (u < 0)
    if not rad:
        return su
    ((b, m),) = rad
    sb = 1 if b > 0 else -1
    # u and b of opposite signs: u^2 != b^2 m, as sqrt(m) is irrational
    return su if su == -sb and _norm(u, b, m) > 0 else sb


# ---------------------------------------------------------------------------
# QuadNum
# ---------------------------------------------------------------------------


class ExactOrder:
    """Rich comparisons from ``self._cmp(other)``, an exact -1/0/1."""

    __slots__ = ()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


class ExactRing:
    """Derived arithmetic from a type's own ``__add__``, ``__neg__`` and
    ``__mul__``: subtraction, the reflected ``+ - *``, ``**`` and
    immutability.  Each derived operator calls the type's method directly, so
    a ``NotImplemented`` from it still reaches Python's reflected-operator
    protocol.

    Equality and hashing come from the type's ``_key()``, one canonical key
    per value: a rational value's key is its Fraction, so it equals and
    hashes as that Fraction (and as an equal int); an irrational QuadNum and
    a RadicalSum share the frozenset of their RadicalSum terms; a
    non-constant Poly1 or MPoly keys by its coefficients (and variables).
    Two values are equal iff their keys are; against any operand that is
    not an int, a Fraction or an exact type, ``==`` gives NotImplemented."""

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, ExactRing):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return self._key() == other
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        """Square-and-multiply from the type's one, ``self * 0 + 1``."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self * 0 + 1
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class QuadNum(ExactOrder, ExactRing):
    """Exact a + b*sqrt(m); m square-free natural, m == 0 iff b == 0."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b=0, m=0):
        a = as_fraction(a)
        b = as_fraction(b)
        m = operator.index(m)
        if b != 0:
            if m <= 0:
                raise ValueError("radicand must be positive when b != 0")
            core, sq = square_free_core(m)
            b *= sq
            m = core
            if m == 1:
                a += b
                b = Fraction(0)
                m = 0
        else:
            m = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    @classmethod
    def _reduced(cls, a: Fraction, b: Fraction, m: int) -> "QuadNum":
        """a + b*sqrt(m) for an m that is already square-free (no factoring)."""
        x = object.__new__(cls)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        object.__setattr__(x, "m", m if b else 0)
        return x

    # -- basic structure ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise MixedRadicandError(f"{self} is irrational")
        return self.a

    def sign(self) -> int:
        u, v, m, _ = _int_parts(self)
        return _sign_terms({1: u, m: v})

    # -- arithmetic (same radicand only) ------------------------------------
    # an int or a Fraction operand acts on (a, b) directly

    def __add__(self, other):
        if isinstance(other, QuadNum):
            if self.m and other.m and self.m != other.m:
                raise MixedRadicandError(f"add: sqrt({self.m}) vs sqrt({other.m})")
            return QuadNum._reduced(self.a + other.a, self.b + other.b, self.m or other.m)
        if isinstance(other, _RATIONAL_TYPES):
            return QuadNum._reduced(self.a + other, self.b, self.m)
        return NotImplemented

    def __neg__(self):
        return QuadNum._reduced(-self.a, -self.b, self.m)

    def __mul__(self, other):
        if isinstance(other, QuadNum):
            if self.m and other.m and self.m != other.m:
                raise MixedRadicandError(f"mul: sqrt({self.m}) vs sqrt({other.m})")
            m = self.m or other.m
            a = self.a * other.a + self.b * other.b * m
            b = self.a * other.b + self.b * other.a
            return QuadNum._reduced(a, b, m)
        if isinstance(other, _RATIONAL_TYPES):
            return QuadNum._reduced(self.a * other, self.b * other, self.m)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, QuadNum):
            if self.m and other.m and self.m != other.m:
                raise MixedRadicandError(f"div: sqrt({self.m}) vs sqrt({other.m})")
            return self * (1 / other)
        if isinstance(other, _RATIONAL_TYPES):
            if not other:
                raise ZeroDivisionError("division by zero QuadNum")
            return QuadNum._reduced(self.a / other, self.b / other, self.m)
        return NotImplemented

    def __rtruediv__(self, other):
        """other / self = other * (a - b*sqrt(m)) / (a^2 - b^2 m) for a
        rational other; the one inverse (``__truediv__`` multiplies by
        ``1 / other``)."""
        if not isinstance(other, _RATIONAL_TYPES):
            return NotImplemented
        # a^2 = b^2 m forces a = b = 0 for a square-free m > 1
        norm = _norm(self.a, self.b, self.m)
        if not norm:
            raise ZeroDivisionError("division by zero QuadNum")
        k = other / norm
        return QuadNum._reduced(self.a * k, -self.b * k, self.m)

    # -- comparison ----------------------------------------------------------

    def _cmp(self, other) -> int:
        return compare_scalars(self, other)

    def _key(self):
        return RadicalSum.of(self)._key() if self.b else self.a

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __str__(self):
        if self.b == 0:
            return format_rat(self.a)
        b = self.b
        sign = "-" if b < 0 else "+"
        return f"{format_rat(self.a)}{sign}{format_rat(abs(b))}*sqrt({self.m})"

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r}, {self.m})"


_RATIONAL_TYPES = (int, Fraction)


def scalar_sign(x) -> int:
    if type(x) in _RATIONAL_TYPES:
        return _sgn(x)
    if isinstance(x, (QuadNum, RadicalSum)):
        return x.sign()
    return _sgn(as_fraction(x))


def compare_scalars(x, y) -> int:
    """Exact three-way comparison of Fraction/QuadNum/RadicalSum values."""
    if type(x) in _RATIONAL_TYPES and type(y) in _RATIONAL_TYPES:
        d = x.numerator * y.denominator - y.numerator * x.denominator
        return (d > 0) - (d < 0)
    if isinstance(x, RadicalSum) or isinstance(y, RadicalSum):
        return (RadicalSum.of(x) - RadicalSum.of(y)).sign()
    # the sign of x - y is that of x*wx*wy - y*wx*wy, all integers
    xu, xv, xm, xw = _int_parts(x)
    yu, yv, ym, yw = _int_parts(y)
    terms = {1: xu * yw - yu * xw, xm: xv * yw}
    terms[ym] = terms.get(ym, 0) - yv * xw
    return _sign_terms(terms)


def as_fraction(x) -> Fraction:
    """An int or a Fraction as a Fraction; a Fraction is returned as itself.
    Any other type raises TypeError: a binary floating-point number (1/7
    typed for one seventh) or a string is not an exact input.  The library's
    only coercion to a rational; exact scalars use ``rational_or_quad``."""
    if type(x) is Fraction:
        return x
    if isinstance(x, _RATIONAL_TYPES):
        return Fraction(x)
    raise TypeError(f"{type(x).__name__} is not an exact rational (int or Fraction)")


def rational_or_quad(x) -> Scalar:
    """A Fraction for an int, a Fraction or a rational QuadNum; otherwise the
    irrational QuadNum itself (TypeError for any other type)."""
    if isinstance(x, QuadNum):
        return x.as_fraction() if x.is_rational else x
    return as_fraction(x)


def _int_parts(x) -> tuple[int, int, int, int]:
    """Ints (u, v, m, w), w > 0, with x = (u + v*sqrt(m))/w for an int, a
    Fraction or a QuadNum (v = m = 0 if x is rational): the one split of a
    scalar into integers, and the one reader of a QuadNum's a, b and m but
    its own methods, ``clear_denominators`` and ``RadicalSum.of``."""
    if isinstance(x, QuadNum):
        a, b = x.a, x.b
        if b:
            w = math.lcm(a.denominator, b.denominator)
            return a.numerator * (w // a.denominator), b.numerator * (w // b.denominator), x.m, w
        x = a
    elif type(x) not in _RATIONAL_TYPES:
        x = as_fraction(x)
    return x.numerator, 0, 0, x.denominator


def clear_denominators(values) -> tuple[list, int]:
    """(scaled, D) for a sequence of ints, Fractions and QuadNums: D is the
    least common denominator of all their rational parts, and scaled[i] =
    values[i] * D is an int, or a QuadNum with integral parts.  The
    library's one integer frame; ``unscale`` divides back."""
    dens = [math.lcm(x.a.denominator, x.b.denominator) if isinstance(x, QuadNum) else x.denominator for x in values]
    den = math.lcm(*dens)
    return [x * den if isinstance(x, QuadNum) else x.numerator * (den // x.denominator) for x in values], den


def unscale(x, den: int):
    """x / den as one Fraction for an int x, as a QuadNum for a QuadNum x."""
    return Fraction(x, den) if type(x) is int else x / den


def floor_scalar(x) -> int:
    """Exact floor of an int, a Fraction, a QuadNum or a RadicalSum.  An
    irrational x = (A + B*sqrt(m))/d (``_int_parts``) is floored by the
    lower end of its enclosure at bits = 0, which is exact: B*sqrt(m) is
    irrational, so it lies strictly between the integers that end its
    term's enclosure.  A sum of two or more radicals is floored by
    ``_floor_irrational``."""
    if isinstance(x, RadicalSum):
        x = x.to_exact()
        if isinstance(x, RadicalSum):
            nums, d = clear_denominators(list(x.terms.values()))
            return _floor_irrational(list(zip(nums, x.terms)), d)
    u, v, m, w = _int_parts(x)
    return _enclosure(((u, 1), (v, m)), w, 0)[0] if v else u // w


# ---------------------------------------------------------------------------
# RadicalSum
# ---------------------------------------------------------------------------


class RadicalSum(ExactOrder, ExactRing):
    """Finite sum q + sum c_i*sqrt(m_i) over distinct square-free m_i > 1.

    The key-1 entry holds the rational part.  Zero testing is exact by
    Q-linear independence of square roots of distinct square-free integers;
    nonzero signs are decided by enclosure refinement.  The constructor
    writes each key k > 1 as core*sq^2 (``square_free_core``) and adds c*sq
    to the core's coefficient; a key below 1 raises ValueError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        t: dict[int, Fraction] = {}
        for k, c in (terms or {}).items():
            if operator.index(k) < 1:
                raise ValueError("RadicalSum keys must be positive")
            core, sq = square_free_core(k) if k > 1 else (1, 1)
            t[core] = t.get(core, 0) + as_fraction(c) * sq
        object.__setattr__(self, "terms", {m: q for m, q in t.items() if q})

    @classmethod
    def _reduced(cls, terms: dict) -> "RadicalSum":
        """The sum of Fraction terms over keys that are already square-free
        (no factoring); zero terms are dropped."""
        x = object.__new__(cls)
        object.__setattr__(x, "terms", {m: q for m, q in terms.items() if q})
        return x

    @classmethod
    def of(cls, x) -> "RadicalSum":
        if isinstance(x, RadicalSum):
            return x
        if isinstance(x, QuadNum):
            return cls._reduced({1: x.a, x.m: x.b})  # m == 0 iff b == 0: dropped
        return cls._reduced({1: as_fraction(x)})

    def __add__(self, other):
        o = RadicalSum.of(other)
        t = dict(self.terms)
        for m, c in o.terms.items():
            t[m] = t.get(m, 0) + c
        return RadicalSum._reduced(t)

    def __neg__(self):
        return RadicalSum._reduced({m: -c for m, c in self.terms.items()})

    def scale(self, q) -> "RadicalSum":
        q = as_fraction(q)
        return RadicalSum._reduced({m: c * q for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QuadNum):
            return NotImplemented
        # sqrt(m)*sqrt(k) = g*sqrt((m/g)(k/g)) with g = gcd(m, k): the product
        # key is square-free again, so nothing is factored
        # the rational part first, even at 0: each key m of self stays in place
        t: dict[int, Fraction] = {}
        factors = {1: 0, **RadicalSum.of(other).terms}.items()
        for m, c in self.terms.items():
            for k, d in factors:
                g = math.gcd(m, k)
                mk = (m // g) * (k // g)
                t[mk] = t.get(mk, 0) + c * d * g
        return RadicalSum._reduced(t)

    def is_zero(self) -> bool:
        return not self.terms

    def sign(self) -> int:
        nums, _ = clear_denominators(list(self.terms.values()))
        return _sign_terms(dict(zip(self.terms, nums)))

    def _cmp(self, other) -> int:
        return (self - RadicalSum.of(other)).sign()

    def _key(self):
        t = self.terms
        return frozenset(t.items()) if t.keys() - {1} else t.get(1, Fraction(0))

    def to_exact(self) -> Scalar | "RadicalSum":
        """Collapse to Fraction or QuadNum when at most one radical survives."""
        rad = [(m, c) for m, c in self.terms.items() if m != 1]
        if not rad:
            return self.terms.get(1, Fraction(0))
        if len(rad) == 1:
            return QuadNum._reduced(self.terms.get(1, Fraction(0)), rad[0][1], rad[0][0])
        return self

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            parts.append(format_rat(c) if m == 1 else f"{format_rat(c)}*sqrt({m})")
        return " + ".join(parts)

    def __repr__(self):
        return f"RadicalSum({self.terms!r})"


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------


def _int_text(n: int) -> str:
    """str(n); ExactError past the interpreter's digit limit (4,300 by default)."""
    try:
        return str(n)
    except ValueError as exc:
        limit = f"{sys.get_int_max_str_digits():,}-digit limit on int-to-text conversion"
        raise ExactError(f"cannot write a {n.bit_length()}-bit integer as text: it exceeds the {limit}") from exc


def format_rat(q: Fraction) -> str:
    q = as_fraction(q)
    text = _int_text(q.numerator)
    return text if q.denominator == 1 else f"{text}/{_int_text(q.denominator)}"


def parse_rat(text: str) -> Fraction:
    """'p/q', an integer or a decimal such as '1.5e-3'.  ParseError for
    anything else, and for a decimal exponent whose magnitude exceeds the
    interpreter's int-to-text digit limit (none when the limit is 0), before
    ``Fraction`` expands it: ``_int_text`` refuses such values on output."""
    text = text.strip()
    _, e, exponent = text.upper().rpartition("E")
    limit = sys.get_int_max_str_digits()
    try:
        if e and limit and abs(int(exponent)) > limit:
            raise ParseError(f"the exponent of {text!r} exceeds the {limit:,}-digit limit")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def format_scalar(x) -> str:
    if isinstance(x, QuadNum):
        return str(x)
    if isinstance(x, RadicalSum):
        return str(x)
    return format_rat(x)


def parse_scalar(text: str) -> Scalar:
    """Parse 'p/q' or 'a+b*sqrt(m)' (also 'a-b*sqrt(m)', 'b*sqrt(m)')."""
    s = text.strip().replace(" ", "")
    if "sqrt" not in s:
        return parse_rat(s)
    star = s.rfind("*sqrt(")
    if star < 0 or not s.endswith(")"):
        raise ParseError(f"bad quadratic irrational {text!r}")
    m_txt = s[star + 6 : -1]
    head = s[:star]
    # split head into a and b at the last +/- that is not a leading sign
    # or an exponent; heads look like "a+b" / "a-b" / "b"
    split = -1
    for i in range(len(head) - 1, 0, -1):
        if head[i] in "+-" and head[i - 1] not in "+-/*eE":
            split = i
            break
    if split < 0:
        a_txt, b_txt = "0", head
    else:
        a_txt, b_txt = head[:split], head[split:]
        if b_txt[0] == "+":
            b_txt = b_txt[1:]
    try:
        m = int(m_txt)
    except ValueError as exc:
        raise ParseError(f"bad radicand in {text!r}") from exc
    return QuadNum(parse_rat(a_txt), parse_rat(b_txt), m)


def decimal_str(x, digits: int = 12) -> str:
    """Deterministic decimal rendering of an exact value (int, Fraction,
    QuadNum or RadicalSum) with `digits` significant digits, correctly
    rounded, half away from zero (a longer integer part is printed whole);
    the only rounding in the system.

    Every step is an exact floor (``floor_scalar``) of |x| times a
    nonnegative power of ten: the exponent e with 10**e <= |x| < 10**(e+1)
    from the length of the first nonzero floor(|x| * 10**k), k = 0, 1, 2,
    4, ..., then the digits, floor(|x| * 10**frac_digits + 1/2).  A carry
    past the last digit keeps its extra digit (0.999995 at 4 digits is
    "1.0000").
    """
    if not 4 <= digits <= 64:
        raise ValueError("digits must be in [4, 64]")
    sign = scalar_sign(x)
    if not sign:
        return "0"
    q = -x if sign < 0 else x
    k = 0
    n = floor_scalar(q)
    while not n:
        k = 2 * k or 1
        n = floor_scalar(q * 10**k)
    e = len(_int_text(n)) - 1 - k
    frac_digits = max(digits - 1 - e, 0)
    text = _int_text(floor_scalar(q * 10**frac_digits + Fraction(1, 2))).rjust(frac_digits + 1, "0")
    if frac_digits:
        text = text[:-frac_digits] + "." + text[-frac_digits:]
    return "-" + text if sign < 0 else text


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------


class MPoly(ExactRing):
    """Sparse multivariate polynomial over Q with an explicit variable tuple."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction] | None = None):
        vs = tuple(variables)
        t = {}
        for exps, c in (terms or {}).items():
            c = as_fraction(c)
            if c == 0:
                continue
            exps = tuple(map(operator.index, exps))
            if len(exps) != len(vs):
                raise ValueError("exponent tuple does not match variables")
            t[exps] = t.get(exps, Fraction(0)) + c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", {e: c for e, c in t.items() if c != 0})

    # -- constructors --------------------------------------------------------

    @classmethod
    def variables(cls, *names: str) -> tuple["MPoly", ...]:
        gens = []
        for i, _ in enumerate(names):
            exps = tuple(1 if j == i else 0 for j in range(len(names)))
            gens.append(cls(names, {exps: Fraction(1)}))
        return tuple(gens)

    @classmethod
    def const(cls, variables: Sequence[str], c) -> "MPoly":
        return cls(variables, {tuple(0 for _ in variables): c})

    def _check(self, other: "MPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("variable universes differ")

    # -- ring operations ------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, MPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.vars, other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        t = dict(self.terms)
        for e, c in o.terms.items():
            t[e] = t.get(e, Fraction(0)) + c
        return MPoly(self.vars, t)

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        t: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.vars, t)

    def _key(self):
        if self.degree():
            return self.vars, frozenset(self.terms.items())
        return sum(self.terms.values(), Fraction(0))

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def evaluate(self, point: Mapping[str, object]):
        """Exact evaluation; values may be Fraction or QuadNum."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"missing values for {missing}")
        total: object = Fraction(0)
        for exps, c in self.terms.items():
            term: object = c
            for v, e in zip(self.vars, exps):
                for _ in range(e):
                    term = term * point[v]
            total = total + term
        return total

    def restrict_to_ratio(self, num: str, den: str) -> "Poly1":
        """One-variable profile g(t) = p(den=1, num=t) for a homogeneous p."""
        if set(self.vars) - {num, den}:
            raise ValueError("restrict_to_ratio expects variables {num, den}")
        i_num = self.vars.index(num)
        coeffs: dict[int, Fraction] = {}
        for exps, c in self.terms.items():
            d = exps[i_num]
            coeffs[d] = coeffs.get(d, Fraction(0)) + c
        deg = max(coeffs, default=0)
        return Poly1([coeffs.get(i, Fraction(0)) for i in range(deg + 1)])

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exps) if e
            )
            parts.append(f"{format_rat(c)}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    __repr__ = __str__


def poly_equal(p: MPoly, q: MPoly) -> bool:
    """True iff p - q is the zero polynomial (same variable universe)."""
    if p.vars != q.vars:
        raise ValueError("variable universes differ")
    return (p - q).is_zero()


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


def _quadratic_roots(c: int, b: int, a: int) -> list:
    """Real roots of a*x^2 + b*x + c for ints with a != 0, ascending:
    Fractions, or a pair of conjugate QuadNums; a double root is listed once.

    The discriminant b^2 - 4ac is an int, and its one ``square_free_core``
    call gives sqrt(disc) = sq*sqrt(core)."""
    disc = b * b - 4 * a * c
    if disc <= 0:
        return [Fraction(-b, 2 * a)] if disc == 0 else []
    core, sq = square_free_core(disc)
    if core == 1:
        lo, hi = Fraction(-b - sq, 2 * a), Fraction(-b + sq, 2 * a)
    else:
        center, half = Fraction(-b, 2 * a), Fraction(sq, 2 * a)
        lo, hi = QuadNum._reduced(center, -half, core), QuadNum._reduced(center, half, core)
    return [lo, hi] if a > 0 else [hi, lo]


def _horner(nums, u: int, v: int, m: int, w: int) -> tuple[int, int, int]:
    """(A, B, W**d) with W**d * sum_i nums[i] x**i = A + B*sqrt(m) at
    x = (U + V*sqrt(m))/W, for int coefficients nums (d = len(nums) - 1,
    nums nonempty) and ints U, V, m, W; V = m = 0 for a rational x.  The
    library's one Horner loop: ``Poly1.evaluate`` divides A and B by its
    denominator times W**d, and a sign test at a rational x = p/q with q > 0
    reads the sign of A alone."""
    a, b, wk = nums[-1], 0, 1
    for n in reversed(nums[:-1]):
        wk *= w
        a, b = a * u + b * v * m + n * wk, a * v + b * u
    return a, b, wk


class Poly1(ExactRing):
    """Dense univariate polynomial over Q, coefficients low to high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _lift(self, other):
        if isinstance(other, Poly1):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly1([other])
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] += c
        return Poly1(a)

    def __neg__(self):
        return Poly1([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly1([c * other for c in self.coeffs])
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return Poly1(out)

    def _key(self):
        return self.coeffs if len(self.coeffs) > 1 else sum(self.coeffs, Fraction(0))

    def evaluate(self, x):
        """p(x) for an int, Fraction or QuadNum x, by one integer Horner loop.

        With the coefficients as n_i / D (``clear_denominators``) and x =
        (U + V*sqrt(m)) / W (``_int_parts``), W**d * D * p(x) =
        sum_i n_i (U + V*sqrt(m))**i W**(d-i); ``_horner`` keeps that
        numerator as A + B*sqrt(m) (V = m = 0 for a rational x) and this
        divides once at the end.  A Fraction for an int or Fraction x, a
        QuadNum for a QuadNum x (a rational one too), Fraction(0) for the
        zero polynomial.
        """
        if not self.coeffs:
            return Fraction(0)
        u, v, m, w = _int_parts(x)
        nums, den = clear_denominators(self.coeffs)
        a, b, wk = _horner(nums, u, v, m, w)
        den *= wk
        return QuadNum._reduced(Fraction(a, den), Fraction(b, den), m) if isinstance(x, QuadNum) else Fraction(a, den)

    def derivative(self) -> "Poly1":
        return Poly1([i * c for i, c in enumerate(self.coeffs)][1:])

    def compose_affine(self, p0, dp) -> "Poly1":
        """self(p0 + dp*t) as a polynomial in t."""
        out = Poly1([0])
        lin = Poly1([p0, dp])
        for c in reversed(self.coeffs):
            out = out * lin + c
        return out

    def real_roots(self) -> list:
        """Exact real roots for degree <= 2, ascending: Fractions, or a pair
        of conjugate QuadNums; a double root is listed once.

        A quadratic goes to ``_quadratic_roots`` with the integer
        coefficients c, b, a that ``clear_denominators`` writes.  ValueError
        for the zero polynomial, NotImplementedError above degree 2.
        """
        if not self.coeffs:
            raise ValueError("zero polynomial has all roots")
        if len(self.coeffs) == 1:
            return []
        if len(self.coeffs) > 3:
            raise NotImplementedError("exact roots only up to degree 2")
        nums, _ = clear_denominators(self.coeffs)
        if len(nums) == 2:
            return [Fraction(-nums[0], nums[1])]
        return _quadratic_roots(*nums)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rat(c))
            elif i == 1:
                parts.append(f"{format_rat(c)}*x")
            else:
                parts.append(f"{format_rat(c)}*x^{i}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# radical identity certification
# ---------------------------------------------------------------------------


def _poly_min_on_interval(g: Poly1, lo, hi) -> tuple:
    """Exact (minimum, minimizer) of g over [lo, hi]; endpoints may be QuadNum.

    The candidates are lo, hi and the critical points between them, in that
    order; the first of equal minima wins."""
    dg = g.derivative()
    if dg.degree() > 2:
        raise NotImplementedError("positivity check supports degree <= 3")
    xs = [lo, hi]
    if dg.degree() >= 1:
        xs += [r for r in dg.real_roots() if compare_scalars(lo, r) <= 0 <= compare_scalars(hi, r)]
    return min(((g.evaluate(x), x) for x in xs), key=lambda vx: vx[0])


def radical_identity_check(
    discriminant: MPoly,
    claimed_root: MPoly,
    positivity_domain: tuple,
) -> bool:
    """Certify sqrt(discriminant) == claimed_root on a slope domain.

    Both polynomials must already be cleared of denominators and homogeneous
    with deg(discriminant) == 2*deg(claimed_root); otherwise NotHomogeneous.
    Returns True iff claimed_root**2 equals discriminant coefficient-wise AND
    claimed_root >= 0 on the stated domain of the ratio d/r (certified by
    exact endpoint and critical-point evaluation).
    """
    if discriminant.vars != claimed_root.vars:
        raise ValueError("variable universes differ")
    if not (discriminant.is_homogeneous() and claimed_root.is_homogeneous()):
        raise NotHomogeneous("inputs must be homogeneous")
    if not discriminant.is_zero() and discriminant.degree() != 2 * claimed_root.degree():
        raise NotHomogeneous("degree of discriminant must be twice the claimed root's")
    if not poly_equal(claimed_root * claimed_root, discriminant):
        return False
    if len(discriminant.vars) == 1:
        g = Poly1(
            [
                claimed_root.terms.get((i,), Fraction(0))
                for i in range(claimed_root.degree() + 1)
            ]
        )
    else:
        g = claimed_root.restrict_to_ratio("d", "r")
    lo, hi = positivity_domain
    return scalar_sign(_poly_min_on_interval(g, lo, hi)[0]) >= 0
