"""Independent reference values for the benchmark's correctness gate.

Exact values are compared as term maps {radicand: coefficient} (key 1 is
the rational part).  The closed forms below restate the paper's formulas
with plain ``Fraction`` arithmetic and integer square roots; they share no
code with the library.  ``sympy_check`` re-derives a sample of them
symbolically.
"""

from fractions import Fraction as F
from math import isqrt


def as_terms(x) -> dict:
    """{radicand: coefficient} of a Fraction, QuadNum or RadicalSum."""
    terms = getattr(x, "terms", None)
    if terms is not None:  # RadicalSum
        return dict(terms)
    if hasattr(x, "m"):  # QuadNum
        out = {}
        if x.a:
            out[1] = x.a
        if x.b:
            out[x.m] = x.b
        return out
    x = F(x)
    return {1: x} if x else {}


def terms_to_json(terms: dict) -> dict:
    return {str(m): str(c) for m, c in sorted(terms.items())}


def terms_from_json(data: dict) -> dict:
    return {int(m): F(c) for m, c in data.items()}


def scaled(terms: dict, t) -> dict:
    return {m: c * t for m, c in terms.items()}


# ---------------------------------------------------------------------------
# surds c*sqrt(R) with R a nonnegative rational, kept unreduced
# ---------------------------------------------------------------------------


class Surd:
    """rational + coeff*sqrt(rad), rad a nonnegative Fraction (not reduced)."""

    __slots__ = ("rational", "coeff", "rad")

    def __init__(self, rational, coeff=0, rad=0):
        self.rational, self.coeff, self.rad = F(rational), F(coeff), F(rad)
        r = _rational_sqrt(self.rad)
        if r is not None:  # perfect square: fold into the rational part
            self.rational += self.coeff * r
            self.coeff, self.rad = F(0), F(0)

    def enclosure(self, bits: int) -> tuple:
        """(lo, hi) with lo <= self * 2**bits <= hi and hi - lo <= 1, exactly."""
        a = self.rational * (1 << bits)
        if not self.coeff:
            return a, a
        # |coeff|*sqrt(rad)*2**bits = sqrt(v) lies in [root, root + 1)
        v = self.coeff * self.coeff * self.rad * (1 << (2 * bits))
        root = isqrt(v.numerator // v.denominator)
        if self.coeff > 0:
            return a + root, a + root + 1
        return a - root - 1, a - root

    def matches(self, terms: dict) -> bool:
        """True iff the library value with these terms equals this surd."""
        if not self.coeff:
            return terms == ({1: self.rational} if self.rational else {})
        rad_terms = [(m, c) for m, c in terms.items() if m != 1]
        if len(rad_terms) != 1 or terms.get(1, F(0)) != self.rational:
            return False
        ((m, c),) = rad_terms
        return (c > 0) == (self.coeff > 0) and c * c * m == self.coeff * self.coeff * self.rad


def _rational_sqrt(q: F):
    if q < 0:
        raise ValueError("negative radicand")
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return F(n, d)
    return None


def terms_compare(a: dict, b: dict) -> int:
    """Sign of (sum a) - (sum b) for term maps, by interval refinement."""
    diff = dict(a)
    for m, c in b.items():
        diff[m] = diff.get(m, F(0)) - c
    surds = [Surd(0, c, m) for m, c in diff.items() if c]
    bits = 64
    while surds and bits <= 1 << 14:
        lo = hi = F(0)
        for s in surds:
            s_lo, s_hi = s.enclosure(bits)
            lo, hi = lo + s_lo, hi + s_hi
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    return 0  # identical terms, or a difference below 2**-16384


def cmp_rational_surd(x, rational, coeff, rad) -> int:
    """Sign of x - (rational + coeff*sqrt(rad))."""
    return terms_compare({1: F(x)}, {1: F(rational), rad: F(coeff)})


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

# Slope table of the global-section bound on the degree-8 K3:
# (case, ranges, (lin_x, lin_y), sqrt coeff, sqrt form (xx, xy, yy),
#  ratio numerator form (xx, xy, yy), ratio denominator form (x, y)).
# Ranges are (lo, lo_closed, hi, hi_closed).
SPADE_ROWS = (
    (1, ((F(11, 2), True, F(15, 2), False), (F(8), False, F(97, 10), True)),
     (F(7, 6), F(2, 3)), F(-1, 6), (1, 8, -44), None, None),
    (2, ((F(1, 2), True, F(3), False), (F(4), False, F(11, 2), True)),
     (F(1), F(0)), None, None, (0, 0, 5), (1, 2)),
    (3, ((F(-1, 4), True, F(1, 4), True),),
     (F(1, 2), F(0)), F(1, 2), (1, 0, 20), None, None),
    (4, ((F(-11, 2), True, F(-4), False), (F(-3), False, F(-1, 2), True)),
     (F(0), F(0)), None, None, (0, 0, 5), (-1, 2)),
    (5, ((F(-97, 10), True, F(-8), False), (F(-15, 2), False, F(-11, 2), True)),
     (F(-1, 6), F(2, 3)), F(-1, 6), (1, -8, -44), None, None),
    (6, ((F(-193, 14), True, F(-12), False), (F(-35, 3), False, F(-97, 10), True)),
     (F(-1, 16), F(3, 8)), F(-1, 16), (1, -12, -124), None, None),
    (7, ((F(-107, 6), True, F(-16), False), (F(-63, 4), False, F(-193, 14), True)),
     (F(-1, 30), F(4, 15)), F(-1, 30), (1, -16, -236), None, None),
)
BAND_ROWS = {8: ((F(0), F(0)), (0, 0, -4), (1, 0)), 9: ((F(1), F(0)), (0, 0, 4), (1, 0))}
FALLBACK_ROW = ((F(1, 2), F(0)), F(1, 2), (1, 0, 20), None, None)


def _quad(form, x, y):
    xx, xy, yy = form
    return xx * x * x + xy * x * y + yy * y * y


def spade_row_value(lin, srt, sform, num, den, x, y) -> Surd:
    rational = lin[0] * x + lin[1] * y
    if num is not None:
        rational += _quad(num, x, y) / (den[0] * x + den[1] * y)
    if srt is None:
        return Surd(rational)
    return Surd(rational, srt, _quad(sform, x, y))


def spade_row(case: int) -> tuple:
    """(lin, sqrt coeff, sqrt form, ratio numerator, ratio denominator) of a
    table row; case 0 is the universal fallback."""
    if case in BAND_ROWS:
        lin, num, den = BAND_ROWS[case]
        return lin, None, None, num, den
    if case == 0:
        return FALLBACK_ROW
    return next(r for r in SPADE_ROWS if r[0] == case)[2:]


def spade_expected(case: int, x, y) -> Surd:
    """Row ``case`` of the slope table at (x, y); the caller picks the row."""
    return spade_row_value(*spade_row(case), x, y)


def in_ranges(s, ranges) -> bool:
    for lo, lo_c, hi, hi_c in ranges:
        if (lo < s or (lo_c and lo == s)) and (s < hi or (hi_c and s == hi)):
            return True
    return False


def band_case(s):
    """8 or 9 when s lies in a band row's interval, else None."""
    n = (s / 4 + F(1, 2)).__floor__()
    if n < 0 and 4 * n <= s <= F(1 - 4 * n * n, -n):
        return 8
    if n > 0 and F(4 * n * n - 1, n) <= s <= 4 * n:
        return 9
    return None


def table_case(s):
    """Row of the slope table covering s, or None off the table."""
    case = band_case(s)
    if case is not None:
        return case
    for row in SPADE_ROWS:
        if in_ranges(s, row[1]):
            return row[0]
    return None


# (256 - 32 sqrt 61)/3 and (576 - 32 sqrt 69)/5
BN_THRESHOLD = (F(256, 3), F(-32, 3), 61)
CLIFFORD_BREAK = (F(576, 5), F(-32, 5), 69)


def clifford_expected(r, d) -> F:
    r, d = F(r), F(d)
    mu = d / r
    if mu <= 16:
        if cmp_rational_surd(mu, *BN_THRESHOLD) < 0:
            return 64 * r * r / (64 * r - d)
        return r + 5 * d * d / (1024 * r)
    if cmp_rational_surd(mu, *CLIFFORD_BREAK) <= 0:
        return 5 * d * d / (1024 * r) + 5 * r - d / 8
    return d - 46 * r


def gamma_expected(x) -> F:
    x = F(x)
    if x.denominator == 1:
        return 4 * x * x
    n = (x + F(1, 2)).__floor__()
    return 5 * x * x - 2 * n * x + n * n - 1


def first_wall_expected(mu) -> tuple:
    """(beta1_min, beta2_max, bn_semistable, exceptional window)."""
    mu = F(mu)
    beta1, beta2, tag = mu / 32 - 4, mu / 32, None
    if 31 <= mu <= 32:
        beta2, tag = F(1), "mu_31_32"
    elif 63 <= mu <= 64:
        beta2, tag = F(2), "mu_63_64"
    if 32 <= mu <= 33:
        beta1, tag = F(-3), tag or "mu_32_33"
    return beta1, beta2, 3 * mu * mu - 512 * mu + 1024 > 0, tag


# surface family: x^2 - x | 5x^2/8 - 1/8 | 5x^2/8 - x/4 | x^2 - 1/2 with
# breakpoints (4 - sqrt 13)/3 (in the first piece), 1/2 (in the second) and
# (sqrt 13 - 1)/3 (in the fourth)
_BP_A = (F(4, 3), F(-1, 3), 13)
_BP_B = (F(-1, 3), F(1, 3), 13)


def bg_surface_expected(x) -> F:
    x = F(x)
    if cmp_rational_surd(x, *_BP_A) <= 0:
        return x * x - x
    if x <= F(1, 2):
        return F(5, 8) * x * x - F(1, 8)
    if cmp_rational_surd(x, *_BP_B) < 0:
        return F(5, 8) * x * x - x / 4
    return x * x - F(1, 2)


_LINEAR = ((F(1, 5), F(-1, 2), F(0)), (F(1, 2), F(7, 16), F(-3, 16)), (F(4, 5), F(9, 16), F(-1, 4)),
           (F(10, 11), F(51, 44), F(-8, 11)), (F(1), F(21, 11), F(-31, 22)))
_REFINED = ((F(1, 5), F(1, 4), lambda x: F(9, 32) * x - F(5, 32)),
            (F(1, 5), F(1, 2), lambda x: F(5, 8) * x * x - F(1, 8)))


def bg_threefold_expected(x, family: str):
    x = F(x)
    if family == "quadratic":
        t = x - x.__floor__()
        return F(0) if t == 0 else bg_surface_expected(t)
    a = abs(x)
    if family == "linear":
        for hi, slope, icpt in _LINEAR:  # closed pieces: the first one wins
            if a <= hi:
                return slope * a + icpt
        raise ValueError("OutOfDomain")
    values = [f(a) for lo, hi, f in _REFINED if lo <= a <= hi]
    if cmp_rational_surd(a, *_BP_B) >= 0 and a <= 1:
        values.append(a * a - F(1, 2))
    if not values:
        raise ValueError("OutOfDomain")
    return min(values)


def nested_wall_expected(inums, alpha0, beta0) -> tuple:
    """(a, b, c) of the wall line through (alpha0, beta0) and p_H(v), scaled so
    that the first nonzero of (a, b) is 1; None when (a, b) vanishes."""
    r, s1, s2 = inums[0], inums[1], inums[2]
    a, b, c = -(s1 - beta0 * r), s2 - alpha0 * r, alpha0 * s1 - beta0 * s2
    if a == 0 and b == 0:
        return None
    scale = a if a != 0 else b
    return a / scale, b / scale, c / scale


def nu_tilt_expected(inums, alpha, beta):
    """Canonical-chart tilt slope on a surface or threefold; None = +infinity."""
    r, s1, s2 = inums[0], inums[1], inums[2]
    tw1 = s1 - beta * r
    tw2 = s2 - beta * s1 + beta * beta * r / 2
    if tw1 == 0:
        return None
    return (tw2 - alpha * alpha / 2 * r) / tw1


def twist_expected(c, beta) -> tuple:
    """Coefficients of ch * exp(-beta H), truncated at the dimension."""
    b = F(beta)
    out = [c[0], c[1] - b * c[0], c[2] - b * c[1] + b * b * c[0] / 2]
    if len(c) > 3:
        out.append(c[3] - b * c[2] + b * b * c[1] / 2 - b * b * b * c[0] / 6)
    return tuple(out[: len(c)])


def push_expected(r, d) -> tuple:
    """Pushforward of a rank-r degree-d class on the genus-65 curve to the K3."""
    return (F(0), F(4 * r), F(d - 64 * r, 8))


def compare_expected(x, y) -> int:
    """Sign of (a1 + b1 sqrt m1) - (a2 + b2 sqrt m2), m1 != m2 both > 1."""
    (a1, b1, m1), (a2, b2, m2) = x, y
    return terms_compare({1: F(a1), m1: F(b1)}, {1: F(a2), m2: F(b2)})


# ---------------------------------------------------------------------------
# symbolic cross-check
# ---------------------------------------------------------------------------


def sympy_check(samples) -> list:
    """Re-derive (kind, args, library terms) samples with sympy; return mismatches."""
    import sympy

    def sym(terms):
        return sum((sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(m) for m, c in terms.items()),
                   sympy.Integer(0))

    def sq(t):
        return sympy.Rational(F(t).numerator, F(t).denominator)

    bad = []
    for kind, args, got in samples:
        if any(e > 1 for m in got if m != 1 for e in sympy.factorint(m).values()):
            bad.append((kind, args))  # radicand not square-free
            continue
        if kind == "spade":
            case, x, y = args
            lin, srt, form, num, den = spade_row(case)
            x, y = sq(x), sq(y)
            want = sq(lin[0]) * x + sq(lin[1]) * y
            if num is not None:
                want += _quad(num, x, y) / (den[0] * x + den[1] * y)
            if srt is not None:
                want += sq(srt) * sympy.sqrt(_quad(form, x, y))
        elif kind == "clifford_bound":
            r, d = (sq(a) for a in args)
            mu = d / r
            bn = (256 - 32 * sympy.sqrt(61)) / 3
            brk = (576 - 32 * sympy.sqrt(69)) / 5
            if mu <= 16:
                want = 64 * r * r / (64 * r - d) if mu < bn else r + 5 * d * d / (1024 * r)
            else:
                want = 5 * d * d / (1024 * r) + 5 * r - d / 8 if mu <= brk else d - 46 * r
        elif kind == "gamma_curve":
            x = sq(args[0])
            n = sympy.floor(x + sympy.Rational(1, 2))
            want = 4 * x * x if x.q == 1 else 5 * x * x - 2 * n * x + n * n - 1
        elif kind == "bg_bound_surface":
            want = _sympy_surface(sympy, sq(args[0]))
        elif kind == "bg_bound_threefold":
            x = sq(args[0])
            t = x - sympy.floor(x)
            want = sympy.Integer(0) if t == 0 else _sympy_surface(sympy, t)
        else:
            raise ValueError(f"no symbolic form for {kind}")
        if sympy.simplify(want - sym(got)) != 0:
            bad.append((kind, args))
    return bad


def _sympy_surface(sympy, x):
    return sympy.Piecewise(
        (x * x - x, x <= (4 - sympy.sqrt(13)) / 3),
        (sympy.Rational(5, 8) * x * x - sympy.Rational(1, 8), x <= sympy.Rational(1, 2)),
        (sympy.Rational(5, 8) * x * x - x / 4, x < (sympy.sqrt(13) - 1) / 3),
        (x * x - sympy.Rational(1, 2), True),
    )

