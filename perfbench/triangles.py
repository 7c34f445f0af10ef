"""Wall triangles for the oracle workload, built as ``test_acceptance_05`` builds them.

A triangle O-P-Q inside one single-case slope hull is fixed by three cut
indices 0 < c0 < c1 < c2 < 48 (the slopes of PQ, OQ and OP) and a scale
y_P.  Both exact maxima are homogeneous of degree 1 in the scale, so the
reference values of a shape are recorded once at y_P = 1 and scaled; the
oracles' cost is not, and moves with y_P by up to 1.5x.
"""

from fractions import Fraction as F

from tiltbound.convexopt import PlanePoint

# (table case, lo, hi) in the order of test_acceptance_05
HULLS = (
    (4, F(-29, 10), F(-6, 10)),
    (3, F(-24, 100), F(24, 100)),
    (2, F(6, 10), F(29, 10)),
    (5, F(-96, 10), F(-82, 10)),
    (6, F(-134, 10), F(-125, 10)),
    (7, F(-177, 10), F(-162, 10)),
    (8, F(-39, 10), F(-31, 10)),
    (9, F(31, 10), F(39, 10)),
)
# hulls whose rows carry a square root; the others are rational rows
SQRT_CASES = frozenset({3, 5, 6, 7})
GRID = 40


def triangle(case: int, cuts, y_p):
    """(P, Q) for the hull of ``case``, cut indices ``cuts`` and scale ``y_p``."""
    _, lo, hi = next(h for h in HULLS if h[0] == case)
    span = hi - lo
    s_pq, s_oq, s_op = (lo + span * F(c, 48) for c in cuts)
    p = PlanePoint(s_op * y_p, y_p)
    y_q = y_p * (s_op - s_pq) / (s_oq - s_pq)
    q = PlanePoint(s_oq * y_q, y_q)
    return p, q


def draw_scale(rng):
    """y_P exactly as test_acceptance_05 draws it."""
    return F(rng.randrange(1, 5), rng.randrange(1, 3))
