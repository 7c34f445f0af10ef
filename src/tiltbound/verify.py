"""Replayable certificate suites.

Every identity and inequality chain of the bound derivations is encoded as
a named check over exact arithmetic: radical simplifications, breakpoint
continuity and envelope dominance, the Clifford-triangle consistency, the
surface-bound recomposition, the wall-secant relation, the lattice check
against the boundary curve, and the Q-form decomposition with its
constrained grid sweeps.  Each suite owns a negative control: a one
coefficient perturbation that must fail, guarding against vacuous passes.

A suite declares its checks once, in one ordered table that marks the
checks reading ``perturb``; ``suite_<name>(perturb=True)`` runs only those.
The control lays their reports over the suite's own, by check name.  An
unmarked check would run the same code on the same deterministic inputs,
so its suite report stands for its perturbed one, and no control shows it
non-vacuous.  ``_run`` times every check and builds every report, the
controls' included.

Reports are deterministic (fixed seeds, fixed iteration order); two runs
differ only in the elapsed fields.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import bounds, chern, tilt, walls
from .bounds import (
    SPADE_CASES,
    bg_linear_family,
    bg_quadratic_family,
    bg_refined_family,
    clifford_bound,
    piecewise_check,
    spade,
)
from .convexopt import (
    clifford_chain_bound,
    maximize_bruteforce,
    maximize_reduced,
    triangle_from_first_wall,
)
from .exactnum import (
    _horner,
    _int_parts,
    _poly_min_on_interval,
    MPoly,
    Poly1,
    QuadNum,
    RadicalSum,
    compare_scalars,
    format_scalar,
    poly_equal,
    radical_identity_check,
    scalar_sign,
)
from .walls import BN_THRESHOLD_POLY, bn_threshold, first_wall_bounds, gamma_curve

__all__ = [
    "VerificationReport",
    "SUITE_NAMES",
    "run_suite",
    "run_suites",
    "reports_to_json",
]

@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    status: str  # "pass" | "fail" | "skipped"
    samples_tested: int
    witness: dict | None
    elapsed: float

    def to_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "status": self.status,
            "samples_tested": self.samples_tested,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        out["elapsed"] = self.elapsed
        return out


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def _run(name, fn) -> VerificationReport:
    t0 = time.perf_counter()
    ok, samples, witness = fn()
    elapsed = time.perf_counter() - t0
    status = "pass" if ok else "fail"
    if not ok and witness is None:
        witness = {"note": "check failed without structured witness"}
    return VerificationReport(name, status, samples, witness, round(elapsed, 6))


def _run_checks(perturb: bool, table) -> list[VerificationReport]:
    """Run a suite's table of (check name, check, reads perturb) rows in
    order; with ``perturb``, only the rows that read it."""
    return [_run(name, fn) for name, fn, reads_perturb in table if reads_perturb or not perturb]


# ---------------------------------------------------------------------------
# radicals
# ---------------------------------------------------------------------------

_INTERSECT_RANGES = {
    "right": walls._RIGHT_RANGES,
    "left": walls._LEFT_RANGES,
}


def _cleared_delta_polys(prime: bool, perturb: bool):
    """(discriminant, claimed root) cleared by 1024 r, as MPoly in (r, d)."""
    r, d = MPoly.variables("r", "d")
    if not prime:
        inner = 1280 * (r * d) - 97280 * (r * r) - 5 * (d * d)
        claimed = (67584 if perturb else 66560) * (r * r) - 1280 * (r * d) + 5 * (d * d)
        scale = 300
    else:
        inner = 1280 * (r * d) - 84992 * (r * r) - 5 * (d * d)
        claimed = 5 * (d * d) - 1280 * (r * d) + (79872 if perturb else 78848) * (r * r)
        scale = 60
    c_form = 4096 * (r * r) - 32 * (r * d)
    disc = inner * inner - scale * (c_form * c_form)
    return disc, claimed


# sample sizes of the radicals, clifford and walls suites
_K_PER_RANGE = 200
_MU_SAMPLES = 200
_LATTICE_BOUND = 20


def suite_radicals(perturb: bool = False):
    def check_delta():
        disc, claimed = _cleared_delta_polys(False, perturb)
        ok = radical_identity_check(disc, claimed, (bn_threshold(), Fraction(16)))
        return ok, 1, None if ok else {"claimed": str(claimed)}

    def check_delta_prime():
        disc, claimed = _cleared_delta_polys(True, perturb)
        ok = radical_identity_check(disc, claimed, (Fraction(48), Fraction(64)))
        return ok, 1, None if ok else {"claimed": str(claimed)}

    def check_f1():
        r, d = MPoly.variables("r", "d")
        lhs = (5 * (d * d) - 1024 * (r * r)) ** 2 + 20480 * (r * r) * (d * d)
        rhs = (5 * (d * d) + 1024 * (r * r)) ** 2
        ok1 = poly_equal(lhs, rhs)
        lhs2 = (5 * (d * d) + 3072 * (r * r)) ** 2 - 61440 * (r * r) * (d * d)
        rhs2 = (5 * (d * d) - 3072 * (r * r)) ** 2
        ok2 = poly_equal(lhs2, rhs2)
        ok = ok1 and ok2
        return ok, 2, None if ok else {"first": ok1, "second": ok2}

    def check_residuals():
        # k = lo + (hi - lo)*k_idx/200 is one Fraction of the integer range
        # ends.  With k = p/q and Gamma_n's integer coefficients (c0, c1,
        # c2), q(k*x - Gamma_n(x)) is the integer polynomial (-q c0, p - q c1,
        # -q c2); at x = (u + v*sqrt(m))/w, ``_horner`` writes w^2 times it as
        # rat + irr*sqrt(m), and the sample passes iff both integers are 0
        samples = 0
        for side, table in _INTERSECT_RANGES.items():
            for lo, hi, n in table:
                c0, c1, c2 = walls._gamma_coeffs(n)
                a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
                for k_idx in range(_K_PER_RANGE):
                    k = Fraction(a * d * (_K_PER_RANGE - k_idx) + c * b * k_idx, _K_PER_RANGE * b * d)
                    x = walls.line_gamma_intersection(k, side)
                    samples += 1
                    u, v, m, w = _int_parts(x)
                    p, q = k.numerator, k.denominator
                    residual = (-q * c0, p - q * c1, -q * c2)
                    rat, irr, _ = _horner(residual, u, v, m, w)
                    if rat or irr:
                        return False, samples, {
                            "side": side,
                            "k": format_scalar(k),
                            "x": format_scalar(x),
                            "residual": format_scalar(Poly1(residual).evaluate(x) / q),
                        }
        return True, samples, None

    return _run_checks(perturb, [
        ("radicals_sqrt_delta", check_delta, True),
        ("radicals_sqrt_delta_prime", check_delta_prime, True),
        ("radicals_f1_square_collapse", check_f1, False),
        ("radicals_x0_x1_residuals", check_residuals, False),
    ])


# ---------------------------------------------------------------------------
# q00
# ---------------------------------------------------------------------------


def suite_q00(grid_denominator: int = 64, perturb: bool = False):
    if grid_denominator < 32:
        raise ValueError("grid_denominator must be >= 32")
    N = grid_denominator

    def check_decomposition():
        a, b, R = MPoly.variables("a", "b", "R")
        lower = 4 * (a * a) - Fraction(3, 4) * (b * R) + Fraction(43, 20) * (b * b) - Fraction(24, 5) * (a * b)
        c1_coeff = Fraction(3, 5) if perturb else Fraction(4, 5)
        c1 = c1_coeff * (Fraction(3, 2) * (b * b) - a * R - b * R)
        c2 = Fraction(9, 20) * (b * (R - b))
        c3 = Fraction(1, 5) * ((7 * b - 10 * a - 2 * R) * (b - 2 * a))
        ok = poly_equal(lower, c1 + c2 + c3)
        return ok, 1, None if ok else {"c1_coeff": format_scalar(c1_coeff)}

    def check_master_square():
        a, b, R = MPoly.variables("a", "b", "R")
        lhs = 4 * (a * a) - 4 * (a * b) + Fraction(7, 4) * (b * b) - Fraction(3, 4) * (b * R)
        rhs = 4 * (a - Fraction(1, 2) * b) ** 2 + Fraction(3, 4) * (b * b) - Fraction(3, 4) * (b * R)
        ok = poly_equal(lhs, rhs)
        # the two mid-range completions of squares
        lhs2 = 4 * (a * a) - 4 * (a * b) + Fraction(7, 4) * (b * b) + (3 * (a * b) - Fraction(27, 16) * (b * b))
        ok = ok and poly_equal(lhs2, 4 * (a - Fraction(1, 8) * b) ** 2)
        lhs3 = 4 * (a * a) - 4 * (a * b) + Fraction(7, 4) * (b * b) + (4 * (a * b) - Fraction(7, 4) * (b * b))
        ok = ok and poly_equal(lhs3, 4 * (a * a))
        # [4/5, 10/11] case: positive definiteness of 4t^2 - (95/32)t + 71/128
        disc = Fraction(95, 32) ** 2 - 4 * 4 * Fraction(71, 128)
        ok = ok and disc < 0
        return ok, 4, None

    def check_case1_minimum():
        t = Poly1([0, 1])
        f = 4 * (t * t) - 4 * t + Fraction(7, 4)
        target = f - Fraction(2509, 3025)
        factored = 4 * (t - Fraction(79, 220)) * (t + Fraction(79, 220) - 1)
        ok = target == factored
        margin = Fraction(2509, 3025) * Fraction(10, 11) - Fraction(3, 4)
        ok = ok and margin == Fraction(107, 26620) and margin > 0
        return ok, 2, None

    def check_case2_line():
        # intersection of y = (79/220) x with y = (5/8)x^2 - 1/8
        roots = Poly1([Fraction(-1, 8), Fraction(-79, 220), Fraction(5, 8)]).real_roots()
        left = roots[0]
        expected = QuadNum(Fraction(79, 275), Fraction(-3, 275), 2374)
        ok = compare_scalars(left, expected) == 0
        ok = ok and compare_scalars(expected, Fraction(-1, 4)) > 0
        # hom-line consistency: the stated hom bound is exactly 4/5 of the
        # refined-line inequality for the evaluation twist
        hom, rk, b, a = MPoly.variables("hom", "rk", "b", "a")
        bound_gap = rk + Fraction(9, 40) * b + Fraction(4, 5) * a - hom
        line_form = a + Fraction(9, 32) * b + Fraction(5, 4) * (rk - hom)
        ok = ok and poly_equal(bound_gap, Fraction(4, 5) * line_form)
        # chi bookkeeping from hom bound to the ch3 bound
        ok = ok and Fraction(9, 40) - Fraction(7, 12) == Fraction(-43, 120)
        return ok, 3, None if ok else {"left_root": format_scalar(left)}

    def check_grid():
        # the region is filtered on the integers i = N*x', j = N*s (N > 0)
        samples = 0
        violations = []
        for i in range(-N, N + 1):
            for j in range(-N, N + 1):
                samples += 1
                if not (10 * N <= 11 * i <= 11 * N):  # x' in [10/11, 1]
                    continue
                if not (0 < j and 2 * j <= i):  # nu_BN in (0, 1/2]
                    continue
                if 220 * j < 79 * i:  # case (2): nu_BN >= 79/220
                    continue
                xp = Fraction(i, N)  # x' = H^2ch1 / H^3rk
                s = Fraction(j, N)  # s = H.ch2 / H^3rk
                # (c2) needs only the region
                if scalar_sign(xp * (1 - xp)) < 0:
                    violations.append(("c2", xp, s))
                # (c1) under the refined bound s <= x'^2 - 1/2
                if s <= xp * xp - Fraction(1, 2):
                    if scalar_sign(Fraction(3, 2) * xp * xp - s - xp) < 0:
                        violations.append(("c1", xp, s))
                # (c3) under the linear piece s <= (21/11)x' - 31/22
                if s <= Fraction(21, 11) * xp - Fraction(31, 22):
                    val = (7 * xp - 10 * s - 2) * (xp - 2 * s)
                    if scalar_sign(val) < 0:
                        violations.append(("c3", xp, s))
        ok = not violations
        if violations:
            term, xp, s = violations[0]
            wit = {"term": term, "x": format_scalar(xp), "s": format_scalar(s)}
        else:
            wit = {
                "hypotheses": [
                    "x' = H^2ch1/H^3rk in [10/11, 1]",
                    "nu_BN in [79/220, 1/2] (case split)",
                    "s <= x'^2 - 1/2 for the first term (refined bound)",
                    "s <= (21/11)x' - 31/22 for the third term (linear piece 5)",
                ]
            }
        return ok, samples, wit

    def check_limit_root():
        # remaining case: root (4 delta - sqrt(16 delta^2 + 5))/5 of
        # 5x^2 - 8 delta x - 1, tending to -1/sqrt(5)
        limit = QuadNum(0, Fraction(-1, 5), 5)
        ok = scalar_sign(5 * limit * limit - 1) == 0
        prev_gap = None
        count = 1
        for k in range(1, 7):
            delta = Fraction(1, 2**k)
            roots = Poly1([-1, -8 * delta, 5]).real_roots()
            x_minus = roots[0]
            count += 1
            if scalar_sign(5 * x_minus * x_minus - 8 * delta * x_minus - 1) != 0:
                return False, count, {"delta": format_scalar(delta)}
            if compare_scalars(x_minus, 0) >= 0:
                return False, count, {"delta": format_scalar(delta), "sign": "nonnegative"}
            # |x_minus - limit| must shrink monotonically
            g = RadicalSum.of(x_minus) - RadicalSum.of(limit)
            g_abs = g if g.sign() >= 0 else -g
            if prev_gap is not None and not (g_abs < prev_gap):
                return False, count, {"delta": format_scalar(delta), "gap": str(g_abs)}
            prev_gap = g_abs
        return ok, count, None

    def check_dual_route():
        # character-level fact behind the negative-slope reduction: the
        # Q form at (0,0) is invariant under the dual-shift map
        rng = random.Random(0xD0A1)
        samples = 0
        sign_flip = -1 if perturb else 1
        for _ in range(200):
            v = chern.ChernVec(
                chern.X24,
                tuple(
                    Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(4)
                ),
            )
            q1 = tilt.q_form(v, tilt.TiltParams(0, 0))
            q2 = tilt.q_form(chern.dual_shift_char(v), tilt.TiltParams(0, 0))
            samples += 1
            if q1 != sign_flip * q2:
                return False, samples, {"v": str(v)}
        wit = {
            "assumption": "the dimension-0 torsion correction term "
            "6 H^2ch1 * ch3(T0) is nonnegative (not derived here)"
        }
        return True, samples, wit

    return _run_checks(perturb, [
        ("q00_c1c2c3_decomposition", check_decomposition, True),
        ("q00_case_square_completions", check_master_square, False),
        ("q00_case1_envelope_minimum", check_case1_minimum, False),
        ("q00_case2_line_and_sqrt2374", check_case2_line, False),
        ("q00_constrained_grid_nonnegativity", check_grid, False),
        ("q00_limit_root_sqrt5", check_limit_root, False),
        ("q00_dual_route_bookkeeping", check_dual_route, True),
    ])


# ---------------------------------------------------------------------------
# breakpoints
# ---------------------------------------------------------------------------


def _perturbed_linear_family():
    """bg_linear_family with piece 2's constant moved from -3/16 to -1/4."""
    pieces = list(bg_linear_family.pieces)
    pieces[1] = replace(pieces[1], poly=Poly1([Fraction(-1, 4), *pieces[1].poly.coeffs[1:]]))
    return bounds.PiecewiseBound("bg_linear_perturbed", pieces)


def suite_breakpoints(perturb: bool = False):
    linear = _perturbed_linear_family() if perturb else bg_linear_family

    def check_linear_continuity():
        rep = piecewise_check(linear, "continuity")
        expected = {
            Fraction(1, 5): Fraction(-1, 10),
            Fraction(1, 2): Fraction(1, 32),
            Fraction(4, 5): Fraction(1, 5),
            Fraction(10, 11): Fraction(79, 242),
        }
        ok = rep.ok
        vals = {}
        for x, want in expected.items():
            got = linear.evaluate(x)
            vals[format_scalar(x)] = format_scalar(got)
            ok = ok and got == want
        return ok, 4, None if ok else {"values": vals, "discontinuities": len(rep.details)}

    def check_quadratic_continuity():
        rep = piecewise_check(bg_quadratic_family, "continuity")
        # breakpoints are roots of 3x^2-8x+1 and 3x^2+2x-4
        bp = bg_quadratic_family.shared_breakpoints()
        ok = rep.ok and len(bp) == 3
        root_check = Poly1([1, -8, 3]).evaluate(bp[0][0])
        ok = ok and scalar_sign(root_check) == 0
        root_check2 = Poly1([-4, 2, 3]).evaluate(bp[2][0])
        ok = ok and scalar_sign(root_check2) == 0
        return ok, 3, None if ok else {"discontinuities": [format_scalar(x) for x, _, _ in rep.details]}

    def check_envelope():
        rep = piecewise_check(linear, "dominance", bg_quadratic_family)
        points, has_interval, witness = rep.details
        expected = [Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), Fraction(10, 11), Fraction(1)]
        ok = rep.ok and not has_interval and len(points) == len(expected)
        if ok:
            for got, want in zip(points, expected):
                ok = ok and compare_scalars(got, want) == 0
        wit = None
        if not ok:
            wit = {
                "equality_set": [format_scalar(x) for x in points],
                "violation": None if witness is None else format_scalar(witness[0]),
            }
        return ok, len(points), wit

    def check_refined():
        secant, parabola, tail = bg_refined_family
        rep1 = piecewise_check(secant, "dominance", bg_quadratic_family)
        pts, _, _ = rep1.details
        ok = rep1.ok and len(pts) == 2
        ok = ok and compare_scalars(pts[0], Fraction(1, 5)) == 0
        ok = ok and compare_scalars(pts[1], Fraction(1, 4)) == 0
        rep2 = piecewise_check(parabola, "dominance", bg_quadratic_family)
        ok = ok and rep2.ok
        rep3 = piecewise_check(tail, "dominance", bg_quadratic_family)
        ok = ok and rep3.ok
        return ok, 3, None if ok else {"secant_equalities": [format_scalar(x) for x in pts]}

    def check_spade_boundaries():
        # both-closed boundary slopes must agree; +-4m, +-(4m^2-1)/m must not
        agree = [Fraction(11, 2), Fraction(-11, 2), Fraction(-97, 10), Fraction(-193, 14)]
        rows = {
            Fraction(11, 2): (0, 1),
            Fraction(-11, 2): (3, 4),
            Fraction(-97, 10): (4, 5),
            Fraction(-193, 14): (5, 6),
        }
        samples = 0
        for s in agree:
            i, j = rows[s]
            va = SPADE_CASES[i].value(s, Fraction(1))
            vb = SPADE_CASES[j].value(s, Fraction(1))
            samples += 1
            if compare_scalars(va, vb) != 0:
                return False, samples, {"slope": format_scalar(s), "values": [format_scalar(va), format_scalar(vb)]}
        gaps = {}
        for s, (i, j) in {
            Fraction(15, 2): (0, 8),
            Fraction(8, 1): (0, 8),
            Fraction(3, 1): (1, 8),
            Fraction(4, 1): (1, 8),
            Fraction(-3, 1): (3, 7),
            Fraction(-4, 1): (3, 7),
            Fraction(-15, 2): (4, 7),
            Fraction(-8, 1): (4, 7),
        }.items():
            va = SPADE_CASES[i].value(s, Fraction(1))
            vb = SPADE_CASES[j].value(s, Fraction(1))
            gaps[format_scalar(s)] = format_scalar(vb - va)
            samples += 1
        return True, samples, {"exceptional_gaps": gaps}

    return _run_checks(perturb, [
        ("breakpoints_linear_continuity", check_linear_continuity, True),
        ("breakpoints_quadratic_continuity", check_quadratic_continuity, False),
        ("breakpoints_envelope_equality_set", check_envelope, True),
        ("breakpoints_refined_pieces_dominate", check_refined, False),
        ("breakpoints_spade_boundary_agreement", check_spade_boundaries, False),
    ])


# ---------------------------------------------------------------------------
# clifford
# ---------------------------------------------------------------------------


def _mu_samples():
    rng = random.Random(20240801)
    fixed = [
        Fraction(0),
        Fraction(1),
        Fraction(2),
        Fraction(16),
        Fraction(48),
        Fraction(64),
        Fraction(63),
        Fraction(62),
        Fraction(6202, 100),
        Fraction(6205, 100),
        Fraction(2024, 1000),
        Fraction(2025, 1000),
    ]
    out = dict.fromkeys(fixed)  # an insertion-ordered set
    while len(out) < _MU_SAMPLES:
        if rng.random() < 0.5:
            num = rng.randrange(0, 16 * 64 + 1)
            mu = Fraction(num, 64)
        else:
            num = rng.randrange(48 * 64, 64 * 64 + 1)
            mu = Fraction(num, 64)
        out[mu] = None
    return list(out)


def suite_clifford(perturb: bool = False):
    def check_consistency():
        samples = 0
        for mu in _mu_samples():
            r, d = mu.denominator, mu.numerator
            expected = clifford_bound((r, d))
            if perturb and 48 <= mu <= 64 and compare_scalars(mu, bounds.CLIFFORD_BREAK) > 0:
                expected = d - 45 * r  # one-coefficient perturbation of the branch
            got = clifford_chain_bound(r, d)
            samples += 1
            if compare_scalars(got.value, expected) != 0:
                return False, samples, {
                    "mu": format_scalar(mu),
                    "triangle": format_scalar(got.value),
                    "closed_form": format_scalar(expected),
                    "branch": got.branch,
                }
            # the max-branch switch location agrees with the sqrt(69) breakpoint
            if 48 <= mu <= 64:
                beyond = compare_scalars(mu, bounds.CLIFFORD_BREAK) > 0
                if beyond and got.branch != "max_branch_linear":
                    return False, samples, {"mu": format_scalar(mu), "branch": got.branch}
        return True, samples, None

    def check_bn_band():
        samples = 0
        for num in range(0, 130):
            mu = Fraction(num, 64)
            if compare_scalars(mu, bn_threshold()) >= 0:
                continue
            r, d = mu.denominator, mu.numerator
            tri = triangle_from_first_wall((r, d))
            bogomolov = -4 * tri.q.y * tri.q.y / tri.q.x
            samples += 1
            if bogomolov != clifford_bound((r, d)):
                return False, samples, {"mu": format_scalar(mu)}
        return True, samples, None

    def check_p3():
        samples = 0
        for mu in (Fraction(48), Fraction(56), Fraction(63), Fraction(64)):
            r, d = mu.denominator, mu.numerator
            tri = triangle_from_first_wall((r, d))
            p3, q = tri.p_triple, tri.q
            enc = spade((p3.x, p3.y)) + spade(((q - p3).x, (q - p3).y))
            expected = d / Fraction(2) - 14 * r
            samples += 1
            if compare_scalars(enc, expected) != 0:
                return False, samples, {"mu": format_scalar(mu), "enclosure": format_scalar(enc)}
            # enclosure >= the linear branch d - 46r, equality exactly at 64
            gap = enc - (d - 46 * r)
            if scalar_sign(gap) < 0 or (scalar_sign(gap) == 0) != (mu == 64):
                return False, samples, {"mu": format_scalar(mu), "gap": format_scalar(gap)}
        return True, samples, None

    def check_p_prime_readings():
        samples = 0
        mismatches = {}
        for mu in (Fraction(50), Fraction(63), Fraction(64)):
            r, d = mu.denominator, mu.numerator
            tri = triangle_from_first_wall((r, d))
            pp = tri.p_prime
            samples += 1
            if pp.slope() != (mu - 48) / 2:
                return False, samples, {"mu": format_scalar(mu), "slope": format_scalar(pp.slope())}
            if (tri.q - pp).slope() != Fraction(-8):
                return False, samples, {"mu": format_scalar(mu)}
            # textual reading 2/(Gamma(2)-(mu-64)) = 2/(80-mu) vs 2/(mu-48)
            textual = Fraction(2) / (80 - mu)
            stated = Fraction(2) / (mu - 48) if mu != 48 else None
            if stated is not None and textual != stated:
                mismatches[format_scalar(mu)] = {
                    "2/(80-mu)": format_scalar(textual),
                    "2/(mu-48)": format_scalar(stated),
                }
        ok = format_scalar(Fraction(64)) not in mismatches  # equal exactly at 64
        return ok, samples, {"textual_slope_mismatches": mismatches}

    def check_bruteforce():
        samples = 0
        for mu, grid in ((Fraction(16), 12), (Fraction(8), 10), (Fraction(60), 10)):
            r, d = mu.denominator, mu.numerator
            tri = triangle_from_first_wall((r, d))
            reduced = maximize_reduced(tri.origin, tri.p, tri.q, fallback=True)
            bf = maximize_bruteforce(tri.origin, tri.p, tri.q, grid, fallback=True)
            samples += 1
            if compare_scalars(bf.value, reduced.value) > 0:
                return False, samples, {
                    "mu": format_scalar(mu),
                    "bruteforce": format_scalar(bf.value),
                    "reduced": format_scalar(reduced.value),
                }
        return True, samples, None

    return _run_checks(perturb, [
        ("clifford_triangle_equals_closed_form", check_consistency, True),
        ("clifford_bn_band_bogomolov_path", check_bn_band, False),
        ("clifford_p3_enclosure", check_p3, False),
        ("clifford_p_prime_slope_readings", check_p_prime_readings, False),
        ("clifford_bruteforce_below_reduced", check_bruteforce, False),
    ])


# ---------------------------------------------------------------------------
# prop52
# ---------------------------------------------------------------------------


# Prop. 5.2's values are (numerator, denominator) pairs of Poly1s; an
# identity holds iff its two sides are equal cross-multiplied
_ONE = Poly1([1])


def _pair_sum(*pairs):
    """The sum of (numerator, denominator) pairs, as one pair."""
    num, den = Poly1([]), _ONE
    for n, d in pairs:
        num, den = num * d + n * den, den * d
    return num, den


def _prop52_holds(first: str, second: str, target) -> bool:
    """(lam_first(32x) + lam_second(64 - 32x))/16 + x - 5/4 == target, with
    the per-rank Clifford pieces lam of ``bounds.clifford_family``, by name."""
    pieces = {piece.name: piece for piece in bounds.clifford_family.pieces}
    n1, d1 = (p.compose_affine(0, 32) for p in (pieces[first].poly, pieces[first].den))
    n2, d2 = (p.compose_affine(64, -32) for p in (pieces[second].poly, pieces[second].den))
    num, den = _pair_sum((n1, 16 * d1), (n2, 16 * d2), (Poly1([Fraction(-5, 4), 1]), _ONE))
    target_num, target_den = target
    return num * target_den == target_num * den


# the recomposition cases: the two pieces and the target in x, where
# 1/(16 - 8x) is the Brill-Noether piece's share; case 3's target is the
# surface family's piece 2
_BN_SHARE = (Poly1([1]), Poly1([16, -8]))
_PROP52_CASES = {
    1: ("bn", "linear", _pair_sum(_BN_SHARE, (Poly1([Fraction(-1, 8), -1]), _ONE))),
    2: ("bn", "high", _pair_sum(_BN_SHARE, (Poly1([Fraction(-3, 16), 0, Fraction(5, 16)]), _ONE))),
    3: ("low", "high", (bg_quadratic_family.pieces[1].poly, _ONE)),
}

# the cases' dominance intervals in x = mu/32 end at the library's
# breakpoints: bn_threshold()/32 = (8 - sqrt61)/3, (64 - CLIFFORD_BREAK)/32 =
# (sqrt69 - 8)/5 and the surface family's first breakpoint (4 - sqrt13)/3
_X_BN = bn_threshold() / 32
_X_BREAK = (64 - bounds.CLIFFORD_BREAK) / 32
_X_BP_A = bg_quadratic_family.pieces[0].interval.hi


def suite_prop52(perturb: bool = False):
    def check_case1():
        ok = _prop52_holds(*_PROP52_CASES[1])
        # dominance by x^2 - x on (0, (4-sqrt13)/3]: cubic -8x^3+16x^2-x+1 >= 0
        cubic = Poly1([1, -1, 16, -8])
        ok2 = scalar_sign(_poly_min_on_interval(cubic, Fraction(0), _X_BP_A)[0]) >= 0
        return ok and ok2, 2, None if (ok and ok2) else {"identity": ok, "dominance": ok2}

    def check_case2():
        ok = _prop52_holds(*_PROP52_CASES[2])
        # dominated by piece 1 (x^2 - x) on ((sqrt69-8)/5, (8-sqrt61)/3]
        cubic = Poly1([4, -35, 38, -11])
        ok = ok and scalar_sign(_poly_min_on_interval(cubic, _X_BREAK, _X_BN)[0]) >= 0
        return ok, 2, None

    def check_case3():
        first, second, (num, den) = _PROP52_CASES[3]
        if perturb:
            num += Poly1([0, 0, Fraction(1, 8)])  # lead 5/8 -> 3/4
        ok = _prop52_holds(first, second, (num, den))
        # on ((8-sqrt61)/3, (4-sqrt13)/3] piece 1 dominates: 3x^2-8x+1 >= 0
        quad = Poly1([1, -8, 3])
        ok = ok and scalar_sign(_poly_min_on_interval(quad, _X_BN, _X_BP_A)[0]) >= 0
        return ok, 2, None if ok else {"lead": format_scalar(num.coeffs[2])}

    def check_dual_symmetry():
        # bound(1-x) == bound(x) - x + 1/2 for the matched piece pairs
        p1 = bg_quadratic_family.pieces[0].poly
        p2 = bg_quadratic_family.pieces[1].poly
        p3 = bg_quadratic_family.pieces[2].poly
        p4 = bg_quadratic_family.pieces[3].poly
        shift = Poly1([Fraction(1, 2), -1])
        ok = p4.compose_affine(Fraction(1), Fraction(-1)) == p1 + shift
        ok = ok and p3.compose_affine(Fraction(1), Fraction(-1)) == p2 + shift
        ok = ok and p1.compose_affine(Fraction(1), Fraction(-1)) == p4 + shift
        ok = ok and p2.compose_affine(Fraction(1), Fraction(-1)) == p3 + shift
        return ok, 4, None

    def check_restriction_scaling():
        # mu(F|_C) = 32 x: restriction doubles H.ch1 and the curve re-pairs
        v = chern.ChernVec(chern.S224, (2, 3, Fraction(1, 2)))
        cc = chern.curve_class_of(chern.restrict_to_divisor(v, 2))
        xratio = Fraction(3, 2)  # H.ch1/(H^2 ch0) = c1/c0
        ok = cc.slope == 32 * xratio
        ok = ok and chern.chi_euler(v) == v.inum(2) - v.inum(1) + 20 * v.c[0]
        return ok, 2, None

    return _run_checks(perturb, [
        ("prop52_case1_recomposition", check_case1, False),
        ("prop52_case2_recomposition", check_case2, False),
        ("prop52_case3_recomposition", check_case3, True),
        ("prop52_dual_symmetry", check_dual_symmetry, False),
        ("prop52_restriction_bookkeeping", check_restriction_scaling, False),
    ])


# ---------------------------------------------------------------------------
# walls
# ---------------------------------------------------------------------------


def suite_walls(perturb: bool = False):
    def check_secant():
        samples = 0
        shift = 63 if perturb else 64
        for k in range(1, 257):
            mu = Fraction(64 * k, 256)
            lhs = gamma_curve(mu / 32) - gamma_curve(mu / 32 - 4)
            samples += 1
            if lhs != mu - shift:
                return False, samples, {"mu": format_scalar(mu), "lhs": format_scalar(lhs)}
        return True, samples, None

    def check_threshold():
        thr = bn_threshold()
        ok = scalar_sign(BN_THRESHOLD_POLY.evaluate(thr)) == 0
        below, above = Fraction(2024, 1000), Fraction(2025, 1000)
        ok = ok and compare_scalars(below, thr) < 0 and compare_scalars(above, thr) > 0
        ok = ok and first_wall_bounds(below).bn_semistable
        ok = ok and not first_wall_bounds(above).bn_semistable
        return ok, 4, None

    def check_exceptions():
        cases = [
            (Fraction(127, 2), "mu_63_64", Fraction(2), None),
            (Fraction(63, 2), "mu_31_32", Fraction(1), None),
            (Fraction(65, 2), "mu_32_33", None, Fraction(-3)),
            (Fraction(16), None, Fraction(1, 2), Fraction(-7, 2)),
        ]
        samples = 0
        for mu, tag, b2, b1 in cases:
            fw = first_wall_bounds(mu)
            samples += 1
            if fw.exceptional_case != tag:
                return False, samples, {"mu": format_scalar(mu), "tag": fw.exceptional_case}
            if b2 is not None and fw.beta2_max != b2:
                return False, samples, {"mu": format_scalar(mu), "beta2": format_scalar(fw.beta2_max)}
            if b1 is not None and fw.beta1_min != b1:
                return False, samples, {"mu": format_scalar(mu), "beta1": format_scalar(fw.beta1_min)}
        # width property over a grid
        for k in range(0, 257):
            mu = Fraction(64 * k, 256)
            fw = first_wall_bounds(mu)
            width = fw.beta2_max - fw.beta1_min
            limit = Fraction(4) if fw.exceptional_case is None else Fraction(4) + Fraction(1, 32)
            samples += 1
            if width > limit or fw.beta1_min < -4 or fw.beta2_max > 4:
                return False, samples, {"mu": format_scalar(mu), "width": format_scalar(width)}
        return True, samples, None

    def check_lattice():
        samples = 0
        for r in range(1, _LATTICE_BOUND + 1):
            for c in range(-_LATTICE_BOUND, _LATTICE_BOUND + 1):
                s_max = (4 * c * c + 1) // r
                ch2_over_r = Fraction(s_max - r, r)
                samples += 1
                if compare_scalars(ch2_over_r, gamma_curve(Fraction(c, r))) > 0:
                    return False, samples, {"r": r, "c": c, "s": s_max}
        return True, samples, None

    def check_gamma_dominated():
        samples = 0
        for k in range(-256, 257):
            xv = Fraction(k, 64)
            g = gamma_curve(xv)
            samples += 1
            cap = 4 * xv * xv
            cmp = compare_scalars(g, cap)
            if xv.denominator == 1:
                if cmp != 0:
                    return False, samples, {"x": format_scalar(xv)}
            elif cmp >= 0:
                return False, samples, {"x": format_scalar(xv)}
        return True, samples, None

    def check_wall_q_invariance():
        rng = random.Random(0xB10C)
        samples = 0
        for _ in range(1000):
            r = rng.randrange(1, 6)
            c1 = Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4)))
            c2 = Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4, 8)))
            c3 = Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4, 8)))
            v = chern.ChernVec(chern.X24, (r, c1, c2, c3))
            a4, b4 = rng.randrange(1, 9), rng.randrange(-8, 9)
            p0 = tilt.TiltParams(Fraction(a4, 4), Fraction(b4, 4))
            # p1 = (1 - t)*p0 + t*p_H(v) with p0 = (a4, b4)/4, t = t7/7 and
            # p_H(v) = (c2, c1)/r, each coordinate one Fraction over 28*r*den(c)
            t7 = rng.randrange(1, 5)
            p1 = tilt.TiltParams(
                Fraction((7 - t7) * a4 * r * c2.denominator + 4 * t7 * c2.numerator, 28 * r * c2.denominator),
                Fraction((7 - t7) * b4 * r * c1.denominator + 4 * t7 * c1.numerator, 28 * r * c1.denominator),
            )
            samples += 1
            try:
                ok = tilt.wall_q_invariance_check(v, p0, p1)
            except tilt.PreconditionError:  # p1 is off the determinant's wall
                ok = False
            if not ok:
                return False, samples, {"v": str(v)}
        return True, samples, None

    return _run_checks(perturb, [
        ("walls_gamma_secant_relation", check_secant, True),
        ("walls_bn_threshold_root", check_threshold, False),
        ("walls_first_wall_exceptions", check_exceptions, False),
        ("walls_mukai_lattice_below_gamma", check_lattice, False),
        ("walls_gamma_below_parabola", check_gamma_dominated, False),
        ("walls_q_invariance_randomized", check_wall_q_invariance, False),
    ])


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

_SUITES = {
    "radicals": suite_radicals,
    "q00": suite_q00,
    "breakpoints": suite_breakpoints,
    "clifford": suite_clifford,
    "prop52": suite_prop52,
    "walls": suite_walls,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, **params):
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](**params)


def _control(name: str, reports, params: dict) -> VerificationReport:
    """The negative control of suite ``name`` over its unperturbed ``reports``."""

    def control():
        perturbed = {r.check_name: r for r in _SUITES[name](perturb=True, **params)}
        failing = [r.check_name for r in reports if perturbed.get(r.check_name, r).status == "fail"]
        return bool(failing), len(reports), {"failing_checks": failing}

    return _run(f"{name}_negative_control", control)


def negative_control(name: str, **params) -> VerificationReport:
    """Run suite ``name`` with its target perturbed; pass iff some check fails.

    Only the checks that read ``perturb`` re-run; their reports replace the
    suite's own by name, and every other check carries its suite report,
    which a re-run on the same deterministic inputs would repeat.
    ``samples_tested`` is the suite's check count and the witness lists the
    failing checks in suite order.
    """
    return _control(name, run_suite(name, **params), params)


def run_suites(names=None, grid: int = 64, with_controls: bool = True):
    """Run the requested suites (all by default); returns (reports, all_ok)."""
    names = list(names) if names else list(SUITE_NAMES)
    reports: list[VerificationReport] = []
    for name in names:
        params = {"grid_denominator": grid} if name == "q00" else {}
        suite_reports = run_suite(name, **params)
        reports.extend(suite_reports)
        if with_controls:
            reports.append(_control(name, suite_reports, params))
    ok = all(r.status != "fail" for r in reports)
    return reports, ok
