import json
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from tiltbound import bounds, chern, tilt, verify, walls
from tiltbound.bounds import bg_quadratic_family, piecewise_check
from tiltbound.exactnum import Poly1, QuadNum, compare_scalars, format_scalar, scalar_sign
from tiltbound.verify import (
    _INTERSECT_RANGES,
    _K_PER_RANGE,
    _PROP52_CASES,
    _perturbed_linear_family,
    _prop52_holds,
    reports_to_json,
    run_suite,
    run_suites,
)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_q00_grid_minimum():
    with pytest.raises(ValueError):
        run_suite("q00", grid_denominator=16)


def test_fast_suites_pass():
    for name in ("radicals", "breakpoints", "prop52", "walls"):
        reports = run_suite(name)
        assert reports, name
        assert all(r.status == "pass" for r in reports), name


def test_prop52_identities_fail_under_each_one_coefficient_change():
    # the suite's control perturbs case 3 only; each identity must be able to fail
    for case, (first, second, target) in _PROP52_CASES.items():
        assert _prop52_holds(first, second, target), case
        for side in (0, 1):
            for i in range(len(target[side].coeffs)):
                changed = list(target)
                changed[side] += Poly1([0] * i + [1])
                assert not _prop52_holds(first, second, tuple(changed)), (case, side, i)


def test_prop52_reads_the_library_clifford_pieces(monkeypatch):
    # the cases use bn + linear, bn + high and low + high, so a change of any
    # one coefficient of any piece of bounds.clifford_family fails some case
    pieces = bounds.clifford_family.pieces
    assert {piece for first, second, _ in _PROP52_CASES.values() for piece in (first, second)} == {p.name for p in pieces}
    for k, piece in enumerate(pieces):
        for side in ("poly", "den"):
            poly = getattr(piece, side)
            for i in range(len(poly.coeffs)):
                changed = list(pieces)
                changed[k] = replace(piece, **{side: poly + Poly1([0] * i + [1])})
                with monkeypatch.context() as m:
                    m.setattr(bounds, "clifford_family", bounds.PiecewiseBound("clifford", changed))
                    assert not all(_prop52_holds(*case) for case in _PROP52_CASES.values()), (piece.name, side, i)
    assert all(_prop52_holds(*case) for case in _PROP52_CASES.values())


def test_q00_suite_passes_and_counts_samples():
    reports = run_suite("q00", grid_denominator=64)
    assert all(r.status == "pass" for r in reports)
    grid = next(r for r in reports if r.check_name == "q00_constrained_grid_nonnegativity")
    assert grid.samples_tested >= 5000


def test_dominance_witness_is_the_minimizer():
    # the perturbed piece 2 (-1/4 + 7x/16 on [1/5, 1/2]) dips below the
    # quadratic family; its difference is -1/16 at both ends and -31/640 at
    # the critical point 7/20, so the first minimizer 1/5 is the witness
    f, g = _perturbed_linear_family(), bg_quadratic_family
    rep = piecewise_check(f, "dominance", g)
    x, v = rep.details[2]
    assert not rep.ok and (x, v) == (F(1, 5), F(-1, 16))
    assert v == f.pieces[1].value(x) - g.pieces[1].value(x)
    # no piece pair is smaller anywhere on its overlap hull (the grid holds
    # every hull end and critical point of these pairs)
    for pf in f.pieces:
        for pg in g.pieces:
            lo = max(pf.interval.lo, pg.interval.lo)
            hi = min(pf.interval.hi, pg.interval.hi)
            for t in (F(k, 1000) for k in range(1001)):
                if lo <= t <= hi:
                    assert v <= pf.value(t) - pg.value(t), (t, pf, pg)


def test_report_schema_and_failure_witness():
    reports = run_suite("walls", perturb=True)
    failing = [r for r in reports if r.status == "fail"]
    assert failing
    for r in failing:
        assert r.witness is not None  # fail => witness present
    data = json.loads(reports_to_json(reports))
    for row in data:
        assert set(row) <= {"check_name", "status", "samples_tested", "witness", "elapsed"}
        assert {"check_name", "status", "samples_tested", "elapsed"} <= set(row)


def test_determinism_modulo_elapsed():
    a = run_suite("walls")
    b = run_suite("walls")

    def strip(reports):
        return [
            {k: v for k, v in r.to_dict().items() if k != "elapsed"} for r in reports
        ]

    assert strip(a) == strip(b)


def test_run_suites_exit_semantics():
    reports, ok = run_suites(["breakpoints"], with_controls=False)
    assert ok and all(r.status == "pass" for r in reports)


VERIFY_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "refdata" / "verify_checks.json"


def test_run_suites_matches_recorded_check_list():
    # the recorded list the benchmark gates on: every check's name, status
    # and sample count, and each control's failing checks, in run order
    expected = json.loads(VERIFY_CHECKS.read_text())
    reports, ok = run_suites()
    assert ok
    got = []
    for r in reports:
        row = {"check_name": r.check_name, "status": r.status, "samples_tested": r.samples_tested}
        if r.check_name.endswith("_negative_control"):
            row["failing_checks"] = r.witness["failing_checks"]
        got.append(row)
    assert got == expected


@pytest.mark.parametrize(
    "at, shift",
    [
        pytest.param(0, "rational", id="0"),
        pytest.param(_K_PER_RANGE, "rational", id="200"),
        pytest.param(0, "radical", id="0-radical"),
        pytest.param(3 * _K_PER_RANGE + 17, "radical", id="617-radical"),
        pytest.param(0, "slope 0", id="0-slope0"),
        pytest.param(3 * _K_PER_RANGE, "slope 0", id="600-slope0"),
    ],
)
def test_residual_check_fails_on_a_shifted_root(monkeypatch, at, shift):
    # one wrong intersection must fail the check at that sample, with the
    # residual k*x - Gamma_n(x) as witness.  The root is moved by 1/10^6 (an
    # irrational root at sample 0, a rational one at the first sample of the
    # next range), or by sqrt(m)/10^6 at an irrational root over sqrt(m),
    # or replaced by the root at slope 0 on the same piece n = 0: there
    # k*x - Gamma_0(x) = k*x is a multiple of sqrt(5), so only the sqrt(m)
    # part of the residual is nonzero
    exact, calls = walls.line_gamma_intersection, []

    def shifted(k, side):
        x = exact(k, side)
        if len(calls) == at:
            if shift == "rational":
                x = x + F(1, 10**6)
            elif shift == "radical":
                assert isinstance(x, QuadNum) and x.b
                x = x + QuadNum(0, F(1, 10**6), x.m)
            else:
                assert k != 0
                x = exact(0, side)
        calls.append((k, side, x))
        return x

    monkeypatch.setattr(walls, "line_gamma_intersection", shifted)
    rep = next(r for r in run_suite("radicals") if r.check_name == "radicals_x0_x1_residuals")
    assert (rep.status, rep.samples_tested) == ("fail", at + 1)
    k, side, x = calls[at]
    ranges = [r for table in _INTERSECT_RANGES.values() for r in table]
    n = ranges[at // _K_PER_RANGE][2]
    residual = k * x - walls.gamma_piece(n).evaluate(x)
    if shift == "slope 0":
        assert n == 0 and residual == k * x and residual.a == 0 and residual.m == 5
    assert rep.witness == {
        "side": side,
        "k": format_scalar(k),
        "x": format_scalar(x),
        "residual": format_scalar(residual),
    }


def test_passing_residual_check_evaluates_no_poly1(monkeypatch):
    # the residuals are decided on integers: a pass makes one intersection
    # per sample and builds no Poly1 residual to evaluate
    intersections, evaluations, counts = [], [], {}
    exact, evaluate, real_run = walls.line_gamma_intersection, Poly1.evaluate, verify._run

    def counting_intersection(k, side):
        intersections.append(k)
        return exact(k, side)

    def counting_evaluate(self, x):
        evaluations.append(x)
        return evaluate(self, x)

    def run(name, fn):
        before = len(intersections), len(evaluations)
        rep = real_run(name, fn)
        counts[name] = (len(intersections) - before[0], len(evaluations) - before[1])
        return rep

    monkeypatch.setattr(walls, "line_gamma_intersection", counting_intersection)
    monkeypatch.setattr(Poly1, "evaluate", counting_evaluate)
    monkeypatch.setattr(verify, "_run", run)
    rep = next(r for r in run_suite("radicals") if r.check_name == "radicals_x0_x1_residuals")
    assert (rep.status, rep.samples_tested) == ("pass", 1600)
    assert counts["radicals_x0_x1_residuals"] == (1600, 0)


def _reference_wall_q_samples():
    """The (v, p0, p1) of walls_q_invariance_randomized as first written:
    p1 = p0 + t*(p_H(v) - p0) in Fraction arithmetic on v's H-numbers."""
    rng = random.Random(0xB10C)
    out = []
    for _ in range(1000):
        c0 = F(rng.randrange(1, 6))
        c1 = F(rng.randrange(-8, 9), rng.choice((1, 2, 4)))
        c2 = F(rng.randrange(-8, 9), rng.choice((1, 2, 4, 8)))
        c3 = F(rng.randrange(-8, 9), rng.choice((1, 2, 4, 8)))
        v = chern.ChernVec(chern.X24, (c0, c1, c2, c3))
        a0 = F(rng.randrange(1, 9), 4)
        b0 = F(rng.randrange(-8, 9), 4)
        p0 = tilt.TiltParams(a0, b0)
        r0, s2, s1 = v.inum(0), v.inum(2), v.inum(1)
        t = F(rng.randrange(1, 5), 7)
        a1 = a0 + t * (s2 / r0 - a0)
        b1 = b0 + t * (s1 / r0 - b0)
        out.append((v, p0, tilt.TiltParams(a1, b1)))
    return out


def test_wall_q_check_draws_the_reference_samples(monkeypatch):
    drawn = []

    def record(v, p0, p1):
        drawn.append((v, p0, p1))
        return True

    monkeypatch.setattr(tilt, "wall_q_invariance_check", record)
    rep = next(r for r in run_suite("walls") if r.check_name == "walls_q_invariance_randomized")
    assert (rep.status, rep.samples_tested) == ("pass", 1000)
    assert drawn == _reference_wall_q_samples()


def _reference_wall_q(v, p0, p1):
    """wall_q_invariance_check on X24 as first written, on the weighted frame
    of v.inums(): True, False, or PreconditionError off the wall."""
    _, _, nums, (a0, a1), (b0, b1) = chern.weighted_frame(v.inums(), (p0.alpha, p1.alpha), (p0.beta, p1.beta))
    if scalar_sign(tilt.wall_det_core(nums, a1, b1, a0, b0)) != 0:
        return tilt.PreconditionError
    tw0, tw1 = tilt.twist_core(nums, b0), tilt.twist_core(nums, b1)
    return compare_scalars(tw1[1] * tilt.q_core(nums, a0, b0, tw0), tw0[1] * tilt.q_core(nums, a1, b1, tw1)) == 0


def _wall_q_verdict(v, p0, p1):
    try:
        return tilt.wall_q_invariance_check(v, p0, p1)
    except tilt.PreconditionError:
        return tilt.PreconditionError


def _wall_q_battery():
    """The check's 1,000 samples, 200 rank-0 characters and 200 samples with
    QuadNum parameters, each on its wall and then moved off it by alpha + 1."""
    rng = random.Random(29)
    samples = _reference_wall_q_samples()
    for _ in range(200):
        c = (F(0), *(F(rng.randrange(-8, 9), rng.choice((1, 2, 4, 8))) for _ in range(3)))
        v = chern.ChernVec(chern.X24, c)
        p0 = tilt.TiltParams(F(rng.randrange(1, 9), 4), F(rng.randrange(-8, 9), 4))
        t = F(rng.randrange(1, 5), 7)
        # rank 0: the wall through p0 runs along (H.ch2, H^2.ch1)
        samples.append((v, p0, tilt.TiltParams(p0.alpha + t * v.inum(2), p0.beta + t * v.inum(1))))
    r2 = QuadNum(0, 1, 2)
    for _ in range(200):
        c = (F(rng.randrange(1, 6)), *(F(rng.randrange(-8, 9), rng.choice((1, 2, 4, 8))) for _ in range(3)))
        v = chern.ChernVec(chern.X24, c)
        p0 = tilt.TiltParams(F(rng.randrange(1, 9), 4) + r2 / rng.randrange(1, 5), F(rng.randrange(-8, 9), 3) - r2 / 7)
        t = F(rng.randrange(1, 7), 9)
        r = v.inum(0)
        samples.append((v, p0, tilt.TiltParams(p0.alpha + t * (v.inum(2) / r - p0.alpha), p0.beta + t * (v.inum(1) / r - p0.beta))))
    return samples + [(v, p0, tilt.TiltParams(p1.alpha + 1, p1.beta)) for v, p0, p1 in samples]


@pytest.mark.parametrize("mutant", [False, True])
def test_wall_q_frame_matches_the_inums_frame(monkeypatch, mutant):
    # framing v.c and scaling by the degree scales the determinant and both
    # sides of the identity by positive constants, so every verdict is the
    # inums frame's, with q_core and with its 5-for-6 mutant
    if mutant:
        real = tilt.q_core
        monkeypatch.setattr(tilt, "q_core", lambda nums, a, b, tw: real(nums, a, b, tw) + tw[1] * tw[3])
    battery = _wall_q_battery()
    verdicts = [_wall_q_verdict(*sample) for sample in battery]
    assert verdicts == [_reference_wall_q(*sample) for sample in battery]
    assert set(verdicts) == ({False, True, tilt.PreconditionError} if mutant else {True, tilt.PreconditionError})
