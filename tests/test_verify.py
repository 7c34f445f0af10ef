import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from tiltbound import bounds, chern, tilt, walls
from tiltbound.bounds import bg_quadratic_family, piecewise_check
from tiltbound.exactnum import Poly1, format_scalar
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
    # one coefficient of any piece in bounds.CLIFFORD_PIECES fails some case
    assert {piece for first, second, _ in _PROP52_CASES.values() for piece in (first, second)} == set(bounds.CLIFFORD_PIECES)
    for piece, pair in bounds.CLIFFORD_PIECES.items():
        for side in (0, 1):
            for i in range(len(pair[side].coeffs)):
                changed = list(pair)
                changed[side] += Poly1([0] * i + [1])
                with monkeypatch.context() as m:
                    m.setitem(bounds.CLIFFORD_PIECES, piece, tuple(changed))
                    assert not all(_prop52_holds(*case) for case in _PROP52_CASES.values()), (piece, side, i)
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


@pytest.mark.parametrize("at", [0, _K_PER_RANGE])
def test_residual_check_fails_on_a_shifted_root(monkeypatch, at):
    # one intersection moved by 1/10^6 must fail the check at that sample
    # (an irrational root at sample 0, a rational one at the first sample
    # of the next range), with the residual k*x - Gamma_n(x) as witness
    exact, calls = walls.line_gamma_intersection, []

    def shifted(k, side):
        x = exact(k, side) + (F(1, 10**6) if len(calls) == at else 0)
        calls.append((k, side, x))
        return x

    monkeypatch.setattr(walls, "line_gamma_intersection", shifted)
    rep = next(r for r in run_suite("radicals") if r.check_name == "radicals_x0_x1_residuals")
    assert (rep.status, rep.samples_tested) == ("fail", at + 1)
    k, side, x = calls[at]
    n = _INTERSECT_RANGES[side][at // _K_PER_RANGE][2]
    residual = k * x - walls.gamma_piece(n).evaluate(x)
    assert rep.witness == {
        "side": side,
        "k": format_scalar(k),
        "x": format_scalar(x),
        "residual": format_scalar(residual),
    }


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
