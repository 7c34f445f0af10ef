import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbound.cli import MAX_GRID, MAX_SAMPLES, main
from tiltbound.exactnum import QuadNum, parse_scalar, compare_scalars
from tiltbound.tilt import TiltParams
from tiltbound.walls import WallLine


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_bg_linear(capsys):
    code, out, _ = run_cli(["eval", "--bound", "bg-x24-linear", "--at", "1/2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1/32"
    assert lines[1].startswith("0.03125")


def test_eval_clifford(capsys):
    code, out, _ = run_cli(["eval", "--bound", "clifford", "--r", "1", "--d", "16"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "9/4"


def test_eval_clifford_uncovered_band(capsys):
    code, out, err = run_cli(["eval", "--bound", "clifford", "--r", "1", "--d", "32"], capsys)
    assert code == 2
    assert "SlopeOutsideTheorem" in err


def test_eval_round_trip(capsys):
    for args in (
        ["eval", "--bound", "gamma", "--at=-7/2"],
        ["eval", "--bound", "spade", "--at", "0"],
        ["eval", "--bound", "bg-surface", "--at", "1/10"],
    ):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        text = out.splitlines()[0]
        assert compare_scalars(parse_scalar(text), parse_scalar(text)) == 0


def test_eval_huge_irrational_argument(capsys):
    at = f"{10**400}+1*sqrt(2)"
    code, out, _ = run_cli(["eval", "--bound", "gamma", "--at", at], capsys)
    assert code == 0
    x = parse_scalar(at)
    n = 10**400 + 1  # nearest integer to x
    assert compare_scalars(parse_scalar(out.splitlines()[0]), 4 * x * x - 1 + (x - n) * (x - n)) == 0
    code, _, err = run_cli(["eval", "--bound", "spade", "--at", at], capsys)
    assert code == 2 and "SlopeOutOfTable" in err


def test_eval_hostile_radicand_exits_2(capsys):
    # the product of two primes near 2^64: Pollard rho finds no factor within
    # its step cap (about 2.5 s), so square_free_core gives up with ExactError
    at = "1+1*sqrt(340282366939157698677334770713458594567)"
    code, _, err = run_cli(["eval", "--bound", "gamma", "--at", at], capsys)
    assert code == 2 and "ExactError" in err and "rho steps" in err


def test_eval_value_too_long_to_print_exits_2(capsys):
    # Gamma(10^5000) is computed exactly, but its numerator has more digits
    # than the interpreter writes as text, so printing it is refused by name
    code, out, err = run_cli(["eval", "--bound", "gamma", "--at", "1e5000"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("ExactError: cannot write a ") and "-digit limit" in err


def test_eval_square_of_a_large_prime_radicand(capsys):
    # 1800269641579**2 * 6: the square cofactor is rooted, not given to rho
    at = "1+1*sqrt(19445824694345886753679446)"
    assert parse_scalar(at) == QuadNum(1, 1800269641579, 6)
    code, out, _ = run_cli(["eval", "--bound", "gamma", "--at", at], capsys)
    assert code == 0
    assert out.splitlines()[0] == "116674948166077887549746497-15877449376240005495867504*sqrt(6)"


def test_eval_missing_argument(capsys):
    code, _, err = run_cli(["eval", "--bound", "gamma"], capsys)
    assert code == 2 and "UsageError" in err


def test_wall_first(capsys):
    code, out, _ = run_cli(["wall", "first", "--mu", "16"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "beta1_min": "-7/2",
        "beta2_max": "1/2",
        "bn_semistable": False,
        "exceptional_case": None,
    }
    code, out, _ = run_cli(["wall", "first", "--mu", "2"], capsys)
    assert json.loads(out)["bn_semistable"] is True
    code, out, _ = run_cli(["wall", "first", "--mu", "127/2"], capsys)
    data = json.loads(out)
    assert data["exceptional_case"] == "mu_63_64" and data["beta2_max"] == "2"


def test_wall_nested(capsys):
    chern = json.dumps({"context": "X24", "c": ["1", "0", "0", "0"]})
    code, out, _ = run_cli(
        ["wall", "nested", "--chern", chern, "--alpha", "1/2", "--beta", "-1"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"alpha_coeff": "1", "beta_coeff": "1/2", "constant": "0"}


_NESTED_V = json.dumps({"context": "X24", "c": ["1", "2", "1/2", "0"]})  # p_H(v) = (1/2, 2)


@pytest.mark.parametrize(
    "alpha, beta",
    [("1+1*sqrt(2)", "1/2"), ("1/2", "1+1*sqrt(2)"), ("1*sqrt(2)", "1-1*sqrt(2)"),
     ("3*sqrt(5)", "-1/3*sqrt(5)"), ("2*sqrt(4)", "1/2"), ("1/2", "2*sqrt(4)"),
     ("1*sqrt(2)", "1*sqrt(3)")],
)
def test_wall_nested_quadratic_irrational_parameters(capsys, alpha, beta):
    argv = ["wall", "nested", "--chern", _NESTED_V, f"--alpha={alpha}", f"--beta={beta}"]
    code, out, err = run_cli(argv, capsys)
    a, b = parse_scalar(alpha), parse_scalar(beta)
    radicands = {x.m for x in (a, b) if getattr(x, "m", 0)}
    if len(radicands) == 2:
        assert code == 2 and "MixedRadicandError" in err
        return
    assert code == 0, err
    data = json.loads(out)
    line = WallLine(*(parse_scalar(data[k]) for k in ("alpha_coeff", "beta_coeff", "constant")))
    assert line.evaluate(TiltParams(a, b)) == 0
    assert line.evaluate(TiltParams(F(1, 2), 2)) == 0


def test_wall_nested_refuses_a_curve_character(capsys):
    chern = json.dumps({"context": "C2224", "c": ["1", "2"]})
    code, _, err = run_cli(["wall", "nested", "--chern", chern, "--alpha", "1", "--beta", "1"], capsys)
    assert code == 2 and "WrongContext" in err


def test_wall_out_of_range(capsys):
    code, _, err = run_cli(["wall", "first", "--mu", "65"], capsys)
    assert code == 2 and "OutOfRange" in err


def test_verify_single_suite(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        ["verify", "--suite", "breakpoints", "--out", str(out_path)], capsys
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert all(r["status"] == "pass" for r in data)
    assert any("negative_control" in r["check_name"] for r in data)


def test_verify_grid_validation(capsys):
    code, _, err = run_cli(["verify", "--suite", "q00", "--grid", "1"], capsys)
    assert code == 2


def test_emit_bg(capsys, tmp_path):
    path = tmp_path / "bg.csv"
    code, _, _ = run_cli(["emit", "--figure", "bg", "--samples", "4", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,bg_bound,classical_bound"
    assert len(lines) == 5
    # x = 1/4: (5/8)(1/16) - 1/8 = -11/128
    first = lines[1].split(",")
    assert first[0].startswith("0.25")
    assert abs(float(first[1]) - (-11 / 128)) < 1e-9
    assert abs(float(first[2]) - (1 / 32)) < 1e-9


def test_emit_clifford_rows(capsys, tmp_path):
    path = tmp_path / "c.csv"
    code, _, _ = run_cli(
        ["emit", "--figure", "clifford", "--samples", "2", "--out", str(path)], capsys
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "mu,h0_over_r"
    assert len(lines) == 3  # mu = 8, 16
    assert lines[1].split(",")[0].startswith("8")
    assert lines[2].split(",")[0].startswith("16")


def test_emit_gamma_and_determinism(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        code, _, _ = run_cli(["emit", "--figure", "gamma", "--samples", "16", "--out", str(p)], capsys)
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()  # LF endings


def test_emit_zero_samples(capsys):
    code, _, err = run_cli(["emit", "--figure", "gamma", "--samples", "0"], capsys)
    assert code == 2


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TILTBOUND_PRECISION", "6")
    code, out, _ = run_cli(["eval", "--bound", "bg-x24-linear", "--at", "1/2"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "0.0312500"
    monkeypatch.setenv("TILTBOUND_PRECISION", "99")
    code, _, err = run_cli(["eval", "--bound", "bg-x24-linear", "--at", "1/2"], capsys)
    assert code == 2 and "UsageError" in err


def test_console_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tiltbound.cli", "eval", "--bound", "gamma", "--at", "1/2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1/4"


def test_option_spelled_with_double_dash_value_is_a_usage_error(capsys):
    for args in (
        ["eval", "--bound", "gamma", "--at=--"],
        ["eval", "--bound", "clifford", "--r=--", "--d", "1"],
        ["wall", "first", "--mu=--"],
        ["--precision=--", "eval", "--bound", "gamma", "--at", "1"],
    ):
        code, _, err = run_cli(args, capsys)
        assert code == 2 and "UsageError" in err, args


def test_run_sizes_have_upper_bounds(capsys):
    # rejected before any suite or sample runs
    code, _, err = run_cli(["verify", "--suite", "q00", "--grid", str(MAX_GRID + 1)], capsys)
    assert code == 2 and "UsageError" in err
    code, _, err = run_cli(["emit", "--figure", "bg", "--samples", str(MAX_SAMPLES + 1)], capsys)
    assert code == 2 and "UsageError" in err
    code, _, err = run_cli(["emit", "--figure", "bg", "--samples", "100000000000"], capsys)
    assert code == 2 and "UsageError" in err


def test_malformed_values_are_domain_errors(capsys):
    for args, name in (
        (["eval", "--bound", "spade", "--at", "1", "--y", "1/0"], "ParseError"),
        (["wall", "first", "--mu", "1/0"], "ParseError"),
        (["wall", "nested", "--chern", "[1]", "--alpha", "1", "--beta", "0"], "ChernError"),
        (["wall", "nested", "--chern", '{"context": "X24", "c": [1, 0, 0, 0]}', "--alpha", "1", "--beta", "0"], "ChernError"),
        (["wall", "nested", "--chern", "[" * 100_000, "--alpha", "1", "--beta", "0"], "ChernError"),
        (["emit", "--figure", "bg", "--samples", "2", "--out", "/nonexistent-dir/x.csv"], "FileNotFoundError"),
    ):
        code, _, err = run_cli(args, capsys)
        assert code == 2 and name in err, args


def test_bg_x24_accepts_quadratic_irrationals(capsys):
    code, out, _ = run_cli(["eval", "--bound", "bg-x24-quadratic", "--at", "1+1*sqrt(2)"], capsys)
    assert code == 0
    # reduced slope sqrt(2) - 1 lies on the piece 5x^2/8 - 1/8
    assert compare_scalars(parse_scalar(out.splitlines()[0]), parse_scalar("7/4-5/4*sqrt(2)")) == 0
    code, _, err = run_cli(["eval", "--bound", "bg-x24-linear", "--at", "1*sqrt(2)"], capsys)
    assert code == 2 and "OutOfDomain" in err


_VALUES = st.sampled_from(
    ["--", "", "0", "1", "-1", "7/2", "-7/2", "1/0", "abc", "1+1*sqrt(2)", "1/2*sqrt(2)",
     "1*sqrt(0)", "1*sqrt(-2)", "1e999999", "[1]", "{}", '{"context": "X24", "c": ["1", "0", "0", "0"]}']
) | st.fractions(min_value=-100, max_value=100, max_denominator=50).map(str)


@st.composite
def _argv(draw):
    """argv within the documented grammar; values may be hostile, but verify
    and emit sizes stay rejected or tiny so no large run starts."""
    argv = []

    def opt(name, value):
        if draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv.extend([name, value])

    if draw(st.booleans()):
        opt("--precision", draw(st.sampled_from(["--", "3", "8", "65", "x"])))
    command = draw(st.sampled_from(["eval", "wall first", "wall nested", "emit", "verify"]))
    argv.extend(command.split())
    if command == "eval":
        kinds = ["clifford", "bg-surface", "bg-x24-linear", "bg-x24-quadratic", "spade", "gamma"]
        opt("--bound", draw(st.sampled_from(kinds)))
        for name in ("--at", "--r", "--d", "--y"):
            if draw(st.booleans()):
                opt(name, draw(_VALUES | st.integers(-100, 100).map(str)))
        if draw(st.booleans()):
            argv.append("--fallback")
    elif command == "wall first":
        opt("--mu", draw(_VALUES))
    elif command == "wall nested":
        for name in ("--chern", "--alpha", "--beta"):
            opt(name, draw(_VALUES))
    elif command == "emit":
        opt("--figure", draw(st.sampled_from(["gamma", "clifford", "bg", "x"])))
        small = st.integers(-3, 6) | st.integers(MAX_SAMPLES + 1, 10**15)
        opt("--samples", draw(small.map(str) | st.just("--")))
    else:
        opt("--suite", draw(st.sampled_from(["all", "q00", "radicals", "--"])))
        rejected = st.integers(-(10**9), 31) | st.integers(MAX_GRID + 1, 10**15)
        opt("--grid", draw(rejected.map(str) | st.just("--")))
    return argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_argv())
def test_hostile_argv_exits_0_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2), argv
