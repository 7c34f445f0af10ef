"""Command-line front end.

Subcommands: ``eval`` (bounds and curves at a point), ``wall`` (first-wall
bounds and nested wall lines), ``verify`` (certificate suites, exit 1 on
failure), ``emit`` (CSV data behind the three figures).  All computation is
exact; rounding happens only when rendering decimals (precision_digits,
overridable via TILTBOUND_PRECISION).  Exit codes: 0 success, 1
verification failure, 2 usage or domain error.  Run sizes are bounded:
``verify --grid`` in [32, 512], ``emit --samples`` in [1, 50000].
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import verify as verify_mod
from .bounds import (
    BoundsError,
    bg_bound_surface,
    bg_bound_threefold,
    classical_bogomolov,
    clifford_bound,
    spade,
)
from .chern import ChernError, ChernVec
from .convexopt import ConvexOptError
from .exactnum import ExactError, decimal_str, format_scalar, parse_rat, parse_scalar
from .tilt import TiltError, TiltParams
from .walls import WallError, first_wall_bounds, gamma_curve, nested_wall_line

_DEFAULT_PRECISION = 12
MAX_GRID = 512  # verify --grid: the q00 sweep visits (2*grid + 1)^2 points twice
MAX_SAMPLES = 50_000  # emit --samples


class UsageError(Exception):
    pass


def _precision(args) -> int:
    digits = getattr(args, "precision", None)
    if digits is None:
        env = os.environ.get("TILTBOUND_PRECISION")
        digits = int(env) if env else _DEFAULT_PRECISION
    if not 4 <= digits <= 64:
        raise UsageError("precision_digits must lie in [4, 64]")
    return digits


def cmd_eval(args) -> int:
    digits = _precision(args)
    kind = args.bound
    if kind == "clifford":
        if args.r is None or args.d is None:
            raise UsageError("clifford needs --r and --d")
        value = clifford_bound((args.r, args.d))
    else:
        if args.at is None:
            raise UsageError(f"{kind} needs --at")
        at = parse_scalar(args.at)
        if kind == "bg-surface":
            value = bg_bound_surface(at)
        elif kind == "bg-x24-linear":
            value = bg_bound_threefold(at, family="linear")
        elif kind == "bg-x24-quadratic":
            value = bg_bound_threefold(at, family="quadratic")
        elif kind == "gamma":
            value = gamma_curve(at)
        elif kind == "spade":
            value = spade((at, parse_rat(args.y)), fallback=args.fallback)
        else:  # pragma: no cover - argparse restricts choices
            raise UsageError(f"unknown bound {kind}")
    print(format_scalar(value))
    print(decimal_str(value, digits))
    return 0


def cmd_wall(args) -> int:
    if args.which == "first":
        fw = first_wall_bounds(parse_rat(args.mu))
        payload = {
            "beta1_min": format_scalar(fw.beta1_min),
            "beta2_max": format_scalar(fw.beta2_max),
            "bn_semistable": fw.bn_semistable,
            "exceptional_case": fw.exceptional_case,
        }
    else:  # nested
        v = ChernVec.from_json(args.chern)
        line = nested_wall_line(v, TiltParams(parse_scalar(args.alpha), parse_scalar(args.beta)))
        payload = {
            "alpha_coeff": format_scalar(line.a),
            "beta_coeff": format_scalar(line.b),
            "constant": format_scalar(line.c),
        }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_verify(args) -> int:
    names = None if args.suite == "all" else [args.suite]
    if args.grid is not None and not 32 <= args.grid <= MAX_GRID:
        raise UsageError(f"--grid must lie in [32, {MAX_GRID}]")
    grid = args.grid if args.grid is not None else 64
    reports, ok = verify_mod.run_suites(names, grid=grid)
    text = verify_mod.reports_to_json(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for r in reports:
        print(f"{r.check_name}: {r.status} ({r.samples_tested} samples)", file=sys.stderr)
    return 0 if ok else 1


def _csv_row(cells) -> str:
    out = []
    for cell in cells:
        if any(ch in cell for ch in (",", '"', "\n")):
            cell = '"' + cell.replace('"', '""') + '"'
        out.append(cell)
    return ",".join(out)


def cmd_emit(args) -> int:
    digits = _precision(args)
    n = args.samples
    if not 1 <= n <= MAX_SAMPLES:
        raise UsageError(f"--samples must lie in [1, {MAX_SAMPLES}]")
    rows: list[list[str]] = []
    if args.figure == "gamma":
        header = ["x", "gamma"]
        for k in range(0, n + 1):
            x = Fraction(-4) + Fraction(8 * k, n)
            rows.append([decimal_str(x, digits), decimal_str(gamma_curve(x), digits)])
    elif args.figure == "clifford":
        header = ["mu", "h0_over_r"]
        for k in range(1, n + 1):
            mu = Fraction(16 * k, n)
            value = clifford_bound((mu.denominator, mu.numerator))
            rows.append([decimal_str(mu, digits), decimal_str(value, digits)])
    else:  # bg
        header = ["x", "bg_bound", "classical_bound"]
        for k in range(1, n + 1):
            x = Fraction(k, n)
            bgv = bg_bound_threefold(x, family="quadratic")
            rows.append(
                [
                    decimal_str(x, digits),
                    decimal_str(bgv, digits),
                    decimal_str(classical_bogomolov(x), digits),
                ]
            )
    text = "\n".join([_csv_row(header)] + [_csv_row(r) for r in rows]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltbound",
        description="exact tilt-stability bounds, wall geometry, and verification suites",
    )
    parser.add_argument("--precision", type=int, default=None, help="decimal digits (4..64)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a bound or curve at a point")
    p_eval.add_argument(
        "--bound",
        required=True,
        choices=["clifford", "bg-surface", "bg-x24-linear", "bg-x24-quadratic", "spade", "gamma"],
    )
    p_eval.add_argument("--at", help="rational 'p/q' or 'a+b*sqrt(m)'")
    p_eval.add_argument("--r", type=int, help="rank (clifford)")
    p_eval.add_argument("--d", type=int, help="degree (clifford)")
    p_eval.add_argument("--y", default="1", help="second spade coordinate (default 1)")
    p_eval.add_argument("--fallback", action="store_true", help="allow the universal spade formula")
    p_eval.set_defaults(func=cmd_eval)

    p_wall = sub.add_parser("wall", help="first-wall bounds / nested wall lines")
    wall_sub = p_wall.add_subparsers(dest="which", required=True)
    w_first = wall_sub.add_parser("first")
    w_first.add_argument("--mu", required=True, help="slope of the curve class, rational")
    w_first.set_defaults(func=cmd_wall)
    w_nested = wall_sub.add_parser("nested")
    w_nested.add_argument("--chern", required=True, help='ChernVec JSON {"context":..,"c":[..]}')
    w_nested.add_argument("--alpha", required=True)
    w_nested.add_argument("--beta", required=True)
    w_nested.set_defaults(func=cmd_wall)

    p_verify = sub.add_parser("verify", help="run certificate suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=["all", *verify_mod.SUITE_NAMES],
    )
    p_verify.add_argument("--grid", type=int, default=None, help=f"grid denominator (32..{MAX_GRID})")
    p_verify.add_argument("--out", help="write the JSON report array to a file")
    p_verify.set_defaults(func=cmd_verify)

    p_emit = sub.add_parser("emit", help="emit figure CSV data")
    p_emit.add_argument("--figure", required=True, choices=["gamma", "clifford", "bg"])
    p_emit.add_argument("--samples", type=int, required=True, help=f"1..{MAX_SAMPLES}")
    p_emit.add_argument("--out", help="output path (stdout when omitted)")
    p_emit.set_defaults(func=cmd_emit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses code 2 for usage errors already
        return int(exc.code or 0)
    try:
        # argparse stores [] for an option spelled "--opt=--"
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise UsageError(f"--{name} needs a value")
        return args.func(args)
    except (UsageError, BoundsError, WallError, TiltError, ChernError, ConvexOptError, ExactError,
            ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
