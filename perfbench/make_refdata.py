"""Record the reference files under perfbench/refdata from the current library.

    python3 perfbench/make_refdata.py [verify] [oracle]

verify_checks.json: every check and negative control of ``run_suites()``
with its sample count and, for controls, the checks that fail.

oracle_pool.json: per slope hull, two triangle shapes with the exact
``maximize_reduced`` and ``maximize_bruteforce`` (grid 40) values at
y_P = 1.  Shapes are visited in a fixed shuffled order among those whose
height (lcm of coordinate denominators times the largest coordinate) lies in
the hull's window; a shape is kept when its brute-force time, in units of a
yardstick triangle timed just before it, falls in the hull's band, and, on
a sqrt hull, when square_free_core takes a large share of that time (as on
the acceptance test's triangles).  The
bands keep every triangle of one class at a similar cost, so that a run's
throughput depends little on which shapes a seed draws; the yardstick makes
the bands independent of the machine's speed at the time.
Hulls already in the file are kept; delete the file to re-record all.
Re-record only from a library whose outputs are trusted.
"""

import itertools
import json
import math
import random
import sys
import time
from pathlib import Path

from checkout import use_checkout_src

use_checkout_src()

from tiltbound import convexopt, exactnum, verify  # noqa: E402

from reference import terms_to_json, as_terms  # noqa: E402
from triangles import GRID, HULLS, SQRT_CASES, triangle  # noqa: E402

REFDATA = Path(__file__).resolve().parent / "refdata"
SHAPES_PER_HULL = 2
# height windows (chosen so that the bands below are reachable) and time bands
WINDOWS = {4: (0, 80), 2: (0, 80), 8: (0, 80), 9: (0, 80),
           3: (500, 3000), 5: (300, 3000), 6: (200, 2000), 7: (330, 2000)}
YARDSTICK = (4, (8, 24, 44))  # a rational-hull triangle of about 0.7 s
SQRT_BAND = (3.4, 6.5)  # brute-force time in yardstick units
RATIONAL_BAND = (0.8, 1.4)
# least share of a sqrt-hull brute force spent in square_free_core; the
# DP of cases 6 and 7 resolves many exact ties, so their share stays lower
MIN_SQRT_SHARE = {3: 0.5, 5: 0.5, 6: 0.3, 7: 0.3}
MAX_TRIES = 60


def _height(p, q) -> float:
    coords = (p.x, p.y, q.x, q.y)
    return math.lcm(*(c.denominator for c in coords)) * float(max(abs(c) for c in coords))


def _bruteforce(p, q) -> tuple:
    """(result, wall s, s spent in square_free_core) of one brute force."""
    inner = exactnum.square_free_core
    spent = 0.0

    def timed(n):
        nonlocal spent
        t0 = time.perf_counter()
        try:
            return inner(n)
        finally:
            spent += time.perf_counter() - t0

    exactnum.square_free_core = timed
    try:
        t0 = time.perf_counter()
        bf = convexopt.maximize_bruteforce(convexopt.ORIGIN, p, q, GRID)
        return bf, time.perf_counter() - t0, spent
    finally:
        exactnum.square_free_core = inner


def record_verify() -> None:
    reports, ok = verify.run_suites()
    if not ok:
        raise SystemExit("run_suites() failed; not recording a reference")
    rows = []
    for r in reports:
        row = {"check_name": r.check_name, "status": r.status, "samples_tested": r.samples_tested}
        if r.check_name.endswith("_negative_control"):
            row["failing_checks"] = r.witness["failing_checks"]
        rows.append(row)
    (REFDATA / "verify_checks.json").write_text(json.dumps(rows, indent=1) + "\n")


def record_oracle() -> None:
    """Record the pool hull by hull; hulls already in the file are kept."""
    path = REFDATA / "oracle_pool.json"
    pool = json.loads(path.read_text()) if path.exists() else {}
    for case, _, _ in HULLS:
        if str(case) in pool:
            continue
        rng = random.Random(0xACCE55 + case)
        lo_h, hi_h = WINDOWS[case]
        band = SQRT_BAND if case in SQRT_CASES else RATIONAL_BAND
        shapes = [
            cuts
            for cuts in itertools.combinations(range(1, 48), 3)
            if lo_h <= _height(*triangle(case, cuts, 1)) <= hi_h
        ]
        rng.shuffle(shapes)
        kept = []
        for cuts in shapes[:MAX_TRIES]:
            yardstick = _bruteforce(*triangle(YARDSTICK[0], YARDSTICK[1], 1))[1]
            p, q = triangle(case, cuts, 1)
            bf, elapsed, in_core = _bruteforce(p, q)
            cost, share = elapsed / yardstick, in_core / elapsed
            print(f"case {case} cuts {cuts}: {cost:.2f} yardsticks, square_free_core {share:.0%}",
                  file=sys.stderr, flush=True)
            if not band[0] <= cost <= band[1] or share < MIN_SQRT_SHARE.get(case, 0):
                continue
            red = convexopt.maximize_reduced(convexopt.ORIGIN, p, q)
            kept.append({
                "cuts": list(cuts),
                "reduced": terms_to_json(as_terms(red.value)),
                "bruteforce": terms_to_json(as_terms(bf.value)),
                "bruteforce_segments": bf.chain.merged().segments(),
                "cost_yardsticks": round(cost, 3),
                "square_free_core_share": round(share, 3),
            })
            if len(kept) == SHAPES_PER_HULL:
                break
        if len(kept) < SHAPES_PER_HULL:
            raise SystemExit(f"case {case}: only {len(kept)} shapes in band {band}")
        pool[str(case)] = kept
        ordered = {str(c): pool[str(c)] for c, _, _ in HULLS if str(c) in pool}
        path.write_text(json.dumps(ordered, indent=1) + "\n")


if __name__ == "__main__":
    which = set(sys.argv[1:]) or {"verify", "oracle"}
    REFDATA.mkdir(exist_ok=True)
    if "verify" in which:
        record_verify()
    if "oracle" in which:
        record_oracle()
