"""Self-check of the benchmark: the correctness gate must see injected faults.

    python3 perfbench/selfcheck.py

For each workload, a small slice is checked three ways: as is (the gate
passes), with one reference value flipped, and with a library function
wrapped to return a perturbed result (the gate must fail both times).  It
also runs the benchmark's entry point with a fault injected and expects exit
code 1 with ``"correct": false``, and checks that the metric names match
BENCHMARK.json.  Exits 0 when every check holds.
"""

import contextlib
import copy
import io
import json
import random
import sys
from array import array
from fractions import Fraction as F

from checkout import ROOT, use_checkout_src

use_checkout_src()

from tiltbound import convexopt, verify, walls  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


@contextlib.contextmanager
def patched(module, name, fn):
    orig = getattr(module, name)
    setattr(module, name, fn)
    try:
        yield
    finally:
        setattr(module, name, orig)


@contextlib.contextmanager
def patched_dict(d, key, value):
    orig = d[key]
    d[key] = value
    try:
        yield
    finally:
        d[key] = orig


def gate_failures(queries, outcomes) -> int:
    return sum(bool(wl.check_query(q, o)) for q, o in zip(queries, outcomes))


def point_queries() -> None:
    queries = wl.make_queries(random.Random(7), 5)
    outcomes = wl.run_queries(queries, array("d"))
    check(gate_failures(queries, outcomes) == 0, "point-queries: clean slice passes")

    flipped = list(queries)
    k = next(i for i, q in enumerate(flipped) if q[0] == "clifford")
    kind, path, args, kwargs, expected = flipped[k]
    flipped[k] = (kind, path, args, kwargs, expected + F(1, 1000))
    check(gate_failures(flipped, outcomes) == 1, "point-queries: one flipped reference value is caught")

    gamma = walls.gamma_curve
    with patched(walls, "gamma_curve", lambda x: gamma(x) + F(1, 10**9)):
        bad = wl.run_queries(queries, array("d"))
    n_gamma = sum(q[0] == "gamma" for q in queries)
    check(gate_failures(queries, bad) == n_gamma, "point-queries: perturbed gamma_curve is caught")

    sample = wl.sympy_sample(queries, outcomes, random.Random(1), 8)
    check(sample and not ref.sympy_check(sample), "point-queries: sympy agrees on a clean sample")
    off = [(kind, args, {m: c + F(1, 7) for m, c in terms.items()} or {1: F(1)})
           for kind, args, terms in sample]
    check(len(ref.sympy_check(off)) == len(off), "point-queries: sympy sees perturbed values")


def oracle() -> None:
    pool = wl.load_json("oracle_pool.json")
    item = next(i for i in next(wl.oracle_rounds(3, pool)) if i[0] == 4)  # a fast rational hull
    _, result, err = wl.run_triangle(item)
    check(err is None and not wl.check_triangle(item, result, pool), "oracle: clean triangle passes")

    flipped = copy.deepcopy(pool)
    shape = flipped["4"][item[1]]
    shape["bruteforce"] = ref.terms_to_json(
        {m: c + F(1, 1000) for m, c in ref.terms_from_json(shape["bruteforce"]).items()})
    check(bool(wl.check_triangle(item, result, flipped)), "oracle: flipped reference value is caught")

    bruteforce = convexopt.maximize_bruteforce

    def inflated(*args, **kwargs):
        res = bruteforce(*args, **kwargs)
        return convexopt.BruteForceResult(res.value + 1, res.chain)

    with patched(convexopt, "maximize_bruteforce", inflated):
        _, bad, _ = wl.run_triangle(item)
    errors = wl.check_triangle(item, bad, pool)
    check(any("exceeds" in e for e in errors), "oracle: brute force above the reduced maximum is caught")


def verify_all() -> None:
    names = ["breakpoints", "prop52"]
    expected = [row for row in wl.load_json("verify_checks.json")
                if row["check_name"].split("_")[0] in names]
    _, reports, err = wl.run_verify(names)
    check(err is None and not any(wl.check_verify(reports, expected)), "verify-all: clean suites pass")

    flipped = copy.deepcopy(expected)
    flipped[0]["samples_tested"] += 1
    check(sum(map(bool, wl.check_verify(reports, flipped))) == 1, "verify-all: flipped sample count is caught")

    suite = verify.suite_prop52

    def vacuous(perturb=False, **params):  # the control's perturbation stops failing
        return suite(perturb=False, **params)

    with patched_dict(verify._SUITES, "prop52", vacuous):
        _, bad, _ = wl.run_verify(names)
    check(any(wl.check_verify(bad, expected)), "verify-all: a control whose suite passes is caught")


def entry_point() -> None:
    gamma = walls.gamma_curve
    out = io.StringIO()
    with patched(walls, "gamma_curve", lambda x: gamma(x) + 1), contextlib.redirect_stdout(out):
        code = run.main(["--workload", "point-queries", "--seed", "5", "--seconds", "0.5"])
    last = json.loads(out.getvalue().splitlines()[-1])
    check(code == 1 and last["correct"] is False and last["failed"] > 0,
          "run.py: exit code 1 and correct=false under an injected fault")


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END],
          "BENCHMARK.json lists the end-to-end metrics the run reports")
    check([m["name"] for m in spec["per_layer"]] == [n for n, _ in run.per_layer_metrics()],
          "BENCHMARK.json lists the per-layer metrics the traced run reports")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the workloads")


if __name__ == "__main__":
    point_queries()
    oracle()
    verify_all()
    entry_point()
    metric_names()
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    sys.exit(1 if failures else 0)
