"""Benchmark of tiltbound: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Workloads: verify-all, oracle-grid40, point-queries (see README.md).  With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it runs a fixed slice of the workload once untraced and once
traced and reports the per-layer metrics.  Every metric is printed by name
and unit; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when the
correctness gate fails and 2 when the library sources are missing.
"""

import argparse
import contextlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from checkout import ROOT, SRC, MissingLibrary, use_checkout_src
from hostspeed import HostSpeed
from tracer import LAYERS as MODULES, Tracer

WORKLOADS = ("verify-all", "oracle-grid40", "point-queries")
SETUP_SAMPLES = 16  # half before the workload, half after it
IMPORTTIME_SAMPLES = 5
QUERY_CHUNK_BLOCKS = 100  # 2100 queries generated, run and checked at a time
TRACE_QUERY_BLOCKS = 200
SYMPY_SAMPLES_PER_CHUNK = 2
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
)
TRACED = (
    "exactnum.square_free_core", "exactnum.sqrt_exact", "exactnum.QuadNum.init",
    "exactnum.compare_scalars", "exactnum.RadicalSum.init", "exactnum.RadicalSum.cmp",
    "exactnum.RadicalSum.sign",
    "bounds.spade", "bounds.spade_case_for_slope", "bounds.clifford_bound", "bounds.piecewise_check",
    "walls.line_gamma_intersection", "walls.gamma_curve", "walls.first_wall_bounds",
    "tilt.nu_tilt", "tilt.q_form", "chern.twist_beta", "chern.grr_push_to_k3",
    "convexopt.maximize_bruteforce", "convexopt.maximize_reduced", "convexopt.clifford_chain_bound",
)
CALLED_MODULES = MODULES[:-1]  # cli is imported by the CLI, never called by a workload
SUITES = ("radicals", "q00", "breakpoints", "clifford", "prop52", "walls")


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for fn in TRACED:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    out += [("exactnum.square_free_core.distinct_ratio", "ratio"),
            ("exactnum.square_free_core.self_share", "ratio"),
            ("bounds.spade.oot_ratio", "ratio")]
    for mod in CALLED_MODULES:
        out += [(f"{mod}.calls", "count"), (f"{mod}.self_s", "s")]
    out += [(f"verify.suite.{s}.s", "s") for s in SUITES]
    out += [(f"verify.control.{s}.s", "s") for s in SUITES]
    out += [(f"{mod}.import_s", "s") for mod in MODULES]
    out += [("oracle.sqrt_hulls.square_free_core.self_s", "s"),
            ("oracle.sqrt_hulls.square_free_core.self_share", "ratio"),
            ("oracle.rational_hulls.square_free_core.calls", "count"),
            ("trace_overhead_ratio", "ratio")]
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _library_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_samples(n: int, speed: HostSpeed | None = None) -> tuple:
    """Wall times of ``n`` fresh interpreters importing tiltbound.cli:
    (measured, on the reference host).  With ``speed``, a probe burst
    brackets each interpreter."""
    cmd = [sys.executable, "-c", "import tiltbound.cli"]
    env = _library_env()
    measured, scaled = [], []
    if speed:
        speed.burst()
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        t1 = time.perf_counter()
        measured.append(t1 - t0)
        if speed:
            speed.burst()
            scaled.append(speed.reference_s(t0, t1))
    return measured, scaled


def measure_import_times() -> dict:
    """Median self import time of each module, from ``python -X importtime``."""
    samples: dict[str, list] = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tiltbound.cli"],
            env=_library_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("tiltbound."):
                mod = parts[2].split(".", 1)[1]
                if mod in samples:
                    samples[mod].append(int(parts[0].split()[-1]) / 1e6)
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


class Units:
    """Operation latencies of one run, in units of work that probe bursts
    bracket (see hostspeed.py)."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.measured = array("d")  # latencies in s, probe time taken out
        self.scaled = array("d")  # the same on the reference host
        self.scales: list[float] = []  # scaled / measured time of each unit
        speed.burst()

    def close(self, ops) -> None:
        """End a unit; ``ops`` holds, per operation, the stretches (t0, t1)
        of wall time it took."""
        self.speed.burst()
        measured = [sum(self.speed.work_s(*s) for s in op) for op in ops]
        scaled = [sum(self.speed.reference_s(*s) for s in op) for op in ops]
        self.scales.append(sum(scaled) / sum(measured))
        self.measured.extend(measured)
        self.scaled.extend(scaled)

    def close_within(self, t0: float, t1: float, ops) -> None:
        """End a unit run as one stretch (t0, t1) without probes inside,
        whose operations took ``ops`` seconds each."""
        self.speed.burst()
        scale = self.speed.reference_s(t0, t1) / (t1 - t0)
        self.scales.append(scale)
        self.measured.extend(ops)
        self.scaled.extend(t * scale for t in ops)


def measure(workload: str, seed: int, seconds: float, speed: HostSpeed):
    """(Units, Tally, peak RSS MB, {info name: measured value}) of one
    untraced run.  Operations that last seconds run with the probe ticking
    inside them; single queries run without it, between bursts."""
    import workloads as wl

    tally = wl.Tally()
    units = Units(speed)
    if workload == "verify-all":
        names = wl.suite_order(seed)
        expected = wl.load_json("verify_checks.json")

        def unit():
            with speed.ticking():
                t0 = time.perf_counter()
                _, reports, err = wl.run_verify(names)
                t1 = time.perf_counter()
            units.close([[(t0, t1)]])
            for errors in ([[err]] * len(expected) if err else wl.check_verify(reports, expected)):
                tally.add(errors)

        wl.run_for(seconds, unit)
        return units, tally, peak_rss_mb(), {"verify_s": statistics.median(units.measured)}

    if workload == "oracle-grid40":
        pool = wl.load_json("oracle_pool.json")
        rounds = wl.oracle_rounds(seed, pool)
        triangles = array("d")
        shapes_per_hull = min(map(len, pool.values()))

        def unit():  # one round per pool shape, so that every run covers the pool
            for _ in range(shapes_per_hull):
                done = []  # the operation is a round of eight triangles
                with speed.ticking():
                    for item in next(rounds):
                        t0 = time.perf_counter()
                        _, result, err = wl.run_triangle(item)
                        done.append((item, (t0, time.perf_counter()), result, err))
                units.close([[stretch for _, stretch, _, _ in done]])
                for item, stretch, result, err in done:
                    triangles.append(speed.work_s(*stretch))
                    tally.add([err] if err else wl.check_triangle(item, result, pool))

        wl.run_for(seconds, unit)
        return units, tally, peak_rss_mb(), {
            "triangles_per_s": len(triangles) / sum(triangles),
            "triangle_p50_s": statistics.median(triangles),
        }

    rng = random.Random(seed)
    sample_rng = random.Random(seed + 1)
    sample: list = []
    queries_s = array("d")
    block = len(wl.BLOCK)

    def unit():
        queries = wl.make_queries(rng, QUERY_CHUNK_BLOCKS)
        chunk = array("d")
        t0 = time.perf_counter()
        outcomes = wl.run_queries(queries, chunk)
        t1 = time.perf_counter()
        queries_s.extend(chunk)
        # the operation is one block, a query of each kind: single queries
        # differ by kind up to 60x, so their median would sit between kinds
        units.close_within(t0, t1, [sum(chunk[i:i + block]) for i in range(0, len(chunk), block)])
        for q, o in zip(queries, outcomes):
            tally.add(wl.check_query(q, o))
        sample.extend(wl.sympy_sample(queries, outcomes, sample_rng, SYMPY_SAMPLES_PER_CHUNK))

    wl.run_for(seconds, unit)
    rss = peak_rss_mb()  # before sympy is imported
    sympy_gate(sample, tally)
    return units, tally, rss, {
        "queries_per_s": len(queries_s) / sum(queries_s),
        "query_p50_us": statistics.median(queries_s) * 1e6,
        "query_p99_us": percentile(queries_s, 99) * 1e6,
    }


def sympy_gate(sample, tally) -> None:
    import reference

    for kind, args in reference.sympy_check(sample):
        tally.failed += 1
        tally.messages.append(f"sympy disagrees on {kind}{args}")


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    speed = HostSpeed()
    setup_samples(1)  # writes the bytecode caches
    setup, setup_scaled = setup_samples(SETUP_SAMPLES // 2, speed)
    units, tally, rss, info = measure(workload, seed, seconds, speed)
    more, more_scaled = setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2, speed)
    setup += more
    setup_scaled += more_scaled

    def timings(setup_times, latencies) -> dict:
        return {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p99_ms": percentile(latencies, 99) * 1e3,
        }

    measured = timings(setup, units.measured)
    metrics = timings(setup_scaled, units.scaled)  # on the reference host (see hostspeed.py)
    metrics["peak_rss_mb"] = rss
    units_of = dict(END_TO_END)
    print(f"{workload} seed {seed}: {len(units.scaled)} operations; host scale median "
          f"{statistics.median(units.scales)} over {len(units.scales)} units, "
          f"{len(speed.samples)} probe samples")
    for name, value in measured.items():
        print(f"info: measured {name} = {value} {units_of[name]}")
    for name, value in info.items():
        print(f"info: measured {name} = {value}")
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, tally


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def traced(workload: str, seed: int) -> tuple:
    """Run one slice of the workload untraced, then traced; per-layer metrics."""
    import workloads as wl

    tally = wl.Tally()
    tracer = Tracer()
    passes = (contextlib.nullcontext(), tracer)  # untraced, then traced
    times = []
    extra: dict = {}
    if workload == "verify-all":
        names = wl.suite_order(seed)
        expected = wl.load_json("verify_checks.json")
        reports = []
        for ctx in passes:
            with ctx:
                elapsed, reps, err = wl.run_verify(names)
            times.append(elapsed)
            reports.append(reps)
            for errors in ([[err]] * len(expected) if err else wl.check_verify(reps, expected)):
                tally.add(errors)
        extra.update(wl.suite_times(reports[0]))
    elif workload == "oracle-grid40":
        pool = wl.load_json("oracle_pool.json")
        items = next(wl.oracle_rounds(seed, pool))
        segments = []  # (case, first span, end span) per traced triangle
        for ctx in passes:
            results = []
            with ctx:
                for item in items:
                    lo = len(tracer)
                    results.append(wl.run_triangle(item))
                    if ctx is tracer:
                        segments.append((item[0], lo, len(tracer)))
            times.append(sum(elapsed for elapsed, _, _ in results))
            for item, (_, result, err) in zip(items, results):  # checked outside the trace
                tally.add([err] if err else wl.check_triangle(item, result, pool))
        extra.update(hull_split(tracer, segments))
    else:
        queries = wl.make_queries(random.Random(seed), TRACE_QUERY_BLOCKS)
        for ctx in passes:
            lat = array("d")
            with ctx:
                outcomes = wl.run_queries(queries, lat)
            times.append(sum(lat))
            for q, o in zip(queries, outcomes):
                tally.add(wl.check_query(q, o))
    untraced_s, traced_s = times

    stats = tracer.stats()
    metrics = layer_metrics(tracer, stats)
    metrics.update(extra)
    metrics.update(measure_import_times())
    metrics["trace_overhead_ratio"] = traced_s / untraced_s
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")
    print(f"{workload} seed {seed}: {len(tracer)} spans; untraced {untraced_s:.3f}s, traced {traced_s:.3f}s")
    print("top self time:")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:8]:
        print(f"  {name:40s} {st['self_s']:10.4f} s  {st['calls']:9d} calls")
    units = dict(per_layer_metrics())
    return {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()}, tally


def layer_metrics(tracer, stats) -> dict:
    out = {}
    for fn in TRACED:
        out[f"{fn}.calls"] = stats[fn]["calls"]
        out[f"{fn}.self_s"] = stats[fn]["self_s"]
    sfc = stats["exactnum.square_free_core"]
    args = tracer.args["exactnum.square_free_core"]
    out["exactnum.square_free_core.distinct_ratio"] = len(set(args)) / len(args) if args else 0.0
    all_self = sum(st["self_s"] for st in stats.values())
    out["exactnum.square_free_core.self_share"] = sfc["self_s"] / all_self if all_self else 0.0
    spades = stats["bounds.spade"]["calls"]
    oot = tracer.count_raised_under("bounds.spade_case_for_slope", "SlopeOutOfTable", "bounds.spade")
    out["bounds.spade.oot_ratio"] = oot / spades if spades else 0.0
    for mod in CALLED_MODULES:
        mine = [st for name, st in stats.items() if name.startswith(f"{mod}.")]
        out[f"{mod}.calls"] = sum(st["calls"] for st in mine)
        out[f"{mod}.self_s"] = sum(st["self_s"] for st in mine)
    return out


def hull_split(tracer, segments) -> dict:
    """square_free_core on the sqrt-hull and the rational-hull triangles."""
    from triangles import SQRT_CASES

    classes: dict[bool, dict] = {True: {}, False: {}}  # sqrt hull? -> {name: [calls, self_s]}
    for case, lo, hi in segments:
        agg = classes[case in SQRT_CASES]
        for name, st in tracer.stats(lo, hi).items():
            acc = agg.setdefault(name, [0, 0.0])
            acc[0] += st["calls"]
            acc[1] += st["self_s"]
    for is_sqrt, agg in classes.items():
        top = sorted(agg.items(), key=lambda kv: -kv[1][1])[:3]
        print(f"{'sqrt' if is_sqrt else 'rational'} hulls, top self time: "
              + ", ".join(f"{name} {acc[1]:.3f}s" for name, acc in top))
    sqrt_core = classes[True]["exactnum.square_free_core"][1]
    sqrt_all = sum(acc[1] for acc in classes[True].values())
    return {
        "oracle.sqrt_hulls.square_free_core.self_s": sqrt_core,
        "oracle.sqrt_hulls.square_free_core.self_share": sqrt_core / sqrt_all,
        "oracle.rational_hulls.square_free_core.calls": classes[False]["exactnum.square_free_core"][0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_src()
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, tally = traced(args.workload, args.seed)
    else:
        metrics, tally = end_to_end(args.workload, args.seed, args.seconds)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"fail_ratio = {tally.failed / max(tally.attempted, 1)} ({tally.failed} of {tally.attempted} operations)")
    for msg in tally.messages:
        print(f"FAILED: {msg}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
