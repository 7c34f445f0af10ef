"""The three workloads: inputs from a seed, closed-loop execution, and the gate.

Every workload is driven by one client in one thread: the next operation
starts when the previous one has returned.  Library functions are always
looked up on their module at call time, so a tracer that rebinds them sees
every call.  Each check returns a list of failure messages (empty = pass).
"""

import itertools
import json
import random
import statistics
import time
from array import array
from fractions import Fraction as F
from pathlib import Path

from tiltbound import bounds, chern, convexopt, exactnum, tilt, verify, walls

import reference as ref
from triangles import GRID, HULLS, draw_scale, triangle

REFDATA = Path(__file__).resolve().parent / "refdata"


def load_json(name: str):
    return json.loads((REFDATA / name).read_text())


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append("; ".join(errors))


def run_for(seconds: float, unit) -> None:
    """Call ``unit()`` at least once, until less than half a typical call's
    time is left of ``seconds``."""
    walls_s: list[float] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        unit()
        walls_s.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + 0.5 * statistics.median(walls_s) >= seconds:
            return


# ---------------------------------------------------------------------------
# verify-all: one full run_suites() (six suites, their controls, grid 64)
# ---------------------------------------------------------------------------


def suite_order(seed: int) -> list:
    names = list(verify.SUITE_NAMES)
    random.Random(seed).shuffle(names)
    return names


def run_verify(names) -> tuple:
    """(elapsed s, reports, error) of one run_suites() over ``names``."""
    t0 = time.perf_counter()
    try:
        reports, _ = verify.run_suites(names, grid=64, with_controls=True)
    except Exception as exc:  # an exception is a failed operation
        return time.perf_counter() - t0, [], f"run_suites raised {exc!r}"
    return time.perf_counter() - t0, reports, None


def check_verify(reports, expected: list) -> list:
    """Per expected check: failure messages (every check passes, every
    control's suite fails, sample counts and failing checks as recorded)."""
    got = {r.check_name: r for r in reports}
    out = []
    for row in expected:
        r = got.get(row["check_name"])
        if r is None:
            out.append([f"{row['check_name']}: missing"])
            continue
        errors = []
        if r.status != "pass":
            errors.append(f"{r.check_name}: status {r.status}")
        if r.samples_tested != row["samples_tested"]:
            errors.append(f"{r.check_name}: {r.samples_tested} samples, expected {row['samples_tested']}")
        if "failing_checks" in row and (r.witness or {}).get("failing_checks") != row["failing_checks"]:
            errors.append(f"{r.check_name}: failing checks {(r.witness or {}).get('failing_checks')}")
        out.append(errors)
    extra = set(got) - {row["check_name"] for row in expected}
    if extra:
        out.append([f"unexpected checks {sorted(extra)}"])
    return out


def suite_times(reports) -> dict:
    """{"verify.suite.<name>.s" | "verify.control.<name>.s": elapsed} from the reports."""
    out = {}
    for r in reports:
        suite = r.check_name.split("_")[0]
        if r.check_name.endswith("_negative_control"):
            out[f"verify.control.{suite}.s"] = r.elapsed
        else:
            key = f"verify.suite.{suite}.s"
            out[key] = out.get(key, 0.0) + r.elapsed
    return out


# ---------------------------------------------------------------------------
# oracle-grid40: reduced optimizer and brute-force oracle on wall triangles
# ---------------------------------------------------------------------------


def oracle_rounds(seed: int, pool: dict):
    """Endless rounds of one triangle per hull, in the acceptance test's order.

    Round k takes shape k mod 2 of every hull, so consecutive rounds cover
    the whole pool whatever the seed; the seed draws y_P.
    Each item is (case, shape index, y_P, P, Q)."""
    rng = random.Random(seed)
    for k in itertools.count():
        items = []
        for case, _, _ in HULLS:
            shapes = pool[str(case)]
            shape = k % len(shapes)
            y_p = draw_scale(rng)
            p, q = triangle(case, shapes[shape]["cuts"], y_p)
            items.append((case, shape, y_p, p, q))
        yield items


def run_triangle(item) -> tuple:
    """(elapsed s, (reduced, bruteforce) or None, error)."""
    _, _, _, p, q = item
    t0 = time.perf_counter()
    try:
        red = convexopt.maximize_reduced(convexopt.ORIGIN, p, q)
        bf = convexopt.maximize_bruteforce(convexopt.ORIGIN, p, q, GRID)
    except Exception as exc:
        return time.perf_counter() - t0, None, f"raised {exc!r}"
    return time.perf_counter() - t0, (red, bf), None


def check_triangle(item, result, pool: dict) -> list:
    case, k, y_p, _, _ = item
    red, bf = result
    shape = pool[str(case)][k]
    red_terms, bf_terms = ref.as_terms(red.value), ref.as_terms(bf.value)
    errors = []
    if red_terms != ref.scaled(ref.terms_from_json(shape["reduced"]), y_p):
        errors.append(f"case {case} shape {k}: reduced {red.value} differs from the reference")
    if bf_terms != ref.scaled(ref.terms_from_json(shape["bruteforce"]), y_p):
        errors.append(f"case {case} shape {k}: brute force {bf.value} differs from the reference")
    if ref.terms_compare(bf_terms, red_terms) > 0:
        errors.append(f"case {case} shape {k}: brute force exceeds the reduced maximum")
    segments = bf.chain.merged().segments()
    if segments > 2:
        errors.append(f"case {case} shape {k}: merged chain has {segments} segments")
    return errors


# ---------------------------------------------------------------------------
# point-queries: independent evaluations with fresh small-height inputs
# ---------------------------------------------------------------------------

# slope intervals off the table (gaps between rows and band rows)
OFF_TABLE = ((F(1, 4), F(1, 2)), (F(-1, 2), F(-1, 4)), (F(97, 10), F(35, 3)),
             (F(12), F(63, 4)), (F(-99, 5), F(-107, 6)))
SPADE_CASES = (1, 2, 3, 4, 5, 6, 7, 8, 9)
# one block of queries, a query of each kind; spade dispatch is the
# heaviest and most frequent kind
BLOCK = SPADE_CASES + ("fallback", "off_table", "clifford", "first_wall", "gamma", "bg_surface",
                       "bg_threefold", "nested_wall", "nu_tilt", "twist", "push", "compare")
_SQUARE_FREE = [m for m in range(2, 400) if all(m % (p * p) for p in range(2, 20))]


def _inside(rng, lo, hi):
    """A small-height rational strictly inside (lo, hi)."""
    den = rng.randrange(2, 40)
    return lo + (hi - lo) * F(rng.randrange(1, den), den)


def _band_interval(case, n):
    if case == 8:
        return F(-4 * n), F(1 - 4 * n * n, n)
    return F(4 * n * n - 1, n), F(4 * n)


def _spade_slope(rng, case):
    if case in (8, 9):
        return _inside(rng, *_band_interval(case, rng.randrange(1, 4)))
    row = next(r for r in ref.SPADE_ROWS if r[0] == case)
    lo, _, hi, _ = rng.choice(row[1])
    return _inside(rng, lo, hi)


def _positive(rng):
    return F(rng.randrange(1, 9), rng.randrange(1, 5))


def _small(rng, span=6):
    return F(rng.randrange(-span * 4, span * 4 + 1), rng.randrange(1, 5))


def _chern_vec(rng):
    ctx = rng.choice(("S222", "X24"))
    c = [F(rng.randrange(1, 5))] + [_small(rng, 3) for _ in range(chern.CONTEXTS[ctx].dim)]
    return chern.vec(ctx, *c)


def make_query(rng, kind):
    """(kind, function path, args, kwargs, expected).

    ``expected`` is a reference value, or the class name of the documented
    exception the call must raise."""
    if kind in SPADE_CASES or kind in ("fallback", "off_table"):
        if kind in SPADE_CASES:
            s = _spade_slope(rng, kind)
        else:
            s = _inside(rng, *rng.choice(OFF_TABLE))
        case = ref.table_case(s)
        if case != (kind if kind in SPADE_CASES else None):
            raise AssertionError(f"generated slope {s} lies in row {case}, not {kind}")
        y = _positive(rng)
        if kind == "off_table":
            return kind, "bounds.spade", ((s * y, y),), {}, "SlopeOutOfTable"
        expected = ref.spade_expected(0 if case is None else case, s * y, y)
        return kind, "bounds.spade", ((s * y, y),), {"fallback": kind == "fallback"}, expected
    if kind == "clifford":
        r = rng.randrange(1, 9)
        d = rng.randrange(0, 16 * r + 1) if rng.random() < 0.5 else rng.randrange(48 * r, 64 * r + 1)
        return kind, "bounds.clifford_bound", ((r, d),), {}, ref.clifford_expected(r, d)
    if kind == "first_wall":
        den = rng.randrange(1, 17)
        mu = F(rng.randrange(0, 64 * den + 1), den)
        return kind, "walls.first_wall_bounds", (mu,), {}, ref.first_wall_expected(mu)
    if kind == "gamma":
        x = _small(rng, 10)
        return kind, "walls.gamma_curve", (x,), {}, ref.gamma_expected(x)
    if kind == "bg_surface":
        den = rng.randrange(2, 60)
        x = F(rng.randrange(1, den), den)
        return kind, "bounds.bg_bound_surface", (x,), {}, ref.bg_surface_expected(x)
    if kind == "bg_threefold":
        family = rng.choice(("quadratic", "linear", "refined"))
        x = _small(rng, 1) if family != "quadratic" else _small(rng, 3)
        try:
            expected = ref.bg_threefold_expected(x, family)
        except ValueError:
            expected = "OutOfDomain"
        return kind, "bounds.bg_bound_threefold", (x,), {"family": family}, expected
    if kind == "nested_wall":
        v = _chern_vec(rng)
        p0 = tilt.TiltParams(_positive(rng), _small(rng, 2))
        inums = [v.inum(i) for i in range(3)]
        expected = ref.nested_wall_expected(inums, p0.alpha, p0.beta)
        if expected is None:
            expected = "ZeroReducedCharacter" if not any(inums) else "DegenerateWall"
        return kind, "walls.nested_wall_line", (v, p0), {}, expected
    if kind == "nu_tilt":
        v = _chern_vec(rng)
        beta = _small(rng, 2)
        alpha = beta * beta / 2 + _positive(rng) / 4
        inums = [v.inum(i) for i in range(3)]
        expected = ref.nu_tilt_expected(inums, alpha, beta)
        return kind, "tilt.nu_tilt", (v, tilt.TiltParams(alpha, beta)), {}, expected
    if kind == "twist":
        v, beta = _chern_vec(rng), _small(rng, 2)
        expected = (v.context.name, ref.twist_expected(v.c, beta))
        return kind, "chern.twist_beta", (v, beta), {}, expected
    if kind == "push":
        r, d = rng.randrange(1, 9), rng.randrange(0, 65 * 8)
        expected = ("S222", ref.push_expected(r, d))
        return kind, "chern.grr_push_to_k3", (chern.CurveClass(r, d),), {}, expected
    if kind == "compare":
        m1, m2 = rng.sample(_SQUARE_FREE, 2)
        # radicands are given with a square factor, as they arrive from formulas
        k1, k2 = rng.randrange(1, 5), rng.randrange(1, 5)
        a1, b1 = _small(rng), _small(rng) or F(1)
        a2, b2 = _small(rng), _small(rng) or F(1)
        args = (exactnum.QuadNum(a1, b1, m1 * k1 * k1), exactnum.QuadNum(a2, b2, m2 * k2 * k2))
        expected = ref.compare_expected((a1, b1 * k1, m1), (a2, b2 * k2, m2))
        return kind, "exactnum.compare_scalars", args, {}, expected
    raise ValueError(kind)


def make_queries(rng, blocks: int) -> list:
    return [make_query(rng, kind) for _ in range(blocks) for kind in BLOCK]


_MODULES = {"bounds": bounds, "walls": walls, "tilt": tilt, "chern": chern, "exactnum": exactnum}


def run_queries(queries, latencies: array) -> list:
    """Evaluate each query in turn; append its latency (s) to ``latencies``.

    Returns (value, exception) per query."""
    fns = {}
    for _, path, _, _, _ in queries:
        if path not in fns:
            mod, name = path.split(".")
            fns[path] = getattr(_MODULES[mod], name)
    clock = time.perf_counter_ns
    out = []
    for _, path, args, kwargs, _ in queries:
        fn = fns[path]
        t0 = clock()
        try:
            got = fn(*args, **kwargs)
            exc = None
        except Exception as e:  # checked against the documented exception
            got, exc = None, e
        latencies.append((clock() - t0) / 1e9)
        out.append((got, exc))
    return out


def check_query(query, outcome) -> list:
    kind, path, args, kwargs, expected = query
    got, exc = outcome
    if isinstance(expected, str):
        if exc is None or type(exc).__name__ != expected:
            return [f"{path}{args}: expected {expected}, got {exc if exc else got}"]
        return []
    if exc is not None:
        return [f"{path}{args}: raised {exc!r}"]
    if kind in SPADE_CASES or kind == "fallback":
        ok = expected.matches(ref.as_terms(got))
    elif kind == "first_wall":
        ok = (got.beta1_min, got.beta2_max, got.bn_semistable, got.exceptional_case) == expected
    elif kind == "nested_wall":
        ok = (got.a, got.b, got.c) == expected
    elif kind == "nu_tilt":
        ok = got.is_infinite if expected is None else (not got.is_infinite and got.value == expected)
    elif kind in ("twist", "push"):
        ok = (got.context.name, got.c) == expected
    elif kind == "compare":
        ok = got == expected
    else:  # exact rationals
        ok = ref.as_terms(got) == ref.as_terms(expected)
    return [] if ok else [f"{path}{args}: got {got}, expected {expected}"]


SYMPY_KINDS = {"clifford": "clifford_bound", "gamma": "gamma_curve",
               "bg_surface": "bg_bound_surface", "bg_threefold": "bg_bound_threefold"}


def _sympy_item(query, outcome):
    kind, _, args, kwargs, _ = query
    got, exc = outcome
    if exc is not None:
        return None
    if kind in SPADE_CASES or kind == "fallback":
        (x, y), = args
        return "spade", (kind if kind in SPADE_CASES else 0, x, y), ref.as_terms(got)
    if kind == "clifford":
        return SYMPY_KINDS[kind], args[0], ref.as_terms(got)
    if kind in SYMPY_KINDS and kwargs.get("family", "quadratic") == "quadratic":
        return SYMPY_KINDS[kind], args, ref.as_terms(got)
    return None


def sympy_sample(queries, outcomes, rng, size: int) -> list:
    """A sample of (kind, args, terms) for ``reference.sympy_check``."""
    picked = [item for item in map(_sympy_item, queries, outcomes) if item is not None]
    return rng.sample(picked, min(size, len(picked)))
