"""Acceptance criteria, one test per criterion, each printed as a pass/fail
line with its runtime.  Tolerances are zero everywhere: every comparison is
exact arithmetic; the stated time budgets are asserted."""

import random
import time
from fractions import Fraction as F

from tiltbound.bounds import (
    CLIFFORD_BREAK,
    bg_bound_surface,
    bg_bound_threefold,
    bg_linear_family,
    bg_quadratic_family,
    clifford_bound,
    piecewise_check,
)
from tiltbound.convexopt import (
    ORIGIN,
    PlanePoint,
    clifford_chain_bound,
    maximize_bruteforce,
    maximize_reduced,
)
from tiltbound.exactnum import (
    Poly1,
    QuadNum,
    compare_scalars,
    scalar_sign,
)
from tiltbound.verify import (
    SUITE_NAMES,
    negative_control,
    run_suite,
    suite_q00,
)
from tiltbound.walls import BN_THRESHOLD_POLY, bn_threshold


def _criterion(number, name, budget_s):
    def wrap(fn):
        def run():
            t0 = time.perf_counter()
            try:
                fn()
            except Exception:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            elapsed = time.perf_counter() - t0
            verdict = "PASS" if elapsed < budget_s else "PASS (over budget)"
            print(f"ACCEPTANCE {number:02d} {name}: {verdict} ({elapsed:.2f}s, budget {budget_s}s)")
            assert elapsed < budget_s, f"budget exceeded: {elapsed:.2f}s > {budget_s}s"

        run.__name__ = fn.__name__
        return run

    return wrap


def _suite_checks(suite, expected):
    """Assert that the named checks of ``suite`` pass on their recorded
    sample counts ({check name: samples_tested})."""
    by_name = {r.check_name: r for r in run_suite(suite)}
    for name, samples in expected.items():
        assert (by_name[name].status, by_name[name].samples_tested) == ("pass", samples), name


@_criterion(1, "radical-identities", 1.0)
def test_acceptance_01_radical_identities():
    _suite_checks("radicals", {"radicals_sqrt_delta": 1, "radicals_sqrt_delta_prime": 1})


@_criterion(2, "breakpoint-continuity", 1.0)
def test_acceptance_02_breakpoint_continuity():
    assert bg_linear_family.evaluate(F(1, 5)) == F(-1, 10)
    assert bg_linear_family.evaluate(F(1, 2)) == F(1, 32)
    assert bg_linear_family.evaluate(F(4, 5)) == F(1, 5)
    assert bg_linear_family.evaluate(F(10, 11)) == F(79, 242)
    assert piecewise_check(bg_linear_family, "continuity").ok
    rep = piecewise_check(bg_quadratic_family, "continuity")
    assert rep.ok
    bps = [x for x, _, _ in bg_quadratic_family.shared_breakpoints()]
    assert scalar_sign(Poly1([1, -8, 3]).evaluate(bps[0])) == 0  # (4-sqrt13)/3
    assert bps[1] == F(1, 2)
    assert scalar_sign(Poly1([-4, 2, 3]).evaluate(bps[2])) == 0  # (sqrt13-1)/3


@_criterion(3, "envelope-theorem", 1.0)
def test_acceptance_03_envelope():
    rep = piecewise_check(bg_linear_family, "dominance", bg_quadratic_family)
    assert rep.ok
    points, has_interval, _ = rep.details
    assert not has_interval
    expected = [F(0), F(1, 5), F(1, 2), F(4, 5), F(10, 11), F(1)]
    assert len(points) == 6
    for got, want in zip(points, expected):
        assert compare_scalars(got, want) == 0
    # 1/4 only arises in the refined family
    from tiltbound.bounds import bg_refined_family

    secant = bg_refined_family[0]
    rep2 = piecewise_check(secant, "dominance", bg_quadratic_family)
    pts, _, _ = rep2.details
    assert [str(p) for p in pts] == ["1/5", "1/4"]


@_criterion(4, "clifford-consistency", 30.0)
def test_acceptance_04_clifford_consistency():
    rng = random.Random(0xACCE54)
    mus = {F(0), F(16), F(48), F(64), F(62), F(63), F(6203, 100), F(6204, 100)}
    while len(mus) < 200:
        if rng.random() < 0.5:
            mus.add(F(rng.randrange(0, 16 * 48 + 1), 48))
        else:
            mus.add(F(rng.randrange(48 * 48, 64 * 48 + 1), 48))
    switched = 0
    for mu in sorted(mus):
        r, d = mu.denominator, mu.numerator
        got = clifford_chain_bound(r, d)
        assert compare_scalars(got.value, clifford_bound((r, d))) == 0, mu
        if 48 <= mu <= 64:
            beyond = compare_scalars(mu, CLIFFORD_BREAK) > 0
            assert beyond == (got.branch == "max_branch_linear"), mu
            switched += beyond
    assert switched > 0  # the sweep crosses the sqrt(69) switch


@_criterion(5, "convex-chain-oracle", 300.0)
def test_acceptance_05_convex_chain_oracle():
    rng = random.Random(0xACCE55)
    # single-case slope hulls (strictly inside each case's contiguous range)
    hulls = [
        (F(-29, 10), F(-6, 10)),  # case 4
        (F(-24, 100), F(24, 100)),  # case 3
        (F(6, 10), F(29, 10)),  # case 2
        (F(-96, 10), F(-82, 10)),  # case 5
        (F(-134, 10), F(-125, 10)),  # case 6
        (F(-177, 10), F(-162, 10)),  # case 7
        (F(-39, 10), F(-31, 10)),  # case 8 band, n = 1
        (F(31, 10), F(39, 10)),  # case 9 band, n = 1
    ]
    checked = 0
    for idx in range(20):
        lo, hi = hulls[idx % len(hulls)]
        span = hi - lo
        # three strictly ordered slopes inside (lo, hi)
        cuts = sorted(rng.sample(range(1, 48), 3))
        s_pq = lo + span * F(cuts[0], 48)
        s_oq = lo + span * F(cuts[1], 48)
        s_op = lo + span * F(cuts[2], 48)
        y_p = F(rng.randrange(1, 5), rng.randrange(1, 3))
        p = PlanePoint(s_op * y_p, y_p)
        y_q = y_p * (s_op - s_pq) / (s_oq - s_pq)
        q = PlanePoint(s_oq * y_q, y_q)
        red = maximize_reduced(ORIGIN, p, q)
        bf = maximize_bruteforce(ORIGIN, p, q, 40)
        assert compare_scalars(bf.value, red.value) <= 0, (idx, lo, hi)
        assert bf.chain.merged().segments() <= 2, (idx, lo, hi)
        checked += 1
    assert checked == 20


@_criterion(6, "wall-secant-and-threshold", 1.0)
def test_acceptance_06_wall_secant_and_threshold():
    _suite_checks("walls", {"walls_gamma_secant_relation": 256, "walls_bn_threshold_root": 4})
    assert bn_threshold() == QuadNum(F(256, 3), F(-32, 3), 61)
    assert BN_THRESHOLD_POLY == Poly1([1024, -512, 3])


@_criterion(7, "x0-x1-residuals", 5.0)
def test_acceptance_07_residuals():
    _suite_checks("radicals", {"radicals_x0_x1_residuals": 1600})


@_criterion(8, "q00-chain", 120.0)
def test_acceptance_08_q00_chain():
    reports = suite_q00(grid_denominator=64)
    for r in reports:
        assert r.status == "pass", r.check_name
    grid = next(r for r in reports if r.check_name == "q00_constrained_grid_nonnegativity")
    assert grid.samples_tested >= 10_000
    assert compare_scalars(QuadNum(F(79, 275), F(-3, 275), 2374), F(-1, 4)) > 0


@_criterion(9, "prop52-recomposition", 1.0)
def test_acceptance_09_prop52():
    reports = run_suite("prop52")
    by_name = {r.check_name: r for r in reports}
    assert by_name["prop52_case1_recomposition"].status == "pass"
    assert by_name["prop52_case3_recomposition"].status == "pass"


@_criterion(10, "mukai-gamma-lattice", 10.0)
def test_acceptance_10_lattice():
    _suite_checks("walls", {"walls_mukai_lattice_below_gamma": 820})


@_criterion(11, "strictness-vs-bogomolov", 5.0)
def test_acceptance_11_strictness():
    for k in range(1, 512):
        x = F(k, 512)
        classical = x * x / 2
        assert bg_bound_surface(x) < classical
        assert bg_bound_threefold(x, family="quadratic") < classical


@_criterion(12, "negative-controls", 120.0)
def test_acceptance_12_negative_controls():
    for name in SUITE_NAMES:
        ctrl = negative_control(name)
        assert ctrl.status == "pass", name
        assert ctrl.witness["failing_checks"], name


if __name__ == "__main__":
    for key in sorted(k for k in dir() if k.startswith("test_acceptance_")):
        globals()[key]()
