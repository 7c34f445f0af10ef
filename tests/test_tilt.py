import math
import random
from fractions import Fraction as F

import pytest

from tiltbound.chern import CONTEXTS, S222, X24, ChernVec, CurveClass, exp_twist, grr_push_to_k3, twist_beta
from tiltbound import tilt
from tiltbound.exactnum import MPoly, QuadNum, RadicalSum, poly_equal
from tiltbound.tilt import (
    InvalidRegion,
    PreconditionError,
    SlopeValue,
    TiltError,
    TiltParams,
    bn_slope,
    delta_H,
    delta_core,
    k3_alpha_from_canonical,
    linear_params_from_canonical,
    mu_slope,
    nu_tilt,
    q_form,
    stability_region_predicates,
    twisted_inums,
    wall_det_core,
    wall_q_invariance_check,
)
from tiltbound.verify import run_suite

OH = ChernVec(X24, (1, 1, F(1, 2), F(1, 6)))
O_X = ChernVec(X24, (1, 0, 0, 0))
PUSH = grr_push_to_k3(CurveClass(1, 0))


def test_slope_value_ordering():
    inf = SlopeValue.infinity()
    assert inf.is_infinite and inf == SlopeValue.infinity()
    assert SlopeValue.finite(F(1, 2)) < inf
    assert inf > SlopeValue.finite(10**9)
    assert SlopeValue.finite(F(1, 2)) == F(1, 2)
    # every exact scalar compares equal to its slope, a RadicalSum too
    r = RadicalSum({2: F(1, 3), 3: F(-1, 5)})
    assert SlopeValue.finite(r) == r and r == SlopeValue.finite(r)
    assert SlopeValue.finite(r) <= r and SlopeValue.finite(r) >= r and hash(SlopeValue.finite(r)) == hash(r)
    assert SlopeValue.finite(r) != r + F(1, 10**30)


def test_mu_slope_examples():
    assert mu_slope(OH) == 8
    assert mu_slope(OH, normalized=True) == 1
    assert mu_slope(PUSH).is_infinite
    assert mu_slope(O_X) == 0


def test_nu_tilt_canonical_example():
    assert nu_tilt(O_X, TiltParams(1, -1)) == 0


def test_nu_tilt_torsion_infinite():
    v = ChernVec(X24, (0, 0, 1, 0))
    assert nu_tilt(v, TiltParams(1, 0)).is_infinite


def test_nu_tilt_linear_chart_o_shift():
    # nu(O[1]) = alpha/beta in the linear chart; at (delta^2, delta) this is delta
    o1 = ChernVec(X24, (-1, 0, 0, 0))
    for delta in (F(1, 3), F(1, 7), F(2, 5)):
        nu = nu_tilt(o1, TiltParams(delta * delta, delta), chart="linear")
        assert nu == delta


def test_chart_dictionary():
    # canonical and linear charts agree after the documented conversion
    rng = random.Random(17)
    for _ in range(100):
        v = ChernVec(
            X24, tuple(F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(4))
        )
        alpha = F(rng.randrange(1, 8), rng.randrange(1, 4))
        beta = F(rng.randrange(-6, 7), rng.randrange(1, 4))
        if alpha <= beta * beta / 2:  # canonical-chart validity region
            continue
        p = TiltParams(alpha, beta)
        lin = linear_params_from_canonical(p)
        nu_can = nu_tilt(v, p)
        nu_lin = nu_tilt(v, lin, chart="linear")
        if nu_can.is_infinite:
            assert nu_lin.is_infinite
        else:
            assert nu_lin.value - beta == nu_can.value


def test_k3_chart_dictionary():
    rng = random.Random(19)
    for _ in range(60):
        v = ChernVec(
            S222, tuple(F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(3))
        )
        alpha = F(rng.randrange(1, 8), rng.randrange(1, 4))
        beta = F(rng.randrange(-6, 7), rng.randrange(1, 4))
        if alpha <= beta * beta / 2:
            continue
        p = TiltParams(alpha, beta)
        a_k3 = k3_alpha_from_canonical(p)
        nu_can = nu_tilt(v, p)
        nu_k3 = nu_tilt(v, TiltParams(a_k3, beta), chart="k3")
        if nu_can.is_infinite:
            assert nu_k3.is_infinite
        else:
            assert nu_k3.value / 8 - beta == nu_can.value


def test_nu_tilt_invalid_region():
    with pytest.raises(InvalidRegion):
        nu_tilt(O_X, TiltParams(F(1, 2), 1))


def test_bn_slope_examples():
    assert bn_slope(PUSH) == -2
    assert bn_slope(OH) == F(1, 2)
    v = ChernVec(X24, (1, 0, 1, 0))
    assert bn_slope(v).is_infinite


def test_delta_H_examples():
    assert delta_H(OH) == 0
    assert delta_H(O_X) == 0
    assert delta_H(ChernVec(X24, (2, 1, 0, 0))) == 64


def test_delta_H_twist_invariance():
    rng = random.Random(29)
    for _ in range(1000):
        v = ChernVec(
            X24, tuple(F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(4))
        )
        beta = F(rng.randrange(-12, 13), rng.randrange(1, 7))
        assert delta_H(twist_beta(v, beta)) == delta_H(v)


def test_q_form_examples():
    assert q_form(OH, TiltParams(0, 0)) == 0
    assert q_form(O_X, TiltParams(0, 0)) == 0
    assert q_form(ChernVec(X24, (0, 0, 1, 0)), TiltParams(0, 0)) == 256


def test_q_form_affine_in_alpha():
    rng = random.Random(37)
    for _ in range(200):
        v = ChernVec(
            X24, tuple(F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(4))
        )
        alpha = F(rng.randrange(-9, 10), rng.randrange(1, 5))
        beta = F(rng.randrange(-9, 10), rng.randrange(1, 5))
        lhs = q_form(v, TiltParams(alpha, beta)) - q_form(v, TiltParams(0, beta))
        assert lhs == 2 * alpha * delta_H(v)


def test_wall_q_invariance_collinear():
    rng = random.Random(41)
    for _ in range(200):
        v = ChernVec(
            X24,
            (
                F(rng.randrange(1, 6)),
                F(rng.randrange(-8, 9), 2),
                F(rng.randrange(-8, 9), 4),
                F(rng.randrange(-8, 9), 8),
            ),
        )
        p0 = TiltParams(F(rng.randrange(1, 9), 4), F(rng.randrange(-8, 9), 4))
        r0 = v.inum(0)
        t = F(rng.randrange(1, 7), 9)
        p1 = TiltParams(
            p0.alpha + t * (v.inum(2) / r0 - p0.alpha),
            p0.beta + t * (v.inum(1) / r0 - p0.beta),
        )
        assert wall_q_invariance_check(v, p0, p1)


def test_wall_q_invariance_identical_params():
    p = TiltParams(F(1, 2), F(1, 3))
    assert wall_q_invariance_check(OH, p, p)


def test_wall_q_invariance_non_collinear():
    with pytest.raises(PreconditionError):
        wall_q_invariance_check(OH, TiltParams(1, 0), TiltParams(2, 5))


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_wall_q_invariance_checks_the_context_first(name):
    # off X24 the check refuses with the one TiltError, on the wall or off
    # it: not an IndexError for a curve character, nor PreconditionError
    ctx = CONTEXTS[name]
    v = ChernVec(ctx, (F(2), F(3, 2), F(-1, 4), F(5, 8))[: ctx.dim + 1])
    p0 = TiltParams(F(3, 4), F(1, 2))
    on_wall = [(p0, p0)]
    if ctx.dim >= 2:
        t, r = F(2, 7), v.inum(0)
        on_wall.append((p0, TiltParams(p0.alpha + t * (v.inum(2) / r - p0.alpha), p0.beta + t * (v.inum(1) / r - p0.beta))))
        assert wall_det_core(v.inums(), 2, 5, 1, 0) != 0
    off_wall = (TiltParams(1, 0), TiltParams(2, 5))
    if ctx is X24:
        assert all(wall_q_invariance_check(v, a, b) for a, b in on_wall)
        with pytest.raises(PreconditionError):
            wall_q_invariance_check(v, *off_wall)
        return
    for a, b in (*on_wall, off_wall):
        with pytest.raises(TiltError) as exc:
            wall_q_invariance_check(v, a, b)
        assert type(exc.value) is TiltError and str(exc.value) == "Q is defined on X24"


def test_region_predicates_examples():
    flags = stability_region_predicates(TiltParams(F(1, 2), F(1, 2)), 1, 0)
    assert not flags.thm13_circle  # boundary: 1/4 is not > 1/4
    flags = stability_region_predicates(TiltParams(1, 0), 1, 0)
    assert flags.thm13_circle and flags.thm13_ab
    flags = stability_region_predicates(TiltParams(F(3, 4), F(1, 2)), 1, 0)
    assert flags.thm35_region  # 3/4 > 1/8 + 1/8


def test_region_predicates_quadnum_beta():
    beta = QuadNum(0, 1, 2)  # sqrt 2: floor 1
    flags = stability_region_predicates(TiltParams(F(2), beta), F(10), F(0))
    assert flags.thm13_circle
    assert flags.thm35_region  # 2 > 1 + (sqrt2-1)(2-sqrt2)/2 = 1 + (3sqrt2-4)/2 ~ 1.12


def test_thm35_region_is_the_thm13_circle_in_the_linear_chart():
    # for a = (alpha^2 + beta^2)/2 and f = {beta}, a - beta^2/2 - f(1 - f)/2
    # = (alpha^2 + (f - 1/2)^2 - 1/4)/2: one region, each flag in its chart;
    # seeded rational, a + b*sqrt(2) and on-circle (Pythagorean) parameters
    rng = random.Random(151)
    params = [
        TiltParams(F(rng.randrange(1, 130), 200), F(rng.randrange(-2000, 2001), rng.randrange(1, 200)))
        for _ in range(6000)
    ]
    params += [
        TiltParams(F(rng.randrange(1, 130), 200), QuadNum(F(rng.randrange(-40, 41), 7), F(rng.randrange(-9, 10), 5), 2))
        for _ in range(500)
    ]
    params += [
        TiltParams(F(x, 2 * c), n + F(1, 2) + F(sign * y, 2 * c))
        for x, y, c in ((3, 4, 5), (4, 3, 5), (5, 12, 13), (8, 15, 17))
        for sign in (1, -1)
        for n in (-3, 0, 2)
    ]
    seen = set()
    for p in params:
        circle = stability_region_predicates(p, 0, 0).thm13_circle
        assert stability_region_predicates(linear_params_from_canonical(p), 0, 0).thm35_region is circle, p
        seen.add(circle)
    assert seen == {False, True}
    assert not any(stability_region_predicates(p, 0, 0).thm13_circle for p in params[-24:])


def test_nu_equality_on_determinant_locus():
    # if the reduced character of w lies on the line through (alpha0, beta0)
    # and the reduced character of v, the linear-chart tilt slopes agree
    rng = random.Random(53)
    for _ in range(100):
        v = ChernVec(
            X24,
            (
                F(rng.randrange(1, 5)),
                F(rng.randrange(-6, 7), 2),
                F(rng.randrange(-6, 7), 4),
                F(rng.randrange(-6, 7), 8),
            ),
        )
        p = TiltParams(F(rng.randrange(1, 9), 4), F(rng.randrange(-6, 7), 4))
        lam = F(rng.randrange(1, 5), rng.randrange(1, 3))
        mu = F(rng.randrange(-4, 5), rng.randrange(1, 3))
        # reduced character of w = lam * vbar + mu * (1, alpha0, beta0)
        big_r = lam * v.inum(0) + mu
        s2 = lam * v.inum(2) + mu * p.alpha
        s1 = lam * v.inum(1) + mu * p.beta
        w = ChernVec(X24, (big_r / 8, s1 / 8, s2 / 8, 0))
        nv = nu_tilt(v, p, chart="linear")
        nw = nu_tilt(w, p, chart="linear")
        if nv.is_infinite or nw.is_infinite:
            assert nv.is_infinite and nw.is_infinite
        else:
            assert nv.value == nw.value


def test_wall_q_invariance_twists_each_character_once(monkeypatch):
    # one twist_core per parameter point, in the weighted integer frame (beta
    # times L, the lcm of the parameters' denominators), and no exp_twist
    calls = []
    real = tilt.twist_core

    def counting(nums, beta):
        calls.append(beta)
        return real(nums, beta)

    def refused(nums, beta):
        raise AssertionError("exp_twist called by the wall check")

    monkeypatch.setattr(tilt, "twist_core", counting)
    monkeypatch.setattr(tilt, "exp_twist", refused)
    v = ChernVec(X24, (F(2), F(3, 2), F(-1, 4), F(5, 8)))
    p0 = TiltParams(F(3, 4), F(1, 2))
    t = F(2, 7)
    p1 = TiltParams(p0.alpha + t * (v.inum(2) / v.inum(0) - p0.alpha), p0.beta + t * (v.inum(1) / v.inum(0) - p0.beta))
    assert wall_q_invariance_check(v, p0, p1)
    frame = math.lcm(*(x.denominator for x in (p0.alpha, p0.beta, p1.alpha, p1.beta)))
    assert frame == 28
    assert calls == [p0.beta * frame, p1.beta * frame]
    assert [type(b) for b in calls] == [int, int]


def _q_identity(q_core):
    """Both sides of ch1^b1 * Q_p0 = ch1^b0 * Q_p1 from the library's cores
    over MPoly, with p1 = p0 + tau * n0 * (p_H(v) - p0)."""
    n0, n1, n2, n3, a0, b0, tau = MPoly.variables("n0", "n1", "n2", "n3", "a0", "b0", "tau")
    nums = (n0, n1, n2, n3)
    a1 = a0 + tau * (n2 - n0 * a0)
    b1 = b0 + tau * (n1 - n0 * b0)
    assert wall_det_core(nums, a1, b1, a0, b0).is_zero()
    tw0, tw1 = tilt.twist_core(nums, b0), tilt.twist_core(nums, b1)
    return tw1[1] * q_core(nums, a0, b0, tw0), tw0[1] * q_core(nums, a1, b1, tw1)


def _q_core_with_5(nums, alpha, beta, tw):
    return 36 * (2 * alpha - beta * beta) * delta_core(nums) + 4 * tw[2] * tw[2] - 5 * tw[1] * tw[3]


def test_q_core_proves_the_wall_identity():
    lhs, rhs = _q_identity(tilt.q_core)
    assert not lhs.is_zero()
    assert poly_equal(lhs, rhs)


def test_q_core_with_5_for_6_fails_proof_and_suite(monkeypatch):
    lhs, rhs = _q_identity(_q_core_with_5)
    assert not poly_equal(lhs, rhs)
    monkeypatch.setattr(tilt, "q_core", _q_core_with_5)
    status = {r.check_name: r.status for r in run_suite("walls")}
    assert status["walls_q_invariance_randomized"] == "fail"
    assert [name for name, st in status.items() if st == "fail"] == ["walls_q_invariance_randomized"]


def test_twist_core_is_exp_twist_times_factorial():
    beta = QuadNum(F(1, 3), F(-2, 5), 7)
    for nums in ([F(2)], [F(1), F(-3, 2)], [F(2), F(3, 2), F(-1, 4)], [F(2), F(3, 2), F(-1, 4), F(5, 8)]):
        scale = math.factorial(len(nums) - 1)
        for b in (F(-5, 6), beta):
            assert exp_twist(nums, b) == tuple(x / scale for x in tilt.twist_core(nums, b))
    # over ints the core stays in the integers
    assert tilt.twist_core((8, 12, -2, 5), 3) == (48, -72, -12, 174)


def test_wall_q_invariance_non_collinear_quadnum():
    r2 = QuadNum(0, 1, 2)
    with pytest.raises(PreconditionError):
        wall_q_invariance_check(OH, TiltParams(1 + r2, 0), TiltParams(2, 5))
    with pytest.raises(PreconditionError):
        wall_q_invariance_check(OH, TiltParams(F(1, 2), r2 / 3), TiltParams(F(2), r2 / 5))


def test_wall_q_invariance_quadnum_parameters():
    # irrational parameters run the same cores on QuadNums with integral
    # parts; the verdict agrees with the public formulas on the given points
    v = ChernVec(X24, (F(2), F(3, 2), F(-1, 4), F(5, 8)))
    r2 = QuadNum(0, 1, 2)
    rng = random.Random(59)
    for _ in range(20):
        p0 = TiltParams(F(rng.randrange(1, 9), 4) + r2 / rng.randrange(1, 5), F(rng.randrange(-8, 9), 3) - r2 / 7)
        t = F(rng.randrange(1, 7), 9)
        p1 = TiltParams(
            p0.alpha + t * (v.inum(2) / v.inum(0) - p0.alpha),
            p0.beta + t * (v.inum(1) / v.inum(0) - p0.beta),
        )
        assert wall_q_invariance_check(v, p0, p1)
        lhs = twisted_inums(v, p1.beta)[1] * q_form(v, p0)
        rhs = twisted_inums(v, p0.beta)[1] * q_form(v, p1)
        assert lhs == rhs
