import random
from fractions import Fraction as F

import pytest

from tiltbound.chern import S222, X24, ChernVec, CurveClass, grr_push_to_k3, twist_beta
from tiltbound import tilt
from tiltbound.exactnum import QuadNum
from tiltbound.tilt import (
    InvalidRegion,
    PreconditionError,
    SlopeValue,
    TiltParams,
    bn_slope,
    delta_H,
    k3_alpha_from_canonical,
    linear_params_from_canonical,
    mu_slope,
    nu_tilt,
    q_form,
    stability_region_predicates,
    wall_q_invariance_check,
)

OH = ChernVec(X24, (1, 1, F(1, 2), F(1, 6)))
O_X = ChernVec(X24, (1, 0, 0, 0))
PUSH = grr_push_to_k3(CurveClass(1, 0))


def test_slope_value_ordering():
    inf = SlopeValue.infinity()
    assert inf.is_infinite and inf == SlopeValue.infinity()
    assert SlopeValue.finite(F(1, 2)) < inf
    assert inf > SlopeValue.finite(10**9)
    assert SlopeValue.finite(F(1, 2)) == F(1, 2)


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
    # one exp_twist per parameter point: q_form's core takes the twisted numbers
    calls = []
    real = tilt.exp_twist

    def counting(nums, beta):
        calls.append(beta)
        return real(nums, beta)

    monkeypatch.setattr(tilt, "exp_twist", counting)
    v = ChernVec(X24, (F(2), F(3, 2), F(-1, 4), F(5, 8)))
    p0 = TiltParams(F(3, 4), F(1, 2))
    t = F(2, 7)
    p1 = TiltParams(p0.alpha + t * (v.inum(2) / v.inum(0) - p0.alpha), p0.beta + t * (v.inum(1) / v.inum(0) - p0.beta))
    assert wall_q_invariance_check(v, p0, p1)
    assert calls == [p0.beta, p1.beta]
