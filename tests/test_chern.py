import json
import random
from fractions import Fraction as F

import pytest

from tiltbound.chern import (
    C2224,
    S222,
    S224,
    X24,
    ChernVec,
    CurveClass,
    UnsupportedCut,
    WrongContext,
    ZeroClass,
    chi_euler,
    curve_class_of,
    dual_shift_char,
    grr_push_to_k3,
    mukai_square,
    restrict_to_divisor,
    spherical_twist_char,
    twist_beta,
)


def test_context_registry():
    assert (C2224.dim, C2224.degree, C2224.genus) == (1, 32, 65)
    assert (S222.dim, S222.degree) == (2, 8)
    assert (S224.dim, S224.degree) == (2, 16)
    assert (X24.dim, X24.degree) == (3, 8)


def test_chernvec_length_checked():
    with pytest.raises(ValueError):
        ChernVec(X24, (1, 0, 0))


def test_inum_uniform_pairing():
    v = ChernVec(X24, (2, 1, F(1, 2), F(1, 6)))
    assert v.inum(0) == 16  # H^3 ch0
    assert v.inum(1) == 8  # H^2 ch1
    assert v.inum(2) == 4  # H ch2
    assert v.inum(3) == F(4, 3)  # ch3


# -- twist_beta -----------------------------------------------------------------


def test_twist_oh_to_o():
    oh = ChernVec(X24, (1, 1, F(1, 2), F(1, 6)))
    assert twist_beta(oh, 1).c == (1, 0, 0, 0)


def test_twist_by_zero_identity():
    v = ChernVec(X24, (3, F(-1, 2), F(5, 7), F(2, 3)))
    assert twist_beta(v, 0) == v


def test_twist_o_by_minus_one():
    o = ChernVec(X24, (1, 0, 0, 0))
    assert twist_beta(o, -1).c == (1, 1, F(1, 2), F(1, 6))


def test_twist_group_action():
    rng = random.Random(5)
    for _ in range(200):
        v = ChernVec(
            X24,
            tuple(F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(4)),
        )
        b1 = F(rng.randrange(-9, 10), rng.randrange(1, 7))
        b2 = F(rng.randrange(-9, 10), rng.randrange(1, 7))
        assert twist_beta(v, b1 + b2) == twist_beta(twist_beta(v, b1), b2)


# -- pushforward -----------------------------------------------------------------


def test_grr_push_examples():
    v = grr_push_to_k3(CurveClass(1, 0))
    assert v.c[0] == 0 and v.c[1] == 4 and v.inum(2) == -64
    assert grr_push_to_k3(CurveClass(1, 128)).inum(2) == 64  # deg K_C
    assert grr_push_to_k3(CurveClass(2, 33)).inum(2) == -95


def test_grr_push_zero_class():
    with pytest.raises(ZeroClass):
        grr_push_to_k3(CurveClass(0, 0))


def test_grr_mukai_property():
    rng = random.Random(11)
    for _ in range(100):
        r = rng.randrange(1, 20)
        d = rng.randrange(-100, 200)
        assert mukai_square(grr_push_to_k3(CurveClass(r, d))) == 128 * r * r


# -- restriction -----------------------------------------------------------------


def test_restrict_surface_to_curve():
    v = ChernVec(S224, (1, 1, F(1, 2)))
    cc = curve_class_of(restrict_to_divisor(v, 2))
    assert (cc.r, cc.d) == (1, 32)  # deg = 2 * H.ch1 = 2*16


def test_restrict_trivial_bundle():
    v = ChernVec(S224, (1, 0, 0))
    cc = curve_class_of(restrict_to_divisor(v, 2))
    assert (cc.r, cc.d) == (1, 0)


def test_restrict_threefold_to_surface():
    v = ChernVec(X24, (2, 1, 0, 0))
    w = restrict_to_divisor(v, 2)
    assert w.context is S224
    assert w.c[0] == 2
    assert w.inum(1) == 2 * v.inum(1)  # H_Y.ch1 = 2 * H^2.ch1


def test_restrict_unregistered_cut():
    with pytest.raises(UnsupportedCut):
        restrict_to_divisor(ChernVec(X24, (1, 0, 0, 0)), 3)
    with pytest.raises(UnsupportedCut):
        restrict_to_divisor(ChernVec(C2224, (1, 0)), 2)


# -- duals and twists --------------------------------------------------------------


def test_dual_shift_examples():
    v = ChernVec(X24, (1, 1, F(1, 2), F(1, 6)))
    assert dual_shift_char(v).c == (-1, 1, F(-1, 2), F(1, 6))
    o = ChernVec(X24, (1, 0, 0, 0))
    assert dual_shift_char(o).c == (-1, 0, 0, 0)


def test_dual_shift_involution():
    rng = random.Random(23)
    for _ in range(50):
        v = ChernVec(
            X24, tuple(F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(4))
        )
        assert dual_shift_char(dual_shift_char(v)) == v


def test_spherical_twist_examples():
    v = grr_push_to_k3(CurveClass(1, 0))
    tw = spherical_twist_char(v, 1, "ev")
    assert tw.c[0] == -1 and tw.c[1] == 4 and tw.inum(2) == -64
    assert spherical_twist_char(v, 0, "ev") == v
    o = ChernVec(X24, (1, 0, 0, 0))
    assert spherical_twist_char(o, 2, "can").c == (3, 0, 0, 0)
    with pytest.raises(WrongContext):
        spherical_twist_char(ChernVec(S224, (1, 0, 0)), 1, "ev")


# -- chi / mukai --------------------------------------------------------------------


def test_chi_examples():
    assert chi_euler(ChernVec(X24, (1, 0, 0, 0))) == 0
    assert chi_euler(ChernVec(S224, (1, 0, 0))) == 20
    assert chi_euler(ChernVec(S222, (1, 0, 0))) == 2
    assert chi_euler(ChernVec(X24, (1, 1, F(1, 2), F(1, 6)))) == 6  # O_X(1), 6 sections
    assert chi_euler(ChernVec(C2224, (1, 0))) == -64  # 1 - g


def test_chi_dual_pattern_on_s224():
    rng = random.Random(31)
    for _ in range(50):
        v = ChernVec(
            S224, tuple(F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(3))
        )
        assert chi_euler(dual_shift_char(v)) == -chi_euler(v) - 2 * v.inum(1)


def test_mukai_examples():
    assert mukai_square(ChernVec(S222, (1, 0, 0))) == -2
    assert mukai_square(grr_push_to_k3(CurveClass(1, 0))) == 128
    assert mukai_square(ChernVec(S222, (1, 1, 0))) == 6
    with pytest.raises(WrongContext):
        mukai_square(ChernVec(S224, (1, 0, 0)))


def test_json_round_trip():
    v = ChernVec(X24, (1, F(-3, 2), F(5, 8), F(7, 16)))
    data = json.loads(v.to_json())
    assert data["context"] == "X24" and data["c"] == ["1", "-3/2", "5/8", "7/16"]
    assert ChernVec.from_json(v.to_json()) == v
