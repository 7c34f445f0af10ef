"""Exact tilt-stability bounds and wall geometry for the quadric-quartic tower.

The package computes, in exact arithmetic, every numerical structure behind
the Bogomolov-Gieseker / Clifford bound chain on the tower
C(2,2,2,4) in S(2,2,2), S'(2,2,4), X(2,4): Chern character bookkeeping,
slope and tilt-slope machinery, the degree-8 K3 wall geometry with its
Le Potier-type boundary curve, the piecewise global-section and Clifford
bounds, convex-chain maximization, and a replayable verification harness.
"""

from .exactnum import (
    MPoly,
    Poly1,
    QuadNum,
    Rat,
    RadicalSum,
    compare_scalars,
    decimal_str,
    format_rat,
    format_scalar,
    parse_rat,
    parse_scalar,
    poly_equal,
    radical_identity_check,
    sqrt_exact,
    square_free_core,
)
from .chern import (
    C2224,
    S222,
    S224,
    X24,
    ChernVec,
    CurveClass,
    VarietyContext,
    chi_euler,
    curve_class_of,
    dual_shift_char,
    grr_push_to_k3,
    mukai_square,
    restrict_to_divisor,
    spherical_twist_char,
    twist_beta,
)
from .tilt import (
    SlopeValue,
    TiltParams,
    bn_slope,
    delta_H,
    mu_slope,
    nu_tilt,
    q_form,
    stability_region_predicates,
    wall_q_invariance_check,
)
from .walls import (
    FirstWallBounds,
    WallLine,
    bn_threshold,
    first_wall_bounds,
    gamma_curve,
    gamma_piece,
    line_gamma_intersection,
    nested_wall_line,
)
from .bounds import (
    PiecewiseBound,
    PlanePoint,
    bg_bound_surface,
    bg_bound_threefold,
    bg_linear_family,
    bg_quadratic_family,
    bg_refined_family,
    clifford_bound,
    clifford_family,
    piecewise_check,
    spade,
    spade_fallback,
)
from .convexopt import (
    ConvexChain,
    WallTriangle,
    clifford_chain_bound,
    maximize_bruteforce,
    maximize_reduced,
    spade_sum,
    triangle_from_first_wall,
)
from .verify import VerificationReport, run_suite, run_suites

__version__ = "0.1.0"
