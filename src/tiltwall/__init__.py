"""Exact-arithmetic tilt stability on ruled threefolds: lattice Chern data,
slopes, Bogomolov-type inequality defects, walls, and the support-property
certificate."""

from .chern import (
    ReducedClass,
    TiltPoint,
    beta_bar,
    disc_bar_reduced,
    f_ch2_twisted,
    reduced,
    tensor_line,
    twist,
)
from .exactnum import (
    INFINITY,
    ExtRat,
    QuadRat,
    Rat,
    format_rat,
    parse_rat,
    rat_sqrt,
)
from .geometry import (
    CHAR_O,
    SKYSCRAPER,
    CharVector,
    RuledThreefold,
    canonical_and_c2,
    dual_char,
    euler_char,
    euler_char_pair,
    fiber_pushforward_char,
    format_char,
    line_bundle_char,
    parse_char,
    tensor_product_char,
)
from .inequalities import (
    bg_main_defect,
    bg_nu_zero_defect,
    bg_star_defect,
    bg_weak_defect,
    corollary_defect,
    disc_bar,
    disc_classical,
    disc_tilde,
    fiber_bogomolov_defect,
    liu_abcd,
    nabla,
    prop42_chi_bounds,
)
from .stability import (
    ChargeParams,
    ChargeValue,
    HeartReport,
    central_charge,
    heart_sign_constraints,
    mu_C,
    mu_HF,
    nu,
    nu_mixed,
    nu_sigma,
)
from .support import null_kernel_vector, verify_support
from .walls import (
    EVERYWHERE,
    SemicircleWall,
    VerticalWall,
    Wall,
    enumerate_destabilizers,
    largest_wall,
    numerical_wall,
    walls_meet,
)

__version__ = "0.1.0"
