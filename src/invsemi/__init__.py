"""Transformations of {0..n-1} that stabilize a distinguished subset Y.

The central object is the family of all total maps f with Yf = Y, composed
left to right.  The package enumerates it and its three companion families,
decides Green's relations by structural characterizations cross-checked
against brute-force definitional oracles, finds regularity witnesses, lists
every two-sided ideal, and carries a symbolic fiber-size calculus with a
single infinity so the places where finite and infinite Y part ways can be
exhibited on a desk.
"""

from .core import (
    Context,
    MembershipFlags,
    Transformation,
    carries_y,
    classify,
    compose,
    format_transformation,
    identity,
    image_deficit,
    parse_transformation,
    parse_y,
    restrict_to_y,
    transformation_from_json,
    transformation_to_json,
)
from .errors import BudgetError, DimensionError, DomainError, InvsemiError
from .extnat import (
    OMEGA,
    FiberProfile,
    IndexedCover,
    as_extnat,
    cover_is_valid,
    d_condition,
    format_profile,
    j_condition,
    matching_is_valid,
    n_value,
    parse_profile,
    profile_of,
)
from .ideals import IdealSet, ideals_all, is_ideal, j_classes, j_of_f, j_st, kernel
from .regularity import (
    RegularityReport,
    is_regular,
    is_regular_oracle,
    is_unit_regular,
    pre_inverses,
)
from .semigroup import (
    EggBox,
    GreenOracle,
    SemigroupEnum,
    d_middle_witness,
    d_related,
    eggbox,
    eggbox_dot,
    eggbox_json,
    eggbox_text,
    enumerate_family,
    green_related,
    h_related,
    j_below_holds,
    j_below_witness,
    j_related,
    l_below_witness,
    l_related,
    r_below_witness,
    r_related,
    units,
)
from .verify import VerifyConfig, run_verify

__version__ = "0.1.0"
