"""Exact-arithmetic censuses of modular hyperbolas.

Point enumeration for x*y = a (mod n), line-incidence censuses (ordinary
lines, collinearity structure) and distinct-distance counting, all in exact
integer arithmetic, with verification sweeps that compare every closed form
against brute force.
"""

import types

from .distances import (
    DistanceProfile,
    GapReport,
    ImageDecomposition,
    LatticeIntersection,
    RootShiftData,
    classify_image,
    distance_profile,
    distinct_counts,
    divisor_pairs,
    gap_experiment,
    image_count_formula,
    image_count_formulas,
    intersection_counts,
    intersection_direct,
    intersection_via_lattice,
    lattice_counts,
    prime_distance_count,
    prime_power_image_report,
    sqrt_shift_data,
)
from .geometry import (
    IncidenceCensus,
    LineKey,
    OrdinaryLowerBound,
    census,
    census_many,
    check_special_line,
    count_on_line,
    line_through,
    ordinary_lower_bound,
    verify_collinearity_bounds,
    verify_line_classes,
    verify_ordinary_bound,
)
from .hyperbola import (
    HyperbolaSpec,
    PointSet,
    enumerate_many,
    enumerate_points,
    partition_classes,
    unit_partners,
)
from .ntcore import (
    PrimePower,
    euler_phi,
    is_prime,
    legendre,
    primes_upto,
    sqrt_mod_prime,
)
from .suites import SUITES, VerificationReport

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], types.ModuleType)]
__version__ = "0.1.0"
