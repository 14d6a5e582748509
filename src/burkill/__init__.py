"""Computational laboratory for the integration of interval functions.

Divisions with bracket conventions, upper/lower norm-limits, k- and
refinement-limits, variation and absolute continuity, density integration,
and a recursive orthonormal sign-table system, with the accompanying
worked counterexamples as executable fixtures.
"""

from .catalog import (
    Fixture,
    IntervalFunction,
    PointFunction,
    fixture,
    fixture_names,
    length_fn,
    poly,
    pow2,
    stieltjes,
)
from .core import (
    Division,
    Dyadic,
    Interval,
    PointConvention,
    Region,
    division_from_points,
)
from .density import MeasurableSet, density_integral, density_kernel
from .integrator import (
    DefectReport,
    LimitReport,
    SearchConfig,
    additivity_defect,
    estimate_k_limits,
    estimate_norm_limits,
    estimate_sigma_limit,
    extremal_sum,
    riemann_sum,
    singularity_scan,
)
from .variation import (
    is_absolutely_continuous,
    j_singularity,
    monotone_on_subdivision,
    variation,
    variation_split,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
