"""Finite subset spaces of metric spaces: Hausdorff geometry, Lipschitz and
Hoelder retractions onto fewer-point configurations, metric transforms, and
empirical certification of the constants involved.
"""

from .analysis import (
    ChainWitness,
    ConstantReport,
    DisplacementReport,
    MergedCurve,
    QcBounds,
    QuasiconvexityReport,
    SampledPath,
    SubsetDomain,
    check_displacement,
    decompose_path,
    estimate_constant,
    lipschitz_obstruction_witness,
    merge_curve,
    qc_bounds,
    quasiconvexity_constant,
    split_gh,
    validate_obstruction_witness,
)
from .line import (
    GapExpansion,
    IntervalUnion,
    PiecewiseLinearMap,
    build_gap_expansion,
    delete_min_retract,
    interval_union_retract,
    line_retract,
    median_retract,
)
from .metric import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_TOLERANCE,
    EnumerationCapError,
    FSet,
    FiniteMetricSpace,
    MatchingError,
    RealLineSpace,
    dist_to_lower,
    enumerate_fsets,
    get_tolerance,
    hausdorff,
    match_bijection,
    min_separation,
)
from .transforms import (
    MetricTransform,
    QhCheckReport,
    QhModulus,
    apply_transform,
    check_induced_qh,
    estimate_qh_modulus,
    induced_subset_map,
    product_space,
    rescale,
    transport_constant,
)
from .ultra import (
    GENERIC_BOUND,
    CenterFamily,
    DisconnectionReport,
    LevelRangeError,
    SnowflakePlan,
    UltraCheckReport,
    build_centers,
    build_snowflake_plan,
    disconnection_constant,
    generic_retract,
    snowflake_exponent,
    subdominant_ultrametric,
    validate_ultrametric,
    verify_center_family,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
