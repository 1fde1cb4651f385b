"""Differential geometry of normalized Grassmann manifolds.

Subspaces of projective space, complementary m-pairs, cross-ratio
invariants, fundamental tensors of normalizing maps, the induced affine
connection with its curvature and Ricci tensors, polar normalization by
nondegenerate quadrics, and the flat affine chart of rank-zero
normalizations.
"""

from .errors import (
    DegenerateBlock,
    DependentPoints,
    DimensionMismatch,
    FramingFailure,
    GeometryError,
    InvalidPair,
    MapUndefined,
    NonPositiveTrace,
    NotComplementary,
    NotPolarAdapted,
    TangentSubspace,
    TensorTooLarge,
)
from .projective_core import (
    MPair,
    ProjectiveFrame,
    Subspace,
    adapted_frame,
    subspace_from_points,
)
from .cross_ratio import CrossRatioMatrix, cr_log_distance, cross_ratio
from .normalization import (
    FundamentalTensor,
    MetricTensor,
    NormalizingMap,
    TangentDirection,
    constant_map,
    estimate_fundamental_tensor,
    harmonic_defect,
    is_asymptotic_direction,
    is_harmonic,
    lambda_rank,
    metric_inertia,
    symmetrize_metric,
)
from .connection import (
    CurvatureTensor,
    RicciTensor,
    covariant_derivative_estimate,
    curvature_tensor,
    homogeneity_residual,
    is_homogeneous,
    ricci_from_curvature,
    ricci_tensor,
)
from .polar import (
    BlockMetrics,
    CovariantCurvature,
    EinsteinResult,
    Quadric,
    adjust_curvature_indices,
    block_metrics,
    covariant_curvature,
    einstein_check,
    polar_conjugate,
    polar_lambda,
    polar_map,
    ricci_proportionality,
)
from .segre_affine import (
    AffineChartPoint,
    chart_frame,
    flatness_report,
    inverse_projection,
    stereographic_projection,
)

__version__ = "0.1.0"

__all__ = [
    "AffineChartPoint",
    "BlockMetrics",
    "CovariantCurvature",
    "CrossRatioMatrix",
    "CurvatureTensor",
    "DegenerateBlock",
    "DependentPoints",
    "DimensionMismatch",
    "EinsteinResult",
    "FramingFailure",
    "FundamentalTensor",
    "GeometryError",
    "InvalidPair",
    "MPair",
    "MapUndefined",
    "MetricTensor",
    "NonPositiveTrace",
    "NormalizingMap",
    "NotComplementary",
    "NotPolarAdapted",
    "ProjectiveFrame",
    "Quadric",
    "RicciTensor",
    "Subspace",
    "TangentDirection",
    "TangentSubspace",
    "TensorTooLarge",
    "adapted_frame",
    "adjust_curvature_indices",
    "block_metrics",
    "chart_frame",
    "constant_map",
    "covariant_curvature",
    "covariant_derivative_estimate",
    "cr_log_distance",
    "cross_ratio",
    "curvature_tensor",
    "einstein_check",
    "estimate_fundamental_tensor",
    "flatness_report",
    "harmonic_defect",
    "homogeneity_residual",
    "inverse_projection",
    "is_asymptotic_direction",
    "is_harmonic",
    "is_homogeneous",
    "lambda_rank",
    "metric_inertia",
    "polar_conjugate",
    "polar_lambda",
    "polar_map",
    "ricci_from_curvature",
    "ricci_proportionality",
    "ricci_tensor",
    "stereographic_projection",
    "subspace_from_points",
    "symmetrize_metric",
    "__version__",
]
