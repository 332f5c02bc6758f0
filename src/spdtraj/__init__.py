"""spdtraj: multivariate time series as trajectories of SPD matrices.

Sliding-window shrinkage covariance estimation, a quotient Riemannian metric
on SPD matrices with closed-form geodesics and transport, rate-invariant
trajectory alignment through transported square-root vector fields, Stiefel
dimension reduction that preserves pairwise distances, and distance-based
classification utilities.
"""

from .alignment import (
    TrajectoryPair,
    WarpingFunction,
    align_dq,
    apply_warp,
    dist_dc,
    random_warp,
    resample_trajectory,
)
from .analysis import (
    CVReport,
    DistanceMatrix,
    LabeledCollection,
    alignment_reduction_histogram,
    cross_validate,
    distance_matrix,
    knn_classify,
)
from .estimation import (
    CovarianceTrajectory,
    MultivariateTimeSeries,
    ShrinkageDiagnostics,
    WindowConfig,
    estimate_trajectory,
    ledoit_wolf,
    logdet_curve,
    normalize_trajectory,
    smooth_resample,
)
from .geometry import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    dist_unitdet,
    exp_map,
    log_euclidean_dist,
    log_map,
    normalize_det,
    sym_exp,
    sym_log,
    sym_sqrt,
)
from .reduction import (
    PairSet,
    ReductionModel,
    StiefelBasis,
    build_pairs,
    fit,
    project,
    reduce_trajectory,
)
from .simgen import Exp1Config, Exp2Config, gen_exp1, gen_exp2, gen_two_class

__version__ = "0.1.0"
