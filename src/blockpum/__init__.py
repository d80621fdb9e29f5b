"""Partition-of-unity RBF interpolation with block-based neighbor search."""

from .blockpart import (
    BlockStructure,
    JoinPairs,
    Neighborhood,
    RangeResult,
    block_index,
    blocks_per_side,
    brute_force_range_search,
    build,
    containing_query,
    join_pairs,
    neighborhood_of,
    range_search,
    strip_index,
)
from .errors import (
    BlockPumError,
    DegenerateInput,
    DegenerateRatio,
    EmptyReduction,
    EmptySubdomainPruned,
    InsufficientCoverage,
    KernelSupportTooSmall,
    LengthMismatch,
    NoActiveSubdomain,
    PointOutsideBox,
    SameBasin,
    SingularLocalSystem,
)
from .geometry import (
    Box,
    ConvexDomain,
    PointSet,
    Rect,
    contains,
    convex_hull,
    fill_distance,
    grid_on_rect,
    halton,
    reduce_to_domain,
)
from .kernels import (
    Kernel,
    dense_distance_matrix,
    make_kernel,
    phi_wendland_c2,
    phi_wu_c4,
)
from .pum import (
    Covering,
    LocalFit,
    PumConfig,
    PumModel,
    PumResult,
    RunReport,
    audit_partition_of_unity,
    evaluate,
    fit_model,
    local_solve,
    pum_interpolate,
    shepard_weights,
    subdomain_grid,
    suggest_d_r,
)
from .reconstruct import OrientedCloud, ReconstructionResult, augment, reconstruct
from .separatrix import (
    UNRESOLVED,
    Y_ONLY,
    Z_ONLY,
    CompetitionParams,
    bisect_separatrix,
    classify,
    rhs,
    sample_separatrix,
)
from .validation import (
    TEST_FUNCTIONS,
    convergence_rate,
    eval_test_function,
    mae,
    rmse,
)

__version__ = "0.1.0"
