"""Nonnegative coupled CP fusion of hyperspectral and multispectral images."""

from .als import AlsTrace, random_init, solve_als
from .degradation import (
    DegradationConfig,
    DegradationOperators,
    add_noise,
    band_aggregation_matrix,
    blur_downsample_matrix,
    build_operators,
    degrade,
)
from .experiment import (
    ExperimentConfig,
    FuseResult,
    ResultRow,
    SceneConfig,
    SummaryRow,
    emit_results,
    emit_summary,
    fuse,
    read_results,
    run_experiment,
    simulate_scene,
)
from .fileio import read_matrix, read_tensor, write_matrix, write_tensor
from .metrics import (
    MetricsReport,
    cross_correlation,
    metrics_report,
    rmse,
    rsnr,
    sam,
    spatial_smooth,
)
from .solver import (
    FusionProblem,
    GramianOperator,
    IterationRecord,
    LatentTriple,
    SolverConfig,
    SolverDivergenceError,
    SolverState,
    block_jacobi_preconditioner,
    cauchy_point,
    dogleg_step,
    gradient,
    init_latent,
    objective,
    pcg,
    reconstruct_sri,
    solve,
    square_params,
    trust_region_update,
)
from .tensors import (
    CpdModel,
    cpd_reconstruct,
    fold,
    frobenius_norm,
    khatri_rao,
    mode_n_product,
    mttkrp,
    unfold,
)

__version__ = "0.1.0"
