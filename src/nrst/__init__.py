"""Non-reversible simulated tempering as automated regenerative MCMC.

Lifted tempering kernel, tour-parallel execution with honest confidence
intervals, tour-effectiveness diagnostics, a hands-off tuning pipeline for
the grid, level affinities, grid size and exploration budget, and a
worker-pool execution planner.
"""

from .adapt import (
    AdaptResult,
    BarrierEstimate,
    ConvergenceThresholds,
    VDataset,
    adapt,
    build_barrier,
    check_convergence,
    estimate_rejections,
    mean_energy_affinities,
    median_affinities,
    optimal_grid_size,
    optimize_grid,
    run_nrpt,
    stepping_stone_logz,
)
from .bench_models import ModelSpec, analytic_gaussian_path, make_model
from .explore import (
    ExplorationKernel,
    SliceConfig,
    SliceNumericalError,
    slice_step,
    tune_explore_steps,
)
from .model import (
    DivergedPotentialError,
    Schedule,
    TemperedModel,
    acceptance_probability,
    log_tempered_density,
)
from .planner import (
    CpuTimeModel,
    InsufficientDataError,
    cost_curves,
    fit_cpu_model,
    simulate_pool,
    te_infinity,
)
from .runner import CoordinateFunction, RunReport, pilot_then_run, run_parallel
from .st_kernels import (
    ChainState,
    IdealIndexChain,
    TourOverrunError,
    TourTrace,
    ideal_te,
    nrst_step,
    run_tour,
    simulate_index_tours,
    st_step,
)
from .stats import (
    NoTopVisitsError,
    TourStatistics,
    confidence_interval,
    diagnostics_report,
    estimate_sigma2,
    estimate_te,
    min_tours,
    normal_quantile,
    ratio_estimate,
)

__version__ = "0.1.0"
