"""Non-reversible simulated tempering as automated regenerative MCMC.

Lifted tempering kernel, tour-parallel execution with honest confidence
intervals, tour-effectiveness diagnostics, a hands-off tuning pipeline for
the grid, level affinities, grid size and exploration budget, and a
worker-pool execution planner.

The package exports the pipeline API (tune -> run -> plan); the building
blocks are imported from the submodules.
"""

from .adapt import adapt
from .bench_models import ModelSpec, make_model
from .explore import SliceNumericalError
from .model import DivergedPotentialError, Schedule, TemperedModel
from .planner import cost_curves, fit_cpu_model
from .runner import CoordinateFunction, pilot_then_run, run_parallel
from .st_kernels import TourOverrunError
from .stats import NoTopVisitsError

__version__ = "0.1.0"
