"""Non-reversible simulated tempering as automated regenerative MCMC.

Lifted tempering kernel, tour-parallel execution with honest confidence
intervals, tour-effectiveness diagnostics, a hands-off tuning pipeline for
the grid, level affinities, grid size and exploration budget, and a
worker-pool execution planner.

The package exports the pipeline API (tune -> run -> plan); the building
blocks, and each error type, are imported from the submodules that define
them.
"""

from .adapt import adapt
from .bench_models import ModelSpec, make_model
from .model import Schedule, TemperedModel
from .planner import cost_curves, fit_cpu_model
from .runner import CoordinateFunction, pilot_then_run, run_parallel

__version__ = "0.1.0"
