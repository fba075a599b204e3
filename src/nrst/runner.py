"""Tour-parallel regenerative execution with reproducible per-tour streams.

Tours are i.i.d., so they are farmed out to a worker pool in contiguous
chunks of tour indices; each chunk comes back as one columnar table, and the
tables are joined in index order.  Each tour draws its randomness from a
stream keyed by (seed, tour_index): the results are bit-identical for any
worker count.
Costs are measured in potential evaluations, summed over tours for the
serial cost and maximized over tours for the parallel cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .explore import build_explorers
from .model import Schedule, TemperedModel
from .planner import te_infinity
from .st_kernels import TourTable, run_tour
from .stats import NoTopVisitsError, TourStatistics, diagnostics_report, estimate_te, min_tours

# Steps after which a tour that has not regenerated fails; _run_tours reads it in the parent.
_MAX_TOUR_STEPS = 10**6


@dataclass(frozen=True)
class CoordinateFunction:
    """Picklable test function h(x) = x[index]."""

    index: int

    def __call__(self, x):
        return float(x[self.index])


@dataclass
class RunReport:
    variant: str
    alpha: float
    delta: float
    te_hat_input: float
    k: int
    te_hat: float
    serial_cost: int
    parallel_cost: int
    estimates: dict
    seed: int
    traces: TourTable = field(repr=False)
    k_trial: int | None = None

    @property
    def tours(self) -> list:
        """Per-tour summaries, in tour order, read from the per-tour columns
        of ``traces``."""
        t = self.traces
        return [{"tour": i, "n_steps": n, "visits_top": visits, "v_evals": evals,
                 "cpu_seconds": cpu}
                for i, (n, visits, evals, cpu) in enumerate(
                    zip(t.tour_steps().tolist(), t.visits_top, t.v_evals, t.cpu_seconds))]

    def to_dict(self) -> dict:
        d = {
            "variant": self.variant,
            "alpha": self.alpha,
            "delta": self.delta,
            "te_hat_input": self.te_hat_input,
            "k": self.k,
            "te_hat": self.te_hat,
            "serial_cost": self.serial_cost,
            "parallel_cost": self.parallel_cost,
            "tours": self.tours,
            "estimates": self.estimates,
            "seed": self.seed,
        }
        if self.k_trial is not None:
            d["k_trial"] = self.k_trial
        return d

    def write_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)


def _tour_chunk(args) -> TourTable:
    """Run the tours of one contiguous range of indices into one table, with
    one set of explorers."""
    model, schedule, variant, seed, indices, h_funcs, max_steps = args
    explorers = build_explorers(model, schedule)
    table = TourTable(variant, len(h_funcs))
    for index in indices:
        rng = np.random.default_rng([seed, index])
        try:
            table.extend(run_tour(model, schedule, variant, max_steps, rng, explorers,
                                  h_funcs=h_funcs))
        except Exception as err:
            # Name the failing tour by the key of its random stream.
            err.tour_index = index
            err.seed = seed
            raise
    return table


def _run_tours(model, schedule, variant, indices, workers, seed, h_funcs):
    """The tours of the range ``indices``, as one table in index order."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(indices) <= 1:
        return _tour_chunk((model, schedule, variant, seed, indices, h_funcs, _MAX_TOUR_STEPS))
    # Imported here, so that a run without a pool never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    size = max(1, len(indices) // (workers * 8))
    chunks = [(model, schedule, variant, seed, indices[a:a + size], h_funcs, _MAX_TOUR_STEPS)
              for a in range(0, len(indices), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        tables = pool.map(_tour_chunk, chunks)
        table = next(tables)
        for more in tables:
            table.extend(more)
    return table


def _checked_h_funcs(h_funcs, h_names) -> tuple:
    """``h_funcs`` as a tuple; ValueError unless ``h_names`` is None or
    names each of them once."""
    h_funcs = tuple(h_funcs)
    if h_names is not None and len(h_names) != len(h_funcs):
        raise ValueError(f"h_names holds {len(h_names)} names for {len(h_funcs)} h_funcs")
    for k, name in enumerate(h_names or ()):
        if name in h_names[:k]:
            raise ValueError(f"h_names repeats {name!r}")
    return h_funcs


def _top_visit_te(traces, seed, what="tours") -> float:
    """Estimated TE of ``traces``, which hold the tours 0..len - 1 of
    ``seed``; raises NoTopVisitsError naming them when none reached the
    target level."""
    te = estimate_te(traces.visits_top)
    if te == 0.0:
        raise NoTopVisitsError(f"{what} 0..{len(traces) - 1} (seed {seed}) "
                               f"never reached the target level")
    return te


def _aggregate(traces, variant, alpha, delta, te_input, seed, h_names,
               k_trial=None) -> RunReport:
    stats = TourStatistics.from_traces(traces)
    diag = diagnostics_report(stats, alpha, h_names)
    v_evals = np.asarray(traces.v_evals)
    return RunReport(
        variant=variant,
        alpha=alpha,
        delta=delta,
        te_hat_input=te_input,
        k=len(traces),
        te_hat=diag["te_hat"],
        serial_cost=int(v_evals.sum()),
        parallel_cost=int(v_evals.max()),
        estimates=diag["per_h"],
        seed=seed,
        k_trial=k_trial,
        traces=traces,
    )


def run_parallel(
    model: TemperedModel,
    schedule: Schedule,
    kernel_variant: str,
    alpha: float,
    delta: float,
    te_hat: float,
    workers: int,
    rng_seed: int,
    *,
    h_funcs=(CoordinateFunction(0),),
    h_names=None,
) -> RunReport:
    """Run the number of tours implied by (alpha, delta, te_hat) on a pool.

    The report aggregates the regenerative estimators over all tours and
    keeps their traces as one :class:`TourTable`.  Bit-identical for any worker
    count at a fixed seed.  ``h_names``, if given, names each of ``h_funcs``
    once; ValueError before any tour otherwise.
    """
    h_funcs = _checked_h_funcs(h_funcs, h_names)
    k = min_tours(alpha, delta, te_hat)
    traces = _run_tours(model, schedule, kernel_variant, range(k), workers, rng_seed,
                        h_funcs)
    _top_visit_te(traces, rng_seed)
    return _aggregate(traces, kernel_variant, alpha, delta, te_hat, rng_seed, h_names)


def pilot_then_run(
    model: TemperedModel,
    schedule: Schedule,
    kernel_variant: str,
    alpha: float,
    delta: float,
    lambda_hat: float,
    workers: int,
    rng_seed: int,
    *,
    h_funcs=(CoordinateFunction(0),),
    h_names=None,
) -> RunReport:
    """Two-phase run: pilot sized by the barrier-limit TE, then a top-up.

    Phase one runs K_trial tours with the tour effectiveness seeded at
    1/(1 + 2 lambda_hat); the realized TE of those tours determines the full
    requirement K, and only the difference is executed in phase two.  Tour
    indices are contiguous so the combined run equals a single-phase run
    with the same seed.  ``h_names`` is checked as by :func:`run_parallel`.
    """
    h_funcs = _checked_h_funcs(h_funcs, h_names)
    te_seed = te_infinity(lambda_hat)
    k_trial = min_tours(alpha, delta, te_seed)
    traces = _run_tours(model, schedule, kernel_variant, range(k_trial), workers, rng_seed,
                        h_funcs)
    k = min_tours(alpha, delta, _top_visit_te(traces, rng_seed, "pilot tours"))
    if k > k_trial:
        traces.extend(_run_tours(model, schedule, kernel_variant, range(k_trial, k), workers,
                                 rng_seed, h_funcs))
    return _aggregate(traces, kernel_variant, alpha, delta, te_seed, rng_seed,
                      h_names, k_trial=k_trial)
