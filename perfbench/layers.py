"""The traced pass: which public functions are wrapped, per layer, and the
per-layer metrics derived from their spans.

Each metric should move the end-to-end metric named in README.md on the
workload named there; a metric of a layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from nrst import bench_models
from nrst.model import TemperedModel
from nrst.runner import RunReport
from nrst.stats import TourStatistics

from tracing import SECONDS, SELF, V_EVALS, Tracer

ESTIMATORS = ("stepping_stone_logz", "estimate_rejections", "build_barrier", "optimize_grid")
STATS_FUNCTIONS = ("estimate_te", "ratio_estimate", "estimate_sigma2",
                   "confidence_interval", "min_tours")
STATS_NAMES = ("stats.from_traces",) + tuple(f"stats.{s}" for s in STATS_FUNCTIONS)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions; ``tracer.restore`` undoes it."""
    f = tracer.wrap_function
    f("nrst.adapt", "adapt", "adapt.adapt")
    f("nrst.adapt", "run_nrpt", "adapt.run_nrpt",
      units=lambda a, k, r: _arg(a, k, 2, "n_scan"),
      tag=lambda a, k, r: _arg(a, k, 1, "schedule").n_levels)
    for name in ESTIMATORS:
        f("nrst.adapt", name, f"adapt.{name}")
    f("nrst.explore", "slice_step", "explore.slice_step", units=lambda a, k, r: r.size)
    f("nrst.explore", "tune_explore_steps", "explore.tune_explore_steps")
    # Called once per V-eval, so summed and never kept as spans (record=False).
    tracer.wrap_method(TemperedModel, "potential", "model.potential", counts_v_eval=True,
                       record=False)
    f("nrst.model", "log_tempered_density", "model.log_tempered_density", record=False)
    for cls in vars(bench_models).values():
        if isinstance(cls, type) and issubclass(cls, TemperedModel):
            for attr, name in (("_potential", "bench_models.potential"),
                               ("log_reference", "bench_models.log_reference")):
                if attr in vars(cls):
                    tracer.wrap_method(cls, attr, name, record=False)
    f("nrst.st_kernels", "nrst_step", "st_kernels.nrst_step")
    f("nrst.st_kernels", "st_step", "st_kernels.st_step")
    f("nrst.st_kernels", "run_tour", "st_kernels.run_tour", units=lambda a, k, r: r.n_steps)
    f("nrst.st_kernels", "write_traces_csv", "st_kernels.write_traces_csv")
    f("nrst.runner", "pilot_then_run", "runner.pilot_then_run")
    f("nrst.runner", "run_parallel", "runner.run_parallel")
    tracer.wrap_method(RunReport, "write_json", "runner.write_json")
    tracer.wrap_method(TourStatistics, "from_traces", "stats.from_traces")
    for name in STATS_FUNCTIONS:
        f("nrst.stats", name, f"stats.{name}")
    for name in ("fit_cpu_model", "cost_curves", "simulate_pool"):
        f("nrst.planner", name, f"planner.{name}")


# name -> unit, in print order; every name is reported by ``layer_metrics``.
UNITS = {
    "tune_s": "s",
    "tune_v_evals": "count",
    "adapt.run_nrpt.calls": "count",
    "adapt.run_nrpt.s": "s",
    "adapt.run_nrpt.scans": "count",
    "adapt.run_nrpt.us_per_scan": "us",
    "adapt.run_nrpt.v_evals_per_scan": "count",
    "adapt.rounds": "count",
    "adapt.restarts": "count",
    "adapt.restart_discarded_v_evals_frac": "ratio",
    "adapt.estimators.s": "s",
    "explore.slice_step.calls": "count",
    "explore.slice_step.self_us": "us",
    "explore.slice_step.v_evals_per_call": "count",
    "explore.v_evals_per_coordinate": "count",
    "explore.tune_explore_steps.s": "s",
    "explore.tune_explore_steps.v_evals": "count",
    "model.potential.calls": "count",
    "model.potential.self_us": "us",
    "model.log_tempered_density.calls": "count",
    "model.log_tempered_density.self_us": "us",
    "bench_models.potential.self_us": "us",
    "bench_models.log_reference.self_us": "us",
    "st_kernels.nrst_step.calls": "count",
    "st_kernels.nrst_step.self_us": "us",
    "st_kernels.nrst_step.v_evals_per_call": "count",
    "st_kernels.st_step.calls": "count",
    "st_kernels.st_step.self_us": "us",
    "st_kernels.st_step.v_evals_per_call": "count",
    "st_kernels.run_tour.calls": "count",
    "st_kernels.run_tour.self_us": "us",
    "st_kernels.run_tour.v_evals_per_call": "count",
    "st_kernels.run_tour.steps_per_call": "count",
    "st_kernels.write_traces_csv.s": "s",
    "st_kernels.write_traces_csv.bytes": "bytes",
    "runner.tours": "count",
    "runner.pilot_tours": "count",
    "runner.pool_efficiency": "ratio",
    "runner.speedup": "ratio",
    "runner.write_json.s": "s",
    "stats.aggregate.s": "s",
    "planner.fit_cpu_model.s": "s",
    "planner.cost_curves.s": "s",
    "planner.simulate_pool.calls": "count",
    "planner.simulate_pool.self_us": "us",
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, traced: list, serial: list, parallel: list,
                  workers: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``traced``, ``serial`` and ``parallel`` hold the OpResults of the traced
    1-worker ops and of the untraced ops at 1 and 2 workers, for the same
    inputs.  Counts and seconds are per op; ``self_us`` is per call.
    """
    n_ops = len(traced)
    out = {}

    def per_op(name, field=SECONDS):
        return tracer.summed(name)[field] / n_ops

    def per_call(name, *fields):
        calls, _, own, v, _ = tracer.summed(name)
        values = {"calls": calls / n_ops, "self_us": 1e6 * _ratio(own, calls),
                  "v_evals_per_call": _ratio(v, calls)}
        for fld in fields:
            out[f"{name}.{fld}"] = values[fld]

    base_by_seed = {r.seed: r for r in serial}
    out["tune_s"] = statistics.median(r.tune_s for r in serial)
    out["tune_v_evals"] = statistics.median(r.tune_v_evals for r in serial)

    calls, seconds, _, v, scans = tracer.summed("adapt.run_nrpt")
    out["adapt.run_nrpt.calls"] = calls / n_ops
    out["adapt.run_nrpt.s"] = seconds / n_ops
    out["adapt.run_nrpt.scans"] = scans / n_ops
    out["adapt.run_nrpt.us_per_scan"] = 1e6 * _ratio(seconds, scans)
    out["adapt.run_nrpt.v_evals_per_scan"] = _ratio(v, scans)
    tuned = [base_by_seed[r.seed].tuned for r in traced if base_by_seed[r.seed].tuned]
    out["adapt.rounds"] = sum(len(t.rounds) for t in tuned) / n_ops
    out["adapt.restarts"] = sum(t.restarts for t in tuned) / n_ops
    out["adapt.restart_discarded_v_evals_frac"] = _discarded_frac(tracer) / n_ops
    out["adapt.estimators.s"] = sum(per_op(f"adapt.{e}") for e in ESTIMATORS)

    per_call("explore.slice_step", "calls", "self_us", "v_evals_per_call")
    _, _, _, v, coordinates = tracer.summed("explore.slice_step")
    out["explore.v_evals_per_coordinate"] = _ratio(v, coordinates)
    out["explore.tune_explore_steps.s"] = per_op("explore.tune_explore_steps")
    out["explore.tune_explore_steps.v_evals"] = per_op("explore.tune_explore_steps", V_EVALS)

    per_call("model.potential", "calls", "self_us")
    per_call("model.log_tempered_density", "calls", "self_us")
    per_call("bench_models.potential", "self_us")
    per_call("bench_models.log_reference", "self_us")

    for step in ("nrst_step", "st_step", "run_tour"):
        per_call(f"st_kernels.{step}", "calls", "self_us", "v_evals_per_call")
    calls, _, _, _, steps = tracer.summed("st_kernels.run_tour")
    out["st_kernels.run_tour.steps_per_call"] = _ratio(steps, calls)
    out["st_kernels.write_traces_csv.s"] = per_op("st_kernels.write_traces_csv")
    out["st_kernels.write_traces_csv.bytes"] = sum(r.traces_bytes for r in traced) / n_ops

    out["runner.tours"] = sum(r.tours for r in traced) / n_ops
    out["runner.pilot_tours"] = sum(r.pilot_tours for r in traced) / n_ops
    at_workers = serial if workers == 1 else parallel
    out["runner.pool_efficiency"] = _ratio(
        sum(r.tour_seconds for r in at_workers), workers * sum(r.run_s for r in at_workers))
    out["runner.speedup"] = _ratio(statistics.median(r.run_s for r in serial),
                                   statistics.median(r.run_s for r in parallel))
    out["runner.write_json.s"] = per_op("runner.write_json")
    out["stats.aggregate.s"] = sum(per_op(s, SELF) for s in STATS_NAMES)

    out["planner.fit_cpu_model.s"] = per_op("planner.fit_cpu_model")
    out["planner.cost_curves.s"] = per_op("planner.cost_curves")
    per_call("planner.simulate_pool", "calls", "self_us")

    out["trace.overhead_frac"] = _ratio(
        sum(r.solve_s for r in traced), sum(base_by_seed[r.seed].solve_s for r in traced)) - 1.0
    return out


def _discarded_frac(tracer: Tracer) -> float:
    """Sum over ops of the NRPT V-evals spent at a grid size other than the
    final one, as a share of the op's tuning V-evals."""
    spans = tracer.spans()
    names = list(spans["names"])
    if "adapt.run_nrpt" not in names:
        return 0.0
    nrpt = spans["name_id"] == names.index("adapt.run_nrpt")
    total = 0.0
    for op, per_op in tracer.totals.items():
        mine = nrpt & (spans["op"] == op)
        if not mine.any():
            continue
        levels, v = spans["tag"][mine], spans["v_evals"][mine]  # in call order
        total += _ratio(v[levels != levels[-1]].sum(), per_op["adapt.adapt"][V_EVALS])
    return total
