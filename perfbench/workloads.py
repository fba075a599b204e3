"""Benchmark workloads: one op runs the CLI's tune -> run -> plan sequence.

An op calls the public API in the order ``nrst tune``, ``nrst run`` (or
``nrst bench``) and ``nrst plan`` do, writes the artifacts they write, and
times each phase.  ``check_op`` then verifies the outputs; it runs outside
the timed region.

Layers are reached through their module attributes (``adapt.adapt``,
``runner.pilot_then_run``, ...) so that the tracer can rebind them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from nrst import bench_models, planner, runner, st_kernels
from nrst.model import Schedule

adapt = importlib.import_module("nrst.adapt")

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

# Every workload runs toy_gaussian: its path has closed-form moments and
# log Z, which the checks compare against.
MODEL = "toy_gaussian"
ALPHA = 0.95
# `nrst plan` settings: its default pool list and replications, and a
# follow-up run of 1024 tours.
PLAN_POOLS = (1, 2, 4, 8, 16, 32, 64)
PLAN_REPLICATIONS = 30
PLAN_K_EXTRA = 1024
# Acceptance criterion 4: stepping-stone log Z(1) from a 10^4-scan NRPT run.
LOGZ_SCANS = 10**4
# Tolerance on |log Z_hat(1) - log Z(1)|.  Criterion 4 uses 0.05 on its N=8
# grid; the restarted N=5 grid of pipeline-toy has a seed-to-seed error of
# about 0.024 (RMS of 10 seeds, largest 0.058), so 0.05 would fail correct
# code; 0.1 is about 4 standard errors.
LOGZ_TOL = 0.1
# An estimate passes when it lies within this many CI half-widths of the truth.
TRUTH_HALF_WIDTHS = 4.0
# `nrst tune` settings of a tuning op: initial levels and the round cap.
TUNE_LEVELS = 8
TUNE_ROUNDS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: tuple
    delta: float
    workers: int
    # Frozen schedule under inputs/; None means the op tunes its own.
    schedule_file: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-toy",
            "full tune -> run -> plan on toy_gaussian, 1 worker: tuning is ~90% "
            "of V-evals and the grid-size restart fires, so adapt and explore "
            "changes show here",
            variants=("nrst",), delta=0.5, workers=1,
        ),
        Workload(
            "bench-toy",
            "ST then NRST runs of nrst bench on a frozen toy_gaussian schedule, "
            "delta 0.2, 2 workers: ~11k short tours stress per-tour overhead, pool "
            "dispatch and stats; no adapt",
            variants=("st", "nrst"), delta=0.2, workers=2,
            schedule_file="toy_gaussian.schedule.json",
        ),
    )
}


@dataclass
class Context:
    """What set-up leaves ready for the ops of one workload.

    For a frozen schedule, ``te_hat`` holds each variant's closed-form tour
    effectiveness from the schedule's stored rejections (what ``nrst bench
    --ideal`` prints).  Its runs are sized by it, as ``nrst run --te-hat``
    does, so every seed runs the same number of tours; a pilot would let the
    tour count, and with it the op's cost, vary by +-15% from seed to seed.
    """

    workload: Workload
    model: object
    payload: dict | None = None
    schedule: Schedule | None = None
    te_hat: dict = field(default_factory=dict)


def setup(name: str) -> Context:
    """make_model and, for frozen-schedule workloads, the validated schedule."""
    w = WORKLOADS[name]
    ctx = Context(w, bench_models.make_model(bench_models.ModelSpec(MODEL, {})))
    if w.schedule_file is not None:
        with open(INPUTS / w.schedule_file) as f:
            ctx.payload = json.load(f)
        if ctx.payload["model"]["name"] != MODEL:
            raise ValueError(f"{w.schedule_file} is for model {ctx.payload['model']['name']!r}")
        ctx.schedule = Schedule.from_dict(ctx.payload)
        r_sym = np.asarray(ctx.payload["rejections"]["sym"], dtype=float)
        chain = st_kernels.IdealIndexChain.symmetric(np.clip(r_sym, 0.0, 1.0 - 1e-9))
        ctx.te_hat = {v: st_kernels.ideal_te(chain, v) for v in w.variants}
    return ctx


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class OpResult:
    seed: int
    workers: int
    tune_s: float = 0.0
    run_s: float = 0.0
    plan_s: float = 0.0
    solve_s: float = 0.0
    cpu_s: float = 0.0
    tune_v_evals: int = 0
    run_v_evals: int = 0
    run_parallel_v_evals: int = 0
    tour_seconds: float = 0.0
    traces_bytes: int = 0
    tours: int = 0
    pilot_tours: int = 0
    tuned: object = None
    schedule: Schedule | None = None
    lambda_hat: float = 0.0
    reports: list = field(default_factory=list)
    curves: list = field(default_factory=list)
    signature: str = ""
    logz_error: float | None = None


def run_op(ctx: Context, seed: int, workers: int, out_dir: Path) -> OpResult:
    """One timed pass of the workload's CLI sequence at one seed."""
    w = ctx.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    res = OpResult(seed, workers)
    cpu0 = cpu_seconds()
    t0 = perf_counter()

    if w.schedule_file is None:  # nrst tune
        v0 = ctx.model.v_evals.value
        tuned = adapt.adapt(ctx.model, TUNE_LEVELS, TUNE_ROUNDS, "mean",
                            rng=np.random.default_rng(seed))
        res.tune_v_evals = ctx.model.v_evals.value - v0
        payload = {"model": {"name": MODEL, "params": {}},
                   **tuned.schedule.to_dict(), "lambda_hat": tuned.lambda_hat}
        with open(out_dir / "schedule.json", "w") as f:
            json.dump(payload, f, indent=1)
        res.tuned = tuned
        res.schedule = Schedule.from_dict(payload)
        res.lambda_hat = tuned.lambda_hat
        t1 = perf_counter()
    else:
        res.schedule = ctx.schedule
        res.lambda_hat = ctx.payload["lambda_hat"]
        t1 = t0

    h = {"h_funcs": (runner.CoordinateFunction(0),), "h_names": ["x1"]}
    for variant in w.variants:  # nrst run / nrst bench
        if ctx.te_hat:
            report = runner.run_parallel(ctx.model, res.schedule, variant, ALPHA, w.delta,
                                         ctx.te_hat[variant], workers, seed, **h)
        else:
            report = runner.pilot_then_run(ctx.model, res.schedule, variant, ALPHA,
                                           w.delta, res.lambda_hat, workers, seed, **h)
        report.write_json(out_dir / f"report-{variant}.json")
        with open(out_dir / f"traces-{variant}.csv", "w") as f:
            st_kernels.write_traces_csv(report.traces, f)
        res.reports.append(report)
    t2 = perf_counter()

    # nrst plan, from the report on disk of the last variant run
    with open(out_dir / f"report-{w.variants[-1]}.json") as f:
        times = [t["cpu_seconds"] for t in json.load(f)["tours"]]
    cpu_model = planner.fit_cpu_model(np.asarray(times, dtype=float))
    res.curves = planner.cost_curves(cpu_model, PLAN_K_EXTRA, PLAN_POOLS,
                                     PLAN_REPLICATIONS, np.random.default_rng(seed))
    with open(out_dir / "plan.json", "w") as f:
        json.dump(res.curves, f, indent=1)
    t3 = perf_counter()

    res.cpu_s = cpu_seconds() - cpu0
    res.tune_s, res.run_s, res.plan_s, res.solve_s = t1 - t0, t2 - t1, t3 - t2, t3 - t0
    res.run_v_evals = sum(r.serial_cost for r in res.reports)
    res.run_parallel_v_evals = sum(r.parallel_cost for r in res.reports)
    res.tours = sum(r.k for r in res.reports)
    res.pilot_tours = sum(r.k_trial or 0 for r in res.reports)
    res.tour_seconds = sum(t["cpu_seconds"] for r in res.reports for t in r.tours)
    digest = hashlib.sha256()
    for variant in w.variants:
        data = (out_dir / f"traces-{variant}.csv").read_bytes()
        res.traces_bytes += len(data)
        digest.update(data)
    for report in res.reports:
        d = report.to_dict()
        d["tours"] = [{k: v for k, v in t.items() if k != "cpu_seconds"} for t in d["tours"]]
        digest.update(json.dumps(d, sort_keys=True).encode())
    res.signature = digest.hexdigest()
    return res


def quality(res: OpResult) -> dict:
    """Two-sided quality numbers of an op, recorded next to its timings."""
    out = {"lambda_hat": res.lambda_hat, "n_levels": res.schedule.n_levels}
    for r in res.reports:
        est = r.estimates["x1"]
        lo, hi = est["ci"]
        out[r.variant] = {"k": r.k, "k_trial": r.k_trial, "te_hat": r.te_hat,
                          "estimate": est["estimate"], "ci_half_width": 0.5 * (hi - lo)}
    return out


def check_op(ctx: Context, res: OpResult, *, logz: bool) -> list:
    """Correctness problems of one op; an empty list means it passed.

    ``logz`` runs the stepping-stone check, which costs about 10^6 V-evals
    (5-6 s), so a run makes it on its first input only.
    """
    m = ctx.model
    mean_x1, _, logz_exact = bench_models.analytic_gaussian_path(m.dim, m.m, m.sigma0, 1.0)
    problems = []
    for r in res.reports:
        for i, trace in enumerate(r.traces):
            try:
                trace.validate()
            except AssertionError as err:
                problems.append(f"{r.variant} tour {i}: {err}")
                break
        est = r.estimates["x1"]
        half = 0.5 * (est["ci"][1] - est["ci"][0])
        if not abs(est["estimate"] - mean_x1) <= TRUTH_HALF_WIDTHS * half:
            problems.append(f"{r.variant} x1 estimate {est['estimate']:.4f} is more than "
                            f"{TRUTH_HALF_WIDTHS} half-widths ({half:.4f}) from {mean_x1}")
    costs = {r.variant: r.serial_cost for r in res.reports}
    if "st" in costs and "nrst" in costs and not costs["nrst"] < costs["st"]:
        problems.append(f"NRST serial cost {costs['nrst']} is not below ST's {costs['st']}")
    clouds = {c["cloud_cost_mean"] for c in res.curves}
    if len(clouds) != 1:
        problems.append(f"cloud cost differs across pool sizes: {sorted(clouds)}")
    pool1 = next(c for c in res.curves if c["pool_size"] == 1)
    if not math.isclose(pool1["makespan_mean"], pool1["cloud_cost_mean"], rel_tol=1e-9):
        problems.append(f"makespan at pool 1 ({pool1['makespan_mean']!r}) is not the sum "
                        f"of durations ({pool1['cloud_cost_mean']!r})")
    if logz and res.tuned is not None:
        data = adapt.run_nrpt(ctx.model, res.schedule, LOGZ_SCANS,
                              np.random.default_rng([res.seed, 4]))
        logz_hat = adapt.stepping_stone_logz(data, res.schedule.betas)[-1]
        res.logz_error = float(logz_hat - logz_exact)
        if not abs(res.logz_error) <= LOGZ_TOL:
            problems.append(f"stepping-stone log Z(1) {logz_hat:.4f} differs from "
                            f"{logz_exact:.4f} by more than {LOGZ_TOL}")
    return problems

