"""Command-line pipeline: tune -> run -> plan, plus index-sim and bench.

Every subcommand is deterministic given --seed.  Outputs are plain JSON and
tidy CSV so runs are auditable and diffable; plotting is left to notebooks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

import numpy as np

from . import planner
from .adapt import adapt as run_adapt
from .bench_models import ModelSpec, available_models, make_model
from .explore import SliceNumericalError, build_explorers
from .model import DivergedPotentialError, Schedule
from .runner import CoordinateFunction, pilot_then_run, run_parallel
from .st_kernels import (
    IdealIndexChain,
    TourOverrunError,
    ideal_te,
    simulate_index_tours,
    write_traces_csv,
)
from .stats import NoTopVisitsError, estimate_te


class ConfigError(ValueError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


# The flags that the subcommands check, each with its test and the message
# of the ConfigError that names it.  The choice flags are checked too,
# because a --config file bypasses argparse's `choices`.
_CHECKS = {
    "affinity_mode": (lambda v: v in ("mean", "median"), "must be 'mean' or 'median'"),
    "gamma": (lambda v: v >= 1, "must be >= 1"),
    "kappa_bar": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "levels": (lambda v: v >= 1, "must be >= 1"),
    "max_rounds": (lambda v: v >= 1, "must be >= 1"),
    "alpha": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "delta": (lambda v: v > 0, "must be > 0"),
    "workers": (lambda v: v >= 1, "must be >= 1"),
    "variant": (lambda v: v in ("nrst", "st"), "must be 'nrst' or 'st'"),
    "te_hat": (lambda v: v is None or 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "k_extra": (lambda v: v >= 1, "must be >= 1"),
    "rho": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "n_levels": (lambda v: v >= 1, "must be >= 1"),
}


def _check(args, *names):
    for name in names:
        test, message = _CHECKS[name]
        try:
            ok = test(getattr(args, name))
        except TypeError:  # e.g. a list or null for a number in a config file
            ok = False
        if not ok:
            raise ConfigError(name, message)


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _parse_params(raw):
    if not raw:
        return {}
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ConfigError("params", f"invalid JSON: {err}")
    if not isinstance(parsed, dict):
        raise ConfigError("params", "must be a JSON object")
    return parsed


def _cmd_tune(args) -> int:
    params = _parse_params(args.params)
    _check(args, "affinity_mode", "gamma", "kappa_bar", "levels", "max_rounds")
    model = make_model(ModelSpec(args.model, params))
    result = run_adapt(
        model, args.levels, args.max_rounds, args.affinity_mode,
        gamma=args.gamma, kappa_bar=args.kappa_bar, rng=np.random.default_rng(args.seed),
        chain_len=args.chain_len,
    )
    os.makedirs(args.out, exist_ok=True)
    r_up, r_down, r_sym = result.rejections
    payload = {
        "model": {"name": args.model, "params": params},
        **result.schedule.to_dict(),
        "lambda_hat": result.lambda_hat,
        "converged": result.converged,
        "affinity_mode": result.affinity_mode,
        "rounds": result.rounds,
        "rejections": {
            "up": r_up.tolist(), "down": r_down.tolist(), "sym": r_sym.tolist(),
        },
        "final_indicators": result.final_indicators,
        "n_scan_final": result.n_scan_final,
        "seed": args.seed,
    }
    sched_path = os.path.join(args.out, "schedule.json")
    with open(sched_path, "w") as f:
        json.dump(payload, f, indent=1)
    with open(os.path.join(args.out, "barrier.csv"), "w") as f:
        f.write("beta,lambda\n")
        for b, l in zip(result.barrier.knots_beta, result.barrier.knots_lambda):
            f.write(f"{float(b)!r},{float(l)!r}\n")
    print(f"tuned {args.model}: N={result.schedule.n_levels} "
          f"lambda_hat={result.lambda_hat:.4f} converged={result.converged}")
    per_n = Counter(r["n_levels"] for r in result.rounds)
    print("rounds per N: " + " ".join(f"{n}:{k}" for n, k in per_n.items()))
    print(f"schedule written to {sched_path}")
    return 0


def _schedule_from_payload(payload, model) -> Schedule:
    """The payload's schedule, checked against ``model`` before any tour runs."""
    try:
        schedule = Schedule.from_dict(payload)
        build_explorers(model, schedule)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError("schedule", str(err))
    return schedule


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(name, "is required (flag or config file)")


def _model_of_payload(payload):
    return make_model(ModelSpec(payload["model"]["name"], payload["model"].get("params", {})))


def _check_run_flags(args):
    """Check the flags that run and bench read, once NRST_THREADS caps --workers."""
    cap = os.environ.get("NRST_THREADS")
    if cap:
        try:
            args.workers = min(args.workers, max(1, int(cap)))
        except ValueError:
            raise ConfigError("NRST_THREADS", f"must be an integer, got {cap!r}")
    _check(args, "alpha", "delta", "workers")


def _cmd_run(args) -> int:
    _require(args, "schedule")
    payload = _load_json(args.schedule)
    _check_run_flags(args)
    _check(args, "variant", "te_hat")
    model = _model_of_payload(payload)
    if any(i < 0 or i >= model.dim for i in args.h_coords):
        raise ConfigError("h_coords", f"indices must lie in [0, {model.dim})")
    schedule = _schedule_from_payload(payload, model)
    h_funcs = tuple(CoordinateFunction(i) for i in args.h_coords)
    h_names = [f"x{i + 1}" for i in args.h_coords]
    if args.te_hat is not None:
        report = run_parallel(
            model, schedule, args.variant, args.alpha, args.delta, args.te_hat,
            args.workers, args.seed, h_funcs=h_funcs, h_names=h_names,
        )
    else:
        report = pilot_then_run(
            model, schedule, args.variant, args.alpha, args.delta,
            payload.get("lambda_hat", 0.0), args.workers, args.seed,
            h_funcs=h_funcs, h_names=h_names,
        )
    os.makedirs(args.out, exist_ok=True)
    report.write_json(os.path.join(args.out, "report.json"))
    with open(os.path.join(args.out, "traces.csv"), "w") as f:
        write_traces_csv(report.traces, f)
    print(f"{args.variant} run: k={report.k} te_hat={report.te_hat:.4f} "
          f"serial_cost={report.serial_cost} parallel_cost={report.parallel_cost}")
    for name, est in report.estimates.items():
        lo, hi = est["ci"]
        print(f"  {name}: {est['estimate']:.6f}  ci=({lo:.6f}, {hi:.6f})")
    return 0


def _cmd_plan(args) -> int:
    _require(args, "report", "k_extra")
    report = _load_json(args.report)
    times = [t["cpu_seconds"] for t in report["tours"]]
    pools = [int(p) for p in args.pools.split(",") if p]
    if not pools or any(p < 1 for p in pools):
        raise ConfigError("pools", "must be a comma list of positive integers")
    _check(args, "k_extra")
    rng = np.random.default_rng(args.seed)
    try:
        model = planner.fit_cpu_model(np.asarray(times, dtype=float))
    except planner.InsufficientDataError as err:
        raise ConfigError("report", str(err))
    curves = planner.cost_curves(model, args.k_extra, pools, args.replications, rng)
    sample = model.sample(args.k_extra, np.random.default_rng(args.seed + 1))
    hist, edges = np.histogram(sample, bins=40)
    rows = ["panel,pool_size,x,y,y_lo,y_hi"]
    for count, lo, hi in zip(hist, edges[:-1], edges[1:]):
        rows.append(
            f"hist,,{float(0.5 * (lo + hi))!r},{int(count)},{float(lo)!r},{float(hi)!r}"
        )
    for pool in pools:
        sim = planner.simulate_pool(sample, pool)
        for t, c in zip(sim.busy_times, sim.busy_counts):
            rows.append(f"busy,{pool},{float(t)!r},{int(c)},,")
    for c in curves:
        rows.append(
            f"time,{c['pool_size']},,{c['makespan_mean']!r},"
            f"{c['makespan_q10']!r},{c['makespan_q90']!r}"
        )
        rows.append(
            f"cost_hpc,{c['pool_size']},,{c['hpc_cost_mean']!r},"
            f"{c['hpc_cost_q10']!r},{c['hpc_cost_q90']!r}"
        )
        rows.append(
            f"cost_cloud,{c['pool_size']},,{c['cloud_cost_mean']!r},"
            f"{c['cloud_cost_q10']!r},{c['cloud_cost_q90']!r}"
        )
    with open(args.out, "w") as f:
        f.write("\n".join(rows) + "\n")
    print(f"plan for {args.k_extra} tours over pools {pools} written to {args.out}")
    return 0


def _cmd_index_sim(args) -> int:
    _require(args, "n_levels", "rho")
    _check(args, "rho", "n_levels")
    chain = IdealIndexChain.symmetric(np.full(args.n_levels, args.rho))
    rng = np.random.default_rng(args.seed)
    variants = ["nrst", "st"] if args.variant == "both" else [args.variant]
    print("variant  N  rho    TE_closed  TE_mc      mean_visits")
    for variant in variants:
        closed = ideal_te(chain, variant)
        steps, visits, _ = simulate_index_tours(chain, variant, args.tours, rng)
        mc = estimate_te(visits)
        print(f"{variant:7s}  {args.n_levels}  {args.rho:<5g}  "
              f"{closed:<9.5f}  {mc:<9.5f}  {visits.mean():.4f}")
    return 0


def _cmd_bench(args) -> int:
    _require(args, "schedule")
    payload = _load_json(args.schedule)
    _check_run_flags(args)
    variants = ["nrst", "st"] if args.variant == "both" else [args.variant]
    if args.ideal:
        r_sym = np.asarray(payload["rejections"]["sym"], dtype=float)
        chain = IdealIndexChain.symmetric(np.clip(r_sym, 0.0, 1.0 - 1e-9))
        rng = np.random.default_rng(args.seed)
        print("variant  TE_closed  TE_mc")
        for variant in variants:
            closed = ideal_te(chain, variant)
            _, visits, _ = simulate_index_tours(chain, variant, args.tours, rng)
            print(f"{variant:7s}  {closed:<9.5f}  {estimate_te(visits):<9.5f}")
        return 0
    schedule = _schedule_from_payload(payload, _model_of_payload(payload))
    print("variant  k      te_hat    serial_cost  parallel_cost")
    for variant in variants:
        report = pilot_then_run(
            _model_of_payload(payload), schedule, variant, args.alpha, args.delta,
            payload.get("lambda_hat", 0.0), args.workers, args.seed,
        )
        print(f"{variant:7s}  {report.k:<5d}  {report.te_hat:<8.4f}  "
              f"{report.serial_cost:<11d}  {report.parallel_cost}")
    return 0


def build_parser() -> tuple:
    """The ``nrst`` parser and its subcommand parsers, by name."""
    parser = argparse.ArgumentParser(
        prog="nrst",
        description="Non-reversible simulated tempering: tune, run, plan.",
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", help="adapt grid, affinities, and exploration budget")
    p.add_argument("--model", default="toy_gaussian", choices=available_models())
    p.add_argument("--params", default="", help="JSON object of model parameters")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--max-rounds", type=int, default=12,
                   help="cap on the scan-doubling rounds of the whole tune, "
                        "across the grid-size restart; the restart is decided "
                        "at the first round whose standard error pins the grid "
                        "size down (or at the last round), and no pass runs at "
                        "the discarded grid size after it; the last two rounds "
                        "share a grid and the schedule comes from their passes "
                        "(one more pass runs only when the last round restarts)")
    p.add_argument("--affinity-mode", default="mean", choices=("mean", "median"))
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--kappa-bar", type=float, default=0.95)
    p.add_argument("--chain-len", type=int, default=512,
                   help="sweeps of the chain that sets a level's exploration "
                        "steps; it runs only at levels whose lag-1 V "
                        "autocorrelation in the passes the schedule comes from "
                        "exceeds --kappa-bar")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("run", help="parallel regenerative run from a tuned schedule")
    p.add_argument("--schedule", default=None, help="schedule.json from tune")
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--variant", default="nrst", choices=("nrst", "st"))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--te-hat", type=float, default=None,
                   help="skip the pilot and run min_tours(alpha, delta, te_hat) tours")
    p.add_argument("--h-coords", type=int, nargs="*", default=[0],
                   help="coordinate indices reported as test functions")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("plan", help="pool-size planning from a pilot report")
    p.add_argument("--report", default=None, help="report.json from run")
    p.add_argument("--k-extra", type=int, default=None)
    p.add_argument("--pools", default="1,2,4,8,16,32,64")
    p.add_argument("--replications", type=int, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="plan.csv")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("index-sim", help="closed-form vs simulated tour effectiveness")
    p.add_argument("--n-levels", "--N", dest="n_levels", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--tours", type=int, default=10**5)
    p.add_argument("--variant", default="both", choices=("both", "nrst", "st"))
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_index_sim)

    p = sub.add_parser("bench", help="quality-consistent NRST vs ST cost comparison")
    p.add_argument("--schedule", default=None)
    p.add_argument("--variant", default="both", choices=("both", "nrst", "st"))
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--ideal", action="store_true",
                   help="simulate the idealized index chain from stored rejections")
    p.add_argument("--tours", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_bench)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subcommands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # The file's values for the subcommand's flags become its defaults,
        # and the command line is parsed again, so the flags given still win.
        flags = vars(args).keys() - {"config", "command", "func"}
        config = {key.replace("-", "_"): value for key, value in _load_json(args.config).items()}
        subcommands[args.command].set_defaults(**{k: v for k, v in config.items() if k in flags})
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (TourOverrunError, DivergedPotentialError, SliceNumericalError,
            NoTopVisitsError) as err:
        where = ""
        if hasattr(err, "tour_index"):
            where = f"tour {err.tour_index} (seed {err.seed}): "
        print(f"runtime error: {where}{err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
