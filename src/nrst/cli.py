"""Command-line pipeline: tune -> run -> plan, plus index-sim and bench.

Every subcommand is deterministic given --seed.  Outputs are plain JSON and
tidy CSV so runs are auditable and diffable; plotting is left to notebooks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from . import planner
from .adapt import InfiniteReferenceError
from .adapt import adapt as run_adapt
from .bench_models import ModelSpec, available_models, make_model
from .explore import SliceNumericalError, build_explorers
from .model import DivergedPotentialError, Schedule
from .runner import CoordinateFunction, WorkerDiedError, pilot_then_run, run_parallel
from .st_kernels import (
    IdealIndexChain,
    TourOverrunError,
    ideal_te,
    simulate_index_tours,
    write_traces_csv,
)
from .stats import NoTopVisitsError, estimate_te, min_tours


class ConfigError(ValueError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")


# The rule of each flag that has one: a test of the flag's value, after its
# type and choices, and the message of the ConfigError that names the flag.
# A flag left at None is required unless its test takes None.
_CHECKS = {
    "levels": (lambda v: v >= 1, "must be >= 1"),
    "max_rounds": (lambda v: v >= 1, "must be >= 1"),
    "seed": (lambda v: v >= 0, "must be >= 0"),
    "alpha": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "delta": (lambda v: math.isfinite(v) and v > 0, "must be finite and > 0"),
    "workers": (lambda v: v >= 1, "must be >= 1"),
    "te_hat": (lambda v: v is None or 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "k_extra": (lambda v: v >= 1, "must be >= 1"),
    "pools": (lambda v: min(int(p) for p in str(v).split(",") if p) >= 1,
              "must be a comma list of positive integers"),
    "rho": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "n_levels": (lambda v: v >= 1, "must be >= 1"),
    "tours": (lambda v: v >= 1, "must be >= 1"),
    "replications": (lambda v: v >= 1, "must be >= 1"),
}


# The JSON types a value may have for a flag of each type.  Text converts
# as it does on the command line; a path flag takes no number, which open()
# would take for a file descriptor.
_JSON_TYPES = {int: (str, int), float: (str, int, float), str: (str,)}


def _passes(test, value) -> bool:
    try:
        return bool(test(value))
    except (TypeError, ValueError):  # e.g. a list or text for a number in a config file
        return False


def _check_flags(parser, args):
    """Check every flag of the subcommand ``parser`` in ``args``, from the
    command line and from a config file alike.  A flag left at None is
    required unless its rule takes None.  Any other value goes through the
    flag's type (each element, for a list), must be one of its choices and
    must pass its rule in ``_CHECKS``; ``args`` keeps the typed value.  A
    list flag takes a list and a switch takes true or false."""
    for action in parser._actions:
        name = action.dest
        if name == "help":
            continue
        test, message = _CHECKS.get(name, (lambda v: v is not None, ""))
        value = getattr(args, name)
        if action.nargs == 0 and type(value) is not bool:  # a switch, e.g. --ideal
            raise ConfigError(name, "must be true or false")
        if action.nargs == "*" and type(value) is not list:
            raise ConfigError(name, f"must be a list of {action.type.__name__}")
        if value is not None:
            try:
                items = value if action.nargs == "*" else [value]
                if action.type is not None:
                    if any(type(v) not in _JSON_TYPES[action.type] for v in items):
                        raise TypeError(name)
                    items = [action.type(v) for v in items]
            except (TypeError, ValueError):
                raise ConfigError(name, f"must be of type {action.type.__name__}")
            # A tuple of the choices, since a JSON list or object is not hashable.
            if action.choices and any(v not in tuple(action.choices) for v in items):
                raise ConfigError(name, "must be one of " + ", ".join(map(repr, action.choices)))
            value = items if action.nargs == "*" else items[0]
        if not _passes(test, value):
            raise ConfigError(name, message if value is not None
                              else "is required (flag or config file)")
        setattr(args, name, value)


# The kernel variants that each value of index-sim's and bench's --variant names.
_VARIANTS = {"both": ("nrst", "st"), "nrst": ("nrst",), "st": ("st",)}


@contextlib.contextmanager
def _config_errors(field, *errors):
    """Raise the ``errors`` of the block as config errors of ``field``."""
    try:
        yield
    except errors as err:
        raise ConfigError(field, str(err))


def _load_json(path, flag):
    """The JSON object in the file that ``flag`` names; a missing file, bad
    JSON or a value that is not an object fails as a config error."""
    with _config_errors(flag, OSError, ValueError), open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ConfigError(flag, "must hold a JSON object")
    return payload


def _parse_params(params):
    """--params as a dict: JSON text from the command line, or an object
    from a config file."""
    if isinstance(params, str):
        try:
            params = json.loads(params or "{}")
        except json.JSONDecodeError as err:
            raise ConfigError("params", f"invalid JSON: {err}")
    if not isinstance(params, dict):
        raise ConfigError("params", "must be a JSON object")
    return params


def _model_of(spec):
    """The model that a schedule's ``model`` entry names, a missing entry,
    bad name or parameter failing as a config error."""
    try:
        name, params = spec["name"], spec.get("params", {})
    except (AttributeError, KeyError, TypeError):
        raise ConfigError("schedule", "needs a 'model' entry with a 'name'")
    with _config_errors("params" if name in available_models() else "model",
                        TypeError, ValueError):
        return make_model(ModelSpec(name, params))


def _schedule_file(args) -> tuple:
    """(model, schedule, lambda_hat) from the --schedule file, the schedule
    checked against the model before any tour runs."""
    payload = _load_json(args.schedule, "schedule")
    model = _model_of(payload.get("model"))
    with _config_errors("schedule", KeyError, TypeError, ValueError):
        schedule = Schedule.from_dict(payload)
        build_explorers(model, schedule)
    lambda_hat = payload.get("lambda_hat", 0.0)
    if not _passes(lambda v: type(v) is not bool and math.isfinite(v) and v >= 0, lambda_hat):
        raise ConfigError("schedule", f"lambda_hat must be a finite number >= 0, "
                                      f"got {lambda_hat!r}")
    return model, schedule, lambda_hat


def _check_tour_count(args, lambda_hat, te_hat=None):
    """A run's first tour count, at --alpha, --delta and --te-hat (else the
    pilot's TE from lambda_hat), before any tour: one that is not finite is
    --delta's config error if it is so even at TE = 1, else the TE's."""
    te, te_flag = ((planner.te_infinity(lambda_hat), "schedule") if te_hat is None
                   else (te_hat, "te_hat"))
    for flag, t in (("delta", 1.0), (te_flag, te)):
        with _config_errors(flag, ValueError):
            min_tours(args.alpha, args.delta, t)


def _cap_workers(args):
    """Cap --workers at NRST_THREADS, when it is set."""
    cap = os.environ.get("NRST_THREADS")
    if cap:
        try:
            args.workers = min(args.workers, max(1, int(cap)))
        except ValueError:
            raise ConfigError("NRST_THREADS", f"must be an integer, got {cap!r}")


def _te_table(chain, args):
    """Print the closed-form and simulated TE of ``chain`` for each --variant."""
    rng = np.random.default_rng(args.seed)
    print("variant  TE_closed  TE_mc      mean_visits")
    for variant in _VARIANTS[args.variant]:
        _, visits = simulate_index_tours(chain, variant, args.tours, rng)
        print(f"{variant:7s}  {ideal_te(chain, variant):<9.5f}  "
              f"{estimate_te(visits):<9.5f}  {visits.mean():.4f}")


def _cmd_tune(args) -> int:
    spec = {"name": args.model, "params": _parse_params(args.params)}
    model = _model_of(spec)
    with _config_errors("out", OSError):  # before the tune, not after it
        os.makedirs(args.out, exist_ok=True)
    result = run_adapt(model, args.levels, args.max_rounds, args.affinity_mode,
                       rng=np.random.default_rng(args.seed))
    payload = {
        "model": spec,
        **result.schedule.to_dict(),
        "lambda_hat": result.lambda_hat,
        "prediction": result.prediction,
        "converged": result.converged,
        "affinity_mode": args.affinity_mode,
        "rounds": result.rounds,
        "rejections": dict(zip(("up", "down", "sym"), (r.tolist() for r in result.rejections))),
        "final_indicators": result.final_indicators,
        "step_tuning_v_evals": result.step_tuning_v_evals,
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
    # The step-tuning chains run at the kept N.
    evals = Counter()
    for r in result.rounds:
        evals[r["n_levels"]] += r["v_evals"]
    evals[result.schedule.n_levels] += result.step_tuning_v_evals
    print("V-evals per N: " + " ".join(f"{n}:{k}" for n, k in evals.items())
          + f" (step tuning {result.step_tuning_v_evals})")
    print(f"schedule written to {sched_path}")
    return 0


def _cmd_run(args) -> int:
    _cap_workers(args)
    model, schedule, lambda_hat = _schedule_file(args)
    _check_tour_count(args, lambda_hat, args.te_hat)
    if any(i < 0 or i >= model.dim for i in args.h_coords):
        raise ConfigError("h_coords", f"indices must lie in [0, {model.dim})")
    if len(set(args.h_coords)) < len(args.h_coords):
        raise ConfigError("h_coords", f"indices must not repeat, got {args.h_coords}")
    h_funcs = tuple(CoordinateFunction(i) for i in args.h_coords)
    h_names = [f"x{i + 1}" for i in args.h_coords]
    # A --te-hat skips the pilot, which the schedule's lambda_hat sizes.
    run, te_or_lambda = ((pilot_then_run, lambda_hat) if args.te_hat is None
                         else (run_parallel, args.te_hat))
    with _config_errors("out", OSError):
        os.makedirs(args.out, exist_ok=True)
    report = run(model, schedule, args.variant, args.alpha, args.delta, te_or_lambda,
                 args.workers, args.seed, h_funcs=h_funcs, h_names=h_names)
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
    report = _load_json(args.report, "report")
    try:
        cpu = [t["cpu_seconds"] for t in report["tours"]]
        times = np.asarray(cpu, dtype=float)
    except (KeyError, TypeError, ValueError):
        raise ConfigError("report", "needs a 'tours' list of entries with 'cpu_seconds'")
    if any(isinstance(t, bool) for t in cpu):
        raise ConfigError("report", "cpu_seconds must be numbers, not true or false")
    pools = [int(p) for p in str(args.pools).split(",") if p]
    rng = np.random.default_rng(args.seed)
    # Too few times, some negative or not finite, or all 0.
    with _config_errors("report", ValueError):
        model = planner.fit_cpu_model(times)
    with _config_errors("out", OSError):
        out = open(args.out, "w")
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
        for panel, key in (("time", "makespan"), ("cost_hpc", "hpc_cost"),
                           ("cost_cloud", "cloud_cost")):
            rows.append(f"{panel},{c['pool_size']},,{c[key + '_mean']!r},"
                        f"{c[key + '_q10']!r},{c[key + '_q90']!r}")
    with out:
        out.write("\n".join(rows) + "\n")
    print(f"plan for {args.k_extra} tours over pools {pools} written to {args.out}")
    return 0


def _cmd_index_sim(args) -> int:
    chain = IdealIndexChain.symmetric(np.full(args.n_levels, args.rho))
    _te_table(chain, args)
    return 0


def _cmd_bench(args) -> int:
    _cap_workers(args)
    if args.ideal:
        payload = _load_json(args.schedule, "schedule")
        try:
            r_sym = np.asarray(payload["rejections"]["sym"], dtype=float)
            chain = IdealIndexChain.symmetric(np.clip(r_sym, 0.0, 1.0 - 1e-9))
        except (KeyError, TypeError, ValueError):
            raise ConfigError("schedule", "needs a 'rejections' entry with a 'sym' list")
        _te_table(chain, args)
        return 0
    model, schedule, lambda_hat = _schedule_file(args)
    _check_tour_count(args, lambda_hat)
    print("variant  k      te_hat    serial_cost  parallel_cost")
    for variant in _VARIANTS[args.variant]:
        report = pilot_then_run(
            model, schedule, variant, args.alpha, args.delta, lambda_hat,
            args.workers, args.seed,
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
    # Flags that several subcommands share.  They are built per parser, since
    # a config file's set_defaults changes their actions.
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=1)
    tours = argparse.ArgumentParser(add_help=False)
    tours.add_argument("--tours", type=int, default=10**5)
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--schedule", type=str, default=None, help="schedule.json from tune")
    runs.add_argument("--alpha", type=float, default=0.95)
    runs.add_argument("--delta", type=float, default=0.5)
    runs.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("tune", parents=[seed],
                       help="adapt grid, affinities, and exploration budget")
    p.add_argument("--model", default="toy_gaussian", choices=available_models())
    p.add_argument("--params", default="", help="JSON object of model parameters")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--max-rounds", type=int, default=12,
                   help="cap on the scan-doubling rounds of the whole tune, "
                        "across the grid-size restart; a restart at the last "
                        "round adds one round on the new grid")
    p.add_argument("--affinity-mode", default="mean", choices=("mean", "median"))
    p.add_argument("--out", type=str, default=".")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("run", parents=[runs, seed],
                       help="parallel regenerative run from a tuned schedule")
    p.add_argument("--variant", default="nrst", choices=("nrst", "st"))
    p.add_argument("--te-hat", type=float, default=None,
                   help="skip the pilot and run min_tours(alpha, delta, te_hat) tours")
    p.add_argument("--h-coords", type=int, nargs="*", default=[0],
                   help="coordinate indices reported as test functions")
    p.add_argument("--out", type=str, default=".")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("plan", parents=[seed], help="pool-size planning from a pilot report")
    p.add_argument("--report", type=str, default=None, help="report.json from run")
    p.add_argument("--k-extra", type=int, default=None)
    p.add_argument("--pools", default="1,2,4,8,16,32,64")
    p.add_argument("--replications", type=int, default=30)
    p.add_argument("--out", type=str, default="plan.csv")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("index-sim", parents=[tours, seed],
                       help="closed-form vs simulated tour effectiveness")
    p.add_argument("--n-levels", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--variant", default="both", choices=_VARIANTS)
    p.set_defaults(func=_cmd_index_sim)

    p = sub.add_parser("bench", parents=[runs, tours, seed],
                       help="quality-consistent NRST vs ST cost comparison")
    p.add_argument("--variant", default="both", choices=_VARIANTS)
    p.add_argument("--ideal", action="store_true",
                   help="simulate the idealized index chain from stored rejections")
    p.set_defaults(func=_cmd_bench)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subcommands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values fill the subcommand's flags that the command
            # line leaves out: parsed again with those flags' defaults
            # suppressed, it returns only the flags it gives, which win.  A
            # key may name a flag of another subcommand, so that one file
            # serves several, but it must name a flag.
            config = {key.replace("-", "_"): value
                      for key, value in _load_json(args.config, "config").items()}
            known = {action.dest for p in subcommands.values() for action in p._actions}
            unknown = sorted(config.keys() - known - {"help"})
            if unknown:
                raise ConfigError(unknown[0], "names no flag of any subcommand")
            flags = vars(args).keys() - {"config", "command", "func"}
            config = {k: v for k, v in config.items() if k in flags}
            for action in subcommands[args.command]._actions:
                if action.dest in config:
                    action.default = argparse.SUPPRESS
            vars(args).update(config, **vars(parser.parse_args(argv)))
        _check_flags(subcommands[args.command], args)
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (TourOverrunError, DivergedPotentialError, SliceNumericalError,
            NoTopVisitsError, InfiniteReferenceError, WorkerDiedError) as err:
        where = ""
        if hasattr(err, "tour_index"):
            where = f"tour {err.tour_index} (seed {err.seed}): "
        print(f"runtime error: {where}{err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
