"""Benchmark of the nrst pipeline: time and V-evals to a stated CI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-toy --seed 1 --seconds 45 --trace 0

The program under test is imported from ``src/`` of that checkout; without it
the benchmark exits with code 2.  Each run makes its inputs (op seeds) from
``--seed``, runs ops over them in turn while the next op is predicted to end
within ``--seconds`` of op time (every input at least once), checks every op,
and prints a human-readable block followed, as the last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of a traced pass.  Artifacts go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
INPUTS_PER_RUN = 5
# Set-up probes before each input's first op: ten per run, whose median is
# setup_s.  With five, its ten-run IQR reached 0.15 of the median.
SETUP_PROBES_PER_INPUT = 2
SETUP_TIMEOUT_S = 120

# Set-up as a user pays it: a fresh interpreter imports nrst, builds the
# model and loads the frozen schedule.  Interpreter start-up is not counted.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.setup(sys.argv[3])
print(time.perf_counter() - t0)
"""

# Every end-to-end metric printed in the human-readable block: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "tune_s": "s",
    "run_s": "s",
    "plan_s": "s",
    "cpu_s": "s",
    "v_evals": "count",
    "tune_v_evals": "count",
    "run_v_evals": "count",
    "run_parallel_v_evals": "count",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}
# Reported in the JSON result: the end-to-end metrics that are never 0 and
# whose run-to-run spread fits a bound.  setup_s is required.  No op time is
# here, so no time regression is caught: on a shared 2-vCPU host
# pipeline-toy's op times spread by 0.30 of the median over ten runs and
# shifted by 24% between sets (see README.md).
GATED = ("setup_s", "v_evals", "run_v_evals", "run_parallel_v_evals", "peak_rss_mb")


def machine_block(max_workers: int) -> list:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return [f"machine: nproc={nproc} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__}",
            f"worker processes: at most {max_workers} "
            f"({'within' if max_workers <= nproc else 'MORE THAN'} nproc={nproc})"]


def setup_seconds(workload: str) -> float:
    """Set-up time of one fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), workload],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Ledger:
    """Attempted and failed ops of a run, with one printed line per op."""

    def __init__(self, workloads, ctx, logz_seed):
        self.wl, self.ctx, self.logz_seed = workloads, ctx, logz_seed
        self.attempted = self.failed = 0
        self.first: dict = {}  # seed -> first successful OpResult

    def op(self, seed, workers, out_dir, *, tracer=None, label=""):
        """Run and check one op; returns (OpResult or None if it failed, op seconds).

        The op's reports, which hold every tour's trace, are dropped once it
        is checked, so memory and garbage-collector work do not grow with the
        number of ops in a run; each op starts after a full collection.
        """
        self.attempted += 1
        gc.collect()
        t0 = perf_counter()
        try:
            if tracer is None:
                res = self.wl.run_op(self.ctx, seed, workers, out_dir)
            else:
                import layers

                with tracer:
                    tracer.op_id = self.attempted
                    layers.install(tracer)
                    res = self.wl.run_op(self.ctx, seed, workers, out_dir)
            wall = perf_counter() - t0
            first = self.first.get(seed)
            problems = self.wl.check_op(
                self.ctx, res, logz=first is None and seed == self.logz_seed)
            if first is not None and res.signature != first.signature:
                problems.append(f"report differs from the first op at seed {seed} "
                                f"({first.workers} worker(s))")
        except Exception:  # one failed op must not end the run
            traceback.print_exc()
            self.failed += 1
            print(f"op {label}seed={seed} workers={workers} FAILED (raised)")
            return None, perf_counter() - t0
        if problems:
            self.failed += 1
        elif first is None:
            self.first[seed] = res
        q = json.dumps(self.wl.quality(res), sort_keys=True)
        logz = "" if res.logz_error is None else f" logz_error={res.logz_error:+.4f}"
        print(f"op {label}seed={seed} workers={workers} solve_s={res.solve_s:.3f} "
              f"tune_s={res.tune_s:.3f} run_s={res.run_s:.3f} plan_s={res.plan_s:.3f} "
              f"cpu_s={res.cpu_s:.3f} v_evals={res.tune_v_evals + res.run_v_evals}"
              f"{logz} quality={q} {'FAIL ' + '; '.join(problems) if problems else 'ok'}",
              flush=True)
        res.reports.clear()
        return (None if problems else res), wall


def measure(ledger, w, seeds, seconds) -> dict:
    """Untraced ops over the inputs in turn; returns end-to-end values and counts.

    Every input runs once, after its set-up probes, so that they sample
    the host across the run; further ops run while the next one is predicted
    to end within ``seconds`` of op time.
    """
    ops, setup, busy, n = [], [], 0.0, 0
    while n < len(seeds) or busy + busy / n <= seconds:
        if n < len(seeds):
            setup += [setup_seconds(w.name) for _ in range(SETUP_PROBES_PER_INPUT)]
        seed = seeds[n % len(seeds)]
        res, wall = ledger.op(seed, w.workers, OUT / w.name / str(seed))
        busy += wall
        n += 1
        if res is not None:
            ops.append(res)
    if not ops:
        return {}
    distinct = list(ledger.first.values())
    values = {"setup_s": setup}
    for name in ("solve_s", "tune_s", "run_s", "plan_s", "cpu_s"):
        values[name] = [getattr(r, name) for r in ops]
    values["tune_v_evals"] = [r.tune_v_evals for r in distinct]
    values["run_v_evals"] = [r.run_v_evals for r in distinct]
    values["v_evals"] = [r.tune_v_evals + r.run_v_evals for r in distinct]
    values["run_parallel_v_evals"] = [r.run_parallel_v_evals for r in distinct]
    return values


def traced_pass(ledger, w, seeds, seconds) -> dict:
    """Per input: untraced ops at 1 and 2 workers, then a traced 1-worker op."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    serial, parallel, traced = [], [], []
    busy = 0.0
    for n, seed in enumerate(seeds):
        if n and busy + busy / n > seconds:
            break
        out = OUT / w.name / f"{seed}-trace"
        one, t1 = ledger.op(seed, 1, out / "w1")
        two, t2 = ledger.op(seed, 2, out / "w2")
        tr, t3 = ledger.op(seed, 1, out / "traced", tracer=tracer, label="traced ")
        busy += t1 + t2 + t3
        if one is None or two is None or tr is None:
            continue
        serial.append(one)
        parallel.append(two)
        traced.append(tr)
    if not traced:
        return {}
    np.savez(OUT / w.name / "spans.npz", **tracer.spans())
    with open(OUT / w.name / "span_totals.json", "w") as f:
        json.dump(tracer.totals, f, indent=1)
    return layers.layer_metrics(tracer, traced, serial, parallel, w.workers)


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nrst" / "__init__.py").is_file():
        print(f"perfbench: no nrst sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    for line in machine_block(max(w.workers, 2 if args.trace else 1)):
        print(line)
    print(f"workload: {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" workers={w.workers} inputs={INPUTS_PER_RUN} -- {w.why}", flush=True)

    ctx = workloads.setup(w.name)
    seeds = [args.seed * 1000 + i for i in range(INPUTS_PER_RUN)]
    ledger = Ledger(workloads, ctx, logz_seed=seeds[0])
    (OUT / w.name).mkdir(parents=True, exist_ok=True)

    if args.trace:
        per_layer = traced_pass(ledger, w, seeds, args.seconds)
        if not per_layer:
            print("perfbench: every traced op failed", file=sys.stderr)
            return 1
        import layers

        metrics = {name: {"value": float(per_layer[name]), "unit": unit}
                   for name, unit in layers.UNITS.items()}
        for name, m in metrics.items():
            print(f"layer {name} = {_fmt(m['value'])} {m['unit']}")
    else:
        values = measure(ledger, w, seeds, args.seconds)
        if not values:
            print("perfbench: every op failed", file=sys.stderr)
            return 1
        values["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        values["fail_frac"] = [ledger.failed / ledger.attempted]
        medians = {name: statistics.median(v) for name, v in values.items()}
        for name, unit in END_TO_END.items():
            v = values[name]
            gate = "" if name in GATED else "  (not gated)"
            print(f"metric {name} = {_fmt(float(medians[name]))} {unit} median of n={len(v)} "
                  f"[min {_fmt(float(min(v)))}, max {_fmt(float(max(v)))}]{gate}")
        metrics = {name: {"value": float(medians[name]), "unit": END_TO_END[name]}
                   for name in GATED}

    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
