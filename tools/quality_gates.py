"""Quality gates of a tuning change, per model: gate 3 and V-evals per unit TE.

Usage, from the root of a checkout (the program is imported from its src/):

    python3 tools/quality_gates.py --model funnel --params '{"dim": 5}' --rounds 8 --seeds 1-24
    python3 tools/quality_gates.py --model banana --rounds 9 --seeds 1-3 --tours 2000

For each seed s the model is tuned by ``adapt(model, --levels, --rounds,
--mode, rng=default_rng(s))``.  Then, per tune:

- gate 3: a cold ``run_nrpt`` of ``--scans`` (4096) scans of the tuned
  schedule at rng 105, its rejections under the schedule's affinities, and
  their ``equi_rejection_indicators`` (spread and asymmetry);
- with ``--tours K`` > 0: K NRST tours of the schedule (tour k draws from
  ``default_rng([s, k])``), their V-evals per tour, the TE estimated from
  their top-level visits, and V-evals per unit TE = V-evals per tour / TE;
- the V-evals per unit TE that the tune predicts, the objective its grid
  size minimizes, as ``adapt`` records it in ``prediction`` for the passes
  that gave the schedule.

It prints one line per seed and, last, one JSON line with the medians and
interquartile ranges over the seeds, the tunes' V-evals included.  It uses
numpy and the standard library only.  src/ does not import it, and
tests/test_integration.py runs it once, on a two-round toy tune, and reads
its last line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nrst.adapt import (  # noqa: E402
    adapt,
    equi_rejection_indicators,
    estimate_rejections,
    run_nrpt,
)
from nrst.bench_models import ModelSpec, make_model  # noqa: E402
from nrst.explore import build_explorers  # noqa: E402
from nrst.runner import _MAX_TOUR_STEPS  # noqa: E402
from nrst.st_kernels import NRST, run_tour  # noqa: E402
from nrst.stats import estimate_te  # noqa: E402

GATE3_RNG = 105


def _seeds(text: str) -> list:
    """'1-12' or '1,5,9' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def gate3(model, schedule, n_scan: int) -> tuple:
    """(spread, asymmetry) of a cold ``n_scan``-scan pass at rng 105."""
    data = run_nrpt(model, schedule, n_scan, np.random.default_rng(GATE3_RNG))
    return equi_rejection_indicators(*estimate_rejections(data, schedule.betas,
                                                          schedule.affinities))


def tour_cost(model, schedule, n_tours: int, seed: int) -> dict:
    """V-evals per tour, TE and V-evals per unit TE over ``n_tours`` NRST tours."""
    explorers = build_explorers(model, schedule)
    v_evals, visits = [], []
    for k in range(n_tours):
        tour = run_tour(model, schedule, NRST, _MAX_TOUR_STEPS,
                        np.random.default_rng([seed, k]), explorers)
        v_evals.append(tour.v_evals[0])
        visits.append(tour.visits_top[0])
    per_tour = float(np.mean(v_evals))
    te = estimate_te(visits)
    return {"v_evals_per_tour": per_tour, "te": te,
            "v_evals_per_te": per_tour / te if te > 0.0 else float("inf")}


def _summary(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "iqr": float(q3 - q1), "min": float(np.min(values)),
            "max": float(np.max(values))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--params", default="{}", help="model parameters as a JSON object")
    parser.add_argument("--mode", default="mean", choices=("mean", "median"))
    parser.add_argument("--levels", type=int, default=8)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seeds", default="1-12", help="e.g. 1-12 or 1,3,5")
    parser.add_argument("--scans", type=int, default=4096, help="gate-3 scans; 0 skips gate 3")
    parser.add_argument("--tours", type=int, default=0, help="NRST tours per tune; 0 skips them")
    args = parser.parse_args(argv)
    spec = ModelSpec(args.model, json.loads(args.params))
    rows = []
    for seed in _seeds(args.seeds):
        model = make_model(spec)
        res = adapt(model, args.levels, args.rounds, args.mode, rng=np.random.default_rng(seed))
        row = {"seed": seed, "n_levels": res.schedule.n_levels, "lambda_hat": res.lambda_hat,
               "tune_v_evals": model.v_evals.value}
        if args.scans > 0:
            row["spread"], row["asymmetry"] = gate3(model, res.schedule, args.scans)
        if args.tours > 0:
            row.update(tour_cost(model, res.schedule, args.tours, seed))
        row["predicted_v_evals_per_te"] = res.prediction["v_evals_per_te"]
        rows.append(row)
        print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in row.items()), flush=True)
    keys = [k for k in rows[0] if k not in ("seed", "n_levels")]
    print(json.dumps({"model": args.model, "params": spec.params, "mode": args.mode,
                      "levels": args.levels, "rounds": args.rounds, "seeds": args.seeds,
                      "scans": args.scans, "tours": args.tours,
                      **{k: _summary([r[k] for r in rows]) for k in keys}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
