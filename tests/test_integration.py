"""End-to-end smoke: every benchmark model survives tours and tempering scans,
the package exports only the pipeline API, and the quality-gates tool runs."""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import nrst
from nrst.adapt import run_nrpt
from nrst.bench_models import ModelSpec, make_model
from nrst.explore import build_explorers
from nrst.st_kernels import run_tour
from oracles import uniform_schedule

ALL_MODELS = ["toy_gaussian", "banana", "funnel", "hierarchical", "mrna",
              "threshold_weibull", "xy"]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_nrpt_scans_run_clean(name):
    model = make_model(ModelSpec(name))
    sched = uniform_schedule(3)
    data = run_nrpt(model, sched, 4, np.random.default_rng(1))
    assert data.shape == (4, 4)
    for i in range(1, 4):
        assert np.all(np.isfinite(data[i])), f"{name}: non-finite V above level 0"


# The xy tours take ~9 s.
@pytest.mark.parametrize("name", [*ALL_MODELS[:-1], pytest.param("xy", marks=pytest.mark.slow)])
def test_tours_run_clean(name):
    """Tours either regenerate or hit the step budget with a coherent trace.

    Untuned affinities can strand a chain at high temperature (on the XY
    model the potential is negative, so with zero affinities the downward
    moves are almost surely rejected); that is the documented overrun path,
    not a crash.
    """
    from nrst.st_kernels import TourOverrunError

    model = make_model(ModelSpec(name))
    sched = uniform_schedule(3)
    max_steps = 300
    for v_idx, variant in enumerate(("nrst", "st")):
        for seed in range(5):
            rng = np.random.default_rng([seed, v_idx, ALL_MODELS.index(name)])
            try:
                trace = run_tour(model, sched, variant, max_steps, rng,
                                 build_explorers(model, sched))
            except TourOverrunError as err:
                assert err.trace.n_steps == max_steps
                continue
            trace.validate()
            assert trace.v_evals[0] > 0


def test_package_exports_only_the_pipeline_api():
    public = {name for name, value in vars(nrst).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "TemperedModel", "Schedule", "ModelSpec", "make_model", "adapt",
        "run_parallel", "pilot_then_run", "CoordinateFunction",
        "fit_cpu_model", "cost_curves",
    }


def test_the_quality_gates_tool_runs_and_prints_its_summary_last():
    # the tool imports private names of the package (runner._MAX_TOUR_STEPS)
    tool = Path(__file__).resolve().parents[1] / "tools" / "quality_gates.py"
    out = subprocess.run(
        [sys.executable, "-W", "error", str(tool), "--model", "toy_gaussian", "--rounds", "2",
         "--seeds", "1", "--scans", "64", "--tours", "50"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    summary = json.loads(out.strip().splitlines()[-1])
    assert (summary["model"], summary["rounds"], summary["seeds"]) == ("toy_gaussian", 2, "1")
    for key in ("lambda_hat", "tune_v_evals", "spread", "asymmetry", "v_evals_per_tour", "te",
                "v_evals_per_te"):
        # one seed: every summary statistic is its one value
        stats = summary[key]
        assert stats["min"] == stats["median"] == stats["max"] and stats["iqr"] == 0.0
    assert summary["tune_v_evals"]["median"] > 0 and summary["te"]["median"] > 0
