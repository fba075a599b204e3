import contextlib
import io
import json
import math
import re

import pytest

from nrst.bench_models import ToyGaussian
from nrst.cli import main


def run_cli(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def tune_run(tmp_path_factory):
    """Output directory and stdout of one `nrst tune`."""
    out = tmp_path_factory.mktemp("tuned")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_cli([
            "tune", "--model", "toy_gaussian", "--levels", 6, "--max-rounds", 6,
            "--seed", 3, "--out", out,
        ])
    assert code == 0
    return out, stdout.getvalue()


@pytest.fixture(scope="module")
def tuned_dir(tune_run):
    return tune_run[0]


def test_tune_outputs(tune_run):
    tuned_dir, stdout = tune_run
    payload = json.loads((tuned_dir / "schedule.json").read_text())
    betas = payload["betas"]
    assert betas[0] == 0.0 and betas[-1] == 1.0
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
    assert payload["lambda_hat"] > 0
    assert payload["model"]["name"] == "toy_gaussian"
    assert len(payload["explore_steps"]) == len(betas) - 1
    widths = payload["widths"]
    assert len(widths) == len(betas) - 1 and all(len(row) == 3 for row in widths)
    lines = (tuned_dir / "barrier.csv").read_text().strip().splitlines()
    assert lines[0] == "beta,lambda"
    assert len(lines) == len(betas) + 1
    assert "np.float" not in lines[1]  # plain-number CSV, no numpy reprs
    # every round records its standard errors, None below 32 scans
    rounds = payload["rounds"]
    for r in rounds:
        for key in ("lambda_se", "logz_se"):
            if r["n_scan"] < 32:
                assert r[key] is None
            else:
                assert math.isfinite(r[key]) and r[key] > 0
    assert any(r["lambda_se"] is not None for r in rounds)
    # and stdout counts the rounds run at each grid size, in order
    per_n = {}
    for r in rounds:
        per_n[r["n_levels"]] = per_n.get(r["n_levels"], 0) + 1
    expected = "rounds per N: " + " ".join(f"{n}:{k}" for n, k in per_n.items())
    assert expected in stdout.splitlines()


def test_run_and_plan_pipeline(tuned_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli([
        "run", "--schedule", tuned_dir / "schedule.json", "--alpha", 0.9,
        "--delta", 1.0, "--seed", 4, "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["k"] >= report["k_trial"]
    assert report["serial_cost"] >= report["parallel_cost"]
    assert (out / "traces.csv").read_text().startswith("tour_id,step,level,direction,v")

    plan_path = tmp_path / "plan.csv"
    code = run_cli([
        "plan", "--report", out / "report.json", "--k-extra", 64,
        "--pools", "1,2,4", "--replications", 5, "--seed", 5,
        "--out", plan_path,
    ])
    assert code == 0
    body = plan_path.read_text()
    assert body.startswith("panel,pool_size,x,y,y_lo,y_hi")
    assert "np.float" not in body
    panels = {line.split(",")[0] for line in body.strip().splitlines()[1:]}
    assert panels == {"hist", "busy", "time", "cost_hpc", "cost_cloud"}


def test_tune_deterministic_given_seed(tmp_path):
    payloads = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        code = run_cli([
            "tune", "--model", "toy_gaussian", "--levels", 3, "--max-rounds", 4,
            "--seed", 9, "--out", out,
        ])
        assert code == 0
        payloads.append((out / "schedule.json").read_text())
    assert payloads[0] == payloads[1]


def test_run_deterministic_given_seed(tuned_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli([
            "run", "--schedule", tuned_dir / "schedule.json", "--alpha", 0.9,
            "--delta", 1.0, "--seed", 11, "--out", out,
        ])
        outs.append((out / "traces.csv").read_text())
    assert outs[0] == outs[1]


def test_index_sim_table(capsys):
    code = run_cli(["index-sim", "--n-levels", 6, "--rho", 0.2, "--tours", 20000,
                    "--seed", 6])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + both variants
    nrst_row = lines[1].split()
    closed, mc = float(nrst_row[3]), float(nrst_row[4])
    assert closed == pytest.approx(0.25)
    assert mc == pytest.approx(closed, abs=0.02)


def test_bench_ideal_reports_te_ordering(tuned_dir, capsys):
    code = run_cli(["bench", "--schedule", tuned_dir / "schedule.json", "--ideal",
                    "--tours", 20000, "--seed", 7])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    te = {line.split()[0]: float(line.split()[2]) for line in lines[1:]}
    assert te["nrst"] > te["st"]


def test_bench_real_runs_both_variants(tuned_dir, capsys):
    code = run_cli(["bench", "--schedule", tuned_dir / "schedule.json",
                    "--alpha", 0.9, "--delta", 1.0, "--seed", 8])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert set(rows) == {"nrst", "st"}
    # TE ordering is reported, not asserted, on real models; costs are positive
    assert int(rows["nrst"][3]) > 0 and int(rows["st"][3]) > 0


def test_config_error_names_field(capsys):
    code = run_cli(["index-sim", "--n-levels", 3, "--rho", 1.5])
    assert code == 1
    assert "rho" in capsys.readouterr().err


def test_config_file_supplies_defaults(tuned_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": 0.2, "tours": 5000}))
    code = run_cli(["--config", cfg, "index-sim", "--n-levels", 2])
    assert code == 0


def test_config_file_sets_flags_that_have_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "nrst", "n_levels": 3, "rho": 0.2, "tours": 2000}))
    assert run_cli(["--config", cfg, "index-sim"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["nrst"]
    # a flag on the command line still wins
    assert run_cli(["--config", cfg, "index-sim", "--variant", "st"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["st"]


@pytest.mark.parametrize("command, flags, field", [
    ("tune", ["--gamma", 0.5], "gamma"),
    ("tune", ["--kappa-bar", 1.5], "kappa_bar"),
    ("tune", {"affinity_mode": "bogus"}, "affinity_mode"),
    ("tune", {"gamma": [2]}, "gamma"),
    ("run", ["--alpha", 1.5], "alpha"),
    ("run", ["--delta", 0], "delta"),
    ("run", ["--workers", 0], "workers"),
    ("bench", ["--alpha", 1.5], "alpha"),
    ("bench", ["--delta", 0], "delta"),
    ("bench", ["--workers", 0], "workers"),
])
def test_bad_flag_values_are_config_errors(command, flags, field, tuned_dir, tmp_path, capsys):
    argv = [command, "--out", tmp_path / "out"] if command != "bench" else [command]
    if command != "tune":
        argv += ["--schedule", tuned_dir / "schedule.json"]
    if isinstance(flags, dict):  # a config file, which argparse's choices do not see
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        argv = ["--config", cfg] + argv
    else:
        argv += flags
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}")


def test_workers_env_cap(tuned_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("NRST_THREADS", "1")
    out = tmp_path / "capped"
    code = run_cli([
        "run", "--schedule", tuned_dir / "schedule.json", "--alpha", 0.9,
        "--delta", 1.0, "--seed", 12, "--workers", 8, "--out", out,
    ])
    assert code == 0


@pytest.mark.parametrize("command", ["run", "bench"])
def test_workers_env_cap_must_be_an_integer(command, tuned_dir, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.setenv("NRST_THREADS", "abc")
    argv = [command, "--schedule", tuned_dir / "schedule.json", "--alpha", 0.9,
            "--delta", 1.0, "--seed", 12, "--workers", 2]
    if command == "run":
        argv += ["--out", tmp_path / "capped"]
    assert run_cli(argv) == 1
    assert "NRST_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("bad, message", [
    ("rows", "one row per level 1.."),
    ("zero", "widths at level 1 must be finite and > 0"),
    ("nan", "widths at level 1 must be finite and > 0"),
    ("dim", "one entry per coordinate (3)"),
])
def test_bad_widths_are_a_config_error(command, bad, message, tuned_dir, tmp_path, capsys):
    payload = json.loads((tuned_dir / "schedule.json").read_text())
    n = len(payload["explore_steps"])
    payload["widths"] = {
        "rows": [[1.0, 1.0, 1.0]] * (n + 1),
        "zero": [[1.0, 0.0, 1.0]] * n,
        "nan": [[math.nan, 1.0, 1.0]] * n,
        "dim": [[1.0, 1.0]] * n,
    }[bad]
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--schedule", path, "--seed", 5]
    if command == "run":
        argv += ["--out", tmp_path / "run"]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: schedule: ") and message in err


class BrokenReference(ToyGaussian):
    """log_reference is -inf on part of the reference's support, so a slice
    sweep started from a reference draw there raises SliceNumericalError."""

    def log_reference(self, x):
        return -math.inf if x[0] > 3.0 else super().log_reference(x)


@pytest.mark.parametrize("command", ["run", "bench"])
def test_runtime_error_names_the_failing_tour(command, tuned_dir, tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setattr("nrst.cli.make_model", lambda spec: BrokenReference())
    argv = [command, "--schedule", tuned_dir / "schedule.json", "--seed", 5]
    if command == "run":
        argv += ["--out", tmp_path]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert re.search(r"runtime error: tour \d+ \(seed 5\): log density not finite", err)
