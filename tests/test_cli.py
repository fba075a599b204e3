import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from nrst.bench_models import ToyGaussian, make_model
from nrst.cli import _CHECKS, build_parser, main
from nrst.runner import WorkerDiedError
from nrst.stats import min_tours


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
    # and the V-evals spent at each, the kept N's with the step tuning's:
    # every NRPT pass is a round, so no other pass is reported
    assert "final_pass_v_evals" not in payload and "n_scan_final" not in payload
    assert rounds[-1]["n_levels"] == len(betas) - 1
    evals = {}
    for r in rounds:
        evals[r["n_levels"]] = evals.get(r["n_levels"], 0) + r["v_evals"]
    step = payload["step_tuning_v_evals"]
    evals[len(betas) - 1] += step
    expected = ("V-evals per N: " + " ".join(f"{n}:{k}" for n, k in evals.items())
                + f" (step tuning {step})")
    assert expected in stdout.splitlines()


@pytest.mark.parametrize("te_hat", [None, 0.3])
def test_run_and_plan_pipeline(te_hat, tuned_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli([
        "run", "--schedule", tuned_dir / "schedule.json", "--alpha", 0.9,
        "--delta", 1.0, "--seed", 4, "--out", out,
    ] + ([] if te_hat is None else ["--te-hat", te_hat]))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    if te_hat is None:
        assert report["k"] >= report["k_trial"]
    else:  # no pilot: the count that --te-hat gives
        assert report["k"] == min_tours(0.9, 1.0, te_hat) and "k_trial" not in report
        assert report["te_hat_input"] == te_hat
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
    closed, mc = float(nrst_row[1]), float(nrst_row[2])
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


@pytest.mark.parametrize("argv, field", [
    (["index-sim", "--n-levels", 3], "rho"),
    (["plan", "--report", "report.json"], "k_extra"),
    (["run"], "schedule"),
    (["bench", "--ideal"], "schedule"),
])
def test_flags_left_unset_are_required(argv, field, capsys):
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"config error: {field}: is required (flag or config file)\n"


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
    ("tune", {"gamma": 0.5}, "gamma"),  # keys that name no flag any more
    ("tune", {"kappa_bar": 0.95}, "kappa_bar"),
    ("tune", {"affinity_mode": "bogus"}, "affinity_mode"),
    ("run", {"alpha": [0.5]}, "alpha"),
    ("run", ["--alpha", 1.5], "alpha"),
    ("run", ["--delta", 0], "delta"),
    ("run", ["--workers", 0], "workers"),
    ("bench", ["--alpha", 1.5], "alpha"),
    ("bench", ["--delta", 0], "delta"),
    ("bench", ["--workers", 0], "workers"),
    ("bench", {"variant": "bogus"}, "variant"),
    ("bench", ["--ideal", "--tours", 0], "tours"),
    ("index-sim", {"variant": "bogus"}, "variant"),
    ("index-sim", ["--tours", 0], "tours"),
    ("plan", ["--replications", 0], "replications"),
    ("plan", ["--pools", "1,x"], "pools"),
    ("tune", ["--params", '{"dim": "abc"}'], "params"),
    ("tune", ["--params", '{"dimm": 7}'], "params"),
    ("tune", {"params": '{"dim": 0}'}, "params"),
    ("tune", ["--params", '{"dim": 2.7}'], "params"),
    ("tune", {"chain_len": 512}, "chain_len"),
    ("tune", {"chain-len": 512}, "chain_len"),
    ("bench", ["--delta", "inf"], "delta"),
    ("bench", {"delta": math.inf}, "delta"),
    ("run", ["--delta", "inf"], "delta"),
    ("run", {"delta": math.inf}, "delta"),
    ("tune", ["--seed", -1], "seed"),
    ("tune", {"seed": -1}, "seed"),
    ("run", ["--seed", -1], "seed"),
    ("index-sim", ["--seed", -1], "seed"),
    ("index-sim", {"seed": -1}, "seed"),
    ("plan", ["--seed", -1], "seed"),
    ("plan", {"seed": -1}, "seed"),
    ("bench", ["--seed", -1], "seed"),
    ("run", {"h_coords": 0}, "h_coords"),
    ("bench", {"variant": ["nrst"]}, "variant"),
    ("tune", {"levels": 2.5}, "levels"),
    ("tune", ["--model", "hierarchical", "--params", '{"j_groups": 1}'], "params"),
    ("tune", ["--params", '{"dim": 3'], "params"),
    ("tune", ["--params", "[3]"], "params"),
    ("run", ["--h-coords", 3], "h_coords"),
    ("run", ["--delta", 1e-300], "delta"),
    ("bench", ["--delta", 1e-300], "delta"),
    ("run", ["--te-hat", 1e-320], "te_hat"),
])
def test_bad_flag_values_are_config_errors(command, flags, field, tuned_dir, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"tours": [{"cpu_seconds": 0.5}]}))
    argv = [command] + {
        "tune": ["--out", tmp_path / "out"],
        "run": ["--out", tmp_path / "out", "--schedule", tuned_dir / "schedule.json"],
        "bench": ["--schedule", tuned_dir / "schedule.json"],
        "index-sim": ["--n-levels", 3, "--rho", 0.2],
        "plan": ["--report", report, "--k-extra", 8, "--out", tmp_path / "plan.csv"],
    }[command]
    if isinstance(flags, dict):  # a config file, which argparse's choices do not see
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        argv = ["--config", cfg] + argv
    else:
        argv += flags
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}")


@pytest.mark.parametrize("model, params, key", [
    ("threshold_weibull", {"c": -1}, "c"),
    ("threshold_weibull", {"b": 0}, "b"),
    ("toy_gaussian", {"sigma0": 0}, "sigma0"),
    ("toy_gaussian", {"m": "nan"}, "m"),
    ("funnel", {"dim": 1}, "dim"),
])
def test_a_model_parameter_its_reader_refuses_is_a_config_error(model, params, key, tmp_path,
                                                                 capsys):
    # threshold_weibull's c < 0 reached numpy, which named it a; b = 0 made all
    # observations equal and tuned; sigma0 = 0 and m = nan failed in the math
    argv = ["tune", "--model", model, "--params", json.dumps(params), "--out", tmp_path / "out"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: params: {key} must be ")
    assert not (tmp_path / "out").exists()


def test_repeated_h_coords_are_a_config_error(tuned_dir, tmp_path, capsys):
    # the second x1 column overwrote the first in the report
    argv = ["run", "--schedule", tuned_dir / "schedule.json", "--h-coords", 0, 0,
            "--out", tmp_path / "out"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == (
        "config error: h_coords: indices must not repeat, got [0, 0]\n")
    assert not (tmp_path / "out").exists()


def test_text_in_a_config_file_for_a_number_flag_is_a_config_error(tmp_path, capsys):
    # as a parser default, argparse would convert the text itself and exit 2
    # with its usage error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": "x"}))
    assert run_cli(["--config", cfg, "tune", "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == (
        "config error: levels: must be of type int\n")


@pytest.mark.parametrize("command, flags, message", [
    ("run", {"h_coords": "12"}, "h_coords: must be a list of int"),
    ("run", {"h_coords": 12}, "h_coords: must be a list of int"),
    ("bench", {"ideal": "no"}, "ideal: must be true or false"),
    ("bench", {"ideal": 1}, "ideal: must be true or false"),
])
def test_a_config_file_gives_a_list_flag_a_list_and_a_switch_a_boolean(command, flags, message,
                                                                        tuned_dir, tmp_path,
                                                                        capsys):
    # "12" was split into the coordinates 1 and 2, and "no" and 1 switched
    # --ideal on
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(flags))
    argv = ["--config", cfg, command, "--schedule", tuned_dir / "schedule.json"]
    if command == "run":
        argv += ["--out", tmp_path / "out"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_number_in_a_config_file_for_a_path_flag_is_a_config_error(tmp_path, capsys):
    # open(0) would read the schedule from stdin
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": 0}))
    assert run_cli(["--config", cfg, "run", "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == (
        "config error: schedule: must be of type str\n")


def test_every_number_flag_has_a_rule():
    # --h-coords has none: run checks it against the model's dim, which only
    # the schedule file gives.
    _, subcommands = build_parser()
    unchecked = {(command, action.dest) for command, parser in subcommands.items()
                 for action in parser._actions
                 if action.type in (int, float) and action.dest not in _CHECKS}
    assert unchecked == {("run", "h_coords")}


def test_every_rule_checks_a_flag():
    # a flag removed without its rule leaves a rule that checks nothing
    _, subcommands = build_parser()
    dests = {action.dest for parser in subcommands.values() for action in parser._actions}
    assert _CHECKS.keys() <= dests


def test_a_config_key_that_names_no_flag_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_round": 1, "gamma": 5}))
    assert run_cli(["--config", cfg, "index-sim", "--n-levels", 2, "--rho", 0.2]) == 1
    assert capsys.readouterr().err == (
        "config error: gamma: names no flag of any subcommand\n")
    # a flag of another subcommand is not one of index-sim's, but one file
    # may serve several subcommands
    cfg.write_text(json.dumps({"max_rounds": 1, "tours": 100}))
    assert run_cli(["--config", cfg, "index-sim", "--n-levels", 2, "--rho", 0.2]) == 0


def test_config_file_gives_params_as_an_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"dim": 4}}))
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "tune", "--levels", 3, "--max-rounds", 2,
                    "--out", out]) == 0
    payload = json.loads((out / "schedule.json").read_text())
    assert payload["model"] == {"name": "toy_gaussian", "params": {"dim": 4}}
    assert all(len(row) == 4 for row in payload["widths"])


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("lambda_hat", [-1.0, "abc", None, True])
def test_schedule_lambda_hat_must_be_a_finite_number(command, lambda_hat, tuned_dir, tmp_path,
                                                     capsys):
    payload = json.loads((tuned_dir / "schedule.json").read_text())
    payload["lambda_hat"] = lambda_hat
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--schedule", path, "--seed", 5]
    if command == "run":
        argv += ["--out", tmp_path / "run"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("config error: schedule: lambda_hat")


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


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("key, value, message", [
    ("betas", [0.0, math.nan, 1.0], "schedule: betas must be finite"),
    ("explore_steps", [2.5, 1.0], "schedule: explore_steps must be whole numbers"),
    ("betas", [0.0, True, 1.0], "schedule: betas must be numbers, not true or false"),
    ("affinities", [0.0, 1.0, False], "schedule: affinities must be numbers, not true or false"),
    ("explore_steps", [True, 1], "schedule: explore_steps must be numbers, not true or false"),
    ("widths", [[True, 1, 1], [1, 1, 1]], "schedule: widths must be numbers, not true or false"),
    ("model", {"name": "toy_gaussian", "params": {"dimm": 7}},
     "params: model 'toy_gaussian' has no parameter 'dimm'"),
    ("model", {"name": "toy_gaussian", "params": {"dim": "abc"}}, "params: "),
    ("model", {"name": "nope"}, "model: unknown model 'nope'"),
    ("model", None, "schedule: needs a 'model' entry"),
])
def test_bad_schedule_file_entries_are_config_errors(command, key, value, message, tmp_path,
                                                     capsys):
    payload = {"model": {"name": "toy_gaussian", "params": {}}, "betas": [0.0, 0.5, 1.0],
               "affinities": [0.0, 1.0, 2.0], "explore_steps": [1, 1], key: value}
    payload = {k: v for k, v in payload.items() if v is not None}  # None drops the entry
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--schedule", path, "--seed", 5]
    if command == "run":
        argv += ["--out", tmp_path / "run"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


_NO_REJECTIONS = json.dumps({"model": {"name": "toy_gaussian"}, "betas": [0, 1],
                             "affinities": [0, 0], "explore_steps": [1]})


@pytest.mark.parametrize("command, flag, content", [
    ("run", "schedule", None),
    ("run", "schedule", "{"),
    ("run", "schedule", "[1, 2]"),
    ("bench", "schedule", None),
    ("bench", "schedule", "[1, 2]"),
    ("bench", "schedule", _NO_REJECTIONS),
    ("bench", "schedule", json.dumps({"rejections": {"up": [0.5]}})),
    ("plan", "report", None),
    ("plan", "report", "not json"),
    ("plan", "report", "[1, 2]"),
    ("plan", "report", "{}"),
    ("plan", "report", json.dumps({"tours": [1, 2]})),
    ("plan", "report", json.dumps({"tours": [{"n_steps": 3}]})),
    ("plan", "report", json.dumps({"tours": [{"cpu_seconds": -1.0}] * 12})),
    ("plan", "report", json.dumps({"tours": [{"cpu_seconds": True}] * 12})),
    ("config", "config", None),
    ("config", "config", "{"),
    ("config", "config", "[1, 2]"),
], ids=["run-missing", "run-bad-json", "run-not-object", "bench-missing", "bench-not-object",
        "ideal-no-rejections", "ideal-no-sym", "plan-missing", "plan-bad-json",
        "plan-not-object", "plan-no-tours", "plan-tours-not-objects", "plan-no-cpu-seconds",
        "plan-negative-cpu-seconds", "plan-boolean-cpu-seconds", "config-missing",
        "config-bad-json", "config-not-object"])
def test_json_files_the_cli_reads_are_config_errors(command, flag, content, tmp_path, capsys):
    # content None: the file is missing
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    argv = {
        "run": ["run", "--schedule", path, "--out", tmp_path / "out"],
        "bench": ["bench", "--schedule", path, "--ideal", "--tours", 10],
        "plan": ["plan", "--report", path, "--k-extra", 8, "--out", tmp_path / "plan.csv"],
        "config": ["--config", path, "index-sim", "--n-levels", 2, "--rho", 0.2],
    }[command]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {flag}: ")


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


def test_a_dead_worker_is_a_runtime_error(tuned_dir, tmp_path, monkeypatch, capsys):
    def dies(*args, **kwargs):
        raise WorkerDiedError(5, 12)

    monkeypatch.setattr("nrst.cli.run_parallel", dies)
    argv = ["run", "--schedule", tuned_dir / "schedule.json", "--te-hat", 0.3, "--seed", 5,
            "--workers", 2, "--out", tmp_path]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        "runtime error: tour 12 (seed 5): a pool worker died; this tour and those after it "
        "did not finish\n")


def test_tune_without_a_finite_reference_draw_is_a_runtime_error(tmp_path, monkeypatch,
                                                                 capsys):
    class InfiniteModel(ToyGaussian):
        def _potential(self, x):
            return math.inf

    monkeypatch.setattr("nrst.cli.make_model", lambda spec: InfiniteModel())
    assert run_cli(["tune", "--levels", 2, "--max-rounds", 2, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: all 1000 reference draws had V = +inf")


@pytest.mark.parametrize("command", ["tune", "run", "plan"])
def test_an_out_that_cannot_be_written_fails_before_any_work(command, tuned_dir, tmp_path,
                                                             monkeypatch, capsys):
    models, plans = [], []
    monkeypatch.setattr("nrst.cli.make_model",
                        lambda spec: models.append(make_model(spec)) or models[-1])
    monkeypatch.setattr("nrst.planner.cost_curves", lambda *args: plans.append(args))
    # a file where tune and run make their directory, no directory for plan's file
    out = tmp_path / "taken" if command != "plan" else tmp_path / "missing" / "plan.csv"
    if command != "plan":
        out.write_text("")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"tours": [{"cpu_seconds": 0.1 * k} for k in range(1, 13)]}))
    argv = {
        "tune": ["tune", "--levels", 2, "--max-rounds", 2],
        "run": ["run", "--schedule", tuned_dir / "schedule.json"],
        "plan": ["plan", "--report", report, "--k-extra", 8],
    }[command]
    assert run_cli(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: out: ") and f"{str(out)!r}" in err
    assert sum(model.v_evals.value for model in models) == 0 and plans == []


def test_readme_cli_commands_parse():
    # Every `nrst ...` line of README's CLI block is a valid command line.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in lines if argv[:1] == ["nrst"]]
    assert [argv[1] for argv in commands] == ["tune", "run", "plan", "index-sim", "bench",
                                              "bench"]
    parser, _ = build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]
