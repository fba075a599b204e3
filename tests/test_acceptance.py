"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tuned schedules are built once per session and shared.
"""

import io
import math
import time

import numpy as np
import pytest

from nrst.adapt import (
    adapt,
    equi_rejection_indicators,
    estimate_rejections,
    n_star,
    optimal_grid_size,
    run_nrpt,
    stepping_stone_logz,
)
from nrst.bench_models import Banana, ToyGaussian, analytic_gaussian_path
from nrst.planner import simulate_pool, te_infinity
from nrst.runner import CoordinateFunction, pilot_then_run, run_parallel
from nrst.st_kernels import IdealIndexChain, ideal_te, simulate_index_tours, write_traces_csv
from nrst.stats import TourStatistics, estimate_sigma2, estimate_te, min_tours

pytestmark = pytest.mark.acceptance

TOY_TRUTH_MEAN = 1.6  # analytic posterior mean of each coordinate at beta = 1


def announce(num, name, ok, detail):
    print(f"\ncriterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def tuned_toy():
    rng = np.random.default_rng(20250808)
    return adapt(ToyGaussian(), 8, 12, "mean", rng=rng)


@pytest.fixture(scope="module")
def tuned_toy_n8():
    rng = np.random.default_rng(20250809)
    return adapt(ToyGaussian(), 8, 12, "mean", rng=rng, max_restarts=0)


@pytest.fixture(scope="module")
def tuned_banana():
    rng = np.random.default_rng(20250810)
    return adapt(Banana(), 8, 12, "median", rng=rng)


CRITERION1_CONFIGS = [(1, 0.5), (6, 0.2), (10, 0.05)]


def test_criterion_01_te_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    rows = []
    ok = True
    for n, rho in CRITERION1_CONFIGS:
        chain = IdealIndexChain.symmetric(np.full(n, rho))
        tes = {}
        for variant in ("nrst", "st"):
            closed = ideal_te(chain, variant)
            _, visits, _ = simulate_index_tours(chain, variant, 10**6, rng)
            mc = estimate_te(visits)
            ok &= abs(mc - closed) <= 0.01
            tes[variant] = mc
            rows.append(f"N={n} rho={rho} {variant}: |{mc:.4f}-{closed:.4f}|")
        ok &= tes["nrst"] > tes["st"]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    assert announce(1, "TE closed forms", ok, f"{'; '.join(rows)}; {elapsed:.1f}s")


def test_criterion_02_regeneration_identities():
    rng = np.random.default_rng(102)
    n = 5
    chain = IdealIndexChain.symmetric([0.1, 0.3, 0.2, 0.4, 0.25])
    steps, visits, _ = simulate_index_tours(chain, "nrst", 10**5, rng)
    lengths = steps + 1.0  # tours include the regeneration state
    se_len = lengths.std() / math.sqrt(lengths.size)
    se_vis = visits.std() / math.sqrt(visits.size)
    ok = abs(lengths.mean() - 2 * (n + 1)) <= 3 * se_len
    ok &= abs(visits.mean() - 2.0) <= 3 * se_vis
    assert announce(
        2, "regeneration identities", ok,
        f"mean length {lengths.mean():.3f} vs {2 * (n + 1)} (3se={3 * se_len:.3f}); "
        f"mean visits {visits.mean():.4f} vs 2 (3se={3 * se_vis:.4f})",
    )


def test_criterion_03_te_infinity_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    details = []
    for lam in (0.5, 1.0, 2.0):
        gaps = {}
        for n in (16, 64):
            chain = IdealIndexChain.symmetric(np.full(n, lam / n))
            _, visits, _ = simulate_index_tours(chain, "nrst", 4 * 10**5, rng)
            te = estimate_te(visits)
            gaps[n] = abs(te - te_infinity(lam)) / te_infinity(lam)
        ok &= gaps[64] <= 0.10
        ok &= gaps[16] > gaps[64]
        details.append(f"lam={lam}: gap16={gaps[16]:.3%} gap64={gaps[64]:.3%}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120
    assert announce(3, "TE-infinity limit", ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_04_stepping_stone_accuracy(tuned_toy_n8):
    t0 = time.perf_counter()
    sched = tuned_toy_n8.schedule
    assert sched.n_levels == 8
    model = ToyGaussian()
    data = run_nrpt(model, sched, 10**4, np.random.default_rng(104))
    logz = stepping_stone_logz(data, sched.betas)
    exact = analytic_gaussian_path(3, 2.0, 2.0, 1.0)[2]
    err = abs(logz[-1] - exact)
    elapsed = time.perf_counter() - t0
    ok = err <= 0.05 and elapsed < 120
    assert announce(
        4, "stepping-stone accuracy", ok,
        f"|logZ_hat(1) - ({exact:.4f})| = {err:.4f} <= 0.05; {elapsed:.1f}s",
    )


def test_criterion_05_equi_rejection_after_adaptation(tuned_toy, tuned_banana):
    """Equi-rejection and directional symmetry of the tuned schedules.

    The indicators are measured on a long validation run at the tuned
    schedule so that the check reflects the tuning quality rather than the
    Monte Carlo noise of the last adaptation round.
    """
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, result, model, mode in (
        ("toy_gaussian", tuned_toy, ToyGaussian(), "mean"),
        ("banana", tuned_banana, Banana(), "median"),
    ):
        # every adaptation loop stayed within the 12-round budget
        per_loop = {}
        for entry in result.rounds:
            per_loop[entry["n_levels"]] = max(
                per_loop.get(entry["n_levels"], 0), entry["round"]
            )
        ok &= all(r <= 12 for r in per_loop.values())
        sched = result.schedule
        data = run_nrpt(model, sched, 8192, np.random.default_rng(105))
        r_up, r_down, r_sym = estimate_rejections(data, sched.betas, sched.affinities)
        spread, asym = equi_rejection_indicators(r_up, r_down, r_sym)
        ok &= spread < 0.1
        if mode == "mean":
            ok &= asym < 0.05
        details.append(
            f"{name}[{mode}]: spread={spread:.4f} asym={asym:.4f} "
            f"converged={result.converged} rounds={len(result.rounds)}"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600
    assert announce(5, "equi-rejection after adaptation", ok,
                    f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_06_posterior_mean_coverage(tuned_toy):
    t0 = time.perf_counter()
    sched = tuned_toy.schedule
    model = ToyGaussian()
    covered = 0
    n_runs = 100
    for seed in range(n_runs):
        report = pilot_then_run(
            model, sched, "nrst", 0.95, 0.5, tuned_toy.lambda_hat, 1, seed,
            h_funcs=(CoordinateFunction(0),), h_names=["x1"],
        )
        lo, hi = report.estimates["x1"]["ci"]
        covered += lo <= TOY_TRUTH_MEAN <= hi
    elapsed = time.perf_counter() - t0
    ok = covered >= 90 and elapsed < 900
    assert announce(
        6, "posterior-mean coverage", ok,
        f"CI covered {TOY_TRUTH_MEAN} in {covered}/{n_runs} runs; {elapsed:.1f}s",
    )


def test_criterion_07_grid_size_formula():
    t0 = time.perf_counter()
    ok = True
    details = []
    for lam in (0.5, 1.0, 3.0):
        grid = np.arange(lam + 1e-4, 100.0, 1e-4)
        cost = 2 * (grid + 1) * (grid * (1 + 2 * lam) - lam) / (grid - lam)
        brute = grid[np.argmin(cost)]
        formula = n_star(lam)
        ok &= abs(brute - formula) <= 1e-3
        ok &= 2 * lam < formula < (1 + math.sqrt(2)) * lam
        details.append(f"lam={lam}: |{brute:.4f}-{formula:.4f}|")
    assert optimal_grid_size(1.0, 1.0) == 3
    assert optimal_grid_size(1.0, 2.0) == 5
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert announce(7, "optimal grid size", ok, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_08_min_tours_arithmetic():
    t0 = time.perf_counter()
    ok = min_tours(0.95, 0.5, 1.0) == 62
    ok &= min_tours(0.95, 0.5, 0.25) == 246
    rng = np.random.default_rng(108)
    for _ in range(100):
        a = float(rng.uniform(0.5, 0.99))
        d = float(rng.uniform(0.05, 2.0))
        te = float(rng.uniform(0.02, 1.0))
        ok &= min_tours(a, d, te) >= min_tours(a, d, min(1.0, te * 1.5))
        ok &= min_tours(a, d, te) >= min_tours(a, d * 1.5, te)
        ok &= min_tours(a, d, te) <= min_tours(min(0.999, a + 0.005), d, te)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert announce(8, "min-tours arithmetic", ok,
                    f"62 / 246 plus 100-point monotonic sweep; {elapsed:.2f}s")


def test_criterion_09_planner_invariants():
    t0 = time.perf_counter()
    hand = simulate_pool([4.0, 3.0, 2.0, 1.0], 2)
    ok = hand.makespan == pytest.approx(5.0)
    rng = np.random.default_rng(109)
    times = rng.lognormal(0.0, 1.0, 128)
    cloud = times.sum()
    prev = math.inf
    for pool in (1, 2, 4, 8, 16, 64, 128):
        sim = simulate_pool(times, pool)
        ok &= sim.makespan <= prev + 1e-12
        ok &= sim.makespan >= max(times.max(), cloud / pool) - 1e-12
        prev = sim.makespan
        # cloud cost is the workload sum regardless of the pool
        area = float(np.sum(sim.busy_counts[:-1] * np.diff(sim.busy_times)))
        ok &= abs(area - cloud) < 1e-6 * cloud
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert announce(9, "planner invariants", ok,
                    f"hand makespan 5.0, bounds over 7 pool sizes; {elapsed:.2f}s")


def test_criterion_10_determinism_across_workers(tuned_toy):
    t0 = time.perf_counter()
    sched = tuned_toy.schedule
    outputs = []
    for workers in (1, 4, 8):
        report = run_parallel(ToyGaussian(), sched, "nrst", 0.9, 0.8, 0.5,
                              workers, 424242)
        buf = io.StringIO()
        write_traces_csv(report.traces, buf)
        outputs.append(buf.getvalue())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] == outputs[2] and elapsed < 60
    assert announce(
        10, "determinism across workers", ok,
        f"traces.csv identical for workers 1/4/8 ({len(outputs[0])} bytes); {elapsed:.1f}s",
    )


def test_criterion_11_cost_direction_nrst_vs_st(tuned_toy):
    t0 = time.perf_counter()
    sched = tuned_toy.schedule
    model = ToyGaussian()
    wins = 0
    n_rep = 30
    costs = []
    for seed in range(n_rep):
        serial = {}
        for variant in ("nrst", "st"):
            report = pilot_then_run(
                model, sched, variant, 0.95, 0.5, tuned_toy.lambda_hat, 1,
                10_000 + seed,
            )
            serial[variant] = report.serial_cost
        wins += serial["st"] > serial["nrst"]
        costs.append(serial)
    elapsed = time.perf_counter() - t0
    med_ratio = float(np.median([c["st"] / c["nrst"] for c in costs]))
    ok = wins >= 25 and elapsed < 1200
    assert announce(
        11, "serial-cost direction", ok,
        f"ST costlier in {wins}/{n_rep} replicates (median ratio {med_ratio:.2f}x); "
        f"{elapsed:.1f}s",
    )


def test_criterion_12_variance_bound():
    rng = np.random.default_rng(112)
    ok = True
    details = []
    for n, rho in CRITERION1_CONFIGS:
        chain = IdealIndexChain.symmetric(np.full(n, rho))
        for variant in ("nrst", "st"):
            steps, visits, sodd = simulate_index_tours(chain, variant, 10**5, rng)
            stats = TourStatistics(steps, visits, sodd.astype(float))
            te_hat = estimate_te(visits)
            sigma2 = estimate_sigma2(stats)
            bound = 4.0 / te_hat * 1.05
            ok &= sigma2 <= bound
            details.append(f"{variant} N={n}: {sigma2:.3f}<={bound:.1f}")
    assert announce(12, "variance bound", ok, "; ".join(details))
