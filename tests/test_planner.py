import numpy as np
import pytest

from nrst import planner
from nrst.planner import (
    CpuTimeModel,
    cost_curves,
    fit_cpu_model,
    simulate_pool,
    te_infinity,
)


def test_percentile_threshold_example():
    model = fit_cpu_model(np.arange(1.0, 11.0))
    assert model.threshold == pytest.approx(8.2)


def test_fit_requires_ten_samples():
    with pytest.raises(ValueError, match="need >= 10 samples"):
        fit_cpu_model(np.ones(9))


def test_a_zero_time_fits_and_samples():
    # a tour shorter than the thread clock's resolution reads 0.0
    times = np.concatenate([[0.0], np.linspace(0.001, 0.02, 49)])
    model = fit_cpu_model(times)
    assert model.bulk.min() == 0.0
    draws = model.sample(1000, np.random.default_rng(1))
    assert np.all(np.isfinite(draws)) and draws.min() >= 0.0


@pytest.mark.parametrize("times", [
    np.zeros(12), np.r_[-1.0, np.ones(11)], np.r_[np.inf, np.ones(11)],
    np.r_[np.nan, np.ones(11)]], ids=["all-zero", "negative", "inf", "nan"])
def test_fit_rejects_negative_non_finite_and_all_zero_times(times):
    with pytest.raises(ValueError, match="times must be non-negative and finite"):
        fit_cpu_model(times)


def test_constant_times_degenerate_fit():
    model = fit_cpu_model(np.full(50, 5.0))
    assert model.threshold == pytest.approx(5.0)
    assert model.tail_shape == 1.0
    rng = np.random.default_rng(0)
    draws = model.sample(10_000, rng)
    bulk = draws[draws <= 5.0]
    assert np.all(bulk == 5.0)
    assert np.all(draws >= 5.0)


def test_weibull_mle_recovers_shape():
    rng = np.random.default_rng(42)
    times = np.concatenate([
        rng.uniform(0.1, 1.0, 40_000),                  # bulk below ~1
        1.0 + 2.0 * rng.weibull(1.5, 10_000),           # top 20%: Weibull tail
    ])
    model = fit_cpu_model(times)
    assert model.tail_shape == pytest.approx(1.5, abs=0.1)


def test_sampling_reproduces_source_percentile():
    rng = np.random.default_rng(3)
    times = rng.lognormal(0.0, 1.0, 5000)
    model = fit_cpu_model(times)
    draws = model.sample(100_000, np.random.default_rng(4))
    q80 = np.percentile(draws, 80)
    assert abs(q80 - model.threshold) / model.threshold <= 0.05


def test_greedy_schedule_hand_example():
    sim = simulate_pool([4.0, 3.0, 2.0, 1.0], 2)
    assert sim.makespan == pytest.approx(5.0)


def test_pool_boundaries():
    times = [4.0, 3.0, 2.0, 1.0]
    assert simulate_pool(times, 1).makespan == pytest.approx(10.0)
    assert simulate_pool(times, 4).makespan == pytest.approx(4.0)
    assert simulate_pool(times, 9).makespan == pytest.approx(4.0)


def test_makespan_monotone_and_bounded():
    rng = np.random.default_rng(11)
    times = rng.exponential(1.0, 64) + 0.01
    prev = np.inf
    for pool in (1, 2, 3, 5, 8, 16, 64, 100):
        sim = simulate_pool(times, pool)
        lower = max(times.max(), times.sum() / pool)
        assert sim.makespan >= lower - 1e-12
        assert sim.makespan <= prev + 1e-12
        prev = sim.makespan


def test_busy_curve_integrates_to_total_time():
    rng = np.random.default_rng(5)
    times = rng.uniform(0.5, 2.0, 30)
    sim = simulate_pool(times, 4)
    # integral of the busy curve equals the summed durations
    t = sim.busy_times
    c = sim.busy_counts
    area = float(np.sum(c[:-1] * np.diff(t)))
    assert area == pytest.approx(times.sum(), rel=1e-9)
    assert c[-1] == pytest.approx(0.0)


class FixedDurations:
    """A duration model whose every workload is the same four tours."""

    def sample(self, n, rng):
        return np.array([4.0, 3.0, 2.0, 1.0])


def test_cost_curves_invariants():
    rng = np.random.default_rng(9)
    curves = cost_curves(FixedDurations(), 4, [1, 2, 4, 8], 5, rng)
    for c in curves:
        assert c["cloud_cost_mean"] == pytest.approx(10.0)
    pool1 = curves[0]
    assert pool1["hpc_cost_mean"] == pytest.approx(pool1["cloud_cost_mean"])
    pool_big = curves[-1]
    assert pool_big["hpc_cost_mean"] >= pool_big["cloud_cost_mean"] - 1e-12


def test_cost_curves_with_model_bands():
    rng = np.random.default_rng(1)
    times = rng.lognormal(0.0, 0.8, 2000)
    model = fit_cpu_model(times)
    curves = cost_curves(model, 100, [1, 4, 16], 20, rng)
    for c in curves:
        assert c["makespan_q10"] <= c["makespan_mean"] <= c["makespan_q90"]
        assert c["cloud_cost_q10"] <= c["cloud_cost_mean"] <= c["cloud_cost_q90"]
    assert curves[0]["makespan_mean"] >= curves[-1]["makespan_mean"]


def test_te_infinity_values():
    assert te_infinity(0.0) == 1.0
    assert te_infinity(1.0) == pytest.approx(1 / 3)
    assert te_infinity(2.0) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        te_infinity(-0.1)


@pytest.mark.parametrize("call, message", [
    (lambda: CpuTimeModel(-1.0, [1.0], 1.0, 1.0), "threshold must be non-negative"),
    (lambda: CpuTimeModel(1.0, [1.0], 0.0, 1.0), "tail parameters must be positive"),
    (lambda: CpuTimeModel(1.0, [], 1.0, 1.0), "bulk must hold non-negative samples"),
    (lambda: simulate_pool([1.0], 0), "pool_size must be >= 1"),
    (lambda: simulate_pool([], 2), "need at least one tour"),
    (lambda: cost_curves(CpuTimeModel(1.0, [1.0], 1.0, 1.0), 4, [1], 0,
                         np.random.default_rng(0)), "replications must be >= 1"),
], ids=["threshold", "tail", "bulk", "pool_size", "no-tours", "replications"])
def test_planner_checks_its_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_weibull_shape_solve_stops_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(planner, "_MLE_MAX_ITER", 1)
    y = np.random.default_rng(0).weibull(2.0, 200)
    # one Newton step from k = 1, short of the converged shape
    k = planner._weibull_mle_shape(y)
    monkeypatch.setattr(planner, "_MLE_MAX_ITER", 200)
    assert k != 1.0 and abs(k - planner._weibull_mle_shape(y)) > 1e-3
