import importlib
import math

import numpy as np
import pytest
from scipy.special import expit

from nrst import explore
from nrst.adapt import (
    _RUN_WIDTH_PER_MOVE,
    _WIDTH_PER_MOVE,
    BarrierEstimate,
    InfiniteReferenceError,
    PassEstimates,
    _batch_means_se,
    _batches,
    _carry_widths,
    _grid_size,
    _pass_ses,
    _remap_states,
    _run_kappa1_upper,
    _tour_cost_per_te,
    _v_evals_per_call,
    _widths_from_moves,
    adapt,
    build_barrier,
    check_convergence,
    equi_rejection_indicators,
    estimate_rejections,
    mean_energy_affinities,
    median_affinities,
    optimize_grid,
    run_nrpt,
    stepping_stone_logz,
)
from nrst.bench_models import ModelSpec, ToyGaussian, analytic_gaussian_path, make_model
from nrst.explore import build_explorers, lag1_autocorrelation
from nrst.model import Schedule, TemperedModel
from oracles import (
    CountingDraw,
    LinearBarrier,
    autocorrelation,
    batch_se_per_batch,
    grid_per_target,
    local_rejection_rates,
    logz_per_interval,
    median_affinities_per_level,
    n_star,
    optimal_grid_size,
    rejections_per_interval,
    run_kappa1_upper_per_level,
    steps_from_autocorrelation,
    uniform_schedule,
)


class FlatModel(ToyGaussian):
    """V identically zero: the whole pipeline degenerates gracefully.  V = 0
    lies below the toy's bound (d/2) log 2 pi, so the model declares none."""

    v_min = -math.inf

    def _potential(self, x):
        return 0.0


def exact_level_potentials(beta, size, rng, d=3, m=2.0, sigma0=2.0):
    """I.i.d. draws of V under the tempered law, via the analytic path."""
    mu, var, _ = analytic_gaussian_path(d, m, sigma0, beta)
    x = rng.normal(mu, math.sqrt(var), (size, d))
    return 0.5 * np.sum((x - m) ** 2, axis=1) + 0.5 * d * math.log(2 * math.pi)


def exact_affinities(betas, d=3, m=2.0, sigma0=2.0):
    logz = np.array([analytic_gaussian_path(d, m, sigma0, b)[2] for b in betas])
    return -(logz - logz[0])


def exact_dataset(betas, size, rng):
    return np.array([exact_level_potentials(b, size, rng) for b in betas])


def test_run_nrpt_shape_contract():
    model = ToyGaussian()
    sched = uniform_schedule(2)
    data = run_nrpt(model, sched, 4, np.random.default_rng(0))
    assert data.shape == (3, 4)


def test_run_nrpt_sweep_ends_pair_each_sweep_with_its_records():
    model = ToyGaussian()
    sched = Schedule(np.linspace(0, 1, 4), np.zeros(4), np.ones(3, dtype=int))
    data = run_nrpt(model, sched, 6, np.random.default_rng(0))
    again, states_again, ends, _ = run_nrpt(model, sched, 6, np.random.default_rng(0),
                                            full=True)
    assert ends.shape == (2, 4, 6)
    # recording draws nothing: the pass is the same
    for i in range(4):
        np.testing.assert_array_equal(again[i], data[i])
    assert [v for _, v in states_again] == [data[i][-1] for i in range(4)]
    # at every level, level 0 included, the V entering scan s's kernel is the
    # one recorded after scan s - 1; a cold start leaves level 0's unread
    for i in range(4):
        np.testing.assert_array_equal(ends[0, i, 1:], data[i][:-1])
    assert math.isnan(ends[0, 0, 0]) and not np.isnan(ends[0, 1:, 0]).any()
    # the swap round after the sweeps only permutes the V leaving them
    records = np.array([data[i] for i in range(4)])
    np.testing.assert_array_equal(np.sort(ends[1], axis=0), np.sort(records, axis=0))


def test_run_nrpt_constant_v_swaps_always_accept():
    # with identical potentials every swap has unit acceptance; the level-0
    # fresh draw therefore propagates upward one level per scan
    model = FlatModel()
    sched = uniform_schedule(2)
    data, states, _, _ = run_nrpt(model, sched, 8, np.random.default_rng(1), full=True)
    assert np.all(data[0] == 0.0)
    assert len(states) == 3


class ZeroUniforms:
    """A Generator whose uniforms ``random()`` are all exactly 0.0."""

    def __init__(self, rng):
        self._rng = rng

    def random(self):
        return 0.0

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_run_nrpt_swap_accepts_on_a_zero_uniform(monkeypatch):
    # u = 0 lies below every positive acceptance probability; it used to
    # reach math.log(0.0) and raise a bare ValueError
    monkeypatch.setattr(importlib.import_module("nrst.adapt"), "build_explorers",
                        lambda model, schedule: build_explorers(model, schedule)[:1]
                        + [lambda x, v, rng: (x, v)] * 3)
    model = ToyGaussian()
    states = [(np.zeros(3), math.nan)]
    states += [(np.full(3, float(i)), model.potential(np.full(3, float(i)))) for i in (1, 2, 3)]
    data = run_nrpt(model, uniform_schedule(3), 2, ZeroUniforms(np.random.default_rng(0)),
                    init_states=states)
    # scan 0 swaps the even pairs (0, 1) and (2, 3)
    assert (data[0][0], data[2][0], data[3][0]) == (states[1][1], states[3][1], states[2][1])


def test_run_nrpt_calls_level_zeros_kernel_once_per_scan(monkeypatch):
    model = ToyGaussian()
    x = np.full(3, 2.0)
    draw = CountingDraw(x, model.potential(x))
    monkeypatch.setattr(importlib.import_module("nrst.adapt"), "build_explorers",
                        lambda model, schedule: [draw] + build_explorers(model, schedule)[1:])
    nrpt = run_nrpt(model, uniform_schedule(3), 5, np.random.default_rng(0), full=True)
    assert draw.calls == 5
    # level 0's V leaving its kernel is the kernel's; the V entering it is
    # the start state's (NaN, cold) and then the one recorded a scan before
    assert np.all(nrpt.ends[1, 0, :] == draw.state[1])
    assert math.isnan(nrpt.ends[0, 0, 0])
    np.testing.assert_array_equal(nrpt.ends[0, 0, 1:], nrpt.data[0, :-1])
    assert nrpt.moves.shape == (3, 3)


def test_run_nrpt_level_means_match_analytic():
    model = ToyGaussian()
    n = 4
    betas = np.linspace(0, 1, n + 1)
    sched = Schedule(betas, np.zeros(n + 1), np.ones(n, dtype=int))
    n_scan = 4000
    data = run_nrpt(model, sched, n_scan, np.random.default_rng(2))
    for i, beta in enumerate(betas):
        mu, var, _ = analytic_gaussian_path(3, 2.0, 2.0, beta)
        expected = 0.5 * 3 * (var + (mu - 2.0) ** 2) + 1.5 * math.log(2 * math.pi)
        series = data[i]
        # batch means standard error (25 batches) absorbs the autocorrelation
        batches = series[: n_scan - n_scan % 25].reshape(25, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(series.mean() - expected) <= max(3 * se, 0.05 * abs(expected) + 1e-9)


def test_stepping_stone_trivial_and_hand_example():
    data = np.array((np.zeros(5), np.zeros(5), np.zeros(5)))
    np.testing.assert_allclose(
        stepping_stone_logz(data, [0, 0.5, 1.0]), np.zeros(3), atol=1e-14
    )
    tiny = np.array((np.array([2.0]), np.array([4.0])))
    logz = stepping_stone_logz(tiny, [0.0, 1.0])
    assert logz[1] == pytest.approx(-3.0, abs=1e-12)
    assert logz[0] == 0.0


def test_stepping_stone_shift_invariance():
    rng = np.random.default_rng(3)
    betas = np.linspace(0, 1, 6)
    data = exact_dataset(betas, 500, rng)
    base = stepping_stone_logz(data, betas)
    shift = 11.5
    shifted = data + shift
    moved = stepping_stone_logz(shifted, betas)
    np.testing.assert_allclose(moved, base - betas * shift, atol=1e-10)


def test_stepping_stone_accuracy_modest():
    rng = np.random.default_rng(4)
    betas = np.linspace(0, 1, 9)
    data = exact_dataset(betas, 4000, rng)
    logz = stepping_stone_logz(data, betas)
    exact = np.array([analytic_gaussian_path(3, 2.0, 2.0, b)[2] for b in betas])
    assert abs(logz[-1] - exact[-1]) <= 0.05


def test_stepping_stone_accuracy_on_wide_intervals():
    # two intervals of width 0.5: the old forward/backward average of the
    # stepping stone was off by more than 0.05 at 34 of 40 seeds of this
    # dataset (0.10 at seed 0)
    betas = np.linspace(0, 1, 3)
    data = exact_dataset(betas, 10_000, np.random.default_rng(0))
    logz = stepping_stone_logz(data, betas)
    assert abs(logz[-1] - analytic_gaussian_path(3, 2.0, 2.0, 1.0)[2]) <= 0.05


def test_stepping_stone_where_the_reference_puts_mass_on_infinite_v():
    # threshold_weibull's reference draws have V = +inf with probability
    # 0.95, so log Z(beta) = log E_0[exp(-beta V)] counts those draws as 0.
    # The backward half of the old average estimated log Z(beta) minus
    # log P_0(V < inf) and read ~ -3.4 here.
    model = make_model(ModelSpec("threshold_weibull"))
    beta = 0.004
    # level 1's widths are of the size a tune learns there
    sched = Schedule(np.array([0.0, beta, 1.0]), np.zeros(3), np.ones(2, dtype=int),
                     np.array([[3.5, 20.0, 9.0], [1.0, 1.0, 1.0]]))
    rng = np.random.default_rng(1)
    warm = run_nrpt(model, sched, 256, rng, full=True)
    data = run_nrpt(model, sched, 4096, rng, init_states=warm.states)[:2]
    logz = stepping_stone_logz(data, [0.0, beta])[-1]
    # batch means over 8 batches of 512 scans, each with ~25 finite level-0
    # samples
    batches = [stepping_stone_logz(data[:, k * 512:(k + 1) * 512], [0.0, beta])[-1]
               for k in range(8)]
    se = np.std(batches, ddof=1) / math.sqrt(8)
    mc_rng = np.random.default_rng(0)
    log_w = -beta * np.array([model.potential(model.sample_reference(mc_rng))
                              for _ in range(100_000)])
    top = np.max(log_w[np.isfinite(log_w)])
    w = np.exp(log_w - top)
    mc = top + math.log(np.mean(w))
    mc_se = np.std(w) / np.mean(w) / math.sqrt(w.size)
    assert abs(logz - mc) <= 3.0 * math.hypot(se, mc_se)
    assert math.hypot(se, mc_se) < 0.2


def test_mean_energy_affinities_examples():
    np.testing.assert_array_equal(mean_energy_affinities([0.0, 0.0, 0.0]), np.zeros(3))
    np.testing.assert_allclose(
        mean_energy_affinities([0.0, -1.0, -3.0]), [0.0, 1.0, 3.0], atol=1e-15
    )


def test_mean_energy_affinities_cancel_in_pseudo_prior():
    from oracles import pseudo_prior

    logz = np.array([0.0, -2.3, -4.1])
    p = pseudo_prior(logz, mean_energy_affinities(logz))
    np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-12)


def test_median_affinities_examples():
    data = np.array((np.full(4, 5.0), np.full(4, 5.0), np.full(4, 5.0)))
    np.testing.assert_allclose(
        median_affinities(data, [0.0, 0.5, 1.0]), [0.0, 2.5, 5.0], atol=1e-14
    )
    zeros = np.array((np.zeros(3), np.zeros(3)))
    np.testing.assert_array_equal(median_affinities(zeros, [0.0, 1.0]), [0.0, 0.0])


def test_median_matches_mean_for_symmetric_levels():
    rng = np.random.default_rng(5)
    betas = np.linspace(0, 1, 5)
    # symmetric (normal) level distributions: median = mean
    levels = tuple(rng.normal(3.0 + b, 0.5, 20_000) for b in betas)
    data = np.array(levels)
    med = median_affinities(data, betas)
    # trapezoid of the level means
    means = np.array([v.mean() for v in levels])
    ref = np.concatenate([[0.0], np.cumsum(0.5 * (means[1:] + means[:-1]) * np.diff(betas))])
    np.testing.assert_allclose(med, ref, atol=0.02)


def test_estimate_rejections_examples():
    flat = np.array((np.zeros(10), np.zeros(10)))
    r_up, r_down, r_sym = estimate_rejections(flat, [0.0, 1.0], [0.0, 0.0])
    assert np.all(r_up == 0.0) and np.all(r_down == 0.0) and np.all(r_sym == 0.0)

    single = np.array((np.array([2.0]), np.array([0.0])))
    r_up, r_down, r_sym = estimate_rejections(single, [0.0, 1.0], [0.0, 0.0])
    assert r_up[0] == pytest.approx(1 - math.exp(-2), abs=1e-9)
    assert r_down[0] == pytest.approx(0.0, abs=1e-12)


def test_estimate_rejections_symmetric_under_exact_affinities():
    rng = np.random.default_rng(6)
    betas = np.linspace(0, 1, 9)
    size = 40_000
    data = exact_dataset(betas, size, rng)
    c = exact_affinities(betas)
    r_up, r_down, r_sym = estimate_rejections(data, betas, c)
    assert np.all((r_sym >= 0) & (r_sym <= 1))
    for i in range(8):
        # Monte Carlo tolerance plus a first-order discretization cushion
        sigma = math.sqrt(2 * 0.25 / size)
        assert abs(r_up[i] - r_down[i]) <= 3 * sigma + 0.01


def test_build_barrier_examples():
    barrier = build_barrier([0.2, 0.2, 0.2], np.linspace(0, 1, 4))
    assert barrier.total == pytest.approx(0.6)
    mesh = np.linspace(0, 1, 101)
    np.testing.assert_allclose(barrier(mesh), 0.6 * mesh, atol=1e-12)

    flat = build_barrier([0.0, 0.0], [0.0, 0.5, 1.0])
    assert flat.total == 0.0
    assert flat(0.7) == 0.0


def test_build_barrier_hits_knots_and_monotone():
    rng = np.random.default_rng(7)
    betas = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.02, 0.98, 6)]))
    r = rng.uniform(0.0, 0.4, betas.size - 1)
    barrier = build_barrier(r, betas)
    np.testing.assert_allclose(
        barrier(betas), np.concatenate([[0.0], np.cumsum(r)]), atol=1e-12
    )
    mesh = barrier(np.linspace(0, 1, 1000))
    assert np.all(np.diff(mesh) >= -1e-12)


def test_optimize_grid_linear_and_piecewise():
    linear = build_barrier([0.1, 0.1, 0.1, 0.1], np.linspace(0, 1, 5))
    np.testing.assert_allclose(optimize_grid(linear, 4), np.linspace(0, 1, 5), atol=1e-9)

    knots = LinearBarrier(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.1, 0.6]))
    betas = optimize_grid(knots, 2)
    assert betas[1] == pytest.approx(0.7, abs=1e-9)

    degenerate = build_barrier([0.0, 0.0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(optimize_grid(degenerate, 4), np.linspace(0, 1, 5))


def test_two_knot_barrier_is_the_line_through_its_knots():
    barrier = build_barrier([0.7], [0.0, 1.0])
    mesh = np.linspace(0, 1, 101)
    np.testing.assert_allclose(barrier(mesh), 0.7 * mesh, rtol=0, atol=1e-15)
    oracle = LinearBarrier([0.0, 1.0], [0.0, 0.7])
    for n in (2, 5, 9):
        np.testing.assert_allclose(optimize_grid(barrier, n), optimize_grid(oracle, n),
                                   rtol=0, atol=1e-12)


def test_optimize_grid_round_trip():
    rng = np.random.default_rng(8)
    betas = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, 5)]))
    barrier = build_barrier(rng.uniform(0.05, 0.5, betas.size - 1), betas)
    for n in (3, 6, 11):
        grid = optimize_grid(barrier, n)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)
        for i in range(1, n):
            assert barrier(grid[i]) == pytest.approx(
                (i / n) * barrier.total, abs=1e-8
            )


def _plateau_barriers():
    """Barriers whose knots include zero-rejection plateaus: random ones, one
    whose plateau sits at a target, and one so steep that interior points
    collide."""
    rng = np.random.default_rng(10)
    for _ in range(6):
        n = int(rng.integers(2, 12))
        betas = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
        r = rng.uniform(0.0, 0.5, n)
        r[rng.random(n) < 0.4] = 0.0
        yield build_barrier(r, betas)
    yield build_barrier([0.25, 0.0, 0.0, 0.25], np.linspace(0.0, 1.0, 5))
    yield build_barrier([0.0, 1.0, 0.0], [0.0, 0.5, 0.5 + 1e-13, 1.0])
    yield LinearBarrier([0.0, 0.3, 0.6, 1.0], [0.0, 0.4, 0.4, 1.1])


@pytest.mark.parametrize("barrier", _plateau_barriers())
def test_optimize_grid_equals_the_per_target_bisection(barrier):
    for n in range(1, 21):
        np.testing.assert_array_equal(optimize_grid(barrier, n), grid_per_target(barrier, n))


def _random_pass(n_levels, n_scan, seed, all_inf_lower):
    """(data, betas, affinities) like a pass's: each level's potentials at
    their own location and scale, some level-0 V = +inf (all of them when
    ``all_inf_lower``), on a random grid.  ``data`` is a column slice of a
    wider array, as the batch-means SE passes."""
    rng = np.random.default_rng(seed)
    rows = n_levels + 1
    wide = rng.normal(rng.uniform(-5.0, 60.0, (rows, 1)), rng.uniform(0.1, 25.0, (rows, 1)),
                      (rows, n_scan + 3))
    data = wide[:, 2:2 + n_scan]
    data[0, rng.random(n_scan) < 0.3] = np.inf
    if all_inf_lower:
        data[0] = np.inf
    betas = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n_levels - 1)), [1.0]))
    return data, betas, np.cumsum(rng.normal(0.0, 10.0, rows)) * (np.arange(rows) > 0)


_PASS_SHAPES = [(2, 1), (2, 2), (3, 7), (5, 64), (8, 129), (12, 1000), (16, 1025), (16, 4096)]


@pytest.mark.parametrize("all_inf_lower", [False, True])
@pytest.mark.parametrize("n_levels, n_scan", _PASS_SHAPES)
def test_array_logz_and_rejections_equal_the_per_interval_loops(n_levels, n_scan,
                                                                all_inf_lower):
    data, betas, c = _random_pass(n_levels, n_scan, n_levels * n_scan, all_inf_lower)
    for d in (data, np.ascontiguousarray(data)):
        logz = stepping_stone_logz(d, betas)
        np.testing.assert_array_equal(logz, logz_per_interval(d, betas))
        # each increment -D solves Bennett's equation
        # mean sigma(D - a) = mean sigma(b - D), except where every lower
        # sample is V = +inf
        db = np.diff(betas)[:, None]
        a, b = db * d[:-1], db * d[1:]
        root = -np.diff(logz)[:, None]
        residual = np.mean(expit(root - a), axis=1) - np.mean(expit(b - root), axis=1)
        solved = np.isfinite(a).any(axis=1)
        assert solved[1:].all() and solved[0] == (not all_inf_lower)
        np.testing.assert_allclose(residual[solved], 0.0, atol=1e-12)
        for got, want in zip(estimate_rejections(d, betas, c),
                             rejections_per_interval(d, betas, c)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_levels, n_scan", _PASS_SHAPES)
def test_array_medians_equal_the_per_level_loop(n_levels, n_scan):
    data, betas, _ = _random_pass(n_levels, n_scan, n_levels * n_scan, False)
    if np.isfinite(data[0]).any():
        np.testing.assert_array_equal(median_affinities(data, betas),
                                      median_affinities_per_level(data, betas))
    data[0] = np.inf
    for median in (median_affinities, median_affinities_per_level):
        with pytest.raises(ValueError, match="^no finite potential samples at some level$"):
            median(data, betas)


def test_optimal_grid_size_examples():
    assert n_star(1.0) == pytest.approx(1 + math.sqrt(4 / 3), abs=1e-12)
    assert optimal_grid_size(1.0, 1.0) == 3
    assert optimal_grid_size(1.0, 2.0) == 5
    for lam in (0.3, 1.0, 2.5, 7.0, 40.0):
        assert 2 * lam < n_star(lam) < (1 + math.sqrt(2)) * lam


@pytest.mark.parametrize("cost_per_call", [0.05, 0.5, 1.0, 1.8, 5.4, 9.0, 30.0, 400.0])
def test_grid_size_is_the_integer_argmin_of_the_predicted_tour_cost(cost_per_call):
    for lam in (0.01, 0.3, 0.999, 1.0, 1.001, 1.7, 2.0, 3.4, 7.5, 20.0, 63.2):
        sizes = np.arange(max(2, math.floor(lam) + 1), 40 * math.ceil(lam) + 100)
        costs = [_tour_cost_per_te(n, lam, cost_per_call) for n in sizes]
        assert _grid_size(lam, cost_per_call) == sizes[np.argmin(costs)]
    # a grid that rejects every move has TE 0, at no finite cost
    assert _tour_cost_per_te(4, 4.0, cost_per_call) == math.inf


def test_grid_size_at_half_a_v_eval_per_call_is_criterion_7s_integer_argmin():
    # c-bar = 1/2 charges each level a unit per tour, as 2 (N + 1) / TE does
    for lam in (0.3, 1.0, 2.5, 7.0, 40.0):
        size = _grid_size(lam, 0.5)
        assert size in (max(2, math.floor(n_star(lam))), max(2, math.ceil(n_star(lam))))
        sizes = np.arange(math.floor(lam) + 1, 400)
        cost = 2 * (sizes + 1) * (sizes * (1 + 2 * lam) - lam) / (sizes - lam)
        assert size == max(2, sizes[np.argmin(cost)])


def test_v_evals_per_call_leaves_out_level_zeros_draws_and_pools_passes():
    rounds = [{"n_levels": 4, "n_scan": 16, "v_evals": 16 + 4 * 16 * 3},
              {"n_levels": 4, "n_scan": 32, "v_evals": 32 + 4 * 32 * 6}]
    assert _v_evals_per_call(rounds[:1]) == 3.0
    assert _v_evals_per_call(rounds[1:]) == 6.0
    assert _v_evals_per_call(rounds) == 5.0


def restart_at_n_star(monkeypatch):
    """Make adapt's grid size the paper's N* rounded up."""
    monkeypatch.setattr(importlib.import_module("nrst.adapt"), "_grid_size",
                        lambda lam, cost_per_call: optimal_grid_size(lam, 1.0))


def test_adapt_restarts_the_toy_at_the_grid_size_of_fewest_v_evals_per_te(monkeypatch):
    def tune():
        model = ToyGaussian()
        res = adapt(model, 8, 9, rng=np.random.default_rng(1000))
        return res, model.v_evals.value

    res, v_evals = tune()
    assert res.restarts == 1 and res.schedule.n_levels == 2
    # N* rounded up, the paper's grid size, restarts at 3 and tunes for more
    restart_at_n_star(monkeypatch)
    res_star, v_evals_star = tune()
    assert res_star.restarts == 1 and res_star.schedule.n_levels == 3
    assert v_evals_star > v_evals


def _round_state(c_top, total, r_up, r_down):
    r_up = np.asarray(r_up, dtype=float)
    r_down = np.asarray(r_down, dtype=float)
    r_sym = 0.5 * (r_up + r_down)
    betas = np.linspace(0, 1, r_up.size + 1)
    barrier = BarrierEstimate(betas, np.linspace(0.0, total, betas.size))
    aff = np.linspace(0.0, c_top, betas.size)
    return PassEstimates(aff, None, (r_up, r_down, r_sym), barrier)


def test_check_convergence_fixed_point():
    state = _round_state(4.0, 0.8, [0.2, 0.2, 0.2, 0.2], [0.2, 0.2, 0.2, 0.2])
    ok, ind = check_convergence(state, state, "mean")
    assert ok
    assert all(v == 0.0 for v in ind.values())


def test_check_convergence_spread_fails():
    state = _round_state(4.0, 0.4, [0.1, 0.3], [0.1, 0.3])
    ok, ind = check_convergence(state, state, "mean")
    assert not ok
    assert ind["rejection_spread"] == pytest.approx(0.5)


def test_check_convergence_median_ignores_asymmetry():
    # asymmetry indicator of 0.2 would fail in mean mode but not in median
    new = _round_state(4.0, 0.8, [0.22, 0.22, 0.22, 0.22], [0.18, 0.18, 0.18, 0.18])
    old = _round_state(4.0, 0.8, [0.22, 0.22, 0.22, 0.22], [0.18, 0.18, 0.18, 0.18])
    ok_mean, ind = check_convergence(old, new, "mean")
    assert ind["directional_asymmetry"] == pytest.approx(0.2)
    assert not ok_mean
    ok_median, _ = check_convergence(old, new, "median")
    assert ok_median


def test_check_convergence_requires_history():
    state = _round_state(4.0, 0.8, [0.2], [0.2])
    with pytest.raises(ValueError):
        check_convergence(None, state, "mean")


def test_local_rejection_rates_examples():
    const = np.array((np.full(5, 2.0), np.full(5, 2.0)))
    rates = local_rejection_rates(const, [0.0, 1.0], [0.0, 2.0])
    np.testing.assert_allclose(rates, [0.0, 0.0], atol=1e-14)

    data = np.array((np.array([0.0, 2.0]), np.array([0.0, 2.0])))
    rates = local_rejection_rates(data, [0.0, 1.0], [0.0, 1.0])
    np.testing.assert_allclose(rates, [0.5, 0.5], atol=1e-14)


def test_local_rates_first_order_consistency():
    """r_{i-1,i} / dbeta approaches the local rate as the grid refines."""
    rng = np.random.default_rng(9)
    rel_err = []
    for n in (8, 16, 32, 64):
        betas = np.linspace(0, 1, n + 1)
        data = exact_dataset(betas, 20_000, rng)
        c = exact_affinities(betas)
        r_up, _, _ = estimate_rejections(data, betas, c)
        rates = local_rejection_rates(data, betas, c)
        i = n // 2
        interval_rate = r_up[i - 1] / (betas[i] - betas[i - 1])
        local = 0.5 * (rates[i - 1] + rates[i])
        rel_err.append(abs(interval_rate - local) / local)
    assert rel_err[-1] <= 0.10
    assert rel_err[-1] <= rel_err[0]


def test_rejections_shrink_under_grid_refinement():
    """Splitting every interval in half never (materially) raises r_sym."""
    rng = np.random.default_rng(14)
    coarse = np.linspace(0, 1, 9)
    fine = np.linspace(0, 1, 17)
    data_c = exact_dataset(coarse, 30_000, rng)
    data_f = exact_dataset(fine, 30_000, rng)
    _, _, r_coarse = estimate_rejections(data_c, coarse, exact_affinities(coarse))
    _, _, r_fine = estimate_rejections(data_f, fine, exact_affinities(fine))
    for parent in range(8):
        for child in (2 * parent, 2 * parent + 1):
            assert r_fine[child] <= r_coarse[parent] * 1.10


def test_riemann_sum_consistency():
    """Both rejection sums converge to the barrier as the grid refines."""
    rng = np.random.default_rng(10)
    plain, odds = [], []
    for n in (8, 16, 32, 64):
        betas = np.linspace(0, 1, n + 1)
        data = exact_dataset(betas, 20_000, rng)
        c = exact_affinities(betas)
        _, _, r_sym = estimate_rejections(data, betas, c)
        plain.append(float(np.sum(r_sym)))
        odds.append(float(np.sum(r_sym / (1.0 - r_sym))))
    gaps = [abs(a - b) for a, b in zip(plain, odds)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    # successive refinements of each sum approach a common limit
    assert abs(plain[-1] - plain[-2]) < abs(plain[1] - plain[0])
    assert abs(odds[-1] - odds[-2]) < abs(odds[1] - odds[0])
    assert abs(plain[-1] - odds[-1]) < 0.05 * plain[-1]


def test_adapt_flat_model_converges_in_two_rounds():
    model = FlatModel()
    res = adapt(model, 4, 8, "mean", rng=np.random.default_rng(11))
    assert res.converged
    assert len(res.rounds) == 2
    assert res.lambda_hat == 0.0
    np.testing.assert_allclose(res.schedule.betas, np.linspace(0, 1, 5))
    np.testing.assert_allclose(res.schedule.affinities, np.zeros(5), atol=1e-12)
    assert np.all(res.schedule.explore_steps == 1)
    # a zero barrier leaves round 2 on round 1's grid, so the two pooled
    # give the schedule and its prediction, not round 2 alone
    assert res.prediction["rounds"] == [1, 2]
    assert res.prediction["v_evals_per_te"] == _tour_cost_per_te(
        4, 0.0, _v_evals_per_call(res.rounds)) != _tour_cost_per_te(
        4, 0.0, _v_evals_per_call(res.rounds[1:]))


def test_remap_states_maps_levels_above_zero_onto_old_levels_above_zero():
    old_betas = np.array([0.0, 0.3, 0.6, 1.0])
    states = [(np.full(1, float(i)), float(i)) for i in range(4)]
    # new beta 0.1 is nearest to old level 0, but that state may have V = +inf
    new = _remap_states(states, old_betas, np.array([0.0, 0.1, 0.4, 0.7, 1.0]))
    assert [v for _, v in new] == [0.0, 1.0, 1.0, 2.0, 3.0]


def loosen_thresholds(monkeypatch):
    """Set every convergence threshold to 10: the tune then converges at the
    first comparison, so on ToyGaussian at seed 3 the restart (N 8 -> 5)
    fires with rounds left."""
    module = importlib.import_module("nrst.adapt")
    for name in ("_MAX_REJECTION_SPREAD", "_MAX_AFFINITY_CHANGE", "_MAX_BARRIER_CHANGE",
                 "_MAX_ASYMMETRY"):
        monkeypatch.setattr(module, name, 10.0)


@pytest.fixture
def loose(monkeypatch):
    loosen_thresholds(monkeypatch)


def test_adapt_restart_keeps_scan_budget_within_round_cap(loose):
    res = adapt(ToyGaussian(), 8, 6, "mean", rng=np.random.default_rng(3))
    assert res.restarts == 1
    levels = [r["n_levels"] for r in res.rounds]
    assert levels[0] == 8 and levels[-1] == res.schedule.n_levels != 8
    n_scans = [r["n_scan"] for r in res.rounds]
    assert n_scans == sorted(n_scans)
    assert [r["round"] for r in res.rounds] == list(range(1, len(res.rounds) + 1))
    assert len(res.rounds) <= 6


def spy_on_run_nrpt(monkeypatch):
    """Record (n_levels, n_scan) of every NRPT pass that adapt makes."""
    module = importlib.import_module("nrst.adapt")
    calls = []
    real = module.run_nrpt

    def spy(model, schedule, n_scan, *args, **kwargs):
        calls.append((schedule.n_levels, n_scan))
        return real(model, schedule, n_scan, *args, **kwargs)

    monkeypatch.setattr(module, "run_nrpt", spy)
    return calls


def test_adapt_restart_runs_no_pass_at_the_discarded_grid_size(monkeypatch, loose):
    calls = spy_on_run_nrpt(monkeypatch)
    res = adapt(ToyGaussian(), 8, 6, "mean", rng=np.random.default_rng(3))
    assert res.restarts == 1
    first = [r for r in res.rounds if r["n_levels"] == 8]
    assert sum(1 for n_levels, _ in calls if n_levels == 8) == len(first)
    # one pass per round and none after them: the last round's pass, at the
    # final size, is the one the schedule comes from
    assert calls == [(r["n_levels"], r["n_scan"]) for r in res.rounds]
    assert calls[-1] == (res.schedule.n_levels, res.rounds[-1]["n_scan"])
    # the restart size comes from the last round at the first size
    assert res.schedule.n_levels == _grid_size(first[-1]["lambda_hat"],
                                               _v_evals_per_call(first[-1:]))


def test_adapt_without_restart_runs_one_pass_per_round(monkeypatch, loose):
    calls = spy_on_run_nrpt(monkeypatch)
    monkeypatch.setattr(importlib.import_module("nrst.adapt"), "_MAX_RESTARTS", 0)
    res = adapt(ToyGaussian(), 8, 6, "mean", rng=np.random.default_rng(3))
    assert res.restarts == 0
    assert calls == [(8, r["n_scan"]) for r in res.rounds]
    assert calls[-1] == (8, res.rounds[-1]["n_scan"])


def test_adapt_restarts_at_the_first_round_whose_noise_settles_the_grid_size(monkeypatch):
    calls = spy_on_run_nrpt(monkeypatch)
    res = adapt(ToyGaussian(), 8, 9, "mean", rng=np.random.default_rng(1000))
    assert res.restarts == 1

    def settled_size(r):
        lam, se = r["lambda_hat"], r["lambda_se"]
        if se is None or lam - 2 * se <= 0:
            return None
        lo, hi = (_grid_size(lam + k * se, _v_evals_per_call([r])) for k in (-2, 2))
        return lo if lo == hi else None

    sizes = [settled_size(r) for r in res.rounds]
    restart = next(i for i, size in enumerate(sizes)
                   if size is not None and abs(size - 8) / 8 > 0.25)
    n_final = res.schedule.n_levels
    assert res.rounds[restart]["n_scan"] >= 32 and sizes[restart] == n_final
    levels = [r["n_levels"] for r in res.rounds]
    assert levels == [8] * (restart + 1) + [n_final] * (len(levels) - restart - 1)
    # the rounds after the restart run on the grid that is kept, and no pass
    # runs after them
    assert calls == [(r["n_levels"], r["n_scan"]) for r in res.rounds]
    assert calls[-1] == (n_final, res.rounds[-1]["n_scan"])
    assert sum(1 for n_levels, _ in calls if n_levels == n_final) >= 2


@pytest.mark.parametrize(
    "mode, n_levels, max_rounds, loose_thresholds, max_restarts",
    [("mean", 8, 6, True, 1), ("median", 8, 6, True, 1), ("mean", 16, 2, True, 1),
     ("mean", 8, 4, False, 0), ("median", 8, 4, False, 0)],
    ids=["mean", "median", "restart-at-last-round", "pooled-mean", "pooled-median"])
def test_adapt_takes_the_schedule_from_the_last_passes(monkeypatch, mode, n_levels, max_rounds,
                                                       loose_thresholds, max_restarts):
    if loose_thresholds:
        loosen_thresholds(monkeypatch)
    module = importlib.import_module("nrst.adapt")
    monkeypatch.setattr(module, "_MAX_RESTARTS", max_restarts)
    passes = []
    real = module.run_nrpt

    def spy(model, schedule, n_scan, *args, **kwargs):
        out = real(model, schedule, n_scan, *args, **kwargs)
        passes.append((schedule, n_scan, out))
        return out

    monkeypatch.setattr(module, "run_nrpt", spy)
    estimated = []
    real_estimates = module._pass_estimates
    monkeypatch.setattr(module, "_pass_estimates",
                        lambda data, *args: estimated.append(data) or real_estimates(data, *args))
    step_calls = spy_on_step_tuning(monkeypatch)
    res = adapt(ToyGaussian(), n_levels, max_rounds, mode, rng=np.random.default_rng(3))
    # one pass per round: with 2 rounds, round 2 converges and restarts
    # (N 16 -> 9; the toy's lambda of ~1 calls for 5), so a third round, of
    # twice the scans, runs at the new size
    calls = [(sched.n_levels, n_scan) for sched, n_scan, _ in passes]
    rounds = [(r["n_levels"], r["n_scan"]) for r in res.rounds]
    assert calls == rounds
    if max_rounds == 2:
        assert res.restarts == 1 and res.schedule.n_levels < 16
        assert rounds == [(16, 2), (16, 4), (res.schedule.n_levels, 8)]
        assert res.rounds[-1]["round"] == 3 and res.rounds[-1]["indicators"] is None
    sched, n_scan, (data, states, ends, moves) = passes[-1]
    betas = sched.betas
    # the last two rounds share a grid, unless the tune stopped early on
    # convergence or the last round restarted
    pooled = max_restarts == 0
    assert np.array_equal(passes[-2][0].betas, betas) == pooled
    # and the record names the passes that gave the schedule
    if pooled:  # capped: the last two rounds
        assert res.prediction["rounds"] == [max_rounds - 1, max_rounds]
    elif max_rounds == 2:  # a restart at the last round: the round it adds
        assert res.prediction["rounds"] == [3]
    else:  # converged before the cap: the last round
        assert res.converged and len(res.rounds) < max_rounds
        assert res.prediction["rounds"] == [len(res.rounds)]
    n, lam = sched.n_levels, res.lambda_hat
    c = _v_evals_per_call([r for r in res.rounds if r["round"] in res.prediction["rounds"]])
    assert res.prediction == {
        "rounds": res.prediction["rounds"], "v_evals_per_call": c,
        "v_evals_per_tour": 1.0 + 2.0 * n * c, "te": 1.0 / (1.0 + 2.0 * lam / (1.0 - lam / n)),
        "v_evals_per_te": _tour_cost_per_te(n, lam, c)}
    if pooled:
        assert not res.converged and len(res.rounds) == max_rounds
        _, n_before, before = passes[-2]
        data = np.concatenate([before.data, data], axis=1)
        ends = np.concatenate([before.ends, ends], axis=2)
        moves = before.moves + moves
        assert data[0].size == n_before + n_scan
    # no dataset, a pooled one included, is estimated twice; the schedule's last
    assert len(estimated) >= len(passes)
    assert not any(np.array_equal(a, b) for k, a in enumerate(estimated) for b in estimated[:k])
    np.testing.assert_array_equal(estimated[-1], data)
    np.testing.assert_array_equal(res.schedule.betas, betas)
    if mode == "mean":
        log_z = stepping_stone_logz(data, betas)
        affinities = mean_energy_affinities(log_z)
        np.testing.assert_array_equal(res.log_z, log_z)
    else:
        affinities = median_affinities(data, betas)
        assert res.log_z is None
    np.testing.assert_array_equal(res.schedule.affinities, affinities)
    np.testing.assert_array_equal(res.schedule.widths,
                                  _widths_from_moves(moves, data[0].size, _RUN_WIDTH_PER_MOVE))
    rejections = estimate_rejections(data, betas, affinities)
    for got, want in zip(res.rejections, rejections):
        np.testing.assert_array_equal(got, want)
    assert res.lambda_hat == res.barrier.total == build_barrier(rejections[2], betas).total
    spread, asym = equi_rejection_indicators(*rejections)
    assert res.final_indicators == {"rejection_spread": spread, "directional_asymmetry": asym}
    assert res.rounds[-1]["n_scan"] == n_scan
    np.testing.assert_array_equal(step_calls[0]["kappa1"],
                                  _run_kappa1_upper(ends[:, 1:], _RUN_WIDTH_PER_MOVE))
    assert len(step_calls[0]["kappa1"]) == n
    assert step_calls[0]["init_states"] is states


def _batch_se_of_mean(x):
    """Batch-means SE of the mean of the series ``x``, or None."""
    batches = _batches(x)
    return None if batches is None else _batch_means_se(np.mean(batches, axis=-1))


def test_batch_se_of_an_iid_mean_is_one_over_sqrt_n():
    x = np.random.default_rng(4).standard_normal(4096)
    se = _batch_se_of_mean(x)
    assert abs(se - 1 / 64) <= 0.25 / 64


def test_batch_se_inflates_by_the_ar1_variance_factor():
    rho, n = 0.8, 4096
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(n) * math.sqrt(1 - rho**2)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    se = _batch_se_of_mean(x)
    iid_se = float(np.std(x)) / math.sqrt(n)
    assert abs(se / iid_se - 3.0) <= 0.3 * 3.0


def test_logz_se_solves_all_batches_at_once_bit_for_bit_as_batch_by_batch():
    rng = np.random.default_rng(31)
    betas = np.array([0.0, 0.2, 0.5, 1.0])
    data = np.array([exact_level_potentials(b, 300, rng) for b in betas])
    data[0, rng.random(300) < 0.3] = np.inf
    data[0, :60] = np.inf  # no finite V at level 0 in the first batches
    batches = _batches(data)
    assert batches.shape == (16, 4, 18)
    per_batch = batch_se_per_batch(data, lambda d: float(stepping_stone_logz(d, betas)[-1]))
    paths = stepping_stone_logz(batches, betas)
    for batch, path in zip(batches, paths):
        assert np.array_equal(stepping_stone_logz(batch, betas), path)
    assert _batch_means_se(paths[:, -1]) == per_batch


def test_batch_se_needs_32_scans():
    x = np.random.default_rng(6).standard_normal(32)
    assert _batches(x[:31]) is None and _batch_se_of_mean(x[:16]) is None
    assert _batch_se_of_mean(x) > 0
    data = np.array((x, x))
    assert _pass_ses(data[:, :31], [0.0, 1.0], [0.0, 0.0]) == (None, None)
    assert all(se > 0 for se in _pass_ses(data, [0.0, 1.0], [0.0, 0.0]))


@pytest.mark.parametrize("scale", [_WIDTH_PER_MOVE, _RUN_WIDTH_PER_MOVE, 0.5])
def test_widths_from_moves_scale_the_mean_move_and_default_to_one(scale):
    moves = np.array([[8.0, 0.0], [math.inf, 2.0], [math.nan, 4.0]])
    widths = _widths_from_moves(moves, 4, scale)
    np.testing.assert_array_equal(widths, [[2.0 * scale, 1.0], [1.0, 0.5 * scale],
                                           [1.0, 1.0 * scale]])


def test_carry_widths_interpolates_linearly_in_beta():
    old_betas = np.array([0.0, 0.25, 0.5, 1.0])
    widths = np.array([[4.0, 1.0], [3.0, 2.0], [1.0, 4.0]])
    new_betas = np.array([0.0, 0.1, 0.375, 0.75, 1.0])
    np.testing.assert_allclose(_carry_widths(widths, old_betas, new_betas),
                               [[4.0, 1.0], [3.5, 1.5], [2.0, 3.0], [1.0, 4.0]])


def test_adapt_learns_widths_from_each_pass(monkeypatch, loose):
    module = importlib.import_module("nrst.adapt")
    calls = []
    real = module.run_nrpt

    def spy(model, schedule, n_scan, *args, **kwargs):
        out = real(model, schedule, n_scan, *args, **kwargs)
        calls.append((schedule, n_scan, out.moves))
        return out

    monkeypatch.setattr(module, "run_nrpt", spy)
    res = adapt(ToyGaussian(), 8, 6, "mean", rng=np.random.default_rng(3))
    assert res.restarts == 1
    # the first round explores at 1.0; every later pass at the widths the
    # pass before learned, carried onto its grid (the restart included)
    assert calls[0][0].widths is None
    for (before, n_before, moves), (after, _, _) in zip(calls, calls[1:]):
        learned = _widths_from_moves(moves, n_before, _WIDTH_PER_MOVE)
        np.testing.assert_array_equal(
            after.widths, _carry_widths(learned, before.betas, after.betas))
    # the schedule keeps the run's widths from the moves of the last pass
    final, n_final, moves = calls[-1]
    np.testing.assert_array_equal(res.schedule.widths,
                                  _widths_from_moves(moves, n_final, _RUN_WIDTH_PER_MOVE))


def test_adapt_explores_at_the_tune_bracket_and_writes_the_run_bracket(monkeypatch):
    module = importlib.import_module("nrst.adapt")
    monkeypatch.setattr(module, "_MAX_RESTARTS", 0)
    passes = []
    real = module.run_nrpt

    def spy(model, schedule, n_scan, *args, **kwargs):
        out = real(model, schedule, n_scan, *args, **kwargs)
        passes.append((schedule, n_scan, out.moves))
        return out

    monkeypatch.setattr(module, "run_nrpt", spy)
    chain_kernels = []
    real_tune, real_kernel = explore.tune_explore_steps, explore.ExplorationKernel

    def kernel(model, beta, n_steps=1, widths=None):
        chain_kernels.append((beta, n_steps, widths))
        return real_kernel(model, beta, n_steps, widths)

    def tune(model, schedule, rng, *, init_states, kappa1):
        # every level runs its chain
        monkeypatch.setattr(explore, "ExplorationKernel", kernel)
        try:
            return real_tune(model, schedule, rng, init_states=init_states,
                             kappa1=[math.inf] * schedule.n_levels)
        finally:
            monkeypatch.setattr(explore, "ExplorationKernel", real_kernel)

    monkeypatch.setattr(module, "tune_explore_steps", tune)
    res = adapt(ToyGaussian(), 8, 4, rng=np.random.default_rng(3))
    assert len(passes) == 4 and passes[0][0].widths is None
    # every pass after the first explores at 16x the mean move of the pass
    # before, carried onto its grid
    for (before, n_before, moves), (after, _, _) in zip(passes, passes[1:]):
        np.testing.assert_array_equal(after.widths, _carry_widths(
            _WIDTH_PER_MOVE * (moves / n_before), before.betas, after.betas))
    # the schedule carries 6x the mean move of the last two passes pooled
    mean_move = (passes[-2][2] + passes[-1][2]) / (passes[-2][1] + passes[-1][1])
    np.testing.assert_array_equal(res.schedule.widths, _RUN_WIDTH_PER_MOVE * mean_move)
    np.testing.assert_allclose(res.schedule.widths / (_WIDTH_PER_MOVE * mean_move), 6 / 16,
                               rtol=1e-12)
    # and every step-tuning chain runs one sweep per call at those widths
    n = res.schedule.n_levels
    assert [beta for beta, _, _ in chain_kernels] == list(res.schedule.betas[1:])
    for i, (_, n_steps, widths) in enumerate(chain_kernels):
        assert n_steps == 1
        np.testing.assert_array_equal(widths, res.schedule.widths[i])
    assert len(chain_kernels) == n


@pytest.mark.parametrize("max_rounds", [1, 2])
def test_a_schedule_that_round_1_gives_keeps_the_tune_bracket(monkeypatch, max_rounds):
    # round 1 explores at width 1.0, where a move is as long as the bracket
    # lets it be, not as the slice: a schedule from its pass (alone, or
    # pooled with round 2's) takes 16x the mean move
    module = importlib.import_module("nrst.adapt")
    monkeypatch.setattr(module, "_MAX_RESTARTS", 0)
    passes = []
    real = module.run_nrpt

    def spy(model, schedule, n_scan, *args, **kwargs):
        out = real(model, schedule, n_scan, *args, **kwargs)
        passes.append((n_scan, out.moves))
        return out

    monkeypatch.setattr(module, "run_nrpt", spy)
    res = adapt(ToyGaussian(), 8, max_rounds, rng=np.random.default_rng(1002))
    assert len(passes) == max_rounds
    assert res.prediction["rounds"] == list(range(1, max_rounds + 1))
    moves = sum(m for _, m in passes)
    n_scan = sum(n for n, _ in passes)
    np.testing.assert_array_equal(res.schedule.widths,
                                  _widths_from_moves(moves, n_scan, _WIDTH_PER_MOVE))


def test_run_widths_are_about_six_conditional_sds_on_the_toy():
    # the toy's tempered law at beta has conditional sd (1/sigma0^2 + beta)^-1/2
    # in every coordinate; the tune's own 16x bracket reads ~15.5 of them
    toy = ToyGaussian()
    res = adapt(toy, 8, 9, rng=np.random.default_rng(1000))
    sd = (1.0 / toy.sigma0**2 + res.schedule.betas[1:]) ** -0.5
    ratio = res.schedule.widths / sd[:, None]
    assert np.all((ratio >= 4.5) & (ratio <= 7.5)), ratio


def test_adapt_learned_widths_speed_toy_mixing(monkeypatch):
    calls = spy_on_step_tuning(monkeypatch)
    res = adapt(ToyGaussian(), 8, 9, rng=np.random.default_rng(1))
    widths = res.schedule.widths
    assert widths.shape == (res.schedule.n_levels, 3)
    assert np.all(np.isfinite(widths)) and np.all(widths > 0)
    # the conditional scale falls from sd 2 at the reference to 0.89 at
    # the target, and so do the widths
    assert np.all(widths[0] > widths[-1])
    # With no stepping out, a bracket of 1.0 moves x by ~1/3 per update, so
    # V mixes slowly at every level (kappa(1) + 2 SE 0.90-0.97 at seed 1, and
    # 0.20-0.39 at the learned widths, in the tune's passes; the bounds that
    # step tuning gets are mapped to the run's bracket, in the same order);
    # the learned brackets cover the slice and buy mixing, not fewer V-evals.
    monkeypatch.setattr(importlib.import_module("nrst.adapt"), "_widths_from_moves",
                        lambda moves, n_scan, per_move: np.ones_like(moves))
    unit_calls = spy_on_step_tuning(monkeypatch)
    adapt(ToyGaussian(), 8, 9, rng=np.random.default_rng(1))
    assert max(calls[0]["kappa1"]) < min(unit_calls[0]["kappa1"])


def test_adapt_restart_from_heavy_tailed_reference_completes(monkeypatch):
    # Level-0 states of threshold_weibull can have V = +inf; a restart used
    # to warm-start a tempered level from one and fail in the slice sweep.
    calls = spy_on_run_nrpt(monkeypatch)
    model = make_model(ModelSpec("threshold_weibull"))
    res = adapt(model, 12, 6, "mean", rng=np.random.default_rng(1))
    # its lambda of ~3 calls for N ~7, so a tune from 12 levels restarts
    assert res.restarts == 1 and res.schedule.n_levels < 12
    rounds = [(r["n_levels"], r["n_scan"]) for r in res.rounds]
    # one pass per round: the restart comes at the last round (N 12 -> 7),
    # so a seventh round, of twice the scans, runs at the new size
    assert calls == rounds
    assert rounds == [(12, 2), (12, 4), (12, 8), (12, 16), (12, 32), (12, 64),
                      (res.schedule.n_levels, 128)]


def test_adapt_rounds_with_only_infinite_reference_potentials_have_a_barrier(monkeypatch):
    # In the first rounds of this tune every level-0 sample has V = +inf, so
    # the first interval's Bennett equation has no root; the backward
    # estimate must carry the interval, or the affinities and lambda_hat
    # come out NaN.
    module = importlib.import_module("nrst.adapt")
    real, lower_inf = module.stepping_stone_logz, []

    def spy(data, betas):
        lower_inf.append(bool(np.isinf(data[0]).all()))
        return real(data, betas)

    monkeypatch.setattr(module, "stepping_stone_logz", spy)
    model = make_model(ModelSpec("threshold_weibull"))
    res = adapt(model, 12, 6, "mean", rng=np.random.default_rng(1))
    # six rounds within the cap, and the round after the last one's restart
    assert len(res.rounds) == 7
    assert lower_inf[0]
    assert all(math.isfinite(r["lambda_hat"]) for r in res.rounds)


def test_adapt_v_evals_by_part_sum_to_the_tune():
    # Round 2 is the last and restarts (N 16 -> 5), so a third round runs;
    # below 32 scans every level's kappa(1) bound is +inf, so every level
    # runs a step-tuning chain.
    model = ToyGaussian()
    res = adapt(model, 16, 2, rng=np.random.default_rng(3))
    assert [r["n_levels"] for r in res.rounds] == [16, 16, res.schedule.n_levels]
    parts = [r["v_evals"] for r in res.rounds] + [res.step_tuning_v_evals]
    assert min(parts) > 0
    assert sum(parts) == model.v_evals.value


class InfiniteModel(ToyGaussian):
    """V identically +inf: no reference draw has a finite potential."""

    def _potential(self, x):
        return math.inf


def test_adapt_cold_start_without_a_finite_reference_draw_says_so():
    # V = +inf is a valid potential, so this is not DivergedPotentialError.
    model = InfiniteModel()
    with pytest.raises(InfiniteReferenceError, match=r"all 1000 reference draws had V = \+inf"):
        adapt(model, 2, 3, rng=np.random.default_rng(0))
    # the first level's warm start gave up after 1000 draws
    assert model.v_evals.value == 1000


@pytest.mark.slow
def test_adapt_banana_barrier_stable_across_seeds():
    from nrst.bench_models import Banana

    totals = []
    for seed in (21, 22):
        res = adapt(Banana(), 8, 10, "median", rng=np.random.default_rng(seed))
        totals.append(res.lambda_hat)
    assert abs(totals[0] - totals[1]) / totals[0] <= 0.10


@pytest.mark.slow
def test_adapt_toy_gaussian_reaches_equi_rejection():
    model = ToyGaussian()
    res = adapt(model, 8, 10, "mean", rng=np.random.default_rng(12))
    _, _, r_sym = res.rejections
    spread = np.std(r_sym) / np.mean(r_sym)
    assert spread < 0.2
    assert 0.5 < res.lambda_hat < 2.0
    assert np.all(np.diff(res.schedule.betas) > 0)
    # mean-energy affinities approximate the exact free energies
    exact = exact_affinities(res.schedule.betas)
    np.testing.assert_allclose(res.schedule.affinities, exact, atol=0.25)


class Ridge(TemperedModel):
    """Reference N(0, I_2), V = a/2 (x0 - x1)^2 - c (x0 + x1): a narrow
    ridge that coordinate-wise slice sweeps cross slowly at large beta."""

    def __init__(self, a=500.0, c=6.0):
        super().__init__(2)
        self.a, self.c = a, c

    def sample_reference(self, rng):
        return rng.normal(0.0, 1.0, 2)

    def log_reference(self, x):
        return -0.5 * float(np.dot(x, x)) - math.log(2 * math.pi)

    def _potential(self, x):
        return 0.5 * self.a * (x[0] - x[1]) ** 2 - self.c * (x[0] + x[1])


def spy_on_step_tuning(monkeypatch, drop_kappa1=False):
    """Record what each step tuning inside adapt is given and spends: its
    kappa1 and warm states, its V-evals, and the levels that ran a chain.
    ``drop_kappa1`` replaces kappa1 by +inf at every level, so every level
    runs its chain."""
    explore = importlib.import_module("nrst.explore")
    module = importlib.import_module("nrst.adapt")
    real_tune, real_call = explore.tune_explore_steps, explore.ExplorationKernel.__call__
    calls = []

    def spy(model, schedule, *args, **kwargs):
        call = {"kappa1": kwargs.get("kappa1"), "init_states": kwargs.get("init_states"),
                "chain_levels": []}
        if drop_kappa1:
            kwargs["kappa1"] = [math.inf] * schedule.n_levels

        def kernel_call(kernel, x, v, rng):
            # a chain's first call names its level
            level = int(np.flatnonzero(schedule.betas == kernel.beta)[0])
            if level not in call["chain_levels"]:
                call["chain_levels"].append(level)
            return real_call(kernel, x, v, rng)

        monkeypatch.setattr(explore.ExplorationKernel, "__call__", kernel_call)
        v0 = model.v_evals.value
        try:
            steps = real_tune(model, schedule, *args, **kwargs)
        finally:
            monkeypatch.setattr(explore.ExplorationKernel, "__call__", real_call)
        call["v_evals"] = model.v_evals.value - v0
        calls.append(call)
        return steps

    monkeypatch.setattr(module, "tune_explore_steps", spy)
    return calls


def adapt_with_and_without_kappa1(monkeypatch, make, *args, seed):
    """adapt at one seed, then again with every level running its chain."""
    calls = spy_on_step_tuning(monkeypatch)
    res = adapt(make(), *args, rng=np.random.default_rng(seed))
    chain_calls = spy_on_step_tuning(monkeypatch, drop_kappa1=True)
    chain_res = adapt(make(), *args, rng=np.random.default_rng(seed))
    # nothing drawn before the step tuning moves
    np.testing.assert_array_equal(res.schedule.betas, chain_res.schedule.betas)
    np.testing.assert_array_equal(res.schedule.affinities, chain_res.schedule.affinities)
    assert res.lambda_hat == chain_res.lambda_hat
    return res, calls[0], chain_res, chain_calls[0]


def test_adapt_takes_toy_step_counts_from_the_final_pass(monkeypatch):
    # at N* rounded up, this tune keeps N = 3 and one slowly mixing level
    restart_at_n_star(monkeypatch)
    res, call, chain_res, chain_call = adapt_with_and_without_kappa1(
        monkeypatch, ToyGaussian, 8, 5, "mean", seed=5)
    assert len(call["kappa1"]) == res.schedule.n_levels
    # the bounds are the run kernel's: only level 3's (from a tune-kernel
    # bound of 0.74) leaves room above 0.95, so only level 3 runs its chain
    assert call["chain_levels"] == [i for i, k in enumerate(call["kappa1"], start=1)
                                    if k > 0.95] == [3]
    assert 0 < call["v_evals"] < chain_call["v_evals"]
    assert chain_call["chain_levels"] == list(range(1, res.schedule.n_levels + 1))
    np.testing.assert_array_equal(res.schedule.explore_steps, chain_res.schedule.explore_steps)


def test_adapt_runs_chains_only_at_slowly_mixing_levels(monkeypatch):
    module = importlib.import_module("nrst.adapt")
    real, passed = module._run_kappa1_upper, []

    def spy(ends, per_move):
        passed.append(ends)
        return real(ends, per_move)

    monkeypatch.setattr(module, "_run_kappa1_upper", spy)
    res, call, chain_res, _ = adapt_with_and_without_kappa1(
        monkeypatch, Ridge, 8, 6, "mean", seed=1)
    # a level skips its chain only when kappa(1) + 2 SE <= 0.95
    slow = [i for i, k in enumerate(call["kappa1"], start=1) if k > 0.95]
    assert call["chain_levels"] == slow
    # the noise decides at some level: its kappa(1) alone is <= 0.95
    assert passed[0].shape[:2] == (2, res.schedule.n_levels)
    kappa1 = lag1_autocorrelation(*passed[0])
    assert any(kappa1[i - 1] <= 0.95 for i in slow)
    # the top level is slow, and the others are not all slow
    assert slow and slow[-1] == res.schedule.n_levels and slow[0] > 1
    steps = res.schedule.explore_steps
    assert max(steps[i - 1] for i in slow) > 1
    fast = [i for i in range(1, res.schedule.n_levels + 1) if i not in slow]
    assert all(steps[i - 1] == 1 for i in fast)
    for i in slow:
        assert steps[i - 1] == chain_res.schedule.explore_steps[i - 1]


def _one_level(v_in, v_out):
    """(V in, V out) pairs of one level, shaped as ``_run_kappa1_upper`` takes them."""
    return np.array((v_in, v_out))[:, None, :]


def test_kappa1_upper_adds_two_batch_means_ses():
    # independent stationary pairs: the SE of the correlation estimate is
    # (1 - rho^2) / sqrt(n)
    rho, n = 0.9, 4096
    rng = np.random.default_rng(8)
    v_in = rng.standard_normal(n)
    v_out = rho * v_in + math.sqrt(1 - rho**2) * rng.standard_normal(n)
    kappa1 = lag1_autocorrelation(v_in, v_out)
    # at the tune's bracket the bound is the tune kernel's kappa(1) + 2 SE
    tune = _run_kappa1_upper(_one_level(v_in, v_out), _WIDTH_PER_MOVE)
    se = (tune[0] - kappa1) / 2
    assert abs(se / ((1 - rho**2) / math.sqrt(n)) - 1.0) <= 0.2
    # too few scans to measure the noise: the level never skips its chain
    assert _run_kappa1_upper(_one_level(v_in[:31], v_out[:31]), _WIDTH_PER_MOVE) == math.inf
    assert _run_kappa1_upper(_one_level(v_in[:32], v_out[:32]), _WIDTH_PER_MOVE) < math.inf


def test_run_kappa1_upper_leaves_the_bracket_ratio_squared_of_one_minus_kappa():
    rng = np.random.default_rng(9)
    v_in = rng.standard_normal(256)
    v_out = 0.5 * v_in + rng.standard_normal(256)
    ends = _one_level(v_in, v_out)
    (tune,) = run_kappa1_upper_per_level(ends, _WIDTH_PER_MOVE)
    run = _run_kappa1_upper(ends, _RUN_WIDTH_PER_MOVE)[0]
    assert 1.0 - run == pytest.approx((6 / 16) ** 2 * (1.0 - tune), rel=1e-12)
    assert tune < run < 1.0
    # a run at the tune's bracket has the tune's bound
    assert _run_kappa1_upper(ends, _WIDTH_PER_MOVE)[0] == tune
    assert _run_kappa1_upper(ends[..., :31], _RUN_WIDTH_PER_MOVE)[0] == math.inf


@pytest.mark.parametrize("n_scan", [31, 32, 48, 4096])
def test_ses_and_kappa1_bounds_equal_the_per_batch_and_per_level_forms(n_scan):
    # level 0 holds V = +inf entries and level 2 never moves: its kappa(1)
    # has zero variance, and reads 0
    rng = np.random.default_rng(n_scan)
    betas = np.array([0.0, 0.3, 0.6, 1.0])
    data = np.array([exact_level_potentials(b, n_scan, rng) for b in betas])
    data[0, rng.random(n_scan) < 0.2] = np.inf
    c = mean_energy_affinities(stepping_stone_logz(data, betas))
    v_in = np.array([exact_level_potentials(b, n_scan, rng) for b in betas[1:]])
    v_out = 0.7 * v_in + rng.standard_normal(v_in.shape)
    v_in[1] = v_out[1] = 2.5
    ends = np.array((v_in, v_out))
    lambda_se, logz_se = _pass_ses(data, betas, c)
    assert lambda_se == batch_se_per_batch(
        data, lambda d: float(np.sum(rejections_per_interval(d, betas, c)[2])))
    assert logz_se == batch_se_per_batch(data, lambda d: float(logz_per_interval(d, betas)[-1]))
    for per_move in (_WIDTH_PER_MOVE, _RUN_WIDTH_PER_MOVE):
        bounds = _run_kappa1_upper(ends, per_move)
        assert bounds.tolist() == run_kappa1_upper_per_level(ends, per_move)
    assert lag1_autocorrelation(v_in[1], v_out[1]) == 0.0
    assert (lambda_se is None) == (n_scan < 32) == np.isinf(bounds).all()
    if n_scan >= 32:
        assert _run_kappa1_upper(ends, _WIDTH_PER_MOVE)[1] == 0.0


def test_lag1_from_final_pass_matches_the_chain_estimate():
    # the pass's pairs from the stationary chain (V_t, V_t+1) estimate what
    # autocorrelation() estimates from the series
    rng = np.random.default_rng(6)
    v = np.empty(20_000)
    v[0] = rng.normal()
    for t in range(1, v.size):
        v[t] = 0.9 * v[t - 1] + math.sqrt(1 - 0.81) * rng.normal()
    pairs = lag1_autocorrelation(v[:-1], v[1:])
    assert abs(pairs - autocorrelation(v, 1)[1]) < 1e-3
    assert abs(pairs - 0.9) < 0.02
    assert lag1_autocorrelation(np.full(5, 2.0), np.full(5, 2.0)) == 0.0


@pytest.mark.parametrize("kappa_bar", [0.95, 0.1])
def test_adapt_tunes_the_same_schedule_with_the_two_step_rule(monkeypatch, kappa_bar):
    # at 0.1 some banana levels need 2 steps or more; in both cases round 3
    # restarts (N 8 -> 4) and the schedule's pass, round 4's alone, has 16
    # scans, too few for a bound, so every level runs its chain and walks
    monkeypatch.setattr(explore, "_KAPPA_BAR", kappa_bar)
    walked = adapt(make_model(ModelSpec("banana")), 8, 3, rng=np.random.default_rng(2))
    kernel_betas, walks = [], []
    real_call = explore.ExplorationKernel.__call__

    def kernel_call(kernel, x, v, rng):
        kernel_betas.append(kernel.beta)
        return real_call(kernel, x, v, rng)

    def two_step(series):
        # a level's walk follows the calls of its chain's kernel
        walks.append((kernel_betas[-1], steps_from_autocorrelation(
            autocorrelation(series, explore._MAX_EXPLORE_STEPS), kappa_bar)))
        return walks[-1][1]

    monkeypatch.setattr(explore.ExplorationKernel, "__call__", kernel_call)
    monkeypatch.setattr(explore, "_lag_walk", two_step)
    oracle = adapt(make_model(ModelSpec("banana")), 8, 3, rng=np.random.default_rng(2))
    assert walked.schedule.to_dict() == oracle.schedule.to_dict()
    betas = walked.schedule.betas.tolist()
    steps = walked.schedule.explore_steps
    assert [betas.index(beta) for beta, _ in walks] == list(range(1, len(betas)))
    for beta, count in walks:
        assert steps[betas.index(beta) - 1] == count
    assert (max(steps) > 1) == (kappa_bar < 0.5)


@pytest.mark.parametrize("args, message", [
    ((8, 6, "bogus"), "affinity_mode must be 'mean' or 'median'"),
    ((2.7, 2), "n_levels_initial must be a whole number >= 1, got 2.7"),
    ((0, 2), "n_levels_initial must be a whole number >= 1, got 0"),
    ((8, 2.5), "max_rounds must be a whole number >= 1, got 2.5"),
    ((8, math.inf), "max_rounds must be a whole number >= 1, got inf"),
    ((8, 0), "max_rounds must be a whole number >= 1, got 0"),
], ids=["affinity_mode", "n_levels_initial-fraction", "n_levels_initial-zero",
        "max_rounds-fraction", "max_rounds-inf", "max_rounds-zero"])
def test_adapt_checks_its_arguments_before_any_pass(args, message):
    model = ToyGaussian()
    with pytest.raises(ValueError, match=message):
        adapt(model, *args, rng=np.random.default_rng(3))
    assert model.v_evals.value == 0


@pytest.mark.parametrize("call, message", [
    (lambda: run_nrpt(ToyGaussian(), uniform_schedule(2), 0, np.random.default_rng(0)),
     "n_scan must be >= 1"),
    (lambda: stepping_stone_logz(np.zeros((3, 4)), [0.0, 1.0]),
     "dataset and grid sizes disagree"),
    (lambda: BarrierEstimate([0.0, 0.5, 1.0], [0.0, 1.0]),
     "knots must be matching 1-d arrays with >= 2 points"),
    (lambda: BarrierEstimate([0.0, 0.5, 0.5], [0.0, 1.0, 2.0]),
     "knot abscissae must be strictly increasing"),
    (lambda: BarrierEstimate([0.0, 0.5, 1.0], [0.0, 2.0, 1.0]),
     "knot ordinates must be non-decreasing"),
    (lambda: BarrierEstimate([0.0, 1.0], [0.5, 1.0]), "barrier must start at 0"),
    (lambda: build_barrier([0.1, 0.2], [0.0, 1.0]),
     "need one rejection estimate per grid interval"),
    (lambda: optimize_grid(BarrierEstimate([0.0, 1.0], [0.0, 1.0]), 0),
     "n_levels must be >= 1"),
    (lambda: n_star(0.0), "lambda_total must be > 0"),
    (lambda: optimal_grid_size(1.0, 0.5), "gamma must be >= 1"),
], ids=["run_nrpt-n_scan", "stepping_stone-sizes", "barrier-shape", "barrier-abscissae",
        "barrier-ordinates", "barrier-start", "build_barrier-sizes", "optimize_grid-levels",
        "n_star-lambda", "optimal_grid_size-gamma"])
def test_adapt_helpers_check_their_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
