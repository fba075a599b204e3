import io
import math
import pickle
import time
from array import array

import numpy as np
import pytest

from nrst import runner
from nrst.bench_models import ModelSpec, ToyGaussian, analytic_gaussian_path, make_model
from nrst.explore import build_explorers
from nrst.model import Schedule, acceptance_probability
from nrst.planner import fit_cpu_model
from nrst.runner import CoordinateFunction, run_parallel
from nrst.st_kernels import (
    IdealIndexChain,
    TourOverrunError,
    TourTable,
    ideal_te,
    nrst_step,
    run_tour,
    simulate_index_tours,
    st_step,
    write_traces_csv,
)

from oracles import (
    CountingDraw,
    index_kernel,
    run_tour_exploring_regeneration,
    uniform_schedule,
    write_traces_csv_per_tour,
)


class ScriptedRng:
    """Generator proxy: ``random()`` returns the scripted uniforms first and
    then draws from ``rng``; every other call goes to ``rng``.

    The step kernels draw their direction and acceptance uniforms through
    ``random()``, so a script forces those decisions.
    """

    def __init__(self, rng, *uniforms):
        self.rng = rng
        self.script = list(uniforms)

    def random(self):
        return self.script.pop(0) if self.script else self.rng.random()

    def __getattr__(self, name):
        return getattr(self.rng, name)


def own_explorers(model, sched, rng):
    """Slice explorers that draw from ``rng`` whatever Generator they are
    handed, so their draws do not consume a script."""
    explorers = build_explorers(model, sched)
    return explorers[:1] + [lambda x, v, _, e=e: e(x, v, rng) for e in explorers[1:]]


@pytest.fixture
def toy():
    return ToyGaussian()


@pytest.fixture
def sched2():
    return uniform_schedule(2)


def exact_toy_schedule(n):
    """Uniform grid of n levels with the toy's exact mean-energy affinities."""
    betas = np.linspace(0, 1, n + 1)
    logz = np.array([analytic_gaussian_path(3, 2.0, 2.0, b)[2] for b in betas])
    return Schedule(betas, -(logz - logz[0]), np.ones(n, dtype=int))


def test_nrst_step_forced_rejection(toy, sched2):
    rng = np.random.default_rng(0)
    x = toy.sample_reference(rng)
    v = toy.potential(x)
    evals = toy.v_evals.value
    new_x, level, direction, new_v = nrst_step(x, 0, 1, v, sched2,
                                               build_explorers(toy, sched2),
                                               ScriptedRng(rng, 0.999999))
    assert (level, direction) == (0, -1)
    # the move enters the regeneration set: no kernel runs, the state is kept
    assert new_x is x and new_v == v and toy.v_evals.value == evals


def test_nrst_step_bounce_above_no_draw(toy):
    sched = uniform_schedule(1)
    rng = np.random.default_rng(1)
    x = toy.sample_reference(rng)

    def no_draw():
        raise AssertionError("boundary bounce must not consume an acceptance draw")

    stub = ScriptedRng(rng)
    stub.random = no_draw
    _, level, direction, _ = nrst_step(x, 1, 1, toy.potential(x), sched,
                                       own_explorers(toy, sched, rng), stub)
    assert (level, direction) == (1, -1)


def test_nrst_step_interior_acceptance_frequency(toy, sched2):
    """Empirical acceptance of the move 0 -> 1 matches the closed form."""
    rng = np.random.default_rng(3)
    n = 100_000
    x = toy.sample_reference(rng)
    v = toy.potential(x)
    prob = acceptance_probability(
        v, sched2.betas[0], sched2.betas[1], 0.0, 0.0
    )
    explorers = build_explorers(toy, sched2)
    accepted = 0
    for _ in range(n):
        _, level, _, _ = nrst_step(x, 0, 1, v, sched2, explorers, rng)
        accepted += level == 1
    freq = accepted / n
    assert abs(freq - prob) <= 3.0 * math.sqrt(prob * (1 - prob) / n)


def test_st_step_boundary_rejection(toy, sched2):
    rng = np.random.default_rng(4)
    x = toy.sample_reference(rng)
    _, level, direction, _ = st_step(x, 0, 1, toy.potential(x), sched2,
                                     build_explorers(toy, sched2), ScriptedRng(rng, 0.9))
    assert level == 0 and direction == -1


def test_st_step_absorbing_when_all_rejected(toy):
    # u = 1.0 forces rejection even of sure-accept (downhill) moves
    sched = uniform_schedule(1)
    rng = np.random.default_rng(5)
    x, level, direction = toy.sample_reference(rng), 1, 1
    explorers = own_explorers(toy, sched, rng)
    v = toy.potential(x)
    for _ in range(20):
        # a random direction, then u = 1.0 if the proposal is in range
        x, level, direction, v = st_step(
            x, level, direction, v, sched, explorers, ScriptedRng(rng, rng.random(), 1.0)
        )
        assert level == 1


def test_a_step_that_regenerates_skips_level_zeros_kernel(toy, sched2):
    x0 = np.zeros(3)
    v0 = toy.potential(x0)
    explorers = build_explorers(toy, sched2)
    explorers[0] = draw = CountingDraw(np.full(3, 7.0), 7.0)
    rng = np.random.default_rng(0)
    # rejected up from level 0: the step regenerates and keeps its state
    x, level, e, v = nrst_step(x0, 0, 1, v0, sched2, explorers, ScriptedRng(rng, 0.999999))
    assert (level, e, v, draw.calls) == (0, -1, v0, 0) and x is x0
    # down from level 1 (u = 0.9 picks -1) and accepted: regenerates too
    x, level, _, v = st_step(x0, 1, 1, v0, sched2, explorers, ScriptedRng(rng, 0.9, 0.0))
    assert (level, v, draw.calls) == (0, v0, 0) and x is x0
    # a step that lands at level 1 leaves the stub alone
    _, level, _, _ = nrst_step(x0, 0, 1, v0, sched2, explorers, ScriptedRng(rng, 0.0))
    assert (level, draw.calls) == (1, 0)
    # a non-reversible bounce off the bottom lands at (0, +1), outside the
    # regeneration set, and explores with level 0's kernel
    x, level, e, v = nrst_step(x0, 0, -1, v0, sched2, explorers, rng)
    assert (level, e, v, draw.calls) == (0, 1, 7.0, 1) and x is draw.state[0]


def test_run_tour_draws_from_level_zeros_kernel_once(toy, sched2):
    explorers = build_explorers(toy, sched2)
    explorers[0] = draw = CountingDraw(np.full(3, 2.0), 1.25)
    # rejected up from level 0: the start state comes from the stub, and the
    # one step keeps it
    trace = run_tour(toy, sched2, "nrst", 10, ScriptedRng(np.random.default_rng(1), 0.999999),
                     explorers)
    assert draw.calls == 1
    assert list(trace.levels) == [0, 0] and list(trace.v) == [1.25, 1.25]
    assert list(trace.v_evals) == [0]  # the stub spends none


@pytest.mark.parametrize("variant", ["nrst", "st"])
@pytest.mark.parametrize("name", ["toy_gaussian", "threshold_weibull"])
def test_run_tour_matches_the_tour_that_explores_at_regeneration(variant, name):
    # 95% of threshold_weibull's reference draws have V = +inf, so on a
    # uniform grid most of its tours are one rejected move up from level 0.
    model = make_model(ModelSpec(name))
    sched = exact_toy_schedule(4) if name == "toy_gaussian" else uniform_schedule(4)
    explorers = build_explorers(model, sched)
    h_funcs = (CoordinateFunction(0),)
    steps, first_vs = [], []
    for index in range(200):
        new, old = (tour(model, sched, variant, 10**4, np.random.default_rng([5, index]),
                         explorers, h_funcs=h_funcs)
                    for tour in (run_tour, run_tour_exploring_regeneration))
        for column in ("levels", "directions", "starts", "visits_top", "h_top_sums"):
            assert getattr(new, column) == getattr(old, column)
        assert new.v[:-1] == old.v[:-1]
        assert new.v_evals[0] == old.v_evals[0] - 1
        steps.append(new.n_steps)
        first_vs.append(new.v[0])
    if name == "toy_gaussian":
        assert max(steps) > 1
    else:
        assert first_vs.count(math.inf) > 150 and set(steps) == {1}


@pytest.mark.parametrize("variant", ["nrst", "st"])
def test_run_parallel_matches_the_run_that_explores_at_regeneration(monkeypatch, variant):
    # On the toy, unlike on threshold_weibull, 52 tours reach the top level,
    # which the estimates need.
    model, sched = ToyGaussian(), exact_toy_schedule(4)
    report = run_parallel(model, sched, variant, 0.95, 1.0, 0.3, 1, 5)
    monkeypatch.setattr(runner, "run_tour", run_tour_exploring_regeneration)
    ref = run_parallel(model, sched, variant, 0.95, 1.0, 0.3, 1, 5)
    assert (report.k, report.te_hat) == (ref.k, ref.te_hat)
    np.testing.assert_equal(report.estimates, ref.estimates)
    assert (report.serial_cost, report.parallel_cost) == (ref.serial_cost - ref.k,
                                                          ref.parallel_cost - 1)


def test_run_tour_minimal(toy, sched2):
    rng = np.random.default_rng(6)
    trace = run_tour(toy, sched2, "nrst", 100, ScriptedRng(rng, 0.999999),
                     build_explorers(toy, sched2))
    trace.validate()
    assert len(trace) == 1 and list(trace.starts) == [0]
    assert trace.n_steps == 1
    assert list(trace.visits_top) == [0]
    assert len(trace.levels) == 2


def test_run_tour_full_sweep_hand_executed(toy):
    sched = uniform_schedule(1)
    rng = np.random.default_rng(7)
    trace = run_tour(
        toy, sched, "nrst", 100, ScriptedRng(rng, 0.0, 0.0),
        explorers=own_explorers(toy, sched, rng),
    )
    trace.validate()
    assert list(trace.levels) == [0, 1, 1, 0]
    assert list(trace.directions) == [1, 1, -1, -1]
    assert trace.n_steps == 3
    assert list(trace.visits_top) == [2]


def test_run_tour_rejection_at_zero_is_not_overrun(toy, sched2):
    # upward rejections at level 0 land in the regeneration set immediately
    rng = np.random.default_rng(8)
    trace = run_tour(toy, sched2, "nrst", 5, ScriptedRng(rng, *([0.999999] * 5)),
                     build_explorers(toy, sched2))
    trace.validate()
    assert trace.n_steps == 1


def test_run_tour_overrun_carries_partial_trace(toy):
    # force the reversible chain to climb once and then propose out of range
    # forever: it never returns to level 0 within max_steps
    sched = uniform_schedule(1)
    rng = np.random.default_rng(9)
    with pytest.raises(TourOverrunError) as err:
        # direction up and accept, then up (off the grid: no acceptance draw) twice
        run_tour(toy, sched, "st", 3, ScriptedRng(rng, 0.1, 0.0, 0.1, 0.1),
                 explorers=own_explorers(toy, sched, rng))
    trace = err.value.trace
    assert len(trace) == 1
    assert trace.n_steps == 3
    # the start state and one state per step, in every column
    assert len(trace.levels) == len(trace.directions) == len(trace.v) == 3 + 1


def test_trace_pickle_round_trip_keeps_every_column(toy):
    sched, h_funcs = exact_toy_schedule(4), (CoordinateFunction(0), CoordinateFunction(1))
    explorers = build_explorers(toy, sched)
    tours = (run_tour(toy, sched, "nrst", 10**4, np.random.default_rng([3, i]), explorers,
                      h_funcs=h_funcs)
             for i in range(100))
    trace = next(t for t in tours if t.visits_top[0] > 0)
    back = pickle.loads(pickle.dumps(trace))
    assert (back.levels, back.directions, back.v) == (trace.levels, trace.directions, trace.v)
    assert back.h_top_sums == trace.h_top_sums and len(back.h_top_sums) == 2
    assert (back.v_evals, back.cpu_seconds) == (trace.v_evals, trace.cpu_seconds)
    assert (back.starts, back.visits_top) == (trace.starts, trace.visits_top)
    assert (back.variant, back.n_h) == (trace.variant, 2)


def test_pickled_trace_grows_by_at_most_16_bytes_per_state(toy):
    # Traces cross the process boundary pickled: one int, one byte and one
    # double per state is 13 bytes, where an object per state costs ~30.
    # At this schedule's width of 1.0 most tours end within a few steps and
    # about 1 in 20 runs 41 or more, so tours run until one has 40 more
    # states than a 1-step tour.
    sched = exact_toy_schedule(4)
    explorers = build_explorers(toy, sched)
    tours = (run_tour(toy, sched, "nrst", 10**4, np.random.default_rng([3, i]), explorers)
             for i in range(1000))
    short = next(t for t in tours if t.n_steps == 1)
    long = next(t for t in tours if t.n_steps >= 41)
    extra = long.n_steps - short.n_steps
    assert extra >= 40
    growth = len(pickle.dumps(long)) - len(pickle.dumps(short))
    assert growth <= 16 * extra


def test_trace_serialization(toy, sched2, tmp_path):
    rng = np.random.default_rng(10)
    explorers = build_explorers(toy, sched2)
    table = TourTable("nrst", 0)
    for i in range(3):
        table.extend(run_tour(toy, sched2, "nrst", 10**4, np.random.default_rng([3, i]),
                              explorers))
    path = tmp_path / "traces.csv"
    with open(path, "w") as f:
        write_traces_csv(table, f)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tour_id,step,level,direction,v"
    assert len(lines) == 1 + len(table.levels) == 1 + table.n_steps + 3
    assert [int(line.split(",")[0]) for line in lines[1:]] == [
        j for j, steps in enumerate(table.tour_steps()) for _ in range(steps + 1)]


@pytest.mark.parametrize("n_h", [0, 2])
@pytest.mark.parametrize("variant", ["nrst", "st"])
def test_traces_csv_from_the_columns_matches_the_per_tour_writer(toy, sched2, variant, n_h):
    explorers = build_explorers(toy, sched2)
    h_funcs = (CoordinateFunction(0), CoordinateFunction(2))[:n_h]
    table = TourTable(variant, n_h)
    for i in range(40):
        table.extend(run_tour(toy, sched2, variant, 10**4, np.random.default_rng([4, i]),
                              explorers, h_funcs=h_funcs))
    assert 1 in table.tour_steps() and len(table.h_top_sums) == 40 * n_h
    for tours in (table, TourTable(variant, n_h)):
        ours, reference = io.StringIO(), io.StringIO()
        write_traces_csv(tours, ours)
        write_traces_csv_per_tour(tours, reference)
        assert ours.getvalue() == reference.getvalue()


def test_validate_checks_every_tour_of_a_table(toy, sched2):
    explorers = build_explorers(toy, sched2)
    table = TourTable("nrst", 0)
    for i in range(3):
        table.extend(run_tour(toy, sched2, "nrst", 10**4, np.random.default_rng([3, i]),
                              explorers))
    table.validate()
    table.directions[table.starts[2] - 1] = 1  # the middle tour now ends at (0, +1)
    with pytest.raises(AssertionError, match="must end at the regeneration state"):
        table.validate()


class SleepyModel(ToyGaussian):
    """Each V-eval sleeps: the tour's wall time is mostly spent off the CPU."""

    def _potential(self, x):
        time.sleep(0.002)
        return super()._potential(x)


def test_tour_cpu_seconds_is_cpu_time_not_wall_time():
    # forced accepts: up to level 1, bounce, down to level 0 -- two sweeps
    t0 = time.perf_counter()
    model, sched, rng = SleepyModel(), uniform_schedule(1), np.random.default_rng(4)
    trace = run_tour(model, sched, "nrst", 10, ScriptedRng(rng, 0.0, 0.0),
                     explorers=own_explorers(model, sched, rng))
    wall = time.perf_counter() - t0
    assert trace.n_steps == 3 and wall >= 0.002 * trace.v_evals[0] >= 0.01
    assert 0.0 < trace.cpu_seconds[0] < 0.5 * wall


def test_every_tour_of_a_short_run_has_positive_cpu_seconds(toy):
    # most reversible tours here are a single step, yet each reads a
    # measurable thread CPU time
    report = run_parallel(toy, exact_toy_schedule(4), "st", 0.95, 0.5, 0.5, 1, 5)
    times = [t["cpu_seconds"] for t in report.tours]
    assert len(times) >= 10 and min(times) > 0.0
    fit_cpu_model(times)


class PointModel(ToyGaussian):
    """Degenerate one-point state space: the kernels reduce to the index chain."""

    def __init__(self, v=1.7):
        super().__init__(dim=1)
        self.v = v

    def sample_reference(self, rng):
        return np.zeros(1)

    def _potential(self, x):
        return self.v


def test_step_kernels_match_ideal_index_chain():
    """On a one-point state space the step kernels ARE the index chain.

    Builds the empirical transition matrix of nrst_step by sweeping the
    acceptance uniform over a deterministic grid (the only randomness left)
    and compares row by row with the ideal-chain matrix; exact stationarity
    of that matrix is checked separately at 1e-12.
    """
    n = 3
    betas = np.linspace(0, 1, n + 1)
    v = 1.7
    sched = Schedule(betas, betas * v, np.ones(n, dtype=int))
    model = PointModel(v)
    rho = np.array([
        1.0 - acceptance_probability(v, betas[i], betas[i + 1],
                                     sched.affinities[i], sched.affinities[i + 1])
        for i in range(n)
    ])
    ideal = index_kernel(IdealIndexChain.symmetric(rho), "nrst")

    grid = (np.arange(2000) + 0.5) / 2000
    size = 2 * (n + 1)
    empirical = np.zeros((size, size))
    explorers = build_explorers(model, sched)[:1] + [lambda x, v, r: (x, v)] * n
    rng = np.random.default_rng(11)
    for i in range(n + 1):
        for di, d in enumerate((1, -1)):
            for u in grid:
                _, level, direction, _ = nrst_step(np.zeros(1), i, d, v, sched, explorers,
                                                   ScriptedRng(rng, u))
                empirical[2 * i + di, 2 * level + (0 if direction > 0 else 1)] += 1
    empirical /= grid.size
    np.testing.assert_allclose(empirical, ideal, atol=1e-3)

    # uniform affinities of the exact level law keep the level marginal of
    # st_step invariant (the direction field is proposal bookkeeping)
    level_counts = np.zeros(n + 1)
    rng = np.random.default_rng(12)
    trials = 4000
    for i in range(n + 1):
        for u in (np.arange(50) + 0.5) / 50:
            for ud in (0.25, 0.75):
                _, level, _, _ = st_step(np.zeros(1), i, +1, v, sched, explorers,
                                         ScriptedRng(rng, ud, u))
                level_counts[level] += 1
    level_counts /= level_counts.sum()
    np.testing.assert_allclose(level_counts, np.full(n + 1, 1 / (n + 1)), atol=0.02)


def test_ideal_te_examples():
    assert ideal_te(IdealIndexChain.symmetric([0.0]), "nrst") == 1.0
    chain = IdealIndexChain.symmetric([0.5])
    assert ideal_te(chain, "nrst") == pytest.approx(1 / 3)
    assert ideal_te(chain, "st") == pytest.approx(1 / 7)
    chain6 = IdealIndexChain.symmetric([0.2] * 6)
    assert ideal_te(chain6, "nrst") == pytest.approx(0.25)
    assert ideal_te(chain6, "st") == pytest.approx(1 / 29)


def test_ideal_te_rejects_unit_rejection():
    with pytest.raises(ValueError):
        IdealIndexChain.symmetric([1.0])


def test_te_domination_random_chains():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        chain = IdealIndexChain.symmetric(rng.uniform(0.0, 0.95, n))
        assert ideal_te(chain, "nrst") > ideal_te(chain, "st")


def test_index_kernel_zero_rejection_cycle():
    chain = IdealIndexChain.symmetric([0.0])
    kernel = index_kernel(chain, "nrst")
    # deterministic cycle (0,+) -> (1,+) -> (1,-) -> (0,-) -> (0,+)
    expect = np.zeros((4, 4))
    expect[0, 2] = 1  # (0,+) -> (1,+)
    expect[2, 3] = 1  # (1,+) -> (1,-)
    expect[3, 1] = 1  # (1,-) -> (0,-)
    expect[1, 0] = 1  # (0,-) -> (0,+)
    np.testing.assert_array_equal(kernel, expect)


def test_index_kernel_stationarity():
    rng = np.random.default_rng(13)
    for variant in ("nrst", "st"):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            chain = IdealIndexChain.symmetric(rng.uniform(0.0, 0.9, n))
            kernel = index_kernel(chain, variant)
            np.testing.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-12)
            uniform = np.full(2 * (n + 1), 1.0 / (2 * (n + 1)))
            np.testing.assert_allclose(uniform @ kernel, uniform, atol=1e-12)


def test_index_kernel_st_rows_mix_proposals():
    chain = IdealIndexChain.symmetric([0.3, 0.3])
    kernel = index_kernel(chain, "st")
    # both direction rows are identical and each proposal side carries mass 1/2
    for i in range(3):
        np.testing.assert_array_equal(kernel[2 * i], kernel[2 * i + 1])
        row = kernel[2 * i]
        plus_mass = row[0::2].sum()
        minus_mass = row[1::2].sum()
        assert plus_mass == pytest.approx(0.5)
        assert minus_mass == pytest.approx(0.5)


def test_simulate_zero_rejection_deterministic():
    chain = IdealIndexChain.symmetric([0.0] * 3)
    rng = np.random.default_rng(14)
    steps, visits = simulate_index_tours(chain, "nrst", 1000, rng)
    assert np.all(visits == 2)
    assert np.all(steps == 2 * 4 - 1)
    from nrst.stats import estimate_te

    assert estimate_te(visits) == 1.0


def test_simulate_index_tours_stream_is_pinned():
    # Hard-coded (steps, visits_top): a change to the order of the draws, or
    # to the step rule, changes these.  The count of odd-numbered top-level
    # visits, the third column here once, is (visits + 1) // 2.
    chain = IdealIndexChain.symmetric([0.3, 0.5])
    expected = {
        "nrst": ([7, 7, 1, 15, 3], [4, 4, 0, 12, 0], [2, 2, 0, 6, 0]),
        "st": ([2, 2, 1, 1, 2], [0] * 5, [0] * 5),
    }
    for variant, (steps, visits, odd_visits) in expected.items():
        got = simulate_index_tours(chain, variant, 5, np.random.default_rng(3))
        assert tuple(a.tolist() for a in got) == (steps, visits)
        assert ((got[1] + 1) // 2).tolist() == odd_visits


def test_simulate_raises_overrun_after_the_step_bound(monkeypatch):
    import nrst.st_kernels as st_kernels

    # With no rejections every tour on 2 levels takes 2 * 3 - 1 = 5 steps.
    monkeypatch.setattr(st_kernels, "_INDEX_MAX_STEPS", 3)
    with pytest.raises(TourOverrunError, match="within 3 steps"):
        simulate_index_tours(IdealIndexChain.symmetric([0.0, 0.0]), "nrst", 10,
                             np.random.default_rng(0))


def test_regeneration_predicate_on_ints_and_arrays():
    from nrst.st_kernels import _regenerates

    states = [(0, -1), (0, 1), (1, -1), (2, 1)]
    assert [_regenerates(i, e, False) for i, e in states] == [True, False, False, False]
    assert [_regenerates(i, e, True) for i, e in states] == [True, True, False, False]
    levels, directions = (np.array(col) for col in zip(*states))
    assert _regenerates(levels, directions, False).tolist() == [True, False, False, False]
    assert _regenerates(levels, directions, True).tolist() == [True, True, False, False]


def test_validate_checks_a_reversible_tour_against_the_same_set():
    def tour(levels, directions):
        return TourTable("st", 0, array("i", levels), array("b", directions),
                         array("d", [0.0] * len(levels)), array("q", [0]))

    tour([0, 1, 2, 1, 0], [1, 1, 1, -1, 1]).validate()  # any direction at level 0
    with pytest.raises(AssertionError, match="must end at the regeneration state"):
        tour([0, 1, 2, 1], [1, 1, 1, -1]).validate()
    with pytest.raises(AssertionError, match="regeneration state visited before the end"):
        tour([0, 1, 0, 1, 0], [1, 1, 1, 1, -1]).validate()


def test_simulate_matches_closed_form():
    from nrst.stats import estimate_te

    rng = np.random.default_rng(15)
    chain = IdealIndexChain.symmetric([0.5])
    steps, visits = simulate_index_tours(chain, "nrst", 10**6, rng)
    assert visits.mean() == pytest.approx(2.0, abs=3 * visits.std() / 1000)
    assert estimate_te(visits) == pytest.approx(1 / 3, abs=0.01)

    chain6 = IdealIndexChain.symmetric([0.2] * 6)
    steps, visits = simulate_index_tours(chain6, "st", 10**6, rng)
    assert estimate_te(visits) == pytest.approx(1 / 29, abs=0.005)


def test_ele_stubbed_tour_length(toy):
    """Perfect per-level samplers + exact affinities give mean length 2(N+1)."""
    n = 4
    sched = exact_toy_schedule(n)

    def exact_sampler(beta):
        mu, var, _ = analytic_gaussian_path(3, 2.0, 2.0, beta)

        def draw(x, v, rng):
            y = rng.normal(mu, math.sqrt(var), 3)
            return y, toy.potential(y)

        return draw

    explorers = build_explorers(toy, sched)[:1] + [exact_sampler(b) for b in sched.betas[1:]]
    rng = np.random.default_rng(16)
    n_tours = 20_000
    lengths = np.empty(n_tours)
    for k in range(n_tours):
        trace = run_tour(toy, sched, "nrst", 10**5, rng, explorers)
        lengths[k] = len(trace.levels)
    se = lengths.std() / math.sqrt(n_tours)
    assert abs(lengths.mean() - 2 * (n + 1)) <= 3 * se


@pytest.mark.parametrize("call, error, message", [
    (lambda: ideal_te(IdealIndexChain.symmetric([0.1]), "bogus"), ValueError,
     "variant must be one of"),
    (lambda: TourTable("nrst", 0, array("i", [1, 0]), array("b", [1, -1]),
                       array("d", [0.0, 0.0]), array("q", [0])).validate(),
     AssertionError, r"tour must start at \(level 0, direction \+1\)"),
    (lambda: run_tour(ToyGaussian(), uniform_schedule(2), "nrst", 0,
                      np.random.default_rng(0), []),
     ValueError, "max_steps must be >= 1"),
    (lambda: IdealIndexChain.symmetric([[0.1, 0.2]]), ValueError,
     "rho must be a 1-d array of length >= 1"),
    (lambda: simulate_index_tours(IdealIndexChain.symmetric([0.1]), "nrst", 0,
                                  np.random.default_rng(0)),
     ValueError, "n_tours must be >= 1"),
], ids=["variant", "validate-start", "run_tour-max_steps", "rho-shape", "n_tours"])
def test_st_kernels_check_their_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_tour_overrun_error_pickles_with_what_callers_attach():
    err = TourOverrunError(5, None)
    err.tour_index = 3
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is TourOverrunError and str(back) == str(err)
    assert back.max_steps == 5 and back.trace is None and back.tour_index == 3
