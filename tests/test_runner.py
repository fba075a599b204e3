import dataclasses
import io
import math
import multiprocessing
import os
import pickle
import re

import numpy as np
import pytest

from nrst import runner
from nrst.bench_models import ToyGaussian, analytic_gaussian_path
from nrst.explore import ExplorationKernel, SliceNumericalError, build_explorers
from nrst.model import DivergedPotentialError, Schedule
from nrst.planner import te_infinity
from nrst.runner import CoordinateFunction, pilot_then_run, run_parallel
from nrst.st_kernels import TourOverrunError, run_tour, write_traces_csv
from nrst.stats import NoTopVisitsError, min_tours


class DivergesFarOut(ToyGaussian):
    """V is NaN where x[0] > 4, which some tours reach."""

    def _potential(self, x):
        return math.nan if x[0] > 4.0 else super()._potential(x)


class DivergesAtReference(ToyGaussian):
    """V is ``value`` everywhere, so a tour meets it first at its reference
    draw, before any explorer runs."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def _potential(self, x):
        return self.value


class BrokenReference(ToyGaussian):
    """log_reference is -inf on part of the reference's support, so a slice
    sweep started from a reference draw there fails."""

    def log_reference(self, x):
        return -math.inf if x[0] > 3.0 else super().log_reference(x)


class KillsItsWorker(ToyGaussian):
    """V ends any process but the one that built the model, as a worker
    that dies (e.g. killed for its memory) would."""

    def __init__(self):
        super().__init__()
        self.parent = os.getpid()

    def _potential(self, x):
        if os.getpid() != self.parent:
            os._exit(3)
        return super()._potential(x)


def tuned_like_schedule(n=4):
    betas = np.linspace(0, 1, n + 1)
    logz = np.array([analytic_gaussian_path(3, 2.0, 2.0, b)[2] for b in betas])
    return Schedule(betas, -(logz - logz[0]), np.ones(n, dtype=int))


def traces_csv(report):
    buf = io.StringIO()
    write_traces_csv(report.traces, buf)
    return buf.getvalue()


def test_tour_count_matches_min_tours():
    model = ToyGaussian()
    report = run_parallel(model, tuned_like_schedule(), "nrst", 0.95, 0.5, 1.0,
                          1, 12345)
    assert report.k == 62 == min_tours(0.95, 0.5, 1.0)
    assert len(report.tours) == 62


def test_cost_identities_and_report_shape():
    model = ToyGaussian()
    report = run_parallel(model, tuned_like_schedule(), "nrst", 0.9, 1.0, 0.5,
                          1, 99)
    evals = [t["v_evals"] for t in report.tours]
    assert report.serial_cost == sum(evals)
    assert report.parallel_cost == max(evals)
    assert set(report.estimates) == {"h0"}
    d = report.to_dict()
    assert d["k"] == report.k and "traces" not in d
    # one summary per trace, in tour order
    assert d["tours"] == report.tours
    assert [t["tour"] for t in report.tours] == list(range(report.k))
    assert set(report.tours[0]) == {"tour", "n_steps", "visits_top", "v_evals", "cpu_seconds"}
    assert [t["n_steps"] for t in report.tours] == [t.n_steps for t in report.traces]


def test_determinism_across_worker_counts():
    model = ToyGaussian()
    sched = tuned_like_schedule()
    # te_hat 0.2 runs 55 tours.  About 1 tour in 5 reaches the top at this
    # schedule's width of 1.0, so the TE estimate has a top visit to come
    # from at all but ~5e-6 of seeds (0.8^11 = 9% of seeds miss it in the
    # 11 tours of te_hat 1).
    reports = [
        run_parallel(ToyGaussian(), sched, "nrst", 0.9, 1.0, 0.2, w, 777)
        for w in (1, 3)
    ]
    assert traces_csv(reports[0]) == traces_csv(reports[1])
    assert reports[0].te_hat == reports[1].te_hat
    assert reports[0].serial_cost == reports[1].serial_cost
    est = [r.estimates["h0"]["estimate"] for r in reports]
    assert est[0] == est[1]


def test_pilot_sizes_phase_one_from_barrier_limit():
    model = ToyGaussian()
    sched = tuned_like_schedule()
    report = pilot_then_run(model, sched, "nrst", 0.9, 1.0, 0.0, 1, 5)
    # lambda = 0 seeds TE = 1, so the pilot is min_tours(0.9, 1, 1) tours
    assert report.k_trial == min_tours(0.9, 1.0, 1.0)
    assert report.k >= report.k_trial
    # the realized TE is below 1, so extra tours were appended
    assert report.k == min_tours(0.9, 1.0, report_te(report))


def report_te(report):
    visits = np.array([t["visits_top"] for t in report.tours[: report.k_trial]])
    sq = float(np.sum(visits**2))
    return float(np.sum(visits)) ** 2 / (visits.size * sq)


def test_pilot_combined_run_equals_single_run():
    sched = tuned_like_schedule()
    pilot = pilot_then_run(ToyGaussian(), sched, "nrst", 0.9, 1.0, 0.5, 1, 31)
    flat = run_parallel(ToyGaussian(), sched, "nrst", 0.9, 1.0, 1.0, 1, 31)
    k = min(flat.k, pilot.k)
    assert k > 1
    for i in range(k):
        a, b = pilot.traces[i], flat.traces[i]
        assert (a.levels, a.directions, a.v) == (b.levels, b.directions, b.v)
        assert a.h_top_sums == b.h_top_sums
        assert a.v_evals == b.v_evals


def test_a_pilot_that_never_reaches_the_top_names_its_seed_and_tours():
    # the top affinity rejects every move up into level 2
    sched = Schedule(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, -1e6]), np.ones(2, dtype=int))
    k_trial = min_tours(0.9, 1.0, te_infinity(1.0))
    with pytest.raises(NoTopVisitsError) as err:
        pilot_then_run(ToyGaussian(), sched, "nrst", 0.9, 1.0, 1.0, 1, 77)
    assert str(err.value) == (f"pilot tours 0..{k_trial - 1} (seed 77) "
                              f"never reached the target level")


def test_a_run_that_never_reaches_the_top_names_its_seed_and_tours():
    # the run's tours, as the pilot's above; the message named neither
    sched = Schedule(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, -1e6]), np.ones(2, dtype=int))
    k = min_tours(0.9, 1.0, 1.0)
    with pytest.raises(NoTopVisitsError) as err:
        run_parallel(ToyGaussian(), sched, "nrst", 0.9, 1.0, 1.0, 1, 77)
    assert str(err.value) == f"tours 0..{k - 1} (seed 77) never reached the target level"


def test_posterior_mean_within_wide_interval():
    # one seeded run: the x1 ratio estimate should land near the analytic 1.6
    model = ToyGaussian()
    sched = tuned_like_schedule(6)
    report = pilot_then_run(model, sched, "nrst", 0.95, 0.5, 1.0, 1, 2718,
                            h_funcs=(CoordinateFunction(0),), h_names=["x1"])
    est = report.estimates["x1"]
    assert abs(est["estimate"] - 1.6) < 0.5
    lo, hi = est["ci"]
    assert lo < hi


def test_coordinate_function_picklable():
    f = CoordinateFunction(2)
    g = pickle.loads(pickle.dumps(f))
    assert g(np.array([1.0, 2.0, 3.0])) == 3.0


@pytest.mark.parametrize("model, max_steps, error", [
    (DivergesFarOut(), 10**6, DivergedPotentialError),
    (ToyGaussian(), 4, TourOverrunError),
    (BrokenReference(), 10**6, SliceNumericalError),
    (DivergesAtReference(math.nan), 10**6, DivergedPotentialError),
    (DivergesAtReference(-math.inf), 10**6, DivergedPotentialError),
], ids=["diverged", "overrun", "slice", "reference-nan", "reference-neginf"])
def test_failed_tour_names_its_index_and_seed_for_any_worker_count(model, max_steps, error,
                                                                   monkeypatch):
    # 62 tours, so 2 workers run chunks of 3 and a failure can come mid-chunk
    # (at seed 5 the first three models fail first at tour 2).
    sched = tuned_like_schedule()
    first = next(i for i in range(62) if fails(model, sched, max_steps, [5, i]))
    monkeypatch.setattr(runner, "_MAX_TOUR_STEPS", max_steps)
    named = []
    for workers in (1, 2):
        with pytest.raises(error) as info:
            run_parallel(model, sched, "nrst", 0.95, 0.5, 1.0, workers, 5)
        named.append((info.value.tour_index, info.value.seed))
    assert named == [(first, 5)] * 2


@pytest.mark.parametrize("first", [0, 40])
def test_a_dead_worker_names_the_seed_and_the_first_tour_that_did_not_come_back(first):
    sched = tuned_like_schedule()
    with pytest.raises(runner.WorkerDiedError,
                       match="a pool worker died; this tour and those after it did "
                             "not finish") as info:
        if first == 0:
            run_parallel(KillsItsWorker(), sched, "nrst", 0.95, 0.5, 1.0, 2, 5)
        else:  # a pilot's top-up runs the tours after the pilot's
            runner._run_tours(KillsItsWorker(), sched, "nrst", range(first, 2 * first), 2, 5,
                              (CoordinateFunction(0),))
    assert (info.value.seed, info.value.tour_index) == (5, first)
    assert multiprocessing.active_children() == []


def fails(model, sched, max_steps, key):
    try:
        run_tour(model, sched, "nrst", max_steps, np.random.default_rng(key),
                 build_explorers(model, sched))
    except (DivergedPotentialError, SliceNumericalError, TourOverrunError):
        return True
    return False


def columns(traces):
    """The fields of a TourTable but the CPU times, which differ from run to
    run."""
    return {f.name: getattr(traces, f.name) for f in dataclasses.fields(traces)
            if f.name != "cpu_seconds"}


def test_chunked_tours_match_their_streams_at_any_worker_count():
    # 62 tours: 2 workers run 20 chunks of 3 and one of 2.
    sched = tuned_like_schedule()
    h = (CoordinateFunction(0), CoordinateFunction(2))
    reports = [run_parallel(ToyGaussian(), sched, "st", 0.95, 0.5, 1.0, w, 41, h_funcs=h)
               for w in (1, 2)]
    table = reports[0].traces
    assert len(table) == 62 and table.n_h == 2
    assert columns(table) == columns(reports[1].traces)
    model = ToyGaussian()
    for i in (0, 2, 3, 59, 60, 61, -1):
        tour = run_tour(model, sched, "st", 10**6, np.random.default_rng([41, i % 62]),
                        build_explorers(model, sched), h_funcs=h)
        assert columns(table[i]) == columns(tour)
    assert [len(t.levels) for t in table] == (table.tour_steps() + 1).tolist()
    assert [t.n_steps for t in table] == table.tour_steps().tolist()
    assert sum(t.n_steps for t in table) == table.n_steps
    assert [t.visits_top[0] for t in table] == table.visits_top.tolist()
    with pytest.raises(IndexError):
        table[62]


def test_pilot_top_up_appends_after_the_pilot_tours():
    sched = tuned_like_schedule()
    report = pilot_then_run(ToyGaussian(), sched, "nrst", 0.95, 0.5, 0.0, 2, 17)
    k_trial = report.k_trial
    assert report.k > k_trial
    assert len(report.traces) == report.k
    model = ToyGaussian()
    for i in (k_trial - 1, k_trial, report.k - 1):
        tour = run_tour(model, sched, "nrst", 10**6, np.random.default_rng([17, i]),
                        build_explorers(model, sched), h_funcs=(CoordinateFunction(0),))
        assert columns(report.traces[i]) == columns(tour)


def test_traces_cost_a_few_bytes_per_state_and_tour():
    # 2,459 short ST tours of ~5.6 states.  The table pickles to 13 bytes per
    # state and 40 per tour (278 kB), where an object per tour would cost
    # about 190 bytes per tour.
    report = run_parallel(ToyGaussian(), tuned_like_schedule(), "st", 0.95, 0.25, 0.1, 1, 3)
    states = sum(t["n_steps"] + 1 for t in report.tours)
    assert report.k == 2459 and states > 5 * report.k
    assert len(pickle.dumps(report.traces)) <= 16 * states + 48 * report.k


def test_h_runs_only_at_top_level_states():
    calls = []

    def h(x):
        calls.append(1)
        return float(x[0])

    report = run_parallel(ToyGaussian(), tuned_like_schedule(), "nrst", 0.9, 1.0, 1.0, 1, 5,
                          h_funcs=(h,))
    visits_top = sum(t["visits_top"] for t in report.tours)
    assert visits_top > 0
    assert len(calls) == visits_top


def test_a_chunk_builds_its_explorers_once(monkeypatch):
    # One explorer per level for the whole chunk, not one set per tour.
    built = []
    init = ExplorationKernel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExplorationKernel, "__init__", counting_init)
    sched = tuned_like_schedule()
    report = run_parallel(ToyGaussian(), sched, "nrst", 0.95, 0.5, 1.0, 1, 5)
    assert report.k == 62
    assert len(built) == sched.n_levels


@pytest.mark.parametrize("entry", [pilot_then_run, run_parallel])
@pytest.mark.parametrize("workers", [0, -3])
def test_both_entry_points_reject_fewer_than_one_worker(entry, workers):
    model = ToyGaussian()
    with pytest.raises(ValueError, match="workers must be >= 1"):
        entry(model, tuned_like_schedule(), "nrst", 0.95, 0.5, 0.5, workers, 5)
    assert model.v_evals.value == 0


@pytest.mark.parametrize("entry", [pilot_then_run, run_parallel])
@pytest.mark.parametrize("n_h, h_names, message", [
    (2, ["x1"], "h_names holds 1 names for 2 h_funcs"),
    (1, ["x1", "x2"], "h_names holds 2 names for 1 h_funcs"),
    (2, ["x1", "x1"], "h_names repeats 'x1'"),
], ids=["fewer-names", "more-names", "repeated-name"])
def test_both_entry_points_check_h_names_before_any_tour(entry, n_h, h_names, message):
    # Unchecked, a missing name dropped an estimate, an extra one raised an
    # IndexError after the whole run, and a repeated one overwrote an estimate.
    model = ToyGaussian()
    h_funcs = tuple(CoordinateFunction(i) for i in range(n_h))
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(model, tuned_like_schedule(), "nrst", 0.95, 1.0, 0.3, 1, 5,
              h_funcs=h_funcs, h_names=h_names)
    assert model.v_evals.value == 0
