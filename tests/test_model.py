import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrst.model import (
    DivergedPotentialError,
    Schedule,
    TemperedModel,
    acceptance_probability,
    log_tempered_density,
)
from nrst.bench_models import ToyGaussian
from oracles import pseudo_prior, uniform_schedule

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


class ConstantModel(ToyGaussian):
    """Toy model whose potential is overridden for error-path tests."""

    def __init__(self, value):
        super().__init__(dim=2)
        self.value = value

    def _potential(self, x):
        return self.value


def test_acceptance_probability_examples():
    assert acceptance_probability(2.0, 0.5, 1.0, 0.0, 0.0) == pytest.approx(math.exp(-1), abs=1e-12)
    assert acceptance_probability(-3.0, 0.0, 0.5, 0.0, 0.0) == 1.0
    assert acceptance_probability(2.0, 0.5, 1.0, 0.0, 1.0) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_acceptance_probability_rejects_nonfinite(bad):
    if bad == math.inf:
        # V = +inf is a zero-density point: sure rejection up, sure acceptance down
        assert acceptance_probability(bad, 0.0, 1.0, 0.0, 0.0) == 0.0
        assert acceptance_probability(bad, 1.0, 0.0, 0.0, 0.0) == 1.0
    else:
        with pytest.raises(ValueError):
            acceptance_probability(bad, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        acceptance_probability(1.0, bad, 1.0, 0.0, 0.0)


def test_acceptance_probability_takes_a_column_of_betas_per_row():
    rng = np.random.default_rng(9)
    v = rng.normal(3.0, 4.0, (6, 11))
    v[0, :4] = math.inf
    b = np.sort(rng.uniform(0.0, 1.0, (7, 1)), axis=0)
    c = rng.normal(0.0, 2.0, (7, 1))
    for lo, hi in ((slice(None, -1), slice(1, None)), (slice(1, None), slice(None, -1))):
        block = acceptance_probability(v, b[lo], b[hi], c[lo], c[hi])
        rows = [acceptance_probability(v[i], b[lo][i, 0], b[hi][i, 0], c[lo][i, 0], c[hi][i, 0])
                for i in range(6)]
        np.testing.assert_array_equal(block, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_beta_in_an_array_fails_as_a_scalar_one_does(bad):
    with pytest.raises(ValueError, match="^acceptance_probability requires finite betas"):
        acceptance_probability(1.0, bad, 1.0, 0.0, 0.0)
    column = np.array([[0.0], [bad], [0.5]])
    for betas in ((column, np.ones((3, 1))), (np.zeros((3, 1)), column)):
        with pytest.raises(ValueError, match="^acceptance_probability requires finite betas"):
            acceptance_probability(np.ones((3, 4)), *betas, 0.0, 0.0)


@given(v=finite, a=finite, b=finite, ca=finite, cb=finite)
@settings(max_examples=200)
def test_acceptance_detailed_balance_factorization(v, a, b, ca, cb):
    fwd = acceptance_probability(v, a, b, ca, cb)
    bwd = acceptance_probability(v, b, a, cb, ca)
    expected = math.exp(-abs((b - a) * v - (cb - ca)))
    assert fwd * bwd == pytest.approx(expected, abs=1e-12)


@given(v1=finite, v2=finite)
@settings(max_examples=100)
def test_acceptance_monotone_in_v(v1, v2):
    lo, hi = sorted((v1, v2))
    up_lo = acceptance_probability(lo, 0.2, 0.7, 0.1, 0.4)
    up_hi = acceptance_probability(hi, 0.2, 0.7, 0.1, 0.4)
    assert up_hi <= up_lo
    dn_lo = acceptance_probability(lo, 0.7, 0.2, 0.4, 0.1)
    dn_hi = acceptance_probability(hi, 0.7, 0.2, 0.4, 0.1)
    assert dn_hi >= dn_lo


def test_log_tempered_density_endpoints():
    model = ToyGaussian(dim=3, m=2.0, sigma0=2.0)
    x = np.zeros(3)
    before = model.v_evals.value
    assert log_tempered_density(model, x, 0.0) == pytest.approx(model.log_reference(x))
    assert model.v_evals.value == before  # beta = 0 must not evaluate V
    full = log_tempered_density(model, x, 1.0)
    assert full == pytest.approx(model.log_reference(x) - model.potential(x))


def test_log_tempered_density_analytic_toy_gaussian():
    model = ToyGaussian(dim=3, m=2.0, sigma0=2.0)
    x = np.zeros(3)
    logref = -1.5 * math.log(2 * math.pi * 4.0)
    v = 0.5 * 3 * 4.0 + 1.5 * math.log(2 * math.pi)
    assert log_tempered_density(model, x, 1.0) == pytest.approx(logref - v, abs=1e-12)


def test_log_tempered_density_error_paths():
    with pytest.raises(DivergedPotentialError):
        log_tempered_density(ConstantModel(math.nan), np.zeros(2), 0.5)
    with pytest.raises(DivergedPotentialError):
        log_tempered_density(ConstantModel(-math.inf), np.zeros(2), 0.5)
    # +inf marks a zero-density point, not a failure
    assert log_tempered_density(ConstantModel(math.inf), np.zeros(2), 0.5) == -math.inf
    with pytest.raises(ValueError):
        log_tempered_density(ConstantModel(1.0), np.zeros(2), 1.5)


def test_v_eval_counter_counts_every_call():
    model = ToyGaussian()
    before = model.v_evals.value
    x = np.zeros(3)
    for _ in range(7):
        model.potential(x)
    assert model.v_evals.value - before == 7


def test_pseudo_prior_examples():
    np.testing.assert_allclose(
        pseudo_prior([0.0, -2.0, -5.0], [0.0, 2.0, 5.0]), np.full(3, 1 / 3), atol=1e-12
    )
    np.testing.assert_allclose(
        pseudo_prior([0.0, 0.0], [0.0, math.log(3)]), [0.25, 0.75], atol=1e-12
    )
    np.testing.assert_allclose(pseudo_prior([1.7], [0.3]), [1.0], atol=1e-15)


@given(
    st.lists(st.floats(min_value=-200, max_value=200), min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=100)
def test_pseudo_prior_normalized_and_permutation_equivariant(log_z, data):
    aff = data.draw(
        st.lists(
            st.floats(min_value=-200, max_value=200),
            min_size=len(log_z),
            max_size=len(log_z),
        )
    )
    p = pseudo_prior(log_z, aff)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    perm = np.random.default_rng(0).permutation(len(log_z))
    p_perm = pseudo_prior(np.asarray(log_z)[perm], np.asarray(aff)[perm])
    np.testing.assert_allclose(p_perm, p[perm], atol=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(np.array([0.0, 0.5, 0.9]), np.zeros(3), np.ones(2))  # no endpoint 1
    with pytest.raises(ValueError):
        Schedule(np.array([0.0, 0.5, 0.4, 1.0]), np.zeros(4), np.ones(3))
    with pytest.raises(ValueError):
        Schedule(np.array([0.0, 1.0]), np.array([0.5, 0.0]), np.ones(1))  # anchor
    with pytest.raises(ValueError):
        Schedule(np.array([0.0, 1.0]), np.zeros(2), np.zeros(1))  # explore >= 1
    with pytest.raises(ValueError, match="betas must be finite"):
        Schedule(np.array([0.0, math.nan, 1.0]), np.zeros(3), np.ones(2))
    with pytest.raises(ValueError, match="betas must be finite"):
        Schedule(np.array([0.0, math.inf, 1.0]), np.zeros(3), np.ones(2))
    for steps in ([1.7, 2.9], [2.5, 1.0], [math.nan, 1.0], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="explore_steps must be whole numbers"):
            Schedule(np.linspace(0.0, 1.0, 3), np.zeros(3), steps)
    whole = Schedule(np.linspace(0.0, 1.0, 3), np.zeros(3), [2.0, 3.0])
    assert whole.explore_steps.tolist() == [2, 3]
    sched = uniform_schedule(4)
    assert sched.n_levels == 4
    round_trip = Schedule.from_dict(sched.to_dict())
    np.testing.assert_array_equal(round_trip.betas, sched.betas)


def test_schedule_round_trips_widths():
    sched = uniform_schedule(3)
    assert sched.widths is None and "widths" not in sched.to_dict()
    widths = np.array([[3.5, 0.25], [2.0, 1e-3], [0.75, 10.0]])
    with_widths = Schedule(sched.betas, sched.affinities, sched.explore_steps, widths)
    d = with_widths.to_dict()
    assert d["widths"] == widths.tolist()
    round_trip = Schedule.from_dict(json.loads(json.dumps(d)))
    np.testing.assert_array_equal(round_trip.widths, widths)
    assert Schedule.from_dict(sched.to_dict()).widths is None


@pytest.mark.parametrize("key, value", [
    ("betas", [0, True]),
    ("affinities", [0, False]),
    ("explore_steps", [True]),
    ("widths", [[True, 1, 1]]),
])
def test_schedule_from_dict_refuses_booleans_naming_the_key(key, value):
    # numpy reads true as 1 and false as 0, so each built a schedule
    d = {"betas": [0, 1], "affinities": [0, 0.5], "explore_steps": [1], "widths": [[1, 1, 1]],
         key: value}
    with pytest.raises(ValueError, match=f"^{key} must be numbers, not true or false$"):
        Schedule.from_dict(d)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_schedule_rejects_bad_widths_naming_the_level(bad):
    sched = uniform_schedule(3)
    widths = np.ones((3, 2))
    widths[1, 0] = bad
    with pytest.raises(ValueError, match="level 2"):
        Schedule(sched.betas, sched.affinities, sched.explore_steps, widths)


def test_schedule_rejects_widths_with_wrong_rows():
    sched = uniform_schedule(3)
    for widths in (np.ones((2, 2)), np.ones((4, 2)), np.ones(3), [[1.0, 1.0], [1.0], [1.0, 1.0]]):
        with pytest.raises(ValueError, match="one row per level 1..3"):
            Schedule(sched.betas, sched.affinities, sched.explore_steps, widths)


@pytest.mark.parametrize("call, error, message", [
    (lambda: TemperedModel(0), ValueError, "dim must be a positive integer, got 0"),
    (lambda: TemperedModel(1).sample_reference(np.random.default_rng(0)),
     NotImplementedError, None),
    (lambda: TemperedModel(1).log_reference(np.zeros(1)), NotImplementedError, None),
    (lambda: TemperedModel(1).potential(np.zeros(1)), NotImplementedError, None),
    (lambda: Schedule([[0.0, 1.0]], [[0.0, 0.0]], [1]), ValueError,
     "betas must be a 1-d grid with at least 2 points"),
    (lambda: Schedule([0.0, 1.0], [0.0, 0.0, 0.0], [1]), ValueError,
     "affinities must have the same length as betas"),
    (lambda: Schedule([0.0, 1.0], [0.0, math.inf], [1]), ValueError,
     "affinities must be finite"),
    (lambda: Schedule([0.0, 1.0], [0.0, 0.0], [1, 1]), ValueError,
     "explore_steps must have one entry per level 1..N"),
], ids=["dim", "sample_reference", "log_reference", "potential", "betas-shape",
        "affinities-shape", "affinities-finite", "explore_steps-shape"])
def test_model_and_schedule_check_their_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_diverged_potential_error_pickles_with_what_callers_attach():
    err = DivergedPotentialError(np.array([1.0, 2.0]), -math.inf)
    err.tour_index = 7
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is DivergedPotentialError and str(back) == str(err)
    assert back.x.tolist() == [1.0, 2.0] and back.value == -math.inf
    assert back.tour_index == 7
