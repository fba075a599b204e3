import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate, stats as sps

from nrst import bench_models
from nrst.bench_models import (
    Banana,
    Funnel,
    Hierarchical,
    ModelSpec,
    MRnaTransfection,
    ToyGaussian,
    XYModel,
    analytic_gaussian_path,
    hierarchical_dataset,
    make_model,
    mrna_dataset,
    weibull_dataset,
)
from nrst.model import log_tempered_density


def test_toy_gaussian_potential_closed_form():
    model = ToyGaussian(dim=3, m=2.0, sigma0=2.0)
    x = np.array([0.5, -1.0, 2.0])
    expected = 0.5 * float(np.sum((x - 2.0) ** 2)) + 1.5 * math.log(2 * math.pi)
    assert model.potential(x) == pytest.approx(expected, abs=1e-12)


def test_analytic_path_endpoints_and_closed_form():
    mu0, var0, logz0 = analytic_gaussian_path(3, 2.0, 2.0, 0.0)
    assert (mu0, var0, logz0) == (0.0, 4.0, pytest.approx(0.0, abs=1e-12))
    mu1, var1, logz1 = analytic_gaussian_path(3, 2.0, 2.0, 1.0)
    assert var1 == pytest.approx(0.8)
    assert mu1 == pytest.approx(1.6)

    # log Z agrees with the complete-the-square form written through var(beta)
    def closed_form(d, m, s0, beta):
        var = 1.0 / (beta + 1.0 / s0**2)
        per_dim = (-0.5 * beta * math.log(2 * math.pi)
                   + 0.5 * math.log(var / s0**2)
                   + 0.5 * beta**2 * m**2 * var
                   - 0.5 * beta * m**2)
        return d * per_dim

    for beta in (0.1, 0.35, 0.5, 0.77, 1.0):
        _, _, logz = analytic_gaussian_path(3, 2.0, 2.0, beta)
        assert logz == pytest.approx(closed_form(3, 2.0, 2.0, beta), abs=1e-12)
    assert logz1 == pytest.approx(-6.370972, abs=1e-6)


def test_toy_gaussian_posterior_matches_conjugacy():
    # independent 1-d quadrature oracle of E[V] under the tempered law
    model = ToyGaussian(dim=1, m=2.0, sigma0=2.0)
    beta = 0.6

    def unnorm(x):
        return math.exp(model.log_reference(np.array([x])) - beta * model._potential(np.array([x])))

    z, _ = integrate.quad(unnorm, -30, 30)
    ev, _ = integrate.quad(lambda x: model._potential(np.array([x])) * unnorm(x) / z, -30, 30)
    mu, var, _ = analytic_gaussian_path(1, 2.0, 2.0, beta)
    expected = 0.5 * (var + (mu - 2.0) ** 2) + 0.5 * math.log(2 * math.pi)
    assert ev == pytest.approx(expected, rel=1e-6)


def test_banana_endpoint_density():
    model = Banana()
    x = np.array([1.2, 1.5])
    joint = log_tempered_density(model, x, 1.0)
    target = (sps.norm.logpdf(x[0], 1.0, math.sqrt(10.0))
              + sps.norm.logpdf(x[1], x[0] ** 2, 0.1))
    assert joint == pytest.approx(target, abs=1e-10)


def test_funnel_endpoint_density():
    model = Funnel()
    rng = np.random.default_rng(0)
    x = rng.normal(size=20)
    joint = log_tempered_density(model, x, 1.0)
    target = sps.norm.logpdf(x[0], 0.0, 3.0) + np.sum(
        sps.norm.logpdf(x[1:], 0.0, math.sqrt(math.exp(x[0])))
    )
    assert joint == pytest.approx(float(target), abs=1e-9)


def test_xy_model_reference_energy():
    model = XYModel(n=8, coupling=2.0)
    assert model.potential(np.zeros(64)) == pytest.approx(-256.0, abs=1e-12)


def test_xy_model_symmetries():
    model = XYModel(n=8, coupling=2.0)
    rng = np.random.default_rng(1)
    x = rng.uniform(-math.pi, math.pi, 64)
    base = model.potential(x)
    # global rotation
    assert model.potential(x + 0.37) == pytest.approx(base, abs=1e-10)
    # lattice translation
    grid = np.roll(x.reshape(8, 8), 3, axis=0).ravel()
    assert model.potential(grid) == pytest.approx(base, abs=1e-10)


def test_hierarchical_dataset_constraint():
    rng = np.random.default_rng(2)
    y = hierarchical_dataset(rng)
    assert y.shape == (8, 20)
    between = np.var(y.mean(axis=1), ddof=1)
    within = np.mean(np.var(y, axis=1, ddof=1))
    assert 12.0 <= between / within <= 20.0


def test_weibull_dataset_support():
    rng = np.random.default_rng(3)
    y = weibull_dataset(rng)
    assert y.shape == (50,)
    assert np.all(y > 10.0)


def test_synthetic_data_deterministic_per_seed():
    a = weibull_dataset(np.random.default_rng(5))
    b = weibull_dataset(np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    t1, y1 = mrna_dataset(np.random.default_rng(6))
    t2, y2 = mrna_dataset(np.random.default_rng(6))
    np.testing.assert_array_equal(y1, y2)


def test_threshold_weibull_zero_likelihood_region():
    model = make_model(ModelSpec("threshold_weibull"))
    rng = np.random.default_rng(7)
    # prior draws frequently set the threshold above the data minimum
    saw_inf = saw_finite = False
    for _ in range(200):
        u = model.sample_reference(rng)
        v = model.potential(u)
        assert not math.isnan(v)
        saw_inf |= v == math.inf
        saw_finite |= math.isfinite(v)
    assert saw_inf and saw_finite


@pytest.mark.slow
def test_reference_draws_have_finite_log_densities():
    rng = np.random.default_rng(8)
    for name in ("toy_gaussian", "banana", "funnel", "hierarchical", "mrna",
                 "threshold_weibull", "xy"):
        model = make_model(ModelSpec(name))
        for _ in range(10_000):
            x = model.sample_reference(rng)
            assert math.isfinite(model.log_reference(x)), name
            v = model.potential(x)
            assert not math.isnan(v), name
            assert v > -math.inf, name


def test_make_model_unknown_name():
    with pytest.raises(ValueError, match="toy_gaussian"):
        make_model(ModelSpec("does_not_exist"))


@pytest.mark.parametrize("name, params, message", [
    ("toy_gaussian", {"dimm": 7}, "has no parameter 'dimm'; it reads 'dim', 'm', 'sigma0'"),
    ("banana", {"dim": 2}, "has no parameter 'dim'; it reads none"),
    ("threshold_weibull", {"z": 2, "a": 9.0, "k": 1},
     "has no parameter 'k', 'z'; it reads 'a', 'b', 'c', 'n'"),
])
def test_make_model_names_unknown_params_and_the_keys_it_reads(name, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_model(ModelSpec(name, params))


def test_hierarchical_potential_matches_direct_sum():
    model = make_model(ModelSpec("hierarchical"))
    rng = np.random.default_rng(9)
    x = model.sample_reference(rng)
    sig2 = math.exp(x[2])
    theta = x[3:]
    direct = -np.sum(sps.norm.logpdf(model.y, theta[:, None], math.sqrt(sig2)))
    assert model.potential(x) == pytest.approx(float(direct), rel=1e-9)


def test_mrna_potential_at_truth_is_moderate():
    model = make_model(ModelSpec("mrna"))
    truth = np.array([math.log10(0.2), 0.0, math.log10(0.8), math.log10(1.2),
                      math.log10(0.1)])
    lo, hi = np.array([-2, -5, -5, -5, -2.0]), np.array([1, 5, 5, 5, 5.0])
    u = np.log((truth - lo) / (hi - lo)) - np.log1p(-(truth - lo) / (hi - lo))
    v = model.potential(u)
    # negative log likelihood at the generating parameters is close to the
    # Gaussian entropy bound n/2 (log(2 pi sigma^2) + 1)
    n, sigma = 30, 0.1
    bound = 0.5 * n * (math.log(2 * math.pi * sigma**2) + 1)
    assert abs(v - bound) < 15.0


def test_mrna_overflowing_residual_gives_inf_without_warning():
    t, _ = mrna_dataset(np.random.default_rng(6))
    model = MRnaTransfection(t, np.full(t.shape, 1e200))  # residuals square past 1e308
    # the residuals' squares sum to a finite 1.2e308, which sigma = 0.107
    # sends past the largest float (a point that nrst tune --model mrna
    # --max-rounds 4 --seed 2 reaches)
    u = np.array([-2.128849533334973, -2.7952916273399473, -2.7765300037927054,
                  2.5190887312904398, -1.7594354997748267])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.potential(np.zeros(5)) == math.inf
        assert make_model(ModelSpec("mrna")).potential(u) == math.inf


@pytest.mark.parametrize("name, key, value", [
    ("toy_gaussian", "dim", 2.7),
    ("toy_gaussian", "dim", math.inf),
    ("toy_gaussian", "dim", "abc"),
    ("funnel", "dim", 20.5),
    ("xy", "n", 3.5),
    ("hierarchical", "j_groups", 2.5),
    ("hierarchical", "m_per_group", "abc"),
    ("threshold_weibull", "n", 2.5),
])
def test_make_model_rejects_sizes_that_are_not_whole_numbers(name, key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a whole number, got "):
        make_model(ModelSpec(name, {key: value}))


@pytest.mark.parametrize("name, key, value, least", [
    ("hierarchical", "j_groups", 0, 2),
    ("hierarchical", "j_groups", 1, 2),
    ("hierarchical", "m_per_group", 1, 2),
    ("threshold_weibull", "n", 0, 1),
    ("threshold_weibull", "n", -3, 1),
])
def test_make_model_rejects_sizes_that_are_too_small(name, key, value, least):
    # before any data is drawn: a hierarchical dataset of 1 group or 1
    # member per group ran all its rejection draws and failed
    with pytest.raises(ValueError, match=f"^{key} must be >= {least}, got {value}$"):
        make_model(ModelSpec(name, {key: value}))


def test_make_model_takes_whole_sizes_given_as_floats():
    assert make_model(ModelSpec("toy_gaussian", {"dim": 4.0})).dim == 4
    assert make_model(ModelSpec("xy", {"n": 3.0})).dim == 9


@pytest.mark.parametrize("name, key, value", [
    ("threshold_weibull", "c", -1),
    ("threshold_weibull", "b", 0),
    ("threshold_weibull", "a", math.inf),
    ("toy_gaussian", "sigma0", 0),
    ("toy_gaussian", "m", "nan"),
    ("toy_gaussian", "dim", True),
    ("xy", "coupling", "abc"),
])
def test_make_model_rejects_values_its_readers_refuse(name, key, value):
    # before any data is drawn: c < 0 reached numpy as its argument a, and
    # float(True) is 1.0
    with pytest.raises(ValueError, match=f"^{key} must be "):
        make_model(ModelSpec(name, {key: value}))


@pytest.mark.parametrize("name, defaults", [
    ("toy_gaussian", {"dim": 3, "m": 2.0, "sigma0": 2.0}),
    ("funnel", {"dim": 20}),
    ("hierarchical", {"j_groups": 8, "m_per_group": 20}),
    ("threshold_weibull", {"a": 10.0, "b": 2.0, "c": 1.5, "n": 50}),
    ("xy", {"n": 8, "coupling": 2.0}),
])
def test_every_default_given_explicitly_builds_the_model_of_no_params(name, defaults):
    given, default = make_model(ModelSpec(name, defaults)), make_model(ModelSpec(name))
    for attr in ("dim", "m", "sigma0", "n", "coupling"):
        assert getattr(given, attr, None) == getattr(default, attr, None)
    np.testing.assert_array_equal(getattr(given, "y", ()), getattr(default, "y", ()))


def test_make_model_takes_numbers_given_as_text():
    model = make_model(ModelSpec("threshold_weibull", {"a": "10", "b": "2", "c": "1.5"}))
    np.testing.assert_array_equal(model.y, make_model(ModelSpec("threshold_weibull")).y)
    assert make_model(ModelSpec("toy_gaussian", {"m": "2.5"})).m == 2.5


@pytest.mark.parametrize("call, error, message", [
    (lambda: Funnel(1), ValueError, "funnel needs dim >= 2"),
    (lambda: Hierarchical(np.zeros(4)), ValueError, r"y must be a \(groups, observations\) matrix"),
    (lambda: MRnaTransfection(np.zeros(3), np.zeros(4)), ValueError,
     "t and y must have matching shapes"),
    (lambda: analytic_gaussian_path(3, 2.0, 2.0, 1.5), ValueError,
     r"beta must lie in \[0, 1\]"),
], ids=["funnel-dim", "hierarchical-y", "mrna-shapes", "path-beta"])
def test_bench_models_check_their_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_hierarchical_dataset_gives_up_after_its_tries(monkeypatch):
    monkeypatch.setattr(bench_models, "_MAX_DATASET_TRIES", 0)
    with pytest.raises(RuntimeError, match="rejection sampling did not terminate"):
        hierarchical_dataset(np.random.default_rng(0))


@pytest.mark.parametrize("name", sorted(bench_models._MODELS))
def test_v_is_at_least_v_min_at_reference_draws_and_far_out_in_the_tails(name):
    model = make_model(ModelSpec(name))
    rng = np.random.default_rng(12)
    for scale in (1.0, 2.0, 4.0, 10.0, 30.0, 100.0):
        for _ in range(300):
            # ``not v < v_min`` lets a NaN V through: potential() raises on it
            v = model._potential(scale * model.sample_reference(rng))
            assert not v < model.v_min, (scale, v)


@pytest.mark.parametrize("name, x, v", [
    # log b past the largest float's log, and e^{log b} = 0
    ("threshold_weibull", [-24.8, 930.9, 9.1], math.inf),
    ("threshold_weibull", [-24.8, -800.0, 0.0], math.inf),
    ("threshold_weibull", [0.0, -800.0, 0.0], math.inf),
    # b subnormal, so z = (y - a) / b overflows
    ("threshold_weibull", [-24.8, -720.0, 5.0], math.inf),
    # a finite log pi0, where z^c = (e^100 (y - a))^c overflows at c ~ 9.9
    ("threshold_weibull", [-24.8, -100.0, 5.0], math.inf),
    # log tau^2 = +-800 leaves V as it is; log sigma^2 = 800 leaves its
    # linear term, and -800 gives +inf
    ("hierarchical", {1: 800.0}, None),
    ("hierarchical", {1: -800.0}, None),
    ("hierarchical", {2: 800.0}, "linear"),
    ("hierarchical", {2: -800.0}, math.inf),
    # the funnel's variance e^{x1} overflows, underflows to 0, or is
    # subnormal with x_2^2 / (2 e^{x1}) past the largest float
    ("funnel", {0: 774.7}, math.inf),
    ("funnel", {0: -800.0, 1: 1.0}, math.inf),
    ("funnel", {0: -720.0, 1: 1.0}, math.inf),
    # e^{-u} overflows in the logistic map: t0 and sigma at their lower bounds
    ("mrna", {0: -813.3}, "limit"),
    ("mrna", {4: -813.3}, "limit"),
])
def test_log_scale_coordinates_past_the_float_range_give_their_limits(name, x, v):
    model = make_model(ModelSpec(name))
    if isinstance(x, dict):
        point = np.zeros(model.dim)
        for k, value in x.items():
            point[k] = value
    else:
        point = np.array(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logp = model.log_reference(point)
        got = model.potential(point)
    # log pi0 is -inf wherever a scale of the reference (log b; log tau^2 and
    # log sigma^2) leaves the float range; the funnel's and mRNA's are finite
    assert (logp == -math.inf) == (abs(point[1]) >= 700.0 or abs(point[2]) >= 700.0)
    assert logp == -math.inf or math.isfinite(logp)
    if v is None:
        inside = point.copy()
        inside[list(x)] = 0.0
        assert got == model.potential(inside)
    elif v == "linear":
        assert got == 0.5 * model.y.size * (math.log(2 * math.pi) + 800.0)
    elif v == "limit":
        # the logistic map is within 1e-17 of its limit at |u| = 40 already
        inside = point.copy()
        inside[list(x)] = np.sign(point[list(x)]) * 40.0
        assert math.isfinite(got) and got == pytest.approx(model.potential(inside), rel=1e-12)
    else:
        assert got == v


def test_v_min_is_tight_where_a_model_reaches_it():
    toy = ToyGaussian()
    assert toy.v_min == 1.5 * math.log(2 * math.pi)
    assert toy.potential(np.full(3, 2.0)) == toy.v_min
    # the hierarchical bound's minimizer: theta the group means, sigma^2 = S_w / n
    model = make_model(ModelSpec("hierarchical"))
    means = model.y.mean(axis=1)
    s_within = float(np.sum((model.y - means[:, None]) ** 2))
    x = np.concatenate(([0.0, 0.0, math.log(s_within / model.y.size)], means))
    assert 0.0 <= model.potential(x) - model.v_min < 1e-5
    # mRNA at sigma = 10^-2 exactly, and the XY model's aligned rotors
    mrna = make_model(ModelSpec("mrna"))
    assert mrna.v_min == pytest.approx(15.0 * (math.log(2 * math.pi) - 4 * math.log(10)))
    assert mrna.potential(np.array([0.0, 0.0, 0.0, 0.0, -40.0])) > mrna.v_min
    xy = make_model(ModelSpec("xy"))
    assert xy.potential(np.full(xy.dim, 0.3)) == xy.v_min == -2.0 * 2 * 64
    for name in ("banana", "funnel", "threshold_weibull"):
        assert make_model(ModelSpec(name)).v_min == -math.inf
