import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats as sps

from nrst.bench_models import (
    Banana,
    Funnel,
    ModelSpec,
    MRnaTransfection,
    ToyGaussian,
    XYModel,
    analytic_gaussian_path,
    generate_synthetic_data,
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


def test_analytic_path_endpoints_and_quadrature():
    mu0, var0, logz0 = analytic_gaussian_path(3, 2.0, 2.0, 0.0)
    assert (mu0, var0, logz0) == (0.0, 4.0, pytest.approx(0.0, abs=1e-12))
    mu1, var1, logz1 = analytic_gaussian_path(3, 2.0, 2.0, 1.0)
    assert var1 == pytest.approx(0.8)
    assert mu1 == pytest.approx(1.6)

    # quadrature agrees with the complete-the-square closed form
    def closed_form(d, m, s0, beta):
        var = 1.0 / (beta + 1.0 / s0**2)
        per_dim = (-0.5 * beta * math.log(2 * math.pi)
                   + 0.5 * math.log(var / s0**2)
                   + 0.5 * beta**2 * m**2 * var
                   - 0.5 * beta * m**2)
        return d * per_dim

    for beta in (0.1, 0.35, 0.5, 0.77, 1.0):
        _, _, logz = analytic_gaussian_path(3, 2.0, 2.0, beta)
        assert logz == pytest.approx(closed_form(3, 2.0, 2.0, beta), abs=1e-8)


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
    spec = ModelSpec("threshold_weibull")
    a = generate_synthetic_data(spec, np.random.default_rng(5))
    b = generate_synthetic_data(spec, np.random.default_rng(5))
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.potential(np.zeros(5)) == math.inf
