import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from nrst.st_kernels import IdealIndexChain, simulate_index_tours
from nrst.stats import (
    NoTopVisitsError,
    TourStatistics,
    confidence_interval,
    diagnostics_report,
    estimate_sigma2,
    estimate_te,
    min_tours,
    normal_quantile,
    ratio_estimate,
)


def make_stats(visits, h_sums, tau=None):
    visits = np.asarray(visits)
    tau = np.full(visits.size, 5) if tau is None else tau
    return TourStatistics(tau, visits, np.asarray(h_sums, dtype=float))


def test_ratio_estimate_examples():
    stats = make_stats([1, 2], [[2.0], [4.0]])
    assert ratio_estimate(stats) == pytest.approx(2.0)
    # h identically 1 gives exactly 1
    ones = make_stats([3, 1, 2], [[3.0], [1.0], [2.0]])
    assert ratio_estimate(ones) == pytest.approx(1.0, abs=0.0)
    with pytest.raises(NoTopVisitsError):
        ratio_estimate(make_stats([0, 0], [[0.0], [0.0]]))


def test_sigma2_examples():
    # identical tours with deterministic h: zero spread
    same = make_stats([2, 2], [[2.0], [2.0]])
    assert estimate_sigma2(same) == pytest.approx(0.0, abs=0.0)
    # centered tour sums (+1, -1) with total visits 4: 2 * 2 / 16
    stats = make_stats([2, 2], [[3.0], [1.0]])
    assert ratio_estimate(stats) == pytest.approx(1.0)
    assert estimate_sigma2(stats) == pytest.approx(0.25)


def test_sigma2_homogeneous_in_h():
    rng = np.random.default_rng(0)
    visits = rng.integers(1, 5, 20)
    h = rng.normal(size=(20, 1)) * visits[:, None]
    base = estimate_sigma2(make_stats(visits, h))
    scaled = estimate_sigma2(make_stats(visits, 7.0 * h))
    assert scaled == pytest.approx(49.0 * base, rel=1e-12)


def test_confidence_interval_examples():
    lo, hi = confidence_interval(1.0, 0.0, 10, 0.95)
    assert (lo, hi) == (1.0, 1.0)
    lo, hi = confidence_interval(0.0, 1.0, 100, 0.95)
    assert hi == pytest.approx(1.959964 / 10, abs=1e-6)
    lo, hi = confidence_interval(0.0, 1.0, 100, 0.5)
    assert hi == pytest.approx(0.674490 / 10, abs=1e-6)


def test_estimate_te_examples():
    assert estimate_te([2, 2, 2, 2]) == pytest.approx(1.0)
    assert estimate_te([0, 4]) == pytest.approx(0.5)
    assert estimate_te([0, 0, 0]) == 0.0


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=100))
@settings(max_examples=200)
def test_estimate_te_in_unit_interval(visits):
    te = estimate_te(visits)
    assert 0.0 <= te <= 1.0 + 1e-15


def test_min_tours_examples():
    assert min_tours(0.95, 0.5, 1.0) == 62
    assert min_tours(0.95, 0.5, 0.25) == 246
    assert min_tours(0.95, 1e9, 0.5) == 1


def test_min_tours_scales_inversely_with_te():
    # halving the tour effectiveness doubles the requirement (up to ceiling)
    base = min_tours(0.95, 0.5, 0.5)
    assert abs(min_tours(0.95, 0.5, 0.25) - 2 * base) <= 1


def test_min_tours_monotonicity():
    tes = np.linspace(0.05, 1.0, 10)
    deltas = np.linspace(0.1, 2.0, 10)
    alphas = np.linspace(0.5, 0.99, 10)
    for a in alphas:
        for d in deltas:
            ks = [min_tours(a, d, t) for t in tes]
            assert all(k1 >= k2 for k1, k2 in zip(ks, ks[1:]))
        for t in tes:
            ks = [min_tours(a, d, t) for d in deltas]
            assert all(k1 >= k2 for k1, k2 in zip(ks, ks[1:]))
    for d in deltas:
        for t in tes:
            ks = [min_tours(a, d, t) for a in alphas]
            assert all(k1 <= k2 for k1, k2 in zip(ks, ks[1:]))


def test_normal_quantile_against_scipy():
    ps = np.concatenate([
        np.linspace(1e-9, 0.02, 50),
        np.linspace(0.021, 0.979, 200),
        np.linspace(0.98, 1 - 1e-9, 50),
    ])
    for p in ps:
        assert normal_quantile(float(p)) == pytest.approx(sps.norm.ppf(p), abs=1e-9)


def test_ci_coverage_on_ideal_chain():
    """95% CIs from 500-tour runs cover the exact value about 95% of the time.

    Uses the reversible chain at N=1, rho=0.5 with h = indicator of an
    odd-numbered top visit.  Exact ratio: with hitting probability p = 1/4,
    visits are Geometric_1(p) when nonzero, so E[odd visits]/E[visits]
    = (1 + P(U odd) / E[U]) / 2 at q = 3/4: (1/4) / (1 - q^2) ... computed
    below in closed form.
    """
    p = 0.25
    q = 1 - p
    # E[U] = 1/p, P(U odd) = p / (1 - q^2); E[ceil(U/2)] = (E[U] + P(U odd)) / 2
    truth = (1 / p + p / (1 - q * q)) / 2 / (1 / p)
    chain = IdealIndexChain.symmetric([0.5])
    rng = np.random.default_rng(2024)
    n_runs, k = 1000, 500
    steps, visits, sodd = simulate_index_tours(chain, "st", n_runs * k, rng)
    covered = 0
    for r in range(n_runs):
        sl = slice(r * k, (r + 1) * k)
        stats = TourStatistics(steps[sl], visits[sl], sodd[sl].astype(float))
        est = ratio_estimate(stats)
        s2 = estimate_sigma2(stats)
        lo, hi = confidence_interval(est, s2, k, 0.95)
        covered += lo <= truth <= hi
    rate = covered / n_runs
    assert abs(rate - 0.95) <= 0.025


def test_diagnostics_report_shape():
    stats = make_stats([1, 2, 1], [[1.0, 2.0], [2.0, 4.0], [1.0, 2.0]])
    report = diagnostics_report(stats, 0.95, ["a", "b"])
    assert report["k"] == 3
    assert set(report["per_h"]) == {"a", "b"}
    assert 0 <= report["te_hat"] <= 1
    assert len(report["per_h"]["a"]["ci"]) == 2
