"""Regenerative estimators: ratio estimates, variances, CIs, tour effectiveness.

Everything here consumes per-tour summaries.  Because tours are i.i.d., the
ratio estimator admits a simple consistent variance estimator and honest
asymptotic confidence intervals; the tour effectiveness condenses sampler
quality into a single number in [0, 1] that bounds the asymptotic variance
of every bounded test function and sizes the required number of tours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


class NoTopVisitsError(ValueError):
    """No tour ever reached the target level, so no estimate exists."""


@dataclass(frozen=True)
class TourStatistics:
    """Per-tour records: top-level visit counts and h tour sums.

    ``h_top_sums[j, m]`` is the sum of the m-th test function over the states
    of tour j at the top level, which is all the ratio and variance
    estimators need (the centering happens after the ratio is known).
    """

    visits: np.ndarray
    h_top_sums: np.ndarray

    def __post_init__(self):
        visits = np.asarray(self.visits, dtype=np.int64)
        h = np.asarray(self.h_top_sums, dtype=float)
        if h.ndim == 1:
            h = h[:, None]
        object.__setattr__(self, "visits", visits)
        object.__setattr__(self, "h_top_sums", h)
        if visits.ndim != 1 or visits.size < 1:
            raise ValueError("need at least one tour")
        if h.shape[0] != visits.size:
            raise ValueError("per-tour arrays must have matching lengths")
        if np.any(visits < 0):
            raise ValueError("visit counts must be >= 0")

    @property
    def k(self) -> int:
        return self.visits.size

    @classmethod
    def from_traces(cls, traces) -> "TourStatistics":
        """The statistics of a :class:`~nrst.st_kernels.TourTable`, read from
        its ``visits_top`` and ``h_top_sums`` columns."""
        h = np.asarray(traces.h_top_sums).reshape(len(traces.visits_top), traces.n_h)
        return cls(traces.visits_top, h)


def ratio_estimate(stats: TourStatistics, h_index: int = 0) -> float:
    """Estimate of the target expectation: sum of h tour sums over total visits."""
    total_visits = int(stats.visits.sum())
    if total_visits == 0:
        raise NoTopVisitsError("tours never reached the target level")
    return float(stats.h_top_sums[:, h_index].sum()) / total_visits


def estimate_sigma2(stats: TourStatistics, h_index: int = 0) -> float:
    """Consistent estimator of the asymptotic variance of the ratio estimate."""
    r = ratio_estimate(stats, h_index)
    centered = stats.h_top_sums[:, h_index] - r * stats.visits
    total_visits = float(stats.visits.sum())
    return float(stats.k * np.sum(centered**2) / total_visits**2)


def confidence_interval(estimate: float, sigma2: float, k: int, alpha: float):
    """Asymptotic alpha-confidence interval: estimate +- z_alpha sigma / sqrt(k)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    half = normal_quantile((1.0 + alpha) / 2.0) * math.sqrt(sigma2 / k)
    return estimate - half, estimate + half


def estimate_te(visit_counts) -> float:
    """Estimated tour effectiveness (sum v)^2 / (k sum v^2), in [0, 1].

    Defined as 0 when no tour visited the top level, which makes the
    downstream tour-count planner fail loudly instead of dividing by zero.
    """
    v = np.asarray(visit_counts, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need at least one tour")
    sq = float(np.sum(v**2))
    if sq == 0.0:
        return 0.0
    return float(np.sum(v)) ** 2 / (v.size * sq)


def min_tours(alpha: float, delta: float, te: float) -> int:
    """Tours needed for an alpha-CI of half-width delta on all |h| <= 1.

    ceil((4 / te) (z_alpha / delta)^2); a count beyond the float range is a
    ValueError naming alpha, delta and te.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not delta > 0:
        raise ValueError("delta must be > 0")
    if not 0.0 < te <= 1.0:
        raise ValueError("te must lie in (0, 1]")
    z = normal_quantile((1.0 + alpha) / 2.0)
    try:  # (z / delta)^2, or its ceiling, may overflow
        return int(math.ceil((4.0 / te) * (z / delta) ** 2))
    except OverflowError:
        raise ValueError(f"the tour count (4 / te) (z_alpha / delta)^2 is not finite at "
                         f"alpha={alpha!r}, delta={delta!r}, te={te!r}") from None


def diagnostics_report(stats: TourStatistics, alpha: float, h_names=None) -> dict:
    """JSON-ready diagnostics: k, estimated TE, and per-h estimate/variance/CI."""
    n_h = stats.h_top_sums.shape[1]
    if h_names is None:
        h_names = [f"h{m}" for m in range(n_h)]
    per_h = {}
    for m, name in enumerate(h_names):
        est = ratio_estimate(stats, m)
        s2 = estimate_sigma2(stats, m)
        lo, hi = confidence_interval(est, s2, stats.k, alpha)
        per_h[name] = {"estimate": est, "sigma2": s2, "ci": [lo, hi]}
    return {"k": stats.k, "te_hat": estimate_te(stats.visits), "per_h": per_h}


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return NormalDist().inv_cdf(p)
