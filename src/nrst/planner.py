"""Execution planning: CPU-time model, pool simulation, HPC/Cloud cost curves.

Tour CPU times are modeled as a bulk-tail mixture: the empirical distribution
below the 80th percentile plus a Weibull fitted to the exceedances.  Sampled
workloads are pushed through a greedy list scheduler (each tour goes to the
earliest-free worker) to predict makespan and costs for candidate pool sizes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

# Share of tour CPU times, in percent, that the Weibull tail models.
_TAIL_PERCENT = 20


class InsufficientDataError(ValueError):
    """Too few CPU-time samples to fit the bulk-tail model."""


@dataclass(frozen=True)
class CpuTimeModel:
    """Bulk-tail mixture of tour CPU times.

    With probability ``1 - _TAIL_PERCENT / 100`` a draw resamples the
    sub-threshold empirical bulk; otherwise it is threshold +
    Weibull(shape, scale).
    """

    threshold: float
    bulk: np.ndarray
    tail_shape: float
    tail_scale: float

    def __post_init__(self):
        object.__setattr__(self, "bulk", np.asarray(self.bulk, dtype=float))
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if not (self.tail_shape > 0 and self.tail_scale > 0):
            raise ValueError("tail parameters must be positive")
        if self.bulk.size < 1 or np.any(self.bulk <= 0):
            raise ValueError("bulk must hold positive samples")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        tail = rng.random(n) < _TAIL_PERCENT / 100
        out = rng.choice(self.bulk, size=n, replace=True)
        n_tail = int(tail.sum())
        if n_tail:
            u = rng.random(n_tail)
            out[tail] = self.threshold + self.tail_scale * (-np.log1p(-u)) ** (
                1.0 / self.tail_shape
            )
        return out


def _weibull_mle_shape(y: np.ndarray, tol: float = 1e-8, max_iter: int = 200) -> float:
    """Newton solve of the Weibull shape profile-likelihood equation."""
    log_y = np.log(y)
    mean_log = float(np.mean(log_y))
    k = 1.0
    for _ in range(max_iter):
        yk = y**k
        s0 = float(np.sum(yk))
        s1 = float(np.sum(yk * log_y))
        s2 = float(np.sum(yk * log_y**2))
        g = s1 / s0 - 1.0 / k - mean_log
        gp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k)
        step = g / gp
        k_new = k - step
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) < tol:
            return k_new
        k = k_new
    return k


def fit_cpu_model(times) -> CpuTimeModel:
    """Fit the bulk-tail mixture to observed tour CPU times.

    The threshold is the linearly interpolated 80th percentile (100 -
    ``_TAIL_PERCENT``); the tail is a maximum-likelihood Weibull over the
    exceedances, falling back to an exponential (shape 1) when the
    exceedances are degenerate.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 10:
        raise InsufficientDataError(f"need >= 10 samples, got {times.size}")
    if np.any(times <= 0) or not np.all(np.isfinite(times)):
        raise ValueError("times must be positive and finite")
    threshold = float(np.percentile(times, 100 - _TAIL_PERCENT))
    bulk = times[times <= threshold]
    exceed = times[times > threshold] - threshold
    if exceed.size < 2 or float(np.var(exceed)) == 0.0:
        shape = 1.0
        scale = float(np.mean(exceed)) if exceed.size and np.mean(exceed) > 0 else threshold
    else:
        shape = _weibull_mle_shape(exceed)
        scale = float((np.sum(exceed**shape) / exceed.size) ** (1.0 / shape))
    return CpuTimeModel(threshold, bulk, shape, scale)


@dataclass
class PoolSimulation:
    makespan: float
    busy_times: np.ndarray   # event times
    busy_counts: np.ndarray  # active workers from each event time onward


def simulate_pool(times, pool_size: int) -> PoolSimulation:
    """Greedy list scheduling of tours onto a pool of identical workers.

    ``times`` is the sequence of tour durations.  Tours are dispatched in
    the given order, each to the earliest-free worker, as a live queue
    hands them out.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    durations = np.asarray(times, dtype=float)
    if durations.size < 1:
        raise ValueError("need at least one tour")

    free = [0.0] * pool_size  # the time each worker next falls idle, as a heap
    starts = np.empty(durations.size)
    ends = np.empty(durations.size)
    for tour in range(durations.size):
        starts[tour] = heapq.heappop(free)
        ends[tour] = starts[tour] + durations[tour]
        heapq.heappush(free, ends[tour])
    makespan = float(ends.max())

    events = np.concatenate([starts, ends])
    deltas = np.concatenate([np.ones(durations.size), -np.ones(durations.size)])
    idx = np.argsort(events, kind="stable")
    times_sorted = events[idx]
    counts = np.cumsum(deltas[idx])
    return PoolSimulation(makespan, times_sorted, counts)


def cost_curves(model, k_tours: int, pool_sizes, replications: int,
                rng: np.random.Generator) -> list:
    """Makespan and cost summaries for candidate pool sizes.

    Within each replication a single workload of ``k_tours`` durations is
    drawn by ``model.sample(k_tours, rng)`` (a :class:`CpuTimeModel`) and
    reused across every pool size, so the cloud cost (sum of CPU
    times) is exactly pool-invariant and only the HPC cost (makespan times
    pool size) varies.  Each workload goes through :func:`simulate_pool` in
    the order it was drawn.  Bands are the 10th/90th replication quantiles.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    pool_sizes = [int(p) for p in pool_sizes]
    makespans = np.empty((replications, len(pool_sizes)))
    clouds = np.empty(replications)
    for r in range(replications):
        durations = model.sample(k_tours, rng)
        clouds[r] = float(durations.sum())
        for j, pool in enumerate(pool_sizes):
            makespans[r, j] = simulate_pool(durations, pool).makespan
    out = []
    for j, pool in enumerate(pool_sizes):
        ms = makespans[:, j]
        hpc = ms * pool
        out.append({
            "pool_size": pool,
            "makespan_mean": float(ms.mean()),
            "makespan_q10": float(np.percentile(ms, 10)),
            "makespan_q90": float(np.percentile(ms, 90)),
            "hpc_cost_mean": float(hpc.mean()),
            "hpc_cost_q10": float(np.percentile(hpc, 10)),
            "hpc_cost_q90": float(np.percentile(hpc, 90)),
            "cloud_cost_mean": float(clouds.mean()),
            "cloud_cost_q10": float(np.percentile(clouds, 10)),
            "cloud_cost_q90": float(np.percentile(clouds, 90)),
        })
    return out


def te_infinity(lambda_hat: float) -> float:
    """Fine-grid limit of the non-reversible tour effectiveness: 1/(1+2L)."""
    if lambda_hat < 0:
        raise ValueError("lambda_hat must be >= 0")
    return 1.0 / (1.0 + 2.0 * lambda_hat)
