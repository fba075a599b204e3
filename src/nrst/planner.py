"""Execution planning: CPU-time model, pool simulation, HPC/Cloud cost curves.

Tour CPU times are modeled as a bulk-tail mixture: the empirical distribution
below the 80th percentile plus a Weibull fitted to the exceedances.  Sampled
workloads are pushed through a greedy list scheduler (each tour goes to the
earliest-free worker) to predict makespan and costs for candidate pool sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Share of tour CPU times, in percent, that the Weibull tail models.
_TAIL_PERCENT = 20
# Newton solve of the tail's Weibull shape: step tolerance and iteration cap.
_MLE_TOL = 1e-8
_MLE_MAX_ITER = 200


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
        if not self.threshold >= 0:
            raise ValueError("threshold must be non-negative")
        if not (self.tail_shape > 0 and self.tail_scale > 0):
            raise ValueError("tail parameters must be positive")
        if self.bulk.size < 1 or np.any(self.bulk < 0):
            raise ValueError("bulk must hold non-negative samples")

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


def _weibull_mle_shape(y: np.ndarray) -> float:
    """Newton solve of the Weibull shape profile-likelihood equation."""
    log_y = np.log(y)
    mean_log = float(np.mean(log_y))
    k = 1.0
    for _ in range(_MLE_MAX_ITER):
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
        if abs(k_new - k) < _MLE_TOL:
            return k_new
        k = k_new
    return k


def fit_cpu_model(times) -> CpuTimeModel:
    """Fit the bulk-tail mixture to observed tour CPU times.

    The threshold is the linearly interpolated 80th percentile (100 -
    ``_TAIL_PERCENT``); the tail is a maximum-likelihood Weibull over the
    exceedances, falling back to an exponential (shape 1) when the
    exceedances are degenerate.  A time may be 0 (a tour shorter than the
    clock's resolution), but not every time.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 10:
        raise ValueError(f"need >= 10 samples, got {times.size}")
    if np.any(times < 0) or not np.all(np.isfinite(times)) or not np.any(times > 0):
        raise ValueError("times must be non-negative and finite, and not all 0")
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


def _list_schedule(durations: np.ndarray, pool_size: int) -> np.ndarray:
    """Start times of greedy list scheduling, one workload per row.

    ``durations`` has shape (R, K); each row's tours are dispatched in
    order, each to the earliest-free of its own ``pool_size`` identical
    workers, all rows at once.  Ties between free workers change no start
    time: whichever of them takes the tour, the free times left are the
    same."""
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if durations.shape[1] < 1:
        raise ValueError("need at least one tour")
    rows = durations.shape[0]
    # When each worker next falls idle, row by row, and each row's first
    # worker's index into it.
    free = np.zeros(rows * pool_size)
    first = np.arange(rows) * pool_size
    starts = np.empty((durations.shape[1], rows))
    for tour, duration in enumerate(durations.T):
        worker = free.reshape(rows, pool_size).argmin(axis=1) + first
        starts[tour] = free[worker]
        free[worker] = starts[tour] + duration
    return starts.T


def simulate_pool(times, pool_size: int) -> PoolSimulation:
    """Greedy list scheduling of tours onto a pool of identical workers.

    ``times`` is the sequence of tour durations.  Tours are dispatched in
    the given order, each to the earliest-free worker, as a live queue
    hands them out: :func:`_list_schedule` on one row.
    """
    durations = np.asarray(times, dtype=float)
    starts = _list_schedule(durations[None, :], pool_size)[0]
    ends = starts + durations
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
    pool size) varies.  Per pool size, the workloads of all replications go
    through :func:`_list_schedule` together, each in the order it was
    drawn.  Bands are the 10th/90th replication quantiles.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    pool_sizes = [int(p) for p in pool_sizes]
    workloads = np.empty((replications, k_tours))
    clouds = np.empty(replications)
    for r in range(replications):
        workloads[r] = model.sample(k_tours, rng)
        clouds[r] = float(workloads[r].sum())
    makespans = np.column_stack([np.max(_list_schedule(workloads, pool) + workloads, axis=1)
                                 for pool in pool_sizes])
    out = []
    for j, pool in enumerate(pool_sizes):
        entry = {"pool_size": pool}
        for key, values in (("makespan", makespans[:, j]), ("hpc_cost", makespans[:, j] * pool),
                            ("cloud_cost", clouds)):
            entry.update({f"{key}_mean": float(values.mean()),
                          f"{key}_q10": float(np.percentile(values, 10)),
                          f"{key}_q90": float(np.percentile(values, 90))})
        out.append(entry)
    return out


def te_infinity(lambda_hat: float) -> float:
    """Fine-grid limit of the non-reversible tour effectiveness: 1/(1+2L)."""
    if lambda_hat < 0:
        raise ValueError("lambda_hat must be >= 0")
    return 1.0 / (1.0 + 2.0 * lambda_hat)
