"""Test oracles: closed forms that check the package but that it never uses.

``index_kernel`` is the explicit transition matrix of the idealized index
chain, against which simulated tours and closed-form TEs are checked;
``pseudo_prior`` is the marginal level law that mean-energy affinities
make uniform; ``local_rejection_rates`` is the per-level rejection rate
that the interval rejections approach as the grid refines;
``LinearBarrier`` is a piecewise-linear barrier whose grid
``optimize_grid`` places by hand-checkable arithmetic.  ``uniform_schedule``
is the uniform-grid schedule that kernel and NRPT tests run on, and
``warm_states`` the warm starts that step-tuning tests give each level.
``write_traces_csv_per_tour`` writes ``traces.csv`` one tour at a time,
from the one-tour tables that indexing a ``TourTable`` gives: the column
writer must match it byte for byte.  ``run_tour_exploring_regeneration``
is the tour that runs level 0's kernel after the move into the regeneration
set too, a second reference draw that nothing reads: ``run_tour`` must match
it in every column but ``cpu_seconds``, the last ``v`` and ``v_evals``.
``autocorrelation`` and ``steps_from_autocorrelation`` are the step-count
rule in two steps, every lag's estimate first and the threshold after: the
lag walk that sets each level's step count must equal it bit for bit.
``n_star`` is the paper's cost-optimal grid size, the real minimizer of
criterion 7's cost 2 (N + 1) / TE, and ``optimal_grid_size`` gamma N*
rounded up: tests set it in place of the tuner's own grid size, the one of
least predicted V-evals per unit TE, to compare the two.

``grid_per_target``, ``logz_per_interval``, ``median_affinities_per_level``
and ``rejections_per_interval`` are the tuner's estimators written one
level or interval at a time, as loops of scalar steps: the array estimators
must equal them bit for bit.  So must the tuner's standard errors equal
``batch_se_per_batch``, a statistic of each batch of scans in turn, and its
kappa(1) bounds ``run_kappa1_upper_per_level``, one level at a time.
``starts_with_heap`` is the planner's greedy list scheduler for one
workload, a heap of free times popped once per tour: the planner's array
scheduler must give the same start times, bit for bit.
"""

import heapq
import math
import time
from array import array

import numpy as np

from nrst.adapt import (
    _BENNETT_ITERATIONS,
    _BENNETT_TOL,
    _MIN_SE_SCANS,
    _WIDTH_PER_MOVE,
    run_nrpt,
)
from nrst.explore import _MAX_EXPLORE_STEPS
from nrst.model import Schedule, acceptance_probability
from nrst.st_kernels import _VARIANTS, NRST, ST, IdealIndexChain, TourOverrunError, TourTable


def _state_index(i, direction):
    return 2 * i + (0 if direction > 0 else 1)


def index_kernel(chain: IdealIndexChain, variant: str) -> np.ndarray:
    """Explicit transition matrix of the index chain on {0..N} x {-1,+1}.

    States are ordered (0,+1), (0,-1), (1,+1), (1,-1), ...  Boundary bounces
    are encoded as forced rejections of out-of-range proposals.  For the
    reversible variant the direction coordinate is pure bookkeeping; it is
    encoded here as an independent fair coin so that the uniform lifted law
    is an exact fixed point (carrying the drawn proposal instead would skew
    the direction marginal near the boundaries while leaving the level
    process, and hence tours, untouched).
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    n = chain.n_levels
    size = 2 * (n + 1)
    alpha_up = np.zeros(n + 1)
    alpha_up[:n] = 1.0 - chain.rho
    alpha_dn = np.zeros(n + 1)
    alpha_dn[1:] = 1.0 - chain.rho
    kernel = np.zeros((size, size))
    for i in range(n + 1):
        if variant == NRST:
            row = kernel[_state_index(i, +1)]
            if i == n:
                row[_state_index(n, -1)] = 1.0
            else:
                row[_state_index(i + 1, +1)] = alpha_up[i]
                row[_state_index(i, -1)] = 1.0 - alpha_up[i]
            row = kernel[_state_index(i, -1)]
            if i == 0:
                row[_state_index(0, +1)] = 1.0
            else:
                row[_state_index(i - 1, -1)] = alpha_dn[i]
                row[_state_index(i, +1)] = 1.0 - alpha_dn[i]
        else:
            level_row = np.zeros(n + 1)
            level_row[i] = 0.5 * (1.0 - alpha_up[i]) + 0.5 * (1.0 - alpha_dn[i])
            if i < n:
                level_row[i + 1] = 0.5 * alpha_up[i]
            if i > 0:
                level_row[i - 1] = 0.5 * alpha_dn[i]
            row = np.zeros(size)
            for j in range(n + 1):
                row[_state_index(j, +1)] = 0.5 * level_row[j]
                row[_state_index(j, -1)] = 0.5 * level_row[j]
            kernel[_state_index(i, +1)] = row
            kernel[_state_index(i, -1)] = row
    return kernel


def pseudo_prior(log_z, affinities) -> np.ndarray:
    """Marginal level probabilities p_i propto Z(beta_i) exp(c_i).

    For tests and idealized simulations where the log normalizing constants
    are known or estimated.  Guarded against overflow by shifting
    by the max exponent.
    """
    log_z = np.asarray(log_z, dtype=float)
    affinities = np.asarray(affinities, dtype=float)
    if log_z.shape != affinities.shape or log_z.ndim != 1 or log_z.size < 1:
        raise ValueError("log_z and affinities must be 1-d arrays of equal length >= 1")
    expo = log_z + affinities
    expo = expo - expo.max()
    w = np.exp(expo)
    return w / w.sum()


def local_rejection_rates(data: np.ndarray, betas, affinities) -> np.ndarray:
    """Per-level rejection rate estimate: mean of |V - c'| / 2.

    c' is approximated by finite differences of the affinity sequence.
    """
    betas = np.asarray(betas, dtype=float)
    c = np.asarray(affinities, dtype=float)
    n = betas.size - 1
    cp = np.empty(n + 1)
    cp[0] = (c[1] - c[0]) / (betas[1] - betas[0])
    cp[n] = (c[n] - c[n - 1]) / (betas[n] - betas[n - 1])
    for i in range(1, n):
        cp[i] = (c[i + 1] - c[i - 1]) / (betas[i + 1] - betas[i - 1])
    return np.array([0.5 * float(np.mean(np.abs(data[i] - cp[i]))) for i in range(n + 1)])


class LinearBarrier:
    """Piecewise-linear interpolant of barrier knots: the part of the
    ``BarrierEstimate`` interface that ``optimize_grid`` reads."""

    def __init__(self, knots_beta, knots_lambda):
        self.knots_beta = np.asarray(knots_beta, dtype=float)
        self.knots_lambda = np.asarray(knots_lambda, dtype=float)

    @property
    def total(self) -> float:
        return float(self.knots_lambda[-1])

    def __call__(self, beta):
        return np.interp(beta, self.knots_beta, self.knots_lambda)


def uniform_schedule(n_levels: int, explore_steps: int = 1) -> Schedule:
    """Uniform grid {i/N} with zero affinities."""
    betas = np.linspace(0.0, 1.0, n_levels + 1)
    return Schedule(betas, np.zeros(n_levels + 1), np.full(n_levels, explore_steps))


class CountingDraw:
    """Stand-in for level 0's kernel: returns one fixed state whatever it is
    given, and counts its calls."""

    def __init__(self, x, v):
        self.state = (x, v)
        self.calls = 0

    def __call__(self, x, v, rng):
        self.calls += 1
        return self.state


def warm_states(model, schedule: Schedule, rng, n_scan: int = 8) -> list:
    """One (x, V(x)) per level 0..N, from a short NRPT pass on ``schedule``:
    warm starts like those ``adapt`` gives ``tune_explore_steps``."""
    return run_nrpt(model, schedule, n_scan, rng, full=True).states


def n_star(lambda_total: float) -> float:
    """Cost-optimal (real-valued) grid size for a given total barrier."""
    if not lambda_total > 0:
        raise ValueError("lambda_total must be > 0")
    return lambda_total * (1.0 + math.sqrt(1.0 + 1.0 / (1.0 + 2.0 * lambda_total)))


def optimal_grid_size(lambda_total: float, gamma: float) -> int:
    """Grid size gamma * N-star rounded up, at least 2."""
    if not gamma >= 1:
        raise ValueError("gamma must be >= 1")
    return max(2, math.ceil(gamma * n_star(lambda_total)))


def starts_with_heap(durations, pool_size: int) -> np.ndarray:
    """Start time of each tour when the tours, in order, each go to the
    earliest-free of ``pool_size`` workers."""
    free = [0.0] * pool_size  # the time each worker next falls idle, as a heap
    starts = np.empty(len(durations))
    for tour, duration in enumerate(durations):
        starts[tour] = heapq.heappop(free)
        heapq.heappush(free, starts[tour] + duration)
    return starts


def grid_per_target(barrier, n_levels: int) -> np.ndarray:
    """``optimize_grid`` as one scalar bisection per interior point, each
    halving [lo, hi] until hi - lo <= 1e-12."""
    if barrier.total <= 0.0:
        return np.linspace(0.0, 1.0, n_levels + 1)
    betas = np.empty(n_levels + 1)
    betas[0] = 0.0
    betas[n_levels] = 1.0
    for i in range(1, n_levels):
        target = (i / n_levels) * barrier.total
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if barrier(mid) < target:
                lo = mid
            else:
                hi = mid
        betas[i] = 0.5 * (lo + hi)
    for i in range(1, n_levels):
        if betas[i] <= betas[i - 1]:
            betas[i] = betas[i - 1] + 1e-12
    return betas


def _bennett_root_of_row(h: np.ndarray) -> float:
    """The E at which the mean of tanh(E - h) over the row ``h`` is 0, by
    the bracketed Newton steps of ``_bennett_root``, in Python floats."""
    finite = np.isfinite(h)
    m = int(finite.sum())
    lo = float(np.min(h))
    hi = float(np.max(h[finite]) + 0.5 * np.log(h.size / (2 * m - h.size)))
    e = min(max(float(np.sum(np.where(finite, h, 0.0))) / m, lo), hi)
    for _ in range(_BENNETT_ITERATIONS):
        t = np.tanh(e - h)
        f = float(t.sum()) / h.size
        slope = 1.0 - float((t * t).sum()) / h.size
        if f < 0.0:
            lo = e
        if f > 0.0:
            hi = e
        newton = e - f / max(slope, 1e-300)
        step = newton if lo <= newton <= hi else 0.5 * (lo + hi)
        done = abs(step - e) <= _BENNETT_TOL * (1.0 + abs(e))
        e = step
        if done:
            break
    return e


def logz_per_interval(data: np.ndarray, betas) -> np.ndarray:
    """``stepping_stone_logz`` one interval at a time: each interval's
    Bennett equation solved on its own, or its backward estimate when the
    lower level's samples are all V = +inf."""
    betas = np.asarray(betas, dtype=float)
    logz = np.zeros(betas.size)
    for i in range(1, betas.size):
        db = betas[i] - betas[i - 1]
        h = 0.5 * np.concatenate((db * data[i - 1], db * data[i]))
        if int(np.isfinite(h).sum()) > data[i].size:
            d = 2.0 * _bennett_root_of_row(h)
        else:
            b = db * data[i]
            d = float(np.max(b) + np.log(np.mean(np.exp(b - np.max(b)))))
        logz[i] = logz[i - 1] - d
    return logz


def batch_se_per_batch(data: np.ndarray, stat):
    """Batch-means standard error of ``stat`` over the scans of ``data``, of
    shape (rows, n_scan): ``stat`` of each of b = 2^floor(log2(n_scan) / 2)
    consecutive batches of columns in turn, then sd / sqrt(b) of the b
    values; None below ``_MIN_SE_SCANS`` scans."""
    n_scan = data.shape[1]
    if n_scan < _MIN_SE_SCANS:
        return None
    b = 2 ** (int(math.log2(n_scan)) // 2)
    m = n_scan // b
    values = [stat(data[:, k * m:(k + 1) * m]) for k in range(b)]
    return float(np.std(values, ddof=1)) / math.sqrt(b)


def _lag1_of_pairs(v_in, v_out) -> float:
    """``lag1_autocorrelation`` of one level's 1-d pairs, in Python floats."""
    m = 0.5 * (v_in.mean() + v_out.mean())
    ca, cb = v_in - m, v_out - m
    denom = 0.5 * (float(np.dot(ca, ca)) + float(np.dot(cb, cb)))
    return 0.0 if denom == 0.0 else float(np.dot(ca, cb)) / denom


def run_kappa1_upper_per_level(ends: np.ndarray, per_move: float) -> list:
    """``_run_kappa1_upper`` one level at a time: kappa(1) of the level's
    (V in, V out) pairs plus 2 ``batch_se_per_batch``, mapped to the run's
    bracket; +inf below ``_MIN_SE_SCANS`` scans."""
    shrink = (per_move / _WIDTH_PER_MOVE) ** 2
    bounds = []
    for v_in, v_out in zip(ends[0], ends[1]):
        se = batch_se_per_batch(np.array((v_in, v_out)), lambda d: _lag1_of_pairs(*d))
        tune = math.inf if se is None else _lag1_of_pairs(v_in, v_out) + 2.0 * se
        bounds.append(1.0 - shrink * (1.0 - tune))
    return bounds


def _lower_median(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValueError("no finite potential samples at some level")
    finite = np.sort(finite)
    return float(finite[(finite.size - 1) // 2])


def median_affinities_per_level(data: np.ndarray, betas) -> np.ndarray:
    """``median_affinities`` one level's median and one trapezoid at a time."""
    betas = np.asarray(betas, dtype=float)
    meds = np.array([_lower_median(row) for row in data])
    c = np.zeros(betas.size)
    for i in range(1, betas.size):
        c[i] = c[i - 1] + 0.5 * (meds[i - 1] + meds[i]) * (betas[i] - betas[i - 1])
    return c


def rejections_per_interval(data: np.ndarray, betas, affinities) -> tuple:
    """``estimate_rejections`` one interval, with scalar betas, at a time."""
    betas = np.asarray(betas, dtype=float)
    c = np.asarray(affinities, dtype=float)
    n = betas.size - 1
    r_up = np.empty(n)
    r_down = np.empty(n)
    for i in range(1, n + 1):
        acc_up = acceptance_probability(data[i - 1], betas[i - 1], betas[i], c[i - 1], c[i])
        acc_dn = acceptance_probability(data[i], betas[i], betas[i - 1], c[i], c[i - 1])
        r_up[i - 1] = 1.0 - float(np.mean(acc_up))
        r_down[i - 1] = 1.0 - float(np.mean(acc_dn))
    return r_up, r_down, 0.5 * (r_up + r_down)


def write_traces_csv_per_tour(traces, fileobj) -> None:
    """``write_traces_csv`` from the one-tour tables that iterating a
    ``TourTable`` gives."""
    fileobj.write("tour_id,step,level,direction,v\n")
    for tour_id, trace in enumerate(traces):
        for step, (level, direction, v) in enumerate(zip(trace.levels, trace.directions, trace.v)):
            fileobj.write(f"{tour_id},{step},{level},{direction},{v!r}\n")


def run_tour_exploring_regeneration(model, schedule, variant, max_steps, rng, explorers, *,
                                    h_funcs=()):
    """``run_tour`` with every step, the one into the regeneration set
    included, followed by the new level's kernel."""
    reversible = variant == ST
    n = schedule.n_levels
    betas, c = schedule.betas, schedule.affinities
    t0 = time.thread_time()
    evals0 = model.v_evals.value
    i, e = 0, 1
    x, v = explorers[0](None, None, rng)
    levels, directions, vs = array("i", [0]), array("b", [1]), array("d", [v])
    h_sums = array("d", [0.0] * len(h_funcs))
    for _ in range(max_steps):
        e = (1 if rng.random() < 0.5 else -1) if reversible else e
        j = i + e
        if 0 <= j <= n and rng.random() < acceptance_probability(v, betas[i], betas[j], c[i], c[j]):
            i = j
        elif not reversible:
            e = -e
        x, v = explorers[i](x, v, rng)
        levels.append(i)
        directions.append(e)
        vs.append(v)
        if i == n:
            for m, h in enumerate(h_funcs):
                h_sums[m] += h(x)
        elif i == 0 and (e == -1 or reversible):
            return TourTable(variant, len(h_funcs), levels, directions, vs, array("q", [0]),
                             array("q", [model.v_evals.value - evals0]),
                             array("d", [time.thread_time() - t0]),
                             array("q", [levels.count(n)]), h_sums)
    raise TourOverrunError(max_steps, None)


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation at lags 0..max_lag.

    A zero-variance series returns zeros at every positive lag.
    """
    v = np.asarray(series, dtype=float)
    n = v.size
    c = v - v.mean()
    denom = float(np.dot(c, c))
    out = np.zeros(max_lag + 1)
    out[0] = 1.0
    if denom == 0.0:
        out[0] = 0.0
        return out
    for lag in range(1, min(max_lag, n - 1) + 1):
        out[lag] = float(np.dot(c[:-lag], c[lag:])) / denom
    return out


def steps_from_autocorrelation(kappas, kappa_bar: float) -> int:
    """Smallest lag n >= 1 with kappa(n) <= kappa_bar, capped at
    ``_MAX_EXPLORE_STEPS``.

    Negative estimates are truncated to 0 before thresholding.
    """
    kappas = np.maximum(np.asarray(kappas, dtype=float), 0.0)
    for n in range(1, min(kappas.size - 1, _MAX_EXPLORE_STEPS) + 1):
        if kappas[n] <= kappa_bar:
            return n
    return _MAX_EXPLORE_STEPS
