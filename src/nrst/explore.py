"""Exploration kernels: slice sampling within Gibbs and step-count tuning.

One exploration kernel per tempering level, each leaving its tempered
distribution invariant.  Slice sampling is valid at any bracket width, which
is what makes it usable inside a tuning loop whose grid moves every round;
the width only sets the cost.  Each level has its own starting width per
coordinate, from ``Schedule.widths`` (the tuner learns them from its NRPT
passes), and 1.0 where a schedule carries none.  The step-out budget is a
module constant.  The number of self-compositions per level is chosen from
the lag-n autocorrelation of the potential series.  Kernels take the
potential V of their start point and return V of their end point with it,
so no caller spends a V-eval where a sweep already holds the value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import Schedule, TemperedModel, log_tempered_density_from_v

# Shrinkage intervals narrower than this indicate a numerically degenerate
# target (e.g. a point mass) rather than a slice that is still being located.
_MIN_SLICE_WIDTH = 1e-300
# Starting bracket width of a coordinate that has no learned width: every
# level of a schedule without widths, and the first round of a tune.
_INITIAL_WIDTH = 1.0
# Stepping-out budget: _MAX_DOUBLINGS - 1 step-outs of the starting width
# per coordinate, split at random between the two sides.
_MAX_DOUBLINGS = 20
# Cap on the exploration steps a level can be given.
_MAX_EXPLORE_STEPS = 64


class SliceNumericalError(RuntimeError):
    """Slice shrinkage collapsed or stalled, or the start had no density."""


def _slice_coordinate(x, d, logp, density, rng, w):
    """One slice update of coordinate d in place, from a bracket of width w.

    Returns the (log density, V) pair that ``density`` gave at the new point.
    """
    x0 = float(x[d])
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    y = logp + math.log(u)

    r = rng.random()
    left = x0 - w * r
    right = left + w
    # Randomized step-out budget keeps the truncated interval reversible.
    j = int(math.floor(_MAX_DOUBLINGS * rng.random()))
    k = (_MAX_DOUBLINGS - 1) - j
    x[d] = left
    while j > 0 and density(x)[0] > y:
        left -= w
        x[d] = left
        j -= 1
    x[d] = right
    while k > 0 and density(x)[0] > y:
        right += w
        x[d] = right
        k -= 1

    while True:
        if right - left < _MIN_SLICE_WIDTH:
            raise SliceNumericalError(
                f"slice interval collapsed below {_MIN_SLICE_WIDTH} at coordinate {d}"
            )
        x1 = left + (right - left) * rng.random()
        x[d] = x1
        lp, v = density(x)
        if lp > y:
            return lp, v
        if x1 < x0:
            left = x1
        else:
            right = x1
        if not math.nextafter(left, right) < right:  # y rounds to logp at |logp| ~1e16
            raise SliceNumericalError(f"slice bracket [{left!r}, {right!r}] at coordinate {d} "
                                      f"can no longer shrink below level {y!r}")


class Sweep(NamedTuple):
    """End of a slice sweep: the new point, its log density and its V."""

    x: np.ndarray
    logp: float
    v: float

    @property
    def size(self) -> int:
        """Number of coordinates the sweep updated."""
        return self.x.size


def slice_step(x, logp: float, density, rng: np.random.Generator, widths) -> Sweep:
    """One sweep of coordinate-wise slice sampling (fixed ascending scan).

    ``density(x)`` returns the pair (log density, V) at x, and ``logp`` is the
    log density at the start point, which the caller already holds: the
    sweep evaluates nothing there.  ``widths[d]`` is the starting bracket
    width of coordinate d.  The returned V is the one ``density`` gave at
    the accepted point of the last coordinate, i.e. at the new point.  The
    sweep leaves the log density invariant, whatever the widths.
    """
    x = np.array(x, dtype=float, copy=True)
    if not math.isfinite(logp):
        raise SliceNumericalError(f"log density not finite at the initial point: {logp}")
    for d in range(x.size):
        logp, v = _slice_coordinate(x, d, logp, density, rng, widths[d])
    return Sweep(x, logp, v)


class ExplorationKernel:
    """Slice-within-Gibbs kernel for one tempering level with beta > 0.

    Immutable configuration; callable as kernel(x, v, rng) -> (x', v'),
    where v = V(x) is carried in and v' = V(x') comes out of the last sweep,
    so neither end point costs a V-eval.  Applies ``n_steps`` full sweeps
    per call.  ``widths`` holds the starting bracket width of each of the
    model's coordinates (``_INITIAL_WIDTH`` for all when None); the step-out
    budget is the module constant ``_MAX_DOUBLINGS``.
    """

    def __init__(self, model: TemperedModel, beta: float, n_steps: int = 1, widths=None):
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {beta}")
        if widths is None:
            widths = np.full(model.dim, _INITIAL_WIDTH)
        widths = np.asarray(widths, dtype=float)
        if widths.shape != (model.dim,):
            raise ValueError(f"widths must hold one entry per coordinate ({model.dim}), "
                             f"got shape {widths.shape}")
        self.model = model
        self.beta = float(beta)
        self.n_steps = int(n_steps)
        # Python floats keep the bracket arithmetic off numpy scalars.
        self.widths = tuple(float(w) for w in widths)

    def density(self, x) -> tuple:
        """(log pi_beta(x), V(x)), at the cost of one V-eval."""
        logref = self.model.log_reference(x)
        v = self.model.potential(x)
        return log_tempered_density_from_v(x, logref, v, self.beta), v

    def __call__(self, x, v, rng):
        logp = log_tempered_density_from_v(x, self.model.log_reference(x), v, self.beta)
        for _ in range(self.n_steps):
            x, logp, v = slice_step(x, logp, self.density, rng, self.widths)
        return x, v


def _level_widths(schedule: Schedule, i: int):
    """Row of starting widths of level i >= 1, or None for the default."""
    return None if schedule.widths is None else schedule.widths[i - 1]


def build_explorers(model: TemperedModel, schedule: Schedule) -> list:
    """Kernels for levels 1..N (index 0 unused: the reference is drawn i.i.d.).

    Raises ValueError when a row of ``schedule.widths`` does not hold one
    width per coordinate of ``model``.
    """
    kernels = [None]
    for i in range(1, schedule.n_levels + 1):
        kernels.append(ExplorationKernel(
            model, schedule.betas[i], int(schedule.explore_steps[i - 1]),
            _level_widths(schedule, i),
        ))
    return kernels


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


def lag1_autocorrelation(v_in, v_out) -> float:
    """Lag-1 autocorrelation of V from the (V before, V after) pairs of
    single sweeps started from stationary draws.

    The biased estimator of :func:`autocorrelation`, with both ends of a
    pair taken from the same law: centred on the pooled mean, scaled by the
    pooled sum of squares.  Zero variance returns 0.
    """
    a = np.asarray(v_in, dtype=float)
    b = np.asarray(v_out, dtype=float)
    m = 0.5 * (a.mean() + b.mean())
    ca, cb = a - m, b - m
    denom = 0.5 * (float(np.dot(ca, ca)) + float(np.dot(cb, cb)))
    if denom == 0.0:
        return 0.0
    return float(np.dot(ca, cb)) / denom


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


def tune_explore_steps(
    model: TemperedModel,
    schedule: Schedule,
    kappa_bar: float,
    chain_len: int,
    rng: np.random.Generator,
    *,
    init_states,
    kappa1,
) -> np.ndarray:
    """Per-level exploration step counts from the V autocorrelation.

    ``kappa1`` holds, per level 1..N, an upper bound on the lag-1
    autocorrelation kappa(1) of V from stationary draws (see
    :func:`adapt.adapt`).  A level whose bound is <= ``kappa_bar`` gets 1
    step and runs no chain.  Every other level runs a single-sweep slice
    chain of length ``chain_len``, at the schedule's widths, from its warm
    state in ``init_states`` (one (x, V(x)) per level 0..N), estimates the
    lag-n autocorrelation of the V series and gets the smallest n that
    brings it at or below ``kappa_bar``, capped at ``_MAX_EXPLORE_STEPS``.
    Levels use independent spawned rng streams, so a level's count does not
    depend on which other levels run their chain.
    """
    if not 0.0 < kappa_bar < 1.0:
        raise ValueError("kappa_bar must lie in (0, 1)")
    if chain_len < 2:
        raise ValueError("chain_len must be >= 2")
    n = schedule.n_levels
    streams = rng.spawn(n)
    steps = np.ones(n, dtype=int)
    for i in range(1, n + 1):
        if kappa1[i - 1] <= kappa_bar:
            continue
        level_rng = streams[i - 1]
        kernel = ExplorationKernel(model, schedule.betas[i], 1, _level_widths(schedule, i))
        x, v = init_states[i]
        vs = np.empty(chain_len)
        for t in range(chain_len):
            x, v = kernel(x, v, level_rng)
            vs[t] = v
        kappas = autocorrelation(vs, _MAX_EXPLORE_STEPS)
        steps[i - 1] = steps_from_autocorrelation(kappas, kappa_bar)
    return steps
