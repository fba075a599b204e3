"""Exploration kernels: slice sampling within Gibbs and step-count tuning.

One exploration kernel per tempering level 0..N, each leaving its tempered
distribution invariant.  Level 0's is a fresh i.i.d. reference draw, which
is what makes tours regenerate: it runs once per tour, at its start (a tour
ends at the move into the regeneration set, with no kernel after it), and
once per NRPT scan.  Every other level's is slice sampling within Gibbs.
Each coordinate update shrinks one bracket of its level's width, placed at
random around the current point and never stepped out, so each proposal
costs one V-eval.  That is valid at any width, which makes it usable
inside a tuning loop whose grid moves every round: a bracket too narrow for
the slice costs mixing, one too wide costs shrinks.  Widths come from
``Schedule.widths``, 1.0 where a schedule carries none.  The tuner learns
them from each level's mean move: its own passes explore at 16x that move,
so that a narrow bracket grows fast, and the schedule carries 6x, which
the tours run at for fewer V-evals per unit of tour effectiveness.  The
number of self-compositions per level is the smallest lag n at which the
autocorrelation of the potential series falls to ``_KAPPA_BAR``, read from
a chain of ``_CHAIN_LEN`` sweeps at the schedule's widths at the levels
that need one.  Kernels take the potential V of their start point and
return V of their end point with it, so no caller spends a V-eval where a
sweep already holds the value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import Schedule, TemperedModel, log_tempered_density_from_v

# Shrinkage intervals narrower than this indicate a numerically degenerate
# target (e.g. a point mass) rather than a slice that is still being located.
_MIN_SLICE_WIDTH = 1e-300
# Bracket width of a coordinate that has no learned width: every level of
# a schedule without widths, and the first round of a tune.
_INITIAL_WIDTH = 1.0
# Cap on the exploration steps a level can be given.
_MAX_EXPLORE_STEPS = 64
# Largest lag-n autocorrelation of V that n exploration steps may leave.
_KAPPA_BAR = 0.95
# Sweeps of the chain that sets a level's exploration steps.
_CHAIN_LEN = 512


class SliceNumericalError(RuntimeError):
    """Slice shrinkage collapsed or stalled, or the start had no density."""


def _slice_coordinate(x, d, logp, density, rng, w):
    """One slice update of coordinate d in place, in a bracket of width w.

    Returns the (log density, V) pair that ``density`` gave at the new point.
    """
    x0 = float(x[d])
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    y = logp + math.log(u)
    # Neal's (2003, section 4) stepping out with a budget of m = 1: no step,
    # so no endpoint is evaluated.
    left = x0 - w * rng.random()
    right = left + w
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
    sweep evaluates nothing there.  ``widths[d]`` is the bracket width of
    coordinate d; every V-eval is at a proposal.  The returned V is the one
    ``density`` gave at the new point (the last coordinate's accepted one).
    The sweep leaves the log density invariant, whatever the widths.
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
    per call.  ``widths`` holds the bracket width of each of the model's
    coordinates (``_INITIAL_WIDTH`` for all when None).
    """

    def __init__(self, model: TemperedModel, beta: float, n_steps: int = 1, widths=None):
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {beta}")
        if not (n_steps >= 1 and float(n_steps).is_integer()):
            raise ValueError(f"n_steps must be a whole number >= 1, got {n_steps!r}")
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


class ReferenceDraw:
    """Level 0's kernel, callable as kernel(x, v, rng) -> (x', v'): a fresh
    reference draw and its V (one V-eval), whatever x and v it is given."""

    def __init__(self, model: TemperedModel):
        self.model = model

    def __call__(self, x, v, rng):
        x = self.model.sample_reference(rng)
        return x, self.model.potential(x)


def _level_widths(schedule: Schedule, i: int):
    """Row of bracket widths of level i >= 1, or None for the default."""
    return None if schedule.widths is None else schedule.widths[i - 1]


def build_explorers(model: TemperedModel, schedule: Schedule) -> list:
    """Kernels for levels 0..N: a :class:`ReferenceDraw` at level 0, an
    :class:`ExplorationKernel` at each level i >= 1.

    Raises ValueError when a row of ``schedule.widths`` does not hold one
    width per coordinate of ``model``.
    """
    kernels = [ReferenceDraw(model)]
    for i in range(1, schedule.n_levels + 1):
        kernels.append(ExplorationKernel(
            model, schedule.betas[i], int(schedule.explore_steps[i - 1]),
            _level_widths(schedule, i),
        ))
    return kernels


def lag1_autocorrelation(v_in, v_out) -> float:
    """Lag-1 autocorrelation of V from the (V before, V after) pairs of
    single sweeps started from stationary draws.

    The biased estimator of :func:`_lag_walk`, with both ends of a
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


def _lag_walk(series) -> int:
    """Smallest lag n >= 1 at which the biased sample autocorrelation of
    ``series``, a negative one read as 0, is <= ``_KAPPA_BAR``, walking up
    to ``_MAX_EXPLORE_STEPS`` and returning it when no lag qualifies.

    The autocorrelation is 0 at every lag of a zero-variance series and at
    every lag >= the series length, so those series stop there.
    """
    c = np.asarray(series, dtype=float)
    c = c - c.mean()
    denom = float(np.dot(c, c))
    for lag in range(1, _MAX_EXPLORE_STEPS + 1):
        kappa = float(np.dot(c[:-lag], c[lag:])) / denom if lag < c.size and denom else 0.0
        if max(kappa, 0.0) <= _KAPPA_BAR:
            return lag
    return _MAX_EXPLORE_STEPS


def tune_explore_steps(
    model: TemperedModel,
    schedule: Schedule,
    rng: np.random.Generator,
    *,
    init_states,
    kappa1,
) -> np.ndarray:
    """Per-level exploration step counts from the V autocorrelation.

    ``kappa1`` holds, per level 1..N, an upper bound on the lag-1
    autocorrelation kappa(1) of V under one sweep at the schedule's widths,
    from stationary draws (see :func:`adapt.adapt`).  A level whose bound is <= ``_KAPPA_BAR`` gets 1
    step and runs no chain.  Every other level runs a single-sweep slice
    chain of length ``_CHAIN_LEN``, at the schedule's widths, from its warm
    state in ``init_states`` (one (x, V(x)) per level 0..N), estimates the
    lag-n autocorrelation of the V series and gets the smallest n that
    brings it at or below ``_KAPPA_BAR``, capped at ``_MAX_EXPLORE_STEPS``.
    Levels use independent spawned rng streams, so a level's count does not
    depend on which other levels run their chain.
    """
    n = schedule.n_levels
    streams = rng.spawn(n)
    steps = np.ones(n, dtype=int)
    for i in range(1, n + 1):
        if kappa1[i - 1] <= _KAPPA_BAR:
            continue
        level_rng = streams[i - 1]
        kernel = ExplorationKernel(model, schedule.betas[i], 1, _level_widths(schedule, i))
        x, v = init_states[i]
        vs = np.empty(_CHAIN_LEN)
        for t in range(_CHAIN_LEN):
            x, v = kernel(x, v, level_rng)
            vs[t] = v
        steps[i - 1] = _lag_walk(vs)
    return steps
