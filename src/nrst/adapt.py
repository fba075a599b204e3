"""Self-tuning pipeline: grid, affinities, barrier, grid size, convergence.

The tuner bootstraps with non-reversible parallel tempering (deterministic
even/odd swap rounds) to build a dataset of potential samples per level,
estimates level affinities (for the mean-energy strategy, stepping-stone log
normalizing constants with a Bennett acceptance ratio per stone; for the
minimum-rejection strategy, a trapezoid of sample medians), measures
per-interval rejection probabilities, accumulates them into a monotone
barrier function, and inverts the barrier to place the grid at equal
rejection increments.  Rounds double the scan budget until four heuristic
stability indicators are jointly satisfied.  The grid-size restart, to the
N that minimizes the predicted V-evals per unit TE of this sampler's tours,
is decided inside that loop, at the first round whose batch-means standard
error of the barrier pins that N down, so the rounds after it run on the
grid that is kept.  The last two rounds share a grid,
and their two passes pooled decide the last round's restart and give the
schedule.  Each pass also learns per-level slice widths from the moves of
its explorers: a wide bracket for the next pass, a narrower one, cheaper
per unit of tour effectiveness, for the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple

import numpy as np

from .explore import _INITIAL_WIDTH, build_explorers, lag1_autocorrelation, tune_explore_steps
from .model import Schedule, TemperedModel, acceptance_probability

_INIT_DRAW_TRIES = 1000
# Grid-size restarts a tune may make.
_MAX_RESTARTS = 1
# Relative gap between the current grid size and the one a settled round's
# barrier implies above which the tune restarts at the implied size.
_RESTART_MISMATCH = 0.25
# Fewest scans from which a pass's batch-means standard error is computed:
# with fewer, a handful of short batches gives SEs small enough to settle
# the grid size on noise (2-4 scan rounds settled the toy at N=3 or 4).
_MIN_SE_SCANS = 32
# Slice bracket width of a level and coordinate, per unit of the mean |move|
# that the coordinate made in one explorer call of the last pass: in the
# tune's passes, and in the schedule that the tours run.
_WIDTH_PER_MOVE = 16.0
_RUN_WIDTH_PER_MOVE = 6.0
# Stopping thresholds of the four stability indicators: the tune converges
# when every indicator is below its threshold (the asymmetry one only under
# mean-energy affinities).
_MAX_REJECTION_SPREAD = 0.1
_MAX_AFFINITY_CHANGE = 0.005
_MAX_BARRIER_CHANGE = 0.01
_MAX_ASYMMETRY = 0.05
# Halvings of [0, 1] that place a grid point, to within 2^-40 <= 1e-12.
_BISECTIONS = 40
# Bennett solve of a stepping stone (_bennett_root): a row stops once its
# step is at most _BENNETT_TOL * (1 + |root|), or after _BENNETT_ITERATIONS.
_BENNETT_TOL = 1e-10
_BENNETT_ITERATIONS = 100


class InfiniteReferenceError(RuntimeError):
    """No reference draw of a cold start had a finite potential."""


def _finite_reference_draw(model, rng):
    """(x, V(x)) for a reference draw with finite potential, for warm-starting
    level chains; InfiniteReferenceError after ``_INIT_DRAW_TRIES`` draws
    with V = +inf."""
    for _ in range(_INIT_DRAW_TRIES):
        x = model.sample_reference(rng)
        v = model.potential(x)
        if math.isfinite(v):
            return x, v
    raise InfiniteReferenceError(f"all {_INIT_DRAW_TRIES} reference draws had V = +inf, so "
                                 f"no tempered level has a state to start from")


class NrptPass(NamedTuple):
    """One NRPT pass in full (see :func:`run_nrpt`)."""

    data: np.ndarray
    states: list
    ends: np.ndarray
    moves: np.ndarray


def run_nrpt(
    model: TemperedModel,
    schedule: Schedule,
    n_scan: int,
    rng: np.random.Generator,
    *,
    init_states=None,
    full: bool = False,
):
    """Non-reversible parallel tempering over the grid; returns the V samples.

    One scan = one call of every level's kernel from
    :func:`~nrst.explore.build_explorers` (a fresh reference draw at level 0,
    slice sweeps elsewhere) followed by one swap round.  Swap rounds
    alternate deterministically between even pairs (0,1),(2,3),... and odd
    pairs (1,2),(3,4),...; the phase resets to even on every call.  The
    potential of every level is recorded once per scan, after the swap round,
    into an array of shape (N+1, n_scan) whose row i holds level i.

    A state is the pair (x, V(x)) of one level.  ``init_states`` holds one
    per level 0..N (level 0's kernel draws afresh, so its state is never read).
    ``full`` returns an :class:`NrptPass` instead of the bare array.  It
    adds the final states, an array ``ends`` of shape (2, N+1, n_scan) and
    an array ``moves`` of shape (N, dim).  ``ends[0, i, s]`` is the V
    entering level i's kernel in scan s and ``ends[1, i, s]`` the V leaving
    it, at every level (level 0's first entry is its start state's V, NaN
    after a cold start).  ``moves[i - 1, d]`` sums |x_after[d] - x_before[d]|
    over level i's explorer calls, for levels 1..N.  Recording draws nothing.
    """
    if n_scan < 1:
        raise ValueError("n_scan must be >= 1")
    n = schedule.n_levels
    explorers = build_explorers(model, schedule)
    if init_states is None:
        # Level 0's kernel ignores its state, so its V is left unevaluated.
        init_states = [(model.sample_reference(rng), math.nan)]
        init_states += [_finite_reference_draw(model, rng) for _ in range(n)]
    xs = [np.array(x, dtype=float, copy=True) for x, _ in init_states]
    vs = [v for _, v in init_states]
    records = np.empty((n + 1, n_scan))
    ends = np.empty((2, n + 1, n_scan)) if full else None
    moves = np.zeros((n + 1, model.dim))
    betas = schedule.betas
    for scan in range(n_scan):
        if full:
            ends[0, :, scan] = vs
        for i in range(n + 1):
            x, vs[i] = explorers[i](xs[i], vs[i], rng)
            moves[i] += np.abs(x - xs[i])
            xs[i] = x
        if full:
            ends[1, :, scan] = vs
        start = 0 if scan % 2 == 0 else 1
        for i in range(start, n, 2):
            j = i + 1
            # Equal potentials swap without a draw (inf == inf included).
            if vs[i] == vs[j] or rng.random() < acceptance_probability(
                    vs[i] - vs[j], betas[i], betas[j], 0.0, 0.0):
                xs[i], xs[j] = xs[j], xs[i]
                vs[i], vs[j] = vs[j], vs[i]
        records[:, scan] = vs
    if full:
        return NrptPass(records, list(zip(xs, vs)), ends, moves[1:])
    return records


def _bennett_root(h):
    """Row by row, the E at which the mean of tanh(E - h) is 0.

    ``h`` has shape (rows, width), an entry +inf adds -1 to the mean, and in
    every row the finite entries outnumber the infinite ones.  The mean
    rises strictly in E, from <= 0 at the row's smallest entry to >= 0 at
    its largest finite one plus log(width / (finite - infinite entries)) / 2,
    so the root is unique and bracketed.  Newton's method starts at the mean
    of the finite entries, clipped to the bracket; a step that leaves the
    bracket, or meets a zero slope, halves it.  A row stops once its step is
    within ``_BENNETT_TOL`` (relative to 1 + |E|), or after
    ``_BENNETT_ITERATIONS``.  tanh saturates at +-1, so +inf entries raise
    no numpy warning.
    """
    width = h.shape[1]
    finite = np.isfinite(h)
    m = finite.sum(axis=1)
    lo = np.min(h, axis=1)
    hi = np.max(np.where(finite, h, -np.inf), axis=1) + 0.5 * np.log(width / (2 * m - width))
    e = np.clip(np.sum(np.where(finite, h, 0.0), axis=1) / m, lo, hi)
    active = np.ones(e.shape, dtype=bool)
    for _ in range(_BENNETT_ITERATIONS):
        t = e[:, None] - h
        f = np.tanh(t, out=t).sum(axis=1) / width
        slope = 1.0 - np.square(t, out=t).sum(axis=1) / width
        lo = np.where(f < 0.0, e, lo)
        hi = np.where(f > 0.0, e, hi)
        # |f| <= 1, so a zero slope sends the step far out of the bracket.
        newton = e - f / np.maximum(slope, 1e-300)
        step = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.abs(step - e) <= _BENNETT_TOL * (1.0 + np.abs(e))
        e = np.where(active, step, e)
        active &= ~done
        if not active.any():
            break
    return e


def stepping_stone_logz(data: np.ndarray, betas) -> np.ndarray:
    """Log normalizing constants along the grid, anchored at 0 for beta = 0.

    ``data`` has shape (N+1, n_scan); row i holds the potentials of level i.
    Data of shape (batches, N+1, n_scan) gives one path per batch, shape
    (batches, N+1), from one solve over the intervals of every batch; each
    path is bit for bit the one its batch gives alone.

    The stepping stone sums log Z(beta_{i+1}) - log Z(beta_i) over the
    intervals, each estimated from the samples of both its levels by
    Bennett's acceptance ratio (Bennett, J. Comput. Phys. 22, 1976): with
    a = dbeta V at level i and b = dbeta V at level i+1, the increment is
    -D, the root of mean sigma(D - a) = mean sigma(b - D), sigma the
    logistic function (the Barker acceptance of a swap).  As
    sigma(x) = (1 + tanh(x / 2)) / 2, D / 2 is the root that
    :func:`_bennett_root` finds for a / 2 and b / 2 side by side, all
    intervals at once.  A sample V = +inf adds 0 to its side, so where the
    reference puts mass on V = +inf the estimate is still of log Z, not of
    log Z - log P(V < inf).  An interval whose lower-level samples are all
    +inf has no root and takes the backward estimate -log mean exp(b) alone.
    """
    betas = np.asarray(betas, dtype=float)
    if data.shape[-2] != betas.size:
        raise ValueError("dataset and grid sizes disagree")
    n = data.shape[-1]
    db = np.diff(betas)[:, None]
    # One row per interval, batch by batch.
    upper = (db * data[..., 1:, :]).reshape(-1, n)
    h = np.concatenate(((db * data[..., :-1, :]).reshape(-1, n), upper), axis=1)
    h *= 0.5
    solvable = np.isfinite(h).sum(axis=1) > n
    d = np.empty(len(h))
    d[solvable] = 2.0 * _bennett_root(h[solvable])
    if not solvable.all():
        b = upper[~solvable]
        top = np.max(b, axis=1)
        d[~solvable] = top + np.log(np.mean(np.exp(b - top[:, None]), axis=1))
    d = d.reshape(data.shape[:-2] + (len(db),))
    return np.cumsum(np.concatenate((np.zeros(d.shape[:-1] + (1,)), -d), axis=-1), axis=-1)


def mean_energy_affinities(log_z) -> np.ndarray:
    """Affinities c_i = -log Z(beta_i), re-anchored so c_0 = 0."""
    log_z = np.asarray(log_z, dtype=float)
    c = -(log_z - log_z[0])
    c[0] = 0.0
    return c


def median_affinities(data: np.ndarray, betas) -> np.ndarray:
    """Trapezoid of per-level sample medians, anchored at c_0 = 0.

    Row i of ``data``, of shape (N+1, n_scan), holds the potentials of level
    i; its median is the lower median of its finite entries (an even count
    takes the lower middle one).  All rows are sorted at once.
    """
    finite = np.isfinite(data)
    counts = finite.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("no finite potential samples at some level")
    ordered = np.sort(np.where(finite, data, np.inf), axis=1)
    meds = ordered[np.arange(len(data)), (counts - 1) // 2]
    steps = 0.5 * (meds[:-1] + meds[1:]) * np.diff(np.asarray(betas, dtype=float))
    return np.cumsum(np.concatenate(([0.0], steps)))


def estimate_rejections(data: np.ndarray, betas, affinities):
    """Monte Carlo directional and symmetrized rejection probabilities.

    ``data`` has shape (..., N+1, n_scan); row i holds the potentials of
    level i, and each leading index (a batch) gets estimates of shape (N,).

    r_up[i-1] estimates the rejection of the move beta_{i-1} -> beta_i using
    the level i-1 samples, r_down[i-1] the reverse move from the level i
    samples, and r_sym their average.  Each direction is one
    :func:`acceptance_probability` call on an (..., N, n_scan) block of
    samples with (N, 1) columns of betas and affinities.
    """
    b = np.asarray(betas, dtype=float)[:, None]
    c = np.asarray(affinities, dtype=float)[:, None]
    acc_up = acceptance_probability(data[..., :-1, :], b[:-1], b[1:], c[:-1], c[1:])
    acc_dn = acceptance_probability(data[..., 1:, :], b[1:], b[:-1], c[1:], c[:-1])
    r_up = 1.0 - np.mean(acc_up, axis=-1)
    r_down = 1.0 - np.mean(acc_dn, axis=-1)
    return r_up, r_down, 0.5 * (r_up + r_down)


def _fritsch_carlson_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    h = np.diff(x)
    d = np.diff(y) / h
    m = np.empty_like(y)
    m[0] = d[0]
    m[-1] = d[-1]
    m[1:-1] = 0.5 * (d[:-1] + d[1:])
    for k in range(d.size):
        if d[k] == 0.0:
            m[k] = 0.0
            m[k + 1] = 0.0
            continue
        a = m[k] / d[k]
        b = m[k + 1] / d[k]
        s = a * a + b * b
        if s > 9.0:
            t = 3.0 / math.sqrt(s)
            m[k] = t * a * d[k]
            m[k + 1] = t * b * d[k]
    return m


@dataclass(frozen=True)
class BarrierEstimate:
    """Monotone interpolant of the cumulative rejection knots.

    knots_lambda holds the partial sums of the symmetrized rejections with a
    leading 0; ``total`` is the estimated total barrier.  The interpolant is
    the Fritsch-Carlson monotone cubic Hermite one.  On 2 knots both slopes
    are the secant, so it is the line through them.  Called on an array of
    betas, it gives the barrier at each, held constant beyond the knots.
    """

    knots_beta: np.ndarray
    knots_lambda: np.ndarray
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kb = np.asarray(self.knots_beta, dtype=float)
        kl = np.asarray(self.knots_lambda, dtype=float)
        object.__setattr__(self, "knots_beta", kb)
        object.__setattr__(self, "knots_lambda", kl)
        if kb.shape != kl.shape or kb.ndim != 1 or kb.size < 2:
            raise ValueError("knots must be matching 1-d arrays with >= 2 points")
        if np.any(np.diff(kb) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        if np.any(np.diff(kl) < 0):
            raise ValueError("knot ordinates must be non-decreasing")
        if kl[0] != 0.0:
            raise ValueError("barrier must start at 0")
        object.__setattr__(self, "_slopes", _fritsch_carlson_slopes(kb, kl))

    @property
    def total(self) -> float:
        return float(self.knots_lambda[-1])

    def __call__(self, beta):
        kb, kl, m = self.knots_beta, self.knots_lambda, self._slopes
        b = np.clip(np.asarray(beta, dtype=float), kb[0], kb[-1])
        idx = np.clip(np.searchsorted(kb, b, side="right") - 1, 0, kb.size - 2)
        h = kb[idx + 1] - kb[idx]
        t = (b - kb[idx]) / h
        t2 = t * t
        t3 = t2 * t
        return (
            (2 * t3 - 3 * t2 + 1) * kl[idx]
            + (t3 - 2 * t2 + t) * h * m[idx]
            + (-2 * t3 + 3 * t2) * kl[idx + 1]
            + (t3 - t2) * h * m[idx + 1]
        )


def build_barrier(r_sym, betas) -> BarrierEstimate:
    """Barrier estimate from symmetrized rejections: knots are partial sums."""
    r = np.asarray(r_sym, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if r.size != betas.size - 1:
        raise ValueError("need one rejection estimate per grid interval")
    knots = np.concatenate([[0.0], np.cumsum(np.maximum(r, 0.0))])
    return BarrierEstimate(betas.copy(), knots)


def optimize_grid(barrier: BarrierEstimate, n_levels: int) -> np.ndarray:
    """Grid placing equal barrier increments: beta_i solves L(beta) = (i/N) L.

    One bisection of [0, 1], ``_BISECTIONS`` halvings long, places all
    interior points at once; a zero barrier degenerates to the uniform grid.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if barrier.total <= 0.0:
        return np.linspace(0.0, 1.0, n_levels + 1)
    targets = (np.arange(1, n_levels) / n_levels) * barrier.total
    lo = np.zeros(n_levels - 1)
    # After k halvings the bracket is [lo, lo + 2^-k]; every value here is a
    # multiple of 2^-41 in [0, 1], so each sum is exact.
    for k in range(1, _BISECTIONS + 1):
        mid = lo + 0.5**k
        lo = np.where(barrier(mid) < targets, mid, lo)
    betas = np.concatenate(([0.0], lo + 0.5 ** (_BISECTIONS + 1), [1.0]))
    # Plateaus in the interpolant can collide interior points; keep the grid
    # strictly increasing.
    for i in range(1, n_levels):
        if betas[i] <= betas[i - 1]:
            betas[i] = betas[i - 1] + 1e-12
    return betas


class PassEstimates(NamedTuple):
    """What one pass (or two pooled) gives; the convergence check compares
    two of these."""

    affinities: np.ndarray
    log_z: np.ndarray | None  # None under median affinities
    rejections: tuple  # (r_up, r_down, r_sym)
    barrier: BarrierEstimate


def _safe_ratio(num: float, denom: float) -> float:
    # Relative change, falling back to absolute change when the reference
    # value vanishes (e.g. log Z(1) = 0 by construction).
    if abs(denom) > 1e-12:
        return num / abs(denom)
    return num


def equi_rejection_indicators(r_up, r_down, r_sym) -> tuple:
    """(std/mean of r_sym, mean |r_down - r_up| / mean r_sym)."""
    rbar = float(np.mean(r_sym))
    if rbar <= 0.0:
        return 0.0, 0.0
    spread = float(np.std(r_sym)) / rbar
    asym = float(np.mean(np.abs(np.asarray(r_down) - np.asarray(r_up)))) / rbar
    return spread, asym


def check_convergence(old: PassEstimates, new: PassEstimates, affinity_mode: str) -> tuple:
    """Joint stability check; returns (converged, indicator dict).

    Converged means every indicator is below its module threshold: rejection
    spread < ``_MAX_REJECTION_SPREAD``, relative change of the top affinity
    < ``_MAX_AFFINITY_CHANGE`` and of the barrier < ``_MAX_BARRIER_CHANGE``,
    and directional asymmetry < ``_MAX_ASYMMETRY``.  The asymmetry indicator
    applies only under the mean-energy affinity strategy, where up/down
    rejections should agree.
    """
    if old is None:
        raise ValueError("convergence is undefined on the first round")
    r_up, r_down, r_sym = new.rejections
    ind_r, ind_d = equi_rejection_indicators(r_up, r_down, r_sym)
    ind_c = _safe_ratio(
        abs(float(new.affinities[-1]) - float(old.affinities[-1])),
        float(old.affinities[-1]),
    )
    ind_l = _safe_ratio(abs(new.barrier.total - old.barrier.total), old.barrier.total)
    indicators = {"rejection_spread": ind_r, "affinity_change": ind_c,
                  "barrier_change": ind_l, "directional_asymmetry": ind_d}
    converged = (
        ind_r < _MAX_REJECTION_SPREAD
        and ind_c < _MAX_AFFINITY_CHANGE
        and ind_l < _MAX_BARRIER_CHANGE
        and (affinity_mode != "mean" or ind_d < _MAX_ASYMMETRY)
    )
    return converged, indicators


@dataclass
class AdaptResult:
    schedule: Schedule
    barrier: BarrierEstimate
    lambda_hat: float
    converged: bool
    rounds: list
    rejections: tuple
    final_indicators: dict
    restarts: int
    # The passes that gave the schedule and what they predict of its tours.
    prediction: dict
    log_z: np.ndarray | None = None
    # V-evals of the step-tuning chains; with the rounds' they sum to the tune's.
    step_tuning_v_evals: int = 0


def _counting_v_evals(model, call, *args, **kwargs):
    """(call(*args, **kwargs), the V-evals it made through ``model``)."""
    evals0 = model.v_evals.value
    out = call(*args, **kwargs)
    return out, model.v_evals.value - evals0


def _widths_from_moves(moves, n_scan, per_move):
    """Slice bracket widths from a pass's summed moves: ``per_move`` times
    each level's and coordinate's mean |move| per explorer call, and
    ``_INITIAL_WIDTH`` where that mean is 0 or not finite.

    The move is the conditional scale the sampler sees; the spread of the
    states is not used, since a heavy-tailed marginal (e.g. a Cauchy mean)
    makes it far wider than the slice.  The tune's passes take
    ``_WIDTH_PER_MOVE``: a bracket much narrower than the slice moves x by a
    third of its width on average, so it grows ~5x per round until it
    covers the slice.  The schedule, which the tours run at, takes
    ``_RUN_WIDTH_PER_MOVE``: a bracket that covers the slice costs fewer
    shrinks the narrower it is, and on a 1-d Gaussian the sampler's
    effective samples of x^2 per V-eval peak at 5.4-7.1x its mean |move|
    (the README gives V-evals per unit TE at 4x to 16x)."""
    widths = per_move * (np.asarray(moves, dtype=float) / n_scan)
    widths[~(np.isfinite(widths) & (widths > 0.0))] = _INITIAL_WIDTH
    return widths


def _carry_widths(widths, old_betas, new_betas):
    """Widths for levels 1..N of a new grid, linear in beta between those of
    the old grid's levels 1..N and constant beyond them."""
    old = np.asarray(old_betas, dtype=float)[1:]
    return np.column_stack([np.interp(new_betas[1:], old, w) for w in widths.T])


def _batches(data: np.ndarray):
    """The last axis of ``data`` (a pass's scans) split into
    b = 2^floor(log2(n_scan) / 2) consecutive batches of equal length: a
    contiguous array of shape (b, ..., n_scan // b).  None below
    ``_MIN_SE_SCANS`` scans."""
    n_scan = data.shape[-1]
    if n_scan < _MIN_SE_SCANS:
        return None
    b = 2 ** (int(math.log2(n_scan)) // 2)
    split = data[..., :b * (n_scan // b)].reshape(data.shape[:-1] + (b, -1))
    return np.ascontiguousarray(np.moveaxis(split, -2, 0))


def _batch_means_se(values):
    """sd / sqrt(b) of the b batch values along axis 0, each entry's summed
    as one contiguous row (Flegal & Jones, Ann. Statist. 2010)."""
    values = np.ascontiguousarray(np.moveaxis(values, 0, -1))
    return np.std(values, axis=-1, ddof=1) / math.sqrt(values.shape[-1])


def _pass_ses(data, betas, affinities) -> tuple:
    """Batch-means SEs of a pass's lambda_hat (the mean of per-scan sums,
    as ``affinities`` are held fixed) and of its log Z(1), each from one
    estimate over all :func:`_batches`; (None, None) where there are none."""
    batches = _batches(data)
    if batches is None:
        return None, None
    lambda_hats = np.sum(estimate_rejections(batches, betas, affinities)[2], axis=-1)
    log_z1 = stepping_stone_logz(batches, betas)[:, -1]
    return float(_batch_means_se(lambda_hats)), float(_batch_means_se(log_z1))


def _run_kappa1_upper(ends, per_move) -> np.ndarray:
    """Upper bounds on kappa(1) of the run's kernel at N levels, whose widths
    are ``per_move`` times the mean move, from the tune's kernel's (V in,
    V out) pairs ``ends``, of shape (2, N, n_scan).

    The tune's bound is kappa(1) plus 2 batch-means SEs (+inf below
    ``_MIN_SE_SCANS`` scans).  A bracket that covers the slice draws
    uniformly from it at any width, and one narrower moves x diffusively, so
    1 - kappa(1) falls with the square of the bracket: the run's,
    ``per_move / _WIDTH_PER_MOVE`` of the tune's, leaves that ratio squared."""
    batches = _batches(ends)
    if batches is None:
        return np.full(ends.shape[1], math.inf)
    tune = lag1_autocorrelation(*ends) + 2.0 * _batch_means_se(
        lag1_autocorrelation(batches[:, 0], batches[:, 1]))
    return 1.0 - (per_move / _WIDTH_PER_MOVE) ** 2 * (1.0 - tune)


def _v_evals_per_call(rounds) -> float:
    """c-bar: V-evals per explorer call at a tempered level, over the passes
    of ``rounds`` (log entries on one grid of N levels), each of whose scans
    also drew once at level 0 for 1 V-eval."""
    scans = sum(r["n_scan"] for r in rounds)
    v_evals = sum(r["v_evals"] for r in rounds)
    return (v_evals - scans) / (rounds[0]["n_levels"] * scans)


def _v_evals_per_tour(n_levels, cost_per_call) -> float:
    """Predicted V-evals of an NRST tour on N levels: it draws once at level
    0 and visits each tempered level about twice (Kac), 1 + 2 N c-bar."""
    return 1.0 + 2.0 * n_levels * cost_per_call


def _inverse_te(n_levels, lambda_total) -> float:
    """1 / TE of the index chain whose N rejections all equal Lambda / N,
    1 + 2 Lambda / (1 - Lambda / N); +inf where every move is rejected."""
    slack = 1.0 - lambda_total / n_levels
    return 1.0 + 2.0 * lambda_total / slack if slack > 0.0 else math.inf


def _tour_cost_per_te(n_levels, lambda_total, cost_per_call) -> float:
    """Predicted V-evals per unit TE of NRST tours on N equi-rejection levels."""
    return _v_evals_per_tour(n_levels, cost_per_call) * _inverse_te(n_levels, lambda_total)


def _grid_size(lambda_total: float, cost_per_call: float) -> int:
    """The grid size a tune restarts at: the integer N >= 2, N > Lambda,
    that minimizes :func:`_tour_cost_per_te`.

    With u = N - Lambda the cost is a + b u + e / u (b, e > 0), convex in u
    and least at u = Lambda sqrt((1 + 2 c Lambda) / (c (1 + 2 Lambda))), so
    the integer minimizer is the floor or the ceiling of Lambda + u.  At
    c = 1/2 the cost is criterion 7's, 2 (N + 1) / TE, and Lambda + u is the
    paper's N*."""
    u = lambda_total * math.sqrt((1.0 + 2.0 * cost_per_call * lambda_total)
                                 / (cost_per_call * (1.0 + 2.0 * lambda_total)))
    n_min = max(2, math.floor(lambda_total) + 1)
    candidates = sorted({max(n_min, math.floor(lambda_total + u)),
                         max(n_min, math.ceil(lambda_total + u))})
    return min(candidates, key=lambda n: _tour_cost_per_te(n, lambda_total, cost_per_call))


def _grid_size_settled(lambda_hat, lambda_se, cost_per_call) -> bool:
    """Whether ``_grid_size`` gives one N across lambda_hat +- 2 SE."""
    if lambda_se is None or not lambda_hat - 2.0 * lambda_se > 0.0:
        return False
    return (_grid_size(lambda_hat - 2.0 * lambda_se, cost_per_call)
            == _grid_size(lambda_hat + 2.0 * lambda_se, cost_per_call))


def _remap_states(states, old_betas, new_betas):
    """Warm states for a new grid: new level i >= 1 takes the state of the
    old level >= 1 nearest in beta.  The level-0 state, which is redrawn
    before use and may have V = +inf, never moves to a level above 0."""
    old = np.asarray(old_betas, dtype=float)[1:]
    idx = [0] + [1 + int(np.argmin(np.abs(old - b))) for b in new_betas[1:]]
    return [states[j] for j in idx]


def _pass_estimates(data, betas, affinity_mode) -> PassEstimates:
    """A pass's estimates, from its data."""
    if affinity_mode == "mean":
        log_z = stepping_stone_logz(data, betas)
        affinities = mean_energy_affinities(log_z)
    else:
        log_z, affinities = None, median_affinities(data, betas)
    rejections = estimate_rejections(data, betas, affinities)
    return PassEstimates(affinities, log_z, rejections, build_barrier(rejections[2], betas))


def _pool(first: NrptPass, second: NrptPass) -> NrptPass:
    """Two passes on one grid, the second warm-started from the first, as
    one pass over the scans of both."""
    return NrptPass(np.concatenate([first.data, second.data], axis=1), second.states,
                    np.concatenate([first.ends, second.ends], axis=2), first.moves + second.moves)


def adapt(
    model: TemperedModel,
    n_levels_initial: int,
    max_rounds: int,
    affinity_mode: str = "mean",
    *,
    rng: np.random.Generator,
) -> AdaptResult:
    """Full tuning loop: doubling NRPT budget until the indicators stabilize.

    Starts from the uniform grid and doubles the scan count each round
    until convergence or exhaustion of ``max_rounds``; every NRPT pass of
    the tune is one round, logged in ``rounds``.  A round converges
    when :func:`check_convergence` finds every stability indicator, against
    the round before on the same grid, below its module threshold.  Each
    round records its pass's V-evals as ``v_evals`` and batch-means
    standard errors of its ``lambda_hat`` (affinities held fixed) and of its
    log Z(1) as ``lambda_se`` and ``logz_se`` (None below ``_MIN_SE_SCANS``
    scans).  The grid size N = :func:`_grid_size` of lambda_hat, the
    integer N that minimizes the predicted V-evals per unit TE of tours at
    the deciding pass's V-evals per tempered-level explorer call
    (:func:`_v_evals_per_call`), is settled at the first round where it is
    the same at lambda_hat - 2 SE > 0 and at lambda_hat + 2 SE, or else at
    the last round (the cap binds or the round converged).  If a
    settled N differs from the current one by more than
    ``_RESTART_MISMATCH`` (relative), the tune restarts at N, at most
    ``_MAX_RESTARTS`` times.  A restart keeps the scan count and the warm
    chain states, remapped from the grid that round ran on, and goes on
    with the rounds that are left: ``max_rounds`` caps the rounds of the
    whole tune, across restarts, except that a restart at the last round is
    followed by one more round on the new grid (at twice the scans, as
    every next round).

    Every round but the last two re-places the grid from its barrier, so
    the last two share a grid.  The last round's pass is pooled with the
    pass before it when that one ran on the same grid (a round that
    converges before the cap, or follows a restart, is used alone), and
    the pooled pass decides the last round's restart, so that one round's
    noise does not place the kept grid.  The schedule (betas, affinities,
    widths) comes from it, as do ``barrier``, ``lambda_hat``, ``log_z``,
    ``rejections`` and ``final_indicators``.  ``prediction`` records the
    passes that gave the schedule and what they predict of its tours, at
    the schedule's N and lambda_hat: ``rounds``, their round numbers (one,
    or the last two pooled); ``v_evals_per_call``, their c-bar;
    ``v_evals_per_tour``, ``te`` and ``v_evals_per_te``, the cost that
    :func:`_grid_size` minimizes.  Nothing else decides which passes those
    are.

    Every pass also learns each level's slice widths
    (:func:`_widths_from_moves`).  The first round explores at 1.0
    everywhere; each later pass, restarts included, uses the widths of the
    pass before at ``_WIDTH_PER_MOVE``, interpolated linearly in beta onto
    its grid.  The schedule's widths are ``_RUN_WIDTH_PER_MOVE`` times the
    moves of the passes that give the schedule: the run's bracket, not the
    tune's.  Where round 1's pass, at the initial width, is one of them
    (1 in ``prediction["rounds"]``), they are ``_WIDTH_PER_MOVE`` times
    their moves, as for a next round.

    Exploration step counts are tuned last, for the run's kernel.  In the
    schedule's passes every level's chain is stationary for its tempered
    law, so the (V before, V after) pairs of its explorer calls bound the
    lag-1 autocorrelation of the tune's kernel and, through the ratio of
    the brackets, of the run's (:func:`_run_kappa1_upper`, all levels in
    one call).  :func:`tune_explore_steps` runs a chain,
    at the schedule's widths, only at the levels whose run bound exceeds
    ``explore._KAPPA_BAR``, from the last pass's final states.
    ``step_tuning_v_evals`` counts their V-evals, which with the rounds'
    ``v_evals`` sum to the tune's.  Every argument is checked before the
    first pass.
    """
    if not (n_levels_initial >= 1 and float(n_levels_initial).is_integer()):
        raise ValueError(f"n_levels_initial must be a whole number >= 1, "
                         f"got {n_levels_initial!r}")
    if not (max_rounds >= 1 and float(max_rounds).is_integer()):
        raise ValueError(f"max_rounds must be a whole number >= 1, got {max_rounds!r}")
    if affinity_mode not in ("mean", "median"):
        raise ValueError("affinity_mode must be 'mean' or 'median'")

    n = int(n_levels_initial)
    betas = np.linspace(0.0, 1.0, n + 1)
    states = widths = prev = None
    held = None  # the pass before, when it ran on the current grid
    rounds_log = []
    restarts = 0
    n_scan = 1
    converged = False

    for round_idx in count(1):  # until a last round that does not restart
        n_scan *= 2
        # The round's pass, at the widths and from the states that the pass
        # before left (round 1: width 1.0 and a cold start).
        sched = Schedule(betas, np.zeros(n + 1), np.ones(n, dtype=int), widths)
        nrpt, pass_v_evals = _counting_v_evals(model, run_nrpt, model, sched, n_scan, rng,
                                               init_states=states, full=True)
        states = nrpt.states
        current = _pass_estimates(nrpt.data, betas, affinity_mode)
        affinities = current.affinities
        lambda_se, logz_se = _pass_ses(nrpt.data, betas, affinities)
        indicators = None
        if prev is not None:
            converged, indicators = check_convergence(prev, current, affinity_mode)
        rounds_log.append({"round": round_idx, "n_scan": n_scan, "n_levels": n,
                           "v_evals": pass_v_evals, "lambda_hat": current.barrier.total,
                           "lambda_se": lambda_se, "logz_se": logz_se,
                           "affinity_top": float(affinities[-1]),
                           "indicators": indicators, "converged": converged})
        prev = current

        # The restart is decided on the grid this round ran on, as soon as
        # the round's noise pins the implied size down, or at the last
        # round: no NRPT pass is spent at a size about to go.
        last_round = converged or round_idx >= max_rounds
        deciding = rounds_log[-1:]
        if last_round and held is not None:
            # The last two rounds share a grid: their passes pooled decide
            # the restart and, if there is none, give the schedule.
            nrpt = _pool(held, nrpt)
            current = _pass_estimates(nrpt.data, betas, affinity_mode)
            deciding = rounds_log[-2:]
        barrier = current.barrier
        cost_per_call = _v_evals_per_call(deciding)
        n_target = n
        if (restarts < _MAX_RESTARTS and barrier.total > 0.0 and (
                last_round or _grid_size_settled(barrier.total, lambda_se, cost_per_call))):
            n_target = _grid_size(barrier.total, cost_per_call)
        old_betas = betas
        if abs(n - n_target) / n > _RESTART_MISMATCH:
            restarts += 1
            n = n_target
            betas = optimize_grid(barrier, n)
            states = _remap_states(states, old_betas, betas)
            converged = False
            prev = None
        elif last_round:
            break
        elif round_idx < max_rounds - 1 and barrier.total > 0.0:
            # The last two rounds share a grid, so that the schedule comes
            # from the passes of both.
            betas = optimize_grid(barrier, n)
        widths = _carry_widths(
            _widths_from_moves(nrpt.moves, nrpt.data.shape[1], _WIDTH_PER_MOVE),
            old_betas, betas)
        held = nrpt if betas is old_betas else None

    affinities, log_z, rejections, barrier = current
    prediction = {"rounds": [r["round"] for r in deciding], "v_evals_per_call": cost_per_call,
                  "v_evals_per_tour": _v_evals_per_tour(n, cost_per_call),
                  "te": 1.0 / _inverse_te(n, barrier.total),
                  "v_evals_per_te": _tour_cost_per_te(n, barrier.total, cost_per_call)}
    # Round 1's pass explores at the initial width, where each move is as
    # long as the bracket lets it be, not as the slice: a schedule that it
    # helps give keeps the tune's bracket.
    per_move = _WIDTH_PER_MOVE if 1 in prediction["rounds"] else _RUN_WIDTH_PER_MOVE
    widths = _widths_from_moves(nrpt.moves, nrpt.data.shape[1], per_move)
    spread, asym = equi_rejection_indicators(*rejections)
    kappa1 = _run_kappa1_upper(nrpt.ends[:, 1:], per_move)
    tuning_sched = Schedule(betas, affinities, np.ones(n, dtype=int), widths)
    explore_steps, step_tuning_v_evals = _counting_v_evals(
        model, tune_explore_steps, model, tuning_sched, rng,
        init_states=nrpt.states, kappa1=kappa1)
    return AdaptResult(
        schedule=Schedule(betas, affinities, explore_steps, widths),
        barrier=barrier, lambda_hat=barrier.total, converged=converged,
        rounds=rounds_log, rejections=rejections,
        final_indicators={"rejection_spread": spread, "directional_asymmetry": asym},
        restarts=restarts, prediction=prediction, log_z=log_z,
        step_tuning_v_evals=step_tuning_v_evals,
    )
