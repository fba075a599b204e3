"""Self-tuning pipeline: grid, affinities, barrier, grid size, convergence.

The tuner bootstraps with non-reversible parallel tempering (deterministic
even/odd swap rounds) to build a dataset of potential samples per level,
estimates level affinities (stepping-stone log normalizing constants for the
mean-energy strategy, trapezoid of sample medians for the minimum-rejection
strategy), measures per-interval rejection probabilities, accumulates them
into a monotone barrier function, and inverts the barrier to place the grid
at equal rejection increments.  Rounds double the scan budget until four
heuristic stability indicators are jointly satisfied.  The grid-size
restart is decided inside that loop, at the first round whose batch-means
standard error of the barrier pins the implied grid size down, so the rounds
after it run on the grid that is kept.  The last two rounds share a grid,
and the schedule comes from their two passes pooled.  Each pass also learns
per-level slice widths from the moves of its explorers, for the next pass
and for the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .explore import _INITIAL_WIDTH, build_explorers, lag1_autocorrelation, tune_explore_steps
from .model import DivergedPotentialError, Schedule, TemperedModel, acceptance_probability

_INIT_DRAW_TRIES = 1000
# Relative gap between the current grid size and the one a settled round's
# barrier implies above which the tune restarts at the implied size.
_RESTART_MISMATCH = 0.25
# Fewest scans from which a pass's batch-means standard error is computed:
# with fewer, a handful of short batches gives SEs small enough to settle
# the grid size on noise (2-4 scan rounds settled the toy at N=3 or 4).
_MIN_SE_SCANS = 32
# Starting slice width of a level and coordinate, per unit of the mean
# |move| that the coordinate made in one explorer call of the last pass.
_WIDTH_PER_MOVE = 2.0
# Stopping thresholds of the four stability indicators: the tune converges
# when every indicator is below its threshold (the asymmetry one only under
# mean-energy affinities).
_MAX_REJECTION_SPREAD = 0.1
_MAX_AFFINITY_CHANGE = 0.005
_MAX_BARRIER_CHANGE = 0.01
_MAX_ASYMMETRY = 0.05


@dataclass(frozen=True)
class VDataset:
    """Per-level sequences of potential samples {V_n^(i)}, i = 0..N.

    Entries may be +inf at the reference level (zero-likelihood prior
    draws); NaN and -inf are rejected.
    """

    levels: tuple

    def __post_init__(self):
        levels = tuple(np.asarray(v, dtype=float) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise ValueError("need at least two levels")
        for i, v in enumerate(levels):
            if v.ndim != 1 or v.size < 1:
                raise ValueError(f"level {i} must hold at least one sample")
            if np.any(np.isnan(v)) or np.any(v == -np.inf):
                raise ValueError(f"level {i} contains NaN or -inf potentials")

    @property
    def n_levels(self) -> int:
        return len(self.levels) - 1

    def __getitem__(self, i):
        return self.levels[i]


def _finite_reference_draw(model, rng):
    """(x, V(x)) for a reference draw with finite potential, for warm-starting
    level chains."""
    for _ in range(_INIT_DRAW_TRIES):
        x = model.sample_reference(rng)
        v = model.potential(x)
        if math.isfinite(v):
            return x, v
    raise DivergedPotentialError(x, v)


class NrptPass(NamedTuple):
    """One NRPT pass in full (see :func:`run_nrpt`)."""

    data: VDataset
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
    """Non-reversible parallel tempering over the grid; returns the V dataset.

    One scan = an exploration pass on every chain (a fresh reference draw at
    level 0, slice sweeps elsewhere) followed by one swap round.  Swap rounds
    alternate deterministically between even pairs (0,1),(2,3),... and odd
    pairs (1,2),(3,4),...; the phase resets to even on every call.  The
    potential of every level is recorded once per scan, after the swap round.

    A state is the pair (x, V(x)) of one level.  ``init_states`` holds one
    per level 0..N (the level-0 state is redrawn before it is used).
    ``full`` returns an :class:`NrptPass` instead of the bare dataset.  It
    adds the final states, an array ``ends`` of shape (2, N+1, n_scan) and
    an array ``moves`` of shape (N, dim).  ``ends[0, i, s]`` is the V
    entering level i's exploration in scan s and ``ends[1, i, s]`` the V
    leaving it (at level 0, the fresh draw twice).  ``moves[i - 1, d]`` sums
    |x_after[d] - x_before[d]| over level i's explorer calls.  Recording
    draws nothing.
    """
    if n_scan < 1:
        raise ValueError("n_scan must be >= 1")
    n = schedule.n_levels
    explorers = build_explorers(model, schedule)
    if init_states is None:
        # Level 0 is redrawn at the start of every scan; its V is never read.
        init_states = [(model.sample_reference(rng), math.nan)]
        init_states += [_finite_reference_draw(model, rng) for _ in range(n)]
    xs = [np.array(x, dtype=float, copy=True) for x, _ in init_states]
    vs = [v for _, v in init_states]
    records = np.empty((n + 1, n_scan))
    ends = np.empty((2, n + 1, n_scan)) if full else None
    moves = np.zeros((n, model.dim))
    betas = schedule.betas
    for scan in range(n_scan):
        xs[0] = model.sample_reference(rng)
        vs[0] = model.potential(xs[0])
        if full:
            ends[0, :, scan] = vs
        for i in range(1, n + 1):
            x, vs[i] = explorers[i](xs[i], vs[i], rng)
            moves[i - 1] += np.abs(x - xs[i])
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
    data = VDataset(tuple(records))
    if full:
        return NrptPass(data, list(zip(xs, vs)), ends, moves)
    return data


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if m == -np.inf:
        return -math.inf
    return float(m + np.log(np.sum(np.exp(a - m))))


def stepping_stone_logz(data: VDataset, betas) -> np.ndarray:
    """Log normalizing constants along the grid, anchored at 0 for beta = 0.

    Averages the forward and backward stepping-stone estimators in log space
    and accumulates the per-interval log ratios in one pass over the data.
    When every lower-level sample of an interval is V = +inf (reference
    draws of zero likelihood), the forward estimate is -inf and carries no
    information: the interval then takes the backward estimate alone.
    """
    betas = np.asarray(betas, dtype=float)
    n = betas.size - 1
    if data.n_levels != n:
        raise ValueError("dataset and grid sizes disagree")
    logz = np.zeros(n + 1)
    for i in range(1, n + 1):
        db = betas[i] - betas[i - 1]
        lo, hi = data[i - 1], data[i]
        forward = -math.log(lo.size) + _logsumexp(-db * lo)
        backward = math.log(hi.size) - _logsumexp(db * hi)
        step = 0.5 * (forward + backward) if math.isfinite(forward) else backward
        logz[i] = logz[i - 1] + step
    return logz


def mean_energy_affinities(log_z) -> np.ndarray:
    """Affinities c_i = -log Z(beta_i), re-anchored so c_0 = 0."""
    log_z = np.asarray(log_z, dtype=float)
    c = -(log_z - log_z[0])
    c[0] = 0.0
    return c


def _lower_median(values: np.ndarray) -> float:
    """Lower sample median of the finite entries (even counts take the lower)."""
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValueError("no finite potential samples at some level")
    finite = np.sort(finite)
    return float(finite[(finite.size - 1) // 2])


def median_affinities(data: VDataset, betas) -> np.ndarray:
    """Trapezoid of per-level sample medians, anchored at c_0 = 0."""
    betas = np.asarray(betas, dtype=float)
    meds = np.array([_lower_median(data[i]) for i in range(data.n_levels + 1)])
    c = np.zeros(betas.size)
    for i in range(1, betas.size):
        c[i] = c[i - 1] + 0.5 * (meds[i - 1] + meds[i]) * (betas[i] - betas[i - 1])
    return c


def estimate_rejections(data: VDataset, betas, affinities):
    """Monte Carlo directional and symmetrized rejection probabilities.

    r_up[i-1] estimates the rejection of the move beta_{i-1} -> beta_i using
    the level i-1 samples, r_down[i-1] the reverse move from the level i
    samples, and r_sym their average.
    """
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
    r_sym = 0.5 * (r_up + r_down)
    return r_up, r_down, r_sym


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
    are the secant, so it is the line through them.
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
        beta = np.asarray(beta, dtype=float)
        scalar = beta.ndim == 0
        b = np.clip(np.atleast_1d(beta), self.knots_beta[0], self.knots_beta[-1])
        kb, kl, m = self.knots_beta, self.knots_lambda, self._slopes
        idx = np.clip(np.searchsorted(kb, b, side="right") - 1, 0, kb.size - 2)
        h = kb[idx + 1] - kb[idx]
        t = (b - kb[idx]) / h
        t2 = t * t
        t3 = t2 * t
        out = (
            (2 * t3 - 3 * t2 + 1) * kl[idx]
            + (t3 - 2 * t2 + t) * h * m[idx]
            + (-2 * t3 + 3 * t2) * kl[idx + 1]
            + (t3 - t2) * h * m[idx + 1]
        )
        return float(out[0]) if scalar else out


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

    Interior points are found by bisection; a zero barrier degenerates to the
    uniform grid.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
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
    # Plateaus in the interpolant can collide interior points; keep the grid
    # strictly increasing.
    for i in range(1, n_levels):
        if betas[i] <= betas[i - 1]:
            betas[i] = betas[i - 1] + 1e-12
    return betas


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


@dataclass(frozen=True)
class RoundState:
    """Quantities compared across rounds by the convergence check."""

    affinities: np.ndarray
    barrier: BarrierEstimate
    rejections: tuple  # (r_up, r_down, r_sym)


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


def check_convergence(old: RoundState, new: RoundState, affinity_mode: str) -> tuple:
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
    affinity_mode: str
    n_scan_final: int
    restarts: int
    log_z: np.ndarray | None = None


def _widths_from_moves(moves, n_scan):
    """Starting slice widths from a pass's summed moves: ``_WIDTH_PER_MOVE``
    times each level's and coordinate's mean |move| per explorer call, and
    ``_INITIAL_WIDTH`` where that mean is 0 or not finite."""
    widths = _WIDTH_PER_MOVE * (np.asarray(moves, dtype=float) / n_scan)
    widths[~(np.isfinite(widths) & (widths > 0.0))] = _INITIAL_WIDTH
    return widths


def _carry_widths(widths, old_betas, new_betas):
    """Widths for levels 1..N of a new grid, linear in beta between those of
    the old grid's levels 1..N and constant beyond them."""
    old = np.asarray(old_betas, dtype=float)[1:]
    return np.column_stack([np.interp(new_betas[1:], old, w) for w in widths.T])


def _batch_se(data: VDataset, stat):
    """Batch-means standard error of ``stat`` over a pass's scans.

    Splits the scans into b = 2^floor(log2(n_scan) / 2) consecutive batches
    of equal length (every scan when n_scan is a power of two), evaluates
    ``stat`` on each batch's dataset and returns sd(batch values) / sqrt(b)
    (Flegal & Jones, Ann. Statist. 2010).  None below ``_MIN_SE_SCANS``
    scans.
    """
    n_scan = data[0].size
    if n_scan < _MIN_SE_SCANS:
        return None
    b = 2 ** (int(math.log2(n_scan)) // 2)
    size = n_scan // b
    values = [
        stat(VDataset(tuple(level[k * size:(k + 1) * size] for level in data.levels)))
        for k in range(b)
    ]
    return float(np.std(values, ddof=1)) / math.sqrt(b)


def _kappa1_upper(v_in, v_out) -> float:
    """kappa(1) from a level's (V in, V out) pairs plus 2 batch-means SEs
    over its scans; +inf below ``_MIN_SE_SCANS`` scans."""
    se = _batch_se(VDataset((v_in, v_out)), lambda d: lag1_autocorrelation(*d.levels))
    return math.inf if se is None else lag1_autocorrelation(v_in, v_out) + 2.0 * se


def _grid_size_settled(lambda_hat, lambda_se, gamma) -> bool:
    """Whether ``optimal_grid_size`` gives one N across lambda_hat +- 2 SE."""
    if lambda_se is None or not lambda_hat - 2.0 * lambda_se > 0.0:
        return False
    return (optimal_grid_size(lambda_hat - 2.0 * lambda_se, gamma)
            == optimal_grid_size(lambda_hat + 2.0 * lambda_se, gamma))


def _remap_states(states, old_betas, new_betas):
    """Warm states for a new grid: new level i >= 1 takes the state of the
    old level >= 1 nearest in beta.  The level-0 state, which is redrawn
    before use and may have V = +inf, never moves to a level above 0."""
    old = np.asarray(old_betas, dtype=float)[1:]
    idx = [0] + [1 + int(np.argmin(np.abs(old - b))) for b in new_betas[1:]]
    return [states[j] for j in idx]


def _tuning_pass(model, betas, widths, n_scan, rng, states) -> NrptPass:
    """One NRPT pass on ``betas`` from the starting ``widths`` and warm ``states``."""
    n = betas.size - 1
    sched = Schedule(betas, np.zeros(n + 1), np.ones(n, dtype=int), widths)
    return run_nrpt(model, sched, n_scan, rng, init_states=states, full=True)


def _pass_estimates(data, betas, affinity_mode) -> tuple:
    """(affinities, log Z or None, rejections, barrier) from a pass's data."""
    if affinity_mode == "mean":
        log_z = stepping_stone_logz(data, betas)
        affinities = mean_energy_affinities(log_z)
    elif affinity_mode == "median":
        log_z, affinities = None, median_affinities(data, betas)
    else:
        raise ValueError("affinity_mode must be 'mean' or 'median'")
    rejections = estimate_rejections(data, betas, affinities)
    return affinities, log_z, rejections, build_barrier(rejections[2], betas)


def _pool(first: NrptPass, second: NrptPass) -> NrptPass:
    """Two passes on one grid, the second warm-started from the first, as
    one pass over the scans of both."""
    data = VDataset(tuple(map(np.concatenate, zip(first.data.levels, second.data.levels))))
    return NrptPass(data, second.states, np.concatenate([first.ends, second.ends], axis=2),
                    first.moves + second.moves)


def adapt(
    model: TemperedModel,
    n_levels_initial: int,
    max_rounds: int,
    affinity_mode: str = "mean",
    gamma: float = 2.0,
    kappa_bar: float = 0.95,
    rng: np.random.Generator | None = None,
    *,
    chain_len: int = 512,
    max_restarts: int = 1,
) -> AdaptResult:
    """Full tuning loop: doubling NRPT budget until the indicators stabilize.

    Starts from the uniform grid and doubles the scan count each round
    until convergence or exhaustion of ``max_rounds``.  A round converges
    when :func:`check_convergence` finds every stability indicator, against
    the round before on the same grid, below its module threshold.  Each
    round records batch-means standard errors of its ``lambda_hat``
    (affinities held fixed) and of its log Z(1) as ``lambda_se`` and
    ``logz_se`` (None below ``_MIN_SE_SCANS`` scans).  The grid size N = ``optimal_grid_size``
    (lambda_hat, gamma) is settled at the first round where it is the same
    at lambda_hat - 2 SE > 0 and at lambda_hat + 2 SE, or else at the last
    round (the cap binds or the round converged).  If a settled N differs
    from the current one by more than 25% (relative), the tune restarts at
    N (at most ``max_restarts`` times).  A restart keeps the scan count and
    the warm chain states, remapped from the grid that round ran on, and
    goes on with the rounds that are left: ``max_rounds`` caps the rounds of
    the whole tune, across restarts.

    Every round but the last two re-places the grid from its barrier, so
    the last two share a grid.  The schedule (betas, affinities, widths)
    comes from the last round's pass pooled with the pass before it when
    that one ran on the same grid (a round that converges before the cap,
    or follows a restart, is used alone), as do ``barrier``,
    ``lambda_hat``, ``log_z``, ``rejections`` and ``final_indicators``.
    ``n_scan_final`` is the last round's scan count.  Only if the last
    round restarts does one more pass, of as many scans, run on the new
    grid for them to come from.

    Every pass also learns each level's starting slice width per coordinate:
    ``_WIDTH_PER_MOVE`` times the mean |move| of that coordinate in one
    explorer call, 1.0 where that mean is 0 or not finite.  The move is the
    conditional scale the sampler sees; the spread of the states is not
    used, since a heavy-tailed marginal (e.g. a Cauchy mean) makes it far
    wider than the slice.  The first round explores at 1.0 everywhere.
    Each later pass, restarts included, uses the widths of the pass before,
    interpolated linearly in beta onto its grid.

    Exploration step counts are tuned last.  In the schedule's passes every
    level's chain is stationary for its tempered law, so the pairs (V
    before, V after) of its explorer calls give its lag-1 autocorrelation
    kappa(1).  :func:`tune_explore_steps` gets these bounds, kappa(1) plus 2
    batch-means SEs per level, with the last pass's final states: a level
    whose bound is <= ``kappa_bar`` gets 1 step at no V-eval cost, and every
    other level runs a chain of ``chain_len`` sweeps warm-started from its
    state.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if rng is None:
        rng = np.random.default_rng()

    n = int(n_levels_initial)
    betas = np.linspace(0.0, 1.0, n + 1)
    states = widths = prev = None
    held = None  # the pass before, when it ran on the current grid
    rounds_log = []
    restarts = 0
    n_scan = 1
    converged = False

    for round_idx in range(1, max_rounds + 1):
        n_scan *= 2
        nrpt = _tuning_pass(model, betas, widths, n_scan, rng, states)
        states = nrpt.states
        affinities, _, rejections, barrier = _pass_estimates(nrpt.data, betas, affinity_mode)
        # With the affinities held fixed, lambda_hat is the mean of per-scan
        # sums, so batch means applies to it directly.
        lambda_se = _batch_se(
            nrpt.data, lambda d: float(np.sum(estimate_rejections(d, betas, affinities)[2])))
        logz_se = _batch_se(nrpt.data, lambda d: float(stepping_stone_logz(d, betas)[-1]))
        current = RoundState(affinities, barrier, rejections)
        indicators = None
        if prev is not None:
            converged, indicators = check_convergence(prev, current, affinity_mode)
        rounds_log.append({"round": round_idx, "n_scan": n_scan, "n_levels": n,
                           "lambda_hat": barrier.total, "lambda_se": lambda_se,
                           "logz_se": logz_se, "affinity_top": float(affinities[-1]),
                           "indicators": indicators, "converged": converged})
        prev = current

        # The restart is decided on the grid this round ran on, as soon as
        # the round's noise pins the implied size down, or at the last
        # round: no NRPT pass is spent at a size about to go.
        last_round = converged or round_idx == max_rounds
        n_target = n
        if (restarts < max_restarts and barrier.total > 0.0
                and (last_round or _grid_size_settled(barrier.total, lambda_se, gamma))):
            n_target = optimal_grid_size(barrier.total, gamma)
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
        widths = _carry_widths(_widths_from_moves(nrpt.moves, n_scan), old_betas, betas)
        held = nrpt if betas is old_betas else None
    else:
        # The last round restarted, so no pass has run at the new size.
        nrpt = _tuning_pass(model, betas, widths, n_scan, rng, states)

    final = nrpt if held is None else _pool(held, nrpt)
    affinities, log_z, rejections, barrier = _pass_estimates(final.data, betas, affinity_mode)
    widths = _widths_from_moves(final.moves, final.data[0].size)
    spread, asym = equi_rejection_indicators(*rejections)
    kappa1 = [_kappa1_upper(final.ends[0, i], final.ends[1, i]) for i in range(1, n + 1)]
    tuning_sched = Schedule(betas, affinities, np.ones(n, dtype=int), widths)
    explore_steps = tune_explore_steps(model, tuning_sched, kappa_bar, chain_len, rng,
                                       init_states=final.states, kappa1=kappa1)
    return AdaptResult(
        schedule=Schedule(betas, affinities, explore_steps, widths),
        barrier=barrier, lambda_hat=barrier.total, converged=converged,
        rounds=rounds_log, rejections=rejections,
        final_indicators={"rejection_spread": spread, "directional_asymmetry": asym},
        affinity_mode=affinity_mode, n_scan_final=n_scan, restarts=restarts,
        log_z=log_z,
    )
