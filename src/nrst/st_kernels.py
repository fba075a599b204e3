"""Lifted tempering kernels, tour execution, and the idealized index process.

The two kernels differ in two rules only.  The non-reversible kernel keeps
its direction and flips it when a move is rejected or leaves the grid; the
reversible baseline draws a fresh direction at every step.  One step routine
runs both.  Both share the regeneration structure: tours start from a fresh
reference draw and end at the regeneration set (level 0 moving down for the
non-reversible kernel, any return to level 0 for the reversible one), so
tours are i.i.d. and trivially parallel.

The module also implements the idealized index process: the finite Markov
chain obtained when the potential mixes perfectly within one exploration
step.  Its closed-form tour effectiveness and a fast vectorized tour
simulator serve as oracles for each other.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .explore import build_explorers
from .model import Schedule, TemperedModel, acceptance_probability

NRST = "nrst"
ST = "st"
_VARIANTS = (NRST, ST)
# Bound on the steps of the index-process simulator, which steps all its
# tours together until the last one regenerates.
_INDEX_MAX_STEPS = 10**6


class TourOverrunError(RuntimeError):
    """A tour failed to reach the regeneration set within max_steps.

    The partial trace is attached as ``.trace``.
    """

    def __init__(self, max_steps, trace):
        super().__init__(f"tour did not regenerate within {max_steps} steps")
        self.max_steps = max_steps
        self.trace = trace

    def __reduce__(self):
        # The state carries what callers attach, e.g. the runner's tour_index.
        return (TourOverrunError, (self.max_steps, self.trace), self.__dict__)


@dataclass(frozen=True)
class ChainState:
    """Lifted chain state (x, level, direction)."""

    x: np.ndarray
    level: int
    direction: int

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ValueError(f"direction must be -1 or +1, got {self.direction}")
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")


@dataclass(slots=True)
class TourTrace:
    """One regeneration tour, as three columns with one entry per state:
    ``levels`` (``array('i')``), ``directions`` (``array('b')``) and ``v``
    (``array('d')``, the potential).  The first state is the fresh reference
    draw at (level 0, direction +1), the last the regeneration state.
    ``n_steps`` is the number of kernel applications, one less than the tour
    length in states, ``tour_length``.  ``h_top_sums[m]`` (``array('d')``)
    sums the m-th test function over the states at the top level, the only
    states where the tour evaluates it.  ``cpu_seconds`` is the CPU time of
    the thread that ran the tour (``time.thread_time``), not wall time.
    """

    levels: array
    directions: array
    v: array
    n_levels: int
    variant: str
    v_evals: int
    cpu_seconds: float
    h_top_sums: array

    @property
    def n_steps(self) -> int:
        return len(self.levels) - 1

    @property
    def tour_length(self) -> int:
        return len(self.levels)

    @property
    def visits_top(self) -> int:
        return self.levels.count(self.n_levels)

    def validate(self) -> None:
        levels, directions = self.levels, self.directions
        if (levels[0], directions[0]) != (0, 1):
            raise AssertionError("tour must start at (level 0, direction +1)")
        if self.variant == NRST:
            if (levels[-1], directions[-1]) != (0, -1):
                raise AssertionError("tour must end at the regeneration state (0, -1)")
            if any(i == 0 and e == -1 for i, e in zip(levels[1:-1], directions[1:-1])):
                raise AssertionError("regeneration state visited before the end")
        else:
            if levels[-1] != 0:
                raise AssertionError("reversible tour must end at level 0")
            if 0 in levels[1:-1]:
                raise AssertionError("level 0 visited before the end")


@dataclass(slots=True)
class TourTable:
    """A run's tours in tour order, as flat columns.

    ``levels``, ``directions`` and ``v`` hold the states of all tours back to
    back, with :class:`TourTrace`'s typecodes; tour j's states run from
    ``starts[j]`` up to the next tour's start (or the end).  ``v_evals``,
    ``cpu_seconds`` and ``visits_top`` hold one entry per tour, and
    ``h_top_sums`` holds ``n_h`` per tour, tour by tour.  That is ~13 bytes
    per state and 32 + 8 ``n_h`` per tour, whatever the tour count.
    Indexing or iterating builds a :class:`TourTrace` of one tour, with
    copies of its slices.
    """

    n_levels: int
    variant: str
    n_h: int
    levels: array = field(default_factory=lambda: array("i"))
    directions: array = field(default_factory=lambda: array("b"))
    v: array = field(default_factory=lambda: array("d"))
    starts: array = field(default_factory=lambda: array("q"))
    v_evals: array = field(default_factory=lambda: array("q"))
    cpu_seconds: array = field(default_factory=lambda: array("d"))
    visits_top: array = field(default_factory=lambda: array("q"))
    h_top_sums: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, j: int) -> TourTrace:
        j = range(len(self))[j]
        a = self.starts[j]
        b = self.starts[j + 1] if j + 1 < len(self) else len(self.levels)
        m = self.n_h
        return TourTrace(self.levels[a:b], self.directions[a:b], self.v[a:b], self.n_levels,
                         self.variant, self.v_evals[j], self.cpu_seconds[j],
                         self.h_top_sums[j * m:(j + 1) * m])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def n_steps(self) -> np.ndarray:
        """Kernel applications per tour (tour length in states minus 1)."""
        return np.diff(np.asarray(self.starts), append=len(self.levels)) - 1

    def append(self, trace: TourTrace) -> None:
        self.starts.append(len(self.levels))
        self.levels.extend(trace.levels)
        self.directions.extend(trace.directions)
        self.v.extend(trace.v)
        self.v_evals.append(trace.v_evals)
        self.cpu_seconds.append(trace.cpu_seconds)
        self.visits_top.append(trace.visits_top)
        self.h_top_sums.extend(trace.h_top_sums)

    def extend(self, other: "TourTable") -> None:
        """Append ``other``'s tours after this table's."""
        offset = len(self.levels)
        self.starts.extend(s + offset for s in other.starts)
        for name in ("levels", "directions", "v", "v_evals", "cpu_seconds", "visits_top",
                     "h_top_sums"):
            getattr(self, name).extend(getattr(other, name))


def _explore(model, explorers, x, v, level, rng):
    """Exploration at ``level``: a fresh reference draw at level 0, else the
    level's explorer.  Returns the new point and its potential."""
    if level > 0:
        return explorers[level](x, v, rng)
    x = model.sample_reference(rng)
    return x, model.potential(x)


def _step(state, model, schedule, explorers, rng, v, reversible):
    """One step of either kernel: a tempering move, then exploration.

    The reversible kernel first draws its direction (up if
    ``rng.random() < 0.5``); the non-reversible one keeps ``state.direction``.
    A proposal inside the grid draws one uniform and is accepted if it falls
    below :func:`acceptance_probability`; a proposal off the grid draws
    nothing and is rejected.  On rejection the non-reversible kernel flips
    its direction; the reversible one records the drawn direction either way
    (bookkeeping only).  ``v`` is the potential of state.x; the step returns
    the new state and the potential of its point, so a driver chains steps
    without re-evaluating V.
    """
    i = state.level
    eps = (1 if rng.random() < 0.5 else -1) if reversible else state.direction
    j = i + eps
    if 0 <= j <= schedule.n_levels and rng.random() < acceptance_probability(
        v, schedule.betas[i], schedule.betas[j], schedule.affinities[i], schedule.affinities[j]
    ):
        i = j
    elif not reversible:
        eps = -eps
    x, v = _explore(model, explorers, state.x, v, i, rng)
    return ChainState(x, i, eps), v


def nrst_step(state: ChainState, model: TemperedModel, schedule: Schedule, explorers,
              rng: np.random.Generator, *, v: float):
    """One non-reversible step; see :func:`_step`."""
    return _step(state, model, schedule, explorers, rng, v, False)


def st_step(state: ChainState, model: TemperedModel, schedule: Schedule, explorers,
            rng: np.random.Generator, *, v: float):
    """One reversible step; see :func:`_step`."""
    return _step(state, model, schedule, explorers, rng, v, True)


def run_tour(
    model: TemperedModel,
    schedule: Schedule,
    kernel_variant: str,
    max_steps: int,
    rng: np.random.Generator,
    *,
    explorers=None,
    h_funcs=(),
) -> TourTrace:
    """Run one regeneration tour and record its trace.

    Starts from a fresh reference draw at (level 0, direction +1), iterates
    kernel steps until the regeneration set is reached, and raises
    :class:`TourOverrunError` (carrying the partial trace) if that takes more
    than ``max_steps`` steps.  Each of ``h_funcs`` is evaluated at the
    top-level states only and summed into ``h_top_sums``.
    """
    if kernel_variant not in _VARIANTS:
        raise ValueError(f"kernel_variant must be one of {_VARIANTS}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if explorers is None:
        explorers = build_explorers(model, schedule)
    n = schedule.n_levels
    t0 = time.thread_time()
    evals0 = model.v_evals.value
    # Looked up from the module at call time, so a wrapper bound to either
    # name sees every step.
    step = st_step if kernel_variant == ST else nrst_step

    state = ChainState(model.sample_reference(rng), 0, 1)
    v = model.potential(state.x)
    levels, directions, vs = array("i", [0]), array("b", [1]), array("d", [v])
    h_sums = array("d", [0.0] * len(h_funcs))

    def trace():
        return TourTrace(levels, directions, vs, n, kernel_variant, model.v_evals.value - evals0,
                         time.thread_time() - t0, h_sums)

    for _ in range(max_steps):
        state, v = step(state, model, schedule, explorers, rng, v=v)
        levels.append(state.level)
        directions.append(state.direction)
        vs.append(v)
        if state.level == n:
            for m, h in enumerate(h_funcs):
                h_sums[m] += h(state.x)
        elif state.level == 0 and (kernel_variant == ST or state.direction == -1):
            return trace()
    raise TourOverrunError(max_steps, trace())


def write_traces_csv(traces, fileobj) -> None:
    """One row per state: tour_id, step, then the trace's three columns
    level, direction and v (written with ``repr``, so it reads back exactly)."""
    fileobj.write("tour_id,step,level,direction,v\n")
    for tour_id, trace in enumerate(traces):
        for step, (level, direction, v) in enumerate(zip(trace.levels, trace.directions, trace.v)):
            fileobj.write(f"{tour_id},{step},{level},{direction},{v!r}\n")


# ---------------------------------------------------------------------------
# Idealized index process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealIndexChain:
    """Rejection probabilities of the idealized (perfectly mixing) index chain.

    rej_up[i] is the rejection probability of the move i -> i+1 for
    i = 0..N-1; rej_down[i-1] that of i -> i-1 for i = 1..N.  Boundary
    bounces are implicit forced rejections.
    """

    rej_up: np.ndarray
    rej_down: np.ndarray

    def __post_init__(self):
        up = np.asarray(self.rej_up, dtype=float)
        down = np.asarray(self.rej_down, dtype=float)
        object.__setattr__(self, "rej_up", up)
        object.__setattr__(self, "rej_down", down)
        if up.shape != down.shape or up.ndim != 1 or up.size < 1:
            raise ValueError("rej_up and rej_down must be 1-d arrays of equal length >= 1")
        for name, arr in (("rej_up", up), ("rej_down", down)):
            if np.any(arr < 0) or np.any(arr >= 1) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must lie in [0, 1)")

    @property
    def n_levels(self) -> int:
        return self.rej_up.size

    @classmethod
    def symmetric(cls, rhos) -> "IdealIndexChain":
        """Chain with symmetric per-interval rejections rho_1..rho_N."""
        rhos = np.asarray(rhos, dtype=float)
        return cls(rhos.copy(), rhos.copy())

    def symmetrized(self) -> np.ndarray:
        """rho_i = (rho_{i-1,i} + rho_{i,i-1}) / 2 for i = 1..N."""
        return 0.5 * (self.rej_up + self.rej_down)


def ideal_te(chain: IdealIndexChain, variant: str) -> float:
    """Closed-form tour effectiveness of the idealized chain.

    With symmetric rejections rho_i, the non-reversible kernel attains
    1 / (1 + 2 sum rho_i/(1-rho_i)) while the reversible one attains
    1 / (4N - 1 + 4 sum rho_i/(1-rho_i)).
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    rho = chain.symmetrized()
    if np.any(rho >= 1):
        raise ValueError("symmetrized rejections must be < 1")
    s = float(np.sum(rho / (1.0 - rho)))
    n = chain.n_levels
    if variant == NRST:
        return 1.0 / (1.0 + 2.0 * s)
    return 1.0 / (4.0 * n - 1.0 + 4.0 * s)


def simulate_index_tours(chain: IdealIndexChain, variant: str, n_tours: int,
                         rng: np.random.Generator):
    """Simulate regeneration tours of the idealized index chain.

    Returns (steps, visits_top, parity_sums) arrays of length n_tours, where
    steps counts kernel applications per tour (the tour length in states is
    steps + 1 for the non-reversible variant, which starts one step past the
    regeneration set, and steps for the reversible one, which starts at it),
    and parity_sums holds the per-tour count of odd-numbered top-level
    visits, a bounded test function used by the regenerative variance
    estimators.  A tour still running after ``_INDEX_MAX_STEPS`` steps
    raises :class:`TourOverrunError`.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    if n_tours < 1:
        raise ValueError("n_tours must be >= 1")
    n = chain.n_levels
    alpha_up = np.zeros(n + 1)
    alpha_up[:n] = 1.0 - chain.rej_up
    alpha_dn = np.zeros(n + 1)
    alpha_dn[1:] = 1.0 - chain.rej_down

    i = np.zeros(n_tours, dtype=np.int64)
    e = np.ones(n_tours, dtype=np.int64)
    steps = np.zeros(n_tours, dtype=np.int64)
    visits = np.zeros(n_tours, dtype=np.int64)
    sodd = np.zeros(n_tours, dtype=np.int64)
    out_steps = np.zeros(n_tours, dtype=np.int64)
    out_visits = np.zeros(n_tours, dtype=np.int64)
    out_sodd = np.zeros(n_tours, dtype=np.int64)
    alive = np.arange(n_tours)

    it = 0
    while alive.size:
        it += 1
        if it > _INDEX_MAX_STEPS:
            raise TourOverrunError(_INDEX_MAX_STEPS, None)
        m = alive.size
        u = rng.random(m)
        if variant == NRST:
            p = np.where(e > 0, alpha_up[i], alpha_dn[i])
            acc = u < p
            i = i + np.where(acc, e, 0)
            e = np.where(acc, e, -e)
        else:
            d = np.where(rng.random(m) < 0.5, 1, -1)
            p = np.where(d > 0, alpha_up[i], alpha_dn[i])
            acc = u < p
            i = i + np.where(acc, d, 0)
            e = d
        steps += 1
        at_top = i == n
        visits += at_top
        sodd += at_top & (visits % 2 == 1)
        if variant == NRST:
            done = (i == 0) & (e == -1)
        else:
            done = i == 0
        if np.any(done):
            idx = alive[done]
            out_steps[idx] = steps[done]
            out_visits[idx] = visits[done]
            out_sodd[idx] = sodd[done]
            keep = ~done
            alive = alive[keep]
            i = i[keep]
            e = e[keep]
            steps = steps[keep]
            visits = visits[keep]
            sodd = sodd[keep]

    return out_steps, out_visits, out_sodd
