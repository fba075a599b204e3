"""Lifted tempering kernels, tour execution, and the idealized index process.

The two kernels differ in two rules only.  The non-reversible kernel keeps
its direction and flips it when a move is rejected or leaves the grid; the
reversible baseline draws a fresh direction at every step.  One step routine
runs both: a tempering move, then the new level's exploration kernel.  Both
share the regeneration structure: tours start from a fresh reference draw
(level 0's kernel) and end at the move that enters the regeneration set
(level 0 moving down for the non-reversible kernel, any return to level 0
for the reversible one), so tours are i.i.d. and trivially parallel.  No
kernel runs after that move: the next tour's first draw is the fresh state,
so each tour draws from the reference once.  :func:`_regenerates` is the
one test of that set.

The module also implements the idealized index process: the finite Markov
chain obtained when the potential mixes perfectly within one exploration
step.  Its closed-form tour effectiveness and a fast vectorized tour
simulator, which steps both variants with the same rule as the kernels,
serve as oracles for each other.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .model import Schedule, TemperedModel, acceptance_probability

NRST = "nrst"
ST = "st"
_VARIANTS = (NRST, ST)
# Bound on the steps of the index-process simulator, which steps all its
# tours together until the last one regenerates.
_INDEX_MAX_STEPS = 10**6


def _reversible(variant) -> bool:
    """Whether ``variant`` names the reversible kernel; ValueError unless it
    is one of ``_VARIANTS``."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    return variant == ST


def _regenerates(level, direction, reversible):
    """Whether (level, direction) lies in the regeneration set: level 0 moving
    down, or level 0 at all for the reversible kernel.  Takes ints or arrays."""
    return (level == 0) & ((direction == -1) | reversible)


class TourOverrunError(RuntimeError):
    """A tour failed to reach the regeneration set within max_steps.

    The partial tour, a one-tour :class:`TourTable`, is attached as ``.trace``.
    """

    def __init__(self, max_steps, trace):
        super().__init__(f"tour did not regenerate within {max_steps} steps")
        self.max_steps = max_steps
        self.trace = trace

    def __reduce__(self):
        # The state carries what callers attach, e.g. the runner's tour_index.
        return (TourOverrunError, (self.max_steps, self.trace), self.__dict__)


@dataclass(slots=True)
class TourTable:
    """Tours in tour order, as flat columns: a run's tours, or one tour.

    ``levels`` (``array('i')``), ``directions`` (``array('b')``) and ``v``
    (``array('d')``, the potential) hold the states of all tours back to
    back; tour j's states run from ``starts[j]`` up to the next tour's start
    (or the end).  Each tour's first state is its fresh reference draw at
    (level 0, direction +1), its last the regeneration state, which keeps
    the V that the move into it carried (no kernel runs there).  ``v_evals``,
    ``cpu_seconds`` and ``visits_top`` hold one entry per tour, and
    ``h_top_sums`` holds ``n_h`` per tour, tour by tour: the m-th sums the
    m-th test function over the tour's states at the top level, the only
    states where it is evaluated.  ``cpu_seconds`` is the CPU time of the
    thread that ran the tour (``time.thread_time``), not wall time.  That is
    ~13 bytes per state and 32 + 8 ``n_h`` per tour, whatever the tour count.
    Indexing or iterating gives one-tour tables, with copies of the slices.
    """

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

    def __getitem__(self, j: int) -> "TourTable":
        j = range(len(self))[j]
        a = self.starts[j]
        b = self.starts[j + 1] if j + 1 < len(self) else len(self.levels)
        m = self.n_h
        return TourTable(self.variant, m, self.levels[a:b], self.directions[a:b],
                         self.v[a:b], array("q", [0]), self.v_evals[j:j + 1],
                         self.cpu_seconds[j:j + 1], self.visits_top[j:j + 1],
                         self.h_top_sums[j * m:(j + 1) * m])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def n_steps(self) -> int:
        """Kernel applications over all tours: each tour's length in states
        minus 1."""
        return len(self.levels) - len(self.starts)

    def tour_steps(self) -> np.ndarray:
        """Kernel applications per tour."""
        return np.diff(np.asarray(self.starts), append=len(self.levels)) - 1

    def extend(self, other: "TourTable") -> None:
        """Append ``other``'s tours after this table's."""
        offset = len(self.levels)
        self.starts.extend(s + offset for s in other.starts)
        for name in ("levels", "directions", "v", "v_evals", "cpu_seconds", "visits_top",
                     "h_top_sums"):
            getattr(self, name).extend(getattr(other, name))

    def validate(self) -> None:
        """Raise AssertionError unless every tour starts at (0, +1), ends in
        the regeneration set and enters it nowhere else."""
        reversible = self.variant == ST
        for a, b in zip(self.starts, [*self.starts[1:], len(self.levels)]):
            levels, directions = self.levels[a:b], self.directions[a:b]
            if (levels[0], directions[0]) != (0, 1):
                raise AssertionError("tour must start at (level 0, direction +1)")
            regen = [_regenerates(i, e, reversible) for i, e in zip(levels, directions)]
            if not regen[-1]:
                raise AssertionError("tour must end at the regeneration state")
            if any(regen[1:-1]):
                raise AssertionError("regeneration state visited before the end")


def _step(x, level, direction, v, schedule, explorers, rng, reversible):
    """One step of either kernel on the lifted state (x, level, direction),
    with ``v`` the potential at x: a tempering move to a level i, then
    ``explorers[i]``, unless the move lands in the regeneration set.  There
    the tour ends, so the state keeps the (x, v) the move carried and no
    kernel runs: level 0's, a fresh reference draw, would be read by nobody.

    The reversible kernel first draws its direction (up if
    ``rng.random() < 0.5``); the non-reversible one keeps ``direction``.
    A proposal inside the grid draws one uniform and is accepted if it falls
    below :func:`acceptance_probability`; a proposal off the grid draws
    nothing and is rejected.  On rejection the non-reversible kernel flips
    its direction; the reversible one records the drawn direction either way
    (bookkeeping only).  ``explorers`` holds one kernel per level 0..N, as
    :func:`~nrst.explore.build_explorers` gives them (level 0's draws afresh
    from the reference; no step of a tour runs it).  Returns the new (x,
    level, direction, v), so a driver chains steps without re-evaluating V.
    """
    i = level
    eps = (1 if rng.random() < 0.5 else -1) if reversible else direction
    j = i + eps
    if 0 <= j <= schedule.n_levels and rng.random() < acceptance_probability(
        v, schedule.betas[i], schedule.betas[j], schedule.affinities[i], schedule.affinities[j]
    ):
        i = j
    elif not reversible:
        eps = -eps
    if not _regenerates(i, eps, reversible):
        x, v = explorers[i](x, v, rng)
    return x, i, eps, v


def nrst_step(x, level: int, direction: int, v: float, schedule: Schedule, explorers,
              rng: np.random.Generator):
    """One non-reversible step; see :func:`_step`."""
    return _step(x, level, direction, v, schedule, explorers, rng, False)


def st_step(x, level: int, direction: int, v: float, schedule: Schedule, explorers,
            rng: np.random.Generator):
    """One reversible step; see :func:`_step`."""
    return _step(x, level, direction, v, schedule, explorers, rng, True)


def run_tour(
    model: TemperedModel,
    schedule: Schedule,
    kernel_variant: str,
    max_steps: int,
    rng: np.random.Generator,
    explorers,
    *,
    h_funcs=(),
) -> TourTable:
    """Run one regeneration tour and record it as a one-tour table.

    Starts at (level 0, direction +1) from a call of ``explorers[0]``, the
    fresh reference draw, and iterates kernel steps with ``explorers`` (as
    :func:`~nrst.explore.build_explorers` gives them) until a move enters
    the regeneration set.  That move runs no kernel, so the start is the
    tour's only reference draw and a one-step tour costs one V-eval.
    Raises :class:`TourOverrunError` (carrying the partial tour) if that
    takes more than ``max_steps`` steps.  Each of ``h_funcs``
    is evaluated at the top-level states only and summed into
    ``h_top_sums``.
    """
    reversible = _reversible(kernel_variant)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    n = schedule.n_levels
    t0 = time.thread_time()
    evals0 = model.v_evals.value
    # Looked up from the module at call time, so a wrapper bound to either
    # name sees every step.
    step = st_step if reversible else nrst_step

    i, e = 0, 1
    x, v = explorers[0](None, None, rng)
    levels, directions, vs = array("i", [0]), array("b", [1]), array("d", [v])
    h_sums = array("d", [0.0] * len(h_funcs))

    def table():
        return TourTable(kernel_variant, len(h_funcs), levels, directions, vs,
                         array("q", [0]), array("q", [model.v_evals.value - evals0]),
                         array("d", [time.thread_time() - t0]), array("q", [levels.count(n)]),
                         h_sums)

    for _ in range(max_steps):
        x, i, e, v = step(x, i, e, v, schedule, explorers, rng)
        levels.append(i)
        directions.append(e)
        vs.append(v)
        if i == n:
            for m, h in enumerate(h_funcs):
                h_sums[m] += h(x)
        elif _regenerates(i, e, reversible):
            return table()
    raise TourOverrunError(max_steps, table())


def write_traces_csv(traces: TourTable, fileobj) -> None:
    """One row per state: tour_id, step, then the table's three state columns
    level, direction and v (written with ``repr``, so it reads back exactly)."""
    fileobj.write("tour_id,step,level,direction,v\n")
    states = zip(traces.levels, traces.directions, traces.v)
    for tour_id, length in enumerate((traces.tour_steps() + 1).tolist()):
        for step, (level, direction, v) in enumerate(islice(states, length)):
            fileobj.write(f"{tour_id},{step},{level},{direction},{v!r}\n")


# ---------------------------------------------------------------------------
# Idealized index process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealIndexChain:
    """Rejection probabilities of the idealized (perfectly mixing) index chain.

    ``rho[i-1]`` is the rejection probability of both moves between levels
    i-1 and i, for i = 1..N.  Boundary bounces are implicit forced
    rejections.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "rho", rho)
        if rho.ndim != 1 or rho.size < 1:
            raise ValueError("rho must be a 1-d array of length >= 1")
        if np.any(rho < 0) or np.any(rho >= 1) or not np.all(np.isfinite(rho)):
            raise ValueError("rho entries must lie in [0, 1)")

    @property
    def n_levels(self) -> int:
        return self.rho.size

    @classmethod
    def symmetric(cls, rhos) -> "IdealIndexChain":
        """Chain with per-interval rejections rho_1..rho_N (copied)."""
        return cls(np.array(rhos, dtype=float))


def ideal_te(chain: IdealIndexChain, variant: str) -> float:
    """Closed-form tour effectiveness of the idealized chain.

    With rejections rho_i, the non-reversible kernel attains
    1 / (1 + 2 sum rho_i/(1-rho_i)) while the reversible one attains
    1 / (4N - 1 + 4 sum rho_i/(1-rho_i)).
    """
    reversible = _reversible(variant)
    rho = chain.rho
    s = float(np.sum(rho / (1.0 - rho)))
    n = chain.n_levels
    if not reversible:
        return 1.0 / (1.0 + 2.0 * s)
    return 1.0 / (4.0 * n - 1.0 + 4.0 * s)


def simulate_index_tours(chain: IdealIndexChain, variant: str, n_tours: int,
                         rng: np.random.Generator):
    """Simulate regeneration tours of the idealized index chain.

    Returns (steps, visits_top) arrays of length n_tours, where steps counts
    kernel applications per tour (the tour length in states is steps + 1
    for the non-reversible variant, which starts one step past the
    regeneration set, and steps for the reversible one, which starts at it)
    and visits_top the tour's top-level visits.  A tour still running after
    ``_INDEX_MAX_STEPS`` steps raises :class:`TourOverrunError`.
    """
    reversible = _reversible(variant)
    if n_tours < 1:
        raise ValueError("n_tours must be >= 1")
    n = chain.n_levels
    alpha_up = np.append(1.0 - chain.rho, 0.0)  # accepting a move up from level i
    alpha_dn = np.append(0.0, 1.0 - chain.rho)  # and a move down

    i, visits = np.zeros((2, n_tours), dtype=np.int64)
    e = np.ones(n_tours, dtype=np.int64)
    out_steps, out_visits = np.zeros((2, n_tours), dtype=np.int64)
    alive = np.arange(n_tours)

    # Every tour still alive has taken ``it`` steps.  Each step draws the
    # acceptance uniforms, then the reversible variant's directions.
    for it in range(1, _INDEX_MAX_STEPS + 1):
        u = rng.random(alive.size)
        d = np.where(rng.random(alive.size) < 0.5, 1, -1) if reversible else e
        acc = u < np.where(d > 0, alpha_up[i], alpha_dn[i])
        i = i + np.where(acc, d, 0)
        e = d if reversible else np.where(acc, d, -d)
        visits += i == n
        done = _regenerates(i, e, reversible)
        if np.any(done):
            idx = alive[done]
            out_steps[idx], out_visits[idx] = it, visits[done]
            keep = ~done
            alive, i, e, visits = alive[keep], i[keep], e[keep], visits[keep]
            if not alive.size:
                return out_steps, out_visits
    raise TourOverrunError(_INDEX_MAX_STEPS, None)
