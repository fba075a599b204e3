"""Lifted tempering kernels, tour execution, and the idealized index process.

The non-reversible kernel proposes a deterministic one-level move along the
current direction and flips the direction on rejection; the reversible
baseline draws the proposal direction uniformly at each step.  Both share the
regeneration structure: tours start from a fresh reference draw and end at
the regeneration set (level 0 moving down for the non-reversible kernel, any
return to level 0 for the reversible one), so tours are i.i.d. and trivially
parallel.

The module also implements the idealized index process: the finite Markov
chain obtained when the potential mixes perfectly within one exploration
step.  Its closed-form tour effectiveness and a fast vectorized tour
simulator serve as oracles for each other.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .explore import SliceConfig, build_explorers
from .model import Schedule, TemperedModel, acceptance_probability

NRST = "nrst"
ST = "st"
_VARIANTS = (NRST, ST)


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


@dataclass(frozen=True)
class StepRecord:
    level: int
    direction: int
    v: float
    h_values: tuple = ()


@dataclass
class TourTrace:
    """One regeneration tour.

    ``steps`` records every state of the tour, starting with the fresh
    reference draw at (level 0, direction +1) and ending with the
    regeneration state.  ``n_steps`` is the number of kernel applications,
    i.e. len(steps) - 1; the tour length in the regenerative-simulation sense
    (number of states) is ``tour_length``.  ``cpu_seconds`` is the CPU time
    of the thread that ran the tour (``time.thread_time``), not wall time.
    """

    steps: list
    n_levels: int
    variant: str
    v_evals: int = 0
    cpu_seconds: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 1

    @property
    def tour_length(self) -> int:
        return len(self.steps)

    @property
    def visits_top(self) -> int:
        return sum(1 for s in self.steps if s.level == self.n_levels)

    def h_top_sums(self, n_h: int) -> np.ndarray:
        """Per-function sums of h over states at the top level."""
        out = np.zeros(n_h)
        for s in self.steps:
            if s.level == self.n_levels:
                out += np.asarray(s.h_values[:n_h], dtype=float)
        return out

    def validate(self) -> None:
        first = self.steps[0]
        last = self.steps[-1]
        if (first.level, first.direction) != (0, 1):
            raise AssertionError("tour must start at (level 0, direction +1)")
        if self.variant == NRST:
            if (last.level, last.direction) != (0, -1):
                raise AssertionError("tour must end at the regeneration state (0, -1)")
            for s in self.steps[1:-1]:
                if (s.level, s.direction) == (0, -1):
                    raise AssertionError("regeneration state visited before the end")
        else:
            if last.level != 0:
                raise AssertionError("reversible tour must end at level 0")
            for s in self.steps[1:-1]:
                if s.level == 0:
                    raise AssertionError("level 0 visited before the end")


def _temper_accept(v, beta_from, beta_to, c_from, c_to):
    # +inf potentials carry zero target density: the upward move is then
    # rejected surely and the downward move accepted surely.
    if math.isinf(v):
        return 0.0 if beta_to > beta_from else 1.0
    return acceptance_probability(v, beta_from, beta_to, c_from, c_to)


def _explore(model, explorers, x, v, level, rng):
    """Exploration at ``level``: a fresh reference draw at level 0, else the
    level's explorer.  Returns the new point and its potential."""
    if level > 0:
        return explorers[level](x, v, rng)
    x = model.sample_reference(rng)
    return x, model.potential(x)


def nrst_step(
    state: ChainState,
    model: TemperedModel,
    schedule: Schedule,
    explorers,
    rng: np.random.Generator,
    *,
    v: float,
    accept_draw=None,
):
    """One non-reversible step: deterministic tempering proposal, then exploration.

    ``v`` is the potential of state.x; the step returns the new state and
    the potential of its point, so a driver chains steps without
    re-evaluating V.  ``accept_draw`` is a stubbing hook returning the
    uniform used for the accept decision (tests use it to force
    accept/reject paths).
    """
    n = schedule.n_levels
    i, eps = state.level, state.direction
    iprop = i + eps
    if iprop > n:
        i, eps = n, -1
    elif iprop < 0:
        i, eps = 0, +1
    else:
        a = _temper_accept(
            v,
            schedule.betas[i],
            schedule.betas[iprop],
            schedule.affinities[i],
            schedule.affinities[iprop],
        )
        u = accept_draw() if accept_draw is not None else rng.random()
        if u < a:
            i = iprop
        else:
            eps = -eps
    x, v = _explore(model, explorers, state.x, v, i, rng)
    return ChainState(x, i, eps), v


def st_step(
    state: ChainState,
    model: TemperedModel,
    schedule: Schedule,
    explorers,
    rng: np.random.Generator,
    *,
    v: float,
    accept_draw=None,
    direction_draw=None,
):
    """One reversible step: symmetric +-1 proposal, then exploration.

    Takes and returns potentials as :func:`nrst_step` does.  The direction
    field of the returned state records the drawn proposal direction
    (bookkeeping only).  Out-of-range proposals are rejected.
    """
    n = schedule.n_levels
    i = state.level
    ud = direction_draw() if direction_draw is not None else rng.random()
    eps = 1 if ud < 0.5 else -1
    iprop = i + eps
    if 0 <= iprop <= n:
        a = _temper_accept(
            v,
            schedule.betas[i],
            schedule.betas[iprop],
            schedule.affinities[i],
            schedule.affinities[iprop],
        )
        u = accept_draw() if accept_draw is not None else rng.random()
        if u < a:
            i = iprop
    x, v = _explore(model, explorers, state.x, v, i, rng)
    return ChainState(x, i, eps), v


def run_tour(
    model: TemperedModel,
    schedule: Schedule,
    kernel_variant: str,
    max_steps: int,
    rng: np.random.Generator,
    *,
    explorers=None,
    h_funcs=(),
    slice_cfg: SliceConfig | None = None,
    accept_draw=None,
    direction_draw=None,
) -> TourTrace:
    """Run one regeneration tour and record its trace.

    Starts from a fresh reference draw at (level 0, direction +1), iterates
    kernel steps until the regeneration set is reached, and raises
    :class:`TourOverrunError` (carrying the partial trace) if that takes more
    than ``max_steps`` steps.
    """
    if kernel_variant not in _VARIANTS:
        raise ValueError(f"kernel_variant must be one of {_VARIANTS}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if explorers is None:
        explorers = build_explorers(model, schedule, slice_cfg)
    n = schedule.n_levels
    t0 = time.thread_time()
    evals0 = model.v_evals.value

    x = model.sample_reference(rng)
    state = ChainState(x, 0, 1)
    v = model.potential(x)
    records = [StepRecord(0, 1, v, tuple(h(x) for h in h_funcs))]

    for _ in range(max_steps):
        if kernel_variant == NRST:
            state, v = nrst_step(
                state, model, schedule, explorers, rng,
                v=v, accept_draw=accept_draw,
            )
        else:
            state, v = st_step(
                state, model, schedule, explorers, rng,
                v=v, accept_draw=accept_draw, direction_draw=direction_draw,
            )
        records.append(
            StepRecord(state.level, state.direction, v,
                       tuple(h(state.x) for h in h_funcs))
        )
        if kernel_variant == NRST:
            if state.level == 0 and state.direction == -1:
                break
        elif state.level == 0:
            break
    else:
        raise TourOverrunError(
            max_steps,
            TourTrace(records, n, kernel_variant,
                      v_evals=model.v_evals.value - evals0,
                      cpu_seconds=time.thread_time() - t0),
        )

    return TourTrace(
        records, n, kernel_variant,
        v_evals=model.v_evals.value - evals0,
        cpu_seconds=time.thread_time() - t0,
    )


def write_traces_csv(traces, fileobj) -> None:
    """One row per recorded state: tour_id, step, level, direction, v."""
    fileobj.write("tour_id,step,level,direction,v\n")
    for tour_id, trace in enumerate(traces):
        for step, rec in enumerate(trace.steps):
            fileobj.write(f"{tour_id},{step},{rec.level},{rec.direction},{rec.v!r}\n")


def trace_summary(trace: TourTrace) -> dict:
    return {
        "n_steps": trace.n_steps,
        "visits_top": trace.visits_top,
        "v_evals": trace.v_evals,
        "cpu_seconds": trace.cpu_seconds,
    }


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


def simulate_index_tours(
    chain: IdealIndexChain,
    variant: str,
    n_tours: int,
    rng: np.random.Generator,
    *,
    max_steps: int = 10**6,
    return_parity_sums: bool = False,
):
    """Simulate regeneration tours of the idealized index chain.

    Returns (steps, visits_top) arrays of length n_tours, where steps counts
    kernel applications per tour (the tour length in states is steps + 1 for
    the non-reversible variant, which starts one step past the regeneration
    set, and steps for the reversible one, which starts at it).  With
    ``return_parity_sums`` a third array holds the per-tour count of
    odd-numbered top-level visits, a bounded test function used by the
    regenerative variance estimators.
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
        if it > max_steps:
            raise TourOverrunError(max_steps, None)
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

    if return_parity_sums:
        return out_steps, out_visits, out_sodd
    return out_steps, out_visits
