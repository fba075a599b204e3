"""Tempered path of distributions, level affinities, and the tempering move.

A target pi(x) = pi0(x) exp(-V(x)) / Z is bridged to its reference pi0 by the
family pi_beta(x) propto pi0(x) exp(-beta V(x)) for beta in [0, 1].  The grid
of inverse temperatures, the level affinities c_i and the per-level
exploration budgets live in :class:`Schedule`; the problem itself (reference
sampler, reference log density, potential V) lives in :class:`TemperedModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DivergedPotentialError(RuntimeError):
    """The potential evaluated to NaN (or -inf) at some point, or to a finite
    value below the model's declared lower bound ``v_min``.

    Carries the offending point in ``.x`` and the bound it broke, if any, in
    ``.v_min``.
    """

    def __init__(self, x, value, v_min=None):
        if v_min is None:
            message = f"potential diverged (value={value!r}) at x={x!r}"
        else:
            message = (f"potential {value!r} is below the model's lower bound "
                       f"v_min={v_min!r} at x={x!r}")
        super().__init__(message)
        self.x = x
        self.value = value
        self.v_min = v_min

    def __reduce__(self):
        # The state carries what callers attach, e.g. the runner's tour_index.
        return (DivergedPotentialError, (self.x, self.value, self.v_min), self.__dict__)


class EvalCounter:
    """Count of potential evaluations, read and bumped through ``value``."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class TemperedModel:
    """A target defined relative to a tractable reference distribution.

    Subclasses provide the three-function interface

    * ``sample_reference(rng)``: one i.i.d. draw from the reference,
    * ``log_reference(x)``: log density of the reference at ``x``,
    * ``_potential(x)``: the potential V(x), i.e. the negative log of the
      density ratio target/reference (negative log likelihood in the
      Bayesian prior-reference case).

    Every call to :meth:`potential` increments ``v_evals.value``, a plain
    count of the V-evals made through this object.  Worker processes each
    get their own copy of the model, so a count never crosses processes;
    the counter is the only mutable element.

    ``v_min`` is a number <= V(x) at every x, -inf (the default) for a model
    that declares none.  Slice exploration skips V at a proposal that the
    bound alone puts below the slice level, so a bound can only save
    V-evals: it changes no draw.  A finite V below it raises.
    """

    dim: int
    v_min: float = -math.inf

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        self.dim = int(dim)
        self.v_evals = EvalCounter()

    def sample_reference(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def log_reference(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _potential(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def potential(self, x: np.ndarray) -> float:
        """V(x).  Counted; may be +inf where the target has zero density.

        NaN or -inf raise :class:`DivergedPotentialError`, wherever V is
        evaluated: at reference draws as in exploration.  So does a finite V
        below ``v_min``, a false bound, naming both values.
        """
        self.v_evals.value += 1
        v = float(self._potential(x))
        if not v > -math.inf:
            raise DivergedPotentialError(x, v)
        if v < self.v_min:
            raise DivergedPotentialError(x, v, self.v_min)
        return v


@dataclass(frozen=True)
class Schedule:
    """Grid of inverse temperatures plus per-level tuning parameters.

    ``betas`` is the strictly increasing grid with betas[0] = 0 and
    betas[N] = 1.  ``affinities`` are the level affinities, normalized so the
    first entry is 0.  ``explore_steps`` holds the number of exploration
    sweeps per tempering step for levels 1..N.  ``widths``, of shape
    (N, dim), optionally holds the slice bracket width of every coordinate
    at levels 1..N (finite and > 0); None means 1.0 everywhere.
    """

    betas: np.ndarray
    affinities: np.ndarray
    explore_steps: np.ndarray
    widths: np.ndarray | None = None

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        affinities = np.asarray(self.affinities, dtype=float)
        explore_steps = np.asarray(self.explore_steps, dtype=float)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "affinities", affinities)
        if betas.ndim != 1 or betas.size < 2:
            raise ValueError("betas must be a 1-d grid with at least 2 points")
        if not np.all(np.isfinite(betas)):
            raise ValueError("betas must be finite")
        if betas[0] != 0.0 or betas[-1] != 1.0:
            raise ValueError("betas must start at 0 and end at 1")
        if np.any(np.diff(betas) <= 0):
            raise ValueError("betas must be strictly increasing")
        if affinities.shape != betas.shape:
            raise ValueError("affinities must have the same length as betas")
        if not np.all(np.isfinite(affinities)):
            raise ValueError("affinities must be finite")
        if abs(affinities[0]) > 1e-12:
            raise ValueError("affinities must be anchored at affinities[0] == 0")
        if explore_steps.shape != (betas.size - 1,):
            raise ValueError("explore_steps must have one entry per level 1..N")
        if not np.all(np.isfinite(explore_steps) & (explore_steps >= 1)
                      & (explore_steps == np.floor(explore_steps))):
            raise ValueError(f"explore_steps must be whole numbers >= 1, "
                             f"got {explore_steps.tolist()}")
        object.__setattr__(self, "explore_steps", explore_steps.astype(int))
        if self.widths is None:
            return
        n = betas.size - 1
        try:
            widths = np.asarray(self.widths, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"widths must be numbers, one row per level 1..{n}, "
                             "all rows of one length") from None
        object.__setattr__(self, "widths", widths)
        if widths.ndim != 2 or widths.shape[0] != n:
            raise ValueError(f"widths must have one row per level 1..{n}, "
                             f"got shape {widths.shape}")
        for i, row in enumerate(widths, start=1):
            if not np.all(np.isfinite(row) & (row > 0)):
                raise ValueError(f"widths at level {i} must be finite and > 0, "
                                 f"got {row.tolist()}")

    @property
    def n_levels(self) -> int:
        """N, the index of the target level."""
        return self.betas.size - 1

    def to_dict(self) -> dict:
        d = {
            "betas": self.betas.tolist(),
            "affinities": self.affinities.tolist(),
            "explore_steps": self.explore_steps.tolist(),
        }
        if self.widths is not None:
            d["widths"] = self.widths.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        """The schedule that :meth:`to_dict` gave.  A JSON true or false,
        which numpy would read as 1 or 0, raises ValueError naming its key."""
        for key in ("betas", "affinities", "explore_steps", "widths"):
            if _holds_bool(d.get(key)):
                raise ValueError(f"{key} must be numbers, not true or false")
        return cls(d["betas"], d["affinities"], d["explore_steps"], d.get("widths"))


def _holds_bool(value) -> bool:
    """Whether ``value`` is a bool or a list (of lists) holding one."""
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def acceptance_probability(v, beta_from, beta_to, c_from, c_to):
    """Probability of accepting the tempering move beta_from -> beta_to.

    Equals exp(-max{0, (beta_to - beta_from) v - (c_to - c_from)}), so it can
    be evaluated without any normalizing constants.  ``v`` is one potential
    (a float in, a float out) or an array of them, against which the betas
    and affinities may be arrays that broadcast (e.g. (N, 1) against (N, n)).
    V = +inf is a point of zero density: the arithmetic rejects the move up
    surely and accepts the move down surely.  NaN or -inf V, and non-finite
    betas, raise ValueError.
    """
    if isinstance(v, float):
        finite = math.isfinite(beta_from) and math.isfinite(beta_to)
        diverged = not v > -math.inf
    else:
        v = np.asarray(v, dtype=float)
        finite = np.all(np.isfinite(beta_from)) and np.all(np.isfinite(beta_to))
        diverged = not np.all(v > -np.inf)
    if not finite:
        raise ValueError(f"acceptance_probability requires finite betas, "
                         f"got {(beta_from, beta_to)}")
    if diverged:
        raise ValueError("acceptance_probability requires potentials that are not NaN or -inf")
    return np.exp(-np.maximum(0.0, (beta_to - beta_from) * v - (c_to - c_from)))


def log_tempered_density(model: TemperedModel, x: np.ndarray, beta: float) -> float:
    """Unnormalized log density of pi_beta: log pi0(x) - beta V(x).

    beta = 0 short-circuits to the reference log density without evaluating
    V, so reference-level exploration is free.  V(x) = +inf yields -inf
    (zero density, e.g. outside a likelihood's support); NaN or -inf
    potentials raise :class:`DivergedPotentialError`.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    logref = model.log_reference(x)
    if beta == 0.0:
        return float(logref)
    return log_tempered_density_from_v(x, logref, model.potential(x), beta)


def log_tempered_density_from_v(x: np.ndarray, log_ref: float, v: float, beta: float) -> float:
    """log pi0(x) - beta V(x) from a V(x) already at hand.

    Follows the rules of :func:`log_tempered_density`: V = +inf yields -inf,
    NaN or -inf raise :class:`DivergedPotentialError`.  A V carried in from
    a caller is checked here; :meth:`TemperedModel.potential` checks its own.
    """
    if math.isnan(v) or v == -math.inf:
        raise DivergedPotentialError(x, v)
    if v == math.inf:
        return -math.inf
    return float(log_ref) - beta * v
