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
"""

import numpy as np

from nrst.adapt import VDataset, run_nrpt
from nrst.model import Schedule
from nrst.st_kernels import _VARIANTS, NRST, IdealIndexChain


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
    alpha_up[:n] = 1.0 - chain.rej_up
    alpha_dn = np.zeros(n + 1)
    alpha_dn[1:] = 1.0 - chain.rej_down
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


def local_rejection_rates(data: VDataset, betas, affinities) -> np.ndarray:
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


def warm_states(model, schedule: Schedule, rng, n_scan: int = 8) -> list:
    """One (x, V(x)) per level 0..N, from a short NRPT pass on ``schedule``:
    warm starts like those ``adapt`` gives ``tune_explore_steps``."""
    return run_nrpt(model, schedule, n_scan, rng, full=True).states
