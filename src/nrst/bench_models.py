"""Benchmark targets: Gaussian toy, banana, funnel, hierarchical, mRNA,
threshold Weibull, and the XY lattice model.

Each model follows the reference/potential convention: the reference is a
proper distribution with i.i.d. sampling, and the potential is the negative
log of the (unnormalized) target-to-reference density ratio, so beta = 1
recovers the target.  Parameters with bounded or positive support are mapped
to unconstrained coordinates (logit/log) with the Jacobian folded into the
reference density, so the explorers work on all of R^d.

Real datasets are replaced by deterministic synthetic draws from the stated
likelihoods at fixed parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import TemperedModel

_LOG_2PI = math.log(2.0 * math.pi)
# Seed of the synthetic datasets, so every build of a model sees the same data.
_DATA_SEED = 20240817
# Accepted band for the between/within variance ratio of the hierarchical
# dataset (nominal 16), and the rejection-sampling budget for hitting it.
_RATIO_BAND = (12.0, 20.0)
_MAX_DATASET_TRIES = 200000
# The synthetic mRNA data: (t0, kappa, beta, delta) of its mean, its sd, its size.
_MRNA_MEAN_PARAMS = (0.2, 1.0, 0.8, 1.2)
_MRNA_SIGMA = 0.1
_MRNA_N_OBS = 30


def _norm_lpdf(x, mean, var):
    return -0.5 * (_LOG_2PI + np.log(var)) - (x - mean) ** 2 / (2.0 * var)


def _cauchy_lpdf(x):
    return -math.log(math.pi) - math.log1p(x * x)


def _invgamma_lpdf(z, a, b):
    """log density of InvGamma(a, b) at z; -inf, its limit, at z = 0 (from
    -b / z) and +inf (from -(a + 1) log z).  A scale that :func:`_exp` gives
    as +inf gets log pi0 = -inf, where it truly falls as -a log z: this cuts
    the reference at log z = 709.78, a mass of about 1e-31 at a = b = 0.1."""
    if z == 0.0:
        return -math.inf
    return a * math.log(b) - math.lgamma(a) - (a + 1.0) * math.log(z) - b / z


def _exp(u):
    """math.exp(u), +inf where it overflows (u > log of the largest float)."""
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def _sample_invgamma(a, b, rng):
    return b / rng.gamma(a, 1.0)


def _softplus(u):
    return np.logaddexp(0.0, u)


def _expit(u):
    """The logistic function; 0, its limit, where e^{-u} overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


def _logit(p):
    return np.log(p) - np.log1p(-p)


class ToyGaussian(TemperedModel):
    """Conjugate Gaussian toy model with a fully analytic tempered path.

    Reference N_d(0, sigma0^2 I); potential is the negative Gaussian
    log likelihood of the observation m * ones under unit noise,
    V(x) = |x - m 1|^2 / 2 + (d/2) log 2 pi.  Its minimum, v_min =
    (d/2) log 2 pi, is taken at x = m 1, exactly in floating point too.
    """

    def __init__(self, dim: int = 3, m: float = 2.0, sigma0: float = 2.0):
        super().__init__(dim)
        self.m = float(m)
        self.sigma0 = float(sigma0)
        self._ref_const = -0.5 * dim * (_LOG_2PI + 2.0 * math.log(sigma0))
        self._lik_const = 0.5 * dim * _LOG_2PI

    def sample_reference(self, rng):
        return rng.normal(0.0, self.sigma0, self.dim)

    def log_reference(self, x):
        return self._ref_const - float(np.dot(x, x)) / (2.0 * self.sigma0**2)

    @property
    def v_min(self):
        return self._lik_const

    def _potential(self, x):
        diff = x - self.m
        return 0.5 * float(np.dot(diff, diff)) + self._lik_const


class Banana(TemperedModel):
    """Two-dimensional banana-shaped target.

    Target: x1 ~ N(1, 10), x2 | x1 ~ N(x1^2, 0.1^2).  The reference keeps
    the x1 marginal and replaces the conditional by N(11, 10^2) (the target
    second moment of x2 is 11).  V = log N(x2; 11, 10^2) - log N(x2; x1^2,
    0.1^2) falls as (x2 - 11)^2 / 200 grows at x2 = x1^2, so it is unbounded
    below and v_min stays -inf.
    """

    def __init__(self):
        super().__init__(2)

    def sample_reference(self, rng):
        return np.array([rng.normal(1.0, math.sqrt(10.0)), rng.normal(11.0, 10.0)])

    def log_reference(self, x):
        return float(_norm_lpdf(x[0], 1.0, 10.0) + _norm_lpdf(x[1], 11.0, 100.0))

    def _potential(self, x):
        return float(_norm_lpdf(x[1], 11.0, 100.0) - _norm_lpdf(x[1], x[0] ** 2, 0.01))


class Funnel(TemperedModel):
    """Neal's funnel in 20 dimensions with an isotropic Gaussian reference.

    Target: x1 ~ N(0, 3^2) and x_i | x1 ~ N(0, e^{x1}) for i >= 2.  At
    x_i = 0 for i >= 2, V = (dim - 1) (x1 - log 9) / 2 falls without bound
    as x1 -> -inf, so v_min stays -inf.  Where e^{x1} overflows, underflows
    to 0, or is subnormal with x_i^2 / (2 e^{x1}) overflowing, V is +inf:
    its limit, but where e^{x1} underflows at x_i = 0 for every i >= 2 (a
    set of measure 0, where V -> -inf).
    """

    def __init__(self, dim: int = 20):
        if dim < 2:
            raise ValueError("funnel needs dim >= 2")
        super().__init__(dim)

    def sample_reference(self, rng):
        return rng.normal(0.0, 3.0, self.dim)

    def log_reference(self, x):
        return float(np.sum(_norm_lpdf(x, 0.0, 9.0)))

    def _potential(self, x):
        tail = x[1:]
        var = _exp(x[0])
        if var == 0.0:
            return math.inf
        with np.errstate(over="ignore"):
            lp_target = np.sum(_norm_lpdf(tail, 0.0, var))
        lp_ref = np.sum(_norm_lpdf(tail, 0.0, 9.0))
        return float(lp_ref - lp_target)


class Hierarchical(TemperedModel):
    """Gaussian hierarchical model with a Cauchy prior on the grand mean.

    Parameters (mu, log tau^2, log sigma^2, theta_1..theta_J); the prior is
    the reference and the potential is the negative log likelihood of the
    (J, M) observation matrix,
    V = (n/2) (log 2 pi + s) + S(theta) / (2 e^s), with s = log sigma^2,
    n = J M and S(theta) the sum of squares of y_jk - theta_j.  S(theta) is
    at least S_w, the within-group sum of squares (theta_j the group
    means), and S_w / (2 e^s) + n s / 2 is least at e^s = S_w / n, so
    V >= (n/2) (log 2 pi + log(S_w / n) + 1) where S_w > 0.  ``v_min`` is
    that bound less a slack for the rounding of V's expanded sums of
    squares, whose error near the minimum is a few ulps of sum y^2 against
    S_w; S_w = 0 leaves V unbounded below as s -> -inf, and v_min -inf.
    Where e^s underflows to 0, V is +inf, the limit of S / (2 e^s) wherever
    S > 0; where it overflows, that term is 0 and V stays finite.
    """

    def __init__(self, y: np.ndarray):
        y = np.asarray(y, dtype=float)
        if y.ndim != 2:
            raise ValueError("y must be a (groups, observations) matrix")
        self.y = y
        self.j_groups, self.m_per_group = y.shape
        self._group_sums = y.sum(axis=1)
        self._group_sq = (y**2).sum(axis=1)
        s_within = float(np.sum((y - y.mean(axis=1, keepdims=True)) ** 2))
        if s_within > 0.0:
            n = y.size
            bound = 0.5 * n * (_LOG_2PI + math.log(s_within / n) + 1.0)
            self.v_min = bound - 1e-9 * (abs(bound) + n * float(self._group_sq.sum()) / s_within)
        super().__init__(3 + self.j_groups)

    def sample_reference(self, rng):
        mu = rng.standard_cauchy()
        tau2 = _sample_invgamma(0.1, 0.1, rng)
        sig2 = _sample_invgamma(0.1, 0.1, rng)
        theta = rng.normal(mu, math.sqrt(tau2), self.j_groups)
        return np.concatenate([[mu, math.log(tau2), math.log(sig2)], theta])

    def log_reference(self, x):
        mu, ltau2, lsig2 = x[0], x[1], x[2]
        theta = x[3:]
        tau2 = _exp(ltau2)
        sig2 = _exp(lsig2)
        lp = _cauchy_lpdf(mu)
        lp += _invgamma_lpdf(tau2, 0.1, 0.1) + ltau2
        lp += _invgamma_lpdf(sig2, 0.1, 0.1) + lsig2
        if lp == -math.inf:  # a scale at 0 or +inf: see the class docstring
            return lp
        lp += float(np.sum(_norm_lpdf(theta, mu, tau2)))
        return lp

    def _potential(self, x):
        sig2 = _exp(x[2])
        theta = x[3:]
        sq = self._group_sq - 2.0 * theta * self._group_sums + self.m_per_group * theta**2
        if sig2 == 0.0:
            return math.inf
        n_obs = self.y.size
        return 0.5 * n_obs * (_LOG_2PI + x[2]) + float(np.sum(sq)) / (2.0 * sig2)


_MRNA_BOUNDS = np.array([
    [-2.0, 1.0],   # log10 t0
    [-5.0, 5.0],   # log10 kappa
    [-5.0, 5.0],   # log10 beta
    [-5.0, 5.0],   # log10 delta
    [-2.0, 5.0],   # log10 sigma
])


def _mrna_mean(t, t0, kappa, beta, delta):
    dt = t - t0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if abs(delta - beta) < 1e-12:
            return kappa * dt * np.exp(-beta * dt)
        return kappa / (delta - beta) * (np.exp(-beta * dt) - np.exp(-delta * dt))


class MRnaTransfection(TemperedModel):
    """mRNA transfection time series with log10-uniform priors.

    Coordinates are logit transforms of the log10 parameters
    (t0, kappa, beta, delta, sigma) over their prior boxes.  V is
    (n/2) (log 2 pi + 2 log sigma) plus a sum of squares >= 0, and the box
    keeps sigma >= 10^-2, so V >= (n/2) (log 2 pi - 4 log 10).  ``v_min``
    computes that term as V does, at sigma = 10^-2, so that V's rounding
    cannot take it below the bound.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        self.t = np.asarray(t, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.t.shape != self.y.shape:
            raise ValueError("t and y must have matching shapes")
        sigma_min = 10.0 ** _MRNA_BOUNDS[4, 0]
        self.v_min = 0.5 * self.y.size * (_LOG_2PI + 2.0 * math.log(sigma_min))
        super().__init__(5)

    def sample_reference(self, rng):
        lo, hi = _MRNA_BOUNDS[:, 0], _MRNA_BOUNDS[:, 1]
        p = rng.uniform(lo, hi)
        return _logit((p - lo) / (hi - lo))

    def log_reference(self, u):
        return float(np.sum(-_softplus(u) - _softplus(-u)))

    def _params(self, u):
        lo, hi = _MRNA_BOUNDS[:, 0], _MRNA_BOUNDS[:, 1]
        return 10.0 ** (lo + (hi - lo) * _expit(u))

    def _potential(self, u):
        t0, kappa, beta, delta, sigma = self._params(u)
        mu = _mrna_mean(self.t, t0, kappa, beta, delta)
        if not np.all(np.isfinite(mu)):
            return math.inf
        resid = self.y - mu
        # Residuals whose squares' sum, or that sum over 2 sigma^2, overflows
        # give V = +inf: zero likelihood.
        with np.errstate(over="ignore"):
            scaled = float(np.dot(resid, resid)) / (2.0 * sigma**2)
        n = self.y.size
        return 0.5 * n * (_LOG_2PI + 2.0 * math.log(sigma)) + scaled


class ThresholdWeibull(TemperedModel):
    """Three-parameter Weibull likelihood with a location threshold.

    The potential is +inf whenever the threshold exceeds the smallest
    observation (zero likelihood), which makes the potential heavier and
    heavier tailed as beta decreases; only reference-level draws land there.
    Coordinates: (logit a over (0, 200), log b, logit c over (0.1, 10)).
    As a approaches the smallest observation y_min with c < 1, the term
    (c - 1) log((y_min - a) / b) of the log likelihood grows without bound,
    so V is unbounded below and v_min stays -inf.  Per observation V is
    c log b - log c - (c - 1) log(y - a) + z^c with z = (y - a) / b, which
    grows as c log b as b -> +inf and as z^c as b -> 0.  So where e^{log b}
    overflows or underflows to 0, or z or z^c overflows, V is +inf, its
    limit.
    """

    A_RANGE = (0.0, 200.0)
    C_RANGE = (0.1, 10.0)

    def __init__(self, y: np.ndarray):
        self.y = np.asarray(y, dtype=float)
        self.y_min = float(self.y.min())
        super().__init__(3)

    def sample_reference(self, rng):
        a = rng.uniform(*self.A_RANGE)
        b = _sample_invgamma(0.1, 0.1, rng)
        c = rng.uniform(*self.C_RANGE)
        a_lo, a_hi = self.A_RANGE
        c_lo, c_hi = self.C_RANGE
        return np.array([
            _logit((a - a_lo) / (a_hi - a_lo)),
            math.log(b),
            _logit((c - c_lo) / (c_hi - c_lo)),
        ])

    def _params(self, u):
        a_lo, a_hi = self.A_RANGE
        c_lo, c_hi = self.C_RANGE
        a = a_lo + (a_hi - a_lo) * float(_expit(u[0]))
        b = _exp(u[1])
        c = c_lo + (c_hi - c_lo) * float(_expit(u[2]))
        return a, b, c

    def log_reference(self, u):
        lp = float(-_softplus(u[0]) - _softplus(-u[0]))
        lp += _invgamma_lpdf(_exp(u[1]), 0.1, 0.1) + float(u[1])
        lp += float(-_softplus(u[2]) - _softplus(-u[2]))
        return lp

    def _potential(self, u):
        a, b, c = self._params(u)
        if a >= self.y_min or not 0.0 < b < math.inf:
            return math.inf
        with np.errstate(over="ignore"):
            z = (self.y - a) / b
            zc = z**c
        if zc.max() == math.inf:
            return math.inf
        loglik = self.y.size * (math.log(c) - math.log(b)) + float(
            np.sum((c - 1.0) * np.log(z) - zc)
        )
        return -loglik


class XYModel(TemperedModel):
    """Planar rotor lattice with nearest-neighbor coupling on a torus.

    Reference is uniform on [-pi, pi)^{n^2}; the potential is the negative
    of J times the summed cosine of angle differences along lattice edges.
    The sum has 2 n^2 terms, each in [-1, 1], so V >= -|J| 2 n^2 =
    ``v_min``; a float sum of terms <= 1 cannot round above their count.
    Off the reference's box, where log pi0 = -inf, the bound rejects a
    slice proposal without a V-eval.
    """

    def __init__(self, n: int = 8, coupling: float = 2.0):
        super().__init__(n * n)
        self.n = int(n)
        self.coupling = float(coupling)

    def sample_reference(self, rng):
        return rng.uniform(-math.pi, math.pi, self.dim)

    def log_reference(self, x):
        if np.any(x < -math.pi) or np.any(x >= math.pi):
            return -math.inf
        return -self.dim * math.log(2.0 * math.pi)

    @property
    def v_min(self):
        return -abs(self.coupling) * (2 * self.n * self.n)

    def _potential(self, x):
        grid = np.reshape(x, (self.n, self.n))
        e = np.sum(np.cos(grid - np.roll(grid, 1, axis=0)))
        e += np.sum(np.cos(grid - np.roll(grid, 1, axis=1)))
        return -self.coupling * float(e)


def analytic_gaussian_path(d: int, m: float, sigma0: float, beta: float):
    """Closed-form path of the Gaussian toy: (mu(beta), sigma(beta)^2, log Z(beta)).

    log Z(beta) = -(d/2) [beta log 2 pi + log(1 + beta sigma0^2)
    + beta m^2 / (1 + beta sigma0^2)], the reference expectation of
    exp(-beta V) with the square completed in each dimension.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    var = 1.0 / (beta + 1.0 / sigma0**2)
    mu = beta * m * var
    spread = 1.0 + beta * sigma0**2
    return mu, var, -0.5 * d * (beta * _LOG_2PI + math.log(spread) + beta * m**2 / spread)


def hierarchical_dataset(rng, j_groups: int = 8, m_per_group: int = 20):
    """Draw observations from the hierarchical model, rejection-constrained.

    Resamples until the variance of the group means exceeds the mean
    within-group variance by a factor inside ``_RATIO_BAND`` (exact equality
    to the nominal 16 has probability zero).
    """
    for _ in range(_MAX_DATASET_TRIES):
        mu = rng.standard_cauchy()
        tau2 = _sample_invgamma(0.1, 0.1, rng)
        sig2 = _sample_invgamma(0.1, 0.1, rng)
        theta = rng.normal(mu, math.sqrt(tau2), j_groups)
        y = rng.normal(theta[:, None], math.sqrt(sig2), (j_groups, m_per_group))
        between = float(np.var(y.mean(axis=1), ddof=1))
        within = float(np.mean(np.var(y, axis=1, ddof=1)))
        if within > 0 and _RATIO_BAND[0] <= between / within <= _RATIO_BAND[1]:
            return y
    raise RuntimeError("hierarchical dataset rejection sampling did not terminate")


def weibull_dataset(rng, a: float = 10.0, b: float = 2.0, c: float = 1.5,
                    n: int = 50) -> np.ndarray:
    return a + b * rng.weibull(c, n)


def mrna_dataset(rng):
    t = np.linspace(0.0, 10.0, _MRNA_N_OBS)
    y = _mrna_mean(t, *_MRNA_MEAN_PARAMS) + _MRNA_SIGMA * rng.normal(size=_MRNA_N_OBS)
    return t, y


@dataclass(frozen=True)
class ModelSpec:
    """Model selection record: name and parameter map."""

    name: str
    params: dict = field(default_factory=dict)


def _float(value) -> float:
    """``value`` as a float; NaN for a bool (``float(True)`` is 1.0) or for
    anything that ``float`` refuses."""
    try:
        return math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _whole(least=1):
    """Reader of a whole number >= ``least``, as an int."""
    def read(key, value):
        number = _float(value)
        if not number.is_integer():
            raise ValueError(f"{key} must be a whole number, got {value!r}")
        if number < least:
            raise ValueError(f"{key} must be >= {least}, got {value!r}")
        return int(number)
    return read


def _real(positive=False):
    """Reader of a finite number, > 0 if ``positive``, as a float."""
    def read(key, value):
        number = _float(value)
        if not math.isfinite(number) or (positive and number <= 0):
            raise ValueError(f"{key} must be a finite number{' > 0' if positive else ''}, "
                             f"got {value!r}")
        return number
    return read


# Each model's builder, called as build(rng, **params) with the data rng, and
# the reader of each parameter it takes.  A parameter left out takes the
# default of the class or dataset function that reads it.
_MODELS = {
    "toy_gaussian": (lambda rng, **p: ToyGaussian(**p),
                     {"dim": _whole(), "m": _real(), "sigma0": _real(positive=True)}),
    "banana": (lambda rng: Banana(), {}),
    "funnel": (lambda rng, **p: Funnel(**p), {"dim": _whole(2)}),
    # The dataset's ratio test takes ddof=1 variances across and within groups.
    "hierarchical": (lambda rng, **p: Hierarchical(hierarchical_dataset(rng, **p)),
                     {"j_groups": _whole(2), "m_per_group": _whole(2)}),
    "mrna": (lambda rng: MRnaTransfection(*mrna_dataset(rng)), {}),
    "threshold_weibull": (lambda rng, **p: ThresholdWeibull(weibull_dataset(rng, **p)),
                          {"a": _real(), "b": _real(positive=True),
                           "c": _real(positive=True), "n": _whole()}),
    "xy": (lambda rng, **p: XYModel(**p), {"n": _whole(), "coupling": _real()}),
}


def available_models():
    return sorted(_MODELS)


def make_model(spec: ModelSpec) -> TemperedModel:
    """Instantiate a benchmark model by name; synthetic data is seeded.

    A parameter key that the model does not read, or a value that its reader
    refuses, raises ValueError before any data is drawn.
    """
    if spec.name not in _MODELS:
        raise ValueError(
            f"unknown model {spec.name!r}; available: {', '.join(available_models())}"
        )
    build, readers = _MODELS[spec.name]
    unknown = sorted(set(spec.params) - set(readers))
    if unknown:
        raise ValueError(f"model {spec.name!r} has no parameter {', '.join(map(repr, unknown))}; "
                         f"it reads {', '.join(map(repr, readers)) or 'none'}")
    params = {key: readers[key](key, value) for key, value in spec.params.items()}
    return build(np.random.default_rng(_DATA_SEED), **params)
