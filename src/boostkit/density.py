"""Conditional density estimation over a discretized label range.

The real-valued label range is cut at breakpoints chosen from empirical
quantiles. One logistic-loss boosted classifier per breakpoint b estimates
the probability that y >= b given x. The per-breakpoint survival estimates
are made monotone by a running minimum and differenced into bin masses,
giving a full conditional distribution that can be sampled and inverted.

Within-bin density is uniform, and the end bins are clamped to the observed
label range.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .boosting import AdditiveModel, BoostConfig, train
from .data import Dataset
from .errors import DataError, UsageError
from .losses import prob_positive
from .rng import RngState
from .stumps import Stump, StumpSearchSpace


@dataclass(frozen=True)
class Breakpoints:
    """Strictly increasing cut points plus the observed label range."""

    values: np.ndarray
    support_lo: float
    support_hi: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 1:
            raise DataError("need at least one breakpoint")
        if not np.all(np.isfinite(v)) or np.any(np.diff(v) <= 0.0):
            raise DataError("breakpoints must be finite and strictly increasing")
        if not (self.support_lo <= v[0] and v[-1] <= self.support_hi):
            raise DataError("breakpoints must lie inside the support range")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def k(self) -> int:
        return int(self.values.shape[0])

    @property
    def edges(self) -> np.ndarray:
        """Bin edges: support_lo, the breakpoints, support_hi."""
        return np.concatenate(([self.support_lo], self.values, [self.support_hi]))


@dataclass(frozen=True)
class BinDistribution:
    """Probability masses over the k+1 bins between consecutive edges.

    ``masses`` is one distribution, shape (k+1,), or one per row, shape
    (n, k+1); every row must be nonnegative and sum to 1.
    """

    masses: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=np.float64)
        e = np.asarray(self.edges, dtype=np.float64)
        if m.ndim not in (1, 2) or e.shape[0] != m.shape[-1] + 1:
            raise DataError("need one more edge than masses")
        if np.any(m < 0.0) or np.any(np.abs(m.sum(axis=-1) - 1.0) > 1e-9):
            raise DataError("masses must be nonnegative and sum to 1")
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "edges", e)


@dataclass(frozen=True)
class ConditionalDensityModel:
    """One logistic classifier per breakpoint, targeting y >= breakpoint."""

    breakpoints: Breakpoints
    classifiers: tuple[AdditiveModel, ...]
    constant_flags: tuple[bool, ...]

    def __post_init__(self):
        if len(self.classifiers) != self.breakpoints.k:
            raise DataError("need one classifier per breakpoint")
        if len(self.constant_flags) != self.breakpoints.k:
            raise DataError("need one constant flag per breakpoint")
        if any(c.loss_kind != "logistic" for c in self.classifiers):
            raise DataError("density classifiers must use logistic loss")

    @property
    def k(self) -> int:
        return self.breakpoints.k

    def required_features(self) -> int:
        return max(c.required_features() for c in self.classifiers)


def choose_breakpoints(labels: np.ndarray, k: int) -> Breakpoints:
    """Empirical quantiles at levels j/(k+1), deduplicated.

    Quantiles interpolate linearly between order statistics, so e.g. the
    median of (1,2,3,4) is 2.5. Duplicate quantiles (heavily repeated
    labels) are collapsed, reducing k with a warning.
    """
    y = np.asarray(labels, dtype=np.float64)
    distinct = np.unique(y)
    if distinct.shape[0] < 2:
        raise DataError("degenerate label range: need >= 2 distinct labels")
    if not 1 <= k < distinct.shape[0]:
        raise DataError(
            f"k must be in [1, {distinct.shape[0] - 1}] for {distinct.shape[0]} distinct labels"
        )
    levels = np.arange(1, k + 1) / (k + 1)
    b = np.unique(np.quantile(y, levels))
    if b.shape[0] < k:
        warnings.warn(
            f"duplicate quantiles reduced breakpoints from {k} to {b.shape[0]}",
            stacklevel=2,
        )
    return Breakpoints(values=b, support_lo=float(y.min()), support_hi=float(y.max()))


def _constant_classifier(n_pos: int, m: int) -> AdditiveModel:
    """Single-term model with constant output at the clamped log-odds.

    Used when a breakpoint's binary subproblem is single-class: the rate is
    clamped by the add-one rule (n_pos + 1)/(m + 2) so the log-odds stay
    finite.
    """
    p = (n_pos + 1.0) / (m + 2.0)
    c = float(np.log(p / (1.0 - p)))
    return AdditiveModel(((1.0, Stump(0, 0.0, c, c)),), "logistic")


def train_cde(ds: Dataset, k: int, cfg: BoostConfig) -> ConditionalDensityModel:
    """Train one logistic boosted classifier per breakpoint.

    The per-breakpoint trainings are independent (same features, binary
    labels y >= b_j) and share the boosting config.
    """
    if ds.is_classification:
        raise DataError("density estimation requires real-valued labels")
    if cfg.loss_kind != "logistic":
        raise UsageError("density estimation requires logistic loss")
    bps = choose_breakpoints(ds.labels, k)
    space = StumpSearchSpace(ds.features)
    classifiers: list[AdditiveModel] = []
    flags: list[bool] = []
    for b in bps.values:
        z = np.where(ds.labels >= b, 1.0, -1.0)
        n_pos = int(np.sum(z > 0.0))
        if n_pos == 0 or n_pos == ds.m:
            classifiers.append(_constant_classifier(n_pos, ds.m))
            flags.append(True)
            continue
        model, _ = train(replace(ds, labels=z, prior=None), cfg, _space=space, _stats=False)
        classifiers.append(model)
        flags.append(False)
    return ConditionalDensityModel(bps, tuple(classifiers), tuple(flags))


def distribution_from_scores(q_raw: np.ndarray, breakpoints: Breakpoints) -> BinDistribution:
    """Bin masses from raw survival estimates q_j ~= Pr[y >= b_j | x].

    ``q_raw`` holds k estimates, or an (n, k) array of them for n rows.
    Monotonicity is enforced by a running minimum anchored at 1 on the left
    and 0 on the right, so masses are nonnegative by construction; each
    row is renormalized by its own sum to kill floating-point drift.
    """
    q = np.clip(np.asarray(q_raw, dtype=np.float64), 0.0, 1.0)
    if q.ndim not in (1, 2) or q.shape[-1] != breakpoints.k:
        raise DataError(f"need {breakpoints.k} survival estimates, got {q.shape}")
    ends = q.shape[:-1] + (1,)
    q_mono = np.minimum.accumulate(np.concatenate((np.ones(ends), q), axis=-1), axis=-1)
    full = np.concatenate((q_mono, np.zeros(ends)), axis=-1)
    masses = -np.diff(full, axis=-1)
    return BinDistribution(masses / masses.sum(axis=-1, keepdims=True), breakpoints.edges)


def survival_probabilities(model: ConditionalDensityModel, X: np.ndarray) -> np.ndarray:
    """Monotone survival estimates, one row per input: column j is
    the clamped estimate of Pr[y >= b_j | x].

    A single row is scored with ``score_one``, which evaluates all of a
    classifier's terms at once; more rows are scored term by term.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < model.required_features():
        raise DataError(f"inputs must have at least {model.required_features()} features")
    if X.shape[0] == 1:
        f = np.array([[c.score_one(X[0]) for c in model.classifiers]])
    else:
        f = np.column_stack([c.score(X) for c in model.classifiers])
    q = prob_positive(f, "logistic")
    return np.minimum.accumulate(np.clip(q, 0.0, 1.0), axis=1)


def conditional_distributions(model: ConditionalDensityModel, X: np.ndarray) -> BinDistribution:
    """Estimated distribution of y for every row of X: masses of shape (n, k+1)."""
    return distribution_from_scores(survival_probabilities(model, X), model.breakpoints)


def conditional_distribution(model: ConditionalDensityModel, x) -> BinDistribution:
    """Estimated distribution of y given one feature vector."""
    dist = conditional_distributions(model, np.asarray(x, dtype=np.float64)[None, :])
    return BinDistribution(dist.masses[0], dist.edges)


def sample_rows(model: ConditionalDensityModel, X: np.ndarray, n: int, rng: RngState) -> np.ndarray:
    """n draws for every row of X, shape (rows, n), in row-major draw order.

    Each row's distribution is computed once. Each draw takes two uniforms,
    the first picking a bin by inverse CDF and the second a point uniform
    within it, so the stream advances by 2 * rows * n.
    """
    dist = conditional_distributions(model, X)
    rows, bins = dist.masses.shape
    u = np.array([rng.random() for _ in range(2 * rows * n)]).reshape(rows, n, 2)
    cum = np.cumsum(dist.masses, axis=1)
    idx = np.empty((rows, n), dtype=np.intp)
    for i in range(rows):
        idx[i] = np.searchsorted(cum[i], u[i, :, 0], side="right")
    np.minimum(idx, bins - 1, out=idx)
    lo = dist.edges[idx]
    hi = dist.edges[idx + 1]
    return lo + u[:, :, 1] * (hi - lo)


def sample(model: ConditionalDensityModel, x, rng: RngState) -> float:
    """One draw: inverse-CDF bin choice, then uniform within the bin.

    Consumes exactly two uniforms per call, so sample streams are
    reproducible from the seed.
    """
    return float(sample_rows(model, np.asarray(x, dtype=np.float64)[None, :], 1, rng)[0, 0])


def quantiles(model: ConditionalDensityModel, X: np.ndarray, level: float) -> np.ndarray:
    """Inverse of each row's piecewise-linear CDF at ``level``, one value per row."""
    if not 0.0 < level < 1.0:
        raise DataError("quantile level must be in (0, 1)")
    dist = conditional_distributions(model, X)
    masses = dist.masses
    cum = np.cumsum(masses, axis=1)
    cum[:, -1] = 1.0
    # cum is nondecreasing up to its last entry, 1.0 > level, so counting
    # the entries below level is the left-side searchsorted index
    idx = np.count_nonzero(cum < level, axis=1)
    rows = np.arange(masses.shape[0])
    lo, hi = dist.edges[idx], dist.edges[idx + 1]
    mass = masses[rows, idx]
    below = np.where(idx > 0, cum[rows, idx - 1], 0.0)
    positive = mass > 0.0
    frac = np.divide(level - below, mass, out=np.zeros_like(mass), where=positive)
    return np.where(positive, lo + frac * (hi - lo), lo)


def quantile(model: ConditionalDensityModel, x, level: float) -> float:
    """Inverse of the piecewise-linear CDF implied by the bin masses."""
    return float(quantiles(model, np.asarray(x, dtype=np.float64)[None, :], level)[0])
