"""The boosting loop: additive stump models, vote weights, round statistics.

Training maintains a distribution over examples, asks the stump search for a
base classifier under it, picks that classifier's vote weight alpha, and
multiplies the distribution by exp(-alpha * y * h(x)) (exponential loss) or
recomputes it as sigmoid(-y * f(x)) (logistic loss). The combined score is
f(x) = sum of alpha_t * h_t(x), classified by its sign with sign(0) = +1.

Round statistics record the weighted error epsilon, the edge
gamma = 1/2 - epsilon, the normalizer z, and the running product of z values,
which for exponential-loss runs equals the mean exponential loss of f and
upper-bounds the training error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, normalized
from .errors import BoostkitError, DataError, InvariantError, UsageError
from .losses import log1pexp, sigmoid
from .stumps import (
    Stump,
    StumpSearchConfig,
    StumpSearchSpace,
    _best_binary,
    _best_confidence,
)

ALPHA_CAP = 35.0  # |alpha| * max|h| <= 35 keeps exp() inside double range

ALPHA_STRATEGIES = ("auto", "closed_form_binary", "line_search", "unit")
LOSS_KINDS = ("exponential", "logistic")


def sign_pm1(f) -> np.ndarray:
    """Sign in {-1, +1} with sign(0) = +1."""
    return np.where(np.asarray(f, dtype=np.float64) >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class AdditiveModel:
    """Weighted sum of stumps; immutable and safe to share."""

    terms: tuple[tuple[float, Stump], ...]
    loss_kind: str = "exponential"

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise DataError(f"unknown loss kind {self.loss_kind!r}")

    @property
    def rounds(self) -> int:
        return len(self.terms)

    @property
    def link(self) -> str:
        """Probability link bound at training time."""
        return "sigmoid2f" if self.loss_kind == "exponential" else "sigmoidf"

    def required_features(self) -> int:
        return 1 + max((s.feature_index for _, s in self.terms), default=0)

    def score(self, X: np.ndarray) -> np.ndarray:
        """f(x) for every row, accumulated in term order."""
        X = np.asarray(X, dtype=np.float64)
        f = np.zeros(X.shape[0])
        for alpha, stump in self.terms:
            f += alpha * stump.evaluate_matrix(X)
        return f

    @cached_property
    def _term_arrays(self):
        """Per-term feature, threshold, alpha*left and alpha*right arrays."""
        n = len(self.terms)
        feature = np.fromiter((s.feature_index for _, s in self.terms), np.int64, n)
        threshold = np.fromiter((s.threshold for _, s in self.terms), np.float64, n)
        left = np.fromiter((a * s.left_output for a, s in self.terms), np.float64, n)
        right = np.fromiter((a * s.right_output for a, s in self.terms), np.float64, n)
        return feature, threshold, left, right

    def score_one(self, x) -> float:
        """f(x) for one feature vector; equals ``score(x[None])[0]`` bit for bit.

        All terms are evaluated at once and summed in term order from 0.0,
        the same sequence of additions ``score`` performs per row.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise DataError("score_one expects a single feature vector")
        feature, threshold, left, right = self._term_arrays
        bad = (feature < 0) | (feature >= x.shape[0])
        if bad.any():
            raise DataError(
                f"feature index {int(feature[bad.argmax()])} out of range for {x.shape[0]} features"
            )
        h = np.where(x[feature] <= threshold, left, right)
        return float(np.cumsum(np.concatenate(([0.0], h)))[-1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return sign_pm1(self.score(X))


@dataclass
class RoundStats:
    """Per-round diagnostics of a training run."""

    round: int
    epsilon: float
    gamma: float
    z: float
    cumulative_bound: float
    train_error: float
    test_error: float | None = None
    loss: float | None = None
    prior_loss: float | None = None
    clamped: bool = False


@dataclass(frozen=True)
class BoostConfig:
    rounds: int
    loss_kind: str = "exponential"
    stumps: StumpSearchConfig = StumpSearchConfig()
    alpha_strategy: str = "auto"

    def __post_init__(self):
        if self.rounds < 1:
            raise UsageError("rounds must be >= 1")
        if self.loss_kind not in LOSS_KINDS:
            raise UsageError(f"unknown loss kind {self.loss_kind!r}")
        if self.alpha_strategy not in ALPHA_STRATEGIES:
            raise UsageError(f"unknown alpha strategy {self.alpha_strategy!r}")
        if self.alpha_strategy == "closed_form_binary" and self.stumps.mode != "binary":
            raise UsageError("closed_form_binary alpha requires binary stumps")

    def resolved_alpha_strategy(self) -> str:
        if self.alpha_strategy != "auto":
            return self.alpha_strategy
        if self.loss_kind == "logistic":
            return "line_search"
        return "closed_form_binary" if self.stumps.mode == "binary" else "unit"


def alpha_binary(epsilon: float, cap: float = ALPHA_CAP) -> float:
    """Vote weight 0.5*ln((1 - eps)/eps), capped to |alpha| <= cap.

    Zero error maps to +cap and error 1 to -cap; everything in between uses
    the exact formula, so the misclassified mass after the update is exactly
    one half whenever 0 < eps < 1.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise DataError(f"epsilon must be in [0, 1], got {epsilon!r}")
    if epsilon <= 0.0:
        return cap
    if epsilon >= 1.0:
        return -cap
    a = 0.5 * math.log((1.0 - epsilon) / epsilon)
    return min(max(a, -cap), cap)


def z_value(D: np.ndarray, h_outputs: np.ndarray, labels: np.ndarray, alpha: float) -> float:
    """Normalizer sum_i D_i * exp(-alpha * y_i * h_i)."""
    D = np.asarray(D, dtype=np.float64)
    h = np.asarray(h_outputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if not (D.shape == h.shape == y.shape):
        raise DataError("weight, output, and label vectors must share a length")
    return float(np.sum(D * np.exp(-alpha * y * h)))


def _newton_1d(derivs, lo: float, hi: float, tol: float) -> float:
    """Root of an increasing derivative on [lo, hi], Newton with bisection.

    ``derivs(x)`` returns the first and second derivative at x together, so
    a caller can get both from one evaluation of its exp or sigmoid.
    """
    a, b = lo, hi
    x = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    for _ in range(200):
        g, curv = derivs(x)
        if abs(g) <= tol:
            return x
        if g > 0.0:
            b = x
        else:
            a = x
        step = g / curv if curv > 0.0 else 0.0
        x_new = x - step
        if not a < x_new < b:
            x_new = 0.5 * (a + b)
        x = x_new
    return x


def alpha_line_search(
    D: np.ndarray,
    h_outputs: np.ndarray,
    labels: np.ndarray,
    cap: float = ALPHA_CAP,
    tol: float = 1e-10,
) -> float:
    """Minimize Z(alpha) = sum_i D_i exp(-alpha y_i h_i) over alpha.

    Z is strictly convex when both signs of y*h carry weight; the minimizer
    is found to |Z'(alpha)| <= tol by safeguarded Newton. If every weighted
    y*h shares one sign the objective is monotone and alpha is capped at
    +-cap / max|h|.
    """
    D = np.asarray(D, dtype=np.float64)
    h = np.asarray(h_outputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    yh = y * h
    active = (D > 0.0) & (yh != 0.0)
    if not np.any(active):
        raise DataError("uninformative base classifier: h is zero on the support")
    a_cap = cap / float(np.max(np.abs(h[active])))

    yha = yh[active]
    # Z' = sum -D yh e and Z'' = sum D yh yh e with e = exp(-a yh)
    d1w = -D[active] * yha
    d2w = D[active] * yha * yha

    def derivs(a: float) -> tuple[float, float]:
        e = np.exp(-a * yha)
        return float(np.sum(d1w * e)), float(np.sum(d2w * e))

    if derivs(a_cap)[0] <= 0.0:
        return a_cap
    if derivs(-a_cap)[0] >= 0.0:
        return -a_cap
    return _newton_1d(derivs, -a_cap, a_cap, tol)


def alpha_logistic_line_search(
    base_weights: np.ndarray,
    f_prev: np.ndarray,
    h_outputs: np.ndarray,
    labels: np.ndarray,
    cap: float = ALPHA_CAP,
    tol: float = 1e-10,
) -> float:
    """Minimize sum_i w_i ln(1 + exp(-y_i (f_i + alpha h_i))) over alpha.

    Both derivatives come from one sigmoid s = sigmoid(-(yf + a yh)) per
    Newton step: L' = sum -w yh s and L'' = sum w yh yh s (1 - s).
    """
    w = np.asarray(base_weights, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    yh = y * np.asarray(h_outputs, dtype=np.float64)
    yf = y * np.asarray(f_prev, dtype=np.float64)
    active = (w > 0.0) & (yh != 0.0)
    if not np.any(active):
        raise DataError("uninformative base classifier: h is zero on the support")
    a_cap = cap / float(np.max(np.abs(yh[active])))

    wa, yha, yfa = w[active], yh[active], yf[active]
    d1w = -wa * yha
    d2w = wa * yha * yha

    def derivs(a: float) -> tuple[float, float]:
        t = a * yha
        t += yfa
        np.negative(t, out=t)
        s = sigmoid(t)
        d1 = float(np.sum(d1w * s))
        np.multiply(d2w, s, out=t)
        np.subtract(1.0, s, out=s)
        t *= s
        return d1, float(np.sum(t))

    if derivs(a_cap)[0] <= 0.0:
        return a_cap
    if derivs(-a_cap)[0] >= 0.0:
        return -a_cap
    return _newton_1d(derivs, -a_cap, a_cap, tol)


def update_distribution(
    D: np.ndarray, h_outputs: np.ndarray, labels: np.ndarray, alpha: float
) -> tuple[np.ndarray, float]:
    """One multiplicative weight update; returns (new distribution, Z)."""
    D = np.asarray(D, dtype=np.float64)
    h = np.asarray(h_outputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    w = D * np.exp(-alpha * y * h)
    z = float(w.sum())
    if not np.isfinite(z) or z <= 0.0:
        raise InvariantError(f"distribution normalizer is {z!r}")
    return w / z, z


def _base_weights(ds: Dataset) -> np.ndarray:
    return ds.weights if ds.weights is not None else np.ones(ds.m)


def exponential_weights(model: AdditiveModel, ds: Dataset) -> np.ndarray:
    """Distribution proportional to base_weight * exp(-y * f(x)).

    Recomputed from scratch; equals the result of iterating the
    multiplicative update round by round.
    """
    if not ds.is_classification:
        raise DataError("weight schemes require classification labels")
    e = -(ds.labels * model.score(ds.features))
    e -= e.max()  # scale cancels after normalization
    return normalized(_base_weights(ds) * np.exp(e))


def logistic_weights(model: AdditiveModel, ds: Dataset) -> np.ndarray:
    """Distribution proportional to base_weight * sigmoid(-y * f(x))."""
    if not ds.is_classification:
        raise DataError("weight schemes require classification labels")
    w = _base_weights(ds) * sigmoid(-(ds.labels * model.score(ds.features)))
    return normalized(w)


def _log_weighted_exp_mean(base: np.ndarray, exponents: np.ndarray) -> float:
    """ln( sum(base * exp(exponents)) / sum(base) ), overflow-safe."""
    mx = float(exponents.max())
    s = float(np.sum(base * np.exp(exponents - mx)))
    return mx + math.log(s) - math.log(float(base.sum()))


def train(
    ds: Dataset,
    cfg: BoostConfig,
    eval_ds: Dataset | None = None,
    _space: StumpSearchSpace | None = None,
) -> tuple[AdditiveModel, list[RoundStats]]:
    """Run the full boosting loop and return the model plus round stats.

    Exponential loss maintains the distribution iteratively through the
    multiplicative update; logistic loss recomputes it from the current
    score every round. Dataset.weights, when present, act as base weights
    in both schemes and in the logistic line search.
    """
    if not ds.is_classification:
        raise DataError("training requires classification labels (-1/+1)")
    if eval_ds is not None and eval_ds.d != ds.d:
        raise DataError(f"eval data has {eval_ds.d} features, expected {ds.d}")
    strategy = cfg.resolved_alpha_strategy()
    X, y, m = ds.features, ds.labels, ds.m
    base = _base_weights(ds)
    space = _space if _space is not None else StumpSearchSpace(X)
    smoothing = cfg.stumps.resolve_smoothing(m)

    D = normalized(base)
    f = np.zeros(m)
    f_eval = np.zeros(eval_ds.m) if eval_ds is not None else None
    terms: list[tuple[float, Stump]] = []
    stats: list[RoundStats] = []
    prod_z = 1.0
    log_surrogate_prev = 0.0

    for t in range(1, cfg.rounds + 1):
        if cfg.loss_kind == "logistic":
            D = normalized(base * sigmoid(-(y * f)))
        try:
            if cfg.stumps.mode == "binary":
                stump, _ = _best_binary(space, D, y)
            else:
                stump = _best_confidence(space, D, y, smoothing)
            h = stump.evaluate_matrix(X)
            epsilon = float(np.sum(D[sign_pm1(h) != y]))

            if strategy == "closed_form_binary":
                alpha = alpha_binary(epsilon)
                clamped = epsilon <= 0.0 or epsilon >= 1.0
            elif strategy == "unit":
                alpha = 1.0
                clamped = False
            elif cfg.loss_kind == "exponential":
                alpha = alpha_line_search(D, h, y)
                clamped = abs(alpha) * float(np.max(np.abs(h))) >= ALPHA_CAP - 1e-9
            else:
                alpha = alpha_logistic_line_search(base, f, h, y)
                clamped = abs(alpha) * float(np.max(np.abs(h))) >= ALPHA_CAP - 1e-9
        except BoostkitError as exc:
            raise type(exc)(f"round {t}: {exc}") from exc

        if cfg.loss_kind == "exponential":
            D, z = update_distribution(D, h, y, alpha)
            f = f + alpha * h
            loss = float(np.sum(base * np.exp(-(y * f))))
        else:
            f = f + alpha * h
            log_surrogate = _log_weighted_exp_mean(base, -(y * f))
            z = math.exp(log_surrogate - log_surrogate_prev)
            log_surrogate_prev = log_surrogate
            loss = float(np.sum(base * log1pexp(-(y * f))))
        prod_z *= z

        terms.append((alpha, stump))
        train_error = float(np.mean(sign_pm1(f) != y))
        test_error = None
        if eval_ds is not None:
            f_eval = f_eval + alpha * stump.evaluate_matrix(eval_ds.features)
            test_error = float(np.mean(sign_pm1(f_eval) != eval_ds.labels))
        stats.append(
            RoundStats(
                round=t,
                epsilon=epsilon,
                gamma=0.5 - epsilon,
                z=z,
                cumulative_bound=prod_z,
                train_error=train_error,
                test_error=test_error,
                loss=loss,
                clamped=clamped,
            )
        )

    return AdditiveModel(tuple(terms), cfg.loss_kind), stats


def margins(model: AdditiveModel, ds: Dataset) -> np.ndarray:
    """Normalized confidences y*f(x) / sum|alpha| for every example."""
    denom = sum(abs(a) for a, _ in model.terms)
    if denom <= 0.0:
        raise DataError("margins undefined: total |alpha| is zero")
    return ds.labels * model.score(ds.features) / denom


@dataclass(frozen=True)
class BoundRow:
    round: int
    train_error: float
    prod_z: float
    prod_sqrt: float
    exp_bound: float


@dataclass(frozen=True)
class BoundReport:
    rows: tuple[BoundRow, ...]
    ok: bool
    messages: tuple[str, ...]


def bound_report(stats: list[RoundStats]) -> BoundReport:
    """Training-error bound chain for a binary-stump exponential run.

    Emits, per round, the training error, the product of normalizers, the
    product of 2*sqrt(eps(1-eps)) terms, and exp(-2 * sum_gamma^2), and
    verifies train_error <= prod_z <= exp_bound.
    """
    rows: list[BoundRow] = []
    messages: list[str] = []
    prod_sqrt = 1.0
    gamma_sq = 0.0
    ok = True
    for s in stats:
        prod_sqrt *= 2.0 * math.sqrt(max(s.epsilon * (1.0 - s.epsilon), 0.0))
        gamma_sq += s.gamma * s.gamma
        exp_bound = math.exp(-2.0 * gamma_sq)
        rows.append(BoundRow(s.round, s.train_error, s.cumulative_bound, prod_sqrt, exp_bound))
        tol = 1e-9 * max(1.0, s.cumulative_bound)
        if s.train_error > s.cumulative_bound + tol:
            ok = False
            messages.append(
                f"round {s.round}: train_error {s.train_error!r} exceeds prod_z {s.cumulative_bound!r}"
            )
        if s.cumulative_bound > exp_bound + tol:
            ok = False
            messages.append(
                f"round {s.round}: prod_z {s.cumulative_bound!r} exceeds exp bound {exp_bound!r}"
            )
    return BoundReport(tuple(rows), ok, tuple(messages))


STATS_CSV_COLUMNS = (
    "round",
    "epsilon",
    "gamma",
    "z",
    "prod_z",
    "exp_bound",
    "train_error",
    "test_error",
)


def stats_csv_rows(stats: list[RoundStats]) -> list[list[str]]:
    """Stats formatted for the per-round CSV stream (header not included)."""
    rows = []
    gamma_sq = 0.0
    for s in stats:
        gamma_sq += s.gamma * s.gamma
        rows.append(
            [
                str(s.round),
                repr(s.epsilon),
                repr(s.gamma),
                repr(s.z),
                repr(s.cumulative_bound),
                repr(math.exp(-2.0 * gamma_sq)),
                repr(s.train_error),
                "" if s.test_error is None else repr(s.test_error),
            ]
        )
    return rows
