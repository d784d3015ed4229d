"""Boosting that balances training data against a hand-built probability rule.

The objective adds, to the base-weighted logistic loss of the data, an
eta-weighted binary relative entropy between the rule's probability p(x) and
the model's sigmoid(f(x)). It equals, up to an additive constant (eta times
the summed entropy of p), the weighted logistic loss of an augmented example
set: each original example contributes itself with its base weight plus a
(+1, weight eta*p) and a (-1, weight eta*(1-p)) copy
(:func:`augment_with_prior`). The copies share the example's features and
score, so training folds them back into it: each of the m rows carries a
mass on its own label (base weight plus the copy with the same label) and a
mass on the other label, and the booster runs logistic boosting over these
soft labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boosting import AdditiveModel, BoostConfig, RoundStats, _base_weights, sign_pm1, train
from .data import Dataset
from .errors import DataError, TextLines, UsageError
from .losses import log1pexp, sigmoid


@dataclass(frozen=True)
class PriorConfig:
    """eta trades data likelihood against distance from the rule.

    There is no sensible default for eta; callers must choose it.
    epsilon_clip keeps the model probability away from 0/1 inside the
    relative entropy so early extreme scores stay finite.
    """

    eta: float
    epsilon_clip: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.eta < math.inf:
            raise UsageError(f"eta must be finite and nonnegative, got {self.eta!r}")
        if not 0.0 < self.epsilon_clip < 0.5:
            raise UsageError("epsilon_clip must be in (0, 0.5)")


@dataclass(frozen=True)
class PriorRule:
    """First-match-wins threshold rules mapping an instance to a probability.

    Each rule tests one feature against a threshold with <= or >; instances
    matching no rule get the default probability.
    """

    rules: tuple[tuple[int, str, float, float], ...]
    default: float

    def __post_init__(self):
        for idx, comparator, _, p in self.rules:
            if comparator not in ("<=", ">"):
                raise DataError(f"unknown comparator {comparator!r}")
            if not 0.0 <= p <= 1.0 or idx < 0:
                raise DataError("rule probabilities must be in [0,1] and indices >= 0")
        if not 0.0 <= self.default <= 1.0:
            raise DataError("default probability must be in [0,1]")

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        p = np.full(X.shape[0], self.default)
        unmatched = np.ones(X.shape[0], dtype=bool)
        for idx, comparator, threshold, prob in self.rules:
            if idx >= X.shape[1]:
                raise DataError(f"rule feature index {idx} out of range")
            hit = X[:, idx] <= threshold if comparator == "<=" else X[:, idx] > threshold
            take = unmatched & hit
            p[take] = prob
            unmatched &= ~take
        return p


def load_rule_table(path: str) -> PriorRule:
    """Parse a rule file: `feature_index, <=|>, threshold, probability`
    lines followed by a final `default, probability` line."""
    rules: list[tuple[int, str, float, float]] = []
    default: float | None = None
    with TextLines(path) as lines:
        for raw in lines:
            line = raw.strip()
            if line.startswith("#"):
                continue
            if default is not None:
                raise DataError("rules after the default line")
            parts = [p.strip() for p in line.split(",")]
            try:
                if parts[0] == "default" and len(parts) == 2:
                    default = float(parts[1])
                elif len(parts) == 4:
                    rules.append((int(parts[0]), parts[1], float(parts[2]), float(parts[3])))
                else:
                    raise ValueError
            except ValueError:
                raise DataError(f"cannot parse {line!r}") from None
            # built after every line, so that PriorRule's checks name the line at fault
            table = PriorRule(tuple(rules), 0.0 if default is None else default)
        if default is None:
            raise DataError("missing final default line")
    return table


def relative_entropy(p, q):
    """Binary relative entropy p*ln(p/q) + (1-p)*ln((1-p)/(1-q)).

    Uses the 0*ln(0) = 0 convention for p in {0, 1}; q must be strictly
    inside (0, 1) (clip before calling).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any((p < 0.0) | (p > 1.0)):
        raise DataError("first argument must be in [0,1]")
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise DataError("second argument must be strictly inside (0,1)")
    with np.errstate(divide="ignore", invalid="ignore"):
        term_pos = np.where(p > 0.0, p * (np.log(p) - np.log(q)), 0.0)
        term_neg = np.where(p < 1.0, (1.0 - p) * (np.log1p(-p) - np.log1p(-q)), 0.0)
    out = term_pos + term_neg
    return out if out.ndim else float(out)


def _resolve_prior(ds: Dataset, prior) -> np.ndarray:
    if prior is None:
        if ds.prior is None:
            raise DataError("no prior available: dataset has no prior column")
        return ds.prior
    if isinstance(prior, PriorRule):
        return prior.evaluate(ds.features)
    p = np.asarray(prior, dtype=np.float64)
    if p.shape != (ds.m,):
        raise DataError("prior must have one probability per example")
    if np.any((p < 0.0) | (p > 1.0)):
        raise DataError("prior out of [0,1]")
    return p


def prior_objective(
    f_values: np.ndarray,
    ds: Dataset,
    p: np.ndarray,
    eta: float,
    epsilon_clip: float,
) -> float:
    """Base-weighted logistic loss of the scores plus eta * RE(p || clipped sigmoid(f)).

    That is the augmented set's weighted logistic loss minus eta * sum H(p).
    """
    f = np.asarray(f_values, dtype=np.float64)
    data_term = float(np.sum(_base_weights(ds) * log1pexp(-(ds.labels * f))))
    q = np.clip(sigmoid(f), epsilon_clip, 1.0 - epsilon_clip)
    return data_term + eta * float(np.sum(relative_entropy(p, q)))


def augment_with_prior(ds: Dataset, prior, eta: float) -> Dataset:
    """3m-row weighted dataset whose logistic loss matches the objective.

    Rows are the originals (base weight), then +1 copies weighted eta*p,
    then -1 copies weighted eta*(1-p). Zero-weight rows are dropped, so
    eta=0 returns exactly the original examples.
    """
    if not ds.is_classification:
        raise DataError("prior training requires classification labels")
    if eta < 0.0:
        raise UsageError("eta must be nonnegative")
    p = _resolve_prior(ds, prior)
    feats = np.vstack((ds.features, ds.features, ds.features))
    labels = np.concatenate((ds.labels, np.ones(ds.m), -np.ones(ds.m)))
    weights = np.concatenate((_base_weights(ds), eta * p, eta * (1.0 - p)))
    keep = weights > 0.0
    if not np.any(keep):
        raise DataError("all augmented weights are zero")
    return replace(ds, features=feats[keep], labels=labels[keep], prior=None, weights=weights[keep])


def _fold(ds: Dataset, p: np.ndarray, eta: float):
    """Own-label and flipped-label masses of each row, as the augmented set has them.

    Also returns, per row, how many augmented rows carry each mass (copies
    of weight zero are dropped), so error rates over the augmented rows can
    be counted exactly.
    """
    base = _base_weights(ds)
    to_pos, to_neg = eta * p, eta * (1.0 - p)
    pos = ds.labels > 0.0
    own = base + np.where(pos, to_pos, to_neg)
    flip = np.where(pos, to_neg, to_pos)
    own_rows = (base > 0.0).astype(np.int64) + np.where(pos, to_pos > 0.0, to_neg > 0.0)
    flip_rows = np.where(pos, to_neg > 0.0, to_pos > 0.0).astype(np.int64)
    return own, flip, own_rows, flip_rows


def train_with_prior(
    ds: Dataset,
    prior,
    prior_cfg: PriorConfig,
    boost_cfg: BoostConfig,
    eval_ds: Dataset | None = None,
) -> tuple[AdditiveModel, list[RoundStats]]:
    """Logistic boosting of the m rows with their folded prior masses.

    Each row keeps its label y with mass base + eta*p (y = +1) or
    base + eta*(1-p) (y = -1) and gets mass eta*(1-p), resp. eta*p, on -y;
    rows with no mass are dropped, as the augmented set drops them. The
    model is that of training on :func:`augment_with_prior`'s set up to
    rounding. Two things keep their meaning on that set: the default
    confidence smoothing is 1/(2n) with n its row count, and train_error is
    the error over its rows. Stats gain prior_loss.

    With line-search alpha the recorded prior_loss is non-increasing round
    over round, because each round minimizes the augmented weighted logistic
    loss over alpha and the two objectives differ by a constant.
    """
    if boost_cfg.loss_kind != "logistic":
        raise UsageError("prior training requires logistic loss")
    if not ds.is_classification:
        raise DataError("prior training requires classification labels")
    p = _resolve_prior(ds, prior)
    own, flip, own_rows, flip_rows = _fold(ds, p, prior_cfg.eta)
    n_rows = int(np.sum(own_rows) + np.sum(flip_rows))
    keep = own + flip > 0.0
    folded = replace(ds, features=ds.features[keep], labels=ds.labels[keep], prior=None, weights=own[keep])
    smoothing = boost_cfg.stumps.resolve_smoothing(n_rows)
    cfg = replace(boost_cfg, stumps=replace(boost_cfg.stumps, smoothing=smoothing))
    flip = flip[keep]
    # with no mass on flipped labels this is plain training, bit for bit
    model, stats = train(folded, cfg, eval_ds, _flip=flip if np.any(flip) else None)
    f = np.zeros(ds.m)
    for (alpha, stump), s in zip(model.terms, stats):
        f += alpha * stump.evaluate_matrix(ds.features)
        s.prior_loss = prior_objective(f, ds, p, prior_cfg.eta, prior_cfg.epsilon_clip)
        wrong = sign_pm1(f) != ds.labels
        s.train_error = int(np.sum(np.where(wrong, own_rows, flip_rows))) / n_rows
    return model, stats
