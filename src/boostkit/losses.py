"""Margin losses and the probability link.

Three losses of the margin z = y*f(x):

- ``exponential``: exp(-z), the objective the classic boosting update
  greedily minimizes.
- ``logistic``: ln(1 + exp(-z)), the loss of logistic-loss training,
  paired with the link sigma(f).
- ``logistic2``: ln(1 + exp(-2z)), the negative log-likelihood under the
  two-sided link sigma(2f): logistic at 2f, which the test suite's
  loss-relation checks compare with exponential loss.

The link is bound to the training loss and recorded in model files:
exponential calibrates with sigma(2f), logistic with sigma(f).
:data:`LINKS` holds the binding.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DataError


def log1pexp(x):
    """ln(1 + exp(x)) without overflow for large |x|: log1p(exp(-|x|)) + max(x, 0)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
    return out if out.ndim else float(out)


def sigmoid(x):
    """1/(1 + exp(-x)), stable for any finite x.

    Computed as exp(min(x, 0)) / (1 + exp(-|x|)): the numerator is e^x where
    x < 0 (there -|x| = x, so both exps see the same input) and exactly 1
    elsewhere, and no exp ever overflows. Two exps and no masked copy, in
    two in-place buffers.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    if scalar:
        x = x.reshape(1)
    # The result is allocated before the scratch buffer, so the scratch is
    # the block freed on return. The other order left more of the heap in
    # use after large calls and raised the peak memory of batch predict.
    out = np.empty_like(x)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=out)
    np.minimum(x, 0.0, out=e)
    np.exp(e, out=e)
    np.divide(e, out, out=out)
    return float(out[0]) if scalar else out


def loss_values(margins, kind: str):
    """Per-example loss of margin z = y*f under the given loss kind."""
    z = np.asarray(margins, dtype=np.float64)
    if kind == "exponential":
        out = np.exp(-z)
    elif kind == "logistic2":
        out = log1pexp(-2.0 * z)
    elif kind == "logistic":
        out = log1pexp(-z)
    else:
        raise DataError(f"unknown loss kind {kind!r}")
    return out if np.ndim(out) else float(out)


class Link(NamedTuple):
    """The probability link sigma(scale * f), by its model-file name."""

    name: str
    scale: float


# Training loss -> the link its scores are calibrated with.
LINKS = {
    "exponential": Link("sigmoid2f", 2.0),
    "logistic": Link("sigmoidf", 1.0),
}


def prob_positive(f_value, loss_kind: str):
    """Probability of label +1 implied by score f under a training loss's link.

    Exponential uses sigma(2f) and logistic sigma(f). Accepts scalars or
    arrays; result is always strictly inside (0, 1) for finite f up to float
    saturation. A non-finite score is an error naming the first such row.
    """
    link = LINKS.get(loss_kind)
    if link is None:
        raise DataError(f"unknown loss kind {loss_kind!r}")
    f = np.asarray(f_value, dtype=np.float64)
    check_finite_scores(f)
    return sigmoid(link.scale * f)


def check_finite_scores(f) -> None:
    """Raise DataError naming the first row whose score is not finite."""
    f = np.atleast_1d(f)
    bad = np.argwhere(~np.isfinite(f))
    if bad.size:
        first = tuple(bad[0])
        raise DataError(f"score must be finite; row {first[0]} has {float(f[first])!r}")
