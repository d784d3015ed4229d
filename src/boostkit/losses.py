"""Margin losses, the probability link, and executable loss-relation checks.

Three losses of the margin z = y*f(x):

- ``exponential``: exp(-z), the objective the classic boosting update
  greedily minimizes.
- ``logistic``: ln(1 + exp(-z)), the loss of logistic-loss training,
  paired with the link sigma(f).
- ``logistic2``: ln(1 + exp(-2z)), the negative log-likelihood under the
  two-sided link sigma(2f): logistic at 2f, compared with exponential loss
  by the loss-relation checks.

The link is bound to the training loss and recorded in model files:
exponential calibrates with sigma(2f), logistic with sigma(f).
:data:`LINKS` holds the binding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError

LN2 = math.log(2.0)


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


@dataclass(frozen=True)
class CheckItem:
    name: str
    measured: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.expected) <= self.tolerance

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: measured={self.measured!r} "
            f"expected={self.expected!r} tol={self.tolerance!r} "
            f"delta={self.measured - self.expected!r}"
        )


@dataclass(frozen=True)
class CheckReport:
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        return [item.line() for item in self.items]


def _shifted_logistic(z):
    # logistic2 plus the constant that matches exp(-z) at z=0
    return log1pexp(-2.0 * np.asarray(z, dtype=np.float64)) + 1.0 - LN2


def taylor_match_check(step: float = 1e-4, tol: float = 1e-5) -> CheckReport:
    """Check the shifted logistic2 loss matches exp(-z) to second order at 0.

    Value, first and second derivative are compared by central finite
    differences with the given step; a third check bounds
    |g(z) - exp(-z)| / |z|^3 on [-0.1, 0.1], the cubic-remainder ratio.
    """
    g = _shifted_logistic
    e = lambda z: np.exp(-np.asarray(z, dtype=np.float64))
    items = [
        CheckItem("value_at_zero_shifted_logistic", float(g(0.0)), 1.0, 1e-12),
        CheckItem("value_at_zero_exponential", float(e(0.0)), 1.0, 1e-12),
    ]
    for name, fn, expected_d1, expected_d2 in (
        ("shifted_logistic", g, -1.0, 1.0),
        ("exponential", e, -1.0, 1.0),
    ):
        d1 = (float(fn(step)) - float(fn(-step))) / (2.0 * step)
        d2 = (float(fn(step)) - 2.0 * float(fn(0.0)) + float(fn(-step))) / (step * step)
        items.append(CheckItem(f"first_derivative_at_zero_{name}", d1, expected_d1, tol))
        items.append(CheckItem(f"second_derivative_at_zero_{name}", d2, expected_d2, tol))
    grid = np.linspace(-0.1, 0.1, 2001)
    grid = grid[grid != 0.0]
    ratio = float(np.max(np.abs(g(grid) - e(grid)) / np.abs(grid) ** 3))
    # the cubic coefficient of the difference is 1/6; allow headroom
    items.append(CheckItem("cubic_remainder_ratio_bounded", ratio, 0.0, 0.25))
    return CheckReport(tuple(items))


def _golden_section_min(fn, lo: float, hi: float) -> float:
    """Minimizer of a unimodal function on [lo, hi], to an interval of 1e-10."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def common_minimizer_check(p_grid, tol: float = 1e-6) -> CheckReport:
    """Check both losses' pointwise risks share the half-log-odds minimizer.

    For each probability p of label +1, numerically minimizes
    p*exp(-f) + (1-p)*exp(f) and p*ln(1+e^{-2f}) + (1-p)*ln(1+e^{2f}) over f
    and compares both argmins with 0.5*ln(p/(1-p)).
    """
    items = []
    for p in np.asarray(p_grid, dtype=np.float64):
        p = float(p)
        if not 0.0 < p < 1.0:
            raise DataError("probabilities must be strictly inside (0, 1)")
        expected = 0.5 * math.log(p / (1.0 - p))
        phi_exp = lambda f: p * math.exp(-f) + (1.0 - p) * math.exp(f)
        phi_log = lambda f: p * float(log1pexp(-2.0 * f)) + (1.0 - p) * float(log1pexp(2.0 * f))
        m_exp = _golden_section_min(phi_exp, -20.0, 20.0)
        m_log = _golden_section_min(phi_log, -20.0, 20.0)
        items.append(CheckItem(f"exponential_minimizer_p={p:g}", m_exp, expected, tol))
        items.append(CheckItem(f"logistic_minimizer_p={p:g}", m_log, expected, tol))
    return CheckReport(tuple(items))
