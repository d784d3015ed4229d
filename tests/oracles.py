"""Straightforward reference implementations the fast paths must match bit for bit.

Each function here is the plain form of a library routine that has a
faster implementation: a masked two-branch sigmoid and log1pexp, line searches that
evaluate the first and second derivative in separate passes, per-term
scoring of one row and of a matrix, query selection by copying the
unlabeled rows and a two-key sort, the exponential-loss round bookkeeping
with a new array per step, per-row, per-draw density queries, the two CSV
readers that parse every cell with ``float``, the stump search that
loops over features in Python, one cumsum per feature, and the training
loop that evaluates every logistic sigmoid afresh and builds every round
statistic. ``z_value`` recomputes a normalizer, and ``exponential_weights``
and ``logistic_weights`` the distribution of either loss, from scratch;
``empirical_loss`` sums a model's losses over a dataset, ``evaluate`` gives
one stump's output on one row, ``margins`` a model's normalized margins
over a dataset, and ``best_binary_stump`` and ``best_confidence_stump`` run
the library's search once over a whole dataset under a checked
distribution. ``taylor_match_check`` and ``common_minimizer_check`` relate
the library's ``logistic2`` and exponential losses numerically and report
each comparison as a ``CheckItem`` of a ``CheckReport``. Only the tests
call these.
"""

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from boostkit.boosting import AdditiveModel, RoundStats, alpha_binary, normalized_margins, sign_pm1
from boostkit.data import PRIOR_COLUMN, WEIGHT_COLUMN, Dataset, normalized
from boostkit.errors import DataError, InvariantError
from boostkit.losses import loss_values, prob_positive
from boostkit.stumps import StumpSearchSpace as SearchSpace
from boostkit.stumps import Stump, StumpSearchConfig, _best_binary, _best_confidence, confidence_output


def sigmoid(x):
    """1/(1 + exp(-x)) by masked gathers and scatters, one exp per branch."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def log1pexp(x):
    """ln(1 + exp(x)) by two branches: x + log1p(exp(-|x|)) above 0, log1p(exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x > 0.0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))
    return out if out.ndim else float(out)


def _newton_1d(dfn, d2fn, lo, hi, tol):
    a, b = lo, hi
    x = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    for _ in range(200):
        g = dfn(x)
        if abs(g) <= tol:
            return x
        if g > 0.0:
            b = x
        else:
            a = x
        curv = d2fn(x)
        step = g / curv if curv > 0.0 else 0.0
        x_new = x - step
        if not a < x_new < b:
            x_new = 0.5 * (a + b)
        x = x_new
    return x


def alpha_line_search(D, h, y, cap=35.0, tol=1e-10):
    yh = y * h
    active = (D > 0.0) & (yh != 0.0)
    a_cap = cap / float(np.max(np.abs(h[active])))
    Da, yha = D[active], yh[active]

    def dz(a):
        return float(np.sum(-Da * yha * np.exp(-a * yha)))

    def d2z(a):
        return float(np.sum(Da * yha * yha * np.exp(-a * yha)))

    if dz(a_cap) <= 0.0:
        return a_cap
    if dz(-a_cap) >= 0.0:
        return -a_cap
    return _newton_1d(dz, d2z, -a_cap, a_cap, tol)


def alpha_logistic_line_search(w, f, h, y, cap=35.0, tol=1e-10, flip=None):
    """With ``flip`` b, L' gains sum b yh (1 - s), written as sum b yh - sum b yh s."""
    yh = y * h
    yf = y * f
    if flip is not None:
        w = w + flip
    active = (w > 0.0) & (yh != 0.0)
    # kept finite where a subnormal max|h| overflows the quotient, as in the library
    a_cap = min(cap / float(np.max(np.abs(yh[active]))), sys.float_info.max)
    wa, yha, yfa = w[active], yh[active], yf[active]
    d1_flip = 0.0 if flip is None else float(np.sum(flip[active] * yha))

    def dl(a):
        return d1_flip + float(np.sum(-wa * yha * sigmoid(-(yfa + a * yha))))

    def d2l(a):
        s = sigmoid(-(yfa + a * yha))
        return float(np.sum(wa * yha * yha * s * (1.0 - s)))

    if dl(a_cap) <= 0.0:
        return a_cap
    if dl(-a_cap) >= 0.0:
        return -a_cap
    return _newton_1d(dl, d2l, -a_cap, a_cap, tol)


def evaluate(stump, x):
    """One stump's output for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DataError("evaluate expects a single feature vector")
    if not 0 <= stump.feature_index < x.shape[0]:
        raise DataError(f"feature index {stump.feature_index} out of range for {x.shape[0]} features")
    v = float(x[stump.feature_index])
    return stump.left_output if v <= stump.threshold else stump.right_output


def score_one(model, x):
    """f(x) for one row, one term at a time from 0.0."""
    f = 0.0
    for alpha, stump in model.terms:
        f += alpha * evaluate(stump, x)
    return f


def margins(model, ds):
    """Normalized confidences y*f(x) / sum|alpha| for every example."""
    return normalized_margins(model, ds.labels * model.score(ds.features))


def score(model, X):
    """f(x) for every row of X, one term's alpha * h(X) at a time."""
    X = np.asarray(X, dtype=np.float64)
    f = np.zeros(X.shape[0])
    for alpha, stump in model.terms:
        f += alpha * stump.evaluate_matrix(X)
    return f


def select_queries(model, pool, k):
    """The k unlabeled indices with smallest |f(x)|, by a sort on (|f|, index)."""
    unlabeled = pool.unlabeled_ids()
    k = min(k, unlabeled.shape[0])
    confidence = np.abs(model.score(pool.features[unlabeled]))
    order = np.lexsort((unlabeled, confidence))
    return [int(i) for i in unlabeled[order[:k]]]


def update_distribution(D, h, y, alpha):
    """(D * exp(-alpha * y * h) / z, z) with z the sum before the division."""
    w = D * np.exp(-alpha * y * h)
    z = float(w.sum())
    return w / z, z


def weighted_error(D, h, y):
    """Mass of D where sign(h) is not the label; D of 2m entries holds each
    row's mass on its own label, then on the other one."""
    wrong = sign_pm1(h) != y
    if D.shape[0] == y.shape[0]:
        return float(np.sum(D[wrong]))
    m = y.shape[0]
    return float(np.sum(np.where(wrong, D[:m], D[m:])))


def train_error(f, y):
    return float(np.mean(sign_pm1(f) != y))


def z_value(D, h_outputs, labels, alpha):
    """Normalizer sum_i D_i * exp(-alpha * y_i * h_i)."""
    D = np.asarray(D, dtype=np.float64)
    h = np.asarray(h_outputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if not (D.shape == h.shape == y.shape):
        raise DataError("weight, output, and label vectors must share a length")
    return float(np.sum(D * np.exp(-alpha * y * h)))


def exponential_weights(model, ds):
    """Distribution proportional to base_weight * exp(-y * f(x)).

    Recomputed from scratch; equals the result of iterating the
    multiplicative update round by round.
    """
    if not ds.is_classification:
        raise DataError("weight schemes require classification labels")
    e = -(ds.labels * model.score(ds.features))
    e -= e.max()  # scale cancels after normalization
    base = ds.weights if ds.weights is not None else np.ones(ds.m)
    return normalized(base * np.exp(e))


def logistic_weights(model, ds):
    """Distribution proportional to base_weight * sigmoid(-y * f(x)).

    Recomputed from scratch; the logistic rule that training's
    ``RoundAccounting`` carries from round to round.
    """
    if not ds.is_classification:
        raise DataError("weight schemes require classification labels")
    base = ds.weights if ds.weights is not None else np.ones(ds.m)
    return normalized(base * sigmoid(-(ds.labels * model.score(ds.features))))


def exponential_loss(base, y, f):
    return float(np.sum(base * np.exp(-(y * f))))


def train(ds, cfg, eval_ds=None, flip=None):
    """The boosting loop with every statistic built and no state carried but D and f.

    Logistic D is sigmoid(-y f) evaluated afresh every round, and the line
    searches are the two-pass ones above; the stump search is the
    library's. ``flip`` is ``train``'s ``_flip``.
    """
    strategy = cfg.resolved_alpha_strategy()
    X, y, m = ds.features, ds.labels, ds.m
    logistic = cfg.loss_kind == "logistic"
    base = ds.weights if ds.weights is not None else np.ones(m)
    masses = base if flip is None else np.concatenate((base, flip))
    space = SearchSpace(X)
    if flip is None:
        space = space.split(y)
    smoothing = cfg.stumps.resolve_smoothing(m)
    pos = y > 0.0
    D, f = normalized(masses), np.zeros(m)
    f_eval = None if eval_ds is None else np.zeros(eval_ds.m)
    prod_z, log_surrogate = 1.0, 0.0
    terms, stats = [], []
    for t in range(1, cfg.rounds + 1):
        yf = y * f
        if logistic:
            D = normalized(masses * sigmoid(-yf if flip is None else np.concatenate((-yf, yf))))
        if flip is None:
            w_pos = w_neg = D
        else:
            w_pos, w_neg = np.where(pos, D[:m], D[m:]), np.where(pos, D[m:], D[:m])
        if cfg.stumps.mode == "binary":
            stump = _best_binary(space, w_pos, w_neg)[0]
        else:
            stump = _best_confidence(space, w_pos, w_neg, smoothing)
        h = stump.evaluate_matrix(X)
        epsilon = weighted_error(D, h, y)
        if strategy == "closed_form_binary":
            alpha = alpha_binary(epsilon)
            clamped = epsilon <= 0.0 or epsilon >= 1.0
        elif strategy == "unit":
            top = max(abs(stump.left_output), abs(stump.right_output))
            alpha = min(1.0, 35.0 / top) if top > 0.0 else 1.0
            clamped = alpha < 1.0
        else:
            support = (base if flip is None else base + flip) > 0.0 if logistic else D > 0.0
            if not np.any(h[support] != 0.0):
                alpha = 0.0
            elif logistic:
                alpha = alpha_logistic_line_search(base, f, h, y, flip=flip)
            else:
                alpha = alpha_line_search(D, h, y)
            clamped = abs(alpha) * float(np.max(np.abs(h))) >= 35.0 - 1e-9
        terms.append((alpha, stump))
        f = f + alpha * h
        yf = y * f
        if logistic:
            w, e = base, -yf
            if flip is not None:
                keep = masses > 0.0
                w, e = masses[keep], np.concatenate((-yf, yf))[keep]
            mx = float(e.max())
            total = float(np.sum(w * np.exp(e - mx)))
            if total < sys.float_info.min:  # underflowed or subnormal: ln(w) + e over rows with weight
                logs = np.log(w[w > 0.0]) + e[w > 0.0]
                mx = float(logs.max())
                total = float(np.sum(np.exp(logs - mx)))
            log_mean = mx + math.log(total) - math.log(float(w.sum()))
            z = math.exp(log_mean - log_surrogate)
            log_surrogate = log_mean
            loss = float(np.sum(w * log1pexp(e)))
        else:
            D, z = update_distribution(D, h, y, alpha)
            if not (np.isfinite(z) and z > 0.0):
                raise InvariantError(f"distribution normalizer is {z!r}")
            loss = exponential_loss(base, y, f)
        prod_z *= z
        s = RoundStats(t, epsilon, 0.5 - epsilon, z, prod_z, train_error(f, y), loss=loss, clamped=clamped)
        if eval_ds is not None:
            f_eval = f_eval + alpha * stump.evaluate_matrix(eval_ds.features)
            s.test_error = float(np.mean(sign_pm1(f_eval) != eval_ds.labels))
        stats.append(s)
    return AdditiveModel(tuple(terms), cfg.loss_kind), stats


def masses_from_scores(q_raw):
    """One row's bin masses: running minimum from 1, differenced, renormalized."""
    q = np.clip(np.asarray(q_raw, dtype=np.float64), 0.0, 1.0)
    full = np.concatenate((np.minimum.accumulate(np.concatenate(([1.0], q))), [0.0]))
    masses = -np.diff(full)
    return masses / masses.sum()


def conditional_masses(model, x):
    q = np.array([prob_positive(score_one(c, x), "logistic") for c in model.classifiers])
    return masses_from_scores(q)


def sample(model, x, rng):
    masses = conditional_masses(model, x)
    edges = model.breakpoints.edges
    cum = np.cumsum(masses)
    u = rng.random()
    idx = min(int(np.searchsorted(cum, u, side="right")), masses.shape[0] - 1)
    lo, hi = float(edges[idx]), float(edges[idx + 1])
    return lo + rng.random() * (hi - lo)


def quantile(model, x, level):
    masses = conditional_masses(model, x)
    edges = model.breakpoints.edges
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    cum[-1] = 1.0
    idx = int(np.searchsorted(cum[1:], level, side="left"))
    lo, hi = float(edges[idx]), float(edges[idx + 1])
    mass = float(masses[idx])
    if mass <= 0.0:
        return lo
    return lo + (level - float(cum[idx])) / mass * (hi - lo)


def _parse_cell(text: str, line_no: int, column: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(
            f"line {line_no}, column {column!r}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(v):
        raise DataError(f"line {line_no}, column {column!r}: value {text!r} is not finite")
    return v


def load_csv(
    path: str,
    label_column: str = "label",
    prior_column: str | None = None,
) -> Dataset:
    """Load a Dataset from a CSV file, preserving row order.

    Columns other than the label, prior, and reserved ``weight`` column are
    features, in file order. When ``prior_column`` is None, a column named
    ``prior`` is used as the prior if present; passing a name makes it
    required. Mode is inferred: classification iff every label is -1 or +1.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise DataError(f"{path}: missing label column {label_column!r}")
        effective_prior = prior_column
        if prior_column is None and PRIOR_COLUMN in header:
            effective_prior = PRIOR_COLUMN
        if effective_prior is not None and effective_prior not in header:
            raise DataError(f"{path}: missing prior column {effective_prior!r}")
        has_weight = WEIGHT_COLUMN in header
        special = {label_column, WEIGHT_COLUMN}
        if effective_prior is not None:
            special.add(effective_prior)
        feature_names = [h for h in header if h not in special]
        if not feature_names:
            raise DataError(f"{path}: no feature columns")
        col_index = {h: i for i, h in enumerate(header)}

        feats: list[list[float]] = []
        labels: list[float] = []
        prior: list[float] = []
        weights: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}")
            feats.append([_parse_cell(row[col_index[n]], line_no, n) for n in feature_names])
            labels.append(_parse_cell(row[col_index[label_column]], line_no, label_column))
            if effective_prior is not None:
                p = _parse_cell(row[col_index[effective_prior]], line_no, effective_prior)
                if not 0.0 <= p <= 1.0:
                    raise DataError(f"{path}: line {line_no}: prior out of [0,1]: {p!r}")
                prior.append(p)
            if has_weight:
                weights.append(_parse_cell(row[col_index[WEIGHT_COLUMN]], line_no, WEIGHT_COLUMN))

    if not labels:
        raise DataError(f"{path}: no data rows")
    return Dataset(
        features=np.asarray(feats, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.float64),
        prior=np.asarray(prior) if prior else None,
        weights=np.asarray(weights) if weights else None,
    )


def load_features_csv(path: str, label_column: str = "label") -> np.ndarray:
    """Feature matrix from a CSV that may or may not carry a label column.

    Label, prior, and weight columns are dropped when present; everything
    else must parse as finite numbers.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        skip = {label_column, PRIOR_COLUMN, WEIGHT_COLUMN}
        feature_names = [h for h in header if h not in skip]
        if not feature_names:
            raise DataError(f"{path}: no feature columns")
        col_index = {h: i for i, h in enumerate(header)}
        feats = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}")
            feats.append([_parse_cell(row[col_index[n]], line_no, n) for n in feature_names])
    if not feats:
        raise DataError(f"{path}: no data rows")
    return np.asarray(feats, dtype=np.float64)


class StumpSearchSpace:
    """Per-feature sorted views: one argsort, threshold list and count list per feature."""

    def __init__(self, X):
        X = np.asarray(X, dtype=np.float64)
        self.m, self.d = X.shape
        self.orders = []
        self.thresholds = []
        self.left_counts = []
        for j in range(self.d):
            order = np.argsort(X[:, j], kind="stable")
            v = X[order, j]
            bpos = np.nonzero(v[:-1] < v[1:])[0]
            thr = np.concatenate(([v[0] - 1.0], (v[bpos] + v[bpos + 1]) / 2.0))
            counts = np.concatenate(([0], bpos + 1))
            self.orders.append(order)
            self.thresholds.append(thr)
            self.left_counts.append(counts)


def _side_masses(space, j, D, y):
    """Weighted positive/negative label mass left of each candidate, one feature."""
    order = space.orders[j]
    d_sorted = D[order]
    pos_sorted = np.where(y[order] > 0.0, d_sorted, 0.0)
    neg_sorted = d_sorted - pos_sorted
    cum_pos = np.concatenate(([0.0], np.cumsum(pos_sorted)))
    cum_neg = np.concatenate(([0.0], np.cumsum(neg_sorted)))
    counts = space.left_counts[j]
    wp_left = cum_pos[counts]
    wn_left = cum_neg[counts]
    tot_pos = cum_pos[-1]
    tot_neg = cum_neg[-1]
    wp_right = np.maximum(tot_pos - wp_left, 0.0)
    wn_right = np.maximum(tot_neg - wn_left, 0.0)
    return wp_left, wn_left, wp_right, wn_right


def best_binary(space, D, y):
    """Minimum weighted-error binary stump by a Python loop over features."""
    best = None
    best_err = math.inf
    for j in range(space.d):
        wp_left, wn_left, wp_right, wn_right = _side_masses(space, j, D, y)
        err_a = wp_left + wn_right
        err_b = wn_left + wp_right
        use_a = err_a <= err_b
        errs = np.where(use_a, err_a, err_b)
        c = int(np.argmin(errs))
        if errs[c] < best_err:
            best_err = float(errs[c])
            if use_a[c]:
                left, right = -1.0, 1.0
            else:
                left, right = 1.0, -1.0
            best = Stump(j, float(space.thresholds[j][c]), left, right)
    assert best is not None
    return best, max(best_err, 0.0)


def best_confidence(space, D, y, smoothing):
    """Minimum-surrogate confidence-rated stump by a Python loop over features."""
    best = None
    best_z = math.inf
    for j in range(space.d):
        wp_left, wn_left, wp_right, wn_right = _side_masses(space, j, D, y)
        z = 2.0 * (
            np.sqrt((wp_left + smoothing) * (wn_left + smoothing))
            + np.sqrt((wp_right + smoothing) * (wn_right + smoothing))
        )
        c = int(np.argmin(z))
        if z[c] < best_z:
            best_z = float(z[c])
            best = (
                j,
                float(space.thresholds[j][c]),
                float(wp_left[c]),
                float(wn_left[c]),
                float(wp_right[c]),
                float(wn_right[c]),
            )
    assert best is not None
    j, thr, wp_l, wn_l, wp_r, wn_r = best
    return Stump(
        j,
        thr,
        confidence_output(wp_l, wn_l, smoothing),
        confidence_output(wp_r, wn_r, smoothing),
    )


def empirical_loss(model, ds, loss_kind: str) -> float:
    """Unnormalized sum of per-example losses of y*f(x) over a dataset."""
    if not ds.is_classification:
        raise DataError("empirical loss requires classification labels")
    margins = ds.labels * model.score(ds.features)
    return float(np.sum(loss_values(margins, loss_kind)))


def check_distribution(w, tol: float = 1e-9) -> None:
    """Raise unless w is nonnegative and sums to 1 within tol."""
    w = np.asarray(w)
    if np.any(w < 0.0):
        raise DataError("distribution has negative entries")
    if abs(float(w.sum()) - 1.0) > tol:
        raise DataError(f"distribution sums to {w.sum()!r}, not 1")


def _require_classification(ds) -> None:
    if not ds.is_classification:
        raise DataError("stump search requires classification labels (-1/+1)")


def best_binary_stump(ds, D):
    """Minimum weighted-error stump with outputs in {-1, +1}, by the library's
    search over every feature, candidate threshold and orientation; the
    orientation flip guarantees the returned error is <= 1/2."""
    _require_classification(ds)
    D = np.asarray(D, dtype=np.float64)
    check_distribution(D)
    return _best_binary(SearchSpace(ds.features).split(ds.labels), D, D)


def best_confidence_stump(ds, D, smoothing=None):
    """Stump minimizing the two-sided normalizer surrogate
    ``sum over sides of 2*sqrt((W+ + s)(W- + s))``, by the library's search;
    the winner's outputs are the smoothed log-odds of its side masses."""
    _require_classification(ds)
    D = np.asarray(D, dtype=np.float64)
    check_distribution(D)
    s = StumpSearchConfig(mode="confidence", smoothing=smoothing).resolve_smoothing(ds.m)
    return _best_confidence(SearchSpace(ds.features).split(ds.labels), D, D, s)


LN2 = math.log(2.0)


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
    return loss_values(z, "logistic2") + 1.0 - LN2


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
        phi_log = lambda f: p * loss_values(f, "logistic2") + (1.0 - p) * loss_values(-f, "logistic2")
        m_exp = _golden_section_min(phi_exp, -20.0, 20.0)
        m_log = _golden_section_min(phi_log, -20.0, 20.0)
        items.append(CheckItem(f"exponential_minimizer_p={p:g}", m_exp, expected, tol))
        items.append(CheckItem(f"logistic_minimizer_p={p:g}", m_log, expected, tol))
    return CheckReport(tuple(items))
