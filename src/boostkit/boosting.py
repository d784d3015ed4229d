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
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, normalized
from .errors import BoostkitError, DataError, InvariantError, UsageError
from .losses import LINKS, log1pexp, sigmoid
from .stumps import (
    Stump,
    StumpSearchConfig,
    StumpSearchSpace,
    _best_binary,
    _best_confidence,
    search_sibling,
)

ALPHA_CAP = 35.0  # |alpha| * max|h| <= 35 keeps exp() inside double range
LINE_SEARCH_TOL = 1e-10  # the line searches stop once |derivative| <= this

ALPHA_STRATEGIES = ("auto", "closed_form_binary", "line_search", "unit")


def sign_pm1(f) -> np.ndarray:
    """Sign in {-1, +1} with sign(0) = +1."""
    return np.where(np.asarray(f, dtype=np.float64) >= 0.0, 1.0, -1.0)


def error_rate(f: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose label is not sign(f), with sign(0) = +1."""
    # count / m is the double np.mean gives; int() keeps it a Python float
    return int(np.count_nonzero((f >= 0.0) != (labels > 0.0))) / labels.shape[0]


@dataclass(frozen=True)
class AdditiveModel:
    """Weighted sum of stumps; immutable and safe to share."""

    terms: tuple[tuple[float, Stump], ...]
    loss_kind: str = "exponential"

    def __post_init__(self):
        if self.loss_kind not in LINKS:
            raise DataError(f"unknown loss kind {self.loss_kind!r}")

    @property
    def rounds(self) -> int:
        return len(self.terms)

    @property
    def link(self) -> str:
        """Probability link bound at training time."""
        return LINKS[self.loss_kind].name

    def required_features(self) -> int:
        return 1 + max((s.feature_index for _, s in self.terms), default=0)

    def score(self, X: np.ndarray) -> np.ndarray:
        """f(x) for every row, accumulated in term order.

        Each term adds alpha*left or alpha*right, the products the term
        itself gives, so ``X[:, j]`` is read once per term; it is contiguous
        in a column-major X.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DataError("score expects an (n, d) feature matrix")
        self._check_features(X.shape[1])
        f = np.zeros(X.shape[0])
        for j, t, left, right in zip(*(a.tolist() for a in self._term_arrays)):
            f += np.where(X[:, j] <= t, left, right)
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

    def _check_features(self, d: int) -> None:
        """Raise naming the first term whose feature index is not below d."""
        feature = self._term_arrays[0]
        bad = (feature < 0) | (feature >= d)
        if bad.any():
            raise DataError(f"feature index {int(feature[bad.argmax()])} out of range for {d} features")

    def score_one(self, x) -> float:
        """f(x) for one feature vector; equals ``score(x[None])[0]`` bit for bit.

        All terms are evaluated at once and summed in term order from 0.0,
        the same sequence of additions ``score`` performs per row.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise DataError("score_one expects a single feature vector")
        self._check_features(x.shape[0])
        feature, threshold, left, right = self._term_arrays
        h = np.where(x[feature] <= threshold, left, right)
        return float(np.cumsum(np.concatenate(([0.0], h)))[-1])


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
        if self.loss_kind not in LINKS:
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


def alpha_binary(epsilon: float) -> float:
    """Vote weight 0.5*ln((1 - eps)/eps), capped to |alpha| <= ALPHA_CAP.

    Zero error maps to +ALPHA_CAP and error 1 to -ALPHA_CAP; everything in
    between uses the exact formula, so the misclassified mass after the
    update is exactly one half whenever 0 < eps < 1.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise DataError(f"epsilon must be in [0, 1], got {epsilon!r}")
    if epsilon <= 0.0:
        return ALPHA_CAP
    if epsilon >= 1.0:
        return -ALPHA_CAP
    a = 0.5 * math.log((1.0 - epsilon) / epsilon)
    return min(max(a, -ALPHA_CAP), ALPHA_CAP)


def _newton_1d(grad, curv, cap: float, yh: np.ndarray | None = None) -> float:
    """Minimizer on [-cap, cap] of a convex function given its derivatives.

    ``grad(x)`` gives the derivative g at x and a settling margin, ``curv()``
    the second derivative where ``grad`` last evaluated. The result is that
    of probing first: +cap if g(cap) <= 0, else -cap if g(-cap) >= 0, else
    Newton steps from 0, safeguarded by bisection, until |g| <=
    LINE_SEARCH_TOL or 200 steps. The probes never move the bracket, so an
    endpoint is probed only before returning or when a step would leave the
    bracket toward it (+cap first), and only while unsettled: g > margin
    (at least LINE_SEARCH_TOL) settles +cap, g < -margin -cap. For, with g
    = P - N, P and N the positive and negative terms' magnitudes summed
    exactly, P never shrinks and N never grows toward +cap; if a computed g
    is within e (P + N) of exact and g(x) > 2 e (P + N)(x), then (P - N)(x)
    > e (P + N)(x) and the computed g(cap) >= (1 - e) P(x) - (1 + e) N(x) > 0.

    ``yh`` holds y*h per term, each term -y*h times a factor >= 0: all
    positive, g <= 0 and cap is returned unprobed; all negative, -cap is,
    unless every term is 0 at +cap.
    """
    if yh is not None and yh.min() > 0.0:
        return cap
    if yh is not None and yh.max() < 0.0:
        return cap if grad(cap)[0] <= 0.0 else -cap
    # per endpoint: None while unsettled, else whether it is the minimizer
    top = bottom = None
    a, b = -cap, cap
    x = 0.0
    for _ in range(200):
        g, margin = grad(x)
        if g > max(margin, LINE_SEARCH_TOL):
            top = False
        elif g < -max(margin, LINE_SEARCH_TOL):
            bottom = False
        if abs(g) <= LINE_SEARCH_TOL:
            break
        if g > 0.0:
            b = x
        else:
            a = x
        c = curv()
        step = g / c if c > 0.0 else 0.0
        x_new = x - step
        if not a < x_new < b:
            if g < 0.0 and top is None:
                top = grad(cap)[0] <= 0.0
            elif g > 0.0 and bottom is None:
                bottom = grad(-cap)[0] >= 0.0
            if top or bottom:
                break
            x_new = 0.5 * (a + b)
        x = x_new
    if top or (top is None and grad(cap)[0] <= 0.0):
        return cap
    if bottom or (bottom is None and grad(-cap)[0] >= 0.0):
        return -cap
    return x


def _margin(n: int, size: float) -> float:
    """2 e size, e = (n + 48) u and u = 2**-53: the margin of n terms of magnitudes summing to size.

    A sum of n terms in any order is off by (n - 1) u of their magnitudes;
    each term's product, exps within 2 ulp and argument a y h + y f with
    |a y h| <= 35 (35 u on e^t; 9 u + 10 u on a sigmoid) add at most 40 u,
    and a constant term u. The rest covers second-order terms.
    """
    return 2.0 * (n + 48) * 2.0**-53 * size


def _alpha_bound(h: np.ndarray) -> float:
    """ALPHA_CAP / max|h|: the largest |alpha| with |alpha * h| <= ALPHA_CAP.

    Kept finite where a subnormal max|h| overflows the quotient; an infinite
    alpha would make alpha * 0 a NaN.
    """
    return min(ALPHA_CAP / float(np.max(np.abs(h))), sys.float_info.max)


def alpha_line_search(D: np.ndarray, h_outputs: np.ndarray, labels: np.ndarray) -> float:
    """Minimize Z(alpha) = sum_i D_i exp(-alpha y_i h_i) over alpha.

    Z is strictly convex when both signs of y*h carry weight; the minimizer
    is found to |Z'(alpha)| <= LINE_SEARCH_TOL by safeguarded Newton. If
    every weighted y*h shares one sign the objective is monotone and alpha
    is capped at +-ALPHA_CAP / max|h|. If h is zero on every row with
    weight, Z is flat: the fit has converged and alpha is 0.
    """
    D = np.asarray(D, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    yh = y * np.asarray(h_outputs, dtype=np.float64)
    active = (D > 0.0) & (yh != 0.0)
    n = int(np.count_nonzero(active))
    if n == 0:
        return 0.0
    rows = ... if n == active.shape[0] else active  # every row active: views, not copies
    Da, yha = D[rows], yh[rows]
    # Z' = sum -D yh e and Z'' = sum D yh yh e with e = exp(-a yh)
    d1w = -Da * yha
    d2w = Da * yha * yha
    last = [None]

    def grad(a: float) -> tuple[float, float]:  # e reaches e^35: margins from |terms| at a
        e = last[0] = np.exp(-a * yha)
        return float((d1w * e).sum()), _margin(n, float((np.abs(d1w) * e).sum()))

    def curv() -> float:
        return float((d2w * last[0]).sum())

    return _newton_1d(grad, curv, _alpha_bound(yha), yha)


def alpha_logistic_line_search(
    base_weights: np.ndarray,
    f_prev: np.ndarray,
    h_outputs: np.ndarray,
    labels: np.ndarray,
    flip_weights: np.ndarray | None = None,
    *,
    s: np.ndarray,
) -> float:
    """Minimize sum_i w_i ln(1 + exp(-y_i (f_i + alpha h_i))) over alpha.

    ``flip_weights`` b adds sum_i b_i ln(1 + exp(y_i (f_i + alpha h_i))):
    each row's mass on the other label. Both derivatives come from one
    sigmoid s = sigmoid(-(yf + a yh)) per Newton step:
    L' = sum (b yh (1 - s) - w yh s) = sum b yh - sum (w + b) yh s and
    L'' = sum (w + b) yh yh s (1 - s), taken only before a step. As s lies
    in [0, 1], |sum b yh| + sum (w + b) |yh| bounds the terms' magnitudes
    at every alpha (see _newton_1d). If h is zero on every row with mass
    w + b > 0, the loss is flat in alpha: the fit has converged, alpha is 0
    and ``s`` is left alone.

    ``s`` holds sigmoid(-y f) per row and is updated in place: the step at
    alpha = 0 reads it instead of evaluating, and on return it holds
    sigmoid(-y (f + alpha h)) at every row in the objective (mass w + b > 0
    and h != 0), those evaluated at alpha if any were. Other rows are left
    alone. With y = +-1 and a sign-symmetric rounding, a yh + yf and
    y (f + a h) are the same double up to the sign of a zero, where the
    sigmoid is 0.5 either way: the results are those of evaluating afresh.
    """
    w = np.asarray(base_weights, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    yh = y * np.asarray(h_outputs, dtype=np.float64)
    yf = y * np.asarray(f_prev, dtype=np.float64)
    if flip_weights is not None:
        b = np.asarray(flip_weights, dtype=np.float64)
        w = w + b
    active = (w > 0.0) & (yh != 0.0)
    n = int(np.count_nonzero(active))
    if n == 0:
        return 0.0
    rows = ... if n == active.shape[0] else active  # every row active: views, not copies
    wa, yha, yfa = w[rows], yh[rows], yf[rows]
    carried = s if rows is ... else s[rows]
    a_cap = _alpha_bound(yha)
    d1_flip = 0.0 if flip_weights is None else float((b[rows] * yha).sum())
    d1w = -wa * yha
    d2w = wa * yha * yha
    margin = _margin(n, abs(d1_flip) + float(np.abs(d1w).sum()))
    # (alpha, sigmoids) at the latest Newton point and endpoint probe; the
    # latest sigmoids and their argument's buffer wait only for curv(). An
    # array more held between evaluations moved the heap's top, and a fresh
    # `cde train` process then faulted in ten times the pages.
    kept = [None, None]
    latest = None

    def sigmoids(a: float) -> tuple[np.ndarray, np.ndarray]:  # and the argument's buffer
        t = a * yha
        t += yfa
        np.negative(t, out=t)
        return sigmoid(t), t

    def grad(a: float) -> tuple[float, float]:
        nonlocal carried, latest
        slot = int(abs(a) == a_cap)
        kept[slot] = latest = None  # dropped before the evaluation allocates
        if a == 0.0 and carried is not None:
            sa, t = carried, np.empty_like(carried)
            carried = None
        else:
            sa, t = sigmoids(a)
        kept[slot], latest = (a, sa), (sa, t)
        return d1_flip + float((d1w * sa).sum()), margin

    def curv() -> float:
        nonlocal latest
        (sa, t), latest = latest, None
        u = d2w * sa
        np.subtract(1.0, sa, out=t)
        u *= t
        return float(u.sum())

    alpha = _newton_1d(grad, curv, a_cap, yha if flip_weights is None else None)
    sa = next((k[1] for k in kept if k is not None and k[0] == alpha), None)
    if sa is None:  # e.g. the last bisection point after 200 steps
        sa = sigmoids(alpha)[0]
    if sa is not s:
        s[rows] = sa
    return alpha


def update_distribution(
    D: np.ndarray, h_outputs: np.ndarray, labels: np.ndarray, alpha: float
) -> tuple[np.ndarray, float]:
    """One multiplicative weight update; returns (new distribution, Z).

    Works in one new buffer. The products are those of
    ``D * exp(-alpha * y * h)``: multiplication commutes in IEEE arithmetic.
    """
    w = np.multiply(labels, -alpha, dtype=np.float64)
    w *= h_outputs
    np.exp(w, out=w)
    w *= D
    z = float(w.sum())
    if not np.isfinite(z) or z <= 0.0:
        raise InvariantError(f"distribution normalizer is {z!r}")
    w /= z
    return w, z


def _base_weights(ds: Dataset) -> np.ndarray:
    return ds.weights if ds.weights is not None else np.ones(ds.m)


def _log_weighted_exp_mean(base: np.ndarray, exponents: np.ndarray) -> float:
    """ln( sum(base * exp(exponents)) / sum(base) ), overflow-safe."""
    mx = float(exponents.max())
    s = float(np.sum(base * np.exp(exponents - mx)))
    if s < sys.float_info.min:
        # every term underflowed, or the sum is subnormal and keeps only a few
        # significant bits: the largest exponent sits on a row of base weight
        # 0, or the weights are subnormal. Sum ln(base) + exponent over the
        # rows with weight instead.
        keep = base > 0.0
        t = np.log(base[keep]) + exponents[keep]
        mx = float(t.max())
        s = float(np.sum(np.exp(t - mx)))
    return mx + math.log(s) - math.log(float(base.sum()))


class RoundAccounting:
    """Distribution D, score f and product of normalizers z, round by round.

    Exponential loss carries D forward by the multiplicative update, whose
    normalizer is z; logistic loss recomputes D from f, and z is the ratio of
    successive mean exponential surrogates. Base weights scale D and the loss.

    ``flip`` (logistic loss only) gives each row a second base mass, on the
    other label -y. D then has 2m entries, the own-label masses followed by
    the flipped-label ones, and epsilon, z and the loss count both: the
    result is that of training on a set holding each row once per label.

    Logistic loss keeps ``s`` = sigmoid(-y f) per row between rounds, as
    the line search leaves it (None before the first round and after a step
    the search did not choose), so the own-label half of D needs no sigmoid
    of its own; with flip, only the other half's sigmoid(y f) is evaluated.
    A row with no mass is never searched and may hold a stale value; it
    meets only 0 * s in D, the same bits for any finite s >= 0. Rows with
    h = 0 keep theirs: f + alpha * 0 is f up to the sign of a zero.
    """

    def __init__(
        self,
        base: np.ndarray,
        labels: np.ndarray,
        loss_kind: str,
        flip: np.ndarray | None = None,
    ):
        self.base = base
        self.flip = flip
        self.y = labels
        self.pos = labels > 0.0
        self.loss_kind = loss_kind
        self.D = normalized(base if flip is None else np.concatenate((base, flip)))
        self.f = np.zeros(labels.shape[0])
        self.s = None
        # s holds sigmoid(-y (f + _s_alpha h)) for the h of the coming step
        self._s_alpha = 0.0
        self.prod_z = 1.0
        self._log_surrogate = 0.0

    def distribution(self) -> np.ndarray:
        """D for the coming round."""
        if self.loss_kind == "logistic":
            if self.s is None:
                self.s = sigmoid(-(self.y * self.f))
            w = self.base * self.s
            if self.flip is not None:
                w = np.concatenate((w, self.flip * sigmoid(self.y * self.f)))
            # the masses passed normalized() at construction and sigmoids lie in
            # [0, 1]: only the sum needs a check. A sum of 0 means every product
            # underflowed. D is new: dividing w in place moved the heap's top,
            # and a fresh `cde train` process faulted in ten times the pages.
            with np.errstate(over="ignore"):
                total = float(w.sum())
            if not 0.0 < total < math.inf:
                raise DataError(
                    f"weights must have a finite sum, got {total!r}" if total else
                    "logistic weights underflowed: base weight * sigmoid(-y*f) is 0 on every row")
            self.D = w / total
        return self.D

    def masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row masses (w_pos, w_neg) of D on labels +1 and -1.

        Without flip every row's mass sits on its own label, and the masses
        are D itself for both labels: a search space split by these labels
        reads each side at its own label's rows only.
        """
        if self.flip is None:
            return self.D, self.D
        m = self.y.shape[0]
        own, other = self.D[:m], self.D[m:]
        return np.where(self.pos, own, other), np.where(self.pos, other, own)

    def error(self, h: np.ndarray) -> float:
        """Weighted error epsilon of outputs h: the mass of D on labels other than sign(h)."""
        wrong = (h >= 0.0) != self.pos  # sign(0) = +1
        if self.flip is None:
            return float(self.D[wrong].sum())
        m = self.y.shape[0]
        return float(np.sum(np.where(wrong, self.D[:m], self.D[m:])))

    def _logistic_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Base masses and exponents -label*f; with flip, only masses > 0."""
        yf = self.y * self.f
        if self.flip is None:
            return self.base, -yf
        w = np.concatenate((self.base, self.flip))
        keep = w > 0.0
        return w[keep], np.concatenate((-yf, yf))[keep]

    def logistic_alpha(self, h: np.ndarray) -> float:
        """The logistic line search's alpha for outputs h, leaving ``s`` at it."""
        self._s_alpha = alpha_logistic_line_search(
            self.base, self.f, h, self.y, flip_weights=self.flip, s=self.s
        )
        return self._s_alpha

    def step(self, h: np.ndarray, alpha: float) -> float | None:
        """Add alpha * h to f and carry D forward; returns exponential loss's z.

        ``s`` is kept when it was evaluated at this alpha: by the logistic
        line search, or at alpha = 0, which changes f at most in the sign of
        a zero, where the sigmoid is 0.5.
        """
        self.f += alpha * h
        if self.loss_kind == "exponential":
            self.D, z = update_distribution(self.D, h, self.y, alpha)
            return z
        if alpha != self._s_alpha:
            self.s = None
        self._s_alpha = 0.0
        return None

    def stats(self, t: int, epsilon: float, z: float | None) -> RoundStats:
        """Stats of round t after its step; epsilon is error(h), z what step returned."""
        if self.loss_kind == "logistic":
            log_surrogate = _log_weighted_exp_mean(*self._logistic_terms())
            z = math.exp(log_surrogate - self._log_surrogate)
            self._log_surrogate = log_surrogate
        self.prod_z *= z
        return RoundStats(t, epsilon, 0.5 - epsilon, z, self.prod_z, error_rate(self.f, self.y))

    def loss(self) -> float:
        """Base-weighted training loss of f."""
        if self.loss_kind == "exponential":
            e = np.multiply(self.y, self.f)
            np.negative(e, out=e)
            np.exp(e, out=e)
            e *= self.base
            return float(e.sum())
        w, e = self._logistic_terms()
        return float(np.sum(w * log1pexp(e)))


def train(
    ds: Dataset,
    cfg: BoostConfig,
    eval_ds: Dataset | None = None,
    _space: StumpSearchSpace | None = None,
    _flip: np.ndarray | None = None,
    _stats: bool = True,
) -> tuple[AdditiveModel, list[RoundStats]]:
    """Run the full boosting loop and return the model plus round stats.

    Exponential loss maintains the distribution iteratively through the
    multiplicative update; logistic loss recomputes it from the current
    score every round. Dataset.weights, when present, act as base weights
    in both schemes and in the logistic line search.

    ``_flip`` (logistic loss only) gives each row a second base mass, on the
    label -y; the dataset's weights are then the masses on each row's own
    label. train_error still counts each row once, on its own label.

    ``_stats=False`` returns no stats (an empty list) and computes only what
    the next round reads: no epsilon unless closed_form_binary alpha needs
    it, no z, product of z, training error, loss, clamped flag or test error.
    The terms are those of ``_stats=True`` bit for bit.

    A large search space gets a forked sibling process for the run
    (``stumps.search_sibling``), which scans half of each round's blocks;
    the results are those of the serial search bit for bit.
    """
    if not ds.is_classification:
        raise DataError("training requires classification labels (-1/+1)")
    if _flip is not None and cfg.loss_kind != "logistic":
        raise UsageError("masses on flipped labels require logistic loss")
    if eval_ds is not None and eval_ds.d != ds.d:
        raise DataError(f"eval data has {eval_ds.d} features, expected {ds.d}")
    if eval_ds is not None and not eval_ds.is_classification:
        raise DataError("eval data requires classification labels (-1/+1)")
    strategy = cfg.resolved_alpha_strategy()
    X, y, m = ds.features, ds.labels, ds.m
    base = _base_weights(ds)
    space = _space if _space is not None else StumpSearchSpace(X)
    if _flip is None:
        space = space.split(y)
    smoothing = cfg.stumps.resolve_smoothing(m)

    rounds = RoundAccounting(base, y, cfg.loss_kind, _flip)
    f_eval = np.zeros(eval_ds.m) if eval_ds is not None and _stats else None
    terms: list[tuple[float, Stump]] = []
    stats: list[RoundStats] = []

    with search_sibling(space) as sibling:
        for t in range(1, cfg.rounds + 1):
            try:
                D = rounds.distribution()
                w_pos, w_neg = rounds.masses()
                if cfg.stumps.mode == "binary":
                    stump, _ = _best_binary(space, w_pos, w_neg, sibling)
                else:
                    stump = _best_confidence(space, w_pos, w_neg, smoothing, sibling)
                h = stump.evaluate_matrix(X)
                if _stats or strategy == "closed_form_binary":
                    epsilon = rounds.error(h)

                if strategy == "closed_form_binary":
                    alpha = alpha_binary(epsilon)
                    clamped = epsilon <= 0.0 or epsilon >= 1.0
                elif strategy == "unit":
                    # capped like the others: |alpha * output| <= ALPHA_CAP
                    top = max(abs(stump.left_output), abs(stump.right_output))
                    alpha = 1.0 if top <= ALPHA_CAP else ALPHA_CAP / top
                    clamped = alpha < 1.0
                else:
                    if cfg.loss_kind == "exponential":
                        alpha = alpha_line_search(D, h, y)
                    else:
                        alpha = rounds.logistic_alpha(h)
                    if _stats:
                        clamped = abs(alpha) * float(np.max(np.abs(h))) >= ALPHA_CAP - 1e-9
            except BoostkitError as exc:
                raise type(exc)(f"round {t}: {exc}") from exc

            z = rounds.step(h, alpha)
            terms.append((alpha, stump))
            if not _stats:
                continue
            s = rounds.stats(t, epsilon, z)
            s.loss, s.clamped = rounds.loss(), clamped
            if eval_ds is not None:
                f_eval = f_eval + alpha * stump.evaluate_matrix(eval_ds.features)
                s.test_error = error_rate(f_eval, eval_ds.labels)
            stats.append(s)

    return AdditiveModel(tuple(terms), cfg.loss_kind), stats


def normalized_margins(model: AdditiveModel, yf: np.ndarray) -> np.ndarray:
    """Margins y*f(x) already scored by ``model``, divided by its sum|alpha|."""
    denom = sum(abs(a) for a, _ in model.terms)
    if denom <= 0.0:
        raise DataError("margins undefined: total |alpha| is zero")
    return yf / denom


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


def bound_report(stats: list[RoundStats]) -> BoundReport:
    """Training-error bound chain for a binary-stump exponential run.

    Emits, per round, the training error, the product of normalizers, the
    product of 2*sqrt(eps(1-eps)) terms, and exp(-2 * sum_gamma^2), and
    verifies train_error <= prod_z <= exp_bound.
    """
    rows: list[BoundRow] = []
    prod_sqrt = 1.0
    gamma_sq = 0.0
    ok = True
    for s in stats:
        prod_sqrt *= 2.0 * math.sqrt(max(s.epsilon * (1.0 - s.epsilon), 0.0))
        gamma_sq += s.gamma * s.gamma
        exp_bound = math.exp(-2.0 * gamma_sq)
        rows.append(BoundRow(s.round, s.train_error, s.cumulative_bound, prod_sqrt, exp_bound))
        tol = 1e-9 * max(1.0, s.cumulative_bound)
        if s.train_error > s.cumulative_bound + tol or s.cumulative_bound > exp_bound + tol:
            ok = False
    return BoundReport(tuple(rows), ok)


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
    for s, bound in zip(stats, bound_report(stats).rows):
        rows.append(
            [
                str(s.round),
                repr(s.epsilon),
                repr(s.gamma),
                repr(s.z),
                repr(s.cumulative_bound),
                repr(bound.exp_bound),
                repr(s.train_error),
                "" if s.test_error is None else repr(s.test_error),
            ]
        )
    return rows
