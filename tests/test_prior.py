import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostkit.boosting import AdditiveModel, BoostConfig, train
from boostkit.errors import DataError, UsageError
from boostkit.losses import log1pexp, sigmoid
from boostkit.prior import (
    PriorConfig,
    PriorRule,
    augment_with_prior,
    load_rule_table,
    prior_objective,
    relative_entropy,
    train_with_prior,
)
from boostkit.stumps import Stump, StumpSearchConfig

from conftest import Pinned, dataset, random_classification
from oracles import empirical_loss

LN2 = 0.6931471805599453
HALF_LN_4_3 = 0.14384103622589042


def logistic_cfg(rounds, stumps="confidence"):
    return BoostConfig(rounds=rounds, loss_kind="logistic",
                       stumps=StumpSearchConfig(mode=stumps))


def prior_loss(model, ds, p, cfg):
    """The combined objective at the model's scores, the prior ``p`` or else the dataset's."""
    p = ds.prior if p is None else p
    return prior_objective(model.score(ds.features), ds, p, cfg.eta, cfg.epsilon_clip)


def weighted_logistic_loss(model, ds):
    w = ds.weights if ds.weights is not None else np.ones(ds.m)
    return float(np.sum(w * log1pexp(-(ds.labels * model.score(ds.features)))))


class TestRelativeEntropy:
    def test_identity_is_zero(self, np_rng):
        for p in np_rng.uniform(0.01, 0.99, size=20):
            assert relative_entropy(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_half_versus_quarter(self):
        assert relative_entropy(0.5, 0.25) == pytest.approx(HALF_LN_4_3, abs=1e-15)

    def test_certain_versus_half(self):
        # the 0*ln(0) convention makes the second term vanish
        assert relative_entropy(1.0, 0.5) == pytest.approx(LN2, abs=1e-15)
        assert relative_entropy(0.0, 0.5) == pytest.approx(LN2, abs=1e-15)

    def test_degenerate_second_argument_rejected(self):
        for bad in (0.0, 1.0):
            with pytest.raises(DataError):
                relative_entropy(0.5, bad)

    def test_nonnegative_zero_only_at_equality(self, np_rng):
        for _ in range(200):
            p = float(np_rng.uniform(0, 1))
            q = float(np_rng.uniform(0.01, 0.99))
            re = relative_entropy(p, q)
            assert re >= 0.0
            if abs(p - q) > 1e-6:
                assert re > 0.0

    def test_vectorized(self):
        out = relative_entropy(np.array([0.5, 1.0]), np.array([0.25, 0.5]))
        np.testing.assert_allclose(out, [HALF_LN_4_3, LN2], atol=1e-15)


class TestPriorLoss:
    def make_ds(self, m=6, prior_value=0.5):
        X = np.arange(m, dtype=float)[:, None]
        y = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        return dataset(X, y, prior=np.full(m, prior_value))

    def test_eta_zero_equals_logistic_loss(self, np_rng):
        ds = random_classification(np_rng, 20, 2)
        p = np_rng.uniform(0, 1, size=20)
        model, _ = train(ds, logistic_cfg(4))
        cfg = PriorConfig(eta=0.0)
        assert prior_loss(model, ds, p, cfg) == pytest.approx(
            empirical_loss(model, ds, "logistic"), rel=1e-12
        )

    def test_zero_score_matching_prior(self):
        ds = self.make_ds(m=6, prior_value=0.5)
        model = AdditiveModel((), "logistic")
        assert prior_loss(model, ds, None, PriorConfig(eta=3.0)) == pytest.approx(
            6 * LN2, abs=1e-12
        )

    def test_zero_score_certain_prior(self):
        ds = self.make_ds(m=4, prior_value=1.0)
        model = AdditiveModel((), "logistic")
        # data term m*ln2 plus eta * m * RE(1 || 0.5)
        assert prior_loss(model, ds, None, PriorConfig(eta=2.0)) == pytest.approx(
            4 * LN2 + 2.0 * 4 * LN2, abs=1e-12
        )

    def test_missing_prior_rejected(self):
        ds = dataset([[1.0]], [1.0])
        with pytest.raises(DataError, match="no prior"):
            train_with_prior(ds, None, PriorConfig(eta=1.0), logistic_cfg(1))

    def test_eta_monotone_at_zero_score(self):
        ds = self.make_ds(m=5, prior_value=0.9)
        model = AdditiveModel((), "logistic")
        values = [prior_loss(model, ds, None, PriorConfig(eta=e)) for e in (0.0, 0.5, 1.0, 4.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestAugmentation:
    def test_eta_zero_reduces_to_original(self, np_rng):
        ds = random_classification(np_rng, 7, 2)
        p = np_rng.uniform(0, 1, size=7)
        aug = augment_with_prior(ds, p, 0.0)
        assert aug.m == 7
        np.testing.assert_array_equal(aug.features, ds.features)
        np.testing.assert_array_equal(aug.labels, ds.labels)
        np.testing.assert_array_equal(aug.weights, np.ones(7))

    def test_single_example_weights(self):
        ds = dataset([[2.0]], [-1.0])
        aug = augment_with_prior(ds, np.array([0.9]), 1.0)
        assert aug.m == 3
        np.testing.assert_array_equal(aug.labels, [-1.0, 1.0, -1.0])
        np.testing.assert_allclose(aug.weights, [1.0, 0.9, 0.1], atol=1e-15)

    def test_gradient_matches_by_finite_differences(self, np_rng):
        m, eta = 5, 1.7
        y = np_rng.choice([-1.0, 1.0], size=m)
        p = np_rng.uniform(0.05, 0.95, size=m)
        f = np_rng.uniform(-2, 2, size=m)
        clip = 1e-9  # negligible clipping at these scores

        ds = dataset(np.zeros((m, 1)), y)

        def objective(fv):
            return prior_objective(fv, ds, p, eta, clip)

        def augmented(fv):
            # per-example weighted logistic loss of the three row groups
            loss = np.sum(log1pexp(-(y * fv)))
            loss += eta * np.sum(p * log1pexp(-fv))
            loss += eta * np.sum((1.0 - p) * log1pexp(fv))
            return float(loss)

        h = 1e-5
        for i in range(m):
            bump = np.zeros(m)
            bump[i] = h
            g_obj = (objective(f + bump) - objective(f - bump)) / (2 * h)
            g_aug = (augmented(f + bump) - augmented(f - bump)) / (2 * h)
            assert g_obj == pytest.approx(g_aug, abs=1e-6)

    def test_constant_offset_between_objectives(self, np_rng):
        ds = random_classification(np_rng, 12, 2)
        p = np_rng.uniform(0.05, 0.95, size=12)
        eta = 2.5
        aug = augment_with_prior(ds, p, eta)
        cfg = PriorConfig(eta=eta, epsilon_clip=1e-12)
        offsets = []
        for rounds in (1, 3, 6):
            model, _ = train(ds, logistic_cfg(rounds))
            offsets.append(prior_loss(model, ds, p, cfg) - weighted_logistic_loss(model, aug))
        for a, b in zip(offsets, offsets[1:]):
            assert a == pytest.approx(b, abs=1e-9)
        # the offset is minus eta times the entropy of the prior
        entropy = -np.sum(p * np.log(p) + (1 - p) * np.log1p(-p))
        assert offsets[0] == pytest.approx(-eta * float(entropy), abs=1e-9)


class TestTrainWithPrior:
    def test_eta_zero_identical_to_plain_logistic(self, np_rng):
        ds = random_classification(np_rng, 15, 2)
        p = np_rng.uniform(0, 1, size=15)
        cfg = logistic_cfg(6)
        with_prior, _ = train_with_prior(ds, p, PriorConfig(eta=0.0), cfg)
        plain, _ = train(ds, cfg)
        assert with_prior.terms == plain.terms

    def test_prior_loss_recorded_and_non_increasing(self, np_rng):
        ds = random_classification(np_rng, 20, 2)
        p = np_rng.uniform(0.1, 0.9, size=20)
        _, stats = train_with_prior(ds, p, PriorConfig(eta=1.0), logistic_cfg(10))
        values = [s.prior_loss for s in stats]
        assert all(v is not None for v in values)
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9

    def test_weighted_prior_loss_non_increasing_at_a_constant_offset(self, np_rng):
        # base weights scale each row's data term, as they do in the augmented set
        m, eta = 200, 2.0
        ds = dataset(np_rng.uniform(-1, 1, size=(m, 3)), np_rng.choice([-1.0, 1.0], size=m),
                     weights=np_rng.choice([0.2, 5.0], size=m))
        p = np_rng.uniform(0.05, 0.95, size=m)
        pcfg = PriorConfig(eta=eta, epsilon_clip=1e-12)
        model, stats = train_with_prior(ds, p, pcfg, logistic_cfg(30))
        values = [s.prior_loss for s in stats]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12 * a
        aug = augment_with_prior(ds, p, eta)
        entropy = -np.sum(p * np.log(p) + (1 - p) * np.log1p(-p))
        for rounds in (1, 10, 30):
            prefix = AdditiveModel(model.terms[:rounds], "logistic")
            offset = prior_loss(prefix, ds, p, pcfg) - weighted_logistic_loss(prefix, aug)
            assert offset == pytest.approx(-eta * float(entropy), rel=1e-9), rounds

    def test_large_eta_matches_prior(self, np_rng):
        # the prior term dominates; sigmoid(f) must track p closely
        m = 80
        X = np_rng.uniform(-1, 1, size=(m, 1))
        y = np_rng.choice([-1.0, 1.0], size=m)
        p = np.where(X[:, 0] > 0.0, 0.9, 0.1)
        ds = dataset(X, y)
        model, _ = train_with_prior(ds, p, PriorConfig(eta=1e4), logistic_cfg(60))
        sig = 1.0 / (1.0 + np.exp(-model.score(ds.features)))
        assert float(np.mean(np.abs(sig - p))) < 0.05

    def test_exponential_loss_rejected(self, np_rng):
        ds = random_classification(np_rng, 10, 1)
        with pytest.raises(UsageError):
            train_with_prior(ds, np.full(10, 0.5), PriorConfig(eta=1.0),
                             BoostConfig(rounds=2, loss_kind="exponential"))

    def test_negative_eta_rejected(self):
        with pytest.raises(UsageError):
            PriorConfig(eta=-1.0)

    @pytest.mark.parametrize("eta", [math.inf, math.nan])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(UsageError, match="finite"):
            PriorConfig(eta=eta)

    def test_folded_masses_with_overflowing_sum_rejected(self):
        # every mass is finite, but they sum past the largest double
        ds = dataset([[0.0], [1.0], [2.0]], [1.0, -1.0, 1.0])
        with pytest.raises(DataError, match="finite sum"):
            train_with_prior(ds, np.full(3, 0.5), PriorConfig(eta=1e308), logistic_cfg(2))


def close(a, b):
    """Agreement up to rounding: 1e-9 relative, or 1e-12 absolute near zero
    (a converged round's alpha is set by derivatives known to about 1e-16)."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def flat_optimum(alpha, ref_alpha, aug, f_aug, h, ref_h, tol=1e-10):
    """Whether both alphas sit on an optimum too flat to pin them to close().

    Newton stops at |L'(alpha)| <= tol, with L the augmented logistic loss
    (which the folded run minimizes too), so it pins alpha only to about
    tol / L''(alpha). Where that width is within close()'s tolerance, the
    two alphas must be close. Where L'' is smaller, each alpha must instead
    meet the stopping rule of the other run, up to the rounding of L'.
    """
    for a, outputs in ((alpha, h), (ref_alpha, ref_h)):
        slope, curvature, rounding = _derivatives(a, outputs, aug, f_aug)
        if 2.0 * tol <= curvature * max(1e-9 * abs(a), 1e-12):
            return False
        if abs(slope) > tol + rounding:
            return False
    return True


def beyond_rounding(alpha, ref_alpha, aug, f_aug, h):
    """Whether two alphas are further apart than the rounding of L' moves its
    root, |d L'| / L'': then they come from Newton stopping at different
    points, not from the two runs summing in different orders."""
    _, curvature, rounding = _derivatives(alpha, h, aug, f_aug)
    return abs(alpha - ref_alpha) * curvature > rounding


def _derivatives(a, outputs, aug, f_aug):
    """L'(a), L''(a) and a bound on the rounding of L', for the augmented loss."""
    y, w = aug.labels, aug.weights
    yh = y * outputs
    s = sigmoid(-(y * f_aug + a * yh))
    slope = -w * yh * s
    curvature = float(np.sum(w * yh * yh * s * (1.0 - s)))
    rounding = 4.0 * slope.shape[0] * 2.0**-52 * float(np.sum(np.abs(slope)))
    return float(np.sum(slope)), curvature, rounding


def search_objective(stump, X, w_pos, w_neg, mode, smoothing):
    """What the stump search minimizes, for the partition a stump makes of X."""
    left = X[:, stump.feature_index] <= stump.threshold
    wp_l, wn_l, wp_r, wn_r = (float(np.sum(w[side])) for side in (left, ~left) for w in (w_pos, w_neg))
    if mode == "binary":
        return min(wp_l + wn_r, wn_l + wp_r)
    s = smoothing
    return 2.0 * (math.sqrt((wp_l + s) * (wn_l + s)) + math.sqrt((wp_r + s) * (wn_r + s)))


def output_rounding(stump, aug, D, mode, smoothing):
    """How far rounding can move each output of a stump, (left, right).

    The search sums masses of D, which sum to 1, so a side's masses are
    known to r = 4 n 2^-52 only. A confidence output 1/2 ln((W+ + s) / (W- + s))
    then moves by up to r/2 (1/(W+ + s) + 1/(W- + s)); a binary output is exact.
    """
    if mode == "binary":
        return 0.0, 0.0
    r = 4.0 * aug.m * 2.0**-52
    left, pos = aug.features[:, stump.feature_index] <= stump.threshold, aug.labels > 0.0
    masses = ((float(np.sum(D[side & pos])), float(np.sum(D[side & ~pos]))) for side in (left, ~left))
    return tuple(0.5 * r * (1.0 / (wp + smoothing) + 1.0 / (wn + smoothing)) for wp, wn in masses)


def assert_matches_augmented(ds, p, eta, mode, eval_ds, rounds=8):
    """train_with_prior against plain training on the augmented set, round by round.

    Both runs pick the same feature and threshold, or (when copies of a
    partition tie) stumps that split the training rows alike. Two distinct
    partitions whose objectives tie exactly are ordered by rounding, which
    differs between the runs; the comparison checks that the tie is real
    and stops there. It stops too where the runs pick different stumps
    whose outputs all lie within rounding of 0 (see ``output_rounding``):
    those tie up to rounding, and alpha along either may be capped, which
    moves later scores by up to ALPHA_CAP. test_error is compared only
    while no eval score of either run lies within the rounding its terms'
    outputs carry, since rounding sets the sign of such a score. A round
    whose optimum is too flat for Newton's stop to pin alpha to close()
    (see ``flat_optimum``) ends the comparison too, when the alphas differ
    by more than rounding explains: later rounds start from scores apart
    by that gap times h. Returns the number of rounds compared.
    """
    cfg = BoostConfig(rounds=rounds, loss_kind="logistic", stumps=StumpSearchConfig(mode=mode))
    pcfg = PriorConfig(eta=eta)
    aug = augment_with_prior(ds, p, eta)
    ref, ref_stats = train(aug, cfg, eval_ds)
    model, stats = train_with_prior(ds, p, pcfg, cfg, eval_ds)
    smoothing = 1.0 / (2.0 * aug.m)
    f_aug, f = np.zeros(aug.m), np.zeros(ds.m)
    f_eval, ref_f_eval, eval_rounding = np.zeros(eval_ds.m), np.zeros(eval_ds.m), 0.0
    same_stumps = True
    for t, ((alpha, stump), (ref_alpha, ref_stump), s, r) in enumerate(
        zip(model.terms, ref.terms, stats, ref_stats)
    ):
        same_pick = (stump.feature_index, stump.threshold) == (ref_stump.feature_index, ref_stump.threshold)
        same_stumps = same_stumps and same_pick
        h, ref_h = stump.evaluate_matrix(aug.features), ref_stump.evaluate_matrix(aug.features)
        # alphas that Newton left apart, even within close(), on a flat
        # optimum start the later rounds from scores whose gap the loss can
        # magnify
        apart = not close(alpha, ref_alpha) or beyond_rounding(alpha, ref_alpha, aug, f_aug, h)
        flat = apart and flat_optimum(alpha, ref_alpha, aug, f_aug, h, ref_h)
        agree = (close(alpha, ref_alpha) or flat) and all(map(close, h, ref_h))
        if same_pick:
            agree = agree and close(stump.left_output, ref_stump.left_output)
            agree = agree and close(stump.right_output, ref_stump.right_output)
        converged = max(np.max(np.abs(alpha * h)), np.max(np.abs(ref_alpha * ref_h))) <= 1e-12
        D = aug.weights * sigmoid(-(aug.labels * f_aug))
        D = D / D.sum()
        bounds = [output_rounding(st_, aug, D, mode, smoothing) for st_ in (stump, ref_stump)]
        at_rounding = [abs(st_.left_output) <= b[0] and abs(st_.right_output) <= b[1]
                       for st_, b in zip((stump, ref_stump), bounds)]
        tied = not same_pick and all(at_rounding)
        if not same_pick and not tied and all(map(close, h, ref_h)):
            # one partition of the rows with mass, recorded on another feature;
            # two thresholds of one feature always split those rows apart
            assert stump.feature_index != ref_stump.feature_index or converged, t
        # in a round that adds nothing, which stump carries alpha ~ 0 is down to rounding
        if tied or not (agree or converged):
            if not tied:
                assert not same_pick, (t, alpha, ref_alpha, stump, ref_stump)
                assert not all(map(close, h, ref_h)), (t, alpha, ref_alpha)
            w_pos = np.where(aug.labels > 0.0, D, 0.0)
            w_neg = D - w_pos
            mine, theirs = (search_objective(st_, aug.features, w_pos, w_neg, mode, smoothing)
                            for st_ in (stump, ref_stump))
            assert close(mine, theirs), (t, mine, theirs)
            return t
        for name in ("epsilon", "loss"):
            assert close(getattr(s, name), getattr(r, name)), (t, name)
        for name in ("z", "cumulative_bound"):
            if flat:
                # z is a ratio of weighted means of exp(-y f): ln z moves by
                # at most |d alpha| max|h| as alpha moves
                moved = abs(math.log(getattr(s, name) / getattr(r, name)))
                assert moved <= abs(alpha - ref_alpha) * float(np.max(np.abs(h))) + 2e-9, (t, name)
            else:
                assert close(getattr(s, name), getattr(r, name)), (t, name)
        # prior_loss is taken at the run's own alpha, which a flat round does
        # not pin to the reference's
        f_run = f + alpha * stump.evaluate_matrix(ds.features)
        f_aug += ref_alpha * ref_stump.evaluate_matrix(aug.features)
        f += ref_alpha * ref_stump.evaluate_matrix(ds.features)
        objective = prior_objective(f_run if flat else f, ds, p, eta, pcfg.epsilon_clip)
        assert close(s.prior_loss, objective), t
        assert s.train_error == r.train_error, t
        f_eval += alpha * stump.evaluate_matrix(eval_ds.features)
        ref_f_eval += ref_alpha * ref_stump.evaluate_matrix(eval_ds.features)
        eval_rounding += max(abs(alpha), abs(ref_alpha)) * max(max(b) for b in bounds)
        if same_stumps and np.all(np.minimum(np.abs(f_eval), np.abs(ref_f_eval)) >= eval_rounding):
            assert s.test_error == r.test_error, t
        if flat:
            # later rounds start from scores (alpha - ref_alpha) * h apart
            return t + 1
    return rounds


GRID = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-10, 10)


# One row of base weight 1 and a prior mass of 5e-11 on label +1: L'' is
# about 1.2e-10 at the optimum, so the stop |L'| <= 1e-10 leaves the two
# runs' alphas 1.4e-9 apart relative (23.91279530 and 23.91279533).
_FLAT_OPTIMUM = ([[-1.0]] * 4, [-1.0, -1.0, -1.0, 1.0], [0.0] * 4, [0.0, 0.0, 0.0, 1e-10], [[-1.0]], [-1.0])

# Base weight on one row, all other mass from the prior. Round 2's
# optimum has L'' of 5.7e-8, so |L'| <= 1e-10 pins alpha only to about
# 2e-3: the two runs stop at 19.147019084782443 and 19.14701908276359,
# close() apart, and round 3 then magnifies that gap to epsilons
# 0.2500000061 and 0.2500000066.
_CLOSE_ON_FLAT_OPTIMUM = (
    [[-1.0, -1.0, -1.0, -1.0], [-1.0, -1.0, -1.0, -1.0], [-1.0, -1.0, -1.0, 0.5], [-1.0, -1.0, -1.0, 0.0]],
    [1.0, -1.0, -1.0, -1.0], [0.0] * 4, [1.0, 1.0, 1.0, 0.0], [[-1.0, -1.0, -1.0, -1.0]], [-1.0],
)


# Four rows of label -1 at x = -1, -1, 0, -1 with priors 0, 0, 0.5, 0. With
# weights 0, 1, 0, 0.625 both runs pick one stump in round 1 whose right
# output is rounding (-1.7e-16 in one run, +1.1e-16 in the other), which
# sets the sign of the eval row at x = 0. With weights 1, 0, 0, 0 round 2
# picks stumps whose outputs (-2.4e-14 and -3.5e-15) are rounding too, and
# alpha along the first is capped at 1.4e15.
_ROUNDING_OUTPUTS = ([[-1.0], [-1.0], [0.0], [-1.0]], [-1.0] * 4)
_ROUNDING_PRIOR = [0.0, 0.0, 0.5, 0.0]


class TestFoldedMatchesAugmented:
    """Training on the m rows with folded masses against training on the 3m-row set."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([0.0, 0.5, 5.0]), st.sampled_from(["binary", "confidence"]))
    @example(Pinned(4, 1, *_FLAT_OPTIMUM), 0.5, "binary")
    @example(Pinned(4, 1, *_FLAT_OPTIMUM), 0.5, "confidence")
    @example(Pinned(4, 4, *_CLOSE_ON_FLAT_OPTIMUM), 0.5, "confidence")
    @example(Pinned(4, 1, *_ROUNDING_OUTPUTS, [0.0, 1.0, 0.0, 0.625], _ROUNDING_PRIOR, [[0.0]], [-1.0]),
             5.0, "confidence")
    @example(Pinned(4, 1, *_ROUNDING_OUTPUTS, [1.0, 0.0, 0.0, 0.0], _ROUNDING_PRIOR, [[-1.0]], [-1.0]),
             5.0, "confidence")
    def test_drawn_data(self, data, eta, mode):
        m = data.draw(st.integers(1, 40))
        d = data.draw(st.integers(1, 4))
        rows = st.lists(st.lists(GRID, min_size=d, max_size=d), min_size=m, max_size=m)
        X = np.array(data.draw(rows))
        y = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
        w = np.array(data.draw(st.lists(st.just(0.0) | st.floats(0.01, 3.0), min_size=m, max_size=m)))
        if not w.any():
            w[0] = 1.0
        p = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                        min_size=m, max_size=m)))
        Xe = np.array(data.draw(st.lists(st.lists(GRID, min_size=d, max_size=d), min_size=1, max_size=8)))
        ye = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(Xe), max_size=len(Xe))))
        assert_matches_augmented(dataset(X, y, weights=w), p, eta, mode, dataset(Xe, ye))

    @pytest.mark.parametrize("mode", ["binary", "confidence"])
    @pytest.mark.parametrize("eta", [0.5, 5.0])
    def test_every_round_on_weighted_data(self, np_rng, eta, mode):
        # continuous weights keep every mass distinct, so no round can tie
        m = 120
        X = np_rng.normal(size=(m, 4))
        X[:, 1] = np.round(X[:, 1] * 2.0) / 2.0  # tied values
        y = np.where(X[:, 0] + np_rng.normal(scale=0.8, size=m) > 0.0, 1.0, -1.0)
        p = sigmoid(2.0 * X[:, 0])
        p[:20], p[20:40] = 0.0, 1.0
        w = np_rng.uniform(0.2, 2.0, size=m)
        w[40:50] = 0.0
        Xe = np_rng.normal(size=(60, 4))
        ye = np.where(Xe[:, 0] > 0.0, 1.0, -1.0)
        assert assert_matches_augmented(dataset(X, y, weights=w), p, eta, mode,
                                        dataset(Xe, ye), rounds=12) == 12

    @pytest.mark.parametrize("mode", ["binary", "confidence"])
    def test_eta_zero_is_the_augmented_run_bit_for_bit(self, np_rng, mode):
        # with no prior mass, the kept rows and their weights are the augmented
        # set's; rows of base weight 0 are dropped from both
        m = 40
        X = np.round(np_rng.normal(size=(m, 3)) * 4.0) / 4.0
        y = np_rng.choice([-1.0, 1.0], size=m)
        w = np_rng.uniform(0.5, 2.0, size=m)
        w[::3] = 0.0
        ds, p = dataset(X, y, weights=w), np_rng.uniform(size=m)
        cfg = BoostConfig(rounds=6, loss_kind="logistic", stumps=StumpSearchConfig(mode=mode))
        model, stats = train_with_prior(ds, p, PriorConfig(eta=0.0), cfg, ds)
        ref, ref_stats = train(augment_with_prior(ds, p, 0.0), cfg, ds)
        assert model.terms == ref.terms
        for s, r in zip(stats, ref_stats):
            s.prior_loss = None
            assert s == r

    def test_default_smoothing_counts_augmented_rows(self, np_rng):
        # 10 rows, 3 with base weight 0, 2 with p = 0 and 2 with p = 1: the
        # augmented set has 7 + 8 + 8 = 23 rows, so the smoothing is 1/46
        ds = dataset(np_rng.normal(size=(10, 2)), np_rng.choice([-1.0, 1.0], size=10),
                     weights=np.array([0.0, 0.0, 0.0, 1, 1, 1, 1, 1, 1, 1]))
        p = np.array([0.0, 0.0, 1.0, 1.0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        assert augment_with_prior(ds, p, 2.0).m == 23
        cfg = logistic_cfg(3)
        model, _ = train_with_prior(ds, p, PriorConfig(eta=2.0), cfg)
        explicit = BoostConfig(rounds=3, loss_kind="logistic",
                               stumps=StumpSearchConfig(mode="confidence", smoothing=1.0 / 46.0))
        same, _ = train_with_prior(ds, p, PriorConfig(eta=2.0), explicit)
        assert model.terms == same.terms


class TestPriorRules:
    def test_first_match_wins(self):
        rule = PriorRule(((0, "<=", 0.0, 0.9), (0, ">", -5.0, 0.2)), 0.5)
        X = np.array([[-1.0], [1.0], [-10.0]])
        np.testing.assert_allclose(rule.evaluate(X), [0.9, 0.2, 0.9])

    def test_default_applies(self):
        rule = PriorRule(((1, ">", 0.5, 0.8),), 0.3)
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(rule.evaluate(X), [0.8, 0.3])

    def test_load_rule_table(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# prior rules\n0, <=, 0.5, 0.75\n1, >, 2.0, 0.25\ndefault, 0.5\n")
        rule = load_rule_table(str(path))
        assert rule.default == 0.5
        assert rule.rules == ((0, "<=", 0.5, 0.75), (1, ">", 2.0, 0.25))

    def test_missing_default_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("0, <=, 0.5, 0.75\n")
        with pytest.raises(DataError, match="default"):
            load_rule_table(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("0, <=, abc, 0.75\ndefault, 0.5\n")
        with pytest.raises(DataError, match="line 1"):
            load_rule_table(str(path))

    def test_rule_after_default_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("default, 0.5\n0, <=, 1.0, 0.2\n")
        with pytest.raises(DataError, match="after the default"):
            load_rule_table(str(path))
