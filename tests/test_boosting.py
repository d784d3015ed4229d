import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from boostkit.boosting import (
    ALPHA_CAP,
    AdditiveModel,
    BoostConfig,
    RoundAccounting,
    alpha_binary,
    alpha_line_search,
    alpha_logistic_line_search,
    bound_report,
    error_rate,
    logistic_weights,
    sign_pm1,
    stats_csv_rows,
    train,
    update_distribution,
)
from boostkit.data import normalized, uniform_distribution
from boostkit import boosting
from boostkit.errors import BoostkitError, DataError, InvariantError, UsageError
from boostkit.losses import sigmoid
from boostkit.stumps import Stump, StumpSearchConfig
from oracles import best_binary_stump

from conftest import Pinned, dataset, random_classification, stump_separable, xor_task

HALF_LN3 = 0.5493061443340549
LN3 = 1.0986122886681098
SQRT3_OVER_2 = 0.8660254037844386


def binary_config(rounds, **kwargs):
    return BoostConfig(rounds=rounds, loss_kind="exponential",
                       stumps=StumpSearchConfig(mode="binary"), **kwargs)


class TestAlphaBinary:
    def test_random_guessing_gets_zero(self):
        assert alpha_binary(0.5) == 0.0

    def test_quarter_error(self):
        assert alpha_binary(0.25) == pytest.approx(HALF_LN3, abs=1e-15)

    def test_tenth_error(self):
        assert alpha_binary(0.1) == pytest.approx(LN3, abs=1e-15)

    def test_zero_error_hits_cap(self):
        assert alpha_binary(0.0) == ALPHA_CAP
        assert alpha_binary(1.0) == -ALPHA_CAP

    def test_out_of_range_rejected(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(DataError):
                alpha_binary(bad)


class TestZValue:
    def test_alpha_zero_gives_one(self, np_rng):
        m = 10
        D = uniform_distribution(m)
        h = np_rng.uniform(-2, 2, size=m)
        y = np_rng.choice([-1.0, 1.0], size=m)
        assert oracles.z_value(D, h, y, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_binary_matches_closed_form(self):
        # one of four examples misclassified, optimal alpha
        y = np.array([1.0, 1.0, 1.0, 1.0])
        h = np.array([1.0, 1.0, 1.0, -1.0])
        D = uniform_distribution(4)
        z = oracles.z_value(D, h, y, alpha_binary(0.25))
        assert z == pytest.approx(SQRT3_OVER_2, abs=1e-12)
        assert z == pytest.approx(2.0 * math.sqrt(0.25 * 0.75), abs=1e-12)

    def test_no_edge_gives_one(self):
        y = np.array([1.0, 1.0])
        h = np.array([1.0, -1.0])
        assert oracles.z_value(uniform_distribution(2), h, y, alpha_binary(0.5)) == 1.0


class TestAlphaLineSearch:
    def test_recovers_closed_form_for_binary_outputs(self):
        y = np.array([1.0, 1.0, 1.0, 1.0])
        h = np.array([1.0, 1.0, 1.0, -1.0])
        alpha = alpha_line_search(uniform_distribution(4), h, y)
        assert alpha == pytest.approx(HALF_LN3, abs=1e-8)

    def test_all_correct_hits_cap(self):
        y = np.array([1.0, -1.0])
        h = np.array([1.0, -1.0])
        assert alpha_line_search(uniform_distribution(2), h, y) == ALPHA_CAP

    def test_symmetric_case_is_zero(self):
        y = np.array([1.0, 1.0])
        h = np.array([1.0, -1.0])
        assert alpha_line_search(uniform_distribution(2), h, y) == pytest.approx(0.0, abs=1e-10)

    def test_zero_outputs_where_there_is_mass_give_zero(self):
        # Z is flat in alpha: the fit has converged
        y = np.array([1.0, -1.0, 1.0])
        assert alpha_line_search(np.array([0.5, 0.5, 0.0]), np.zeros(3), y) == 0.0
        assert alpha_line_search(np.array([0.5, 0.5, 0.0]), np.array([0.0, -0.0, 1.0]), y) == 0.0

    def test_subnormal_outputs_keep_alpha_finite(self):
        # cap / max|h| overflows; an infinite alpha would make alpha * 0 a NaN
        y = np.array([1.0, -1.0])
        h = np.array([0.0, 2.2250738585e-309])
        assert alpha_line_search(uniform_distribution(2), h, y) == -1.7976931348623157e308
        a = alpha_logistic_line_search(np.ones(2), np.zeros(2), h, y)
        assert a == -1.7976931348623157e308
        assert np.all(np.isfinite(np.zeros(2) + a * h))

    def test_derivative_vanishes_at_optimum(self, np_rng):
        for _ in range(10):
            m = 12
            D = np_rng.uniform(0.01, 1, size=m)
            D /= D.sum()
            h = np_rng.uniform(-2, 2, size=m)
            y = np_rng.choice([-1.0, 1.0], size=m)
            if np.all(y * h >= 0) or np.all(y * h <= 0):
                continue
            a = alpha_line_search(D, h, y)
            grad = float(np.sum(-D * y * h * np.exp(-a * y * h)))
            assert abs(grad) <= 1e-9


class TestLineSearchOracle:
    """Derivatives from one exp/sigmoid per Newton step give the old alphas."""

    def inputs(self, rng, m, confidence):
        y = rng.choice([-1.0, 1.0], size=m)
        h = rng.choice([-1.0, 1.0], size=m)
        if confidence:
            h = h * rng.uniform(0.05, 3.0, size=m)
        h[rng.uniform(size=m) < 0.1] = 0.0
        D = rng.uniform(0.0, 1.0, size=m)
        D[rng.uniform(size=m) < 0.1] = 0.0
        return D / D.sum(), h, y

    def test_exponential_alphas_identical(self, np_rng):
        for trial in range(200):
            D, h, y = self.inputs(np_rng, int(np_rng.integers(2, 400)), trial % 2 == 1)
            if not np.any((D > 0.0) & (h != 0.0)):
                continue
            assert repr(alpha_line_search(D, h, y)) == repr(oracles.alpha_line_search(D, h, y))

    def test_logistic_alphas_identical(self, np_rng):
        for trial in range(200):
            m = int(np_rng.integers(2, 400))
            D, h, y = self.inputs(np_rng, m, trial % 2 == 1)
            if not np.any((D > 0.0) & (h != 0.0)):
                continue
            w = D * m
            f = np_rng.normal(scale=float(np_rng.choice([0.1, 2.0, 20.0])), size=m)
            assert repr(alpha_logistic_line_search(w, f, h, y)) == repr(
                oracles.alpha_logistic_line_search(w, f, h, y)
            )

    def test_capped_cases_identical(self):
        y = np.array([1.0, -1.0, 1.0])
        h = np.array([1.0, -1.0, 1.0])  # every example correct: alpha hits +cap
        D = np.full(3, 1.0 / 3.0)
        assert alpha_line_search(D, h, y) == oracles.alpha_line_search(D, h, y) == ALPHA_CAP
        f = np.zeros(3)
        assert alpha_logistic_line_search(np.ones(3), f, -h, y) == (
            oracles.alpha_logistic_line_search(np.ones(3), f, -h, y)
        )


def _term(draw, d, binary):
    feature = draw(st.integers(0, d - 1))
    threshold = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
    if binary:
        left = draw(st.sampled_from([-1.0, 1.0]))
        right = -left
    else:
        left = draw(st.sampled_from([0.0, -0.0, 0.25, -1.5]) | st.floats(-5.0, 5.0))
        right = draw(st.sampled_from([0.0, -0.0, 0.75, -2.0]) | st.floats(-5.0, 5.0))
    alpha = draw(st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-35.0, 35.0))
    return alpha, Stump(feature, threshold, left, right)


@st.composite
def models_and_rows(draw):
    kind = draw(st.sampled_from(
        [("binary", "exponential"), ("confidence", "exponential"), ("confidence", "logistic")]
    ))
    d = draw(st.integers(1, 4))
    terms = tuple(_term(draw, d, kind[0] == "binary") for _ in range(draw(st.integers(0, 30))))
    row = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.3, 1.0]) | st.floats(-2.0, 2.0),
                        min_size=d, max_size=d))
    return AdditiveModel(terms, kind[1]), np.array(row)


class TestScoreOne:
    @settings(max_examples=100, deadline=None)
    @given(models_and_rows())
    def test_matches_batch_score_bit_for_bit(self, model_row):
        model, x = model_row
        assert repr(model.score_one(x)) == repr(float(model.score(x[None, :])[0]))
        assert repr(model.score_one(x)) == repr(oracles.score_one(model, x))

    def test_trained_models_match_batch_score(self, np_rng):
        ds = random_classification(np_rng, 120, 3)
        for stumps, loss in (("binary", "exponential"), ("confidence", "exponential"),
                             ("confidence", "logistic")):
            cfg = BoostConfig(rounds=25, loss_kind=loss, stumps=StumpSearchConfig(mode=stumps))
            model, _ = train(ds, cfg)
            X = np_rng.uniform(-1.5, 1.5, size=(200, 3))
            batch = model.score(X)
            assert [repr(model.score_one(x)) for x in X] == [repr(float(v)) for v in batch]

    def test_all_zero_contributions_give_positive_zero(self):
        # alpha * h is -0.0 for every term; summing from 0.0 gives +0.0
        model = AdditiveModel(tuple((-1.0, Stump(0, 0.0, 0.0, 0.0)) for _ in range(5)))
        x = np.array([0.5])
        assert repr(float(model.score(x[None, :])[0])) == "0.0"
        assert repr(model.score_one(x)) == "0.0"
        assert repr(AdditiveModel(()).score_one(x)) == "0.0"

    def test_feature_index_out_of_range_rejected(self):
        for bad in (-1, -3, 2, 7):
            model = AdditiveModel(((1.0, Stump(0, 0.0, -1.0, 1.0)),
                                   (0.5, Stump(bad, 0.0, -1.0, 1.0))))
            with pytest.raises(DataError, match=f"feature index {bad} out of range"):
                model.score_one(np.array([0.1, 0.2]))
            with pytest.raises(DataError, match=f"feature index {bad} out of range"):
                model.score(np.array([[0.1, 0.2]]))

    def test_matrix_input_rejected(self):
        model = AdditiveModel(((1.0, Stump(0, 0.0, -1.0, 1.0)),))
        with pytest.raises(DataError):
            model.score_one(np.zeros((2, 1)))


@st.composite
def models_and_matrices(draw):
    model, row = draw(models_and_rows())
    n = draw(st.integers(1, 12))
    values = st.sampled_from([-1.0, -0.5, 0.0, -0.0, 0.3, 0.5, 1.0]) | st.floats(-2.0, 2.0)
    X = np.array([row] + [draw(st.lists(values, min_size=row.shape[0], max_size=row.shape[0]))
                          for _ in range(n - 1)])
    return model, X


class TestScore:
    @settings(max_examples=150, deadline=None)
    @given(models_and_matrices())
    def test_matches_term_loop_bit_for_bit(self, model_X):
        # zero alphas and outputs of both signs make terms of -0.0 and +0.0
        model, X = model_X
        want = oracles.score(model, X).tobytes()
        for layout in (np.ascontiguousarray(X), np.asfortranarray(X)):
            assert model.score(layout).tobytes() == want

    def test_out_of_range_error_matches_term_loop(self):
        X = np.asfortranarray([[0.1, 0.2], [0.3, -0.4]])
        for bad in (-1, -3, 2, 7):
            model = AdditiveModel(((1.0, Stump(0, 0.0, -1.0, 1.0)),
                                   (0.5, Stump(bad, 0.0, -1.0, 1.0)),
                                   (0.5, Stump(9, 0.0, -1.0, 1.0))))
            with pytest.raises(DataError) as want:
                oracles.score(model, X)
            with pytest.raises(DataError) as got:
                model.score(X)
            assert str(got.value) == str(want.value) == f"feature index {bad} out of range for 2 features"


def _exponential_runs(draw):
    m = draw(st.integers(1, 12))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    base = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0),
                                  min_size=m, max_size=m)))
    if not np.any(base > 0.0):
        base[draw(st.integers(0, m - 1))] = 1.0
    outputs = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]) | st.floats(-2.0, 2.0)
    rounds = [(np.array(draw(st.lists(outputs, min_size=m, max_size=m))),
               draw(st.sampled_from([0.0, -0.0, 0.5, -1.0, ALPHA_CAP]) | st.floats(-10.0, 10.0)))
              for _ in range(draw(st.integers(1, 6)))]
    return y, base, rounds


class TestRoundAccountingOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exponential_rounds_bit_for_bit(self, data):
        y, base, rounds = _exponential_runs(data.draw)
        acc = RoundAccounting(base, y, "exponential")
        D, f, prod_z = acc.distribution().copy(), np.zeros(y.shape[0]), 1.0
        for t, (h, alpha) in enumerate(rounds, start=1):
            epsilon = acc.error(h)
            assert repr(epsilon) == repr(oracles.weighted_error(D, h, y))
            with np.errstate(all="ignore"):
                D, z = oracles.update_distribution(D, h, y, alpha)
            if not (np.isfinite(z) and z > 0.0):
                with pytest.raises(InvariantError), np.errstate(all="ignore"):
                    acc.step(h, alpha)
                return
            s = acc.stats(t, epsilon, acc.step(h, alpha))
            f = f + alpha * h
            prod_z *= z
            assert acc.distribution().tobytes() == D.tobytes()
            assert (repr(s.z), repr(s.cumulative_bound)) == (repr(z), repr(prod_z))
            assert repr(s.train_error) == repr(oracles.train_error(f, y))
            assert type(s.train_error) is float
            with np.errstate(all="ignore"):
                assert repr(acc.loss()) == repr(oracles.exponential_loss(base, y, f))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    # half of the smallest double rounds to 0, so sigmoid(0) * 5e-324 does
    @example(Pinned(1, [-1.0], [5e-324], 1, [1.0], 0.5))
    def test_error_with_flipped_masses(self, data):
        y, base, rounds = _exponential_runs(data.draw)
        flip = base[::-1].copy()
        acc = RoundAccounting(base, y, "logistic", flip)
        if not np.any(np.concatenate((base, flip)) * 0.5):  # D is masses * sigmoid(0)
            with pytest.raises(DataError, match="logistic weights underflowed"):
                acc.distribution()
            return
        D = acc.distribution()
        for h, _ in rounds:
            assert repr(acc.error(h)) == repr(oracles.weighted_error(D, h, y))


@st.composite
def training_runs(draw):
    """(loss, stumps, alpha strategy, X, y, base weights, flip masses or None, rounds)."""
    loss = draw(st.sampled_from(["exponential", "logistic"]))
    mode = draw(st.sampled_from(["binary", "confidence"]))
    strategy = draw(st.sampled_from(
        ["auto", "line_search", "unit"] + (["closed_form_binary"] if mode == "binary" else [])))
    m, d = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    cell = st.sampled_from([-1.0, 0.0, -0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0)
    X = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=m, max_size=m))
    y = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    mass = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)
    base = draw(st.lists(mass, min_size=m, max_size=m))
    if not any(base):
        base[draw(st.integers(0, m - 1))] = 1.0
    flip = None
    if loss == "logistic" and draw(st.booleans()):
        flip = draw(st.lists(mass, min_size=m, max_size=m))
    return loss, mode, strategy, X, y, base, flip, draw(st.integers(1, 8))


def _outcome(run):
    """run()'s model and stats, or the type of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return run()
    except BoostkitError as exc:
        return type(exc)


def _terms(model):
    return [(repr(alpha), repr(stump)) for alpha, stump in model.terms]


def _stats(stats):
    return [[repr(v) for v in vars(s).values()] for s in stats]


# Two rows on one point with opposite labels and equal weights: every
# confidence stump outputs 0 on both, so each line search round gives
# alpha = 0 because the fit has converged.
_BALANCED = ("logistic", "confidence", "auto", [[0.5], [0.5]], [1.0, -1.0], [1.0, 1.0], None, 3)
# A row of base weight 0 next to two that are not, logistic loss with unit alpha.
_UNIT = ("logistic", "confidence", "unit", [[0.0], [-0.0], [1.0]], [1.0, -1.0, 1.0],
         [0.0, 1.0, 2.0], None, 4)


class TestTrainOracle:
    """train against the loop that evaluates every sigmoid afresh and keeps every stat."""

    @settings(max_examples=300, deadline=None)
    @given(training_runs())
    @example(_BALANCED)
    @example(_UNIT)
    @example(_UNIT[:6] + ([1.0, 0.0, 0.5], 4))
    def test_terms_and_stats_bit_for_bit(self, run):
        loss, mode, strategy, X, y, base, flip, rounds = run
        ds = dataset(X, y, weights=np.array(base))
        flip = None if flip is None else np.array(flip)
        cfg = BoostConfig(rounds=rounds, loss_kind=loss, stumps=StumpSearchConfig(mode=mode),
                          alpha_strategy=strategy)
        want = _outcome(lambda: oracles.train(ds, cfg, ds, flip))
        got = _outcome(lambda: train(ds, cfg, ds, _flip=flip))
        lean = _outcome(lambda: train(ds, cfg, _flip=flip, _stats=False))
        if isinstance(want, type):
            assert got is want and lean is want
            return
        assert _terms(got[0]) == _terms(lean[0]) == _terms(want[0])
        assert _stats(got[1]) == _stats(want[1])
        assert lean[1] == []

    def test_converged_rounds_keep_alpha_zero(self):
        ds = dataset(*_BALANCED[3:5], weights=np.array(_BALANCED[5]))
        cfg = BoostConfig(rounds=3, loss_kind="logistic", stumps=StumpSearchConfig(mode="confidence"))
        model, _ = train(ds, cfg, _stats=False)
        assert [alpha for alpha, _ in model.terms] == [0.0, 0.0, 0.0]


@st.composite
def line_search_inputs(draw):
    """(w, f, h, y, flip or None), with zero masses, zero outputs and +-0.0 scores."""
    m = draw(st.integers(1, 10))
    vector = lambda values: np.array(draw(st.lists(values, min_size=m, max_size=m)))  # noqa: E731
    mass = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0)
    w = vector(mass)
    f = vector(st.sampled_from([0.0, -0.0, 1.0, -2.0]) | st.floats(-40.0, 40.0))
    h = vector(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-3.0, 3.0))
    y = vector(st.sampled_from([-1.0, 1.0]))
    flip = vector(mass) if draw(st.booleans()) else None
    return w, f, h, y, flip


class TestLineSearchSigmoidHandOff:
    """alpha_logistic_line_search(..., s=...) reads sigmoid(-y f) and leaves sigmoid(-y (f + alpha h))."""

    @staticmethod
    def run(w, f, h, y, flip):
        """Checks the hand-off and returns alpha."""
        mass = w > 0.0 if flip is None else w + flip > 0.0
        s = sigmoid(-(y * f))
        s[~mass] = 0.25  # stale: never read, never written
        before = s.copy()
        alpha = alpha_logistic_line_search(w, f, h, y, flip_weights=flip, s=s)
        want = sigmoid(-(y * (f + alpha * h)))
        assert s[mass].tobytes() == want[mass].tobytes()
        assert s[~mass].tobytes() == before[~mass].tobytes()
        return alpha

    @settings(max_examples=300, deadline=None)
    @given(line_search_inputs())
    @example((np.array([1.0, 0.0, 2.0]), np.array([0.0, -0.0, -0.0]), np.array([1.0, 1.0, 0.0]),
              np.array([1.0, -1.0, -1.0]), None))
    def test_sigmoids_at_the_returned_alpha(self, inputs):
        w, f, h, y, flip = inputs
        mass = w > 0.0 if flip is None else w + flip > 0.0
        if not np.any(mass & (h != 0.0)):
            # converged: alpha is 0 and s is not touched
            s = sigmoid(-(y * f))
            before = s.copy()
            assert alpha_logistic_line_search(w, f, h, y, flip_weights=flip, s=s) == 0.0
            assert s.tobytes() == before.tobytes()
            return
        with np.errstate(all="ignore"):
            alpha = self.run(w, f, h, y, flip)
            assert repr(alpha) == repr(alpha_logistic_line_search(w, f, h, y, flip_weights=flip))

    def test_fresh_sigmoids_when_the_last_step_was_elsewhere(self, monkeypatch, np_rng):
        # Newton returning a point it did not evaluate, as after 200 steps
        def unevaluated(derivs, cap):
            derivs(0.0)
            return 0.3 * cap

        monkeypatch.setattr(boosting, "_newton_1d", unevaluated)
        m = 50
        w = np_rng.uniform(0.0, 2.0, size=m)
        w[:5] = 0.0
        h = np_rng.choice([-1.0, 0.0, 0.5, 1.0], size=m)
        y = np_rng.choice([-1.0, 1.0], size=m)
        f = np_rng.normal(size=m)
        assert self.run(w, f, h, y, None) == 0.3 * 35.0
        # every row active; max |h + 2| is 3
        assert self.run(np.ones(m), f, h + 2.0, y, None) == 0.3 * (35.0 / 3.0)

    def test_accounting_keeps_s_only_at_the_searched_alpha(self, np_rng):
        m = 30
        base = np_rng.uniform(0.5, 2.0, size=m)
        y = np_rng.choice([-1.0, 1.0], size=m)
        h1, h2 = np_rng.normal(size=m), np_rng.normal(size=m)
        acc = RoundAccounting(base, y, "logistic")
        acc.distribution()
        alpha = acc.logistic_alpha(h1)
        acc.step(h1, alpha)
        fresh = lambda: normalized(base * sigmoid(-(y * acc.f)))  # noqa: E731
        assert acc.distribution().tobytes() == fresh().tobytes()
        # a step by the same alpha, but along outputs the search never saw
        acc.step(h2, alpha)
        assert acc.distribution().tobytes() == fresh().tobytes()


class TestUpdateDistribution:
    def test_one_misclassified_example(self):
        y = np.array([1.0, 1.0, 1.0, 1.0])
        h = np.array([1.0, 1.0, 1.0, -1.0])
        D2, z = update_distribution(uniform_distribution(4), h, y, alpha_binary(0.25))
        np.testing.assert_allclose(D2, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-15)
        assert z == pytest.approx(SQRT3_OVER_2, abs=1e-15)

    def test_alpha_zero_is_identity(self, np_rng):
        D = np_rng.uniform(0.1, 1, size=6)
        D /= D.sum()
        y = np_rng.choice([-1.0, 1.0], size=6)
        h = np_rng.uniform(-1, 1, size=6)
        D2, z = update_distribution(D, h, y, 0.0)
        np.testing.assert_array_equal(D2, D)
        assert z == pytest.approx(1.0, abs=1e-15)

    def test_all_correct_scaling_cancels(self):
        y = np.array([1.0, -1.0, 1.0])
        h = y.copy()
        D = uniform_distribution(3)
        D2, z = update_distribution(D, h, y, 0.7)
        np.testing.assert_allclose(D2, D, atol=1e-15)
        assert z == pytest.approx(math.exp(-0.7), abs=1e-15)

    def test_half_mass_on_misclassified(self, np_rng):
        # after an exact-formula update the wrong set carries weight 1/2
        for _ in range(20):
            m = int(np_rng.integers(3, 30))
            D = np_rng.uniform(0.01, 1, size=m)
            D /= D.sum()
            y = np_rng.choice([-1.0, 1.0], size=m)
            h = np_rng.choice([-1.0, 1.0], size=m)
            if not (np.any(h != y) and np.any(h == y)):
                continue
            eps = float(np.sum(D[h != y]))
            D2, _ = update_distribution(D, h, y, alpha_binary(eps))
            assert float(np.sum(D2[h != y])) == pytest.approx(0.5, abs=1e-12)


class TestWeightSchemes:
    def test_empty_model_uniform(self):
        ds = dataset([[0.0], [1.0], [2.0], [3.0]], [1, -1, 1, -1])
        empty = AdditiveModel((), "logistic")
        np.testing.assert_allclose(logistic_weights(empty, ds), 0.25, atol=1e-15)
        np.testing.assert_allclose(
            oracles.exponential_weights(AdditiveModel((), "exponential"), ds), 0.25, atol=1e-15
        )

    def test_logistic_values_from_score(self):
        # one stump pushing f to ln(3): positive example weight 1/4,
        # negative example weight 3/4 before normalization
        model = AdditiveModel(((LN3, Stump(0, 0.5, 1.0, 1.0)),), "logistic")
        ds = dataset([[0.0], [0.0]], [1.0, -1.0])
        w = logistic_weights(model, ds)
        np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-12)

    def test_exponential_matches_iterative_updates(self, np_rng):
        ds = random_classification(np_rng, 40, 3)
        cfg = binary_config(8)
        model, _ = train(ds, cfg)
        D = uniform_distribution(ds.m)
        partial = []
        for alpha, stump in model.terms:
            partial.append((alpha, stump))
            h = stump.evaluate_matrix(ds.features)
            D, _ = update_distribution(D, h, ds.labels, alpha)
            recomputed = oracles.exponential_weights(
                AdditiveModel(tuple(partial), "exponential"), ds
            )
            np.testing.assert_allclose(recomputed, D, rtol=1e-9, atol=1e-12)

    def test_base_weight_scale_invariance(self, np_rng):
        ds = random_classification(np_rng, 12, 2)
        model, _ = train(ds, binary_config(3))
        w1 = oracles.exponential_weights(model, dataset(ds.features, ds.labels, weights=np.ones(ds.m)))
        w2 = oracles.exponential_weights(model, dataset(ds.features, ds.labels, weights=2.0 * np.ones(ds.m)))
        np.testing.assert_allclose(w1, w2, atol=1e-15)

    def test_logistic_weight_rule_direct_recomputation(self, np_rng):
        ds = random_classification(np_rng, 30, 2)
        cfg = BoostConfig(rounds=5, loss_kind="logistic",
                          stumps=StumpSearchConfig(mode="confidence"))
        model, _ = train(ds, cfg)
        w = logistic_weights(model, ds)
        f = model.score(ds.features)
        direct = 1.0 / (1.0 + np.exp(ds.labels * f))
        direct /= direct.sum()
        np.testing.assert_allclose(w, direct, atol=1e-12)


class TestTrain:
    def test_separable_one_round(self, np_rng):
        ds = stump_separable(np_rng, 50, 2)
        model, stats = train(ds, binary_config(1))
        assert stats[0].train_error == 0.0
        assert model.rounds == 1

    def test_xor_single_round_is_poor(self, np_rng):
        ds = xor_task(np_rng, 100)
        _, stats = train(ds, binary_config(1))
        assert stats[0].train_error >= 0.25

    def test_xor_converges_with_many_rounds(self, np_rng):
        ds = xor_task(np_rng, 60)
        cfg = BoostConfig(rounds=500, loss_kind="exponential",
                          stumps=StumpSearchConfig(mode="confidence"))
        _, stats = train(ds, cfg)
        assert min(s.train_error for s in stats) == 0.0

    def test_exponential_loss_identity(self, np_rng):
        # mean exponential loss of the final score equals the normalizer product
        for _ in range(5):
            ds = random_classification(np_rng, int(np_rng.integers(10, 40)), 2)
            model, stats = train(ds, binary_config(int(np_rng.integers(2, 12))))
            mean_exp = float(np.mean(np.exp(-ds.labels * model.score(ds.features))))
            prod_z = stats[-1].cumulative_bound
            assert mean_exp == pytest.approx(prod_z, rel=1e-9)
            assert stats[-1].train_error <= mean_exp + 1e-12
            # every optimal-alpha z is at most 1, so the product is monotone
            bounds = [s.cumulative_bound for s in stats]
            assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_train_matches_manual_loop(self, np_rng):
        ds = random_classification(np_rng, 25, 2)
        model, stats = train(ds, binary_config(6))
        D = uniform_distribution(ds.m)
        for (alpha, stump), s in zip(model.terms, stats):
            found, search_eps = best_binary_stump(ds, D)
            assert found == stump
            h = stump.evaluate_matrix(ds.features)
            eps = float(np.sum(D[sign_pm1(h) != ds.labels]))
            assert eps == pytest.approx(search_eps, abs=1e-12)
            assert s.epsilon == eps
            assert alpha == alpha_binary(eps)
            D, z = update_distribution(D, h, ds.labels, alpha)
            assert s.z == z

    def test_eval_dataset_errors_recorded(self, np_rng):
        train_ds = stump_separable(np_rng, 40, 2)
        test_ds = stump_separable(np_rng, 20, 2)
        _, stats = train(train_ds, binary_config(3), eval_ds=test_ds)
        assert all(s.test_error is not None for s in stats)
        assert stats[-1].test_error == 0.0

    def test_logistic_objective_non_increasing(self, np_rng):
        for _ in range(5):
            ds = random_classification(np_rng, int(np_rng.integers(12, 30)), 2)
            cfg = BoostConfig(rounds=10, loss_kind="logistic",
                              stumps=StumpSearchConfig(mode="confidence"))
            _, stats = train(ds, cfg)
            losses = [s.loss for s in stats]
            m = ds.m
            assert losses[0] <= m * math.log(2.0) + 1e-9
            for a, b in zip(losses, losses[1:]):
                assert b <= a + 1e-9

    def test_unit_alpha_strategy(self, np_rng):
        ds = random_classification(np_rng, 20, 2)
        cfg = BoostConfig(rounds=4, loss_kind="exponential",
                          stumps=StumpSearchConfig(mode="confidence"),
                          alpha_strategy="unit")
        model, stats = train(ds, cfg)
        assert all(alpha == 1.0 for alpha, _ in model.terms)
        # optimal-by-construction outputs keep every normalizer at most 1
        assert all(s.z <= 1.0 + 1e-12 for s in stats)

    def test_unit_alpha_obeys_the_cap(self):
        # smoothing 1e-300 gives the first stump an output of about 345
        ds = dataset([[0.0], [1.0], [2.0], [3.0]], [1.0, 1.0, -1.0, 1.0])
        cfg = BoostConfig(rounds=2, stumps=StumpSearchConfig(mode="confidence", smoothing=1e-300),
                          alpha_strategy="unit")
        model, stats = train(ds, cfg)
        for alpha, stump in model.terms:
            assert 0.0 < alpha < 1.0
            assert max(abs(alpha * stump.left_output), abs(alpha * stump.right_output)) <= ALPHA_CAP
        assert [s.clamped for s in stats] == [True, True]

    def test_closed_form_requires_binary(self):
        with pytest.raises(UsageError):
            BoostConfig(rounds=1, stumps=StumpSearchConfig(mode="confidence"),
                        alpha_strategy="closed_form_binary")

    def test_regression_labels_rejected(self):
        ds = dataset([[1.0], [2.0]], [0.5, 2.0])
        with pytest.raises(DataError):
            train(ds, binary_config(1))

    def test_regression_eval_labels_rejected(self, np_rng):
        ds = random_classification(np_rng, 10, 1)
        with pytest.raises(DataError, match="eval data requires classification labels"):
            train(ds, binary_config(1), eval_ds=dataset([[1.0], [2.0]], [0.5, 2.0]))

    def test_deterministic(self, np_rng):
        ds = random_classification(np_rng, 30, 3)
        m1, s1 = train(ds, binary_config(7))
        m2, s2 = train(ds, binary_config(7))
        assert m1 == m2
        assert [x.z for x in s1] == [x.z for x in s2]

    @pytest.mark.parametrize("weights, rounds, zero_sum", [
        ([0.0, 1.0, 1.0, 1.0], 60, True),  # the plain sum is 0 from round 42 on
        ([0.0, 1.0, 1.0, 2.0], 21, False),  # at round 21 it is 6.8e-322, a subnormal of 7 bits
    ])
    def test_logistic_surrogate_of_underflowing_terms(self, weights, rounds, zero_sum):
        # the row of base weight 0 is pushed ever further from its label, so
        # its exponent -y*f is the largest and exp(e - max) underflows, or
        # keeps only a few bits, on every row that has weight
        base = np.array(weights)
        ds = dataset([[0.0], [1.0], [2.0], [3.0]], [1.0, -1.0, 1.0, 1.0], weights=base)
        cfg = BoostConfig(rounds=rounds, loss_kind="logistic", stumps=StumpSearchConfig(mode="confidence"))
        model, stats = train(ds, cfg)
        e = -(ds.labels * model.score(ds.features))
        plain = float(np.sum(base * np.exp(e - e.max())))
        assert plain < sys.float_info.min and (plain == 0.0) == zero_sum
        assert all(math.isfinite(s.z) and math.isfinite(s.cumulative_bound) for s in stats)

        def log_surrogate(t):
            # ln of the weighted mean of exp(-y f) after t rounds, over the rows with weight
            e = -(ds.labels[1:] * AdditiveModel(model.terms[:t], "logistic").score(ds.features[1:]))
            return e.max() + math.log(float(np.sum(base[1:] * np.exp(e - e.max()))) / base.sum())

        for t, s in enumerate(stats, start=1):
            z = math.exp(log_surrogate(t) - log_surrogate(t - 1))
            assert s.z == pytest.approx(z, rel=1e-9, abs=0.0)

    def test_separable_clamped_rounds_stay_finite(self, np_rng):
        ds = stump_separable(np_rng, 20, 1)
        model, stats = train(ds, binary_config(5))
        assert all(math.isfinite(s.z) for s in stats)
        assert stats[0].clamped
        assert np.all(np.isfinite(model.score(ds.features)))


class TestSignConvention:
    def test_sign_zero_is_positive(self):
        np.testing.assert_array_equal(sign_pm1(np.array([-0.5, 0.0, 0.5])), [-1.0, 1.0, 1.0])

    def test_error_rate_counts_a_zero_score_as_positive(self):
        f, y = np.array([0.0, -0.0, 0.5, -0.5]), np.array([1.0, 1.0, -1.0, -1.0])
        assert error_rate(f, y) == 0.25
        assert repr(error_rate(f, y)) == repr(float(np.mean(sign_pm1(f) != y)))


class TestMargins:
    def test_single_correct_stump(self):
        model = AdditiveModel(((0.8, Stump(0, 0.0, -1.0, 1.0)),), "exponential")
        ds = dataset([[1.0]], [1.0])
        assert oracles.margins(model, ds)[0] == pytest.approx(1.0, abs=1e-15)

    def test_single_misclassifying_stump(self):
        model = AdditiveModel(((0.8, Stump(0, 0.0, -1.0, 1.0)),), "exponential")
        ds = dataset([[1.0]], [-1.0])
        assert oracles.margins(model, ds)[0] == pytest.approx(-1.0, abs=1e-15)

    def test_disagreeing_stumps_cancel(self):
        # x=1 falls right of the first stump (+1) and left of the second (-1)
        terms = (
            (0.7, Stump(0, 0.0, -1.0, 1.0)),
            (0.7, Stump(0, 2.0, -1.0, 1.0)),
        )
        model = AdditiveModel(terms, "exponential")
        ds = dataset([[1.0]], [1.0])
        assert oracles.margins(model, ds)[0] == 0.0

    def test_zero_total_alpha_rejected(self):
        model = AdditiveModel(((0.0, Stump(0, 0.0, -1.0, 1.0)),), "exponential")
        with pytest.raises(DataError):
            oracles.margins(model, dataset([[1.0]], [1.0]))


class TestBoundReport:
    def test_exponential_bound_value(self, np_rng):
        # ten rounds at edge 0.1 bound the error by exp(-0.2)
        from boostkit.boosting import RoundStats

        stats = []
        prod = 1.0
        for t in range(1, 11):
            eps = 0.4
            z = 2.0 * math.sqrt(eps * (1 - eps))
            prod *= z
            stats.append(RoundStats(t, eps, 0.1, z, prod, 0.0))
        report = bound_report(stats)
        assert report.rows[-1].exp_bound == pytest.approx(0.8187307530779818, abs=1e-12)
        assert report.ok

    def test_zero_edge_all_bounds_one(self):
        from boostkit.boosting import RoundStats

        stats = [RoundStats(t, 0.5, 0.0, 1.0, 1.0, 0.4) for t in range(1, 4)]
        report = bound_report(stats)
        for row in report.rows:
            assert row.prod_z == 1.0
            assert row.prod_sqrt == pytest.approx(1.0, abs=1e-12)
            assert row.exp_bound == 1.0
        assert report.ok

    def test_single_round_quarter_error(self):
        from boostkit.boosting import RoundStats

        z = 2.0 * math.sqrt(0.25 * 0.75)
        report = bound_report([RoundStats(1, 0.25, 0.25, z, z, 0.25)])
        row = report.rows[0]
        assert row.prod_z == pytest.approx(SQRT3_OVER_2, abs=1e-12)
        assert row.exp_bound == pytest.approx(0.8824969025845955, abs=1e-12)
        assert row.prod_z <= row.exp_bound
        assert report.ok

    def test_chain_on_real_runs(self, np_rng):
        for _ in range(5):
            ds = random_classification(np_rng, 30, 2)
            _, stats = train(ds, binary_config(10))
            assert bound_report(stats).ok


class TestStatsCsv:
    def test_columns_and_blank_test_error(self, np_rng):
        ds = random_classification(np_rng, 15, 2)
        _, stats = train(ds, binary_config(3))
        rows = stats_csv_rows(stats)
        assert len(rows) == 3 and len(rows[0]) == 8
        assert rows[0][7] == ""
        assert float(rows[0][1]) == stats[0].epsilon
