import math

import numpy as np
import pytest

import oracles
from boostkit.boosting import AdditiveModel, BoostConfig
from boostkit.density import (
    BinDistribution,
    Breakpoints,
    ConditionalDensityModel,
    choose_breakpoints,
    conditional_distribution,
    conditional_distributions,
    distribution_from_scores,
    quantile,
    quantiles,
    sample,
    sample_rows,
    survival_probabilities,
    train_cde,
)
from boostkit.errors import DataError, UsageError
from boostkit.rng import RngState
from boostkit.stumps import Stump, StumpSearchConfig

from conftest import dataset


def logistic_cfg(rounds, stumps="confidence"):
    return BoostConfig(rounds=rounds, loss_kind="logistic",
                       stumps=StumpSearchConfig(mode=stumps))


def constant_model(score: float) -> AdditiveModel:
    return AdditiveModel(((1.0, Stump(0, 0.0, score, score)),), "logistic")


def injected_model(survival, edges_lo, edges_hi, breaks) -> ConditionalDensityModel:
    """Density model whose classifiers output fixed survival logits."""
    bps = Breakpoints(np.asarray(breaks, dtype=float), edges_lo, edges_hi)
    classifiers = tuple(constant_model(math.log(q / (1.0 - q))) for q in survival)
    return ConditionalDensityModel(bps, classifiers, (True,) * len(survival))


class TestChooseBreakpoints:
    def test_median_midpoint(self):
        bps = choose_breakpoints(np.array([1.0, 2.0, 3.0, 4.0]), 1)
        np.testing.assert_array_equal(bps.values, [2.5])
        assert (bps.support_lo, bps.support_hi) == (1.0, 4.0)

    def test_uniform_quartiles(self):
        bps = choose_breakpoints(np.arange(100, dtype=float), 3)
        np.testing.assert_allclose(bps.values, [25.0, 50.0, 75.0], atol=1.0)

    def test_duplicates_reduce_k_with_warning(self):
        # all three quartiles of this heavily-repeated sample collapse to 0
        labels = np.concatenate([np.zeros(90), np.arange(1.0, 11.0)])
        with pytest.warns(UserWarning, match="reduced breakpoints"):
            bps = choose_breakpoints(labels, 3)
        assert bps.k == 1
        np.testing.assert_array_equal(bps.values, [0.0])

    def test_constant_labels_rejected(self):
        with pytest.raises(DataError, match="degenerate label range"):
            choose_breakpoints(np.ones(10), 1)

    def test_k_bounds(self):
        labels = np.array([1.0, 2.0, 3.0])
        for bad in (0, 3, 10):
            with pytest.raises(DataError):
                choose_breakpoints(labels, bad)


class TestDistributionFromScores:
    def test_two_bins(self):
        bps = Breakpoints(np.array([5.0]), 0.0, 10.0)
        dist = distribution_from_scores(np.array([0.3]), bps)
        np.testing.assert_allclose(dist.masses, [0.7, 0.3], atol=1e-12)

    def test_non_monotone_clamped(self):
        bps = Breakpoints(np.array([3.0, 6.0]), 0.0, 9.0)
        dist = distribution_from_scores(np.array([0.4, 0.6]), bps)
        np.testing.assert_allclose(dist.masses, [0.6, 0.0, 0.4], atol=1e-12)

    def test_all_half(self):
        bps = Breakpoints(np.array([1.0, 2.0, 3.0]), 0.0, 4.0)
        dist = distribution_from_scores(np.full(3, 0.5), bps)
        np.testing.assert_allclose(dist.masses, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_fuzz_always_a_distribution(self, np_rng):
        bps = Breakpoints(np.array([1.0, 2.0, 3.0, 4.0]), 0.0, 5.0)
        for _ in range(2000):
            q = np_rng.uniform(-0.5, 1.5, size=4)  # deliberately out of range
            dist = distribution_from_scores(q, bps)
            assert np.all(dist.masses >= 0.0)
            assert abs(float(dist.masses.sum()) - 1.0) <= 1e-9


class TestTrainCde:
    def test_threshold_determined_labels(self, np_rng):
        X = np_rng.uniform(-1, 1, size=(300, 1))
        y = np.where(X[:, 0] > 0.0, 5.0, 1.0) + np_rng.uniform(-0.1, 0.1, size=300)
        model = train_cde(dataset(X, y), 1, logistic_cfg(30))
        q = survival_probabilities(model, np.array([[-0.5], [0.5]]))
        assert q[0, 0] < 0.05
        assert q[1, 0] > 0.95

    def test_coin_labels_calibrate(self, np_rng):
        # labels independent of x: each survival estimate must match the
        # empirical exceedance rate of its breakpoint; the level-0.7
        # breakpoint has true survival 0.3
        m = 5000
        X = np_rng.uniform(-1, 1, size=(m, 2))
        y = np_rng.uniform(0, 1, size=m)
        ds = dataset(X, y)
        k = 9
        model = train_cde(ds, k, logistic_cfg(40))
        grid = np_rng.uniform(-1, 1, size=(200, 2))
        q = survival_probabilities(model, grid).mean(axis=0)
        truth = np.array([np.mean(y >= b) for b in model.breakpoints.values])
        assert truth[6] == pytest.approx(0.3, abs=0.02)
        assert np.max(np.abs(q - truth)) <= 0.03

    def test_nested_events_monotone_truth(self, np_rng):
        m = 2000
        X = np_rng.uniform(-1, 1, size=(m, 1))
        y = X[:, 0] + np_rng.normal(scale=0.3, size=m)
        model = train_cde(dataset(X, y), 2, logistic_cfg(40))
        grid = np_rng.uniform(-1, 1, size=(100, 1))
        q = survival_probabilities(model, grid)
        assert np.all(q[:, 0] >= q[:, 1] - 1e-12)

    def test_single_class_breakpoint_constant_flag(self, np_rng):
        # first quantile collides with the minimum label value
        X = np_rng.uniform(-1, 1, size=(40, 1))
        y = np.concatenate([np.zeros(30), np.ones(10)])
        model = train_cde(dataset(X, y), 1, logistic_cfg(5))
        assert model.constant_flags == (True,)
        q = survival_probabilities(model, X)[:, 0]
        assert np.all((q > 0.0) & (q < 1.0))
        assert np.allclose(q, q[0])

    def test_classification_labels_rejected(self, np_rng):
        X = np_rng.uniform(-1, 1, size=(10, 1))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        with pytest.raises(DataError):
            train_cde(dataset(X, y), 1, logistic_cfg(2))

    def test_exponential_loss_rejected(self, np_rng):
        X = np_rng.uniform(-1, 1, size=(10, 1))
        with pytest.raises(UsageError):
            train_cde(dataset(X, X[:, 0]), 1, BoostConfig(rounds=2, loss_kind="exponential"))

    def test_deterministic(self, np_rng):
        X = np_rng.uniform(-1, 1, size=(100, 2))
        y = X[:, 0] * 3.0 + np_rng.normal(scale=0.2, size=100)
        ds = dataset(X, y)
        a = train_cde(ds, 3, logistic_cfg(10))
        b = train_cde(ds, 3, logistic_cfg(10))
        assert a.classifiers == b.classifiers


class TestOracleEquivalence:
    def test_true_cdf_recovers_masses(self):
        survival = [0.75, 0.5, 0.25]
        model = injected_model(survival, 0.0, 4.0, [1.0, 2.0, 3.0])
        dist = conditional_distribution(model, np.array([0.0]))
        np.testing.assert_allclose(dist.masses, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


class TestSample:
    def test_point_mass_stays_in_first_bin(self):
        model = injected_model([1e-9], 0.0, 10.0, [4.0])
        rng = RngState(1)
        draws = [sample(model, np.array([0.0]), rng) for _ in range(200)]
        assert all(0.0 <= v < 4.0 for v in draws)

    def test_frequencies_match_masses(self):
        model = injected_model([0.3], 0.0, 10.0, [4.0])
        rng = RngState(7)
        draws = np.array([sample(model, np.array([0.0]), rng) for _ in range(10000)])
        first_bin = float(np.mean(draws < 4.0))
        assert abs(first_bin - 0.7) <= 0.02

    def test_same_seed_same_stream(self):
        model = injected_model([0.4, 0.2], 0.0, 6.0, [2.0, 4.0])
        a = [sample(model, np.array([0.0]), RngState(3, counter=i * 2)) for i in range(50)]
        rng = RngState(3)
        b = [sample(model, np.array([0.0]), rng) for _ in range(50)]
        assert a == b

    def test_support_bounds(self, np_rng):
        model = injected_model([0.9, 0.5, 0.1], -2.0, 3.0, [-1.0, 0.5, 2.0])
        rng = RngState(11)
        for _ in range(500):
            v = sample(model, np.array([0.0]), rng)
            assert -2.0 <= v <= 3.0


class TestQuantile:
    def quantile_model(self):
        # masses 0.5/0.5 over [0,1) and [1,2]
        return injected_model([0.5], 0.0, 2.0, [1.0])

    def test_median(self):
        assert quantile(self.quantile_model(), np.array([0.0]), 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_lower_quartile(self):
        assert quantile(self.quantile_model(), np.array([0.0]), 0.25) == pytest.approx(0.5, abs=1e-9)

    def test_extreme_level_stays_in_support(self):
        assert quantile(self.quantile_model(), np.array([0.0]), 0.999) <= 2.0

    def test_monotone_in_level(self, np_rng):
        model = injected_model([0.8, 0.5, 0.2], 0.0, 8.0, [2.0, 4.0, 6.0])
        levels = np.sort(np_rng.uniform(0.001, 0.999, size=200))
        values = [quantile(model, np.array([0.0]), lv) for lv in levels]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_level_bounds_rejected(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DataError):
                quantile(self.quantile_model(), np.array([0.0]), bad)


def _bits(values):
    return [repr(float(v)) for v in np.ravel(values)]


class TestRowBatchedQueries:
    """Scoring every row once gives the bits of the old per-row, per-draw loop."""

    @pytest.fixture(scope="class", params=[3, 12])
    def trained(self, request):
        # k=12 gives 13 bins, past the 8 elements where numpy's sum unrolls
        rng = np.random.default_rng(request.param)
        X = rng.uniform(-1, 1, size=(300, 2))
        y = X[:, 0] + (0.1 + 0.5 * np.abs(X[:, 1])) * rng.normal(size=300)
        model = train_cde(dataset(X, y), request.param, logistic_cfg(12))
        return model, rng.uniform(-1.2, 1.2, size=(25, 2))

    def test_masses_match_single_row_formula(self, trained):
        model, X = trained
        batch = conditional_distributions(model, X).masses
        assert batch.shape == (X.shape[0], model.k + 1)
        for i, x in enumerate(X):
            assert _bits(batch[i]) == _bits(oracles.conditional_masses(model, x))
            assert _bits(conditional_distribution(model, x).masses) == _bits(batch[i])

    def test_samples_match_per_draw_loop(self, trained):
        model, X = trained
        n = 4
        rng = RngState(17)
        values = sample_rows(model, X, n, rng)
        assert values.shape == (X.shape[0], n)
        assert rng.counter == 2 * X.shape[0] * n
        ref = RngState(17)
        expected = [oracles.sample(model, x, ref) for x in X for _ in range(n)]
        assert _bits(values) == _bits(expected)

    def test_single_draw_matches_oracle_and_stream(self, trained):
        model, X = trained
        rng, ref = RngState(5, counter=9), RngState(5, counter=9)
        for x in X[:10]:
            assert repr(sample(model, x, rng)) == repr(oracles.sample(model, x, ref))
        assert rng.counter == ref.counter == 9 + 2 * 10

    def test_quantiles_match_per_row_loop(self, trained):
        model, X = trained
        for level in (1e-9, 0.05, 0.25, 0.5, 0.9, 0.999999):
            values = quantiles(model, X, level)
            expected = [oracles.quantile(model, x, level) for x in X]
            assert _bits(values) == _bits(expected)
            assert repr(quantile(model, X[0], level)) == repr(expected[0])

    def test_zero_mass_bins(self):
        # non-monotone survival leaves an empty middle bin
        model = injected_model([0.4, 0.6], 0.0, 9.0, [3.0, 6.0])
        X = np.zeros((3, 1))
        for level in (0.3, 0.6, 0.61, 0.9):
            assert _bits(quantiles(model, X, level)) == _bits(
                [oracles.quantile(model, x, level) for x in X])
        rng, ref = RngState(2), RngState(2)
        assert _bits(sample_rows(model, X, 50, rng)) == _bits(
            [oracles.sample(model, x, ref) for x in X for _ in range(50)])

    def test_bad_level_and_features_rejected(self, trained):
        model, X = trained
        with pytest.raises(DataError, match="level"):
            quantiles(model, X, 1.0)
        with pytest.raises(DataError):
            sample_rows(model, X[:, :0], 1, RngState(0))

    def test_every_row_validated(self):
        bps = Breakpoints(np.array([1.0, 2.0]), 0.0, 3.0)
        good = distribution_from_scores(np.array([[0.9, 0.1], [0.2, 0.7]]), bps)
        np.testing.assert_allclose(good.masses.sum(axis=1), 1.0, atol=1e-12)
        with pytest.raises(DataError, match="sum to 1"):
            BinDistribution(np.array([[0.5, 0.25, 0.25], [0.5, 0.25, 0.2]]), bps.edges)
        with pytest.raises(DataError, match="nonnegative"):
            BinDistribution(np.array([[0.5, 0.25, 0.25], [1.1, -0.1, 0.0]]), bps.edges)
        with pytest.raises(DataError, match="survival estimates"):
            distribution_from_scores(np.zeros((2, 3)), bps)


class TestBinDistributionInvariants:
    def test_negative_mass_rejected(self):
        with pytest.raises(DataError):
            BinDistribution(np.array([-0.1, 1.1]), np.array([0.0, 1.0, 2.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(DataError):
            BinDistribution(np.array([0.5, 0.4]), np.array([0.0, 1.0, 2.0]))
