import math

import numpy as np
import pytest

from boostkit.boosting import AdditiveModel, BoostConfig, train
from boostkit.errors import DataError
from boostkit.losses import (
    common_minimizer_check,
    log1pexp,
    loss_values,
    prob_positive,
    sigmoid,
    taylor_match_check,
)
from boostkit.stumps import Stump, StumpSearchConfig

import oracles
from oracles import empirical_loss
from conftest import dataset, random_classification

HALF_LN3 = 0.5493061443340549
LN2 = 0.6931471805599453


class TestStableHelpers:
    def test_log1pexp_extremes(self):
        assert log1pexp(800.0) == pytest.approx(800.0, rel=1e-15)
        assert log1pexp(-800.0) == 0.0
        assert log1pexp(0.0) == pytest.approx(LN2, abs=1e-15)

    def test_sigmoid_symmetry(self, np_rng):
        x = np_rng.uniform(-100, 100, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_monotone(self):
        x = np.linspace(-20, 20, 5000)
        assert np.all(np.diff(sigmoid(x)) > 0)


EDGES = (0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0,
         36.0, -36.0, 1.0, -1.0, math.inf, -math.inf, math.nan)


def assert_same_bits(new, old):
    """Bit-identical arrays, where any NaN matches any NaN."""
    nan = np.isnan(old)
    np.testing.assert_array_equal(np.isnan(new), nan)
    np.testing.assert_array_equal(new[~nan].view(np.int64), old[~nan].view(np.int64))


def assert_edges_bit_identical(fn, oracle):
    for v in EDGES:
        new, old = fn(v), oracle(v)
        assert type(new) is float and type(old) is float
        assert repr(new) == repr(old), v
    arr = np.array(EDGES)
    assert_same_bits(fn(arr), oracle(arr))


class TestSigmoidOracle:
    """exp(min(x, 0)) / (1 + exp(-|x|)) gives the bits of the masked two-branch form."""

    def test_edge_values_bit_identical(self):
        assert_edges_bit_identical(sigmoid, oracles.sigmoid)

    def test_random_arrays_bit_identical(self, np_rng):
        for scale in (1e-300, 1e-8, 1e-2, 1.0, 10.0, 40.0, 700.0, 1e3):
            x = np_rng.uniform(-scale, scale, size=5001)
            np.testing.assert_array_equal(sigmoid(x).view(np.int64),
                                          oracles.sigmoid(x).view(np.int64))
            # element by element, and in a 2-D layout
            assert [repr(sigmoid(v)) for v in x[:200]] == [repr(v) for v in oracles.sigmoid(x[:200]).tolist()]
            grid = x[:5000].reshape(50, 100)
            np.testing.assert_array_equal(sigmoid(grid).view(np.int64),
                                          oracles.sigmoid(grid).view(np.int64))

    def test_scalar_in_scalar_out(self):
        assert type(sigmoid(0.5)) is float
        assert type(sigmoid(np.float64(-2.0))) is float
        assert sigmoid(np.array([0.5])).shape == (1,)

    def test_input_not_modified(self):
        x = np.array([-3.0, 0.0, 3.0])
        sigmoid(x)
        np.testing.assert_array_equal(x, [-3.0, 0.0, 3.0])


class TestLog1pexpOracle:
    """log1p(exp(-|x|)) + max(x, 0) gives the bits of the two-branch form."""

    def test_edge_values_bit_identical(self):
        assert_edges_bit_identical(log1pexp, oracles.log1pexp)

    def test_random_sign_arrays_bit_identical(self, np_rng):
        for m in (300, 5000, 100_000):
            for scale in (1e-300, 1e-8, 1.0, 40.0, 800.0):
                x = np_rng.uniform(0.0, scale, size=m) * np_rng.choice([-1.0, 1.0], size=m)
                assert_same_bits(log1pexp(x), oracles.log1pexp(x))


class TestProbPositive:
    def test_zero_score_is_half(self):
        for kind in ("exponential", "logistic"):
            assert prob_positive(0.0, kind) == 0.5

    def test_two_sided_link_value(self):
        # score half-log-odds of 3:1 gives probability 3/4
        assert prob_positive(HALF_LN3, "exponential") == pytest.approx(0.75, abs=1e-12)

    def test_margin_loss_names_rejected(self):
        # links are named by training loss only; logistic2 is a margin loss,
        # and the logistic loss has the one name
        for kind in ("logistic2", "logistic1"):
            with pytest.raises(DataError, match="unknown loss kind"):
                prob_positive(0.0, kind)
        with pytest.raises(DataError, match="unknown loss kind"):
            loss_values(0.0, "logistic1")
        assert loss_values(0.0, "logistic") == LN2

    def test_one_sided_link_value(self):
        assert prob_positive(math.log(3.0), "logistic") == pytest.approx(0.75, abs=1e-12)

    def test_saturation(self):
        assert prob_positive(50.0, "exponential") == pytest.approx(1.0, abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            prob_positive(math.inf, "logistic")

    def test_increasing_and_complementary(self, np_rng):
        f = np.sort(np_rng.uniform(-30, 30, size=500))
        for kind in ("exponential", "logistic"):
            p = prob_positive(f, kind)
            assert np.all(np.diff(p) >= 0)
            np.testing.assert_allclose(p + prob_positive(-f, kind), 1.0, atol=1e-12)


class TestEmpiricalLoss:
    def test_zero_score_exponential(self):
        model = AdditiveModel((), "exponential")
        ds = dataset([[0.0]] * 5, [1, -1, 1, -1, 1])
        assert empirical_loss(model, ds, "exponential") == pytest.approx(5.0, abs=1e-12)

    def test_zero_score_logistic2(self):
        model = AdditiveModel((), "exponential")
        ds = dataset([[0.0]] * 4, [1, -1, 1, -1])
        assert empirical_loss(model, ds, "logistic2") == pytest.approx(4 * LN2, abs=1e-12)

    def test_logistic2_never_exceeds_exponential(self, np_rng):
        ds = random_classification(np_rng, 30, 2)
        model, _ = train(ds, BoostConfig(rounds=5, stumps=StumpSearchConfig(mode="binary")))
        assert empirical_loss(model, ds, "logistic2") <= empirical_loss(model, ds, "exponential")

    def test_grid_inequality(self):
        z = np.arange(-30.0, 30.0, 1e-3)
        assert np.all(loss_values(z, "logistic2") <= loss_values(z, "exponential") + 1e-15)

    def test_ties_to_normalizer_product(self, np_rng):
        ds = random_classification(np_rng, 25, 2)
        model, stats = train(ds, BoostConfig(rounds=6, stumps=StumpSearchConfig(mode="binary")))
        mean_loss = empirical_loss(model, ds, "exponential") / ds.m
        assert mean_loss == pytest.approx(stats[-1].cumulative_bound, rel=1e-9)


class TestTaylorMatch:
    def test_report_passes(self):
        report = taylor_match_check()
        assert report.passed, "\n".join(report.lines())

    def test_values_and_derivatives(self):
        report = taylor_match_check()
        by_name = {item.name: item for item in report.items}
        assert by_name["value_at_zero_shifted_logistic"].measured == pytest.approx(1.0, abs=1e-12)
        assert by_name["first_derivative_at_zero_shifted_logistic"].measured == pytest.approx(-1.0, abs=1e-5)
        assert by_name["second_derivative_at_zero_shifted_logistic"].measured == pytest.approx(1.0, abs=1e-5)
        assert by_name["cubic_remainder_ratio_bounded"].measured <= 0.25


class TestCommonMinimizer:
    def test_symmetric_probability(self):
        report = common_minimizer_check([0.5])
        for item in report.items:
            assert item.measured == pytest.approx(0.0, abs=1e-6)

    def test_known_log_odds(self):
        report = common_minimizer_check([0.75, 0.9])
        by_name = {item.name: item for item in report.items}
        assert by_name["exponential_minimizer_p=0.75"].measured == pytest.approx(HALF_LN3, abs=1e-6)
        assert by_name["logistic_minimizer_p=0.9"].measured == pytest.approx(math.log(3.0), abs=1e-6)
        assert report.passed

    def test_probability_grid(self):
        assert common_minimizer_check(np.arange(0.1, 0.95, 0.1)).passed

    def test_degenerate_probability_rejected(self):
        for bad in (0.0, 1.0):
            with pytest.raises(DataError):
                common_minimizer_check([bad])


class TestLinkBinding:
    def test_model_link_follows_loss(self):
        assert AdditiveModel((), "exponential").link == "sigmoid2f"
        assert AdditiveModel((), "logistic").link == "sigmoidf"

    def test_score_one_matches_matrix(self):
        model = AdditiveModel(((0.5, Stump(0, 0.0, -1.0, 1.0)),), "exponential")
        x = np.array([2.0])
        assert model.score_one(x) == model.score(x[None, :])[0]
