import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boostkit.active as active_mod
import oracles
from boostkit.active import ActiveConfig, Pool, select_queries, simulate
from boostkit.boosting import BoostConfig
from boostkit.errors import DataError, UsageError
from boostkit.stumps import StumpSearchConfig

from conftest import dataset, stump_separable


class FixedScoreModel:
    """Stand-in model with prescribed scores, for selection tests."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def score(self, X):
        return self.scores[: X.shape[0]] if X.shape[0] != self.scores.shape[0] else self.scores


def make_pool(scores, labels=None):
    m = len(scores)
    X = np.arange(m, dtype=float)[:, None]
    y = labels if labels is not None else np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    return Pool(dataset(X, y))


def boost_cfg(rounds=10):
    return BoostConfig(rounds=rounds, loss_kind="exponential",
                       stumps=StumpSearchConfig(mode="confidence"))


class FullPoolScorer:
    def __init__(self, by_row):
        self.by_row = np.asarray(by_row, dtype=np.float64)

    def score(self, X):
        # rows are identified by their single feature value
        return self.by_row[X[:, 0].astype(int)]


class TestSelectQueries:
    def test_smallest_magnitude_wins(self):
        pool = make_pool([3.0, 0.1, 2.0])
        model = FullPoolScorer([3.0, 0.1, 2.0])
        assert select_queries(model, pool, 1) == [1]

    def test_tie_break_by_index(self):
        pool = make_pool([0.5, 0.5])
        model = FullPoolScorer([0.5, -0.5])
        assert select_queries(model, pool, 1) == [0]

    def test_untrained_model_takes_lowest_indices(self):
        pool = make_pool([0.0, 0.0, 0.0])
        model = FullPoolScorer([0.0, 0.0, 0.0])
        assert select_queries(model, pool, 2) == [0, 1]

    def test_excludes_labeled(self):
        pool = make_pool([0.1, 0.2, 0.3])
        pool.acquire([0])
        model = FullPoolScorer([0.1, 0.2, 0.3])
        assert select_queries(model, pool, 1) == [1]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_two_key_sort_oracle(self, data):
        # few distinct |f| values, of both signs and both zeros: many ties
        m = data.draw(st.integers(1, 40))
        scores = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0]),
                                    min_size=m, max_size=m))
        pool = make_pool(scores)
        pool.acquire(data.draw(st.lists(st.integers(0, m - 1), max_size=m - 1, unique=True)))
        k = data.draw(st.integers(1, m))
        model = FullPoolScorer(scores)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k above the unlabeled count
            assert select_queries(model, pool, k) == oracles.select_queries(model, pool, k)

    def test_fewer_than_k_returns_all_with_warning(self):
        pool = make_pool([0.1, 0.2])
        pool.acquire([0])
        model = FullPoolScorer([0.1, 0.2])
        with pytest.warns(UserWarning, match="returning all"):
            assert select_queries(model, pool, 5) == [1]


class TestPool:
    def test_no_duplicate_acquisition(self):
        pool = make_pool([0.0, 1.0])
        pool.acquire([1])
        with pytest.raises(DataError, match="already labeled"):
            pool.acquire([1])

    def test_labeled_dataset_only_exposes_acquired(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        pool = make_pool([0.0, 1.0, 2.0, 3.0], labels=y)
        pool.acquire([2, 0])
        sub = pool.labeled_dataset()
        np.testing.assert_array_equal(sub.features[:, 0], [2.0, 0.0])
        np.testing.assert_array_equal(sub.labels, [1.0, 1.0])
        assert pool.budget_used == 2

    def test_unlabeled_ids_ascending(self):
        pool = make_pool([0.0, 1.0, 2.0, 3.0])
        pool.acquire([2])
        np.testing.assert_array_equal(pool.unlabeled_ids(), [0, 1, 3])


class TestSimulate:
    def small_task(self, np_rng, m=300):
        ds = stump_separable(np_rng, m, 2)
        test = stump_separable(np_rng, 120, 2)
        return ds, test

    def config(self, strategy, seed=0, iterations=3):
        return ActiveConfig(boost=boost_cfg(5), init_batch=30, batch=10,
                            iterations=iterations, strategy=strategy, seed=seed)

    def test_paired_iteration_zero(self, np_rng):
        ds, test = self.small_task(np_rng)
        a = simulate(ds, test, self.config("uncertainty", seed=5))
        b = simulate(ds, test, self.config("random", seed=5))
        assert a.acquisitions[0] == b.acquisitions[0]
        assert a.points[0].test_error == b.points[0].test_error
        assert a.points[0].labels_used == b.points[0].labels_used

    def test_acquisitions_match_selection_oracle(self, np_rng):
        from boostkit.boosting import train

        ds, test = self.small_task(np_rng)
        cfg = self.config("uncertainty", seed=3)
        result = simulate(ds, test, cfg)
        # replay: retrain on each prefix and sort |f| over the remaining pool
        pool = Pool(ds)
        pool.acquire(result.acquisitions[0])
        for step in result.acquisitions[1:]:
            model, _ = train(pool.labeled_dataset(), cfg.boost)
            unlabeled = pool.unlabeled_ids()
            conf = np.abs(model.score(ds.features[unlabeled]))
            order = np.lexsort((unlabeled, conf))
            expected = [int(i) for i in unlabeled[order[: cfg.batch]]]
            assert step == expected
            pool.acquire(step)

    def test_reproducible(self, np_rng):
        ds, test = self.small_task(np_rng)
        a = simulate(ds, test, self.config("random", seed=9))
        b = simulate(ds, test, self.config("random", seed=9))
        assert a.points == b.points
        assert a.acquisitions == b.acquisitions

    def test_point_counts(self, np_rng):
        ds, test = self.small_task(np_rng)
        result = simulate(ds, test, self.config("uncertainty", iterations=4))
        assert len(result.points) == 5
        assert [p.iteration for p in result.points] == list(range(5))
        assert [p.labels_used for p in result.points] == [30, 40, 50, 60, 70]

    def test_budget_exhaustion_truncates(self, np_rng):
        ds, test = self.small_task(np_rng, m=45)
        cfg = ActiveConfig(boost=boost_cfg(3), init_batch=30, batch=10,
                           iterations=5, strategy="random", seed=1)
        result = simulate(ds, test, cfg)
        assert result.truncated
        assert result.points[-1].labels_used == 45

    def test_uncertainty_exhaustion_warning_is_shown(self, np_rng):
        # 45 rows: 30 initial, one batch of 10, then only 5 remain
        ds, test = self.small_task(np_rng, m=45)
        cfg = ActiveConfig(boost=boost_cfg(3), init_batch=30, batch=10,
                           iterations=5, strategy="uncertainty", seed=1)
        with pytest.warns(UserWarning, match="^only 5 unlabeled examples remain; returning all$"):
            result = simulate(ds, test, cfg)
        assert result.truncated
        assert result.points[-1].labels_used == 45

    def test_no_label_leakage(self, np_rng, monkeypatch):
        # every training call must receive exactly the acquired rows
        ds, test = self.small_task(np_rng)
        seen = []
        real_train = active_mod.train

        def spy(sub_ds, cfg, *args, **kwargs):
            seen.append(sub_ds)
            return real_train(sub_ds, cfg, *args, **kwargs)

        monkeypatch.setattr(active_mod, "train", spy)
        cfg = self.config("uncertainty", seed=2)
        result = simulate(ds, test, cfg)
        assert len(seen) == len(result.acquisitions) == cfg.iterations + 1
        acquired = []
        for step, sub in zip(result.acquisitions, seen):
            acquired.extend(step)
            np.testing.assert_array_equal(sub.features, ds.features[acquired])
            np.testing.assert_array_equal(sub.labels, ds.labels[acquired])

    def test_pool_smaller_than_init_rejected(self, np_rng):
        ds, test = self.small_task(np_rng, m=50)
        cfg = ActiveConfig(boost=boost_cfg(2), init_batch=100, batch=10,
                           iterations=1, strategy="random", seed=0)
        with pytest.raises(DataError):
            simulate(ds, test, cfg)

    def test_bad_strategy_rejected(self):
        with pytest.raises(UsageError):
            ActiveConfig(boost=boost_cfg(2), strategy="magic")
