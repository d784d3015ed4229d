import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostkit.data import normalized
from boostkit import stumps
from boostkit.errors import DataError
from boostkit.stumps import (
    Stump,
    StumpSearchConfig,
    StumpSearchSpace,
    _best_binary,
    _best_confidence,
    confidence_output,
)

import oracles
from oracles import best_binary_stump, best_confidence_stump
from conftest import Pinned, dataset

HALF_LN3 = 0.5493061443340549


def column(values):
    return np.asarray(values, dtype=np.float64)[:, None]


def all_candidate_stumps(X):
    """Every (feature, threshold) the search is allowed to consider."""
    out = []
    for j in range(X.shape[1]):
        v = np.unique(X[:, j])
        thresholds = [v[0] - 1.0] + [(a + b) / 2.0 for a, b in zip(v[:-1], v[1:])]
        out.extend((j, t) for t in thresholds)
    return out


def brute_force_best_error(X, y, D):
    """Exhaustive minimum weighted error over the candidate grid."""
    best = math.inf
    for j, t in all_candidate_stumps(X):
        for left, right in ((-1.0, 1.0), (1.0, -1.0)):
            pred = np.where(X[:, j] <= t, left, right)
            best = min(best, float(np.sum(D[pred != y])))
    return best


class TestEvaluate:
    def test_left_side(self):
        s = Stump(0, 2.5, -1.0, 1.0)
        assert oracles.evaluate(s, np.array([1.0])) == -1.0

    def test_right_side(self):
        s = Stump(0, 2.5, -1.0, 1.0)
        assert oracles.evaluate(s, np.array([3.0])) == 1.0

    def test_boundary_goes_left(self):
        s = Stump(0, 2.5, -0.8, 1.2)
        assert oracles.evaluate(s, np.array([2.5])) == -0.8

    def test_index_out_of_range(self):
        with pytest.raises(DataError):
            oracles.evaluate(Stump(2, 0.0, -1.0, 1.0), np.array([1.0]))

    def test_matrix_matches_scalar(self, np_rng):
        s = Stump(1, 0.3, -0.5, 2.0)
        X = np_rng.uniform(-1, 1, size=(20, 3))
        np.testing.assert_array_equal(
            s.evaluate_matrix(X), [oracles.evaluate(s, x) for x in X]
        )

    def test_nonfinite_outputs_rejected(self):
        with pytest.raises(DataError):
            Stump(0, 0.0, math.inf, 1.0)


class TestBestBinaryStump:
    def test_separable(self):
        ds = dataset(column([1, 2, 3, 4]), [-1, -1, 1, 1])
        stump, eps = best_binary_stump(ds, normalized(np.ones(4)))
        assert eps == 0.0
        assert (stump.threshold, stump.left_output, stump.right_output) == (2.5, -1.0, 1.0)

    def test_one_mistake_epsilon(self):
        # exhaustive enumeration says the best candidate misses one point
        ds = dataset(column([1, 2, 3, 4]), [1, -1, 1, 1])
        D = normalized(np.ones(4))
        stump, eps = best_binary_stump(ds, D)
        assert eps == pytest.approx(0.25, abs=1e-12)
        assert eps == pytest.approx(brute_force_best_error(ds.features, ds.labels, D), abs=1e-12)

    def test_concentrated_weights_make_it_separable(self):
        ds = dataset(column([1, 2, 3, 4]), [1, -1, 1, 1])
        D = np.array([1.0, 0.0, 0.0, 0.0])
        _, eps = best_binary_stump(ds, D)
        assert eps == 0.0

    def test_regression_labels_rejected(self):
        ds = dataset(column([1, 2]), [0.5, 1.5])
        with pytest.raises(DataError):
            best_binary_stump(ds, normalized(np.ones(2)))

    def test_matches_brute_force_on_random_data(self, np_rng):
        for _ in range(30):
            m = int(np_rng.integers(2, 15))
            d = int(np_rng.integers(1, 4))
            X = np_rng.uniform(-1, 1, size=(m, d))
            y = np_rng.choice([-1.0, 1.0], size=m)
            D = np_rng.uniform(0.01, 1.0, size=m)
            D /= D.sum()
            ds = dataset(X, y)
            stump, eps = best_binary_stump(ds, D)
            oracle = brute_force_best_error(X, y, D)
            assert eps <= oracle + 1e-12
            assert eps == pytest.approx(oracle, abs=1e-9)
            # the returned stump achieves its own epsilon
            pred = stump.evaluate_matrix(X)
            assert float(np.sum(D[pred != y])) == pytest.approx(eps, abs=1e-12)
            assert eps <= 0.5 + 1e-12

    def test_tie_break_prefers_lowest_feature(self, np_rng):
        X = np_rng.uniform(-1, 1, size=(8, 1))
        y = np_rng.choice([-1.0, 1.0], size=8)
        doubled = dataset(np.hstack([X, X]), y)
        stump, _ = best_binary_stump(doubled, normalized(np.ones(8)))
        assert stump.feature_index == 0

    def test_row_order_irrelevant(self, np_rng):
        X = np_rng.uniform(-1, 1, size=(12, 2))  # continuous => distinct values
        y = np_rng.choice([-1.0, 1.0], size=12)
        D = normalized(np.ones(12))
        base, base_eps = best_binary_stump(dataset(X, y), D)
        perm = np_rng.permutation(12)
        shuf, shuf_eps = best_binary_stump(dataset(X[perm], y[perm]), D)
        assert base == shuf
        assert base_eps == shuf_eps


class TestConfidenceOutputs:
    def test_balanced_side_is_zero(self):
        assert confidence_output(0.4, 0.4, 0.0) == 0.0

    def test_three_to_one_odds(self):
        assert confidence_output(0.75, 0.25, 0.0) == pytest.approx(HALF_LN3, abs=1e-15)

    def test_smoothing_caps_pure_side(self):
        s = 0.05
        assert confidence_output(0.6, 0.0, s) == pytest.approx(0.5 * math.log((0.6 + s) / s), abs=1e-15)

    def test_zero_smoothing_pure_side_errors(self):
        with pytest.raises(DataError):
            confidence_output(0.6, 0.0, 0.0)

    def test_a_quotient_rounding_to_zero_gives_the_difference_of_logs(self):
        # 5e-324 / 2.0 rounds to 0.0, whose log does not exist
        out = confidence_output(5e-324, 2.0, 0.0)
        assert out == 0.5 * (math.log(5e-324) - math.log(2.0))
        assert math.isfinite(out) and out < 0.0

    def test_an_overflowing_quotient_gives_the_difference_of_logs(self):
        # (1/3) / 3.3e-321 overflows to inf
        out = confidence_output(1.0 / 3.0, 3.3e-321, 0.0)
        assert out == 0.5 * (math.log(1.0 / 3.0) - math.log(3.3e-321))
        assert math.isfinite(out) and out > 0.0


class TestBestConfidenceStump:
    def test_balanced_partition_outputs_zero(self):
        # both sides of the best split hold equal positive/negative mass
        X = column([1, 1, 2, 2])
        ds = dataset(X, [1, -1, 1, -1])
        stump = best_confidence_stump(ds, normalized(np.ones(4)), smoothing=0.0)
        assert stump.left_output == 0.0 and stump.right_output == 0.0

    def test_separable_with_smoothing(self):
        ds = dataset(column([1, 2, 3, 4]), [-1, -1, 1, 1])
        stump = best_confidence_stump(ds, normalized(np.ones(4)), smoothing=0.125)
        assert stump.threshold == 2.5
        expected = 0.5 * math.log(0.125 / 0.625)
        assert stump.left_output == pytest.approx(expected, abs=1e-15)
        assert stump.right_output == pytest.approx(-expected, abs=1e-15)

    def test_zero_smoothing_on_separable_data_errors(self):
        ds = dataset(column([1, 2, 3, 4]), [-1, -1, 1, 1])
        with pytest.raises(DataError, match="smoothing"):
            best_confidence_stump(ds, normalized(np.ones(4)), smoothing=0.0)

    def test_default_smoothing_is_half_per_example(self):
        assert StumpSearchConfig(mode="confidence").resolve_smoothing(10) == 0.05

    @pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf])
    def test_smoothing_must_be_finite_and_nonnegative(self, smoothing):
        ds = dataset(column([1, 2, 3, 4]), [-1, -1, 1, 1])
        with pytest.raises(DataError, match="smoothing must be finite and nonnegative"):
            best_confidence_stump(ds, normalized(np.ones(4)), smoothing=smoothing)

    def test_surrogates_overflowing_to_inf_tie(self):
        # (W + s)^2 overflows at s = 1e306: the first candidate wins the tie,
        # with outputs log((W+ + s)/(W- + s))/2 = 0
        ds = dataset(np.column_stack([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]]), [-1, -1, 1, 1])
        stump = best_confidence_stump(ds, normalized(np.ones(4)), smoothing=1e306)
        assert stump == Stump(0, 0.0, 0.0, 0.0)

    def test_label_flip_negates_outputs(self, np_rng):
        for _ in range(20):
            m = int(np_rng.integers(3, 20))
            X = np_rng.uniform(-1, 1, size=(m, 2))
            y = np_rng.choice([-1.0, 1.0], size=m)
            D = np_rng.uniform(0.01, 1.0, size=m)
            D /= D.sum()
            a = best_confidence_stump(dataset(X, y), D)
            b = best_confidence_stump(dataset(X, -y), D)
            assert (a.feature_index, a.threshold) == (b.feature_index, b.threshold)
            assert a.left_output == pytest.approx(-b.left_output, abs=1e-12)
            assert a.right_output == pytest.approx(-b.right_output, abs=1e-12)

    def test_row_order_irrelevant(self, np_rng):
        X = np_rng.uniform(-1, 1, size=(15, 2))
        y = np_rng.choice([-1.0, 1.0], size=15)
        D = normalized(np.ones(15))
        base = best_confidence_stump(dataset(X, y), D)
        perm = np_rng.permutation(15)
        shuf = best_confidence_stump(dataset(X[perm], y[perm]), D)
        assert base == shuf

    def test_minimizes_surrogate_over_grid(self, np_rng):
        def surrogate(X, y, D, j, t, s):
            left = X[:, j] <= t
            z = 0.0
            for side in (left, ~left):
                wp = float(np.sum(D[side & (y > 0)]))
                wn = float(np.sum(D[side & (y < 0)]))
                z += 2.0 * math.sqrt((wp + s) * (wn + s))
            return z

        for _ in range(20):
            m = int(np_rng.integers(3, 16))
            X = np_rng.uniform(-1, 1, size=(m, 2))
            y = np_rng.choice([-1.0, 1.0], size=m)
            D = normalized(np.ones(m))
            s = 1.0 / (2.0 * m)
            ds = dataset(X, y)
            stump = best_confidence_stump(ds, D, smoothing=s)
            chosen = surrogate(X, y, D, stump.feature_index, stump.threshold, s)
            grid_best = min(surrogate(X, y, D, j, t, s) for j, t in all_candidate_stumps(X))
            assert chosen == pytest.approx(grid_best, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_binary_error_never_beats_oracle(data):
    m = data.draw(st.integers(2, 12))
    values = data.draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
        )
    )
    labels = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
    D = np.asarray(raw)
    D /= D.sum()
    X = column(values)
    y = np.asarray(labels)
    ds = dataset(X, y)
    _, eps = best_binary_stump(ds, D)
    assert eps <= brute_force_best_error(X, y, D) + 1e-9
    assert eps <= 0.5 + 1e-12


def _bits(stump, err=None):
    out = (stump.feature_index, *(v.hex() for v in (stump.threshold, stump.left_output, stump.right_output)))
    return out if err is None else (*out, err.hex())


def _outcome(search, *args):
    """The stump's exact bits (and error), or the text of the DataError raised."""
    try:
        result = search(*args)
    except DataError as exc:
        return ("error", str(exc))
    return _bits(*result) if isinstance(result, tuple) else _bits(result)


def _row_masses(D, y):
    """Per-row positive and negative label masses of a distribution."""
    w_pos = np.where(y > 0.0, D, 0.0)
    return w_pos, D - w_pos


def assert_search_matches_oracle(X, y, D, smoothing):
    """Block search and the per-feature loop agree bit for bit, errors included,
    both with every row on each side and with the space split by label."""
    space, ref = StumpSearchSpace(X), oracles.StumpSearchSpace(X)
    assert [len(t) for t in space.thresholds] == [len(t) for t in ref.thresholds]
    binary = _outcome(oracles.best_binary, ref, D, y)
    confidence = _outcome(oracles.best_confidence, ref, D, y, smoothing)
    assert _outcome(_best_binary, space, *_row_masses(D, y)) == binary
    assert _outcome(_best_confidence, space, *_row_masses(D, y), smoothing) == confidence
    split = space.split(y)
    assert _outcome(_best_binary, split, D, D) == binary
    assert _outcome(_best_confidence, split, D, D, smoothing) == confidence


def _features(rng, m, levels):
    """One column per entry of levels: that many distinct values, or continuous."""
    cols = [
        rng.normal(size=m) if k is None else rng.integers(0, k, size=m) * 0.25 - 1.0
        for k in levels
    ]
    return np.column_stack(cols)


def _distribution(rng, m, kind):
    if kind == "uniform":
        return np.full(m, 1.0 / m)
    if kind == "spread":  # boosting-like weights spanning many orders of magnitude
        D = np.exp(rng.uniform(-30.0, 0.0, size=m))
    else:
        D = rng.uniform(0.0, 1.0, size=m)
        if kind == "sparse":
            D[rng.uniform(size=m) < 0.5] = 0.0
            D[rng.integers(0, m)] = 1.0
    return D / D.sum()


class TestBlockSearchOracle:
    """The block search against the per-feature loop it replaced (tests/oracles.py)."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 3000),
        levels=st.lists(st.sampled_from([1, 2, 3, 10, None]), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["uniform", "random", "sparse", "spread"]),
        pure=st.booleans(),
        smoothing=st.sampled_from([0.0, 1e-12, None, 0.3]),
    )
    def test_drawn_data(self, m, levels, seed, kind, pure, smoothing):
        rng = np.random.default_rng(seed)
        X = _features(rng, m, levels)
        y = np.ones(m) if pure else rng.choice([-1.0, 1.0], size=m)
        s = 1.0 / (2.0 * m) if smoothing is None else smoothing
        assert_search_matches_oracle(X, y, _distribution(rng, m, kind), s)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_values_with_small_blocks(self, data):
        # tiny budgets split a handful of features into many blocks
        m = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 6))
        grid = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-10, 10)
        X = np.array(data.draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=m, max_size=m)))
        y = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
        raw = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
        D = raw / raw.sum() if raw.sum() > 0.0 else np.full(m, 1.0 / m)
        cells = data.draw(st.integers(1, 3 * m))
        candidates = data.draw(st.integers(1, 3 * m))
        with mock.patch.multiple(stumps, _BLOCK_CELLS=cells, _BLOCK_CANDIDATES=candidates):
            assert_search_matches_oracle(X, y, D, data.draw(st.sampled_from([0.0, 0.01])))

    def test_blocks_split_by_cells_and_candidates(self, np_rng):
        # m=3000: groups of 2**14 // 3000 = 5 features; the second group holds
        # two continuous features (3000 candidates each), so the 2**12
        # candidate bound cuts it in two; the last group is partial.
        m = 3000
        X = _features(np_rng, m, [10, 2, 3, 10, 2, 1, None, None, 3, 2, 10, 2])
        space = StumpSearchSpace(X)
        assert [(b.start, len(b.candidates)) for b in space.blocks] == [(0, 5), (5, 2), (7, 3), (10, 2)]
        y = np.where(X[:, 11] + 0.3 * X[:, 6] + np_rng.normal(size=m) > 0.0, 1.0, -1.0)
        for kind in ("uniform", "random", "spread"):
            assert_search_matches_oracle(X, y, _distribution(np_rng, m, kind), 1.0 / (2.0 * m))

    def test_constant_features(self, np_rng):
        m = 6000  # blocks of 2 features: the third constant opens a second block
        X = np.column_stack([np.full(m, 3.0), np.full(m, -1.5), np.full(m, 3.0)])
        y = np_rng.choice([-1.0, 1.0], size=m)
        D = _distribution(np_rng, m, "random")
        space = StumpSearchSpace(X)
        assert [len(t) for t in space.thresholds] == [1, 1, 1]
        assert len(space.blocks) == 2
        assert_search_matches_oracle(X, y, D, 0.01)
        assert _best_binary(space, *_row_masses(D, y))[0].feature_index == 0
        assert _best_confidence(space, *_row_masses(D, y), 0.01).feature_index == 0

    def test_tie_across_block_boundary_keeps_lower_feature(self, np_rng):
        m = 3000  # blocks of 5 features with 12 levels: 4 | 5 straddle the first boundary
        X = _features(np_rng, m, [12] * 12)
        X[:, 5] = X[:, 4]
        X[:, 10] = X[:, 4]
        y = np.where(X[:, 4] > 0.1, 1.0, -1.0)
        y[np_rng.integers(0, m, size=300)] *= -1.0
        space = StumpSearchSpace(X)
        assert [b.start for b in space.blocks] == [0, 5, 10]
        for kind in ("uniform", "random", "spread"):
            D = _distribution(np_rng, m, kind)
            assert _best_binary(space, *_row_masses(D, y))[0].feature_index == 4
            assert _best_confidence(space, *_row_masses(D, y), 0.0).feature_index == 4
            assert_search_matches_oracle(X, y, D, 0.0)

    def test_zero_smoothing_pure_side_raises_the_same_error(self, np_rng):
        m = 3000  # continuous features get a block each; feature 4 separates the labels, 5 copies it
        X = np_rng.normal(size=(m, 7))
        X[:, 5] = X[:, 4]
        y = np.where(X[:, 4] > 0.5, 1.0, -1.0)
        D = _distribution(np_rng, m, "random")
        with pytest.raises(DataError, match="pure side with smoothing=0"):
            _best_confidence(StumpSearchSpace(X), *_row_masses(D, y), 0.0)
        assert_search_matches_oracle(X, y, D, 0.0)

    def test_right_masses_need_no_clamp(self, np_rng):
        # Masses >= 0, signed zeros included, as every caller passes: prefix
        # sums never decrease, so the search's unclamped right masses give
        # the bits of the oracle, which clamps them at 0. Half the draws put
        # -0.0 on every negative row, so that label's total is -0.0.
        for draw in range(40):
            m = int(np_rng.integers(2, 40))
            X = np.round(np_rng.normal(size=(m, 3)), 1)
            y = np_rng.choice([-1.0, 1.0], size=m)
            D = np_rng.uniform(0.0, 1.0, size=m)
            zero = np_rng.uniform(size=m) < 0.3
            D[zero] = np_rng.choice([-0.0, 0.0], size=int(zero.sum()))
            if draw % 2:
                D[y < 0.0] = -0.0
            assert_search_matches_oracle(X, y, D, 1.0 / (2.0 * m))

    def test_tie_free_blocks_next_to_blocks_with_ties(self, np_rng):
        # m=1000: the 2**12 candidate bound cuts the features into blocks
        # 0-3 (feature 1 repeats one value, so 999 candidates), 4-7 (m
        # distinct values each: tie-free) and 8-9 (9 takes values 0 and 1)
        m = 1000
        X = np_rng.normal(size=(m, 10))
        X[7, 1] = X[5, 1]
        X[:, 9] = np_rng.integers(0, 2, size=m)
        space = StumpSearchSpace(X)
        layout = [(b.start, len(b.candidates), b.left is None) for b in space.blocks]
        assert layout == [(0, 4, False), (4, 4, True), (8, 2, False)]
        assert [len(t) for t in space.thresholds] == [m, m - 1] + [m] * 7 + [2]
        for j in (1, 2, 3, 5, 9):
            y = np.where(X[:, j] + 0.3 * np_rng.normal(size=m) > 0.5, 1.0, -1.0)
            for kind in ("uniform", "random", "spread"):
                assert_search_matches_oracle(X, y, _distribution(np_rng, m, kind), 1.0 / (2.0 * m))

    @pytest.mark.parametrize("levels", [[None] * 5, [None, 3, None, 2]])
    def test_orientation_tie_goes_to_left_minus(self, np_rng, levels):
        # equal masses on both labels of every row: each candidate's two
        # orientations have bit-identical errors, and the first one wins
        m = 500
        X = _features(np_rng, m, levels)
        w = _distribution(np_rng, m, "random") / 2.0
        stump, err = _best_binary(StumpSearchSpace(X), w, w.copy())
        assert (stump.left_output, stump.right_output) == (-1.0, 1.0)
        assert err == pytest.approx(0.5)


def _augmented(X, w_pos, w_neg):
    """Each row twice, once per label, for the oracle: masses w_pos then w_neg."""
    m = X.shape[0]
    return np.vstack([X, X]), np.concatenate((w_pos, w_neg)), np.concatenate((np.ones(m), -np.ones(m)))


def assert_masses_match_oracle(space, ref, D, y):
    """Every candidate's four side masses equal the oracle's (zeros of either sign equal)."""
    for block in space.blocks:
        per_feature = [
            np.split(np.ravel(side), np.cumsum(block.candidates)[:-1])
            for side in block.masses(D, D)
        ]
        for r, masses in enumerate(zip(*per_feature)):
            expected = oracles._side_masses(ref, block.start + r, D, y)
            assert all(np.array_equal(a, b) for a, b in zip(masses, expected))


class TestLabelSplitOracle:
    """Sides split by label against the per-feature loop (tests/oracles.py).

    A split side sums its own label's masses only. The sums it skips add the
    other label's +0.0, which changes a running sum only when it is -0.0, so
    prefix sums agree up to the sign of a zero; signed zeros are drawn here
    to show that no such sign reaches a stump, an error or an error text.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    # masses summing to 2 on the -1 labels: the best side's W+ / W- =
    # 5e-324 / 2 rounds to 0
    @example(Pinned(7, 3, "tie-free", [2, 3, 4, 5, 0, 6, 1], "tied", [0.0] * 7,
                    "tie-free", [2, 3, 4, 5, 0, 6, 1], "-1 only",
                    [0.0, 0.0, 0.0, 0.0, 5e-324, 1.0, 0.0], 0.0, 3, 21, True,
                    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0]))
    def test_drawn_data(self, data):
        m = data.draw(st.integers(1, 14))
        d = data.draw(st.integers(2, 5))
        cols = []
        for _ in range(d):
            kind = data.draw(st.sampled_from(["tie-free", "tied", "mixed"]))
            if kind == "tie-free":
                col = np.arange(m) * 0.5 - 1.0
                perm = data.draw(st.permutations(range(m)))
                col = col[list(perm)]
            else:
                grid = [0.0, 1.0] if kind == "tied" else [-1.0, 0.0, 0.5, 2.0]
                col = np.array(data.draw(st.lists(st.sampled_from(grid) | st.floats(-10, 10),
                                                  min_size=m, max_size=m)))
            cols.append(col)
        X = np.column_stack(cols)
        labels = data.draw(st.sampled_from(["both", "both", "+1 only", "-1 only"]))
        if labels == "both":
            y = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
        else:
            y = np.full(m, 1.0 if labels == "+1 only" else -1.0)
        weight = st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)
        D = np.array(data.draw(st.lists(weight, min_size=m, max_size=m)))
        if D.sum() > 0.0:
            D = D / D.sum()  # keeps the sign of each zero
        smoothing = data.draw(st.sampled_from([0.0, 0.01, 1.0 / (2.0 * m)]))
        # blocks of up to d features (at these sizes the default bounds put
        # every feature in one block), cut again by a drawn candidate bound
        cells = m * data.draw(st.sampled_from(range(d, 0, -1)))
        candidates = data.draw(st.just(d * m) | st.integers(1, d * m))
        with mock.patch.multiple(stumps, _BLOCK_CELLS=cells, _BLOCK_CANDIDATES=candidates):
            space, ref = StumpSearchSpace(X), oracles.StumpSearchSpace(X)
            split = space.split(y)
            assert_masses_match_oracle(split, ref, D, y)
            assert _outcome(_best_binary, split, D, D) == _outcome(oracles.best_binary, ref, D, y)
            assert _outcome(_best_confidence, split, D, D, smoothing) == _outcome(
                oracles.best_confidence, ref, D, y, smoothing
            )
            if data.draw(st.booleans()):
                # prior-style masses on both labels of a row: full sides,
                # against the oracle on each row once per label
                w_neg = np.array(data.draw(st.lists(weight, min_size=m, max_size=m)))
                Xa, Da, ya = _augmented(X, D, w_neg)
                ref = oracles.StumpSearchSpace(Xa)
                assert _outcome(_best_binary, space, D, w_neg) == _outcome(oracles.best_binary, ref, Da, ya)
                assert _outcome(_best_confidence, space, D, w_neg, smoothing) == _outcome(
                    oracles.best_confidence, ref, Da, ya, smoothing
                )

    def test_sides_hold_their_label_rows(self):
        X = np.array([[0.0, 3.0], [1.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        y = np.array([1.0, -1.0, -1.0, 1.0])
        (block,) = StumpSearchSpace(X).blocks
        assert [o.shape for o, _ in block.sides] == [(2, 4), (2, 4)]
        (split,) = StumpSearchSpace(X).split(y).blocks
        (pos, pos_index), (neg, neg_index) = split.sides
        assert pos.tolist() == [[0, 3], [3, 0]] and neg.tolist() == [[1, 2], [2, 1]]
        # feature 0 has the candidates below 0, 0.5 and 1.5; feature 1 is tie-free
        assert pos_index.tolist() == [0, 1, 1, 3, 4, 4, 4] and neg_index.tolist() == [0, 0, 2, 3, 3, 4, 5]

    def test_a_side_holding_every_row_reads_in_place(self):
        X = np.column_stack([np.arange(6.0), np.arange(6.0)[::-1]])
        (block,) = StumpSearchSpace(X).split(np.ones(6)).blocks
        (pos, pos_index), (neg, neg_index) = block.sides
        assert pos.shape == (2, 6) and pos_index is None
        assert neg.shape == (2, 0) and neg_index.tolist() == [[0] * 6, [1] * 6]


def test_prior_training_searches_full_sides(monkeypatch):
    # plain training folds each label over its own rows; masses on both
    # labels of a row (logistic training with flipped-label masses) keep
    # every row on both sides
    from boostkit import boosting

    rng = np.random.default_rng(3)
    ds = dataset(rng.normal(size=(30, 2)), np.where(rng.uniform(size=30) < 0.4, 1.0, -1.0))
    seen = []
    real = boosting._best_confidence

    def spy(space, w_pos, w_neg, s, sibling=None):
        seen.append([o.shape[1] for block in space.blocks for o, _ in block.sides])
        return real(space, w_pos, w_neg, s, sibling)

    monkeypatch.setattr(boosting, "_best_confidence", spy)
    cfg = boosting.BoostConfig(rounds=1, loss_kind="logistic", stumps=StumpSearchConfig("confidence"))
    boosting.train(ds, cfg)
    boosting.train(ds, cfg, _flip=np.full(30, 0.5))
    n_pos = int(np.sum(ds.labels > 0.0))
    assert seen == [[n_pos, 30 - n_pos], [30, 30]]
