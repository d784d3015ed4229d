import contextlib
import gc
import io
import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from boostkit import data
from boostkit.cli import main
from boostkit.data import (
    Dataset,
    load_csv,
    load_features_csv,
    normalized,
    save_csv,
    split,
    uniform_distribution,
)
from boostkit.errors import DataError
from boostkit.rng import RngState

from conftest import dataset


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Exact field-by-field equality (used by round-trip checks)."""
    def same(x, y):
        if (x is None) != (y is None):
            return False
        return x is None or (x.shape == y.shape and bool(np.all(x == y)))

    return (
        same(a.features, b.features)
        and same(a.labels, b.labels)
        and same(a.prior, b.prior)
        and same(a.weights, b.weights)
        and a.feature_names == b.feature_names
        and a.label_name == b.label_name
    )


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_classification_inferred(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,-1\n3,4,-1\n5,6,1\n7,8,1\n")
        ds = load_csv(path)
        assert ds.m == 4 and ds.d == 2
        assert ds.is_classification
        assert ds.feature_names == ("a", "b")
        np.testing.assert_array_equal(ds.labels, [-1, -1, 1, 1])

    def test_regression_inferred(self, tmp_path):
        path = write(tmp_path, "a,label\n1,1.5\n2,2.0\n3,2.5\n4,3.0\n")
        ds = load_csv(path)
        assert not ds.is_classification

    def test_row_order_preserved(self, tmp_path):
        path = write(tmp_path, "a,label\n9,1\n3,-1\n7,1\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.features[:, 0], [9, 3, 7])

    def test_prior_out_of_range(self, tmp_path):
        path = write(tmp_path, "a,label,prior\n1,-1,1.2\n")
        with pytest.raises(DataError, match=r"prior out of \[0,1\]"):
            load_csv(path)

    def test_prior_autodetected_by_name(self, tmp_path):
        path = write(tmp_path, "a,label,prior\n1,-1,0.25\n2,1,0.75\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.prior, [0.25, 0.75])
        assert ds.feature_names == ("a",)

    def test_explicit_prior_column_required(self, tmp_path):
        path = write(tmp_path, "a,label\n1,-1\n")
        with pytest.raises(DataError, match="missing prior column 'p'"):
            load_csv(path, prior_column="p")

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="missing label column"):
            load_csv(path)

    def test_unparseable_cell_cites_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,label\n1,-1\nfoo,1\n")
        with pytest.raises(DataError, match="line 3.*'a'.*'foo'"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\ninf,-1\n")
        with pytest.raises(DataError, match="not finite"):
            load_csv(path)

    def test_weights_with_overflowing_sum_rejected(self, tmp_path):
        # each weight is finite; their sum is not
        path = write(tmp_path, "a,label,weight\n1,-1,1e308\n2,1,1e308\n3,1,1e308\n")
        with pytest.raises(DataError, match="weights must have a finite sum, got inf"):
            load_csv(path)

    def test_cell_errors_name_the_file(self, tmp_path):
        path = write(tmp_path, "a,label\n0.5,1\nnp.float64(0.3),-1\n")
        for loader in (load_csv, load_features_csv):
            with pytest.raises(DataError, match=f"^{path}: line 3, column 'a': cannot parse"):
                loader(path)
        path = write(tmp_path, "a,label\n0.5,1\ninf,-1\n")
        with pytest.raises(DataError, match=f"^{path}: line 3, column 'a': value 'inf' is not finite"):
            load_csv(path)

    def test_weight_column_reserved(self, tmp_path):
        path = write(tmp_path, "a,label,weight\n1,-1,2\n2,1,0.5\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.weights, [2.0, 0.5])
        assert ds.d == 1

    def test_duplicate_column_rejected(self, tmp_path):
        for text, name in (("a,a,label\n5,6,1\n7,8,-1\n", "a"), ("a,label,label\n5,1,1\n", "label"),
                           ("a,b,label,b\n1,2,1,3\n", "b")):
            path = write(tmp_path, text)
            for loader in (load_csv, load_features_csv):
                with pytest.raises(DataError, match=f"^{path}: duplicate column name '{name}'$"):
                    loader(path)

    def test_cell_over_csv_field_limit_is_data_error(self, tmp_path):
        # the csv module refuses fields over 131,072 characters
        long = "x" * 140_000
        for text, line in (("a,label\n1,1\n" + long + ",-1\n", 3), ("a," + long + "\n1,1\n", 1)):
            path = write(tmp_path, text)
            for loader in (load_csv, load_features_csv):
                with pytest.raises(DataError, match=f"^{path}: line {line}: field larger than field limit"):
                    loader(path)


class TestDatasetInvariants:
    def test_nan_features_rejected(self):
        with pytest.raises(DataError):
            dataset([[np.nan]], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, (np.inf, -np.inf), (np.nan, np.inf)])
    @pytest.mark.parametrize("where", ["features", "labels"])
    def test_every_nonfinite_value_rejected(self, bad, where):
        X = np.asfortranarray(np.arange(40.0).reshape(10, 4))
        y = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        target = X[:, 2] if where == "features" else y
        target[[7, 3][:np.size(bad)]] = bad
        with pytest.raises(DataError, match=f"^{where} must all be finite$"):
            dataset(X, y)

    def test_negative_weights_rejected(self):
        with pytest.raises(DataError):
            dataset([[1.0]], [1.0], weights=np.array([-0.5]))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DataError):
            dataset([[1.0], [2.0]], [1.0, -1.0], weights=np.zeros(2))

    def test_arrays_are_read_only(self):
        ds = dataset([[1.0], [2.0]], [1.0, -1.0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_take_preserves_order(self):
        ds = dataset([[1.0], [2.0], [3.0]], [1.0, -1.0, 1.0])
        sub = ds.take([2, 0])
        np.testing.assert_array_equal(sub.features[:, 0], [3.0, 1.0])

    def test_take_carries_every_column(self):
        ds = dataset([[1.0], [2.0], [3.0]], [1.0, -1.0, 1.0], prior=[0.1, 0.2, 0.3],
                     weights=[1.0, 2.0, 3.0], feature_names=("a",), label_name="y")
        sub = ds.take([2, 0])
        np.testing.assert_array_equal(sub.labels, [1.0, 1.0])
        np.testing.assert_array_equal(sub.prior, [0.3, 0.1])
        np.testing.assert_array_equal(sub.weights, [3.0, 1.0])
        assert (sub.feature_names, sub.label_name) == (("a",), "y")

    def test_features_column_major_and_read_only(self, tmp_path):
        def check(X):
            assert X.flags.f_contiguous and not X.flags.writeable

        rows = np.arange(12.0).reshape(4, 3)
        for layout in (np.ascontiguousarray(rows), np.asfortranarray(rows), rows[:, ::-1]):
            ds = dataset(layout, [1.0, -1.0, 1.0, -1.0])
            check(ds.features)
            np.testing.assert_array_equal(ds.features, layout)
            check(ds.take([3, 1]).features)
            check(replace(ds, labels=np.ones(4)).features)
        # the bulk parse and the cell-by-cell reread ("1" in quotes)
        for cell in ("1", '"1"'):
            path = write(tmp_path, f"a,b,label,weight\n{cell},2,1,0.5\n3,4,-1,1\n5,6,1,2\n")
            check(load_csv(path).features)
            X = load_features_csv(path)
            assert X.flags.f_contiguous
            np.testing.assert_array_equal(X, [[1, 2], [3, 4], [5, 6]])


class TestUniformDistribution:
    def test_quarters(self):
        np.testing.assert_array_equal(uniform_distribution(4), [0.25] * 4)

    def test_single(self):
        np.testing.assert_array_equal(uniform_distribution(1), [1.0])

    def test_thirds_renormalized(self):
        w = uniform_distribution(3)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w, 1.0 / 3.0, rtol=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(DataError):
            uniform_distribution(0)


class TestSplit:
    def expect_sizes(self, m, fraction, seed, train_m, test_m):
        ds = dataset(np.arange(m, dtype=float)[:, None], np.where(np.arange(m) % 2 == 0, 1.0, -1.0))
        train, test = split(ds, fraction, RngState(seed))
        assert (train.m, test.m) == (train_m, test_m)
        merged = sorted(train.features[:, 0].tolist() + test.features[:, 0].tolist())
        assert merged == list(range(m))

    def test_seven_three(self):
        self.expect_sizes(10, 0.3, 1, 7, 3)

    def test_repeat_identical(self):
        ds = dataset(np.arange(10, dtype=float)[:, None], np.ones(10))
        a_train, a_test = split(ds, 0.3, RngState(1))
        b_train, b_test = split(ds, 0.3, RngState(1))
        assert datasets_equal(a_train, b_train) and datasets_equal(a_test, b_test)

    def test_empty_train_is_error(self):
        ds = dataset([[1.0], [2.0]], [1.0, -1.0])
        with pytest.raises(DataError):
            split(ds, 0.999, RngState(0))

    def test_fraction_bounds(self):
        ds = dataset([[1.0], [2.0]], [1.0, -1.0])
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DataError):
                split(ds, bad, RngState(0))


class TestRoundTrip:
    def test_csv_round_trip_identical(self, tmp_path, np_rng):
        X = np_rng.normal(size=(17, 3))
        ds = Dataset(
            features=X,
            labels=np_rng.choice([-1.0, 1.0], size=17),
            prior=np_rng.uniform(0, 1, size=17),
            weights=np_rng.uniform(0.1, 2.0, size=17),
            feature_names=("alpha", "beta", "gamma"),
        )
        path = str(tmp_path / "round.csv")
        save_csv(ds, path)
        assert datasets_equal(ds, load_csv(path))

    def test_save_csv_bytes(self, tmp_path):
        # CRLF line ends and quoted header names, as csv.writer writes them
        ds = Dataset(np.array([[0.1, -2.5], [1e-300, 3.0], [-0.0, 1.7976931348623157e308]]),
                     np.array([1.0, -1.0, 1.0]), prior=np.array([0.25, 1.0, 0.0]),
                     weights=np.array([2.0, 0.5, 1e-3]), feature_names=("a,b", 'say "x"'))
        save_csv(ds, str(tmp_path / "x.csv"))
        assert (tmp_path / "x.csv").read_bytes() == (
            b'"a,b","say ""x""",label,prior,weight\r\n0.1,-2.5,1.0,0.25,2.0\r\n'
            b"1e-300,3.0,-1.0,1.0,0.5\r\n-0.0,1.7976931348623157e+308,1.0,0.0,0.001\r\n")
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_features_only_loader(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,-1\n3,4,1\n")
        X = load_features_csv(path)
        np.testing.assert_array_equal(X, [[1, 2], [3, 4]])
        path2 = write(tmp_path, "a,b\n1,2\n", name="nolabel.csv")
        np.testing.assert_array_equal(load_features_csv(path2), [[1, 2]])


class TestNormalized:
    def test_basic(self):
        np.testing.assert_allclose(normalized(np.array([1.0, 3.0])), [0.25, 0.75])

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            normalized(np.array([1.0, -1.0]))

    def test_rejects_non_finite_sum(self):
        with pytest.raises(DataError, match="finite sum"):
            normalized(np.array([1e308, 1e308]))


def outcome(loader, path, **kwargs):
    """What a reader gives: its result, or the type and text of its error."""
    try:
        return loader(path, **kwargs)
    except Exception as exc:  # parity covers errors that are not DataError too
        return (type(exc), str(exc))


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def with_path(old, path):
    """The oracle's outcome, with the path its cell errors now start with."""
    if isinstance(old, tuple) and re.match(r"line \d+, column ", old[1]):
        return old[0], f"{path}: {old[1]}"
    return old


def assert_same_outcome(new, old):
    """The same error, or the same Dataset or matrix bit for bit."""
    if isinstance(old, tuple):
        assert isinstance(new, tuple) and new == old
    elif isinstance(old, Dataset):
        assert isinstance(new, Dataset)
        for field in ("features", "labels", "prior", "weights"):
            assert same_bits(getattr(new, field), getattr(old, field)), field
        assert (new.feature_names, new.label_name) == (old.feature_names, old.label_name)
    else:
        assert same_bits(new, old)


def assert_reader_parity(path, **kwargs):
    assert_same_outcome(outcome(load_csv, path, **kwargs),
                        with_path(outcome(oracles.load_csv, path, **kwargs), path))
    kwargs.pop("prior_column", None)
    assert_same_outcome(outcome(load_features_csv, path, **kwargs),
                        with_path(outcome(oracles.load_features_csv, path, **kwargs), path))


PARITY_CASES = {
    "classification": "a,b,label\n1,2,-1\n3,4,-1\n5,6,1\n7,8,1\n",
    "regression": "a,label\n1,1.5\n2,2.0\n",
    "prior_and_weight": "a,label,prior,weight\n1,-1,0.25,2\n2,1,0.75,0.5\n",
    "prior_out_of_range": "a,label,prior\n1,-1,0.5\n2,1,1.2\n",
    "prior_negative": "a,label,prior\n1,-1,-0.0\n2,1,-1e-300\n",
    "prior_nan": "a,label,prior\n1,-1,nan\n",
    "prior_bad_then_weight_bad": "a,label,prior,weight\n1,-1,2.0,x\n",
    "missing_label": "a,b\n1,2\n",
    "unparseable": "a,label\n1,-1\nfoo,1\n",
    "empty_file": "",
    "header_only": "a,label\n",
    "header_then_blank_lines": "a,label\n\n\n",
    "inf": "a,label\ninf,-1\n",
    "1e999": "a,label\n1,1\n1e999,-1\n",
    "nan_label": "a,label\n1,nan\n",
    "negative_weight": "a,label,weight\n1,-1,-2\n",
    "quoted_cells": 'a,b,label\n"1.5",2,1\n"3","4",-1\n',
    "quoted_comma": 'a,b,label\n"1,5",2,1\n',
    "quoted_header": '"a","b",label\n1,2,1\n',
    "underscore": "a,label\n1_0,1\n2,-1\n",
    "blank_lines": "a,label\n\n1,1\n\n2,-1\n\n",
    "whitespace_line": "a,label\n1,1\n   \n2,-1\n",
    "tab_line": "a,label\n1,1\n\t\n",
    "crlf": "a,label\r\n1,1\r\n2,-1\r\n",
    "lone_cr": "a,label\r1,1\r2,-1\r",
    "stray_cr_in_row": "a,label\n1,\r1\n",
    "cr_after_cell": "a,b,label\n1\r,2,1\n",
    "short_row": "a,b,label\n1,2,1\n3,4\n",
    "long_row": "a,b,label\n1,2,1\n3,4,1,5\n",
    "all_rows_long": "a,label\n1,1,9\n2,-1,9\n",
    "trailing_comma": "a,label\n1,1,\n",
    "only_commas": "a,label\n,\n",
    "non_numeric_label": "a,b,label\n1,2,cat\n3,4,dog\n",
    "non_numeric_prior_weight": "a,label,prior,weight\n1,1,p,w\n",
    "empty_label_cell": "a,b,label\n1,2,\n",
    "spaces_around": " a , label \n 1 , -1 \n2 ,1\n",
    "negative_zero": "a,label\n-0,1\n0.0,-1\n",
    "unicode_digit": "a,label\n\u0661,1\n",
    "nbsp": "a,label\n1\u00a0,1\n",
    "single_column": "a\n1\n2\n",
    "single_column_header_only": "a\n",
    "single_row": "a,b,label\n1,2,1\n",
    "no_features": "label,weight\n1,1\n",
    "hex": "a,label\n0x10,1\n",
    "long_digits": "a,label\n0.1000000000000000055511151231257827021181583404541015625,1\n",
    "subnormal": "a,label\n4.9e-324,1\n2.2250738585072014e-308,-1\n",
    "nul": "a,label\n1\x00,1\n",
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_reader_matches_cell_by_cell_oracle(tmp_path, case):
    path = write(tmp_path, PARITY_CASES[case])
    assert_reader_parity(path)
    assert_reader_parity(path, label_column="b")


def test_reader_parity_with_named_prior(tmp_path):
    for text in ("a,label,p\n1,1,0.5\n", "a,label,p\n1,1,1.5\n", "a,label\n1,1\n",
                 "a,label,p,prior\n1,1,0.5,0.25\n"):
        assert_reader_parity(write(tmp_path, text), prior_column="p")


CELLS = st.one_of(
    st.sampled_from(["1", "-2.5", "0", "-0", "1e3", " 4 ", "1_0", "nan", "inf", "-Infinity",
                     "1e999", '"7"', "", " ", "x", "0.5", "1.5", "+.5", "5.", "\u00a0", "1\r"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(alphabet="0123456789.-+eE_ \t", max_size=6),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from(["a,b,label", "a,b,label,prior,weight"]),
       st.sampled_from(["\n", "\r\n", "\r"]))
def test_reader_parity_fuzz(tmp_path, data, header, newline):
    width = header.count(",") + 1
    row = st.lists(CELLS, min_size=width, max_size=width) | st.lists(CELLS, max_size=width + 1)
    rows = data.draw(st.lists(row, max_size=5))
    path = write(tmp_path, newline.join([header] + [",".join(r) for r in rows]) + newline)
    assert_reader_parity(path)


# Block sizes of the bulk parse: 1 byte reads one line per block, 7 and 64
# bytes cut the long rows below into one or a few lines, and the default,
# 256 KiB, holds about 1,400 of them.
BLOCK_SIZES = [1, 7, 64, data._BLOCK_BYTES]


def long_rows(n: int) -> list[list[str]]:
    """A header and n rows of shortest round-trip doubles, about 190 bytes
    each: 2,000 of them put the last rows in a later default block."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(n, 8))
    y = np.where(X[:, 0] > 0.0, 1.0, -1.0)
    cols = [*X.T, y, rng.uniform(0.0, 1.0, size=n), rng.uniform(0.1, 2.0, size=n)]
    header = [f"x{j}" for j in range(8)] + ["label", "prior", "weight"]
    return [header] + [list(map(repr, row)) for row in zip(*(c.tolist() for c in cols))]


def later_row(rows, cells):
    """rows with its second-to-last row's leading cells replaced."""
    rows = [list(r) for r in rows]
    rows[-2][:len(cells)] = cells
    return rows


def joined(rows, newline="\n", end=True) -> bytes:
    return (newline.join(map(",".join, rows)) + (newline if end else "")).encode()


BLOCK_CASES = {
    "clean": lambda rows: joined(rows),
    "short_row": lambda rows: joined(rows[:-2] + [rows[-2][:-1]] + rows[-1:]),
    "bad_cell": lambda rows: joined(later_row(rows, ["0.5x"])),
    "nan": lambda rows: joined(later_row(rows, ["nan"])),
    "prior_out_of_range": lambda rows: joined(rows[:-2] + [rows[-2][:9] + ["1.5"] + rows[-2][10:]] + rows[-1:]),
    "not_utf8": lambda rows: joined(rows).replace(b"\n" + ",".join(rows[-2]).encode(),
                                                  b"\n\xff" + ",".join(rows[-2]).encode()),
    "blank_lines": lambda rows: joined(rows[:-2] + [[""], [""]] + rows[-2:] + [[""]]),
    "no_final_newline": lambda rows: joined(rows, end=False),
    "crlf": lambda rows: joined(rows, "\r\n"),  # as save_csv ends its lines
    "cr_only": lambda rows: joined(rows, "\r"),
}


BLOCK_READS = [(load_csv, {}), (load_features_csv, {}), (load_csv, {"label_column": "x0"}),
               (load_features_csv, {"label_column": "x0"})]


@pytest.fixture(scope="module")
def block_files(tmp_path_factory):
    """Each case's file and what the cell-by-cell reader gives for each of
    BLOCK_READS; the oracle reads no non-UTF-8 file, which must end in the
    error every reader gives it."""
    d = tmp_path_factory.mktemp("blocks")
    rows_of = {n: long_rows(n) for n in (40, 2_000)}
    assert len(joined(rows_of[2_000])) > 1.4 * data._BLOCK_BYTES
    oracle = {load_csv: oracles.load_csv, load_features_csv: oracles.load_features_csv}
    files = {}
    for (case, build), (n, rows) in itertools.product(BLOCK_CASES.items(), rows_of.items()):
        path = str(d / f"{case}-{n}.csv")
        with open(path, "wb") as fh:
            fh.write(build(rows))
        if case == "not_utf8":
            error = (DataError, f"{path}: line {len(rows) - 1}: not valid UTF-8 (byte 0xff)")
            files[case, n] = path, [error] * len(BLOCK_READS)
            continue
        files[case, n] = path, [with_path(outcome(oracle[read], path, **kw), path) for read, kw in BLOCK_READS]
    return files


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocks_match_cell_by_cell_oracle(block_files, monkeypatch, capsys, case, block_bytes):
    """Every block size gives float() of each cell bit for bit, or the
    error, exit code and `path: line N:` message of the cell-by-cell reader,
    for defects in a later block too."""
    monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
    path, expected = block_files[case, 2_000 if block_bytes > 64 else 40]
    for (read, kwargs), old in zip(BLOCK_READS, expected):
        assert_same_outcome(outcome(read, path, **kwargs), old)
    code = main(["train", "--data", path, "--rounds", "1", "--out", path + ".model"])
    err = capsys.readouterr().err
    if isinstance(expected[0], tuple):
        assert (code, err) == (2, f"data error: {expected[0][1]}\n")
        assert re.match(rf"{re.escape(path)}: line \d+[:,] ", expected[0][1])
    else:
        assert code == 0, err


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes traced while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReadMemory:
    """The bulk parse writes into arrays allocated once, and a Dataset adopts
    a read-only, owned, column-major matrix instead of copying it."""

    @pytest.mark.parametrize("loader", [load_csv, load_features_csv])
    def test_load_peaks_below_1_3_matrices(self, csv_20k, loader):
        path, matrix_bytes = csv_20k
        result, peak = traced_peak(loader, path)
        X = result if isinstance(result, np.ndarray) else result.features
        assert X.nbytes == matrix_bytes
        assert peak < 1.3 * matrix_bytes, peak / matrix_bytes

    def test_predict_peaks_below_matrix_plus_2mb(self, csv_20k, tmp_path):
        path, matrix_bytes = csv_20k
        small = tmp_path / "small.csv"
        with open(path, encoding="utf-8") as fh:
            small.write_text("".join(line for _, line in zip(range(301), fh)), encoding="utf-8")
        model, out = str(tmp_path / "model.txt"), str(tmp_path / "pred.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--data", str(small), "--rounds", "20", "--out", model]) == 0
            code, peak = traced_peak(main, ["predict", "--model", model, "--data", path, "--out", out])
        assert code == 0
        assert peak < matrix_bytes + 2_000_000, peak - matrix_bytes

    def test_read_only_owned_column_major_features_are_adopted(self):
        X = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        X.flags.writeable = False
        ds = dataset(X, [1.0, -1.0, 1.0, -1.0])
        assert ds.features is X
        assert replace(ds, labels=np.ones(4)).features is X

    def test_adopted_dataset_peaks_below_64kb(self):
        # the finiteness checks make no temporary of the matrix's shape
        X = np.asfortranarray(np.arange(400_000.0).reshape(20_000, 20))
        y = np.where(np.arange(20_000) % 2 == 0, 1.0, -1.0)
        X.flags.writeable = y.flags.writeable = False
        ds, peak = traced_peak(Dataset, X, y)
        assert ds.features is X and ds.labels is y
        assert peak < 64 * 1024, peak

    def test_other_features_are_copied(self):
        rows = np.arange(12.0).reshape(4, 3)
        frozen_view = np.asfortranarray(rows)[:, :2]
        frozen_view.flags.writeable = False
        for X in (np.asfortranarray(rows), rows, frozen_view, np.asfortranarray(rows, dtype=np.float32)):
            before = np.array(X, dtype=np.float64)
            ds = dataset(X, [1.0, -1.0, 1.0, -1.0])
            assert ds.features is not X
            if X.flags.writeable:
                X[0, 0] = 99.0
                np.testing.assert_array_equal(ds.features, before)
