"""Datasets, example-weight vectors, train/test splits, and CSV I/O.

Conventions used throughout the package:

- ``features`` is an (m, d) float64 matrix of finite values; no missing
  values, no imputation. A Dataset and :func:`load_features_csv` store it
  column-major (Fortran order), because every hot reader takes one feature
  over all rows at a time: stump evaluation in training, model scoring and
  the search-space sort each read ``X[:, j]``, which is then contiguous.
  Row-major input is accepted everywhere and gives the same results.
- ``labels`` is a length-m float64 vector. A dataset is in *classification*
  mode iff every label is exactly -1 or +1; otherwise it is in *regression*
  mode and labels may be any finite reals.
- Weight vectors over examples ("distributions") are plain float64 arrays
  that are nonnegative and sum to 1. :func:`uniform_distribution` and
  :func:`normalized` build them.

CSV files are UTF-8, comma-separated, with one header row. The label column
is named ``label`` by default; ``prior`` and ``weight`` are reserved column
names for per-example prior probabilities and nonnegative example weights.
All remaining columns are features, in file order.

Reading holds one copy of the used columns. The body is parsed in blocks of
about ``_BLOCK_BYTES`` of lines, each by ``np.loadtxt``, and each block's
used columns are copied into arrays allocated once: a column-major feature
matrix and one vector per other column, sized by the file's newline count.
If any block fails, the whole file is read again cell by cell, so a value
or an error never depends on where the blocks fall. The readers return
read-only arrays. A Dataset adopts, without copying, an array that is
float64, column-major, read-only and owns its data (the readers' arrays and
those of another Dataset); any other array is copied and frozen, so a
caller's later writes to it never reach the Dataset. A caller that hands in
such an array and then makes it writable again breaks that promise.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, not_utf8
from .rng import RngState

PRIOR_COLUMN = "prior"
WEIGHT_COLUMN = "weight"

# text per np.loadtxt call of the bulk CSV parse: larger blocks raise the
# peak memory of a read, smaller ones add calls
_BLOCK_BYTES = 256 * 1024


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is a float64, column-major, read-only array that
    owns its data, else a read-only float64 copy, column-major (see the
    module docstring)."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.f_contiguous
            and a.flags.owndata and not a.flags.writeable):
        return a
    out = np.array(a, dtype=np.float64, order="F")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix plus labels and optional prior/weights.

    Safe to share for concurrent reads; the arrays are marked read-only.
    """

    features: np.ndarray
    labels: np.ndarray
    prior: np.ndarray | None = None
    weights: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()
    label_name: str = "label"

    def __post_init__(self):
        X = _readonly(np.atleast_2d(self.features))
        y = _readonly(self.labels)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError("features must be a nonempty (m, d) matrix")
        # min and max are NaN if any entry is, and one of them is +-inf if
        # any entry is: no (m, d) temporary
        if not (math.isfinite(X.min()) and math.isfinite(X.max())):
            raise DataError("features must all be finite")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DataError("labels must be a length-m vector")
        if not (math.isfinite(y.min()) and math.isfinite(y.max())):
            raise DataError("labels must all be finite")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if self.prior is not None:
            p = _readonly(self.prior)
            if p.shape != y.shape:
                raise DataError("prior must have one entry per example")
            if not np.all((p >= 0.0) & (p <= 1.0)):
                raise DataError("prior out of [0,1]")
            object.__setattr__(self, "prior", p)
        if self.weights is not None:
            w = _readonly(self.weights)
            if w.shape != y.shape:
                raise DataError("weights must have one entry per example")
            normalized(w)  # raises unless finite, nonnegative and not all zero
            object.__setattr__(self, "weights", w)
        names = tuple(self.feature_names) or tuple(
            f"f{j}" for j in range(X.shape[1])
        )
        if len(names) != X.shape[1]:
            raise DataError("feature_names length must match feature count")
        object.__setattr__(self, "feature_names", names)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def is_classification(self) -> bool:
        return bool(np.all((self.labels == 1.0) | (self.labels == -1.0)))

    def take(self, indices) -> "Dataset":
        """New Dataset containing the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return replace(
            self,
            features=self.features[idx],
            labels=self.labels[idx],
            prior=None if self.prior is None else self.prior[idx],
            weights=None if self.weights is None else self.weights[idx],
        )


def uniform_distribution(m: int) -> np.ndarray:
    """Length-m weight vector with all entries 1/m.

    Computed as normalized(ones) so it is bit-identical to the initial
    distribution of an unweighted training run.
    """
    if m < 1:
        raise DataError("need at least one example")
    return normalized(np.ones(m))


def normalized(w: np.ndarray) -> np.ndarray:
    """Scale a nonnegative vector to sum 1."""
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise DataError("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):  # an overflowing sum is the error raised below
        total = w.sum()
    if not np.isfinite(total):
        raise DataError(f"weights must have a finite sum, got {float(total)!r}")
    if total <= 0.0:
        raise DataError("weights must not all be zero")
    return w / total


def split(ds: Dataset, test_fraction: float, rng: RngState) -> tuple[Dataset, Dataset]:
    """Deterministic exact partition into (train, test).

    The test set is the first round(m * test_fraction) entries of a seeded
    shuffle; each side keeps the original row order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    n_test = int(math.floor(ds.m * test_fraction + 0.5))
    if ds.m - n_test < 1:
        raise DataError(
            f"test_fraction={test_fraction} leaves no training rows (m={ds.m})"
        )
    perm = rng.permutation(ds.m)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return ds.take(train_idx), ds.take(test_idx)


def _parse_cell(text: str, path: str, line_no: int, column: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(
            f"{path}: line {line_no}, column {column!r}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(v):
        raise DataError(
            f"{path}: line {line_no}, column {column!r}: value {text!r} is not finite"
        )
    return v


def _csv_rows(fh, path: str):
    """csv.reader over fh whose csv errors (a cell over the csv module's field
    size limit, say) and bytes that are not UTF-8 become DataError naming the
    path and line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def _row_bound(path: str) -> int:
    """An upper bound on the body rows of a file whose lines end in ``\\n``:
    its newline count, less the header's line."""
    newlines, last = 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_BLOCK_BYTES):
            newlines += chunk.count(b"\n")
            last = chunk[-1:]
    return newlines - (last == b"\n")


def _read_blocks(fh, width: int, cols: list[int], d: int, prior: int | None, bound: int):
    """The bulk parse of the rest of ``fh``: the feature matrix and the other
    used columns, as arrays of at most ``bound`` rows allocated once, or None
    if a block of lines fails to parse, has the wrong width, goes past
    ``bound`` or holds a non-finite value or a prior outside [0, 1].

    ``cols`` are the used columns' file positions, the ``d`` features first;
    ``prior`` is the prior's place among them or None.
    """
    X = np.empty((bound, d), order="F")
    others = [np.empty(bound) for _ in cols[d:]]
    targets = [*X.T, *others]  # one contiguous column each
    n = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a block with no rows only warns
        try:
            while lines := fh.readlines(_BLOCK_BYTES):
                block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
                del lines  # not held while the next block is read
                end = n + block.shape[0]
                if block.shape[1] != width or end > bound:
                    return None
                for target, col in zip(targets, cols):
                    target[n:end] = block[:, col]
                    if not np.all(np.isfinite(target[n:end])):
                        return None
                if prior is not None:
                    p = targets[prior][n:end]
                    if not np.all((p >= 0.0) & (p <= 1.0)):
                        return None
                n = end
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            return None
    if n == 0:
        return None
    if n < bound:  # blank lines, say: keep no rows that were never written
        return np.array(X[:n], order="F"), [out[:n].copy() for out in others]
    return X, others


def _read_csv(path: str, pick) -> tuple[list[str], np.ndarray, dict[str, np.ndarray]]:
    """Feature names, feature matrix and other columns by name, in row order.

    ``pick(header)`` returns the feature columns, the other columns to parse
    and the prior among them or None; no other column is parsed. The bulk
    parse reads the body in blocks of about ``_BLOCK_BYTES`` (see the module
    docstring). If any block fails to parse, or gives rows of the wrong
    length, more rows than the file has newlines, a non-finite value or a
    prior outside [0, 1], the file is read again cell by cell:
    :func:`_parse_cell` decides what a cell may hold and names the line and
    column of any it rejects.
    """
    bound = _row_bound(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = [h.strip() for h in next(_csv_rows(fh, path))]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        index = {h: i for i, h in enumerate(header)}
        if len(index) != len(header):
            repeated = next(h for i, h in enumerate(header) if index[h] != i)
            raise DataError(f"{path}: duplicate column name {repeated!r}")
        features, others, prior = pick(header)
        if not features:
            raise DataError(f"{path}: no feature columns")
        used = features + others
        cols = [index[name] for name in used]
        d = len(features)
        prior_at = None if prior is None else used.index(prior)
        parsed = _read_blocks(fh, len(header), cols, d, prior_at, bound)
    if parsed is not None:
        X, columns = parsed
    else:
        rows = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = _csv_rows(fh, path)
            next(reader)
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}")
                cells = []
                for col, name in zip(cols, used):
                    cells.append(_parse_cell(row[col], path, line_no, name))
                    if name == prior and not 0.0 <= cells[-1] <= 1.0:
                        raise DataError(f"{path}: line {line_no}: prior out of [0,1]: {cells[-1]!r}")
                rows.append(cells)
        if not rows:
            raise DataError(f"{path}: no data rows")
        values = np.array(rows, dtype=np.float64, order="F")
        X, columns = values[:, :d], list(values[:, d:].T)
    for a in (X, *columns):
        a.flags.writeable = False
    return features, X, dict(zip(others, columns))


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
    Column names must be unique.
    """

    def pick(header):
        if label_column not in header:
            raise DataError(f"{path}: missing label column {label_column!r}")
        if prior_column is not None and prior_column not in header:
            raise DataError(f"{path}: missing prior column {prior_column!r}")
        prior = prior_column
        if prior_column is None and PRIOR_COLUMN in header:
            prior = PRIOR_COLUMN
        others = [c for c in (label_column, prior, WEIGHT_COLUMN) if c in header]
        return [h for h in header if h not in others], others, prior

    features, X, columns = _read_csv(path, pick)
    return Dataset(
        features=X,
        labels=columns[label_column],
        prior=columns.get(PRIOR_COLUMN if prior_column is None else prior_column),
        weights=columns.get(WEIGHT_COLUMN),
        feature_names=tuple(features),
        label_name=label_column,
    )


def load_features_csv(path: str, label_column: str = "label") -> np.ndarray:
    """Feature matrix from a CSV that may or may not carry a label column.

    Label, prior, and weight columns are dropped when present and never
    parsed; everything else must parse as finite numbers.
    """
    skip = (label_column, PRIOR_COLUMN, WEIGHT_COLUMN)
    return _read_csv(path, lambda header: ([h for h in header if h not in skip], [], None))[1]


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of strings written one after
    another, as UTF-8, line ends untranslated, to a temp file in the target
    directory and rename it into place, so that an interrupted write never
    leaves a partial file. The file gets the mode a plain ``open`` would give
    it, 0o666 less the umask, where the temp file has 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".boostkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        umask = os.umask(0o022)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset as CSV; reloading it yields an identical Dataset.

    Floats use Python's shortest round-trip representation; lines end in
    CRLF, as csv.writer writes them.
    """
    named = [(n, c) for n, c in ((PRIOR_COLUMN, ds.prior), (WEIGHT_COLUMN, ds.weights))
             if c is not None]
    columns = [*ds.features.T, ds.labels, *(c for _, c in named)]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([*ds.feature_names, ds.label_name, *(n for n, _ in named)])
    writer.writerows([repr(float(v)) for v in row] for row in zip(*columns))
    atomic_write_text(path, text.getvalue())
