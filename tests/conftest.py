"""Shared dataset builders for the test suite.

Test data synthesis uses numpy's Generator (seeded per test); the library's
own RngState is reserved for operations whose bit-level reproducibility is
part of the contract.
"""

import numpy as np
import pytest

from boostkit.data import Dataset


def dataset(features, labels, **kwargs) -> Dataset:
    return Dataset(
        features=np.asarray(features, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.float64),
        **kwargs,
    )


def random_classification(rng: np.random.Generator, m: int, d: int) -> Dataset:
    """Continuous features, random labels; almost surely not stump-separable
    for moderate m."""
    X = rng.uniform(-1.0, 1.0, size=(m, d))
    y = rng.choice([-1.0, 1.0], size=m)
    return dataset(X, y)


def stump_separable(rng: np.random.Generator, m: int, d: int, feature: int = 0,
                    threshold: float = 0.0) -> Dataset:
    X = rng.uniform(-1.0, 1.0, size=(m, d))
    y = np.where(X[:, feature] <= threshold, -1.0, 1.0)
    return dataset(X, y)


def xor_task(rng: np.random.Generator, m: int) -> Dataset:
    """Continuous two-feature data labeled by the sign of the product.

    All coordinates are distinct with probability 1, which is what makes the
    labeling reachable by sums of single-feature stumps.
    """
    X = rng.uniform(-1.0, 1.0, size=(m, 2))
    keep = np.abs(X[:, 0] * X[:, 1]) > 1e-6
    X = X[keep]
    y = np.sign(X[:, 0] * X[:, 1])
    return dataset(X, y)


class Pinned:
    """Stands in for st.data() in an @example: each draw returns the next value."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def csv_20k(tmp_path_factory):
    """A 20,000 x 20 CSV of shortest round-trip random features and +-1
    labels, and the bytes of its feature matrix."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20_000, 20))
    y = np.where(X[:, 0] + X[:, 1] > 0.0, 1.0, -1.0)
    path = tmp_path_factory.mktemp("csv_20k") / "data.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{j}" for j in range(20)] + ["label"]) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in np.column_stack([X, y]).tolist())
    return str(path), X.nbytes
