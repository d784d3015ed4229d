"""Pool-based active learning by lowest-confidence queries.

A pool hides the labels of a fully labeled dataset; the learner only sees
labels it has paid for. Uncertainty sampling retrains from scratch on all
acquired labels, then asks for the unlabeled examples whose |f(x)| is
smallest. The simulation harness pairs this against uniform random
acquisition under the same seed, so iteration 0 of both curves coincides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .boosting import AdditiveModel, BoostConfig, error_rate, train
from .data import Dataset
from .errors import DataError, UsageError
from .rng import RngState

STRATEGIES = ("uncertainty", "random")


@dataclass(frozen=True)
class ActiveConfig:
    boost: BoostConfig
    init_batch: int = 500
    batch: int = 200
    iterations: int = 10
    strategy: str = "uncertainty"
    seed: int = 0

    def __post_init__(self):
        if self.init_batch < 1 or self.batch < 1 or self.iterations < 0:
            raise UsageError("init_batch and batch must be >= 1, iterations >= 0")
        if self.strategy not in STRATEGIES:
            raise UsageError(f"unknown strategy {self.strategy!r}")


class Pool:
    """Label-hiding wrapper around a fully labeled dataset.

    Training code must go through :meth:`labeled_dataset`, which only ever
    exposes labels for acquired indices.
    """

    def __init__(self, full: Dataset):
        if not full.is_classification:
            raise DataError("active learning requires classification labels")
        self._full = full
        self._labeled: list[int] = []
        self._labeled_set: set[int] = set()

    @property
    def m(self) -> int:
        return self._full.m

    @property
    def features(self) -> np.ndarray:
        return self._full.features

    @property
    def budget_used(self) -> int:
        return len(self._labeled)

    def unlabeled_ids(self) -> np.ndarray:
        mask = np.ones(self.m, dtype=bool)
        mask[self._labeled] = False
        return np.nonzero(mask)[0]

    def acquire(self, ids) -> None:
        for i in ids:
            i = int(i)
            if i in self._labeled_set:
                raise DataError(f"example {i} already labeled")
            if not 0 <= i < self.m:
                raise DataError(f"example index {i} out of range")
            self._labeled.append(i)
            self._labeled_set.add(i)

    def labeled_dataset(self) -> Dataset:
        """Acquired rows with their labels, in acquisition order."""
        if not self._labeled:
            raise DataError("no labels acquired yet")
        return self._full.take(np.asarray(self._labeled, dtype=np.int64))


def select_queries(model: AdditiveModel, pool: Pool, k: int) -> list[int]:
    """The k unlabeled indices with smallest |f(x)|, ties by index."""
    unlabeled = pool.unlabeled_ids()
    if unlabeled.shape[0] == 0:
        raise DataError("no unlabeled examples remain")
    if unlabeled.shape[0] < k:
        warnings.warn(
            f"only {unlabeled.shape[0]} unlabeled examples remain; returning all",
            stacklevel=2,
        )
        k = unlabeled.shape[0]
    # scoring every row reads the pool's columns whole, with no copy of the
    # unlabeled rows; a stable sort keeps ascending indices in a tie
    confidence = np.abs(model.score(pool.features))[unlabeled]
    order = np.argsort(confidence, kind="stable")
    return [int(i) for i in unlabeled[order[:k]]]


@dataclass(frozen=True)
class CurvePoint:
    strategy: str
    seed: int
    iteration: int
    labels_used: int
    test_error: float


@dataclass
class ActiveResult:
    points: list[CurvePoint] = field(default_factory=list)
    acquisitions: list[list[int]] = field(default_factory=list)
    truncated: bool = False


def simulate(ds: Dataset, test: Dataset, cfg: ActiveConfig) -> ActiveResult:
    """Run one labeling campaign on a fully labeled pool.

    Iteration 0 labels init_batch uniformly at random from the seed; each
    later iteration retrains from scratch on everything labeled so far and
    acquires one more batch by the configured strategy. Random and
    uncertainty runs with the same seed draw the same initial batch, so
    their curves are paired.
    """
    if not ds.is_classification or not test.is_classification:
        raise DataError("active learning requires classification labels")
    if ds.m < cfg.init_batch:
        raise DataError(f"pool of {ds.m} is smaller than init_batch={cfg.init_batch}")
    rng = RngState(cfg.seed)
    pool = Pool(ds)
    result = ActiveResult()

    for it in range(cfg.iterations + 1):
        if it == 0:
            ids = rng.sample(ds.m, cfg.init_batch)
        else:
            remaining = pool.unlabeled_ids()
            if remaining.shape[0] < cfg.batch:
                result.truncated = True
            if remaining.shape[0] == 0:
                break
            if cfg.strategy == "uncertainty":
                ids = select_queries(model, pool, cfg.batch)
            else:
                ids = rng.choice(remaining, min(cfg.batch, remaining.shape[0]))
        ids = [int(i) for i in ids]
        pool.acquire(ids)
        result.acquisitions.append(ids)
        model, _ = train(pool.labeled_dataset(), cfg.boost, _stats=False)
        error = error_rate(model.score(test.features), test.labels)
        result.points.append(CurvePoint(cfg.strategy, cfg.seed, it, pool.budget_used, error))

    return result


def work(cfg: ActiveConfig, pool: Dataset, test: Dataset) -> int:
    """The cost of ``simulate(pool, test, cfg)`` in cell-rounds (see ``sibling.run_jobs``): each
    retrain's rows x features, plus the test and, for uncertainty, pool rows scored, per round."""
    scored = test.m + (pool.m if cfg.strategy == "uncertainty" else 0)
    sizes = (min(cfg.init_batch + it * cfg.batch, pool.m) for it in range(cfg.iterations + 1))
    return cfg.boost.rounds * sum(size * pool.d + scored for size in sizes)


CURVE_CSV_COLUMNS = ("strategy", "seed", "iteration", "labels_used", "test_error")


def curve_csv_rows(results: list[ActiveResult]) -> list[list[str]]:
    rows = []
    for res in results:
        for pt in res.points:
            rows.append(
                [pt.strategy, str(pt.seed), str(pt.iteration), str(pt.labels_used), repr(pt.test_error)]
            )
    return rows
