"""The stump search's sibling process gives the sequential scan's results.

``train`` forks a sibling that scans the last blocks of each round's search
when the search is large enough and two CPUs are there to run it. These
tests set the CPU count ``train`` sees with ``monkeypatch`` and spy on
``os.fork``, so the same run takes the serial path and then the sibling's.
"""

import os
import signal
import threading
import warnings

import numpy as np
import pytest

from boostkit import boosting, cli, stumps
from boostkit.boosting import BoostConfig, train
from boostkit.density import train_cde
from boostkit.sibling import SearchSibling
from boostkit.stumps import (
    StumpSearchConfig,
    StumpSearchSpace,
    _best_binary,
    _best_confidence,
)

from conftest import dataset

D = 20
# 20 continuous features of M distinct values: just enough candidates per
# search for a sibling, in 20 one-feature blocks
M = -(-stumps._SIBLING_MIN_CANDIDATES // D)


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs ``train`` may run on."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked in this test, as the parent saw them."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def features(seed, m=M, d=D):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    y = np.where(X @ rng.normal(size=d) + rng.normal(size=m) > 0.0, 1.0, -1.0)
    return X, y


def write_csv(path, X, y, prior=None):
    columns = [*X.T, y] + ([] if prior is None else [prior])
    names = [f"x{j}" for j in range(X.shape[1])] + ["label"] + ([] if prior is None else ["prior"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in np.column_stack(columns).tolist())
    return str(path)


def distribution(seed, m=M):
    w = np.random.default_rng(seed).uniform(size=m)
    return w / w.sum()


RUNS = {
    "exp/binary": ("--loss", "exp", "--stumps", "binary"),
    "logistic/confidence": ("--loss", "logistic", "--stumps", "confidence"),
    "prior": ("--loss", "logistic", "--stumps", "confidence", "--prior-col", "prior",
              "--eta", "2"),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_identical_with_and_without_the_sibling(run, tmp_path, cpus, forks, capsys):
    X, y = features(1)
    prior = 1.0 / (1.0 + np.exp(-2.0 * X[:, 0]))
    data = write_csv(tmp_path / "train.csv", X, y, prior)
    outputs = []
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"cpus{n}.txt"
        argv = ["train", "--data", data, "--rounds", "6", *RUNS[run], "--out", str(out)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert len(forks) == n - 1
        outputs.append((out.read_bytes(), (tmp_path / f"cpus{n}.txt.stats.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert no_children_left()


class TestReduction:
    @pytest.fixture
    def space(self):
        X, y = features(2)
        return StumpSearchSpace(X).split(y)

    def searches(self, space, D, smoothing=1e-4):
        with SearchSibling(space) as sibling:
            found = [
                (_best_binary(space, D, D), _best_binary(space, D, D, sibling)),
                (_best_confidence(space, D, D, smoothing),
                 _best_confidence(space, D, D, smoothing, sibling)),
            ]
        assert no_children_left()
        return found

    def test_the_cut_balances_the_candidates(self, space):
        with SearchSibling(space) as sibling:
            assert sibling.cut == len(space.blocks) // 2

    @pytest.mark.parametrize("side", [-1, 0])
    def test_the_block_on_either_side_of_the_cut_is_scanned(self, side):
        # the label follows the last parent feature or the first sibling one
        X, _ = features(3)
        j = D // 2 + side
        y = np.where(X[:, j] > 0.1, 1.0, -1.0)
        space = StumpSearchSpace(X).split(y)
        for serial, split in self.searches(space, distribution(3)):
            assert split == serial
            stump = split[0] if isinstance(split, tuple) else split
            assert stump.feature_index == j

    def test_a_tie_across_the_cut_goes_to_the_parent(self):
        # feature 15, scanned by the sibling, is a copy of feature 0
        X, _ = features(4)
        X[:, 15] = X[:, 0]
        y = np.where(X[:, 0] > 0.1, 1.0, -1.0)
        space = StumpSearchSpace(X).split(y)
        for serial, split in self.searches(space, distribution(4)):
            assert split == serial
            stump = split[0] if isinstance(split, tuple) else split
            assert stump.feature_index == 0

    def test_all_infinite_surrogates_pick_the_first_candidate(self, space):
        D = distribution(5)
        found = []
        for use_sibling in (False, True):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with SearchSibling(space) as sibling:
                    stump = _best_confidence(space, D, D, 1e306, sibling if use_sibling else None)
            shown = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
            found.append((stump, shown))
        assert found[0] == found[1]
        stump, shown = found[1]
        assert (stump.feature_index, stump.threshold) == (0, float(space.thresholds[0][0]))
        assert len(shown) == 2 * len(space.blocks)
        assert all(category is RuntimeWarning and "overflow" in message
                   for category, message, _, _ in shown)
        assert no_children_left()


class TestWhenTheSiblingRuns:
    def test_small_searches_never_fork(self, cpus, forks):
        # cde-5k's searches (5,000 rows, 4 continuous features: 20,000
        # candidates) and active-word's (at most 350 rows, 50 0/1 features:
        # at most 100) stay in one process
        cpus(2)
        rng = np.random.default_rng(6)
        X = rng.uniform(-1.0, 1.0, size=(5_000, 4))
        z = X[:, 0] + rng.normal(scale=0.3, size=5_000)
        train_cde(dataset(X, z), 2, BoostConfig(2, "logistic", StumpSearchConfig("confidence")))
        X = (rng.uniform(size=(350, 50)) < 0.3).astype(float)
        y = np.where(X[:, 0] + X[:, 1] > 0.5, 1.0, -1.0)
        train(dataset(X, y), BoostConfig(3, stumps=StumpSearchConfig("confidence")))
        assert forks == []

    def test_no_fork_with_one_cpu_or_another_thread(self, cpus, forks):
        X, y = features(7)
        ds, cfg = dataset(X, y), BoostConfig(2)
        cpus(1)
        serial = train(ds, cfg)
        cpus(2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            threaded = train(ds, cfg)
        finally:
            stop.set()
            thread.join()
        assert forks == []
        assert train(ds, cfg) == threaded == serial
        assert len(forks) == 1

    def test_a_failed_fork_searches_in_one_process(self, cpus, monkeypatch):
        X, y = features(11)
        ds, cfg = dataset(X, y), BoostConfig(2)
        cpus(1)
        serial = train(ds, cfg)
        cpus(2)

        def fail():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fail)
        with pytest.warns(RuntimeWarning, match="no sibling process"):
            assert train(ds, cfg) == serial


class TestNoProcessLeftBehind:
    def test_after_a_data_error(self, tmp_path, cpus, forks, capsys):
        # smoothing 0 and a pure side: round 1 raises in the parent
        X, _ = features(8)
        y = np.where(X[:, 3] > 0.0, 1.0, -1.0)
        data = write_csv(tmp_path / "train.csv", X, y)
        cpus(2)
        argv = ["train", "--data", data, "--rounds", "3", "--stumps", "confidence",
                "--smoothing", "0", "--out", str(tmp_path / "m.txt")]
        assert cli.main(argv) == 2
        assert "pure side" in capsys.readouterr().err
        assert len(forks) == 1
        assert no_children_left()

    @pytest.mark.parametrize("when", ["before the command", "during the parent's scan"])
    def test_after_the_sibling_is_killed(self, when, cpus, forks, monkeypatch):
        X, y = features(9)
        ds = dataset(X, y)
        cfg = BoostConfig(5, "logistic", StumpSearchConfig("confidence"))
        cpus(1)
        expected = train(ds, cfg)
        cpus(2)
        parent = os.getpid()
        calls = []

        def kill_on_the_third(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args):
                if os.getpid() == parent and (name != "_scan" or args[1] == 0):
                    calls.append(name)
                    if len(calls) == 3:
                        os.kill(forks[-1], signal.SIGKILL)
                return fn(*args)

            monkeypatch.setattr(owner, name, wrapper)

        if when == "before the command":
            kill_on_the_third(boosting, "_best_confidence")
        else:
            kill_on_the_third(stumps, "_scan")
        with pytest.warns(RuntimeWarning, match="sibling process stopped"):
            assert train(ds, cfg) == expected
        assert len(forks) == 1
        assert no_children_left()

    def test_after_a_run(self, cpus, forks):
        X, y = features(10)
        cpus(2)
        train(dataset(X, y), BoostConfig(2))
        assert len(forks) == 1
        assert no_children_left()
