"""The stump search's sibling process gives the sequential scan's results,
and the job child gives those of the serial job loop.

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

from boostkit import boosting, cli, density, sibling, stumps
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
from test_bench_tracing import load_tracing

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


class TestWhatTheSiblingCannotComputeSilently:
    """A sibling's scan that raises or warns hands its blocks back to the parent."""

    ROUNDS = 3

    @pytest.fixture
    def runs(self, cpus, monkeypatch):
        """Train with act(block) before each block's search, serially and split."""
        X, y = features(12)
        ds = dataset(X, y)
        cfg = BoostConfig(self.ROUNDS, "logistic", StumpSearchConfig("confidence"))

        def run(act):
            def wrap(block_best):
                def wrapper(block, *args):
                    act(block)
                    return block_best(block, *args)

                return wrapper

            # patched before train forks, so the sibling's blocks act too
            monkeypatch.setattr(stumps, "_BLOCK_BEST", tuple(map(wrap, stumps._BLOCK_BEST)))
            outcomes = []
            for n in (1, 2):
                cpus(n)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        result = train(ds, cfg)
                    except MemoryError as exc:
                        result = exc
                shown = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
                outcomes.append((result, shown))
            return outcomes

        return run

    def test_a_raising_block_raises_as_in_one_process(self, runs, forks):
        def act(block):
            if block.start == D - 1:  # the sibling's last block
                raise MemoryError(f"no memory for block {block.start}")

        (serial, serial_shown), (split, split_shown) = runs(act)
        assert type(serial) is type(split) is MemoryError
        assert str(serial) == str(split) == f"no memory for block {D - 1}"
        # no "stopped answering" warning: the sibling answered
        assert serial_shown == split_shown == []
        assert len(forks) == 1
        assert no_children_left()

    def test_warning_blocks_warn_as_in_one_process(self, runs, forks):
        # block 0 is the parent's, the others the sibling's first and last
        def act(block):
            if block.start in (0, D // 2, D - 1):
                warnings.warn(f"block {block.start}", RuntimeWarning)

        (serial, serial_shown), (split, split_shown) = runs(act)
        assert split == serial
        assert split_shown == serial_shown
        assert [text for _, text, _, _ in split_shown] == (
            ["block 0", f"block {D // 2}", f"block {D - 1}"] * self.ROUNDS)
        assert len(forks) == 1
        assert no_children_left()


# ---------------------------------------------------------------------------
# The job worker: `cde train`'s breakpoints and `active`'s series, split
# between the parent and one forked child (``sibling.run_jobs``)


def regression_csv(path, seed, m=1_000, d=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(m, d))
    return write_csv(path, X, X[:, 0] + rng.normal(scale=0.3, size=m))


def word_csvs(tmp_path, seed, pool=400, test=200, d=20):
    rng = np.random.default_rng(seed)
    X = (rng.uniform(size=(pool + test, d)) < 0.3).astype(float)
    y = np.where(X[:, 0] + X[:, 1] - X[:, 2] + rng.normal(scale=0.3, size=pool + test) > 0.5,
                 1.0, -1.0)
    return (write_csv(tmp_path / "pool.csv", X[:pool], y[:pool]),
            write_csv(tmp_path / "test.csv", X[pool:], y[pool:]))


def cde_argv(data, out, rounds=20):
    # 4 breakpoints of 20 rounds at m = 1,000 and d = 4: 160,000 cell-rounds
    # for the child, above the work gate
    return ["cde", "train", "--data", data, "--k", "4", "--rounds", str(rounds),
            "--out", str(out)]


def active_argv(pool, test, out, iterations=6, rounds=10):
    # 2 strategies x 2 seeds of 7 retrains at m = 100..400 over 20 features
    return ["active", "--data", pool, "--test", test, "--strategy", "both", "--init", "100",
            "--batch", "50", "--iterations", str(iterations), "--seeds", "0,1",
            "--rounds", str(rounds), "--out", str(out)]


def cde_dataset(seed, m=1_000, d=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(m, d))
    return dataset(X, X[:, 0] + rng.normal(scale=0.3, size=m))


CDE_CFG = BoostConfig(20, "logistic", StumpSearchConfig("confidence"))


def shown(caught):
    return [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


class TestJobOutputs:
    @pytest.mark.parametrize("command", ["cde train", "active"])
    def test_artifacts_identical_with_one_and_two_cpus(self, command, tmp_path, cpus, forks,
                                                       capsys):
        outputs = []
        for n in (1, 2):
            cpus(n)
            out = tmp_path / f"cpus{n}.out"
            if command == "cde train":
                argv = cde_argv(regression_csv(tmp_path / "reg.csv", 20), out)
            else:
                argv = active_argv(*word_csvs(tmp_path, 21), out)
            assert cli.main(argv) == 0, capsys.readouterr().err
            assert len(forks) == n - 1
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert no_children_left()

    def test_each_job_runs_once_and_results_keep_the_job_order(self, tmp_path, cpus, forks):
        log = tmp_path / "jobs.log"

        def job(i):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {i}\n")
            return [i] * (i + 1)

        cpus(2)
        work = [sibling._JOBS_MIN_WORK] * 5
        assert sibling.run_jobs(job, lambda i: (i,), work) == [[i] * (i + 1) for i in range(5)]
        ran = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(i) for _, i in ran) == list(range(5))
        # in job order, each job goes to the side with less work so far
        by_pid = {pid: [int(i) for p, i in ran if p == pid] for pid, _ in ran}
        assert by_pid == {str(os.getpid()): [0, 2, 4], str(forks[0]): [1, 3]}
        assert no_children_left()


class TestJobWarningsAndErrors:
    def test_a_warning_job_warns_as_in_one_process(self, tmp_path, cpus, forks, capsys):
        # 380 rows: each uncertainty series' last query finds 30 rows left
        # for a batch of 50 and warns, in the parent (seed 0) and in the
        # child (seed 1), which hands that series back
        pool, test = word_csvs(tmp_path, 22, pool=380)
        outcomes = []
        for n in (1, 2):
            cpus(n)
            out = tmp_path / f"cpus{n}.csv"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(active_argv(pool, test, out)) == 0, capsys.readouterr().err
            outcomes.append((out.read_bytes(), shown(caught)))
        assert outcomes[0] == outcomes[1]
        assert [text for _, text, _, _ in outcomes[1][1]] == [
            "only 30 unlabeled examples remain; returning all"] * 2
        assert len(forks) == 1
        assert no_children_left()

    def test_a_raising_job_raises_as_in_one_process(self, cpus, forks, monkeypatch):
        ds = cde_dataset(23)
        second = np.where(ds.labels >= density.choose_breakpoints(ds.labels, 4).values[1],
                          1.0, -1.0)
        train = density.train

        def train_or_raise(job, cfg, **kwargs):  # breakpoint 1 is the child's
            if np.array_equal(job.labels, second):
                raise MemoryError("no memory for breakpoint 1")
            return train(job, cfg, **kwargs)

        monkeypatch.setattr(density, "train", train_or_raise)
        for n in (1, 2):
            cpus(n)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(MemoryError, match="no memory for breakpoint 1"):
                    train_cde(ds, 4, CDE_CFG)
            assert shown(caught) == []
        assert len(forks) == 1
        assert no_children_left()

    def test_a_killed_child_leaves_its_jobs_to_the_parent(self, cpus, forks, monkeypatch):
        ds = cde_dataset(24)
        cpus(1)
        expected = train_cde(ds, 4, CDE_CFG)
        cpus(2)
        parent, train = os.getpid(), density.train

        def kill_first(*args, **kwargs):  # before the parent's first job
            if os.getpid() == parent and len(forks) == 1:
                os.kill(forks.pop(), signal.SIGKILL)
            return train(*args, **kwargs)

        monkeypatch.setattr(density, "train", kill_first)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = train_cde(ds, 4, CDE_CFG)
        assert (got.classifiers, got.constant_flags) == (expected.classifiers,
                                                         expected.constant_flags)
        assert [(category, text) for category, text, _, _ in shown(caught)] == [
            (RuntimeWarning, "the job list's sibling process stopped answering; "
                             "this process does its part")]
        assert no_children_left()


class TestWhenTheJobChildRuns:
    def test_runs_under_the_work_gate_never_fork(self, tmp_path, cpus, forks, capsys):
        cpus(2)
        # 4 breakpoints of 16 rounds over 4 features: the child's 2 get
        # 2 * 16 * 4 * m cell-rounds, 2**17 at m = 1,024
        for m, forked in ((1_024, 1), (1_023, 0)):
            argv = cde_argv(regression_csv(tmp_path / "reg.csv", 25, m=m), tmp_path / "m.txt",
                            rounds=16)
            assert cli.main(argv) == 0, capsys.readouterr().err
            assert len(forks) == forked
            forks.clear()
        argv = active_argv(*word_csvs(tmp_path, 25), tmp_path / "c.csv", iterations=2, rounds=2)
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert forks == []
        assert no_children_left()

    def test_no_search_sibling_in_a_job_child_or_its_parent(self, tmp_path, cpus, monkeypatch):
        # 2 breakpoints whose searches alone would each fork a search sibling
        log = tmp_path / "forks.log"
        fork = os.fork

        def logged():
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", logged)
        cpus(2)
        X, _ = features(26)
        z = X[:, 0] + np.random.default_rng(26).normal(scale=0.3, size=M)
        model = train_cde(dataset(X, z), 2, BoostConfig(3, "logistic",
                                                        StumpSearchConfig("confidence")))
        assert model.k == 2 and not any(model.constant_flags)
        assert log.read_text().split() == [str(os.getpid())]
        assert no_children_left()

    def test_a_traced_run_stays_in_one_process_and_counts_as_serial(self, tmp_path, cpus, forks,
                                                                    capsys):
        data = regression_csv(tmp_path / "reg.csv", 27)
        counters = []
        for n in (1, 2):
            cpus(n)
            tracing = load_tracing()
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                code = tracer.span("cli.cde", 0, cli.main, cde_argv(data, tmp_path / "m.txt"))
            finally:
                tracer.uninstall()
            assert code == 0, capsys.readouterr().err
            counters.append(dict(tracer.counters))
        assert forks == []
        assert counters[0] == counters[1]
        assert counters[1]["stumps.search_calls"] == 4 * 20
