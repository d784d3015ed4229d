"""Forked sibling processes: the stump search's second scanner and the job worker.

``SearchSibling`` scans a search space's blocks from ``cut`` on each round;
``run_jobs`` gives a share of independent jobs to a child. Both share one
gate (``may_fork``), fork and reap (``_Sibling``), and are imported only where
a caller may fork. A child runs with every warning raised as an error and
hands back only what it computed silently; the parent does the rest itself,
in the serial order, so warnings and errors come as in one process. A child
inherits the parent's numpy error state, runs with the cyclic GC off and the
heap kept, and leaves only through ``os._exit``. One that stops answering is
reaped with a ``RuntimeWarning``, and the parent does its part.
"""

from __future__ import annotations

import contextlib
import gc
import mmap
import os
import pickle
import threading
import warnings

import numpy as np

from . import stumps

# A job list whose child would get less work than this (cell-rounds, see
# run_jobs) runs in one process. The measured crossover: 4 breakpoints of
# `cde train` at m = 1,000 and d = 4 took 0.98-1.15x the serial time with
# 40,000 cell-rounds in the child, and 0.71x with 80,000.
_JOBS_MIN_WORK = 2**17


def may_fork() -> bool:
    """``os.fork``, 2 CPUs, no other Python thread (one holding a lock at the fork
    would leave it held in the child), and no sibling open here or in a parent."""
    return (not _Sibling.busy and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


class _Sibling:
    """A forked child running ``child(from_parent, to_parent)``; ``close`` kills and reaps it."""

    # True in a child, and in a parent while its sibling is open: neither forks
    # again, so a job child and its parent search serially
    busy = False

    def __init__(self, what: str, child):
        self.what = what
        down, self._down = os.pipe()
        self._up, up = os.pipe()
        try:
            self.pid = os.fork()
        except OSError as exc:  # out of memory or processes, say: work in one process
            self.pid = None
            for fd in (down, self._down, self._up, up):
                os.close(fd)
            warnings.warn(f"no sibling process for {what}: {exc}", RuntimeWarning)
            return
        if self.pid == 0:
            os.close(self._down)
            os.close(self._up)
            _child_life(child, down, up)
        os.close(down)
        os.close(up)
        _Sibling.busy = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _stopped(self) -> None:
        self.close()
        warnings.warn(f"{self.what}'s sibling process stopped answering; "
                      "this process does its part", RuntimeWarning)

    def close(self) -> None:
        if self.pid is None:
            return
        pid, self.pid, _Sibling.busy = self.pid, None, False
        os.close(self._down)
        os.close(self._up)
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, 9)  # SIGKILL; the signal module would cost its enums' memory
        with contextlib.suppress(ChildProcessError):  # reaped already
            os.waitpid(pid, 0)


def _child_life(child, down: int, up: int):
    code = 1
    try:
        _Sibling.busy = True
        gc.disable()
        stumps._keep_heap()
        warnings.simplefilter("error")
        child(down, up)
        code = 0
    finally:
        os._exit(code)


class SearchSibling(_Sibling):
    """A process forked once per training run that scans the space's blocks from ``cut`` on.

    ``cut`` balances the halves by candidate count. Each round the parent
    fills a shared mmap with both mass vectors (``D`` once when it is both)
    and the smoothing, and writes one command byte: the mode, and whether the
    masses are one array. The sibling puts its best into the mmap's slots and
    answers with one byte, their count, or 0 when its scan warned or raised.
    """

    def __init__(self, space: stumps.StumpSearchSpace):
        counts = np.cumsum([block.thresholds.shape[0] for block in space.blocks])
        self.cut = 1 + int(np.abs(2 * counts[:-1] - counts[-1]).argmin())
        m = space.blocks[0].orders.shape[1]
        # w_pos, w_neg, the smoothing and at most 7 values of a best
        self._buf = mmap.mmap(-1, 8 * (2 * m + 8))
        doubles = np.frombuffer(self._buf, np.float64)
        self._pos, self._neg, self._slots = doubles[:m], doubles[m : 2 * m], doubles[2 * m :]
        super().__init__("the stump search", lambda commands, replies: _scan_for_commands(
            space, self.cut, self._pos, self._neg, self._slots, commands, replies))

    def send(self, mode: int, w_pos: np.ndarray, w_neg: np.ndarray, smoothing: float) -> bool:
        """Start the sibling's scan of these masses; False if it has stopped."""
        if self.pid is None:
            return False
        shared = w_pos is w_neg
        self._pos[:] = w_pos
        if not shared:
            self._neg[:] = w_neg
        self._slots[0] = smoothing
        try:
            os.write(self._down, bytes([mode | shared << 1]))
        except OSError:
            self._stopped()
            return False
        return True

    def receive(self) -> tuple | None:
        """The sibling's best as ``stumps._scan`` gives it; None if this process must scan its blocks."""
        try:
            reply = os.read(self._up, 1)
        except OSError:
            reply = b""
        if not reply:
            self._stopped()
            return None
        if not reply[0]:  # its scan warned or raised
            return None
        value, k, c, *rest = self._slots[1 : 1 + reply[0]].tolist()
        return (value, int(k), int(c), *rest)


def _scan_for_commands(space, lo, w_pos, w_neg, slots, commands, replies):
    """Scan blocks lo and on for each command byte until the command pipe closes."""
    n = len(space.blocks)
    while command := os.read(commands, 1):
        mode, shared = command[0] & 1, command[0] >> 1
        try:
            best = stumps._scan(space, lo, n, mode, w_pos, w_pos if shared else w_neg, slots[0])
        except Exception:  # warnings included
            best = ()
        slots[1 : 1 + len(best)] = best
        os.write(replies, bytes([len(best)]))


class _JobSibling(_Sibling):
    """A forked process that runs ``run(i)`` for each i of ``theirs`` in order and writes
    each result's pickle after its length in 8 bytes (none if the job warned or raised)."""

    def __init__(self, run, theirs: list[int]):
        super().__init__("the job list", lambda _, up: _send_results(run, theirs, up))
        if self.pid is not None:  # a buffered reader loops until it has what it asks for
            self._results = os.fdopen(self._up, "rb", closefd=False)

    def receive(self) -> tuple | None:
        """The next result as a 1-tuple; None if this process must run that job."""
        if self.pid is None:
            return None
        try:
            head = self._results.read(8)
            blob = self._results.read(int.from_bytes(head, "little")) if len(head) == 8 else b""
        except OSError:
            head = blob = b""
        if len(head) < 8 or len(blob) < int.from_bytes(head, "little"):
            self._stopped()
            return None
        return (pickle.loads(blob),) if blob else None


def _send_results(run, theirs, up):
    with os.fdopen(up, "wb") as out:
        for i in theirs:
            try:
                blob = pickle.dumps(run(i), pickle.HIGHEST_PROTOCOL)
            except Exception:  # warnings included: the parent runs job i itself
                blob = b""
            out.write(len(blob).to_bytes(8, "little") + blob)
            out.flush()


def run_jobs(fn, args, work: list[int], **kwargs) -> list:
    """``[fn(*args(i), **kwargs) for i in range(len(work))]``, a share of the jobs in a forked child.

    Jobs must be independent. ``work[i]`` is job i's cost in cell-rounds
    (rows x features x rounds trained, plus rows x rounds scored). In job
    order, each job goes to the side with less work so far, the parent on a
    tie. All run here if the child's share is below ``_JOBS_MIN_WORK``, if
    ``fn`` is a ``functools.wraps`` wrapper (a tracer's, whose records a
    child would lose) or if ``may_fork`` says no. The parent walks the jobs
    in order: it runs its own and takes the child's results as it reaches
    them, running itself any the child did not finish silently.
    """
    mine, load = [], [0, 0]
    for w in work:
        mine.append(load[0] <= load[1])
        load[not mine[-1]] += w
    if load[1] < _JOBS_MIN_WORK or hasattr(fn, "__wrapped__") or not may_fork():
        return [fn(*args(i), **kwargs) for i in range(len(work))]
    theirs = [i for i, own in enumerate(mine) if not own]
    with _JobSibling(lambda i: fn(*args(i), **kwargs), theirs) as child:
        results = []
        for i, own in enumerate(mine):
            got = None if own else child.receive()
            results.append(fn(*args(i), **kwargs) if got is None else got[0])
        return results
