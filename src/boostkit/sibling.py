"""The stump search's sibling process: a forked second scanner of a search space's blocks.

``stumps.search_sibling`` decides when a training run gets one and imports
this module only then. The sibling scans the blocks from ``cut`` on with
``stumps._scan``, the parent those before, and ``stumps._search`` reduces the
two bests by the sequential rule.
"""

from __future__ import annotations

import ctypes
import gc
import mmap
import os
import warnings

import numpy as np

from . import stumps


class SearchSibling:
    """A forked process that scans the blocks of a search space from ``cut`` on.

    Blocks are independent, so two processes can scan their halves of each
    round's search at once (the GIL serializes threads between the numpy
    calls). The sibling is forked once per training run, after the space is
    built, and holds the space as the fork left it. ``cut`` balances the two
    halves by candidate count. One anonymous shared mmap, made before the
    fork, holds both mass vectors (``D`` once when it is both ``w_pos`` and
    ``w_neg``), the smoothing, and slots for the sibling's best: value,
    block index and candidate (exact as doubles), then the orientation or
    the four masses. Each round the parent fills it and writes one command
    byte (the mode, and whether the masses are one array); the sibling scans
    its blocks and answers with one byte, the number of values it put in the
    slots.

    The sibling answers only with a best it computed silently. It runs with
    every warning raised as an error, and a scan that raises or warns
    answers 0: the parent then scans those blocks itself, after its own, so
    every warning and error comes where and in the order the sequential scan
    gives it. The sibling inherits the parent's numpy error state at the
    fork, so a floating-point condition the parent ignores raises nothing
    there. It runs with the cyclic GC off and leaves only through
    ``os._exit``: when the parent closes the command pipe, or when anything
    else fails. A sibling that stops answering is reaped, with a
    ``RuntimeWarning``, and the parent scans its blocks itself.
    """

    def __init__(self, space: stumps.StumpSearchSpace):
        counts = np.cumsum([block.thresholds.shape[0] for block in space.blocks])
        self.cut = 1 + int(np.abs(2 * counts[:-1] - counts[-1]).argmin())
        m = space.blocks[0].orders.shape[1]
        # w_pos, w_neg, the smoothing and at most 7 values of a best
        self._buf = mmap.mmap(-1, 8 * (2 * m + 8))
        doubles = np.frombuffer(self._buf, np.float64)
        self._pos, self._neg, self._slots = doubles[:m], doubles[m : 2 * m], doubles[2 * m :]
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        try:
            self.pid = os.fork()
        except OSError as exc:  # out of memory or processes, say: search in one process
            self.pid = None
            for fd in (commands, self._commands, self._replies, replies):
                os.close(fd)
            warnings.warn(f"no sibling process for the stump search: {exc}", RuntimeWarning)
            return
        if self.pid == 0:
            os.close(self._commands)
            os.close(self._replies)
            _sibling_main(space, self.cut, self._pos, self._neg, self._slots, commands, replies)
        os.close(commands)
        os.close(replies)

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
            os.write(self._commands, bytes([mode | shared << 1]))
        except OSError:
            self._stopped()
            return False
        return True

    def receive(self) -> tuple | None:
        """The sibling's best as ``stumps._scan`` gives it; None if this process must scan its blocks."""
        try:
            reply = os.read(self._replies, 1)
        except OSError:
            reply = b""
        if not reply:
            self._stopped()
            return None
        if not reply[0]:  # its scan warned or raised
            return None
        value, k, c, *rest = self._slots[1 : 1 + reply[0]].tolist()
        return (value, int(k), int(c), *rest)

    def __enter__(self) -> SearchSibling:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _stopped(self) -> None:
        self.close()
        warnings.warn("the stump search's sibling process stopped answering; "
                      "this process scans its blocks", RuntimeWarning)

    def close(self) -> None:
        """Close the pipes and reap the sibling; it exits on the closed command pipe."""
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        os.close(self._commands)
        os.close(self._replies)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already
            pass
        self._pos = self._neg = self._slots = None
        self._buf.close()


def _sibling_main(space, lo, w_pos, w_neg, slots, commands, replies):
    """The sibling's life: scan blocks lo and on for each command byte, then os._exit."""
    code = 1
    try:
        gc.disable()
        _keep_heap()
        warnings.simplefilter("error")
        n = len(space.blocks)
        while command := os.read(commands, 1):
            mode, shared = command[0] & 1, command[0] >> 1
            try:
                best = stumps._scan(space, lo, n, mode, w_pos, w_pos if shared else w_neg, slots[0])
            except Exception:  # warnings included
                best = ()
            slots[1 : 1 + len(best)] = best
            os.write(replies, bytes([len(best)]))
        code = 0
    finally:
        os._exit(code)


def _keep_heap() -> None:
    """Keep glibc from returning freed heap memory to the OS in this process.

    Each round the sibling allocates and frees the same block temporaries.
    Depending on the heap state the fork left, glibc either reuses them or
    trims them from the top of the heap (or maps each one afresh) and faults
    the pages in again: at m = 20,000 and d = 4 that was 56,000 faults per
    100 rounds, and the parent waited on them. The sibling lives for one
    training run, so it keeps what it allocates. Without glibc, nothing is
    changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 2**30)  # M_TRIM_THRESHOLD
    mallopt(-3, 2**25)  # M_MMAP_THRESHOLD, at its 64-bit maximum
