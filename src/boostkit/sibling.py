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
import pickle
import struct
import warnings

import numpy as np

from . import stumps

# the sibling's fixed-size reply per search mode (0 binary, 1 confidence):
# stumps._scan's best (value, block index, candidate, then the orientation
# or the four masses) and the size of the pickled warnings that follow it
_REPLIES = (struct.Struct("=dqq?I"), struct.Struct("=dqq4dI"))
# the parent's command: mode, whether w_pos is w_neg, smoothing
_COMMAND = struct.Struct("=B?d")


def _read(fd: int, n: int) -> bytes:
    """Exactly n bytes from fd; EOFError if it closes first."""
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class SearchSibling:
    """A forked process that scans the blocks of a search space from ``cut`` on.

    Blocks are independent, so two processes can scan their halves of each
    round's search at once (the GIL serializes threads between the numpy
    calls). The sibling is forked once per training run, after the space is
    built, and holds the space as the fork left it. ``cut`` balances the two
    halves by candidate count. Each round the parent copies the masses into
    an anonymous shared mmap made before the fork (``D`` once when it is both
    ``w_pos`` and ``w_neg``), and writes a fixed-size command (mode, whether
    the masses are one array, smoothing) down one pipe. The sibling scans
    its blocks, recording warnings as they come, and writes back its best in
    a fixed-size reply followed by the warnings, pickled; the parent issues
    them again after its own blocks' warnings, in the order of the
    sequential scan. The sibling runs with the cyclic GC off and leaves only
    through ``os._exit``: when the parent closes the command pipe, or when
    anything fails. A sibling that stops answering is reaped, with a
    ``RuntimeWarning``, and the parent scans its blocks itself.
    """

    def __init__(self, space: stumps.StumpSearchSpace):
        counts = np.cumsum([block.thresholds.shape[0] for block in space.blocks])
        self.cut = 1 + int(np.abs(2 * counts[:-1] - counts[-1]).argmin())
        m = space.blocks[0].orders.shape[1]
        self._buf = mmap.mmap(-1, 16 * m)
        self._pos = np.frombuffer(self._buf, np.float64, m)
        self._neg = np.frombuffer(self._buf, np.float64, m, 8 * m)
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
            _sibling_main(space, self.cut, self._pos, self._neg, commands, replies)
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
        try:
            _write(self._commands, _COMMAND.pack(mode, shared, smoothing))
        except OSError:
            self._stopped()
            return False
        return True

    def receive(self, mode: int) -> tuple | None:
        """The sibling's best, its warnings issued here; None if it stopped."""
        reply = _REPLIES[mode]
        try:
            *best, size = reply.unpack(_read(self._replies, reply.size))
            shown = pickle.loads(_read(self._replies, size)) if size else ()
        except (OSError, EOFError):
            self._stopped()
            return None
        # the warnings came from stumps' code, where the serial scan issues them
        registry = vars(stumps).setdefault("__warningregistry__", {})
        for text, category, filename, lineno in shown:
            warnings.warn_explicit(text, category, filename, lineno, stumps.__name__, registry)
        return tuple(best)

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
        self._pos = self._neg = None
        self._buf.close()


def _sibling_main(space, lo, w_pos, w_neg, commands, replies):
    """The sibling's life: scan blocks lo and on for each command, then os._exit."""
    code = 1
    try:
        gc.disable()
        _keep_heap()
        n = len(space.blocks)
        while True:
            try:
                command = _read(commands, _COMMAND.size)
            except EOFError:
                code = 0
                break
            mode, shared, smoothing = _COMMAND.unpack(command)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                best = stumps._scan(space, lo, n, mode, w_pos, w_pos if shared else w_neg, smoothing)
            shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
            shown = pickle.dumps(shown) if shown else b""
            _write(replies, _REPLIES[mode].pack(*best, len(shown)) + shown)
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
