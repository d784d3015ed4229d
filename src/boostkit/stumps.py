"""Threshold decision stumps and their weighted search.

A stump tests one feature against one threshold; values with
``x[feature] <= threshold`` go left (ties included), the rest go right, and
each side carries one real-valued output. Binary stumps restrict the outputs
to {-1, +1} and are searched by minimum weighted error. Confidence-rated
stumps get each side's output from the smoothed log-odds of the weighted
label masses, and are searched by the normalizer surrogate
``2*sqrt((W+ + s)(W- + s))`` summed over both sides.

Candidate thresholds for a feature are the midpoints between consecutive
distinct sorted values, plus one threshold below the minimum (empty left
side). Ties between candidates are broken deterministically: lowest feature
index, then lowest threshold, then the orientation with
left_output <= right_output. Any parallel or reordered scan must reduce with
the same rule so results match the sequential one.

The search works on per-row label masses: ``w_pos[i]`` and ``w_neg[i]``
are the masses on labels +1 and -1 at row i. Features are sorted once per
training run and scanned in blocks of consecutive features: groups of
``max(1, 2**14 // m)`` features, each cut in order into blocks of at most
2**12 candidate thresholds (and at least one feature). Both bounds come
from the input.

Each block folds each label's masses over a row set of its own. A
distribution D over labeled rows puts each row's mass on its own label
only, so ``StumpSearchSpace.split`` gives the +1 side the positive rows and
the -1 side the negative rows, and D itself serves as both ``w_pos`` and
``w_neg``. Every feature holds the same rows, so per block and side one
gather ``w[orders]`` builds a ``(features, n)`` array for the side's n rows
and one ``cumsum`` along the rows gives every prefix mass; a count map,
fixed for the training run, sends each candidate to the column of its
side's rows left of its threshold. Training with a prior puts mass on both
labels of a row, so it searches the unsplit space, where both sides hold
every row. A side that holds every row reads a tie-free block's prefix sums
in place (a block whose features each have m distinct values, so that the
candidates are the m prefix positions of every feature), and the right
masses are the totals minus those by broadcasting; a block with ties (0/1
features, say) pulls its candidates' left masses out through one
precomputed flat index per candidate. Then one ``argmin`` over the block's
candidates (feature-major, thresholds ascending) picks its first minimum; a
binary search takes it over the smaller of each candidate's two orientation
errors and decides the winner's orientation once. Blocks are then reduced
in feature order, and a later block replaces the best so far only if it is
strictly smaller, so ties across a block boundary keep the lower feature.

Stumps and errors are bit for bit those of a scan one feature at a time
over every row. Each feature's prefix sums add its sorted masses in the
same order; a split side only skips the other label's rows, whose mass on
its label is +0.0. Now x + (-0.0) = x always, and x + (+0.0) = x unless x
is -0.0, so a skipped add can only turn a running sum of -0.0 into +0.0:
sums of either kind agree up to the sign of a zero. No such sign reaches a
result: comparisons treat -0.0 and +0.0 as equal, a confidence output
depends on a side's mass only through ``w + s`` and the tests
``num == den`` and ``== 0``, and an error of -0.0 needs a side total of
-0.0, and then the first candidate of every block has an error of +0.0,
which comes first. So plain training does one gather and one add per
(feature, row) per round, across both sides, and prior training two.

Blocks are independent, so one search can run in two processes. For a
large search (at least ``_SIBLING_MIN_CANDIDATES`` candidates in at least 2
blocks) on at least 2 CPUs, ``train`` forks a sibling process once the space
is built (``search_sibling``; the process itself is ``boostkit.sibling``,
imported only then). Each round the sibling scans the blocks from
``cut`` on while the parent scans those before, and the parent keeps its own
best unless the sibling's is strictly smaller: the rule between any two
blocks. Each block's sums are the same in either process, so stumps and
errors are those of the sequential scan bit for bit. The sibling answers
only with a best it computed without a warning or an error; otherwise the
parent scans the sibling's blocks after its own, so warnings and errors
come as the sequential scan gives them.

The bounds only keep a block's working set cache-sized: as one ``(d, m)``
array it spills out of cache. A block of several continuous features has
about as many candidates as cells, and without the candidate bound its
per-candidate temporaries are large enough that the C allocator hands them
back to the OS and faults them in again on every round. ``_keep_heap`` keeps
the allocator from handing freed memory back at all, in the processes that
are programs of their own: the forked siblings and the ``boostkit`` program
(``cli.entry_point``).
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError

if TYPE_CHECKING:
    from .sibling import SearchSibling

# bounds on one block's (features, m) cells and its candidate thresholds;
# see StumpSearchSpace
_BLOCK_CELLS = 2**14
_BLOCK_CANDIDATES = 2**12
# a search over fewer candidates than this runs in one process (see
# search_sibling): near the measured crossover, where the trainings of `cde
# train` at m = 5,000, each with a sibling, took 0.97x the serial time at
# 65,000 candidates and 1.03x at 40,000. `cde train` and `active` now split
# whole trainings between two processes instead (sibling.run_jobs)
_SIBLING_MIN_CANDIDATES = 2**16


@dataclass(frozen=True)
class Stump:
    """One-level decision rule with real-valued outputs."""

    feature_index: int
    threshold: float
    left_output: float
    right_output: float

    def __post_init__(self):
        if not (math.isfinite(self.left_output) and math.isfinite(self.right_output)):
            raise DataError("stump outputs must be finite")
        if not math.isfinite(self.threshold):
            raise DataError("stump threshold must be finite")

    @property
    def is_binary(self) -> bool:
        return abs(self.left_output) == 1.0 and abs(self.right_output) == 1.0

    def evaluate_matrix(self, X: np.ndarray) -> np.ndarray:
        """Outputs for every row of an (n, d) matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or not 0 <= self.feature_index < X.shape[1]:
            raise DataError(
                f"feature index {self.feature_index} out of range for {X.shape[1]} features"
            )
        return np.where(
            X[:, self.feature_index] <= self.threshold,
            self.left_output,
            self.right_output,
        )


@dataclass(frozen=True)
class StumpSearchConfig:
    """How the base learner searches: binary or confidence-rated outputs.

    smoothing=None means the default 1/(2m), which caps the magnitude of
    confidence-rated outputs on pure sides.
    """

    mode: str = "binary"
    smoothing: float | None = None

    def __post_init__(self):
        if self.mode not in ("binary", "confidence"):
            raise DataError(f"unknown stump mode {self.mode!r}")
        if self.smoothing is not None and not 0.0 <= self.smoothing < math.inf:
            raise DataError("smoothing must be finite and nonnegative")

    def resolve_smoothing(self, m: int) -> float:
        return 1.0 / (2.0 * m) if self.smoothing is None else float(self.smoothing)


class _FeatureBlock:
    """Features ``start`` to ``start + b - 1``, sorted once, with their candidates.

    ``orders[r]`` sorts the rows by feature ``start + r``; the constructor
    also takes ``v``, the sorted values. The block's candidates are listed
    feature by feature, each feature's by increasing threshold;
    ``candidates[r]`` counts feature ``start + r``'s. A block is tie-free
    when each of its features has m distinct values: its candidates are then
    the m prefix positions of every feature. Otherwise, for candidate c,
    ``left[c]`` indexes the flattened ``(b, m + 1)`` cumulative masses (row
    r, column = rows left of the threshold), so ``left[c] // (m + 1)`` is its
    row and column 0 is the empty left side of the below-minimum threshold.

    ``sides`` holds, for label +1 and then -1, the rows whose masses that
    side folds, as ``(orders, index)``: ``orders[r]`` lists them in feature
    ``start + r``'s sorted order, and ``index`` sends each candidate to its
    column of the side's ``(b, n + 1)`` cumulative masses, flattened (a
    ``(b, m)`` array for a tie-free block, one entry per candidate
    otherwise). A side that holds every row needs no map of its own: it
    reads a tie-free block's prefix sums in place (``index`` None) and
    shares ``left`` otherwise.
    """

    def __init__(self, start: int, orders: np.ndarray, v: np.ndarray):
        b, m = orders.shape
        self.start = start
        self.orders = orders
        gap = v[:, :-1] < v[:, 1:]
        row, pos = np.nonzero(gap)
        self.candidates = 1 + np.count_nonzero(gap, axis=1)
        first = np.cumsum(self.candidates) - self.candidates
        rest = np.ones(int(np.sum(self.candidates)), dtype=bool)
        rest[first] = False
        self.thresholds = np.empty(rest.shape[0])
        self.thresholds[first] = v[:, 0] - 1.0
        self.thresholds[rest] = (v[row, pos] + v[row, pos + 1]) / 2.0
        self.left = None
        if rest.shape[0] < b * m:
            self.left = np.empty(rest.shape[0], dtype=np.intp)
            self.left[first] = np.arange(b) * (m + 1)
            self.left[rest] = row * (m + 1) + pos + 1
        self.sides = ((orders, self.left),) * 2

    def feature(self, c: int) -> int:
        m = self.orders.shape[1]
        if self.left is None:
            return self.start + c // m
        return self.start + int(self.left[c]) // (m + 1)

    def split(self, pos: np.ndarray, n_pos: int) -> _FeatureBlock:
        """This block with each label side holding its own label's rows only.

        ``pos`` marks the rows labeled +1, ``n_pos`` of them. Every feature
        holds the same rows, so a side of n rows is a ``(b, n)`` order, and
        its count map is the running count of its rows along each feature's
        sorted order, read at each candidate's column.
        """
        b, m = self.orders.shape
        held = pos[self.orders]
        sides = []
        for mask, n in ((held, n_pos), (~held, m - n_pos)):
            if n == m:
                sides.append(self.sides[0])
                continue
            # count[r, p] = r * (n + 1) + the side's rows among feature r's
            # first p sorted rows: where their sum sits in the side's
            # flattened (b, n + 1) prefix sums
            count = np.empty((b, m + 1), dtype=np.intp)
            count[:, 0] = np.arange(b) * (n + 1)
            np.cumsum(mask, axis=1, out=count[:, 1:])
            count[:, 1:] += count[:, :1]
            index = count[:, :m].copy() if self.left is None else count.ravel()[self.left]
            sides.append((self.orders[mask].reshape(b, n), index))
        block = copy.copy(self)
        block.sides = tuple(sides)
        return block

    def masses(self, w_pos: np.ndarray, w_neg: np.ndarray):
        """Positive/negative label mass left and right of every candidate.

        Each side reads its mass vector at its own rows only. Candidate c's
        masses are element ``.flat[c]`` of each array: one ``(b, m)`` array
        per side for a tie-free block, one flat array per side otherwise.
        The right masses are new arrays the caller may overwrite.
        """
        b = self.orders.shape[0]
        sides = []
        for w, (orders, index) in zip((w_pos, w_neg), self.sides):
            n = orders.shape[1]
            cum = np.empty((b, n + 1))
            cum[:, 0] = 0.0
            w[orders].cumsum(axis=1, out=cum[:, 1:])
            left = cum[:, :n] if index is None else cum.ravel()[index]
            if self.left is None:
                right = cum[:, n:] - left
            else:
                right = cum[:, n].repeat(self.candidates)
                right -= left
            # right >= 0 without a clamp: every mass is >= 0 (-0.0 included),
            # and under round-to-nearest a running sum of such doubles never
            # decreases, so total - prefix is never below zero. It is -0.0
            # only where the side's total is -0.0 and the prefix the empty
            # +0.0, a sign no result sees (see the module docstring).
            sides.append((left, right))
        (wp_left, wp_right), (wn_left, wn_right) = sides
        return wp_left, wn_left, wp_right, wn_right


class StumpSearchSpace:
    """Sorted feature blocks shared across boosting rounds.

    Features are taken in order, ``max(1, 2**14 // m)`` at a time, and each
    such group is cut, in order, into blocks of at most 2**12 candidate
    thresholds (and at least one feature), so a block's ``(features, m)``
    arrays and its per-candidate arrays both stay cache-sized.
    ``thresholds[j]`` lists feature j's candidate thresholds (views into the
    blocks); candidate 0 is the below-minimum threshold.
    """

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        m, d = X.shape
        width = max(1, _BLOCK_CELLS // m)
        blocks = []
        for j in range(0, d, width):
            Xt = X[:, j : j + width].T
            orders = np.argsort(Xt, axis=1, kind="stable")
            v = np.take_along_axis(Xt, orders, axis=1)
            counts = 1 + np.count_nonzero(v[:, :-1] < v[:, 1:], axis=1)
            lo = 0
            while lo < counts.shape[0]:
                fits = int(np.searchsorted(np.cumsum(counts[lo:]), _BLOCK_CANDIDATES, side="right"))
                hi = lo + max(1, fits)
                blocks.append(_FeatureBlock(j + lo, orders[lo:hi], v[lo:hi]))
                lo = hi
        self.blocks = tuple(blocks)
        self.thresholds = [
            t
            for block in self.blocks
            for t in np.split(block.thresholds, np.cumsum(block.candidates)[:-1])
        ]

    def split(self, labels: np.ndarray) -> StumpSearchSpace:
        """This space with each label side folding its own label's rows only.

        For masses that sit on each row's own label alone, such as one
        distribution D over labeled rows, which can then be passed as both
        ``w_pos`` and ``w_neg``. The sort and the candidates are shared.
        """
        pos = np.asarray(labels) > 0.0
        n_pos = int(np.count_nonzero(pos))
        space = copy.copy(self)
        space.blocks = tuple(block.split(pos, n_pos) for block in self.blocks)
        return space


def _binary_block(block: _FeatureBlock, w_pos: np.ndarray, w_neg: np.ndarray, smoothing: float):
    """(error, candidate, orientation a) of the block's first least error; smoothing unused."""
    wp_left, wn_left, wp_right, wn_right = block.masses(w_pos, w_neg)
    # orientation a: left -1 / right +1 misclassifies left positives
    # and right negatives; orientation b is the flip.
    err_a = np.add(wn_right, wp_left, out=wn_right)
    err_b = np.add(wp_right, wn_left, out=wp_right)
    c = int(np.minimum(err_a, err_b).argmin())
    # a tie between the orientations goes to a
    use_a = bool(err_a.flat[c] <= err_b.flat[c])
    return float(err_a.flat[c] if use_a else err_b.flat[c]), c, use_a


def _confidence_block(block: _FeatureBlock, w_pos: np.ndarray, w_neg: np.ndarray, smoothing: float):
    """(half surrogate, candidate, its four masses) of the block's first least surrogate."""
    wp_left, wn_left, wp_right, wn_right = block.masses(w_pos, w_neg)
    # sqrt((W+ + s)(W- + s)) on the left + the same on the right: half
    # the surrogate Z. Doubling is exact and a finite z cannot overflow
    # by it, so the halves order the candidates, ties included, alike.
    z = np.add(wp_left, smoothing)
    t = np.add(wn_left, smoothing)
    z *= t
    np.sqrt(z, out=z)
    np.add(wp_right, smoothing, out=t)
    u = np.add(wn_right, smoothing)
    t *= u
    np.sqrt(t, out=t)
    z += t
    c = int(z.argmin())
    return (float(z.flat[c]), c,
            *(float(side.flat[c]) for side in (wp_left, wn_left, wp_right, wn_right)))


# the best of one block per search mode: 0 binary, 1 confidence
_BLOCK_BEST = (_binary_block, _confidence_block)


def _scan(space: StumpSearchSpace, lo: int, hi: int, mode: int, w_pos, w_neg, smoothing: float):
    """The best over blocks lo to hi - 1 as (value, block index, candidate, ...).

    A later block replaces the best so far only if its value is strictly
    smaller, so a tie across a block boundary keeps the lower feature. The
    first block's best stands whatever its value: a smoothing near 1e154 or
    above overflows every confidence surrogate to inf, and then all tie.
    """
    block_best = _BLOCK_BEST[mode]
    best = None
    for k in range(lo, hi):
        found = block_best(space.blocks[k], w_pos, w_neg, smoothing)
        if best is None or found[0] < best[0]:
            best = (found[0], k, *found[1:])
    return best


def _search(space: StumpSearchSpace, sibling: SearchSibling | None, mode: int,
            w_pos, w_neg, smoothing: float):
    """The best over every block of space; a sibling scans blocks cut and on.

    The sibling's best replaces this process's only if it is strictly
    smaller, the rule of the sequential scan, so the result is that scan's.
    """
    n = len(space.blocks)
    if sibling is None or not sibling.send(mode, w_pos, w_neg, smoothing):
        return _scan(space, 0, n, mode, w_pos, w_neg, smoothing)
    best = _scan(space, 0, sibling.cut, mode, w_pos, w_neg, smoothing)
    other = sibling.receive()
    if other is None:  # its scan warned or raised, or it stopped: scan its blocks here
        other = _scan(space, sibling.cut, n, mode, w_pos, w_neg, smoothing)
    return other if other[0] < best[0] else best


def _best_binary(
    space: StumpSearchSpace, w_pos: np.ndarray, w_neg: np.ndarray,
    sibling: SearchSibling | None = None,
) -> tuple[Stump, float]:
    err, k, c, use_a = _search(space, sibling, 0, w_pos, w_neg, 0.0)
    block = space.blocks[k]
    left, right = (-1.0, 1.0) if use_a else (1.0, -1.0)
    return Stump(block.feature(c), float(block.thresholds[c]), left, right), max(err, 0.0)


def confidence_output(w_pos: float, w_neg: float, smoothing: float) -> float:
    """Smoothed log-odds output for one side: 0.5*ln((W+ + s)/(W- + s)).

    Equal masses give 0 even at smoothing 0 (the symmetric limit); a pure
    side with smoothing 0 has no finite log-odds and is an error. Where the
    quotient of two positive masses rounds to 0 or overflows, the output is
    0.5*(ln(W+ + s) - ln(W- + s)), which is finite.
    """
    num = w_pos + smoothing
    den = w_neg + smoothing
    if num == den:
        return 0.0
    if den == 0.0 or num == 0.0:
        raise DataError(
            "pure side with smoothing=0 would give an infinite output; "
            "use positive smoothing"
        )
    ratio = num / den
    if ratio == 0.0 or ratio == math.inf:
        return 0.5 * (math.log(num) - math.log(den))
    return 0.5 * math.log(ratio)


def _best_confidence(
    space: StumpSearchSpace, w_pos: np.ndarray, w_neg: np.ndarray, smoothing: float,
    sibling: SearchSibling | None = None,
) -> Stump:
    _, k, c, wp_l, wn_l, wp_r, wn_r = _search(space, sibling, 1, w_pos, w_neg, smoothing)
    block = space.blocks[k]
    return Stump(
        block.feature(c),
        float(block.thresholds[c]),
        confidence_output(wp_l, wn_l, smoothing),
        confidence_output(wp_r, wn_r, smoothing),
    )


def search_sibling(space: StumpSearchSpace):
    """A ``sibling.SearchSibling`` for the searches of space, or a null context where it would not pay.

    It needs at least 2 blocks, ``_SIBLING_MIN_CANDIDATES`` candidates per
    search and ``sibling.may_fork``. It is entered with ``with``, which
    yields the sibling or None.
    """
    if (
        len(space.blocks) >= 2
        and sum(block.thresholds.shape[0] for block in space.blocks) >= _SIBLING_MIN_CANDIDATES
    ):
        from . import sibling  # imported only where a search may fork

        if sibling.may_fork():
            return sibling.SearchSibling(space)
    return contextlib.nullcontext()


def _keep_heap() -> None:
    """Keep glibc from returning freed heap memory to the OS in this process.

    Each round the search allocates and frees the same block temporaries.
    Depending on the heap state, glibc either reuses them or trims them from
    the top of the heap (or maps each one afresh) and faults the pages in
    again: in the search sibling at m = 20,000 and d = 4 that was 56,000
    faults per 100 rounds, and a fresh CLI process training over 20,000 rows
    took 243,600 faults where it takes 15,000 with this. Forked siblings call
    it, as does ``cli.entry_point``: each is a process of its own that keeps
    what it allocates until it exits. Programs that import boostkit keep
    their allocator. Without glibc, nothing is changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 2**30)  # M_TRIM_THRESHOLD
    mallopt(-3, 2**25)  # M_MMAP_THRESHOLD, at its 64-bit maximum
