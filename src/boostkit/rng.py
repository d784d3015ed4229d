"""Deterministic random number generation.

Every randomized operation in this package draws from :class:`RngState`, a
counter-based SplitMix64 generator. The algorithm is frozen here so that an
identical seed produces an identical stream on every platform and in every
future version of the package; the platform default generator is never used.
This is what makes model files, splits, samples, and learning curves
reproducible bit-for-bit.

SplitMix64 (Steele, Lea & Flood; public domain): output ``i`` (1-based) is
``mix64(seed + i * 0x9E3779B97F4A7C15)`` where ``mix64`` xors and multiplies
with the fixed constants below. The state is just ``(seed, counter)``; a
seed outside [0, 2**64) is an error, not reduced mod 2**64, so no two seeds
give one stream.
For seed 0, the first three outputs are 16294208416658607535,
7960286522194355700, 487617019471545679 (the published reference vector).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class RngState:
    """Seedable counter-based generator with a frozen algorithm.

    Single-owner: never share one instance between concurrent tasks.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        if not 0 <= seed <= _MASK64 or counter < 0:
            raise DataError("rng seed must be an integer in [0, 2**64) and counter an integer >= 0")
        self.seed = int(seed)
        self.counter = int(counter)

    def next_uint64(self) -> int:
        self.counter += 1
        z = (self.seed + self.counter * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) built from the 53 high bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise DataError("below() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def sample(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from range(n), in draw order.

        Partial Fisher-Yates: equals the first k entries of a full shuffle
        driven by the same stream.
        """
        if not 0 <= k <= n:
            raise DataError(f"cannot sample {k} items from {n}")
        idx = np.arange(n, dtype=np.int64)
        for i in range(k):
            j = i + self.below(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k].copy()

    def choice(self, items: np.ndarray, k: int) -> np.ndarray:
        """k distinct elements of `items`, in draw order."""
        items = np.asarray(items)
        return items[self.sample(len(items), k)]
