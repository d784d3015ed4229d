import numpy as np
import pytest

from boostkit.errors import DataError
from boostkit.rng import RngState

# published SplitMix64 outputs for seed 0
REFERENCE_SEED0 = (16294208416658607535, 7960286522194355700, 487617019471545679)


def test_matches_published_reference_vector():
    rng = RngState(0)
    assert tuple(rng.next_uint64() for _ in range(3)) == REFERENCE_SEED0


def test_identical_seed_identical_stream():
    a = RngState(987654321)
    b = RngState(987654321)
    assert [a.next_uint64() for _ in range(100)] == [b.next_uint64() for _ in range(100)]


def test_state_is_seed_plus_counter():
    a = RngState(7)
    for _ in range(10):
        a.next_uint64()
    b = RngState(7, counter=10)
    assert a.next_uint64() == b.next_uint64()


def test_random_unit_interval():
    rng = RngState(3)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < np.mean(values) < 0.6


def test_below_is_in_range_and_deterministic():
    rng = RngState(11)
    draws = [rng.below(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    replay = RngState(11)
    assert draws == [replay.below(7) for _ in range(500)]
    with pytest.raises(DataError):
        rng.below(0)


def test_permutation_and_sample():
    rng = RngState(5)
    perm = rng.permutation(50)
    assert sorted(perm) == list(range(50))
    ids = RngState(5).sample(50, 50)
    assert sorted(ids) == list(range(50))
    small = RngState(9).sample(100, 10)
    assert len(set(small.tolist())) == 10
    with pytest.raises(DataError):
        RngState(9).sample(5, 6)


def test_seed_at_or_above_two_to_the_64_rejected():
    # reduced mod 2**64, seed 2**64 would give seed 0's stream
    assert RngState(2**64 - 1).next_uint64() != RngState(0).next_uint64()
    for bad in (2**64, 2**64 + 1, 2**65):
        with pytest.raises(DataError, match=r"\[0, 2\*\*64\)"):
            RngState(bad)


def test_negative_seed_rejected():
    with pytest.raises(DataError):
        RngState(-1)
