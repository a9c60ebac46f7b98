import numpy as np
import pytest

from reliatree import rng


def test_vector_matches_scalar():
    block = rng.word_block(12345, 7, 64)
    assert [int(w) for w in block] == [rng.word_at(12345, 7 + i) for i in range(64)]


def test_batching_is_invisible():
    whole = rng.word_block(9, 0, 100)
    parts = np.concatenate([rng.word_block(9, 0, 37), rng.word_block(9, 37, 63)])
    assert np.array_equal(whole, parts)


def test_seed_changes_stream():
    assert not np.array_equal(rng.word_block(1, 0, 16), rng.word_block(2, 0, 16))


def test_unit_floats_ranges():
    u = rng.unit_open_floats(3, 0, 200_000)
    assert u.min() > 0.0 and u.max() <= 1.0


def test_unit_floats_look_uniform():
    u = rng.unit_open_floats(99, 0, 500_000)
    assert abs(u.mean() - 0.5) < 2e-3
    assert abs(np.mean(u < 0.25) - 0.25) < 2e-3


def test_derive_seed_is_stable_and_label_sensitive():
    a = rng.derive_seed(42, "inject/pu1/s1")
    assert a == rng.derive_seed(42, "inject/pu1/s1")
    assert a != rng.derive_seed(42, "inject/pu1/s2")
    assert a != rng.derive_seed(43, "inject/pu1/s1")
    assert 0 <= a < 2**64


@pytest.mark.parametrize("start", [2**63 - 17, 2**63, 2**64 - 40])
def test_blocks_near_the_top_of_the_counter_range_match_scalar(start):
    # The last block ends at counter 2**64 - 1, whose +1 wraps to 0.
    block = rng.word_block(77, start, 40)
    assert [int(w) for w in block] == [rng.word_at(77, start + i) for i in range(40)]


@pytest.mark.parametrize("start", [0, 2**64 - 40])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 64, 65, 1000])
def test_block_into_reused_buffers_matches_scalar(start, count):
    # Buffers longer than the block and holding other words: only the
    # first `count` entries of `out` change.
    out = rng.word_block(5, 100, count + 7)
    scratch = rng.word_block(6, 100, count + 3)
    tail = out[count:].copy()
    block = rng.word_block(77, start, count, out=out, scratch=scratch)
    assert [int(w) for w in block] == [rng.word_at(77, start + i) for i in range(count)]
    assert count == 0 or np.shares_memory(block, out)
    assert np.array_equal(out[count:], tail)


@pytest.mark.parametrize("start", [0, 2**64 - 40])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 64, 65, 1000])
def test_unit_open_floats_into_reused_buffers_match_scalar(start, count):
    # Buffers longer than the block and holding other values: the floats
    # are 1 - (top 53 bits of each word) * 2**-53, and only the first
    # `count` entries of `out` change.
    out = rng.unit_open_floats(5, 100, count + 7)
    scratch = rng.word_block(6, 100, count + 3)
    tail = out[count:].copy()
    u = rng.unit_open_floats(77, start, count, out=out, scratch=scratch)
    expected = [1.0 - (rng.word_at(77, start + i) >> 11) * 2**-53 for i in range(count)]
    assert u.tolist() == expected
    assert rng.unit_open_floats(77, start, count).tolist() == expected
    assert count == 0 or np.shares_memory(u, out)
    assert np.array_equal(out[count:], tail)
