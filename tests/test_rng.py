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


class TestLayout:
    """A block goes into its target in C index order, whatever the strides.
    That a 1-D target keeps the entries past the block is checked above."""

    # (buffer shape, the target's view of a buffer, scratch shape): the
    # transpose of a 65 x 313 plane block with scratch in its layout, a
    # partial last block of a wider lane buffer with scratch in its layout,
    # and a 1 x 1 view with 1-D scratch.
    TARGETS = {
        "planes": ((65, 313), lambda a: a.T, (65, 313)),
        "partial": ((6, 100), lambda a: a[:, :37].T, (6, 100)),
        "cell": ((3, 3), lambda a: a[1:2, 1:2], None),
    }

    def fill(self, name, fill, dtype):
        """Fill the target; its buffer, the filled view and a mask of the
        buffer's entries outside the target."""
        shape, view, scratch_shape = self.TARGETS[name]
        buffer = np.full(shape, 7, dtype)
        out = view(buffer)
        scratch = np.zeros(1, np.uint64) if scratch_shape is None else view(np.zeros(scratch_shape, np.uint64))
        block = fill(31, 500, out.size, out=out, scratch=scratch)
        assert np.shares_memory(block, buffer) and block.shape == out.shape
        outside = np.ones(shape, bool)
        view(outside)[...] = False
        return buffer, block, outside

    @pytest.mark.parametrize("name", TARGETS)
    def test_word_block_writes_each_entry_its_counter(self, name):
        buffer, block, outside = self.fill(name, rng.word_block, np.uint64)
        n_rows, n_cols = block.shape
        for r in range(n_rows):
            assert [int(w) for w in block[r]] == [rng.word_at(31, 500 + r * n_cols + c) for c in range(n_cols)]
        assert (buffer[outside] == 7).all()

    @pytest.mark.parametrize("name", TARGETS)
    def test_unit_open_floats_write_each_entry_its_counter(self, name):
        buffer, u, outside = self.fill(name, rng.unit_open_floats, np.float64)
        n_rows, n_cols = u.shape
        for r in range(n_rows):
            words = [rng.word_at(31, 500 + r * n_cols + c) for c in range(n_cols)]
            assert u[r].tolist() == [1.0 - (w >> 11) * 2**-53 for w in words]
        assert (buffer[outside] == 7).all()

    def test_scratch_in_another_layout_gives_the_same_words(self):
        planes = np.zeros((65, 313), np.uint64)
        rng.word_block(31, 500, planes.size, out=planes.T, scratch=np.zeros(planes.size + 9, np.uint64))
        assert np.array_equal(planes.T.ravel(), rng.word_block(31, 500, planes.size))

    def test_2d_out_of_another_size_is_refused(self):
        with pytest.raises(ValueError, match="an array of 6 entries cannot take a block of 5 counters"):
            rng.word_block(31, 0, 5, out=np.zeros((2, 3), np.uint64))
