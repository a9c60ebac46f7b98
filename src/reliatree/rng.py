"""Counter-based pseudo-random numbers.

Every random quantity in the engine is a pure function of (seed, counter),
so campaigns and Monte Carlo runs are reproducible bit for bit and trial
ranges can be generated in any batching without changing the results.
The word function is the splitmix64 output function applied to a
golden-ratio counter stride, evaluated either scalar or vectorized.

A block of counters [start, start + count) goes into an array in C index
order, whatever its strides: a 1-D array takes the block in its first
`count` entries, a 2-D one in all of its entries. So the transpose of a
block of rows takes counter start + q*n_rows + j in word q of row j, and
a caller's rows are filled in place. A scratch array is taken the same
way, in the shape of the block, and is fastest in the same memory order.
An omitted array is a fresh 1-D one.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A9C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# 2**-53, for mapping the top 53 bits of a word onto the unit interval.
_U53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def word_at(seed: int, counter: int) -> int:
    """The counter-th 64-bit word of the stream keyed by seed."""
    return mix64((seed + (counter + 1) * _GOLDEN) & _MASK)


def _entries(a: Optional[np.ndarray], count: int, dtype, shape=None) -> np.ndarray:
    """The entries of `a` that a block of `count` counters takes (see the
    module docstring), in `shape` when given."""
    a = np.empty(count, dtype=dtype) if a is None else a[:count] if a.ndim == 1 else a
    if a.size != count:
        raise ValueError(f"an array of {a.size} entries cannot take a block of {count} counters")
    return a if shape is None else a.reshape(shape)


def word_block(
    seed: int,
    start: int,
    count: int,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Words for counters [start, start+count), identical to word_at calls,
    into `out` with `scratch` as the temporary (both uint64, laid out as
    the module docstring says); returns the filled view of `out`."""
    z = _entries(out, count, np.uint64)
    shifted = _entries(scratch, count, np.uint64, z.shape)
    # Entry (r, c) is counter start + r*n_cols + c: seed + (start + 1)*_GOLDEN
    # plus a row and a column offset (uint64 wraps like word_at's & _MASK).
    grid = z if z.ndim == 2 else z[np.newaxis]
    rows, cols = (np.arange(n, dtype=np.uint64) for n in grid.shape)
    rows *= np.uint64((len(cols) * _GOLDEN) & _MASK)
    rows += np.uint64((seed + (start + 1) * _GOLDEN) & _MASK)
    cols *= np.uint64(_GOLDEN)
    np.add.outer(rows, cols, out=grid)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def unit_open_floats(
    seed: int,
    start: int,
    count: int,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Uniform floats in (0, 1], one per counter, safe as inverse-CDF input,
    into `out` (float64) with their words in `scratch` (uint64), both laid
    out as the module docstring says; `out` doubles as word_block's
    temporary. Returns the filled view of `out`."""
    u = _entries(out, count, np.float64)
    words = _entries(scratch, count, np.uint64, u.shape)
    word_block(seed, start, count, out=words, scratch=u.view(np.uint64))
    words >>= np.uint64(11)
    np.multiply(words, _U53, out=u)
    np.subtract(1.0, u, out=u)
    return u


def derive_seed(seed: int, label: str) -> int:
    """A stable sub-seed for a named stage, e.g. one injection campaign."""
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return mix64(h ^ mix64(seed))
