"""Counter-based pseudo-random numbers.

Every random quantity in the engine is a pure function of (seed, counter),
so campaigns and Monte Carlo runs are reproducible bit for bit and trial
ranges can be generated in any batching without changing the results.
The word function is the splitmix64 output function applied to a
golden-ratio counter stride, evaluated either scalar or vectorized.
"""
from __future__ import annotations

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


def word_block(seed: int, start: int, count: int) -> np.ndarray:
    """Words for counters [start, start+count), identical to word_at calls."""
    # In place on one array (uint64 arithmetic wraps like the & _MASK of
    # word_at); `shifted` is the only temporary.
    z = np.arange(count, dtype=np.uint64)
    z += np.uint64((start + 1) & _MASK)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK)
    shifted = np.empty_like(z)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def unit_open_floats(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform floats in (0, 1], one per counter. Safe as inverse-CDF input."""
    return 1.0 - (word_block(seed, start, count) >> np.uint64(11)) * _U53


def unit_halfopen_floats(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform floats in [0, 1), one per counter. Safe for index scaling."""
    return (word_block(seed, start, count) >> np.uint64(11)) * _U53


def derive_seed(seed: int, label: str) -> int:
    """A stable sub-seed for a named stage, e.g. one injection campaign."""
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return mix64(h ^ mix64(seed))
