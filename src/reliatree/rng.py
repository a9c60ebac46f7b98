"""Counter-based pseudo-random numbers.

Every random quantity in the engine is a pure function of (seed, counter),
so campaigns and Monte Carlo runs are reproducible bit for bit and trial
ranges can be generated in any batching without changing the results.
The word function is the splitmix64 output function applied to a
golden-ratio counter stride, evaluated either scalar or vectorized.
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


def word_block(
    seed: int,
    start: int,
    count: int,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Words for counters [start, start+count), identical to word_at calls.

    The words go into the first `count` entries of `out` and `scratch`
    holds a temporary (both uint64, at least `count` long, fresh arrays
    when omitted); the returned array is that prefix of `out`.
    """
    # In place on one array (uint64 arithmetic wraps like the & _MASK of
    # word_at). Counter start+1+i enters as seed + (start+1+i)*_GOLDEN,
    # filled by doubling: words [k, 2k) are words [0, k) plus k*_GOLDEN.
    z = np.empty(count, dtype=np.uint64) if out is None else out[:count]
    shifted = np.empty(count, dtype=np.uint64) if scratch is None else scratch[:count]
    if count:
        z[0] = (seed + (start + 1) * _GOLDEN) & _MASK
    filled = 1
    while filled < count:
        n = min(filled, count - filled)
        np.add(z[:n], np.uint64((filled * _GOLDEN) & _MASK), out=z[filled : filled + n])
        filled += n
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
    """Uniform floats in (0, 1], one per counter. Safe as inverse-CDF input.

    The floats go into the first `count` entries of `out` (float64, at
    least `count` long) and the words into `scratch` (uint64, at least
    `count` long); either is a fresh array when omitted.
    `out` doubles as word_block's temporary. The returned array is that
    prefix of `out`.
    """
    u = np.empty(count) if out is None else out[:count]
    words = word_block(seed, start, count, out=scratch, scratch=u.view(np.uint64))
    words >>= np.uint64(11)
    np.multiply(words, _U53, out=u)
    np.subtract(1.0, u, out=u)
    return u


def unit_halfopen_floats(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform floats in [0, 1), one per counter. Safe for index scaling."""
    return (word_block(seed, start, count) >> np.uint64(11)) * _U53


def derive_seed(seed: int, label: str) -> int:
    """A stable sub-seed for a named stage, e.g. one injection campaign."""
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return mix64(h ^ mix64(seed))
