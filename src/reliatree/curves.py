"""System-level numerics: reliability curves, MTTF, dominance ratio, and a
Monte Carlo cross-check of the whole combination chain.

The exact route reads each fault mode of every tree event on the whole grid
in one reliability_at call and evaluates the tree by
successtree.tree_probability, the one tree evaluator, at each grid time on
the entries of the permanent, the transient and the combined (their
elementwise product) columns. The system MTTF is reliability.mttf of the
system's Structure, and the Monte Carlo route draws its failure times with
reliability.sample_failure_times. It streams the samples in fixed blocks of
MC_BLOCK_SAMPLES, drawn in place into two buffers allocated once per call
(a row per lane of uniforms and of their words), sorts each block's system
failure times and keeps only a running count of fallen samples per grid
point, so its memory is bounded by the block size and the grid, its time is
linear in the sample count, and the result does not depend on the block size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import rng
from .errors import located
from .reliability import Structure, mttf, reliability_at, sample_failure_times
from .successtree import Gate, basic_events, tree_probability

__all__ = [
    "SystemCurves",
    "McCurve",
    "system_reliability_curves",
    "monte_carlo_system",
    "write_curves_csv",
]

# Samples per Monte Carlo block. Sample i is a pure function of (seed, i), so
# this sets only the memory held at once (a few MB) and the per-call numpy
# overhead, never the result.
MC_BLOCK_SAMPLES = 16384


@dataclass(frozen=True)
class SystemCurves:
    grid: tuple
    r_sys: tuple
    r_sys_perm: tuple
    r_sys_trans: tuple
    ratio: tuple  # entries are float or None (absent)
    mttf_sys: float


@dataclass(frozen=True)
class McCurve:
    grid: tuple
    survival: tuple
    n_samples: int


def system_reliability_curves(model, component_modes: Mapping[str, tuple], grid=None) -> SystemCurves:
    """Exact system curves on the model grid plus MTTF and dominance ratio.

    component_modes maps component id to (r_perm, r_trans), as for
    monte_carlo_system; a component survives both as independent
    competing risks. grid is model.grid() already allocated by the caller;
    it is allocated here when omitted. Each mode of every tree event is
    read once, as a column over the whole grid, for all three curves: the
    event's survival of both is the elementwise product of its two columns.

    The MTTF is mttf of the system's Structure, its exact survival
    integrated. ratio(t) = r_sys_perm / r_sys_trans; a value above 1 means
    transient faults are currently the more destructive type. The ratio is absent (None) where both curves
    have vanished below 1e-15.
    """
    tree = model.success_tree
    system = Structure(tree, component_modes)
    events = basic_events(tree)
    if grid is None:
        grid = model.grid()

    perm, trans = ({cid: reliability_at(component_modes[cid][k], grid) for cid in events} for k in (0, 1))
    both = {cid: perm[cid] * trans[cid] for cid in events}
    r_perm, r_trans, r_sys = (np.empty(len(grid)) for _ in range(3))
    for curve, columns in ((r_perm, perm), (r_trans, trans), (r_sys, both)):
        # Row i of the event columns is the tree's input at grid time i.
        for i, probs in enumerate(zip(*(columns[cid].tolist() for cid in events))):
            curve[i] = tree_probability(tree, dict(zip(events, probs)))
    # Guard the non-increasing invariant against last-bit rounding.
    r_sys, r_perm, r_trans = (np.minimum.accumulate(np.clip(v, 0.0, 1.0)) for v in (r_sys, r_perm, r_trans))

    ratio = []
    for p, q in zip(r_perm, r_trans):
        if p < 1e-15 and q < 1e-15:
            ratio.append(None)
        elif q == 0.0:
            ratio.append(math.inf)
        else:
            ratio.append(float(p) / float(q))  # Python floats: inf without a warning

    with located("system, stage 'mttf'"):
        mttf_sys = mttf(system)
    return SystemCurves(
        grid=tuple(float(t) for t in grid),
        r_sys=tuple(float(v) for v in r_sys),
        r_sys_perm=tuple(float(v) for v in r_perm),
        r_sys_trans=tuple(float(v) for v in r_trans),
        ratio=tuple(ratio),
        mttf_sys=mttf_sys,
    )


def monte_carlo_system(
    tree: Gate,
    component_modes: Mapping[str, tuple],
    n_samples: int,
    seed: int,
    grid,
) -> McCurve:
    """Empirical system survival at each grid point.

    component_modes maps component id to (r_perm, r_trans), each an
    Exponential or a Weibull. Sample i reads the counters [2C*i, 2C*(i+1)),
    C the number of tree events, as the lanes of sample_failure_times of the
    system's Structure, its failure time. Sample i is a pure function of
    (seed, i), so any batching yields identical results. A sample has fallen
    at grid point t when its failure time is <= t; each block is sorted once
    and searched for every grid point, so the grid may be unsorted and may
    repeat points.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples!r}")
    grid = np.asarray(grid, dtype=float)
    system = Structure(tree, component_modes)
    width = system.lanes  # counters per sample

    # Allocated once per call and refilled every block: a row per lane of uniforms and of their RNG words.
    block_size = min(MC_BLOCK_SAMPLES, n_samples)
    rows = np.empty((width, block_size))
    words = np.empty((width, block_size), dtype=np.uint64)
    # fallen[j]: samples whose system failure time is <= grid[j].
    fallen = np.zeros(len(grid), dtype=np.int64)
    for first in range(0, n_samples, MC_BLOCK_SAMPLES):
        size = min(MC_BLOCK_SAMPLES, n_samples - first)
        # counter = sample * width + lane: entry (sample, lane) of the transpose
        block = rows[:, :size]
        rng.unit_open_floats(seed, first * width, size * width, out=block.T, scratch=words[:, :size].T)
        t_sys = sample_failure_times(system, block)
        t_sys.sort()
        fallen += np.searchsorted(t_sys, grid, side="right")

    return McCurve(
        grid=tuple(float(t) for t in grid),
        survival=tuple(float(v) for v in 1.0 - fallen / n_samples),
        n_samples=n_samples,
    )


def write_curves_csv(curves: SystemCurves, fp) -> None:
    """`t_hours,r_sys,r_sys_perm,r_sys_trans,ratio`; absent ratio is empty."""
    fp.write("t_hours,r_sys,r_sys_perm,r_sys_trans,ratio\n")
    for t, r, p, q, ratio in zip(
        curves.grid, curves.r_sys, curves.r_sys_perm, curves.r_sys_trans, curves.ratio
    ):
        tail = "" if ratio is None else repr(ratio)
        fp.write(f"{repr(t)},{repr(r)},{repr(p)},{repr(q)},{tail}\n")
