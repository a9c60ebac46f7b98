"""System-level numerics: reliability curves, MTTF, dominance ratio, and a
Monte Carlo cross-check of the whole combination chain.

The exact route evaluates the success tree on per-component survival
probabilities at every grid time. The Monte Carlo route draws failure
times per component and mode by inverse CDF and applies the structure
function (successtree.evaluate_structure) to them, which gives the system
failure time and so its alive/failed state at every time.
It streams the samples in fixed blocks of MC_BLOCK_SAMPLES through buffers
allocated once per call, sorts each block's system failure times and keeps
only a running count of fallen samples per grid point, so its memory is
bounded by the block size and the grid, its time is linear in the sample
count, and the result does not depend on the block size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import rng
from .errors import InputError, quoted
from .reliability import (
    Exponential,
    Product,
    ReliabilityFunction,
    Weibull,
    integrate_survival,
    reliability_at,
    sample_failure_times,
)
from .successtree import Gate, _shannon, basic_events, evaluate_structure, tree_probability

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


def _tree_curve(tree: Gate, grid: np.ndarray, funcs: Mapping[str, ReliabilityFunction]) -> np.ndarray:
    values = np.empty(len(grid))
    for i, t in enumerate(grid):
        probs = {cid: reliability_at(rf, float(t)) for cid, rf in funcs.items()}
        values[i] = tree_probability(tree, probs)
    # Guard the non-increasing invariant against last-bit rounding.
    return np.minimum.accumulate(np.clip(values, 0.0, 1.0))


def system_reliability_curves(model, component_modes: Mapping[str, tuple], grid=None) -> SystemCurves:
    """Exact system curves on the model grid plus MTTF and dominance ratio.

    component_modes maps component id to (r_perm, r_trans), as for
    monte_carlo_system; a component survives both as independent
    competing risks, Product((r_perm, r_trans)). grid is model.grid()
    already allocated by the caller; it is allocated here when omitted.

    The MTTF integrates the exact system survival by integrate_survival,
    whose panels come from that survival itself. ratio(t) = r_sys_perm /
    r_sys_trans; a value above 1 means transient faults are currently the
    more destructive type. The ratio is absent (None) where both curves
    have vanished below 1e-15.
    """
    events = basic_events(model.success_tree)
    for event in events:
        if event not in component_modes:
            raise InputError(f"no reliability functions for component {quoted(event)}")
    if grid is None:
        grid = model.grid()
    combined = {cid: Product(modes) for cid, modes in component_modes.items()}
    perm_only = {cid: r_perm for cid, (r_perm, _) in component_modes.items()}
    trans_only = {cid: r_trans for cid, (_, r_trans) in component_modes.items()}
    r_sys = _tree_curve(model.success_tree, grid, combined)
    r_perm = _tree_curve(model.success_tree, grid, perm_only)
    r_trans = _tree_curve(model.success_tree, grid, trans_only)

    ratio = []
    for p, q in zip(r_perm, r_trans):
        if p < 1e-15 and q < 1e-15:
            ratio.append(None)
        elif q == 0.0:
            ratio.append(math.inf)
        else:
            ratio.append(float(p) / float(q))  # Python floats: inf without a warning

    def survival(times: list) -> np.ndarray:
        probs = {cid: np.array([reliability_at(combined[cid], t) for t in times]) for cid in events}
        return _shannon(model.success_tree, probs)

    mttf_sys = integrate_survival(survival)
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
    C the number of tree events: event j in sorted id order draws its
    permanent failure time from lane 2j and its transient one from lane
    2j + 1, both by inverse CDF, and fails at the earlier of the two. The
    structure function of those times is the system failure time. Sample i
    is a pure function of (seed, i), so any batching yields identical
    results. A sample has fallen at grid point t when its failure time is
    <= t; each block is sorted once and searched for every grid point, so
    the grid may be unsorted and may repeat points.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples!r}")
    grid = np.asarray(grid, dtype=float)
    events = basic_events(tree)
    for event in events:
        if event not in component_modes:
            raise InputError(f"no fault-mode functions for component {quoted(event)}")
        if not all(isinstance(rf, (Exponential, Weibull)) for rf in component_modes[event]):
            raise ValueError(f"component {quoted(event)}: fault modes must be Exponentials or Weibulls")
    modes = [(cid, component_modes[cid]) for cid in sorted(events)]
    width = 2 * len(modes)  # counters per sample

    # Allocated once per call and refilled every block: the uniforms in the
    # (sample, lane) order they are drawn in, the RNG words behind them,
    # and the same uniforms as one contiguous row per lane.
    block_size = min(MC_BLOCK_SAMPLES, n_samples)
    drawn = np.empty(block_size * width)
    words = np.empty(block_size * width, dtype=np.uint64)
    rows = np.empty((width, block_size))
    # fallen[j]: samples whose system failure time is <= grid[j].
    fallen = np.zeros(len(grid), dtype=np.int64)
    for first in range(0, n_samples, MC_BLOCK_SAMPLES):
        size = min(MC_BLOCK_SAMPLES, n_samples - first)
        # counter = sample * width + lane, one open-interval uniform each
        uniforms = rng.unit_open_floats(seed, first * width, size * width, out=drawn, scratch=words)
        block = rows[:, :size]
        np.copyto(block, uniforms.reshape(size, width).T)
        comp_times = {
            cid: np.minimum(sample_failure_times(r_perm, perm_u), sample_failure_times(r_trans, trans_u))
            for (cid, (r_perm, r_trans)), perm_u, trans_u in zip(modes, block[0::2], block[1::2])
        }
        t_sys = evaluate_structure(tree, comp_times)
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
