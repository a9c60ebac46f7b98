"""System-level numerics: reliability curves, MTTF, dominance ratio, and a
Monte Carlo cross-check of the whole combination chain.

The exact route evaluates the success tree on per-component survival
probabilities at every grid time. The Monte Carlo route draws failure
times per component and mode by inverse CDF and reduces them through the
tree (AND -> min, OR -> max, K-of-N -> k-th largest), which reproduces the
structure function's alive/failed state at every time for coherent trees.
It streams the samples in fixed blocks of MC_BLOCK_SAMPLES and keeps only
a per-grid-bin count of system failures, so its memory is bounded by the
block size and the grid, its time is linear in the sample count, and the
result does not depend on the block size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import rng
from .errors import InputError
from .reliability import (
    Product,
    ReliabilityFunction,
    draw_count,
    integrate_survival,
    reliability_at,
    sample_failure_times,
)
from .successtree import AndGate, BasicEvent, Gate, KofNGate, OrGate, _shannon, basic_events, tree_probability

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
    stderr: tuple
    n_samples: int
    seed: int


def _tree_curve(tree: Gate, grid: np.ndarray, funcs: Mapping[str, ReliabilityFunction]) -> np.ndarray:
    values = np.empty(len(grid))
    for i, t in enumerate(grid):
        probs = {cid: reliability_at(rf, float(t)) for cid, rf in funcs.items()}
        values[i] = tree_probability(tree, probs)
    # Guard the non-increasing invariant against last-bit rounding.
    return np.minimum.accumulate(np.clip(values, 0.0, 1.0))


def system_reliability_curves(model, component_modes: Mapping[str, tuple]) -> SystemCurves:
    """Exact system curves on the model grid plus MTTF and dominance ratio.

    component_modes maps component id to (r_perm, r_trans), as for
    monte_carlo_system; a component survives both as independent
    competing risks, Product((r_perm, r_trans)).

    The MTTF integrates the exact system survival by integrate_survival;
    the sum of the component survivals bounds it, because a coherent
    system is down once every component is. ratio(t) = r_sys_perm /
    r_sys_trans; a value above 1 means transient faults are currently the
    more destructive type. The ratio is absent (None) where both curves
    have vanished below 1e-15.
    """
    events = basic_events(model.success_tree)
    for event in events:
        if event not in component_modes:
            raise InputError(f"no reliability functions for component {event!r}")
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
            ratio.append(float(p / q))

    def survival(times: list) -> np.ndarray:
        probs = {cid: np.array([reliability_at(combined[cid], t) for t in times]) for cid in events}
        return _shannon(model.success_tree, probs)

    def bound(t: float) -> float:
        return sum(reliability_at(combined[cid], t) for cid in events)

    mttf_sys = integrate_survival(survival, bound)
    return SystemCurves(
        grid=tuple(float(t) for t in grid),
        r_sys=tuple(float(v) for v in r_sys),
        r_sys_perm=tuple(float(v) for v in r_perm),
        r_sys_trans=tuple(float(v) for v in r_trans),
        ratio=tuple(ratio),
        mttf_sys=mttf_sys,
    )


def _failure_times(tree: Gate, comp_times: Mapping[str, np.ndarray]) -> np.ndarray:
    if isinstance(tree, BasicEvent):
        return comp_times[tree.component_id]
    parts = [_failure_times(c, comp_times) for c in tree.children]
    if isinstance(tree, AndGate):
        return np.minimum.reduce(parts)
    if isinstance(tree, OrGate):
        return np.maximum.reduce(parts)
    assert isinstance(tree, KofNGate)
    stack = np.stack(parts)
    # The system dies when the number of working children drops below k,
    # i.e. at the k-th largest child failure time.
    return np.partition(stack, len(parts) - tree.k, axis=0)[len(parts) - tree.k]


def monte_carlo_system(
    tree: Gate,
    component_modes: Mapping[str, tuple],
    n_samples: int,
    seed: int,
    grid,
) -> McCurve:
    """Empirical system survival with per-point binomial standard errors.

    component_modes maps component id to (r_perm, r_trans). Each sample
    draws both failure times per component by inverse CDF, takes their
    minimum, and reduces the tree; sample i is a pure function of
    (seed, i), so any batching yields identical results. The grid may be
    unsorted and may repeat points.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples!r}")
    grid = np.asarray(grid, dtype=float)
    events = basic_events(tree)
    for event in events:
        if event not in component_modes:
            raise InputError(f"no fault-mode functions for component {event!r}")

    ordered = sorted(events)
    lanes = []  # (component, r_perm, r_trans, first lane, perm draws, all draws)
    total = 0
    for cid in ordered:
        r_perm, r_trans = component_modes[cid]
        k_perm = draw_count(r_perm)
        need = k_perm + draw_count(r_trans)
        lanes.append((cid, r_perm, r_trans, total, k_perm, need))
        total += need

    order = np.argsort(grid, kind="stable")
    sorted_grid = grid[order]
    # per_bin[k]: samples whose system failure time lies in
    # (sorted_grid[k-1], sorted_grid[k]]; the last bin is past the grid.
    per_bin = np.zeros(len(grid) + 1, dtype=np.int64)
    for first in range(0, n_samples, MC_BLOCK_SAMPLES):
        size = min(MC_BLOCK_SAMPLES, n_samples - first)
        # counter = sample * total_lanes + lane, one open-interval uniform each
        uniforms = rng.unit_open_floats(seed, first * total, size * total).reshape(size, total)
        comp_times = {}
        for cid, r_perm, r_trans, offset, k_perm, need in lanes:
            u = uniforms[:, offset : offset + need].T
            t_perm = sample_failure_times(r_perm, u[:k_perm])
            t_trans = sample_failure_times(r_trans, u[k_perm:])
            comp_times[cid] = np.minimum(t_perm, t_trans)
        t_sys = _failure_times(tree, comp_times)
        bins = np.searchsorted(sorted_grid, t_sys, side="left")
        per_bin += np.bincount(bins, minlength=len(grid) + 1)

    # A sample has fallen at grid point t exactly when its failure time is <= t.
    fallen = np.empty(len(grid), dtype=np.int64)
    fallen[order] = np.cumsum(per_bin[:-1])
    survival = 1.0 - fallen / n_samples
    stderr = np.sqrt(survival * (1.0 - survival) / n_samples)
    return McCurve(
        grid=tuple(float(t) for t in grid),
        survival=tuple(float(v) for v in survival),
        stderr=tuple(float(v) for v in stderr),
        n_samples=n_samples,
        seed=seed,
    )


def write_curves_csv(curves: SystemCurves, fp) -> None:
    """`t_hours,r_sys,r_sys_perm,r_sys_trans,ratio`; absent ratio is empty."""
    fp.write("t_hours,r_sys,r_sys_perm,r_sys_trans,ratio\n")
    for t, r, p, q, ratio in zip(
        curves.grid, curves.r_sys, curves.r_sys_perm, curves.r_sys_trans, curves.ratio
    ):
        tail = "" if ratio is None else repr(ratio)
        fp.write(f"{repr(t)},{repr(r)},{repr(p)},{repr(q)},{tail}\n")
