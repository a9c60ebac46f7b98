"""Survival-function forms: the measure every analysis passes upward.

All times are hours. Three forms cover the engine: closed-form Exponential
and Weibull, and Product for independent competing failure modes, whose
factors are Exponentials and Weibulls: a component's permanent wear-out and
its transient soft errors. Every form evaluates to a probability in [0, 1]
with R(0) = 1. reliability_at, the one evaluator, reads a form at a number
or at a column of times, each entry in the scalar math of the number call.
An MTTF without a closed form, of a Product here or of a whole system in
curves.py, is integrate_survival of the survival, on panels chosen from it
alone and read a column per call; a panel whose halves disagree with it is
split. sample_failure_times draws by inverse CDF from one elementary form;
a Product's time is the minimum of its factors' times.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Exponential",
    "Weibull",
    "Product",
    "ReliabilityFunction",
    "reliability_at",
    "integrate_survival",
    "mttf",
    "sample_failure_times",
]

_GAUSS_POINTS = 32
# A panel keeps its own value when its two halves agree with it to this
# fraction of the integral up to its end.
_SPLIT_TOLERANCE = 1e-13


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Exponential:
    """Constant hazard: R(t) = exp(-lam * t), lam in 1/hour; lam = 0 never fails."""

    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"exponential rate must be nonnegative and finite, got {self.lam!r}")


@dataclass(frozen=True)
class Weibull:
    """R(t) = exp(-(t/eta)^beta); eta is the scale in hours, beta the shape."""

    eta: float
    beta: float

    def __post_init__(self):
        _require_positive("weibull eta", self.eta)
        _require_positive("weibull beta", self.beta)


@dataclass(frozen=True)
class Product:
    """Independent competing risks: R(t) is the product of the factors,
    each an Exponential or a Weibull."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        for f in factors:
            if not isinstance(f, (Exponential, Weibull)):
                raise ValueError(f"a product factor must be an Exponential or a Weibull, got {f!r}")


ReliabilityFunction = Union[Exponential, Weibull, Product]


def reliability_at(rf: ReliabilityFunction, t):
    """Survival at t hours (t >= 0), a number or a 1-D float64 column: one entry per time."""
    factors, values, tiny, inf = (rf.factors if isinstance(rf, Product) else (rf,)), [], sys.float_info.min, math.inf
    for x in t.tolist() if isinstance(t, np.ndarray) else (t,):
        if not x >= 0:
            raise ValueError(f"time must be nonnegative, got {x!r}")
        r = 1.0  # a Product folds its factors in order
        for f in factors:
            if isinstance(f, Exponential):
                # lam = 0 never fails, even at t = inf, where 0 * inf would be NaN.
                r *= 1.0 if f.lam == 0.0 else math.exp(-f.lam * x)
            elif isinstance(f, Weibull):
                z = x / f.eta  # when not a normal float, it lost bits its power may need: that is taken in logs
                try:
                    w = (z**f.beta if tiny <= z < inf or not 0.0 < x < inf
                         else math.exp(f.beta * (math.log(x) - math.log(f.eta))))
                    r *= math.exp(-w)
                except OverflowError:  # (t/eta)^beta past the largest float: R rounds to 0
                    r = 0.0
            else:
                raise ValueError(f"not a reliability function: {rf!r}")
        values.append(r)
    return np.array(values) if isinstance(t, np.ndarray) else r


def _gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre three-term recurrence in plain floats,
    so every MTTF is the same on every machine, whatever its linear-algebra
    library.
    """
    nodes, weights = [], []
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            slope = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / slope
            x -= step
            if abs(step) <= 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * slope * slope))
    return tuple(nodes), tuple(weights)


_GAUSS_NODES, _GAUSS_WEIGHTS = (np.array(v) for v in _gauss_legendre(_GAUSS_POINTS))


def _halves(lo: float, hi: float) -> tuple:
    mid = 0.5 * (lo + hi)
    return (lo, mid), (mid, hi)


def _read_panels(survival, panels: list, unit: float) -> list:
    """The 32 terms w * R(unit * t) of the rule on each (lo, hi) of panels,
    from one survival call. Elementwise float64 sums and products, so every
    node and term has the bits of the same arithmetic on Python floats."""
    lo, hi = np.array(panels).T[:, :, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    values = np.asarray(survival(unit * (mid + half * _GAUSS_NODES).ravel()), dtype=float)
    return (half * _GAUSS_WEIGHTS * values.reshape(len(panels), _GAUSS_POINTS)).tolist()


def integrate_survival(survival) -> float:
    """The integral of a survival function over [0, inf) hours: its MTTF.

    survival(times) gives R at each entry of a 1-D float64 column of times,
    in one call. 32-point Gauss-Legendre runs on the panels [0, h], [h, 2h],
    [2h, 4h], ... up to the first end where R underflows to 0.0, or up to
    2^1023 hours. So no tail is cut off that a float could hold: against
    closed forms the relative error is below 1.2e-15, and below 7.1e-14 for
    Weibulls with beta from 12 to 100. h is 1 hour, halved while R(h) < 1/2
    so that a sub-hour lifetime spans several panels; they are read in units
    of h, or of 2^-1023 of the last end if larger, so that every node keeps
    its bits and every end is finite. Each panel is also integrated as its
    two halves. It keeps its own 32 terms when the halves agree with it to
    1e-13 of the integral up to its end; otherwise it is split, and its
    halves are checked in turn, left to right, down to a panel too narrow
    to split. So a steep wear-out, whose drop one panel's nodes do not
    resolve, is integrated on panels that do, and a smooth survival is never
    split. The kept terms go into one math.fsum. Five calls at most when no
    panel splits: the doubling ends 2^0, ..., 2^63 hours, and 2^64, ...,
    2^1023 hours when R(2^63) > 0; the halvings 2^-1, ..., 2^-64 hours when
    R(1) < 1/2, and 2^-65, ..., 2^-1022 hours when R is below 1/2 at all of
    those; the nodes of every panel and of its halves. A split panel adds
    one call, on the nodes of its quarters. math.inf when R is still above
    1 - 1e-12 at the last end.
    """
    ladder, at = [2.0**k for k in range(1024)], {}  # 1 hour up to the largest power of two
    for part in (ladder[:64], ladder[64:]):
        at.update(zip(part, survival(np.array(part))))
        if at[part[-1]] == 0.0:
            break
    first = 1.0
    if at[first] < 0.5:
        halvings = [2.0**-k for k in range(1, 1023)]  # down to the smallest normal float
        for part in (halvings[:64], halvings[64:]):
            at.update(zip(part, survival(np.array(part))))
            first = next((h for h in part if at[h] >= 0.5), part[-1])
            if at[first] >= 0.5:
                break
    ends = [0.0, first]
    while at[ends[-1]] > 0.0 and ends[-1] < ladder[-1]:
        ends.append(2.0 * ends[-1])
    if at[ends[-1]] > 1.0 - 1e-12:
        return math.inf
    unit = max(first, ends[-1] * 2.0**-1023)  # a power of two that keeps the last end finite
    panels = [(lo / unit, hi / unit) for lo, hi in zip(ends, ends[1:])]
    read = _read_panels(survival, [p for panel in panels for p in (panel, *_halves(*panel))], unit)
    # (lo, hi, its terms, its halves' terms), the leftmost panel on top.
    stack = [(lo, hi, read[3 * i], read[3 * i + 1] + read[3 * i + 2]) for i, (lo, hi) in enumerate(panels)]
    stack.reverse()
    kept, done = [], 0.0  # the terms of the panels kept so far, and their integral
    while stack:
        lo, hi, whole, halves = stack.pop()
        value, refined = math.fsum(whole), math.fsum(halves)
        # Not split once a quarter's half-width in hours is below the smallest normal
        # float, whose times would lose bits, unless it is wider than 2^-52 units.
        narrow = 0.125 * (hi - lo) < min(sys.float_info.min / unit, sys.float_info.epsilon)
        if narrow or abs(refined - value) <= _SPLIT_TOLERANCE * (done + refined):
            kept.extend(whole)
            done += value
            continue
        mid = 0.5 * (lo + hi)
        q = _read_panels(survival, [*_halves(lo, mid), *_halves(mid, hi)], unit)
        stack.append((mid, hi, halves[_GAUSS_POINTS:], q[2] + q[3]))
        stack.append((lo, mid, halves[:_GAUSS_POINTS], q[0] + q[1]))
    return unit * math.fsum(kept)


def mttf(rf: ReliabilityFunction) -> float:
    """Mean time to failure in hours; math.inf when the hazard is zero.

    Exponential and Weibull use their closed forms; a Product is integrated
    by integrate_survival, reading the Product on a column of times per
    call, up to the first panel end where R underflows.
    """
    if isinstance(rf, Exponential):
        return math.inf if rf.lam == 0.0 else 1.0 / rf.lam
    if isinstance(rf, Weibull):
        return rf.eta * math.gamma(1.0 + 1.0 / rf.beta)
    return integrate_survival(lambda times: reliability_at(rf, times))  # a Product; reliability_at rejects the rest


def sample_failure_times(rf: ReliabilityFunction, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF failure times of an Exponential or a Weibull, one per
    uniform in (0, 1] of the 1-D array uniforms. A time past the largest
    float is +inf."""
    with np.errstate(over="ignore"):
        if isinstance(rf, Exponential):
            if rf.lam == 0.0:
                # Never fails; -log(1.0) / 0 would be NaN. The draw is still taken.
                return np.full_like(uniforms, np.inf)
            return -np.log(uniforms) / rf.lam
        if isinstance(rf, Weibull):
            return rf.eta * (-np.log(uniforms)) ** (1.0 / rf.beta)
    raise ValueError(f"not an Exponential or a Weibull: {rf!r}")
