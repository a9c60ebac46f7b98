"""Survival-function forms: the measure every analysis passes upward.

All times are hours. Three forms cover the engine: closed-form Exponential
and Weibull, and Product for independent competing failure modes, whose
factors are Exponentials and Weibulls: a component's permanent wear-out and
its transient soft errors. Every form evaluates to a probability in [0, 1]
with R(0) = 1. An MTTF without a closed form, of a Product here or of a
whole system in curves.py, is integrate_survival of the survival, on panels
chosen from it alone. sample_failure_times draws by inverse CDF from one
elementary form; a Product's time is the minimum of its factors' times.
"""
from __future__ import annotations

import math
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

# MTTF quadrature: integrate until the survival itself drops below the tail
# threshold, never past the horizon cap (truncation documented).
_TAIL_SURVIVAL = 1e-9
_HORIZON_CAP_HOURS = 1e9
_GAUSS_POINTS = 32


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


def reliability_at(rf: ReliabilityFunction, t: float) -> float:
    """Evaluate the survival probability at t hours (t >= 0)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    if isinstance(rf, Exponential):
        r = math.exp(-rf.lam * t)
    elif isinstance(rf, Weibull):
        try:
            r = math.exp(-((t / rf.eta) ** rf.beta))
        except OverflowError:  # (t/eta)^beta past the largest float: R rounds to 0
            r = 0.0
    elif isinstance(rf, Product):
        r = 1.0
        for f in rf.factors:
            r *= reliability_at(f, t)
    else:
        raise ValueError(f"not a reliability function: {rf!r}")
    return min(1.0, max(0.0, r))


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


_GAUSS_NODES, _GAUSS_WEIGHTS = _gauss_legendre(_GAUSS_POINTS)


def integrate_survival(survival) -> float:
    """The integral of a survival function over [0, inf) hours: its MTTF.

    survival(times) gives R at each of a list of times, in one call.
    32-point Gauss-Legendre runs on the panels [0, h], [h, 2h], [2h, 4h],
    ... and stops at the end of the first panel where R < 1e-9, or at 1e9
    hours. h is 1 hour, halved while R(h) < 1/2 so that a sub-hour lifetime
    spans several panels. Four calls at most: the ladder 1, 2, 4, ..., 1e9
    hours; the halvings 2^-1, ..., 2^-64 hours when R(1) < 1/2, and 2^-65,
    ..., 2^-1022 hours when R is below 1/2 at all of those; the nodes.
    math.inf when R is still above 1 - 1e-12 at the end.
    """
    ladder = [1.0]
    while ladder[-1] < _HORIZON_CAP_HOURS:
        ladder.append(min(2.0 * ladder[-1], _HORIZON_CAP_HOURS))
    at = dict(zip(ladder, survival(ladder)))
    first = 1.0
    if at[first] < 0.5:
        halvings = [2.0**-k for k in range(1, 1023)]  # down to the smallest normal float
        for part in (halvings[:64], halvings[64:]):
            at.update(zip(part, survival(part)))
            first = next((h for h in part if at[h] >= 0.5), part[-1])
            if at[first] >= 0.5:
                break
    ends = [0.0, first]
    while at[ends[-1]] >= _TAIL_SURVIVAL and ends[-1] < _HORIZON_CAP_HOURS:
        ends.append(min(2.0 * ends[-1], _HORIZON_CAP_HOURS))
    if at[ends[-1]] > 1.0 - 1e-12:
        return math.inf
    times, weights = [], []
    for lo, hi in zip(ends, ends[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        times.extend(mid + half * x for x in _GAUSS_NODES)
        weights.extend(half * w for w in _GAUSS_WEIGHTS)
    return math.fsum(w * v for w, v in zip(weights, survival(times)))


def mttf(rf: ReliabilityFunction) -> float:
    """Mean time to failure in hours; math.inf when the hazard is zero.

    Exponential and Weibull use their closed forms; a Product is integrated
    by integrate_survival, truncated once R drops below 1e-9.
    """
    if isinstance(rf, Exponential):
        return math.inf if rf.lam == 0.0 else 1.0 / rf.lam
    if isinstance(rf, Weibull):
        return rf.eta * math.gamma(1.0 + 1.0 / rf.beta)
    if isinstance(rf, Product):
        return integrate_survival(lambda times: [reliability_at(rf, t) for t in times])
    raise ValueError(f"not a reliability function: {rf!r}")


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
