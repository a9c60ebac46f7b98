"""Survival-function forms: the measure every analysis passes upward.

All times are hours. Four forms cover the engine: closed-form Exponential
and Weibull, Sampled curves interpolated as piecewise-exponential segments
(constant hazard per segment, so the curve stays positive, monotone, and
integrable in closed form), and Product for independent competing failure
modes. Every form evaluates to a probability in [0, 1] with R(0) = 1.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Exponential",
    "Weibull",
    "Sampled",
    "Product",
    "ReliabilityFunction",
    "constant_one",
    "reliability_at",
    "mttf",
    "draw_count",
    "sample_failure_times",
]

# Product-form MTTF quadrature: integrate until the survival drops below
# the tail threshold, never past the horizon cap (truncation documented).
_TAIL_SURVIVAL = 1e-9
_HORIZON_CAP_HOURS = 1e9
_QUAD_REL_TOL = 1e-6


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Exponential:
    """Constant hazard: R(t) = exp(-lam * t), lam in 1/hour."""

    lam: float

    def __post_init__(self):
        _require_positive("exponential rate", self.lam)


@dataclass(frozen=True)
class Weibull:
    """R(t) = exp(-(t/eta)^beta); eta is the scale in hours, beta the shape."""

    eta: float
    beta: float

    def __post_init__(self):
        _require_positive("weibull eta", self.eta)
        _require_positive("weibull beta", self.beta)


@dataclass(frozen=True)
class Sampled:
    """A survival curve given by samples, starting at (0, 1), non-increasing."""

    times: tuple
    values: tuple
    # (per-segment constant hazards, tail hazard), derived in __post_init__.
    segment_rates: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) != len(values) or not times:
            raise ValueError("sampled curve needs matching, nonempty times/values")
        if times[0] != 0.0:
            raise ValueError("sampled curve must start at t=0")
        if values[0] != 1.0:
            raise ValueError("sampled curve must start at R=1")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError("sampled times must be strictly increasing")
        for v in values:
            if not (0.0 <= v <= 1.0) or math.isnan(v):
                raise ValueError(f"sampled value out of [0,1]: {v!r}")
        for a, b in zip(values, values[1:]):
            if b > a:
                raise ValueError("sampled values must be non-increasing")
        object.__setattr__(self, "segment_rates", _segment_rates(times, values))


@dataclass(frozen=True)
class Product:
    """Independent competing risks: R(t) is the product of the factors."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        for f in factors:
            if not isinstance(f, (Exponential, Weibull, Sampled, Product)):
                raise ValueError(f"not a reliability function: {f!r}")


ReliabilityFunction = Union[Exponential, Weibull, Sampled, Product]


def constant_one() -> Sampled:
    """The never-fails function: R(t) = 1 with zero hazard everywhere."""
    return Sampled((0.0,), (1.0,))


def _segment_rates(times: tuple, values: tuple) -> tuple:
    """Per-segment constant hazards; the last one also extrapolates the tail."""
    rates = []
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        r0, r1 = values[i], values[i + 1]
        if r1 <= 0.0:
            rates.append(math.inf if r0 > 0.0 else 0.0)
        else:
            rates.append(math.log(r0 / r1) / dt)
    tail = rates[-1] if rates else 0.0
    return tuple(rates), tail


def _sampled_at(curve: Sampled, t: float) -> float:
    rates, tail = curve.segment_rates
    times, values = curve.times, curve.values
    i = bisect_right(times, t) - 1
    if i >= len(times) - 1:
        last = values[-1]
        if last <= 0.0:
            return 0.0
        if tail == 0.0:
            return last
        return last * math.exp(-tail * (t - times[-1]))
    rate = rates[i]
    if rate == math.inf:
        return values[i] if t == times[i] else values[i + 1]
    return values[i] * math.exp(-rate * (t - times[i]))


def reliability_at(rf: ReliabilityFunction, t: float) -> float:
    """Evaluate the survival probability at t hours (t >= 0)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    if isinstance(rf, Exponential):
        r = math.exp(-rf.lam * t)
    elif isinstance(rf, Weibull):
        r = math.exp(-((t / rf.eta) ** rf.beta))
    elif isinstance(rf, Sampled):
        r = _sampled_at(rf, t)
    elif isinstance(rf, Product):
        r = 1.0
        for f in rf.factors:
            r *= reliability_at(f, t)
    else:
        raise ValueError(f"not a reliability function: {rf!r}")
    return min(1.0, max(0.0, r))


def _sampled_mttf(curve: Sampled) -> float:
    rates, tail = curve.segment_rates
    total = 0.0
    for i, rate in enumerate(rates):
        r0, r1 = curve.values[i], curve.values[i + 1]
        dt = curve.times[i + 1] - curve.times[i]
        if rate == 0.0:
            total += r0 * dt
        elif rate == math.inf:
            pass
        else:
            total += (r0 - r1) / rate
    last = curve.values[-1]
    if last > 0.0:
        if tail == 0.0 or tail == math.inf:
            return math.inf if tail == 0.0 else total
        total += last / tail
    return total


def _adaptive_simpson(f, a, m, b, fa, fm, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(
        f, a, lm, m, fa, flm, fm, left, 0.5 * tol, depth - 1
    ) + _adaptive_simpson(f, m, rm, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


def _integrate(f, a: float, b: float, rel_tol: float) -> float:
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(abs(whole) * rel_tol, 1e-300)
    return _adaptive_simpson(f, a, m, b, fa, fm, fb, whole, tol, 48)


def _product_mttf(rf: Product) -> float:
    def survival(t: float) -> float:
        return reliability_at(rf, t)

    horizon = 1.0
    while survival(horizon) >= _TAIL_SURVIVAL and horizon < _HORIZON_CAP_HOURS:
        horizon *= 2.0
    horizon = min(horizon, _HORIZON_CAP_HOURS)
    if survival(horizon) > 1.0 - 1e-12:
        return math.inf
    total = 0.0
    lo = 0.0
    hi = 1.0
    while lo < horizon:
        hi = min(hi, horizon)
        total += _integrate(survival, lo, hi, _QUAD_REL_TOL)
        lo, hi = hi, hi * 2.0
    return total


def mttf(rf: ReliabilityFunction) -> float:
    """Mean time to failure in hours; math.inf when the hazard is zero.

    Exponential and Weibull use their closed forms, Sampled sums the exact
    per-segment integrals plus the constant-hazard tail, and Product falls
    back to adaptive quadrature truncated once R drops below 1e-9 (capped
    at 1e9 hours).
    """
    if isinstance(rf, Exponential):
        return 1.0 / rf.lam
    if isinstance(rf, Weibull):
        return rf.eta * math.gamma(1.0 + 1.0 / rf.beta)
    if isinstance(rf, Sampled):
        return _sampled_mttf(rf)
    if isinstance(rf, Product):
        return _product_mttf(rf)
    raise ValueError(f"not a reliability function: {rf!r}")


def draw_count(rf: ReliabilityFunction) -> int:
    """Number of uniform draws needed to sample one failure time."""
    if isinstance(rf, Product):
        return sum(draw_count(f) for f in rf.factors)
    return 1


def _sampled_inverse(curve: Sampled, u: np.ndarray) -> np.ndarray:
    """Failure times with P(T > t) = R(t) for uniforms u in (0, 1]."""
    rates, tail = curve.segment_rates
    times = np.asarray(curve.times)
    values = np.asarray(curve.values)
    if len(times) == 1 or not rates:
        if tail == 0.0:
            return np.full_like(u, np.inf)
    seg_rates = np.asarray(rates + (tail,)) if rates else np.asarray([tail])
    # Last index i with values[i] >= u; values is non-increasing.
    idx = np.searchsorted(-values, -u, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 1)
    rate = seg_rates[np.minimum(idx, len(seg_rates) - 1)]
    base_t = times[idx]
    base_r = values[idx]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        offset = np.log(base_r / u) / rate
    out = base_t + offset
    out = np.where(rate == np.inf, base_t, out)
    out = np.where((rate == 0.0) & (u < base_r), np.inf, out)
    out = np.where((rate == 0.0) & (u >= base_r), base_t, out)
    return out


def sample_failure_times(rf: ReliabilityFunction, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF failure times from uniforms shaped (draw_count, n).

    A Product consumes one row per elementary factor and returns the
    minimum across factors, matching independent competing risks.
    """
    uniforms = np.atleast_2d(np.asarray(uniforms, dtype=float))
    if uniforms.shape[0] != draw_count(rf):
        raise ValueError(
            f"need {draw_count(rf)} uniform rows, got {uniforms.shape[0]}"
        )
    if isinstance(rf, Exponential):
        return -np.log(uniforms[0]) / rf.lam
    if isinstance(rf, Weibull):
        return rf.eta * (-np.log(uniforms[0])) ** (1.0 / rf.beta)
    if isinstance(rf, Sampled):
        return _sampled_inverse(rf, uniforms[0])
    if isinstance(rf, Product):
        row = 0
        draws = []
        for f in rf.factors:
            k = draw_count(f)
            draws.append(sample_failure_times(f, uniforms[row : row + k]))
            row += k
        return np.minimum.reduce(draws)
    raise ValueError(f"not a reliability function: {rf!r}")
