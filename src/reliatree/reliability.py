"""Survival-function forms: the measure every analysis passes upward.

All times are hours. Four forms cover the engine: closed-form Exponential
and Weibull; Product of a component's independent competing failure modes
(its permanent wear-out and its transient soft errors), Exponentials and
Weibulls; and Structure, a success tree over Products. Every form evaluates
to a probability in [0, 1] with R(0) = 1. reliability_at, the one
evaluator, reads a form at a number or at a column of times, each entry
with the bits of the number call. A column is read factor by factor:
numpy computes only -lam * t and t / eta, which IEEE rounds as Python
does, each factor's exp and power stay in scalar math, and a Product
folds its factor columns in factor order with numpy *= from a column of
ones, elementwise IEEE products that keep the number call's fold. An
MTTF without a closed form is integrate_survival of the survival, on
panels chosen from it alone and read a column per call; a panel whose
halves disagree with it is split.
sample_failure_times draws by inverse CDF, a lane of uniforms per factor: a
Product fails at its factors' earliest time, and a Structure's events, in
sorted id order, take their factors' lanes in turn.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import InputError, quoted
from .successtree import Gate, basic_events, evaluate_structure, tree_probability

__all__ = [
    "Exponential",
    "Weibull",
    "Product",
    "Structure",
    "ReliabilityFunction",
    "reliability_at",
    "integrate_survival",
    "mttf",
    "sample_failure_times",
]

_GAUSS_POINTS = 32
# A panel keeps its own value when its two halves agree with it to this
# fraction of the integral up to its end, and the tail past the last panel
# end may hold at most this fraction of the integral.
_SPLIT_TOLERANCE = 1e-13
_TINY = sys.float_info.min  # the smallest normal float


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


@dataclass(frozen=True)
class Structure:
    """Independent components under a success tree: forms maps every tree
    event, a component id, to the tuple of its fault modes, and holds each
    event's Product of them, in sorted id order (the lane order)."""

    tree: Gate
    forms: Mapping

    def __post_init__(self):
        forms = {}
        for cid in sorted(basic_events(self.tree)):
            if cid not in self.forms:
                raise InputError(f"no reliability functions for component {quoted(cid)}")
            try:
                forms[cid] = Product(self.forms[cid])
            except ValueError as exc:
                raise ValueError(f"component {quoted(cid)}: {exc}") from None
        object.__setattr__(self, "forms", forms)

    @property
    def lanes(self) -> int:  # uniforms per sample: one per fault mode of each event
        return sum(len(form.factors) for form in self.forms.values())


ReliabilityFunction = Union[Exponential, Weibull, Product, Structure]


def reliability_at(rf: ReliabilityFunction, t):
    """Survival at t hours (t >= 0), a number or a 1-D float64 column: one entry per time."""
    if isinstance(rf, Structure):
        return tree_probability(rf.tree, {cid: reliability_at(form, t) for cid, form in rf.forms.items()})
    factors = rf.factors if isinstance(rf, Product) else (rf,)
    if not isinstance(t, np.ndarray):
        if not t >= 0:
            raise ValueError(f"time must be nonnegative, got {t!r}")
        r = 1.0  # a Product folds its factors in order
        for f in factors:
            r *= _factor_at(f, t)
        return r
    bad = np.flatnonzero(~(t >= 0))
    if len(bad):
        raise ValueError(f"time must be nonnegative, got {t[bad[0]].item()!r}")
    r = np.ones(len(t))
    for f in factors:  # elementwise IEEE products in factor order: the number calls' fold
        r *= _factor_column(f, t)
    return r


def _factor_at(f, x: float) -> float:
    """Survival of one Exponential or Weibull at x hours, in scalar math."""
    if isinstance(f, Exponential):
        # lam = 0 never fails, even at t = inf, where 0 * inf would be NaN.
        return 1.0 if f.lam == 0.0 else math.exp(-f.lam * x)
    if isinstance(f, Weibull):
        return _weibull_at(f, x, x / f.eta)
    raise ValueError(f"not a reliability function: {f!r}")


def _weibull_at(f: Weibull, x: float, z: float) -> float:
    """Survival of f at x hours, from z = x / eta. When z is not a normal
    float it lost bits its power may need, so that power is taken in logs."""
    try:
        w = (z**f.beta if _TINY <= z < math.inf or not 0.0 < x < math.inf
             else math.exp(f.beta * (math.log(x) - math.log(f.eta))))
        return math.exp(-w)
    except OverflowError:  # (t/eta)^beta past the largest float: R rounds to 0
        return 0.0


def _factor_column(f, t: np.ndarray) -> list:
    """_factor_at(f, x) at each entry x of t, bit for bit. Numpy computes
    only -lam * t and t / eta, which IEEE rounds as Python does; exp and
    the power stay in math, whose last bit numpy's SIMD may not match."""
    with np.errstate(over="ignore", under="ignore"):
        if isinstance(f, Exponential):
            return [1.0] * len(t) if f.lam == 0.0 else [math.exp(v) for v in (-f.lam * t).tolist()]
        if not isinstance(f, Weibull):
            raise ValueError(f"not a reliability function: {f!r}")
        z = t / f.eta
    zs = z.tolist()
    try:
        column = [math.exp(-(v**f.beta)) for v in zs]
    except OverflowError:  # an entry's power is past the largest float
        return [_weibull_at(f, x, v) for x, v in zip(t.tolist(), zs)]
    for i in np.flatnonzero(~((_TINY <= z) & (z < math.inf)) & (0.0 < t) & (t < math.inf)).tolist():
        column[i] = _weibull_at(f, t[i].item(), zs[i])  # the log path
    return column


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
    T = 2^1023 hours, the last panel end a float holds. Against closed
    forms the relative error is below 1.2e-15, and below 7.1e-14 for
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
    one call, on the nodes of its quarters. The MTTF is math.inf when R(T)
    is still above 1 - 1e-12. The tail past T is not integrated: it is an
    InputError when T * R(T), the most the next doubling panel can hold, is
    above 1e-13 of the MTTF.
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
    integral, last = unit * math.fsum(kept), ends[-1]
    if last * at[last] > _SPLIT_TOLERANCE * integral:
        raise InputError(
            f"survival is {float(at[last])!r} at 2^1023 hours, the last time a panel can end: "
            "the MTTF's tail past there cannot be integrated"
        )
    return integral


def mttf(rf: ReliabilityFunction) -> float:
    """Mean time to failure in hours; math.inf when the hazard is zero.

    Exponential and Weibull use their closed forms; a Product or a
    Structure is integrated by integrate_survival, reading the form on a
    column of times per call, up to the first panel end where R underflows.
    """
    if isinstance(rf, Exponential):
        return math.inf if rf.lam == 0.0 else 1.0 / rf.lam
    if isinstance(rf, Weibull):
        return rf.eta * math.gamma(1.0 + 1.0 / rf.beta)
    return integrate_survival(lambda times: reliability_at(rf, times))  # reliability_at rejects what is not a form


def sample_failure_times(rf: ReliabilityFunction, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF failure times, one per uniform in (0, 1] of the 1-D array
    uniforms, or per column of its 2-D rows, a row per lane, for a Product or
    a Structure. A time past the largest float is +inf."""
    if isinstance(rf, Structure):
        rows = iter(uniforms)  # each event takes the next row per factor of its Product
        times = {cid: sample_failure_times(form, [next(rows) for _ in form.factors]) for cid, form in rf.forms.items()}
        return evaluate_structure(rf.tree, times)
    if isinstance(rf, Product):
        times = sample_failure_times(rf.factors[0], uniforms[0])
        for factor, row in zip(rf.factors[1:], uniforms[1:]):
            np.minimum(times, sample_failure_times(factor, row), out=times)  # pairwise, in factor order
        return times
    with np.errstate(over="ignore"):
        if isinstance(rf, Exponential):
            if rf.lam == 0.0:
                # Never fails; -log(1.0) / 0 would be NaN. The draw is still taken.
                return np.full_like(uniforms, np.inf)
            return -np.log(uniforms) / rf.lam
        if isinstance(rf, Weibull):
            return rf.eta * (-np.log(uniforms)) ** (1.0 / rf.beta)
    raise ValueError(f"not an Exponential or a Weibull: {rf!r}")
