"""Lumped-RC compact thermal simulation: power trace in, temperature out.

One thermal node per component: C * dT/dt = P(t) - (T - T_amb) / R.
Power is piecewise constant over the trace step, so each step has the
exact solution T[k+1] = T_ss + (T[k] - T_ss) * exp(-dt/tau), which is
unconditionally stable and step-size exact.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .errors import InputError

__all__ = [
    "ThermalParams",
    "PowerTrace",
    "TemperatureProfile",
    "steady_state_temperature",
    "simulate_temperature",
    "read_power_trace",
    "write_temperature_profile",
]


@dataclass(frozen=True)
class ThermalParams:
    r_th: float  # K/W
    c_th: float  # J/K
    t_ambient: float  # K
    t_initial: float  # K

    def __post_init__(self):
        for name in ("r_th", "c_th", "t_ambient", "t_initial"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InputError(f"thermal {name} must be positive, got {v!r}")
        if not self.tau_seconds > 0:
            raise InputError(
                f"thermal time constant r_th * c_th underflows to 0 (r_th={self.r_th!r}, c_th={self.c_th!r})"
            )

    @property
    def tau_seconds(self) -> float:
        return self.r_th * self.c_th


def _check_series(kind: str, samples, lower=0.0):
    samples = tuple(float(x) for x in samples)
    if not samples:
        raise ValueError(f"{kind} needs at least one sample")
    for x in samples:
        if not math.isfinite(x) or x < lower:
            raise ValueError(f"{kind} sample out of range: {x!r}")
    return samples


@dataclass(frozen=True)
class PowerTrace:
    dt_seconds: float
    samples: tuple

    def __post_init__(self):
        if not (math.isfinite(self.dt_seconds) and self.dt_seconds > 0):
            raise ValueError(f"power trace dt must be positive, got {self.dt_seconds!r}")
        object.__setattr__(self, "samples", _check_series("power", self.samples))


@dataclass(frozen=True)
class TemperatureProfile:
    dt_seconds: float
    samples: tuple

    def __post_init__(self):
        if not (math.isfinite(self.dt_seconds) and self.dt_seconds > 0):
            raise ValueError(f"profile dt must be positive, got {self.dt_seconds!r}")
        object.__setattr__(self, "samples", _check_series("temperature", self.samples, lower=1e-12))


def steady_state_temperature(power_w: float, params: ThermalParams) -> float:
    """Equilibrium temperature under constant power: T_amb + R_th * P."""
    if power_w < 0:
        raise ValueError(f"power must be nonnegative, got {power_w!r}")
    return params.t_ambient + params.r_th * power_w


def simulate_temperature(trace: PowerTrace, params: ThermalParams) -> TemperatureProfile:
    """Integrate the RC node over the trace; sample k is the end of step k.
    InputError when the hottest steady state T_amb + R_th * P overflows."""
    peak = max(trace.samples)
    if not math.isfinite(params.t_ambient + params.r_th * peak):
        raise InputError(f"t_ambient + r_th * power overflows a float at power {peak!r} W, r_th {params.r_th!r} K/W")
    decay = math.exp(-trace.dt_seconds / params.tau_seconds)
    temp = params.t_initial
    out = []
    for power in trace.samples:
        t_ss = params.t_ambient + params.r_th * power
        temp = t_ss + (temp - t_ss) * decay
        out.append(temp)
    return TemperatureProfile(trace.dt_seconds, tuple(out))


def read_power_trace(fp) -> PowerTrace:
    """Parse a `time_s,power_w` CSV with a uniform time grid starting at 0."""
    try:
        rows = list(csv.reader(fp))
    except csv.Error as exc:
        raise InputError(f"power trace is not valid CSV: {exc}") from None
    if not rows or rows[0] != ["time_s", "power_w"]:
        raise InputError("power trace must start with header 'time_s,power_w'")
    if len(rows) < 3:
        raise InputError("power trace needs at least two data rows")
    times = []
    powers = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise InputError(f"power trace line {lineno}: expected 2 fields")
        try:
            t, p = float(row[0]), float(row[1])
        except ValueError as exc:
            raise InputError(f"power trace line {lineno}: {exc}") from None
        if not math.isfinite(t):
            raise InputError(f"power trace line {lineno}: time must be finite, got {t!r}")
        if not (math.isfinite(p) and p >= 0):
            raise InputError(f"power trace line {lineno}: power must be finite and nonnegative, got {p!r}")
        times.append(t)
        powers.append(p)
    if times[0] != 0.0:
        raise InputError("power trace must start at time 0")
    dt = times[1] - times[0]
    if dt <= 0:
        raise InputError("power trace times must be strictly increasing")
    for k, t in enumerate(times):
        if abs(t - k * dt) > 1e-6 * dt:
            raise InputError(f"power trace time grid not uniform at row {k + 2}")
    return PowerTrace(dt, tuple(powers))


def write_temperature_profile(profile: TemperatureProfile, fp) -> None:
    fp.write("time_s,temp_k\n")
    for k, temp in enumerate(profile.samples):
        fp.write(f"{repr(k * profile.dt_seconds)},{repr(temp)}\n")
