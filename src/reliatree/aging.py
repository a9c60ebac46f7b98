"""Permanent-fault leaf analysis: temperature profile to a wear-out survival.

Electromigration lifetime follows Black's equation,
MTTF = A * J^(-n) * exp(Ea / (kB * T)), and a duty-cycled profile is
reduced with time-averaged failure rates. The resulting lifetime is
expressed as a Weibull whose mean matches the averaged MTTF.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .reliability import Weibull
from .thermal import TemperatureProfile

__all__ = [
    "BOLTZMANN_EV_PER_K",
    "AgingParams",
    "black_mttf",
    "failure_rate_from_profile",
    "weibull_from_mttf",
]

BOLTZMANN_EV_PER_K = 8.617e-5


@dataclass(frozen=True)
class AgingParams:
    a_const: float  # hours * (A/cm^2)^n_exp
    j_density: float  # A/cm^2
    n_exp: float
    ea_ev: float
    weibull_beta: float

    def __post_init__(self):
        for name in ("a_const", "j_density", "ea_ev", "weibull_beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InputError(f"aging {name} must be positive, got {v!r}")
        if not (math.isfinite(self.n_exp) and self.n_exp >= 0):
            raise InputError(f"aging n_exp must be >= 0, got {self.n_exp!r}")
        try:
            math.gamma(1.0 + 1.0 / self.weibull_beta)  # weibull_from_mttf divides by it
        except OverflowError:
            raise InputError(
                f"aging weibull_beta {self.weibull_beta!r} is too small: Gamma(1 + 1/beta) overflows"
            ) from None


def black_mttf(temperature_k: float, params: AgingParams) -> float:
    """Electromigration mean time to failure (MTTF) in hours at a fixed temperature.

    math.inf when it overflows a float: so cold (or so little current) that
    wear-out never happens, and the temperature adds 0 to the failure rate.
    """
    if temperature_k <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_k!r}")
    try:
        accel = math.exp(params.ea_ev / (BOLTZMANN_EV_PER_K * temperature_k))
        return params.a_const * params.j_density ** (-params.n_exp) * accel
    except OverflowError:
        return math.inf


def failure_rate_from_profile(profile: TemperatureProfile, params: AgingParams) -> float:
    """Effective per-hour rate: the mean of 1/MTTF over the profile samples.

    The profile window is treated as a stationary, representative workload.
    """
    if not profile.samples:
        raise ValueError("temperature profile is empty")
    total = 0.0
    for temp in profile.samples:
        life = black_mttf(temp, params)
        total += math.inf if life == 0.0 else 1.0 / life  # a lifetime that underflowed fails at once
    return total / len(profile.samples)


def weibull_from_mttf(mttf_hours: float, beta: float) -> Weibull:
    """The Weibull with the given shape whose mean equals mttf_hours."""
    if not (math.isfinite(mttf_hours) and mttf_hours > 0):
        raise ValueError(f"mttf must be positive, got {mttf_hours!r}")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive, got {beta!r}")
    return Weibull(eta=mttf_hours / math.gamma(1.0 + 1.0 / beta), beta=beta)
