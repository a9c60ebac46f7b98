import math

import pytest
from scipy import integrate

from reliatree.aging import (
    BOLTZMANN_EV_PER_K,
    AgingParams,
    black_mttf,
    failure_rate_from_profile,
    weibull_from_mttf,
)
from reliatree.reliability import reliability_at
from reliatree.thermal import TemperatureProfile

PARAMS = AgingParams(a_const=1.0e6, j_density=1.0e6, n_exp=2.0, ea_ev=0.7, weibull_beta=2.0)


def profile(temps, dt=1.0):
    return TemperatureProfile(dt, tuple(temps))


class TestBlackEquation:
    def test_arrhenius_acceleration_ratio(self):
        # Independent evaluation of the same acceleration factor.
        expected = math.exp((0.7 / BOLTZMANN_EV_PER_K) * (1.0 / 300.0 - 1.0 / 350.0))
        got = black_mttf(300.0, PARAMS) / black_mttf(350.0, PARAMS)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(47.9, rel=0.01)

    def test_exponent_zero_removes_current_density(self):
        base = AgingParams(1.0e6, 1.0e6, 0.0, 0.7, 2.0)
        other = AgingParams(1.0e6, 3.3e4, 0.0, 0.7, 2.0)
        assert black_mttf(320.0, base) == black_mttf(320.0, other)

    def test_linear_in_scale_constant(self):
        doubled = AgingParams(2.0e6, 1.0e6, 2.0, 0.7, 2.0)
        for temp in (290.0, 320.0, 380.0):
            assert black_mttf(temp, doubled) == pytest.approx(
                2.0 * black_mttf(temp, PARAMS), rel=1e-12
            )

    def test_decreasing_in_temperature_and_density(self):
        assert black_mttf(310.0, PARAMS) > black_mttf(311.0, PARAMS)
        denser = AgingParams(1.0e6, 2.0e6, 2.0, 0.7, 2.0)
        assert black_mttf(310.0, denser) < black_mttf(310.0, PARAMS)

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(ValueError):
            black_mttf(0.0, PARAMS)

    @pytest.mark.parametrize(
        "temp, params",
        [(1.0, PARAMS), (10.0, PARAMS), (300.0, AgingParams(1.0e6, 1e-200, 2.0, 0.7, 2.0))],
        ids=["1K", "10K", "tiny-current"],
    )
    def test_overflow_is_unbounded_lifetime(self, temp, params):
        assert black_mttf(temp, params) == math.inf


class TestProfileAveraging:
    def test_constant_profile(self):
        lam = failure_rate_from_profile(profile([330.0] * 7), PARAMS)
        assert lam == pytest.approx(1.0 / black_mttf(330.0, PARAMS), rel=1e-12)

    def test_two_sample_average(self):
        lam = failure_rate_from_profile(profile([300.0, 350.0]), PARAMS)
        expected = 0.5 * (1.0 / black_mttf(300.0, PARAMS) + 1.0 / black_mttf(350.0, PARAMS))
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_jensen_inequality_for_sawtooth(self):
        # The Arrhenius rate is convex in T, so alternating 300/350 ages
        # faster than holding the midpoint 325.
        saw = failure_rate_from_profile(profile([300.0, 350.0] * 8), PARAMS)
        mid = 1.0 / black_mttf(325.0, PARAMS)
        assert saw > mid

    def test_cold_samples_add_nothing(self):
        lam = failure_rate_from_profile(profile([1.0, 330.0, 5.0, 330.0]), PARAMS)
        assert lam == pytest.approx(0.5 / black_mttf(330.0, PARAMS), rel=1e-12)
        assert failure_rate_from_profile(profile([1.0, 2.0]), PARAMS) == 0.0

    def test_underflowing_lifetime_is_infinite_rate(self):
        # A * J^-n = 1e-300 * 1e-40 rounds to 0, so Black's lifetime is 0.0.
        instant = AgingParams(1e-300, 1e20, 2.0, 0.7, 2.0)
        assert black_mttf(330.0, instant) == 0.0
        assert failure_rate_from_profile(profile([330.0, 330.0]), instant) == math.inf

    def test_rate_increases_with_any_sample(self):
        cool = failure_rate_from_profile(profile([300.0, 310.0, 320.0]), PARAMS)
        warm = failure_rate_from_profile(profile([300.0, 311.0, 320.0]), PARAMS)
        assert warm > cool


class TestWeibullFromMttf:
    def test_beta_one_is_exponential_scale(self):
        rf = weibull_from_mttf(5000.0, 1.0)
        assert rf.eta == pytest.approx(5000.0, rel=1e-12)

    def test_gamma_oracle_for_beta_two(self):
        rf = weibull_from_mttf(1000.0, 2.0)
        assert rf.eta == pytest.approx(1000.0 / 0.8862269254527580, rel=1e-9)
        assert rf.eta == pytest.approx(1128.38, rel=1e-4)

    @pytest.mark.parametrize("m", [10.0, 1.0e3, 1.0e6])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_round_trip_against_quadrature(self, m, beta):
        rf = weibull_from_mttf(m, beta)
        upper = m * (200.0 if beta < 1 else 10.0)
        oracle, _ = integrate.quad(
            lambda t: reliability_at(rf, t), 0.0, upper, limit=800
        )
        assert oracle == pytest.approx(m, rel=1e-3)

    def test_starts_at_one_and_decreases(self):
        rf = weibull_from_mttf(123.0, 2.5)
        values = [reliability_at(rf, t) for t in (0.0, 10.0, 100.0, 1000.0)]
        assert values[0] == 1.0
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            weibull_from_mttf(0.0, 2.0)
        with pytest.raises(ValueError):
            weibull_from_mttf(100.0, 0.0)

    def test_shape_whose_mean_overflows_rejected(self):
        # Gamma(1 + 1/0.005) = 200! is past the largest float.
        with pytest.raises(ValueError, match="weibull_beta 0.005 is too small"):
            AgingParams(1.0e6, 1.0e6, 2.0, 0.7, 0.005)
        assert AgingParams(1.0e6, 1.0e6, 2.0, 0.7, 0.006).weibull_beta == 0.006


class TestGamma:
    def test_integer_values_exact(self):
        assert abs(math.gamma(1.0) - 1.0) < 1e-12
        assert abs(math.gamma(2.0) - 1.0) < 1e-12

    def test_half_is_sqrt_pi(self):
        assert abs(math.gamma(0.5) - math.sqrt(math.pi)) < 1e-10
