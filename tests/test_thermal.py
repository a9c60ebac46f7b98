import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reliatree.errors import InputError
from reliatree.thermal import (
    PowerTrace,
    ThermalParams,
    read_power_trace,
    simulate_temperature,
    steady_state_temperature,
    write_temperature_profile,
)

PARAMS = ThermalParams(r_th=2.0, c_th=5.0, t_ambient=300.0, t_initial=300.0)


def euler_oracle(trace, params, refine=1000):
    """Forward-Euler integration at a much finer step; endpoint per step."""
    h = trace.dt_seconds / refine
    tau = params.r_th * params.c_th
    temp = params.t_initial
    out = []
    for power in trace.samples:
        t_ss = params.t_ambient + params.r_th * power
        for _ in range(refine):
            temp += h * (t_ss - temp) / tau
        out.append(temp)
    return out


class TestSteadyState:
    def test_zero_power(self):
        assert steady_state_temperature(0.0, PARAMS) == 300.0

    def test_direct_formula(self):
        assert steady_state_temperature(10.0, PARAMS) == pytest.approx(320.0)

    def test_second_point(self):
        p = ThermalParams(1.2, 3.0, 318.0, 318.0)
        assert steady_state_temperature(7.5, p) == pytest.approx(327.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            steady_state_temperature(-1.0, PARAMS)


class TestSimulate:
    def test_equilibrium_fixed_point(self):
        trace = PowerTrace(1.0, (0.0,) * 20)
        profile = simulate_temperature(trace, PARAMS)
        assert all(t == 300.0 for t in profile.samples)

    def test_constant_power_reaches_steady_state(self):
        # tau = 10 s; after >= 10 tau the error is below 1e-3 K.
        trace = PowerTrace(1.0, (10.0,) * 120)
        profile = simulate_temperature(trace, PARAMS)
        assert abs(profile.samples[-1] - 320.0) < 1e-3
        for sample in profile.samples[100:]:
            assert abs(sample - 320.0) < 1e-3

    def test_ramp_against_fine_euler(self):
        powers = tuple(10.0 * k / 49 for k in range(50))
        trace = PowerTrace(1.0, powers)
        exact = simulate_temperature(trace, PARAMS).samples
        approx = euler_oracle(trace, PARAMS)
        worst = max(abs(a - b) for a, b in zip(exact, approx))
        assert worst <= 1e-3

    def test_monotone_approach_for_constant_power(self):
        trace = PowerTrace(0.5, (8.0,) * 64)
        profile = simulate_temperature(trace, PARAMS)
        t_ss = steady_state_temperature(8.0, PARAMS)
        gaps = [abs(t - t_ss) for t in profile.samples]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a

    def test_envelope_bounds(self):
        powers = (0.0, 5.0, 17.0, 3.0, 17.0, 0.0, 9.0)
        params = ThermalParams(2.0, 5.0, 300.0, 340.0)
        profile = simulate_temperature(PowerTrace(2.0, powers), params)
        lo = min(params.t_initial, params.t_ambient)
        hi = max(
            max(params.t_ambient + params.r_th * p for p in powers), params.t_initial
        )
        for t in profile.samples:
            assert lo <= t <= hi

    def test_half_step_consistency(self):
        # The exact stepper is step-size exact for piecewise-constant power.
        powers = (3.0, 12.0, 7.0, 0.0, 15.0)
        full = simulate_temperature(PowerTrace(2.0, powers), PARAMS)
        doubled = tuple(p for p in powers for _ in range(2))
        half = simulate_temperature(PowerTrace(1.0, doubled), PARAMS)
        for k, t in enumerate(full.samples):
            assert abs(t - half.samples[2 * k + 1]) <= 1e-9

    def test_deterministic(self):
        trace = PowerTrace(1.0, (1.0, 2.0, 3.0))
        a = simulate_temperature(trace, PARAMS)
        b = simulate_temperature(trace, PARAMS)
        assert a == b

    def test_profile_metadata(self):
        trace = PowerTrace(0.25, (1.0, 2.0))
        profile = simulate_temperature(trace, PARAMS)
        assert profile.dt_seconds == 0.25
        assert len(profile.samples) == 2


class TestValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace(1.0, ())

    def test_non_finite_power_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace(1.0, (1.0, math.nan))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace(1.0, (-0.5,))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            ThermalParams(0.0, 1.0, 300.0, 300.0)


class TestCsv:
    def test_round_trip(self):
        text = "time_s,power_w\n0.0,1.5\n2.0,2.5\n4.0,0.0\n"
        trace = read_power_trace(io.StringIO(text))
        assert trace.dt_seconds == 2.0
        assert trace.samples == (1.5, 2.5, 0.0)

    @pytest.mark.parametrize(
        "text",
        [
            "power_w,time_s\n0.0,1.0\n1.0,1.0\n",
            "time_s,power_w\n0.5,1.0\n1.5,1.0\n",
            "time_s,power_w\n0.0,1.0\n1.0,1.0\n3.0,1.0\n",
            "time_s,power_w\n0.0,1.0\n",
            "time_s,power_w\n0.0,1.0\n1.0,oops\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(InputError):
            read_power_trace(io.StringIO(text))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,nan", "power trace line 3: power must be finite and nonnegative, got nan"),
            ("1,-0.5", "power trace line 3: power must be finite and nonnegative, got -0.5"),
            ("1,inf", "power trace line 3: power must be finite and nonnegative, got inf"),
            ("nan,1", "power trace line 3: time must be finite, got nan"),
        ],
        ids=["nan-power", "negative-power", "inf-power", "nan-time"],
    )
    def test_bad_sample_names_its_line(self, row, message):
        with pytest.raises(InputError) as exc:
            read_power_trace(io.StringIO(f"time_s,power_w\n0,1\n{row}\n2,1\n"))
        assert str(exc.value) == message

    def test_profile_export_shape(self):
        profile = simulate_temperature(PowerTrace(1.0, (5.0, 5.0)), PARAMS)
        buf = io.StringIO()
        write_temperature_profile(profile, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "time_s,temp_k"
        assert len(lines) == 3
        assert lines[1].startswith("0.0,")


_CSV_FIELD = st.sampled_from(["0", "0.0", "1", "2.0", "-1", "1e400", "nan", "inf", "x", "", '"1"', '"'])
_TRACE_LIKE = st.lists(
    st.lists(_CSV_FIELD, min_size=1, max_size=3).map(",".join), max_size=6
).map(lambda rows: "\n".join(["time_s,power_w"] + rows))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), _TRACE_LIKE), newline=st.sampled_from([None, ""]))
# A field longer than the csv module's limit.
@example(text="time_s,power_w\n0,1\n1," + "1" * 200_000, newline=None)
def test_read_power_trace_raises_only_input_errors(text, newline):
    try:
        trace = read_power_trace(io.StringIO(text, newline=newline))
    except InputError:
        return
    assert len(trace.samples) >= 2 and trace.dt_seconds > 0
