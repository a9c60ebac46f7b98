import io
import json
import math
import os
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reliatree import cli
from reliatree.aging import failure_rate_from_profile
from reliatree.errors import InputError
from reliatree.model import load_system_file
from reliatree.thermal import (
    PowerTrace,
    TemperatureProfile,
    ThermalParams,
    read_power_trace,
    simulate_temperature,
    steady_state_temperature,
    write_temperature_profile,
)

from conftest import SAMPLE_DIR

PARAMS = ThermalParams(r_th=2.0, c_th=5.0, t_ambient=300.0)
EPS = 2.0**-52


def sample_component(cid):
    """The shipped sample's trace, thermal and aging parameters of `cid`."""
    payload = load_system_file(os.path.join(SAMPLE_DIR, "system.json")).components()[cid].payload
    with open(payload.power_trace, newline="") as fp:
        return read_power_trace(fp), payload.thermal, payload.aging


def euler_oracle(trace, params, windows, refine=1000):
    """Forward Euler at a much finer step over `windows` repeats of the
    trace from ambient; the end of each step of the last repeat."""
    h = trace.dt_seconds / refine
    temp = params.t_ambient
    for _ in range(windows):
        out = []
        for power in trace.samples:
            t_ss = params.t_ambient + params.r_th * power
            for _ in range(refine):
                temp += h * (t_ss - temp) / params.tau_seconds
            out.append(temp)
    return out


def cold_start_windows(trace, params, windows):
    """The trace repeated `windows` times from ambient, stepped as
    T_ss + (T - T_ss) * exp(-dt/tau); the profile of the last repeat."""
    decay = math.exp(-trace.dt_seconds / params.tau_seconds)
    temp = params.t_ambient
    for _ in range(windows):
        out = []
        for power in trace.samples:
            t_ss = params.t_ambient + params.r_th * power
            temp = t_ss + (temp - t_ss) * decay
            out.append(temp)
    return TemperatureProfile(trace.dt_seconds, tuple(out))


class TestSteadyState:
    def test_zero_power(self):
        assert steady_state_temperature(0.0, PARAMS) == 300.0

    def test_direct_formula(self):
        assert steady_state_temperature(10.0, PARAMS) == pytest.approx(320.0)

    def test_second_point(self):
        p = ThermalParams(1.2, 3.0, 318.0)
        assert steady_state_temperature(7.5, p) == pytest.approx(327.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            steady_state_temperature(-1.0, PARAMS)


class TestSimulate:
    def test_equilibrium_fixed_point(self):
        trace = PowerTrace(1.0, (0.0,) * 20)
        profile = simulate_temperature(trace, PARAMS)
        assert all(t == 300.0 for t in profile.samples)

    @pytest.mark.parametrize(
        "r_th, c_th, t_ambient, power, dt, n",
        [
            (2.0, 5.0, 300.0, 10.0, 1.0, 120),
            (2.5, 4.0, 300.0, 12.0, 1.0, 60),
            (1.2, 3.0, 318.0, 7.5, 0.5, 64),
            (2.0, 1e6, 300.0, 8.0, 1.0, 60),
            (1e-3, 1e-3, 300.0, 3.0, 1.0, 10),
        ],
    )
    def test_constant_power_is_its_steady_state(self, r_th, c_th, t_ambient, power, dt, n):
        # A constant trace's periodic state is its steady state from the
        # first sample on, whatever tau is against the window.
        params = ThermalParams(r_th, c_th, t_ambient)
        profile = simulate_temperature(PowerTrace(dt, (power,) * n), params)
        assert set(profile.samples) == {t_ambient + r_th * power}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        r_th=st.floats(1e-300, 1e300),
        c_th=st.floats(1e-300, 1e300),
        t_ambient=st.floats(1e-3, 1e5),
        power=st.floats(0.0, 1e3),
        dt=st.floats(1e-3, 1e3),
        n=st.integers(1, 100),
    )
    def test_constant_power_within_two_roundings_per_sample(self, r_th, c_th, t_ambient, power, dt, n):
        # The first pass sums n rounded rises, so the periodic state of a
        # constant trace is within about n roundings of T_amb + r_th * P.
        try:
            params = ThermalParams(r_th, c_th, t_ambient)
            profile = simulate_temperature(PowerTrace(dt, (power,) * n), params)
        except InputError:
            return
        t_ss = t_ambient + r_th * power
        assert max(abs(t - t_ss) for t in profile.samples) <= 2 * n * EPS * t_ss

    @pytest.mark.parametrize("c_th", [4.0, 100.0, 1e6])
    @pytest.mark.parametrize("cid", ["pu1", "pu2"])
    def test_one_more_window_ends_where_it_started(self, cid, c_th):
        trace, params, _ = sample_component(cid)
        params = ThermalParams(params.r_th, c_th, params.t_ambient)
        profile = simulate_temperature(trace, params)
        last = profile.samples[-1]
        step = -math.expm1(-trace.dt_seconds / params.tau_seconds)
        rise = last - params.t_ambient
        for power in trace.samples:
            rise += (params.r_th * power - rise) * step
        assert abs(params.t_ambient + rise - last) <= 4 * math.ulp(last)

    def test_square_wave_matches_closed_form(self):
        # 30 steps at 20 W, then 30 at 2 W, tau = 10 s. The periodic rise
        # at the start of the high phase is u_s = (B (1 - a) + A (1 - a) a) /
        # (1 - a^2), with A and B the two phases' steady rises, a = exp(-30 dt/tau).
        params = ThermalParams(2.0, 5.0, 300.0)
        high, low = 2.0 * 20.0, 2.0 * 2.0
        profile = simulate_temperature(PowerTrace(1.0, (20.0,) * 30 + (2.0,) * 30), params)
        a = math.exp(-30.0 / 10.0)
        u_s = (low * (1.0 - a) + high * (1.0 - a) * a) / (1.0 - a * a)
        u_m = high + (u_s - high) * a
        for k, temp in enumerate(profile.samples, start=1):
            if k <= 30:
                rise = high + (u_s - high) * math.exp(-k / 10.0)
            else:
                rise = low + (u_m - low) * math.exp(-(k - 30) / 10.0)
            assert temp == pytest.approx(300.0 + rise, rel=1e-15, abs=0.0)

    def test_repeated_cold_windows_converge_to_the_periodic_rate(self):
        # pu1's trace repeated k times from ambient, scored on its last
        # repeat, approaches the periodic profile's wear-out rate as k grows.
        trace, params, aging = sample_component("pu1")
        periodic = failure_rate_from_profile(simulate_temperature(trace, params), aging)
        assert periodic == pytest.approx(2.0619416103240443e-05, rel=1e-12, abs=0.0)
        gaps = [
            abs(failure_rate_from_profile(cold_start_windows(trace, params, k), aging) / periodic - 1.0)
            for k in range(1, 9)
        ]
        assert gaps[0] > 0.2 and 1e-6 < gaps[2] < 1e-5
        assert all(b < a for a, b in zip(gaps, gaps[1:6]))
        assert gaps[-1] <= 1e-15

    def test_ramp_against_fine_euler(self):
        # tau = 10 s over a 50-s window: ten repeats from ambient reach the
        # periodic state within e^-50 of the rise.
        powers = tuple(10.0 * k / 49 for k in range(50))
        trace = PowerTrace(1.0, powers)
        exact = simulate_temperature(trace, PARAMS).samples
        approx = euler_oracle(trace, PARAMS, windows=10)
        worst = max(abs(a - b) for a, b in zip(exact, approx))
        assert worst <= 1e-3

    def test_huge_resistance_starts_at_mean_power_steady_state(self):
        # r_th = 1e300: tau is 4e300 s against a 60-s window, so the node
        # sits at the mean power's steady state, about 1.2e301 K.
        trace, params, _ = sample_component("pu1")
        params = ThermalParams(1e300, params.c_th, params.t_ambient)
        profile = simulate_temperature(trace, params)
        mean = steady_state_temperature(sum(trace.samples) / len(trace.samples), params)
        assert math.isfinite(mean)
        assert profile.samples[0] == pytest.approx(mean, rel=1e-12, abs=0.0)

    def test_envelope_bounds(self):
        powers = (0.0, 5.0, 17.0, 3.0, 17.0, 0.0, 9.0)
        profile = simulate_temperature(PowerTrace(2.0, powers), PARAMS)
        hi = max(steady_state_temperature(p, PARAMS) for p in powers)
        for t in profile.samples:
            assert PARAMS.t_ambient <= t <= hi

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

    def test_slow_sample_node_sits_at_its_mean_steady_state(self, tmp_path, capsys):
        # pu1 with c_th = 1e300: tau is 2.5e300 s, so its temperature never
        # leaves the mean power's steady state, 300 + 2.5 * 12 = 330 K. A
        # cold start would keep it at ambient and undercount its wear-out.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        doc = json.loads(system.read_text())
        doc["hierarchy"]["children"][0]["thermal"]["c_th"] = 1e300
        system.write_text(json.dumps(doc))
        code = cli.main(["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        pu1 = json.loads(out)["components"]["pu1"]
        assert pu1["peak_temp_k"] == pu1["steady_state_temp_k"] == 330.0


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
            ThermalParams(0.0, 1.0, 300.0)


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
