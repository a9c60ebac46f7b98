"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its measured runtime (run with `pytest -s` to see
the lines as they happen).

The two statistical criteria use fixed seed sets and pool their coverage
counts across the whole campaign (all seeds, and all nodes or grid
points): a pointwise three-sigma band on an empirical survival curve is
left for long stretches whenever the curve's worst excursion exceeds it,
so per-seed fractions are not individually binding.
"""
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from reliatree.cli import main as cli_main
from reliatree.curves import (
    monte_carlo_system,
    system_reliability_curves,
)
from reliatree.aging import BOLTZMANN_EV_PER_K, AgingParams, black_mttf, weibull_from_mttf
from reliatree.model import HierarchyNode, SystemModel
from reliatree.reliability import (
    Exponential,
    Product,
    Weibull,
    mttf,
    reliability_at,
    sample_failure_times,
)
from reliatree.softerror import (
    Z_99,
    exhaustive_derating,
    inject_campaign,
    parse_netlist,
    wilson_interval,
)
from reliatree.successtree import (
    AndGate,
    KofNGate,
    OrGate,
    brute_force_probability,
    evaluate_structure,
    tree_probability,
)
from reliatree.thermal import PowerTrace, ThermalParams, simulate_temperature

from conftest import AND2, FULL_ADDER, OR2, SAMPLE_DIR, padded, seeded_cases


def finish(name: str, limit_s: float, started: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, f"{name}: {elapsed:.2f}s exceeded the {limit_s}s budget"
    print(f"[PASS] {name} ({elapsed:.2f}s < {limit_s}s)")


def two_component_and_model(horizon=10_000.0, points=512):
    tree = AndGate(("pu1", "pu2"))
    children = tuple(HierarchyNode(c, "Component") for c in ("pu1", "pu2"))
    root = HierarchyNode("soc", "System", children)
    return SystemModel("closed_form", horizon, points, root, tree)


def test_c1_closed_form_system_oracle():
    started = time.perf_counter()
    model = two_component_and_model()
    modes = {c: (Exponential(1e-4), Exponential(4e-4)) for c in ("pu1", "pu2")}
    curves = system_reliability_curves(model, modes)
    for t, r, ratio in zip(curves.grid, curves.r_sys, curves.ratio):
        assert abs(r - math.exp(-1e-3 * t)) <= 1e-9
        expected_ratio = math.exp(6e-4 * t)
        assert math.isclose(ratio, expected_ratio, rel_tol=1e-9, abs_tol=1e-9)
        if t > 0:
            assert ratio > 1.0
    assert curves.mttf_sys == pytest.approx(1000.0, rel=1e-9)
    finish("closed-form system oracle", 1.0, started)


def test_c2_success_tree_exactness():
    started = time.perf_counter()
    checked = 0
    for tree, probs in seeded_cases(200, seed=2024, max_events=12, max_depth=5):
        exact = tree_probability(tree, probs)
        brute = brute_force_probability(tree, probs)
        assert abs(exact - brute) <= 1e-12
        checked += 1
    assert checked == 200
    a, b, c = "a", "b", "c"
    shared = OrGate((AndGate((a, b)), AndGate((a, c))))
    probs = {"a": 0.5, "b": 0.5, "c": 0.5}
    assert tree_probability(shared, probs) == pytest.approx(0.375, abs=1e-12)
    assert brute_force_probability(shared, probs) == pytest.approx(0.375, abs=1e-12)
    finish("success-tree exactness (200 random trees + shared event)", 10.0, started)


MC_SEEDS = tuple(range(1, 21))


def _pooled_mc_coverage(tree, modes, horizon, n_samples):
    grid = np.linspace(0.0, horizon, 512)

    def combined(cid, t):
        r_perm, r_trans = modes[cid]
        return reliability_at(r_perm, t) * reliability_at(r_trans, t)

    analytic = np.array(
        [tree_probability(tree, {c: combined(c, float(t)) for c in modes}) for t in grid]
    )
    stderr = np.sqrt(analytic * (1.0 - analytic) / n_samples)
    inside = 0
    for seed in MC_SEEDS:
        mc = monte_carlo_system(tree, modes, n_samples, seed, grid)
        inside += int(np.sum(np.abs(np.array(mc.survival) - analytic) <= 3.0 * stderr + 1e-15))
    return inside / (len(MC_SEEDS) * len(grid))


def test_c3_monte_carlo_statistical_agreement():
    started = time.perf_counter()
    and_tree = AndGate(("pu1", "pu2"))
    and_modes = {c: (Exponential(1e-4), Exponential(4e-4)) for c in ("pu1", "pu2")}
    coverage_a = _pooled_mc_coverage(and_tree, and_modes, 3000.0, 100_000)
    assert coverage_a >= 0.95, f"AND-of-exponentials coverage {coverage_a:.4f}"

    mixed_tree = AndGate(("c1", OrGate(("c2", "c3"))))
    mixed_modes = {
        "c1": (Weibull(3000.0, 2.0), Exponential(2e-4)),
        "c2": (Weibull(4000.0, 1.5), Exponential(1e-4)),
        "c3": (Weibull(2500.0, 3.0), Exponential(5e-5)),
    }
    coverage_b = _pooled_mc_coverage(mixed_tree, mixed_modes, 4000.0, 100_000)
    assert coverage_b >= 0.95, f"Weibull-mixed coverage {coverage_b:.4f}"
    finish(
        f"Monte Carlo agreement (pooled coverage {coverage_a:.3f} / {coverage_b:.3f})",
        60.0,
        started,
    )


PARITY4 = (
    "INPUT a\nINPUT b\nINPUT c\nINPUT d\n"
    "GATE x1 XOR a b\nGATE x2 XOR x1 c\nGATE x3 XOR x2 d\nOUTPUT x3\n"
)
MUX21 = (
    "INPUT d0\nINPUT d1\nINPUT sel\n"
    "GATE nsel NOT sel\nGATE p0 AND d0 nsel\nGATE p1 AND d1 sel\nGATE y OR p0 p1\n"
    "OUTPUT y\n"
)
INJECTION_CIRCUITS = {
    "and2": AND2,
    "or2": OR2,
    "full_adder": FULL_ADDER,
    "parity4": PARITY4,
    "mux21": MUX21,
}
INJECTION_SEEDS = tuple(range(100))


def test_c4_injection_oracle_coverage():
    started = time.perf_counter()
    hits = 0
    total = 0
    for text in INJECTION_CIRCUITS.values():
        netlist = parse_netlist(text)
        assert len(netlist.inputs) <= 8
        # 14 unused inputs in front, so that the 10,000 trials are sampled.
        sampled = padded(text, 14)
        for node in netlist.nets():
            exact = exhaustive_derating(netlist, node)
            for seed in INJECTION_SEEDS:
                res = inject_campaign(sampled, node, 10_000, seed)
                center, half = wilson_interval(res.errors, res.trials, Z_99)
                if center - half <= exact <= center + half:
                    hits += 1
                total += 1
    coverage = hits / total
    assert coverage >= 0.99, f"injection coverage {coverage:.4f} ({hits}/{total})"
    finish(f"injection oracle (coverage {coverage:.4f}, {total} campaigns)", 30.0, started)


def test_c5_thermal_analytic_checks():
    started = time.perf_counter()
    params = ThermalParams(r_th=2.0, c_th=5.0, t_ambient=300.0)
    # A stationary window starts at its periodic state: a constant 10 W
    # trace sits at its steady state 320 K from the first sample on.
    profile = simulate_temperature(PowerTrace(1.0, (10.0,) * 120), params)
    assert set(profile.samples) == {320.0}

    # A 30/30-step square wave (20 W, then 2 W, tau = 10 s) against its
    # closed-form periodic solution.
    square = simulate_temperature(PowerTrace(1.0, (20.0,) * 30 + (2.0,) * 30), params).samples
    a = math.exp(-3.0)
    u_start = (4.0 * (1.0 - a) + 40.0 * (1.0 - a) * a) / (1.0 - a * a)
    u_mid = 40.0 + (u_start - 40.0) * a
    for k, temp in enumerate(square, start=1):
        if k <= 30:
            rise = 40.0 + (u_start - 40.0) * math.exp(-k / 10.0)
        else:
            rise = 4.0 + (u_mid - 4.0) * math.exp(-(k - 30) / 10.0)
        assert abs(temp / (300.0 + rise) - 1.0) <= 1e-15

    # A ramp against forward Euler at a 1000x finer step, repeated over
    # ten windows from ambient so that it reaches the periodic state too.
    ramp = PowerTrace(1.0, tuple(10.0 * k / 49 for k in range(50)))
    exact = simulate_temperature(ramp, params).samples
    h = ramp.dt_seconds / 1000.0
    temp = params.t_ambient
    for _ in range(10):
        approx = []
        for power in ramp.samples:
            t_ss = params.t_ambient + params.r_th * power
            for _ in range(1000):
                temp += h * (t_ss - temp) / params.tau_seconds
            approx.append(temp)
    worst = max(abs(x - y) for x, y in zip(approx, exact))
    assert worst <= 1e-3

    # One more window from the last sample ends where it started.
    step = -math.expm1(-ramp.dt_seconds / params.tau_seconds)
    rise = exact[-1] - params.t_ambient
    for power in ramp.samples:
        rise += (params.r_th * power - rise) * step
    assert abs(params.t_ambient + rise - exact[-1]) <= 4 * math.ulp(exact[-1])
    finish(f"thermal analytic checks (Euler gap {worst:.2e} K)", 1.0, started)


def test_c6_arrhenius_acceleration():
    started = time.perf_counter()
    params = AgingParams(1.0e6, 1.0e6, 2.0, 0.7, 2.0)
    rate_ratio = black_mttf(300.0, params) / black_mttf(350.0, params)
    independent = math.exp(8123.48 * (1.0 / 300.0 - 1.0 / 350.0))
    assert abs(rate_ratio / independent - 1.0) < 0.01
    assert abs(rate_ratio / 47.9 - 1.0) < 0.01
    assert 0.7 / BOLTZMANN_EV_PER_K == pytest.approx(8123.48, rel=1e-4)
    finish(f"Arrhenius acceleration ratio ({rate_ratio:.2f})", 1.0, started)


def test_c7_weibull_round_trip():
    started = time.perf_counter()
    for m in (10.0, 1.0e3, 1.0e6):
        for beta in (0.5, 1.0, 3.0):
            back = mttf(weibull_from_mttf(m, beta))
            assert abs(back / m - 1.0) <= 1e-3, (m, beta, back)
    finish("Weibull MTTF round trip (9 parameter pairs)", 1.0, started)


def test_c8_analyze_determinism(tmp_path, capsys):
    started = time.perf_counter()
    system = os.path.join(SAMPLE_DIR, "system.json")
    payloads = []
    for sub in ("a", "b"):
        out_dir = str(tmp_path / sub)
        code = cli_main(
            [
                "analyze",
                "--system",
                system,
                "--out",
                out_dir,
                "--seed",
                "2024",
                "--mc-trials",
                "20000",
            ]
        )
        capsys.readouterr()
        assert code == 0
        with open(os.path.join(out_dir, "report.json"), "rb") as fp:
            report = fp.read()
        with open(os.path.join(out_dir, "curves.csv"), "rb") as fp:
            curve = fp.read()
        payloads.append((report, curve))
    assert payloads[0][0] == payloads[1][0], "report.json differs between reruns"
    assert payloads[0][1] == payloads[1][1], "curves.csv differs between reruns"
    assert json.loads(payloads[0][0])["model"] == "dual_core"
    finish("byte-identical reruns of the shipped example", 30.0, started)


WEAR_OUT = {
    "pu1": (Weibull(3000.0, 2.0), Exponential(2e-5)),
    "pu2": (Weibull(4500.0, 2.0), Exponential(5e-5)),
    "pu3": (Weibull(6000.0, 2.0), Exponential(0.0)),
}
_EVENTS = tuple(WEAR_OUT)


@pytest.mark.parametrize(
    "tree",
    [AndGate(_EVENTS), OrGate(_EVENTS), KofNGate(2, _EVENTS)],
    ids=["AND", "OR", "KOFN"],
)
def test_c9_exact_system_mttf(tree):
    started = time.perf_counter()
    children = tuple(HierarchyNode(c, "Component") for c in WEAR_OUT)
    model = SystemModel("wear_out", 10_000.0, 64, HierarchyNode("soc", "System", children), tree)
    exact = system_reliability_curves(model, WEAR_OUT).mttf_sys
    combined = {c: Product(modes) for c, modes in WEAR_OUT.items()}

    def survival(t):
        return tree_probability(tree, {c: reliability_at(f, t) for c, f in combined.items()})

    reference = 0.0
    lo, hi = 0.0, 1000.0
    while lo < 2e5:  # survival(2e5) < 1e-300 for every tree
        reference += quad(survival, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        lo, hi = hi, 2.0 * hi
    assert exact == pytest.approx(reference, rel=1e-9)
    if isinstance(tree, AndGate):
        assert exact <= min(mttf(f) for f in combined.values())

    # Monte Carlo: the mean of the sampled system failure times.
    n = 200_000
    draws = np.random.default_rng(99)
    comp_times = {}
    for c, (p, q) in WEAR_OUT.items():
        u = 1.0 - draws.random((2, n))  # in (0, 1]
        comp_times[c] = np.minimum(sample_failure_times(p, u[0]), sample_failure_times(q, u[1]))
    t_sys = evaluate_structure(tree, comp_times)
    stderr = float(np.std(t_sys)) / math.sqrt(n)
    assert abs(float(np.mean(t_sys)) - exact) <= 3.0 * stderr
    finish(f"exact system MTTF under {type(tree).__name__}", 5.0, started)
