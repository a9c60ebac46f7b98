import io
import math
import os
import random
import tracemalloc

import numpy as np
import pytest

from reliatree import curves, reliability, rng
from reliatree.curves import (
    MC_BLOCK_SAMPLES,
    monte_carlo_system,
    system_reliability_curves,
    write_curves_csv,
)
from reliatree.errors import InputError
from reliatree.model import HierarchyNode, SystemModel, load_system_file
from reliatree.pipeline import PipelineOptions, run_pipeline
from reliatree.reliability import (
    Exponential,
    Product,
    Structure,
    Weibull,
    mttf,
    reliability_at,
    sample_failure_times,
)
from reliatree.successtree import AndGate, KofNGate, OrGate, basic_events, evaluate_structure, tree_probability

from conftest import SAMPLE_DIR, and_or_chain, kofn_pairs, seeded_cases


def make_model(tree, horizon=10_000.0, points=128, component_ids=("pu1", "pu2")):
    children = tuple(HierarchyNode(cid, "Component") for cid in component_ids)
    root = HierarchyNode("soc", "System", children)
    return SystemModel("closed_form", horizon, points, root, tree)


def exp_pair(lam_perm, lam_trans):
    return Exponential(lam_perm), Exponential(lam_trans)


AND_TREE = AndGate(("pu1", "pu2"))


class TestSystemCurves:
    def test_all_curves_start_at_one_with_unit_ratio(self):
        model = make_model(AND_TREE)
        curves = system_reliability_curves(model, {c: exp_pair(1e-4, 4e-4) for c in ("pu1", "pu2")})
        assert curves.r_sys[0] == 1.0
        assert curves.r_sys_perm[0] == 1.0
        assert curves.r_sys_trans[0] == 1.0
        assert curves.ratio[0] == 1.0

    def test_and_of_exponentials_closed_form(self):
        model = make_model(AND_TREE)
        curves = system_reliability_curves(model, {c: exp_pair(1e-4, 4e-4) for c in ("pu1", "pu2")})
        for t, r, p, q, ratio in zip(
            curves.grid, curves.r_sys, curves.r_sys_perm, curves.r_sys_trans, curves.ratio
        ):
            assert r == pytest.approx(math.exp(-1e-3 * t), abs=1e-12)
            assert p == pytest.approx(math.exp(-2e-4 * t), abs=1e-12)
            assert q == pytest.approx(math.exp(-8e-4 * t), abs=1e-12)
            assert ratio == pytest.approx(math.exp(6e-4 * t), rel=1e-12)
            if t > 0:
                assert ratio > 1.0  # transient-dominated

    def test_swapping_rates_flips_dominance(self):
        model = make_model(AND_TREE)
        curves = system_reliability_curves(model, {c: exp_pair(4e-4, 1e-4) for c in ("pu1", "pu2")})
        for t, ratio in zip(curves.grid[1:], curves.ratio[1:]):
            assert ratio == pytest.approx(math.exp(-6e-4 * t), rel=1e-12)
            assert ratio < 1.0  # permanent-dominated

    def test_system_mttf_for_and_of_exponentials(self):
        model = make_model(AND_TREE, horizon=10_000.0, points=512)
        curves = system_reliability_curves(model, {c: exp_pair(1e-4, 4e-4) for c in ("pu1", "pu2")})
        assert curves.mttf_sys == pytest.approx(1000.0, rel=1e-9)
        assert mttf(Product(exp_pair(1e-4, 4e-4))) == pytest.approx(2000.0, rel=1e-9)

    def test_system_mttf_of_sub_hour_components(self):
        # Components that last a fraction of a second: 1 / (2 * 4000) hours.
        model = make_model(AND_TREE, horizon=1.0, points=16)
        curves = system_reliability_curves(model, {c: exp_pair(3e3, 1e3) for c in ("pu1", "pu2")})
        assert curves.mttf_sys == pytest.approx(1.0 / 8e3, rel=1e-9)

    @pytest.mark.parametrize(
        "pu1_modes",
        [exp_pair(5e3, 0.0), (Weibull(1e-3, 2.0), Exponential(0.0))],
        ids=["exponential", "weibull"],
    )
    def test_system_mttf_of_sub_hour_component_beside_one_that_never_fails(self, pu1_modes):
        # pu2 keeps the sum of the component survivals near 1, so panels
        # chosen from that sum would put pu1's whole drop into one hour.
        model = make_model(AND_TREE, horizon=1.0, points=16)
        curves = system_reliability_curves(model, {"pu1": pu1_modes, "pu2": exp_pair(0.0, 0.0)})
        assert curves.mttf_sys == mttf(Product(pu1_modes))

    def test_system_mttf_of_two_steep_wear_outs_against_scipy(self):
        # Both drop inside the doubling panel [512, 1024], where 32 nodes do
        # not resolve them; the panels over each drop are split.
        from scipy import integrate

        modes = {"pu1": (Weibull(700.0, 60.0), Exponential(0.0)), "pu2": (Weibull(900.0, 30.0), Exponential(1e-5))}
        model = make_model(AND_TREE, horizon=2000.0, points=16)
        got = system_reliability_curves(model, modes).mttf_sys

        def survival(t):
            return math.prod(reliability_at(f, t) for pair in modes.values() for f in pair)

        expected, _ = integrate.quad(
            survival, 0.0, 2000.0, points=[700.0, 900.0], epsabs=0.0, epsrel=1e-13, limit=500
        )
        assert got == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_system_mttf_of_sub_hour_and_long_lived_components(self):
        model = make_model(AND_TREE, horizon=1.0, points=16)
        curves = system_reliability_curves(model, {"pu1": exp_pair(5e3, 0.0), "pu2": exp_pair(1e-5, 0.0)})
        assert curves.mttf_sys == pytest.approx(1.0 / (5e3 + 1e-5), rel=1e-12)

    def test_constant_transient_keeps_ratio_equal_to_perm_curve(self):
        model = make_model(AND_TREE)
        curves = system_reliability_curves(model, {c: exp_pair(1e-4, 0.0) for c in ("pu1", "pu2")})
        for r, p, q, ratio in zip(
            curves.r_sys, curves.r_sys_perm, curves.r_sys_trans, curves.ratio
        ):
            assert q == 1.0
            assert ratio == pytest.approx(p, abs=1e-15)
            assert r == pytest.approx(p, abs=1e-15)

    def test_domination_invariant(self):
        model = make_model(AND_TREE)
        curves = system_reliability_curves(model, {c: exp_pair(3e-4, 2e-4) for c in ("pu1", "pu2")})
        for r, p, q in zip(curves.r_sys, curves.r_sys_perm, curves.r_sys_trans):
            assert r <= min(p, q) + 1e-12

    def test_curves_non_increasing(self):
        model = make_model(OrGate(("pu1", "pu2")))
        funcs = {
            "pu1": (Weibull(4000.0, 2.0), Exponential(1e-4)),
            "pu2": exp_pair(2e-4, 5e-5),
        }
        curves = system_reliability_curves(model, funcs)
        for series in (curves.r_sys, curves.r_sys_perm, curves.r_sys_trans):
            assert series[0] == 1.0
            for a, b in zip(series, series[1:]):
                assert b <= a

    def test_missing_component_function_rejected(self):
        model = make_model(AND_TREE)
        with pytest.raises(InputError):
            system_reliability_curves(model, {"pu1": exp_pair(1e-4, 1e-4)})

    def test_one_modes_map_feeds_exact_curves_and_monte_carlo(self):
        model = make_model(OrGate(("pu1", "pu2")), points=32)
        modes = {"pu1": (Weibull(4000.0, 2.0), Exponential(1e-4)), "pu2": exp_pair(2e-4, 5e-5)}
        curves = system_reliability_curves(model, modes)
        mc = monte_carlo_system(model.success_tree, modes, 100_000, 5, model.grid())
        assert mc.grid == curves.grid
        for exact, emp in zip(curves.r_sys, mc.survival):
            assert abs(emp - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / 100_000) + 1e-12

    def test_csv_export_shape(self):
        model = make_model(AND_TREE, points=8)
        curves = system_reliability_curves(model, {c: exp_pair(1e-4, 4e-4) for c in ("pu1", "pu2")})
        buf = io.StringIO()
        write_curves_csv(curves, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t_hours,r_sys,r_sys_perm,r_sys_trans,ratio"
        assert len(lines) == 9
        assert lines[1].split(",") == ["0.0", "1.0", "1.0", "1.0", "1.0"]

    def test_too_wide_tree_is_input_error(self):
        ids = tuple(f"e{k}" for k in range(1200))
        model = make_model(AndGate(ids), points=4, component_ids=ids)
        with pytest.raises(InputError, match="over 1200 basic events is too wide"):
            system_reliability_curves(model, {c: exp_pair(1e-6, 1e-6) for c in ids})


def random_mode(rnd):
    if rnd.random() < 0.5:
        return Weibull(10.0 ** rnd.uniform(2.0, 6.0), rnd.uniform(0.3, 5.0))
    return Exponential(rnd.choice([0.0, 10.0 ** rnd.uniform(-7.0, -2.0)]))


def scalar_curves(tree, component_modes, grid):
    """(r_sys, r_perm, r_trans) by a number call of each mode and a scalar
    tree call at each grid point, under the curves' non-increasing guard."""
    events = basic_events(tree)
    curves = ([], [], [])
    for t in grid.tolist():
        perm = {cid: reliability_at(component_modes[cid][0], t) for cid in events}
        trans = {cid: reliability_at(component_modes[cid][1], t) for cid in events}
        curves[0].append(tree_probability(tree, {cid: perm[cid] * trans[cid] for cid in events}))
        curves[1].append(tree_probability(tree, perm))
        curves[2].append(tree_probability(tree, trans))
    return tuple(tuple(np.minimum.accumulate(np.clip(np.array(v), 0.0, 1.0)).tolist()) for v in curves)


class TestSharedReads:
    """Each fault mode of a tree event is read once, as a column over the
    whole grid, for all curves."""

    @pytest.mark.parametrize("shape", ["sample", "kofn-pairs"])
    def test_reads_each_mode_of_each_event_as_one_grid_column(self, monkeypatch, shape):
        # "spare" is a component outside the tree: it is never read. Reading
        # the grid point by point made 2 x events x points number calls. The
        # MTTF's survival reads each event's Product once per call, on its own
        # column of quadrature times; those calls are left out of the grid count.
        if shape == "sample":
            model = load_system_file(os.path.join(SAMPLE_DIR, "system.json"))
        else:
            tree = kofn_pairs(8)
            model = make_model(tree, points=256, component_ids=basic_events(tree))
        rnd = random.Random(34)
        events = basic_events(model.success_tree)
        modes = {cid: (random_mode(rnd), random_mode(rnd)) for cid in events}
        modes["spare"] = exp_pair(1.0, 1.0)
        in_mttf, calls, form_calls, systems = [False], [], [], []
        real_at, real_mttf, real_form_at = curves.reliability_at, curves.mttf, reliability.reliability_at

        def recording_at(rf, t):
            calls.append((in_mttf[0], rf, t))
            return real_at(rf, t)

        def recording_mttf(rf):
            in_mttf[0] = True
            systems.append(rf)
            return real_mttf(rf)

        def recording_form_at(rf, t):
            form_calls.append((rf, t))
            return real_form_at(rf, t)

        monkeypatch.setattr(curves, "reliability_at", recording_at)
        monkeypatch.setattr(curves, "mttf", recording_mttf)
        # The MTTF's survival and the forms it reads call reliability_at through reliability.
        monkeypatch.setattr(reliability, "reliability_at", recording_form_at)
        system_reliability_curves(model, modes)
        assert [t for _, _, t in calls if not isinstance(t, np.ndarray)] == []
        assert not {id(rf) for _, rf, _ in calls} & set(map(id, modes["spare"]))
        assert [mttf_call for mttf_call, _, _ in calls] == [False] * len(calls)
        assert len(calls) == 2 * len(events)
        assert all(np.array_equal(t, model.grid()) for _, _, t in calls)
        assert sorted(id(rf) for _, rf, _ in calls) == sorted(id(rf) for cid in events for rf in modes[cid])

        [system] = systems
        survival_times = [t for rf, t in form_calls if rf is system]
        event_reads = [(rf, t) for rf, t in form_calls if rf is not system]
        assert len(survival_times) > 0 and all(isinstance(t, np.ndarray) for t in survival_times)
        # Each survival call reads every event's Product once, on that call's column.
        assert len(event_reads) == len(events) * len(survival_times)
        read = sorted(id(f) for rf, _ in event_reads for f in rf.factors)
        assert read == sorted(id(f) for cid in events for f in modes[cid] for _ in survival_times)
        assert all(any(t is s for s in survival_times) for _, t in event_reads)

    def test_curves_equal_number_reads_and_scalar_tree_calls(self):
        rnd = random.Random(34)
        for tree, _ in seeded_cases(50, seed=34):
            events = basic_events(tree)
            modes = {cid: (random_mode(rnd), random_mode(rnd)) for cid in events}
            model = make_model(tree, horizon=10.0 ** rnd.uniform(3.0, 6.0), points=48, component_ids=events)
            got = system_reliability_curves(model, modes)
            want = scalar_curves(tree, modes, model.grid())
            assert tuple(map(repr, got.r_sys)) == tuple(map(repr, want[0])), tree
            assert tuple(map(repr, got.r_sys_perm)) == tuple(map(repr, want[1])), tree
            assert tuple(map(repr, got.r_sys_trans)) == tuple(map(repr, want[2])), tree

    def test_product_of_reads_has_the_bits_of_the_product_form(self):
        rnd = random.Random(26)
        pairs = [(Weibull(1e-3, 2.0), Exponential(0.0)), (Weibull(5000.0, 0.5), Exponential(0.0))]
        pairs += [
            (Weibull(rnd.uniform(10.0, 1e5), rnd.uniform(0.3, 5.0)), Exponential(rnd.choice([0.0, rnd.uniform(1e-7, 1e-2)])))
            for _ in range(200)
        ]
        for perm, trans in pairs:
            # At 1e300, (t / eta) ** beta overflows for the first pair and most others.
            for t in [0.0, 1e-9, 1.0, rnd.uniform(0.0, 1e5), 1e300, math.inf]:
                p, q = reliability_at(perm, t), reliability_at(trans, t)
                assert repr(p * q) == repr(reliability_at(Product((perm, trans)), t))
        assert reliability_at(Weibull(1e-3, 2.0), 1e300) == 0.0  # the overflow branch was taken

    def test_curves_equal_the_scalar_tree_over_the_product_form(self):
        tree = KofNGate(2, ("x", OrGate(("x", "y")), "z"))
        modes = {"x": (Weibull(3000.0, 2.0), Exponential(2e-4)), "y": exp_pair(3e-4, 0.0), "z": (Weibull(5e3, 0.7), Exponential(1e-4))}
        model = make_model(tree, points=64, component_ids=("x", "y", "z"))
        got = system_reliability_curves(model, modes)
        for t, r, p, q in zip(got.grid, got.r_sys, got.r_sys_perm, got.r_sys_trans):
            assert r == tree_probability(tree, {c: reliability_at(Product(m), t) for c, m in modes.items()})
            assert p == tree_probability(tree, {c: reliability_at(m[0], t) for c, m in modes.items()})
            assert q == tree_probability(tree, {c: reliability_at(m[1], t) for c, m in modes.items()})


class TestMonteCarlo:
    def test_single_component_matches_exponential(self):
        grid = np.linspace(0.0, 5000.0, 64)
        tree = "c"
        mc = monte_carlo_system(tree, {"c": (Exponential(1e-3), Exponential(0.0))}, 100_000, 7, grid)
        for t, emp in zip(mc.grid, mc.survival):
            p = math.exp(-1e-3 * t)
            bound = 3.0 * math.sqrt(p * (1.0 - p) / 100_000)
            assert abs(emp - p) <= bound + 1e-12

    def test_and_of_two_iid_exponentials(self):
        grid = np.linspace(0.0, 3000.0, 64)
        modes = {c: (Exponential(1e-3), Exponential(0.0)) for c in ("pu1", "pu2")}
        mc = monte_carlo_system(AND_TREE, modes, 100_000, 11, grid)
        for t, emp in zip(mc.grid, mc.survival):
            p = math.exp(-2e-3 * t)
            bound = 3.0 * math.sqrt(p * (1.0 - p) / 100_000)
            assert abs(emp - p) <= bound + 1e-12

    def test_single_sample_is_step_function(self):
        grid = np.linspace(0.0, 20_000.0, 40)
        mc = monte_carlo_system(
            "c", {"c": (Exponential(1e-3), Exponential(1e-3))}, 1, 3, grid
        )
        assert set(mc.survival) <= {0.0, 1.0}
        for a, b in zip(mc.survival, mc.survival[1:]):
            assert b <= a

    def test_same_seed_identical(self):
        grid = np.linspace(0.0, 1000.0, 16)
        modes = {"c": (Exponential(1e-3), Exponential(2e-3))}
        a = monte_carlo_system("c", modes, 5000, 21, grid)
        b = monte_carlo_system("c", modes, 5000, 21, grid)
        assert a == b

    def test_min_of_modes_equals_combined_rate(self):
        grid = np.linspace(0.0, 2000.0, 32)
        modes = {"c": (Exponential(1e-4), Exponential(4e-4))}
        mc = monte_carlo_system("c", modes, 100_000, 5, grid)
        for t, emp in zip(mc.grid, mc.survival):
            p = math.exp(-5e-4 * t)
            bound = 3.0 * math.sqrt(p * (1.0 - p) / 100_000)
            assert abs(emp - p) <= bound + 1e-12

    def test_kofn_and_shared_events_against_exact(self):
        # 2-of-3 with a shared event inside an OR branch.
        tree = KofNGate(
            2,
            (
                "x",
                OrGate(("x", "y")),
                "z",
            ),
        )
        grid = np.linspace(0.0, 4000.0, 48)
        modes = {
            "x": (Exponential(3e-4), Exponential(0.0)),
            "y": (Weibull(2500.0, 2.0), Exponential(0.0)),
            "z": (Exponential(1e-4), Exponential(2e-4)),
        }
        mc = monte_carlo_system(tree, modes, 200_000, 17, grid)
        from reliatree.reliability import reliability_at
        from reliatree.successtree import tree_probability

        for t, emp in zip(mc.grid, mc.survival):
            probs = {
                "x": reliability_at(Exponential(3e-4), float(t)),
                "y": reliability_at(Weibull(2500.0, 2.0), float(t)),
                "z": reliability_at(Exponential(1e-4), float(t))
                * reliability_at(Exponential(2e-4), float(t)),
            }
            p = tree_probability(tree, probs)
            bound = 4.0 * math.sqrt(p * (1.0 - p) / 200_000)
            assert abs(emp - p) <= bound + 1e-12

    def test_pinned_counter_layout(self):
        # Event j in sorted id order reads lane 2j (permanent) and lane 2j + 1
        # (transient) of sample i's counters [6i, 6i + 6). The tree lists its
        # events as c, a, b, and each component's two modes differ in form,
        # so reordering the events or swapping a component's lanes moves
        # these counts.
        tree = KofNGate(2, ("c", "a", AndGate(("b", "a"))))
        modes = {
            "a": (Weibull(3000.0, 2.0), Exponential(2e-4)),
            "b": (Exponential(3e-4), Weibull(5000.0, 1.5)),
            "c": (Weibull(4000.0, 3.0), Exponential(0.0)),
        }
        grid = [2500.0, 0.0, 1000.0, 2500.0, 6000.0, 500.0, 1e9, 1000.0, 4000.0]
        fallen = [3660, 0, 1312, 3660, 4995, 587, 5000, 1312, 4817]
        mc = monte_carlo_system(tree, modes, 5000, 11, grid)
        assert list(mc.survival) == [1.0 - f / 5000 for f in fallen]

    def test_deep_tree_samples(self):
        # The 2,000-level chain is past the recursion limit for a walk that
        # recurses once per level; its structure function does not.
        modes = {f"e{k}": (Exponential(1e-3), Exponential(1e-4)) for k in range(2001)}
        grid = [0.0, 10.0, 100.0, 1000.0, 10_000.0]
        survival = monte_carlo_system(and_or_chain(2000), modes, 1000, 1, grid).survival
        assert all(0.0 <= s <= 1.0 for s in survival)
        assert all(b <= a for a, b in zip(survival, survival[1:]))

    def test_bad_sample_count_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_system("c", {"c": (Exponential(1.0), Exponential(0.0))}, 0, 1, [0.0])

    def test_missing_component_rejected(self):
        with pytest.raises(InputError):
            monte_carlo_system(AND_TREE, {"pu1": (Exponential(1.0), Exponential(0.0))}, 10, 1, [0.0])

    def test_product_mode_rejected_naming_component(self):
        modes = {
            "pu1": (Exponential(1.0), Exponential(0.0)),
            "pu2": (Product((Weibull(1000.0, 2.0), Exponential(1e-4))), Exponential(0.0)),
        }
        message = "component 'pu2': a product factor must be an Exponential or a Weibull, got Product"
        with pytest.raises(ValueError, match=message):
            monte_carlo_system(AND_TREE, modes, 10, 1, [0.0])
        # The exact curves reject it with the same message.
        with pytest.raises(ValueError, match=message):
            system_reliability_curves(make_model(AND_TREE), modes)


LONG_ID = "x" * 100_000


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: system_reliability_curves(
                make_model(LONG_ID, component_ids=(LONG_ID,)), {"pu1": exp_pair(1e-4, 1e-4)}
            ),
            "no reliability functions for component 'xxx",
        ),
        (lambda: monte_carlo_system(LONG_ID, {}, 10, 1, [0.0]), "no reliability functions for component 'xxx"),
        (
            lambda: monte_carlo_system(
                LONG_ID, {LONG_ID: (Product((Exponential(1.0),)), Exponential(0.0))}, 10, 1, [0.0]
            ),
            "xxx...: a product factor must be an Exponential or a Weibull, got Product(",
        ),
    ],
    ids=["no-reliability-functions", "no-fault-modes", "fault-mode-form"],
)
def test_long_component_id_is_cut_in_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value)
    assert LONG_ID[:50] in str(info.value)
    assert len(str(info.value).encode("utf-8")) < 300


def unblocked_failure_times(tree, component_modes, n_samples, seed):
    """System failure times of every sample, all drawn at once: sample i
    reads the uniforms of counters [2C*i, 2C*(i+1)), event j in sorted id
    order its permanent mode from lane 2j and its transient one from lane
    2j + 1."""
    events = sorted(basic_events(tree))
    width = 2 * len(events)
    words = rng.word_block(seed, 0, n_samples * width).reshape(n_samples, width)
    uniforms = 1.0 - (words >> np.uint64(11)) * (1.0 / (1 << 53))
    comp_times = {}
    for j, cid in enumerate(events):
        r_perm, r_trans = component_modes[cid]
        t_perm = sample_failure_times(r_perm, uniforms[:, 2 * j])
        t_trans = sample_failure_times(r_trans, uniforms[:, 2 * j + 1])
        comp_times[cid] = np.minimum(t_perm, t_trans)
    return evaluate_structure(tree, comp_times)


def unblocked_monte_carlo(tree, component_modes, n_samples, seed, grid):
    """The sampler as it was before blocking: every sample held at once and
    one sort of all system failure times. Kept as the batching oracle."""
    grid = np.asarray(grid, dtype=float)
    t_sys = np.sort(unblocked_failure_times(tree, component_modes, n_samples, seed))
    fallen = np.searchsorted(t_sys, grid, side="right")
    return [float(v) for v in 1.0 - fallen / n_samples]


_B = MC_BLOCK_SAMPLES
_BATCH_TREE = OrGate(
    (
        AndGate(("a", "b")),
        KofNGate(2, ("a", "c", "b")),
    )
)
_SORTED_GRID = np.linspace(0.0, 6000.0, 33)
_BATCH_GRIDS = {
    "sorted": _SORTED_GRID,
    "unsorted": np.random.default_rng(3).permutation(_SORTED_GRID),
    "duplicates": np.array([2500.0, 0.0, 1500.0, 2500.0, 6000.0, 1500.0, 0.0, 1e9, 2500.0]),
}
_BATCH_MODES = {
    # Each component's two lanes feed modes of different forms.
    "mixed_forms": {
        "a": (Weibull(3000.0, 2.0), Exponential(2e-4)),
        "b": (Exponential(3e-4), Weibull(4000.0, 1.5)),
        "c": (Weibull(2500.0, 0.8), Exponential(1e-4)),
    },
    # Exponential(0) never fails, so some samples land past every grid point.
    "constant_one": {
        "a": (Exponential(2e-4), Exponential(0.0)),
        "b": (Exponential(0.0), Exponential(0.0)),
        "c": (Weibull(2000.0, 3.0), Exponential(0.0)),
    },
}


# (block size, sample count): the shipped block size around its boundaries,
# and small blocks, so that one call refills its block buffers several
# times and ends on a short block.
_BLOCKING_CASES = [pytest.param(_B, n, id=str(n)) for n in (1, _B - 1, _B, _B + 1, 3 * _B + 7)] + [
    pytest.param(b, n, id=f"block{b}-{n}") for b in (64, 1000) for n in (1, b - 1, 2 * b + 37)
]


class TestMonteCarloBlocking:
    @pytest.mark.parametrize("block, n_samples", _BLOCKING_CASES)
    @pytest.mark.parametrize("grid_name", sorted(_BATCH_GRIDS))
    @pytest.mark.parametrize("modes_name", sorted(_BATCH_MODES))
    def test_matches_unblocked_reference_exactly(self, monkeypatch, block, n_samples, grid_name, modes_name):
        monkeypatch.setattr(curves, "MC_BLOCK_SAMPLES", block)
        grid = _BATCH_GRIDS[grid_name]
        modes = _BATCH_MODES[modes_name]
        mc = monte_carlo_system(_BATCH_TREE, modes, n_samples, 29, grid)
        assert list(mc.survival) == unblocked_monte_carlo(_BATCH_TREE, modes, n_samples, 29, grid)
        assert list(mc.grid) == [float(t) for t in grid]

    @pytest.mark.parametrize("n_samples", [1, _B + 1, 3 * _B + 7])
    def test_ties_with_grid_points(self, n_samples):
        # Grid points placed exactly on sampled failure times: a sample has
        # fallen at t when its failure time is <= t.
        modes = _BATCH_MODES["mixed_forms"]
        t_sys = unblocked_failure_times(_BATCH_TREE, modes, n_samples, 29)
        grid = np.concatenate(([0.0], t_sys[:: max(1, n_samples // 7)], [t_sys.max()]))
        mc = monte_carlo_system(_BATCH_TREE, modes, n_samples, 29, grid)
        assert list(mc.survival) == unblocked_monte_carlo(_BATCH_TREE, modes, n_samples, 29, grid)
        assert mc.survival[-1] == 0.0

    def test_memory_bounded_by_block_not_samples(self):
        # Two block buffers of 16,384 samples x 6 lanes (0.75 MiB each) and
        # one block's failure times, whatever the sample count; the RNG words
        # are drawn into the lane rows, not into a third buffer of 0.75 MiB.
        tree = OrGate((AndGate(("x", "y")), "z"))
        modes = {
            "x": (Weibull(3000.0, 2.0), Exponential(1e-4)),
            "y": (Exponential(2e-4), Exponential(1e-4)),
            "z": (Weibull(5000.0, 2.0), Exponential(3e-5)),
        }
        grid = np.linspace(0.0, 10_000.0, 512)
        tracemalloc.start()
        try:
            monte_carlo_system(tree, modes, 1_000_000, 5, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.9 * 2**20


def written_out_survival(tree, component_modes, times):
    """The system survival as written out by hand: each event's two mode
    columns multiplied, and one tree call on those products."""
    columns = {}
    for cid in basic_events(tree):
        perm, trans = component_modes[cid]
        columns[cid] = reliability_at(perm, times) * reliability_at(trans, times)
    return tree_probability(tree, columns)


def form_cases():
    """The sample's analysed components under its tree, then 50 random
    trees over random fault modes."""
    model = load_system_file(os.path.join(SAMPLE_DIR, "system.json"))
    result = run_pipeline(model, PipelineOptions(seed=1))
    yield model.success_tree, {cid: (a.r_perm, a.r_trans) for cid, a in result.components.items()}
    rnd = random.Random(36)
    for tree, _ in seeded_cases(50, seed=36):
        yield tree, {cid: (random_mode(rnd), random_mode(rnd)) for cid in basic_events(tree)}


# 0, every seventh power of two from 2^-30 to 2^1023 hours, random times and inf.
_FORM_TIMES = np.array(
    [0.0, *(2.0**k for k in range(-30, 1024, 7)), *np.random.default_rng(36).uniform(0.0, 1e6, 200), math.inf]
)


class TestSystemForm:
    """The Structure form, which the curves and the Monte Carlo go through,
    against the composition written out by hand."""

    def test_holds_each_events_product_in_sorted_id_order(self):
        modes = {"z": exp_pair(1.0, 2.0), "a": (Weibull(1.0, 2.0), Exponential(0.0)), "spare": exp_pair(3.0, 4.0)}
        system = Structure(OrGate(("z", "a")), modes)
        assert system.forms == {"a": Product(modes["a"]), "z": Product(modes["z"])}
        assert list(system.forms) == ["a", "z"]
        assert system.lanes == 4

    def test_missing_event_names_the_component(self):
        with pytest.raises(InputError, match="^no reliability functions for component 'pu2'$"):
            Structure(AND_TREE, {"pu1": exp_pair(1e-4, 1e-4)})

    def test_column_read_has_the_bits_of_the_product_of_mode_columns(self):
        for tree, modes in form_cases():
            got = reliability_at(Structure(tree, modes), _FORM_TIMES)
            assert got.tobytes() == written_out_survival(tree, modes, _FORM_TIMES).tobytes(), tree

    def test_number_read_equals_the_column_entry(self):
        for tree, modes in form_cases():
            system = Structure(tree, modes)
            column = reliability_at(system, _FORM_TIMES).tolist()
            for t, want in list(zip(_FORM_TIMES.tolist(), column))[::5]:
                assert repr(reliability_at(system, t)) == repr(want), (tree, t)

    def test_sampled_times_equal_the_unblocked_reference(self):
        n = 1000
        for seed, (tree, modes) in enumerate(form_cases()):
            system = Structure(tree, modes)
            rows = np.empty((system.lanes, n))
            words = np.empty((system.lanes, n), dtype=np.uint64)
            rng.unit_open_floats(seed, 0, n * system.lanes, out=rows.T, scratch=words.T)
            drawn = rows.copy()
            got = sample_failure_times(system, rows)
            assert got.tobytes() == unblocked_failure_times(tree, modes, n, seed).tobytes(), tree
            assert rows.tobytes() == drawn.tobytes()

    def test_product_time_is_the_earliest_of_its_factors(self):
        rows = 1.0 - np.random.default_rng(5).random((3, 500))
        factors = (Weibull(3000.0, 2.0), Exponential(2e-4), Exponential(0.0))
        times = [sample_failure_times(f, row) for f, row in zip(factors, rows)]
        want = np.minimum(np.minimum(times[0], times[1]), times[2])
        assert sample_failure_times(Product(factors), rows).tobytes() == want.tobytes()
        assert sample_failure_times(Product(factors[:1]), rows[:1]).tobytes() == times[0].tobytes()

    def test_mttf_of_an_and_of_exponentials(self):
        rnd = random.Random(38)
        for _ in range(50):
            events = [f"e{k}" for k in range(rnd.randint(1, 6))]
            rates = [(10.0 ** rnd.uniform(-9.0, 2.0), rnd.choice([0.0, 10.0 ** rnd.uniform(-9.0, 2.0)])) for _ in events]
            modes = {cid: exp_pair(*pair) for cid, pair in zip(events, rates)}
            tree = AndGate(tuple(events)) if len(events) > 1 else events[0]
            want = 1.0 / math.fsum(rf.lam for m in modes.values() for rf in m)
            got = mttf(Structure(tree, modes))
            assert abs(got - want) <= 1e-15 * want, modes

    def test_mttf_of_one_event_equals_the_product_form(self):
        rnd = random.Random(39)
        for _ in range(40):
            modes = (random_mode(rnd), random_mode(rnd))
            assert repr(mttf(Structure("c", {"c": modes}))) == repr(mttf(Product(modes)))
