import io
import math
import tracemalloc

import numpy as np
import pytest

from reliatree import curves, rng
from reliatree.curves import (
    MC_BLOCK_SAMPLES,
    monte_carlo_system,
    system_reliability_curves,
    write_curves_csv,
)
from reliatree.errors import InputError
from reliatree.model import HierarchyNode, SystemModel
from reliatree.reliability import (
    Exponential,
    Product,
    Weibull,
    mttf,
    sample_failure_times,
)
from reliatree.successtree import AndGate, KofNGate, OrGate, basic_events, evaluate_structure


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
        with pytest.raises(ValueError, match="component 'pu2': fault modes must be Exponentials or Weibulls"):
            monte_carlo_system(AND_TREE, modes, 10, 1, [0.0])


LONG_ID = "x" * 100_000


@pytest.mark.parametrize(
    "call",
    [
        lambda: system_reliability_curves(
            make_model(LONG_ID, component_ids=(LONG_ID,)), {"pu1": exp_pair(1e-4, 1e-4)}
        ),
        lambda: monte_carlo_system(LONG_ID, {}, 10, 1, [0.0]),
        lambda: monte_carlo_system(
            LONG_ID, {LONG_ID: (Product((Exponential(1.0),)), Exponential(0.0))}, 10, 1, [0.0]
        ),
    ],
    ids=["no-reliability-functions", "no-fault-modes", "fault-mode-form"],
)
def test_long_component_id_is_cut_in_message(call):
    with pytest.raises(ValueError) as info:
        call()
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
        assert peak < 32 * 2**20
