import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliatree.errors import InputError
from reliatree.successtree import (
    AndGate,
    BasicEvent,
    KofNGate,
    OrGate,
    basic_events,
    brute_force_probability,
    evaluate_structure,
    tree_from_dict,
    tree_probability,
    tree_to_dict,
)

from conftest import JSON_VALUES, seeded_cases

A, B, C = BasicEvent("a"), BasicEvent("b"), BasicEvent("c")
SHARED = OrGate((AndGate((A, B)), AndGate((A, C))))


class TestClosedForms:
    def test_and_series(self):
        assert tree_probability(AndGate((A, B)), {"a": 0.9, "b": 0.9}) == pytest.approx(0.81)

    def test_or_parallel(self):
        assert tree_probability(OrGate((A, B)), {"a": 0.9, "b": 0.9}) == pytest.approx(0.99)

    def test_two_of_three(self):
        # 3 * 0.9^2 * 0.1 + 0.9^3 = 0.972.
        got = tree_probability(KofNGate(2, (A, B, C)), {"a": 0.9, "b": 0.9, "c": 0.9})
        assert got == pytest.approx(0.972)

    def test_shared_event_is_exact(self):
        # Enumeration over the 8 states gives 3/8; gate-local arithmetic
        # would give 0.4375.
        probs = {"a": 0.5, "b": 0.5, "c": 0.5}
        assert tree_probability(SHARED, probs) == pytest.approx(0.375, abs=1e-15)
        assert brute_force_probability(SHARED, probs) == pytest.approx(0.375, abs=1e-15)

    def test_single_event(self):
        assert brute_force_probability(A, {"a": 0.7}) == pytest.approx(0.7)

    def test_all_certain(self):
        tree = AndGate((OrGate((A, B)), KofNGate(2, (A, B, C))))
        assert tree_probability(tree, {"a": 1.0, "b": 1.0, "c": 1.0}) == 1.0


class TestAgainstBruteForce:
    def test_matches_on_200_seeded_trees(self):
        for tree, probs in seeded_cases(200):
            exact = tree_probability(tree, probs)
            brute = brute_force_probability(tree, probs)
            assert abs(exact - brute) <= 1e-12

    def test_brute_force_limit(self):
        events = tuple(BasicEvent(f"e{k}") for k in range(21))
        with pytest.raises(ValueError):
            brute_force_probability(OrGate(events), {f"e{k}": 0.5 for k in range(21)})


def replace_event(tree, event, replacement):
    """Independent structural rewrite used as the absorption oracle."""
    if isinstance(tree, BasicEvent):
        return replacement if tree.component_id == event else tree
    children = tuple(replace_event(c, event, replacement) for c in tree.children)
    if isinstance(tree, AndGate):
        return AndGate(children)
    if isinstance(tree, OrGate):
        return OrGate(children)
    return KofNGate(tree.k, children)


class TestProperties:
    def test_coherence_monotone_in_each_event(self):
        for tree, probs in seeded_cases(60, seed=5):
            base = tree_probability(tree, probs)
            for event in basic_events(tree):
                bumped = dict(probs)
                bumped[event] = min(1.0, probs[event] + 0.05)
                assert tree_probability(tree, bumped) >= base - 1e-12

    def test_boundary_absorption(self):
        for tree, probs in seeded_cases(40, seed=9):
            events = basic_events(tree)
            event = events[len(events) // 2]
            const = BasicEvent("__const__")
            rewritten = replace_event(tree, event, const)
            for value in (0.0, 1.0):
                direct = tree_probability(tree, {**probs, event: value})
                via_rewrite = tree_probability(
                    rewritten, {**probs, "__const__": value, event: probs[event]}
                )
                assert direct == pytest.approx(via_rewrite, abs=1e-12)

    def test_probability_stays_in_unit_interval(self):
        for tree, probs in seeded_cases(60, seed=77):
            p = tree_probability(tree, probs)
            assert -1e-15 <= p <= 1.0 + 1e-15

    def test_structure_function_consistency(self):
        # P(up) from enumeration of evaluate_structure matches by design;
        # spot-check the structure function itself on the shared tree.
        assert evaluate_structure(SHARED, {"a": True, "b": False, "c": True})
        assert not evaluate_structure(SHARED, {"a": False, "b": True, "c": True})

    def test_structure_on_times_matches_structure_on_states(self):
        # The Monte Carlo reads the system failure time off evaluate_structure
        # on component failure times. For that to be the structure function,
        # "system alive past t" must equal the structure function of "each
        # event alive past t" at every t, with ties and never-failing events.
        levels = (0.0, 1.0, 2.0, 3.0, np.inf)
        thresholds = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, np.inf)
        rnd = random.Random(31)
        for tree, _ in seeded_cases(200, seed=31):
            times = {e: np.array([rnd.choice(levels) for _ in range(64)]) for e in basic_events(tree)}
            t_sys = evaluate_structure(tree, times)
            assert t_sys.shape == (64,)
            for t in thresholds:
                alive = {e: v > t for e, v in times.items()}
                np.testing.assert_array_equal(t_sys > t, evaluate_structure(tree, alive))
                scalar = {e: bool(v[0]) for e, v in alive.items()}
                assert bool(evaluate_structure(tree, scalar)) == bool(t_sys[0] > t)

    def test_kofn_boundaries(self):
        probs = {"a": 0.3, "b": 0.6, "c": 0.9}
        one_of = tree_probability(KofNGate(1, (A, B, C)), probs)
        all_of = tree_probability(KofNGate(3, (A, B, C)), probs)
        assert one_of == pytest.approx(tree_probability(OrGate((A, B, C)), probs))
        assert all_of == pytest.approx(tree_probability(AndGate((A, B, C)), probs))


class TestValidation:
    def test_too_wide_tree_is_input_error(self):
        events = tuple(BasicEvent(f"e{k}") for k in range(1200))
        with pytest.raises(InputError, match="over 1200 basic events is too wide"):
            tree_probability(AndGate(events), {f"e{k}": 0.999 for k in range(1200)})

    def test_missing_probability(self):
        with pytest.raises(InputError):
            tree_probability(AndGate((A, B)), {"a": 0.5})

    def test_out_of_range_probability(self):
        with pytest.raises(InputError):
            tree_probability(A, {"a": 1.5})

    def test_gate_arity(self):
        with pytest.raises(ValueError):
            AndGate(())
        with pytest.raises(ValueError):
            KofNGate(4, (A, B, C))
        with pytest.raises(ValueError):
            KofNGate(0, (A, B, C))


class TestJson:
    def test_round_trip(self):
        tree = KofNGate(2, (A, OrGate((B, C)), AndGate((A, C))))
        assert tree_from_dict(tree_to_dict(tree)) == tree

    def test_parses_gate_objects(self):
        obj = {"gate": "KOFN", "k": 2, "inputs": [{"event": "x"}, {"event": "y"}, {"event": "z"}]}
        tree = tree_from_dict(obj)
        assert isinstance(tree, KofNGate) and tree.k == 2

    @pytest.mark.parametrize(
        "obj",
        [
            {"gate": "NAND", "inputs": [{"event": "x"}, {"event": "y"}]},
            {"gate": "AND", "inputs": []},
            {"gate": "AND"},
            {"gate": "KOFN", "inputs": [{"event": "x"}]},
            {"gate": "AND", "inputs": [{"event": "x"}], "k": 1},
            {"event": "x", "gate": "AND"},
            {"foo": 1},
            {"event": ""},
            {"gate": ["AND"], "inputs": [{"event": "x"}]},
            {"gate": "KOFN", "k": True, "inputs": [{"event": "x"}]},
        ],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(InputError):
            tree_from_dict(obj)


_TREE_LIKE = st.recursive(
    st.fixed_dictionaries({"event": st.sampled_from(["a", "b", "", 7, None])}),
    lambda children: st.fixed_dictionaries(
        {
            "gate": st.sampled_from(["AND", "OR", "KOFN", "XOR", ["AND"], None]),
            "inputs": st.lists(children, max_size=4) | JSON_VALUES,
        },
        optional={"k": st.integers(-1, 5) | JSON_VALUES},
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(JSON_VALUES, _TREE_LIKE))
def test_tree_from_dict_raises_only_input_errors(doc):
    try:
        tree = tree_from_dict(doc)
    except InputError:
        return
    assert tree_from_dict(tree_to_dict(tree)) == tree
