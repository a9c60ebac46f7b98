import gc
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliatree import successtree
from reliatree.errors import InputError
from reliatree.successtree import (
    _cofactors,
    AndGate,
    KofNGate,
    OrGate,
    basic_events,
    brute_force_probability,
    evaluate_structure,
    tree_from_dict,
    tree_probability,
)

from conftest import JSON_VALUES, and_or_chain, seeded_cases

A, B, C, D = "a", "b", "c", "d"
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
        events = tuple(f"e{k}" for k in range(21))
        with pytest.raises(ValueError):
            brute_force_probability(OrGate(events), {f"e{k}": 0.5 for k in range(21)})


def replace_event(tree, event, replacement):
    """Independent structural rewrite used as the absorption oracle."""
    if isinstance(tree, str):
        return replacement if tree == event else tree
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
            const = "__const__"
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
        assert one_of == tree_probability(OrGate((A, B, C)), probs)
        assert all_of == tree_probability(AndGate((A, B, C)), probs)

    def test_structure_is_the_kth_largest_input(self):
        # On failure times with ties and never-failing events, every K-of-N
        # gives the k-th largest input time, AND and OR are its k = n and
        # k = 1 forms, and the equalities are exact.
        rnd = random.Random(7)
        names = "abcde"
        times = {e: np.array([rnd.choice((0.0, 1.0, 2.5, np.inf)) for _ in range(256)]) for e in names}
        events = tuple(names)
        ranked = np.sort(np.stack([times[e] for e in names]), axis=0)
        for k in range(1, len(names) + 1):
            got = evaluate_structure(KofNGate(k, events), times)
            np.testing.assert_array_equal(got, ranked[len(names) - k])
        for kofn, spelled in ((KofNGate(5, events), AndGate(events)), (KofNGate(1, events), OrGate(events))):
            got, want = evaluate_structure(kofn, times), evaluate_structure(spelled, times)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_deep_structure_is_the_fold_of_its_levels(self):
        # evaluate_structure keeps its own stack, so the 2,000-level chain
        # evaluates, to the bit, as the fold of AND = min and OR = max from
        # its bottom up.
        rnd = np.random.default_rng(2000)
        times = {f"e{k}": rnd.random(64) for k in range(2001)}
        want = times["e0"]
        for k in range(1, 2001):
            want = (np.minimum if k % 2 else np.maximum)(times[f"e{k}"], want)
        got = evaluate_structure(and_or_chain(2000), times)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def kofn_pairs(n):
    """KOFN(n - 2) over ORs of neighbouring pairs around a ring of n events:
    the kofn-pairs shape of perfbench/gen_system.py."""
    ids = [f"c{i:02d}" for i in range(n)]
    pairs = tuple(OrGate((ids[i], ids[(i + 1) % n])) for i in range(n))
    return KofNGate(n - 2, pairs)


def record_walks(monkeypatch, tree, probs) -> list:
    """(gate, event, up residual, down residual) of every _cofactors call
    that tree_probability makes, each nested call before its caller."""
    calls = []
    walk = successtree._cofactors

    def recording(gate, event):
        hi, lo = walk(gate, event)
        calls.append((gate, event, hi, lo))
        return hi, lo

    with monkeypatch.context() as patch:
        patch.setattr(successtree, "_cofactors", recording)
        tree_probability(tree, probs)
    return calls


def restrict(gate, event, value):
    """The residual of `gate` with `event` up (value True) or down (False):
    one of the two trees that one _cofactors walk builds."""
    hi, lo = _cofactors(gate, event)
    return hi if value else lo


class TestResidualTrees:
    def test_untouched_subtrees_are_shared(self):
        tree = kofn_pairs(16)
        up, residual = _cofactors(tree, "c05")
        assert isinstance(residual, KofNGate) and residual.k == 14
        assert isinstance(up, KofNGate) and up.k == 12  # both pairs with c05 are up
        untouched = [c for c in tree.children if "c05" not in basic_events(c)]
        assert len(untouched) == 14
        for child in untouched:
            assert any(child is r for r in residual.children)
            assert any(child is r for r in up.children)

    @pytest.mark.parametrize(
        "gate, event, value, expected",
        [
            (AndGate((A, B, C, D)), "d", True, KofNGate(3, (A, B, C))),
            (OrGate((A, B, C, D)), "d", False, KofNGate(1, (A, B, C))),
            (KofNGate(3, (A, B, C, D)), "d", False, KofNGate(3, (A, B, C))),
            (KofNGate(2, (A, B, C, D)), "d", True, KofNGate(1, (A, B, C))),
            (KofNGate(3, (A, B, C, D)), "d", True, KofNGate(2, (A, B, C))),
        ],
        ids=["and-left", "or-left", "k=n-left", "k=1-left", "kofn-left"],
    )
    def test_kofn_normal_forms(self, gate, event, value, expected):
        # Every gate conditioning changes is the K-of-N of the inputs it
        # keeps and the k they still need, whatever its spelling was.
        restricted = restrict(gate, event, value)
        assert type(restricted) is KofNGate and restricted == expected
        assert hash(restricted) == hash(expected)

    def test_one_child_left_is_that_child(self):
        inner = OrGate((B, C))
        assert restrict(AndGate((A, inner)), "a", True) is inner
        assert restrict(OrGate((A, inner)), "a", False) is inner
        assert restrict(KofNGate(1, (A, inner)), "a", False) is inner
        assert restrict(KofNGate(2, (A, inner)), "a", True) is inner
        # A one-input gate is not kept either, when its input's residual is one input.
        assert restrict(AndGate((AndGate((A, inner)),)), "a", True) is inner
        assert restrict(OrGate((OrGate((A, inner)),)), "a", False) is inner
        assert restrict(KofNGate(1, (KofNGate(2, (A, inner)),)), "a", True) is inner

    def test_certain_inputs_decide_the_gate(self):
        assert _cofactors(AndGate((A, B)), "a") == (B, False)
        assert _cofactors(OrGate((A, B)), "a") == (True, B)
        assert _cofactors(OrGate((A, AndGate((A, B)))), "a") == (True, False)
        assert _cofactors(KofNGate(2, (A, OrGate((A, B)), C)), "a") == (True, KofNGate(2, (B, C)))

    def test_walk_enters_only_gates_that_hold_the_event(self, monkeypatch):
        # _cofactors relies on these: it is only called on a gate that holds
        # the event, and in a coherent tree the up side never turns an input
        # False nor the down side one True.
        rnd = random.Random(16)
        calls = record_walks(monkeypatch, kofn_pairs(16), {f"c{i:02d}": rnd.random() for i in range(16)})
        seeded = [call for case in seeded_cases(200) for call in record_walks(monkeypatch, *case)]
        for gate, event, hi, lo in calls + seeded:
            assert event in basic_events(gate)
            assert hi is not False and lo is not True
        # Each Shannon node of the ring enters its own residual and only the
        # OR pairs that hold the branching event; the pairs without it go
        # into both residuals unvisited.
        pairs = sum(1 for gate, *_ in calls if isinstance(gate, OrGate))
        assert (len(calls) - pairs, pairs) == (140, 140)
        # Recorded before the walk dropped the branches a coherent tree
        # cannot reach: every call's gate, event and residuals, in call order.
        digest = hashlib.sha256("".join(repr(call) for call in calls).encode()).hexdigest()
        assert digest == "41af9b8fa74a4591197a35cc83273a37e0b11d44eb153781e3958204be0066fb"

    def test_equal_gates_have_equal_hashes(self):
        obj = {"gate": "KOFN", "k": 2, "inputs": [{"event": "a"}, {"gate": "OR", "inputs": [{"event": "b"}, {"event": "c"}]}, {"gate": "AND", "inputs": [{"event": "a"}, {"event": "c"}]}]}
        first, second = tree_from_dict(obj), tree_from_dict(obj)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert hash(kofn_pairs(16)) == hash(kofn_pairs(16))
        # The cached event set is outside equality and repr.
        assert first._events == frozenset("abc") and "_events" not in repr(first)
        assert first == second and repr(first) == repr(second)
        assert {restrict(first, "b", True): 1}[restrict(second, "b", True)] == 1

    def test_kinds_and_k_tell_gates_apart(self):
        children = (A, B, C)
        gates = [AndGate(children), OrGate(children), KofNGate(1, children), KofNGate(2, children), KofNGate(3, children)]
        for i, one in enumerate(gates):
            for other in gates[i + 1 :]:
                assert one != other
        # The hash covers the kind and k, so these never share a memo bucket.
        assert len({hash(g) for g in gates}) == len(gates)

    # Computed before the hashes were cached and residual subtrees shared:
    # the branching order, the memo's equality and every multiply-add are
    # unchanged, so the results must be too, to the last bit.
    def test_kofn_pairs_value_is_unchanged(self):
        rnd = random.Random(16)
        probs = {f"c{i:02d}": rnd.random() for i in range(16)}
        assert repr(tree_probability(kofn_pairs(16), probs)) == "0.16281884107479205"

    def test_seeded_values_are_unchanged(self):
        cases = list(seeded_cases(200))
        expected = {5: "0.767119738781452", 15: "0.922252069694415", 181: "0.1376743585365134"}
        for index, value in expected.items():
            assert repr(tree_probability(*cases[index])) == value

    # Computed before the two restrictions per Shannon node became one
    # walk: three seeded maps, then the sha256 of the 64-entry column.
    @pytest.mark.parametrize(
        "n, values, column",
        [
            (8, ("0.5037608267845757", "0.6951114404151076", "0.5202785725318879"), "886cdc84aec71749"),
            (24, ("0.1255501977992073", "0.20274984645265876", "0.02574237407564113"), "fc60c7860d6cb810"),
            (32, ("0.020381744546228882", "0.02402063852420415", "0.03326873742442715"), "b31890647d4af631"),
        ],
    )
    def test_wider_rings_are_unchanged(self, n, values, column):
        tree, ids = kofn_pairs(n), [f"c{i:02d}" for i in range(n)]
        for seed, value in enumerate(values, start=1):
            rnd = random.Random(100 * n + seed)
            probs = {e: rnd.random() for e in ids}
            got = tree_probability(tree, probs)
            assert repr(got) == value
            if n <= 20:
                assert abs(got - brute_force_probability(tree, probs)) <= 1e-12
        rnd = random.Random(100 * n)
        got = tree_probability(tree, {e: np.array([rnd.random() for _ in range(64)]) for e in ids})
        assert got.shape == (64,)
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == column


def live_gates() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, KofNGate))


class TestMemoLifetime:
    """A call frees its memo, and every residual tree in it, on return:
    nothing it builds is left in a reference cycle for the collector."""

    def test_tree_probability_leaves_no_gates_behind(self):
        tree = kofn_pairs(16)
        columns = {f"c{i:02d}": np.linspace(0.5, 0.99, 544) ** (i + 1) for i in range(16)}
        gc.collect()
        gc.disable()
        try:
            before = live_gates()
            assert tree_probability(tree, columns).shape == (544,)
            after = live_gates()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert (after, unreachable) == (before, 0)

    def test_basic_events_leaves_no_cycle(self):
        tree = kofn_pairs(16)
        gc.collect()
        gc.disable()
        try:
            assert len(basic_events(tree)) == 16
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


class TestValidation:
    def test_too_wide_tree_is_input_error(self):
        events = tuple(f"e{k}" for k in range(1200))
        with pytest.raises(InputError, match="over 1200 basic events is too wide"):
            tree_probability(AndGate(events), {f"e{k}": 0.999 for k in range(1200)})

    def test_too_deep_tree_is_input_error(self):
        tree = and_or_chain(2000)
        assert basic_events(tree) == [f"e{k}" for k in range(2000, -1, -1)]
        with pytest.raises(InputError, match="over 2001 basic events is too wide or too deep"):
            tree_probability(tree, {f"e{k}": 0.9 for k in range(2001)})

    def test_missing_probability(self):
        with pytest.raises(InputError):
            tree_probability(AndGate((A, B)), {"a": 0.5})

    def test_out_of_range_probability(self):
        with pytest.raises(InputError):
            tree_probability(A, {"a": 1.5})

    @pytest.mark.parametrize("make", [AndGate, OrGate, lambda children: KofNGate(1, children)], ids=["and", "or", "kofn"])
    def test_string_children_is_input_error(self, make):
        # A string is one event: "pu1" must not become the events p, u and 1.
        with pytest.raises(InputError, match="got the string 'pu1'"):
            make("pu1")

    def test_gate_arity(self):
        with pytest.raises(ValueError):
            AndGate(())
        with pytest.raises(ValueError):
            KofNGate(4, (A, B, C))
        with pytest.raises(ValueError):
            KofNGate(0, (A, B, C))


class TestColumns:
    """tree_probability on one 1-D float64 column per event."""

    @staticmethod
    def columns(tree, rnd, length=7):
        # Entries 0 and 1 included, so some branches vanish or are certain.
        pool = [0.0, 1.0, 0.5]
        return {e: np.array([rnd.choice(pool) if rnd.random() < 0.3 else rnd.random() for _ in range(length)])
                for e in basic_events(tree)}

    def test_every_entry_has_its_scalar_bits(self):
        rnd = random.Random(26)
        for tree, _ in seeded_cases(200):
            cols = self.columns(tree, rnd)
            got = tree_probability(tree, cols)
            assert got.shape == (7,)
            for j, value in enumerate(got):
                want = tree_probability(tree, {e: float(col[j]) for e, col in cols.items()})
                assert repr(float(value)) == repr(want)

    def test_numbers_and_columns_mix(self):
        rnd = random.Random(27)
        for tree, probs in seeded_cases(50):
            cols = self.columns(tree, rnd)
            mixed = {e: (probs[e] if k % 2 else cols[e]) for k, e in enumerate(cols)}
            got = np.broadcast_to(tree_probability(tree, mixed), (7,))
            for j, value in enumerate(got):
                want = tree_probability(tree, {e: float(np.broadcast_to(v, (7,))[j]) for e, v in mixed.items()})
                assert repr(float(value)) == repr(want)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([0.5, np.nan, 0.5]), "probability for 'b' out of [0,1]: nan"),
            (np.array([0.5, 0.5, 1.5]), "probability for 'b' out of [0,1]: 1.5"),
            (np.array([-0.0, -1e-300, 0.5]), "probability for 'b' out of [0,1]: -1e-300"),
            (np.full((3, 1), 0.5), "probabilities for 'b' must be a number or a 1-D float64 column, got a float64 array of shape (3, 1)"),
            (np.array(0.5), "probabilities for 'b' must be a number or a 1-D float64 column, got a float64 array of shape ()"),
            (np.array([1, 1, 1]), "probabilities for 'b' must be a number or a 1-D float64 column, got a int64 array of shape (3,)"),
            (np.full(4, 0.5), "probability column for 'b' has 4 entries, not 3"),
        ],
        ids=["nan", "above-one", "below-zero", "2-d", "0-d", "integer", "length"],
    )
    def test_bad_column_names_its_event(self, bad, message):
        with pytest.raises(InputError) as info:
            tree_probability(AndGate((A, B)), {"a": np.full(3, 0.5), "b": bad})
        assert str(info.value) == message

    def test_brute_force_takes_numbers_only(self):
        with pytest.raises(InputError, match="probability for 'a' must be a number, got array"):
            brute_force_probability(AndGate((A, B)), {"a": np.full(3, 0.5), "b": 0.5})

    @pytest.mark.parametrize("value", ["0.5", None, [0.5], True], ids=["string", "null", "list", "true"])
    def test_brute_force_rejects_non_numeric_probability(self, value):
        # The values a JSON probabilities file can hold that are no numbers.
        with pytest.raises(InputError) as info:
            brute_force_probability(AndGate((A, B)), {"a": value, "b": 0.5})
        assert str(info.value) == f"probability for 'a' must be a number, got {value!r}"

    def test_too_wide_tree_of_columns_is_input_error(self):
        events = tuple(f"e{k}" for k in range(1200))
        with pytest.raises(InputError, match="over 1200 basic events is too wide"):
            tree_probability(AndGate(events), {e: np.full(2, 0.999) for e in events})


class TestJson:
    def test_parses_nested_gates(self):
        a, b, c = ({"event": e} for e in "abc")
        obj = {"gate": "KOFN", "k": 2, "inputs": [a, {"gate": "OR", "inputs": [b, c]}, {"gate": "AND", "inputs": [a, c]}]}
        assert tree_from_dict(obj) == KofNGate(2, (A, OrGate((B, C)), AndGate((A, C))))

    @pytest.mark.parametrize(
        "spelling, k, cls, expected_k",
        [("AND", None, AndGate, 3), ("OR", None, OrGate, 1), ("KOFN", 2, KofNGate, 2)],
    )
    def test_parses_gate_objects(self, spelling, k, cls, expected_k):
        # Each spelling builds its own class, a K-of-N gate with its k.
        obj = {"gate": spelling, "inputs": [{"event": "x"}, {"event": "y"}, {"event": "z"}]}
        if k is not None:
            obj["k"] = k
        tree = tree_from_dict(obj)
        assert type(tree) is cls and isinstance(tree, KofNGate)
        assert tree.k == expected_k

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
        with pytest.raises(InputError, match="^tree root: "):
            tree_from_dict(obj)
        with pytest.raises(InputError, match="^success_tree: "):
            tree_from_dict(obj, "success_tree")


    def test_bad_child_reported_before_parent_k(self):
        obj = {"gate": "KOFN", "k": 5, "inputs": [{"event": "x"}, {"gate": "AND", "inputs": []}]}
        with pytest.raises(InputError) as exc:
            tree_from_dict(obj, "success_tree")
        assert str(exc.value) == "success_tree.inputs[1]: AND gate needs a nonempty 'inputs' list"

    @pytest.mark.parametrize("depth", [500, 5000])
    def test_deep_dicts_build(self, depth):
        obj = {"event": "x"}
        for level in range(depth):
            obj = {"gate": "OR" if level % 2 else "AND", "inputs": [obj, {"event": f"e{level}"}]}
        node, levels = tree_from_dict(obj), 0
        while not isinstance(node, str):
            assert node.children[1] == f"e{depth - 1 - levels}"
            node, levels = node.children[0], levels + 1
        assert (node, levels) == ("x", depth)

    def test_deep_bad_node_names_its_path(self):
        obj = {"gate": "XOR", "inputs": [{"event": "x"}]}
        for _ in range(3000):
            obj = {"gate": "OR", "inputs": [{"event": "y"}, obj]}
        with pytest.raises(InputError) as exc:
            tree_from_dict(obj, "success_tree")
        path = "success_tree" + ".inputs[1]" * 3000
        assert str(exc.value) == f"{path}: unknown gate kind 'XOR'"


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
    assert 0.0 <= tree_probability(tree, dict.fromkeys(basic_events(tree), 0.5)) <= 1.0
