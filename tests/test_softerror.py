import io
import os
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliatree import rng, softerror
from reliatree.errors import InputError, read_text
from reliatree.reliability import Exponential, reliability_at
from reliatree.softerror import (
    GATE_KINDS,
    INJECTION_BLOCK_TRIALS,
    Z_99,
    InjectionResult,
    SerParams,
    _fault_error_mask,
    _forward,
    evaluate,
    exhaustive_derating,
    inject_campaign,
    parse_netlist,
    read_workload,
    transient_failure_rate,
    wilson_interval,
)

from conftest import AND2, FULL_ADDER, OR2, SAMPLE_DIR

PARITY4 = (
    "INPUT a\nINPUT b\nINPUT c\nINPUT d\n"
    "GATE x1 XOR a b\nGATE x2 XOR c d\nGATE p XOR x1 x2\nOUTPUT p\n"
)
MUX21 = (
    "INPUT s\nINPUT a\nINPUT b\n"
    "GATE ns NOT s\nGATE t0 AND a ns\nGATE t1 AND b s\nGATE y OR t0 t1\nOUTPUT y\n"
)
# Every gate kind, three-input AND/OR/XOR/NAND/NOR, an input that is also
# an output, and a net that reaches no output.
ALL_KINDS = """\
INPUT a
INPUT b
INPUT c
INPUT d
GATE n1 AND a b c
GATE n2 OR a b c
GATE n3 XOR a b c
GATE n4 NAND b c d
GATE n5 NOR a c d
GATE n6 NOT n1
GATE n7 BUF n2
GATE n8 XOR n3 n4 n5
GATE dead AND n6 n7
GATE y OR n8 n6 n7
OUTPUT y
OUTPUT d
OUTPUT n4
"""


def ripple_adder(bits):
    """Ripple-carry adder with 2*bits + 1 inputs and 5*bits gates."""
    lines = []
    for i in range(bits):
        lines += [f"INPUT a{i}", f"INPUT b{i}"]
    lines.append("INPUT c0")
    for i in range(bits):
        lines += [
            f"GATE x{i} XOR a{i} b{i}",
            f"GATE g{i} AND a{i} b{i}",
            f"GATE s{i} XOR x{i} c{i}",
            f"GATE p{i} AND x{i} c{i}",
            f"GATE c{i + 1} OR g{i} p{i}",
        ]
    lines += [f"OUTPUT s{i}" for i in range(bits)] + [f"OUTPUT c{bits}"]
    return "\n".join(lines) + "\n"


def reference_errors(netlist, node, trials, seed, workload=None):
    """Per-trial campaign with one uint8 per trial per net: the reference.

    Trial t sets input j to bit t%64 of RNG counter (t//64)*n_inputs + j;
    with a workload, counter t picks the vector.
    """
    n_in = len(netlist.inputs)
    values = {}
    if workload is None:
        t = np.arange(trials)
        words = rng.word_block(seed, 0, (trials + 63) // 64 * n_in)
        shifts = (t % 64).astype(np.uint64)
        for j, name in enumerate(netlist.inputs):
            values[name] = ((words[t // 64 * n_in + j] >> shifts) & np.uint64(1)).astype(np.uint8)
    else:
        matrix = np.asarray(workload, dtype=np.uint8)
        u = rng.unit_halfopen_floats(seed, 0, trials)
        idx = (u * len(workload)).astype(np.int64)
        for j, name in enumerate(netlist.inputs):
            values[name] = matrix[idx, j]
    _forward(netlist, values)
    return int(_fault_error_mask(netlist, values, node).sum())


def random_workload(n_inputs, n_vectors, seed):
    rnd = random.Random(seed)
    return [tuple(rnd.randint(0, 1) for _ in range(n_inputs)) for _ in range(n_vectors)]


class TestParser:
    def test_minimal_and(self):
        net = parse_netlist(AND2)
        assert net.inputs == ("a", "b")
        assert len(net.gates) == 1 and net.gates[0].kind == "AND"
        assert net.outputs == ("g1",)

    def test_full_adder_shape(self, full_adder):
        assert len(full_adder.gates) == 5
        assert len(full_adder.inputs) == 3
        assert len(full_adder.outputs) == 2
        kinds = sorted(g.kind for g in full_adder.gates)
        assert kinds == ["AND", "AND", "OR", "XOR", "XOR"]

    def test_comments_and_blank_lines(self):
        net = parse_netlist("# top\n\nINPUT a\nINPUT b # second\nGATE g1 AND a b\nOUTPUT g1\n")
        assert net.inputs == ("a", "b")

    def test_forward_reference_reports_both_lines(self):
        text = "INPUT a\nGATE g2 AND a g1\nGATE g1 NOT a\nOUTPUT g2\n"
        with pytest.raises(InputError) as err:
            parse_netlist(text)
        assert "line 2" in str(err.value) and "line 3" in str(err.value)

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("INPUT a\nGATE g1 AND a q\nOUTPUT g1\n", "undeclared net 'q'"),
            ("INPUT a\nINPUT a\nGATE g1 NOT a\nOUTPUT g1\n", "already defined"),
            ("INPUT a\nGATE a NOT a\nOUTPUT a\n", "already defined"),
            ("INPUT a\nGATE g1 NOT a b\nOUTPUT g1\n", "exactly one input"),
            ("INPUT a\nGATE g1 AND a\nOUTPUT g1\n", "at least two"),
            ("INPUT a\nGATE g1 FOO a a\nOUTPUT g1\n", "unknown gate kind"),
            ("INPUT a\nGATE g1 NOT a\nOUTPUT nope\n", "undeclared net 'nope'"),
            ("INPUT a\nWIRE g1\nOUTPUT a\n", "unknown directive"),
            ("GATE g1 AND a b\nOUTPUT g1\n", "undeclared net"),
            # Which error wins, and which later line a forward reference names.
            ("INPUT a\nGATE a AND q r\nOUTPUT a\n", "line 2: net 'a' already defined on line 1"),
            ("INPUT a\nGATE g1 AND a z\nINPUT z extra\nOUTPUT g1\n", "net 'z' used before its definition on line 3"),
            ("INPUT a\nGATE g1 AND a z\nGATE z NOT a\nGATE z NOT a\nOUTPUT g1\n", "definition on line 3"),
            ("INPUT a\nGATE g1 AND a z\n# INPUT z\nOUTPUT g1\n", "line 2: undeclared net 'z'"),
            ("INPUT a\nGATE g1 AND a z\nGATE z\nOUTPUT g1\n", "definition on line 3"),
        ],
    )
    def test_rejections_carry_line_context(self, text, needle):
        with pytest.raises(InputError) as err:
            parse_netlist(text)
        assert needle in str(err.value)

    def test_line_numbers_in_messages(self):
        with pytest.raises(InputError) as err:
            parse_netlist("INPUT a\n\nGATE g1 AND a q\nOUTPUT g1\n")
        assert "line 3" in str(err.value)


class TestEvaluate:
    @pytest.mark.parametrize("a,b,want", [(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 0)])
    def test_and_truth_table(self, a, b, want):
        net = parse_netlist(AND2)
        assert evaluate(net, {"a": a, "b": b}) == {"g1": want}

    def test_xor_chain_parity(self):
        net = parse_netlist(
            "INPUT a\nINPUT b\nINPUT c\nGATE x1 XOR a b\nGATE x2 XOR x1 c\nOUTPUT x2\n"
        )
        assert evaluate(net, {"a": 1, "b": 1, "c": 1}) == {"x2": 1}

    def test_full_adder_matches_arithmetic(self, full_adder):
        for v in range(8):
            bits = {"a": v & 1, "b": (v >> 1) & 1, "cin": (v >> 2) & 1}
            out = evaluate(full_adder, bits)
            total = sum(bits.values())
            assert out == {"sum": total % 2, "cout": total // 2}

    def test_all_gate_kinds(self):
        net = parse_netlist(
            "INPUT a\nINPUT b\n"
            "GATE g_and AND a b\nGATE g_or OR a b\nGATE g_not NOT a\n"
            "GATE g_xor XOR a b\nGATE g_nand NAND a b\nGATE g_nor NOR a b\n"
            "GATE g_buf BUF a\n"
            "OUTPUT g_and\nOUTPUT g_or\nOUTPUT g_not\nOUTPUT g_xor\n"
            "OUTPUT g_nand\nOUTPUT g_nor\nOUTPUT g_buf\n"
        )
        out = evaluate(net, {"a": 1, "b": 0})
        assert out == {
            "g_and": 0,
            "g_or": 1,
            "g_not": 0,
            "g_xor": 1,
            "g_nand": 1,
            "g_nor": 0,
            "g_buf": 1,
        }

    def test_missing_input_rejected(self, full_adder):
        with pytest.raises(ValueError):
            evaluate(full_adder, {"a": 1, "b": 0})


class TestExhaustive:
    def test_primary_output_node_is_always_visible(self, full_adder):
        assert exhaustive_derating(full_adder, "sum") == 1.0

    def test_and_input_masked_half_the_time(self):
        # Visible iff b = 1: exactly 2 of 4 vectors.
        assert exhaustive_derating(parse_netlist(AND2), "a") == 0.5

    def test_or_input_masked_half_the_time(self):
        # Visible iff b = 0.
        assert exhaustive_derating(parse_netlist(OR2), "a") == 0.5

    def test_disconnected_net_has_zero_derating(self):
        net = parse_netlist(
            "INPUT a\nINPUT b\nGATE dead AND a b\nGATE g1 OR a b\nOUTPUT g1\n"
        )
        assert exhaustive_derating(net, "dead") == 0.0

    def test_too_many_inputs_rejected(self):
        lines = [f"INPUT i{k}" for k in range(25)]
        lines.append("GATE g1 AND " + " ".join(f"i{k}" for k in range(25)))
        lines.append("OUTPUT g1")
        net = parse_netlist("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            exhaustive_derating(net, "i0")

    def test_unknown_node_rejected(self, full_adder):
        with pytest.raises(ValueError):
            exhaustive_derating(full_adder, "nope")


class TestCampaign:
    def test_output_node_always_errors(self, full_adder):
        res = inject_campaign(full_adder, "cout", 500, seed=7)
        assert res.derating == 1.0 and res.errors == 500

    def test_and_gate_masking_with_fixed_workload(self):
        net = parse_netlist(AND2)
        res = inject_campaign(net, "a", 400, seed=3, workload=[(0, 0), (1, 0)])
        assert res.derating == 0.0

    def test_same_seed_bit_identical(self, full_adder):
        a = inject_campaign(full_adder, "c1", 2000, seed=99)
        b = inject_campaign(full_adder, "c1", 2000, seed=99)
        assert a == b

    def test_different_seeds_differ(self, full_adder):
        a = inject_campaign(full_adder, "c1", 2000, seed=1)
        b = inject_campaign(full_adder, "c1", 2000, seed=2)
        assert a.errors != b.errors

    def test_result_fields_consistent(self, full_adder):
        res = inject_campaign(full_adder, "c2", 1234, seed=5)
        assert isinstance(res, InjectionResult)
        assert 0 <= res.errors <= res.trials == 1234
        assert res.derating == res.errors / res.trials
        assert 0.0 <= res.ci95_half_width <= 0.5

    def test_mc_near_exhaustive_for_full_adder(self, full_adder):
        exact = exhaustive_derating(full_adder, "c1")
        res = inject_campaign(full_adder, "c1", 10_000, seed=42)
        center, half = wilson_interval(res.errors, res.trials, Z_99)
        assert center - half <= exact <= center + half

    def test_restoring_the_flip_reproduces_golden(self, full_adder):
        bits = {"a": 1, "b": 0, "cin": 1}
        golden = evaluate(full_adder, bits)
        assert evaluate(full_adder, bits) == golden

    def test_explicit_workload_sampling(self):
        net = parse_netlist(AND2)
        # b is always 1, so a flip on a is always visible.
        res = inject_campaign(net, "a", 300, seed=11, workload=[(0, 1), (1, 1)])
        assert res.derating == 1.0

    def test_empty_workload_rejected(self, full_adder):
        with pytest.raises(ValueError):
            inject_campaign(full_adder, "s1", 10, seed=0, workload=[])

    @pytest.mark.parametrize(
        "workload,needle",
        [
            ([(0, 0.5, 1)], "binary"),
            ([("0", "1", "1")], "binary"),
            ([(0, -1, 1)], "binary"),
            ([(0, 1, 1), (0, 1)], "differ in length"),
            (np.zeros((0, 3), dtype=np.uint8), "empty"),
            (np.array([0, 1, 1]), r"width 3, got shape \(3,\)"),
        ],
        ids=["half", "strings", "negative", "ragged", "empty-array", "one-dimensional"],
    )
    def test_non_binary_workload_rejected(self, workload, needle):
        net = parse_netlist(read_text(os.path.join(SAMPLE_DIR, "netlists", "pu1.net")))
        with pytest.raises(ValueError, match=needle):
            inject_campaign(net, "c1", 10, seed=0, workload=workload)

    def test_binary_array_likes_count_alike(self, full_adder):
        rows = [(0, 1, 1), (1, 1, 0), (1, 0, 1)]
        want = inject_campaign(full_adder, "c1", 500, seed=4, workload=rows)
        for workload in (np.array(rows, dtype=np.uint8), np.array(rows, dtype=bool), np.array(rows, dtype=float)):
            assert inject_campaign(full_adder, "c1", 500, seed=4, workload=workload) == want

    def test_unknown_node_rejected(self, full_adder):
        with pytest.raises(ValueError):
            inject_campaign(full_adder, "zz", 10, seed=0)

    def test_bad_trials_rejected(self, full_adder):
        with pytest.raises(ValueError):
            inject_campaign(full_adder, "s1", 0, seed=0)

    def test_partitioned_trials_merge_to_sequential_counts(self, full_adder):
        # The keyed RNG makes trial i a pure function of (seed, i), so
        # running index ranges separately and adding counts must equal one
        # sequential campaign.
        import numpy as np

        from reliatree import rng
        from reliatree.softerror import _fault_error_mask, _forward

        seed, trials, node = 31, 1000, "c1"
        whole = inject_campaign(full_adder, node, trials, seed)

        def partition_errors(start, count):
            # Trial t sets input j to bit t%64 of counter (t//64)*n_inputs + j.
            n_in = len(full_adder.inputs)
            values = {
                name: np.array(
                    [(rng.word_at(seed, t // 64 * n_in + j) >> (t % 64)) & 1 for t in range(start, start + count)],
                    dtype=np.uint8,
                )
                for j, name in enumerate(full_adder.inputs)
            }
            _forward(full_adder, values)
            return int(_fault_error_mask(full_adder, values, node).sum())

        merged = partition_errors(0, 400) + partition_errors(400, 600)
        assert merged == whole.errors


B = INJECTION_BLOCK_TRIALS
TRIAL_COUNTS = (1, 63, 64, 65, 1000, B - 1, B, B + 1, 2 * B + 65)
SMALL_NETLISTS = {
    "full_adder": FULL_ADDER,
    "and2": AND2,
    "or2": OR2,
    "parity4": PARITY4,
    "mux21": MUX21,
    "all_kinds": ALL_KINDS,
}


class TestBitParallelCampaign:
    """The packed, blocked engine against the per-trial reference."""

    @pytest.mark.parametrize("use_workload", [False, True], ids=["rng", "workload"])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    @pytest.mark.parametrize("name", sorted(SMALL_NETLISTS))
    def test_every_net_matches_reference(self, name, trials, use_workload):
        net = parse_netlist(SMALL_NETLISTS[name])
        workload = random_workload(len(net.inputs), 5, trials) if use_workload else None
        for node in net.nets():
            got = inject_campaign(net, node, trials, 1000 + trials, workload)
            assert got.errors == reference_errors(net, node, trials, 1000 + trials, workload), node

    @pytest.mark.parametrize("use_workload", [False, True], ids=["rng", "workload"])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_two_lane_adder_matches_reference(self, trials, use_workload):
        net = parse_netlist(ripple_adder(32))
        assert len(net.inputs) == 65
        workload = random_workload(65, 7, trials) if use_workload else None
        for node in ("a0", "b31", "c0", "g7", "p20", "c16", "s31", "c32"):
            got = inject_campaign(net, node, trials, 77, workload)
            assert got.errors == reference_errors(net, node, trials, 77, workload), node

    @pytest.mark.parametrize("use_workload", [False, True], ids=["rng", "workload"])
    @pytest.mark.parametrize("block", [64, 192])
    def test_block_size_does_not_change_counts(self, block, use_workload, monkeypatch):
        workload = random_workload(65, 7, 3) if use_workload else None
        jobs = [(node, trials) for node in ("a0", "g7", "p20", "c16") for trials in (1, 65, 191, 193, 20_000)]
        net = parse_netlist(ripple_adder(32))
        want = [inject_campaign(net, node, trials, 5, workload).errors for node, trials in jobs]
        monkeypatch.setattr(softerror, "INJECTION_BLOCK_TRIALS", block)
        assert [inject_campaign(net, node, trials, 5, workload).errors for node, trials in jobs] == want

    @pytest.mark.parametrize("case", ["one-vector", "duplicated", "past-one-block"])
    def test_workload_flags_match_reference(self, case, monkeypatch):
        # Each workload vector is simulated once; the campaign adds up the
        # flags of the vectors its trials pick.
        if case == "one-vector":
            workload = random_workload(65, 1, 11)
        elif case == "duplicated":
            base = random_workload(65, 3, 12)
            workload = [base[0], base[1], base[0], base[2], base[0], base[1]]
        else:
            monkeypatch.setattr(softerror, "INJECTION_BLOCK_TRIALS", 64)
            workload = random_workload(65, 130, 13)
        net = parse_netlist(ripple_adder(32))
        for node in ("a0", "g7", "p20", "c16", "x31"):
            for trials in (1, 100, 1000):
                got = inject_campaign(net, node, trials, 21, workload)
                assert got.errors == reference_errors(net, node, trials, 21, workload), (node, trials)

    def test_dead_net_and_output_input(self):
        net = parse_netlist(ALL_KINDS)
        assert exhaustive_derating(net, "dead") == 0.0
        assert inject_campaign(net, "dead", 5000, seed=4).errors == 0
        assert inject_campaign(net, "d", 5000, seed=4).errors == 5000

    def test_flip_counted_at_every_reached_output(self):
        # The flip on n is masked at o1 when b = 0, but always reaches o2.
        net = parse_netlist(
            "INPUT a\nINPUT b\nGATE n BUF a\nGATE o1 AND n b\nGATE o2 XOR n b\nOUTPUT o1\nOUTPUT o2\n"
        )
        assert exhaustive_derating(net, "n") == 1.0
        for wl in (None, [(0, 0), (1, 0), (0, 1)]):
            assert inject_campaign(net, "n", 1000, seed=3, workload=wl).errors == 1000, wl

    def test_memory_bounded_by_block_not_trials(self):
        net = parse_netlist(ripple_adder(32))
        workload = random_workload(65, 9, 3)
        for wl in (None, workload):
            inject_campaign(net, "c16", 1000, seed=1, workload=wl)
            tracemalloc.start()
            try:
                inject_campaign(net, "c16", 1_000_000, seed=1, workload=wl)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, wl is not None


class TestStructuralCampaigns:
    """Campaigns whose count the netlist's structure decides draw no RNG words."""

    # Outputs (an input, one that drives a gate, the last gate) and a net
    # with no path to an output.
    NODES = ("d", "n4", "y", "dead")

    @pytest.mark.parametrize("use_workload", [False, True], ids=["rng", "workload"])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_decided_without_rng_words(self, trials, use_workload, monkeypatch):
        net = parse_netlist(ALL_KINDS)
        workload = random_workload(len(net.inputs), 5, trials) if use_workload else None
        want = {node: reference_errors(net, node, trials, 9, workload) for node in self.NODES}
        assert want == {"d": trials, "n4": trials, "y": trials, "dead": 0}

        def no_words(*args, **kwargs):
            raise AssertionError("RNG words drawn")

        monkeypatch.setattr(rng, "word_block", no_words)
        for node in self.NODES:
            assert inject_campaign(net, node, trials, 9, workload).errors == want[node], node
        # The patch does stop a campaign that simulates.
        with pytest.raises(AssertionError, match="RNG words drawn"):
            inject_campaign(net, "n1", trials, 9, workload)

    @pytest.mark.parametrize(
        "workload,needle",
        [([], "empty"), ([(0, 1, 2, 1)], "binary"), ([(0, 1, 1)], "width 4"), ([(0, 1, 1, 0, 1)], "width 4")],
        ids=["empty", "non-binary", "narrow", "wide"],
    )
    @pytest.mark.parametrize("node", ["y", "dead"])
    def test_bad_workload_rejected_on_decided_nets(self, node, workload, needle):
        net = parse_netlist(ALL_KINDS)
        with pytest.raises(ValueError, match=needle):
            inject_campaign(net, node, 10, seed=0, workload=workload)


class TestWorkspaceReuse:
    """Campaigns on one netlist share its pooled block workspaces."""

    # Wide, narrow, one word past a block, one trial, mid-size, one short
    # of a block: each campaign reads buffers the one before left stale.
    STALE_ORDER = (2 * B + 65, 65, B + 1, 1, 1000, B - 1)
    # Carry-logic nets, whose flips are masked in about a quarter of trials.
    NODES = ("g0", "p5", "g7", "p20", "g31", "p31")

    @pytest.mark.parametrize("use_workload", [False, True], ids=["rng", "workload"])
    def test_stale_buffers_do_not_change_counts(self, use_workload):
        net = parse_netlist(ripple_adder(32))
        assert len(net.inputs) == 65
        workload = random_workload(65, 9, 5) if use_workload else None
        for k, (trials, node) in enumerate(zip(self.STALE_ORDER, self.NODES)):
            got = inject_campaign(net, node, trials, 300 + k, workload)
            assert got.errors == reference_errors(net, node, trials, 300 + k, workload), (trials, node)

    def test_concurrent_campaigns_on_one_netlist(self):
        net = parse_netlist(ripple_adder(32))
        trial_counts = (1000, 65, B + 1, 1, 20_000, 130)
        jobs = [(node, trials, 40 + k) for k, (node, trials) in enumerate(zip(self.NODES, trial_counts))]
        want = [reference_errors(net, node, trials, seed) for node, trials, seed in jobs]
        results = [[], []]

        def run(out, order):
            for _ in range(3):
                for i in order:
                    node, trials, seed = jobs[i]
                    out.append((i, inject_campaign(net, node, trials, seed).errors))

        threads = [
            threading.Thread(target=run, args=(results[0], range(len(jobs)))),
            threading.Thread(target=run, args=(results[1], range(len(jobs) - 1, -1, -1))),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in results:
            assert len(out) == 3 * len(jobs)
            assert all(errors == want[i] for i, errors in out)

    def test_second_campaign_allocates_no_block(self):
        # A 20,000-trial campaign on the 32-bit adder needs about 1.5 MB of
        # block arrays; the second one on the netlist reuses the first's.
        net = parse_netlist(ripple_adder(32))
        inject_campaign(net, "c16", 20_000, seed=1)
        tracemalloc.start()
        try:
            inject_campaign(net, "a3", 20_000, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10

    def test_campaigns_leave_no_per_net_state(self):
        # A campaign on each of the 897 nets of a 128-bit adder: once they
        # are done, nothing but the pooled workspace is held.
        net = parse_netlist(ripple_adder(128))
        inject_campaign(net, "c64", 64, seed=1)
        tracemalloc.start()
        try:
            for node in net.nets():
                inject_campaign(net, node, 64, seed=2)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 256 * 2**10


@st.composite
def random_netlists(draw):
    """Topologically ordered netlists of every gate kind, repeated operands allowed."""
    nets = [f"i{k}" for k in range(draw(st.integers(1, 12)))]
    lines = [f"INPUT {n}" for n in nets]
    for k in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(GATE_KINDS))
        arity = 1 if kind in ("NOT", "BUF") else draw(st.integers(2, 4))
        operands = draw(st.lists(st.sampled_from(nets), min_size=arity, max_size=arity))
        lines.append(f"GATE g{k} {kind} {' '.join(operands)}")
        nets.append(f"g{k}")
    outputs = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4))
    lines += [f"OUTPUT {n}" for n in outputs]
    return parse_netlist("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(
    net=random_netlists(),
    trials=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    n_vectors=st.integers(1, 6),
)
def test_random_netlists_match_reference(net, trials, seed, n_vectors):
    workload = random_workload(len(net.inputs), n_vectors, seed)
    for node in net.nets():
        for wl in (None, workload):
            got = inject_campaign(net, node, trials, seed, wl)
            assert got.errors == reference_errors(net, node, trials, seed, wl), node


_NETLIST_WORDS = st.sampled_from(
    ["INPUT", "GATE", "OUTPUT", "#", "a", "b", "g1", "g2"] + list(GATE_KINDS)
)
_NETLIST_LIKE_TEXT = st.lists(
    st.lists(_NETLIST_WORDS, max_size=6).map(" ".join), max_size=8
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), _NETLIST_LIKE_TEXT))
def test_parse_netlist_raises_only_input_errors(text):
    try:
        net = parse_netlist(text)
    except InputError:
        return
    for node in net.nets():
        inject_campaign(net, node, 3, seed=0)


class TestReadWorkload:
    def test_matrix_of_the_digits(self):
        text = "# header\r\n010\r\n\r\n  111 \r\n# 2\n001\n"
        vectors = read_workload(io.StringIO(text, newline=""), 3)
        assert vectors.dtype == np.uint8 and vectors.shape == (3, 3)
        assert vectors.tolist() == [[0, 1, 0], [1, 1, 1], [0, 0, 1]]

    @pytest.mark.parametrize(
        "text,lineno",
        [("01\r\n# x\r\n\r\n012\r\n", 4), ("01\n\n101\n", 3), ("#\n1 0\n", 2), ("10\n1\u00b9\n", 2)],
    )
    def test_errors_name_the_line(self, text, lineno):
        with pytest.raises(InputError, match=f"^workload line {lineno}: expected 2 binary digits"):
            read_workload(io.StringIO(text, newline=""), 2)


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(st.text(), st.text(alphabet="01 #\n\t")),
    n_inputs=st.integers(0, 8),
)
def test_read_workload_raises_only_input_errors(text, n_inputs):
    try:
        vectors = read_workload(io.StringIO(text), n_inputs)
    except InputError:
        return
    assert len(vectors) > 0 and all(len(v) == n_inputs for v in vectors)


class TestWilson:
    def test_half_width_shrinks_with_trials(self):
        _, h1 = wilson_interval(50, 100, Z_99)
        _, h2 = wilson_interval(5000, 10_000, Z_99)
        assert h2 < h1
        assert h2 == pytest.approx(h1 / 10.0, rel=0.05)

    def test_extremes_stay_in_unit_interval(self):
        lo_c, lo_h = wilson_interval(0, 100, Z_99)
        hi_c, hi_h = wilson_interval(100, 100, Z_99)
        assert lo_c - lo_h >= -1e-12
        assert hi_c + hi_h <= 1.0 + 1e-12


class TestRates:
    def test_single_node(self):
        net = parse_netlist(AND2)
        lam = transient_failure_rate(net, SerParams({"g1": 1000.0}, 0.0), {"g1": 0.5})
        assert lam == pytest.approx(5e-7)

    def test_all_zero_deratings(self):
        net = parse_netlist(AND2)
        ser = SerParams({}, 100.0)
        lam = transient_failure_rate(net, ser, {n: 0.0 for n in net.nets()})
        assert lam == 0.0
        assert reliability_at(Exponential(lam), 1e6) == 1.0

    def test_two_node_sum(self):
        net = parse_netlist(AND2)
        ser = SerParams({"a": 500.0, "g1": 2000.0}, 0.0)
        lam = transient_failure_rate(net, ser, {"a": 0.25, "g1": 0.1})
        assert lam == pytest.approx(3.25e-7)

    def test_missing_derating_rejected(self):
        net = parse_netlist(AND2)
        with pytest.raises(ValueError):
            transient_failure_rate(net, SerParams({"g1": 10.0}, 0.0), {})

    def test_unknown_fit_net_rejected(self):
        net = parse_netlist(AND2)
        with pytest.raises(ValueError):
            transient_failure_rate(net, SerParams({"zz": 10.0}, 0.0), {"zz": 1.0})

    def test_overflowing_fit_sum_is_input_error(self):
        net = parse_netlist(AND2)
        with pytest.raises(InputError, match="FIT"):
            transient_failure_rate(net, SerParams({}, 1e308), {n: 1.0 for n in net.nets()})

    def test_negative_fit_rejected(self):
        with pytest.raises(ValueError):
            SerParams({"g1": -1.0}, 0.0)
