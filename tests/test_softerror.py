import io
import os
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
    Z_95,
    Z_99,
    InjectionResult,
    SerParams,
    _fault_error_mask,
    _forward,
    exhaustive_derating,
    inject_campaign,
    parse_netlist,
    read_workload,
    transient_failure_rate,
    wilson_interval,
    workload_campaign,
)

from conftest import AND2, FULL_ADDER, OR2, PAD, SAMPLE_DIR, padded

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
# A flip on n is masked at o1 when b = 0, but always reaches o2.
REACHED_TWICE = "INPUT a\nINPUT b\nGATE n BUF a\nGATE o1 AND n b\nGATE o2 XOR n b\nOUTPUT o1\nOUTPUT o2\n"
# A net with no path to an output.
DEAD_AND = "INPUT a\nINPUT b\nGATE dead AND a b\nGATE g1 OR a b\nOUTPUT g1\n"


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


def reference_errors(netlist, node, trials, seed):
    """Per-trial uniform campaign with one uint8 per trial per net: the
    reference. Trial t sets input j to bit t%64 of RNG counter
    (t//64)*n_inputs + j."""
    n_in = len(netlist.inputs)
    t = np.arange(trials)
    words = rng.word_block(seed, 0, (trials + 63) // 64 * n_in)
    shifts = (t % 64).astype(np.uint64)
    values = {
        name: ((words[t // 64 * n_in + j] >> shifts) & np.uint64(1)).astype(np.uint8)
        for j, name in enumerate(netlist.inputs)
    }
    _forward(netlist, values)
    return int(_fault_error_mask(netlist, values, node).sum())


def workload_reference(netlist, node, workload):
    """Per-row workload count with one uint8 per row per net: the number
    of rows whose flip on `node` reaches an output."""
    matrix = np.asarray(workload, dtype=np.uint8)
    values = {name: matrix[:, j] for j, name in enumerate(netlist.inputs)}
    _forward(netlist, values)
    return int(_fault_error_mask(netlist, values, node).sum())


def random_workload(n_inputs, n_vectors, seed):
    return np.random.default_rng(seed).integers(0, 2, size=(n_vectors, n_inputs), dtype=np.uint8)


def all_vectors(n_inputs):
    """The 2^n_inputs input vectors as rows, one column per input."""
    index = np.arange(1 << n_inputs)
    return ((index[:, None] >> np.arange(n_inputs)) & 1).astype(np.uint8)


def exact_result(netlist, node):
    """The result of counting each of the netlist's 2^n input vectors once,
    from the per-vector oracle."""
    count = 1 << len(netlist.inputs)
    errors = int(exhaustive_derating(netlist, node) * count)
    return InjectionResult(count, errors, errors / count, 0.0)


def no_words(*args, **kwargs):
    """Stand-in for rng.word_block in campaigns that must draw no words."""
    raise AssertionError("RNG words drawn")


def campaign_and_reference(net, node, trials, seed, use_workload):
    """(campaign errors, reference errors) of a uniform campaign of
    `trials` trials, or of a workload campaign over `trials` random rows."""
    if use_workload:
        workload = random_workload(len(net.inputs), trials, seed)
        return workload_campaign(net, node, workload).errors, workload_reference(net, node, workload)
    return inject_campaign(net, node, trials, seed).errors, reference_errors(net, node, trials, seed)


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


# A flip on input a of one gate reaches its output iff b = 1 for AND and
# NAND, iff b = 0 for OR and NOR, and always for XOR, NOT and BUF: an
# inverted gate masks the same flips, and b is an unused input of NOT and BUF.
ONE_GATE_VISIBLE = {"AND": {1}, "NAND": {1}, "OR": {0}, "NOR": {0}, "XOR": {0, 1}, "NOT": {0, 1}, "BUF": {0, 1}}


class TestOneGateMasking:
    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_flip_on_a_is_visible_for_the_masking_values_of_b(self, kind):
        operands = "a" if kind in ("NOT", "BUF") else "a b"
        net = parse_netlist(f"INPUT a\nINPUT b\nGATE g {kind} {operands}\nOUTPUT g\n")
        for a in (0, 1):
            for b in (0, 1):
                visible = int(b in ONE_GATE_VISIBLE[kind])
                assert workload_campaign(net, "a", [(a, b)]) == InjectionResult(1, visible, float(visible), 0.0), (a, b)


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
        assert exhaustive_derating(parse_netlist(DEAD_AND), "dead") == 0.0

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

    def test_counts_summed_over_blocks(self):
        # 2^20 vectors, 16 blocks: a flip on i0 or g0 is visible only when
        # every later input is 1, a flip on g_k when i_{k+2}..i19 all are.
        lines = [f"INPUT i{k}" for k in range(20)] + ["GATE g0 AND i0 i1"]
        lines += [f"GATE g{k} AND g{k - 1} i{k + 1}" for k in range(1, 19)] + ["OUTPUT g18"]
        net = parse_netlist("\n".join(lines) + "\n")
        assert exhaustive_derating(net, "i0") == 2.0**-19
        assert [exhaustive_derating(net, f"g{k}") for k in range(19)] == [2.0 ** (k - 18) for k in range(19)]
        # A campaign of 2^20 trials enumerates the same vectors in 16 blocks.
        assert inject_campaign(net, "i0", 1 << 20, seed=0) == InjectionResult(1 << 20, 2, 2.0**-19, 0.0)

    def test_memory_bounded_by_block_not_vectors(self):
        # 20 inputs and 100 XOR gates: one uint8 per vector per net over all
        # 2^20 vectors would peak at about 170 MB.
        lines = [f"INPUT i{k}" for k in range(20)] + ["GATE x0 XOR i0 i1"]
        lines += [f"GATE x{k} XOR x{k - 1} i{(k + 1) % 20}" for k in range(1, 100)] + ["OUTPUT x99"]
        net = parse_netlist("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            assert exhaustive_derating(net, "x50") == 1.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCampaign:
    def test_output_node_always_errors(self):
        res = inject_campaign(padded(FULL_ADDER), "cout", 500, seed=7)
        assert res.derating == 1.0 and res.errors == 500

    def test_and_gate_masking_with_fixed_workload(self):
        net = parse_netlist(AND2)
        res = workload_campaign(net, "a", [(0, 0), (1, 0)])
        assert res == InjectionResult(2, 0, 0.0, 0.0)

    def test_same_seed_bit_identical(self):
        net = padded(FULL_ADDER)
        a = inject_campaign(net, "c1", 2000, seed=99)
        b = inject_campaign(net, "c1", 2000, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        # On the padded netlist the campaign samples; an exact count would
        # not read the seed.
        net = padded(FULL_ADDER)
        a = inject_campaign(net, "c1", 2000, seed=1)
        b = inject_campaign(net, "c1", 2000, seed=2)
        assert a.errors != b.errors

    def test_result_fields_consistent(self):
        res = inject_campaign(padded(FULL_ADDER), "c2", 1234, seed=5)
        assert isinstance(res, InjectionResult)
        assert 0 <= res.errors <= res.trials == 1234
        assert res.derating == res.errors / res.trials
        assert 0.0 <= res.ci95_half_width <= 0.5

    def test_mc_near_exhaustive_for_full_adder(self, full_adder):
        exact = exhaustive_derating(full_adder, "c1")
        res = inject_campaign(padded(FULL_ADDER), "c1", 10_000, seed=42)
        center, half = wilson_interval(res.errors, res.trials, Z_99)
        assert center - half <= exact <= center + half

    def test_explicit_workload_count(self):
        net = parse_netlist(AND2)
        # b is 1 in two rows of three, so a flip on a is visible in those two.
        res = workload_campaign(net, "a", [(0, 1), (1, 0), (1, 1)])
        assert res == InjectionResult(3, 2, 2 / 3, 0.0)

    def test_empty_workload_rejected(self, full_adder):
        with pytest.raises(ValueError):
            workload_campaign(full_adder, "s1", [])

    @pytest.mark.parametrize(
        "workload,needle",
        [
            ([(0, 0.5, 1)], "binary"),
            ([("0", "1", "1")], "binary"),
            ([(0, -1, 1)], "binary"),
            ([(0, 256, 1)], "binary"),
            ([(0, float("nan"), 1)], "binary"),
            ([(0, float("inf"), 1)], "binary"),
            (np.array([(1, 0, 1), (0, 2, 1)], dtype=np.uint8), "binary"),
            ([(0, 1, 1), (0, 1)], "differ in length"),
            (np.zeros((0, 3), dtype=np.uint8), "empty"),
            (np.array([0, 1, 1]), r"width 3, got shape \(3,\)"),
        ],
        ids=["half", "strings", "negative", "256", "nan", "inf", "uint8-two", "ragged", "empty-array",
             "one-dimensional"],
    )
    def test_non_binary_workload_rejected(self, workload, needle):
        # The RuntimeWarning of casting NaN or inf would fail the test too.
        net = parse_netlist(read_text(os.path.join(SAMPLE_DIR, "netlists", "pu1.net")))
        with pytest.raises(ValueError, match=needle):
            workload_campaign(net, "c1", workload)

    def test_binary_array_likes_count_alike(self, full_adder):
        rows = [(0, 1, 1), (1, 1, 0), (1, 0, 1)]
        want = workload_campaign(full_adder, "c1", rows)
        assert want.errors == workload_reference(full_adder, "c1", rows)
        for dtype in (np.uint8, np.int64, bool, float):
            assert workload_campaign(full_adder, "c1", np.array(rows, dtype=dtype)) == want

    def test_unknown_node_rejected(self, full_adder):
        with pytest.raises(ValueError):
            inject_campaign(full_adder, "zz", 10, seed=0)

    def test_bad_trials_rejected(self, full_adder):
        with pytest.raises(ValueError):
            inject_campaign(full_adder, "s1", 0, seed=0)

    def test_partitioned_trials_merge_to_sequential_counts(self):
        # The keyed RNG makes trial i a pure function of (seed, i), so
        # running index ranges separately and adding counts must equal one
        # sequential campaign.
        full_adder = padded(FULL_ADDER)
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
        net = padded(SMALL_NETLISTS[name])
        for node in net.nets()[PAD:]:
            got, want = campaign_and_reference(net, node, trials, 1000 + trials, use_workload)
            assert got == want, node

    @pytest.mark.parametrize("use_workload", [False, True], ids=["rng", "workload"])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_two_lane_adder_matches_reference(self, trials, use_workload):
        net = parse_netlist(ripple_adder(32))
        assert len(net.inputs) == 65
        for node in ("a0", "b31", "c0", "g7", "p20", "c16", "s31", "c32"):
            got, want = campaign_and_reference(net, node, trials, 77, use_workload)
            assert got == want, node

    @pytest.mark.parametrize("use_workload", [False, True], ids=["rng", "workload"])
    @pytest.mark.parametrize("block", [64, 192])
    def test_block_size_does_not_change_counts(self, block, use_workload, monkeypatch):
        jobs = [(node, trials) for node in ("a0", "g7", "p20", "c16") for trials in (1, 65, 191, 193, 20_000)]
        net = parse_netlist(ripple_adder(32))
        if use_workload:
            workloads = {trials: random_workload(65, trials, 3) for _, trials in jobs}
            run = lambda node, trials: workload_campaign(net, node, workloads[trials]).errors
        else:
            run = lambda node, trials: inject_campaign(net, node, trials, 5).errors
        want = [run(node, trials) for node, trials in jobs]
        monkeypatch.setattr(softerror, "INJECTION_BLOCK_TRIALS", block)
        assert [run(node, trials) for node, trials in jobs] == want

    @pytest.mark.parametrize("case", ["one-vector", "duplicated", "past-one-block"])
    def test_workload_rows_match_reference(self, case, monkeypatch):
        # Each row is simulated once and counted once, repeated rows included.
        if case == "one-vector":
            workload = random_workload(65, 1, 11)
        elif case == "duplicated":
            base = random_workload(65, 3, 12)
            workload = base[[0, 1, 0, 2, 0, 1]]
        else:
            monkeypatch.setattr(softerror, "INJECTION_BLOCK_TRIALS", 64)
            workload = random_workload(65, 130, 13)
        net = parse_netlist(ripple_adder(32))
        for node in ("a0", "g7", "p20", "c16", "x31"):
            got = workload_campaign(net, node, workload)
            want = workload_reference(net, node, workload)
            assert got == InjectionResult(len(workload), want, want / len(workload), 0.0), node

    def test_dead_net_and_output_input(self):
        assert exhaustive_derating(parse_netlist(ALL_KINDS), "dead") == 0.0
        net = padded(ALL_KINDS)
        assert inject_campaign(net, "dead", 5000, seed=4).errors == 0
        assert inject_campaign(net, "d", 5000, seed=4).errors == 5000

    def test_flip_counted_at_every_reached_output(self):
        net = parse_netlist(REACHED_TWICE)
        assert exhaustive_derating(net, "n") == 1.0
        assert inject_campaign(padded(REACHED_TWICE), "n", 1000, seed=3).errors == 1000
        assert workload_campaign(net, "n", [(0, 0), (1, 0), (0, 1)]).errors == 3

    def test_memory_bounded_by_block_not_trials(self):
        # The warm-up's workspace is too narrow, so the campaign allocates
        # one row buffer of 2 * 225 + 2 rows of B / 64 words (3.53 MiB) and
        # nothing else block-sized: it draws a block's RNG words into the
        # buffer's faulty rows, with its input rows as temporary, not into
        # arrays of their own (0.51 MiB each).
        net = parse_netlist(ripple_adder(32))
        inject_campaign(net, "c16", 1000, seed=1)
        tracemalloc.start()
        try:
            inject_campaign(net, "c16", 1_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.75 * 2**20

    def test_workload_memory_bounded_by_block_not_rows(self):
        # A 65 MB uint8 workload is checked and read in place: one packed
        # block of input planes at a time, no matrix-sized temporary.
        net = parse_netlist(ripple_adder(32))
        workload = random_workload(65, 1_000_000, 4)
        workload_campaign(net, "c16", workload[:B])
        tracemalloc.start()
        try:
            workload_campaign(net, "c16", workload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStructuralCampaigns:
    """Campaigns whose count the netlist's structure decides draw no RNG words."""

    # Outputs (an input, one that drives a gate, the last gate) and a net
    # with no path to an output.
    NODES = ("d", "n4", "y", "dead")

    @pytest.mark.parametrize("use_workload", [False, True], ids=["rng", "workload"])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_decided_without_rng_words(self, trials, use_workload, monkeypatch):
        net = padded(ALL_KINDS)
        if use_workload:
            workload = random_workload(len(net.inputs), trials, trials)
            want = {node: workload_reference(net, node, workload) for node in self.NODES}
            run = lambda node: workload_campaign(net, node, workload).errors
        else:
            want = {node: reference_errors(net, node, trials, 9) for node in self.NODES}
            run = lambda node: inject_campaign(net, node, trials, 9).errors
        assert want == {"d": trials, "n4": trials, "y": trials, "dead": 0}
        monkeypatch.setattr(rng, "word_block", no_words)
        for node in self.NODES:
            assert run(node) == want[node], node
        # The patch does stop a uniform campaign that simulates.
        with pytest.raises(AssertionError, match="RNG words drawn"):
            inject_campaign(net, "n1", trials, 9)

    @pytest.mark.parametrize(
        "workload,needle",
        [([], "empty"), ([(0, 1, 2, 1)], "binary"), ([(0, 1, 1)], "width 4"), ([(0, 1, 1, 0, 1)], "width 4")],
        ids=["empty", "non-binary", "narrow", "wide"],
    )
    @pytest.mark.parametrize("node", ["y", "dead"])
    def test_bad_workload_rejected_on_decided_nets(self, node, workload, needle):
        net = parse_netlist(ALL_KINDS)
        with pytest.raises(ValueError, match=needle):
            workload_campaign(net, node, workload)


class TestWorkloadCampaigns:
    """A workload campaign is an exact count over its rows."""

    @pytest.mark.parametrize("name", ["pu1", "pu2"])
    def test_all_vectors_equal_exhaustive_on_sample_netlists(self, name):
        net = parse_netlist(read_text(os.path.join(SAMPLE_DIR, "netlists", f"{name}.net")))
        workload = all_vectors(len(net.inputs))
        for node in net.nets():
            res = workload_campaign(net, node, workload)
            assert res.trials == len(workload) and res.ci95_half_width == 0.0
            assert res.derating == exhaustive_derating(net, node), node

    def test_simulated_nets_draw_no_rng_words(self, monkeypatch):
        net = parse_netlist(ripple_adder(32))
        workload = random_workload(65, 200, 6)
        monkeypatch.setattr(rng, "word_block", no_words)
        for node in net.nets():
            assert workload_campaign(net, node, workload).errors == workload_reference(net, node, workload), node


EXACT_NETLISTS = dict(
    SMALL_NETLISTS,
    reached_twice=REACHED_TWICE,
    dead_and=DEAD_AND,
    adder1=ripple_adder(1),
    adder2=ripple_adder(2),
    adder4=ripple_adder(4),
    pu1=read_text(os.path.join(SAMPLE_DIR, "netlists", "pu1.net")),
    pu2=read_text(os.path.join(SAMPLE_DIR, "netlists", "pu2.net")),
)


def assert_exact_at_and_above_every_vector(net):
    """At 2^n trials and above, each of the 2^n vectors is counted once:
    the per-vector oracle's count, 0.0 half-width, no RNG word, any seed."""
    count = 1 << len(net.inputs)
    for node in net.nets():
        want = exact_result(net, node)
        for trials in (count, count + 1, 3 * count, max(count, 10_000)):
            for seed in (0, 1, 2**64 - 1):
                assert inject_campaign(net, node, trials, seed) == want, (node, trials, seed)


class TestExactCampaigns:
    """A uniform campaign counts each input vector once when 2^n <= trials."""

    @pytest.mark.parametrize("name", sorted(EXACT_NETLISTS))
    def test_every_net_equals_exhaustive(self, name, monkeypatch):
        net = parse_netlist(EXACT_NETLISTS[name])
        monkeypatch.setattr(rng, "word_block", no_words)
        assert_exact_at_and_above_every_vector(net)

    @pytest.mark.parametrize("name", sorted(EXACT_NETLISTS))
    def test_one_trial_short_samples(self, name):
        # At 2^n - 1 trials the campaign draws its vectors from the RNG stream.
        net = parse_netlist(EXACT_NETLISTS[name])
        trials = (1 << len(net.inputs)) - 1
        for node in net.nets():
            res = inject_campaign(net, node, trials, 21)
            assert res.trials == trials and res.errors == reference_errors(net, node, trials, 21), node
            assert res.ci95_half_width == wilson_interval(res.errors, trials, Z_95)[1], node

    def test_blocks_of_a_21_input_adder_match_the_closed_form(self):
        # 2^21 vectors, 32 blocks. Every carry is uniform and independent of
        # the bits at and above its stage, so a flip on g_i is visible unless
        # p_i = 1 and one on p_i unless g_i = 1, 3/4 of the time each; every
        # other net reaches a sum output through XORs only.
        net = parse_netlist(ripple_adder(10))
        for node in ("a0", "b9", "c0", "x4", "s7", "c5", "g0", "p0", "g9", "p3"):
            want = 0.75 if node[0] in "gp" else 1.0
            assert inject_campaign(net, node, 1 << 21, seed=0) == InjectionResult(1 << 21, int(want * 2**21), want, 0.0)


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
        for k, (trials, node) in enumerate(zip(self.STALE_ORDER, self.NODES)):
            got, want = campaign_and_reference(net, node, trials, 300 + k, use_workload)
            assert got == want, (trials, node)

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

    def test_first_workload_campaign_allocates_one_row_buffer(self):
        # One row buffer of 2 * 225 + 2 rows of B / 64 words (3.53 MiB) and
        # one block's packed input planes (0.51 MiB); no RNG word arrays.
        net = parse_netlist(ripple_adder(32))
        workload = random_workload(65, B, 4)
        tracemalloc.start()
        try:
            workload_campaign(net, "c16", workload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.15 * 2**20

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
    data=st.data(),
    seed=st.integers(0, 2**64 - 1),
    n_vectors=st.integers(1, 300),
)
def test_random_netlists_match_reference(net, data, seed, n_vectors):
    # Trial counts on both sides of the 2^n input vectors: below, the
    # campaign samples; from 2^n on, it counts each vector once.
    count = 1 << len(net.inputs)
    trials = data.draw(st.integers(1, 2 * count), label="trials")
    workload = random_workload(len(net.inputs), n_vectors, seed)
    for node in net.nets():
        res = inject_campaign(net, node, trials, seed)
        if count <= trials:
            assert res == exact_result(net, node), node
        else:
            assert res.errors == reference_errors(net, node, trials, seed), node
        got = workload_campaign(net, node, workload)
        assert got.errors == workload_reference(net, node, workload), node


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=random_netlists())
def test_random_netlists_all_vectors_equal_exhaustive(net):
    workload = all_vectors(len(net.inputs))
    for node in net.nets():
        assert workload_campaign(net, node, workload).derating == exhaustive_derating(net, node), node


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=random_netlists())
def test_random_netlists_exact_at_and_above_every_vector(net):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "word_block", no_words)
        assert_exact_at_and_above_every_vector(net)


def full_scan_cone(netlist, node):
    """(calls, outputs) of a flip on `node`, the reached nets found by a
    pass over every gate and the calls by a scan of the whole program: the
    reference for `_Compiled.cone`, which scans only the reached span."""
    compiled = netlist.compiled
    net = compiled.index[node]
    reached = {net}
    for g in netlist.gates:
        if any(compiled.index[n] in reached for n in g.inputs):
            reached.add(compiled.index[g.output])
    faulty = {i: len(compiled.index) + i for i in reached}
    err, diff = compiled.err, compiled.err + 1
    calls = [(np.bitwise_xor, net, compiled.ones, faulty[net])]
    calls += [(fn, faulty.get(a, a), faulty.get(b, b), faulty[out])
              for fn, a, b, out in compiled.calls if out != net and out in reached]
    outputs = sorted(reached & compiled.outputs)
    for k, out in enumerate(outputs):
        calls.append((np.bitwise_xor, faulty[out], out, diff if k else err))
        if k:
            calls.append((np.bitwise_or, err, diff, err))
    return calls, outputs


def assert_cones_equal_full_scan(netlist):
    for node in netlist.nets():
        assert netlist.compiled.cone(netlist.compiled.index[node]) == full_scan_cone(netlist, node), node


# Independent ANDs: every cone is one gate, far from both ends of the program.
INDEPENDENT_ANDS = "".join(f"INPUT a{k}\nINPUT b{k}\nGATE g{k} AND a{k} b{k}\nOUTPUT g{k}\n" for k in range(40))
CONE_NETLISTS = dict(SMALL_NETLISTS, adder32=ripple_adder(32), independent_ands=INDEPENDENT_ANDS)


@pytest.mark.parametrize("name", sorted(CONE_NETLISTS))
def test_cone_scan_equals_full_scan(name):
    assert_cones_equal_full_scan(parse_netlist(CONE_NETLISTS[name]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(net=random_netlists())
def test_random_netlists_cone_scan_equals_full_scan(net):
    assert_cones_equal_full_scan(net)


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
