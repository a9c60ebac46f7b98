"""Transient-fault leaf analysis for combinational netlists.

A netlist is parsed in topological order, simulated golden and with a
single bit flipped on one net, and the fraction of input vectors whose
flip reaches a primary output is the derating factor of that net.
Campaigns are Monte Carlo with a counter-based RNG drawn plane-major:
trial t sets input j to bit t%64 of counter (t//64)*n_inputs + j, so
results are bit-reproducible for a given seed and independent of
batching.

Each netlist is compiled once into `(ufunc, a, b, out)` calls on row
indices, one to three per gate (NOT is XOR with an all-ones row, BUF is
OR of a row with itself), with fan-out lists. Two kinds of net are
decided by the structure alone: a flip on a primary output is an error
in every trial, and a flip on a net with no path to an output never is,
so their campaigns simulate nothing and draw no RNG words. Every other
campaign is parallel-pattern single-fault propagation: 64 trials per
uint64 word, a golden pass over all gates, a faulty pass over the
flipped net's cone only, and a popcount of the output differences,
in blocks of INJECTION_BLOCK_TRIALS trials so memory does not grow with
the trial count. A block's input planes are its RNG words, one
transposed copy away; a workload campaign instead simulates each
workload vector once, 64 to a word, through the same block loop, and
adds up the error flags of the vectors its trials pick. Both passes are
calls on one row space (golden nets, an all-ones row, a faulty row per
net, two output-difference rows), bound to the rows of one buffer of a
workspace pooled on the compiled netlist: the golden program once per
block width, the cone program, computed once per campaign and kept by
nothing, once per block.
A per-vector simulator over all input vectors is the exact
oracle for small circuits. Raw per-net FIT rates weighted by derating
give the transient failure rate.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Optional, Sequence

import numpy as np

from . import rng
from .errors import InputError, quoted

__all__ = [
    "Gate",
    "Netlist",
    "SerParams",
    "InjectionResult",
    "parse_netlist",
    "evaluate",
    "inject_campaign",
    "exhaustive_derating",
    "injection_targets",
    "transient_failure_rate",
    "wilson_interval",
    "read_workload",
    "Z_95",
    "Z_99",
]

GATE_KINDS = ("AND", "OR", "NOT", "XOR", "NAND", "NOR", "BUF")
_UNARY = {"NOT", "BUF"}

# Normal quantiles for the Wilson score interval.
Z_95 = 1.959963984540054
Z_99 = 2.5758293035489004

# FIT is failures per 1e9 device-hours.
PER_HOUR_PER_FIT = 1e-9

_EXHAUSTIVE_MAX_INPUTS = 24

# Trials per streamed block of a campaign; a multiple of 64.
INJECTION_BLOCK_TRIALS = 65536

# Bit-plane ufunc of each multi-input gate kind, and whether the result
# is inverted (by XOR with an all-ones row).
_PLANE_OPS = {
    "AND": (np.bitwise_and, False),
    "OR": (np.bitwise_or, False),
    "XOR": (np.bitwise_xor, False),
    "NAND": (np.bitwise_and, True),
    "NOR": (np.bitwise_or, True),
}

@dataclass(frozen=True)
class Gate:
    output: str
    kind: str
    inputs: tuple


def _gate_calls(kind: str, out: int, ins: Sequence[int], ones: int) -> tuple:
    """One gate as `(ufunc, a, b, out)` calls on row indices.

    A multi-input gate folds its inputs pairwise into its output row and
    inverts by XOR with the all-ones row `ones`; NOT is `a ^ ones` and
    BUF is `a | a`.
    """
    if kind == "NOT":
        return ((np.bitwise_xor, ins[0], ones, out),)
    if kind == "BUF":
        return ((np.bitwise_or, ins[0], ins[0], out),)
    fn, invert = _PLANE_OPS[kind]
    calls = [(fn, ins[0], ins[1], out)]
    calls += [(fn, out, i, out) for i in ins[2:]]
    if invert:
        calls.append((np.bitwise_xor, out, ones, out))
    return tuple(calls)


def _bind(calls, rows) -> list:
    """Calls on row indices -> the same calls on the arrays `rows` holds."""
    return [(fn, rows[a], rows[b], rows[out]) for fn, a, b, out in calls]


class _Compiled:
    """Integer form of a netlist for bit-parallel simulation.

    Net i is the i-th name of `Netlist.nets()`, so gate k drives net
    len(inputs) + k. In the row space of a campaign, rows 0 to n - 1 are
    the golden nets, row `ones` = n is all ones, row n + 1 + i is net i's
    faulty row, and rows 2n + 1 and 2n + 2 are the error and difference
    rows. Each gate is compiled to calls on row indices (`_gate_calls`),
    which a workspace binds to its rows. Nothing is kept per net; the
    block workspaces of the campaigns run on the netlist are pooled.
    """

    def __init__(self, netlist: "Netlist"):
        nets = netlist.nets()
        self.n_inputs = len(netlist.inputs)
        self.index = {net: i for i, net in enumerate(nets)}
        self.ones = len(nets)
        self.gate_calls = tuple(
            _gate_calls(g.kind, self.index[g.output], [self.index[n] for n in g.inputs], self.ones)
            for g in netlist.gates
        )
        self.calls = tuple(call for calls in self.gate_calls for call in calls)
        self.outputs = frozenset(self.index[n] for n in netlist.outputs)
        fanout = [[] for _ in nets]
        for g in netlist.gates:
            for n in set(g.inputs):
                fanout[self.index[n]].append(self.index[g.output])
        self.fanout = tuple(tuple(f) for f in fanout)
        # Idle block workspaces. One campaign owns a workspace from
        # take_workspace until it appends it back, so campaigns running at
        # the same time never share one; list.pop and list.append are
        # atomic, so the pool needs no lock.
        self.workspaces: list = []

    def take_workspace(self, n_words: int) -> "_Workspace":
        """An idle workspace for blocks of up to `n_words` words, or a new one.

        Narrower idle workspaces met on the way are dropped, so the pool
        holds at most one workspace per campaign that ran at the same time.
        """
        while True:
            try:
                ws = self.workspaces.pop()
            except IndexError:
                return _Workspace(self, n_words)
            if ws.n_words >= n_words:
                return ws

    def cone(self, net: int) -> tuple:
        """(calls, outputs) of a flip on `net`.

        The calls flip the net into its faulty row, re-run the gates it
        reaches in topological order with every reached net read from its
        faulty row, and OR each reached output's difference into the
        error row. `outputs` are the outputs the net reaches.
        """
        reached = {net}
        stack = [net]
        while stack:
            for out in self.fanout[stack.pop()]:
                if out not in reached:
                    reached.add(out)
                    stack.append(out)
        n = self.ones
        faulty = {i: n + 1 + i for i in reached}
        err, diff = 2 * n + 1, 2 * n + 2
        calls = [(np.bitwise_xor, net, n, faulty[net])]
        for r in sorted(reached - {net}):
            for fn, a, b, out in self.gate_calls[r - self.n_inputs]:
                calls.append((fn, faulty.get(a, a), faulty.get(b, b), faulty[out]))
        outputs = sorted(reached & self.outputs)
        for k, out in enumerate(outputs):
            calls.append((np.bitwise_xor, faulty[out], out, diff if k else err))
            if k:
                calls.append((np.bitwise_or, err, diff, err))
        return calls, outputs


class _Workspace:
    """Block buffers of one campaign at a time on one compiled netlist.

    Sized for blocks of up to `n_words` words of 64 trials (or workload
    vectors). `buffer` holds the rows of the row space (see `_Compiled`);
    a block of fewer words uses a prefix of it as contiguous rows, so its
    input planes are its first n_inputs * width words. Nothing is cleared
    between blocks or campaigns: a block writes every entry it reads,
    except the bits past its last trial or vector in its last word, which
    its count ignores.
    """

    def __init__(self, compiled: _Compiled, n_words: int):
        self.n_words = n_words
        self.ones = compiled.ones
        self.calls = compiled.calls
        # RNG words of a uniform block, (words, inputs) row-major, and
        # word_block's temporary.
        self.words = np.zeros(compiled.n_inputs * n_words, dtype=np.uint64)
        self.scratch = np.zeros(compiled.n_inputs * n_words, dtype=np.uint64)
        self.buffer = np.zeros((2 * self.ones + 3) * n_words, dtype=np.uint64)
        self.width = 0

    def bind(self, n_words: int) -> None:
        """`rows`, the row views of `n_words` words, and the golden program
        on them; the reshape moves the all-ones row, so it is refilled."""
        if n_words != self.width:
            n_rows = 2 * self.ones + 3
            self.rows = list(self.buffer[: n_rows * n_words].reshape(n_rows, n_words))
            self.rows[self.ones].fill(np.iinfo(np.uint64).max)
            self.program = _bind(self.calls, self.rows)
            self.width = n_words


@dataclass(frozen=True)
class Netlist:
    inputs: tuple
    gates: tuple
    outputs: tuple
    # Integer ops, fan-out lists and pooled block workspaces, made in __post_init__.
    compiled: _Compiled = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "compiled", _Compiled(self))

    def nets(self) -> tuple:
        """All net names in definition order: primary inputs, then gate outputs."""
        return self.inputs + tuple(g.output for g in self.gates)


@dataclass(frozen=True)
class SerParams:
    fit_per_node: Mapping[str, float] = field(default_factory=dict)
    default_fit: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.default_fit) and self.default_fit >= 0):
            raise InputError(f"default FIT must be finite and >= 0, got {self.default_fit!r}")
        for net, fit in self.fit_per_node.items():
            if fit < 0 or not math.isfinite(fit):
                raise InputError(f"FIT for {quoted(net)} must be >= 0, got {fit!r}")

    def fit_for(self, net: str) -> float:
        return self.fit_per_node.get(net, self.default_fit)


@dataclass(frozen=True)
class InjectionResult:
    trials: int
    errors: int
    derating: float
    ci95_half_width: float


def parse_netlist(text: str) -> Netlist:
    """Parse the line-oriented netlist format.

    Lines: `INPUT <name>`, `GATE <out> <KIND> <in...>`, `OUTPUT <name>`;
    `#` starts a comment. Gates must appear after every net they read
    (topological order); violations are reported with line numbers.
    """
    # (line number, tokens) of each line that is not blank or a comment
    rows = [(lineno, tokens) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (tokens := raw.split("#", 1)[0].split())]
    inputs: list = []
    gates: list = []
    output_refs: list = []
    defined_at: dict = {}
    for k, (lineno, tokens) in enumerate(rows):
        keyword, *args = tokens
        if keyword == "OUTPUT":
            if len(args) != 1:
                raise InputError(f"line {lineno}: OUTPUT takes one net name")
            output_refs.append((args[0], lineno))
            continue
        if keyword == "INPUT":
            if len(args) != 1:
                raise InputError(f"line {lineno}: INPUT takes one net name")
            ins = ()
        elif keyword == "GATE":
            if len(args) < 3:
                raise InputError(f"line {lineno}: GATE needs output, kind, inputs")
            kind, ins = args[1], tuple(args[2:])
            if kind not in GATE_KINDS:
                raise InputError(f"line {lineno}: unknown gate kind {quoted(kind)}")
            if kind in _UNARY and len(ins) != 1:
                raise InputError(f"line {lineno}: {kind} takes exactly one input")
            if kind not in _UNARY and len(ins) < 2:
                raise InputError(f"line {lineno}: {kind} needs at least two inputs")
        else:
            raise InputError(f"line {lineno}: unknown directive {quoted(keyword)}")
        name = args[0]
        if name in defined_at:
            raise InputError(
                f"line {lineno}: net {quoted(name)} already defined on line {defined_at[name]}"
            )
        for src in ins:
            if src not in defined_at:
                # Later INPUT or GATE lines naming it, well formed or not.
                later = [l for l, t in rows[k + 1 :] if t[0] in ("INPUT", "GATE") and t[1:2] == [src]]
                if later:
                    raise InputError(
                        f"line {lineno}: net {quoted(src)} used before its definition "
                        f"on line {later[0]} (netlist must be in topological order)"
                    )
                raise InputError(f"line {lineno}: undeclared net {quoted(src)}")
        defined_at[name] = lineno
        if keyword == "INPUT":
            inputs.append(name)
        else:
            gates.append(Gate(name, kind, ins))

    outputs = []
    for name, lineno in output_refs:
        if name not in defined_at:
            raise InputError(f"line {lineno}: OUTPUT names undeclared net {quoted(name)}")
        outputs.append(name)
    if not inputs:
        raise InputError("netlist declares no primary inputs")
    if not outputs:
        raise InputError("netlist declares no primary outputs")
    return Netlist(tuple(inputs), tuple(gates), tuple(outputs))


def _gate_value(kind: str, operands):
    acc = operands[0]
    if kind == "BUF":
        return acc
    if kind == "NOT":
        return acc ^ 1
    if kind in ("AND", "NAND"):
        for v in operands[1:]:
            acc = acc & v
        return acc ^ 1 if kind == "NAND" else acc
    if kind in ("OR", "NOR"):
        for v in operands[1:]:
            acc = acc | v
        return acc ^ 1 if kind == "NOR" else acc
    for v in operands[1:]:  # XOR
        acc = acc ^ v
    return acc


def _forward(netlist: Netlist, values: dict) -> dict:
    for gate in netlist.gates:
        values[gate.output] = _gate_value(gate.kind, [values[n] for n in gate.inputs])
    return values


def evaluate(netlist: Netlist, assignment: Mapping[str, int]) -> dict:
    """Golden single-vector simulation; returns {output net: bit}."""
    missing = [n for n in netlist.inputs if n not in assignment]
    if missing:
        raise ValueError(f"assignment missing input bits: {missing}")
    values = {}
    for name in netlist.inputs:
        bit = int(assignment[name])
        if bit not in (0, 1):
            raise ValueError(f"input {quoted(name)} must be 0 or 1, got {quoted(assignment[name])}")
        values[name] = bit
    _forward(netlist, values)
    return {name: values[name] for name in netlist.outputs}


def _fault_error_mask(netlist: Netlist, golden: dict, node: str):
    """Per-vector flag: does flipping `node` change any primary output?"""
    faulty = {node: golden[node] ^ 1}
    for gate in netlist.gates:
        if any(src in faulty for src in gate.inputs):
            ops = [faulty.get(n, golden[n]) for n in gate.inputs]
            faulty[gate.output] = _gate_value(gate.kind, ops)
    err = None
    for out in netlist.outputs:
        if out not in faulty:
            continue
        diff = faulty[out] != golden[out]
        err = diff if err is None else (err | diff)
    if err is None:
        return np.zeros_like(golden[node], dtype=bool)
    return err.astype(bool)


def _require_node(netlist: Netlist, node: str) -> None:
    if node not in netlist.compiled.index:
        raise InputError(f"unknown injection node {quoted(node)}")


def _propagate(ws: _Workspace, calls: list, n_words: int) -> np.ndarray:
    """Error words of a block of `n_words` words whose input planes are
    written: bit k of word q is set when the flip that the cone program
    `calls` makes reaches an output in trial (or vector) 64q + k."""
    ws.bind(n_words)
    for fn, a, b, out in chain(ws.program, _bind(calls, ws.rows)):
        fn(a, b, out)
    return ws.rows[-2]


def _block_errors(compiled: _Compiled, calls: list, count: int, fill):
    """(first, size, error words) of each block of up to
    INJECTION_BLOCK_TRIALS trials (or vectors) of `count`, on a pooled
    workspace; `fill(ws, first, size)` writes the block's input planes.
    """
    ws = compiled.take_workspace(-(-min(count, INJECTION_BLOCK_TRIALS) // 64))
    try:
        for first in range(0, count, INJECTION_BLOCK_TRIALS):
            size = min(INJECTION_BLOCK_TRIALS, count - first)
            fill(ws, first, size)
            yield first, size, _propagate(ws, calls, -(-size // 64))
    finally:
        compiled.workspaces.append(ws)


def _uniform_errors(compiled: _Compiled, calls: list, trials: int, seed: int) -> int:
    """Error count of a campaign over uniform input vectors.

    Word q of input plane j in the block that starts at trial `first` is
    RNG counter (first//64 + q)*n_inputs + j: the block's words are drawn
    as (words, inputs) row-major and copied transposed into the input rows.
    """
    n_in = compiled.n_inputs

    def fill(ws, first, size):
        n_words = -(-size // 64)
        words = rng.word_block(seed, first // 64 * n_in, n_words * n_in, out=ws.words, scratch=ws.scratch)
        np.copyto(ws.buffer[: n_in * n_words].reshape(n_in, n_words), words.reshape(n_words, n_in).T)

    errors = 0
    for _, size, err in _block_errors(compiled, calls, trials, fill):
        if size % 64:
            err[-1] &= np.uint64((1 << (size % 64)) - 1)
        errors += int(np.bitwise_count(err).sum())
    return errors


def _vector_flags(compiled: _Compiled, calls: list, matrix: np.ndarray) -> np.ndarray:
    """Per row of the binary (vectors, inputs) `matrix`: 1 when the flip
    that `calls` makes reaches an output under that input vector, else 0.

    Vector v is bit v%8 of byte v//8 of its block's input rows, so the
    flags read back the same way whatever the byte order of a word.
    """
    n_in = compiled.n_inputs

    def fill(ws, first, size):
        rows = ws.buffer[: n_in * -(-size // 64)].view(np.uint8).reshape(n_in, -1)
        rows[:, : -(-size // 8)] = np.packbits(matrix[first : first + size].T, axis=1, bitorder="little")

    flags = np.empty(len(matrix), dtype=np.uint8)
    for first, size, err in _block_errors(compiled, calls, len(matrix), fill):
        flags[first : first + size] = np.unpackbits(err.view(np.uint8), count=size, bitorder="little")
    return flags


def _workload_errors(compiled: _Compiled, calls: list, trials: int, seed: int, matrix: np.ndarray) -> int:
    """Error count of a campaign whose trial i runs the workload vector
    that counter i picks: the sum of the picked vectors' error flags."""
    flags = _vector_flags(compiled, calls, matrix)
    errors = 0
    for first in range(0, trials, INJECTION_BLOCK_TRIALS):
        size = min(INJECTION_BLOCK_TRIALS, trials - first)
        # u < 1, so every pick is below len(matrix).
        picks = (rng.unit_halfopen_floats(seed, first, size) * len(matrix)).astype(np.int64)
        errors += int(np.count_nonzero(flags[picks]))
    return errors


def inject_campaign(
    netlist: Netlist,
    node: str,
    trials: int,
    seed: int,
    workload: Optional[np.typing.ArrayLike] = None,
) -> InjectionResult:
    """Monte Carlo single-bit-flip campaign on one net.

    Each trial draws an input vector (uniform over all vectors, or
    uniformly from the rows of `workload`, a binary 2-D array-like of one
    column per input), flips the golden value on `node`, re-propagates
    only downstream gates, and counts an error when any primary output
    differs. Trial t depends only on (seed, t): it sets input j to bit
    t%64 of RNG counter (t//64)*n_inputs + j, or reads counter t to pick a
    workload vector. Trials run 64 to a word in blocks of
    INJECTION_BLOCK_TRIALS, whole words each, so memory is bounded and the
    block size does not change the result. A workload campaign
    simulates each workload vector once and counts the picked vectors'
    error flags. A flip on a primary output is an error in every trial and
    one on a net with no path to an output never is: such a campaign is
    decided from the structure after the argument and workload checks,
    and draws no RNG words.
    """
    _require_node(netlist, node)
    if trials <= 0:
        raise InputError(f"trials must be positive, got {trials!r}")
    compiled = netlist.compiled
    n_in = compiled.n_inputs
    matrix = None
    if workload is not None:
        try:
            matrix = np.asarray(workload)
        except ValueError:
            raise InputError(f"workload vectors differ in length; each must have width {n_in}") from None
        if matrix.size == 0:
            raise InputError("explicit workload is empty")
        if matrix.ndim != 2 or matrix.shape[1] != n_in:
            raise InputError(f"workload must be a 2-D array with rows of width {n_in}, got shape {matrix.shape}")
        if matrix.dtype.kind not in "biuf" or not ((matrix == 0) | (matrix == 1)).all():
            raise InputError("workload vectors must be binary: every entry 0 or 1")
        matrix = matrix.astype(np.uint8, copy=False)
    node_index = compiled.index[node]
    if node_index in compiled.outputs:
        # The flip changes an output itself: an error in every trial.
        errors = trials
    else:
        calls, outputs = compiled.cone(node_index)
        if not outputs:
            # No path to an output: never an error.
            errors = 0
        elif matrix is None:
            errors = _uniform_errors(compiled, calls, trials, seed)
        else:
            errors = _workload_errors(compiled, calls, trials, seed, matrix)
    derating = errors / trials
    _, half = wilson_interval(errors, trials, Z_95)
    return InjectionResult(trials, errors, derating, half)


def exhaustive_derating(netlist: Netlist, node: str) -> float:
    """Exact visible-flip fraction over all 2^n input vectors (n <= 24)."""
    _require_node(netlist, node)
    n_in = len(netlist.inputs)
    if n_in > _EXHAUSTIVE_MAX_INPUTS:
        raise InputError(f"exhaustive enumeration limited to {_EXHAUSTIVE_MAX_INPUTS} inputs, got {n_in}")
    count = 1 << n_in
    index = np.arange(count, dtype=np.uint32)
    values = {
        name: ((index >> np.uint32(j)) & np.uint32(1)).astype(np.uint8)
        for j, name in enumerate(netlist.inputs)
    }
    _forward(netlist, values)
    err = _fault_error_mask(netlist, values, node)
    return float(int(err.sum()) / count)


def wilson_interval(errors: int, trials: int, z: float):
    """Wilson score interval as (center, half_width), clipped to [0, 1]."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = errors / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials)) / denom
    return center, half


def injection_targets(netlist: Netlist, ser: SerParams) -> list:
    """The nets with nonzero FIT, in net order; InputError when the FIT
    map names a net the netlist does not have."""
    for net in ser.fit_per_node:
        if net not in netlist.compiled.index:
            raise InputError(f"FIT map names unknown net {quoted(net)}")
    return [net for net in netlist.nets() if ser.fit_for(net) > 0.0]


def transient_failure_rate(
    netlist: Netlist, ser: SerParams, deratings: Mapping[str, float]
) -> float:
    """Per-hour transient rate: sum of FIT * derating * 1e-9 over nets;
    InputError when the sum overflows a float."""
    total_fit = 0.0
    for net in injection_targets(netlist, ser):
        if net not in deratings:
            raise ValueError(f"no derating for net {quoted(net)} with nonzero FIT")
        d = deratings[net]
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"derating for {quoted(net)} out of [0,1]: {d!r}")
        total_fit += ser.fit_for(net) * d
    if not math.isfinite(total_fit):
        raise InputError("FIT x derating summed over the nets overflows a float: the FIT values are too large")
    return total_fit * PER_HOUR_PER_FIT


def read_workload(fp, n_inputs: int) -> np.ndarray:
    """Workload file: one binary vector per line, width = number of inputs,
    blank lines and `#` comment lines skipped; the (vectors, inputs) uint8
    0/1 matrix."""
    lines = []
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if len(line) != n_inputs or not re.fullmatch("[01]*", line):
            raise InputError(
                f"workload line {lineno}: expected {n_inputs} binary digits, got {quoted(line)}"
            )
        lines.append(line)
    if not lines:
        raise InputError("workload file contains no vectors")
    digits = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8)
    return digits.reshape(len(lines), n_inputs) - np.uint8(ord("0"))
