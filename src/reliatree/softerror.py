"""Transient-fault leaf analysis for combinational netlists.

A netlist is parsed in topological order, simulated golden and with a
single bit flipped on one net, and the fraction of input vectors whose
flip reaches a primary output is the derating factor of that net.
A uniform campaign of `trials` trials on a netlist with n inputs counts
each of the 2^n input vectors once when 2^n <= trials, and is exact.
Otherwise it is Monte Carlo with a counter-based RNG drawn word-major:
trial t sets input j to bit t%64 of counter (t//64)*n_inputs + j, so
results are bit-reproducible for a given seed and independent of
batching. A workload campaign counts exactly the rows of an explicit
workload whose flip is visible.

Each netlist is compiled once into one flat program of `(ufunc, a, b,
out)` calls on row indices, one to three per gate (NOT is XOR with an
all-ones constant, BUF is OR of a row with itself), with fan-out lists.
Two kinds of net are decided by the structure alone: a flip on a primary
output is an error in every trial, and a flip on a net with no path to
an output never is, so their campaigns simulate nothing and draw no RNG
words. Every other campaign is parallel-pattern single-fault
propagation, 64 trials (or explicit vectors) per uint64 word, in blocks of
INJECTION_BLOCK_TRIALS trials so memory does not grow with the trial
count: a golden pass over the program, a faulty pass over the calls
that write the nets the flip reaches, and a popcount of the output
differences. A block's input planes are its RNG words, drawn into them
in place, or its explicit vectors, packed 8 to a byte. Both passes are
calls on one row space (a golden and a faulty row per net, an error and
a difference row, then the all-ones constant) bound to the views of one
buffer, the only array of a workspace pooled on the compiled netlist.
Every entry a block reads was written by that block, so a uniform block
draws its RNG words with rows it writes later as the temporary.
`exhaustive_derating`, a per-vector simulator over all input vectors,
is kept as an oracle for the tests and the benchmark. Raw per-net FIT
rates weighted by derating give the transient failure rate.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .errors import InputError, quoted

__all__ = [
    "Gate",
    "Netlist",
    "SerParams",
    "InjectionResult",
    "parse_netlist",
    "inject_campaign",
    "enumerates",
    "workload_campaign",
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
# is inverted (by XOR with _ONES, the all-ones operand that NOT XORs with).
_PLANE_OPS = {
    "AND": (np.bitwise_and, False),
    "OR": (np.bitwise_or, False),
    "XOR": (np.bitwise_xor, False),
    "NAND": (np.bitwise_and, True),
    "NOR": (np.bitwise_or, True),
}
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

@dataclass(frozen=True)
class Gate:
    output: str
    kind: str
    inputs: tuple


def _gate_calls(kind: str, out: int, ins: Sequence[int], ones: int) -> tuple:
    """One gate as `(ufunc, a, b, out)` calls on row indices.

    A multi-input gate folds its inputs pairwise into its output row and
    inverts by XOR with the all-ones constant at index `ones`; NOT is
    `a ^ ones` and BUF is `a | a`.
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
    the golden nets, row n + i is net i's faulty row, rows `err` = 2n and
    2n + 1 are the error and difference rows, and index `ones` = 2n + 2
    is the all-ones constant. The gates are compiled in topological order
    to one program `calls` on row indices (`_gate_calls`), which a
    workspace binds. Nothing is kept per net; the block workspaces of the
    campaigns run on the netlist are pooled.
    """

    def __init__(self, netlist: "Netlist"):
        nets = netlist.nets()
        self.n_inputs = len(netlist.inputs)
        self.index = {net: i for i, net in enumerate(nets)}
        self.err = 2 * len(nets)
        self.ones = self.err + 2
        self.calls = tuple(chain.from_iterable(
            _gate_calls(g.kind, self.index[g.output], [self.index[n] for n in g.inputs], self.ones)
            for g in netlist.gates
        ))
        # The net each call writes: non-decreasing, as gates are in net order.
        self.call_outputs = tuple(out for _, _, _, out in self.calls)
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

        The calls flip the net into its faulty row, re-run the calls of
        `calls` that write the other nets it reaches, in topological order
        with every reached net read from its faulty row, and OR each
        reached output's difference into the error row. `outputs` are the
        outputs the net reaches.
        """
        reached = {net}
        stack = [net]
        while stack:
            for out in self.fanout[stack.pop()]:
                if out not in reached:
                    reached.add(out)
                    stack.append(out)
        faulty = {i: len(self.index) + i for i in reached}
        err, diff = self.err, self.err + 1
        # Only the calls from the first that writes the smallest other
        # reached net to the last that writes the largest can be in the
        # cone. Every net the flip reaches comes after the flipped net, so
        # the span leaves out the flipped net's own gate.
        others = reached - {net}
        lo = bisect_left(self.call_outputs, min(others, default=0))
        hi = bisect_right(self.call_outputs, max(others, default=-1))
        calls = [(np.bitwise_xor, net, self.ones, faulty[net])]
        calls += [(fn, faulty.get(a, a), faulty.get(b, b), faulty[out])
                  for fn, a, b, out in self.calls[lo:hi] if out in reached]
        outputs = sorted(reached & self.outputs)
        for k, out in enumerate(outputs):
            calls.append((np.bitwise_xor, faulty[out], out, diff if k else err))
            if k:
                calls.append((np.bitwise_or, err, diff, err))
        return calls, outputs


class _Workspace:
    """The row buffer of one campaign at a time on one compiled netlist.

    Sized for blocks of up to `n_words` words of 64 trials (or explicit
    vectors). `buffer`, its only array, holds the 2n + 2 rows of the row
    space (see `_Compiled`); a block of fewer words uses a prefix of it as
    contiguous rows, so its input planes are its first n_inputs * width
    words. Nothing is cleared between blocks or campaigns: a block writes
    every entry it reads, except the bits past its last trial or vector in
    its last word, which its count ignores, so it may use rows it writes
    later as temporaries, as a uniform fill does.
    """

    def __init__(self, compiled: _Compiled, n_words: int):
        self.n_words = n_words
        self.ones = compiled.ones
        self.calls = compiled.calls
        # Little-endian, so that a row's bytes are in word-bit order on any machine.
        self.buffer = np.zeros(self.ones * n_words, dtype="<u8")
        self.width = 0

    def bind(self, n_words: int) -> None:
        """`rows`, the row views of `n_words` words and then the all-ones
        constant, and the golden program on them."""
        if n_words != self.width:
            self.rows = [*self.buffer[: self.ones * n_words].reshape(self.ones, n_words), _ONES]
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


def _count_errors(compiled: _Compiled, node: str, count: int, fill) -> int:
    """Error count of a flip on `node` over `count` trials (or explicit
    vectors), in blocks of up to INJECTION_BLOCK_TRIALS on a pooled
    workspace; `fill(ws, first, size)` writes the block's input planes,
    bit k of word q of plane j holding input j of trial first + 64q + k.

    A flip on a primary output is an error in every trial and one on a
    net with no path to an output never is: those counts come from the
    structure, with no fill. Otherwise each block runs the golden program
    and the flip's cone program, masks the bits past its last trial in
    the error row's last word, and adds the popcount.
    """
    net = compiled.index[node]
    if net in compiled.outputs:
        return count
    calls, outputs = compiled.cone(net)
    if not outputs:
        return 0
    ws = compiled.take_workspace(-(-min(count, INJECTION_BLOCK_TRIALS) // 64))
    errors = 0
    try:
        for first in range(0, count, INJECTION_BLOCK_TRIALS):
            size = min(INJECTION_BLOCK_TRIALS, count - first)
            fill(ws, first, size)
            ws.bind(-(-size // 64))
            for fn, a, b, out in chain(ws.program, _bind(calls, ws.rows)):
                fn(a, b, out)
            err = ws.rows[compiled.err]
            if size % 64:
                err[-1] &= np.uint64((1 << (size % 64)) - 1)
            errors += int(np.bitwise_count(err).sum())
    finally:
        compiled.workspaces.append(ws)
    return errors


def _vector_fill(n_in: int, vectors):
    """The `_count_errors` fill of explicit vectors: `vectors(first, size)`
    gives those of the block as 0/1 rows, one column per input."""

    def fill(ws, first, size):
        # Vector first + v is bit v%8 of byte v//8 of the block's input
        # rows, which the little-endian buffer makes bit v%64 of word v//64.
        rows = ws.buffer[: n_in * -(-size // 64)].view(np.uint8).reshape(n_in, -1)
        rows[:, : -(-size // 8)] = np.packbits(vectors(first, size).T, axis=1, bitorder="little")

    return fill


def enumerates(netlist: Netlist, trials: int) -> bool:
    """Whether a uniform campaign of `trials` trials counts each of the
    netlist's 2^n input vectors once: it is then exact and reads no seed."""
    return 1 << netlist.compiled.n_inputs <= trials


def inject_campaign(netlist: Netlist, node: str, trials: int, seed: int) -> InjectionResult:
    """Single-bit-flip campaign on one net over uniform input vectors.

    Each trial flips the golden value on `node` for one input vector,
    re-propagates only downstream gates, and counts an error when any
    primary output differs. When the netlist's 2^n input vectors are no
    more than `trials`, each is counted once and the result is exact:
    `trials` 2^n, `ci95_half_width` 0.0, no RNG word drawn, `seed` unread.
    Otherwise trial t sets input j to bit t%64 of RNG counter
    (t//64)*n_inputs + j. Trials run 64 to a word in blocks of
    INJECTION_BLOCK_TRIALS, whole words each, so memory is bounded and the
    block size does not change the result. A campaign that the structure
    decides (see `_count_errors`) draws no RNG words.
    """
    _require_node(netlist, node)
    if trials <= 0:
        raise InputError(f"trials must be positive, got {trials!r}")
    n_in, n_nets = netlist.compiled.n_inputs, len(netlist.compiled.index)
    if enumerates(netlist, trials):
        def vectors(first, size):  # vector v sets input j to bit j of v
            index = np.arange(first, first + size, dtype="<u8").view(np.uint8).reshape(size, 8)
            return np.unpackbits(index, axis=1, count=n_in, bitorder="little")

        errors = _count_errors(netlist.compiled, node, 1 << n_in, _vector_fill(n_in, vectors))
        return InjectionResult(1 << n_in, errors, errors / (1 << n_in), 0.0)

    def fill(ws, first, size):
        # Word q of input plane j is RNG counter (first//64 + q)*n_inputs + j,
        # entry (q, j) of the input rows' transpose; their faulty rows are the temporary.
        n_words = -(-size // 64)
        rows = ws.buffer[: ws.ones * n_words].reshape(ws.ones, n_words)
        inputs, faulty = rows[:n_in], rows[n_nets : n_nets + n_in]
        rng.word_block(seed, first // 64 * n_in, inputs.size, out=inputs.T, scratch=faulty.T)

    errors = _count_errors(netlist.compiled, node, trials, fill)
    _, half = wilson_interval(errors, trials, Z_95)
    return InjectionResult(trials, errors, errors / trials, half)


def workload_campaign(netlist: Netlist, node: str, workload: np.typing.ArrayLike) -> InjectionResult:
    """Exact single-bit-flip count on one net over the rows of `workload`.

    `workload` is a binary 2-D array-like with one column per input; each
    row is one input vector, simulated once, 64 to a word. The result
    counts the rows whose flip reaches an output: `trials` is the number
    of rows and `ci95_half_width` is 0.0, since nothing is sampled and no
    RNG word is drawn. The checks and structural decisions are those of
    `inject_campaign`.
    """
    _require_node(netlist, node)
    n_in = netlist.compiled.n_inputs
    try:
        matrix = np.asarray(workload)
    except ValueError:
        raise InputError(f"workload vectors differ in length; each must have width {n_in}") from None
    if matrix.size == 0:
        raise InputError("explicit workload is empty")
    if matrix.ndim != 2 or matrix.shape[1] != n_in:
        raise InputError(f"workload must be a 2-D array with rows of width {n_in}, got shape {matrix.shape}")
    # One uint8 conversion, the workload itself when it is uint8 already.
    # A converted copy that differs from the input held 0.5, -1, 256, NaN
    # or inf, whose cast is no error of its own.
    with np.errstate(invalid="ignore"):
        binary = matrix.astype(np.uint8, copy=False) if matrix.dtype.kind in "biuf" else None
        if binary is None or binary.max() > 1 or not (binary is matrix or np.array_equal(binary, matrix)):
            raise InputError("workload vectors must be binary: every entry 0 or 1")

    fill = _vector_fill(n_in, lambda first, size: binary[first : first + size])
    errors = _count_errors(netlist.compiled, node, len(binary), fill)
    return InjectionResult(len(binary), errors, errors / len(binary), 0.0)


def exhaustive_derating(netlist: Netlist, node: str) -> float:
    """Exact visible-flip fraction over all 2^n input vectors (n <= 24),
    enumerated in blocks of INJECTION_BLOCK_TRIALS vectors."""
    _require_node(netlist, node)
    n_in = len(netlist.inputs)
    if n_in > _EXHAUSTIVE_MAX_INPUTS:
        raise InputError(f"exhaustive enumeration limited to {_EXHAUSTIVE_MAX_INPUTS} inputs, got {n_in}")
    count = 1 << n_in
    errors = 0
    for first in range(0, count, INJECTION_BLOCK_TRIALS):
        index = np.arange(first, min(first + INJECTION_BLOCK_TRIALS, count), dtype=np.uint32)
        values = {name: (index >> j & 1).astype(np.uint8) for j, name in enumerate(netlist.inputs)}
        _forward(netlist, values)
        errors += int(_fault_error_mask(netlist, values, node).sum())
    return errors / count


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
