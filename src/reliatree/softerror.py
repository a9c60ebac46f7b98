"""Transient-fault leaf analysis for combinational netlists.

A netlist is parsed in topological order, simulated golden and with a
single bit flipped on one net, and the fraction of input vectors whose
flip reaches a primary output is the derating factor of that net.
Campaigns are Monte Carlo with a counter-based RNG: trial i of a campaign
reads counters [i*L, (i+1)*L), L = ceil(inputs/64), so results are
bit-reproducible for a given seed and independent of batching.

Each netlist is compiled once into integer-indexed ops with fan-out
lists, and each net's fan-out cone is found once. A campaign is
parallel-pattern single-fault propagation: 64 trials per uint64 word,
a golden pass over all ops, a faulty pass over the cone only, and a
popcount of the output differences, streamed in blocks of
INJECTION_BLOCK_TRIALS trials so memory does not grow with the trial
count. The block buffers are pooled on the compiled netlist and reused
by every later campaign on it. A per-vector simulator over all input vectors is the exact
oracle for small circuits. Raw per-net FIT rates weighted by derating
give the transient failure rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import rng
from .errors import InputError, NetlistParseError

__all__ = [
    "Gate",
    "Netlist",
    "SerParams",
    "InjectionResult",
    "parse_netlist",
    "evaluate",
    "inject_campaign",
    "exhaustive_derating",
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

# Bit-plane form of each gate kind: (binary ufunc or None for one
# input, invert the result).
_PLANE_OPS = {
    "AND": (np.bitwise_and, False),
    "OR": (np.bitwise_or, False),
    "XOR": (np.bitwise_xor, False),
    "NAND": (np.bitwise_and, True),
    "NOR": (np.bitwise_or, True),
    "BUF": (None, False),
    "NOT": (None, True),
}

# Masks of the three rounds of an 8x8 bit-matrix transpose on uint64
# words whose byte r is row r (Hacker's Delight, section 7-3).
_TRANSPOSE8 = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


@dataclass(frozen=True)
class Gate:
    output: str
    kind: str
    inputs: tuple


class _Compiled:
    """Integer form of a netlist for bit-parallel simulation.

    Net i is the i-th name of `Netlist.nets()`, so gate k drives net
    len(inputs) + k. A net's cone is computed on first use and kept, and
    so are the block workspaces of the campaigns run on the netlist.
    """

    def __init__(self, netlist: "Netlist"):
        nets = netlist.nets()
        self.n_inputs = len(netlist.inputs)
        self.index = {net: i for i, net in enumerate(nets)}
        self.ops = tuple(
            (g.kind, self.index[g.output], tuple(self.index[n] for n in g.inputs))
            for g in netlist.gates
        )
        self.outputs = frozenset(self.index[n] for n in netlist.outputs)
        fanout = [[] for _ in nets]
        for _, out, ins in self.ops:
            for i in set(ins):
                fanout[i].append(out)
        self.fanout = tuple(tuple(f) for f in fanout)
        self._cones: dict = {}
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
        """(ops the net reaches in topological order, outputs it reaches)."""
        cone = self._cones.get(net)
        if cone is None:
            reached = {net}
            stack = [net]
            while stack:
                for out in self.fanout[stack.pop()]:
                    if out not in reached:
                        reached.add(out)
                        stack.append(out)
            ops = tuple(self.ops[r - self.n_inputs] for r in sorted(reached - {net}))
            cone = (ops, tuple(sorted(reached & self.outputs)))
            self._cones[net] = cone
        return cone


class _Workspace:
    """Block buffers of one campaign at a time on one compiled netlist.

    Sized for blocks of up to `n_words` words of 64 trials; a block of
    fewer words uses a prefix of each flat buffer, reshaped to contiguous
    rows. Nothing is cleared between blocks or campaigns: a block writes
    every entry it reads, except the bits of trials past its end in its
    last word, which `_count_errors` masks off.
    """

    def __init__(self, compiled: _Compiled, n_words: int):
        self.n_words = n_words
        self.n_nets = len(compiled.index)
        self.lanes = -(-compiled.n_inputs // 64)
        self.groups = -(-compiled.n_inputs // 8)
        # Little-endian words, since _trial_planes reads their bytes.
        le64 = np.dtype("<u8")
        # RNG words of the block's trials, (trials, lanes) row-major; the
        # scratch takes word_block's shifts and _trial_planes's rounds.
        self.words = np.zeros(n_words * 64 * self.lanes, dtype=le64)
        self.scratch = np.zeros(n_words * 64 * self.lanes, dtype=le64)
        self.blocks = np.zeros(self.groups * 8 * n_words, dtype=le64)
        # One row per net; the input planes are written 8 rows at a time.
        self.planes = np.zeros(max(self.n_nets, self.groups * 8) * n_words, dtype=le64)
        self.faulty = np.zeros(self.n_nets * n_words, dtype=le64)
        self.err = np.zeros(n_words, dtype=np.uint64)
        self.diff = np.zeros(n_words, dtype=np.uint64)
        self._rows_words = 0
        self._rows: tuple = ()

    def rows(self, n_words: int) -> tuple:
        """(golden rows, faulty rows): one view of `n_words` words per net."""
        if n_words != self._rows_words:
            size = self.n_nets * n_words
            self._rows = (
                list(self.planes[:size].reshape(self.n_nets, n_words)),
                list(self.faulty[:size].reshape(self.n_nets, n_words)),
            )
            self._rows_words = n_words
        return self._rows


@dataclass(frozen=True)
class Netlist:
    inputs: tuple
    gates: tuple
    outputs: tuple
    # Integer ops, fan-out lists, cones and block workspaces, made in
    # __post_init__.
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
            raise ValueError(f"default FIT must be finite and >= 0, got {self.default_fit!r}")
        for net, fit in self.fit_per_node.items():
            if fit < 0 or not math.isfinite(fit):
                raise ValueError(f"FIT for {net!r} must be >= 0, got {fit!r}")

    def fit_for(self, net: str) -> float:
        return self.fit_per_node.get(net, self.default_fit)


@dataclass(frozen=True)
class InjectionResult:
    node: str
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
    inputs: list = []
    gates: list = []
    output_refs: list = []
    defined_at: dict = {}
    pending: dict = {}  # name -> lines that define it later

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens = line.split()
            name = tokens[1] if len(tokens) >= 2 else None
            if tokens[0] in ("INPUT", "GATE") and name is not None:
                pending.setdefault(name, []).append(lineno)

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "INPUT":
            if len(tokens) != 2:
                raise NetlistParseError(f"line {lineno}: INPUT takes one net name")
            name = tokens[1]
            if name in defined_at:
                raise NetlistParseError(
                    f"line {lineno}: net {name!r} already defined on line {defined_at[name]}"
                )
            defined_at[name] = lineno
            inputs.append(name)
        elif keyword == "GATE":
            if len(tokens) < 4:
                raise NetlistParseError(f"line {lineno}: GATE needs output, kind, inputs")
            out, kind = tokens[1], tokens[2]
            ins = tuple(tokens[3:])
            if kind not in GATE_KINDS:
                raise NetlistParseError(f"line {lineno}: unknown gate kind {kind!r}")
            if kind in _UNARY and len(ins) != 1:
                raise NetlistParseError(f"line {lineno}: {kind} takes exactly one input")
            if kind not in _UNARY and len(ins) < 2:
                raise NetlistParseError(f"line {lineno}: {kind} needs at least two inputs")
            if out in defined_at:
                raise NetlistParseError(
                    f"line {lineno}: net {out!r} already defined on line {defined_at[out]}"
                )
            for src in ins:
                if src not in defined_at:
                    later = [l for l in pending.get(src, []) if l > lineno]
                    if later:
                        raise NetlistParseError(
                            f"line {lineno}: net {src!r} used before its definition "
                            f"on line {later[0]} (netlist must be in topological order)"
                        )
                    raise NetlistParseError(f"line {lineno}: undeclared net {src!r}")
            defined_at[out] = lineno
            gates.append(Gate(out, kind, ins))
        elif keyword == "OUTPUT":
            if len(tokens) != 2:
                raise NetlistParseError(f"line {lineno}: OUTPUT takes one net name")
            output_refs.append((tokens[1], lineno))
        else:
            raise NetlistParseError(f"line {lineno}: unknown directive {keyword!r}")

    outputs = []
    for name, lineno in output_refs:
        if name not in defined_at:
            raise NetlistParseError(f"line {lineno}: OUTPUT names undeclared net {name!r}")
        outputs.append(name)
    if not inputs:
        raise NetlistParseError("netlist declares no primary inputs")
    if not outputs:
        raise NetlistParseError("netlist declares no primary outputs")
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
            raise ValueError(f"input {name!r} must be 0 or 1, got {assignment[name]!r}")
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
        raise ValueError(f"unknown injection node {node!r}")


def _trial_planes(ws: "_Workspace", size: int) -> None:
    """Input words per trial -> bit planes of trials per input.

    `ws.words` holds the words of trials 0..size-1 as (trials, lanes)
    with input j at bit j%64 of lane j//64. Row j of `ws.planes` becomes
    the plane of input j: trial t at bit t%64 of word t//64. Bits past
    the last trial are whatever the words buffer held there. Each 8x8
    block of (trials, inputs) bits is transposed inside one uint64.
    """
    n_words = -(-size // 64)
    groups = ws.groups
    # Byte g of row t holds inputs 8g..8g+7 of trial t. Gather the bytes
    # of trials 8q..8q+7 of one group into word q of that group's row.
    rows = ws.words[: n_words * 64 * ws.lanes].view(np.uint8).reshape(n_words * 64, ws.lanes * 8)
    x = ws.blocks[: groups * n_words * 8].reshape(groups, n_words * 8)
    np.copyto(
        x.view(np.uint8).reshape(groups, n_words * 8, 8),
        rows[:, :groups].reshape(n_words * 8, 8, groups).transpose(2, 0, 1),
    )
    t = ws.scratch[: x.size].reshape(x.shape)
    for shift, mask in _TRANSPOSE8:
        # x ^= t ^ (t << shift) with t = (x ^ (x >> shift)) & mask
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    # Now byte c of word q in group g holds trials 8q..8q+7 of input 8g+c.
    # Rows n_inputs..8*groups-1 receive unused bits; the golden pass
    # overwrites those that are nets.
    planes = ws.planes[: groups * 8 * n_words].view(np.uint8).reshape(groups, 8, n_words * 8)
    np.copyto(planes, x.view(np.uint8).reshape(groups, n_words * 8, 8).transpose(0, 2, 1))


def _run_ops(ops, rows) -> None:
    for kind, out, ins in ops:
        fn, invert = _PLANE_OPS[kind]
        dst = rows[out]
        if fn is None:
            np.copyto(dst, rows[ins[0]])
        else:
            fn(rows[ins[0]], rows[ins[1]], out=dst)
            for i in ins[2:]:
                fn(dst, rows[i], out=dst)
        if invert:
            np.invert(dst, out=dst)


def _count_errors(compiled: _Compiled, node: int, ws: "_Workspace", size: int) -> int:
    """Trials among the first `size` whose flip on `node` reaches an output.

    The workspace rows hold the input planes; the golden pass fills in
    the rest.
    """
    n_words = -(-size // 64)
    golden, faulty_rows = ws.rows(n_words)
    _run_ops(compiled.ops, golden)
    cone_ops, cone_outputs = compiled.cone(node)
    faulty = list(golden)
    faulty[node] = faulty_rows[node]
    for _, out, _ in cone_ops:
        faulty[out] = faulty_rows[out]
    np.invert(golden[node], out=faulty[node])
    _run_ops(cone_ops, faulty)
    err = ws.err[:n_words]
    diff = ws.diff[:n_words]
    err.fill(0)
    for out in cone_outputs:
        np.bitwise_xor(faulty[out], golden[out], out=diff)
        err |= diff
    if size % 64:
        err[-1] &= np.uint64((1 << (size % 64)) - 1)
    return int(np.bitwise_count(err).sum())


def inject_campaign(
    netlist: Netlist,
    node: str,
    trials: int,
    seed: int,
    workload: Optional[Sequence[Sequence[int]]] = None,
) -> InjectionResult:
    """Monte Carlo single-bit-flip campaign on one net.

    Each trial draws an input vector (uniform over all vectors, or
    uniformly from the explicit workload), flips the golden value on
    `node`, re-propagates only downstream gates, and counts an error when
    any primary output differs. Trial i depends only on (seed, i): it
    reads RNG counters [i*L, (i+1)*L), L = ceil(inputs/64), or counter i
    to pick a workload vector. Trials run 64 to a word in blocks of
    INJECTION_BLOCK_TRIALS, so memory is bounded and the block size does
    not change the result.
    """
    _require_node(netlist, node)
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials!r}")
    compiled = netlist.compiled
    n_in = len(netlist.inputs)
    lanes = (n_in + 63) // 64
    if workload is not None:
        vectors = list(workload)
        if not vectors:
            raise ValueError("explicit workload is empty")
        matrix = np.asarray(vectors, dtype=np.uint8)
        if matrix.ndim != 2 or matrix.shape[1] != n_in:
            raise ValueError(f"workload vectors must have width {n_in}")
        if matrix.max(initial=0) > 1:
            raise ValueError("workload vectors must be binary")
        packed = np.zeros((len(vectors), lanes * 8), dtype=np.uint8)
        packed[:, : (n_in + 7) // 8] = np.packbits(matrix, axis=1, bitorder="little")
        vector_words = packed.view("<u8")
    node_index = compiled.index[node]
    errors = 0
    ws = compiled.take_workspace(-(-min(trials, INJECTION_BLOCK_TRIALS) // 64))
    try:
        for first in range(0, trials, INJECTION_BLOCK_TRIALS):
            size = min(INJECTION_BLOCK_TRIALS, trials - first)
            if workload is None:
                rng.word_block(seed, first * lanes, size * lanes, out=ws.words, scratch=ws.scratch)
            else:
                u = rng.unit_halfopen_floats(seed, first, size)
                # u < 1, so every index is below len(vectors) and "clip"
                # never clips; unlike "raise", it writes `out` unbuffered.
                picks = (u * len(vectors)).astype(np.int64)
                trial_words = ws.words[: size * lanes].reshape(size, lanes)
                np.take(vector_words, picks, axis=0, out=trial_words, mode="clip")
            _trial_planes(ws, size)
            errors += _count_errors(compiled, node_index, ws, size)
    finally:
        compiled.workspaces.append(ws)
    derating = errors / trials
    _, half = wilson_interval(errors, trials, Z_95)
    return InjectionResult(node, trials, errors, derating, half)


def exhaustive_derating(netlist: Netlist, node: str) -> float:
    """Exact visible-flip fraction over all 2^n input vectors (n <= 24)."""
    _require_node(netlist, node)
    n_in = len(netlist.inputs)
    if n_in > _EXHAUSTIVE_MAX_INPUTS:
        raise ValueError(f"exhaustive enumeration limited to {_EXHAUSTIVE_MAX_INPUTS} inputs, got {n_in}")
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


def transient_failure_rate(
    netlist: Netlist, ser: SerParams, deratings: Mapping[str, float]
) -> float:
    """Per-hour transient rate: sum of FIT * derating * 1e-9 over nets."""
    for net in ser.fit_per_node:
        if net not in netlist.compiled.index:
            raise ValueError(f"FIT map names unknown net {net!r}")
    total_fit = 0.0
    for net in netlist.nets():
        fit = ser.fit_for(net)
        if fit == 0.0:
            continue
        if net not in deratings:
            raise ValueError(f"no derating for net {net!r} with nonzero FIT")
        d = deratings[net]
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"derating for {net!r} out of [0,1]: {d!r}")
        total_fit += fit * d
    return total_fit * PER_HOUR_PER_FIT


def read_workload(fp, n_inputs: int) -> list:
    """Workload file: one binary vector per line, width = number of inputs."""
    vectors = []
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if len(line) != n_inputs or any(c not in "01" for c in line):
            raise InputError(
                f"workload line {lineno}: expected {n_inputs} binary digits, got {line!r}"
            )
        vectors.append(tuple(int(c) for c in line))
    if not vectors:
        raise InputError("workload file contains no vectors")
    return vectors
