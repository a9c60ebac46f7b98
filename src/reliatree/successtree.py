"""Coherent success trees over component basic events.

The top event is "system operational". A tree is a basic event, spelled
as its component id (a str), or a K-of-N gate over trees, up when at
least k of its n inputs are up: an AND (series) is n-of-n and an OR
(parallel) is 1-of-n, so one threshold rule conditions and evaluates all
three spellings. Basic events may be shared between branches. Exact
probabilities come from Shannon decomposition with memoization on the
simplified residual tree (a reduced decision-diagram evaluation, so shared
events are handled correctly); an exhaustive enumerator over all event
states is kept as an independent oracle.

Gates are frozen and cache their hash, so a memo lookup costs one hash
read rather than a walk over the residual tree, and the set of events
below them, worked out on first use. One walk per Shannon node builds
both residual trees of the branching event. It enters only the gates
whose set holds the event and puts every other subtree, as the same
object, into both residuals, so residual trees share their untouched
subtrees: a memo hit on the same object ends at the identity check, and
comparing two equal trees skips every child they share. The memo belongs
to one call and holds no reference cycle, so the residual trees and
columns it keeps are freed when the call returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from .errors import InputError, quoted

__all__ = [
    "AndGate",
    "OrGate",
    "KofNGate",
    "Gate",
    "basic_events",
    "evaluate_structure",
    "tree_probability",
    "brute_force_probability",
    "tree_from_dict",
]

_BRUTE_FORCE_MAX_EVENTS = 20


@dataclass(frozen=True)
class KofNGate:
    """Up when at least k of its inputs are up.

    The hash is taken once over the spelling, k and the inputs (the gate
    is frozen, so it cannot go stale), and the set of events below the gate
    once on first use; neither is a field, so neither enters equality or
    repr. Equality also needs the same class, so AND, OR and K-of-N gates
    over the same inputs stay apart.
    """

    k: int
    children: tuple

    kind = "K-of-N"

    def __post_init__(self):
        object.__setattr__(self, "children", _inputs(self.children))
        self._seal()

    def _seal(self):
        if not self.children:
            raise InputError(f"{self.kind} gate needs at least one input")
        if not 1 <= self.k <= len(self.children):
            raise InputError(f"K-of-N requires 1 <= k <= {len(self.children)}, got k={self.k}")
        object.__setattr__(self, "_hash", hash((self.kind, self.k, self.children)))

    def __hash__(self):
        return self._hash

    @cached_property
    def _events(self) -> frozenset:
        # Worked out on first use rather than at construction, where a
        # chain of n gates would build sets of n^2/2 events in all.
        return frozenset().union(*({c} if isinstance(c, str) else c._events for c in self.children))


class AndGate(KofNGate):
    """Series: up when all n inputs are up (k = n)."""

    kind = "AND"

    def __init__(self, children):
        children = _inputs(children)
        super().__init__(len(children), children)


class OrGate(KofNGate):
    """Parallel: up when any input is up (k = 1)."""

    kind = "OR"

    def __init__(self, children):
        super().__init__(1, children)


def _inputs(children) -> tuple:
    if isinstance(children, str):  # one event, not a sequence of one-letter events
        raise InputError(f"gate inputs must be a sequence of trees, got the string {quoted(children)}")
    return tuple(children)


Gate = Union[str, KofNGate]


def basic_events(tree: Gate) -> list:
    """Distinct event ids in depth-first first-appearance order."""
    order: dict = {}  # keeps the order of first insertion
    stack = [tree]  # explicit, so that no depth of tree meets the recursion limit
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            order[node] = None
        else:
            stack += node.children[::-1]
    return list(order)


def evaluate_structure(tree: Gate, values: Mapping):
    """Structure function, elementwise on scalars or numpy arrays: on
    up/down states the system state, on component failure times the system
    failure time (the k-th largest input: the smallest at k = n, the
    largest at k = 1)."""
    # A fold over an explicit stack, so that no depth of tree meets the
    # recursion limit: a gate is pushed once to open it and once to fold the
    # values of its inputs, which are then the last n on `done`.
    done = []
    stack = [(tree, False)]
    while stack:
        node, inputs_done = stack.pop()
        if isinstance(node, str):
            done.append(values[node])
        elif not inputs_done:
            stack.append((node, True))
            stack += ((c, False) for c in reversed(node.children))
        else:
            n, k = len(node.children), node.k
            parts = done[-n:]
            del done[-n:]
            if k == n:
                done.append(np.minimum.reduce(parts))
            elif k == 1:
                done.append(np.maximum.reduce(parts))
            else:
                done.append(np.partition(np.stack(parts), n - k, axis=0)[n - k])
    return done[0]


def _cofactors(gate: KofNGate, event: str):
    """Condition a gate on an event it holds, up and then down, in one
    walk; returns the two residual trees, each a Gate or a bool.

    `_prob` calls it on a residual with that residual's first depth-first
    event, and the walk enters only the inputs whose event set holds the
    event; every other input is kept, as the same object, in both residuals.
    The tree is coherent, so the up side never turns an input False and the
    down side never turns one True: an input certain up counts towards k,
    and the down residual needs all k of what it keeps.
    """
    k_hi = gate.k
    hi, lo = [], []
    for child in gate.children:
        if isinstance(child, str):
            if child == event:
                k_hi -= 1  # certain in the up residual, gone from the down one
                continue
        elif event in child._events:
            sub_hi, sub_lo = _cofactors(child, event)
            if sub_hi is True:
                k_hi -= 1
            else:
                hi.append(sub_hi)
            if sub_lo is not False:
                lo.append(sub_lo)
            continue
        hi.append(child)
        lo.append(child)
    return _residual(k_hi, hi), _residual(gate.k, lo)


def _residual(k: int, kept: list):
    """The K-of-N of the need k over the kept inputs: True when nothing is
    needed, False when more is needed than is kept, and a lone kept input
    stands for the gate."""
    if k <= 0:
        return True
    n = len(kept)
    if k > n:
        return False
    if n == 1:
        return kept[0]
    # The checks and hash of KofNGate(k, kept) without the trip through __init__.
    residual = object.__new__(KofNGate)
    object.__setattr__(residual, "k", k)
    object.__setattr__(residual, "children", tuple(kept))
    residual._seal()
    return residual


def _check_probs(events, probs, columns: bool = False) -> None:
    length = None
    for event in events:
        if event not in probs:
            raise InputError(f"no probability for basic event {quoted(event)}")
        p = probs[event]
        if columns and isinstance(p, np.ndarray):
            if p.ndim != 1 or p.dtype != np.float64:
                raise InputError(f"probabilities for {quoted(event)} must be a number or a 1-D float64 "
                                 f"column, got a {p.dtype} array of shape {p.shape}")
            length = len(p) if length is None else length
            if len(p) != length:
                raise InputError(f"probability column for {quoted(event)} has {len(p)} entries, not {length}")
            bad = ~((p >= 0.0) & (p <= 1.0))  # NaN included
            p = float(p[bad.argmax()]) if bad.any() else 0.0
        elif not isinstance(p, (int, float)) or isinstance(p, bool):
            raise InputError(f"probability for {quoted(event)} must be a number, got {quoted(p)}")
        if not 0.0 <= p <= 1.0:
            raise InputError(f"probability for {quoted(event)} out of [0,1]: {quoted(p)}")


def tree_probability(tree: Gate, probs: Mapping):
    """Exact success probability under independent basic events.

    Shannon decomposition on the first event in depth-first order; the
    memo key is the simplified residual structure, so repeated (shared)
    events are conditioned once per path and never double-counted. Each
    event's probability is a number or a 1-D float64 column, all columns of
    one length; every step is elementwise, so each entry of a column result
    has the bits of the scalar call on that entry's probabilities.
    """
    events = basic_events(tree)
    _check_probs(events, probs, columns=True)
    try:
        return _prob(tree, probs, {})
    except RecursionError:
        raise InputError(
            f"success tree over {len(events)} basic events is too wide or too deep to evaluate (exact "
            "evaluation recurses once per event and per gate level, past Python's recursion limit)"
        ) from None


def _prob(node, probs: Mapping, memo: dict):
    # A module function, not a closure: a closure that calls itself is a
    # reference cycle, which would keep the memo, and every residual tree
    # and column in it, until the collector runs.
    if node is True:
        return 1.0
    if node is False:
        return 0.0
    cached = memo.get(node)
    if cached is not None:
        return cached
    event = node
    while not isinstance(event, str):  # the first event in depth-first order
        event = event.children[0]
    hi, lo = (True, False) if node is event else _cofactors(node, event)
    p = probs[event]
    memo[node] = value = p * _prob(hi, probs, memo) + (1.0 - p) * _prob(lo, probs, memo)
    return value


def brute_force_probability(tree: Gate, probs: Mapping[str, float]) -> float:
    """Oracle: sum the structure function over all 2^n event states."""
    events = basic_events(tree)
    _check_probs(events, probs)
    n = len(events)
    if n > _BRUTE_FORCE_MAX_EVENTS:
        raise InputError(f"brute force limited to {_BRUTE_FORCE_MAX_EVENTS} events, got {n}")
    index = np.arange(1 << n, dtype=np.uint32)
    bits = {e: ((index >> np.uint32(j)) & np.uint32(1)).astype(bool) for j, e in enumerate(events)}
    weight = np.ones(1 << n)
    for e in events:
        p = probs[e]
        weight *= np.where(bits[e], p, 1.0 - p)
    up = evaluate_structure(tree, bits)
    return float(np.sum(weight[up]))


_GATE_NAMES = {"AND": AndGate, "OR": OrGate, "KOFN": KofNGate}


def tree_from_dict(obj, root: str = "") -> Gate:
    """Build a tree from the JSON gate/event object form.

    An error names the bad node by its path, such as `inputs[1].inputs[0]`,
    after `root`, the name of the tree's root node, when one is given. The
    build keeps its own stack, so any depth builds; a gate's fields are
    checked before its inputs and its k after them.
    """
    # Open gates, innermost last: (gate object, inputs built so far). The
    # node at hand is the next input of each, which spells its path.
    stack: list = []
    try:
        node = _open_node(obj, stack)
        while stack:
            gate, built = stack[-1]
            if node is not None:
                built.append(node)
            if len(built) < len(gate["inputs"]):
                node = _open_node(gate["inputs"][len(built)], stack)
            else:
                stack.pop()
                node = _close_gate(gate, tuple(built))
    except InputError as exc:
        path = [root] if root else []
        path += [f"inputs[{len(done)}]" for _, done in stack]
        raise InputError(f"{'.'.join(path) or 'tree root'}: {exc}") from None
    return node


def _open_node(obj, stack: list):
    """Check one node's own fields. Return a basic event, or push a gate
    onto the stack for its inputs to be built and return None."""
    if not isinstance(obj, dict):
        raise InputError(f"tree node must be an object, got {type(obj).__name__}")
    if "event" in obj:
        extra = set(obj) - {"event"}
        if extra:
            raise InputError(f"unknown fields on basic event: {quoted(sorted(extra))}")
        if not isinstance(obj["event"], str) or not obj["event"]:
            raise InputError("basic event needs a nonempty component id")
        return obj["event"]
    if "gate" not in obj:
        raise InputError("tree node needs either 'event' or 'gate'")
    kind = obj["gate"]
    if not isinstance(kind, str) or kind not in _GATE_NAMES:
        raise InputError(f"unknown gate kind {quoted(kind)}")
    allowed = {"gate", "inputs", "k"} if kind == "KOFN" else {"gate", "inputs"}
    extra = set(obj) - allowed
    if extra:
        raise InputError(f"unknown fields on {kind} gate: {quoted(sorted(extra))}")
    inputs = obj.get("inputs")
    if not isinstance(inputs, list) or not inputs:
        raise InputError(f"{kind} gate needs a nonempty 'inputs' list")
    stack.append((obj, []))
    return None


def _close_gate(obj, children: tuple) -> Gate:
    """The gate of a checked gate object over its built inputs."""
    kind = obj["gate"]
    if kind != "KOFN":
        return _GATE_NAMES[kind](children)
    k = obj.get("k")
    if not isinstance(k, int) or isinstance(k, bool):
        raise InputError("KOFN gate needs an integer 'k'")
    return KofNGate(k, children)
