"""Coherent success trees over component basic events.

The top event is "system operational"; gates are AND, OR, and K-of-N, and
basic events may be shared between branches. Exact probabilities come from
Shannon decomposition with memoization on the simplified residual tree
(a reduced decision-diagram evaluation, so shared events are handled
correctly); an exhaustive enumerator over all event states is kept as an
independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import InputError

__all__ = [
    "BasicEvent",
    "AndGate",
    "OrGate",
    "KofNGate",
    "Gate",
    "basic_events",
    "evaluate_structure",
    "tree_probability",
    "brute_force_probability",
    "tree_from_dict",
    "tree_to_dict",
    "MAX_TREE_DEPTH",
]

_BRUTE_FORCE_MAX_EVENTS = 20

# Deepest gate nesting a tree document may have. Decoding, building and
# evaluating a tree recurse once or twice per level, so this keeps every
# accepted tree well inside Python's default recursion limit.
MAX_TREE_DEPTH = 256
TREE_TOO_DEEP = f"success tree is nested too deeply (the limit is {MAX_TREE_DEPTH} gate levels)"


@dataclass(frozen=True)
class BasicEvent:
    component_id: str


@dataclass(frozen=True)
class AndGate:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("AND gate needs at least one input")


@dataclass(frozen=True)
class OrGate:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("OR gate needs at least one input")


@dataclass(frozen=True)
class KofNGate:
    k: int
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("K-of-N gate needs at least one input")
        if not 1 <= self.k <= len(self.children):
            raise ValueError(
                f"K-of-N requires 1 <= k <= {len(self.children)}, got k={self.k}"
            )


Gate = Union[BasicEvent, AndGate, OrGate, KofNGate]


def basic_events(tree: Gate) -> list:
    """Distinct event ids in depth-first first-appearance order."""
    order: list = []
    seen = set()

    def walk(node):
        if isinstance(node, BasicEvent):
            if node.component_id not in seen:
                seen.add(node.component_id)
                order.append(node.component_id)
        else:
            for child in node.children:
                walk(child)

    walk(tree)
    return order


def evaluate_structure(tree: Gate, values: Mapping):
    """Structure function, elementwise on scalars or numpy arrays: on
    up/down states the system state, on component failure times the system
    failure time (AND: min, OR: max, K-of-N: k-th largest)."""
    if isinstance(tree, BasicEvent):
        return values[tree.component_id]
    parts = [evaluate_structure(c, values) for c in tree.children]
    if isinstance(tree, AndGate):
        return np.minimum.reduce(parts)
    if isinstance(tree, OrGate):
        return np.maximum.reduce(parts)
    return np.partition(np.stack(parts), len(parts) - tree.k, axis=0)[len(parts) - tree.k]


def _restrict(tree: Gate, event: str, value: bool):
    """Condition on one event and simplify; returns a Gate or a bool."""
    if isinstance(tree, BasicEvent):
        return value if tree.component_id == event else tree
    kept = []
    n_true = 0
    for child in tree.children:
        sub = _restrict(child, event, value)
        if sub is True:
            n_true += 1
        elif sub is not False:
            kept.append(sub)
    if isinstance(tree, AndGate):
        if n_true + len(kept) < len(tree.children):
            return False
        if not kept:
            return True
        return kept[0] if len(kept) == 1 else AndGate(tuple(kept))
    if isinstance(tree, OrGate):
        if n_true:
            return True
        if not kept:
            return False
        return kept[0] if len(kept) == 1 else OrGate(tuple(kept))
    k = tree.k - n_true
    if k <= 0:
        return True
    if k > len(kept):
        return False
    if k == len(kept):
        return kept[0] if len(kept) == 1 else AndGate(tuple(kept))
    if k == 1:
        return OrGate(tuple(kept))
    return KofNGate(k, tuple(kept))


def _first_event(tree: Gate) -> str:
    node = tree
    while not isinstance(node, BasicEvent):
        node = node.children[0]
    return node.component_id


def _check_probs(events, probs) -> None:
    for event in events:
        if event not in probs:
            raise InputError(f"no probability for basic event {event!r}")
        p = probs[event]
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise InputError(f"probability for {event!r} must be a number, got {p!r}")
        if not 0.0 <= p <= 1.0:
            raise InputError(f"probability for {event!r} out of [0,1]: {p!r}")


def tree_probability(tree: Gate, probs: Mapping[str, float]) -> float:
    """Exact success probability under independent basic events.

    Shannon decomposition on the first event in depth-first order; the
    memo key is the simplified residual structure, so repeated (shared)
    events are conditioned once per path and never double-counted.
    """
    _check_probs(basic_events(tree), probs)
    return _shannon(tree, probs)


def _shannon(tree: Gate, probs: Mapping):
    """tree_probability without the checks. The probabilities may also be
    numpy arrays of one shape: every step is elementwise, so each element
    equals the scalar result on that element's probabilities."""
    memo: dict = {}

    def prob(node) -> float:
        if node is True:
            return 1.0
        if node is False:
            return 0.0
        cached = memo.get(node)
        if cached is not None:
            return cached
        event = _first_event(node)
        p = probs[event]
        value = p * prob(_restrict(node, event, True)) + (1.0 - p) * prob(
            _restrict(node, event, False)
        )
        memo[node] = value
        return value

    try:
        return prob(tree)
    except RecursionError:
        raise InputError(
            f"success tree over {len(basic_events(tree))} basic events is too wide to "
            "evaluate (exact evaluation recurses once per event, past Python's recursion limit)"
        ) from None


def brute_force_probability(tree: Gate, probs: Mapping[str, float]) -> float:
    """Oracle: sum the structure function over all 2^n event states."""
    events = basic_events(tree)
    _check_probs(events, probs)
    n = len(events)
    if n > _BRUTE_FORCE_MAX_EVENTS:
        raise ValueError(f"brute force limited to {_BRUTE_FORCE_MAX_EVENTS} events, got {n}")
    index = np.arange(1 << n, dtype=np.uint32)
    bits = {e: ((index >> np.uint32(j)) & np.uint32(1)).astype(bool) for j, e in enumerate(events)}
    weight = np.ones(1 << n)
    for e in events:
        p = probs[e]
        weight *= np.where(bits[e], p, 1.0 - p)
    up = evaluate_structure(tree, bits)
    return float(np.sum(weight[up]))


_GATE_NAMES = {"AND": AndGate, "OR": OrGate, "KOFN": KofNGate}


def tree_from_dict(obj) -> Gate:
    """Build a tree from the JSON gate/event object form.

    Gates may nest at most MAX_TREE_DEPTH levels deep.
    """
    return _node_from_dict(obj, 0)


def _node_from_dict(obj, gates_above: int) -> Gate:
    if not isinstance(obj, dict):
        raise InputError(f"tree node must be an object, got {type(obj).__name__}")
    if "event" in obj:
        extra = set(obj) - {"event"}
        if extra:
            raise InputError(f"unknown fields on basic event: {sorted(extra)}")
        if not isinstance(obj["event"], str) or not obj["event"]:
            raise InputError("basic event needs a nonempty component id")
        return BasicEvent(obj["event"])
    if "gate" not in obj:
        raise InputError("tree node needs either 'event' or 'gate'")
    kind = obj["gate"]
    allowed = {"gate", "inputs", "k"} if kind == "KOFN" else {"gate", "inputs"}
    extra = set(obj) - allowed
    if extra:
        raise InputError(f"unknown fields on {kind} gate: {sorted(extra)}")
    if not isinstance(kind, str) or kind not in _GATE_NAMES:
        raise InputError(f"unknown gate kind {kind!r}")
    if gates_above == MAX_TREE_DEPTH:
        raise InputError(TREE_TOO_DEEP)
    inputs = obj.get("inputs")
    if not isinstance(inputs, list) or not inputs:
        raise InputError(f"{kind} gate needs a nonempty 'inputs' list")
    children = tuple(_node_from_dict(c, gates_above + 1) for c in inputs)
    try:
        if kind == "KOFN":
            k = obj.get("k")
            if not isinstance(k, int) or isinstance(k, bool):
                raise InputError("KOFN gate needs an integer 'k'")
            return KofNGate(k, children)
        return _GATE_NAMES[kind](children)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def tree_to_dict(tree: Gate):
    if isinstance(tree, BasicEvent):
        return {"event": tree.component_id}
    if isinstance(tree, KofNGate):
        return {"gate": "KOFN", "k": tree.k, "inputs": [tree_to_dict(c) for c in tree.children]}
    name = "AND" if isinstance(tree, AndGate) else "OR"
    return {"gate": name, "inputs": [tree_to_dict(c) for c in tree.children]}
