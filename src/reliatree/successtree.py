"""Coherent success trees over component basic events.

The top event is "system operational". A tree is a basic event, spelled
as its component id (a str), or a K-of-N gate over trees, up when at
least k of its n inputs are up: an AND (series) is n-of-n and an OR
(parallel) is 1-of-n, so one threshold rule restricts and evaluates all
three spellings. Basic events may be shared between branches. Exact
probabilities come from Shannon decomposition with memoization on the
simplified residual tree (a reduced decision-diagram evaluation, so shared
events are handled correctly); an exhaustive enumerator over all event
states is kept as an independent oracle.

Gates are frozen and cache their hash, so a memo lookup costs one hash
read rather than a walk over the residual tree. Restricting an event
returns every gate that does not change as the same object and builds
every gate that does as a K-of-N, so residual trees share their
untouched subtrees: a memo hit on the same object ends at the identity
check, and comparing two equal trees skips every child they share.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    is frozen, so it cannot go stale); equality also needs the same class,
    so AND, OR and K-of-N gates over the same inputs stay apart.
    """

    k: int
    children: tuple

    kind = "K-of-N"

    def __post_init__(self):
        object.__setattr__(self, "children", _inputs(self.children))
        if not self.children:
            raise InputError(f"{self.kind} gate needs at least one input")
        if not 1 <= self.k <= len(self.children):
            raise InputError(f"K-of-N requires 1 <= k <= {len(self.children)}, got k={self.k}")
        object.__setattr__(self, "_hash", hash((self.kind, self.k, self.children)))

    def __hash__(self):
        return self._hash


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

    def walk(node):
        if isinstance(node, str):
            order[node] = None
        else:
            for child in node.children:
                walk(child)

    walk(tree)
    return list(order)


def evaluate_structure(tree: Gate, values: Mapping):
    """Structure function, elementwise on scalars or numpy arrays: on
    up/down states the system state, on component failure times the system
    failure time (the k-th largest input: the smallest at k = n, the
    largest at k = 1)."""
    if isinstance(tree, str):
        return values[tree]
    parts = [evaluate_structure(c, values) for c in tree.children]
    n, k = len(parts), tree.k
    if k == n:
        return np.minimum.reduce(parts)
    if k == 1:
        return np.maximum.reduce(parts)
    return np.partition(np.stack(parts), n - k, axis=0)[n - k]


def _restrict(tree: Gate, event: str, value: bool):
    """Condition on one event and simplify; returns a Gate or a bool.

    With n_true inputs now certain, the gate needs k - n_true of the kept
    ones: none makes it True, more than are kept makes it False, and a
    lone kept input stands for the gate. Otherwise a gate none of whose
    inputs changed is returned itself, so untouched subtrees are shared
    between residual trees rather than rebuilt, and a changed one is the
    K-of-N of that need over the kept inputs, whatever its spelling was.
    """
    if isinstance(tree, str):
        return value if tree == event else tree
    kept = []
    n_true = 0
    changed = False
    for child in tree.children:
        sub = _restrict(child, event, value)
        if sub is not child:
            changed = True
        if sub is True:
            n_true += 1
        elif sub is not False:
            kept.append(sub)
    k = tree.k - n_true
    if k <= 0:
        return True
    n = len(kept)
    if k > n:
        return False
    if n == 1:
        return kept[0]
    return KofNGate(k, kept) if changed else tree


def _first_event(tree: Gate) -> str:
    while not isinstance(tree, str):
        tree = tree.children[0]
    return tree


def _check_probs(events, probs) -> None:
    for event in events:
        if event not in probs:
            raise InputError(f"no probability for basic event {quoted(event)}")
        p = probs[event]
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise InputError(f"probability for {quoted(event)} must be a number, got {quoted(p)}")
        if not 0.0 <= p <= 1.0:
            raise InputError(f"probability for {quoted(event)} out of [0,1]: {quoted(p)}")


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
