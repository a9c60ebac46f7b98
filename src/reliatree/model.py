"""System description: the analysis hierarchy, its adapters, and one
success tree at the root.

The document is JSON: a recursive hierarchy of System / Subsystem /
Component nodes, an `adapters` entry per component id, and a success tree
whose basic events name leaf components. Loading validates structure and
file references, and checks that every component's `adapters` entry
declares the one chain the pipeline runs (CANONICAL_CHAINS).
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aging import AgingParams
from .errors import InputError, located, quoted, read_json, read_text
from .softerror import SerParams
from .successtree import Gate, basic_events, tree_from_dict
from .thermal import ThermalParams

__all__ = [
    "ComponentPayload",
    "HierarchyNode",
    "SystemModel",
    "load_system",
    "load_system_file",
    "CANONICAL_CHAINS",
    "DEFAULT_WEIBULL_BETA",
]

# Weibull shape of the wear-out survival when `aging` omits weibull_beta.
DEFAULT_WEIBULL_BETA = 2.0

# The adapter chains of every component, as its `adapters` entry: power
# to temperature to a wear-out rate to a Weibull survival (permanent
# faults), FIT to an exponential survival (transient faults), and the
# product of the two (competing risks; the entry may omit it). The
# pipeline runs exactly these steps; the entry only documents them.
CANONICAL_CHAINS = {
    "permanent": ["PowerToTemperature", "TemperatureToFailureRate", "FailureRateToReliability"],
    "transient": ["FitToReliability"],
    "combine": ["CompetingRisksCombine"],
}

_KINDS = ("System", "Subsystem", "Component")
# The largest grid np.linspace can be asked for.
_MAX_GRID_POINTS = int(np.iinfo(np.intp).max)
_WS = re.compile(r"\s")


@dataclass(frozen=True)
class ComponentPayload:
    thermal: ThermalParams
    aging: AgingParams
    power_trace: str  # resolved path
    netlist: str  # resolved path
    ser: SerParams


@dataclass(frozen=True)
class HierarchyNode:
    id: str
    kind: str
    children: tuple = ()
    payload: Optional[ComponentPayload] = None


@dataclass(frozen=True)
class SystemModel:
    name: str
    time_horizon_hours: float
    grid_points: int
    root: HierarchyNode
    success_tree: Gate

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.time_horizon_hours, self.grid_points)

    def nodes(self) -> list:
        out = []

        def walk(node):
            out.append(node)
            for child in node.children:
                walk(child)

        walk(self.root)
        return out

    def components(self) -> dict:
        return {n.id: n for n in self.nodes() if n.kind == "Component"}


def _ident(value, what: str) -> str:
    if not isinstance(value, str) or not value or _WS.search(value):
        raise InputError(f"{what} must be a nonempty token without whitespace, got {quoted(value)}")
    return value


def _require_fields(obj: dict, required, optional, what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise InputError(f"{what}: unknown fields {quoted(sorted(unknown))}")
    missing = [f for f in required if f not in obj]
    if missing:
        raise InputError(f"{what}: missing fields {missing}")


def _float(v, what: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise InputError(f"{what} must be a number, got {quoted(v)}")
    try:
        return float(v)
    except OverflowError:
        raise InputError(f"{what} is an integer too large for a float") from None


def _number(obj: dict, key: str, what: str) -> float:
    return _float(obj.get(key), f"{what}: field {key!r}")


def _resolve_file(raw, base_dir: str, node_id: str, fieldname: str) -> str:
    if not isinstance(raw, str) or not raw:
        raise InputError(f"node {quoted(node_id)}: field {fieldname!r} must be a file path")
    path = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
    if not os.path.isfile(path):
        raise InputError(f"node {quoted(node_id)}: field {fieldname!r} references missing file {quoted(raw)}")
    return path


def _parse_thermal(obj, node_id: str) -> ThermalParams:
    what = f"node {quoted(node_id)}: field 'thermal'"
    _require_fields(obj, ("r_th", "c_th", "t_ambient"), (), what)
    numbers = [_number(obj, key, what) for key in ("r_th", "c_th", "t_ambient")]
    with located(what):
        return ThermalParams(*numbers)


def _parse_aging(obj, node_id: str) -> AgingParams:
    what = f"node {quoted(node_id)}: field 'aging'"
    _require_fields(obj, ("a_const", "j_density", "n_exp", "ea_ev"), ("weibull_beta",), what)
    numbers = [_number(obj, key, what) for key in ("a_const", "j_density", "n_exp", "ea_ev")]
    beta = _number(obj, "weibull_beta", what) if "weibull_beta" in obj else DEFAULT_WEIBULL_BETA
    with located(what):
        return AgingParams(*numbers, beta)


def _parse_ser(obj, node_id: str) -> SerParams:
    what = f"node {quoted(node_id)}: field 'ser'"
    _require_fields(obj, ("default_fit",), ("fit_per_node",), what)
    fit_map = obj.get("fit_per_node", {})
    if not isinstance(fit_map, dict):
        raise InputError(f"{what}: 'fit_per_node' must be an object")
    fits = {net: _float(fit, f"{what}: FIT for {quoted(net)}") for net, fit in fit_map.items()}
    default_fit = _number(obj, "default_fit", what)
    with located(what):
        return SerParams(fits, default_fit)


def _parse_node(obj, level: int, base_dir: str, nodes: dict) -> HierarchyNode:
    """Parse one node and its subtree, adding every node to `nodes` by id."""
    _require_fields(
        obj,
        ("id", "kind"),
        ("children", "thermal", "aging", "power_trace", "netlist", "ser"),
        "hierarchy node",
    )
    node_id = _ident(obj["id"], "node id")
    if node_id in nodes:
        raise InputError(f"duplicate node id {quoted(node_id)}")
    nodes[node_id] = None  # claimed before the children are parsed
    kind = obj["kind"]
    if kind not in _KINDS:
        raise InputError(f"node {quoted(node_id)}: unknown kind {quoted(kind)}")
    if level == 1 and kind != "System":
        raise InputError(f"root node {quoted(node_id)} must have kind 'System', got {quoted(kind)}")
    if level > 1 and kind == "System":
        raise InputError(f"node {quoted(node_id)}: 'System' is only allowed at the root")

    if kind == "Component":
        for banned in ("children",):
            if banned in obj:
                raise InputError(f"component {quoted(node_id)} must be a leaf (no {banned!r})")
        for needed in ("thermal", "aging", "power_trace", "netlist", "ser"):
            if needed not in obj:
                raise InputError(f"component {quoted(node_id)}: missing field {needed!r}")
        payload = ComponentPayload(
            thermal=_parse_thermal(obj["thermal"], node_id),
            aging=_parse_aging(obj["aging"], node_id),
            power_trace=_resolve_file(obj["power_trace"], base_dir, node_id, "power_trace"),
            netlist=_resolve_file(obj["netlist"], base_dir, node_id, "netlist"),
            ser=_parse_ser(obj["ser"], node_id),
        )
        node = nodes[node_id] = HierarchyNode(node_id, kind, (), payload)
        return node

    for banned in ("thermal", "aging", "power_trace", "netlist", "ser"):
        if banned in obj:
            raise InputError(f"node {quoted(node_id)}: field {banned!r} only belongs on components")
    raw_children = obj.get("children", [])
    if not isinstance(raw_children, list):
        raise InputError(f"node {quoted(node_id)}: 'children' must be a list")
    children = tuple(_parse_node(c, level + 1, base_dir, nodes) for c in raw_children)
    if kind == "Subsystem" and not children:
        raise InputError(f"subsystem {quoted(node_id)} needs at least one child")
    node = nodes[node_id] = HierarchyNode(node_id, kind, children)
    return node


def _check_adapters(obj, nodes: dict) -> None:
    """Check that `adapters` holds CANONICAL_CHAINS for every component and
    nothing else."""
    if not isinstance(obj, dict):
        raise InputError("'adapters' must be an object keyed by component id")
    for cid, entry in obj.items():
        node = nodes.get(cid)
        if node is None or node.kind != "Component":
            what = "no node" if node is None else f"a {node.kind}"
            raise InputError(f"adapters entry {quoted(cid)} names {what}; entries are keyed by component id")
        what = f"adapters for component {quoted(cid)}"
        _require_fields(entry, ("permanent", "transient"), ("combine",), what)
        for chain, names in entry.items():
            if names != CANONICAL_CHAINS[chain]:
                raise InputError(
                    f"{what}: chain {chain!r} must be {json.dumps(CANONICAL_CHAINS[chain])}; no other chain can run"
                )
    for cid, node in nodes.items():
        if node.kind == "Component" and cid not in obj:
            raise InputError(f"component {quoted(cid)} has no adapters entry; it needs {json.dumps(CANONICAL_CHAINS)}")


def load_system(text: str, base_dir: str = ".", what: str = "system description") -> SystemModel:
    """Parse and validate a system description document; `what` names it
    in the errors of reading its JSON."""
    doc = read_json(text, what)
    _require_fields(
        doc,
        ("name", "time_horizon_hours", "grid_points", "hierarchy", "adapters", "success_tree"),
        (),
        "system description",
    )
    name = _ident(doc["name"], "model name")
    horizon = _number(doc, "time_horizon_hours", "system description")
    if not (math.isfinite(horizon) and horizon > 0):
        raise InputError(f"time_horizon_hours must be positive and finite, got {horizon}")
    grid_points = doc["grid_points"]
    if not isinstance(grid_points, int) or isinstance(grid_points, bool) or grid_points < 2:
        raise InputError(f"grid_points must be an integer >= 2, got {quoted(grid_points)}")
    if grid_points > _MAX_GRID_POINTS:
        raise InputError(f"grid_points must be at most {_MAX_GRID_POINTS}")

    nodes: dict = {}
    root = _parse_node(doc["hierarchy"], 1, base_dir, nodes)
    tree = tree_from_dict(doc["success_tree"], "success_tree")
    for event in basic_events(tree):
        node = nodes.get(event)
        if node is None:
            raise InputError(f"success tree references unknown component {quoted(event)}")
        if node.kind != "Component":
            raise InputError(f"success tree event {quoted(event)} must name a leaf component")

    _check_adapters(doc["adapters"], nodes)
    return SystemModel(name, horizon, grid_points, root, tree)


def load_system_file(path: str) -> SystemModel:
    return load_system(
        read_text(path), os.path.dirname(os.path.abspath(path)), f"system description {path!r}"
    )
