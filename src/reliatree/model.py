"""System description: the analysis hierarchy, its adapters, and one
success tree at the root.

The document is JSON: a recursive hierarchy of System / Subsystem /
Component nodes, per-edge adapter chains keyed by child id, and a success
tree whose basic events name leaf components. Loading validates structure
and file references, and checks that every component declares the one
adapter chain the pipeline runs (CANONICAL_CHAINS).
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
from .errors import ModelError, read_text
from .softerror import SerParams
from .successtree import TREE_TOO_DEEP, Gate, basic_events, tree_from_dict, tree_to_dict
from .thermal import ThermalParams

__all__ = [
    "ComponentPayload",
    "HierarchyNode",
    "SystemModel",
    "load_system",
    "load_system_file",
    "dump_system",
    "CANONICAL_CHAINS",
    "DEFAULT_WEIBULL_BETA",
]

DEFAULT_WEIBULL_BETA = 2.0

# The adapter chains of every component, as its `adapters` entry: power
# to temperature to a wear-out rate to a Weibull survival (permanent
# faults), FIT to an exponential survival (transient faults), and the
# product of the two (competing risks). The pipeline runs exactly these
# steps; the entry only documents them.
CANONICAL_CHAINS = {
    "permanent": ["PowerToTemperature", "TemperatureToFailureRate", "FailureRateToReliability"],
    "transient": ["FitToReliability"],
    "combine": ["CompetingRisksCombine"],
}

_KINDS = ("System", "Subsystem", "Component")
_WS = re.compile(r"\s")
# A JSON string (group 1 its body, group 2 set when it is a member name)
# or a bracket.
_JSON_TOKEN = re.compile(r'"((?:\\.|[^"\\])*)"(\s*:)?|[\[\]{}]')


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
    level: int
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
        raise ModelError(f"{what} must be a nonempty token without whitespace, got {value!r}")
    return value


def _require_fields(obj: dict, required, optional, what: str) -> None:
    if not isinstance(obj, dict):
        raise ModelError(f"{what} must be an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ModelError(f"{what}: unknown fields {sorted(unknown)}")
    missing = [f for f in required if f not in obj]
    if missing:
        raise ModelError(f"{what}: missing fields {missing}")


def _number(obj: dict, key: str, what: str) -> float:
    v = obj.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ModelError(f"{what}: field {key!r} must be a number, got {v!r}")
    return float(v)


def _resolve_file(raw, base_dir: str, node_id: str, fieldname: str) -> str:
    if not isinstance(raw, str) or not raw:
        raise ModelError(f"node {node_id!r}: field {fieldname!r} must be a file path")
    path = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
    if not os.path.isfile(path):
        raise ModelError(f"node {node_id!r}: field {fieldname!r} references missing file {raw!r}")
    return path


def _parse_thermal(obj, node_id: str) -> ThermalParams:
    what = f"node {node_id!r}: field 'thermal'"
    _require_fields(obj, ("r_th", "c_th", "t_ambient"), ("t_initial",), what)
    t_amb = _number(obj, "t_ambient", what)
    t_init = _number(obj, "t_initial", what) if "t_initial" in obj else t_amb
    try:
        return ThermalParams(_number(obj, "r_th", what), _number(obj, "c_th", what), t_amb, t_init)
    except ValueError as exc:
        raise ModelError(f"{what}: {exc}") from None


def _parse_aging(obj, node_id: str, default_beta: float) -> AgingParams:
    what = f"node {node_id!r}: field 'aging'"
    _require_fields(obj, ("a_const", "j_density", "n_exp", "ea_ev"), ("weibull_beta",), what)
    beta = _number(obj, "weibull_beta", what) if "weibull_beta" in obj else default_beta
    try:
        return AgingParams(
            _number(obj, "a_const", what),
            _number(obj, "j_density", what),
            _number(obj, "n_exp", what),
            _number(obj, "ea_ev", what),
            beta,
        )
    except ValueError as exc:
        raise ModelError(f"{what}: {exc}") from None


def _parse_ser(obj, node_id: str) -> SerParams:
    what = f"node {node_id!r}: field 'ser'"
    _require_fields(obj, ("default_fit",), ("fit_per_node",), what)
    fit_map = obj.get("fit_per_node", {})
    if not isinstance(fit_map, dict):
        raise ModelError(f"{what}: 'fit_per_node' must be an object")
    for net, fit in fit_map.items():
        if not isinstance(fit, (int, float)) or isinstance(fit, bool):
            raise ModelError(f"{what}: FIT for {net!r} must be a number")
    try:
        return SerParams({k: float(v) for k, v in fit_map.items()}, _number(obj, "default_fit", what))
    except ValueError as exc:
        raise ModelError(f"{what}: {exc}") from None


def _parse_node(obj, level: int, base_dir: str, default_beta: float, seen_ids: dict) -> HierarchyNode:
    _require_fields(
        obj,
        ("id", "kind"),
        ("children", "thermal", "aging", "power_trace", "netlist", "ser"),
        "hierarchy node",
    )
    node_id = _ident(obj["id"], "node id")
    if node_id in seen_ids:
        raise ModelError(f"duplicate node id {node_id!r}")
    seen_ids[node_id] = True
    kind = obj["kind"]
    if kind not in _KINDS:
        raise ModelError(f"node {node_id!r}: unknown kind {kind!r}")
    if level == 1 and kind != "System":
        raise ModelError(f"root node {node_id!r} must have kind 'System', got {kind!r}")
    if level > 1 and kind == "System":
        raise ModelError(f"node {node_id!r}: 'System' is only allowed at the root")

    if kind == "Component":
        for banned in ("children",):
            if banned in obj:
                raise ModelError(f"component {node_id!r} must be a leaf (no {banned!r})")
        for needed in ("thermal", "aging", "power_trace", "netlist", "ser"):
            if needed not in obj:
                raise ModelError(f"component {node_id!r}: missing field {needed!r}")
        payload = ComponentPayload(
            thermal=_parse_thermal(obj["thermal"], node_id),
            aging=_parse_aging(obj["aging"], node_id, default_beta),
            power_trace=_resolve_file(obj["power_trace"], base_dir, node_id, "power_trace"),
            netlist=_resolve_file(obj["netlist"], base_dir, node_id, "netlist"),
            ser=_parse_ser(obj["ser"], node_id),
        )
        return HierarchyNode(node_id, kind, level, (), payload)

    for banned in ("thermal", "aging", "power_trace", "netlist", "ser"):
        if banned in obj:
            raise ModelError(f"node {node_id!r}: field {banned!r} only belongs on components")
    raw_children = obj.get("children", [])
    if not isinstance(raw_children, list):
        raise ModelError(f"node {node_id!r}: 'children' must be a list")
    children = tuple(
        _parse_node(c, level + 1, base_dir, default_beta, seen_ids) for c in raw_children
    )
    if kind == "Subsystem" and not children:
        raise ModelError(f"subsystem {node_id!r} needs at least one child")
    return HierarchyNode(node_id, kind, level, children)


def _adapter_kind(entry):
    """The kind an entry names: a bare name or {"kind": name} without params."""
    if isinstance(entry, str):
        return entry
    if isinstance(entry, dict) and set(entry) <= {"kind", "params"} and entry.get("params", {}) == {}:
        return entry.get("kind")
    return None


def _check_chain(entries, expected: list, what: str) -> None:
    if not isinstance(entries, list) or [_adapter_kind(e) for e in entries] != expected:
        raise ModelError(f"{what} must be {json.dumps(expected)}; no other chain can run")


def _check_adapters(obj, model_nodes: dict) -> None:
    """Check that every component declares CANONICAL_CHAINS and nothing else."""
    if not isinstance(obj, dict):
        raise ModelError("'adapters' must be an object keyed by child node id")
    for child_id, entry in obj.items():
        node = model_nodes.get(child_id)
        if node is None:
            raise ModelError(f"adapters reference unknown node {child_id!r}")
        if node.level == 1:
            raise ModelError(f"adapters cannot be attached to the root {child_id!r}")
        if node.kind != "Component":
            _check_chain(entry, [], f"adapters for node {child_id!r}: the upward chain")
            continue
        what = f"adapters for component {child_id!r}"
        _require_fields(entry, ("permanent", "transient"), ("combine",), what)
        for chain, expected in CANONICAL_CHAINS.items():
            if chain in entry:
                _check_chain(entry[chain], expected, f"{what}: chain {chain!r}")
    for node_id, node in model_nodes.items():
        if node.kind == "Component" and node_id not in obj:
            raise ModelError(
                f"component {node_id!r} has no adapters entry; it needs {json.dumps(CANONICAL_CHAINS)}"
            )


def _deepest_nesting(text: str) -> tuple:
    """Deepest bracket nesting of a JSON text, and the top-level member
    where it is first reached."""
    depth = deepest = 0
    member = where = None
    for m in _JSON_TOKEN.finditer(text):
        token = m.group()
        if m.group(2) and depth == 1:
            member = m.group(1)
        elif token in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, where = depth, member
        elif token in ("]", "}"):
            depth -= 1
    return deepest, where


def load_system(
    text: str,
    base_dir: str = ".",
    default_weibull_beta: float = DEFAULT_WEIBULL_BETA,
) -> SystemModel:
    """Parse and validate a system description document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed system description: {exc}") from None
    except RecursionError:
        depth, member = _deepest_nesting(text)
        where = "" if member is None else f" in member {member!r}"
        cause = TREE_TOO_DEEP if member == "success_tree" else "too deep for the JSON decoder"
        raise ModelError(
            f"system description cannot be decoded: its JSON nests {depth} levels deep{where}: {cause}"
        ) from None
    _require_fields(
        doc,
        ("name", "time_horizon_hours", "grid_points", "hierarchy", "adapters", "success_tree"),
        (),
        "system description",
    )
    name = _ident(doc["name"], "model name")
    horizon = _number(doc, "time_horizon_hours", "system description")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ModelError(f"time_horizon_hours must be positive and finite, got {horizon}")
    grid_points = doc["grid_points"]
    if not isinstance(grid_points, int) or isinstance(grid_points, bool) or grid_points < 2:
        raise ModelError(f"grid_points must be an integer >= 2, got {grid_points!r}")

    seen: dict = {}
    root = _parse_node(doc["hierarchy"], 1, base_dir, default_weibull_beta, seen)

    tree = tree_from_dict(doc["success_tree"])
    model_nodes = {}

    def collect(node):
        model_nodes[node.id] = node
        for child in node.children:
            collect(child)

    collect(root)
    for event in basic_events(tree):
        node = model_nodes.get(event)
        if node is None:
            raise ModelError(f"success tree references unknown component {event!r}")
        if node.kind != "Component":
            raise ModelError(f"success tree event {event!r} must name a leaf component")

    _check_adapters(doc["adapters"], model_nodes)
    return SystemModel(name, horizon, grid_points, root, tree)


def load_system_file(path: str, default_weibull_beta: float = DEFAULT_WEIBULL_BETA) -> SystemModel:
    return load_system(read_text(path), os.path.dirname(os.path.abspath(path)), default_weibull_beta)


def _node_to_dict(node: HierarchyNode) -> dict:
    obj: dict = {"id": node.id, "kind": node.kind}
    if node.kind == "Component":
        p = node.payload
        obj["thermal"] = {
            "r_th": p.thermal.r_th,
            "c_th": p.thermal.c_th,
            "t_ambient": p.thermal.t_ambient,
            "t_initial": p.thermal.t_initial,
        }
        obj["aging"] = {
            "a_const": p.aging.a_const,
            "j_density": p.aging.j_density,
            "n_exp": p.aging.n_exp,
            "ea_ev": p.aging.ea_ev,
            "weibull_beta": p.aging.weibull_beta,
        }
        obj["power_trace"] = p.power_trace
        obj["netlist"] = p.netlist
        obj["ser"] = {
            "default_fit": p.ser.default_fit,
            "fit_per_node": dict(p.ser.fit_per_node),
        }
    else:
        obj["children"] = [_node_to_dict(c) for c in node.children]
    return obj


def dump_system(model: SystemModel) -> str:
    """Serialize back to document form (file paths come out resolved)."""
    doc = {
        "name": model.name,
        "time_horizon_hours": model.time_horizon_hours,
        "grid_points": model.grid_points,
        "hierarchy": _node_to_dict(model.root),
        "adapters": {cid: CANONICAL_CHAINS for cid in model.components()},
        "success_tree": tree_to_dict(model.success_tree),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
