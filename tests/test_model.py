import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliatree.errors import InputError
from reliatree.model import CANONICAL_CHAINS, load_system, load_system_file

from conftest import AND2, DEFAULT_CHAINS, JSON_VALUES, component_obj, write_power_csv, write_two_unit_model


def write_inputs(tmp_path):
    write_power_csv(os.path.join(str(tmp_path), "p.csv"), [1.0, 2.0, 3.0])
    with open(os.path.join(str(tmp_path), "n.net"), "w") as fp:
        fp.write(AND2)


def minimal_doc(**overrides):
    doc = {
        "name": "minimal",
        "time_horizon_hours": 1000.0,
        "grid_points": 16,
        "hierarchy": {
            "id": "sys",
            "kind": "System",
            "children": [component_obj("c1", "p.csv", "n.net")],
        },
        "adapters": {"c1": DEFAULT_CHAINS},
        "success_tree": {"event": "c1"},
    }
    doc.update(overrides)
    return doc


def load(tmp_path, doc):
    return load_system(json.dumps(doc), base_dir=str(tmp_path))


class TestLoad:
    def test_minimal_two_node_model(self, tmp_path):
        write_inputs(tmp_path)
        model = load(tmp_path, minimal_doc())
        assert len(model.nodes()) == 2
        assert model.root.kind == "System"
        (child,) = model.root.children
        assert child.kind == "Component" and child.children == ()
        assert os.path.isabs(child.payload.power_trace)

    def test_two_unit_shape(self, tmp_path):
        path = write_two_unit_model(tmp_path)
        model = load_system_file(path)
        assert len(model.nodes()) == 3
        assert sorted(model.components()) == ["pu1", "pu2"]

    def test_subsystem_levels(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc(
            hierarchy={
                "id": "sys",
                "kind": "System",
                "children": [
                    {
                        "id": "sub",
                        "kind": "Subsystem",
                        "children": [component_obj("c1", "p.csv", "n.net")],
                    }
                ],
            }
        )
        model = load(tmp_path, doc)
        sub = model.root.children[0]
        assert sub.kind == "Subsystem"
        (leaf,) = sub.children
        assert leaf.kind == "Component" and leaf.id == "c1" and leaf.children == ()

    def test_unknown_tree_event_named(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc(success_tree={"event": "PU3"})
        with pytest.raises(InputError) as err:
            load(tmp_path, doc)
        assert "PU3" in str(err.value)

    def test_duplicate_id_named(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc(
            hierarchy={
                "id": "sys",
                "kind": "System",
                "children": [
                    component_obj("c1", "p.csv", "n.net"),
                    component_obj("c1", "p.csv", "n.net"),
                ],
            }
        )
        with pytest.raises(InputError) as err:
            load(tmp_path, doc)
        assert "duplicate" in str(err.value) and "c1" in str(err.value)

    def test_dangling_file_names_node_and_field(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc()
        doc["hierarchy"]["children"][0]["netlist"] = "missing.net"
        with pytest.raises(InputError) as err:
            load(tmp_path, doc)
        msg = str(err.value)
        assert "c1" in msg and "netlist" in msg and "missing.net" in msg

    def test_unknown_top_level_field_rejected(self, tmp_path):
        write_inputs(tmp_path)
        with pytest.raises(InputError):
            load(tmp_path, minimal_doc(comment="hi"))

    def test_unknown_node_field_rejected(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc()
        doc["hierarchy"]["children"][0]["voltage"] = 1.2
        with pytest.raises(InputError):
            load(tmp_path, doc)

    def test_malformed_json(self):
        with pytest.raises(InputError):
            load_system("{not json")

    def test_deep_hierarchy_names_its_json_depth(self, tmp_path):
        # 520 nested Subsystems over a one-event success tree: the decoder
        # runs out of stack in the hierarchy, not in the tree.
        write_inputs(tmp_path)
        doc = minimal_doc()
        node = json.dumps(doc["hierarchy"]["children"][0])
        for k in range(520):
            node = '{"id": "s%d", "kind": "Subsystem", "children": [%s]}' % (k, node)
        doc["hierarchy"]["children"] = "NODE"
        text = json.dumps(doc).replace('"NODE"', f"[{node}]")
        with pytest.raises(InputError) as err:
            load_system(text, base_dir=str(tmp_path))
        message = str(err.value)
        assert message == "system description nests 1046 levels deep in member 'hierarchy'; the limit is 514"

    @pytest.mark.parametrize(
        "patch",
        [
            {"grid_points": 1},
            {"grid_points": 2.5},
            {"time_horizon_hours": 0.0},
            {"name": "two words"},
            {"success_tree": {"gate": "AND", "inputs": []}},
        ],
    )
    def test_bad_scalars_rejected(self, tmp_path, patch):
        write_inputs(tmp_path)
        with pytest.raises(InputError):
            load(tmp_path, minimal_doc(**patch))

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["time_horizon_hours", "default_fit"])
    def test_non_finite_numbers_rejected(self, tmp_path, field, value):
        write_inputs(tmp_path)
        doc = minimal_doc()
        if field == "default_fit":
            doc["hierarchy"]["children"][0]["ser"]["default_fit"] = value
        else:
            doc[field] = value
        with pytest.raises(InputError) as err:
            load(tmp_path, doc)
        assert field in str(err.value) or "FIT" in str(err.value)

    def test_component_with_children_rejected(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc()
        doc["hierarchy"]["children"][0]["children"] = []
        with pytest.raises(InputError):
            load(tmp_path, doc)

    def test_system_below_root_rejected(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc(
            hierarchy={
                "id": "sys",
                "kind": "System",
                "children": [
                    {
                        "id": "inner",
                        "kind": "System",
                        "children": [component_obj("c1", "p.csv", "n.net")],
                    }
                ],
            }
        )
        with pytest.raises(InputError):
            load(tmp_path, doc)

    def test_root_must_be_system(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc(hierarchy=component_obj("c1", "p.csv", "n.net"))
        with pytest.raises(InputError):
            load(tmp_path, doc)

    def test_empty_subsystem_rejected(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc(
            hierarchy={
                "id": "sys",
                "kind": "System",
                "children": [
                    {"id": "sub", "kind": "Subsystem", "children": []},
                    component_obj("c1", "p.csv", "n.net"),
                ],
            }
        )
        with pytest.raises(InputError):
            load(tmp_path, doc)

    def test_tree_event_must_be_component(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc(
            hierarchy={
                "id": "sys",
                "kind": "System",
                "children": [
                    {
                        "id": "sub",
                        "kind": "Subsystem",
                        "children": [component_obj("c1", "p.csv", "n.net")],
                    }
                ],
            },
            success_tree={"event": "sub"},
        )
        with pytest.raises(InputError):
            load(tmp_path, doc)

    def test_adapters_for_unknown_node_rejected(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc(adapters={"c1": DEFAULT_CHAINS, "ghost": []})
        with pytest.raises(InputError):
            load(tmp_path, doc)

    def test_weibull_beta_default_applied(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc()
        del doc["hierarchy"]["children"][0]["aging"]["weibull_beta"]
        model = load(tmp_path, doc)
        assert model.components()["c1"].payload.aging.weibull_beta == 2.0

    def test_explicit_beta_wins_over_default(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc()
        doc["hierarchy"]["children"][0]["aging"]["weibull_beta"] = 3.5
        model = load(tmp_path, doc)
        assert model.components()["c1"].payload.aging.weibull_beta == 3.5


class TestGrid:
    def test_grid_shape(self, tmp_path):
        write_inputs(tmp_path)
        model = load(tmp_path, minimal_doc())
        grid = model.grid()
        assert grid[0] == 0.0 and grid[-1] == 1000.0 and len(grid) == 16


SUBSYSTEM_HIERARCHY = {
    "id": "sys",
    "kind": "System",
    "children": [
        {"id": "sub", "kind": "Subsystem", "children": [component_obj("c1", "p.csv", "n.net")]}
    ],
}

PERMANENT = DEFAULT_CHAINS["permanent"]
BRIDGE = {"kind": "TimeUnitBridge", "params": {"from": "seconds", "to": "hours"}}


def chains(**overrides):
    entry = dict(DEFAULT_CHAINS)
    entry.update(overrides)
    return entry


class TestAdapters:
    """The adapters block must declare the one chain the pipeline runs."""

    def test_canonical_chains_match_the_documented_entry(self):
        assert CANONICAL_CHAINS == DEFAULT_CHAINS

    @pytest.mark.parametrize(
        "entry",
        [chains(), {"permanent": PERMANENT, "transient": ["FitToReliability"]}],
        ids=["names", "combine-omitted"],
    )
    def test_accepted_forms(self, tmp_path, entry):
        write_inputs(tmp_path)
        model = load(tmp_path, minimal_doc(adapters={"c1": entry}))
        assert list(model.components()) == ["c1"]

    @pytest.mark.parametrize(
        "chain, entry",
        [
            ("permanent", chains(permanent=[])),
            ("permanent", chains(permanent=["TemperatureToFailureRate", "PowerToTemperature"])),
            ("permanent", chains(permanent=PERMANENT + ["TimeUnitBridge"])),
            (
                "permanent",
                chains(
                    permanent=PERMANENT[:2]
                    + [
                        {"kind": "TimeUnitBridge", "params": {"from": "hours", "to": "seconds"}},
                        BRIDGE,
                    ]
                    + PERMANENT[2:]
                ),
            ),
            ("permanent", chains(permanent=PERMANENT[:2] + [BRIDGE] + PERMANENT[2:])),
            ("transient", chains(transient=[{"kind": "FitToReliability", "params": {"scale": 1000}}])),
            ("transient", chains(transient=[{"kind": "Nope"}])),
            ("transient", chains(transient=[{"type": "FitToReliability"}])),
            ("transient", chains(transient=[7])),
            ("transient", chains(transient="FitToReliability")),
            ("combine", chains(combine=[])),
            ("combine", chains(combine=["CompetingRisksCombine", "CompetingRisksCombine"])),
            ("transient", chains(transient=[{"kind": "FitToReliability"}])),
            ("combine", chains(combine=[{"kind": "CompetingRisksCombine", "params": {}}])),
        ],
        ids=[
            "empty",
            "wrong-order",
            "bare-bridge",
            "bridge-pair",
            "readme-bridge",
            "ignored-params",
            "unknown-kind",
            "no-kind",
            "number",
            "not-a-list",
            "empty-combine",
            "double-combine",
            "kind-object",
            "empty-params",
        ],
    )
    def test_other_chains_rejected_with_location(self, tmp_path, chain, entry):
        write_inputs(tmp_path)
        with pytest.raises(InputError) as err:
            load(tmp_path, minimal_doc(adapters={"c1": entry}))
        msg = str(err.value)
        assert "'c1'" in msg and repr(chain) in msg
        assert json.dumps(CANONICAL_CHAINS[chain]) in msg

    def test_missing_component_entry_rejected(self, tmp_path):
        write_inputs(tmp_path)
        with pytest.raises(InputError) as err:
            load(tmp_path, minimal_doc(adapters={}))
        assert "'c1'" in str(err.value) and "FitToReliability" in str(err.value)

    def test_missing_adapters_block_rejected(self, tmp_path):
        write_inputs(tmp_path)
        doc = minimal_doc()
        del doc["adapters"]
        with pytest.raises(InputError) as err:
            load(tmp_path, doc)
        assert "adapters" in str(err.value)

    @pytest.mark.parametrize("field", ["permanent", "transient"])
    def test_missing_chain_rejected(self, tmp_path, field):
        write_inputs(tmp_path)
        entry = chains()
        del entry[field]
        with pytest.raises(InputError) as err:
            load(tmp_path, minimal_doc(adapters={"c1": entry}))
        assert "'c1'" in str(err.value) and field in str(err.value)

    def test_unknown_chain_field_rejected(self, tmp_path):
        write_inputs(tmp_path)
        with pytest.raises(InputError) as err:
            load(tmp_path, minimal_doc(adapters={"c1": chains(upward=[])}))
        assert "'c1'" in str(err.value) and "upward" in str(err.value)

    @pytest.mark.parametrize(
        "key, entry",
        [("sub", []), ("sub", ["CompetingRisksCombine"]), ("sub", DEFAULT_CHAINS), ("sys", [])],
        ids=["subsystem-empty", "subsystem-chain", "subsystem-canonical", "root"],
    )
    def test_entry_must_name_a_component(self, tmp_path, key, entry):
        write_inputs(tmp_path)
        doc = minimal_doc(hierarchy=SUBSYSTEM_HIERARCHY, adapters={"c1": DEFAULT_CHAINS, key: entry})
        with pytest.raises(InputError) as err:
            load(tmp_path, doc)
        assert repr(key) in str(err.value) and "keyed by component id" in str(err.value)


_KIND_NAMES = st.sampled_from(
    sorted({kind for chain in CANONICAL_CHAINS.values() for kind in chain} | {"TimeUnitBridge", "Nope"})
)
_CHAIN = st.one_of(
    st.sampled_from(list(CANONICAL_CHAINS.values()) + [[]]),
    st.lists(
        _KIND_NAMES | st.fixed_dictionaries({"kind": _KIND_NAMES}, optional={"params": JSON_VALUES}),
        max_size=4,
    ),
    JSON_VALUES,
)
_ADAPTER_ENTRY = st.one_of(
    st.just(DEFAULT_CHAINS),
    st.fixed_dictionaries(
        {}, optional={"permanent": _CHAIN, "transient": _CHAIN, "combine": _CHAIN, "upward": _CHAIN}
    ),
    JSON_VALUES,
)
_ADAPTERS_BLOCK = st.one_of(
    st.dictionaries(st.sampled_from(["c1", "sub", "sys", "ghost"]), _ADAPTER_ENTRY, max_size=3),
    JSON_VALUES,
)
_EDGE_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0, -1.0, 1e308, True, "1", None, [], {}])
_FIELD_PATHS = [
    ("thermal",),
    ("thermal", "r_th"),
    ("thermal", "t_ambient"),
    ("aging", "n_exp"),
    ("aging", "weibull_beta"),
    ("ser",),
    ("ser", "default_fit"),
    ("ser", "fit_per_node"),
    ("power_trace",),
    ("netlist",),
    ("id",),
    ("kind",),
]


@st.composite
def system_documents(draw):
    """A valid one-component document with one part replaced by any JSON."""
    hierarchy = draw(st.sampled_from([minimal_doc()["hierarchy"], SUBSYSTEM_HIERARCHY]))
    doc = json.loads(json.dumps(minimal_doc(hierarchy=hierarchy)))
    component = doc["hierarchy"]["children"][0]
    if component["kind"] == "Subsystem":
        component = component["children"][0]
    where = draw(st.sampled_from(["adapters", "top level"] + _FIELD_PATHS))
    if where == "adapters":
        doc["adapters"] = draw(_ADAPTERS_BLOCK)
    elif where == "top level":
        doc[draw(st.sampled_from(sorted(doc) + ["extra"]))] = draw(JSON_VALUES)
    else:
        target = component if len(where) == 1 else component[where[0]]
        target[where[-1]] = draw(_EDGE_VALUES | JSON_VALUES)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    write_inputs(path)
    return str(path)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(system_documents(), JSON_VALUES.map(json.dumps), st.text()))
def test_load_system_raises_only_input_errors(input_dir, text):
    try:
        model = load_system(text, base_dir=input_dir)
    except InputError:
        return
    assert math.isfinite(model.time_horizon_hours)
    for node in model.components().values():
        assert math.isfinite(node.payload.ser.default_fit)
