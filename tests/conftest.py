import json
import os
import random

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

import reliatree
from reliatree.softerror import parse_netlist
from reliatree.successtree import AndGate, KofNGate, OrGate, basic_events

SAMPLE_DIR = os.path.join(os.path.dirname(__file__), "..", "sample", "dual_core")

# With the explain phase on, Hypothesis re-runs every shrink step of a
# failing property under its line tracer, so a failing `analyze` draw took
# minutes to report, not seconds. Every example and every check still runs.
settings.register_profile("reliatree", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("reliatree")


def package_env(**variables):
    """os.environ and `variables`, with PYTHONPATH led by the directory of
    the reliatree these tests import, so that a child interpreter runs the
    same copy: the one in src/ or an installed one."""
    parent = os.path.dirname(os.path.dirname(os.path.abspath(reliatree.__file__)))
    pythonpath = os.pathsep.join(filter(None, [parent, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **variables)


FULL_ADDER = """\
INPUT a
INPUT b
INPUT cin
GATE s1 XOR a b
GATE sum XOR s1 cin
GATE c1 AND a b
GATE c2 AND s1 cin
GATE cout OR c1 c2
OUTPUT sum
OUTPUT cout
"""

AND2 = "INPUT a\nINPUT b\nGATE g1 AND a b\nOUTPUT g1\n"
OR2 = "INPUT a\nINPUT b\nGATE g1 OR a b\nOUTPUT g1\n"


# Any value a JSON document can hold, NaN and the infinities included
# (Python's json module reads and writes them).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=16,
)


def random_tree(rnd, events, depth):
    if depth == 0 or rnd.random() < 0.3:
        return rnd.choice(events)
    n = rnd.randint(2, 4)
    children = tuple(random_tree(rnd, events, depth - 1) for _ in range(n))
    kind = rnd.choice(("AND", "OR", "KOFN"))
    if kind == "AND":
        return AndGate(children)
    if kind == "OR":
        return OrGate(children)
    return KofNGate(rnd.randint(1, n), children)


def seeded_cases(n_cases, seed=2024, max_events=12, max_depth=5):
    """Random coherent trees with shared events plus matching probabilities."""
    rnd = random.Random(seed)
    for _ in range(n_cases):
        pool = [f"e{k}" for k in range(rnd.randint(1, max_events))]
        tree = random_tree(rnd, pool, rnd.randint(1, max_depth))
        probs = {e: rnd.random() for e in basic_events(tree)}
        yield tree, probs


def kofn_pairs(n):
    """KOFN(n - 2) over ORs of neighbouring pairs around a ring of n events:
    the kofn-pairs shape of perfbench/gen_system.py."""
    ids = [f"c{i:02d}" for i in range(n)]
    pairs = tuple(OrGate((ids[i], ids[(i + 1) % n])) for i in range(n))
    return KofNGate(n - 2, pairs)


def and_or_chain(levels):
    """Alternating ANDs and ORs, each over one new event and the chain
    below it: level k (from 1) is an AND when k is odd, over e{k} and the
    chain of levels below, whose bottom is the event e0."""
    tree = "e0"
    for k in range(1, levels + 1):
        tree = (AndGate if k % 2 else OrGate)((f"e{k}", tree))
    return tree


@pytest.fixture
def full_adder():
    return parse_netlist(FULL_ADDER)


PAD = 18


def padded(text, pad=PAD):
    """The netlist of `text` with `pad` unused inputs pad0, pad1, ... in
    front. Its 2^n input vectors outnumber any trial count below 2^pad, so
    a uniform campaign on it samples where one on `text` would count each
    vector once; the nets of `text` are its nets from index `pad` on."""
    return parse_netlist("".join(f"INPUT pad{k}\n" for k in range(pad)) + text)


@pytest.fixture
def sample_system_path():
    path = os.path.join(SAMPLE_DIR, "system.json")
    assert os.path.isfile(path)
    return path


def write_power_csv(path, powers, dt=1.0):
    with open(path, "w", newline="") as fp:
        fp.write("time_s,power_w\n")
        for k, p in enumerate(powers):
            fp.write(f"{repr(k * dt)},{repr(float(p))}\n")


DEFAULT_CHAINS = {
    "permanent": [
        "PowerToTemperature",
        "TemperatureToFailureRate",
        "FailureRateToReliability",
    ],
    "transient": ["FitToReliability"],
    "combine": ["CompetingRisksCombine"],
}


def component_obj(cid, trace, netlist, default_fit=0.0, fit_per_node=None):
    return {
        "id": cid,
        "kind": "Component",
        "thermal": {"r_th": 2.0, "c_th": 5.0, "t_ambient": 300.0},
        "aging": {
            "a_const": 1.0e6,
            "j_density": 1.0e6,
            "n_exp": 2.0,
            "ea_ev": 0.7,
            "weibull_beta": 2.0,
        },
        "power_trace": trace,
        "netlist": netlist,
        "ser": {"default_fit": default_fit, "fit_per_node": fit_per_node or {}},
    }


def write_two_unit_model(tmpdir, default_fit=0.0, fit_per_node=None, powers=(0.0,) * 4):
    """A System with two components under an AND tree; returns the doc path."""
    tmpdir = str(tmpdir)
    for cid in ("pu1", "pu2"):
        write_power_csv(os.path.join(tmpdir, f"{cid}.csv"), powers)
        with open(os.path.join(tmpdir, f"{cid}.net"), "w") as fp:
            fp.write(FULL_ADDER)
    doc = {
        "name": "two_unit",
        "time_horizon_hours": 10000.0,
        "grid_points": 64,
        "hierarchy": {
            "id": "soc",
            "kind": "System",
            "children": [
                component_obj(cid, f"{cid}.csv", f"{cid}.net", default_fit, fit_per_node)
                for cid in ("pu1", "pu2")
            ],
        },
        "adapters": {cid: DEFAULT_CHAINS for cid in ("pu1", "pu2")},
        "success_tree": {
            "gate": "AND",
            "inputs": [{"event": "pu1"}, {"event": "pu2"}],
        },
    }
    path = os.path.join(tmpdir, "system.json")
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=2)
    return path
