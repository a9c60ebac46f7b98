"""Whole-CLI property: `analyze` on copies of the sample with extreme but
valid parameters exits 0 or 1, never 2, and what it reports on exit 0 is
consistent: survival curves in [0, 1] and non-increasing, finite
temperatures, and MTTFs ordered as competing risks and an AND tree
order them."""
import contextlib
import csv
import io
import json
import math
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reliatree import cli

from conftest import SAMPLE_DIR

SLACK = 1e-12


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


COMPONENT = st.fixed_dictionaries(
    {
        "thermal": st.fixed_dictionaries(
            {"r_th": log_uniform(1e-300, 1e300), "c_th": log_uniform(1e-300, 1e300), "t_ambient": log_uniform(1e-3, 1e5)}
        ),
        "aging": st.fixed_dictionaries(
            {
                "a_const": log_uniform(1e-300, 1e300),
                "j_density": log_uniform(1e-50, 1e50),
                "n_exp": st.floats(0.0, 5.0),
                "ea_ev": log_uniform(1e-3, 10.0),
                "weibull_beta": st.sampled_from([0.2, 0.5, 1.0, 2.0, 5.0, 60.0]) | log_uniform(0.05, 200.0),
            }
        ),
        "default_fit": st.just(0.0) | log_uniform(1e-300, 1e300),
    }
)


@pytest.fixture(scope="module")
def sample_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("property")
    shutil.copytree(SAMPLE_DIR, root / "s")
    return root


def mttf(value):
    assert value == "unbounded" or (isinstance(value, float) and 0.0 < value < math.inf), value
    return math.inf if value == "unbounded" else value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    components=st.tuples(COMPONENT, COMPONENT),
    grid_points=st.sampled_from([2, 3, 17, 64, 300]),
    horizon=log_uniform(1e-6, 1e15),
)
def test_analyze_exits_zero_or_one_and_reports_consistent_numbers(sample_copy, components, grid_points, horizon):
    system = sample_copy / "s" / "system.json"
    out_dir = sample_copy / "o"
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(SAMPLE_DIR, "system.json")) as fp:
        doc = json.load(fp)
    doc.update(grid_points=grid_points, time_horizon_hours=horizon)
    for node, drawn in zip(doc["hierarchy"]["children"], components):
        node["thermal"] = drawn["thermal"]
        node["aging"] = drawn["aging"]
        node["ser"]["default_fit"] = drawn["default_fit"]
    system.write_text(json.dumps(doc))

    stdout, stderr = io.StringIO(), io.StringIO()
    args = ["analyze", "--system", str(system), "--out", str(out_dir), "--seed", "1", "--injection-trials", "64"]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    err = stderr.getvalue()
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: node '") or err.startswith("error: component '"), err
        return

    assert err == ""
    report = json.loads(stdout.getvalue())
    smallest = math.inf
    for cid, c in report["components"].items():
        for key in ("steady_state_temp_k", "peak_temp_k"):
            assert isinstance(c[key], float) and 0.0 < c[key] < math.inf, (cid, key, c[key])
        combined, permanent = mttf(c["combined_mttf_hours"]), mttf(c["permanent_mttf_hours"])
        lam = c["transient_lambda_per_hour"]
        transient = 1.0 / lam if lam > 0 else math.inf
        assert combined <= min(permanent, transient) * (1.0 + SLACK), (cid, c)
        smallest = min(smallest, combined)
    # The sample's tree is an AND: the system fails with its first component.
    assert mttf(report["system"]["mttf_hours"]) <= smallest * (1.0 + SLACK)

    with open(out_dir / "curves.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == grid_points
    for column in ("r_sys", "r_sys_perm", "r_sys_trans"):
        values = [float(row[column]) for row in rows]
        assert all(0.0 <= v <= 1.0 for v in values), column
        assert all(b <= a for a, b in zip(values, values[1:])), column
