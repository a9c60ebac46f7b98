import errno
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import numpy as np
from scipy import integrate

from reliatree import cli, pipeline
from reliatree.aging import black_mttf, weibull_from_mttf
from reliatree.curves import SystemCurves
from reliatree.errors import MAX_JSON_DEPTH, InputError, read_json, read_text
from reliatree.model import load_system_file
from reliatree.reliability import Exponential, Product, reliability_at
from reliatree.softerror import exhaustive_derating, parse_netlist
from reliatree.successtree import brute_force_probability, tree_from_dict
from reliatree.pipeline import (
    PipelineOptions,
    injection_seed,
    report_to_json,
    run_pipeline,
    write_outputs,
)

from conftest import AND2, DEFAULT_CHAINS, SAMPLE_DIR, write_two_unit_model


def deep_chain_text(depth, events):
    """A chain of `depth` nested gates, alternating AND/OR, as JSON text.

    Written by hand because json.dump itself overflows at large depths.
    """
    text = '{"event": "%s"}' % events[depth % len(events)]
    for level in reversed(range(depth)):
        gate = "AND" if level % 2 == 0 else "OR"
        event = events[level % len(events)]
        text = '{"gate": "%s", "inputs": [{"event": "%s"}, %s]}' % (gate, event, text)
    return text


# The most gates a success tree may nest: inside a system description, a
# chain of them reaches JSON depth 2 * gates + 2.
MAX_GATES = (MAX_JSON_DEPTH - 2) // 2


def depth_error(what, path, depth, member):
    return f"error: {what} {str(path)!r} nests {depth} levels deep in member {member!r}; the limit is {MAX_JSON_DEPTH}\n"


def write_nested_input(tmp_path, which, depth):
    """Write the files of a run whose `which` input ("system", "tree" or
    "probs") nests exactly `depth` JSON levels; return the run's argv, the
    depth error's start (the input and its path) and the top-level member
    holding the depth.

    The system description's hierarchy puts its components at level L,
    JSON depth 2L + 2 (their `ser.fit_per_node`), so its depth is even; a
    tree file of G gates nests 2G + 1 deep, so its depth is odd.
    """
    system = write_two_unit_model(tmp_path)
    tree, probs = tmp_path / "tree.json", tmp_path / "probs.json"
    tree.write_text('{"event": "a"}')
    probs.write_text('{"a": 0.5}')
    if which == "system":
        assert depth % 2 == 0
        with open(system) as fp:
            doc = json.load(fp)
        levels = range(2, (depth - 2) // 2)  # of the Subsystems
        node = "".join('[{"id": "s%d", "kind": "Subsystem", "children": ' % k for k in levels)
        node += json.dumps(doc["hierarchy"]["children"]) + "}]" * len(levels)
        doc["hierarchy"]["children"] = "NODES"
        with open(system, "w") as fp:
            fp.write(json.dumps(doc).replace('"NODES"', node))
        args = ["analyze", "--system", system, "--out", str(tmp_path / "o"), "--seed", "1"]
        return args + ["--injection-trials", "100"], ("system description", system), "hierarchy"
    args = ["tree-eval", "--tree", str(tree), "--probs", str(probs)]
    if which == "tree":
        assert depth % 2 == 1
        tree.write_text(deep_chain_text((depth - 1) // 2, ("a",)))
        return args, ("tree file", tree), "inputs"
    probs.write_text('{"a": ' + "[" * (depth - 1) + "0.5" + "]" * (depth - 1) + "}")
    return args, ("probabilities file", probs), "a"


def write_deep_tree_model(tmp_path, depth):
    path = write_two_unit_model(tmp_path)
    with open(path) as fp:
        doc = json.load(fp)
    doc["success_tree"] = "TREE"
    text = json.dumps(doc).replace('"TREE"', deep_chain_text(depth, ("pu1", "pu2")))
    with open(path, "w") as fp:
        fp.write(text)
    return path


# One node for each error the tree reader reports, with its message.
BAD_TREE_NODES = [
    pytest.param(["pu1"], "tree node must be an object, got list", id="not-an-object"),
    pytest.param({"name": "pu1"}, "tree node needs either 'event' or 'gate'", id="neither-event-nor-gate"),
    pytest.param({"event": "pu1", "k": 1}, "unknown fields on basic event: ['k']", id="unknown-fields"),
    pytest.param({"gate": "XOR", "inputs": [{"event": "pu1"}]}, "unknown gate kind 'XOR'", id="unknown-kind"),
    pytest.param({"gate": "AND", "inputs": []}, "AND gate needs a nonempty 'inputs' list", id="empty-inputs"),
    pytest.param(
        {"gate": "KOFN", "k": 1.0, "inputs": [{"event": "pu1"}, {"event": "pu2"}]},
        "KOFN gate needs an integer 'k'",
        id="non-integer-k",
    ),
    pytest.param(
        {"gate": "KOFN", "k": 3, "inputs": [{"event": "pu1"}, {"event": "pu2"}]},
        "K-of-N requires 1 <= k <= 2, got k=3",
        id="k-out-of-range",
    ),
    pytest.param({"event": ""}, "basic event needs a nonempty component id", id="empty-event-id"),
]


def tree_with_bad_node(bad):
    """A tree over pu1 and pu2 whose node at inputs[1].inputs[1] is `bad`."""
    return {"gate": "AND", "inputs": [{"event": "pu1"}, {"gate": "OR", "inputs": [{"event": "pu2"}, bad]}]}


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPipeline:
    def test_zero_fit_zero_power_degenerates(self, tmp_path):
        path = write_two_unit_model(tmp_path, default_fit=0.0, powers=(0.0,) * 4)
        model = load_system_file(path)
        result = run_pipeline(model, PipelineOptions(seed=None))
        curves = result.curves
        assert all(v == 1.0 for v in curves.r_sys_trans)
        for p, ratio in zip(curves.r_sys_perm, curves.ratio):
            assert ratio == pytest.approx(p, abs=1e-15)
        for comp in result.report["components"].values():
            assert comp["transient_lambda_per_hour"] == 0.0
            assert comp["deratings"] == {}

    def test_seed_required_when_campaigns_needed(self, tmp_path):
        path = write_two_unit_model(tmp_path, default_fit=100.0)
        model = load_system_file(path)
        with pytest.raises(InputError) as err:
            run_pipeline(model, PipelineOptions(seed=None))
        assert str(err.value).startswith("component 'pu1', stage 'fault-injection': a master seed")

    def test_report_structure(self, tmp_path):
        path = write_two_unit_model(tmp_path, default_fit=100.0)
        model = load_system_file(path)
        result = run_pipeline(model, PipelineOptions(seed=1, injection_trials=500))
        report = result.report
        assert report["model"] == "two_unit"
        assert report["run"]["seed"] == 1
        assert set(report["components"]) == {"pu1", "pu2"}
        pu1 = report["components"]["pu1"]
        assert pu1["permanent_mttf_hours"] == pytest.approx(1.0 / pu1["lambda_eff_per_hour"])
        assert len(pu1["deratings"]) == 8  # every net of the full adder has FIT
        assert report["system"]["curve_file"] == "curves.csv"
        assert report["system"]["monte_carlo"]["skipped"] is True

    def test_mc_section_when_requested(self, tmp_path):
        path = write_two_unit_model(tmp_path, default_fit=100.0)
        model = load_system_file(path)
        result = run_pipeline(model, PipelineOptions(seed=1, injection_trials=200, mc_trials=5000))
        section = result.report["system"]["monte_carlo"]
        assert section["n_samples"] == 5000
        assert section["within_3_stderr_fraction"] >= 0.9

    def test_non_canonical_chain_aborts_at_load(self, tmp_path):
        path = write_two_unit_model(tmp_path)
        with open(path) as fp:
            doc = json.load(fp)
        doc["adapters"]["pu1"] = {"permanent": [], "transient": []}
        with open(path, "w") as fp:
            json.dump(doc, fp)
        with pytest.raises(InputError) as err:
            load_system_file(path)
        assert "'pu1'" in str(err.value) and "'permanent'" in str(err.value)

    def test_permanent_chain_reproduces_closed_form(self, tmp_path):
        # Constant 10 W: the window's periodic state is its steady state, a
        # flat 320 K profile, so the permanent survival must equal
        # weibull_from_mttf(black_mttf(320), beta).
        path = write_two_unit_model(tmp_path, powers=(10.0,) * 16)
        model = load_system_file(path)
        result = run_pipeline(model, PipelineOptions(seed=None))
        aging = model.components()["pu1"].payload.aging
        expected = weibull_from_mttf(black_mttf(320.0, aging), aging.weibull_beta)
        pu1 = result.components["pu1"]
        assert pu1.peak_temp_k == 320.0
        assert 1.0 / pu1.lambda_eff_per_hour == pytest.approx(black_mttf(320.0, aging), rel=1e-12)
        for t in np.linspace(0.0, 2e5, 41):
            assert reliability_at(pu1.r_perm, float(t)) == pytest.approx(
                reliability_at(expected, float(t)), abs=1e-9
            )

    @pytest.mark.parametrize(
        "options",
        [
            PipelineOptions(seed=1, mc_trials=0),
            PipelineOptions(seed=1, mc_trials=-5),
            PipelineOptions(seed=None, mc_trials=100),
            PipelineOptions(seed=1, injection_trials=0),
        ],
        ids=["mc-zero", "mc-negative", "mc-no-seed", "injection-zero"],
    )
    def test_options_rejected_before_any_campaign(self, tmp_path, monkeypatch, options):
        path = write_two_unit_model(tmp_path, default_fit=100.0)
        model = load_system_file(path)

        def no_campaigns(*args, **kwargs):
            raise AssertionError("a campaign ran before the options were checked")

        monkeypatch.setattr(pipeline, "inject_campaign", no_campaigns)
        with pytest.raises(InputError) as err:
            run_pipeline(model, options)
        assert "component" not in str(err.value)

    def test_stage_error_names_component_and_stage(self, tmp_path):
        path = write_two_unit_model(tmp_path, default_fit=10.0)
        netlist_path = os.path.join(str(tmp_path), "pu1.net")
        with open(netlist_path, "w") as fp:
            fp.write("NONSENSE LINE\n")
        model = load_system_file(path)
        with pytest.raises(InputError) as err:
            run_pipeline(model, PipelineOptions(seed=1))
        assert str(err.value).startswith("component 'pu1', stage 'netlist': line 1: ")

    def test_bad_netlist_directive_raises_input_error(self, tmp_path):
        # Every rejected input, a netlist inside a stage too, is an InputError.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        netlist = tmp_path / "s" / "netlists" / "pu2.net"
        rows = netlist.read_text().splitlines()
        rows[4] = rows[4].replace("GATE", "GAT3", 1)
        netlist.write_text("\n".join(rows) + "\n")
        model = load_system_file(str(tmp_path / "s" / "system.json"))
        with pytest.raises(InputError) as err:
            run_pipeline(model, PipelineOptions(seed=1, injection_trials=100))
        assert str(err.value) == "component 'pu2', stage 'netlist': line 5: unknown directive 'GAT3'"

    def test_unbounded_marker_in_json(self):
        text = report_to_json({"x": math.inf, "nested": [{"y": 1.0}, math.inf]})
        doc = json.loads(text)
        assert doc["x"] == "unbounded"
        assert doc["nested"][1] == "unbounded"

    def test_three_level_hierarchy_with_kofn_tree(self, tmp_path):
        from conftest import DEFAULT_CHAINS, component_obj, write_power_csv
        from conftest import FULL_ADDER

        tmpdir = str(tmp_path)
        for cid in ("c1", "c2", "c3"):
            write_power_csv(os.path.join(tmpdir, f"{cid}.csv"), (2.0, 4.0, 6.0))
            with open(os.path.join(tmpdir, f"{cid}.net"), "w") as fp:
                fp.write(FULL_ADDER)
        doc = {
            "name": "layered",
            "time_horizon_hours": 5000.0,
            "grid_points": 32,
            "hierarchy": {
                "id": "soc",
                "kind": "System",
                "children": [
                    {
                        "id": "island_a",
                        "kind": "Subsystem",
                        "children": [
                            component_obj("c1", "c1.csv", "c1.net", default_fit=50.0),
                            component_obj("c2", "c2.csv", "c2.net", default_fit=50.0),
                        ],
                    },
                    {
                        "id": "island_b",
                        "kind": "Subsystem",
                        "children": [component_obj("c3", "c3.csv", "c3.net", default_fit=50.0)],
                    },
                ],
            },
            "adapters": {cid: DEFAULT_CHAINS for cid in ("c1", "c2", "c3")},
            "success_tree": {
                "gate": "KOFN",
                "k": 2,
                "inputs": [{"event": "c1"}, {"event": "c2"}, {"event": "c3"}],
            },
        }
        path = os.path.join(tmpdir, "system.json")
        with open(path, "w") as fp:
            json.dump(doc, fp)
        model = load_system_file(path)
        island_a = model.root.children[0]
        assert island_a.kind == "Subsystem" and island_a.children[0] is model.components()["c1"]
        result = run_pipeline(model, PipelineOptions(seed=5, injection_trials=300))
        assert set(result.report["components"]) == {"c1", "c2", "c3"}
        # 2-of-3 by inclusion-exclusion: r1r2 + r1r3 + r2r3 - 2 r1r2r3.
        from reliatree.reliability import Product, reliability_at

        analyses = [result.components[c] for c in ("c1", "c2", "c3")]
        funcs = [Product((a.r_perm, a.r_trans)) for a in analyses]
        for t, r_sys in zip(result.curves.grid, result.curves.r_sys):
            r1, r2, r3 = (reliability_at(f, float(t)) for f in funcs)
            expected = r1 * r2 + r1 * r3 + r2 * r3 - 2.0 * r1 * r2 * r3
            assert r_sys == pytest.approx(expected, abs=1e-12)

    def test_write_outputs_creates_both_files(self, tmp_path):
        path = write_two_unit_model(tmp_path, default_fit=10.0)
        model = load_system_file(path)
        result = run_pipeline(model, PipelineOptions(seed=3, injection_trials=100))
        out_dir = os.path.join(str(tmp_path), "out")
        paths = write_outputs(result, out_dir)
        assert os.path.isfile(paths["report.json"])
        assert os.path.isfile(paths["curves.csv"])
        with open(paths["curves.csv"]) as fp:
            header = fp.readline().strip()
        assert header == "t_hours,r_sys,r_sys_perm,r_sys_trans,ratio"


RATIO_ABOVE = "transient faults dominate (ratio > 1)"
RATIO_BELOW = "permanent faults dominate (ratio < 1)"


def dominance(ratio):
    """The report's dominance summary of a ratio curve on the grid 0, 1, 2, ..."""
    n = len(ratio)
    ones = (1.0,) * n
    curves = SystemCurves(tuple(float(t) for t in range(n)), ones, ones, ones, tuple(ratio), 1.0)
    return pipeline._dominance_summary(curves)


class TestDominanceSummary:
    """The rules in force today: a ratio departs from 1 when it is more
    than 1e-12 away, and the scan stops at the first absent ratio."""

    @pytest.mark.parametrize(
        "ratio, departure, crossing, regime",
        [
            ((1.0, 1.0 + 5e-13, 1.0 - 5e-13, 1.0), None, None, "balanced"),
            ((1.0, 1.0, 1.5, 2.0), 2.0, None, RATIO_ABOVE),
            ((1.0, 0.5, 1.0, 0.25), 1.0, None, RATIO_BELOW),
            # The crossing is the first grid point past the sign change, and
            # a ratio of 1 between the two sides does not count as either.
            ((1.0, 1.2, 1.0, 0.8, 1.3, 0.7), 1.0, 3.0, RATIO_ABOVE),
            ((1.0, 0.9, 1.1), 1.0, 2.0, RATIO_BELOW),
            ((1.0, math.inf, 0.5), 1.0, 2.0, RATIO_ABOVE),
            ((1.0, 2.0, None, 0.5), 1.0, None, RATIO_ABOVE),
            ((None, 2.0, 0.5), None, None, "balanced"),
        ],
        ids=["balanced", "above", "below", "crossing", "crossing-up", "inf", "absent", "absent-first"],
    )
    def test_rules(self, ratio, departure, crossing, regime):
        assert dominance(ratio) == {
            "first_departure_time_hours": departure,
            "ratio_crossing_time_hours": crossing,
            "initial_regime": regime,
        }

    def test_sample_crossing_is_read_off_its_curves(self, sample_system_path, tmp_path, capsys):
        out_dir = tmp_path / "o"
        args = ["analyze", "--system", sample_system_path, "--out", str(out_dir), "--seed", "1"]
        code, out, err = run_cli(args, capsys)
        assert code == 0, err
        summary = json.loads(out)["system"]["dominance"]
        rows = [line.split(",") for line in (out_dir / "curves.csv").read_text().splitlines()[1:]]
        departed = [(float(t), float(r) > 1.0) for t, *_, r in rows if abs(float(r) - 1.0) > 1e-12]
        first_above = departed[0][1]
        crossing = next(t for t, above in departed if above != first_above)
        assert summary["first_departure_time_hours"] == departed[0][0]
        assert summary["initial_regime"] == (RATIO_ABOVE if first_above else RATIO_BELOW)
        assert summary["ratio_crossing_time_hours"] == crossing


class TestAnalyzeCli:
    def test_end_to_end_on_sample(self, sample_system_path, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        code, out, err = run_cli(
            [
                "analyze",
                "--system",
                sample_system_path,
                "--out",
                out_dir,
                "--seed",
                "7",
                "--injection-trials",
                "400",
            ],
            capsys,
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["model"] == "dual_core"
        assert os.path.isfile(os.path.join(out_dir, "report.json"))
        assert os.path.isfile(os.path.join(out_dir, "curves.csv"))
        assert report["system"]["monte_carlo"]["skipped"] is True

    def test_reruns_are_byte_identical(self, sample_system_path, tmp_path, capsys):
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for d in dirs:
            code, _, err = run_cli(
                [
                    "analyze",
                    "--system",
                    sample_system_path,
                    "--out",
                    d,
                    "--seed",
                    "99",
                    "--injection-trials",
                    "300",
                    "--mc-trials",
                    "2000",
                ],
                capsys,
            )
            assert code == 0, err
        for name in ("report.json", "curves.csv"):
            with open(os.path.join(dirs[0], name), "rb") as fa, open(os.path.join(dirs[1], name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_sample_output_bytes(self, sample_system_path, tmp_path, capsys):
        # No Monte Carlo, so the bytes do not depend on the host; a change
        # to the output has to update these digests on purpose.
        out_dir = tmp_path / "o"
        args = ["analyze", "--system", sample_system_path, "--out", str(out_dir), "--seed", "1"]
        code, _, err = run_cli(args, capsys)
        assert code == 0, err
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ("report.json", "curves.csv")
        }
        assert digests == {
            "report.json": "cc453ae8577168956f08918836621292b69c35033f55cca1cb0cf6e50eaa2d31",
            "curves.csv": "57b4f63bdb31b4a3fcd1c2e9559f2385c7d2b152673cadac498a85f656ddd1c8",
        }

    def test_analyze_serializes_the_report_once(self, sample_system_path, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(real):
            def report_to_json(report):
                calls.append(report)
                return real(report)

            return report_to_json

        monkeypatch.setattr(cli, "report_to_json", counting(cli.report_to_json))
        monkeypatch.setattr(pipeline, "report_to_json", counting(pipeline.report_to_json))
        out_dir = tmp_path / "o"
        args = ["analyze", "--system", sample_system_path, "--out", str(out_dir), "--seed", "3"]
        code, out, err = run_cli(args + ["--injection-trials", "100", "--mc-trials", "1000"], capsys)
        assert code == 0, err
        assert len(calls) == 1
        assert out.encode("utf-8") == (out_dir / "report.json").read_bytes()

    def test_bytes_do_not_depend_on_simd_dispatch(self, sample_system_path, tmp_path):
        """The sample analysis gives the same report.json and curves.csv
        with every SIMD target that numpy dispatches to at run time
        switched off in turn, as with all of them available.

        numpy's vectorised exp, log and power differ from math's in the
        last bit on some targets (AVX-512 among them); the exact curves
        use math and the Monte Carlo's integer counts absorb the draws'
        last bits, so the bytes must not change. On a host without such
        targets numpy lists none, and this test checks nothing.
        """
        from numpy._core._multiarray_umath import __cpu_dispatch__

        src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = {}
        for disabled in [None, *__cpu_dispatch__]:
            env = dict(os.environ, PYTHONPATH=pythonpath)
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if disabled is not None:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            out_dir = tmp_path / str(disabled)
            done = subprocess.run(
                [sys.executable, "-m", "reliatree.cli", "analyze", "--system", sample_system_path,
                 "--out", str(out_dir), "--seed", "7", "--mc-trials", "100000"],
                env=env, capture_output=True, text=True, check=False,
            )
            assert done.returncode == 0, done.stderr
            outputs[disabled] = [(out_dir / name).read_bytes() for name in ("report.json", "curves.csv")]
        for disabled, files in outputs.items():
            assert files == outputs[None], f"NPY_DISABLE_CPU_FEATURES={disabled} changed the output"

    def test_stage_equivalence_with_standalone_inject(
        self, sample_system_path, tmp_path, capsys
    ):
        # 6 trials are fewer than pu1's 2^3 input vectors: both campaigns
        # sample, so each standalone seed must be the one analyze derives.
        # Every net is compared, so a wrong seed does not match by chance.
        out_dir = str(tmp_path / "out")
        args = ["analyze", "--system", sample_system_path, "--out", out_dir, "--seed", "42", "--injection-trials", "6"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        deratings = json.loads(out)["components"]["pu1"]["deratings"]
        assert len(deratings) == 8
        netlist = os.path.join(os.path.dirname(sample_system_path), "netlists", "pu1.net")
        for net, from_report in deratings.items():
            seed = str(injection_seed(42, "pu1", net))
            code, out, _ = run_cli(["inject", "--netlist", netlist, "--node", net, "--trials", "6", "--seed", seed], capsys)
            assert code == 0
            standalone = json.loads(out)
            assert standalone["trials"] == from_report["trials"] == 6
            assert standalone["errors"] == from_report["errors"], net
            assert standalone["derating"] == from_report["derating"], net

    def test_failure_leaves_no_partial_outputs(self, tmp_path, capsys):
        path = write_two_unit_model(tmp_path, default_fit=10.0)
        with open(os.path.join(str(tmp_path), "pu2.net"), "w") as fp:
            fp.write("GATE broken\n")
        out_dir = str(tmp_path / "out")
        code, _, err = run_cli(
            ["analyze", "--system", path, "--out", out_dir, "--seed", "1"], capsys
        )
        assert code == 1
        assert "pu2" in err
        assert not os.path.exists(os.path.join(out_dir, "report.json"))
        assert not os.path.exists(os.path.join(out_dir, "curves.csv"))

    def test_missing_seed_with_campaigns_is_input_error(self, tmp_path, capsys):
        path = write_two_unit_model(tmp_path, default_fit=10.0)
        code, _, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert "seed" in err

    def test_zero_fit_runs_without_seed(self, tmp_path, capsys):
        path = write_two_unit_model(tmp_path, default_fit=0.0)
        code, out, _ = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 0
        assert json.loads(out)["run"]["seed"] is None


class TestOtherSubcommands:
    def test_inject_counts_every_vector_once_on_and_gate(self, tmp_path, capsys):
        # 4 trials on 2 inputs: each vector once, and the flip on a is
        # visible in the two with b = 1.
        netlist = tmp_path / "and.net"
        netlist.write_text(AND2)
        code, out, _ = run_cli(
            ["inject", "--netlist", str(netlist), "--node", "a", "--trials", "4", "--seed", "5"], capsys
        )
        assert code == 0
        assert json.loads(out) == {
            "node": "a", "seed": 5, "trials": 4, "errors": 2, "derating": 0.5, "ci95_half_width": 0.0
        }

    def test_inject_more_trials_than_vectors_is_exact(self, capsys):
        # 10,000 trials on the sample's 3-input full adder count its 8
        # vectors once each, whatever the seed.
        pu1 = os.path.join(SAMPLE_DIR, "netlists", "pu1.net")
        exact = exhaustive_derating(parse_netlist(read_text(pu1)), "c1")
        for seed in (1, 2):
            code, out, _ = run_cli(
                ["inject", "--netlist", pu1, "--node", "c1", "--trials", "10000", "--seed", str(seed)], capsys
            )
            assert code == 0
            assert json.loads(out) == {
                "node": "c1", "seed": seed, "trials": 8, "errors": int(8 * exact), "derating": exact, "ci95_half_width": 0.0
            }

    def test_inject_with_workload_file(self, tmp_path, capsys):
        netlist = tmp_path / "and.net"
        netlist.write_text("INPUT a\nINPUT b\nGATE g1 AND a b\nOUTPUT g1\n")
        workload = tmp_path / "w.txt"
        workload.write_text("# b held at 0 but once\n00\n10\n01\n10\n")
        code, out, _ = run_cli(
            ["inject", "--netlist", str(netlist), "--node", "a", "--workload", str(workload)],
            capsys,
        )
        assert code == 0
        # The flip on a is visible in the one row with b = 1.
        assert json.loads(out) == {"node": "a", "trials": 4, "errors": 1, "derating": 0.25, "ci95_half_width": 0.0}

    def test_inject_workload_output_bytes(self, tmp_path, capsys):
        # tests/data/inject_workload_c1.json is this command's output: the
        # flip on c1 = a AND b is visible under both 010 and 111, counted
        # once each, with no seed.
        workload = tmp_path / "workload.txt"
        workload.write_text("010\n111\n")
        code, out, _ = run_cli(
            ["inject", "--netlist", os.path.join(SAMPLE_DIR, "netlists", "pu1.net"), "--node", "c1",
             "--workload", str(workload)],
            capsys,
        )
        assert code == 0
        with open(os.path.join(os.path.dirname(__file__), "data", "inject_workload_c1.json"), "rb") as fp:
            assert out.encode("utf-8") == fp.read()

    def test_inject_workload_of_every_vector_equals_enumeration(self, tmp_path, capsys):
        workload = tmp_path / "workload.txt"
        workload.write_text("".join(f"{v:03b}\n" for v in range(8)))
        pu1 = os.path.join(SAMPLE_DIR, "netlists", "pu1.net")
        docs = []
        for flags in (["--workload", str(workload)], ["--trials", "8", "--seed", "1"]):
            code, out, _ = run_cli(["inject", "--netlist", pu1, "--node", "c1"] + flags, capsys)
            assert code == 0
            docs.append(json.loads(out))
        assert docs[1] == dict(docs[0], seed=1)
        assert docs[0]["trials"] == 8 and docs[0]["derating"] == exhaustive_derating(parse_netlist(read_text(pu1)), "c1")

    @pytest.mark.parametrize("command, flag", [("inject", "--exhaustive"), ("tree-eval", "--brute-force")])
    def test_removed_oracle_flags_exit_one(self, tmp_path, capsys, command, flag):
        # The netlist decides whether a campaign is exact, and tree-eval has
        # one evaluator: neither flag is an option any more.
        tree, probs = tmp_path / "tree.json", tmp_path / "probs.json"
        tree.write_text(json.dumps({"event": "a"}))
        probs.write_text(json.dumps({"a": 0.5}))
        args = {
            "inject": ["--netlist", os.path.join(SAMPLE_DIR, "netlists", "pu1.net"), "--node", "c1", "--trials", "8",
                       "--seed", "1"],
            "tree-eval": ["--tree", str(tree), "--probs", str(probs)],
        }[command]
        code, out, err = run_cli([command] + args + [flag], capsys)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {flag}" in err
        assert len(err.encode("utf-8")) < 300 and "Traceback" not in err

    def test_inject_rejects_bad_workload_width(self, tmp_path, capsys):
        netlist = tmp_path / "and.net"
        netlist.write_text("INPUT a\nINPUT b\nGATE g1 AND a b\nOUTPUT g1\n")
        workload = tmp_path / "w.txt"
        workload.write_text("011\n")
        code, _, err = run_cli(
            [
                "inject",
                "--netlist",
                str(netlist),
                "--node",
                "a",
                "--workload",
                str(workload),
            ],
            capsys,
        )
        assert code == 1 and "workload line 1: expected 2 binary digits" in err

    @pytest.mark.parametrize("flags", [["--trials", "10"], ["--seed", "1"], ["--trials", "10", "--seed", "1"]])
    def test_inject_workload_takes_no_trials_or_seed(self, tmp_path, capsys, flags):
        # A workload campaign counts every vector once; a trial count or a
        # seed would be ignored, so either is rejected before any file is read.
        code, out, err = run_cli(
            ["inject", "--netlist", str(tmp_path / "missing.net"), "--node", "a",
             "--workload", str(tmp_path / "missing.txt")] + flags,
            capsys,
        )
        assert code == 1 and out == ""
        assert "--workload" in err and "--trials" in err and "--seed" in err
        assert len(err.encode("utf-8")) < 300 and "Traceback" not in err

    @pytest.mark.parametrize(
        "value, message", [("1e-200", "underflows to 0"), ("1e200", "overflows a float")], ids=["underflow", "overflow"]
    )
    def test_thermal_time_constant_out_of_range_exits_one(self, capsys, value, message):
        trace = os.path.join(SAMPLE_DIR, "traces", "pu1_power.csv")
        args = ["thermal", "--trace", trace, "--rth", value, "--cth", value, "--tamb", "300"]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        value = repr(float(value))
        assert err == f"error: thermal time constant r_th * c_th {message} (r_th={value}, c_th={value})\n"

    def test_thermal_step_underflow_exits_one(self, tmp_path, capsys):
        # dt / tau rounds to 0, so a window would not move from any start.
        trace = tmp_path / "p.csv"
        trace.write_text("time_s,power_w\n0,1.0\n5e-324,2.0\n1e-323,3.0\n")
        args = ["thermal", "--trace", str(trace), "--rth", "2", "--cth", "1", "--tamb", "300"]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert "trace step dt / tau underflows to 0 (dt=5e-324, tau=2.0)" in err

    def test_thermal_out_file(self, tmp_path, capsys):
        trace = tmp_path / "p.csv"
        trace.write_text("time_s,power_w\n0.0,5.0\n1.0,5.0\n")
        out_file = tmp_path / "profile.csv"
        code, out, _ = run_cli(
            [
                "thermal",
                "--trace",
                str(trace),
                "--rth",
                "1.0",
                "--cth",
                "2.0",
                "--tamb",
                "300.0",
                "--out",
                str(out_file),
            ],
            capsys,
        )
        assert code == 0 and out == ""
        assert out_file.read_text().startswith("time_s,temp_k\n")

    @pytest.mark.parametrize("flags", [[], ["--trials", "8"], ["--seed", "1"]], ids=["neither", "trials", "seed"])
    def test_inject_requires_trials_and_seed(self, tmp_path, capsys, flags):
        # The seed is required even where the trials cover every vector.
        netlist = tmp_path / "and.net"
        netlist.write_text(AND2)
        code, out, err = run_cli(["inject", "--netlist", str(netlist), "--node", "a"] + flags, capsys)
        assert code == 1 and out == ""
        assert err == "error: --trials and --seed are required unless --workload is given\n"

    def test_tree_eval_shared_event(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(
            json.dumps(
                {
                    "gate": "OR",
                    "inputs": [
                        {"gate": "AND", "inputs": [{"event": "a"}, {"event": "b"}]},
                        {"gate": "AND", "inputs": [{"event": "a"}, {"event": "c"}]},
                    ],
                }
            )
        )
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"a": 0.5, "b": 0.5, "c": 0.5}))
        code, out, _ = run_cli(
            ["tree-eval", "--tree", str(tree), "--probs", str(probs)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["probability"]
        assert doc["probability"] == pytest.approx(0.375, abs=1e-15)
        brute = brute_force_probability(tree_from_dict(json.loads(tree.read_text())), json.loads(probs.read_text()))
        assert doc["probability"] == pytest.approx(brute, abs=1e-15)

    def test_thermal_subcommand_matches_library(self, tmp_path, capsys):
        trace = tmp_path / "p.csv"
        trace.write_text("time_s,power_w\n0.0,10.0\n1.0,10.0\n2.0,10.0\n")
        code, out, _ = run_cli(
            [
                "thermal",
                "--trace",
                str(trace),
                "--rth",
                "2.0",
                "--cth",
                "5.0",
                "--tamb",
                "300.0",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "time_s,temp_k"
        from reliatree.thermal import PowerTrace, ThermalParams, simulate_temperature

        profile = simulate_temperature(
            PowerTrace(1.0, (10.0, 10.0, 10.0)),
            ThermalParams(2.0, 5.0, 300.0),
        )
        got = [float(line.split(",")[1]) for line in lines[1:]]
        assert got == list(profile.samples)


class TestExitCodes:
    # --beta, --component-id and --tinit were options once; they are unknown now.
    @pytest.mark.parametrize(
        "command, flag",
        [("analyze", "--bogus"), ("analyze", "--beta"), ("thermal", "--component-id"), ("thermal", "--tinit")],
    )
    def test_unknown_flag(self, sample_system_path, tmp_path, capsys, command, flag):
        args = {
            "analyze": ["analyze", "--system", sample_system_path, "--out", str(tmp_path / "o"), "--seed", "1"],
            "thermal": ["thermal", "--trace", os.path.join(SAMPLE_DIR, "traces", "pu1_power.csv"),
                        "--rth", "1", "--cth", "1", "--tamb", "300"],
        }[command]
        code, out, err = run_cli(args + [flag, "2"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage:") and f"unrecognized arguments: {flag} 2" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "case",
        [
            "workload-line",
            "duplicate-net",
            "gate-kind",
            "injection-node",
            "duplicate-id",
            "model-unknown-field",
            "missing-probability",
            "tree-unknown-field",
        ],
    )
    def test_long_values_are_quoted_short(self, tmp_path, capsys, case):
        # Each value is 100,000 characters; the message names its field and
        # quotes the value cut to about 60 characters.
        long = "0" * 100_000
        pu1 = os.path.join(SAMPLE_DIR, "netlists", "pu1.net")
        netlists = {
            "duplicate-net": (f"INPUT {long}\nINPUT {long}\nGATE g NOT {long}\nOUTPUT g\n", "already defined"),
            "gate-kind": (f"INPUT a\nGATE g {long} a a\nOUTPUT g\n", "unknown gate kind"),
        }
        if case == "workload-line":
            workload = tmp_path / "w.txt"
            workload.write_text(long + "\n")
            args = ["inject", "--netlist", pu1, "--node", "c1", "--workload", str(workload)]
            field = "workload line 1"
        elif case in netlists:
            netlist = tmp_path / "long.net"
            text, field = netlists[case]
            netlist.write_text(text)
            args = ["inject", "--netlist", str(netlist), "--node", "g", "--trials", "10", "--seed", "1"]
        elif case == "injection-node":
            args = ["inject", "--netlist", pu1, "--node", long, "--trials", "10", "--seed", "1"]
            field = "unknown injection node"
        elif case == "model-unknown-field":
            path = write_two_unit_model(tmp_path)
            with open(path) as fp:
                doc = json.load(fp)
            doc[long] = 1
            with open(path, "w") as fp:
                json.dump(doc, fp)
            args = ["analyze", "--system", path, "--out", str(tmp_path / "o")]
            field = "system description: unknown fields"
        elif case == "tree-unknown-field":
            tree = tmp_path / "tree.json"
            tree.write_text(json.dumps({"gate": "AND", "inputs": [{"event": "a", long: 1}, {"event": "b"}]}))
            probs = tmp_path / "probs.json"
            probs.write_text(json.dumps({"a": 0.5, "b": 0.5}))
            args = ["tree-eval", "--tree", str(tree), "--probs", str(probs)]
            field = "inputs[0]: unknown fields on basic event"
        elif case == "duplicate-id":
            path = write_two_unit_model(tmp_path)
            with open(path) as fp:
                doc = json.load(fp)
            for child in doc["hierarchy"]["children"]:
                child["id"] = long
            with open(path, "w") as fp:
                json.dump(doc, fp)
            args = ["analyze", "--system", path, "--out", str(tmp_path / "o")]
            field = "duplicate node id"
        else:
            tree = tmp_path / "tree.json"
            tree.write_text(json.dumps({"gate": "AND", "inputs": [{"event": long}, {"event": "b"}]}))
            probs = tmp_path / "probs.json"
            probs.write_text(json.dumps({"b": 0.5}))
            args = ["tree-eval", "--tree", str(tree), "--probs", str(probs)]
            field = "no probability for basic event"
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert field in err
        assert len(err.encode()) < 300

    def test_missing_system_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["analyze", "--system", str(tmp_path / "nope.json"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1

    def test_invalid_model_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": 1}")
        code, _, err = run_cli(
            ["analyze", "--system", str(bad), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("gates", [MAX_GATES + 1, 900])
    def test_tree_eval_too_deep_is_input_error(self, tmp_path, capsys, gates):
        tree = tmp_path / "tree.json"
        tree.write_text(deep_chain_text(gates, ("a", "b", "c")))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"a": 0.9, "b": 0.8, "c": 0.7}))
        code, _, err = run_cli(
            ["tree-eval", "--tree", str(tree), "--probs", str(probs)], capsys
        )
        assert code == 1
        assert err == depth_error("tree file", tree, 2 * gates + 1, "inputs")

    def test_tree_eval_at_depth_limit(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(deep_chain_text(MAX_GATES, ("a", "b", "c")))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"a": 0.9, "b": 0.8, "c": 0.7}))
        args = ["tree-eval", "--tree", str(tree), "--probs", str(probs)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        brute = brute_force_probability(tree_from_dict(read_json(tree.read_text(), "tree")), {"a": 0.9, "b": 0.8, "c": 0.7})
        assert json.loads(out)["probability"] == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("gates", [MAX_GATES + 1, 900])
    def test_analyze_too_deep_is_input_error(self, tmp_path, capsys, gates):
        path = write_deep_tree_model(tmp_path, gates)
        code, _, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert err == depth_error("system description", path, 2 * gates + 2, "success_tree")
        assert not (tmp_path / "o").exists()

    def test_analyze_at_depth_limit(self, tmp_path, capsys):
        path = write_deep_tree_model(tmp_path, MAX_GATES)
        code, out, _ = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "3",
             "--mc-trials", "1000"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["system"]["monte_carlo"]["n_samples"] == 1000

    @pytest.mark.parametrize("bad, message", BAD_TREE_NODES)
    def test_tree_eval_names_the_bad_node(self, tmp_path, capsys, bad, message):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(tree_with_bad_node(bad)))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"pu1": 0.9, "pu2": 0.8}))
        code, out, err = run_cli(["tree-eval", "--tree", str(tree), "--probs", str(probs)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: inputs[1].inputs[1]: {message}\n"

    @pytest.mark.parametrize("bad, message", BAD_TREE_NODES)
    def test_analyze_names_the_bad_node(self, tmp_path, capsys, bad, message):
        path = write_two_unit_model(tmp_path)
        with open(path) as fp:
            doc = json.load(fp)
        doc["success_tree"] = tree_with_bad_node(bad)
        with open(path, "w") as fp:
            json.dump(doc, fp)
        code, out, err = run_cli(["analyze", "--system", path, "--out", str(tmp_path / "o")], capsys)
        assert code == 1 and out == ""
        assert err == f"error: success_tree.inputs[1].inputs[1]: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_tree_eval_too_wide_is_input_error(self, tmp_path, capsys):
        events = [f"e{k}" for k in range(1200)]
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({"gate": "AND", "inputs": [{"event": e} for e in events]}))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({e: 0.999 for e in events}))
        code, _, err = run_cli(
            ["tree-eval", "--tree", str(tree), "--probs", str(probs)], capsys
        )
        assert code == 1
        assert "1200 basic events" in err

    def test_analyze_too_wide_is_input_error(self, tmp_path, capsys):
        from conftest import DEFAULT_CHAINS, component_obj, write_power_csv

        events = [f"e{k}" for k in range(1200)]
        write_power_csv(tmp_path / "p.csv", (0.0,) * 4)
        (tmp_path / "c.net").write_text(AND2)
        doc = {
            "name": "wide",
            "time_horizon_hours": 10000.0,
            "grid_points": 8,
            "hierarchy": {
                "id": "soc",
                "kind": "System",
                "children": [component_obj(e, "p.csv", "c.net") for e in events],
            },
            "adapters": {e: DEFAULT_CHAINS for e in events},
            "success_tree": {"gate": "AND", "inputs": [{"event": e} for e in events]},
        }
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["analyze", "--system", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert "1200 basic events" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["0.5", None, [0.5], True], ids=["string", "null", "list", "true"])
    def test_tree_eval_non_numeric_probability(self, tmp_path, capsys, value):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({"gate": "AND", "inputs": [{"event": "a"}, {"event": "b"}]}))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"a": value, "b": 0.5}))
        args = ["tree-eval", "--tree", str(tree), "--probs", str(probs)]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert "'a'" in err and "must be a number" in err

    @pytest.mark.parametrize(
        "chain, adapters",
        [
            (
                "permanent",
                dict(
                    DEFAULT_CHAINS,
                    permanent=DEFAULT_CHAINS["permanent"][:2]
                    + [{"kind": "TimeUnitBridge", "params": {"from": "seconds", "to": "hours"}}]
                    + DEFAULT_CHAINS["permanent"][2:],
                ),
            ),
            ("permanent", dict(DEFAULT_CHAINS, permanent=DEFAULT_CHAINS["permanent"] + ["TimeUnitBridge"])),
            (
                "transient",
                dict(DEFAULT_CHAINS, transient=[{"kind": "FitToReliability", "params": {"scale": 1000}}]),
            ),
            ("combine", dict(DEFAULT_CHAINS, combine=[])),
            ("adapters entry", None),
        ],
        ids=["readme-bridge", "bare-bridge", "ignored-params", "empty-combine", "missing"],
    )
    def test_analyze_other_adapter_chains_exit_one(self, tmp_path, capsys, chain, adapters):
        path = write_two_unit_model(tmp_path, default_fit=10.0)
        with open(path) as fp:
            doc = json.load(fp)
        if adapters is None:
            del doc["adapters"]["pu2"]
        else:
            doc["adapters"]["pu2"] = adapters
        with open(path, "w") as fp:
            json.dump(doc, fp)
        code, _, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "1"], capsys
        )
        assert code == 1
        assert "'pu2'" in err and chain in err
        assert not (tmp_path / "o").exists()

    def test_vanishing_failure_rate_is_input_error(self, tmp_path, capsys):
        # Black's lifetime overflows to inf, so the wear-out rate is 0.
        path = write_two_unit_model(tmp_path)
        with open(path) as fp:
            doc = json.load(fp)
        doc["hierarchy"]["children"][0]["aging"].update(a_const=1e308, j_density=1e-6)
        with open(path, "w") as fp:
            json.dump(doc, fp)
        code, _, err = run_cli(["analyze", "--system", path, "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "'pu1'" in err and "failure rate must be positive" in err

    def test_initial_temperature_is_an_unknown_field(self, tmp_path, capsys):
        # Every window starts at its own periodic state, so a document
        # cannot set a starting temperature.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        doc = json.loads(system.read_text())
        doc["hierarchy"]["children"][0]["thermal"]["t_initial"] = 300.0
        system.write_text(json.dumps(doc))
        args = ["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err == "error: node 'pu1': field 'thermal': unknown fields ['t_initial']\n"
        assert not (tmp_path / "o").exists()

    def test_all_cold_component_is_input_error(self, tmp_path, capsys):
        # Black's exp(Ea / kT) overflows below about 11 K; an overflowing
        # lifetime is unbounded, so a profile cold everywhere has no wear-out.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        path = str(tmp_path / "s" / "system.json")
        with open(path) as fp:
            doc = json.load(fp)
        doc["hierarchy"]["children"][0]["thermal"].update(t_ambient=1.0, r_th=0.01)
        with open(path, "w") as fp:
            json.dump(doc, fp)
        code, _, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "1"], capsys
        )
        assert code == 1
        assert "'pu1'" in err and "failure rate must be positive" in err

    def test_cold_samples_add_no_wear_out(self, tmp_path, capsys):
        # pu1 sits at 1 K for two samples, then at 301 K for two.
        path = write_two_unit_model(tmp_path, powers=(0.0, 0.0, 100.0, 100.0))
        with open(path) as fp:
            doc = json.load(fp)
        doc["hierarchy"]["children"][0]["thermal"].update(t_ambient=1.0, r_th=3.0, c_th=1e-3)
        with open(path, "w") as fp:
            json.dump(doc, fp)
        code, out, _ = run_cli(["analyze", "--system", path, "--out", str(tmp_path / "o")], capsys)
        assert code == 0
        aging = load_system_file(path).components()["pu1"].payload.aging
        lam = json.loads(out)["components"]["pu1"]["lambda_eff_per_hour"]
        assert lam == pytest.approx(0.5 / black_mttf(301.0, aging), rel=1e-12)

    @pytest.mark.parametrize(
        "field, edit, code, message",
        [
            # (t/eta)^beta overflows a float: the survival is 0.0, as rounded.
            ("aging", {"weibull_beta": 1e6}, 0, None),
            # Black's lifetime underflows to 0: the wear-out rate is inf.
            ("aging", {"a_const": 1e-300, "j_density": 1e20, "n_exp": 2}, 1, "wear-out rate inf per hour"),
            ("aging", {"a_const": 1e-300, "j_density": 1e10, "n_exp": 2}, 1, "weibull_beta 2.0"),
            ("aging", {"weibull_beta": 0.005}, 1, "node 'pu1': field 'aging': aging weibull_beta 0.005"),
            ("thermal", {"r_th": 1e-200, "c_th": 1e-200}, 1, "node 'pu1': field 'thermal': thermal time"),
            ("thermal", {"r_th": 1e200, "c_th": 1e200}, 1, "node 'pu1': field 'thermal': thermal time constant r_th"),
            # tau is 4e300 s, so the node sits at its mean steady state.
            ("thermal", {"r_th": 1e300}, 0, None),
            # pu1 lasts about 7 ms while pu2 lasts years: the system MTTF is pu1's.
            ("ser", {"default_fit": 1e14}, 0, None),
        ],
        ids=[
            "huge-beta",
            "lifetime-underflow",
            "rate-overflow",
            "tiny-beta",
            "tau-underflow",
            "tau-overflow",
            "huge-r_th",
            "fit-1e14",
        ],
    )
    def test_extreme_sample_parameters_exit_zero_or_one(self, tmp_path, capsys, field, edit, code, message):
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        path = str(tmp_path / "s" / "system.json")
        with open(path) as fp:
            doc = json.load(fp)
        doc["hierarchy"]["children"][0][field].update(edit)
        with open(path, "w") as fp:
            json.dump(doc, fp)
        args = ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "1"]
        got, out, err = run_cli(args + ["--injection-trials", "100"], capsys)
        assert got == code
        if code == 1:
            assert message in err and not (tmp_path / "o").exists()
        else:
            assert err == ""
            pu1 = json.loads(out)["components"]["pu1"]
            assert 0.0 < json.loads(out)["system"]["mttf_hours"] <= pu1["combined_mttf_hours"]
            if field == "thermal":
                assert pu1["peak_temp_k"] == pytest.approx(pu1["steady_state_temp_k"], rel=1e-12, abs=0.0)

    def test_shallow_wear_out_without_soft_errors(self, tmp_path, capsys):
        # pu1's Weibull shape 0.008 puts R(1 h) below 1/2 and keeps R above 0
        # at 2^1023 h; with no soft errors its combined MTTF is its wear-out's.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        doc = json.loads(system.read_text())
        pu1 = doc["hierarchy"]["children"][0]
        pu1["aging"]["weibull_beta"] = 0.008
        pu1["ser"] = {"default_fit": 0.0}
        system.write_text(json.dumps(doc))
        args = ["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"]
        code, out, err = run_cli(args, capsys)
        assert (code, err) == (0, "")
        c = json.loads(out)["components"]["pu1"]
        assert c["transient_lambda_per_hour"] == 0.0
        assert c["combined_mttf_hours"] == pytest.approx(c["permanent_mttf_hours"], rel=1e-13, abs=0.0)

    def test_long_lived_components_are_integrated_to_the_end(self, tmp_path, capsys):
        # Both components outlive 1e9 hours: pu1 by wear-out (4.8e9 h) and by
        # soft errors (1.3e10 h) alike.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        doc = json.loads(system.read_text())
        for component in doc["hierarchy"]["children"]:
            component["aging"]["a_const"] = 1e11
            component["ser"] = {"default_fit": 0.01}
        system.write_text(json.dumps(doc))
        args = ["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"]
        code, out, err = run_cli(args, capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        pu1 = report["components"]["pu1"]["combined_mttf_hours"]
        assert pu1 == pytest.approx(3_903_310_692.12, rel=1e-12, abs=0.0)
        # The AND survives while both components do: scipy integrates the
        # product of their survivals in units of pu1's MTTF.
        model, factors = load_system_file(str(system)), []
        for cid, c in report["components"].items():
            beta = model.components()[cid].payload.aging.weibull_beta
            factors += [weibull_from_mttf(c["permanent_mttf_hours"], beta), Exponential(c["transient_lambda_per_hour"])]
        both = Product(tuple(factors))
        scaled, _ = integrate.quad(
            lambda u: reliability_at(both, u * pu1), 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200
        )
        assert report["system"]["mttf_hours"] == pytest.approx(scaled * pu1, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "default_fit, extra, check",
        [
            # r_sys_trans is subnormal at the second grid point, so
            # r_sys_perm / r_sys_trans is past the largest float.
            (2.5e9, [], lambda doc, rows: (rows[2][0], rows[2][4]) == ("39.13894324853229", "inf")),
            # lambda_trans is subnormal, so -log(u) / lambda_trans is past
            # the largest float: pu1 never fails by a soft error in time.
            (1e-300, ["--mc-trials", "20000"], lambda doc, rows: doc["system"]["monte_carlo"]["n_samples"] == 20000),
        ],
        ids=["ratio-overflow", "failure-time-overflow"],
    )
    def test_extreme_fit_prints_no_warning(self, tmp_path, capsys, default_fit, extra, check):
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        doc = json.loads(system.read_text())
        doc["hierarchy"]["children"][0]["ser"] = {"default_fit": default_fit}
        system.write_text(json.dumps(doc))
        args = ["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"]
        code, out, err = run_cli(args + ["--injection-trials", "100"] + extra, capsys)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in (tmp_path / "o" / "curves.csv").read_text().splitlines()]
        assert check(json.loads(out), rows)

    def test_transient_fit_overflow_exits_one(self, tmp_path, capsys):
        # Every FIT is finite, but their sum weighted by the deratings is not.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        doc = json.loads(system.read_text())
        doc["hierarchy"]["children"][0]["ser"]["default_fit"] = 1e308
        system.write_text(json.dumps(doc))
        args = ["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"]
        code, out, err = run_cli(args + ["--injection-trials", "100"], capsys)
        assert code == 1 and out == ""
        assert "component 'pu1', stage 'transient-path'" in err and "FIT" in err
        assert len(err.encode()) < 300 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["analyze", "thermal"])
    def test_steady_state_overflow_exits_one(self, tmp_path, capsys, command):
        # One power sample of 1e308 W: t_ambient + r_th * P is inf (r_th 2.5 on pu1).
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        trace = tmp_path / "s" / "traces" / "pu1_power.csv"
        rows = trace.read_text().splitlines()
        rows[2] = rows[2].split(",")[0] + ",1e308"
        trace.write_text("\n".join(rows) + "\n")
        if command == "analyze":
            system = str(tmp_path / "s" / "system.json")
            args = ["analyze", "--system", system, "--out", str(tmp_path / "o"), "--seed", "1"]
            where = "component 'pu1', stage 'permanent-path'"
        else:
            args = ["thermal", "--trace", str(trace), "--rth", "1e10", "--cth", "1", "--tamb", "300"]
            where = "error: t_ambient"
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert where in err and "overflows" in err and "1e+308 W" in err
        assert len(err.encode()) < 300 and not (tmp_path / "o").exists()

    def test_mean_power_of_huge_samples_is_finite(self, tmp_path, capsys):
        # Two pu1 samples of 1e308 W: their sum overflows, but the mean and
        # r_th * mean (r_th 1e-10) are finite.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        trace = tmp_path / "s" / "traces" / "pu1_power.csv"
        rows = trace.read_text().splitlines()
        for k in (1, 2):
            rows[k] = rows[k].split(",")[0] + ",1e308"
        trace.write_text("\n".join(rows) + "\n")
        system = tmp_path / "s" / "system.json"
        doc = json.loads(system.read_text())
        doc["hierarchy"]["children"][0]["thermal"]["r_th"] = 1e-10
        system.write_text(json.dumps(doc))
        args = ["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"]
        code, out, err = run_cli(args, capsys)
        assert code == 0, err
        temp = json.loads(out)["components"]["pu1"]["steady_state_temp_k"]
        assert isinstance(temp, float) and math.isfinite(temp) and temp > 1e296

    def test_tree_eval_deep_probabilities_is_input_error(self, tmp_path, capsys):
        (tmp_path / "tree.json").write_text('{"event": "a"}')
        (tmp_path / "probs.json").write_text('{"a": ' + "[" * 5000 + "]" * 5000 + "}")
        tree, probs = str(tmp_path / "tree.json"), str(tmp_path / "probs.json")
        code, out, err = run_cli(["tree-eval", "--tree", tree, "--probs", probs], capsys)
        assert code == 1 and out == ""
        assert err == depth_error("probabilities file", probs, 5001, "a")

    # Each input at the deepest nesting of its form that the reader
    # accepts: a 256-level hierarchy analyzes, a 256-gate tree file
    # evaluates, and a probability nested in 513 lists reaches the check
    # that it is a number.
    @pytest.mark.parametrize("which, depth", [("system", 514), ("tree", 513), ("probs", 514)])
    def test_json_at_the_depth_limit_is_read(self, tmp_path, capsys, which, depth):
        args, _, _ = write_nested_input(tmp_path, which, depth)
        code, out, err = run_cli(args, capsys)
        if which == "probs":
            assert code == 1 and out == ""
            assert err == "error: probability for 'a' must be a number, got " + "[" * 57 + "...\n"
        else:
            assert code == 0 and err == ""
            assert json.loads(out)

    # Past the limit by one or two levels, and far past it, where the JSON
    # decoder itself would give up at a depth that depends on the Python
    # version; 602 is a 300-level hierarchy, which the decoder reads.
    @pytest.mark.parametrize(
        "which, depth",
        [("system", d) for d in (516, 602, 5000, 20000)]
        + [("tree", d) for d in (515, 5001, 20001)]
        + [("probs", d) for d in (515, 5000, 20000)],
    )
    def test_json_past_the_depth_limit_exits_one(self, tmp_path, capsys, which, depth):
        args, (what, path), member = write_nested_input(tmp_path, which, depth)
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err == depth_error(what, path, depth, member)
        assert not (tmp_path / "o").exists()
        # Rejected before decoding, so not while handling a RecursionError.
        with open(path) as fp:
            text = fp.read()
        with pytest.raises(InputError) as excinfo:
            read_json(text, what)
        assert excinfo.value.__context__ is None

    # A bad value an input error quotes is cut to a short repr, however
    # large the value is.
    @pytest.mark.parametrize("field", ["probability", "fit", "name"])
    def test_a_huge_bad_value_is_quoted_briefly(self, tmp_path, capsys, field):
        huge = list(range(100_000))
        system = write_two_unit_model(tmp_path)
        with open(system) as fp:
            doc = json.load(fp)
        if field == "probability":
            (tmp_path / "tree.json").write_text('{"event": "a"}')
            (tmp_path / "probs.json").write_text(json.dumps({"a": huge}))
            args = ["tree-eval", "--tree", str(tmp_path / "tree.json"), "--probs", str(tmp_path / "probs.json")]
            named = "probability for 'a' must be a number"
        else:
            if field == "fit":
                doc["hierarchy"]["children"][0]["ser"]["fit_per_node"] = {"sum": huge}
                named = "node 'pu1': field 'ser': FIT for 'sum' must be a number"
            else:
                doc["name"] = huge
                named = "model name must be a nonempty token"
            with open(system, "w") as fp:
                json.dump(doc, fp)
            args = ["analyze", "--system", system, "--out", str(tmp_path / "o")]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert named in err and "[0, 1, 2, 3" in err
        assert len(err.encode()) < 300

    # 10**400 is an integer that no float can hold.
    @pytest.mark.parametrize(
        "path",
        [("thermal", "r_th"), ("aging", "weibull_beta"), ("ser", "default_fit"), ("ser", "fit_per_node", "sum")],
        ids=lambda path: path[-1],
    )
    def test_integer_too_large_for_a_float_exits_one(self, tmp_path, capsys, path):
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        with open(system) as fp:
            doc = json.load(fp)
        target = doc["hierarchy"]["children"][0]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 10**400
        system.write_text(json.dumps(doc))
        code, out, err = run_cli(["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"], capsys)
        assert code == 1 and out == ""
        assert err.count("node 'pu1'") == 1 and repr(path[-1]) in err and "too large for a float" in err

    def test_grid_points_past_the_largest_array_exits_one(self, tmp_path, capsys):
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        with open(system) as fp:
            doc = json.load(fp)
        doc["grid_points"] = 10**400
        system.write_text(json.dumps(doc))
        code, out, err = run_cli(["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"], capsys)
        assert code == 1 and out == ""
        assert "grid_points must be at most" in err

    def test_grid_too_large_for_memory_exits_one_before_any_campaign(self, tmp_path, capsys, monkeypatch):
        # 10**12 points fit np.intp but would take 8 TB; the allocation is
        # stubbed to fail as it would, so the test does not attempt it.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        with open(system) as fp:
            doc = json.load(fp)
        doc["grid_points"] = 10**12
        system.write_text(json.dumps(doc))

        def no_memory(start, stop, num):
            assert num == 10**12
            raise MemoryError

        campaigns = []
        monkeypatch.setattr(np, "linspace", no_memory)
        monkeypatch.setattr(pipeline, "inject_campaign", lambda *args, **kwargs: campaigns.append(args))
        code, out, err = run_cli(["analyze", "--system", str(system), "--out", str(tmp_path / "o"), "--seed", "1"], capsys)
        assert code == 1 and out == ""
        assert "grid_points" in err and str(10**12) in err
        assert campaigns == []

    @pytest.mark.parametrize("where", ["curves", "monte-carlo"])
    def test_curves_too_large_for_memory_exit_one(self, tmp_path, capsys, monkeypatch, where):
        # A grid that fits once may not fit again with the curves' arrays.
        # The grid is allocated once; the first grid-sized array of the exact
        # curves (np.empty) or of the Monte Carlo (np.zeros) is stubbed to
        # fail, and either failure must be an input error naming grid_points.
        points = 4099
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        system = tmp_path / "s" / "system.json"
        with open(system) as fp:
            doc = json.load(fp)
        doc["grid_points"] = points
        system.write_text(json.dumps(doc))

        grids = []
        real_linspace, real_empty, real_zeros = np.linspace, np.empty, np.zeros
        failing = "empty" if where == "curves" else "zeros"

        def linspace(start, stop, num, *args, **kwargs):
            grids.append(num)
            return real_linspace(start, stop, num, *args, **kwargs)

        def allocator(name, real):
            def alloc(shape, *args, **kwargs):
                if name == failing and shape == points:
                    raise MemoryError
                return real(shape, *args, **kwargs)

            return alloc

        monkeypatch.setattr(np, "linspace", linspace)
        monkeypatch.setattr(np, "empty", allocator("empty", real_empty))
        monkeypatch.setattr(np, "zeros", allocator("zeros", real_zeros))
        out_dir = tmp_path / "o"
        args = ["analyze", "--system", str(system), "--out", str(out_dir), "--seed", "1"]
        args += ["--injection-trials", "100", "--mc-trials", "1000"]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert "grid_points" in err and str(points) in err
        assert grids == [points]
        assert not out_dir.exists()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    @pytest.mark.parametrize("bad", ["system.json", "tree.json", "probs.json"])
    def test_integer_past_the_digit_limit_exits_one(self, tmp_path, capsys, bad):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for
        # an integer literal longer than 4300 digits.
        big = "1" * 5000
        system = write_two_unit_model(tmp_path)
        (tmp_path / "tree.json").write_text('{"event": "a"}')
        (tmp_path / "probs.json").write_text('{"a": 0.5}')
        (tmp_path / bad).write_text((tmp_path / bad).read_text().replace("{", '{"big": %s, ' % big, 1))
        if bad == "system.json":
            args = ["analyze", "--system", system, "--out", str(tmp_path / "o")]
            what = "malformed system description"
        else:
            args = ["tree-eval", "--tree", str(tmp_path / "tree.json"), "--probs", str(tmp_path / "probs.json")]
            what = "malformed tree file" if bad == "tree.json" else "malformed probabilities file"
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert what in err and "4300" in err

    @pytest.mark.parametrize(
        "bad",
        [
            "system.json",
            "pu1.csv",
            "pu1.net",
            "thermal:pu1.csv",
            "inject:pu1.net",
            "inject:w.txt",
            "tree-eval:tree.json",
            "tree-eval:probs.json",
        ],
    )
    def test_non_utf8_input_names_file_and_offset(self, tmp_path, capsys, bad):
        system = write_two_unit_model(tmp_path)
        (tmp_path / "w.txt").write_text("011\n")
        (tmp_path / "tree.json").write_text('{"event": "a"}')
        (tmp_path / "probs.json").write_text('{"a": 0.5}')
        command, _, name = bad.rpartition(":")
        size = os.path.getsize(tmp_path / name)
        with open(tmp_path / name, "ab") as fp:
            fp.write(b"\xff")
        f = {n: str(tmp_path / n) for n in ("pu1.csv", "pu1.net", "w.txt", "tree.json", "probs.json")}
        args = {
            "": ["analyze", "--system", system, "--out", str(tmp_path / "o")],
            "thermal": ["thermal", "--trace", f["pu1.csv"], "--rth", "1", "--cth", "1", "--tamb", "300"],
            "inject": ["inject", "--netlist", f["pu1.net"], "--node", "sum", "--workload", f["w.txt"]],
            "tree-eval": ["tree-eval", "--tree", f["tree.json"], "--probs", f["probs.json"]],
        }[command]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert name in err and f"not UTF-8 text (byte 0xff at offset {size})" in err

    @pytest.mark.parametrize("flag", ["--mc-trials", "--injection-trials"])
    def test_analyze_nonpositive_trials_exit_one(self, tmp_path, capsys, flag):
        path = write_two_unit_model(tmp_path, default_fit=10.0)
        code, _, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "1", flag, "0"],
            capsys,
        )
        assert code == 1 and "must be positive" in err

    def test_runtime_failures_map_to_two(self, tmp_path, capsys, monkeypatch):
        path = write_two_unit_model(tmp_path)

        def boom(model, options):
            raise RuntimeError("numerical failure")

        monkeypatch.setattr(cli, "run_pipeline", boom)
        code, _, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "1"],
            capsys,
        )
        assert code == 2 and err == "error: numerical failure\n"

    def test_unreadable_component_file_exits_one(self, tmp_path, capsys, monkeypatch):
        # As an unreadable --system file does: the OSError names the file.
        path = write_two_unit_model(tmp_path, default_fit=10.0)
        read_text = pipeline.read_text

        def unreadable(name):
            if name.endswith(".net"):
                raise PermissionError(errno.EACCES, "Permission denied", name)
            return read_text(name)

        monkeypatch.setattr(pipeline, "read_text", unreadable)
        code, out, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "1"],
            capsys,
        )
        assert code == 1 and out == ""
        assert "Permission denied" in err and "pu1.net" in err

    def test_failure_inside_a_stage_exits_two_naming_it(self, tmp_path, capsys, monkeypatch):
        path = write_two_unit_model(tmp_path)

        def divide(profile, params):
            return 1 / 0

        monkeypatch.setattr(pipeline.aging, "failure_rate_from_profile", divide)
        code, out, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "1"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == "error: component 'pu1', stage 'permanent-path': division by zero\n"
