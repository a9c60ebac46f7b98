import json
import math
import os
import shutil

import pytest

import numpy as np

from reliatree import cli, pipeline
from reliatree.aging import black_mttf, weibull_from_mttf
from reliatree.errors import InputError, ModelError, StageError
from reliatree.model import load_system_file
from reliatree.reliability import reliability_at
from reliatree.successtree import MAX_TREE_DEPTH
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


def write_deep_tree_model(tmp_path, depth):
    path = write_two_unit_model(tmp_path)
    with open(path) as fp:
        doc = json.load(fp)
    doc["success_tree"] = "TREE"
    text = json.dumps(doc).replace('"TREE"', deep_chain_text(depth, ("pu1", "pu2")))
    with open(path, "w") as fp:
        fp.write(text)
    return path


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
        with pytest.raises(StageError) as err:
            run_pipeline(model, PipelineOptions(seed=None))
        assert isinstance(err.value.__cause__, InputError)

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
        with pytest.raises(ModelError) as err:
            load_system_file(path)
        assert "'pu1'" in str(err.value) and "'permanent'" in str(err.value)

    def test_permanent_chain_reproduces_closed_form(self, tmp_path):
        # Constant 10 W from the steady state: a flat 320 K profile, so the
        # permanent survival must equal weibull_from_mttf(black_mttf(320), beta).
        path = write_two_unit_model(tmp_path, powers=(10.0,) * 16)
        with open(path) as fp:
            doc = json.load(fp)
        for child in doc["hierarchy"]["children"]:
            child["thermal"]["t_initial"] = 320.0
        with open(path, "w") as fp:
            json.dump(doc, fp)
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
        assert not isinstance(err.value, StageError)

    def test_stage_error_names_component_and_stage(self, tmp_path):
        path = write_two_unit_model(tmp_path, default_fit=10.0)
        netlist_path = os.path.join(str(tmp_path), "pu1.net")
        with open(netlist_path, "w") as fp:
            fp.write("NONSENSE LINE\n")
        model = load_system_file(path)
        with pytest.raises(StageError) as err:
            run_pipeline(model, PipelineOptions(seed=1))
        msg = str(err.value)
        assert "pu1" in msg and "netlist" in msg

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
        assert model.components()["c1"].level == 3
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

    def test_stage_equivalence_with_standalone_inject(
        self, sample_system_path, tmp_path, capsys
    ):
        out_dir = str(tmp_path / "out")
        code, out, _ = run_cli(
            [
                "analyze",
                "--system",
                sample_system_path,
                "--out",
                out_dir,
                "--seed",
                "42",
                "--injection-trials",
                "600",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        from_report = report["components"]["pu1"]["deratings"]["s1"]
        netlist = os.path.join(os.path.dirname(sample_system_path), "netlists", "pu1.net")
        code, out, _ = run_cli(
            [
                "inject",
                "--netlist",
                netlist,
                "--node",
                "s1",
                "--trials",
                "600",
                "--seed",
                str(injection_seed(42, "pu1", "s1")),
            ],
            capsys,
        )
        assert code == 0
        standalone = json.loads(out)
        assert standalone["errors"] == from_report["errors"]
        assert standalone["derating"] == from_report["derating"]

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
    def test_inject_exhaustive_on_and_gate(self, tmp_path, capsys):
        netlist = tmp_path / "and.net"
        netlist.write_text("INPUT a\nINPUT b\nGATE g1 AND a b\nOUTPUT g1\n")
        code, out, _ = run_cli(
            ["inject", "--netlist", str(netlist), "--node", "a", "--exhaustive"], capsys
        )
        assert code == 0
        assert json.loads(out)["exhaustive_derating"] == 0.5

    def test_inject_mc_plus_exhaustive(self, tmp_path, capsys):
        netlist = tmp_path / "and.net"
        netlist.write_text("INPUT a\nINPUT b\nGATE g1 AND a b\nOUTPUT g1\n")
        code, out, _ = run_cli(
            [
                "inject",
                "--netlist",
                str(netlist),
                "--node",
                "a",
                "--trials",
                "4000",
                "--seed",
                "5",
                "--exhaustive",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["derating"] - doc["exhaustive_derating"]) < 0.05

    def test_inject_with_workload_file(self, tmp_path, capsys):
        netlist = tmp_path / "and.net"
        netlist.write_text("INPUT a\nINPUT b\nGATE g1 AND a b\nOUTPUT g1\n")
        workload = tmp_path / "w.txt"
        workload.write_text("# b held at 0\n00\n10\n")
        code, out, _ = run_cli(
            [
                "inject",
                "--netlist",
                str(netlist),
                "--node",
                "a",
                "--trials",
                "250",
                "--seed",
                "8",
                "--workload",
                str(workload),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["derating"] == 0.0  # fully masked by b=0

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
                "--trials",
                "10",
                "--seed",
                "1",
                "--workload",
                str(workload),
            ],
            capsys,
        )
        assert code == 1 and "workload" in err

    def test_inject_workload_needs_trials(self, tmp_path, capsys):
        # A workload without a campaign must not be dropped in favour of the
        # exhaustive result.
        netlist = tmp_path / "and.net"
        netlist.write_text("INPUT a\nINPUT b\nGATE g1 AND a b\nOUTPUT g1\n")
        code, out, err = run_cli(
            [
                "inject",
                "--netlist",
                str(netlist),
                "--node",
                "a",
                "--exhaustive",
                "--workload",
                str(tmp_path / "missing.txt"),
            ],
            capsys,
        )
        assert code == 1 and out == ""
        assert "--workload" in err and "--trials" in err

    def test_thermal_time_constant_underflow_exits_one(self, tmp_path, capsys):
        trace = tmp_path / "p.csv"
        trace.write_text("time_s,power_w\n0,1.0\n1,2.0\n")
        args = ["thermal", "--trace", str(trace), "--rth", "1e-200", "--cth", "1e-200", "--tamb", "300"]
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert "underflows to 0" in err

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
                "--tinit",
                "305.0",
                "--out",
                str(out_file),
            ],
            capsys,
        )
        assert code == 0 and out == ""
        assert out_file.read_text().startswith("time_s,temp_k\n")

    def test_inject_requires_trials_or_exhaustive(self, tmp_path, capsys):
        netlist = tmp_path / "and.net"
        netlist.write_text("INPUT a\nINPUT b\nGATE g1 AND a b\nOUTPUT g1\n")
        code, _, err = run_cli(
            ["inject", "--netlist", str(netlist), "--node", "a"], capsys
        )
        assert code == 1 and "required" in err

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
        assert doc["probability"] == pytest.approx(0.375, abs=1e-15)
        assert doc["method"] == "shannon"
        code, out, _ = run_cli(
            ["tree-eval", "--tree", str(tree), "--probs", str(probs), "--brute-force"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(0.375, abs=1e-15)

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
            PowerTrace("component", 1.0, (10.0, 10.0, 10.0)),
            ThermalParams(2.0, 5.0, 300.0, 300.0),
        )
        got = [float(line.split(",")[1]) for line in lines[1:]]
        assert got == list(profile.samples)


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code = cli.main(["analyze", "--bogus"])
        capsys.readouterr()
        assert code == 1

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

    @pytest.mark.parametrize("depth", [MAX_TREE_DEPTH + 1, 900])
    def test_tree_eval_too_deep_is_input_error(self, tmp_path, capsys, depth):
        tree = tmp_path / "tree.json"
        tree.write_text(deep_chain_text(depth, ("a", "b", "c")))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"a": 0.9, "b": 0.8, "c": 0.7}))
        code, _, err = run_cli(
            ["tree-eval", "--tree", str(tree), "--probs", str(probs)], capsys
        )
        assert code == 1
        assert "nested too deeply" in err and str(MAX_TREE_DEPTH) in err

    def test_tree_eval_at_depth_limit(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(deep_chain_text(MAX_TREE_DEPTH, ("a", "b", "c")))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"a": 0.9, "b": 0.8, "c": 0.7}))
        args = ["tree-eval", "--tree", str(tree), "--probs", str(probs)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        code, brute, _ = run_cli(args + ["--brute-force"], capsys)
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(
            json.loads(brute)["probability"], abs=1e-12
        )

    @pytest.mark.parametrize("depth", [MAX_TREE_DEPTH + 1, 900])
    def test_analyze_too_deep_is_input_error(self, tmp_path, capsys, depth):
        path = write_deep_tree_model(tmp_path, depth)
        code, _, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert "nested too deeply" in err and str(MAX_TREE_DEPTH) in err
        assert not (tmp_path / "o").exists()

    def test_analyze_at_depth_limit(self, tmp_path, capsys):
        path = write_deep_tree_model(tmp_path, MAX_TREE_DEPTH)
        code, out, _ = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "3",
             "--mc-trials", "1000"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["system"]["monte_carlo"]["n_samples"] == 1000

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

    @pytest.mark.parametrize("brute_force", [False, True], ids=["shannon", "brute-force"])
    @pytest.mark.parametrize("value", ["0.5", None, [0.5], True], ids=["string", "null", "list", "true"])
    def test_tree_eval_non_numeric_probability(self, tmp_path, capsys, value, brute_force):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({"gate": "AND", "inputs": [{"event": "a"}, {"event": "b"}]}))
        probs = tmp_path / "probs.json"
        probs.write_text(json.dumps({"a": value, "b": 0.5}))
        args = ["tree-eval", "--tree", str(tree), "--probs", str(probs)]
        code, out, err = run_cli(args + ["--brute-force"] * brute_force, capsys)
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

    def test_all_cold_component_is_input_error(self, tmp_path, capsys):
        # Black's exp(Ea / kT) overflows below about 11 K; an overflowing
        # lifetime is unbounded, so a profile cold everywhere has no wear-out.
        shutil.copytree(SAMPLE_DIR, tmp_path / "s")
        path = str(tmp_path / "s" / "system.json")
        with open(path) as fp:
            doc = json.load(fp)
        doc["hierarchy"]["children"][0]["thermal"].update(t_ambient=1.0, t_initial=1.0, r_th=0.01)
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
        ],
        ids=["huge-beta", "lifetime-underflow", "rate-overflow", "tiny-beta", "tau-underflow"],
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
            pu1_mttf = json.loads(out)["components"]["pu1"]["combined_mttf_hours"]
            assert 0.0 < json.loads(out)["system"]["mttf_hours"] <= pu1_mttf

    def test_tree_eval_deep_probabilities_is_input_error(self, tmp_path, capsys):
        (tmp_path / "tree.json").write_text('{"event": "a"}')
        (tmp_path / "probs.json").write_text('{"a": ' + "[" * 5000 + "]" * 5000 + "}")
        tree, probs = str(tmp_path / "tree.json"), str(tmp_path / "probs.json")
        code, out, err = run_cli(["tree-eval", "--tree", tree, "--probs", probs], capsys)
        assert code == 1 and out == ""
        assert "probs.json" in err and "nested too deeply" in err

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
            "inject": ["inject", "--netlist", f["pu1.net"], "--node", "sum", "--trials", "10",
                       "--seed", "1", "--workload", f["w.txt"]],
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
            raise StageError("pu1", "combine", RuntimeError("numerical failure"))

        monkeypatch.setattr(cli, "run_pipeline", boom)
        code, _, err = run_cli(
            ["analyze", "--system", path, "--out", str(tmp_path / "o"), "--seed", "1"],
            capsys,
        )
        assert code == 2 and "pu1" in err
