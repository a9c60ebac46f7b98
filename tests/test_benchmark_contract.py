"""The program against what the benchmark in perfbench/ reads of it.

The benchmark builds its systems with perfbench/gen_system.py, checks
every output with the oracles in perfbench/oracles.py (which import
reliatree's classes and oracles) and times the layers by wrapping the
module attributes listed in perfbench/spans.py. A change that renames or
reroutes one of these makes a benchmark run fail or read 0, so one small
traced analysis per tree shape goes through those same modules here. The
output bytes of two workloads, built by perfbench/run.py's make_inputs,
are pinned, and the output bytes must not follow PYTHONHASHSEED, which
the benchmark fixes for each run. Nothing under perfbench/ is changed.
"""
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import gen_system
import oracles
import run as bench_run
import spans

from reliatree import cli
from reliatree.model import load_system_file

# The two span targets the program no longer has; their spans read 0.
KNOWN_MISSING = {"reliatree.pipeline.apply_adapter", "reliatree.curves.mttf"}
INJECTION_TRIALS = 500
# Enough samples that a single early failure is not a miss of the
# 3-standard-error check where the exact survival is near 1.
MC_TRIALS = 20_000
TRACE_LEN = 20


# A 5-bit adder has 2^11 input vectors, more than INJECTION_TRIALS, so its
# campaigns sample; a 2-bit adder's 2^5 are each counted once.
@pytest.mark.parametrize("shape, components, adder_bits", [("kofn-pairs", 3, 5), ("and", 2, 2)])
def test_traced_analysis_passes_every_oracle(tmp_path, capsys, shape, components, adder_bits):
    system_path = gen_system.generate(
        str(tmp_path / "in"),
        components=components,
        adder_bits=adder_bits,
        grid_points=16,
        trace_len=TRACE_LEN,
        shape=shape,
        seed=3,
    )
    out_dir = tmp_path / "out"
    argv = ["analyze", "--system", system_path, "--out", str(out_dir), "--seed", "1"]
    argv += ["--injection-trials", str(INJECTION_TRIALS), "--mc-trials", str(MC_TRIALS)]
    tracer = spans.Tracer()
    with tracer.installed():
        code = tracer.call(spans.ROOT_SPAN, cli.main, argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == (out_dir / "report.json").read_text()

    # Every span target is where spans.py looks for it, the calls go
    # through it, and its argument hooks read what they expect.
    assert tracer.restored()
    assert set(tracer.missing) <= KNOWN_MISSING
    wrapped = {span for module, attr, span in spans.SPANS if f"{module}.{attr}" not in tracer.missing}
    assert sorted(span for span in wrapped if tracer.calls[span] == 0) == []
    assert tracer.counts["reliability.quad_evals"] > 0
    assert tracer.counts["rng.words"] > 0
    assert tracer.counts["thermal.samples"] == components * TRACE_LEN
    assert tracer.counts["curves.mc_samples"] == MC_TRIALS
    assert tracer.injections and all(trials == INJECTION_TRIALS for _, _, trials in tracer.injections)
    assert all(gate.inputs and gate.output for netlist, _, _ in tracer.injections for gate in netlist.gates)

    log = oracles.CheckLog()
    report = json.loads(out)
    counted = {(d["trials"], d["ci95_half_width"] > 0.0) for c in report["components"].values() for d in c["deratings"].values()}
    assert counted == ({(INJECTION_TRIALS, True)} if adder_bits == 5 else {(2**5, False)})
    model = load_system_file(system_path)
    funcs = oracles.component_functions(model, report)
    rows = oracles.read_curves((out_dir / "curves.csv").read_text())
    oracles.check_curve(log, model, funcs, rows, list(range(0, len(rows), 3)))
    reference = oracles.reference_mttf(model, funcs)
    assert oracles.check_mttf_reference(log, model, report, reference) <= 1e-6
    if shape == "and":
        oracles.check_closed_form(log, gen_system.adder_netlist(adder_bits), gen_system.adder_derating)
        oracles.check_deratings(log, model, report, lambda netlist, net: gen_system.adder_derating(net))
    else:
        oracles.check_deratings(log, model, report, oracles.exhaustive_oracle())
    oracles.check_monte_carlo(log, report, MC_TRIALS)
    names = [name for name, _, _ in log.results]
    # The series bound is checked only on a tree the document spells AND.
    assert ("reference MTTF respects the series bound" in names) == (shape == "and")
    assert [(name, detail) for name, ok, detail in log.results if not ok] == []


# sha256 of report.json and curves.csv at seed 101. Neither workload runs a
# Monte Carlo, so the bytes do not depend on the host's SIMD; a change to
# the output has to update these digests on purpose.
WORKLOAD_DIGESTS = {
    "tree_kofn16": (
        "07e6c14f2755cc817187bad62bdd0e8e35bcd62286f8ea1c8d2d6c51214ae806",
        "23b60fb2bbd01c9d248746327c14cda748930cfddac9a72a595368bb00c79568",
    ),
    "inject_adder32": (
        "a2da0dcf568a5624f24a64abeebc93ce2bb342f9bc4abee394e7dc74c786d6ad",
        "e70b7a74e77c2fdd2ff6e8f95e53acdb7eb20755ccb14970abbdc465e66a2026",
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_output_bytes(tmp_path, capsys, name):
    workload = bench_run.WORKLOADS[name]
    (tmp_path / "in").mkdir()
    system_path = bench_run.make_inputs(workload, 101, str(tmp_path / "in"))
    out_dir = tmp_path / "out"
    argv = ["analyze", "--system", system_path, "--out", str(out_dir), "--seed", "101"]
    code = cli.main(argv + ["--injection-trials", str(workload.injection_trials)])
    _, err = capsys.readouterr()
    assert (code, err) == (0, "")
    digests = tuple(bench_run.sha256((out_dir / f).read_bytes()) for f in ("report.json", "curves.csv"))
    assert digests == WORKLOAD_DIGESTS[name]


@pytest.mark.parametrize("system", ["sample", "kofn_pairs6"])
def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path, system):
    """Two interpreters under PYTHONHASHSEED 0 and 4242 write the same
    report.json and curves.csv. The benchmark pins the hash seed of every
    run, so it would not see output that follows string hashes (the order
    of a set of event ids, say)."""
    if system == "sample":
        system_path = os.path.join(os.path.dirname(__file__), "..", "sample", "dual_core", "system.json")
    else:
        system_path = gen_system.generate(
            str(tmp_path / "in"), components=6, adder_bits=2, grid_points=64,
            trace_len=TRACE_LEN, shape="kofn-pairs", seed=5,
        )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("0", "4242"):
        out_dir = tmp_path / f"out_{hash_seed}"
        done = subprocess.run(
            [sys.executable, "-m", "reliatree.cli", "analyze", "--system", system_path, "--out", str(out_dir),
             "--seed", "3", "--mc-trials", str(MC_TRIALS)],
            env=dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stderr
        outputs.append([(out_dir / name).read_bytes() for name in ("report.json", "curves.csv")])
    assert outputs[0] == outputs[1]
