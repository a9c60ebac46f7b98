"""The program against what the benchmark in perfbench/ reads of it.

The benchmark builds its systems with perfbench/gen_system.py, checks
every output with the oracles in perfbench/oracles.py (which import
reliatree's classes and oracles) and times the layers by wrapping the
module attributes listed in perfbench/spans.py. A change that renames or
reroutes one of these makes a benchmark run fail or read 0, so one small
traced analysis per tree shape goes through those same modules here.
Nothing under perfbench/ is changed.
"""
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import gen_system
import oracles
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


@pytest.mark.parametrize("shape, components", [("kofn-pairs", 3), ("and", 2)])
def test_traced_analysis_passes_every_oracle(tmp_path, capsys, shape, components):
    system_path = gen_system.generate(
        str(tmp_path / "in"),
        components=components,
        adder_bits=2,
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
    model = load_system_file(system_path)
    funcs = oracles.component_functions(model, report)
    rows = oracles.read_curves((out_dir / "curves.csv").read_text())
    oracles.check_curve(log, model, funcs, rows, list(range(0, len(rows), 3)))
    reference = oracles.reference_mttf(model, funcs)
    assert oracles.check_mttf_reference(log, model, report, reference) <= 1e-6
    if shape == "and":
        oracles.check_closed_form(log, gen_system.adder_netlist(2), gen_system.adder_derating)
        oracles.check_deratings(log, model, report, lambda netlist, net: gen_system.adder_derating(net))
    else:
        oracles.check_deratings(log, model, report, oracles.exhaustive_oracle())
    oracles.check_monte_carlo(log, report, MC_TRIALS)
    names = [name for name, _, _ in log.results]
    # The series bound is checked only on a tree the document spells AND.
    assert ("reference MTTF respects the series bound" in names) == (shape == "and")
    assert [(name, detail) for name, ok, detail in log.results if not ok] == []
