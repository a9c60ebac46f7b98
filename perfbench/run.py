"""Benchmark of ``reliatree analyze``, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload tree_kofn16 --seed 1 --seconds 20 --trace 0

One run generates the workload's inputs from the seed, times set-up in
fresh interpreters, then calls ``reliatree.cli.main(["analyze", ...])``
in this process, one analysis at a time, until ``--seconds`` have passed.
With ``--trace 1`` it alternates untraced and traced analyses; a traced
one wraps the pipeline's public functions (see spans.py) and restores
them afterwards. Every output is checked against the oracles in
oracles.py. Metrics are printed one per line by name and unit, and the
last line is one JSON object with the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``). See README.md for the workloads.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import gen_system
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SAMPLE = os.path.join(ROOT, "sample", "dual_core")

# The whole run, set-up and checks included, must end within 180 s.
CHILD_TIMEOUT_S = 170
# No analysis is started past this point of the run.
LAST_START_S = 110
# Set-up probes, half before and half after the analyses, so that one
# slow stretch of the machine does not set the median.
SETUP_PROBES = 6
# On a shared machine the speed of every process can drift by a quarter
# over minutes, so end-to-end times are reported relative to a fixed loop
# timed just before and after each measurement: in seconds on a machine
# where calibration_s() takes CAL_REF_S.
CAL_REF_S = 0.04
CURVE_PICKS = 8
# Counts derived from input sizes rather than counted where the work happens.
COMPUTED = {"softerror.gate_evals"}

PROBE = """\
import sys, time
start = time.perf_counter()
import reliatree.cli
from reliatree.model import load_system_file
load_system_file(sys.argv[1])
print(time.perf_counter() - start, reliatree.__file__)
"""


@dataclass(frozen=True)
class Workload:
    injection_trials: int
    derating_oracle: str  # "exhaustive" or "closed-form"
    mc_trials: Optional[int] = None
    synthetic: Optional[dict] = None  # gen_system.generate() arguments
    sample_grid_points: Optional[int] = None  # copy of the shipped sample


WORKLOADS = {
    # The success tree does the work: 16 events, each shared by two ORs
    # under a KOFN(14); tiny netlists keep injection small.
    "tree_kofn16": Workload(
        2_000,
        "exhaustive",
        synthetic=dict(components=16, adder_bits=4, grid_points=128, trace_len=600, shape="kofn-pairs"),
    ),
    # Injection does the work: 225-net netlists with two RNG lanes per
    # trial under a two-event AND, which the tree evaluates at once.
    "inject_adder32": Workload(
        20_000,
        "closed-form",
        synthetic=dict(components=2, adder_bits=32, grid_points=512, trace_len=600, shape="and"),
    ),
    # The shipped model with a dense grid, long campaigns on tiny
    # netlists and the system Monte Carlo, so every layer shows.
    "sample_mc": Workload(200_000, "exhaustive", mc_trials=2_000_000, sample_grid_points=8192),
}


def hash_seed(workload: str, seed: int) -> int:
    """PYTHONHASHSEED for a run; the tree memo is keyed on string hashes."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_err"):
        return "ratio"
    return "count"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs right now.

    Half arithmetic, half dictionary updates on tuple keys, because the
    analyses' Python work is mostly hashing and allocation. The collector
    is off and the dictionary stays small, so that neither the heap the
    analyses leave behind nor the loop itself sets the time or the peak
    memory.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        memo = {}
        for i in range(40_000):
            key = (i & 1023, f"e{i & 7}")
            memo[key] = memo.get(key, 0.0) + 0.5 * i
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibrated(seconds: list, calibrations: list) -> list:
    """Each time scaled to a machine on which the loop takes CAL_REF_S.

    calibrations[i] and calibrations[i + 1] bracket measurement i.
    """
    return [
        t * CAL_REF_S / ((calibrations[i] + calibrations[i + 1]) / 2.0)
        for i, t in enumerate(seconds)
    ]


def make_inputs(workload: Workload, seed: int, out_dir: str) -> str:
    """Write the workload's input files; returns the system.json path."""
    if workload.synthetic is not None:
        return gen_system.generate(out_dir, seed=seed, name="synthetic", **workload.synthetic)
    shutil.copytree(os.path.join(SAMPLE, "traces"), os.path.join(out_dir, "traces"))
    shutil.copytree(os.path.join(SAMPLE, "netlists"), os.path.join(out_dir, "netlists"))
    with open(os.path.join(SAMPLE, "system.json"), "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["grid_points"] = workload.sample_grid_points
    path = os.path.join(out_dir, "system.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(json.dumps(doc, indent=2) + "\n")
    return path


def tree_bytes(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fp:
                out[os.path.relpath(path, root)] = fp.read()
    return out


def setup_probe(system_path: str, env: dict) -> float:
    """Import reliatree.cli and load the model in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, system_path],
        env=dict(env, PYTHONPATH=SRC),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, module_file = done.stdout.split(maxsplit=1)
    if not os.path.abspath(module_file.strip()).startswith(SRC + os.sep):
        raise RuntimeError(f"set-up probe imported reliatree from {module_file.strip()}")
    return float(seconds)


def setup_probes(system_path: str, n: int) -> tuple:
    """n set-up probes between calibration loops: (wall, calibrated, loop times)."""
    wall, cal = [], [calibration_s()]
    for _ in range(n):
        wall.append(setup_probe(system_path, dict(os.environ)))
        cal.append(calibration_s())
    return wall, calibrated(wall, cal), cal


@dataclass
class Rep:
    traced: bool
    rc: int
    seconds: float
    report: bytes
    curves: bytes
    stdout_is_report: bool
    stderr: str
    tracer: object = None


def analyze_once(cli_main, argv: list, out_dir: str, tracer=None) -> Rep:
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            rc = cli_main(argv)
        else:
            with tracer.installed():
                rc = tracer.call(spans.ROOT_SPAN, cli_main, argv)
        seconds = time.perf_counter() - start
    files = {}
    for name in ("report.json", "curves.csv"):
        try:
            with open(os.path.join(out_dir, name), "rb") as fp:
                files[name] = fp.read()
        except FileNotFoundError:
            files[name] = b""
    return Rep(
        traced=tracer is not None,
        rc=rc,
        seconds=seconds,
        report=files["report.json"],
        curves=files["curves.csv"],
        stdout_is_report=out.getvalue().encode("utf-8") == files["report.json"],
        stderr=err.getvalue(),
        tracer=tracer,
    )


def cone_size(netlist, node: str) -> int:
    reached = {node}
    size = 0
    for gate in netlist.gates:
        if any(src in reached for src in gate.inputs):
            reached.add(gate.output)
            size += 1
    return size


def layer_metrics(tr) -> dict:
    """Per-layer metrics of one traced analysis; every _s value is self time."""
    s, n, c, total = tr.self_time, tr.calls, tr.counts, tr.total
    trials = sum(t for _, _, t in tr.injections)
    cones = {}
    gate_evals = 0
    for netlist, node, t in tr.injections:
        key = (id(netlist), node)
        if key not in cones:
            cones[key] = len(netlist.gates) + cone_size(netlist, node)
        gate_evals += t * cones[key]
    prob_calls = n["successtree.prob"]
    return {
        "successtree.prob_s": s["successtree.prob"],
        "successtree.calls": prob_calls,
        "successtree.us_per_call": 1e6 * s["successtree.prob"] / prob_calls if prob_calls else 0.0,
        "reliability.at_s": s["reliability.at"],
        "reliability.at_calls": n["reliability.at"],
        "reliability.quad_evals": c["reliability.quad_evals"],
        "reliability.mttf_s": s[spans.MTTF_SPAN],
        "curves.system_curves_s": s["curves.system_curves"],
        "curves.write_csv_s": s["curves.write_csv"],
        "curves.mc_s": s["curves.mc"],
        "curves.mc_samples": c["curves.mc_samples"],
        "curves.mc_samples_per_s": c["curves.mc_samples"] / total["curves.mc"] if total["curves.mc"] else 0.0,
        "softerror.inject_s": s["softerror.inject"],
        "softerror.campaigns": n["softerror.inject"],
        "softerror.trials": trials,
        "softerror.gate_evals": gate_evals,
        "softerror.trials_per_s": trials / total["softerror.inject"] if total["softerror.inject"] else 0.0,
        "softerror.parse_s": s["softerror.parse"],
        "rng.word_block_s": s["rng.word_block"],
        "rng.words": c["rng.words"],
        "thermal.read_trace_s": s["thermal.read_trace"],
        "thermal.simulate_s": s["thermal.simulate"],
        "thermal.samples": c["thermal.samples"],
        "aging.rate_s": s["aging.rate"],
        "adapters.apply_s": s["adapters.apply"],
        "adapters.calls": n["adapters.apply"],
        "model.load_s": s["model.load"],
        "pipeline.self_s": s[spans.ROOT_SPAN],
        "pipeline.report_json_s": s["pipeline.report_json"],
        "pipeline.write_s": s["pipeline.write"],
        "trace.analyze_s": total[spans.ROOT_SPAN],
    }


def spread(values: list) -> str:
    vs = sorted(values)
    return f"{statistics.median(vs):.4f} (median over {len(vs)}, min {vs[0]:.4f}, max {vs[-1]:.4f})"


def run(args, env_hash_seed: int) -> int:
    if not os.path.isdir(os.path.join(SRC, "reliatree")):
        print(f"error: no reliatree sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    import reliatree
    import reliatree.cli

    if not os.path.abspath(reliatree.__file__).startswith(SRC + os.sep):
        print(f"error: imported reliatree from {reliatree.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import oracles
    from reliatree.model import load_system_file

    run_start = time.perf_counter()
    workload = WORKLOADS[args.workload]
    log = oracles.CheckLog()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        in_a, in_b, out_dir = (os.path.join(work, d) for d in ("in", "in_again", "out"))
        for d in (in_a, in_b):
            os.makedirs(d)
        system_path = make_inputs(workload, args.seed, in_a)
        make_inputs(workload, args.seed, in_b)
        log.check("inputs are byte-identical when generated twice from the seed", tree_bytes(in_a) == tree_bytes(in_b))

        setup, setup_scaled, cal = setup_probes(system_path, SETUP_PROBES // 2)

        argv = ["analyze", "--system", system_path, "--out", out_dir, "--seed", str(args.seed)]
        argv += ["--injection-trials", str(workload.injection_trials)]
        if workload.mc_trials is not None:
            argv += ["--mc-trials", str(workload.mc_trials)]

        reps, rep_cal = [], [calibration_s()]
        loop_start = time.perf_counter()
        while True:
            traced_turn = bool(args.trace) and len(reps) % 2 == 1
            reps.append(analyze_once(reliatree.cli.main, argv, out_dir, spans.Tracer() if traced_turn else None))
            rep_cal.append(calibration_s())
            now = time.perf_counter()
            if now - run_start + reps[-1].seconds > LAST_START_S:
                break
            if now - loop_start >= args.seconds and not traced_turn and (not args.trace or len(reps) > 1):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after, after_scaled, after_cal = setup_probes(system_path, SETUP_PROBES - len(setup))
        setup += after
        setup_scaled += after_scaled
        cal += after_cal + rep_cal

        first = reps[0]
        for i, rep in enumerate(reps):
            kind = "traced" if rep.traced else "untraced"
            log.check(
                f"analysis {i + 1} ({kind}) exits 0 with the report on stdout and the same bytes as analysis 1",
                rep.rc == 0 and rep.stdout_is_report and (rep.report, rep.curves) == (first.report, first.curves),
                rep.stderr.strip()[:200],
            )
        tracers = [r.tracer for r in reps if r.traced]
        if tracers:
            log.check("wrapped functions are restored after every traced analysis", all(t.restored() for t in tracers))

        report = json.loads(first.report)
        model = load_system_file(system_path)
        funcs = oracles.component_functions(model, report)
        rows = oracles.read_curves(first.curves.decode("utf-8"))
        picks = sorted(random.Random(args.seed).sample(range(len(rows)), min(CURVE_PICKS, len(rows))))
        oracles.check_curve(log, model, funcs, rows, picks)
        reference = oracles.reference_mttf(model, funcs)
        mttf_rel_err = oracles.check_mttf_reference(log, model, report, reference)
        if workload.derating_oracle == "closed-form":
            oracles.check_closed_form(log, gen_system.adder_netlist(4), gen_system.adder_derating)
            oracles.check_deratings(log, model, report, lambda netlist, net: gen_system.adder_derating(net))
        else:
            oracles.check_deratings(log, model, report, oracles.exhaustive_oracle())
        if workload.mc_trials is not None:
            oracles.check_monte_carlo(log, report, workload.mc_trials)

        digests = {"report.json": sha256(first.report), "curves.csv": sha256(first.curves)}
        check_digest_log(log, args, digests)

        rep_scaled = calibrated([r.seconds for r in reps], rep_cal)
        untraced = [r.seconds for r in reps if not r.traced]
        metrics = {
            "analyze_s": statistics.median(t for t, r in zip(rep_scaled, reps) if not r.traced),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
            "mttf_rel_err": mttf_rel_err,
        }
        layer = {}
        if tracers:
            per_rep = [layer_metrics(t) for t in tracers]
            # Counts are exact and the same in every traced analysis.
            layer = {
                k: per_rep[-1][k] if unit_of(k) == "count" else statistics.median(m[k] for m in per_rep)
                for k in per_rep[0]
            }
            layer["trace.overhead_s"] = layer["trace.analyze_s"] - statistics.median(untraced)
            layer["analyze_wall_s"] = statistics.median(untraced)
            layer["setup_wall_s"] = statistics.median(setup)
            layer["bench.calibration_s"] = statistics.median(cal)
        reported = layer if args.trace else metrics
        check_metric_names(log, reported, "per_layer" if args.trace else "end_to_end")

        print(f"# workload {args.workload}, seed {args.seed}, PYTHONHASHSEED {env_hash_seed}, "
              f"python {sys.version.split()[0]}, trace {args.trace}")
        print(f"# calibration_s: {spread(cal)}")
        print(f"# analyze wall seconds, untraced: {spread(untraced)}")
        print(f"# setup wall seconds: {spread(setup)}")
        print(f"# mttf: reported {report['system']['mttf_hours']!r} h, reference {reference!r} h")
        for name, digest in digests.items():
            print(f"# sha256 {name} {digest}")
        for name, ok, detail in log.results:
            print(f"# check {'ok  ' if ok else 'FAIL'} {name}" + (f" [{detail}]" if detail else ""))
        attempted = len(log.results)
        print(f"# failed_frac {log.failed / attempted:.4f} ({log.failed} of {attempted} operations)")
        if tracers:
            print_spans(tracers[-1])
        for name, value in {**metrics, **layer}.items():
            print(f"{name} {value!r} {unit_of(name)}" + (" (computed)" if name in COMPUTED else ""))
        result = {
            "correct": log.failed == 0,
            "attempted": attempted,
            "failed": log.failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in reported.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_spans(tracer) -> None:
    print("# span                         calls     total_s      self_s")
    for span in sorted(tracer.total, key=lambda k: -tracer.self_time[k]):
        print(f"# {span:<26} {tracer.calls[span]:>8} {tracer.total[span]:>11.4f} {tracer.self_time[span]:>11.4f}")
    for target in tracer.missing:
        print(f"# span target not found, its metrics read 0: {target}")


def check_digest_log(log, args, digests: dict) -> None:
    """Same sources and seed must give the same output bytes on every run."""
    code = hashlib.sha256()
    sources = tree_bytes(os.path.join(SRC, "reliatree"))
    for path in sorted(sources):
        if path.endswith(".py"):
            code.update(path.encode() + b"\0" + sources[path] + b"\0")
    entry = {"workload": args.workload, "seed": args.seed, "code": code.hexdigest(), "digests": digests}
    path = os.path.join(WORK, "digests.jsonl")
    earlier = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fp:
            earlier = [json.loads(line) for line in fp if line.strip()]
    same = [e for e in earlier if (e["workload"], e["seed"], e["code"]) == (args.workload, args.seed, entry["code"])]
    log.check(
        f"output digests match {len(same)} earlier run(s) of these sources and seed",
        all(e["digests"] == digests for e in same),
    )
    with open(path, "a", encoding="utf-8") as fp:
        fp.write(json.dumps(entry, sort_keys=True) + "\n")


def check_metric_names(log, reported: dict, section: str) -> None:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fp:
            declared = {m["name"]: m["unit"] for m in json.load(fp)[section]}
    except (OSError, ValueError, KeyError) as exc:
        log.check(f"metric names match BENCHMARK.json {section}", False, str(exc))
        return
    printed = {name: unit_of(name) for name in reported}
    log.check(
        f"metric names and units match BENCHMARK.json {section}",
        printed == declared,
        f"missing {sorted(set(declared) - set(printed))}, extra {sorted(set(printed) - set(declared))}",
    )


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark reliatree analyze on one workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long to keep starting analyses")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    want = str(hash_seed(args.workload, args.seed))
    if os.environ.get("PYTHONHASHSEED") == want:
        return run(args, int(want))
    # The hash seed only takes effect at interpreter start: run again under it.
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *(argv if argv is not None else sys.argv[1:])],
            env=dict(os.environ, PYTHONHASHSEED=want),
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: run did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
