"""End-to-end analysis: leaf analyses per component, competing-risks
combination, and system-level curves.

Each component runs one fixed chain, which its `adapters` entry only
restates (model.CANONICAL_CHAINS): power trace -> temperature profile ->
wear-out rate -> Weibull survival, FIT -> exponential survival, and the
product of the two survivals. An error in one of its stages names the
component and the stage, and rejected input stays an InputError.

Identical circuits are analysed once: a derating belongs to the circuit,
not to the component that holds a copy of it. A run parses each distinct
netlist text once, and runs an enumerated campaign (one that counts each
input vector once and reads no seed) once per net of a text, for every
component on it. A sampled derating still has its own seed per
component, so its campaign runs for each component on the text. A
netlist's workspace pool is emptied after each component, so one
workspace is alive at a time.

Every stochastic stage derives its own sub-seed from the master seed and a
stable label, so reruns are byte-identical and each stage can be
reproduced standalone with the same derived seed. Output files are
written only after the whole run has succeeded.
"""
from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

# thermal and aging are called through their modules so that a tracer can
# wrap their functions at one place.
from . import aging, rng, thermal
from ._version import __version__ as TOOL_VERSION
from .curves import (
    McCurve,
    SystemCurves,
    monte_carlo_system,
    system_reliability_curves,
    write_curves_csv,
)
from .errors import InputError, located, quoted, read_text
from .model import SystemModel
from .reliability import Exponential, Product, Weibull, mttf
from .softerror import enumerates, inject_campaign, injection_targets, parse_netlist, transient_failure_rate
from .thermal import read_power_trace, steady_state_temperature

__all__ = [
    "PipelineOptions",
    "ComponentAnalysis",
    "PipelineResult",
    "run_pipeline",
    "write_outputs",
    "report_to_json",
    "injection_seed",
    "MC_SEED_LABEL",
    "CURVES_FILENAME",
    "REPORT_FILENAME",
    "TOOL_VERSION",
]

CURVES_FILENAME = "curves.csv"
REPORT_FILENAME = "report.json"
MC_SEED_LABEL = "system-mc"

DEFAULT_INJECTION_TRIALS = 10_000


@dataclass(frozen=True)
class PipelineOptions:
    seed: Optional[int] = None
    injection_trials: int = DEFAULT_INJECTION_TRIALS
    mc_trials: Optional[int] = None


@dataclass(frozen=True)
class ComponentAnalysis:
    steady_state_temp_k: float  # equilibrium at the trace's mean power
    peak_temp_k: float
    lambda_eff_per_hour: float
    transient_lambda_per_hour: float
    injections: dict  # net -> InjectionResult
    r_perm: Weibull  # wear-out
    r_trans: Exponential  # soft errors
    combined_mttf_hours: float


@dataclass(frozen=True)
class PipelineResult:
    components: dict
    curves: SystemCurves
    mc: Optional[McCurve]
    report: dict


def injection_seed(master_seed: int, component_id: str, net: str) -> int:
    return rng.derive_seed(master_seed, f"inject/{component_id}/{net}")


def _analyze_component(node, options: PipelineOptions, netlists: dict, campaigns: dict) -> ComponentAnalysis:
    """One component's leaf analyses. A run shares netlists, each netlist
    text parsed so far -> its Netlist, and campaigns, (text, net) of an
    enumerated campaign or (text, net, component id) of a sampled one ->
    its InjectionResult; both are filled here."""
    cid = node.id
    payload = node.payload
    stage = f"component {quoted(cid)}, stage"

    with located(f"{stage} 'power-trace'"):
        trace = read_power_trace(io.StringIO(read_text(payload.power_trace), newline=""))

    with located(f"{stage} 'permanent-path'"):
        profile = thermal.simulate_temperature(trace, payload.thermal)
        lambda_eff = aging.failure_rate_from_profile(profile, payload.aging)
        if not lambda_eff > 0:
            raise InputError(f"failure rate must be positive, got {lambda_eff!r}")
        beta = payload.aging.weibull_beta
        try:
            r_perm = aging.weibull_from_mttf(1.0 / lambda_eff, beta)
        except ValueError as exc:
            raise InputError(
                f"wear-out rate {lambda_eff!r} per hour with weibull_beta {beta!r}: {exc}"
            ) from None
    peak_temp = max(profile.samples)
    mean_power = sum(trace.samples) / len(trace.samples)
    if not math.isfinite(mean_power):  # the sum overflows, not the mean
        mean_power = sum(x / len(trace.samples) for x in trace.samples)
    steady_temp = steady_state_temperature(mean_power, payload.thermal)

    with located(f"{stage} 'netlist'"):
        text = read_text(payload.netlist)
        if text not in netlists:
            netlists[text] = parse_netlist(text)
        netlist = netlists[text]

    with located(f"{stage} 'fault-injection'"):
        targets = injection_targets(netlist, payload.ser)
        if targets and options.seed is None:
            raise InputError("a master seed is required to run injection campaigns")
        # An enumerated derating is the circuit's own; a sampled one is the
        # component's, drawn from its own seed.
        owner = () if enumerates(netlist, options.injection_trials) else (cid,)
        for net in targets:
            if (text, net, *owner) not in campaigns:
                campaigns[text, net, *owner] = inject_campaign(
                    netlist, net, options.injection_trials, injection_seed(options.seed, cid, net)
                )
        injections = {net: campaigns[text, net, *owner] for net in targets}
        netlist.compiled.workspaces.clear()  # one workspace alive at a time

    with located(f"{stage} 'transient-path'"):
        deratings = {net: res.derating for net, res in injections.items()}
        lambda_trans = transient_failure_rate(netlist, payload.ser, deratings)
        r_trans = Exponential(lambda_trans)

    with located(f"{stage} 'combine'"):
        combined_mttf = mttf(Product((r_perm, r_trans)))  # independent competing risks

    return ComponentAnalysis(
        steady_state_temp_k=steady_temp,
        peak_temp_k=peak_temp,
        lambda_eff_per_hour=lambda_eff,
        transient_lambda_per_hour=lambda_trans,
        injections=injections,
        r_perm=r_perm,
        r_trans=r_trans,
        combined_mttf_hours=combined_mttf,
    )


def _grid_too_large(model: SystemModel) -> InputError:
    return InputError(
        f"grid_points {model.grid_points} is too large: the time grid and its curves "
        "do not fit in memory"
    )


def run_pipeline(model: SystemModel, options: PipelineOptions) -> PipelineResult:
    """Full analysis of a validated model; nothing is written to disk."""
    if options.injection_trials <= 0:
        raise InputError(f"injection_trials must be positive, got {options.injection_trials!r}")
    if options.mc_trials is not None:
        if options.mc_trials <= 0:
            raise InputError(f"mc_trials must be positive, got {options.mc_trials!r}")
        if options.seed is None:
            raise InputError("a master seed is required for the Monte Carlo check")
    # Allocated once, before any leaf work, so a grid too large for memory
    # fails at once as an input error; the curves below reuse it.
    try:
        grid = model.grid()
    except MemoryError:
        raise _grid_too_large(model) from None
    analyses, netlists, campaigns = {}, {}, {}
    for cid, node in model.components().items():
        analyses[cid] = _analyze_component(node, options, netlists, campaigns)

    modes = {cid: (a.r_perm, a.r_trans) for cid, a in analyses.items()}
    # The curves hold several grid-sized arrays, so a grid that fits once
    # may still not fit here.
    try:
        curves = system_reliability_curves(model, modes, grid)
        mc = None
        if options.mc_trials is not None:
            mc = monte_carlo_system(
                model.success_tree,
                modes,
                options.mc_trials,
                rng.derive_seed(options.seed, MC_SEED_LABEL),
                grid,
            )
    except MemoryError:
        raise _grid_too_large(model) from None

    report = _build_report(model, options, analyses, curves, mc)
    return PipelineResult(analyses, curves, mc, report)


def _dominance_summary(curves: SystemCurves) -> dict:
    ratio = curves.ratio
    onset_time = None
    onset_sign = 0
    crossing_time = None
    prev_sign = 0
    for t, r in zip(curves.grid, ratio):
        if r is None:
            break
        sign = 0 if abs(r - 1.0) <= 1e-12 else (1 if r > 1.0 else -1)
        if sign != 0 and onset_sign == 0:
            onset_sign, onset_time = sign, t
        if sign != 0 and prev_sign != 0 and sign != prev_sign and crossing_time is None:
            crossing_time = t
        if sign != 0:
            prev_sign = sign
    if onset_sign == 0:
        label = "balanced"
    elif onset_sign > 0:
        label = "transient faults dominate (ratio > 1)"
    else:
        label = "permanent faults dominate (ratio < 1)"
    return {
        "first_departure_time_hours": onset_time,
        "ratio_crossing_time_hours": crossing_time,
        "initial_regime": label,
    }


def _mc_section(curves: SystemCurves, mc: Optional[McCurve]):
    if mc is None:
        return {"skipped": True, "reason": "Monte Carlo check not requested (--mc-trials)"}
    exact = np.asarray(curves.r_sys)
    emp = np.asarray(mc.survival)
    se = np.sqrt(exact * (1.0 - exact) / mc.n_samples)
    inside = np.abs(emp - exact) <= 3.0 * se + 1e-15
    return {
        "n_samples": mc.n_samples,
        "max_abs_deviation": float(np.max(np.abs(emp - exact))),
        "within_3_stderr_fraction": float(np.mean(inside)),
    }


def _build_report(model, options, analyses, curves: SystemCurves, mc) -> dict:
    components = {}
    for cid in sorted(analyses):
        a = analyses[cid]
        components[cid] = {
            "steady_state_temp_k": a.steady_state_temp_k,
            "peak_temp_k": a.peak_temp_k,
            "lambda_eff_per_hour": a.lambda_eff_per_hour,
            "permanent_mttf_hours": 1.0 / a.lambda_eff_per_hour,
            "transient_lambda_per_hour": a.transient_lambda_per_hour,
            "combined_mttf_hours": a.combined_mttf_hours,
            "deratings": {
                net: {
                    "trials": res.trials,
                    "errors": res.errors,
                    "derating": res.derating,
                    "ci95_half_width": res.ci95_half_width,
                }
                for net, res in sorted(a.injections.items())
            },
        }
    return {
        "model": model.name,
        "tool_version": TOOL_VERSION,
        "run": {
            "seed": options.seed,
            "injection_trials": options.injection_trials,
            "mc_trials": options.mc_trials,
            "grid_points": model.grid_points,
            "time_horizon_hours": model.time_horizon_hours,
        },
        "components": components,
        "system": {
            "mttf_hours": curves.mttf_sys,
            "curve_file": CURVES_FILENAME,
            "dominance": _dominance_summary(curves),
            "monte_carlo": _mc_section(curves, mc),
        },
    }


def _finitize(obj):
    """Replace non-finite numbers with the string 'unbounded' for JSON."""
    if isinstance(obj, dict):
        return {k: _finitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "unbounded"
    return obj


def report_to_json(report: dict) -> str:
    return json.dumps(_finitize(report), indent=2, sort_keys=True) + "\n"


def write_outputs(result: PipelineResult, out_dir: str, report_text: Optional[str] = None) -> dict:
    """Atomically write report.json and curves.csv; returns their paths.

    report_text is report_to_json(result.report), for a caller that has
    already serialized the report; it is serialized here when omitted.
    """
    os.makedirs(out_dir, exist_ok=True)
    curve_buf = io.StringIO()
    write_curves_csv(result.curves, curve_buf)
    if report_text is None:
        report_text = report_to_json(result.report)
    payloads = {
        REPORT_FILENAME: report_text,
        CURVES_FILENAME: curve_buf.getvalue(),
    }
    paths = {}
    for name, text in payloads.items():
        final = os.path.join(out_dir, name)
        tmp = final + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
        os.replace(tmp, final)
        paths[name] = final
    return paths
