"""Correctness checks on one analysis, against oracles outside the pipeline.

Component survival functions are rebuilt from the numbers in report.json
(Weibull wear-out from the permanent rate, exponential soft errors from
the transient rate), so every check depends only on the program's
outputs and on reliatree's oracles: brute-force tree enumeration,
exhaustive injection, and scipy quadrature of the exact system survival.
"""
from __future__ import annotations

import csv
import io
import math
import statistics

from reliatree.reliability import Exponential, Product, Weibull, reliability_at
from reliatree.softerror import exhaustive_derating, parse_netlist
from reliatree.successtree import AndGate, brute_force_probability, tree_probability

# Chance, per analysis, that a correct program fails one of the Monte
# Carlo derating checks; the Wilson z is set from it and the number of nets.
FAMILY_ALPHA = 1e-4
# Differences below this share of the reference MTTF are reported as
# this share: the quadrature reference is only trusted to about 1e-8.
MTTF_ERR_FLOOR = 1e-6
CURVE_ABS_TOL = 1e-11
TAIL_SURVIVAL = 1e-13


class CheckLog:
    """Outcome of each correctness check; each counts as one operation."""

    def __init__(self):
        self.results = []  # (name, ok, detail)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def read_curves(text: str) -> list:
    """Rows of curves.csv as (t, r_sys) floats."""
    rows = list(csv.reader(io.StringIO(text)))
    return [(float(r[0]), float(r[1])) for r in rows[1:]]


def component_functions(model, report: dict) -> dict:
    """Combined survival of each component, rebuilt from the report."""
    funcs = {}
    for cid, node in model.components().items():
        entry = report["components"][cid]
        beta = node.payload.aging.weibull_beta
        mean = 1.0 / entry["lambda_eff_per_hour"]
        factors = [Weibull(mean / math.gamma(1.0 + 1.0 / beta), beta)]
        lam = entry["transient_lambda_per_hour"]
        if lam > 0.0:
            factors.append(Exponential(lam))
        funcs[cid] = Product(tuple(factors))
    return funcs


def _probs(funcs: dict, t: float) -> dict:
    return {cid: reliability_at(rf, t) for cid, rf in funcs.items()}


def check_curve(log: CheckLog, model, funcs: dict, rows: list, picks: list) -> None:
    """r_sys at the picked grid rows against brute force and the reference integrand."""
    worst_bf = worst_ref = 0.0
    for i in picks:
        t, r_sys = rows[i]
        probs = _probs(funcs, t)
        worst_bf = max(worst_bf, abs(brute_force_probability(model.success_tree, probs) - r_sys))
        worst_ref = max(worst_ref, abs(tree_probability(model.success_tree, probs) - r_sys))
    log.check(
        f"r_sys equals brute-force enumeration at {len(picks)} grid points",
        worst_bf <= CURVE_ABS_TOL,
        f"max |diff| {worst_bf:.3g}",
    )
    log.check(
        "reference survival equals r_sys at the same points",
        worst_ref <= CURVE_ABS_TOL,
        f"max |diff| {worst_ref:.3g}",
    )
    log.check("curves.csv has one row per grid point", len(rows) == model.grid_points, f"{len(rows)} rows")


def reference_mttf(model, funcs: dict) -> float:
    """Exact system MTTF: scipy quad of tree_probability over reliability_at."""
    from scipy.integrate import quad

    def survival(t: float) -> float:
        return tree_probability(model.success_tree, _probs(funcs, t))

    end = model.time_horizon_hours
    while survival(end) > TAIL_SURVIVAL:
        end *= 2.0
    total = 0.0
    lo = 0.0
    hi = end / 8.0
    while lo < end:
        total += quad(survival, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)[0]
        lo, hi = hi, hi * 2.0
    return total


def check_mttf_reference(log: CheckLog, model, report: dict, reference: float) -> float:
    """Sanity of the reference; returns mttf_rel_err, floored at MTTF_ERR_FLOOR."""
    log.check("reference MTTF is finite and positive", math.isfinite(reference) and reference > 0.0)
    if isinstance(model.success_tree, AndGate):
        weakest = min(c["combined_mttf_hours"] for c in report["components"].values())
        log.check(
            "reference MTTF respects the series bound",
            reference <= weakest * (1.0 + 1e-5),
            f"reference {reference:.6g} h, weakest component {weakest:.6g} h",
        )
    reported = report["system"]["mttf_hours"]
    if not isinstance(reported, float) or not math.isfinite(reported):
        return math.inf
    return max(abs(reported - reference) / reference, MTTF_ERR_FLOOR)


def _wilson(errors: int, trials: int, z: float):
    p = errors / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials)) / denom
    return center, half


def check_deratings(log: CheckLog, model, report: dict, exact_for) -> None:
    """Every injected net against its exact derating.

    ``exact_for(netlist, net)`` gives the exact value. A net that always
    (never) reaches an output must err in every (no) trial; any other
    must hold its exact value inside a Wilson interval whose z is
    Bonferroni-corrected over all nets.
    """
    components = model.components()
    total = sum(len(report["components"][cid]["deratings"]) for cid in components)
    z = statistics.NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * max(total, 1)))
    for cid, node in sorted(components.items()):
        with open(node.payload.netlist, "r", encoding="utf-8") as fp:
            netlist = parse_netlist(fp.read())
        deratings = report["components"][cid]["deratings"]
        log.check(
            f"{cid}: every net with nonzero FIT was injected",
            set(deratings) == {n for n in netlist.nets() if node.payload.ser.fit_for(n) > 0.0},
        )
        bad = []
        for net, res in deratings.items():
            exact = exact_for(netlist, net)
            errors, trials = res["errors"], res["trials"]
            if exact in (0.0, 1.0):
                ok = errors == round(exact * trials)
            else:
                center, half = _wilson(errors, trials, z)
                ok = abs(center - exact) <= half
            if not ok:
                bad.append(f"{net}: {errors}/{trials} vs exact {exact}")
        log.check(f"{cid}: {len(deratings)} deratings agree with the exact oracle (z={z:.2f})", not bad, "; ".join(bad[:3]))


def exhaustive_oracle():
    """exact_for() by enumerating every input vector; cached per net."""
    cache = {}

    def exact_for(netlist, net):
        key = (netlist, net)
        if key not in cache:
            cache[key] = exhaustive_derating(netlist, net)
        return cache[key]

    return exact_for


def check_closed_form(log: CheckLog, netlist_text: str, closed_form) -> None:
    """The closed-form derating against exhaustive enumeration on a small netlist."""
    netlist = parse_netlist(netlist_text)
    bad = [n for n in netlist.nets() if exhaustive_derating(netlist, n) != closed_form(n)]
    log.check(
        f"closed-form derating equals exhaustive enumeration on all {len(netlist.nets())} nets of a small adder",
        not bad,
        ", ".join(bad[:5]),
    )


def check_monte_carlo(log: CheckLog, report: dict, mc_trials: int) -> None:
    section = report["system"]["monte_carlo"]
    log.check("system Monte Carlo ran with the requested samples", section.get("n_samples") == mc_trials)
    frac = section.get("within_3_stderr_fraction", 0.0)
    log.check("Monte Carlo survival within 3 standard errors at >= 90% of grid points", frac >= 0.9, f"{frac:.4f}")
