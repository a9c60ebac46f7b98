"""Command-line front end.

Subcommands expose the full pipeline (`analyze`) and each leaf stage
standalone (`thermal`, `inject`, `tree-eval`). Every stochastic stage
requires an explicit seed; there is no silent time-based seeding. The
exit code follows the exception's type: 0 success, 1 an InputError or an
OSError (input that is rejected or cannot be read), 2 anything else.
"""
from __future__ import annotations

import argparse
import io
import json
import sys

from .errors import InputError, read_json, read_text
from .model import load_system_file
from .pipeline import (
    DEFAULT_INJECTION_TRIALS,
    PipelineOptions,
    report_to_json,
    run_pipeline,
    write_outputs,
)
from .softerror import (
    exhaustive_derating,
    inject_campaign,
    parse_netlist,
    read_workload,
    workload_campaign,
)
from .successtree import brute_force_probability, tree_from_dict, tree_probability
from .thermal import ThermalParams, read_power_trace, simulate_temperature, write_temperature_profile

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # Flag errors are input errors (exit 1), not runtime failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="reliatree", description="Cross-layer reliability analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[], help="run the full pipeline on a system description")
    p.add_argument("--system", required=True, help="system description JSON file")
    p.add_argument("--out", required=True, help="output directory for report.json and curves.csv")
    p.add_argument("--seed", type=int, help="master seed for all stochastic stages")
    p.add_argument(
        "--injection-trials",
        type=int,
        default=DEFAULT_INJECTION_TRIALS,
        help=f"Monte Carlo trials per injected net (default {DEFAULT_INJECTION_TRIALS})",
    )
    p.add_argument("--mc-trials", type=int, help="also run the system-level Monte Carlo check")

    p = sub.add_parser("thermal", help="simulate a temperature profile from a power trace")
    p.add_argument("--trace", required=True, help="power trace CSV (time_s,power_w)")
    p.add_argument("--rth", type=float, required=True, help="thermal resistance K/W")
    p.add_argument("--cth", type=float, required=True, help="thermal capacitance J/K")
    p.add_argument("--tamb", type=float, required=True, help="ambient temperature K")
    p.add_argument("--out", help="write the profile CSV here instead of stdout")

    p = sub.add_parser("inject", help="single-net fault injection on a netlist")
    p.add_argument("--netlist", required=True)
    p.add_argument("--node", required=True, help="net to flip")
    p.add_argument("--trials", type=int, help="Monte Carlo trials over uniform input vectors")
    p.add_argument("--seed", type=int, help="campaign seed")
    p.add_argument("--workload", help="workload file, one binary vector per line: counted exactly, no --trials/--seed")
    p.add_argument("--exhaustive", action="store_true", help="also/only compute the exact derating")
    p.add_argument("--out", help="write the result JSON here instead of stdout")

    p = sub.add_parser("tree-eval", help="evaluate a success tree on fixed probabilities")
    p.add_argument("--tree", required=True, help="success tree JSON file")
    p.add_argument("--probs", required=True, help="JSON object {component id: probability}")
    p.add_argument("--brute-force", action="store_true", help="use exhaustive enumeration")
    p.add_argument("--out", help="write the result JSON here instead of stdout")

    return parser


def _emit(document: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fp:
            fp.write(document)
    else:
        sys.stdout.write(document)


def _cmd_analyze(args) -> int:
    model = load_system_file(args.system)
    options = PipelineOptions(
        seed=args.seed, injection_trials=args.injection_trials, mc_trials=args.mc_trials
    )
    result = run_pipeline(model, options)
    # Serialized once: report.json and stdout get the same text.
    report_text = report_to_json(result.report)
    write_outputs(result, args.out, report_text)
    sys.stdout.write(report_text)
    return 0


def _cmd_thermal(args) -> int:
    params = ThermalParams(args.rth, args.cth, args.tamb)
    trace = read_power_trace(io.StringIO(read_text(args.trace), newline=""))
    profile = simulate_temperature(trace, params)
    buf = io.StringIO()
    write_temperature_profile(profile, buf)
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_inject(args) -> int:
    if args.workload is not None and (args.trials is not None or args.seed is not None):
        raise InputError("--workload counts each of its vectors once: give it without --trials and --seed")
    if args.workload is None and not args.exhaustive and (args.trials is None or args.seed is None):
        raise InputError("--trials and --seed are required unless --workload or --exhaustive is given")
    netlist = parse_netlist(read_text(args.netlist))
    document: dict = {"node": args.node}
    res = None
    if args.workload is not None:
        workload = read_workload(io.StringIO(read_text(args.workload), newline=""), len(netlist.inputs))
        res = workload_campaign(netlist, args.node, workload)
    elif args.trials is not None:
        if args.seed is None:
            raise InputError("--seed is required to run a campaign")
        res = inject_campaign(netlist, args.node, args.trials, args.seed)
        document["seed"] = args.seed
    if res is not None:
        document.update(
            trials=res.trials,
            errors=res.errors,
            derating=res.derating,
            ci95_half_width=res.ci95_half_width,
        )
    if args.exhaustive:
        document["exhaustive_derating"] = exhaustive_derating(netlist, args.node)
    _emit(json.dumps(document, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_tree_eval(args) -> int:
    tree = tree_from_dict(read_json(read_text(args.tree), f"tree file {args.tree!r}"))
    probs = read_json(read_text(args.probs), f"probabilities file {args.probs!r}")
    if not isinstance(probs, dict):
        raise InputError("probabilities file must be a JSON object")
    if args.brute_force:
        value = brute_force_probability(tree, probs)
        method = "brute-force"
    else:
        value = tree_probability(tree, probs)
        method = "shannon"
    _emit(
        json.dumps({"probability": value, "method": method}, indent=2, sort_keys=True) + "\n",
        args.out,
    )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "thermal": _cmd_thermal,
    "inject": _cmd_inject,
    "tree-eval": _cmd_tree_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
