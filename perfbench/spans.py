"""Per-layer spans recorded from outside the program.

The program has no span recorder of its own yet, so a traced analysis
replaces the public functions the pipeline calls, at the module
attributes it looks them up through, with timing wrappers, and puts the
originals back afterwards. Every span adds its duration to its parent,
so a layer's self time is its duration minus its children's, and the
self times of all spans add up to the root span.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

ROOT_SPAN = "pipeline"
MTTF_SPAN = "reliability.mttf"

# (module, attribute, span). One span may be reached through several
# names, because modules import functions by name.
SPANS = (
    ("reliatree.cli", "load_system_file", "model.load"),
    ("reliatree.pipeline", "read_power_trace", "thermal.read_trace"),
    ("reliatree.thermal", "simulate_temperature", "thermal.simulate"),
    ("reliatree.aging", "failure_rate_from_profile", "aging.rate"),
    ("reliatree.pipeline", "apply_adapter", "adapters.apply"),
    ("reliatree.pipeline", "parse_netlist", "softerror.parse"),
    ("reliatree.pipeline", "inject_campaign", "softerror.inject"),
    ("reliatree.rng", "word_block", "rng.word_block"),
    ("reliatree.pipeline", "mttf", MTTF_SPAN),
    ("reliatree.curves", "mttf", MTTF_SPAN),
    ("reliatree.curves", "reliability_at", "reliability.at"),
    ("reliatree.curves", "tree_probability", "successtree.prob"),
    ("reliatree.pipeline", "system_reliability_curves", "curves.system_curves"),
    ("reliatree.pipeline", "monte_carlo_system", "curves.mc"),
    ("reliatree.pipeline", "write_curves_csv", "curves.write_csv"),
    ("reliatree.pipeline", "report_to_json", "pipeline.report_json"),
    ("reliatree.cli", "report_to_json", "pipeline.report_json"),
    ("reliatree.cli", "write_outputs", "pipeline.write"),
)

# Survival evaluations made by the MTTF quadrature go through this
# module-level name; they are counted, not timed, so that mttf keeps
# their time as its own.
QUAD_TARGET = ("reliatree.reliability", "reliability_at")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and work counts of one traced call."""

    def __init__(self):
        self.total = defaultdict(float)  # inclusive seconds per span
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.injections = []  # (netlist, node, trials) per campaign
        self.missing = []  # targets this version of the program lacks
        self._stack = []  # [span, seconds covered by children] per open span
        self._saved = []  # (module, attribute, original)

    def call(self, span: str, fn, *args, **kwargs):
        """Run fn as a span; used for the root of a traced analysis."""
        return self._timed(span, fn)(*args, **kwargs)

    def _timed(self, span: str, fn):
        stack = self._stack
        on_call = getattr(self, "_on_" + span.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                self.total[span] += seconds
                self.self_time[span] += seconds - frame[1]
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += seconds

        return wrapper

    def _quad_counter(self, fn):
        stack = self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] != MTTF_SPAN:
                return fn(*args, **kwargs)
            counts["reliability.quad_evals"] += 1
            # Hide the factor evaluations nested inside this one.
            stack.append(["reliability.quad_eval", 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    def _on_softerror_inject(self, args, kwargs):
        self.injections.append(
            (_arg(args, kwargs, 0, "netlist"), _arg(args, kwargs, 1, "node"), _arg(args, kwargs, 2, "trials"))
        )

    def _on_rng_word_block(self, args, kwargs):
        self.counts["rng.words"] += _arg(args, kwargs, 2, "count")

    def _on_thermal_simulate(self, args, kwargs):
        self.counts["thermal.samples"] += len(_arg(args, kwargs, 0, "trace").samples)

    def _on_curves_mc(self, args, kwargs):
        self.counts["curves.mc_samples"] += _arg(args, kwargs, 2, "n_samples")

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            for module_name, attr, span in SPANS:
                self._patch(module_name, attr, lambda fn, span=span: self._timed(span, fn))
            self._patch(*QUAD_TARGET, self._quad_counter)
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all(getattr(module, attr) is original for module, attr, original in self._saved)
