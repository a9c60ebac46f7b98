"""Cross-layer reliability analysis: per-component permanent-fault
(power -> temperature -> wear-out) and transient-fault (fault injection ->
soft error rate) analyses, combined as competing risks and composed
through a success tree into system-level reliability curves, MTTF, and a
fault-type dominance ratio.
"""

from ._version import __version__
from .aging import (
    AgingParams,
    black_mttf,
    failure_rate_from_profile,
    weibull_from_mttf,
)
from .curves import (
    McCurve,
    SystemCurves,
    monte_carlo_system,
    system_reliability_curves,
    write_curves_csv,
)
from .errors import InputError, StageError
from .model import (
    ComponentPayload,
    HierarchyNode,
    SystemModel,
    load_system,
    load_system_file,
)
from .pipeline import (
    PipelineOptions,
    PipelineResult,
    run_pipeline,
    write_outputs,
)
from .reliability import (
    Exponential,
    Product,
    ReliabilityFunction,
    Weibull,
    mttf,
    reliability_at,
)
from .softerror import (
    InjectionResult,
    Netlist,
    SerParams,
    evaluate,
    exhaustive_derating,
    inject_campaign,
    parse_netlist,
    transient_failure_rate,
    wilson_interval,
)
from .successtree import (
    AndGate,
    Gate,
    KofNGate,
    OrGate,
    basic_events,
    brute_force_probability,
    tree_probability,
)
from .thermal import (
    PowerTrace,
    TemperatureProfile,
    ThermalParams,
    simulate_temperature,
    steady_state_temperature,
)
