"""Rejected input raises InputError, a ValueError, from the check that
finds it; a check on a value the program computed raises a plain
ValueError, so the CLI tells the two apart (exit 1 against exit 2)."""
import pytest

from reliatree.aging import AgingParams
from reliatree.errors import InputError, located
from reliatree.reliability import Weibull
from reliatree.softerror import SerParams, exhaustive_derating, inject_campaign, parse_netlist, workload_campaign
from reliatree.successtree import AndGate, KofNGate, OrGate, brute_force_probability
from reliatree.thermal import PowerTrace, TemperatureProfile, ThermalParams, simulate_temperature

from conftest import AND2

# An OR of 25 inputs, one more than exhaustive enumeration takes.
NETS = [f"i{k}" for k in range(25)]
WIDE = "".join(f"INPUT {n}\n" for n in NETS) + f"GATE o OR {' '.join(NETS)}\nOUTPUT o\n"
EVENTS = [f"e{k}" for k in range(21)]
AGING = dict(a_const=1e6, j_density=1.0, n_exp=2.0, ea_ev=0.7, weibull_beta=2.0)

CASES = {
    "thermal-r_th": (lambda: ThermalParams(0.0, 1.0, 300.0), "thermal r_th must be positive"),
    "thermal-tau": (lambda: ThermalParams(1e-200, 1e-200, 300.0), "underflows to 0"),
    "thermal-tau-overflow": (lambda: ThermalParams(1e200, 1e200, 300.0), "r_th * c_th overflows a float"),
    "thermal-step": (
        lambda: simulate_temperature(PowerTrace(5e-324, (1.0, 2.0)), ThermalParams(2.0, 1.0, 300.0)),
        "trace step dt / tau underflows to 0",
    ),
    "aging-a_const": (lambda: AgingParams(**dict(AGING, a_const=-1.0)), "aging a_const must be positive"),
    "aging-n_exp": (lambda: AgingParams(**dict(AGING, n_exp=-1.0)), "aging n_exp must be >= 0"),
    "aging-beta": (lambda: AgingParams(**dict(AGING, weibull_beta=0.005)), "Gamma(1 + 1/beta) overflows"),
    "ser-default": (lambda: SerParams({}, -1.0), "default FIT"),
    "ser-net": (lambda: SerParams({"a": float("inf")}, 0.0), "FIT for 'a'"),
    "kofn-empty": (lambda: KofNGate(1, ()), "K-of-N gate needs at least one input"),
    "kofn-k": (lambda: KofNGate(3, EVENTS[:2]), "1 <= k <= 2"),
    "and-empty": (lambda: AndGate(()), "AND gate needs at least one input"),
    "or-empty": (lambda: OrGate(()), "OR gate needs at least one input"),
    "inject-node": (lambda: inject_campaign(parse_netlist(AND2), "nosuch", 10, 1), "unknown injection node"),
    "exhaustive-node": (lambda: exhaustive_derating(parse_netlist(AND2), "nosuch"), "unknown injection node"),
    "trials": (lambda: inject_campaign(parse_netlist(AND2), "a", 0, 1), "trials must be positive"),
    "workload-node": (lambda: workload_campaign(parse_netlist(AND2), "nosuch", [(0, 1)]), "unknown injection node"),
    "workload-ragged": (lambda: workload_campaign(parse_netlist(AND2), "a", [(0, 1), (1,)]), "differ in length"),
    "workload-empty": (lambda: workload_campaign(parse_netlist(AND2), "a", []), "workload is empty"),
    "workload-shape": (lambda: workload_campaign(parse_netlist(AND2), "a", [0, 1]), "2-D array"),
    "workload-binary": (lambda: workload_campaign(parse_netlist(AND2), "a", [(0, 2)]), "binary"),
    "exhaustive-size": (lambda: exhaustive_derating(parse_netlist(WIDE), "i0"), "limited to 24 inputs, got 25"),
    "brute-force-size": (
        lambda: brute_force_probability(AndGate(EVENTS), dict.fromkeys(EVENTS, 0.5)),
        "brute force limited to 20 events, got 21",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_input_raises_input_error(case):
    build, message = CASES[case]
    with pytest.raises(InputError) as err:
        build()
    assert message in str(err.value)


@pytest.mark.parametrize(
    "build",
    [lambda: TemperatureProfile(1.0, (0.0,)), lambda: Weibull(0.0, 1.0)],
    ids=["temperature-profile", "weibull"],
)
def test_computed_value_check_raises_plain_value_error(build):
    with pytest.raises(ValueError) as err:
        build()
    assert not isinstance(err.value, InputError)


@pytest.mark.parametrize(
    "raised, kind, message",
    [
        (InputError("bad value"), InputError, "where: bad value"),
        (PermissionError(13, "Permission denied", "a.net"), PermissionError, "[Errno 13] Permission denied: 'a.net'"),
        (ZeroDivisionError("division by zero"), RuntimeError, "where: division by zero"),
    ],
    ids=["input", "unreadable-file", "program"],
)
def test_located_keeps_the_kind_of_error(raised, kind, message):
    # Rejected input stays an InputError and an unreadable file an OSError;
    # anything else is a failure of the program, a RuntimeError.
    with pytest.raises(Exception) as err:
        with located("where"):
            raise raised
    assert type(err.value) is kind and str(err.value) == message


def test_no_second_exception_type_for_stages():
    with pytest.raises(ImportError):
        from reliatree import StageError  # noqa: F401
