"""Deterministic synthetic system descriptions for the benchmark.

A generated system has N components. Each one carries a ripple-carry
adder netlist, a power trace and soft-error FIT rates, and the success
tree over the components is either an AND of all of them or a K-of-N
(K = N - 2) over ORs of neighbouring pairs around a ring, so that every
basic event is shared by two gates. What the seed varies (trace noise
and FIT rates) is drawn from ``random.Random(seed)``, so one seed always
gives byte-identical files.

The files use only what the shipped sample uses: the same JSON fields,
the canonical adapter chain and the plain netlist and CSV formats.

Run ``python3 perfbench/gen_system.py --help`` for the command line.
"""
from __future__ import annotations

import argparse
import json
import os
import random

SHAPES = ("kofn-pairs", "and")
TIME_HORIZON_HOURS = 20000.0

_CHAIN = {
    "permanent": ["PowerToTemperature", "TemperatureToFailureRate", "FailureRateToReliability"],
    "transient": ["FitToReliability"],
    "combine": ["CompetingRisksCombine"],
}


def adder_netlist(bits: int) -> str:
    """A ``bits``-wide ripple-carry adder with inputs a_i, b_i and c_0.

    Per bit: x = a XOR b, g = a AND b, s = x XOR c, p = x AND c and
    carry = g OR p, so the netlist has 2*bits + 1 inputs and 5*bits gates.
    Under uniform inputs every carry is 1 with probability 1/2, which
    gives the closed-form deratings the benchmark checks: a flip on
    a/b/c/x/s always reaches an output (derating 1), a flip on g or p
    reaches one unless the other is 1 (derating 3/4).
    """
    if bits < 1:
        raise ValueError(f"adder needs at least one bit, got {bits}")
    lines = [f"# {bits}-bit ripple-carry adder."]
    for i in range(bits):
        lines += [f"INPUT a{i}", f"INPUT b{i}"]
    lines.append("INPUT c0")
    for i in range(bits):
        lines += [
            f"GATE x{i} XOR a{i} b{i}",
            f"GATE g{i} AND a{i} b{i}",
            f"GATE s{i} XOR x{i} c{i}",
            f"GATE p{i} AND x{i} c{i}",
            f"GATE c{i + 1} OR g{i} p{i}",
        ]
    lines += [f"OUTPUT s{i}" for i in range(bits)]
    lines.append(f"OUTPUT c{bits}")
    return "\n".join(lines) + "\n"


def adder_derating(net: str) -> float:
    """Closed-form derating of a net of :func:`adder_netlist` under uniform inputs."""
    return 0.75 if net[0] in "gp" else 1.0


def success_tree(ids: list, shape: str) -> dict:
    events = [{"event": cid} for cid in ids]
    if shape == "and":
        return {"gate": "AND", "inputs": events}
    if shape == "kofn-pairs":
        n = len(ids)
        if n < 3:
            raise ValueError(f"kofn-pairs needs at least 3 components, got {n}")
        pairs = [{"gate": "OR", "inputs": [events[i], events[(i + 1) % n]]} for i in range(n)]
        return {"gate": "KOFN", "k": n - 2, "inputs": pairs}
    raise ValueError(f"unknown tree shape {shape!r}; expected one of {SHAPES}")


def _trace_csv(rnd: random.Random, base: float, samples: int) -> str:
    rows = ["time_s,power_w"]
    for k in range(samples):
        # A duty cycle of 40 s with a busy half, plus measurement noise.
        busy = 6.0 if (k // 20) % 2 == 0 else 0.0
        rows.append(f"{k}.0,{base + busy + rnd.uniform(-0.5, 0.5):.4f}")
    return "\n".join(rows) + "\n"


def generate(
    out_dir: str,
    *,
    components: int,
    adder_bits: int,
    grid_points: int,
    trace_len: int,
    shape: str,
    seed: int,
    name: str = "synthetic",
) -> str:
    """Write a system description and its files under ``out_dir``.

    Returns the path of ``system.json``. Writing the same arguments twice
    gives byte-identical files.
    """
    if components < 1:
        raise ValueError(f"need at least one component, got {components}")
    if trace_len < 2:
        raise ValueError(f"trace needs at least two samples, got {trace_len}")
    rnd = random.Random(seed)
    os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "netlists"), exist_ok=True)
    netlist = adder_netlist(adder_bits)
    n_nets = 7 * adder_bits + 1  # 2*bits + 1 inputs and 5*bits gates
    ids = [f"c{i:02d}" for i in range(components)]
    children = []
    for i, cid in enumerate(ids):
        trace = f"traces/{cid}_power.csv"
        net = f"netlists/{cid}.net"
        # Components differ by their index; the seed only adds noise, so
        # that systems drawn from different seeds have similar curves.
        _write(out_dir, trace, _trace_csv(rnd, 11.5 + 0.25 * (i % 5), trace_len))
        _write(out_dir, net, netlist)
        # About 1500 FIT per component whatever its size, so that wear-out
        # and soft errors both shape the system curves.
        default_fit = round(1500.0 * rnd.uniform(0.98, 1.02) / n_nets, 4)
        fit_per_node = {f"s{i}": round(4.0 * default_fit, 4) for i in range(adder_bits)}
        children.append(
            {
                "id": cid,
                "kind": "Component",
                "thermal": {"r_th": 2.2 + 0.05 * (i % 3), "c_th": 5.0, "t_ambient": 300.0},
                "aging": {"a_const": 1.0e6, "j_density": 1.0e6, "n_exp": 2.0, "ea_ev": 0.7, "weibull_beta": 2.0},
                "power_trace": trace,
                "netlist": net,
                "ser": {"default_fit": default_fit, "fit_per_node": fit_per_node},
            }
        )
    doc = {
        "name": name,
        "time_horizon_hours": TIME_HORIZON_HOURS,
        "grid_points": grid_points,
        "hierarchy": {"id": "system", "kind": "System", "children": children},
        "adapters": {cid: _CHAIN for cid in ids},
        "success_tree": success_tree(ids, shape),
    }
    path = os.path.join(out_dir, "system.json")
    _write(out_dir, "system.json", json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def _write(out_dir: str, rel: str, text: str) -> None:
    with open(os.path.join(out_dir, rel), "w", encoding="utf-8", newline="\n") as fp:
        fp.write(text)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="directory to write system.json and its files into")
    p.add_argument("--components", type=int, default=16)
    p.add_argument("--adder-bits", type=int, default=4)
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--trace-len", type=int, default=600)
    p.add_argument("--shape", choices=SHAPES, default="kofn-pairs")
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    print(
        generate(
            args.out,
            components=args.components,
            adder_bits=args.adder_bits,
            grid_points=args.grid_points,
            trace_len=args.trace_len,
            shape=args.shape,
            seed=args.seed,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
