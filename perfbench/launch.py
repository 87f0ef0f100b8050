"""Child-process launcher: runs one workload's program side.

Usage (the harness in ``run.py`` builds the spec file)::

    python3 perfbench/launch.py setup SPEC          # set-up only, then exit
    python3 perfbench/launch.py fig1 SPEC [--trace SPANS]
    python3 perfbench/launch.py fig2 SPEC [--trace SPANS]
    python3 perfbench/launch.py serve SPANS <repro serve args>

The batch modes first do the set-up a user's run pays (interpreter,
imports, topology and trace load, demand build) and print ``ready`` on
stdout, then run the measured pass and print ``done``.  With tracing (always
on for ``serve``) the public functions listed in :mod:`spans` are wrapped
before the program is imported, and the spans plus the program's ``PERF``
counters are written to SPANS when the process ends (for ``serve``, after
the SIGTERM drain returns from the CLI).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

FIG2_CLASS = "storage-constrained"


def _import_program(tracer):
    """Import the CLI (the ``cli.import`` span when traced)."""
    context = tracer.span("cli.import") if tracer else contextlib.nullcontext()
    with context:
        if tracer:
            tracer.install()
        import repro.cli

    return repro.cli


def _setup(spec):
    """Load the first round's inputs exactly as a CLI run does before solving."""
    from repro.topology.io import load_topology
    from repro.workload.demand import DemandMatrix
    from repro.workload.io import load_trace

    load_topology(spec["topology"])
    trace = load_trace(spec["traces"][0])
    DemandMatrix.from_trace(trace, num_intervals=spec["intervals"])


def _fig1_pass(cli, spec, out: Path):
    """``repro sweep --rounding --jobs 1`` once per round, through the CLI."""
    rounds = []
    for r, trace_path in enumerate(spec["traces"]):
        argv = [
            "sweep", "-t", spec["topology"], "-w", trace_path,
            "--rounding", "--jobs", "1",
            "--intervals", str(spec["intervals"]),
            "--warmup", str(spec["warmup"]),
            "--tlat", str(spec["tlat"]),
            "--levels", *[str(v) for v in spec["levels"]],
            "--run-dir", str(out / f"run{r}"),
            "--csv", str(out / f"sweep{r}.csv"),
            "--json",
        ]
        t0 = time.monotonic()
        with open(out / f"sweep{r}.json", "w") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(argv)
        rounds.append({"seconds": time.monotonic() - t0, "exit": code})
    return {"rounds": rounds}


def _fig2_pass(spec, out: Path):
    """Figure-2 sizing through the public functions, once per round."""
    from repro.core.bounds import compute_lower_bound
    from repro.core.classes import get_class
    from repro.core.costs import CostModel
    from repro.core.goals import QoSGoal
    from repro.core.problem import MCPerfProblem
    from repro.heuristics.caching import LRUCaching
    from repro.heuristics.greedy_global import GreedyGlobalPlacement
    from repro.simulator.metrics import heuristic_cost
    from repro.simulator.sizing import min_capacity_for_goal
    from repro.topology.io import load_topology
    from repro.workload.demand import DemandMatrix
    from repro.workload.io import load_trace

    intervals, tlat = spec["intervals"], spec["tlat"]
    topology = load_topology(spec["topology"])
    props = get_class(FIG2_CLASS).properties
    rounds = []
    for trace_path in spec["traces"]:
        t0 = time.monotonic()
        trace = load_trace(trace_path)
        demand = DemandMatrix.from_trace(trace, num_intervals=intervals)
        interval_s = trace.duration_s / intervals
        makers = {
            "greedy-global": lambda c: GreedyGlobalPlacement(
                c, period_s=interval_s, tlat_ms=tlat
            ),
            "lru": lambda c: LRUCaching(c),
        }
        cells = []
        for level in spec["levels"]:
            problem = MCPerfProblem(
                topology=topology,
                demand=demand,
                goal=QoSGoal(tlat_ms=tlat, fraction=level),
                costs=CostModel(),
                warmup_intervals=spec["warmup"],
            )
            b0 = time.monotonic()
            bound = compute_lower_bound(problem, props, do_rounding=False)
            cell = {
                "level": level,
                "bound_s": time.monotonic() - b0,
                "bound_feasible": bound.feasible,
                "lp_cost": bound.lp_cost,
                "sized": {},
            }
            for name, make in makers.items():
                sizing = min_capacity_for_goal(
                    make, topology, trace,
                    tlat_ms=tlat, fraction=level,
                    warmup_s=spec["warmup"] * interval_s,
                    cost_interval_s=interval_s,
                )
                row = {"feasible": sizing.feasible, "simulations": sizing.simulations}
                if sizing.feasible:
                    cost = heuristic_cost(
                        sizing.result, mode="sc",
                        num_nodes=topology.num_nodes - 1,
                        num_intervals=intervals,
                        capacity=sizing.value,
                    )
                    row.update(
                        capacity=sizing.value,
                        cost=cost.total,
                        reads=sizing.result.reads,
                        min_node_qos=sizing.result.min_node_qos,
                    )
                cell["sized"][name] = row
            cells.append(cell)
        rounds.append({"seconds": time.monotonic() - t0, "cells": cells})
    return {"rounds": rounds}


def _dump_trace(tracer, path, window):
    from repro.perf import PERF

    tracer.dump(path, {"perf": PERF.snapshot(), "window": window})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["serve"] and len(argv) >= 2:
        # The traced daemon: SPANS, then the `repro serve` arguments verbatim.
        tracer = Tracer()
        cli = _import_program(tracer)
        start = time.monotonic()
        try:
            return cli.main(["serve", *argv[2:]])
        finally:
            _dump_trace(tracer, argv[1], [start, time.monotonic()])

    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("mode", choices=["setup", "fig1", "fig2"])
    parser.add_argument("spec")
    parser.add_argument("--trace", default=None, metavar="SPANS")
    args = parser.parse_args(argv)
    tracer = Tracer() if args.trace else None
    cli = _import_program(tracer)
    spec = json.loads(Path(args.spec).read_text())
    _setup(spec)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    out = Path(spec["out"])
    start = time.monotonic()
    if args.mode == "fig1":
        result = _fig1_pass(cli, spec, out)
    else:
        result = _fig2_pass(spec, out)
    end = time.monotonic()
    result.update(
        pass_s=end - start,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        window=[start, end],
    )
    (out / "launch.json").write_text(json.dumps(result))
    if tracer:
        _dump_trace(tracer, args.trace, [start, end])
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
