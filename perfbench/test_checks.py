"""Each output check accepts the program's output and rejects a corrupted copy.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py -q

The instances are small (8 sites, 20 objects) so the whole file runs in a
few seconds; the corruptions are the ones a broken optimisation would most
plausibly produce: a replica missing from a rounded placement, a sized
capacity one too small, and two classes' bound answers swapped.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402

TLAT, INTERVALS, WARMUP = 150.0, 8, 1
CLASSES = ["general", "storage-constrained", "replica-constrained"]
LEVELS = [0.8, 0.9]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    from repro.topology.generators import as_level_topology
    from repro.topology.io import save_topology
    from repro.workload.generators import web_workload
    from repro.workload.io import save_trace

    root = tmp_path_factory.mktemp("small")
    topology = as_level_topology(num_nodes=8, seed=2)
    trace = web_workload(
        num_nodes=8, num_objects=20, populations=topology.populations,
        requests_scale=0.02, seed=5,
    )
    save_topology(topology, str(root / "topology.json"))
    save_trace(trace, str(root / "trace.json"))
    return root, topology, trace


@pytest.fixture(scope="module")
def sweep(small):
    from repro.cli import main

    root, _topology, _trace = small
    argv = [
        "sweep", "-t", str(root / "topology.json"), "-w", str(root / "trace.json"),
        "--rounding", "--levels", *map(str, LEVELS), "--classes", *CLASSES,
        "--run-dir", str(root / "runs"), "--csv", str(root / "sweep.csv"), "--json",
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    run_dir = next((root / "runs").iterdir())
    inputs = checks.Inputs(root / "topology.json", root / "trace.json")
    return inputs, lambda: checks.read_sweep(run_dir, root / "sweep.csv")


def test_sweep_check_rejects_a_removed_replica(sweep):
    inputs, read = sweep
    assert checks.check_sweep(inputs, read(), CLASSES, LEVELS, TLAT, WARMUP) == []
    for level in LEVELS:
        held = np.argwhere(read()[("general", level)]["store"] > 0.5)
        for which in (0, len(held) // 2, len(held) - 1):
            cells = read()
            cells[("general", level)]["store"][tuple(held[which])] = 0.0
            errors = checks.check_sweep(inputs, cells, CLASSES, LEVELS, TLAT, WARMUP)
            assert errors, f"no check failed with replica {held[which]} removed at {level}"


def test_sweep_check_rejects_swapped_class_bounds(sweep):
    inputs, read = sweep
    cells = read()
    general, other = cells[("general", 0.9)], cells[("storage-constrained", 0.9)]
    general["bound"], other["bound"] = other["bound"], general["bound"]
    assert checks.check_sweep(inputs, cells, CLASSES, LEVELS, TLAT, WARMUP)


def _sizing_cell(topology, trace, level):
    from repro.heuristics.caching import LRUCaching
    from repro.simulator.sizing import min_capacity_for_goal

    interval_s = trace.duration_s / INTERVALS
    sizing = min_capacity_for_goal(
        lambda c: LRUCaching(c), topology, trace, tlat_ms=TLAT, fraction=level,
        warmup_s=WARMUP * interval_s, cost_interval_s=interval_s,
    )
    assert sizing.feasible
    row = {
        "feasible": True, "capacity": sizing.value, "cost": 1e9,
        "reads": sizing.result.reads, "min_node_qos": sizing.result.min_node_qos,
    }
    return {"level": level, "bound_feasible": True, "lp_cost": 0.0, "sized": {"lru": row}}


def test_sizing_check_rejects_a_lowered_capacity(small):
    root, topology, trace = small
    inputs = checks.Inputs(root / "topology.json", root / "trace.json")
    cell = _sizing_cell(topology, trace, 0.8)
    assert cell["sized"]["lru"]["capacity"] > 0
    assert checks.check_sizing(inputs, [cell], TLAT, INTERVALS, WARMUP) == []
    cell["sized"]["lru"]["capacity"] -= 1
    assert checks.check_sizing(inputs, [cell], TLAT, INTERVALS, WARMUP)


def test_lru_model_matches_the_simulator(small):
    from repro.heuristics.caching import LRUCaching
    from repro.simulator.engine import Simulator

    root, topology, trace = small
    inputs = checks.Inputs(root / "topology.json", root / "trace.json")
    warmup_s = WARMUP * trace.duration_s / INTERVALS
    for capacity in (0, 1, 3, 20):
        result = Simulator(topology, trace, LRUCaching(capacity), TLAT, warmup_s=warmup_s).run()
        assert checks.lru_min_qos(inputs, capacity, TLAT, warmup_s) == result.min_node_qos


def test_bound_check_rejects_swapped_answers(small):
    from repro.core.bounds import compute_lower_bound
    from repro.core.classes import get_class
    from repro.core.goals import QoSGoal
    from repro.core.problem import MCPerfProblem
    from repro.workload.demand import DemandMatrix

    _root, topology, trace = small
    demand = DemandMatrix.from_trace(trace, num_intervals=4)
    answers = {}
    for cls in ("general", "storage-constrained"):
        for qos in LEVELS:
            problem = MCPerfProblem(topology, demand, QoSGoal(tlat_ms=TLAT, fraction=qos))
            result = compute_lower_bound(problem, get_class(cls).properties)
            answers[(cls, qos, 0)] = {
                "feasible": result.feasible, "lp_cost": result.lp_cost,
                "feasible_cost": result.feasible_cost,
            }
    assert checks.check_bounds(answers) == []
    general, other = ("general", 0.9, 0), ("storage-constrained", 0.9, 0)
    assert answers[general]["lp_cost"] < answers[other]["lp_cost"]
    answers[general], answers[other] = answers[other], answers[general]
    assert checks.check_bounds(answers)


def test_cost_read_check_rejects_a_falling_cost():
    assert checks.check_cost_reads([(1, 10.0), (2, 12.0), (2, 12.0), (3, 15.0)]) == []
    assert checks.check_cost_reads([(1, 10.0), (2, 9.0)])
    assert checks.check_cost_reads([(2, 12.0), (2, 13.0)])
