"""Output checks, computed apart from the program.

Everything here reads the program's input and output files and recomputes
what it can with NumPy and the standard library: per-user QoS of a rounded
placement, its storage-plus-creation cost under the class's accounting
(Figure 5 of the paper), and an LRU replay for the sizing answers.  The
rest are properties the method must have (bound <= rounded cost, general
<= every class, bounds that rise with the QoS level).  Each check returns
a list of error strings; empty means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Relative slack for comparisons between two LP optima.
TOL = 1e-6


class Inputs:
    """The topology and one trace, read straight from their JSON files."""

    def __init__(self, topology_path, trace_path):
        topo = json.loads(Path(topology_path).read_text())
        self.latency = np.asarray(topo["latency"], dtype=float)
        self.origin = int(topo["origin"])
        trace = json.loads(Path(trace_path).read_text())
        self.duration_s = float(trace["duration_s"])
        self.num_nodes = int(trace["num_nodes"])
        self.num_objects = int(trace["num_objects"])
        self.times = np.asarray(trace["times"], dtype=float)
        self.nodes = np.asarray(trace["nodes"], dtype=np.int64)
        self.objects = np.asarray(trace["objects"], dtype=np.int64)
        self.writes = np.asarray(trace["writes"], dtype=bool)

    def reads(self, intervals: int) -> np.ndarray:
        """``(nodes, intervals, objects)`` read counts."""
        out = np.zeros((self.num_nodes, intervals, self.num_objects))
        step = self.duration_s / intervals
        idx = np.minimum((self.times / step).astype(np.int64), intervals - 1)
        r = ~self.writes
        np.add.at(out, (self.nodes[r], idx[r], self.objects[r]), 1.0)
        return out

    def reads_after(self, t0: float) -> int:
        return int(np.count_nonzero(~self.writes & (self.times >= t0)))


# -- Figure 1: rounded placements ---------------------------------------------


def placement_qos(
    inputs: Inputs, store: np.ndarray, props: Dict[str, object],
    tlat: float, warmup: int,
) -> Dict[int, float]:
    """Covered-read fraction per user of an integral ``(storers, I, K)`` store."""
    intervals = store.shape[1]
    storers = np.array([n for n in range(inputs.num_nodes) if n != inputs.origin])
    reach = inputs.latency[:, storers] <= tlat
    if props["routing"] == "local":
        reach &= storers[None, :] == np.arange(inputs.num_nodes)[:, None]
    held = store > 0.5
    covered = np.einsum("ds,sik->dik", reach.astype(np.int64), held.astype(np.int64)) > 0
    covered[inputs.latency[:, inputs.origin] <= tlat] = True
    reads = inputs.reads(intervals)
    reads[:, :warmup, :] = 0.0
    out = {}
    for user in range(inputs.num_nodes):
        total = reads[user].sum()
        if total > 0:
            out[user] = float((reads[user] * covered[user]).sum() / total)
    return out


def placement_cost(
    inputs: Inputs, store: np.ndarray, props: Dict[str, object],
    alpha: float, beta: float, warmup: int,
) -> Tuple[float, float]:
    """``(storage, creation)`` cost with the class's capacity paddings."""
    held = (store > 0.5).astype(float)
    storers, intervals, _objects = held.shape
    previous = np.zeros_like(held)
    previous[:, 1:, :] = held[:, :-1, :]
    creations = float(np.maximum(held - previous, 0.0).sum())
    if props["storage_constraint"] == "uniform":
        per_node = held.sum(axis=2)
        cap = per_node.max()
        fill = float((cap - per_node.max(axis=1)).sum())
        return alpha * cap * storers * intervals, beta * (creations + fill)
    if props["replica_constraint"] == "uniform":
        reads = inputs.reads(intervals)
        reads[:, :warmup, :] = 0.0
        active = np.nonzero(reads.sum(axis=(0, 1)) > 0)[0]
        per_object = held.sum(axis=0)[:, active]
        reps = per_object.max()
        fill = float((reps - per_object.max(axis=0)).sum())
        return alpha * intervals * len(active) * reps, beta * (creations + fill)
    if props["storage_constraint"] != "none" or props["replica_constraint"] != "none":
        raise ValueError(f"no independent cost model for {props}")
    return alpha * float(held.sum()), beta * creations


def read_sweep(run_dir: Path, csv_path: Path):
    """``{(class, level): cell}`` from a sweep's CSV and run directory."""
    rows = {}
    for row in csv.DictReader(io.StringIO(Path(csv_path).read_text())):
        key = (row["class"], float(row["qos_level"]))
        rows[key] = {
            "bound": float(row["lower_bound"]) if row["lower_bound"] else None,
            "cost": float(row["feasible_cost"]) if row["feasible_cost"] else None,
        }
    manifest = json.loads((Path(run_dir) / "manifest.json").read_text())
    for rec in manifest["task_records"]:
        key = (rec["meta"]["class"], float(rec["meta"]["qos"]))
        body = json.loads((Path(run_dir) / rec["file"]).read_text())
        payload = body.get("payload") or {}
        rounding = payload.get("rounding")
        cell = rows.setdefault(key, {"bound": None, "cost": None})
        cell.update(
            status=rec["status"],
            seconds=rec["seconds"],
            properties=payload.get("properties"),
            store=None if rounding is None else _array(rounding["store"]),
            parts=None if rounding is None else rounding["cost"],
        )
    return rows


def _array(encoded) -> np.ndarray:
    return np.asarray(encoded["data"], dtype=encoded["dtype"]).reshape(encoded["shape"])


def check_sweep(
    inputs: Inputs, cells, classes: Sequence[str], levels: Sequence[float],
    tlat: float, warmup: int, alpha: float = 1.0, beta: float = 1.0,
) -> List[str]:
    errors: List[str] = []
    for cls in classes:
        for level in levels:
            cell = cells.get((cls, level))
            name = f"{cls}@{level:g}"
            if cell is None or cell.get("status") != "ok":
                errors.append(f"{name}: missing or failed cell")
                continue
            if cell["bound"] is None:
                continue
            if cell["store"] is None or cell["cost"] is None:
                errors.append(f"{name}: feasible bound without a rounded placement")
                continue
            qos = placement_qos(inputs, cell["store"], cell["properties"], tlat, warmup)
            worst = min(qos.values())
            if worst < level - 1e-9:
                errors.append(f"{name}: rounded placement serves a user only {worst:.5f}")
            storage, creation = placement_cost(
                inputs, cell["store"], cell["properties"], alpha, beta, warmup
            )
            parts = cell["parts"]
            if abs(storage + creation - cell["cost"]) > 5e-4 + 1e-9 * cell["cost"] or (
                abs(storage - parts["storage"]) > 1e-6 or abs(creation - parts["creation"]) > 1e-6
            ):
                errors.append(
                    f"{name}: reported cost {cell['cost']} ({parts['storage']} storage + "
                    f"{parts['creation']} creation), placement costs {storage} + {creation}"
                )
            if cell["bound"] > cell["cost"] * (1 + TOL):
                errors.append(f"{name}: bound {cell['bound']} above rounded cost {cell['cost']}")
    for level in levels:
        general = cells.get(("general", level), {}).get("bound")
        for cls in classes:
            bound = cells.get((cls, level), {}).get("bound")
            if bound is not None and (general is None or general > bound * (1 + TOL)):
                errors.append(f"{cls}@{level:g}: bound {bound} below general {general}")
    errors += _monotone(
        {cls: [cells.get((cls, lvl), {}).get("bound") for lvl in levels] for cls in classes},
        levels,
    )
    return errors


def _monotone(series: Dict[str, List[Optional[float]]], levels: Sequence[float]) -> List[str]:
    """Bounds rise with the level; infeasible at one level stays infeasible."""
    errors = []
    order = np.argsort(levels)
    for cls, values in series.items():
        seen_infeasible, last = False, None
        for i in order:
            value = values[i]
            if value is None:
                seen_infeasible = True
                continue
            if seen_infeasible:
                errors.append(f"{cls}: feasible at {levels[i]:g} after an infeasible level")
            if last is not None and value < last * (1 - TOL):
                errors.append(f"{cls}: bound falls to {value} at {levels[i]:g}")
            last = value
    return errors


# -- Figure 2: sizing answers --------------------------------------------------


def lru_min_qos(inputs: Inputs, capacity: int, tlat: float, warmup_s: float) -> float:
    """Worst per-user QoS of per-node LRU caches of ``capacity`` objects.

    A read is covered when the origin is within ``tlat`` of its site or the
    site's own cache holds the object; a miss inserts it, evicting the least
    recently used object.  Reads before ``warmup_s`` warm caches only.
    """
    near = inputs.latency[:, inputs.origin] <= tlat
    caches = [OrderedDict() for _ in range(inputs.num_nodes)]
    reads = np.zeros(inputs.num_nodes, dtype=np.int64)
    covered = np.zeros(inputs.num_nodes, dtype=np.int64)
    order = np.argsort(inputs.times, kind="stable")
    for t, node, obj, write in zip(
        inputs.times[order].tolist(), inputs.nodes[order].tolist(),
        inputs.objects[order].tolist(), inputs.writes[order].tolist(),
    ):
        if write:
            continue
        cache = caches[node]
        hit = obj in cache
        if t >= warmup_s:
            reads[node] += 1
            covered[node] += bool(near[node] or hit)
        if capacity == 0:
            continue
        if hit:
            cache.move_to_end(obj)
            continue
        if len(cache) >= capacity:
            cache.popitem(last=False)
        cache[obj] = True
    active = reads > 0
    return float((covered[active] / reads[active]).min()) if active.any() else 1.0


def check_sizing(
    inputs: Inputs, cells, tlat: float, intervals: int, warmup: int,
) -> List[str]:
    errors: List[str] = []
    warmup_s = warmup * inputs.duration_s / intervals
    expected_reads = inputs.reads_after(warmup_s)
    for cell in cells:
        level = cell["level"]
        if not cell["bound_feasible"]:
            errors.append(f"@{level:g}: storage-constrained bound infeasible")
            continue
        for name, row in cell["sized"].items():
            tag = f"{name}@{level:g}"
            if not row["feasible"]:
                continue
            if row["min_node_qos"] < level - 1e-12:
                errors.append(f"{tag}: sized run serves a user only {row['min_node_qos']:.5f}")
            if row["cost"] < cell["lp_cost"] * (1 - TOL):
                errors.append(f"{tag}: cost {row['cost']} below the LP bound {cell['lp_cost']}")
            if row["reads"] != expected_reads:
                errors.append(f"{tag}: {row['reads']} reads after warm-up, trace has {expected_reads}")
        lru = cell["sized"]["lru"]
        if lru["feasible"]:
            cap = lru["capacity"]
            if lru_min_qos(inputs, cap, tlat, warmup_s) < level - 1e-12:
                errors.append(f"lru@{level:g}: capacity {cap} misses the goal")
            if cap > 0 and lru_min_qos(inputs, cap - 1, tlat, warmup_s) >= level - 1e-12:
                errors.append(f"lru@{level:g}: capacity {cap - 1} already meets the goal")
        elif lru_min_qos(inputs, inputs.num_objects, tlat, warmup_s) >= level - 1e-12:
            errors.append(f"lru@{level:g}: reported unreachable, but a full cache meets it")
    return errors


# -- serve-mixed: bound answers and cost reads ----------------------------------


def check_bounds(answers: Dict[Tuple[str, float, int], Dict[str, object]]) -> List[str]:
    """Bound answers keyed by ``(class, qos, epoch)``."""
    errors: List[str] = []
    for (cls, qos, epoch), ans in answers.items():
        tag = f"{cls}@{qos:g}/e{epoch}"
        if ans["feasible"] and ans["lp_cost"] > ans["feasible_cost"] * (1 + TOL):
            errors.append(f"{tag}: lp_cost {ans['lp_cost']} above feasible_cost {ans['feasible_cost']}")
        general = answers.get(("general", qos, epoch))
        if ans["feasible"] and general is not None:
            if not general["feasible"] or general["lp_cost"] > ans["lp_cost"] * (1 + TOL):
                errors.append(f"{tag}: bound {ans['lp_cost']} below general's")
    classes = sorted({k[0] for k in answers})
    epochs = sorted({k[2] for k in answers})
    for epoch in epochs:
        levels = sorted({k[1] for k in answers if k[2] == epoch})
        series = {}
        for cls in classes:
            row = [answers.get((cls, q, epoch)) for q in levels]
            if all(a is not None for a in row):
                series[f"{cls}/e{epoch}"] = [a["lp_cost"] if a["feasible"] else None for a in row]
        errors += _monotone(series, levels)
    return errors


def check_cost_reads(reads: Sequence[Tuple[int, float]]) -> List[str]:
    """``(epoch, serve_cost)`` pairs in arrival order per client."""
    errors = []
    by_epoch: Dict[int, float] = {}
    for epoch, cost in reads:
        if by_epoch.setdefault(epoch, cost) != cost:
            errors.append(f"epoch {epoch}: cost read {cost} then {by_epoch[epoch]}")
    ordered = sorted(by_epoch.items())
    for (e0, c0), (e1, c1) in zip(ordered, ordered[1:]):
        if c1 < c0:
            errors.append(f"cost falls from {c0} at epoch {e0} to {c1} at epoch {e1}")
    return errors
