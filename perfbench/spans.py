"""In-memory timing spans around calls into the program's public functions.

The benchmark observes the program from outside: it replaces a fixed list
of public functions and methods with wrappers that record one span per
call, then runs the program's own entry point.  A span is
``(id, parent, name, thread, start, end, work)``; the parent is the innermost
open span on the same thread, so solves that run on executor threads start
their own trees.  Spans stay in memory until :meth:`Tracer.dump`.

Self time (a span's duration minus the time its children cover) and the
per-layer sums are computed afterwards by :func:`self_times`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: (module, attribute path, span name) for every wrapped public callable.
TARGETS: Sequence[Tuple[str, str, str]] = (
    ("repro.topology.io", "load_topology", "topology.load"),
    ("repro.workload.io", "load_trace", "workload.load_trace"),
    ("repro.workload.demand", "DemandMatrix.from_trace", "workload.demand"),
    ("repro.runner.tasks", "ContinuousTask.materialize", "workload.materialize"),
    ("repro.core.formulation", "build_formulation", "core.formulation"),
    ("repro.core.formulation", "Formulation.set_qos_fraction", "core.retarget"),
    ("repro.core.rounding", "round_solution", "core.rounding"),
    ("repro.core.bounds", "compute_lower_bound", "core.bound"),
    ("repro.lp.model", "LinearProgram.to_arrays", "lp.assembly"),
    ("repro.lp.model", "LinearProgram.solve", "lp.solve"),
    ("repro.runner.tasks", "BoundTask.run", "runner.task"),
    ("repro.runner.artifacts", "RunWriter.record", "runner.artifacts"),
    ("repro.runner.artifacts", "RunWriter.finalize", "runner.artifacts"),
    ("repro.analysis.sweep", "qos_sweep", "analysis.sweep"),
    ("repro.analysis.report", "render_csv", "analysis.render"),
    ("repro.analysis.report", "render_sweep_table", "analysis.render"),
    ("repro.simulator.engine", "Simulator.run", "simulator.replay"),
    ("repro.simulator.sizing", "min_capacity_for_goal", "simulator.sizing"),
    ("repro.simulator.continuous", "step_epoch", "simulator.epoch_step"),
    ("repro.service.daemon", "PlacementDaemon.run_epoch", "service.epoch"),
    ("repro.service.daemon", "PlacementDaemon.placement_payload", "service.placement_payload"),
    ("repro.service.checkpoint", "CheckpointStore.append", "service.journal_append"),
    ("repro.service.checkpoint", "CheckpointStore.snapshot", "service.snapshot"),
)

#: Work done per call, recorded with the span (requests replayed).
SIZES = {"simulator.replay": lambda args: len(args[0].trace.requests)}

Span = Tuple[int, Optional[int], str, int, float, float, int]


class Tracer:
    """Records spans from every thread into one in-memory list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, work: int = 0) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, threading.get_ident(), start, end, work)
            )

    def wrap(self, fn, name: str):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, size(args) if size else 0):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target, including copies bound by ``from x import f``."""
        replaced: Dict[int, object] = {}
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                wrapped = self.wrap(raw.__func__, name)
                setattr(owner, attr, staticmethod(wrapped))
            else:
                wrapped = self.wrap(raw, name)
                setattr(owner, attr, wrapped)
                if owner is module:
                    replaced[id(raw)] = wrapped
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if id(value) in replaced and callable(value):
                    setattr(module, key, replaced[id(value)])

    def dump(self, path: str, extra: Optional[Dict[str, object]] = None) -> None:
        payload = {"spans": list(self.spans), **(extra or {})}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(
    spans: Sequence[Sequence[object]],
    start: float = float("-inf"),
    end: float = float("inf"),
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``work``, total ``seconds`` and ``self`` seconds.

    Only spans that begin inside ``[start, end]`` count.  Children of one
    parent run on the parent's thread and never overlap each other, so a
    span's self time is its duration minus the sum of its children's.
    """
    child_time: Dict[int, float] = {}
    for _sid, parent, _name, _tid, s0, s1, _work in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (s1 - s0)
    out: Dict[str, Dict[str, float]] = {}
    for sid, _parent, name, _tid, s0, s1, work in spans:
        if not start <= s0 <= end:
            continue
        row = out.setdefault(name, {"calls": 0, "work": 0, "seconds": 0.0, "self": 0.0})
        row["calls"] += 1
        row["work"] += work
        row["seconds"] += s1 - s0
        row["self"] += (s1 - s0) - child_time.get(sid, 0.0)
    return out
