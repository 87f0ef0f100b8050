"""End-to-end benchmark of the Figure-1 sweep, Figure-2 sizing and ``repro serve``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig1-sweep-web --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  Inputs are generated from ``--seed``; ``--seconds`` sets how
much work a run does (whole rounds, the same for every run with the same
value), never when it stops.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread here and in every child: on a two-core machine a pool
# sized to the cores would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))

import checks  # noqa: E402
from spans import self_times  # noqa: E402

# -- inputs -------------------------------------------------------------------

NUM_NODES = 20
TOPOLOGY_SEED = 2  # the 20-site AS topology the repo's Figure benches use
OBJECTS = 80
SCALE = 0.1
INTERVALS = 8
WARMUP = 1
TLAT = 150.0
FIG1_CLASSES = [
    "general", "storage-constrained", "replica-constrained",
    "decentralized-local-routing", "caching", "cooperative-caching",
]
#: Clear of the levels where a class or heuristic is feasible on some traces
#: and not others (caching, LRU and greedy-global top out at 0.93-0.97), so
#: every seed does the same kind of work: all three meet 0.85 and 0.90 and
#: none meets 0.99 on any trace seen.
FIG1_LEVELS = [0.85, 0.9, 0.99]
FIG2_LEVELS = [0.85, 0.9, 0.99]
#: Nominal seconds per round, which turn --seconds into a whole round count.
ROUND_S = {"fig1-sweep-web": 10.0, "fig2-sizing-web": 6.7}
BATCH_SETUPS = 5

SERVE_HEURISTIC = "greedy-global"
SERVE_EPOCH_S = 3600.0
SERVE_REQUESTS = 4000  # trace requests per epoch
SERVE_OBJECTS = 64
SERVE_WORKLOAD_SEED = 7  # the daemon's drifting workload; --seed shapes the requests
SERVE_EPOCH_INTERVAL = 0.5
SERVE_EPOCHS_PER_S = 1.5  # epochs per second of --seconds: they span the pass
SERVE_SETUPS = 3
#: One client asks every bound query, so the daemon's per-class warm-start
#: chain (and so each solve's work) is the same on every run; the other
#: client only reads.  Each class is asked at two QoS levels for the first
#: epoch, then at the higher level for each later one: the QoS change
#: re-targets the previous solve's basis, an epoch change does not.
SERVE_PINNED_EPOCHS = (4, 8, 12, 16, 20, 24)
SERVE_QOS = (0.85, 0.9)
SERVE_WARMUP_KEY = ("general", 0.7, 0)
SERVE_HITS_PER_MISS = 2
SERVE_READS_PER_S = 200  # reads per client per second of --seconds

# -- metrics ------------------------------------------------------------------

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "bound_p50_ms": "ms"}
PER_LAYER = {
    "cli.import_s": "s",
    "topology.load_s": "s",
    "workload.load_trace_s": "s",
    "workload.demand_s": "s",
    "workload.materialize_s": "s",
    "core.formulation_s": "s",
    "core.formulation_calls": "count",
    "core.retargets": "count",
    "core.rounding_s": "s",
    "core.rounding_calls": "count",
    "core.bound_self_s": "s",
    "lp.assembly_s": "s",
    "lp.solve_s": "s",
    "lp.solves": "count",
    "lp.simplex_iterations": "count",
    "lp.warm_starts": "count",
    "lp.warm_degraded": "count",
    "lp.warm_useful_ratio": "ratio",
    "runner.task_self_s": "s",
    "runner.tasks": "count",
    "runner.artifacts_s": "s",
    "analysis.sweep_self_s": "s",
    "analysis.render_s": "s",
    "simulator.replay_s": "s",
    "simulator.replays": "count",
    "simulator.replay_requests_per_s": "1/s",
    "simulator.fast_ratio": "ratio",
    "simulator.cache_repairs": "count",
    "simulator.sizing_self_s": "s",
    "simulator.epoch_step_s": "s",
    "service.epoch_s": "s",
    "service.journal_append_s": "s",
    "service.snapshot_s": "s",
    "service.placement_payload_s": "s",
    "service.bound_task_s": "s",
    "service.bound_wait_ms": "ms",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
    "service.coalesced": "count",
    "service.cache_hit_ratio": "ratio",
    "trace.attributed_fraction": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The program could not be run to the end of a workload."""


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


class Child:
    """One program process, stopped and reaped by :meth:`close`."""

    def __init__(self, cmd, log_path):
        self.log = open(log_path, "w")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )

    def expect(self, word, timeout_s=600.0):
        """Block until the child prints ``word``; returns seconds since launch."""
        timer = threading.Timer(timeout_s, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if line.strip() == word:
                    return time.monotonic() - self.started
        finally:
            timer.cancel()
        raise BenchError(f"child exited before printing {word!r}; see {self.log.name}")

    def wait(self, timeout_s=120.0):
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"child did not exit within {timeout_s}s") from None
        return code

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self.log.close()


# -- input generation -----------------------------------------------------------


def make_inputs(work: Path, seed: int, rounds: int):
    """The fixed topology and one seeded WEB trace per round."""
    from repro.topology.generators import as_level_topology
    from repro.topology.io import save_topology
    from repro.workload.generators import web_workload
    from repro.workload.io import save_trace

    topology = as_level_topology(num_nodes=NUM_NODES, seed=TOPOLOGY_SEED)
    topo_path = work / "topology.json"
    save_topology(topology, str(topo_path))
    traces = []
    for r in range(rounds):
        trace = web_workload(
            num_nodes=NUM_NODES, num_objects=OBJECTS,
            populations=topology.populations, requests_scale=SCALE,
            seed=seed * 1000 + r,
        )
        path = work / f"trace{r}.json"
        save_trace(trace, str(path))
        traces.append(str(path))
    return str(topo_path), traces


# -- batch workloads --------------------------------------------------------------


def run_batch(workload, work: Path, seed: int, seconds: int, traced: bool):
    rounds = max(1, round(seconds / ROUND_S[workload]))
    topo, traces = make_inputs(work, seed, rounds)
    mode = "fig1" if workload == "fig1-sweep-web" else "fig2"
    levels = FIG1_LEVELS if mode == "fig1" else FIG2_LEVELS

    def launch(tag, what, extra=()):
        out = work / tag
        out.mkdir()
        spec = {
            "topology": topo, "traces": traces, "levels": levels,
            "intervals": INTERVALS, "warmup": WARMUP, "tlat": TLAT, "out": str(out),
        }
        (out / "spec.json").write_text(json.dumps(spec))
        cmd = [sys.executable, str(HERE / "launch.py"), what, str(out / "spec.json"), *extra]
        return out, Child(cmd, out / "stderr.log")

    def measured_pass(tag, extra=()):
        out, child = launch(tag, mode, extra)
        try:
            setup = child.expect("ready")
            child.expect("done")
            if child.wait() != 0:
                raise BenchError(f"launcher failed; see {out / 'stderr.log'}")
        finally:
            child.close()
        return out, setup, json.loads((out / "launch.json").read_text())

    def probe(i):
        out, child = launch(f"setup{i}", "setup")
        try:
            setups.append(child.expect("ready"))
            if child.wait() != 0:
                raise BenchError(f"set-up failed; see {out / 'stderr.log'}")
        finally:
            child.close()

    # Set-up is timed several times, half before and half after the pass,
    # so its median samples the machine across the whole run.
    setups = []
    extra = 0 if traced else BATCH_SETUPS - 1
    for i in range(extra // 2):
        probe(i)
    out, setup, launched = measured_pass("pass")
    setups.append(setup)
    for i in range(extra // 2, extra):
        probe(i)
    check = check_fig1 if mode == "fig1" else check_fig2
    errors, attempted, failed, bound_ms = check(topo, traces, out, launched)
    result = {
        "errors": errors, "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": _median(setups),
            "wall_s": launched["pass_s"],
            "peak_rss_mb": launched["rss_kb"] / 1024.0,
            "bound_p50_ms": _median(bound_ms),
        },
        "summary": {"rounds": rounds, "round_s": [r["seconds"] for r in launched["rounds"]]},
    }
    if traced:
        spans_path = work / "spans.json"
        tout, _setup, tlaunched = measured_pass("traced", ["--trace", str(spans_path)])
        terrors, *_ = check(topo, traces, tout, tlaunched)
        result["errors"] += terrors
        trace = json.loads(spans_path.read_text())
        result["layers"] = layer_metrics(
            trace, trace["window"], tlaunched["pass_s"] - launched["pass_s"]
        )
    return result


def check_fig1(topo, traces, out: Path, launched):
    errors, attempted, failed, bound_ms = [], 0, 0, []
    for r, trace_path in enumerate(traces):
        if launched["rounds"][r]["exit"] != 0:
            errors.append(f"round {r}: sweep exited {launched['rounds'][r]['exit']}")
        run_dirs = list((out / f"run{r}").iterdir())
        cells = checks.read_sweep(run_dirs[0], out / f"sweep{r}.csv")
        ran = [c for c in cells.values() if "status" in c]
        attempted += len(FIG1_CLASSES) * len(FIG1_LEVELS)
        failed += sum(1 for c in ran if c["status"] != "ok")
        bound_ms += [1000.0 * c["seconds"] for c in ran if c["bound"] is not None]
        inputs = checks.Inputs(topo, trace_path)
        errors += [
            f"round {r}: {e}"
            for e in checks.check_sweep(inputs, cells, FIG1_CLASSES, FIG1_LEVELS, TLAT, WARMUP)
        ]
    return errors, attempted, failed, bound_ms


def check_fig2(topo, traces, out: Path, launched):
    errors, attempted, bound_ms = [], 0, []
    for r, trace_path in enumerate(traces):
        cells = launched["rounds"][r]["cells"]
        attempted += 3 * len(cells)  # one bound and two sizing searches per level
        bound_ms += [1000.0 * c["bound_s"] for c in cells if c["bound_feasible"]]
        inputs = checks.Inputs(topo, trace_path)
        errors += [
            f"round {r}: {e}"
            for e in checks.check_sizing(inputs, cells, TLAT, INTERVALS, WARMUP)
        ]
    return errors, attempted, 0, bound_ms


# -- serve-mixed --------------------------------------------------------------------


def serve_schedule(seed: int, seconds: int):
    """Request lists of the bound client and the read client.

    The seed orders the requests and picks read kinds and cache hits; the
    counts of reads, misses and hits are the same for every seed.
    """
    rng = random.Random(seed)
    first, *later = SERVE_PINNED_EPOCHS
    steps = [(SERVE_QOS[0], first)] + [(SERVE_QOS[1], e) for e in (first, *later)]
    misses = [(cls, q, e) for q, e in steps for cls in FIG1_CLASSES]
    reads = SERVE_READS_PER_S * seconds
    per_block = reads // len(misses)
    bound_ops, seen = [], []
    for key in misses:
        seen.append(key)
        block = [("read", rng.choice(("placement", "cost"))) for _ in range(per_block)]
        block += [("hit", rng.choice(seen)) for _ in range(SERVE_HITS_PER_MISS)]
        rng.shuffle(block)
        bound_ops += [("miss", key), *block]
    read_ops = [("read", rng.choice(("placement", "cost"))) for _ in range(per_block * len(misses))]
    return [bound_ops, read_ops]


def _serve_args(topo, state_dir, epochs):
    return [
        "-t", topo, "--heuristic", SERVE_HEURISTIC, "--epochs", str(epochs),
        "--epoch-length", str(SERVE_EPOCH_S), "--requests", str(SERVE_REQUESTS),
        "--objects", str(SERVE_OBJECTS), "--seed", str(SERVE_WORKLOAD_SEED),
        "--epoch-interval", str(SERVE_EPOCH_INTERVAL), "--state-dir", str(state_dir),
    ]


def _proc_peak_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the daemon")


def _client(state_dir: Path, timeout_s=60.0):
    from repro.service.client import ServiceClient

    deadline = time.monotonic() + timeout_s
    endpoint = state_dir / "endpoint.json"
    while not endpoint.exists():
        if time.monotonic() > deadline:
            raise BenchError("daemon wrote no endpoint.json")
        time.sleep(0.005)
    ep = json.loads(endpoint.read_text())
    return ServiceClient(ep["host"], ep["port"], timeout_s=120.0)


def _ok(resp, bound=False):
    payload = resp.payload
    return (
        resp.status == 200 and payload.get("stale") is False
        and (not bound or payload.get("approx") is False)
    )


def serve_setup(work: Path, tag, topo, epochs, launcher=None):
    """Launch a daemon; ready once /ready flips and one query of each kind answered."""
    state_dir = work / tag
    state_dir.mkdir()
    args = _serve_args(topo, state_dir, epochs)
    if launcher is None:
        cmd = [sys.executable, "-m", "repro.cli", "serve", *args]
    else:
        cmd = [sys.executable, str(HERE / "launch.py"), "serve", launcher, *args]
    child = Child(cmd, work / f"{tag}.log")
    try:
        client = _client(state_dir)
        if not client.wait_ready(timeout_s=120.0, poll_s=0.01):
            raise BenchError("daemon never became ready")
        cls, qos, epoch = SERVE_WARMUP_KEY
        for resp, bound in (
            (client.placement(), False), (client.cost(), False),
            (client.bound(cls, qos=qos, epoch=epoch), True),
        ):
            if not _ok(resp, bound):
                raise BenchError(f"warm-up query failed: {resp.status} {resp.payload}")
        setup = time.monotonic() - child.started
    except BaseException:
        child.close()
        raise
    return child, client, state_dir, setup


def _stop(child, expect):
    child.proc.send_signal(signal.SIGTERM)
    code = child.wait(timeout_s=120.0)
    if code != expect:
        raise BenchError(f"daemon exited {code}, expected {expect}; see {child.log.name}")


def serve_pass(client, schedule):
    """Both clients run their lists; returns per-request records and window."""
    records = [[] for _ in schedule]
    barrier = threading.Barrier(len(schedule) + 1)

    def run(i, ops):
        out = records[i]
        barrier.wait()
        for kind, arg in ops:
            t0 = time.monotonic()
            try:
                if kind == "read":
                    resp = client.query(kind=arg)
                else:
                    cls, qos, epoch = arg
                    resp = client.bound(cls, qos=qos, epoch=epoch)
                error = None
            except OSError as exc:  # refused, reset or timed out
                resp, error = None, str(exc)
            out.append((kind, arg, t0, time.monotonic(), resp, error))

    before = client.stats().payload
    threads = [threading.Thread(target=run, args=(i, ops)) for i, ops in enumerate(schedule)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.monotonic()
    for t in threads:
        t.join()
    end = time.monotonic()
    after = client.stats().payload
    return records, before, after, [start, end]


def _wait_done(client, timeout_s=180.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if client.placement().payload.get("done"):
            return
        time.sleep(0.05)
    raise BenchError("daemon did not finish its epochs")


def run_serve(work: Path, seed: int, seconds: int, traced: bool):
    epochs = max(max(SERVE_PINNED_EPOCHS) + 2, round(SERVE_EPOCHS_PER_S * seconds))
    topo, _traces = make_inputs(work, seed, 0)
    schedule = serve_schedule(seed, seconds)

    def probe(tag):
        child, _client, _dir, setup = serve_setup(work, tag, topo, epochs)
        try:
            probes.append(setup)
            _stop(child, 3)
        finally:
            child.close()

    def session(tag, setups, launcher=None):
        # Set-up probes go half before and half after the pass (see run_batch).
        for i in range((setups - 1) // 2):
            probe(f"{tag}-setup{i}")
        child, client, state_dir, setup = serve_setup(work, tag, topo, epochs, launcher)
        probes.append(setup)
        try:
            records, before, after, window = serve_pass(client, schedule)
            peak = _proc_peak_mb(child.proc.pid)
            _wait_done(client)
            _stop(child, 0)
        finally:
            child.close()
        for i in range((setups - 1) // 2, setups - 1):
            probe(f"{tag}-setup{i}")
        result = json.loads((state_dir / "result.json").read_text())
        return {"records": records, "before": before, "after": after, "window": window,
                "peak": peak, "result": result}

    probes = []
    run = session("serve", 1 if traced else SERVE_SETUPS)
    setups = list(probes)
    errors, attempted, failed, summary = check_serve(run, schedule, topo, epochs)
    wall = run["window"][1] - run["window"][0]
    misses = [r for ops in run["records"] for r in ops if r[0] == "miss" and r[4] is not None]
    out = {
        "errors": errors, "attempted": attempted, "failed": failed,
        "metrics": {
            "setup_s": _median(setups),
            "wall_s": wall,
            "peak_rss_mb": run["peak"],
            "bound_p50_ms": _median(
                [1000.0 * (r[3] - r[2]) for r in misses if r[4].payload.get("feasible")]
            ),
        },
        "summary": summary,
    }
    if traced:
        spans_path = work / "spans.json"
        traced_run = session("traced", 1, launcher=str(spans_path))
        terrors, *_ = check_serve(traced_run, schedule, topo, epochs)
        out["errors"] += terrors
        trace = json.loads(spans_path.read_text())
        twall = traced_run["window"][1] - traced_run["window"][0]
        layers = layer_metrics(trace, traced_run["window"], twall - wall)
        tmisses = [
            r for ops in traced_run["records"] for r in ops if r[0] == "miss" and r[4] is not None
        ]
        cache = traced_run["after"]["cache"]
        layers.update({
            "service.bound_task_s": layers["runner.task_s"],
            "service.bound_wait_ms": _median(
                [1000.0 * (r[3] - r[2] - r[4].payload["solve_s"]) for r in tmisses]
            ),
            "service.cache_hits": cache["hits"],
            "service.cache_misses": cache["misses"],
            "service.coalesced": cache["coalesced"],
            "service.cache_hit_ratio": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
        })
        out["layers"] = layers
    return out


def check_serve(run, schedule, topo, epochs):
    """Per-request outcomes, answer properties, counts and the final result."""
    errors, attempted, failed = [], 0, 0
    answers, read_ms, miss_ms, epochs_seen = {}, [], [], {}
    for i, ops in enumerate(run["records"]):
        cost_reads = []
        for kind, arg, t0, t1, resp, error in ops:
            attempted += 1
            if resp is None or not _ok(resp, bound=kind != "read"):
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{kind} {arg}: {error or (resp.status, resp.payload)}")
                continue
            payload = resp.payload
            if kind == "read":
                read_ms.append(1000.0 * (t1 - t0))
                epochs_seen.setdefault(payload["epoch"], t1)
                if arg == "cost":
                    cost_reads.append((payload["epoch"], payload["serve_cost"]))
                continue
            key = tuple(arg)
            if payload["cached"] != (kind == "hit"):
                errors.append(f"{kind} {key}: cached={payload['cached']}")
            if kind == "miss":
                answers[key] = payload
                miss_ms.append(1000.0 * (t1 - t0))
            elif payload.get("lp_cost") != answers.get(key, {}).get("lp_cost"):
                errors.append(f"hit {key}: answer differs from the miss")
        errors += [f"client {i}: {e}" for e in checks.check_cost_reads(cost_reads)]
    if len(answers) != sum(1 for ops in schedule for kind, _ in ops if kind == "miss"):
        errors.append(f"{len(answers)} distinct bound answers")
    errors += checks.check_bounds(answers)

    # The daemon's own counters must match the schedule exactly.
    misses = sum(1 for ops in schedule for kind, _ in ops if kind == "miss")
    hits = sum(1 for ops in schedule for kind, _ in ops if kind == "hit")
    before, after = run["before"], run["after"]
    expected = {
        "requests": sum(len(ops) for ops in schedule) + 1,
        "misses": misses, "hits": hits, "coalesced": 0,
    }
    got = {
        "requests": after["requests"] - before["requests"],
        "misses": after["cache"]["misses"] - before["cache"]["misses"],
        "hits": after["cache"]["hits"] - before["cache"]["hits"],
        "coalesced": after["cache"]["coalesced"] - before["cache"]["coalesced"],
    }
    if got != expected:
        errors.append(f"daemon counts {got}, schedule {expected}")

    errors += _check_final(run["result"], topo, epochs)
    ordered = sorted(epochs_seen.items())
    gaps = [1000.0 * (t1 - t0) for (e0, t0), (e1, t1) in zip(ordered, ordered[1:]) if e1 == e0 + 1]
    summary = {
        "read_p50_ms": _median(read_ms),
        "read_p99_ms": statistics.quantiles(read_ms, n=100)[98] if len(read_ms) > 1 else 0.0,
        "reads": len(read_ms),
        "bound_miss_p50_ms": _median(miss_ms),
        "epoch_p50_ms": _median(gaps),
        "epochs_seen_in_pass": len(ordered),
    }
    return errors, attempted, failed, summary


def _check_final(result, topo, epochs):
    """The daemon's result equals an in-process run of the same task."""
    from repro.runner import ContinuousTask, HeuristicSpec
    from repro.topology.io import load_topology

    spec = HeuristicSpec(
        name=SERVE_HEURISTIC, period_s=SERVE_EPOCH_S / 8.0, tlat_ms=TLAT,
    )
    task = ContinuousTask(
        topology=load_topology(topo), heuristic=spec, epochs=epochs,
        epoch_s=SERVE_EPOCH_S, requests_per_epoch=SERVE_REQUESTS,
        num_objects=SERVE_OBJECTS, workload_seed=SERVE_WORKLOAD_SEED, tlat_ms=TLAT,
        cost_interval_s=SERVE_EPOCH_S,
    )
    fresh = json.loads(json.dumps(task.run().to_dict()))
    if fresh != result:
        return ["final result differs from an in-process run of the same task"]
    return []


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(trace, window, overhead_s):
    whole = self_times(trace["spans"])
    inside = self_times(trace["spans"], *window)
    counters = trace["perf"]["counters"]

    def secs(name):
        return whole.get(name, {}).get("seconds", 0.0)

    def own(name):
        return whole.get(name, {}).get("self", 0.0)

    def calls(name):
        return whole.get(name, {}).get("calls", 0)

    replay = whole.get("simulator.replay", {})
    warm = counters.get("lp.simplex.warm_starts", 0)
    degraded = counters.get("lp.simplex.warm_degraded", 0)
    fast = counters.get("sim.serve.fast", 0)
    scan = counters.get("sim.serve.scan", 0)
    wall = window[1] - window[0]
    return {
        "cli.import_s": secs("cli.import"),
        "topology.load_s": secs("topology.load"),
        "workload.load_trace_s": secs("workload.load_trace"),
        "workload.demand_s": secs("workload.demand"),
        "workload.materialize_s": secs("workload.materialize"),
        "core.formulation_s": secs("core.formulation"),
        "core.formulation_calls": calls("core.formulation"),
        "core.retargets": calls("core.retarget"),
        "core.rounding_s": secs("core.rounding"),
        "core.rounding_calls": calls("core.rounding"),
        "core.bound_self_s": own("core.bound"),
        "lp.assembly_s": secs("lp.assembly"),
        "lp.solve_s": secs("lp.solve"),
        "lp.solves": calls("lp.solve"),
        "lp.simplex_iterations": counters.get("lp.simplex.iterations", 0),
        "lp.warm_starts": warm,
        "lp.warm_degraded": degraded,
        "lp.warm_useful_ratio": _ratio(warm - degraded, warm),
        "runner.task_s": secs("runner.task"),
        "runner.task_self_s": own("runner.task"),
        "runner.tasks": calls("runner.task"),
        "runner.artifacts_s": secs("runner.artifacts"),
        "analysis.sweep_self_s": own("analysis.sweep"),
        "analysis.render_s": secs("analysis.render"),
        "simulator.replay_s": replay.get("seconds", 0.0),
        "simulator.replays": replay.get("calls", 0),
        "simulator.replay_requests_per_s": _ratio(replay.get("work", 0), replay.get("seconds", 0.0)),
        "simulator.fast_ratio": _ratio(fast, fast + scan),
        "simulator.cache_repairs": counters.get("sim.cache.repair", 0),
        "simulator.sizing_self_s": own("simulator.sizing"),
        "simulator.epoch_step_s": secs("simulator.epoch_step"),
        "service.epoch_s": secs("service.epoch"),
        "service.journal_append_s": secs("service.journal_append"),
        "service.snapshot_s": secs("service.snapshot"),
        "service.placement_payload_s": secs("service.placement_payload"),
        "service.bound_task_s": 0.0,
        "service.bound_wait_ms": 0.0,
        "service.cache_hits": 0,
        "service.cache_misses": 0,
        "service.coalesced": 0,
        "service.cache_hit_ratio": 0.0,
        "trace.attributed_fraction": _ratio(sum(r["self"] for r in inside.values()), wall),
        "trace.overhead_s": overhead_s,
    }


# -- entry point ------------------------------------------------------------------------

WORKLOADS = ("fig1-sweep-web", "fig2-sizing-web", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "serve-mixed":
            res = run_serve(work, args.seed, args.seconds, bool(args.trace))
        else:
            res = run_batch(args.workload, work, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        # The work directory stays behind with the program's logs.
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)

    for error in res["errors"][:20]:
        print(f"CHECK FAILED: {error}")
    print("summary: " + json.dumps(res["summary"], sort_keys=True))
    if args.trace:
        values, units = res["layers"], PER_LAYER
    else:
        values, units = res["metrics"], END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
