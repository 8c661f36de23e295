"""dss benchmark: three closed-loop workloads, end to end or traced per layer.

Run from the root of a dss checkout:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

The benchmark imports dss from the checkout's ``src`` directory. With
``--trace 0`` it reports the end-to-end metrics, measured with tracing off;
with ``--trace 1`` it also repeats the work with a span around every public
callable of each layer and reports the per-layer metrics (see README.md). Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results, the
environment and each workload's rationale go to ``perfbench/out/``, and a
traced run also writes its spans there.

``--workload all`` runs every workload in its own child process, so that
each peak RSS belongs to one workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from hostspeed import REFERENCE_NS, HostSpeed
from tracer import Tracer, patch_layers
from workloads import SIM_GRIDS, SelectWorkload, SimWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 9
MARK_SPAN = "perfbench.hostspeed_mark"
MIN_ROUNDS = 5

WORKLOADS = {
    "sim": "run_grid on a hit-leaning grid (Zipf 1.0, 20k items, capacity 40, 5 strategies) and a "
           "miss-dominated one (Zipf 0.6, 200k items, capacity 20): queries, inserts, evictions",
    "select-mix": "direct select_* calls on synthetic contexts of 1..19 candidates; isolates "
                  "strategies/knapsack/core and bypasses the indicator and store layers",
}

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "request_us.p50": "us",
    "request_us.p99": "us",
    "peak_rss_mb": "MiB",
    "tc_norm": "ratio",
    "miss_ratio": "ratio",
}

SIM_CELLS = [f"{g.label}.{s}.k{k}" for g in SIM_GRIDS for s, k in g.passes]
STRATEGY_NAMES = ("cpi", "epi", "pot", "pp", "umb", "pgm", "opt")

PER_LAYER = {
    "cbf.query.calls": "count",
    "cbf.query.us": "us",
    "cbf.query.positive_ratio": "ratio",
    **{f"cbf.query.{g.label}.positive_ratio": "ratio" for g in SIM_GRIDS},
    "cbf.insert.calls": "count",
    "cbf.remove.calls": "count",
    "cbf.update.us": "us",
    "datastore.access.calls": "count",
    "datastore.access.us": "us",
    "datastore.access.hit_ratio": "ratio",
    "datastore.insert.calls": "count",
    "datastore.insert.evictions": "count",
    **{f"datastore.insert.{g.label}.evictions": "count" for g in SIM_GRIDS},
    "datastore.insert.us": "us",
    "datastore.holds.calls": "count",
    "datastore.holds.us": "us",
    "core.profile.calls": "count",
    "core.profile.us": "us",
    "core.context.calls": "count",
    "core.context.us": "us",
    "core.context.candidates_mean": "count",
    "core.expected_cost.calls": "count",
    "core.expected_cost.us": "us",
    **{f"strategies.{s}.{m}": u for s in STRATEGY_NAMES for m, u in (("calls", "count"), ("us", "us"))},
    "strategies.empty_ratio": "ratio",
    "strategies.selected_mean": "count",
    "knapsack.all_budgets.calls": "count",
    "knapsack.all_budgets.us": "us",
    "knapsack.all_budgets.cells": "count",
    "sim.run.calls": "count",
    **{f"sim.run.us_per_req.{c}": "us/req" for c in SIM_CELLS},
    "sim.loop.self_us": "us",
    "sim.placement.calls": "count",
    "sim.placement.us": "us",
    "topology.cost_matrix.calls": "count",
    "topology.cost_matrix.us": "us",
    "workload.zipf_trace.calls": "count",
    "workload.zipf_trace.us": "us",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_ratio": "ratio",
}

# Counts the program's work determines alone: they repeat bit for bit for a
# given seed, so a later change may rest a claim on them.
EXACT = {
    name for name in PER_LAYER
    if name.endswith((".calls", ".evictions", ".cells", "_mean"))
    or (name.endswith("_ratio") and not name.startswith("trace."))
}


def import_dss():
    if not (SRC / "dss" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dss sources at {SRC / 'dss'}; run from a dss checkout")
    sys.path.insert(0, str(SRC))
    import dss

    if Path(dss.__file__).resolve().parent != SRC / "dss":
        sys.exit(f"perfbench: imported dss from {dss.__file__}, not from {SRC}")
    return dss


def make_workload(dss, name):
    if name == "sim":
        return SimWorkload(dss, WORKLOADS[name])
    return SelectWorkload(dss, WORKLOADS[name])


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


@dataclass
class Measurement:
    inputs: object
    setup_s: list  # each set-up's time, scaled to the reference host speed
    raw_setup_s: list  # the same, as measured
    first: object  # the first Round, whose output the checks examine
    mismatches: list  # per later round, the output units that differ from the first
    fastest_ns: np.ndarray | None  # per request, its fastest latency over the rounds
    rounds: list  # the Rounds, their outputs and latencies dropped


def measure(workload, seed, seconds) -> Measurement:
    """Timed rounds for ``seconds`` (at least MIN_ROUNDS), with a repeat of
    the set-up after each round so that set-up is timed at several points
    of the run. Only the first round's output is kept; later rounds are
    compared with it and folded into running minima, so memory does not
    grow with the number of rounds.

    All times are scaled to the reference host speed (see hostspeed.py).
    Each request's latency is also its fastest over the rounds, which
    drops one-off delays such as interrupts."""
    setup_s = []
    raw_setup_s = []

    def setup():
        speed = HostSpeed()
        speed.mark()
        inputs = workload.setup(seed)
        speed.mark()
        setup_s.append(speed.scaled_ns() / 1e9)
        raw_setup_s.append(speed.raw_ns() / 1e9)
        return inputs

    inputs = setup()
    first = None
    mismatches = []
    fastest = None
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        r = workload.run_round(inputs)
        if first is None:
            first = r
        else:
            mismatches.append(workload.mismatches(first.output, r.output))
        if r.output is None:
            break
        fastest = r.latencies_ns if fastest is None else np.minimum(fastest, r.latencies_ns)
        rounds.append(replace(r, output=None, latencies_ns=None))
        setup()
    while len(setup_s) < SETUP_REPS:
        setup()
    return Measurement(inputs, setup_s, raw_setup_s, first, mismatches, fastest, rounds)


def timing_summary(m: Measurement, ops_per_round: int):
    """Latency percentiles over the requests' fastest latencies, the
    throughput of the median round (everything it did included), and the
    median set-up time."""
    if m.fastest_ns is None:
        return None
    p50, p99 = np.quantile(m.fastest_ns, [0.5, 0.99])
    wall = statistics.median(r.wall_ns for r in m.rounds)
    return {
        "per_request_ns": m.fastest_ns,
        "setup_s": statistics.median(m.setup_s),
        "req_per_s": ops_per_round * 1e9 / wall,
        "request_us.p50": float(p50) / 1e3,
        "request_us.p99": float(p99) / 1e3,
        "samples": len(m.fastest_ns),
        "rounds": len(m.rounds),
        "round_wall_ns": wall,
        "raw.setup_s": statistics.median(m.raw_setup_s),
        "raw.req_per_s": ops_per_round * 1e9 / statistics.median(r.raw_wall_ns for r in m.rounds),
        "kernel_ms": statistics.median(r.kernel_ns for r in m.rounds) / 1e6,
    }


def traced_run(workload, seed, inputs, spans_path):
    """One traced setup and two traced rounds of identical work. The
    host-speed marks get spans of their own, because the simulator's marks
    run inside sim.run and would otherwise count as its self time."""
    tracer = Tracer()
    restore = patch_layers(tracer)
    mark = HostSpeed.mark
    HostSpeed.mark = tracer.wrap(mark, MARK_SPAN)
    try:
        workload.setup(seed)
        setup_agg = tracer.aggregate()
        results = []
        for i in range(2):
            tracer.reset()
            r = workload.run_round(inputs)
            results.append((r, tracer.aggregate()))
            if i == 0:
                tracer.save(str(spans_path))
    finally:
        HostSpeed.mark = mark
        restore()
    return setup_agg, results


def layer_metrics(agg, setup_agg, workload, untraced, traced):
    calls, us, counts = agg.calls, agg.self_us, agg.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("cbf.query", "cbf.insert", "cbf.remove", "datastore.access",
                 "datastore.insert", "datastore.holds", "core.profile", "core.context",
                 "core.expected_cost", "knapsack.all_budgets", "sim.run",
                 "sim.placement", "topology.cost_matrix"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.us"] = us.get(name, 0.0)
    m["cbf.query.positive_ratio"] = ratio(counts.get("cbf.query.positive", 0), m["cbf.query.calls"])
    m["cbf.update.us"] = m.pop("cbf.insert.us") + m.pop("cbf.remove.us")
    m["datastore.access.hit_ratio"] = ratio(counts.get("datastore.access.hit", 0),
                                            m["datastore.access.calls"])
    m["datastore.insert.evictions"] = counts.get("datastore.insert.evictions", 0)
    # run_grid's hook leaves the counts after each grid; their differences
    # are the grid's own counts.
    before = {}
    for g, after in zip(SIM_GRIDS, agg.grid_counts or [{}] * len(SIM_GRIDS)):
        def grid(key):
            return after.get(key, 0) - before.get(key, 0)
        m[f"cbf.query.{g.label}.positive_ratio"] = ratio(grid("cbf.query.positive"),
                                                         grid("cbf.query.queries"))
        m[f"datastore.insert.{g.label}.evictions"] = grid("datastore.insert.evictions")
        before = after
    m["core.context.candidates_mean"] = ratio(counts.get("core.context.candidates", 0),
                                              m["core.context.calls"])
    strategy_calls = 0
    for s in STRATEGY_NAMES:
        m[f"strategies.{s}.calls"] = calls.get(f"strategies.{s}", 0)
        m[f"strategies.{s}.us"] = us.get(f"strategies.{s}", 0.0)
        strategy_calls += m[f"strategies.{s}.calls"]
    m["strategies.empty_ratio"] = ratio(counts.get("strategies.empty", 0), strategy_calls)
    m["strategies.selected_mean"] = ratio(counts.get("strategies.selected", 0), strategy_calls)
    m["knapsack.all_budgets.cells"] = counts.get("knapsack.all_budgets.cells", 0)
    m["sim.loop.self_us"] = m.pop("sim.run.us")
    cells = workload.per_cell_us(untraced["per_request_ns"])
    for c in SIM_CELLS:
        m[f"sim.run.us_per_req.{c}"] = cells.get(c, 0.0)
    m["workload.zipf_trace.calls"] = setup_agg.calls.get("workload.zipf_trace", 0)
    m["workload.zipf_trace.us"] = setup_agg.self_us.get("workload.zipf_trace", 0.0)
    m["trace.overhead_ratio"] = traced.wall_ns / untraced["round_wall_ns"]
    dss_self_us = agg.self_sum_us - us.get(MARK_SPAN, 0.0)
    m["trace.self_sum_ratio"] = dss_self_us * 1e3 / traced.raw_wall_ns
    return m


def run_one(args) -> int:
    dss = import_dss()
    workload = make_workload(dss, args.workload)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    m = measure(workload, args.seed, args.seconds)
    inputs = m.inputs
    ops = workload.ops_per_round(inputs)
    ev = workload.evaluate(m.first, m.mismatches, inputs)
    timing = timing_summary(m, ops)
    attempted, failed = ev.attempted, ev.failed
    checks = dict(ev.checks)
    info = dict(ev.info)

    units = PER_LAYER if args.trace else END_TO_END
    if timing is None:
        checks["timed_rounds_completed"] = False
        metrics = dict.fromkeys(units, 0.0)
    elif args.trace:
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
        setup_agg, traced = traced_run(workload, args.seed, inputs, spans_path)
        (ra, agg_a), (rb, agg_b) = traced
        same = [not workload.mismatches(m.first.output, r.output) for r in (ra, rb)]
        attempted += 2 * ops
        failed += ops * same.count(False)
        metrics = layer_metrics(agg_a, setup_agg, workload, timing, ra)
        repeat = layer_metrics(agg_b, setup_agg, workload, timing, rb)
        checks["traced_output_matches_untraced"] = all(same)
        checks["exact_counts_repeat"] = all(metrics[n] == repeat[n] for n in EXACT)
        checks["self_times_within_10pct_of_total"] = abs(metrics["trace.self_sum_ratio"] - 1) <= 0.10
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": timing["setup_s"],
            "req_per_s": timing["req_per_s"],
            "request_us.p50": timing["request_us.p50"],
            "request_us.p99": timing["request_us.p99"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **ev.metrics,
        }
    if timing is not None:
        info["timed_rounds"] = timing["rounds"]
        info["latency_samples"] = timing["samples"]
        # The host's speed, and the figures before they were scaled to it.
        info["reference_kernel_ms"] = REFERENCE_NS / 1e6
        for key in ("kernel_ms", "raw.setup_s", "raw.req_per_s"):
            info[key] = timing[key]
    info["failed_ratio"] = failed / attempted if attempted else 1.0
    correct = failed == 0 and all(checks.values())

    env = environment()
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {workload.why}")
    for key, value in env.items():
        print(f"  env.{key} = {value}")
    for name, unit in units.items():
        tag = " [exact]" if name in EXACT else ""
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}{tag}")
    for key, value in info.items():
        print(f"  info.{key} = {value}")
    for key, ok in checks.items():
        print(f"  check.{key} = {'ok' if ok else 'FAILED'}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "exact": sorted(n for n in units if n in EXACT),
        "checks": checks,
        "info": info,
        "environment": env,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
