"""The benchmark workloads.

Each workload is closed loop, single process and single thread: the next
request starts only when the previous one has returned. A workload builds
its inputs from the seed (``setup``), runs one fixed unit of work per round
(``run_round``) and, once all rounds are done, checks the outputs and
derives its metrics (``evaluate``). Rounds repeat identical work, so the
per-request latencies of different rounds line up index by index, and
every round's output must equal the first round's (``mismatches``). A round
marks the host's speed (see hostspeed.py) at its ends and between short
segments of its work, and its times are scaled by it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np
from hostspeed import HostSpeed

SIM_BETA = 100.0
SIM_KS = (1, 5)
SIM_FPR = 0.02
SIM_WARMUP_REQUESTS = 200
SIM_MARK_EVERY = 1000  # simulated requests (~0.1 s) between host-speed marks

SELECT_BETAS = (100.0, 1000.0)
SELECT_MAX_CANDIDATES = 19
SELECT_CONTEXTS_PER_SHAPE = 40
SELECT_SEGMENT_NS = 100_000_000  # selection calls between host-speed marks
OPT_MAX_CANDIDATES = 12
# Public selector for each strategy name, in call order.
SELECTORS = {
    "cpi": "select_cpi",
    "epi": "select_epi",
    "pot": "select_pot",
    "pp": "select_dsalg_pp",
    "umb": "select_dsalg_knap",
    "pgm": "select_pgm",
    "opt": "select_exhaustive",
}
# Exact on integer costs: the reference the heuristics are judged against.
SELECT_REFERENCE = "pp"
SELECT_HEURISTICS = ("cpi", "epi", "pot", "umb", "pgm")
TOL = 1e-9  # absolute phi tolerance, as in the acceptance tests


@dataclass
class Round:
    """One round: its wall time and per-request latencies in ns, both scaled
    to the reference host speed; its wall time as measured; the kernel's
    median time at its host-speed marks; and its output (None when the round
    raised)."""

    wall_ns: float
    raw_wall_ns: int
    kernel_ns: float
    latencies_ns: np.ndarray
    output: object
    error: str | None = None


_NO_REQUESTS = np.empty(0, np.int64)


def _round(speed: HostSpeed, starts_ns, latencies_ns, output, error=None) -> Round:
    return Round(speed.scaled_ns(), speed.raw_ns(), float(np.median(speed.kernel_ns)),
                 speed.scale(starts_ns, latencies_ns), output, error)


@dataclass
class Evaluation:
    attempted: int
    failed: int
    checks: dict[str, bool]
    metrics: dict[str, float]
    info: dict[str, object] = field(default_factory=dict)


class _TimedTrace:
    """A trace that stamps the clock when the simulator takes a request and
    when it asks for the next one, so the two stamps bracket the request, and
    marks the host's speed before each pass and every SIM_MARK_EVERY
    requests. The simulator only takes ``len`` of a trace and iterates it,
    and sees the same items."""

    def __init__(self, items, speed: HostSpeed):
        self.items = items
        self.speed = speed
        self.passes: list[tuple[list[int], list[int]]] = []

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        starts: list[int] = []
        ends: list[int] = []
        self.passes.append((starts, ends))
        clock = time.perf_counter_ns
        for i, item in enumerate(self.items):
            if i % SIM_MARK_EVERY == 0:
                self.speed.mark()
            starts.append(clock())
            yield item
            ends.append(clock())


@dataclass(frozen=True)
class Grid:
    """One run_grid: a seeded Zipf trace against stores of one capacity."""

    label: str
    catalog: int
    skew: float
    capacity: int
    strategies: tuple

    @property
    def passes(self) -> list[tuple[str, int]]:
        """(strategy, k) of each trace pass: run_grid runs the ground-truth
        baseline first in every k, then the other strategies in order."""
        others = [s for s in self.strategies if s != "pi"]
        return [(s, k) for k in SIM_KS for s in ["pi", *others]]


SIM_REQUESTS = 2000
# Capacities are scaled to the short traces: a 2000-request trace holds
# about 1000 distinct hot items, so at these sizes every store fills in both
# k cells, evicts, and its filter runs near the target false-positive rate.
#
# Read-leaning: almost half the requests hit (the rest are mostly first
# requests of an item), ~19 indicator queries per request dominate, and at
# k=5 the strategies see several candidates.
HOT = Grid("hot", catalog=20_000, skew=1.0, capacity=40,
           strategies=("cpi", "epi", "pot", "umb", "pgm", "pi"))
# Write-dominated: the catalog dwarfs total capacity, so almost every
# request misses and inserts, evicts, updates filters and hashes a new item.
CHURN = Grid("churn", catalog=200_000, skew=0.6, capacity=20,
             strategies=("cpi", "pgm", "pi"))
SIM_GRIDS = (HOT, CHURN)


@dataclass(frozen=True)
class SimInputs:
    traces: tuple  # one per grid
    topology: object
    seed: int


class SimWorkload:
    """run_grid over each grid's seeded Zipf trace on the bundled topology."""

    cells = [(g.label, s, k) for g in SIM_GRIDS for s, k in g.passes]

    def __init__(self, dss, why):
        self.dss = dss
        self.why = why

    def setup(self, seed: int) -> SimInputs:
        dss = self.dss
        topology = dss.default_topology()
        traces = []
        for g in SIM_GRIDS:
            trace = dss.zipf_trace(SIM_REQUESTS, g.catalog, g.skew, seed=seed)
            warmup = dss.SimConfig(
                strategy=g.strategies[0], miss_penalty=SIM_BETA,
                store_capacity=g.capacity, target_fpr=SIM_FPR, seed=seed,
            )
            dss.run(warmup, topology, trace[:SIM_WARMUP_REQUESTS])
            traces.append(trace)
        return SimInputs(tuple(traces), topology, seed)

    def run_round(self, inputs: SimInputs) -> Round:
        rows = []
        passes = []
        speed = HostSpeed()
        speed.mark()
        try:
            for g, trace in zip(SIM_GRIDS, inputs.traces):
                timed = _TimedTrace(trace, speed)
                rows += self.dss.run_grid(
                    list(g.strategies), [SIM_BETA], list(SIM_KS), [inputs.seed],
                    topology=inputs.topology, trace=timed,
                    store_capacity=g.capacity, target_fpr=SIM_FPR,
                )
                passes += timed.passes
        except Exception as exc:  # counted as failed work, reported below
            speed.mark()
            return _round(speed, _NO_REQUESTS, _NO_REQUESTS, None, repr(exc))
        speed.mark()
        if len(passes) != len(self.cells):
            return _round(speed, _NO_REQUESTS, _NO_REQUESTS, None,
                          f"{len(passes)} trace passes for {len(self.cells)} cells")
        starts = np.concatenate([np.asarray(s, dtype=np.int64) for s, _ in passes])
        ends = np.concatenate([np.asarray(e, dtype=np.int64) for _, e in passes])
        return _round(speed, starts, ends - starts, rows)

    def ops_per_round(self, inputs: SimInputs) -> int:
        return SIM_REQUESTS * len(self.cells)

    def mismatches(self, first, output) -> set[int]:
        """Rows of ``output`` whose CSV line differs from the first round's."""
        lines = self.dss.metrics_csv(first).splitlines()[1:]
        again = [] if output is None else self.dss.metrics_csv(output).splitlines()[1:]
        return {i for i, line in enumerate(lines) if i >= len(again) or again[i] != line}

    def evaluate(self, first: Round, mismatches: list[set[int]], inputs: SimInputs) -> Evaluation:
        """Checks the first round's rows; every later round must repeat them."""
        n = SIM_REQUESTS
        attempted = self.ops_per_round(inputs) * (1 + len(mismatches))
        rows = first.output
        if rows is None:
            return Evaluation(attempted, attempted, {"round_completed": False},
                              {"tc_norm": 0.0, "miss_ratio": 0.0}, {"error": first.error})
        bad = {
            i for i, row in enumerate(rows)
            if not (row.requests == n
                    and 0 <= row.misses <= n
                    and row.tc_norm is not None
                    and math.isfinite(row.tc_norm)
                    and row.tc_norm > 0
                    and (row.strategy != "pi" or row.tc_norm == 1.0))
        }
        failed = n * (len(bad) + sum(len(bad | m) for m in mismatches))
        labels = [g.label for g in SIM_GRIDS for _ in g.passes]  # run_grid gives one row per pass
        metrics = _sim_quality(rows)
        info = {
            "csv_sha256": hashlib.sha256(self.dss.metrics_csv(rows).encode("utf-8")).hexdigest(),
            "requests_per_cell": n,
            "cells": len(self.cells),
        }
        for g in SIM_GRIDS:
            part = [row for row, label in zip(rows, labels) if label == g.label]
            pi_rows = [row for row in part if row.strategy == "pi"]
            info[f"{g.label}.pi_hit_ratio"] = float(
                np.mean([1 - row.misses / row.requests for row in pi_rows]))
            for key, value in _sim_quality(part).items():
                info[f"{g.label}.{key}"] = value
        checks = {
            "rows_valid_and_pi_tc_norm_1": not bad,
            "csv_identical_across_rounds": not any(mismatches),
        }
        return Evaluation(attempted, failed, checks, metrics, info)

    def per_cell_us(self, per_request_ns: np.ndarray) -> dict[str, float]:
        """Mean latency per simulated request of each cell, in µs."""
        cells = per_request_ns.reshape(len(self.cells), SIM_REQUESTS)
        return {f"{g}.{s}.k{k}": float(c.mean()) / 1e3 for (g, s, k), c in zip(self.cells, cells)}


def _sim_quality(rows) -> dict[str, float]:
    """TC_norm and miss ratio averaged over the non-baseline rows."""
    heur = [row for row in rows if row.strategy != "pi"]
    return {
        "tc_norm": float(np.mean([row.tc_norm for row in heur])),
        "miss_ratio": float(np.mean([row.misses / row.requests for row in heur])),
    }


@dataclass(frozen=True)
class SelectInputs:
    contexts: list
    calls: list  # (context index, strategy name)


class SelectWorkload:
    """Direct select_* calls on seeded synthetic selection contexts."""

    strategies = tuple(SELECTORS)

    def __init__(self, dss, why):
        self.dss = dss
        self.why = why

    def setup(self, seed: int) -> SelectInputs:
        dss = self.dss
        costs = dss.cost_matrix(dss.default_topology())
        n_stores = costs.shape[0]
        rng = np.random.default_rng(seed)
        contexts = []
        # Every (beta, candidate count) shape appears equally often, so the
        # mix of cheap and expensive calls does not depend on the seed.
        for _ in range(SELECT_CONTEXTS_PER_SHAPE):
            for beta in SELECT_BETAS:
                for n in range(1, SELECT_MAX_CANDIDATES + 1):
                    client = int(rng.integers(n_stores))
                    ids = np.sort(rng.choice(n_stores, size=n, replace=False))
                    rhos = rng.uniform(0.005, 0.995, size=n)
                    profiles = tuple(
                        dss.DatastoreProfile(int(j), float(costs[client, j]), float(r))
                        for j, r in zip(ids, rhos)
                    )
                    contexts.append(dss.SelectionContext(profiles, beta))
        calls = [
            (i, s)
            for i, ctx in enumerate(contexts)
            for s in self.strategies
            if s != "opt" or ctx.n_positive <= OPT_MAX_CANDIDATES
        ]
        warm = next(c for c in contexts if c.n_positive == OPT_MAX_CANDIDATES)
        for s in self.strategies:
            getattr(dss, SELECTORS[s])(warm)
        return SelectInputs(contexts, calls)

    def run_round(self, inputs: SelectInputs) -> Round:
        # Resolved per round, so a traced round calls the traced selectors.
        fns = {s: getattr(self.dss, SELECTORS[s]) for s in self.strategies}
        contexts = inputs.contexts
        clock = time.perf_counter_ns
        speed = HostSpeed()
        starts = []
        lat = []
        out = []
        error = None
        speed.mark()
        for i, s in inputs.calls:
            fn = fns[s]
            ctx = contexts[i]
            t = clock()
            try:
                sel = fn(ctx)
            except Exception as exc:  # counted as a failed call
                sel = None
                error = error or f"{s}: {exc!r}"
            end = clock()
            starts.append(t)
            lat.append(end - t)
            out.append(sel)
            if end - speed.ends[-1] > SELECT_SEGMENT_NS:
                speed.mark()
        speed.mark()
        return _round(speed, np.asarray(starts, dtype=np.int64),
                      np.asarray(lat, dtype=np.int64), out, error)

    def ops_per_round(self, inputs: SelectInputs) -> int:
        return len(inputs.calls)

    def mismatches(self, first, output) -> set[int]:
        """Calls whose selection differs from the first round's."""
        if output is None:
            return set(range(len(first)))
        return {j for j, (a, b) in enumerate(zip(first, output)) if a != b}

    def evaluate(self, first: Round, mismatches: list[set[int]], inputs: SelectInputs) -> Evaluation:
        """Checks the first round's selections; every later round must repeat them."""
        phi = self.dss.phi
        calls = inputs.calls
        sels = first.output
        ref = {
            i: phi(sel, inputs.contexts[i].miss_penalty)
            for (i, s), sel in zip(calls, sels)
            if s == SELECT_REFERENCE and sel is not None
        }
        bad = set()
        ratios = []
        misses = []
        for j, ((i, s), sel) in enumerate(zip(calls, sels)):
            ctx = inputs.contexts[i]
            if sel is None or i not in ref or not self._valid(ctx, s, sel, ref[i]):
                bad.add(j)
            elif s in SELECT_HEURISTICS:
                ratios.append(phi(sel, ctx.miss_penalty) / ref[i])
                misses.append(self.dss.expected_cost(sel, ctx.miss_penalty).miss_ratio)
        failed = len(bad) + sum(len(bad | m) for m in mismatches)
        metrics = {
            "tc_norm": float(np.mean(ratios)) if ratios else 0.0,
            "miss_ratio": float(np.mean(misses)) if misses else 0.0,
        }
        info = {
            "contexts": len(inputs.contexts),
            "calls_per_round": len(calls),
            "phi_over_opt": metrics["tc_norm"],
            "selections_sha256": hashlib.sha256(
                repr([None if s is None else tuple(p.id for p in s) for s in sels]).encode()
            ).hexdigest(),
        }
        if first.error:
            info["error"] = first.error
        checks = {
            "selections_valid_and_within_bounds": not bad,
            "selections_identical_across_rounds": not any(mismatches),
        }
        return Evaluation(len(calls) * (1 + len(mismatches)), failed, checks, metrics, info)

    def _valid(self, ctx, strategy, sel, opt) -> bool:
        """Subset sorted by id, never below the optimum, exact where it must
        be, and within the proven bound where there is one."""
        ids = [p.id for p in sel]
        if not isinstance(sel, tuple) or ids != sorted(set(ids)):
            return False
        if not set(sel) <= set(ctx.candidates):
            return False
        beta = ctx.miss_penalty
        value = self.dss.phi(sel, beta)
        if value < opt - TOL:
            return False
        if strategy in ("pp", "opt"):
            return value == opt or math.isclose(value, opt, abs_tol=TOL)
        if strategy == "pot" and sel:
            state = self.dss.potential_state(ctx)
            k = len(sel)
            return value <= state.high_cost_sums[k] / state.low_cost_sums[k] * opt + TOL
        if strategy == "pot":
            return math.isclose(value, opt, abs_tol=TOL)
        if strategy == "pgm":
            return value <= 2.0 * math.log2(beta) * opt + TOL
        return True

    def per_cell_us(self, per_request_ns: np.ndarray) -> dict[str, float]:
        return {}  # no simulated cells
