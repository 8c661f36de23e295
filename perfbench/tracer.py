"""In-memory spans around the public callables of each dss layer.

The traced run replaces module globals and class methods of the dss
package with wrappers that record one span per call: name, start, end,
parent span and run id. Spans live in flat arrays until the run ends;
self time (duration minus the time covered by child spans) is computed
afterwards. Counter hooks look at arguments and results at the same
boundaries, so ratios such as the indicator's positive share are counted
where the work happens. Nothing in the dss sources changes; the patches are
undone when the traced run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def _positive(tracer, args, result):
    tracer.counts["cbf.query.queries"] += 1
    tracer.counts["cbf.query.positive"] += bool(result)


def _hit(tracer, args, result):
    tracer.counts["datastore.access.hit"] += bool(result)


def _evicted(tracer, args, result):
    tracer.counts["datastore.insert.evictions"] += result is not None


def _candidates(tracer, args, result):
    tracer.counts["core.context.candidates"] += len(args[0].candidates)


def _selection(tracer, args, result):
    tracer.counts["strategies.empty"] += not result
    tracer.counts["strategies.selected"] += len(result)


def _cells(tracer, args, result):
    items, max_budget = args
    tracer.counts["knapsack.all_budgets.cells"] += len(items) * (max_budget + 1)


def _grid_done(tracer, args, result):
    tracer.grid_counts.append(dict(tracer.counts))


# (module, attribute, span name, counter hook). A dotted attribute is a
# method patched on its class; a plain one is a module-level function,
# replaced wherever a dss module (or a module-level dict such as the
# simulator's strategy table) holds a reference to it.
TARGETS = (
    ("cbf", "CountingBloomFilter.query", "cbf.query", _positive),
    ("cbf", "CountingBloomFilter.insert", "cbf.insert", None),
    ("cbf", "CountingBloomFilter.remove", "cbf.remove", None),
    ("datastore", "Datastore.access", "datastore.access", _hit),
    ("datastore", "Datastore.insert", "datastore.insert", _evicted),
    ("datastore", "Datastore.holds", "datastore.holds", None),
    ("core", "DatastoreProfile.__init__", "core.profile", None),
    ("core", "SelectionContext.__init__", "core.context", _candidates),
    ("core", "expected_cost", "core.expected_cost", None),
    ("strategies", "select_cpi", "strategies.cpi", _selection),
    ("strategies", "select_epi", "strategies.epi", _selection),
    ("strategies", "select_pot", "strategies.pot", _selection),
    ("strategies", "select_dsalg_pp", "strategies.pp", _selection),
    ("strategies", "select_dsalg_knap", "strategies.umb", _selection),
    ("strategies", "select_pgm", "strategies.pgm", _selection),
    ("strategies", "select_exhaustive", "strategies.opt", _selection),
    ("knapsack", "solve_exact_all_budgets", "knapsack.all_budgets", _cells),
    ("sim", "run_grid", "sim.run_grid", _grid_done),
    ("sim", "run", "sim.run", None),
    ("sim", "designated_stores", "sim.placement", None),
    ("topology", "cost_matrix", "topology.cost_matrix", None),
    ("topology", "default_topology", "topology.default_topology", None),
    ("workload", "zipf_trace", "workload.zipf_trace", None),
)

# A span with this name starts a new run id even when it has a parent, so
# each simulated cell inside run_grid gets its own id.
RUN_ROOT = "sim.run"


class Tracer:
    """Span recorder. Not thread-safe: the benchmark is single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self._name = array("H")
        self._parent = array("l")
        self._run = array("l")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._run_id = -1
        self.counts: defaultdict[str, int] = defaultdict(int)
        # The counts as they stood after each run_grid call, in call order.
        self.grid_counts: list[dict[str, int]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self.name_id(name)
        root_nid = self.name_id(RUN_ROOT)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer._start)
            tracer._name.append(nid)
            tracer._parent.append(stack[-1] if stack else -1)
            if not stack or nid == root_nid:
                tracer._run_id += 1
            tracer._run.append(tracer._run_id)
            tracer._end.append(0)
            stack.append(idx)
            tracer._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.wraps(fn)(traced)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "run": np.asarray(self._run, dtype=np.int64),
            "start_ns": np.asarray(self._start, dtype=np.int64),
            "end_ns": np.asarray(self._end, dtype=np.int64),
        }

    def aggregate(self) -> "Aggregate":
        s = self.spans()
        dur = s["end_ns"] - s["start_ns"]
        has_parent = s["parent"] >= 0
        covered = np.bincount(
            s["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - covered
        n_names = len(self.names)
        calls = np.bincount(s["name"], minlength=n_names)
        self_total = np.bincount(s["name"], weights=self_ns, minlength=n_names)
        return Aggregate(
            calls={n: int(calls[i]) for i, n in enumerate(self.names)},
            self_us={n: float(self_total[i]) / 1e3 for i, n in enumerate(self.names)},
            self_sum_us=float(self_ns.sum()) / 1e3,
            counts=dict(self.counts),
            grid_counts=list(self.grid_counts),
        )

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


@dataclass
class Aggregate:
    calls: dict[str, int]
    self_us: dict[str, float]
    self_sum_us: float
    counts: dict[str, int]
    grid_counts: list[dict[str, int]]


def patch_layers(tracer: Tracer):
    """Install tracing wrappers for every TARGETS entry; returns an undo function."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "dss" or k.startswith("dss."))]
    undo = []
    for mod_name, attr, span, hook in TARGETS:
        owner_mod = sys.modules[f"dss.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner_mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(original, span, hook))
            undo.append(functools.partial(setattr, cls, meth, original))
            continue
        original = getattr(owner_mod, attr)
        wrapper = tracer.wrap(original, span, hook)
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    undo.append(functools.partial(namespace.__setitem__, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            undo.append(functools.partial(value.__setitem__, dkey, original))

    def restore():
        for step in reversed(undo):
            step()

    return restore
