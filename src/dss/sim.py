"""Trace-driven simulation of indicator-guided datastore selection.

Every node of a topology hosts an LRU datastore with a counting Bloom
filter indicator and a miss-ratio estimator. Requests walk a trace; each
request is issued from a uniformly random client node (seeded). The client
collects positive indications from all stores, builds a selection context
out of its own access-cost row and the stores' current miss-ratio
estimates, asks the configured strategy which stores to access, and pays
for every access. If no accessed store holds the item, the miss penalty is
paid and the item is written to its k hash-designated stores.

A run with the ground-truth baseline strategy ("pi": access the single
cheapest store that truly holds the item) under the same seed and trace
provides the normalizer: reported AC and TC divide by the baseline's total
cost, so 1.0 means "as good as never being misled".

An item's hashes (its counter indexes in every store's filter and its store
ranking for placement) depend only on the seed and the item, so runs that
share a seed share one table of them: a grid hashes each item once per seed,
not once per cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cbf import FilterBank, _item_bytes, index_block, size_for_target_fpr
from .core import DatastoreProfile, SelectionContext, clamp_mis_ratio
from .datastore import Datastore
from .strategies import STRATEGIES
from .topology import Topology, cost_matrix, default_topology, load_topology
from .workload import load_trace

GROUND_TRUTH_STRATEGY = "pi"

# Hash functions per store filter.
NUM_HASHES = 5

_ALIASES = {
    "dsalg-pp": "pp",
    "dsalg_pp": "pp",
    "dsalg-knap": "umb",
    "dsalg_knap": "umb",
    "exhaustive": "opt",
}

DEFAULT_BENCH_STRATEGIES = ("cpi", "epi", "pot", "umb", "pgm", GROUND_TRUTH_STRATEGY)


def resolve_strategy(name: str) -> str:
    """Canonical strategy key (aliases folded, case-insensitive)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key != GROUND_TRUTH_STRATEGY and key not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES) + [GROUND_TRUTH_STRATEGY])
        raise ValueError(f"unknown strategy {name!r} (known: {known})")
    return key


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: strategy, environment sizes, and the seed."""

    strategy: str
    miss_penalty: float = 100.0
    locations_per_item: int = 1
    store_capacity: int = 1000
    target_fpr: float = 0.02
    alpha: float = 0.5
    big_t: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", resolve_strategy(self.strategy))
        if not (math.isfinite(self.miss_penalty) and self.miss_penalty >= 1.0):
            raise ValueError(f"miss_penalty must be finite and >= 1, got {self.miss_penalty}")
        if self.locations_per_item < 1:
            raise ValueError(
                f"locations_per_item must be >= 1, got {self.locations_per_item}"
            )
        if self.store_capacity < 1:
            raise ValueError(f"store_capacity must be >= 1, got {self.store_capacity}")
        if not (0.0 < self.target_fpr < 1.0):
            raise ValueError(f"target_fpr must lie in (0, 1), got {self.target_fpr}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SimMetrics:
    """Totals of one run of a config, plus normalized figures once a
    baseline is known."""

    config: SimConfig
    requests: int = 0
    access_cost: float = 0.0
    misses: int = 0
    ac_norm: float | None = None
    tc_norm: float | None = None
    log: list | None = None

    @property
    def strategy(self) -> str:
        return self.config.strategy

    @property
    def total_cost(self) -> float:
        return self.access_cost + self.config.miss_penalty * self.misses

    def normalize_against(self, baseline_total: float) -> None:
        if baseline_total <= 0:
            raise ValueError("baseline total cost must be positive")
        self.ac_norm = self.access_cost / baseline_total
        self.tc_norm = self.total_cost / baseline_total


def designated_stores(item, k: int, n_stores: int, seed: int) -> tuple[int, ...]:
    """The k stores an item hashes to: rendezvous (top-k keyed score) placement.

    Scores are keyed 64-bit digests of the item per store, so placement is
    stable across runs and processes and every store wins roughly uniformly.
    """
    if not (1 <= k <= n_stores):
        raise ValueError(f"k must lie in 1..{n_stores}, got {k}")
    return tuple(sorted(_store_ranking(item, n_stores, seed)[:k]))


def _store_ranking(item, n_stores: int, seed: int) -> list[int]:
    """Stores by descending keyed score of the item, ties toward the lower id."""
    key = (seed & (1 << 64) - 1).to_bytes(8, "little")
    prefix = hashlib.blake2b(_item_bytes(item), digest_size=8, key=key)
    scores = []
    for j in range(n_stores):
        h = prefix.copy()
        h.update(j.to_bytes(4, "little"))
        scores.append((-int.from_bytes(h.digest(), "little"), j))
    scores.sort()
    return [j for _, j in scores]


# Rows per chunk of the item-hash table. Chunks are never copied as the
# table grows, and at most one is partly empty.
_CHUNK_ROWS = 1024


class _ItemHashes:
    """Hash state per distinct item for one seed, filled as items first
    appear: the item's index block in every store's filter, and its store
    ranking, whose first k entries are ``designated_stores(item, k, ...)``.

    Rows live in fixed-size array chunks (an int32 index block and a
    small-int ranking per item), not in per-item Python containers.
    """

    __slots__ = ("seed", "filter_seeds", "num_counters",
                 "_rows", "_blocks", "_ranks", "_index_type", "_rank_type")

    def __init__(self, seed: int, n_stores: int, num_counters: int):
        self.seed = seed
        self.filter_seeds = tuple(seed * 1_000_003 + j for j in range(n_stores))
        self.num_counters = num_counters
        self._rows: dict = {}
        self._blocks: list[np.ndarray] = []
        self._ranks: list[np.ndarray] = []
        self._index_type = np.int32 if n_stores * num_counters <= 2**31 else np.int64
        self._rank_type = np.min_scalar_type(n_stores - 1)

    def bank(self) -> FilterBank:
        """An empty filter bank, one row per store, that reads its index
        blocks from this table."""
        return FilterBank(self.filter_seeds, self.num_counters, NUM_HASHES, block=self.block)

    def block(self, item) -> np.ndarray:
        chunk, offset = divmod(self._row(item), _CHUNK_ROWS)
        return self._blocks[chunk][offset]

    def placement(self, item, k: int) -> tuple[int, ...]:
        """Same as designated_stores(item, k, n_stores, seed)."""
        chunk, offset = divmod(self._row(item), _CHUNK_ROWS)
        return tuple(sorted(self._ranks[chunk][offset, :k].tolist()))

    def _row(self, item) -> int:
        row = self._rows.get(item)
        if row is not None:
            return row
        row = len(self._rows)
        chunk, offset = divmod(row, _CHUNK_ROWS)
        seeds = self.filter_seeds
        if offset == 0:
            width = len(seeds) * NUM_HASHES
            self._blocks.append(np.empty((_CHUNK_ROWS, width), dtype=self._index_type))
            self._ranks.append(np.empty((_CHUNK_ROWS, len(seeds)), dtype=self._rank_type))
        self._blocks[chunk][offset] = index_block(item, seeds, self.num_counters, NUM_HASHES)
        self._ranks[chunk][offset] = _store_ranking(item, len(seeds), self.seed)
        self._rows[item] = row
        return row


@dataclass(frozen=True)
class _Shared:
    """What runs over one topology, seed and filter size share: the cost
    rows and the item-hash table. It lives only as long as the call that
    made it (run or run_grid)."""

    cost_rows: list
    hashes: _ItemHashes


def _make_shared(config: SimConfig, topo: Topology) -> _Shared:
    cost_rows = cost_matrix(topo, config.alpha, config.big_t).tolist()
    num_counters = size_for_target_fpr(config.store_capacity, config.target_fpr, NUM_HASHES)
    hashes = _ItemHashes(config.seed, len(topo.nodes), num_counters)
    return _Shared(cost_rows, hashes)


def run(
    config: SimConfig,
    topology: Topology | str | None = None,
    trace: Sequence | str | None = None,
    record_log: bool = False,
    *,
    _shared: _Shared | None = None,
) -> SimMetrics:
    """Simulate one strategy over a trace; returns raw (un-normalized) totals.

    ``_shared`` is the state that run_grid shares across its runs; it must
    have been made for this config and topology.
    """
    topo = _as_topology(topology)
    items = _as_trace(trace)
    n_stores = len(topo.nodes)
    if config.locations_per_item > n_stores:
        raise ValueError(
            f"locations_per_item {config.locations_per_item} exceeds "
            f"{n_stores} stores"
        )
    shared = _shared or _make_shared(config, topo)
    hashes = shared.hashes
    bank = hashes.bank()
    stores = [Datastore(j, config.store_capacity, bank.filter(j)) for j in range(n_stores)]
    ground_truth = config.strategy == GROUND_TRUTH_STRATEGY
    strategy = None if ground_truth else STRATEGIES[config.strategy]

    rng = np.random.default_rng(config.seed)
    clients = rng.integers(0, n_stores, size=len(items))
    cost_rows = shared.cost_rows
    beta = config.miss_penalty
    k = config.locations_per_item

    log = [] if record_log else None
    access_total = 0.0
    misses = 0

    for item, client in zip(items, clients.tolist()):
        row = cost_rows[client]
        if ground_truth:
            chosen = _cheapest_holder(stores, hashes.placement(item, k), item, row)
        else:
            profiles = tuple(
                DatastoreProfile(
                    j, float(row[j]), clamp_mis_ratio(stores[j].estimator.estimate)
                )
                for j in bank.positives(hashes.block(item))
            )
            ctx = SelectionContext(profiles, beta)
            chosen = [p.id for p in strategy(ctx)]
        paid = 0.0
        hit = False
        for j in chosen:
            paid += row[j]
            if stores[j].access(item):
                hit = True
        access_total += paid
        if not hit:
            misses += 1
            for j in hashes.placement(item, k):
                if not stores[j].holds(item):
                    stores[j].insert(item)
        if log is not None:
            log.append((item, client, tuple(chosen), paid, hit))

    return SimMetrics(config, len(items), access_total, misses, log=log)


def _cheapest_holder(
    stores: list[Datastore], designated: Sequence[int], item, row: list
) -> list[int]:
    """The cheapest store (ties to the lower id) that holds the item. Items
    are only ever inserted at their designated stores, so only those can."""
    best = None
    best_key = None
    for j in designated:
        if stores[j].holds(item):
            key = (row[j], j)
            if best_key is None or key < best_key:
                best, best_key = j, key
    return [] if best is None else [best]


def run_with_baseline(
    config: SimConfig,
    topology: Topology | str | None = None,
    trace: Sequence | str | None = None,
) -> tuple[SimMetrics, SimMetrics]:
    """Run a strategy plus its ground-truth twin (same seed and trace) as a
    one-cell grid; returns (strategy metrics, baseline metrics), both
    normalized. For the ground truth itself both are the same object."""
    rows = run_grid([GROUND_TRUTH_STRATEGY, config.strategy], [config.miss_penalty],
                    [config.locations_per_item], [config.seed], topology, trace,
                    config.store_capacity, config.target_fpr, config.alpha, config.big_t)
    return rows[-1], rows[0]


def run_grid(
    strategies: Sequence[str],
    betas: Sequence[float],
    ks: Sequence[int],
    seeds: Sequence[int],
    topology: Topology | str | None = None,
    trace: Sequence | str | None = None,
    store_capacity: int = 1000,
    target_fpr: float = 0.02,
    alpha: float = 0.5,
    big_t: float | None = None,
) -> list[SimMetrics]:
    """Benchmark grid. The ground-truth baseline runs once per
    (beta, k, seed) cell and normalizes every strategy in that cell. The
    cells of a seed share one cost matrix and one item-hash table."""
    topo = _as_topology(topology)
    items = _as_trace(trace)
    names = [resolve_strategy(s) for s in strategies]
    shared: dict[int, _Shared] = {}
    rows = []
    for beta in betas:
        for k in ks:
            for seed in seeds:
                cell = SimConfig(
                    strategy=GROUND_TRUTH_STRATEGY,
                    miss_penalty=beta,
                    locations_per_item=k,
                    store_capacity=store_capacity,
                    target_fpr=target_fpr,
                    alpha=alpha,
                    big_t=big_t,
                    seed=seed,
                )
                if seed not in shared:
                    shared[seed] = _make_shared(cell, topo)
                baseline = run(cell, topo, items, _shared=shared[seed])
                baseline.normalize_against(baseline.total_cost)
                for name in names:
                    if name == GROUND_TRUTH_STRATEGY:
                        rows.append(baseline)
                        continue
                    metrics = run(dataclasses.replace(cell, strategy=name), topo, items,
                                  _shared=shared[seed])
                    metrics.normalize_against(baseline.total_cost)
                    rows.append(metrics)
    return rows


METRICS_CSV_HEADER = (
    "strategy,beta,k,S,fpr,alpha,seed,requests,AC,TC,misses,AC_norm,TC_norm"
)


def metrics_csv(rows: Sequence[SimMetrics]) -> str:
    """Render runs as CSV (six significant digits on real-valued columns)."""
    out = [METRICS_CSV_HEADER]
    for m in rows:
        c = m.config
        out.append(
            ",".join(
                [
                    c.strategy,
                    format(c.miss_penalty, ".6g"),
                    str(c.locations_per_item),
                    str(c.store_capacity),
                    format(c.target_fpr, ".6g"),
                    format(c.alpha, ".6g"),
                    str(c.seed),
                    str(m.requests),
                    format(m.access_cost, ".6g"),
                    format(m.total_cost, ".6g"),
                    str(m.misses),
                    "" if m.ac_norm is None else format(m.ac_norm, ".6g"),
                    "" if m.tc_norm is None else format(m.tc_norm, ".6g"),
                ]
            )
        )
    return "\n".join(out) + "\n"


def markdown_summary(rows: Sequence[SimMetrics]) -> str:
    """Pivot table of seed-averaged normalized costs per strategy and cell."""
    cells = sorted({(m.config.miss_penalty, m.config.locations_per_item) for m in rows})
    names = list(dict.fromkeys(m.config.strategy for m in rows))
    header = "| strategy | " + " | ".join(
        f"beta={format(b, '.6g')}, k={k}" for b, k in cells
    ) + " |"
    rule = "|" + "---|" * (len(cells) + 1)
    lines = [
        "Normalized cost against the ground-truth baseline "
        "(TC_norm, with AC_norm in parentheses; averaged over seeds):",
        "",
        header,
        rule,
    ]
    for name in names:
        entries = []
        for b, k in cells:
            sample = [
                m
                for m in rows
                if m.config.strategy == name
                and m.config.miss_penalty == b
                and m.config.locations_per_item == k
                and m.tc_norm is not None
            ]
            if not sample:
                entries.append("-")
                continue
            tc = sum(m.tc_norm for m in sample) / len(sample)
            ac = sum(m.ac_norm for m in sample) / len(sample)
            entries.append(f"{tc:.4g} ({ac:.4g})")
        lines.append("| " + name + " | " + " | ".join(entries) + " |")
    return "\n".join(lines) + "\n"


def _as_topology(topology: Topology | str | None) -> Topology:
    if topology is None:
        return default_topology()
    if isinstance(topology, Topology):
        return topology
    return load_topology(topology)


def _as_trace(trace: Sequence | str | None):
    if trace is None:
        raise ValueError("a trace (sequence or file path) is required")
    if isinstance(trace, str):
        return load_trace(trace)
    return trace
