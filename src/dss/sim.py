"""Trace-driven simulation of indicator-guided datastore selection.

Every node of a topology hosts an LRU datastore with a counting Bloom
filter indicator and a miss-ratio estimator. Requests walk a trace; each
request is issued from a uniformly random client node (seeded). The client
collects positive indications from all stores, builds a selection context
out of its own access-cost row and the stores' current miss-ratio
estimates, asks the configured strategy which stores to access, and pays
for every access. If no accessed store holds the item, the miss penalty is
paid and the item is written to its k hash-designated stores.

The ground-truth baseline "pi" is cpi under a perfect indicator: its
candidates are the item's designated stores that hold it. Nothing reads a
filter there, so its stores keep none. A run of it under the same seed and
trace provides the normalizer: reported AC and TC divide by the baseline's
total cost, so 1.0 means "as good as never being misled".

An item's hashes (its store ranking for placement and, for filtered runs,
its counter indexes in every store's filter) depend only on the seed and the
item, so runs that share a seed share one table of them: a grid hashes each
item once per seed, not once per cell. A grid's ground truth runs first and
fills the table with rankings alone; the table hashes those items' index
blocks in batches as it hands the first filtered run its filter bank.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cbf import FilterBank, _item_bytes, index_blocks, size_for_target_fpr
from .core import RHO_MAX, DatastoreProfile, SelectionContext
from .datastore import Datastore
from .strategies import STRATEGIES
from .topology import Topology, cost_matrix, default_topology, load_topology
from .workload import _integer, load_trace

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
        if not isinstance(self.strategy, str):
            raise ValueError(f"strategy must be a str, got {self.strategy!r}")
        object.__setattr__(self, "strategy", resolve_strategy(self.strategy))
        for name in ("miss_penalty", "target_fpr", "alpha", "big_t"):
            value = getattr(self, name)
            if value is None and name == "big_t":
                continue  # cost_matrix checks big_t against the topology
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        # The probe context refuses a miss penalty that is not finite and >= 1.
        probe = SelectionContext((), self.miss_penalty)
        for name, least in (("locations_per_item", 1), ("store_capacity", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        if not (0.0 < self.target_fpr < 1.0):
            raise ValueError(f"target_fpr must lie in (0, 1), got {self.target_fpr}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.strategy != GROUND_TRUTH_STRATEGY:
            # A selector that refuses this miss penalty refuses the empty
            # context too, so the refusal comes before any run.
            STRATEGIES[self.strategy](probe)


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
    ``k``, ``n_stores`` and ``seed`` are integers (not bools) as in
    ``SimConfig``: n_stores >= 1, seed >= 0 and k in 1..n_stores.
    """
    n_stores = _integer("n_stores", n_stores, 1)
    seed = _integer("seed", seed, 0)
    k = _integer("k", k, None)
    if not (1 <= k <= n_stores):
        raise ValueError(f"k must lie in 1..{n_stores}, got {k}")
    return tuple(sorted(_store_ranking(item, n_stores, seed)[:k].tolist()))


def _store_ranking(item, n_stores: int, seed: int) -> np.ndarray:
    """Stores by descending keyed score of the item, ties toward the lower id."""
    key = (seed & (1 << 64) - 1).to_bytes(8, "little")
    prefix = hashlib.blake2b(_item_bytes(item), digest_size=8, key=key)
    digests = []
    for j in range(n_stores):
        h = prefix.copy()
        h.update(j.to_bytes(4, "little"))
        digests.append(h.digest())
    scores = np.frombuffer(b"".join(digests), dtype="<u8")
    # Ascending ~score is descending score; the stable sort keeps ties in id order.
    return np.argsort(~scores, kind="stable")


# Rows per chunk of the item-hash table. Chunks are never copied as the
# table grows, and at most one is partly empty.
_CHUNK_ROWS = 1024

# Most rows whose index blocks one numpy pass hashes: it bounds the pass's
# temporaries. A divisor of _CHUNK_ROWS, so batches from row 0 fill whole
# chunks.
_BATCH_ROWS = 256

# Counters in one run's filter bank, over all stores: the most that int32
# index blocks can address.
_MAX_BANK_COUNTERS = 2**31


class _ItemHashes:
    """Hash state per distinct item for one seed, filled as items first
    appear: its store ranking, whose first k entries are
    ``designated_stores(item, k, ...)`` (in rank order, not sorted), and in
    a ``filtered`` table (one for runs other than "pi") its index block in
    every store's filter (hash-major, one column per store; see
    ``index_block``). Only a filtered table sizes the filters, refusing a
    bank that int32 index blocks cannot address.

    Index blocks wait for the first ``bank`` call, which a filtered run makes
    before its first request: the rows filled before then (a ground-truth
    run's items) are hashed in batches of at most _BATCH_ROWS, and each row
    filled after it hashes its own block.

    Rows live in fixed-size chunks (an int32 array of index blocks and a
    flat ``array`` of rankings in the narrowest unsigned type that holds
    every store id), not in per-item Python containers. Each block chunk
    also has a flat int32 ``memoryview`` of its memory, from which a miss
    takes a store's column of the block as a strided slice: Python ints,
    with no numpy call. ``row`` hands out only an item's row number; a
    reader finds the row in the chunk lists ``_ranks``, ``_blocks`` and
    ``_flats``, which only ever grow at the end.
    """

    __slots__ = ("seed", "filter_seeds", "num_counters", "_rows", "_blocks", "_flats",
                 "_ranks", "_hashing", "_block_shape", "_rank_type")

    def __init__(self, config: SimConfig, n_stores: int, filtered: bool):
        self.seed = config.seed
        self.filter_seeds = tuple(config.seed * 1_000_003 + j for j in range(n_stores))
        fpr, capacity = config.target_fpr, config.store_capacity
        m = self.num_counters = size_for_target_fpr(capacity, fpr, NUM_HASHES) if filtered else 0
        if n_stores * m > _MAX_BANK_COUNTERS:
            raise ValueError(
                f"target_fpr {fpr:g} at store_capacity {capacity} needs {m} counters per filter, "
                f"{n_stores * m} over {n_stores} stores; at most {_MAX_BANK_COUNTERS} fit one "
                "filter bank"
            )
        self._block_shape = (NUM_HASHES, n_stores) if filtered else (0, 0)
        self._rows: dict = {}
        self._blocks: list[np.ndarray] = []
        self._flats: list[memoryview] = []
        self._ranks: list[array] = []
        self._hashing = False
        self._rank_type = np.min_scalar_type(n_stores - 1)

    def row(self, item) -> int:
        """The item's row number, filling its row first if it is new. An item
        not exactly an int or str meets ``_item_bytes``'s rule first, so a
        float is refused even if an equal int is in the table. With ``chunk, offset =
        divmod(row, _CHUNK_ROWS)`` and ``start = offset * n_stores``:

        - its store ranking is ``_ranks[chunk][start:start + n_stores]``,
          whose slices hold Python ints;
        - its index block (empty unless filtered; unset until the first
          ``bank`` call) is ``_blocks[chunk][offset]``, a view into the
          table;
        - store j's column of that block is
          ``_flats[chunk][NUM_HASHES * start + j : NUM_HASHES * (start +
          n_stores) : n_stores]``, a strided slice of the chunk's flat
          int32 memoryview."""
        if type(item) is not int and type(item) is not str:
            _item_bytes(item)
        try:
            return self._rows[item]
        except KeyError:
            return self._fill(item)

    def bank(self) -> FilterBank:
        """A new, empty filter bank over the table's filters. The first call
        hashes the index block of every row filled so far, and turns on the
        hashing of each new row's block as the row is filled."""
        if not self._hashing:
            self._hashing = True
            self._hash(0, list(self._rows))
        return FilterBank(self.filter_seeds, self.num_counters, NUM_HASHES)

    def _fill(self, item) -> int:
        row = len(self._rows)
        chunk, offset = divmod(row, _CHUNK_ROWS)
        n_stores = len(self.filter_seeds)
        if offset == 0:
            blocks = np.empty((_CHUNK_ROWS, *self._block_shape), dtype=np.int32)
            self._blocks.append(blocks)
            self._flats.append(memoryview(blocks.reshape(-1)))
            self._ranks.append(array(self._rank_type.char, [0]) * (_CHUNK_ROWS * n_stores))
        start = offset * n_stores
        memoryview(self._ranks[chunk])[start:start + n_stores] = (
            _store_ranking(item, n_stores, self.seed).astype(self._rank_type))
        self._rows[item] = row
        if self._hashing:
            self._hash(row, (item,))
        return row

    def _hash(self, row: int, items: Sequence) -> None:
        """Write the index blocks of ``items`` into the rows from ``row`` on,
        one batch per slice of at most _BATCH_ROWS rows within a chunk."""
        done = 0
        while done < len(items):
            chunk, offset = divmod(row + done, _CHUNK_ROWS)
            count = min(_BATCH_ROWS, _CHUNK_ROWS - offset, len(items) - done)
            self._blocks[chunk][offset:offset + count] = index_blocks(
                items[done:done + count], self.filter_seeds, self.num_counters, NUM_HASHES)
            done += count


def _cost_rows(topo: Topology, alpha: float, big_t: float | None) -> list[list[float]]:
    """The access cost matrix as rows of Python floats, the profiles' costs."""
    return cost_matrix(topo, alpha, big_t).astype(float).tolist()


def _check_locations(k: int, n_stores: int) -> None:
    if k > n_stores:
        raise ValueError(f"locations_per_item {k} exceeds {n_stores} stores")


def run(
    config: SimConfig,
    topology: Topology | str | None = None,
    trace: Sequence | str | None = None,
    *,
    _shared: tuple[list, _ItemHashes] | None = None,
    _observe: Callable[..., object] | None = None,
) -> SimMetrics:
    """Simulate one strategy over a trace; returns raw (un-normalized) totals.

    A ground-truth run builds no filter bank; alone, it sizes no filter and
    hashes no index block, so it takes any target fpr. A filtered run's bank
    comes from the item-hash table (``_ItemHashes.bank``). ``_shared`` is
    run_grid's (cost rows, item-hash table) pair for this config and topology.

    ``_observe``, if set, is called once per request after the miss handling
    as ``_observe(item, client, ctx, chosen, paid, hit, placed)``: ``ctx`` is
    the run's one empty context on an empty indication, ``chosen`` what the
    selector returned (``()`` when it was not called), and ``placed`` the
    item's k designated stores in rank order; the observer must not change them.
    """
    topo = _as_topology(topology)
    items = _as_trace(trace)
    n_stores = len(topo.nodes)
    _check_locations(config.locations_per_item, n_stores)
    ground_truth = config.strategy == GROUND_TRUTH_STRATEGY
    cost_rows, hashes = _shared or (_cost_rows(topo, config.alpha, config.big_t),
                                    _ItemHashes(config, n_stores, not ground_truth))
    bank = None if ground_truth else hashes.bank()
    stores = [Datastore(j, config.store_capacity, None if bank is None else bank.filter(j))
              for j in range(n_stores)]
    strategy = STRATEGIES["cpi" if ground_truth else config.strategy]
    # The table's chunk lists, bound once: they only grow at the end, so
    # rows filled during the run are found in them too.
    row_of, ranks, blocks, flats = hashes.row, hashes._ranks, hashes._blocks, hashes._flats

    rng = np.random.default_rng(config.seed)
    clients = rng.integers(0, n_stores, size=len(items))
    beta = config.miss_penalty
    k = config.locations_per_item
    span = NUM_HASHES * n_stores  # one index block in a flat chunk
    estimators = [store.estimator for store in stores]
    # (estimate, profile) per client and store, rebuilt only when the
    # store's estimate has moved since. An estimate is a ratio of counts or
    # a moving average of such ratios, never NaN and never below 0, so
    # capping it at RHO_MAX is clamp_mis_ratio; the costs are floats >= 1.
    profile_cache = [[None] * n_stores for _ in range(n_stores)]
    new_profile, new_context = DatastoreProfile._trusted, SelectionContext._trusted

    # Every strategy selects nothing from no candidates (SimConfig probed
    # the empty context), so a request with no positives calls none.
    empty = new_context((), beta)

    access_total = 0.0
    misses = 0

    for item, client in zip(items, clients.tolist()):
        row = cost_rows[client]
        chunk, offset = divmod(row_of(item), _CHUNK_ROWS)
        start = offset * n_stores
        placed = ranks[chunk][start:start + k]
        if ground_truth:
            # A perfect indicator: only designated stores ever hold the item.
            positives = [j for j in placed if stores[j].holds(item)]
        else:
            positives = bank.positives(blocks[chunk][offset])
        if positives:
            cached = profile_cache[client]
            profiles = []
            for j in positives:
                estimate = estimators[j].estimate
                entry = cached[j]
                if entry is None or entry[0] != estimate:
                    profile = new_profile(j, row[j], min(estimate, RHO_MAX))
                    entry = cached[j] = (estimate, profile)
                profiles.append(entry[1])
            ctx = new_context(tuple(profiles), beta)
            chosen = strategy(ctx)
        else:
            ctx, chosen = empty, ()
        paid = 0.0
        hit = False
        for p in chosen:
            paid += p.access_cost
            if stores[p.id].access(item):
                hit = True
        access_total += paid
        if not hit:
            misses += 1
            # A filter never denies an item its store holds, so a designated
            # store it ruled out takes the item unprobed. (pi misses only
            # when no designated store holds the item.) A store keeps its
            # column of the block as a strided slice of the flat chunk.
            flat = flats[chunk]
            first = NUM_HASHES * start
            end = first + span
            for j in placed:
                if j not in positives or not stores[j].holds(item):
                    stores[j].insert(item, None if ground_truth else flat[first + j:end:n_stores])
        if _observe is not None:
            _observe(item, client, ctx, chosen, paid, hit, placed)

    return SimMetrics(config, len(items), access_total, misses)


def run_with_baseline(
    config: SimConfig,
    topology: Topology | str | None = None,
    trace: Sequence | str | None = None,
) -> tuple[SimMetrics, SimMetrics]:
    """Run a strategy plus its ground-truth twin (same seed and trace) as a
    one-cell grid; returns (strategy metrics, baseline metrics), both
    normalized. The twin, "pi", is cpi over the item's designated stores
    that hold it. For the ground truth itself both are the same object."""
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
    store_capacity: int = SimConfig.store_capacity,
    target_fpr: float = SimConfig.target_fpr,
    alpha: float = SimConfig.alpha,
    big_t: float | None = SimConfig.big_t,
) -> list[SimMetrics]:
    """Benchmark grid. The ground-truth baseline runs once per
    (beta, k, seed) cell, is the cell's "pi" row, and normalizes every row
    of the cell. The cells share one cost matrix, and those of a seed one
    item-hash table, with index blocks only if a strategy other than "pi"
    runs. An empty axis is refused and every cell's configs are built, and
    so checked, before the topology or trace is loaded; every k and the
    filter size are checked before the first run."""
    for axis, values in dict(strategies=strategies, betas=betas, ks=ks, seeds=seeds).items():
        if len(values) == 0:
            raise ValueError(f"{axis} must not be empty")
    cells = []
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
                configs = [dataclasses.replace(cell, strategy=name) for name in strategies]
                cells.append((cell, configs))
    topo = _as_topology(topology)
    n_stores = len(topo.nodes)
    _check_locations(max(ks), n_stores)
    items = _as_trace(trace)
    cost_rows = _cost_rows(topo, cells[0][0].alpha, cells[0][0].big_t)
    filtered = any(config.strategy != GROUND_TRUTH_STRATEGY for config in cells[0][1])
    shared = {}
    rows = []
    for cell, configs in cells:
        if cell.seed not in shared:
            shared[cell.seed] = cost_rows, _ItemHashes(cell, n_stores, filtered)
        baseline = run(cell, topo, items, _shared=shared[cell.seed])
        for config in configs:
            if config.strategy == GROUND_TRUTH_STRATEGY:
                metrics = baseline
            else:
                metrics = run(config, topo, items, _shared=shared[cell.seed])
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
    """Pivot table of seed-averaged normalized costs per strategy and cell,
    from one pass that groups the normalized rows in row order."""
    groups: dict[tuple, list[SimMetrics]] = {}
    for m in rows:
        if m.tc_norm is not None:
            c = m.config
            groups.setdefault((c.strategy, c.miss_penalty, c.locations_per_item), []).append(m)
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
            sample = groups.get((name, b, k))
            if sample is None:
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
    if len(trace) == 0:
        raise ValueError("trace contains no items")
    return trace
