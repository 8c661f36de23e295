"""sim.run and run_grid against a plain reference model of the simulator.

sim.run shares one filter bank and one item-hash table across stores and
runs, caches profiles per (client, store), builds its contexts unchecked
and reuses an item's counter indexes on insert. The model below takes none
of those shortcuts: one standalone CountingBloomFilter per store, placement
from designated_stores, a checked DatastoreProfile and SelectionContext per
request, and its own LRU dicts. The two must agree on every request.
"""

import dataclasses
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dss.cbf import CountingBloomFilter, size_for_target_fpr
from dss.core import DatastoreProfile, SelectionContext, clamp_mis_ratio
from dss.datastore import RhoEstimator
from dss.sim import GROUND_TRUTH_STRATEGY, NUM_HASHES, SimConfig, designated_stores, run, run_grid
from dss.strategies import STRATEGIES
from dss.topology import cost_matrix, generate_synthetic_topology
from dss.workload import zipf_trace


def model_run(config, topo, items):
    """(access cost, misses, per-request log) of one run of config, the log
    holding (item, client, chosen ids, access cost paid, hit) per request."""
    n = len(topo.nodes)
    k = config.locations_per_item
    beta = config.miss_penalty
    num_counters = size_for_target_fpr(config.store_capacity, config.target_fpr, NUM_HASHES)
    filters = [
        CountingBloomFilter(num_counters, NUM_HASHES, seed=config.seed * 1_000_003 + j)
        for j in range(n)
    ]
    caches = [OrderedDict() for _ in range(n)]
    estimators = [RhoEstimator() for _ in range(n)]
    costs = cost_matrix(topo, config.alpha, config.big_t).tolist()
    clients = np.random.default_rng(config.seed).integers(0, n, size=len(items)).tolist()
    access_total = 0.0
    misses = 0
    log = []
    for item, client in zip(items, clients):
        row = costs[client]
        placed = designated_stores(item, k, n, config.seed)
        if config.strategy == GROUND_TRUTH_STRATEGY:
            holders = [j for j in placed if item in caches[j]]
            chosen = [min(holders, key=lambda j: (row[j], j))] if holders else []
        else:
            profiles = tuple(
                DatastoreProfile(j, float(row[j]), clamp_mis_ratio(estimators[j].estimate))
                for j in range(n)
                if item in filters[j]
            )
            ctx = SelectionContext(profiles, beta)
            chosen = [p.id for p in STRATEGIES[config.strategy](ctx)]
        paid = 0.0
        hit = False
        for j in chosen:
            paid += row[j]
            held = item in caches[j]
            if held:
                caches[j].move_to_end(item)
            estimators[j].record(miss=not held)
            hit = hit or held
        access_total += paid
        if not hit:
            misses += 1
            for j in placed:
                if item in caches[j]:
                    continue
                if len(caches[j]) >= config.store_capacity:
                    evicted, _ = caches[j].popitem(last=False)
                    filters[j].remove(evicted)
                filters[j].insert(item)
                caches[j][item] = True
        log.append((item, client, tuple(chosen), paid, hit))
    return access_total, misses, log


# generate_synthetic_topology gives up after 100 draws that fail to
# connect; every (n, seed) drawn here connects within them.
@st.composite
def sim_cases(draw):
    n = draw(st.integers(2, 8))
    topo = generate_synthetic_topology(n, seed=draw(st.integers(0, 39)))
    config = SimConfig(
        strategy=draw(st.sampled_from(sorted(STRATEGIES) + [GROUND_TRUTH_STRATEGY])),
        miss_penalty=draw(st.sampled_from([2.5, 100.0])),
        locations_per_item=draw(st.integers(1, n)),
        store_capacity=draw(st.integers(1, 8)),
        target_fpr=draw(st.sampled_from([0.02, 0.3])),
        seed=draw(st.integers(0, 5)),
    )
    items = st.one_of(st.integers(0, 15), st.sampled_from(["a", "b", "c", "item-7", "15"]))
    return config, topo, draw(st.lists(items, min_size=1, max_size=80))


def pi_case(n, topology_seed, capacity, k, seed, items):
    """A pi run on small filters (target fpr 0.3), where false positives
    are common."""
    config = SimConfig(strategy=GROUND_TRUTH_STRATEGY, locations_per_item=k,
                       store_capacity=capacity, target_fpr=0.3, seed=seed)
    return config, generate_synthetic_topology(n, seed=topology_seed), items


@pytest.mark.deep
@given(sim_cases())
# pi next to a false positive: on a miss (item 1 at request 2), and cheaper
# than the designated store that holds the item (item 5 at request 3).
@example(pi_case(3, 0, 1, 1, 0, [0, 1]))
@example(pi_case(4, 0, 2, 1, 1, [5, 1, 5]))
def test_run_equals_the_reference_model_request_by_request(case):
    config, topo, items = case
    got_log = []

    def observe(item, client, ctx, chosen, paid, hit, placed):
        got_log.append((item, client, tuple(p.id for p in chosen), paid, hit))

    got = run(config, topo, items, _observe=observe)
    access_total, misses, log = model_run(config, topo, items)
    assert got_log == log
    assert (got.requests, got.access_cost, got.misses) == (len(items), access_total, misses)


def test_grid_with_a_shared_table_equals_independent_model_runs():
    topo = generate_synthetic_topology(6, seed=3)
    items = zipf_trace(300, 40, seed=2)
    rows = run_grid(["cpi", "pot", "pp", "pgm", GROUND_TRUTH_STRATEGY], [100.0], [1, 2, 4], [0, 9],
                    topo, items, store_capacity=4, target_fpr=0.1)
    assert len(rows) == 5 * 3 * 2
    totals = {}
    for m in rows:
        access_total, misses, _ = model_run(m.config, topo, items)
        assert (m.requests, m.access_cost, m.misses) == (len(items), access_total, misses)
        assert 0 < misses < len(items)
        totals[m.config] = access_total + m.config.miss_penalty * misses
    for m in rows:
        baseline = totals[dataclasses.replace(m.config, strategy=GROUND_TRUTH_STRATEGY)]
        assert m.ac_norm == m.access_cost / baseline
        assert m.tc_norm == totals[m.config] / baseline


def test_a_grid_over_300_stores_equals_the_model():
    # Store ids past 255 survive the item-hash table's rankings: a byte
    # per id would wrap them and misplace items.
    topo = generate_synthetic_topology(n_nodes=300, radius=0.12)
    items = zipf_trace(300, 2000, seed=5)
    rows = run_grid(["cpi", GROUND_TRUTH_STRATEGY], [100.0], [3], [0], topo, items,
                    store_capacity=4)
    for m in rows:
        access_total, misses, _ = model_run(m.config, topo, items)
        assert (m.requests, m.access_cost, m.misses) == (len(items), access_total, misses)
