"""Property checks (Hypothesis) for the knapsack sweep, the strategies and
their bound-then-verify passes, the counting Bloom filter and its index
blocks, the simulator's store ranking, the stores' miss-ratio estimator and
the topology's widest minimum-hop paths.

The seeded loops in test_knapsack.py and test_strategies.py stay as they
are; these properties let a failure shrink to a minimal example. The
profile is set in conftest.py.
"""

import hashlib
import itertools
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dss.strategies
from dss.cbf import CountingBloomFilter, _item_bytes, index_block
from dss.core import RHO_MAX, DatastoreProfile, SelectionContext
from dss.datastore import RhoEstimator
from dss.knapsack import (
    KnapsackInstance,
    KnapsackItem,
    clamped_log_hit_weight,
    solve_exact,
    solve_exact_all_budgets,
)
from dss.strategies import (
    PGM_EMPTY,
    STRATEGIES,
    _best_by_phi,
    _by_id,
    _dyadic_range,
    _merge_subtrees,
    _pgm_pass as pgm_pass,
    _phi_by_id,
    _prefix_candidates,
    _require_integer_costs,
    phi,
    potential_state,
    select_dsalg_pp,
    select_exhaustive,
    select_pgm,
    select_pot,
)
from dss.sim import _store_ranking, designated_stores
from dss.topology import Edge, Topology, cost_matrix, min_hop_max_bottleneck

# Profits that add up exactly (0.5 + 0.5 == 1.0) make ties, which the sweep
# must break exactly as a dedicated solve does.
profits = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)

# Misindication ratios at and near both ends of their range, plus the rest.
rhos = st.one_of(
    st.sampled_from([0.0, 1e-15, 1e-9, 0.5, 0.999999, RHO_MAX]),
    st.floats(0.0, 0.999),
)


@st.composite
def knapsacks(draw):
    ids = draw(st.lists(st.integers(-50, 50), unique=True, max_size=8))
    items = tuple(
        KnapsackItem(i, draw(profits), draw(st.integers(1, 40))) for i in ids
    )
    return items, draw(st.integers(0, 30))


@st.composite
def contexts(draw, integer_costs=True, min_beta=1.0):
    beta = draw(st.floats(min_beta, 300.0))
    ids = draw(st.lists(st.integers(0, 99), unique=True, max_size=9))
    if integer_costs:
        costs = st.integers(1, max(1, int(beta))).map(float)
    else:
        costs = st.floats(1.0, 2.0 * beta)
    stores = tuple(DatastoreProfile(i, draw(costs), draw(rhos)) for i in ids)
    return SelectionContext(stores, beta)


@given(knapsacks())
@example(((), 0))
@example(((), 5))
@example(((KnapsackItem(3, 0.0, 1), KnapsackItem(1, 1.0, 9), KnapsackItem(2, 0.5, 2)), 4))
def test_all_budgets_equals_a_solve_per_budget(case):
    items, max_budget = case
    table = solve_exact_all_budgets(items, max_budget)
    assert len(table) == max_budget + 1
    for budget, chosen in enumerate(table):
        assert chosen == solve_exact(KnapsackInstance(budget, items))


@given(knapsacks())
def test_a_set_first_proposed_at_a_budget_costs_that_budget(case):
    items, max_budget = case
    costs = {it.id: it.cost for it in items}
    seen = set()
    for budget, chosen in enumerate(solve_exact_all_budgets(items, max_budget)):
        if chosen not in seen:
            seen.add(chosen)
            assert sum(costs[i] for i in chosen) == budget


def reference_pp(ctx):
    """select_dsalg_pp as it was before its first pass: one sweep over every
    budget up to min(total cost, floor(beta))."""
    int_costs = _require_integer_costs(ctx)
    by_id = {p.id: p for p in ctx.candidates}
    items = [
        KnapsackItem(p.id, clamped_log_hit_weight(p.mis_ratio), int_costs[p.id])
        for p in ctx.candidates
    ]
    max_budget = min(sum(int_costs.values()), math.floor(ctx.miss_penalty))
    best, best_phi = None, math.inf
    for chosen_ids in dict.fromkeys(solve_exact_all_budgets(items, max_budget)):
        sel = _by_id(by_id[i] for i in chosen_ids)
        value = _phi_by_id(sel, ctx.miss_penalty)
        if value < best_phi:
            best, best_phi = sel, value
    return best


def reference_pgm(ctx):
    """select_pgm as it was before its first pass: one merge over every
    dyadic range below ceil(log2(beta))."""
    if ctx.miss_penalty < 2.0:
        raise ValueError(
            f"partition-merge needs miss_penalty >= 2, got {ctx.miss_penalty}"
        )
    num_ranges = math.ceil(math.log2(ctx.miss_penalty))
    bands = [[] for _ in range(num_ranges)]
    for p in ctx.candidates:
        j = _dyadic_range(p.access_cost) - 1
        if j < num_ranges:
            bands[j].append(p)
    lists = [_prefix_candidates(band) if band else None for band in bands]
    leaves = True
    while len(lists) > 1:
        if len(lists) % 2:
            lists.append(None)
        lists = [
            _merge_subtrees(lists[i], lists[i + 1], num_ranges, leaves)
            for i in range(0, len(lists), 2)
        ]
        leaves = False
    by_id = {p.id: p for p in ctx.candidates}
    root = lists[0] or [PGM_EMPTY]
    return _best_by_phi([[by_id[i] for i in c.ids] for c in root], ctx.miss_penalty)


@st.composite
def bounded_contexts(draw, integer_costs=True):
    """Integer costs 1..60 (or fractional ones for pgm), beta from 2 to 1e6,
    and ratios at 0, 1e-13 and near RHO_MAX as well as in between."""
    beta = draw(st.one_of(st.sampled_from([2.0, 3.0, 100.0, 1e6]), st.floats(2.0, 1e6)))
    ids = draw(st.lists(st.integers(0, 99), unique=True, max_size=10))
    costs = st.integers(1, 60).map(float)
    if not integer_costs:
        costs = st.one_of(costs, st.floats(1.0, 60.0))
    ratios = st.one_of(
        st.sampled_from([0.0, 1e-13, 0.999999, 1.0 - 2e-12, RHO_MAX]),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    stores = tuple(DatastoreProfile(i, draw(costs), draw(ratios)) for i in ids)
    return SelectionContext(stores, beta)


def golden_select_contexts():
    from test_golden import select_contexts

    return [
        SelectionContext(tuple(DatastoreProfile(*s) for s in stores), beta)
        for _, beta, stores in select_contexts()
    ]


def outcome(select, ctx):
    """The selection's ids, or the message of the ValueError it raised."""
    try:
        return [p.id for p in select(ctx)]
    except ValueError as exc:
        return str(exc)


@given(bounded_contexts())
def test_pp_equals_the_full_sweep(ctx):
    assert outcome(select_dsalg_pp, ctx) == outcome(reference_pp, ctx)


@given(bounded_contexts(integer_costs=False))
def test_pgm_equals_the_full_merge(ctx):
    assert outcome(select_pgm, ctx) == outcome(reference_pgm, ctx)


def test_pp_and_pgm_equal_the_full_passes_on_the_golden_contexts():
    for ctx in golden_select_contexts():
        assert outcome(select_dsalg_pp, ctx) == outcome(reference_pp, ctx)
        assert outcome(select_pgm, ctx) == outcome(reference_pgm, ctx)


def test_a_bound_too_low_forces_both_second_passes():
    """With the bound at 1.0 the first passes cover budget 1 and range 1.
    Whenever the answer's phi is at least 2 the second pass must run, and
    the answer must still be the full pass's."""
    budgets, passes = [], []

    def solve_spy(items, max_budget):
        budgets.append(max_budget)
        return solve_exact_all_budgets(items, max_budget)

    def pass_spy(ctx, num_ranges, kept):
        passes.append(kept)
        return pgm_pass(ctx, num_ranges, kept)

    forced = Counter()
    with mock.patch.object(dss.strategies, "_phi_upper_bound", lambda ctx: 1.0), \
            mock.patch.object(dss.strategies, "solve_exact_all_budgets", solve_spy), \
            mock.patch.object(dss.strategies, "_pgm_pass", pass_spy):
        for ctx in golden_select_contexts():
            beta = ctx.miss_penalty
            budgets.clear()
            want = outcome(reference_pp, ctx)
            assert outcome(select_dsalg_pp, ctx) == want
            if isinstance(want, list):
                max_budget = min(sum(p.access_cost for p in ctx.candidates), math.floor(beta))
                if max_budget > 1 and phi([p for p in ctx.candidates if p.id in want], beta) > 2:
                    assert budgets == [1, max_budget]
                    forced["pp"] += 1
            if beta < 2.0 or not ctx.candidates:
                continue
            passes.clear()
            want = outcome(reference_pgm, ctx)
            assert outcome(select_pgm, ctx) == want
            num_ranges = math.ceil(math.log2(beta))
            if num_ranges > 1 and phi([p for p in ctx.candidates if p.id in want], beta) >= 2:
                assert passes == [1, num_ranges]
                forced["pgm"] += 1
    assert forced["pp"] >= 10 and forced["pgm"] >= 10, forced


@st.composite
def tie_heavy_contexts(draw):
    """Up to 10 stores with fractional costs, rho at 0, and costs and ratios
    drawn from small pools, so that subsets often tie on phi."""
    beta = draw(st.one_of(st.sampled_from([1.0, 7.5, 100.0]), st.floats(1.0, 300.0)))
    costs = st.one_of(st.sampled_from([1.0, 1.5, 2.25, 10.0]), st.floats(1.0, 60.0))
    ratios = st.one_of(st.sampled_from([0.0, 0.1, 0.5]), rhos)
    ids = draw(st.lists(st.integers(0, 99), unique=True, max_size=10))
    stores = tuple(DatastoreProfile(i, draw(costs), draw(ratios)) for i in ids)
    return SelectionContext(stores, beta)


def brute_force_opt(ctx):
    """Every subset scored by phi() itself, with opt's tie key."""
    ordered = sorted(ctx.candidates, key=lambda p: p.id)
    subsets = (
        sub for k in range(len(ordered) + 1) for sub in itertools.combinations(ordered, k)
    )
    return min(
        subsets,
        key=lambda sub: (phi(sub, ctx.miss_penalty), len(sub), [p.id for p in sub]),
    )


@given(tie_heavy_contexts())
# {3} and {1, 2} both reach the optimum 65; the smaller set wins the tie.
@example(SelectionContext(
    (DatastoreProfile(1, 20.0, 0.5), DatastoreProfile(2, 20.0, 0.5), DatastoreProfile(3, 40.0, 0.25)),
    100.0,
))
@example(SelectionContext((DatastoreProfile(3, 2.0, 0.0), DatastoreProfile(1, 2.0, 0.0)), 50.0))
def test_opt_equals_a_brute_force_over_phi(ctx):
    assert select_exhaustive(ctx) == brute_force_opt(ctx)


@given(contexts())
def test_pp_is_optimal_on_integer_costs(ctx):
    pp = phi(select_dsalg_pp(ctx), ctx.miss_penalty)
    opt = phi(select_exhaustive(ctx), ctx.miss_penalty)
    assert math.isclose(pp, opt, rel_tol=0.0, abs_tol=1e-9)


@given(contexts(integer_costs=False, min_beta=2.0))
def test_pgm_within_twice_log_beta_of_optimum(ctx):
    pgm = phi(select_pgm(ctx), ctx.miss_penalty)
    opt = phi(select_exhaustive(ctx), ctx.miss_penalty)
    assert pgm <= 2.0 * math.log2(ctx.miss_penalty) * opt + 1e-9


@given(contexts(min_beta=2.0))
def test_selections_are_id_sorted_subsets(ctx):
    for strategy in STRATEGIES.values():
        chosen = strategy(ctx)
        assert isinstance(chosen, tuple)
        assert set(chosen) <= set(ctx.candidates)
        ids = [p.id for p in chosen]
        assert ids == sorted(set(ids))


@given(contexts(integer_costs=False), st.data())
def test_phi_is_bit_identical_under_permutation(ctx, data):
    shuffled = data.draw(st.permutations(ctx.candidates))
    selection = shuffled[:data.draw(st.integers(0, len(shuffled)))]
    by_id = sorted(selection, key=lambda p: p.id)
    assert phi(selection, ctx.miss_penalty).hex() == phi(by_id, ctx.miss_penalty).hex()


@given(contexts(integer_costs=False))
def test_pot_within_cost_sum_ratio_of_optimum(ctx):
    pot = select_pot(ctx)
    k = len(pot)
    state = potential_state(ctx)
    ratio = 1.0 if k == 0 else state.high_cost_sums[k] / state.low_cost_sums[k]
    opt = phi(select_exhaustive(ctx), ctx.miss_penalty)
    assert phi(pot, ctx.miss_penalty) <= ratio * opt + 1e-9


filter_items = st.one_of(
    st.integers(-20, 20), st.text(max_size=3), st.binary(max_size=3)
)


# 300 inserts into 4 counters drive some of them to the sticky 255 before
# the removals start.
STICKY_OPS = [(False, i % 7) for i in range(300)] + [(True, i % 7) for i in range(300)]


@given(
    st.lists(st.tuples(st.booleans(), filter_items), max_size=200),
    st.sampled_from([4, 7, 64, 328]),
)
@example(STICKY_OPS, 4)
def test_counting_filter_has_no_false_negatives(ops, num_counters):
    """Interleaved inserts and removals of a multiset: every item with a
    copy still inserted is indicated after every step. A removal takes one
    copy of an item that has one; otherwise the step inserts."""
    f = CountingBloomFilter(num_counters, 5, seed=num_counters)
    present: Counter = Counter()
    for remove, item in ops:
        if remove and present[item]:
            f.remove(item)
            present[item] -= 1
        else:
            f.insert(item)
            present[item] += 1
        assert all(x in f for x, copies in present.items() if copies)


def reference_index_block(item, seeds, num_counters, num_hashes):
    """index_block as first written: one temporary per step."""
    payload = _item_bytes(item)
    digests = b"".join(
        hashlib.blake2b(
            payload, digest_size=16, key=(seed & (1 << 64) - 1).to_bytes(8, "little")
        ).digest()
        for seed in seeds
    )
    halves = np.frombuffer(digests, dtype="<u8").reshape(len(seeds), 2)
    m = np.uint64(num_counters)
    h1 = halves[:, :1] % m
    h2 = (halves[:, 1:] | np.uint64(1)) % m
    cols = (h1 + np.arange(num_hashes, dtype=np.uint64) * h2) % m
    rows = np.arange(len(seeds), dtype=np.uint64)[:, None] * m
    return (rows + cols).ravel().astype(np.int64)


def reference_ranking(item, n_stores, seed):
    """Store ranking as first written: a sort of (-score, id) tuples."""
    key = (seed & (1 << 64) - 1).to_bytes(8, "little")
    prefix = hashlib.blake2b(_item_bytes(item), digest_size=8, key=key)
    scores = []
    for j in range(n_stores):
        h = prefix.copy()
        h.update(j.to_bytes(4, "little"))
        scores.append((-int.from_bytes(h.digest(), "little"), j))
    scores.sort()
    return [j for _, j in scores]


hashed_items = st.one_of(
    st.integers(-(2**127), 2**127 - 1), st.text(max_size=12), st.binary(max_size=12)
)


@given(
    hashed_items,
    st.lists(st.integers(0, 2**70), min_size=1, max_size=6),
    st.one_of(st.integers(1, 2**20), st.integers(2**32 + 1, 2**40)),
    st.integers(1, 8),
)
@example(0, [0], 1, 1)
@example(-1, [2**64 - 1, 2**64], 2**32 + 1, 5)
def test_index_block_matches_the_reference(item, seeds, num_counters, num_hashes):
    got = index_block(item, seeds, num_counters, num_hashes)
    want = reference_index_block(item, seeds, num_counters, num_hashes)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@given(hashed_items, st.integers(1, 40), st.integers(0, 2**70), st.data())
def test_store_ranking_matches_the_tuple_sort(item, n_stores, seed, data):
    want = reference_ranking(item, n_stores, seed)
    assert _store_ranking(item, n_stores, seed).tolist() == want
    k = data.draw(st.integers(1, n_stores))
    assert designated_stores(item, k, n_stores, seed) == tuple(sorted(want[:k]))


def reference_estimates(misses):
    """The estimator's rule as three counters: the cumulative miss ratio
    through the first 100 accesses, then an exponential moving average of
    each epoch's miss ratio (epoch 100, weight 0.1), prior 0.5."""
    estimate, accesses, total, epoch = 0.5, 0, 0, 0
    for miss in misses:
        accesses += 1
        total += miss
        epoch += miss
        if accesses <= 100:
            estimate = total / accesses
        elif accesses % 100 == 0:
            estimate = 0.1 * (epoch / 100) + (1.0 - 0.1) * estimate
        if accesses % 100 == 0:
            epoch = 0
        yield estimate


@given(st.lists(st.booleans(), max_size=450))
@example([])
@example([i % 3 == 0 for i in range(450)])
@example([i < 30 or 200 <= i < 210 or i >= 400 for i in range(450)])
# 35 misses per epoch: 35 / 100 and 35 * 0.01 are different floats.
@example([i % 100 < (10 if i < 100 else 35) for i in range(450)])
def test_estimator_follows_the_epoch_rule_bit_for_bit(misses):
    """After every record the estimate equals the reference's float for
    float, over sequences that cross four epoch boundaries."""
    est = RhoEstimator()
    assert est.estimate.hex() == (0.5).hex()
    for n, (miss, expected) in enumerate(zip(misses, reference_estimates(misses)), 1):
        est.record(miss)
        assert est.estimate.hex() == expected.hex()
        assert est.accesses == n


# Few distinct bandwidths, so that minimum-hop paths often tie on width.
bandwidths = st.sampled_from([1.0, 2.5, 5.0, 10.0])


@st.composite
def connected_graphs(draw, prefix="v"):
    """2..7 nodes: a random spanning tree plus any of the other edges, with
    the nodes listed in a random order."""
    n = draw(st.integers(2, 7))
    names = [f"{prefix}{i}" for i in range(n)]
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = [p for p in itertools.combinations(range(n), 2) if p not in pairs]
    if extra:
        pairs.update(draw(st.lists(st.sampled_from(extra), unique=True)))
    edges = tuple(Edge(names[a], names[b], draw(bandwidths)) for a, b in sorted(pairs))
    return Topology(tuple(draw(st.permutations(names))), edges)


def _simple_paths(adjacency, path, dst, width):
    """(hops, bottleneck) of every simple path that extends ``path`` to ``dst``."""
    if path[-1] == dst:
        yield len(path) - 1, width
        return
    for nxt, bw in adjacency[path[-1]].items():
        if nxt not in path:
            yield from _simple_paths(adjacency, path + [nxt], dst, min(width, bw))


def brute_force_path(topo, src, dst):
    """Fewest hops over all simple paths, then the widest bottleneck."""
    hops, neg_width = min(
        (h, -w) for h, w in _simple_paths(topo.adjacency, [src], dst, math.inf)
    )
    return hops, -neg_width


@given(connected_graphs())
def test_widest_min_hop_matches_brute_force(topo):
    for src, dst in itertools.product(topo.nodes, repeat=2):
        assert min_hop_max_bottleneck(topo, src, dst) == brute_force_path(topo, src, dst)


@given(
    connected_graphs(),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    st.sampled_from([None, 10.0, 777.7, 1000.0]),
)
# The cost's rounding depends on the order of evaluation. Here regrouping
# (1 - alpha) * T / BW as (1 - alpha) * (T / BW) or (1 - alpha) / BW * T, or
# adding the hop term last, rounds up to another integer.
@example(Topology(("a", "b"), (Edge("a", "b", 5.0),)), 0.1, 105.0)
@example(Topology(("a", "b"), (Edge("a", "b", 2.5),)), 0.12, 65.0)
@example(Topology(("a", "b"), (Edge("a", "b", 2.5),)), 0.42, 127.5)
def test_cost_matrix_cells_follow_the_scalar_formula(topo, alpha, big_t):
    costs = cost_matrix(topo, alpha, big_t)
    pairs = list(itertools.product(range(len(topo.nodes)), repeat=2))
    paths = {(i, j): brute_force_path(topo, topo.nodes[i], topo.nodes[j]) for i, j in pairs}
    if big_t is None:
        big_t = max(w for (i, j), (_, w) in paths.items() if i != j)
    for (i, j), (hops, width) in paths.items():
        want = 1 if i == j else math.ceil(1.0 + alpha * hops + (1.0 - alpha) * big_t / width)
        assert costs[i, j] == want, (i, j)


@given(connected_graphs("a"), connected_graphs("b"))
def test_disconnected_topology_names_unreachable_nodes(left, right):
    unreachable = re.escape(f"unreachable: {sorted(right.nodes)}")
    with pytest.raises(ValueError, match=unreachable):
        Topology(left.nodes + right.nodes, left.edges + right.edges)
