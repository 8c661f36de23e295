"""Property checks (Hypothesis) for the knapsack sweep, the strategies and
their bound-then-verify passes, the counting Bloom filter and its index
blocks, the simulator's store ranking, the stores' miss-ratio estimator and
the topology's widest minimum-hop paths.

The seeded loops in test_knapsack.py and test_strategies.py stay as they
are; these properties let a failure shrink to a minimal example. The
profile is set in conftest.py.
"""

import bisect
import hashlib
import itertools
import math
import random
import re
import sys
from collections import Counter
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dss.strategies
from dss.cbf import CountingBloomFilter, _count, _item_bytes, index_block, index_blocks
from dss.core import RHO_MAX, DatastoreProfile, InvariantError, SelectionContext
from dss.datastore import RhoEstimator
from dss.homogeneous import (
    HomogeneousParams,
    cost_homo,
    cpi_cost,
    epi_cost,
    fpo_access_count,
    fpo_cost,
    nx_distribution,
)
from dss.knapsack import (
    KnapsackInstance,
    KnapsackItem,
    _runs,
    clamped_log_hit_weight,
    solve_exact,
    solve_exact_all_budgets,
)
from dss.strategies import (
    STRATEGIES,
    _by_id,
    _ids_precede,
    _merge,
    _pgm_pass as pgm_pass,
    _precedes,
    _require_integer_costs,
    phi,
    potential_state,
    select_dsalg_knap,
    select_dsalg_pp,
    select_exhaustive,
    select_pgm,
    select_pot,
)
from dss.sim import SimConfig, _store_ranking, designated_stores, run
from dss.topology import Edge, Topology, cost_matrix, default_topology, min_hop_max_bottleneck
from dss.workload import zipf_trace
from test_knapsack import reference_solve

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


@pytest.mark.deep
@given(knapsacks())
@example(((), 0))
@example(((), 5))
@example(((KnapsackItem(3, 0.0, 1), KnapsackItem(1, 1.0, 9), KnapsackItem(2, 0.5, 2)), 4))
def test_all_budgets_equals_a_solve_per_budget(case):
    items, max_budget = case
    table = solve_exact_all_budgets(items, max_budget)
    assert len(table) == max_budget + 1
    for budget, chosen in enumerate(table):
        want = reference_solve(items, budget)
        assert chosen == want
        assert solve_exact(KnapsackInstance(budget, items)) == want


@pytest.mark.deep
@given(knapsacks())
def test_a_set_first_proposed_at_a_budget_costs_that_budget(case):
    items, max_budget = case
    costs = {it.id: it.cost for it in items}
    seen = set()
    for budget, chosen in enumerate(solve_exact_all_budgets(items, max_budget)):
        if chosen not in seen:
            seen.add(chosen)
            assert sum(costs[i] for i in chosen) == budget


@pytest.mark.deep
@given(knapsacks())
@example(((), 0))
@example(((KnapsackItem(3, 0.0, 1), KnapsackItem(1, 1.0, 9), KnapsackItem(2, 0.5, 2)), 4))
def test_runs_propose_each_set_once_at_its_cost(case):
    """pp scores each run's ids once, with no dedupe: this pins that no set
    starts two runs, and that the runs are the per-budget answers. _runs
    takes (key, profit, cost) triples in id order, the unaffordable ones
    too."""
    items, max_budget = case
    costs = {it.id: it.cost for it in items}
    runs = _runs(sorted((it.id, it.profit, it.cost) for it in items), max_budget)
    starts = [start for start, _, _ in runs]
    assert starts[0] == 0
    assert all(a < b for a, b in zip(starts, starts[1:]))
    sets = [frozenset(ids) for _, _, ids in runs]
    assert len(set(sets)) == len(sets)
    for start, _, ids in runs:
        assert sum(costs[i] for i in ids) == start
    table = solve_exact_all_budgets(items, max_budget)
    assert len(table) == max_budget + 1
    for budget, chosen in enumerate(table):
        last = max(r for r, start in enumerate(starts) if start <= budget)
        assert chosen == sets[last]


def reference_pp(ctx):
    """select_dsalg_pp as one sweep over every budget up to min(total cost,
    floor(beta)), without its first pass: of all the budgets' proposals the
    one with the least phi, then the fewest stores, then the smallest ids."""
    int_costs = dict(zip([p.id for p in ctx.candidates], _require_integer_costs(ctx)))
    by_id = {p.id: p for p in ctx.candidates}
    items = [
        KnapsackItem(p.id, clamped_log_hit_weight(p.mis_ratio), int_costs[p.id])
        for p in ctx.candidates
    ]
    max_budget = min(sum(int_costs.values()), math.floor(ctx.miss_penalty))
    proposals = [
        tuple(by_id[i] for i in sorted(chosen_ids))
        for chosen_ids in solve_exact_all_budgets(items, max_budget)
    ]
    return min(
        proposals,
        key=lambda sel: (phi(sel, ctx.miss_penalty), len(sel), [p.id for p in sel]),
    )


class PgmCandidate(NamedTuple):
    """The partial selection the reference merge tree carries: misindication
    product, cost and sorted id tuple. Tuple order is the merge's tie rule."""

    mis_product: float
    cost: float
    ids: tuple


PGM_EMPTY = PgmCandidate(1.0, 0.0, ())


def dyadic_range(cost):
    """The t with 2**(t-1) <= cost < 2**t; costs >= 1 give t >= 1."""
    return math.frexp(cost)[1]


def prefix_candidates(profiles):
    """Empty plus every prefix of the misindication-sorted store list."""
    profiles = sorted(profiles, key=lambda p: (p.mis_ratio, p.id))
    out = [PGM_EMPTY]
    ids = []
    cost = 0.0
    miss = 1.0
    for p in profiles:
        bisect.insort(ids, p.id)
        cost += p.access_cost
        miss *= p.mis_ratio
        out.append(PgmCandidate(miss, cost, tuple(ids)))
    return out


def phi_by_id(selection, miss_penalty):
    """phi of a selection already sorted by id."""
    access = 0.0
    miss = 1.0
    for p in selection:
        access += p.access_cost
        miss *= p.mis_ratio
    return access + miss_penalty * miss


def best_by_phi(candidates, miss_penalty):
    """Argmin of phi; ties prefer fewer stores, then lexicographic ids."""
    best = None
    best_key = None
    for cand in candidates:
        sel = tuple(sorted(cand, key=lambda p: p.id))
        key = (phi_by_id(sel, miss_penalty), len(sel))
        if best_key is None or key < best_key or (
            key == best_key and [p.id for p in sel] < [p.id for p in best]
        ):
            best, best_key = sel, key
    return best


def reference_merge(left, right, num_ranges):
    """_merge as it was before its early exit and its masks: every pair of
    candidates is tried, whatever the lists' order, and each carries its
    sorted id tuple."""
    best = {}
    for a in left:
        for b in right:
            cost = a.cost + b.cost
            if cost < 1.0:
                continue  # only the empty-empty union; kept separately
            t = dyadic_range(cost)
            if t > num_ranges:
                continue
            mis = a.mis_product * b.mis_product
            cur = best.get(t)
            if cur is not None and (mis, cost) > (cur.mis_product, cur.cost):
                continue
            ids = tuple(sorted(a.ids + b.ids))
            if cur is None or (mis, cost, ids) < (cur.mis_product, cur.cost, cur.ids):
                best[t] = PgmCandidate(mis_product=mis, cost=cost, ids=ids)
    return [PGM_EMPTY] + [best[t] for t in sorted(best)]


def reference_merge_subtrees(left, right, num_ranges, leaves):
    """_merge_subtrees on reference_merge."""
    if left is None or right is None:
        only = right if left is None else left
        if only is None or not leaves:
            return only
        return reference_merge(only, [PGM_EMPTY], num_ranges)
    return reference_merge(left, right, num_ranges)


def exact_range_count(beta):
    """The least integer r with 2**r >= beta, counted up one power at a time
    (an int power, which compares with beta exactly and cannot overflow)."""
    r = 0
    while 2**r < beta:
        r += 1
    return r


def reference_root(ctx, num_ranges, kept):
    """The root of a merge tree of id tuples over num_ranges bands, keeping
    only the bands and unions that cost less than 2**kept, trying every
    pair."""
    bands = [[] for _ in range(num_ranges)]
    for p in ctx.candidates:
        j = dyadic_range(p.access_cost) - 1
        if j < kept:
            bands[j].append(p)
    lists = [prefix_candidates(band) if band else None for band in bands]
    leaves = True
    while len(lists) > 1:
        if len(lists) % 2:
            lists.append(None)
        lists = [
            reference_merge_subtrees(lists[i], lists[i + 1], kept, leaves)
            for i in range(0, len(lists), 2)
        ]
        leaves = False
    return lists[0] or [PGM_EMPTY]


def reference_pgm(ctx):
    """select_pgm as it was before its first pass, its closed form for one
    candidate, its early exit and its masks: one merge of id tuples over
    every dyadic range up to the least r with 2**r >= beta, trying every
    pair, and every root candidate rescored in id order."""
    if ctx.miss_penalty < 2.0:
        raise ValueError(
            f"partition-merge needs miss_penalty >= 2, got {ctx.miss_penalty}"
        )
    num_ranges = exact_range_count(ctx.miss_penalty)
    by_id = {p.id: p for p in ctx.candidates}
    root = reference_root(ctx, num_ranges, num_ranges)
    return best_by_phi([[by_id[i] for i in c.ids] for c in root], ctx.miss_penalty)


def reference_knap(ctx):
    """select_dsalg_knap as it was before its closed form and its
    proposal-order scoring: best_by_phi rescores every proposal."""
    proposals = [()]
    proposals += ((p,) for p in ctx.candidates)
    weights = {p.id: clamped_log_hit_weight(p.mis_ratio) for p in ctx.candidates}
    for tier in sorted({p.access_cost for p in ctx.candidates}):
        pool = [p for p in ctx.candidates if p.access_cost <= tier]
        pool.sort(key=lambda p: (-(weights[p.id] / p.access_cost), p.id))
        proposals += (pool[:t] for t in range(2, len(pool) + 1))
    return best_by_phi(proposals, ctx.miss_penalty)


def reference_potential_state(ctx):
    """potential_state as it was before it shared pot's fold: its (order,
    low_cost_sums, high_cost_sums, potentials), each folded here."""
    order = tuple(sorted(ctx.candidates, key=lambda p: (p.mis_ratio, p.id)))
    asc = sorted(p.access_cost for p in ctx.candidates)
    low = [0.0]
    high = [0.0]
    for k in range(len(asc)):
        low.append(low[-1] + asc[k])
        high.append(high[-1] + asc[-1 - k])
    pots = []
    miss = 1.0
    for k in range(len(order) + 1):
        if k > 0:
            miss *= order[k - 1].mis_ratio
        pots.append(low[k] + ctx.miss_penalty * miss)
    return order, tuple(low), tuple(high), tuple(pots)


def reference_pot(ctx):
    """select_pot as it was before its closed form: the argmin of
    reference_potential_state's potentials, ties toward fewer stores."""
    order, _, _, potentials = reference_potential_state(ctx)
    k_best = min(range(len(potentials)), key=lambda k: (potentials[k], k))
    return _by_id(order[:k_best])


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


@st.composite
def pooled_integer_contexts(draw):
    """0-10 stores with integer costs 1-5 and ratios from a small pool with
    0 in it, so that proposals at different budgets tie on phi."""
    beta = draw(st.one_of(st.sampled_from([2.0, 3.0, 10.0, 50.0, 100.0]), st.floats(2.0, 1000.0)))
    costs = st.integers(1, 5).map(float)
    ratios = st.sampled_from([0.0, 0.01, 0.1, 0.2, 0.25, 0.5])
    ids = draw(st.lists(st.integers(0, 99), unique=True, max_size=10))
    stores = tuple(DatastoreProfile(i, draw(costs), draw(ratios)) for i in ids)
    return SelectionContext(stores, beta)


# {10, 16} (first proposed at budget 2) and {6} (at budget 3) both have phi
# exactly 3.0; the smaller set wins the tie.
PP_TIE_CASE = SelectionContext(
    (DatastoreProfile(6, 3.0, 0.0), DatastoreProfile(10, 1.0, 0.1), DatastoreProfile(16, 1.0, 0.2)),
    50.0,
)


@pytest.mark.deep
@given(st.one_of(bounded_contexts(), pooled_integer_contexts()))
@example(PP_TIE_CASE)
def test_pp_equals_the_full_sweep(ctx):
    assert outcome(select_dsalg_pp, ctx) == outcome(reference_pp, ctx)


@pytest.mark.deep
@given(bounded_contexts(integer_costs=False))
def test_pgm_equals_the_full_merge(ctx):
    assert outcome(select_pgm, ctx) == outcome(reference_pgm, ctx)


@st.composite
def contexts_just_above_a_power_of_two(draw):
    """beta = nextafter(2**r, inf) for r = 1..11, whose log2 rounds down to r
    from r = 4 on, and 0-6 stores that mostly cost 2**(r-1), 2**r or beta,
    with rho = 0 among the ratios, so that a store costing 2**r often wins."""
    r = draw(st.integers(1, 11))
    beta = math.nextafter(2.0**r, math.inf)
    costs = st.one_of(st.sampled_from([2.0 ** (r - 1), 2.0**r, beta]), st.floats(1.0, 2.0 * beta))
    ratios = st.one_of(st.sampled_from([0.0, 0.5, 0.99]), rhos)
    ids = draw(st.lists(st.integers(0, 99), unique=True, max_size=6))
    stores = tuple(DatastoreProfile(i, draw(costs), draw(ratios)) for i in ids)
    return SelectionContext(stores, beta)


@pytest.mark.deep
@given(contexts_just_above_a_power_of_two())
def test_pgm_equals_the_reference_just_above_a_power_of_two(ctx):
    assert outcome(select_pgm, ctx) == outcome(reference_pgm, ctx)


@pytest.mark.deep
def test_pp_and_pgm_equal_the_full_passes_on_the_golden_contexts():
    for ctx in golden_select_contexts():
        assert outcome(select_dsalg_pp, ctx) == outcome(reference_pp, ctx)
        assert outcome(select_pgm, ctx) == outcome(reference_pgm, ctx)


def select_mix_shaped_contexts(seed, per_shape):
    """Contexts shaped as the select-mix benchmark builds them, at the sizes
    the properties above never draw: 11-19 candidates with the bundled
    topology's integer costs from one client, ratios uniform in
    (0.005, 0.995), and beta 100 or 1000."""
    costs = cost_matrix(default_topology())
    rng = np.random.default_rng(seed)
    contexts = []
    for _ in range(per_shape):
        for beta in (100.0, 1000.0):
            for n in range(11, 20):
                client = int(rng.integers(costs.shape[0]))
                ids = rng.choice(costs.shape[0], size=n, replace=False)
                rhos = rng.uniform(0.005, 0.995, size=n)
                stores = tuple(
                    DatastoreProfile(int(j), float(costs[client, j]), float(r))
                    for j, r in zip(ids, rhos)
                )
                contexts.append(SelectionContext(stores, beta))
    return contexts


def test_selectors_equal_their_references_on_select_mix_shapes():
    for ctx in select_mix_shaped_contexts(seed=29, per_shape=10):
        assert outcome(select_dsalg_pp, ctx) == outcome(reference_pp, ctx)
        assert outcome(select_dsalg_knap, ctx) == outcome(reference_knap, ctx)
        assert outcome(select_pot, ctx) == outcome(reference_pot, ctx)
        assert outcome(select_pgm, ctx) == outcome(reference_pgm, ctx)
        if ctx.n_positive <= 12:
            assert select_exhaustive(ctx) == brute_force_opt(ctx)


def simulator_contexts(seed):
    """Every distinct non-empty context that a hot-shaped grid hands its
    selectors: 2000 Zipf(1.0) requests over 20k items, capacity 40, fpr
    0.02, beta 100 and k in {1, 5}, gathered by each run's observer. Their
    ratios are the estimator's (0, 0.5, ratios of counts), their costs
    repeat along one client's row, and they hold 2-8 candidates past k=1."""
    seen = {}

    def observe(item, client, ctx, chosen, paid, hit, placed):
        if ctx.candidates:
            key = (tuple((p.id, p.access_cost, p.mis_ratio) for p in ctx.candidates),
                   ctx.miss_penalty)
            seen.setdefault(key, ctx)

    trace = zipf_trace(2000, 20_000, 1.0, seed=seed)
    for k in (1, 5):
        for strategy in ("pi", "cpi", "epi", "pot", "umb", "pgm"):
            config = SimConfig(strategy=strategy, miss_penalty=100.0, locations_per_item=k,
                               store_capacity=40, target_fpr=0.02, seed=seed)
            run(config, trace=trace, _observe=observe)
    return list(seen.values())


def test_selectors_equal_their_references_on_simulator_contexts():
    contexts = simulator_contexts(seed=3)
    sizes = Counter(ctx.n_positive for ctx in contexts)
    assert min(sizes) == 1 and max(sizes) >= 6, sizes
    assert any(p.mis_ratio == 0.0 for ctx in contexts for p in ctx.candidates)
    for ctx in contexts:
        assert outcome(select_pgm, ctx) == outcome(reference_pgm, ctx)
        assert outcome(select_dsalg_knap, ctx) == outcome(reference_knap, ctx)
        assert outcome(select_pot, ctx) == outcome(reference_pot, ctx)
        assert outcome(select_dsalg_pp, ctx) == outcome(reference_pp, ctx)


def test_a_bound_too_low_forces_both_second_passes():
    """With the bound at 1.0 the first passes cover budget 1 and range 1.
    On two or more candidates, whenever the answer's phi is at least 2 the
    second pass must run, and the answer must still be the full pass's.
    Contexts of 0 or 1 candidates get the closed form: no table, no pass."""
    budgets, passes = [], []

    def solve_spy(items, max_budget):
        budgets.append(max_budget)
        return _runs(items, max_budget)

    def pass_spy(ranked, by_id, beta, kept):
        passes.append(kept)
        return pgm_pass(ranked, by_id, beta, kept)

    forced = Counter()
    with mock.patch.object(dss.strategies, "_phi_upper_bound", lambda order, beta: 1.0), \
            mock.patch.object(dss.strategies, "_runs", solve_spy), \
            mock.patch.object(dss.strategies, "_pgm_pass", pass_spy):
        for ctx in golden_select_contexts():
            beta = ctx.miss_penalty
            several = ctx.n_positive >= 2
            budgets.clear()
            want = outcome(reference_pp, ctx)
            assert outcome(select_dsalg_pp, ctx) == want
            if not several:
                assert budgets == []
                forced["pp closed"] += isinstance(want, list)
            elif isinstance(want, list):
                max_budget = min(sum(p.access_cost for p in ctx.candidates), math.floor(beta))
                if max_budget > 1 and phi([p for p in ctx.candidates if p.id in want], beta) > 2:
                    assert budgets == [1, max_budget]
                    forced["pp"] += 1
            if beta < 2.0:
                continue
            passes.clear()
            want = outcome(reference_pgm, ctx)
            assert outcome(select_pgm, ctx) == want
            if not several:
                assert passes == []
                forced["pgm closed"] += 1
                continue
            num_ranges = exact_range_count(beta)
            if num_ranges > 1 and phi([p for p in ctx.candidates if p.id in want], beta) >= 2:
                assert passes == [1, num_ranges]
                forced["pgm"] += 1
    assert forced["pp"] >= 10 and forced["pgm"] >= 10, forced
    assert forced["pp closed"] >= 5 and forced["pgm closed"] >= 5, forced


@st.composite
def pooled_contexts(draw):
    """0-12 stores whose costs and ratios mostly come from small pools, so
    that subsets tie on phi, with rho = 0 among the ratios."""
    beta = draw(st.sampled_from([2.0, 2.5, 100.0, 1000.0]))
    costs = st.one_of(st.sampled_from([1.0, 1.5, 2.0, 2.25, 3.0, 10.0]), st.floats(1.0, 60.0))
    ratios = st.one_of(st.sampled_from([0.0, 0.1, 0.5]), rhos)
    ids = draw(st.lists(st.integers(0, 99), unique=True, max_size=12))
    stores = tuple(DatastoreProfile(i, draw(costs), draw(ratios)) for i in ids)
    return SelectionContext(stores, beta)


# The density order folds {3, 1, 2, 0}'s phi to just above that of {1, 2,
# 0}'s in proposal order, though {0, 1, 2} wins in id order; umb's margin
# must keep both for the id-order verify.
UMB_ROUNDING_CASE = SelectionContext(
    (
        DatastoreProfile(0, 1.5, 0.6),
        DatastoreProfile(1, 2.25, 0.1),
        DatastoreProfile(2, 1.1, 0.1),
        DatastoreProfile(3, 3.0, 0.5),
    ),
    1000.0,
)


@pytest.mark.deep
@given(pooled_contexts())
@example(UMB_ROUNDING_CASE)
def test_umb_equals_the_reference(ctx):
    assert select_dsalg_knap(ctx) == reference_knap(ctx)


# Merge order folds {12, 19, 30, 35, 44}'s phi to 7.8, just below the 7.8 +
# 1 ulp of {12, 19, 44}; in id order both are 7.8 + 1 ulp, and the smaller
# set wins. pgm's root window must keep both for the id-order rescore.
PGM_ROUNDING_CASE = SelectionContext(
    (
        DatastoreProfile(12, 1.5, 0.2),
        DatastoreProfile(19, 1.2, 0.2),
        DatastoreProfile(35, 1.3, 0.5),
        DatastoreProfile(44, 1.1, 0.1),
        DatastoreProfile(30, 1.3, 0.7),
    ),
    1000.0,
)


# Every cost lies in [2, 4): band 0 is empty and band 1 is not, so band 1,
# of three stores, is alone at its leaf and merges with [_PGM_EMPTY].
PGM_RIGHT_LONE_CASE = SelectionContext(
    (
        DatastoreProfile(3, 2.5, 0.3),
        DatastoreProfile(7, 3.0, 0.2),
        DatastoreProfile(5, 2.0, 0.5),
    ),
    100.0,
)


@pytest.mark.deep
@given(pooled_contexts())
@example(PGM_ROUNDING_CASE)
@example(PGM_RIGHT_LONE_CASE)
def test_pgm_equals_the_reference_on_pooled_contexts(ctx):
    assert outcome(select_pgm, ctx) == outcome(reference_pgm, ctx)


@pytest.mark.deep
@given(pooled_contexts())
@example(PGM_ROUNDING_CASE)
def test_pgm_hands_best_by_phi_the_root_candidates_within_the_window(ctx):
    """Each pass of pgm answers from exactly the candidates of its root
    whose merge-order phi lies within 1e-12 of the root's least: a lone one
    is the pass's answer as it is, with no rescore, and several go to
    _best_by_phi, all of them and nothing else."""
    passes = []
    real_pass, real_best = pgm_pass, dss.strategies._best_by_phi

    def pass_spy(ranked, by_id, beta, kept):
        handed = []
        passes.append((kept, handed))
        answer = real_pass(ranked, by_id, beta, kept)
        passes[-1] += (tuple(p.id for p in answer),)
        return answer

    def best_spy(candidates, miss_penalty):
        candidates = [list(c) for c in candidates]
        passes[-1][1].extend(tuple(p.id for p in c) for c in candidates)
        return real_best(candidates, miss_penalty)

    with mock.patch.object(dss.strategies, "_pgm_pass", pass_spy), \
            mock.patch.object(dss.strategies, "_best_by_phi", best_spy):
        select_pgm(ctx)
    beta = ctx.miss_penalty
    num_ranges = exact_range_count(beta)
    for kept, handed, answer in passes:
        scored = [(c.cost + beta * c.mis_product, c.ids)
                  for c in reference_root(ctx, num_ranges, kept)]
        least = min(value for value, _ in scored)
        within = sorted(ids for value, ids in scored if value <= least + least * 1e-12)
        if len(within) == 1:
            assert handed == [] and answer == within[0]
        else:
            assert sorted(handed) == within
    assert bool(passes) == (ctx.n_positive >= 2)  # else the closed form answers


@pytest.mark.deep
@given(pooled_contexts())
def test_pot_equals_the_reference(ctx):
    assert select_pot(ctx) == reference_pot(ctx)


@pytest.mark.deep
@given(pooled_contexts())
def test_potential_state_equals_the_reference_bit_for_bit(ctx):
    state = potential_state(ctx)
    order, low, high, potentials = reference_potential_state(ctx)
    assert state.order == order
    for got, want in ((state.low_cost_sums, low), (state.high_cost_sums, high),
                      (state.potentials, potentials)):
        assert isinstance(got, tuple)
        assert [x.hex() for x in got] == [x.hex() for x in want]


@st.composite
def pgm_candidate_lists(draw, first_id, in_cost_order=False):
    """The empty candidate and up to 6 more, with ids drawn from first_id ..
    first_id + 49, in nondecreasing cost order or in any order."""
    out = [PGM_EMPTY]
    for _ in range(draw(st.integers(0, 6))):
        ids = draw(st.lists(st.integers(first_id, first_id + 49), unique=True, min_size=1, max_size=3))
        cost = draw(st.one_of(st.sampled_from([1.0, 2.0, 3.5, 4.0, 7.0, 8.0, 20.0]), st.floats(1.0, 40.0)))
        mis = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        out.append(PgmCandidate(mis_product=mis, cost=cost, ids=tuple(sorted(ids))))
    if in_cost_order:
        return sorted(out, key=lambda c: c.cost)
    return draw(st.permutations(out))


def masked(candidates):
    """Id-tuple candidates as _merge's (product, cost, mask) tuples, id i
    being bit i."""
    return [(c.mis_product, c.cost, sum(1 << i for i in c.ids)) for c in candidates]


def unmasked(candidates):
    """_merge's candidates as id-tuple ones."""
    return [
        PgmCandidate(mis, cost, tuple(i for i in range(mask.bit_length()) if mask >> i & 1))
        for mis, cost, mask in candidates
    ]


@pytest.mark.deep
@given(pgm_candidate_lists(0), pgm_candidate_lists(50, in_cost_order=True), st.integers(1, 6))
def test_pgm_merge_of_a_cost_ordered_right_list_equals_the_reference(left, right, num_ranges):
    merged = _merge(masked(left), masked(right), num_ranges)
    assert unmasked(merged) == reference_merge(left, right, num_ranges)


def test_pgm_merge_drops_a_union_costing_exactly_two_to_the_num_ranges():
    """A union costing 2**num_ranges is dropped; one an ulp cheaper lands in
    the last range and, having the least product there, is its best."""
    a = PgmCandidate(mis_product=0.5, cost=4.0, ids=(1,))
    b = PgmCandidate(mis_product=0.5, cost=4.0, ids=(0,))
    merged = _merge(masked([PGM_EMPTY, a]), masked([PGM_EMPTY, b]), 3)
    assert unmasked(merged) == reference_merge([PGM_EMPTY, a], [PGM_EMPTY, b], 3)
    assert merged == [(1.0, 0.0, 0), (0.5, 4.0, 0b01)]
    b = b._replace(cost=math.nextafter(8.0, 0.0) - 4.0)
    merged = _merge(masked([PGM_EMPTY, a]), masked([PGM_EMPTY, b]), 3)
    assert unmasked(merged) == reference_merge([PGM_EMPTY, a], [PGM_EMPTY, b], 3)
    assert merged == [(1.0, 0.0, 0), (0.5, b.cost, 0b01), (0.25, math.nextafter(8.0, 0.0), 0b11)]


@pytest.mark.deep
@given(pgm_candidate_lists(0), st.integers(1, 6), st.booleans())
def test_pgm_merge_with_the_empty_list_keeps_the_inputs_own_candidates(cands, num_ranges, on_left):
    """Merging with the empty list, on either side, returns candidates of
    the other list unchanged, and equals the reference."""
    if on_left:
        cands = sorted(cands, key=lambda c: c.cost)
        left, right = [PGM_EMPTY], cands
    else:
        left, right = cands, [PGM_EMPTY]
    merged = _merge(masked(left), masked(right), num_ranges)
    assert unmasked(merged) == reference_merge(left, right, num_ranges)
    assert all(c in masked(cands) for c in merged)


def positions(mask):
    """The set bits of a mask, in increasing order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_ids_precede_is_the_tuple_order_on_every_pair_of_small_masks():
    # _precedes adds the store count in front: the (popcount, id tuple) order.
    for a, b in itertools.permutations(range(1 << 7), 2):
        assert _ids_precede(a, b) == (positions(a) < positions(b)), (a, b)
        assert _precedes(a, b) == ((a.bit_count(), positions(a))
                                   < (b.bit_count(), positions(b))), (a, b)


@given(st.integers(0, (1 << 20) - 1), st.integers(0, (1 << 20) - 1))
# {0, 5} is a prefix of {0, 5, 7}; {0, 9} differs from {0, 5, 7} at 5.
@example(0b100001, 0b10100001)
@example(0b10100001, 0b100001)
@example(0b1000000001, 0b10100001)
@example(0, 1 << 19)
def test_ids_precede_is_the_tuple_order_on_masks_of_twenty_bits(a, b):
    if a != b:
        assert _ids_precede(a, b) == (positions(a) < positions(b))


@pytest.mark.deep
def test_pgm_breaks_exact_merge_ties_as_the_id_tuples_do():
    """Ratios that are powers of two (0.5, 0.25, 0.125), whose products are
    exact, and integer costs 1-6, so that unions of different stores often
    tie on (product, cost) exactly and the merge decides by _ids_precede:
    pgm's answer stays the reference's, and the tie goes each way at least
    ten times."""
    ties = Counter()

    def spy(a, b):
        first = _ids_precede(a, b)
        ties[first] += 1
        return first

    rng = random.Random(41)
    with mock.patch.object(dss.strategies, "_ids_precede", spy):
        for _ in range(300):
            ids = rng.sample(range(100), rng.randint(2, 12))
            stores = tuple(
                DatastoreProfile(i, float(rng.randint(1, 6)), rng.choice((0.5, 0.25, 0.125)))
                for i in ids
            )
            ctx = SelectionContext(stores, rng.choice((100.0, 1000.0, 1e4, 1e5)))
            assert outcome(select_pgm, ctx) == outcome(reference_pgm, ctx)
    assert ties[True] >= 10 and ties[False] >= 10, ties


@pytest.mark.parametrize(
    "beta, stores",
    [
        (1.7e308, [(1.0, 0.9), (2.0, 0.9)]),
        (sys.float_info.max, [(1.0, 0.9), (2.0, 0.9)]),
        (sys.float_info.max, [(1.5e308, 0.0), (8e307, 0.0)]),
        (sys.float_info.max, [(1.5e308, 0.5), (1.6e308, 0.5), (8e307, 0.5), (9e307, 0.25), (1.0, 0.9)]),
    ],
)
def test_pgm_at_the_float_ceiling(beta, stores):
    """A finite beta of 2**1023 or more gives 1024 ranges, whose bound 2**1024
    is no float; unions whose cost overflows to inf fall in frexp's range 0.
    pgm still answers, as the reference does, and with two stores that is
    the optimum."""
    ctx = SelectionContext(tuple(DatastoreProfile(i, c, r) for i, (c, r) in enumerate(stores)), beta)
    assert exact_range_count(beta) == 1024
    chosen = select_pgm(ctx)
    assert chosen == reference_pgm(ctx)
    if len(stores) == 2:
        with np.errstate(over="ignore"):
            assert chosen == select_exhaustive(ctx)


def umb_window_edge_case(least, ulps):
    """Store 1 (rho 0, cost L = ``least``) is the least single, at phi L.
    Store 0 comes first in density order, so umb's two-store prefix is
    {0, 1}: its access sum, and its phi too since rho is 0, is ``ulps`` ulps
    from the edge of umb's window, L + L * 1e-12."""
    access = least + least * 1e-12
    for _ in range(abs(ulps)):
        access = math.nextafter(access, math.copysign(math.inf, ulps))
    stores = (
        DatastoreProfile(0, access - least, 0.5),
        DatastoreProfile(1, least, 0.0),
    )
    ctx = SelectionContext(stores, 4.0 * least)
    assert stores[0].access_cost + stores[1].access_cost == access
    assert phi(stores, ctx.miss_penalty) == access
    return ctx


def umb_proposals(ctx):
    """select_dsalg_knap's answer and the id tuples it passes to _best_by_phi."""
    proposed = []
    real = dss.strategies._best_by_phi

    def spy(candidates, miss_penalty):
        candidates = [list(c) for c in candidates]
        proposed.extend(tuple(p.id for p in c) for c in candidates)
        return real(candidates, miss_penalty)

    with mock.patch.object(dss.strategies, "_best_by_phi", spy):
        chosen = select_dsalg_knap(ctx)
    return chosen, proposed


def test_umb_proposes_a_prefix_whose_phi_is_the_window_edge():
    """A prefix whose access sum is exactly the window's edge, L + L * 1e-12,
    has that phi (a store in it has rho 0), so umb must not stop before it."""
    ctx = umb_window_edge_case(2.0**40, 0)
    chosen, proposed = umb_proposals(ctx)
    assert chosen == reference_knap(ctx) == (ctx.candidates[1],)
    assert sorted(proposed) == [(0, 1), (1,)]


def test_umb_stops_one_ulp_above_the_window_edge():
    """One ulp past the edge, the prefix {0, 1} is out of the window."""
    ctx = umb_window_edge_case(2.0**40, 1)
    chosen, proposed = umb_proposals(ctx)
    assert chosen == reference_knap(ctx) == (ctx.candidates[1],)
    assert proposed == [(1,)]


@pytest.mark.deep
@given(
    st.floats(2.0**40, 2.0**60),
    st.integers(-2, 2),
    st.lists(st.tuples(st.floats(1.0, 2.0**62), rhos), max_size=6),
)
def test_umb_equals_the_reference_at_the_window_edge(least, ulps, extra):
    """umb_window_edge_case's two stores plus up to six more: whatever the
    least phi turns out to be, umb's early stop leaves its answer equal to
    the reference's."""
    base = umb_window_edge_case(least, ulps)
    stores = base.candidates + tuple(
        DatastoreProfile(i, cost, rho) for i, (cost, rho) in enumerate(extra, 2)
    )
    ctx = SelectionContext(stores, base.miss_penalty)
    assert select_dsalg_knap(ctx) == reference_knap(ctx)


def small_context_values():
    """Every miss penalty, cost and ratio of the closed-form sweep: costs at
    beta, at floor(beta) and just past it, fractional costs, ratios at 0 and
    1e-15, ties (c + beta * rho == beta), beta below 2, and a beta just
    above 2**4, whose log2 rounds down to 4."""
    for beta in (1.0, 1.5, 2.0, 2.5, 3.0, 7.5, 16.0, math.nextafter(16.0, 32.0), 100.0, 100.5, 1000.0):
        costs = {1.0, 1.5, 2.0, 3.0, 16.0, beta, beta / 2, float(math.floor(beta)),
                 float(math.floor(beta)) + 1, 2.0 * beta}
        for cost in sorted(c for c in costs if c >= 1.0):
            for rho in (0.0, 1e-15, 0.1, 0.5, 1.0 - cost / beta, 0.999999, RHO_MAX):
                if 0.0 <= rho < 1.0:
                    yield beta, cost, rho


@pytest.mark.deep
def test_closed_form_equals_the_references_on_every_small_context():
    """pot, pp, umb, pgm and opt answer contexts of 0 or 1 candidates by
    one closed form; each answer, or refusal, must be the one its
    reference gives."""
    references = {
        "pot": reference_pot,
        "pp": reference_pp,
        "umb": reference_knap,
        "pgm": reference_pgm,
        "opt": brute_force_opt,
    }
    contexts = [SelectionContext((), beta) for beta in (1.0, 1.5, 2.0, 100.0)]
    contexts += [
        SelectionContext((DatastoreProfile(7, cost, rho),), beta)
        for beta, cost, rho in small_context_values()
    ]
    taken = Counter()
    for ctx in contexts:
        for name, reference in references.items():
            got = outcome(STRATEGIES[name], ctx)
            assert got == outcome(reference, ctx), (name, ctx)
            taken[name, str(got)] += 1
    # Every selector takes the store, leaves it and (pp, pgm) refuses.
    for name in references:
        assert taken[name, "[7]"] and taken[name, "[]"], name
    assert any(n == "pp" and "integer" in got for n, got in taken)
    assert any(n == "pgm" and "miss_penalty >= 2" in got for n, got in taken)


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


@pytest.mark.deep
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


@pytest.mark.deep
@given(contexts(integer_costs=False))
def test_pot_within_cost_sum_ratio_of_optimum(ctx):
    pot = select_pot(ctx)
    k = len(pot)
    state = potential_state(ctx)
    ratio = 1.0 if k == 0 else state.high_cost_sums[k] / state.low_cost_sums[k]
    opt = phi(select_exhaustive(ctx), ctx.miss_penalty)
    assert phi(pot, ctx.miss_penalty) <= ratio * opt + 1e-9


def homogeneous_context(n, cost, rho, beta):
    return SelectionContext(tuple(DatastoreProfile(i, cost, rho) for i in range(n)), beta)


# The selectors that minimize phi, and so meet FPO's closed form.
PHI_MINIMIZERS = ("pot", "pp", "umb", "opt")


@pytest.mark.deep
@given(
    st.integers(0, 19),
    st.integers(1, 8).map(float),
    st.one_of(st.sampled_from([0.0, 1e-9, 0.5]), rhos),
    st.sampled_from([16.0, 37.5, 100.0, 1000.0, 2.0**20]),
)
# Ties on cost_homo, which go to fewer stores: one store at c + beta*rho ==
# beta, and cost_homo(3) == cost_homo(4) at beta/c = 16, rho = 0.5.
@example(1, 8.0, 0.5, 16.0)
@example(6, 1.0, 0.5, 16.0)
@example(6, 2.0, 0.5, 37.5)
def test_phi_minimizers_take_fpo_access_count_on_homogeneous_contexts(n, cost, rho, beta):
    """On n stores of one cost c and ratio rho, the phi-minimizers take
    exactly fpo_access_count(n, beta/c, rho) stores, at phi equal to
    c * cost_homo of that count up to rounding (1e-12 relative). pgm is
    held to its 2*log2(beta) bound on that optimum."""
    ctx = homogeneous_context(n, cost, rho, beta)
    m = fpo_access_count(n, beta / cost, rho)
    best = cost * cost_homo(m, beta / cost, rho)
    for name in PHI_MINIMIZERS:
        chosen = STRATEGIES[name](ctx)
        assert len(chosen) == m, name
        assert math.isclose(phi(chosen, beta), best, rel_tol=1e-12), name
    assert phi(select_pgm(ctx), beta) <= 2.0 * math.log2(beta) * best * (1.0 + 1e-12)


@pytest.mark.deep
@given(
    st.integers(1, 19),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from([2.0, 16.0, 100.0, 2.0**20]), st.floats(2.0, 1e6)),
)
def test_selectors_weighted_by_nx_meet_the_closed_forms(n, hit, fpr, beta):
    """Each selector's phi on k unit-cost stores at the population's rho,
    weighted by nx_distribution(n, q)[k], sums to its closed form: FPO's
    for the phi-minimizers, and cpi_cost and epi_cost for cpi and epi.
    Only summation order differs: the tolerances, 2e-15 relative for
    fpo_cost and 2e-14 for cpi_cost and epi_cost (whose powers of q come
    from lgamma in the pmf), are 4-5x the worst of 2000 random draws. pgm
    is held to 2*log2(beta) times fpo_cost."""
    params = HomogeneousParams(n, hit, fpr, beta)
    weights = nx_distribution(n, params.q)
    expected = {}
    for name, select in STRATEGIES.items():
        expected[name] = math.fsum(
            w * phi(select(homogeneous_context(k, 1.0, params.rho, beta)), beta)
            for k, w in enumerate(weights)
        )
    fpo = fpo_cost(params)
    for name in PHI_MINIMIZERS:
        assert math.isclose(expected[name], fpo, rel_tol=2e-15), name
    assert math.isclose(expected["cpi"], cpi_cost(params), rel_tol=2e-14)
    assert math.isclose(expected["epi"], epi_cost(params), rel_tol=2e-14)
    assert expected["pgm"] <= 2.0 * math.log2(beta) * fpo * (1.0 + 1e-12)


filter_items = st.one_of(
    st.integers(-20, 20), st.integers(-20, 20).map(np.int64), st.text(max_size=3),
    st.binary(max_size=3),
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


def reference_count(counters, out, into):
    """The counter rule, one index at a time: count ``out`` out (a sticky
    255 stays; a 0 is an underflow, which stops there), then ``into`` in (a
    counter stops at 255). Returns the counters and whether it underflowed."""
    counters = list(counters)
    for idx in out:
        if counters[idx] == 0:
            return counters, True
        if counters[idx] != 255:
            counters[idx] -= 1
    for idx in into:
        counters[idx] = min(counters[idx] + 1, 255)
    return counters, False


counter_values = st.one_of(st.sampled_from([0, 1, 2, 254, 255]), st.integers(0, 255))
counter_indexes = st.lists(st.integers(0, 5), max_size=12)


@given(st.lists(counter_values, min_size=6, max_size=6), counter_indexes, counter_indexes)
@example([255, 254, 0, 1, 2, 3], [0, 0, 3, 3], [1, 1, 1, 2])
@example([255, 254, 0, 1, 2, 3], [3, 3, 2, 4], [1])
@example([0, 0, 0, 0, 0, 0], [], [5, 5])
def test_count_equals_the_counter_rule(row, out, into):
    """One ``_count`` pass over a counter row, with repeated indexes and
    255s in it, leaves the reference's counters; an underflow is an
    InvariantError, raised with the counters before it already counted out."""
    counters = bytearray(row)
    want, underflow = reference_count(row, out, into)
    if underflow:
        with pytest.raises(InvariantError, match="counter underflow"):
            _count(counters, tuple(out), tuple(into))
    else:
        _count(counters, tuple(out), tuple(into))
    assert list(counters) == want


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
    assert got.tolist() == want.reshape(len(seeds), num_hashes).T.tolist()


@given(
    st.lists(
        st.one_of(
            hashed_items,
            st.integers(),
            st.integers(-(2**63), 2**63 - 1).map(np.int64),
            st.integers(0, 255).map(np.uint8),
        ),
        max_size=8,
    ),
    st.lists(st.integers(0, 2**70), min_size=1, max_size=19),
    st.one_of(st.integers(1, 2**20), st.integers(2**32 + 1, 2**40)),
    st.integers(1, 8),
)
def test_index_blocks_are_index_block_item_by_item(items, seeds, num_counters, num_hashes):
    blocks = index_blocks(items, seeds, num_counters, num_hashes)
    assert blocks.dtype == np.int64
    assert blocks.shape == (len(items), num_hashes, len(seeds))
    for item, block in zip(items, blocks):
        assert block.tolist() == index_block(item, seeds, num_counters, num_hashes).tolist()
        want = reference_index_block(item, seeds, num_counters, num_hashes)
        assert block.tolist() == want.reshape(len(seeds), num_hashes).T.tolist()


@given(hashed_items, st.integers(1, 40), st.integers(0, 2**70), st.data())
def test_store_ranking_matches_the_tuple_sort(item, n_stores, seed, data):
    want = reference_ranking(item, n_stores, seed)
    assert _store_ranking(item, n_stores, seed).tolist() == want
    k = data.draw(st.integers(1, n_stores))
    assert designated_stores(item, k, n_stores, seed) == tuple(sorted(want[:k]))


numpy_integers = st.one_of(
    st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)).map(dtype)
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
)


@given(
    numpy_integers,
    st.text(),
    st.one_of(st.floats(), st.fractions(), st.decimals(), st.complex_numbers()),
)
def test_items_hash_as_the_int_str_or_bytes_they_are(integer, text, number):
    """A numpy integer hashes as the int it equals and a str as its UTF-8;
    any other number is refused, with its type in the message."""
    assert _item_bytes(integer) == _item_bytes(int(integer))
    assert _item_bytes(text) == text.encode("utf-8")
    message = re.escape(f"an item must be an int, str or bytes, got {type(number)}")
    with pytest.raises(ValueError, match=message):
        _item_bytes(number)


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
