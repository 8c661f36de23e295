"""Exact and greedy knapsack over log-hit weights."""

import math
import random
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from dss.core import RHO_MAX, RHO_MIN
from dss.knapsack import (
    KnapsackInstance,
    KnapsackItem,
    _runs,
    clamped_log_hit_weight,
    log_hit_weight,
    solve_exact,
    solve_exact_all_budgets,
    solve_greedy2,
)


def _suffix_table(
    items: list[KnapsackItem], budget: int
) -> list[np.ndarray]:
    """rows[i][b] = max profit from items[i:] within budget b; rows[n] = 0."""
    rows = [np.zeros(budget + 1)] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        nxt = rows[i + 1]
        c, w = items[i].cost, items[i].profit
        if c > budget:
            rows[i] = nxt
            continue
        take = np.full(budget + 1, -np.inf)
        take[c:] = nxt[: budget + 1 - c] + w
        rows[i] = np.maximum(nxt, take)
    return rows


def _reconstruct(
    items: list[KnapsackItem], rows: list[np.ndarray], budget: int
) -> frozenset:
    """Walk one optimal path, yielding the lexicographically smallest id set.

    Two rules give lexicographic minimality over sorted id tuples: stop as
    soon as the remaining achievable profit is zero (a proper prefix precedes
    every extension), and otherwise include the current item whenever an
    optimal completion through it exists (a smaller leading id precedes every
    larger one). Branch feasibility is tested by exact equality against the
    very sums the table was built from, so no float tolerance is needed.
    """
    chosen = []
    b = budget
    for i, item in enumerate(items):
        need = rows[i][b]
        if need == 0.0:
            break
        if item.cost <= b and item.profit + rows[i + 1][b - item.cost] == need:
            chosen.append(item.id)
            b -= item.cost
    return frozenset(chosen)


def reference_solve(items, budget):
    """solve_exact as it was before it read the all-budgets table: one
    suffix table per budget and a walk over it. Every comparison of the
    table and of solve_exact is made against this one copy."""
    items = sorted(items, key=lambda it: it.id)
    return _reconstruct(items, _suffix_table(items, budget), budget)


def brute_force(instance):
    best_profit = -1.0
    best = None
    items = sorted(instance.items, key=lambda it: it.id)
    n = len(items)
    for mask in range(1 << n):
        chosen = [items[j] for j in range(n) if mask >> j & 1]
        if sum(it.cost for it in chosen) > instance.budget:
            continue
        profit = sum(it.profit for it in chosen)
        if profit > best_profit + 1e-12:
            best_profit = profit
            best = frozenset(it.id for it in chosen)
    return best, best_profit


def test_log_hit_weight_values():
    assert log_hit_weight(0.5) == pytest.approx(1.0)
    assert log_hit_weight(0.25) == pytest.approx(2.0)
    assert log_hit_weight(0.0196078) == pytest.approx(5.672427, rel=1e-6)


def test_log_hit_weight_domain():
    with pytest.raises(ValueError):
        log_hit_weight(0.0)
    with pytest.raises(ValueError):
        log_hit_weight(1.0)
    with pytest.raises(ValueError):
        log_hit_weight(-0.5)


def test_log_hit_weight_additivity():
    # sum of weights == -log2 of the product of ratios
    rng = random.Random(21)
    for _ in range(100):
        ratios = [rng.uniform(0.001, 0.999) for _ in range(rng.randint(1, 20))]
        total = sum(log_hit_weight(r) for r in ratios)
        assert math.isclose(total, -math.log2(math.prod(ratios)), abs_tol=1e-9)


def test_clamped_log_hit_weight_is_log_hit_weight_of_the_clamped_ratio():
    rng = random.Random(24)
    ratios = [0.0, 1e-13, RHO_MIN, RHO_MAX, 1.0, 2.0, -1.0, math.inf, -math.inf, -0.0]
    ratios += [rng.random() for _ in range(1000)]
    ratios += [rng.uniform(-1.0, 2.0) for _ in range(200)]
    for rho in ratios:
        want = log_hit_weight(min(max(rho, RHO_MIN), RHO_MAX))
        assert clamped_log_hit_weight(rho).hex() == want.hex(), rho
    with pytest.raises(ValueError, match=r"^rho must lie in \(0, 1\), got nan$"):
        clamped_log_hit_weight(math.nan)
    with pytest.raises(ValueError, match=r"^rho must lie in \(0, 1\), got nan$"):
        log_hit_weight(min(max(math.nan, RHO_MIN), RHO_MAX))


def test_item_and_instance_validation():
    with pytest.raises(ValueError):
        KnapsackItem("a", 1.0, 0)
    with pytest.raises(ValueError):
        KnapsackItem("a", -1.0, 1)
    with pytest.raises(ValueError):
        KnapsackItem("a", math.inf, 1)
    with pytest.raises(ValueError):
        KnapsackInstance(-1, (KnapsackItem("a", 1.0, 1),))
    with pytest.raises(ValueError):
        KnapsackInstance(3, (KnapsackItem("a", 1.0, 1), KnapsackItem("a", 2.0, 1)))
    # bool is an int subclass, but a cost, profit or budget of True is a bug.
    with pytest.raises(ValueError, match=r"^cost must be an integer, got True$"):
        KnapsackItem("a", 1.0, True)
    with pytest.raises(ValueError, match=r"^profit must be finite and >= 0, got True$"):
        KnapsackItem("a", True, 1)
    with pytest.raises(ValueError, match=r"^budget must be an integer >= 0, got True$"):
        KnapsackInstance(True, (KnapsackItem("a", 1.0, 1),))
    with pytest.raises(ValueError, match=r"^budget must be an integer >= 0, got False$"):
        KnapsackInstance(False, ())
    # A profit that is no real number gets the same ValueError, not a
    # TypeError (a Decimal's would come from the solvers' float sums).
    for profit in ("1", 1j, None, [1.0], Decimal(1)):
        with pytest.raises(ValueError, match=r"^profit must be finite and >= 0, got "):
            KnapsackItem("a", profit, 1)


def test_numpy_integers_are_costs_and_budgets():
    # Any operator.index integer is a cost or budget, kept as the int it
    # equals; numpy's bool is not one.
    item = KnapsackItem("a", 1.0, np.int64(2))
    assert item == KnapsackItem("a", 1.0, 2) and type(item.cost) is int
    instance = KnapsackInstance(np.int32(3), (item, KnapsackItem("b", 2.0, np.uint8(1))))
    assert type(instance.budget) is int
    assert solve_exact(instance) == {"a", "b"}
    assert solve_exact_all_budgets([item], np.int64(3)) == solve_exact_all_budgets([item], 3)
    with pytest.raises(ValueError, match=r"^cost must be >= 1, got 0$"):
        KnapsackItem("a", 1.0, np.int64(0))
    with pytest.raises(ValueError, match=r"^cost must be an integer, got np\.True_$"):
        KnapsackItem("a", 1.0, np.True_)
    with pytest.raises(ValueError, match=r"^budget must be an integer >= 0, got np\.int64\(-1\)$"):
        KnapsackInstance(np.int64(-1), ())
    with pytest.raises(ValueError, match=r"^max_budget must be an integer >= 0, got np\.True_$"):
        solve_exact_all_budgets([item], np.True_)


def test_all_budgets_refuses_repeated_ids():
    # Two items "a" would otherwise be answered as [{}, {a}, {a}]: profit 2
    # claimed for a set that costs 1.
    twins = [KnapsackItem("a", 1.0, 1), KnapsackItem("a", 1.0, 1)]
    with pytest.raises(ValueError, match="item ids must be distinct"):
        solve_exact_all_budgets(twins, 2)


def test_all_budgets_refuses_a_non_integer_max_budget():
    with pytest.raises(ValueError, match=r"max_budget must be an integer >= 0, got 2\.0"):
        solve_exact_all_budgets([KnapsackItem("a", 1.0, 1)], 2.0)
    with pytest.raises(ValueError, match=r"max_budget must be an integer >= 0, got True"):
        solve_exact_all_budgets([KnapsackItem("a", 1.0, 1)], True)


def simple_items():
    return (
        KnapsackItem("a", 3.0, 2),
        KnapsackItem("b", 2.0, 1),
        KnapsackItem("c", 4.0, 3),
    )


def test_solve_exact_examples():
    assert solve_exact(KnapsackInstance(0, simple_items())) == frozenset()
    assert solve_exact(KnapsackInstance(4, simple_items())) == {"b", "c"}
    single = (KnapsackItem("x", 1.0, 1),)
    assert solve_exact(KnapsackInstance(100, single)) == {"x"}


def test_solve_exact_prefers_lexicographically_smallest_ties():
    items = (KnapsackItem("a", 1.0, 1), KnapsackItem("b", 1.0, 1))
    assert solve_exact(KnapsackInstance(1, items)) == {"a"}
    # zero-profit items never padded in: the empty set wins the tie
    free = (KnapsackItem("a", 0.0, 1), KnapsackItem("b", 0.0, 2))
    assert solve_exact(KnapsackInstance(3, free)) == frozenset()


def test_solve_greedy2_examples():
    got = solve_greedy2(KnapsackInstance(4, simple_items()))
    assert got == {"a", "b"}  # density order b, a, c; c violates; prefix wins 5 > 4
    assert solve_greedy2(KnapsackInstance(0, simple_items())) == frozenset()


def test_greedy_picks_violator_when_it_beats_prefix():
    items = (KnapsackItem("a", 1.0, 1), KnapsackItem("b", 5.0, 6))
    got = solve_greedy2(KnapsackInstance(6, items))
    assert got == {"b"}  # prefix {a} has profit 1; violator b carries 5


def test_exact_matches_brute_force_and_greedy_is_half():
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(0, 10)
        items = tuple(
            KnapsackItem(j, rng.uniform(0.0, 8.0), rng.randint(1, 7))
            for j in range(n)
        )
        budget = rng.randint(0, 20)
        instance = KnapsackInstance(budget, items)
        exact = solve_exact(instance)
        greedy = solve_greedy2(instance)
        by_id = {it.id: it for it in items}
        exact_cost = sum(by_id[i].cost for i in exact)
        greedy_cost = sum(by_id[i].cost for i in greedy)
        assert exact_cost <= budget
        assert greedy_cost <= budget
        exact_profit = sum(by_id[i].profit for i in exact)
        greedy_profit = sum(by_id[i].profit for i in greedy)
        _, best_profit = brute_force(instance)
        assert exact_profit == pytest.approx(best_profit, abs=1e-9)
        assert greedy_profit <= exact_profit + 1e-9
        assert greedy_profit >= 0.5 * exact_profit - 1e-9


def test_all_budgets_matches_per_budget_solves():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(0, 8)
        items = tuple(
            KnapsackItem(j, rng.uniform(0.0, 5.0), rng.randint(1, 5))
            for j in range(n)
        )
        max_budget = rng.randint(0, 15)
        table = solve_exact_all_budgets(items, max_budget)
        assert len(table) == max_budget + 1
        for budget, got in enumerate(table):
            want = reference_solve(items, budget)
            assert got == want
            assert solve_exact(KnapsackInstance(budget, items)) == want


def test_all_budgets_with_zero_profits_and_unaffordable_items():
    # Items 2 and 4 cost more than every budget. The zero-profit item 1 joins
    # once an optimal set can afford it (1, 3 precedes 3); the zero-profit
    # item 5 never does, because nothing is left to gain after item 3.
    items = [
        KnapsackItem(1, 0.0, 2),
        KnapsackItem(2, 3.0, 9),
        KnapsackItem(3, 1.0, 1),
        KnapsackItem(4, 2.0, 12),
        KnapsackItem(5, 0.0, 1),
    ]
    want = [set(), {3}, {3}, {1, 3}, {1, 3}, {1, 3}]
    assert solve_exact_all_budgets(items, 5) == want
    for budget, chosen in enumerate(want):
        assert solve_exact(KnapsackInstance(budget, items)) == chosen


def test_all_budgets_on_a_run_per_budget_and_a_tied_twin():
    # Costs 1, 2, 4, ..., 128 at one profit density: every subset costs a
    # different amount, so the optimum at budget b is the subset costing b,
    # and the 256 budgets up to 255 are 256 runs. Item 9 is item 3's twin
    # (same cost, same profit) under a larger id, so sets that swap one for
    # the other, or {3, 9} for {4}, tie exactly and the tie rule decides.
    items = [KnapsackItem(j + 1, 0.37 * 2**j, 2**j) for j in range(8)]
    costs = {it.id: it.cost for it in items}
    table = solve_exact_all_budgets(items, 255)
    assert len({id(chosen) for chosen in table}) == 256
    for budget, chosen in enumerate(table):
        assert sum(costs[i] for i in chosen) == budget
        assert chosen == reference_solve(items, budget)
    twin = [*items, KnapsackItem(9, items[2].profit, items[2].cost)]
    table = solve_exact_all_budgets(twin, 300)
    assert table[4] == {3} and table[8] == {3, 9}
    for budget, chosen in enumerate(table):
        assert chosen == reference_solve(twin, budget)


def _traced_peak(items, max_budget, solve=solve_exact_all_budgets):
    tracemalloc.start()
    try:
        table = solve(items, max_budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return table, peak


def test_all_budgets_memory_follows_the_runs_not_the_budgets():
    # The answer is one list entry per budget, and one frozenset and one run
    # per stretch of budgets that choose the same ids. One item at 2**18
    # budgets is 2 runs (2 MiB of list); one Python object per budget would
    # take about 43 MiB.
    table, peak = _traced_peak([KnapsackItem(1, 1.0, 3)], 2**18)
    assert table[2] == frozenset() and table[3] == table[-1] == frozenset({1})
    assert peak < 24 * 2**20
    # 19 items at 2**20 budgets: an 8 MiB list over 92 runs, one frozenset
    # each. A table of n x budgets cells (floats for the profits, flags for
    # the choices) would peak near 90 MiB.
    items = [KnapsackItem(j, 1.0 + j % 5, 30_000 + 2_000 * j) for j in range(19)]
    costs = {it.id: it.cost for it in items}
    table, peak = _traced_peak(items, 2**20)
    assert peak < 32 * 2**20
    assert table[-1] == {it.id for it in items}
    seen = set()
    for budget, chosen in enumerate(table):
        if chosen not in seen:
            seen.add(chosen)
            assert sum(costs[i] for i in chosen) == budget
    assert len(seen) == len({id(chosen) for chosen in table}) == 92


def test_runs_memory_follows_the_runs_alone():
    # Costs 1, 2, 4, ..., 2**15 at one profit density: each of the 2**16
    # budgets is a run of its own. The runs peak near 17 MiB; expanding them
    # to one frozenset per budget, as solve_exact_all_budgets does, near 60.
    # _runs takes (key, profit, cost) triples in id order.
    items = [(j + 1, 0.37 * 2**j, 2**j) for j in range(16)]
    runs, peak = _traced_peak(items, 2**16 - 1, _runs)
    assert [start for start, _, _ in runs] == list(range(2**16))
    assert peak < 32 * 2**20
