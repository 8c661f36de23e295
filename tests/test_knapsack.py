"""Exact and greedy knapsack over log-hit weights."""

import math
import random
import tracemalloc

import pytest

from dss.knapsack import (
    KnapsackInstance,
    KnapsackItem,
    log_hit_weight,
    solve_exact,
    solve_exact_all_budgets,
    solve_greedy2,
)


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
            assert got == solve_exact(KnapsackInstance(budget, items))


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


def test_all_budgets_memory_is_set_by_the_table_not_per_budget_objects():
    # One item at 2**18 budgets: a table of a few MiB. One Python object per
    # budget would take about 43 MiB.
    tracemalloc.start()
    try:
        table = solve_exact_all_budgets([KnapsackItem(1, 1.0, 3)], 2**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table[2] == frozenset() and table[3] == table[-1] == frozenset({1})
    assert peak < 24 * 2**20
