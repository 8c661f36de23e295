"""0/1 knapsack over log-scaled hit probabilities.

Selecting stores to maximize the chance of a hit under an access budget is a
knapsack: give each store the weight w = -log2(rho), so maximizing the summed
weight minimizes the product of misindication ratios. Costs here are integer
access costs. The exact solver is the classic dynamic program, built once up
to a largest budget so that it answers every smaller budget too
(solve_exact_all_budgets; solve_exact reads its last entry). The greedy
profit-density solver is the textbook 2-approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .core import RHO_MAX, RHO_MIN


def log_hit_weight(rho: float) -> float:
    """Knapsack profit of a store with misindication ratio rho: -log2(rho).

    Only defined on (0, 1); callers clamp boundary ratios into
    [RHO_MIN, RHO_MAX] first.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return -math.log2(rho)


def clamped_log_hit_weight(rho: float) -> float:
    """log_hit_weight with rho clamped into [RHO_MIN, RHO_MAX] first."""
    return log_hit_weight(min(max(rho, RHO_MIN), RHO_MAX))


@dataclass(frozen=True)
class KnapsackItem:
    id: int | str
    profit: float
    cost: int

    def __post_init__(self) -> None:
        if not isinstance(self.cost, int):
            raise ValueError(f"cost must be an integer, got {self.cost!r}")
        if self.cost < 1:
            raise ValueError(f"cost must be >= 1, got {self.cost}")
        if not (math.isfinite(self.profit) and self.profit >= 0.0):
            raise ValueError(f"profit must be finite and >= 0, got {self.profit}")


@dataclass(frozen=True)
class KnapsackInstance:
    budget: int
    items: tuple[KnapsackItem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if not isinstance(self.budget, int) or self.budget < 0:
            raise ValueError(f"budget must be an integer >= 0, got {self.budget!r}")
        ids = [it.id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("item ids must be distinct")


def solve_exact_all_budgets(
    items: tuple[KnapsackItem, ...] | list[KnapsackItem], max_budget: int
) -> list[frozenset]:
    """Optimal item ids for every budget 0..max_budget, from one table.

    Items are taken in id order; suffix row i holds the best profit from
    items i onward within each budget. Cell (i, b) never depends on cells
    with larger b, so the table built at max_budget answers every smaller
    budget as a dedicated solve would.

    Each budget gets its lexicographically smallest optimal id set (over
    sorted id tuples). Two rules give that: stop once the profit still
    achievable is 0 (a proper prefix precedes every extension), and
    otherwise take the current item whenever an optimal completion goes
    through it (a smaller leading id precedes every larger one). While
    each row is built, decide[i, b] records that take test on the very
    float sums the row was built from, so no tolerance is needed: the item
    fits, an optimal completion goes through it, and the row is not 0
    there. The walk follows those decisions for all budgets together.
    Once a row reads 0 at a walk's remaining budget every later row does
    too, so that last test is the stop rule. A run of budgets that choose
    the same ids shares one set.
    """
    if max_budget < 0:
        raise ValueError(f"max_budget must be >= 0, got {max_budget}")
    ordered = sorted(items, key=lambda it: it.id)
    width = max_budget + 1
    decide = np.zeros((len(ordered), width), dtype=bool)
    row = np.zeros(width)
    for i in range(len(ordered) - 1, -1, -1):
        c, w = ordered[i].cost, ordered[i].profit
        if c > max_budget:
            continue
        take = row[: width - c] + w
        nxt, row = row, row.copy()
        np.maximum(nxt[c:], take, out=row[c:])
        decide[i, c:] = (take == row[c:]) & (row[c:] != 0.0)
    remaining = np.arange(width)
    taken = np.empty_like(decide)
    for i, item in enumerate(ordered):
        decide[i].take(remaining, out=taken[i])
        np.subtract(remaining, item.cost, out=remaining, where=taken[i])
    ids = [it.id for it in ordered]
    # Budgets in a run of equal columns share one set.
    starts = np.flatnonzero((taken[:, 1:] != taken[:, :-1]).any(axis=0)) + 1
    bounds = [0, *starts.tolist(), width]
    sets = []
    for lo, hi in zip(bounds, bounds[1:]):
        sets += [frozenset(compress(ids, taken[:, lo].tolist()))] * (hi - lo)
    return sets


def solve_exact(instance: KnapsackInstance) -> frozenset:
    """Optimal item ids; profit ties resolved to the lexicographically
    smallest id set (so e.g. a zero-budget instance yields the empty set)."""
    return solve_exact_all_budgets(instance.items, instance.budget)[-1]


def solve_greedy2(instance: KnapsackInstance) -> frozenset:
    """Greedy 2-approximation: best of the density-ordered feasible prefix
    and the first item that violates the budget.

    Items costing more than the whole budget are pruned, the rest sorted by
    profit density (profit/cost) descending with ties by id, and the prefix
    grown while it fits. The better (by profit; ties prefer the prefix) of
    that prefix and the first violating item is returned.
    """
    afford = [it for it in instance.items if it.cost <= instance.budget]
    afford.sort(key=lambda it: (-(it.profit / it.cost), it.id))
    prefix: list[KnapsackItem] = []
    spent = 0
    violator = None
    for it in afford:
        if spent + it.cost <= instance.budget:
            prefix.append(it)
            spent += it.cost
        else:
            violator = it
            break
    prefix_profit = sum(it.profit for it in prefix)
    if violator is not None and violator.profit > prefix_profit:
        return frozenset([violator.id])
    return frozenset(it.id for it in prefix)
