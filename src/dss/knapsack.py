"""0/1 knapsack over log-scaled hit probabilities.

Selecting stores to maximize the chance of a hit under an access budget is a
knapsack: give each store the weight w = -log2(rho), so maximizing the summed
weight minimizes the product of misindication ratios. Costs here are integer
access costs; the exact solver is the classic dynamic program, and the greedy
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


def solve_exact(instance: KnapsackInstance) -> frozenset:
    """Optimal item ids; profit ties resolved to the lexicographically
    smallest id set (so e.g. a zero-budget instance yields the empty set)."""
    items = sorted(instance.items, key=lambda it: it.id)
    rows = _suffix_table(items, instance.budget)
    return _reconstruct(items, rows, instance.budget)


def solve_exact_all_budgets(
    items: tuple[KnapsackItem, ...] | list[KnapsackItem], max_budget: int
) -> list[frozenset]:
    """solve_exact for every budget 0..max_budget from one shared table.

    Table cell (i, b) never depends on cells with larger b, so the table
    built at max_budget answers every smaller budget identically to a
    dedicated solve. The reconstruction walks the items once for all
    budgets together, making _reconstruct's two tests per budget on the
    same table sums, and a run of budgets that choose the same ids shares
    one set.
    """
    if max_budget < 0:
        raise ValueError(f"max_budget must be >= 0, got {max_budget}")
    ordered = sorted(items, key=lambda it: it.id)
    rows = _suffix_table(ordered, max_budget)
    remaining = np.arange(max_budget + 1)
    active = np.ones(max_budget + 1, dtype=bool)
    taken = np.zeros((len(ordered), max_budget + 1), dtype=bool)
    for i, item in enumerate(ordered):
        need = rows[i][remaining]
        active &= need != 0.0
        left = remaining - item.cost
        take = active & (left >= 0)
        take &= item.profit + rows[i + 1][np.maximum(left, 0)] == need
        taken[i] = take
        remaining = np.where(take, left, remaining)
    ids = [it.id for it in ordered]
    # Budgets in a run of equal columns share one set.
    starts = np.flatnonzero((taken[:, 1:] != taken[:, :-1]).any(axis=0)) + 1
    bounds = [0, *starts.tolist(), max_budget + 1]
    sets = []
    for lo, hi in zip(bounds, bounds[1:]):
        sets += [frozenset(compress(ids, taken[:, lo].tolist()))] * (hi - lo)
    return sets


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
