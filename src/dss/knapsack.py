"""0/1 knapsack over log-scaled hit probabilities.

Selecting stores to maximize the chance of a hit under an access budget is a
knapsack: give each store the weight w = -log2(rho), so maximizing the summed
weight minimizes the product of misindication ratios. Costs here are integer
access costs. The exact solver answers every budget up to a largest one in
one pass, _runs. It is a list dynamic program in the manner of Nemhauser and
Ullmann (Management Science, 1969): each suffix of the items keeps its
optimum as a step function of the budget, one run per stretch of budgets
that choose the same items, so its work and its answer follow the number of
runs, not of budgets. _runs takes plain (key, profit, cost) triples in id
order, trusted as they come, and a run holds the keys it takes in that
order. solve_exact and solve_exact_all_budgets validate KnapsackItems and
hand _runs their (id, profit, cost) triples: solve_exact reads the last
run, and solve_exact_all_budgets expands the runs to one entry per budget.
pp's triples carry the store profiles themselves as keys, so its runs are
its selections, and it scores each run once. The greedy profit-density
solver is the textbook 2-approximation.
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_left
from dataclasses import dataclass

from .core import RHO_MAX, RHO_MIN
from .workload import _integer

_FIRST = operator.itemgetter(0)


def log_hit_weight(rho: float) -> float:
    """Knapsack profit of a store with misindication ratio rho: -log2(rho).

    Only defined on (0, 1); callers clamp boundary ratios into
    [RHO_MIN, RHO_MAX] first.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return -math.log2(rho)


def clamped_log_hit_weight(rho: float) -> float:
    """log_hit_weight with rho clamped into [RHO_MIN, RHO_MAX] first, in one
    call: log_hit_weight(min(max(rho, RHO_MIN), RHO_MAX)), bit for bit. NaN
    fails every comparison, so it reaches the last test and is refused with
    log_hit_weight's message."""
    if rho < RHO_MIN:
        rho = RHO_MIN
    elif rho > RHO_MAX:
        rho = RHO_MAX
    elif rho != rho:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return -math.log2(rho)


@dataclass(frozen=True)
class KnapsackItem:
    """One item: a cost that is an integer >= 1 (any ``operator.index``
    integer, numpy's too, kept as an int; not a bool) and a profit that is
    a real number (a ``numbers.Real``, not a bool), finite and >= 0. A
    Decimal is not one: the solvers add profits to floats."""

    id: int | str
    profit: float
    cost: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost", _integer("cost", self.cost, 1))
        profit = self.profit
        if (isinstance(profit, bool) or not isinstance(profit, numbers.Real)
                or not (math.isfinite(profit) and profit >= 0.0)):
            raise ValueError(f"profit must be finite and >= 0, got {profit}")


@dataclass(frozen=True)
class KnapsackInstance:
    """A budget (an integer >= 0, kept as an int, as a cost is) and items
    with distinct ids."""

    budget: int
    items: tuple[KnapsackItem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "budget", _require_valid(self.items, self.budget, "budget"))


def _require_valid(items, budget, name: str) -> int:
    """The budget as an int, refusing a bool, a non-integer, a negative
    budget and repeated item ids."""
    if isinstance(budget, bool) or not hasattr(budget, "__index__") or operator.index(budget) < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {budget!r}")
    ids = [it.id for it in items]
    if len(set(ids)) != len(ids):
        raise ValueError("item ids must be distinct")
    return operator.index(budget)


def _triples(items, budget: int) -> list[tuple]:
    """The (id, profit, cost) triples of the items that cost at most budget,
    in id order, as _runs takes them; the rest could never be taken."""
    return sorted(
        ((it.id, it.profit, it.cost) for it in items if it.cost <= budget), key=_FIRST
    )


def solve_exact_all_budgets(
    items: tuple[KnapsackItem, ...] | list[KnapsackItem], max_budget: int
) -> list[frozenset]:
    """Optimal item ids for every budget 0..max_budget, one entry per budget.

    The runs of _runs, expanded: the budgets of a run share one frozenset.
    Refuses repeated item ids and a max_budget that is not an integer >= 0,
    as KnapsackInstance does.
    """
    max_budget = _require_valid(items, max_budget, "max_budget")
    runs = _runs(_triples(items, max_budget), max_budget)
    sets = []
    ends = [run[0] for run in runs[1:]] + [max_budget + 1]
    for (start, _, ids), end in zip(runs, ends):
        sets += [frozenset(ids)] * (end - start)
    return sets


def _runs(items: list[tuple], max_budget: int) -> list:
    """Optimal item keys for every budget 0..max_budget, as runs of budgets.

    Each item is a (key, profit, cost) triple: a profit >= 0, an integer
    cost >= 1, and as key the item's id or anything that stands for it (pp
    passes the store's profile). Unchecked: the items must come in
    ascending order of distinct ids, and max_budget must be an integer >= 0
    (solve_exact_all_budgets and KnapsackInstance check their items and
    budget, and _triples sorts them). Below, "ids" are the items' places in
    that order. An item costing more than max_budget is never taken;
    leaving it out only saves its merge.

    The program goes through the items' suffixes from the last item back. A
    suffix's answer is a step function of the budget: a list of runs (first
    budget, best profit, key tuple), one per stretch of budgets that choose
    the same ids, starting from the empty suffix's one run (0, 0.0, ()).
    Item i of cost c and profit w merges two step functions of the next
    suffix's list: skip i (the list unchanged) and take i (every run shifted
    up by c, with w added and i's key prepended), so each run's keys are in
    id order.
    A budget never depends on larger ones, so the list built up to
    max_budget answers every smaller budget as a dedicated solve would.

    Each budget gets its lexicographically smallest optimal id set (over
    sorted id tuples). At each budget b where either step function starts
    a run, i is taken iff it fits (b >= c), the take profit is at least the
    skip profit, and the take profit is not 0. Taking i whenever an optimal
    completion goes through it puts the smaller leading id first, and
    leaving it when nothing is left to gain puts a proper prefix before
    its extensions. Both tests compare the very float sums the profits
    were built from (skip's profit at b - c, plus w), so no tolerance is
    needed. Neighbouring runs that choose the same ids are one run. No two
    runs further apart choose the same ids either: a set that is the answer
    at budgets b1 < b3 is affordable and optimal at every budget between
    them, and the smallest optimum there too. So each set starts one run,
    at its own cost, and the last run answers max_budget.
    """
    runs = [(0, 0.0, ())]
    for item in reversed(items):
        runs = _take_or_skip(runs, item, max_budget)
    return runs


def _take_or_skip(runs: list, item: tuple, max_budget: int) -> list:
    """The runs of item's suffix, from the runs of the suffix after it.

    The runs that start below the item's cost are kept as they are. From
    there on, the budgets where a skip run or a take run (a skip run shifted
    by the cost) starts are walked in order. A budget whose choice comes
    from the same skip or take run as the budget before it extends that
    run, so neighbouring runs always choose different ids.
    """
    key, profit, cost = item
    stop = max_budget + 1
    n = len(runs)
    s = bisect_left(runs, cost, key=_FIRST)
    out = runs[:s]
    skip = runs[s - 1]
    source = s  # s while in skip run s - 1, -t while in take run t - 1
    skip_next = runs[s][0] if s < n else stop
    t = 0
    take_next = cost
    while True:
        budget = skip_next if skip_next < take_next else take_next
        if budget >= stop:
            return out
        if skip_next == budget:
            skip = runs[s]
            s += 1
            skip_next = runs[s][0] if s < n else stop
        if take_next == budget:
            take = runs[t]
            t += 1
            take_next = runs[t][0] + cost if t < n else stop
        value = take[1] + profit
        if value >= skip[1] and value != 0.0:
            if source != -t:
                source = -t
                out.append((budget, value, (key, *take[2])))
        elif source != s:
            source = s
            out.append((budget, skip[1], skip[2]))


def solve_exact(instance: KnapsackInstance) -> frozenset:
    """Optimal item ids; profit ties resolved to the lexicographically
    smallest id set (so e.g. a zero-budget instance yields the empty set)."""
    budget = instance.budget
    return frozenset(_runs(_triples(instance.items, budget), budget)[-1][2])


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
