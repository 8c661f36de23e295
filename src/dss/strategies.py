"""Selection strategies: which positively-indicating stores to access.

Every strategy maps a SelectionContext to a subset of its candidates,
returned as a tuple sorted by id. All of them may legally return the empty
selection (pay the miss penalty, access nothing), and all ties are broken
deterministically so identical contexts always yield identical selections.

The two trivial policies bracket the spectrum: access the single cheapest
positive indication (select_cpi) or every positive indication (select_epi).
The rest approximately minimize the expected-cost objective phi:

- select_pot: potential function over misindication-sorted prefixes;
  phi(result) <= (H_k / L_k) * phi(optimum), where L_k / H_k are the sums of
  the k cheapest / costliest candidate access costs at k = |result|.
  Optimal whenever all access costs are equal.
- select_dsalg_pp: sweeps every access budget B, solving a knapsack on
  log-hit weights per budget with one exact dynamic program over all
  budgets; exact on integer costs.
- select_dsalg_knap: prunes to cost tiers, takes density-ordered prefixes
  and singletons per tier; O(sqrt(miss_penalty))-approximation.
- select_pgm: partitions stores into dyadic cost bands, keeps the best
  misindication prefix per band, and merges bands pairwise keeping the best
  union per dyadic cost range; phi(result) <= 2*log2(miss_penalty) * optimum.
- select_exhaustive: brute force over all subsets (guarded to <= 20
  candidates), the oracle the others are judged against.

STRATEGIES maps each strategy name to its selector; the simulator, the CLI
and the demos all take the strategy set from it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import DatastoreProfile, InvariantError, SelectionContext, expected_cost
from .knapsack import (
    KnapsackItem,
    clamped_log_hit_weight,
    solve_exact_all_budgets,
)

Selection = tuple[DatastoreProfile, ...]

EXHAUSTIVE_MAX_CANDIDATES = 20

# The budget sweep's table has (candidates + 1) x (max budget + 1) cells;
# pp refuses a context that needs more.
PP_MAX_TABLE_CELLS = 1 << 24


def phi(selection: Iterable[DatastoreProfile], miss_penalty: float) -> float:
    """Expected total cost of a selection (shorthand for expected_cost().total)."""
    return expected_cost(selection, miss_penalty).total


_ID = attrgetter("id")
_RHO_ID = attrgetter("mis_ratio", "id")


def _by_id(profiles: Iterable[DatastoreProfile]) -> Selection:
    return tuple(sorted(profiles, key=_ID))


def _phi_by_id(selection: Selection, miss_penalty: float) -> float:
    """phi of a selection already sorted by id: expected_cost's fold, without
    its sort."""
    access = 0.0
    miss = 1.0
    for p in selection:
        access += p.access_cost
        miss *= p.mis_ratio
    return access + miss_penalty * miss


def _best_by_phi(
    candidates: Iterable[Sequence[DatastoreProfile]], miss_penalty: float
) -> Selection:
    """Argmin of phi; ties prefer fewer stores, then lexicographic ids."""
    best: Selection | None = None
    best_key: tuple | None = None
    for cand in candidates:
        sel = _by_id(cand)
        key = (_phi_by_id(sel, miss_penalty), len(sel))
        if best_key is None or key < best_key or (key == best_key and _ids(sel) < _ids(best)):
            best, best_key = sel, key
    if best is None:
        raise ValueError("no candidate selections supplied")
    return best


def _ids(selection: Selection) -> tuple:
    return tuple(p.id for p in selection)


def select_cpi(ctx: SelectionContext) -> Selection:
    """Cheapest positive indication: one store, minimal access cost (ties by id)."""
    if not ctx.candidates:
        return ()
    return (min(ctx.candidates, key=lambda p: (p.access_cost, p.id)),)


def select_epi(ctx: SelectionContext) -> Selection:
    """Every positive indication: access all candidates."""
    return _by_id(ctx.candidates)


@dataclass(frozen=True)
class PotentialState:
    """Intermediate quantities of the potential-function strategy.

    ``order`` is the candidates sorted by nondecreasing misindication ratio
    (ties by id). ``low_cost_sums[k]`` / ``high_cost_sums[k]`` are the sums
    of the k smallest / largest access costs among all candidates, and
    ``potentials[k] = low_cost_sums[k] + miss_penalty * prod(rho over
    order[:k])`` is the optimistic cost of accessing k stores.
    """

    order: Selection
    low_cost_sums: tuple[float, ...]
    high_cost_sums: tuple[float, ...]
    potentials: tuple[float, ...]


def potential_state(ctx: SelectionContext) -> PotentialState:
    order = tuple(sorted(ctx.candidates, key=_RHO_ID))
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
    return PotentialState(order, tuple(low), tuple(high), tuple(pots))


def select_pot(ctx: SelectionContext) -> Selection:
    """Best misindication-sorted prefix under the optimistic potential.

    Minimizes P(k) = (sum of k cheapest costs) + miss_penalty * (product of
    the k smallest misindication ratios) over k, ties toward smaller k, and
    returns the first k stores in misindication order.
    """
    state = potential_state(ctx)
    k_best = min(range(len(state.potentials)), key=lambda k: (state.potentials[k], k))
    return _by_id(state.order[:k_best])


def _require_integer_costs(ctx: SelectionContext) -> dict:
    costs = {}
    for p in ctx.candidates:
        if not float(p.access_cost).is_integer():
            raise ValueError(
                f"budgeted selection requires integer access costs, got "
                f"{p.access_cost} for id {p.id}"
            )
        costs[p.id] = int(p.access_cost)
    return costs


def _phi_upper_bound(ctx: SelectionContext) -> float:
    """The smallest phi among the empty selection, every single store and
    every prefix of the (misindication, id)-sorted candidates: an upper
    bound on the optimum's phi, found in one sort."""
    beta = ctx.miss_penalty
    if not ctx.candidates:
        return beta
    bound = beta
    access = 0.0
    miss = 1.0
    for p in sorted(ctx.candidates, key=_RHO_ID):
        cost = p.access_cost
        rho = p.mis_ratio
        access += cost
        miss *= rho
        single = cost + beta * rho
        prefix = access + beta * miss
        if single < bound:
            bound = single
        if prefix < bound:
            bound = prefix
    return bound


def select_dsalg_pp(ctx: SelectionContext) -> Selection:
    """Budget sweep: solve a knapsack per access budget, keep the best phi.

    For every budget B in {0, ..., min(total cost, floor(miss_penalty))} the
    knapsack over log-hit weights proposes the selection with the best hit
    probability affordable within B; the sweep returns the proposal with the
    smallest phi (ties toward the smaller budget). One exact dynamic program
    answers every budget, so the sweep is exact: some budget equals the
    optimum's total cost.

    A set first proposed at budget B costs exactly B (a cheaper one is
    already the proposal at its own cost), so its phi is at least B. The
    sweep therefore first stops at the floor of _phi_upper_bound, and runs
    to the end only when its best phi exceeds that width plus one; the
    answer is the full sweep's either way.
    Requires integer access costs, and at most PP_MAX_TABLE_CELLS cells in
    the (candidates + 1) x (budgets + 1) table.
    """
    int_costs = _require_integer_costs(ctx)
    max_budget = min(sum(int_costs.values()), math.floor(ctx.miss_penalty))
    cells = (len(int_costs) + 1) * (max_budget + 1)
    if cells > PP_MAX_TABLE_CELLS:
        raise ValueError(
            f"budget sweep up to budget {max_budget} over {len(int_costs)} "
            f"candidates needs {cells} table cells, more than {PP_MAX_TABLE_CELLS}"
        )
    by_id = {p.id: p for p in ctx.candidates}
    items = [
        KnapsackItem(p.id, clamped_log_hit_weight(p.mis_ratio), int_costs[p.id])
        for p in ctx.candidates
    ]
    width = min(max_budget, math.floor(_phi_upper_bound(ctx)))
    for budget in dict.fromkeys((width, max_budget)):
        per_budget = solve_exact_all_budgets(items, budget)
        best: Selection | None = None
        best_phi = math.inf
        # Budgets often propose the same set; a repeat can never win the
        # strict comparison, so each distinct set is scored once, in
        # first-budget order.
        for chosen_ids in dict.fromkeys(per_budget):
            sel = _by_id(by_id[i] for i in chosen_ids)
            value = _phi_by_id(sel, ctx.miss_penalty)
            if value < best_phi:
                best, best_phi = sel, value
        if best_phi <= budget + 1:
            break
    if best is None:
        raise InvariantError("budget sweep proposed no selection")
    return best


def select_dsalg_knap(ctx: SelectionContext) -> Selection:
    """Cost-tier knapsack heuristic.

    For every distinct access cost u, restrict to stores costing at most u,
    order them by log-hit weight per unit cost (density) descending with
    ties by id, and consider every prefix of that order plus every single
    store. The empty selection always competes. Returns the candidate with
    the smallest phi.
    """
    # Every store is a single in the top tier, and a one-store prefix is a
    # single too, so each single is proposed once.
    proposals: list[Sequence[DatastoreProfile]] = [()]
    proposals += ((p,) for p in ctx.candidates)
    weights = {p.id: clamped_log_hit_weight(p.mis_ratio) for p in ctx.candidates}
    for tier in sorted({p.access_cost for p in ctx.candidates}):
        pool = [p for p in ctx.candidates if p.access_cost <= tier]
        pool.sort(key=lambda p: (-(weights[p.id] / p.access_cost), p.id))
        proposals += (pool[:t] for t in range(2, len(pool) + 1))
    return _best_by_phi(proposals, ctx.miss_penalty)


@dataclass(frozen=True)
class PgmCandidate:
    """Partial selection carried through the partition-merge tree."""

    ids: tuple
    cost: float
    mis_product: float


PGM_EMPTY = PgmCandidate((), 0.0, 1.0)


def _dyadic_range(cost: float) -> int:
    """The t with 2**(t-1) <= cost < 2**t; costs >= 1 give t >= 1."""
    return math.frexp(cost)[1]


def merge_candidate_lists(
    left: Sequence[PgmCandidate], right: Sequence[PgmCandidate], num_ranges: int
) -> list[PgmCandidate]:
    """Merge two candidate lists, keeping the best union per dyadic range.

    Every pairwise union (disjoint by construction, so costs add and
    misindication products multiply) lands in the dyadic cost range
    [2**(t-1), 2**t); per range the union with the smallest misindication
    product survives (ties: smaller cost, then lexicographic ids). Unions
    costing 2**num_ranges or more are dropped, and the empty candidate is
    always retained.
    """
    best: dict[int, PgmCandidate] = {}
    for a in left:
        for b in right:
            cost = a.cost + b.cost
            if cost < 1.0:
                continue  # only the empty-empty union; kept separately
            t = _dyadic_range(cost)
            if t > num_ranges:
                continue
            mis = a.mis_product * b.mis_product
            cur = best.get(t)
            if cur is not None and (mis, cost) > (cur.mis_product, cur.cost):
                continue
            ids = tuple(sorted(a.ids + b.ids))
            if cur is None or (mis, cost, ids) < (cur.mis_product, cur.cost, cur.ids):
                best[t] = PgmCandidate(ids, cost, mis)
    return [PGM_EMPTY] + [best[t] for t in sorted(best)]


def _prefix_candidates(profiles: list[DatastoreProfile]) -> list[PgmCandidate]:
    """Empty plus every prefix of the misindication-sorted store list."""
    profiles = sorted(profiles, key=_RHO_ID)
    out = [PGM_EMPTY]
    ids: list = []
    cost = 0.0
    miss = 1.0
    for p in profiles:
        bisect.insort(ids, p.id)
        cost += p.access_cost
        miss *= p.mis_ratio
        out.append(PgmCandidate(tuple(ids), cost, miss))
    return out


def _merge_subtrees(
    left: list[PgmCandidate] | None,
    right: list[PgmCandidate] | None,
    num_ranges: int,
    leaves: bool,
) -> list[PgmCandidate] | None:
    """merge_candidate_lists of two subtrees, None standing for [PGM_EMPTY].

    Merging a list with [PGM_EMPTY] only keeps its best candidate per range.
    A list that came out of a merge is already that, so past the leaf level
    a subtree with an empty sibling passes through unchanged.
    """
    if left is None or right is None:
        only = right if left is None else left
        if only is None or not leaves:
            return only
        return merge_candidate_lists(only, [PGM_EMPTY], num_ranges)
    return merge_candidate_lists(left, right, num_ranges)


def select_pgm(ctx: SelectionContext) -> Selection:
    """Partition-generate-merge approximation.

    Stores are bucketed into dyadic cost bands [2**j, 2**(j+1)) for
    j < r = ceil(log2(miss_penalty)); each band contributes its
    misindication-sorted prefixes, and bands are merged pairwise up a binary
    tree (odd levels padded with an empty band), each merge keeping the best
    union per dyadic cost range. The root candidate with the smallest phi
    wins. Stores costing 2**r or more can never improve a selection (their
    cost alone exceeds the miss penalty) and are ignored.

    A first pass keeps only the ranges below kept = the dyadic range of
    _phi_upper_bound: it drops the bands and unions that cost 2**kept or
    more, on the same tree. Each range keeps its best union independently,
    and a union's parts cost less than it does, so that pass's root is the
    full root less its candidates costing 2**kept or more. Their phi is at
    least their cost, so a best phi below 2**kept is final; otherwise the
    merge runs again over all r ranges.
    """
    if ctx.miss_penalty < 2.0:
        raise ValueError(
            f"partition-merge needs miss_penalty >= 2, got {ctx.miss_penalty}"
        )
    if not ctx.candidates:
        return ()
    num_ranges = math.ceil(math.log2(ctx.miss_penalty))
    kept = min(num_ranges, _dyadic_range(_phi_upper_bound(ctx)))
    best = _pgm_pass(ctx, num_ranges, kept)
    # A candidate's range comes from its cost summed in merge order, phi sums
    # the same costs in id order; the margin covers the rounding.
    limit = math.ldexp(1.0 - 1e-12, kept)
    if kept < num_ranges and _phi_by_id(best, ctx.miss_penalty) >= limit:
        best = _pgm_pass(ctx, num_ranges, num_ranges)
    return best


def _pgm_pass(ctx: SelectionContext, num_ranges: int, kept: int) -> Selection:
    """select_pgm's merge tree over num_ranges bands, keeping only the bands
    and unions that cost less than 2**kept."""
    bands: list[list[DatastoreProfile]] = [[] for _ in range(num_ranges)]
    for p in ctx.candidates:
        j = _dyadic_range(p.access_cost) - 1
        if j < kept:
            bands[j].append(p)
    # None stands for a subtree of empty bands, whose list is [PGM_EMPTY].
    lists = [_prefix_candidates(band) if band else None for band in bands]
    leaves = True
    while len(lists) > 1:
        if len(lists) % 2:
            lists.append(None)
        lists = [
            _merge_subtrees(lists[i], lists[i + 1], kept, leaves)
            for i in range(0, len(lists), 2)
        ]
        leaves = False
    by_id = {p.id: p for p in ctx.candidates}
    root = lists[0] or [PGM_EMPTY]
    proposals = [[by_id[i] for i in cand.ids] for cand in root]
    return _best_by_phi(proposals, ctx.miss_penalty)


# select_exhaustive builds the sums of at most 2**16 subsets at a time.
_EXHAUSTIVE_LOW_BITS = 16


def select_exhaustive(ctx: SelectionContext) -> Selection:
    """Brute-force optimum over all subsets of the candidates.

    Guarded to at most EXHAUSTIVE_MAX_CANDIDATES candidates. Ties prefer
    fewer stores, then lexicographically smaller id tuples.

    Subset mask m takes store j (in id order) when bit j of m is set. The
    access sums and miss products of every subset of the first (up to) 16
    stores are built by doubling: the second half of the arrays is the
    first half plus the next store. Each pattern of the remaining high bits
    then adds its stores to those arrays. Every subset is thus folded in id
    order, as expected_cost folds it, so each value equals its phi bit for
    bit.
    """
    n = ctx.n_positive
    if n > EXHAUSTIVE_MAX_CANDIDATES:
        raise ValueError(
            f"exhaustive search supports at most {EXHAUSTIVE_MAX_CANDIDATES} "
            f"candidates, got {n}"
        )
    if n == 0:
        return ()
    ordered = _by_id(ctx.candidates)
    low_bits = min(n, _EXHAUSTIVE_LOW_BITS)
    low_access = np.zeros(1 << low_bits)
    low_miss = np.ones(1 << low_bits)
    for j, p in enumerate(ordered[:low_bits]):
        half = 1 << j
        np.add(low_access[:half], p.access_cost, out=low_access[half : 2 * half])
        np.multiply(low_miss[:half], p.mis_ratio, out=low_miss[half : 2 * half])
    high = ordered[low_bits:]
    best_mask = 0
    best_key: tuple | None = None
    for pattern in range(1 << len(high)):
        access, miss = low_access, low_miss
        for j, p in enumerate(high):
            if pattern >> j & 1:
                access = access + p.access_cost
                miss = miss * p.mis_ratio
        values = access + ctx.miss_penalty * miss
        least = values.min()
        for i in np.flatnonzero(values == least):
            mask = pattern << low_bits | int(i)
            ids = tuple(ordered[j].id for j in range(n) if mask >> j & 1)
            key = (least, len(ids), ids)
            if best_key is None or key < best_key:
                best_mask, best_key = mask, key
    return tuple(ordered[j] for j in range(n) if best_mask >> j & 1)


# Every selector by strategy name, in the order reports list them. A selector
# raises ValueError on a context it cannot take (pp: fractional costs; pgm:
# beta < 2; opt: more than EXHAUSTIVE_MAX_CANDIDATES candidates).
STRATEGIES: dict[str, Callable[[SelectionContext], Selection]] = {
    "cpi": select_cpi,
    "epi": select_epi,
    "pot": select_pot,
    "pp": select_dsalg_pp,
    "umb": select_dsalg_knap,
    "pgm": select_pgm,
    "opt": select_exhaustive,
}
