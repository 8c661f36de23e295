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
  log-hit weights per budget; exact with the default exact solver on
  integer costs.
- select_dsalg_knap: prunes to cost tiers, takes density-ordered prefixes
  and singletons per tier; O(sqrt(miss_penalty))-approximation.
- select_pgm: partitions stores into dyadic cost bands, keeps the best
  misindication prefix per band, and merges bands pairwise keeping the best
  union per dyadic cost range; phi(result) <= 2*log2(miss_penalty) * optimum.
- select_exhaustive: brute force over all subsets (guarded to <= 20
  candidates), the oracle the others are judged against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import DatastoreProfile, InvariantError, SelectionContext, expected_cost
from .knapsack import (
    KnapsackInstance,
    KnapsackItem,
    clamped_log_hit_weight,
    solve_exact_all_budgets,
)

Selection = tuple[DatastoreProfile, ...]

EXHAUSTIVE_MAX_CANDIDATES = 20


def phi(selection: Iterable[DatastoreProfile], miss_penalty: float) -> float:
    """Expected total cost of a selection (shorthand for expected_cost().total)."""
    return expected_cost(selection, miss_penalty).total


def _by_id(profiles: Iterable[DatastoreProfile]) -> Selection:
    return tuple(sorted(profiles, key=lambda p: p.id))


def _best_by_phi(
    candidates: Iterable[Sequence[DatastoreProfile]], miss_penalty: float
) -> Selection:
    """Argmin of phi; ties prefer fewer stores, then lexicographic ids."""
    best: Selection | None = None
    best_key: tuple | None = None
    for cand in candidates:
        sel = _by_id(cand)
        key = (phi(sel, miss_penalty), len(sel), tuple(p.id for p in sel))
        if best_key is None or key < best_key:
            best, best_key = sel, key
    if best is None:
        raise ValueError("no candidate selections supplied")
    return best


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


def select_dsalg_pp(
    ctx: SelectionContext,
    solver: Callable[[KnapsackInstance], frozenset] | None = None,
) -> Selection:
    """Budget sweep: solve a knapsack per access budget, keep the best phi.

    For every budget B in {0, ..., min(total cost, floor(miss_penalty))} the
    knapsack over log-hit weights proposes the selection with the best hit
    probability affordable within B; the sweep returns the proposal with the
    smallest phi (ties toward the smaller budget). With the default exact
    solver this is exact: some budget equals the optimum's total cost.
    Requires integer access costs.
    """
    int_costs = _require_integer_costs(ctx)
    by_id = {p.id: p for p in ctx.candidates}
    items = [
        KnapsackItem(p.id, clamped_log_hit_weight(p.mis_ratio), int_costs[p.id])
        for p in ctx.candidates
    ]
    max_budget = min(sum(int_costs.values()), math.floor(ctx.miss_penalty))
    if solver is None:
        per_budget = solve_exact_all_budgets(items, max_budget)
    else:
        per_budget = [
            solver(KnapsackInstance(budget, tuple(items)))
            for budget in range(max_budget + 1)
        ]
    best: Selection | None = None
    best_phi = math.inf
    for chosen_ids in per_budget:
        sel = _by_id(by_id[i] for i in chosen_ids)
        value = phi(sel, ctx.miss_penalty)
        if value < best_phi:
            best, best_phi = sel, value
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
    proposals: list[Sequence[DatastoreProfile]] = [()]
    weights = {p.id: clamped_log_hit_weight(p.mis_ratio) for p in ctx.candidates}
    for tier in sorted({p.access_cost for p in ctx.candidates}):
        pool = [p for p in ctx.candidates if p.access_cost <= tier]
        pool.sort(key=lambda p: (-(weights[p.id] / p.access_cost), p.id))
        for t in range(len(pool)):
            proposals.append(pool[: t + 1])
            proposals.append((pool[t],))
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
            cand = PgmCandidate(
                tuple(sorted(a.ids + b.ids)), cost, a.mis_product * b.mis_product
            )
            cur = best.get(t)
            if cur is None or (cand.mis_product, cand.cost, cand.ids) < (
                cur.mis_product,
                cur.cost,
                cur.ids,
            ):
                best[t] = cand
    return [PGM_EMPTY] + [best[t] for t in sorted(best)]


def _prefix_candidates(profiles: list[DatastoreProfile]) -> list[PgmCandidate]:
    """Empty plus every prefix of the misindication-sorted store list."""
    profiles = sorted(profiles, key=lambda p: (p.mis_ratio, p.id))
    out = [PGM_EMPTY]
    ids: tuple = ()
    cost = 0.0
    miss = 1.0
    for p in profiles:
        ids = tuple(sorted(ids + (p.id,)))
        cost += p.access_cost
        miss *= p.mis_ratio
        out.append(PgmCandidate(ids, cost, miss))
    return out


def select_pgm(ctx: SelectionContext) -> Selection:
    """Partition-generate-merge approximation.

    Stores are bucketed into dyadic cost bands [2**j, 2**(j+1)) for
    j < r = ceil(log2(miss_penalty)); each band contributes its
    misindication-sorted prefixes, and bands are merged pairwise up a binary
    tree (odd levels padded with an empty band), each merge keeping the best
    union per dyadic cost range. The root candidate with the smallest phi
    wins. Stores costing 2**r or more can never improve a selection (their
    cost alone exceeds the miss penalty) and are ignored.
    """
    if ctx.miss_penalty < 2.0:
        raise ValueError(
            f"partition-merge needs miss_penalty >= 2, got {ctx.miss_penalty}"
        )
    num_ranges = math.ceil(math.log2(ctx.miss_penalty))
    bands: list[list[DatastoreProfile]] = [[] for _ in range(num_ranges)]
    for p in ctx.candidates:
        j = _dyadic_range(p.access_cost) - 1
        if j < num_ranges:
            bands[j].append(p)
    lists = [_prefix_candidates(band) for band in bands]
    while len(lists) > 1:
        if len(lists) % 2:
            lists.append([PGM_EMPTY])
        lists = [
            merge_candidate_lists(lists[i], lists[i + 1], num_ranges)
            for i in range(0, len(lists), 2)
        ]
    by_id = {p.id: p for p in ctx.candidates}
    proposals = [[by_id[i] for i in cand.ids] for cand in lists[0]]
    return _best_by_phi(proposals, ctx.miss_penalty)


def _mask_bits(n_bits: int, count: int, offset: int) -> np.ndarray:
    masks = np.arange(offset, offset + count, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(n_bits, dtype=np.uint32)) & 1).astype(bool)


def select_exhaustive(ctx: SelectionContext) -> Selection:
    """Brute-force optimum over all subsets of the candidates.

    Guarded to at most EXHAUSTIVE_MAX_CANDIDATES candidates. Ties prefer
    fewer stores, then lexicographically smaller id tuples.
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
    costs = np.array([p.access_cost for p in ordered])
    ratios = np.array([p.mis_ratio for p in ordered])
    chunk = 1 << 16
    best_mask = 0
    best_key: tuple | None = None
    for offset in range(0, 1 << n, chunk):
        count = min(chunk, (1 << n) - offset)
        bits = _mask_bits(n, count, offset)
        access = np.where(bits, costs, 0.0).sum(axis=1)
        miss = np.where(bits, ratios, 1.0).prod(axis=1)
        values = access + ctx.miss_penalty * miss
        low = values.min()
        for i in np.flatnonzero(values == low):
            mask = offset + int(i)
            ids = tuple(ordered[j].id for j in range(n) if mask >> j & 1)
            key = (low, len(ids), ids)
            if best_key is None or key < best_key:
                best_mask, best_key = mask, key
    return tuple(ordered[j] for j in range(n) if best_mask >> j & 1)
