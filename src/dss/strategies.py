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
  budgets; optimal on integer costs, up to the rounding of log-hit weights.
- select_dsalg_knap: prunes to cost tiers, takes density-ordered prefixes
  and singletons per tier; O(sqrt(miss_penalty))-approximation.
- select_pgm: partitions stores into dyadic cost bands, keeps the best
  misindication prefix per band, and merges bands pairwise keeping the best
  union per dyadic cost range; phi(result) <= 2*log2(miss_penalty) * optimum.
- select_exhaustive: brute force over all subsets (guarded to <= 20
  candidates), the oracle the others are judged against.

Each of these five refuses what it cannot take, and then answers a context
of at most one candidate by one closed form, _at_most_one. pp, umb, pgm and
opt pick among their proposals by one tie rule, _best_by_phi's: least phi,
then fewer stores, then lexicographically smaller ids. pp, umb and pgm pick
through _best_by_phi itself, handing it proposals in id order; opt, which
streams its ties, applies the rule to subset masks (bit j is the j-th
candidate in id order) by _precedes, on _ids_precede's order of masks.

STRATEGIES maps each strategy name to its selector; the simulator, the CLI
and the demos all take the strategy set from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import DatastoreProfile, InvariantError, SelectionContext, expected_cost
from .knapsack import _runs, clamped_log_hit_weight

Selection = tuple[DatastoreProfile, ...]

EXHAUSTIVE_MAX_CANDIDATES = 20

# pp refuses a context whose (candidates + 1) x (max budget + 1) cells number
# more than this. The knapsack keeps runs of budgets, not a table of cells;
# each suffix of the items has at most one run per budget, so the count
# bounds the runs built over all suffixes.
PP_MAX_TABLE_CELLS = 1 << 24


def phi(selection: Iterable[DatastoreProfile], miss_penalty: float) -> float:
    """Expected total cost of a selection (shorthand for expected_cost().total)."""
    return expected_cost(selection, miss_penalty).total


_ID = attrgetter("id")
_RHO_ID = attrgetter("mis_ratio", "id")
# The profile in one of select_pgm's (misindication, id, bit, cost, profile)
# tuples.
_PROFILE = itemgetter(4)


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
    """Argmin of phi; ties prefer fewer stores, then lexicographic ids.

    Each proposal must already be in id order, as every proposer builds it:
    it is scored by _phi_by_id and returned as it came, not sorted again.
    Every caller proposes at least one selection, so an empty family is an
    InvariantError, not a bad input.
    """
    best: Selection | None = None
    best_key: tuple | None = None
    for sel in candidates:
        key = (_phi_by_id(sel, miss_penalty), len(sel))
        if best_key is None or key < best_key or (key == best_key and _ids(sel) < _ids(best)):
            best, best_key = sel, key
    if best is None:
        raise InvariantError("no candidate selections supplied")
    return tuple(best)


def _ids(selection: Selection) -> tuple:
    return tuple(p.id for p in selection)


def _at_most_one(ctx: SelectionContext) -> Selection | None:
    """Every phi-minimizer's answer on a context of at most one candidate,
    or None on a larger one.

    The only proposals are the empty selection (phi = miss_penalty) and the
    one store p (phi = c + miss_penalty * rho, both folds from 0.0 and 1.0
    as _phi_by_id folds them), and a tie goes to the empty one.
    """
    candidates = ctx.candidates
    if len(candidates) > 1:
        return None
    if not candidates:
        return ()
    p = candidates[0]
    beta = ctx.miss_penalty
    return (p,) if p.access_cost + beta * p.mis_ratio < beta else ()


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


def _potentials(ctx: SelectionContext) -> tuple[list, list[float], list[float]]:
    """pot's fold: the candidates in (misindication, id) order, their access
    costs in ascending order, and the potentials P(0), ..., P(n), as lists."""
    order = sorted(ctx.candidates, key=_RHO_ID)
    asc = sorted(p.access_cost for p in order)
    beta = ctx.miss_penalty
    pots = [beta]
    access = 0.0
    miss = 1.0
    for cost, p in zip(asc, order):
        access += cost
        miss *= p.mis_ratio
        pots.append(access + beta * miss)
    return order, asc, pots


def potential_state(ctx: SelectionContext) -> PotentialState:
    order, asc, pots = _potentials(ctx)
    low = accumulate(asc, initial=0.0)
    high = accumulate(reversed(asc), initial=0.0)
    return PotentialState(tuple(order), tuple(low), tuple(high), tuple(pots))


def select_pot(ctx: SelectionContext) -> Selection:
    """Best misindication-sorted prefix under the optimistic potential.

    Minimizes P(k) = (sum of k cheapest costs) + miss_penalty * (product of
    the k smallest misindication ratios) over k, ties toward smaller k, and
    returns the first k stores in misindication order.
    """
    one = _at_most_one(ctx)
    if one is not None:
        return one
    order, _, pots = _potentials(ctx)
    return _by_id(order[: pots.index(min(pots))])


def _require_integer_costs(ctx: SelectionContext) -> list[int]:
    """The candidates' access costs as ints, in candidate order; a
    ValueError names the first fractional one."""
    costs = []
    for p in ctx.candidates:
        if not float(p.access_cost).is_integer():
            raise ValueError(
                f"budgeted selection requires integer access costs, got "
                f"{p.access_cost} for id {p.id}"
            )
        costs.append(int(p.access_cost))
    return costs


def _item_id(item: tuple):
    """The id of one of pp's knapsack items, a (profile, weight, cost) triple."""
    return item[0].id


def _phi_upper_bound(order: Iterable[DatastoreProfile], beta: float) -> float:
    """The smallest phi among the empty selection, every single store and
    every prefix of ``order``, the candidates in (misindication, id) order:
    an upper bound on the optimum's phi."""
    bound = beta
    access = 0.0
    miss = 1.0
    for p in order:
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
    probability affordable within B, and _best_by_phi picks among the
    proposals. One exact dynamic program answers every budget, as runs of
    budgets that propose the same set; no set is in two runs, so each
    proposal is scored once. Some budget equals the optimum's total cost,
    so pp's phi equals the optimum's up to the rounding of log-hit weights.
    Among sets of equal phi, pp can return only one of its per-budget
    proposals, which need not be opt's.

    A set first proposed at budget B costs exactly B (a cheaper one is
    already the proposal at its own cost), so its phi is at least B. The
    sweep therefore first stops at the floor of _phi_upper_bound, and runs
    to the end only when its best phi is that width plus one or more, where
    a later set could still tie it; the answer is the full sweep's either
    way.
    The knapsack items are built once, as plain (profile, clamped log-hit
    weight, integer cost) triples in id order; _runs trusts them, as
    everything in them comes from a checked context. The profile is the
    item's key, so each run's keys are already a selection in id order, as
    _best_by_phi scores it. Each pass hands _runs only the items it can
    afford: the knapsack never takes a costlier one.
    Requires integer access costs, and at most PP_MAX_TABLE_CELLS cells of
    (candidates + 1) x (budgets + 1), which bounds the knapsack's runs.
    """
    candidates = ctx.candidates
    beta = ctx.miss_penalty
    costs = _require_integer_costs(ctx)
    max_budget = min(sum(costs), math.floor(beta))
    cells = (len(costs) + 1) * (max_budget + 1)
    if cells > PP_MAX_TABLE_CELLS:
        raise ValueError(
            f"budget sweep up to budget {max_budget} over {len(costs)} "
            f"candidates needs {cells} table cells, more than {PP_MAX_TABLE_CELLS}"
        )
    one = _at_most_one(ctx)
    if one is not None:
        return one
    items = sorted(
        zip(candidates, [clamped_log_hit_weight(p.mis_ratio) for p in candidates], costs),
        key=_item_id,
    )
    bound = _phi_upper_bound(sorted(candidates, key=_RHO_ID), beta)
    width = min(max_budget, math.floor(bound))
    for budget in sorted({width, max_budget}):
        runs = _runs([item for item in items if item[2] <= budget], budget)
        best = _best_by_phi((selection for _, _, selection in runs), beta)
        if _phi_by_id(best, beta) < budget + 1:
            break
    return best


def select_dsalg_knap(ctx: SelectionContext) -> Selection:
    """Cost-tier knapsack heuristic.

    For every distinct access cost u, restrict to stores costing at most u,
    order them by log-hit weight per unit cost (density) descending with
    ties by id, and consider every prefix of that order plus every single
    store. The empty selection always competes. Returns the candidate with
    the smallest phi.

    A tier's prefixes extend one another, so each is scored by folding one
    more store into the previous one's access sum and miss product. That
    proposal-order phi differs from the id-order phi by rounding only, far
    below a relative 1e-12, so just the proposals within 1e-12 of the least
    go on, sorted into id order, to _best_by_phi, which rescores them.
    phi is at least the access sum, and the least phi only falls as the fold
    goes on, so once a prefix's access sum exceeds that window around the
    least phi so far, neither it nor a longer prefix of its tier is
    proposed: the tier's fold, and its pool, stop there.
    """
    one = _at_most_one(ctx)
    if one is not None:
        return one
    beta = ctx.miss_penalty
    candidates = ctx.candidates
    density = sorted(
        candidates,
        key=lambda p: (-(clamped_log_hit_weight(p.mis_ratio) / p.access_cost), p.id),
    )
    # (phi in proposal order, pool, length): the proposal is pool[:length].
    # Every store is a single in the top tier, and a one-store prefix is a
    # single too, so each single is proposed once.
    scored = [(beta, candidates, 0)]
    scored += ((p.access_cost + beta * p.mis_ratio, (p,), 1) for p in candidates)
    least = min(scored, key=itemgetter(0))[0]
    limit = least + least * 1e-12
    for tier in sorted({p.access_cost for p in candidates}):
        # Only ever appended to, so pool[:t] stays the prefix scored at t.
        pool = []
        access = 0.0
        miss = 1.0
        for p in density:
            cost = p.access_cost
            if cost > tier:
                continue
            access += cost
            if access > limit:
                break
            miss *= p.mis_ratio
            pool.append(p)
            if len(pool) > 1:
                value = access + beta * miss
                scored.append((value, pool, len(pool)))
                if value < least:
                    least = value
                    limit = least + least * 1e-12
    return _best_by_phi((_by_id(pool[:t]) for value, pool, t in scored if value <= limit), beta)


# The empty candidate: miss product 1, cost 0, no store.
_PGM_EMPTY = (1.0, 0.0, 0)


def _ids_precede(a: int, b: int) -> bool:
    """Whether mask a's stores come before mask b's (a != b) as tuples of
    ids compare, bit j being the j-th store in id order.

    Below the lowest bit where the masks differ they hold the same stores.
    The mask that holds that bit comes first, unless the other mask, which
    does not hold it, has no higher bit either: then that other mask is a
    prefix of the first, and a prefix comes first."""
    low = (a ^ b) & -(a ^ b)
    if a & low:
        return b > low
    return a < low


def _merge(left: Sequence[tuple], right: Sequence[tuple], num_ranges: int) -> list[tuple]:
    """Merge two candidate lists, keeping the best union per dyadic range.

    A candidate is a (miss product, cost, mask) tuple, and bit j of its mask
    is the j-th store in id order, as in select_exhaustive. Every pairwise
    union (disjoint by construction, so costs add, misindication products
    multiply and masks or together) lands in the dyadic cost range t with
    2**(t-1) <= cost < 2**t; per range the least union survives: least
    product, then least cost, then the ids that come first as tuples
    compare (_ids_precede). Unions costing 2**num_ranges or more are
    dropped, and the empty candidate is always retained.

    ``right`` must be in nondecreasing cost order, as every list the merge
    tree builds is. Then once a union costs 2**num_ranges or more, so does
    every union of the same left candidate with a later right one, and the
    inner loop stops there.
    """
    frexp = math.frexp
    best: list[tuple | None] = [None] * (num_ranges + 1)
    for a_mis, a_cost, a_mask in left:
        for b_mis, b_cost, b_mask in right:
            cost = a_cost + b_cost
            if cost < 1.0:
                continue  # only the empty-empty union; kept separately
            t = frexp(cost)[1]
            if t > num_ranges:
                break
            mis = a_mis * b_mis
            cur = best[t]
            if cur is not None:
                cur_mis, cur_cost, cur_mask = cur
                if mis > cur_mis or mis == cur_mis and (
                    cost > cur_cost
                    or cost == cur_cost and not _ids_precede(a_mask | b_mask, cur_mask)
                ):
                    continue
            best[t] = (mis, cost, a_mask | b_mask)
    return [_PGM_EMPTY] + [c for c in best if c is not None]


def select_pgm(ctx: SelectionContext) -> Selection:
    """Partition-generate-merge approximation.

    Stores are bucketed into dyadic cost bands [2**j, 2**(j+1)) for j < r,
    the least integer with 2**r >= miss_penalty; each band contributes its
    misindication-sorted prefixes, and bands are merged pairwise up a binary
    tree, each merge keeping the best union per dyadic cost range. The root
    candidate with the smallest phi wins. Stores costing 2**r or more are
    ignored: their cost alone is at least the miss penalty.

    The tree carries (miss product, cost, mask) tuples, bit j of a mask
    being the j-th store in id order, as in select_exhaustive: a union is
    the two masks ored, and _merge breaks an exact tie between unions with
    one bit test (_ids_precede). The candidates are sorted once per call,
    as (misindication, id, bit, cost, profile) tuples; that order gives
    _phi_upper_bound and, split by band, every band's prefixes, with no
    sort or bit lookup of their own.

    At the root, each candidate's phi in merge order (its cost and product
    as the merges added and multiplied them) differs from its phi in id
    order by rounding only, far below a relative 1e-12. So only the
    candidates within 1e-12 of the least merge-order phi can win: a lone
    one is the answer as it is, and several go on to _best_by_phi, which
    rescores them in id order.

    A first pass keeps only the ranges below kept = the dyadic range of
    _phi_upper_bound: it drops the bands and unions that cost 2**kept or
    more. Each range keeps its best union independently, and a union's
    parts cost less than it does, so that pass's root is the full root less
    its candidates costing 2**kept or more. Their phi is at least their
    cost, so a best phi below 2**kept is final; otherwise the merge runs
    again over all r ranges.
    """
    beta = ctx.miss_penalty
    if beta < 2.0:
        raise ValueError(f"partition-merge needs miss_penalty >= 2, got {beta}")
    mantissa, exponent = math.frexp(beta)
    num_ranges = exponent - (mantissa == 0.5)
    one = _at_most_one(ctx)
    if one is not None:
        return one
    by_id = sorted(ctx.candidates, key=_ID)
    # Ids are distinct, so the sort never compares past them.
    ranked = sorted([(p.mis_ratio, p.id, 1 << j, p.access_cost, p) for j, p in enumerate(by_id)])
    kept = min(num_ranges, math.frexp(_phi_upper_bound(list(map(_PROFILE, ranked)), beta))[1])
    best = _pgm_pass(ranked, by_id, beta, kept)
    # A candidate's range comes from its cost summed in merge order, phi sums
    # the same costs in id order; the margin covers the rounding.
    if kept < num_ranges and not _phi_by_id(best, beta) < math.ldexp(1.0 - 1e-12, kept):
        best = _pgm_pass(ranked, by_id, beta, num_ranges)
    return best


def _pgm_pass(
    ranked: Sequence[tuple],
    by_id: Sequence[DatastoreProfile],
    beta: float,
    kept: int,
) -> Selection:
    """select_pgm's merge tree over the bands that cost less than 2**kept,
    keeping only the unions that cost less than that too, and its answer:
    the root's lone candidate within 1e-12 of the least merge-order phi, or
    _best_by_phi's pick among several. ``ranked`` holds select_pgm's
    (misindication, id, bit, cost, profile) tuples in that order, ``by_id``
    the candidates in id order.

    A call pays for the bands the context fills, not for the whole tree: a
    subtree of empty bands has the list [_PGM_EMPTY], and merging with it
    only passes a list up, so _pgm_tree walks the tree over the filled
    bands alone.
    """
    bands: dict[int, list[tuple]] = {}
    for rho, _, bit, cost, _ in ranked:
        j = math.frexp(cost)[1] - 1
        if j < kept:
            band = bands.get(j)
            if band is None:
                bands[j] = [_PGM_EMPTY, (rho, cost, bit)]
            else:
                mis, total, mask = band[-1]
                band.append((mis * rho, total + cost, mask | bit))
    root = _pgm_tree(sorted(bands.items()), kept) if bands else [_PGM_EMPTY]
    least = math.inf
    for mis, cost, _ in root:
        value = cost + beta * mis
        if value < least:
            least = value
    limit = least + least * 1e-12
    within = [mask for mis, cost, mask in root if cost + beta * mis <= limit]
    if len(within) == 1:
        return tuple([p for j, p in enumerate(by_id) if within[0] >> j & 1])
    return _best_by_phi(([p for j, p in enumerate(by_id) if m >> j & 1] for m in within), beta)


def _pgm_tree(nodes: list[tuple[int, list[tuple]]], kept: int) -> list[tuple]:
    """The root of the merge tree over (leaf index, band) nodes in index
    order, walked a level at a time over the filled nodes only. Band j is
    leaf j, and two nodes are siblings when their indexes differ in the
    lowest bit only: a node merges with its sibling when that is filled too.
    A lone leaf merges with [_PGM_EMPTY], which keeps its best prefix per
    range; a band of one store is already that and passes up as it is.
    Above the leaves a lone node passes up as it is, since a list out of a
    merge already keeps one candidate per range."""
    leaves = True
    while True:
        up = []
        i = 0
        while i < len(nodes):
            index, merged = nodes[i]
            if i + 1 < len(nodes) and nodes[i + 1][0] == index ^ 1:
                merged = _merge(merged, nodes[i + 1][1], kept)
                i += 2
            else:
                if leaves and len(merged) > 2:
                    merged = _merge(merged, [_PGM_EMPTY], kept)
                i += 1
            up.append((index >> 1, merged))
        if len(up) == 1:
            return up[0][1]
        nodes = up
        leaves = False


# select_exhaustive builds the sums of at most 2**16 subsets at a time.
_EXHAUSTIVE_LOW_BITS = 16


def select_exhaustive(ctx: SelectionContext) -> Selection:
    """Brute-force optimum over all subsets of the candidates.

    Guarded to at most EXHAUSTIVE_MAX_CANDIDATES candidates.

    Subset mask m takes store j (in id order) when bit j of m is set. The
    access sums and miss products of every subset of the first (up to) 16
    stores are built by doubling: the second half of the arrays is the
    first half plus the next store. Each pattern of the remaining high bits
    then adds its stores to those arrays. Every subset is thus folded in id
    order, as _phi_by_id folds it, so each value equals its phi bit for bit.
    Only the masks at the least value so far are compared, by _best_by_phi's
    tie rule on the masks themselves, and only the winner becomes a
    selection.
    """
    n = ctx.n_positive
    if n > EXHAUSTIVE_MAX_CANDIDATES:
        raise ValueError(
            f"exhaustive search supports at most {EXHAUSTIVE_MAX_CANDIDATES} "
            f"candidates, got {n}"
        )
    one = _at_most_one(ctx)
    if one is not None:
        return one
    ordered = _by_id(ctx.candidates)
    low_bits = min(n, _EXHAUSTIVE_LOW_BITS)
    low_access = np.zeros(1 << low_bits)
    low_miss = np.ones(1 << low_bits)
    for j, p in enumerate(ordered[:low_bits]):
        half = 1 << j
        np.add(low_access[:half], p.access_cost, out=low_access[half : 2 * half])
        np.multiply(low_miss[:half], p.mis_ratio, out=low_miss[half : 2 * half])
    high = ordered[low_bits:]
    best_value = math.inf
    best: int | None = None
    for pattern in range(1 << len(high)):
        access, miss = low_access, low_miss
        for j, p in enumerate(high):
            if pattern >> j & 1:
                access = access + p.access_cost
                miss = miss * p.mis_ratio
        values = access + ctx.miss_penalty * miss
        value = float(values.min())
        if value > best_value:
            continue
        if value < best_value:
            best_value, best = value, None
        for i in np.flatnonzero(values == value).tolist():
            mask = pattern << low_bits | i
            if best is None or _precedes(mask, best):
                best = mask
    return tuple(p for j, p in enumerate(ordered) if best >> j & 1)


def _precedes(a: int, b: int) -> bool:
    """Whether subset mask a comes before mask b (a != b) in _best_by_phi's
    tie order: fewer stores, then lexicographically smaller ids, which on
    masks of one size (neither a prefix of the other) is _ids_precede's."""
    if a.bit_count() != b.bit_count():
        return a.bit_count() < b.bit_count()
    return _ids_precede(a, b)


# Every selector by strategy name, in the order reports list them. A selector
# raises ValueError on a context it cannot take (pp: fractional costs, or
# more than PP_MAX_TABLE_CELLS cells; pgm: beta < 2; opt: more than
# EXHAUSTIVE_MAX_CANDIDATES candidates).
STRATEGIES: dict[str, Callable[[SelectionContext], Selection]] = {
    "cpi": select_cpi,
    "epi": select_epi,
    "pot": select_pot,
    "pp": select_dsalg_pp,
    "umb": select_dsalg_knap,
    "pgm": select_pgm,
    "opt": select_exhaustive,
}
