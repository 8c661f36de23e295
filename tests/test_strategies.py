"""Selection strategies against the brute-force optimum."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from dss.core import DatastoreProfile, InvariantError, SelectionContext
import dss.strategies
from dss.strategies import (
    EXHAUSTIVE_MAX_CANDIDATES,
    PP_MAX_TABLE_CELLS,
    STRATEGIES,
    _best_by_phi,
    _merge,
    phi,
    potential_state,
    select_cpi,
    select_dsalg_knap,
    select_dsalg_pp,
    select_epi,
    select_exhaustive,
    select_pgm,
    select_pot,
)
from dss.knapsack import _runs


def make_ctx(stores, beta=100.0):
    return SelectionContext(
        tuple(DatastoreProfile(i, c, r) for i, c, r in stores), beta
    )


def ids(selection):
    return [p.id for p in selection]


def random_ctx(rng, n_max=10, integer_costs=True, cost_hi=8, beta_choices=(16.0, 64.0, 256.0)):
    n = rng.randint(0, n_max)
    stores = []
    for j in range(n):
        cost = rng.randint(1, cost_hi) if integer_costs else rng.uniform(1.0, cost_hi)
        stores.append((j, float(cost), rng.uniform(0.01, 0.99)))
    return make_ctx(stores, rng.choice(beta_choices))


FIG_STORES = [(1, 1.0, 0.5), (2, 2.0, 0.4), (3, 5.0, 0.3)]


def test_cpi_picks_cheapest():
    assert ids(select_cpi(make_ctx(FIG_STORES))) == [1]
    assert select_cpi(make_ctx([])) == ()
    assert ids(select_cpi(make_ctx([(7, 3.0, 0.5), (4, 3.0, 0.5)]))) == [4]


def test_epi_takes_everything():
    got = select_epi(make_ctx(FIG_STORES))
    assert ids(got) == [1, 2, 3]
    assert sum(p.access_cost for p in got) == 8.0
    assert select_epi(make_ctx([])) == ()
    assert ids(select_epi(make_ctx([(9, 2.0, 0.1)]))) == [9]


def test_potential_state_quantities():
    state = potential_state(make_ctx(FIG_STORES))
    n = 3
    assert state.potentials[0] == 100.0  # beta: accessing nothing is a miss
    for k in range(n + 1):
        assert state.low_cost_sums[k] <= state.high_cost_sums[k] + 1e-12
    assert list(state.low_cost_sums) == [0.0, 1.0, 3.0, 8.0]
    assert list(state.high_cost_sums) == [0.0, 5.0, 7.0, 8.0]
    assert [p.mis_ratio for p in state.order] == [0.3, 0.4, 0.5]


def test_pot_examples():
    got = select_pot(make_ctx([(1, 1.0, 0.1), (2, 1.0, 0.2), (3, 1.0, 0.3)]))
    assert ids(got) == [1, 2, 3]
    assert phi(got, 100.0) == pytest.approx(3.6)
    assert select_pot(make_ctx([])) == ()
    # P(1) = 1 + 100*0.5 = 51 beats P(0) = 100
    assert ids(select_pot(make_ctx([(5, 1.0, 0.5)]))) == [5]


def test_dsalg_pp_examples():
    got = select_dsalg_pp(make_ctx([(1, 1.0, 0.02), (2, 1.0, 0.02)]))
    assert ids(got) == [1, 2]
    assert phi(got, 100.0) == pytest.approx(2.04)
    assert select_dsalg_pp(make_ctx([])) == ()


def test_dsalg_pp_rejects_fractional_costs():
    with pytest.raises(ValueError):
        select_dsalg_pp(make_ctx([(1, 1.5, 0.2)]))
    # The message names the first fractional cost in candidate order, not in
    # the id order the knapsack takes its items in.
    stores = [(9, 2.0, 0.2), (7, 3.5, 0.1), (3, 1.0, 0.3), (1, 2.5, 0.4)]
    with pytest.raises(ValueError, match=r"got 3\.5 for id 7$"):
        select_dsalg_pp(make_ctx(stores))


def no_table(items, max_budget):
    raise AssertionError(f"a table for budget {max_budget} was built")


def test_dsalg_pp_refuses_a_huge_budget_before_building_a_table(monkeypatch):
    monkeypatch.setattr(dss.strategies, "_runs", no_table)
    with pytest.raises(ValueError, match=r"budget 1000000000000 over 1 candidates"):
        select_dsalg_pp(make_ctx([(1, 10.0**12, 0.1)], beta=1e13))


def test_dsalg_pp_table_limit_is_inclusive(monkeypatch):
    # Two candidates: the table has 3 x (max_budget + 1) cells, and the
    # budget stops at floor(beta) below the candidates' costs. (One
    # candidate never reaches the table: the closed form answers it.)
    built = []

    def spy(items, max_budget):
        built.append(max_budget)
        raise LookupError("stop before the table")

    monkeypatch.setattr(dss.strategies, "_runs", spy)
    stores = [(1, 2.0**30, 0.5), (2, 2.0**30, 0.5)]
    at_limit = PP_MAX_TABLE_CELLS // 3 - 1
    with pytest.raises(LookupError):
        select_dsalg_pp(make_ctx(stores, beta=float(at_limit)))
    assert built == [at_limit]
    with pytest.raises(ValueError, match=f"budget {at_limit + 1} over 2 candidates"):
        select_dsalg_pp(make_ctx(stores, beta=float(at_limit + 1)))
    assert built == [at_limit]


def test_dsalg_knap_examples():
    assert ids(select_dsalg_knap(make_ctx([(3, 1.0, 0.5)]))) == [3]
    assert select_dsalg_knap(make_ctx([])) == ()


def test_dsalg_knap_returns_best_of_its_candidate_family():
    # Rebuild the documented family (per-tier density prefixes, singletons,
    # the empty set) and confirm the strategy returns its phi-minimum.
    rng = random.Random(32)
    for _ in range(100):
        ctx = random_ctx(rng, n_max=9, integer_costs=False)
        got = select_dsalg_knap(ctx)
        family = [()]
        for tier in sorted({p.access_cost for p in ctx.candidates}):
            pool = [p for p in ctx.candidates if p.access_cost <= tier]
            pool.sort(
                key=lambda p: (-(-math.log2(p.mis_ratio) / p.access_cost), p.id)
            )
            for t in range(len(pool)):
                family.append(tuple(pool[: t + 1]))
                family.append((pool[t],))
        best = min(phi(c, ctx.miss_penalty) for c in family)
        assert phi(got, ctx.miss_penalty) == pytest.approx(best, abs=1e-9)
        assert phi(got, ctx.miss_penalty) >= phi(
            select_exhaustive(ctx), ctx.miss_penalty
        ) - 1e-9


def test_best_by_phi_on_an_empty_family_is_an_invariant_error():
    # umb, pgm and opt each propose at least one selection. `dss select`
    # prints a selector's ValueError as "<name> unavailable", so an empty
    # family must raise something else: it is a bug, not a bad input.
    assert not issubclass(InvariantError, ValueError)
    with pytest.raises(InvariantError, match="no candidate selections"):
        _best_by_phi(iter(()), 100.0)


# _merge's candidates are (miss product, cost, mask) tuples; bit j of a mask
# is the j-th store in id order.
EMPTY = (1.0, 0.0, 0)
L1, L2, L3, R1, R2 = (1 << j for j in range(5))


def test_pgm_merge_keeps_best_union_per_cost_range():
    left = [EMPTY, (0.9, 1.0, L1), (0.6, 2.0, L2 | L3)]
    right = [EMPTY, (0.7, 3.0, R1)]
    merged = _merge(left, right, num_ranges=3)
    assert merged[0] == EMPTY
    assert [(cost, mis) for mis, cost, _ in merged[1:]] == [
        (1.0, 0.9),
        (2.0, 0.6),
        (5.0, pytest.approx(0.42)),
    ]
    assert merged[3][2] == L2 | L3 | R1


class Unreachable:
    """A right-list candidate past the range limit, which the merge must
    never look at."""

    def __iter__(self):
        raise AssertionError("the merge went on past the range limit")


def test_pgm_merge_stops_at_the_first_union_past_the_range_limit():
    left = [EMPTY, (0.5, 1.0, L1)]
    right = [EMPTY, (0.5, 2.0, R1), (0.1, 8.0, R2), Unreachable()]
    merged = _merge(left, right, num_ranges=3)
    assert [(mask, cost) for _, cost, mask in merged] == [
        (0, 0.0),
        (L1, 1.0),
        (L1 | R1, 3.0),
    ]


def test_dsalg_pp_builds_items_only_for_affordable_stores(monkeypatch):
    seen = []

    def spy(items, max_budget):
        # pp's items are (profile, weight, cost) triples, in id order.
        seen.append((max_budget, [it[0].id for it in items]))
        return _runs(items, max_budget)

    monkeypatch.setattr(dss.strategies, "_runs", spy)
    got = select_dsalg_pp(make_ctx([(1, 3.0, 0.2), (2, 100.0, 0.0), (3, 7.0, 0.1)], beta=50.0))
    assert ids(got) == [1, 3]
    # The bound is phi({3}) = 7 + 50 * 0.1 = 12, and phi({1, 3}) = 11 is
    # within one of it, so one pass to budget 12 answers.
    assert seen == [(12, [1, 3])]


def test_pgm_examples_and_domain():
    assert select_pgm(make_ctx([])) == ()
    with pytest.raises(ValueError):
        select_pgm(make_ctx([(1, 1.0, 0.5)], beta=1.5))


def test_dsalg_pp_breaks_a_phi_tie_between_budgets_as_opt_does():
    # {10, 16} (first proposed at budget 2) and {6} (at budget 3) both have
    # phi exactly 3.0; the shared tie rule takes the smaller set.
    ctx = make_ctx([(6, 3.0, 0.0), (10, 1.0, 0.1), (16, 1.0, 0.2)], beta=50.0)
    assert phi(ctx.candidates[:1], 50.0) == phi(ctx.candidates[1:], 50.0) == 3.0
    assert ids(select_dsalg_pp(ctx)) == [6] == ids(select_exhaustive(ctx))


def test_dsalg_pp_can_miss_a_set_of_equal_phi_that_no_budget_proposes():
    # {6, 65} and {7} both cost 2, their log-hit weights tie and their phi
    # is 2.16 bit for bit, but budget 2 proposes only {6, 65}, by smaller ids.
    ctx = make_ctx([(6, 1.0, 0.1), (65, 1.0, 0.1), (7, 2.0, 0.01)], beta=16.0)
    pp, opt = select_dsalg_pp(ctx), select_exhaustive(ctx)
    assert ids(pp) == [6, 65] and ids(opt) == [7]
    assert phi(pp, 16.0).hex() == phi(opt, 16.0).hex() == (2.16).hex()


def test_dsalg_pp_can_be_an_ulp_above_the_optimum():
    # {10, 63} and {67} both cost 5 and their log-hit weights tie, but 0.1 *
    # 0.1 rounds to 0.010000000000000002 > 0.01, so pp's phi is one ulp above.
    beta = 127.18284910450734
    ctx = make_ctx([(10, 2.0, 0.1), (63, 3.0, 0.1), (67, 5.0, 0.01)], beta=beta)
    pp, opt = select_dsalg_pp(ctx), select_exhaustive(ctx)
    assert ids(pp) == [10, 63] and ids(opt) == [67]
    assert phi(opt, beta) == 6.271828491045073
    assert phi(pp, beta) == 6.271828491045074 == math.nextafter(phi(opt, beta), math.inf)


@pytest.mark.parametrize("r", range(2, 12))
def test_pgm_takes_a_store_costing_the_power_of_two_just_below_beta(r):
    # From r = 4 on, math.log2 rounds this beta down to r, but the least
    # integer n with 2**n >= beta is r + 1, so a store costing 2**r counts.
    beta = math.nextafter(2.0**r, math.inf)
    store = (0, 2.0**r, 0.0)
    # The second store loses (phi 1.49 * 2**r), but gives the merge tree a
    # second band.
    for stores in ([store], [store, (1, 2.0 ** (r - 1), 0.99)]):
        ctx = make_ctx(stores, beta)
        assert ids(select_pgm(ctx)) == [0] == ids(select_exhaustive(ctx))


def test_exhaustive_examples():
    assert select_exhaustive(make_ctx([])) == ()
    got = select_exhaustive(make_ctx([(1, 1.0, 0.1), (2, 1.0, 0.2), (3, 1.0, 0.3)]))
    assert ids(got) == [1, 2, 3]
    assert phi(got, 100.0) == pytest.approx(3.6)
    # a store whose cost exceeds the achievable penalty saving is skipped
    assert select_exhaustive(make_ctx([(1, 95.0, 0.1)])) == ()


def test_exhaustive_guard():
    stores = [(j, 1.0, 0.5) for j in range(EXHAUSTIVE_MAX_CANDIDATES + 1)]
    with pytest.raises(ValueError):
        select_exhaustive(make_ctx(stores))


def reference_exhaustive(ctx):
    """select_exhaustive as it was before subset doubling: one n x 2**16
    bit matrix per chunk, row sums and products by numpy."""
    n = ctx.n_positive
    if n == 0:
        return ()
    ordered = tuple(sorted(ctx.candidates, key=lambda p: p.id))
    costs = np.array([p.access_cost for p in ordered])
    ratios = np.array([p.mis_ratio for p in ordered])
    chunk = 1 << 16
    best_mask = 0
    best_key = None
    for offset in range(0, 1 << n, chunk):
        count = min(chunk, (1 << n) - offset)
        masks = np.arange(offset, offset + count, dtype=np.uint32)
        bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
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


def test_exhaustive_equals_the_bit_matrix_search_past_one_chunk():
    # 17 and 18 candidates take the loop over the high-bit patterns. Costs
    # and ratios come from small pools, so that many subsets tie.
    rng = random.Random(39)
    for n in (17, 17, 18, 18):
        beta = rng.choice((20.0, 60.0, 500.0))
        stores = [
            (3 * j + rng.randint(0, 2), float(rng.randint(1, 6)), rng.choice((0.0, 0.2, 0.5, 0.9)))
            for j in range(n)
        ]
        ctx = make_ctx(stores, beta)
        assert select_exhaustive(ctx) == reference_exhaustive(ctx)


def test_exhaustive_keeps_only_the_winning_tie(monkeypatch):
    # Every 9-store subset of 19 equal stores ties at the optimum: C(19, 9)
    # of them. The search compares their masks and builds one selection,
    # which the tie rule's fewest stores and smallest ids pick.
    import dss.strategies

    received = []
    best_by_phi = dss.strategies._best_by_phi

    def counted(candidates, miss_penalty):
        candidates = list(candidates)
        received.extend(candidates)
        return best_by_phi(candidates, miss_penalty)

    monkeypatch.setattr(dss.strategies, "_best_by_phi", counted)
    ctx = make_ctx([(j, 1.0, 0.5) for j in range(19)], 1000.0)
    assert ids(select_exhaustive(ctx)) == list(range(9))
    assert len(received) <= 1


def test_exhaustive_memory_stays_small_at_the_candidate_limit():
    # The bit-matrix search peaked at 13.3 MiB on 20 candidates.
    rng = random.Random(40)
    stores = [(j, float(rng.randint(1, 30)), rng.uniform(0.01, 0.99)) for j in range(20)]
    ctx = make_ctx(stores)
    tracemalloc.start()
    try:
        select_exhaustive(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


ALL_STRATEGIES = list(STRATEGIES.values())


def test_all_strategies_return_subsets_and_opt_dominates():
    rng = random.Random(33)
    for _ in range(200):
        ctx = random_ctx(rng, n_max=9)
        opt_phi = phi(select_exhaustive(ctx), ctx.miss_penalty)
        for strategy in ALL_STRATEGIES:
            got = strategy(ctx)
            got_ids = ids(got)
            assert set(got_ids) <= {p.id for p in ctx.candidates}
            assert len(set(got_ids)) == len(got_ids)
            assert phi(got, ctx.miss_penalty) >= opt_phi - 1e-9


def test_pp_exact_solver_matches_optimum():
    rng = random.Random(34)
    for _ in range(200):
        ctx = random_ctx(rng, n_max=9)
        pp = phi(select_dsalg_pp(ctx), ctx.miss_penalty)
        opt = phi(select_exhaustive(ctx), ctx.miss_penalty)
        assert pp == opt or pp == pytest.approx(opt, abs=1e-9)


def test_pot_ratio_bound():
    rng = random.Random(35)
    for _ in range(200):
        ctx = random_ctx(rng, n_max=9)
        pot = select_pot(ctx)
        opt_phi = phi(select_exhaustive(ctx), ctx.miss_penalty)
        k = len(pot)
        if k == 0:
            assert phi(pot, ctx.miss_penalty) == pytest.approx(opt_phi, abs=1e-9)
            continue
        state = potential_state(ctx)
        ratio = state.high_cost_sums[k] / state.low_cost_sums[k]
        assert phi(pot, ctx.miss_penalty) <= ratio * opt_phi + 1e-9


def test_pot_optimal_under_uniform_costs():
    rng = random.Random(36)
    for _ in range(200):
        n = rng.randint(1, 9)
        cost = float(rng.randint(1, 6))
        stores = [(j, cost, rng.uniform(0.01, 0.99)) for j in range(n)]
        ctx = make_ctx(stores, rng.choice((16.0, 64.0, 256.0)))
        pot = phi(select_pot(ctx), ctx.miss_penalty)
        opt = phi(select_exhaustive(ctx), ctx.miss_penalty)
        assert pot == pytest.approx(opt, rel=1e-12, abs=1e-9)


def test_pgm_logarithmic_bound():
    rng = random.Random(37)
    for _ in range(200):
        beta = rng.choice((16.0, 64.0, 256.0))
        n = rng.randint(0, 9)
        stores = [
            (j, float(rng.randint(1, int(beta / 2))), rng.uniform(0.01, 0.99))
            for j in range(n)
        ]
        ctx = make_ctx(stores, beta)
        pgm = phi(select_pgm(ctx), ctx.miss_penalty)
        opt = phi(select_exhaustive(ctx), ctx.miss_penalty)
        assert pgm <= 2.0 * math.log2(beta) * opt + 1e-9


def test_strategies_deterministic_under_input_permutation():
    rng = random.Random(38)
    for _ in range(50):
        ctx = random_ctx(rng, n_max=8)
        flipped = SelectionContext(tuple(reversed(ctx.candidates)), ctx.miss_penalty)
        for strategy in ALL_STRATEGIES:
            assert ids(strategy(ctx)) == ids(strategy(flipped))
            assert ids(strategy(ctx)) == ids(strategy(ctx))
