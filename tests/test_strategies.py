"""Selection strategies against the brute-force optimum."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from dss.core import DatastoreProfile, SelectionContext
import dss.strategies
from dss.strategies import (
    EXHAUSTIVE_MAX_CANDIDATES,
    PGM_EMPTY,
    PP_MAX_TABLE_CELLS,
    STRATEGIES,
    PgmCandidate,
    merge_candidate_lists,
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


def no_table(items, max_budget):
    raise AssertionError(f"a table for budget {max_budget} was built")


def test_dsalg_pp_refuses_a_huge_budget_before_building_a_table(monkeypatch):
    monkeypatch.setattr(dss.strategies, "solve_exact_all_budgets", no_table)
    with pytest.raises(ValueError, match=r"budget 1000000000000 over 1 candidates"):
        select_dsalg_pp(make_ctx([(1, 10.0**12, 0.1)], beta=1e13))


def test_dsalg_pp_table_limit_is_inclusive(monkeypatch):
    # One candidate: the table has 2 x (max_budget + 1) cells, and the
    # budget stops at floor(beta) below the candidate's cost.
    built = []

    def spy(items, max_budget):
        built.append(max_budget)
        raise LookupError("stop before the table")

    monkeypatch.setattr(dss.strategies, "solve_exact_all_budgets", spy)
    at_limit = PP_MAX_TABLE_CELLS // 2 - 1
    with pytest.raises(LookupError):
        select_dsalg_pp(make_ctx([(1, 2.0**30, 0.5)], beta=float(at_limit)))
    assert built == [at_limit]
    with pytest.raises(ValueError, match=f"budget {at_limit + 1} over 1 candidates"):
        select_dsalg_pp(make_ctx([(1, 2.0**30, 0.5)], beta=float(at_limit + 1)))
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


def test_pgm_merge_keeps_best_union_per_cost_range():
    left = [
        PGM_EMPTY,
        PgmCandidate(("l1",), 1.0, 0.9),
        PgmCandidate(("l2", "l3"), 2.0, 0.6),
    ]
    right = [PGM_EMPTY, PgmCandidate(("r1",), 3.0, 0.7)]
    merged = merge_candidate_lists(left, right, num_ranges=3)
    assert merged[0] is PGM_EMPTY
    assert [(c.cost, c.mis_product) for c in merged[1:]] == [
        (1.0, 0.9),
        (2.0, 0.6),
        (5.0, pytest.approx(0.42)),
    ]
    assert merged[3].ids == ("l2", "l3", "r1")


def test_pgm_examples_and_domain():
    assert select_pgm(make_ctx([])) == ()
    with pytest.raises(ValueError):
        select_pgm(make_ctx([(1, 1.0, 0.5)], beta=1.5))


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
