"""Trace-driven simulation: placement, per-request flow, metrics, workloads."""

import dataclasses
import math
import os
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dss.cbf import CountingBloomFilter
from dss.datastore import Datastore
from dss.sim import (
    METRICS_CSV_HEADER,
    SimConfig,
    SimMetrics,
    designated_stores,
    markdown_summary,
    metrics_csv,
    resolve_strategy,
    run,
    run_grid,
    run_with_baseline,
)
from dss.topology import Edge, Topology, cost_matrix, default_topology
from dss.workload import load_trace, save_trace, zipf_trace


def line_abc():
    return Topology(("a", "b", "c"), (Edge("a", "b", 10.0), Edge("b", "c", 5.0)))


def logged_run(config, topology, trace):
    """A run's metrics and its log: (item, client, chosen ids, paid, hit)
    per request, from run's observer."""
    log = []

    def observe(item, client, ctx, chosen, paid, hit, placed):
        log.append((item, client, tuple(p.id for p in chosen), paid, hit))

    return run(config, topology, trace, _observe=observe), log


def test_resolve_strategy_aliases():
    assert resolve_strategy("CPI") == "cpi"
    assert resolve_strategy("dsalg-pp") == "pp"
    assert resolve_strategy("dsalg_knap") == "umb"
    assert resolve_strategy("exhaustive") == "opt"
    assert resolve_strategy("pi") == "pi"
    with pytest.raises(ValueError):
        resolve_strategy("nope")


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(strategy="cpi", miss_penalty=0.5)
    with pytest.raises(ValueError):
        SimConfig(strategy="cpi", locations_per_item=0)
    with pytest.raises(ValueError):
        SimConfig(strategy="cpi", target_fpr=0.0)
    with pytest.raises(ValueError):
        SimConfig(strategy="cpi", alpha=1.2)
    # The strategy's own precondition on beta, checked before any run.
    with pytest.raises(ValueError, match="miss_penalty >= 2"):
        SimConfig(strategy="pgm", miss_penalty=1.5)
    SimConfig(strategy="pgm", miss_penalty=2.0)
    SimConfig(strategy="pi", miss_penalty=1.5)
    # Counts and the seed are integers, not bools; the strategy is a name.
    for field, value in [("store_capacity", 2.5), ("locations_per_item", 1.5),
                         ("seed", 1.5), ("locations_per_item", True), ("seed", "3")]:
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            SimConfig(strategy="cpi", **{field: value})
    with pytest.raises(ValueError, match="^locations_per_item must be an integer, got True$"):
        run_grid(["cpi"], [100.0], [True], [0], trace=["x"])
    with pytest.raises(ValueError, match="^strategy must be a str, got 5$"):
        SimConfig(strategy=5)
    config = SimConfig(strategy="cpi", locations_per_item=np.int64(2), seed=np.uint8(3))
    assert (config.locations_per_item, config.seed) == (2, 3)
    assert type(config.locations_per_item) is type(config.seed) is int
    # The cost figures are real numbers, not bools, and are stored as floats;
    # big_t may also be None (its range depends on the topology).
    for field, value in [("miss_penalty", True), ("alpha", False), ("miss_penalty", "100"),
                         ("alpha", None), ("target_fpr", "0.02"), ("big_t", "x"),
                         ("big_t", True), ("target_fpr", 1j)]:
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
            SimConfig(strategy="pi", **{field: value})
    with pytest.raises(ValueError, match="^alpha must be a real number, got None$"):
        run_grid(["cpi"], [100.0], [1], [0], trace=["x"], alpha=None)
    config = SimConfig(strategy="cpi", miss_penalty=100, target_fpr=np.float32(0.5),
                       alpha=np.int64(1), big_t=400)
    assert (config.miss_penalty, config.alpha, config.big_t) == (100.0, 1.0, 400.0)
    assert all(type(value) is float for value in (config.miss_penalty, config.target_fpr,
                                                  config.alpha, config.big_t))
    assert SimConfig(strategy="cpi").big_t is None


def test_sim_config_rejects_non_finite_miss_penalty():
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(strategy="pi", miss_penalty=beta)


def test_grid_checks_every_cell_before_the_first_run(monkeypatch):
    import dss.sim

    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(dss.sim, "run", no_run)
    with pytest.raises(ValueError, match="miss_penalty >= 2"):
        run_grid(["cpi", "pgm"], [100.0, 1.5], [1, 5], [0], trace=zipf_trace(50, 20, seed=1))
    with pytest.raises(ValueError, match="locations_per_item 50 exceeds 19 stores"):
        run_grid(["cpi", "pgm"], [100.0], [1, 50], [0], trace=zipf_trace(50, 20, seed=1))


def test_sim_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SimConfig(strategy="pi", seed=-1)


def test_designated_stores_basics():
    full = designated_stores("item", 19, 19, seed=0)
    assert full == tuple(range(19))
    once = designated_stores("item", 3, 19, seed=0)
    again = designated_stores("item", 3, 19, seed=0)
    assert once == again
    assert len(set(once)) == 3
    other_seed = [designated_stores("item", 3, 19, seed=s) for s in range(1, 30)]
    assert any(t != once for t in other_seed)
    with pytest.raises(ValueError):
        designated_stores("item", 0, 19, seed=0)
    with pytest.raises(ValueError):
        designated_stores("item", 20, 19, seed=0)
    # Sizes and seed are integers, checked at the boundary as SimConfig
    # checks them: ValueError, never numpy's or to_bytes' TypeError.
    for args, message in (((1.5, 19, 0), "k must be an integer"),
                          ((True, 19, 0), "k must be an integer"),
                          ((2, 19.0, 0), "n_stores must be an integer"),
                          ((2, 19, 1.5), "seed must be an integer"),
                          ((2, 19, -1), "seed must be >= 0"),
                          ((1, 0, 0), "n_stores must be >= 1"),
                          ((0, 19, 0), r"k must lie in 1\.\.19"),
                          ((20, 19, 0), r"k must lie in 1\.\.19")):
        with pytest.raises(ValueError, match=message):
            designated_stores("item", *args)
    assert designated_stores("item", np.int64(3), np.int32(19), np.uint8(0)) == once


def test_designated_stores_match_one_digest_per_store():
    # Reference: the keyed digest of payload + store id, one per store,
    # ranked by descending score with ties toward the lower id.
    import hashlib

    def reference(item, k, n, seed):
        if isinstance(item, int):
            payload = item.to_bytes(16, "little", signed=True)
        else:
            payload = str(item).encode()
        key = seed.to_bytes(8, "little")
        scores = [
            (int.from_bytes(hashlib.blake2b(payload + j.to_bytes(4, "little"),
                                            digest_size=8, key=key).digest(), "little"), j)
            for j in range(n)
        ]
        scores.sort(key=lambda s: (-s[0], s[1]))
        return tuple(sorted(j for _, j in scores[:k]))

    for item in [0, -5, 12345, "x", "item-7"]:
        for k in (1, 3, 19):
            assert designated_stores(item, k, 19, seed=9) == reference(item, k, 19, 9)


def test_designated_stores_spread_evenly():
    counts = np.zeros(19, dtype=int)
    for item in range(10_000):
        for j in designated_stores(item, 3, 19, seed=7):
            counts[j] += 1
    expected = 10_000 * 3 / 19
    assert counts.min() >= expected * 0.95
    assert counts.max() <= expected * 1.05


def test_two_request_walkthrough():
    # First request of a cold system misses everywhere (no indications at
    # all), pays beta, and places the item; the second finds it indicated.
    topo = line_abc()
    config = SimConfig(strategy="cpi", locations_per_item=1, store_capacity=4, seed=3)
    metrics, log = logged_run(config, topo, ["x", "x"])
    costs = cost_matrix(topo, config.alpha)
    clients = np.random.default_rng(3).integers(0, 3, size=2)
    placed = designated_stores("x", 1, 3, seed=3)[0]

    first, second = log
    assert first == ("x", clients[0], (), 0.0, False)
    item, client, chosen, paid, hit = second
    assert (item, client, hit) == ("x", clients[1], True)
    assert chosen == (placed,)
    assert paid == costs[clients[1], placed]
    assert metrics.requests == 2
    assert metrics.misses == 1
    assert metrics.access_cost == paid
    assert metrics.total_cost == paid + config.miss_penalty


def test_ground_truth_accesses_single_cheapest_holder():
    topo = line_abc()
    config = SimConfig(strategy="pi", locations_per_item=2, store_capacity=4, seed=5)
    trace = ["x", "x", "y", "x", "y"]
    metrics, log = logged_run(config, topo, trace)
    costs = cost_matrix(topo, config.alpha)
    assert metrics.misses == 2  # one cold miss per distinct item
    for item, client, chosen, paid, hit in log:
        if hit:
            assert len(chosen) == 1
            holders = designated_stores(item, 2, 3, seed=5)
            cheapest = min(holders, key=lambda j: (costs[client, j], j))
            assert chosen[0] == cheapest
            assert paid == costs[client, cheapest]
        else:
            assert chosen == ()


def test_ground_truth_looks_only_at_designated_stores(monkeypatch):
    # pi asks at most the k designated stores per request, and a miss asks
    # them again before placing the item.
    calls = []
    holds = Datastore.holds

    def counting_holds(self, item):
        calls.append(item)
        return holds(self, item)

    monkeypatch.setattr(Datastore, "holds", counting_holds)
    config = SimConfig(strategy="pi", locations_per_item=2, store_capacity=5, seed=3)
    trace = zipf_trace(300, 100, seed=4)
    metrics = run(config, trace=trace)
    assert len(calls) <= 2 * (len(trace) + metrics.misses)


@pytest.mark.parametrize("strategy", ["pi", "cpi"])
def test_run_looks_each_request_up_once(strategy, monkeypatch):
    # One table lookup per request serves the candidate search and, on a
    # miss, placement and every filter insert.
    import dss.sim

    lookups = []
    row = dss.sim._ItemHashes.row

    def counting_row(self, item):
        lookups.append(item)
        return row(self, item)

    monkeypatch.setattr(dss.sim._ItemHashes, "row", counting_row)
    trace = zipf_trace(600, 5000, 0.6, seed=23)
    config = SimConfig(strategy=strategy, locations_per_item=5, store_capacity=10, seed=2)
    metrics = run(config, trace=trace)
    assert metrics.misses > len(trace) // 2
    assert lookups == trace


def test_oversized_filter_bank_fails_before_allocation(monkeypatch):
    import dss.sim

    def no_bank(*args, **kwargs):
        raise AssertionError("a filter bank was allocated")

    monkeypatch.setattr(dss.sim, "FilterBank", no_bank)
    config = SimConfig(strategy="cpi", store_capacity=1000, target_fpr=1e-30)
    with pytest.raises(ValueError, match="target_fpr 1e-30 at store_capacity 1000"):
        run(config, trace=["x"])
    with pytest.raises(ValueError, match="target_fpr"):
        run_grid(["cpi"], [100.0], [1], [0], trace=["x"], target_fpr=1e-30)


def test_ground_truth_alone_sizes_no_filter_and_hashes_no_block(monkeypatch):
    # pi reads only store rankings, so a call that runs pi alone takes a
    # target fpr whose filter bank could not be built.
    import dss.sim

    def no_filters(*args, **kwargs):
        raise AssertionError("a filter was sized or an index block hashed")

    monkeypatch.setattr(dss.sim, "index_blocks", no_filters)
    monkeypatch.setattr(dss.sim, "size_for_target_fpr", no_filters)
    trace = zipf_trace(300, 100, seed=4)
    config = SimConfig(strategy="pi", locations_per_item=2, store_capacity=5, target_fpr=1e-30)
    alone = run(config, trace=trace)
    assert 0 < alone.misses < alone.requests == 300
    metrics, baseline = run_with_baseline(config, trace=trace)
    assert metrics is baseline and metrics.tc_norm == 1.0
    rows = run_grid(["pi"], [100.0], [1, 2], [0, 3], trace=trace, store_capacity=5,
                    target_fpr=1e-30)
    assert [m.tc_norm for m in rows] == [1.0] * 4
    usual = run(dataclasses.replace(config, target_fpr=0.02), trace=trace)
    assert (alone.access_cost, alone.misses) == (usual.access_cost, usual.misses)
    with pytest.raises(AssertionError, match="a filter was sized"):
        run_grid(["pi", "cpi"], [100.0], [1], [0], trace=trace, target_fpr=1e-30)


def test_empty_trace_fails_before_allocation(monkeypatch):
    import dss.sim

    def no_bank(*args, **kwargs):
        raise AssertionError("a filter bank was allocated")

    monkeypatch.setattr(dss.sim, "FilterBank", no_bank)
    config = SimConfig(strategy="cpi")
    with pytest.raises(ValueError, match="^trace contains no items$"):
        run(config, trace=[])
    with pytest.raises(ValueError, match="^trace contains no items$"):
        run_grid(["cpi"], [100.0], [1], [0], trace=[])
    with pytest.raises(ValueError, match="^trace contains no items$"):
        run_with_baseline(config, trace=[])


def test_ground_truth_builds_no_filter_bank(monkeypatch):
    import dss.sim

    def no_bank(*args, **kwargs):
        raise AssertionError("a filter bank was allocated")

    monkeypatch.setattr(dss.sim, "FilterBank", no_bank)
    trace = zipf_trace(300, 50, seed=4)
    metrics = run(SimConfig(strategy="pi", locations_per_item=2, store_capacity=5), trace=trace)
    assert metrics.requests == 300 and 0 < metrics.misses < 300
    with pytest.raises(AssertionError, match="a filter bank was allocated"):
        run(SimConfig(strategy="cpi", locations_per_item=2, store_capacity=5), trace=trace)


@pytest.mark.parametrize("axis", ["strategies", "betas", "ks", "seeds"])
def test_empty_grid_axis_fails_before_loading(axis, monkeypatch):
    import dss.sim

    def no_load(*args, **kwargs):
        raise AssertionError("a topology was loaded or a filter bank allocated")

    monkeypatch.setattr(dss.sim, "_as_topology", no_load)
    monkeypatch.setattr(dss.sim, "FilterBank", no_load)
    grid = {"strategies": ["cpi"], "betas": [100.0], "ks": [1, 2], "seeds": [0, 1]}
    grid[axis] = []
    with pytest.raises(ValueError, match=f"^{axis} must not be empty$"):
        run_grid(**grid, trace=zipf_trace(500, 100, seed=1), store_capacity=10)


def test_pi_is_cpi_over_the_designated_holders():
    # pi's context holds the designated stores that hold the item, and pi
    # chooses from it as cpi does. It hits exactly on the requests where
    # that context is not empty: a request with no holder is a miss and
    # selects nothing.
    from dss.strategies import STRATEGIES

    cpi = STRATEGIES["cpi"]
    contexts = []
    hits = []

    def observe(item, client, ctx, chosen, paid, hit, placed):
        assert hit == bool(ctx.candidates)
        if ctx.candidates:
            contexts.append(ctx)
        if hit:
            hits.append((item, tuple(p.id for p in chosen)))

    config = SimConfig(strategy="pi", locations_per_item=2, store_capacity=5, seed=3)
    trace = zipf_trace(300, 100, seed=4)
    metrics = run(config, trace=trace, _observe=observe)
    assert len(contexts) == len(hits) == len(trace) - metrics.misses
    n_stores = len(default_topology().nodes)
    for ctx, (item, chosen) in zip(contexts, hits):
        designated = designated_stores(item, 2, n_stores, seed=3)
        assert ctx.candidates and all(p.id in designated for p in ctx.candidates)
        assert chosen == tuple(p.id for p in cpi(ctx))
    assert 0 < metrics.misses < len(trace)


def test_no_selector_sees_an_empty_context(monkeypatch):
    # A request with no positive indication selects nothing without a
    # selector call. The only empty contexts a selector sees are SimConfig's
    # probes, one per config that run_grid builds for it (one per cell).
    from dss.strategies import STRATEGIES

    sizes = {name: [] for name in STRATEGIES}
    for name, select in list(STRATEGIES.items()):
        def spy(ctx, name=name, select=select):
            sizes[name].append(len(ctx.candidates))
            return select(ctx)

        monkeypatch.setitem(STRATEGIES, name, spy)
    trace = zipf_trace(2000, 500, seed=6)
    ks = [1, 3]
    rows = run_grid(["pi", "cpi", "pgm", "umb"], [100.0], ks, [0], trace=trace,
                    store_capacity=20)
    for name in ("cpi", "pgm", "umb"):
        assert sizes[name][:len(ks)] == [0] * len(ks)
        assert 0 not in sizes[name][len(ks):]
    # pi selects through cpi, so cpi's calls count both runs of each cell.
    live = {name: len(sizes[name]) - len(ks) for name in sizes}
    assert live["cpi"] > 0 and live["pgm"] + live["umb"] < 2 * len(ks) * len(trace)
    assert not any(live[name] > 0 for name in ("epi", "pot", "pp", "opt"))
    assert [m.requests for m in rows] == [len(trace)] * 8


def test_every_profile_a_selector_sees_equals_a_checked_one(monkeypatch):
    # run builds its profiles past DatastoreProfile's checks. Each must equal
    # the checked profile of its own fields and carry a float cost:
    # cost_matrix's int64 costs become floats once per run, not per profile.
    from dss.core import RHO_MAX, DatastoreProfile
    from dss.strategies import STRATEGIES

    seen = []
    for name in ("cpi", "pgm"):
        def spy(ctx, select=STRATEGIES[name]):
            seen.extend(ctx.candidates)
            return select(ctx)

        monkeypatch.setitem(STRATEGIES, name, spy)
    trace = zipf_trace(2000, 500, seed=6)
    run_grid(["pi", "cpi", "pgm"], [100.0], [1, 3], [0], trace=trace, store_capacity=20)
    run(SimConfig(strategy="cpi", locations_per_item=2, store_capacity=20), line_abc(), trace)
    assert len(seen) > 1000
    for p in seen:
        assert type(p.id) is int and type(p.access_cost) is float
        assert type(p.mis_ratio) is float
        assert p == DatastoreProfile(p.id, p.access_cost, p.mis_ratio)
    # Both ends of the estimate's range reach the selectors: a store that
    # has only missed is capped at RHO_MAX.
    assert {0.0, RHO_MAX} <= {p.mis_ratio for p in seen}


@pytest.mark.parametrize("strategy", ["cpi", "pgm"])
@pytest.mark.parametrize("k", [1, 3])
def test_store_counters_equal_their_residents(strategy, k, monkeypatch):
    # Each store of a filtered run counts its residents in, and its evicted
    # items out, through the indexes it kept at their insert: its bank row
    # holds, per counter, how many kept indexes name it, and every kept
    # index list is the store's column of the item's index block. No counter
    # saturates at this capacity, so the counts are exact.
    import dss.sim
    from dss.cbf import index_block

    built = []

    class Spy(Datastore):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(dss.sim, "Datastore", Spy)
    config = SimConfig(strategy=strategy, locations_per_item=k, store_capacity=30, seed=5)
    metrics = run(config, trace=zipf_trace(3000, 5000, seed=8))
    assert len(built) == 19 and metrics.misses > 0
    assert all(len(store) == store.capacity for store in built)  # every store evicted
    for store in built:
        bank, row = store.indicator.bank, store.indicator.row
        m = bank.num_counters
        want = np.zeros(m, dtype=np.int64)
        for item, kept in store._contents.items():
            kept = list(kept)
            assert kept == index_block(item, bank.seeds, m, bank.num_hashes)[:, row].tolist()
            np.add.at(want, np.asarray(kept) - row * m, 1)
        counters = np.asarray(store.indicator.counters)
        assert counters.max() < 255
        assert np.array_equal(counters, want), store.id


def test_pi_normalizes_to_one():
    config = SimConfig(strategy="pi", store_capacity=50, seed=1)
    trace = zipf_trace(500, 300, seed=11)
    metrics, baseline = run_with_baseline(config, line_abc(), trace)
    assert metrics is baseline
    assert metrics.tc_norm == 1.0
    assert metrics.ac_norm == pytest.approx(
        metrics.access_cost / metrics.total_cost
    )


def test_identical_seeds_reproduce_bitwise():
    trace = zipf_trace(2000, 1000, seed=12)
    config = SimConfig(strategy="umb", locations_per_item=3, store_capacity=100, seed=4)
    a = run(config, None, trace)
    b = run(config, None, trace)
    assert (a.access_cost, a.misses, a.requests) == (b.access_cost, b.misses, b.requests)
    assert metrics_csv([a]) == metrics_csv([b])


def test_ground_truth_lower_bounds_every_strategy():
    trace = zipf_trace(3000, 2000, seed=13)
    rows = run_grid(
        ["cpi", "epi", "pot", "pp", "umb", "pgm", "pi"],
        betas=[100.0],
        ks=[2],
        seeds=[0],
        trace=trace,
        store_capacity=150,
    )
    assert len(rows) == 7
    for m in rows:
        assert m.tc_norm >= 1.0 - 1e-9
    assert [m for m in rows if m.strategy == "pi"][0].tc_norm == 1.0


def test_oversized_filters_make_cpi_nearly_optimal():
    # With a vanishing false-positive rate CPI sees only true holders, so a
    # paired ground-truth run can beat it only marginally.
    trace = zipf_trace(10_000, 10_000, seed=14)
    config = SimConfig(strategy="cpi", store_capacity=1000, target_fpr=1e-6, seed=2)
    metrics, _ = run_with_baseline(config, None, trace)
    assert metrics.tc_norm <= 1.02


def test_accounting_identity_from_log():
    trace = zipf_trace(2000, 800, seed=15)
    config = SimConfig(strategy="pot", locations_per_item=2, store_capacity=100, seed=6)
    topo = line_abc()
    metrics, log = logged_run(config, topo, trace)
    costs = cost_matrix(topo, config.alpha)
    access = 0.0
    misses = 0
    for item, client, chosen, paid, hit in log:
        assert paid == sum(costs[client, j] for j in chosen)
        access += paid
        misses += 0 if hit else 1
    assert metrics.access_cost == access
    assert metrics.misses == misses
    assert metrics.total_cost == access + config.miss_penalty * misses


def test_observer_is_called_once_per_request_with_what_the_loop_held():
    trace = zipf_trace(1500, 400, seed=21)
    n_stores = len(default_topology().nodes)
    for name in ("pgm", "pi"):
        config = SimConfig(strategy=name, locations_per_item=3, store_capacity=40, seed=4)
        calls = []

        def observe(*args):
            calls.append(args)

        metrics = run(config, trace=trace, _observe=observe)
        assert [call[0] for call in calls] == trace
        assert sum(call[4] for call in calls) == metrics.access_cost
        assert sum(not call[5] for call in calls) == metrics.misses
        empty = 0
        for item, client, ctx, chosen, paid, hit, placed in calls:
            if not ctx.candidates:
                empty += 1
                assert chosen == ()
            assert sorted(placed) == list(designated_stores(item, 3, n_stores, seed=4))
        assert 0 < empty < len(trace)
        plain = run(config, trace=trace)
        assert (plain.requests, plain.access_cost, plain.misses) == (
            metrics.requests, metrics.access_cost, metrics.misses)


def test_k_cannot_exceed_store_count():
    config = SimConfig(strategy="cpi", locations_per_item=4)
    with pytest.raises(ValueError):
        run(config, line_abc(), ["x"])


def test_metrics_csv_format():
    m = SimMetrics(
        SimConfig(strategy="cpi", miss_penalty=100.0, locations_per_item=1,
                  store_capacity=1000, target_fpr=0.02, alpha=0.5, seed=0),
        requests=10, access_cost=12.0, misses=3,
    )
    text = metrics_csv([m])
    lines = text.strip().split("\n")
    assert lines[0] == METRICS_CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "cpi"
    assert fields[8] == "12"
    assert fields[9] == "312"  # TC = AC + beta * misses
    assert fields[11] == fields[12] == ""  # not yet normalized
    m.normalize_against(624.0)
    assert metrics_csv([m]).strip().split("\n")[1].endswith("0.5")


def test_normalize_rejects_bad_baseline():
    m = SimMetrics(
        SimConfig(strategy="cpi", miss_penalty=100.0, locations_per_item=1,
                  store_capacity=1000, target_fpr=0.02, alpha=0.5, seed=0),
    )
    with pytest.raises(ValueError):
        m.normalize_against(0.0)


def test_markdown_summary_pivots_cells():
    trace = zipf_trace(300, 200, seed=16)
    rows = run_grid(
        ["cpi", "pi"], betas=[10.0, 100.0], ks=[1], seeds=[0],
        trace=trace, store_capacity=50,
    )
    table = markdown_summary(rows)
    assert "beta=10, k=1" in table
    assert "beta=100, k=1" in table
    assert "| cpi |" in table
    assert "| pi |" in table


def test_zipf_trace_shape_and_determinism():
    trace = zipf_trace(5000, 100, skew=1.0, seed=17)
    assert len(trace) == 5000
    assert min(trace) >= 0 and max(trace) < 100
    assert trace == zipf_trace(5000, 100, skew=1.0, seed=17)
    assert trace != zipf_trace(5000, 100, skew=1.0, seed=18)
    with pytest.raises(ValueError):
        zipf_trace(0, 100)
    with pytest.raises(ValueError):
        zipf_trace(100, 0)


def test_zipf_trace_is_pinned():
    # The benchmark's two traces: a change to how the CDF is computed must
    # leave every draw where it was.
    import hashlib

    for args, digest in (
        ((2000, 200_000, 0.6), "05c31b6b9efc41c5f9ba7454d8395c951eb8408991e909dcd0c5d2d7525a5047"),
        ((2000, 20_000, 1.0), "19f970b278fe1f99f5cdd7b070b1c8c3a1f67e93903f8ebd0b92e3bcd78f6334"),
    ):
        trace = zipf_trace(*args, seed=1)
        assert hashlib.sha256(repr(trace).encode()).hexdigest() == digest


def test_zipf_trace_refuses_non_integer_sizes_and_non_real_skew():
    # A fractional catalog would silently round up; the others would let
    # numpy's or math's TypeError escape.
    cases = [
        (dict(catalog_size=100.5), "catalog_size must be an integer, got 100.5"),
        (dict(num_requests=2000.5), "num_requests must be an integer, got 2000.5"),
        (dict(num_requests=True), "num_requests must be an integer, got True"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(skew="1.0"), "skew must be a real number, got '1.0'"),
        (dict(skew=None), "skew must be a real number, got None"),
        (dict(skew=True), "skew must be a real number, got True"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            zipf_trace(**{"num_requests": 2000, "catalog_size": 100, **kwargs})
    # Integers of any kind, and real skews, are taken at their value.
    want = zipf_trace(50, 10, 0.5, seed=3)
    assert zipf_trace(np.int64(50), np.uint8(10), Fraction(1, 2), seed=np.int16(3)) == want
    assert zipf_trace(50, 10, 1, seed=3) == zipf_trace(50, 10, 1.0, seed=3)


def test_zipf_trace_rejects_non_finite_skew():
    for skew in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            zipf_trace(100, 100, skew=skew)


def test_zipf_trace_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        zipf_trace(100, 100, seed=-1)


def test_zipf_skew_concentrates_popularity():
    flat = zipf_trace(20_000, 50, skew=0.0, seed=19)
    steep = zipf_trace(20_000, 50, skew=2.0, seed=19)
    top_flat = max(flat.count(v) for v in set(flat))
    top_steep = max(steep.count(v) for v in set(steep))
    assert top_steep > 3 * top_flat
    assert abs(top_flat - 20_000 / 50) < 200  # skew 0 is uniform


def test_trace_file_round_trip(tmp_path):
    path = os.fspath(tmp_path / "trace.txt")
    save_trace([5, 3, 5, 0], path)
    assert load_trace(path) == ["5", "3", "5", "0"]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n\n  7  \n")
    assert load_trace(path)[-1] == "7"
    empty = os.fspath(tmp_path / "empty.txt")
    save_trace([], empty)
    with pytest.raises(ValueError):
        load_trace(empty)


def test_run_grid_rows_equal_independent_runs():
    # Cells of a grid share a cost matrix and an item-hash table; each row
    # must still equal a run made on its own, in any order.
    trace = zipf_trace(600, 1500, 0.8, seed=21)
    grid = dict(betas=[100.0], ks=[1, 3], seeds=[1, 2], store_capacity=8)
    names = ["cpi", "pgm", "pi"]
    rows = run_grid(names, trace=trace, **grid)
    alone = {}
    for seed in reversed(grid["seeds"]):
        for k in reversed(grid["ks"]):
            cell = SimConfig(strategy="pi", locations_per_item=k, store_capacity=8, seed=seed)
            baseline = run(cell, None, trace)
            baseline.normalize_against(baseline.total_cost)
            alone[("pi", k, seed)] = baseline
            for name in ("pgm", "cpi"):
                m = run(SimConfig(strategy=name, locations_per_item=k, store_capacity=8,
                                  seed=seed), None, trace)
                m.normalize_against(baseline.total_cost)
                alone[(name, k, seed)] = m
    expected = [alone[(name, k, seed)] for k in grid["ks"] for seed in grid["seeds"]
                for name in names]
    assert metrics_csv(rows) == metrics_csv(expected)


def test_grid_hashes_each_item_once_per_seed_and_call(monkeypatch):
    import dss.sim

    calls = []
    real = dss.sim.index_blocks

    def counted(items, *args):
        calls.extend(items)
        return real(items, *args)

    monkeypatch.setattr(dss.sim, "index_blocks", counted)
    trace = zipf_trace(400, 300, seed=22)
    for _ in range(2):  # nothing carries over from one call to the next
        calls.clear()
        run_grid(["cpi", "pi"], betas=[10.0, 100.0], ks=[1, 2], seeds=[3, 4],
                 trace=trace, store_capacity=10)
        assert sorted(calls) == sorted(list(set(trace)) * 2)


def test_grid_hashes_the_ground_truths_items_in_batches(monkeypatch):
    # The ground truth runs first and fills every item's row; the first
    # filtered run then hashes their index blocks in batches of at most
    # _BATCH_ROWS rows.
    import dss.sim

    batches = []
    real = dss.sim.index_blocks

    def counted(items, *args):
        batches.append(len(items))
        return real(items, *args)

    monkeypatch.setattr(dss.sim, "index_blocks", counted)
    trace = zipf_trace(3000, 5000, 0.6, seed=5)
    distinct = len(set(trace))
    assert distinct > dss.sim._CHUNK_ROWS
    seeds = [3, 4]
    run_grid(["pi", "cpi"], betas=[100.0], ks=[1, 2], seeds=seeds, trace=trace,
             store_capacity=10)
    assert sum(batches) == distinct * len(seeds)
    assert max(batches) <= dss.sim._BATCH_ROWS
    assert len(batches) <= (math.ceil(distinct / dss.sim._BATCH_ROWS) + 1) * len(seeds)


def table_block(hashes, item):
    # The item's index block in the item-hash table, found by its row number.
    import dss.sim

    chunk, offset = divmod(hashes.row(item), dss.sim._CHUNK_ROWS)
    return hashes._blocks[chunk][offset]


def table_ranking(hashes, item):
    # The item's store ranking in the item-hash table, found by its row number.
    import dss.sim

    chunk, offset = divmod(hashes.row(item), dss.sim._CHUNK_ROWS)
    n_stores = len(hashes.filter_seeds)
    return hashes._ranks[chunk][offset * n_stores:(offset + 1) * n_stores]


@pytest.mark.parametrize("batch_rows, first, then", [(256, 1000, 300), (300, 1300, 0)])
def test_deferred_index_blocks_equal_index_block(batch_rows, first, then, monkeypatch):
    # Rows filled ranking-only, hashed in slices that a chunk's end may cut
    # short, then rows that hash their own block as they are filled: every
    # row's block is index_block's.
    import dss.sim
    from dss.cbf import index_block

    monkeypatch.setattr(dss.sim, "_BATCH_ROWS", batch_rows)
    hashed = []
    real = dss.sim.index_blocks

    def counted(items, *args):
        hashed.extend(items)
        return real(items, *args)

    monkeypatch.setattr(dss.sim, "index_blocks", counted)
    hashes = dss.sim._ItemHashes(SimConfig(strategy="cpi", seed=2), 7, True)
    items = [f"item-{i}" for i in range(first)] + list(range(then))
    for item in items[:first]:
        hashes.row(item)
    assert hashed == []
    hashes.bank()
    assert hashed == items[:first]
    for item in items[first:]:
        hashes.row(item)
    # A second bank hashes nothing again, and rows filled after it still
    # hash their own blocks.
    hashed.clear()
    hashes.bank()
    assert hashed == []
    items += [f"late-{i}" for i in range(5)]
    for item in items[-5:]:
        hashes.row(item)
    assert hashed == items[-5:]
    assert len(hashes._blocks) == 2
    for item in items:
        want = index_block(item, hashes.filter_seeds, hashes.num_counters, dss.sim.NUM_HASHES)
        assert np.array_equal(table_block(hashes, item), want), item
    # A table without index blocks never hashes one.
    hashed.clear()
    plain = dss.sim._ItemHashes(SimConfig(strategy="cpi", seed=2), 7, False)
    for item in items:
        plain.row(item)
    assert hashed == [] and plain._blocks[0].size == 0


def test_item_hash_state_is_compact():
    # A table for pi alone keeps rankings only. The chunks bound the bytes
    # of a row's state; tracemalloc bounds everything a row allocates
    # (its chunk share and its dict entry), so per-row objects fail it.
    import tracemalloc

    import dss.sim

    for filtered, row_bytes, traced_bytes in ((True, 400, 520), (False, 19, 120)):
        hashes = dss.sim._ItemHashes(SimConfig(strategy="cpi", seed=1), 19, filtered)
        for item in range(3000):
            hashes.row(item)
        rows = 3 * dss.sim._CHUNK_ROWS
        chunks = hashes._blocks + hashes._ranks
        assert sum(memoryview(a).nbytes for a in chunks) / rows <= row_bytes
        for item in (0, 1500, 2999):  # a row in every chunk
            ranking = table_ranking(hashes, item)
            assert tuple(sorted(ranking[:3])) == designated_stores(item, 3, 19, seed=1)

        hashes = dss.sim._ItemHashes(SimConfig(strategy="cpi", seed=1), 19, filtered)
        rows = 10 * dss.sim._CHUNK_ROWS
        items = list(range(rows))
        tracemalloc.start()
        try:
            for item in items:
                hashes.row(item)
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert used / rows <= traced_bytes


def test_rankings_hold_every_store_id():
    # Rankings are stored in the narrowest unsigned type that holds every
    # store id: one byte up to 256 stores, two beyond.
    import dss.sim

    for n_stores in (19, 256, 257, 300):
        hashes = dss.sim._ItemHashes(SimConfig(strategy="pi", seed=2), n_stores, False)
        for item in (0, 1, 77, "item-5", b"x", 2**70):
            want = dss.sim._store_ranking(item, n_stores, 2).tolist()
            assert table_ranking(hashes, item).tolist() == want
            assert all(type(j) is int for j in table_ranking(hashes, item)[:3])


def test_a_numpy_trace_runs_as_its_list():
    # A numpy integer hashes as the Python int it equals, in the filters
    # and in placement alike.
    trace = zipf_trace(2000, 500, seed=3)
    for name in ("cpi", "pi"):
        config = SimConfig(strategy=name, locations_per_item=2, store_capacity=20)
        want = metrics_csv([run(config, trace=trace)])
        assert metrics_csv([run(config, trace=np.array(trace))]) == want


def test_equal_numbers_are_one_item():
    # 5 and numpy's 5 of any width, and 1 and True, are one key of the
    # item-hash table and of every store, so they must also hash alike,
    # whichever of them comes first.
    config = SimConfig(strategy="cpi", store_capacity=2, locations_per_item=2)
    pairs = [(5, np.int16(5)), (5, np.uint64(5)), (1, True), (-3, np.int8(-3))]
    for a, b in pairs:
        want = run(config, trace=[a, a, 7, a])
        for trace in ([a, b, 7, a], [b, a, 7, a]):
            metrics = run(config, trace=trace)
            assert (metrics.access_cost, metrics.misses) == (want.access_cost,
                                                             want.misses), (trace,)
        assert designated_stores(b, 3, 19, 1) == designated_stores(a, 3, 19, 1)


def test_items_that_are_no_number_str_or_bytes_are_refused():
    # An item is an int, str or bytes. (1, 2) and (1.0, 2) are one key of
    # the item-hash table and of every store, but their strs differ; a
    # frozenset's str follows the str hash seed; 5.0, Decimal(5) and 5+0j
    # equal 5; a list or a bytearray is no dict key at all. Each is refused
    # with the same ValueError, whichever entry point meets it first.
    config = SimConfig(strategy="cpi", store_capacity=2, locations_per_item=2)
    for item in ((1, 2), frozenset({"alpha", "beta", "gamma"}), 5.0, math.nan,
                 Fraction(11, 2), Decimal(5), 5 + 0j, [1, 2], bytearray(b"a")):
        message = re.escape(f"an item must be an int, str or bytes, got {type(item)}")
        with pytest.raises(ValueError, match=message):
            run(config, trace=[item, 7, item])
        with pytest.raises(ValueError, match=message):
            designated_stores(item, 3, 19, 1)
        with pytest.raises(ValueError, match=message):
            CountingBloomFilter(64, 3, seed=1).insert(item)
    with pytest.raises(ValueError, match="got <class 'tuple'>$"):
        run(config, trace=[(1, 2), (1.0, 2), 7, (1, 2)])
    # An equal int already in the item-hash table lets none of them through.
    for item in (5.0, Decimal(5), 5 + 0j, Fraction(10, 2)):
        message = re.escape(f"an item must be an int, str or bytes, got {type(item)}")
        with pytest.raises(ValueError, match=message):
            run(config, trace=[5, item])
        with pytest.raises(ValueError, match=message):
            run_grid(["cpi"], [100.0], [2], [0], trace=[5, item], store_capacity=2)


def test_integers_of_any_size_run():
    for name in ("cpi", "pi"):
        metrics = run(SimConfig(strategy=name), trace=[2**130, 1, 2**130, -(2**127) - 1])
        assert metrics.misses == 3
    assert len(designated_stores(2**127, 1, 19, 0)) == 1
