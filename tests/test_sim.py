"""Trace-driven simulation: placement, per-request flow, metrics, workloads."""

import math
import os

import numpy as np
import pytest

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
from dss.topology import Edge, Topology, cost_matrix
from dss.workload import load_trace, save_trace, zipf_trace


def line_abc():
    return Topology(("a", "b", "c"), (Edge("a", "b", 10.0), Edge("b", "c", 5.0)))


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


def test_sim_config_rejects_non_finite_miss_penalty():
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(strategy="pi", miss_penalty=beta)


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
    metrics = run(config, topo, ["x", "x"], record_log=True)
    costs = cost_matrix(topo, config.alpha)
    clients = np.random.default_rng(3).integers(0, 3, size=2)
    placed = designated_stores("x", 1, 3, seed=3)[0]

    first, second = metrics.log
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
    metrics = run(config, topo, trace, record_log=True)
    costs = cost_matrix(topo, config.alpha)
    assert metrics.misses == 2  # one cold miss per distinct item
    for item, client, chosen, paid, hit in metrics.log:
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
    metrics = run(config, topo, trace, record_log=True)
    costs = cost_matrix(topo, config.alpha)
    access = 0.0
    misses = 0
    for item, client, chosen, paid, hit in metrics.log:
        assert paid == sum(costs[client, j] for j in chosen)
        access += paid
        misses += 0 if hit else 1
    assert metrics.access_cost == access
    assert metrics.misses == misses
    assert metrics.total_cost == access + config.miss_penalty * misses


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
    real = dss.sim.index_block

    def counted(item, *args):
        calls.append(item)
        return real(item, *args)

    monkeypatch.setattr(dss.sim, "index_block", counted)
    trace = zipf_trace(400, 300, seed=22)
    for _ in range(2):  # nothing carries over from one call to the next
        calls.clear()
        run_grid(["cpi", "pi"], betas=[10.0, 100.0], ks=[1, 2], seeds=[3, 4],
                 trace=trace, store_capacity=10)
        assert sorted(calls) == sorted(list(set(trace)) * 2)


def test_item_hash_state_is_compact():
    import dss.sim

    hashes = dss.sim._ItemHashes(seed=1, n_stores=19, num_counters=8181)
    for item in range(3000):
        hashes.block(item)
    rows = 3 * dss.sim._CHUNK_ROWS
    assert sum(a.nbytes for a in hashes._blocks + hashes._ranks) / rows <= 400
    for item in (0, 1500, 2999):  # a row in every chunk
        assert hashes.placement(item, 3) == designated_stores(item, 3, 19, seed=1)
