"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Every check carries its stated tolerance and runtime budget.
"""

import math
import os
import random
import time

import numpy as np

from dss.cbf import CountingBloomFilter, size_for_target_fpr
from dss.cli import main
from dss.core import DatastoreProfile, SelectionContext
from dss.homogeneous import (
    HomogeneousParams,
    cpi_cost,
    epi_cost,
    fpo_access_count,
    fpo_cost,
    no_indicator_cost,
    perfect_indicator_cost,
)
from dss.knapsack import KnapsackInstance, KnapsackItem, solve_exact_all_budgets, solve_greedy2
from dss.sim import run_grid
from dss.strategies import (
    phi,
    potential_state,
    select_dsalg_knap,
    select_dsalg_pp,
    select_exhaustive,
    select_pgm,
    select_pot,
)
from dss.workload import zipf_trace


def report(number, description, failures, started, budget=None):
    elapsed = time.perf_counter() - started
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} {description}: {status} ({elapsed:.2f}s)", flush=True)
    assert not failures, f"criterion {number}: " + "; ".join(failures)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def analyze_rows(tmp_path, *extra):
    out = os.fspath(tmp_path / "sweep.csv")
    assert main(["analyze", "--out", out, *extra]) == 0
    with open(out, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]


def test_criterion_1_reference_curve_midpoint(tmp_path):
    started = time.perf_counter()
    failures = []
    rows = analyze_rows(tmp_path)  # defaults: n=20, fpr=0.02, beta=100, step 0.05
    half = next(r for r in rows if r["hit"] == 0.5)
    expected = {
        "perfect": 1.00009,
        "fpo": 2.03852,
        "cpi": 2.96085,
        "epi": 10.20010,
        "no_indicator": 7.5625,
    }
    for column, value in expected.items():
        got = half[column]
        check(
            failures,
            math.isclose(got, value, rel_tol=1e-3),
            f"h=0.5 {column}: got {got:.6f}, want {value} within 1e-3 rel",
        )
    report(1, "closed forms at h=0.5 (n=20, fpr=0.02, beta=100)", failures, started, budget=1.0)


def test_criterion_2_reference_curve_endpoints(tmp_path):
    started = time.perf_counter()
    failures = []
    rows = analyze_rows(tmp_path)
    zero = next(r for r in rows if r["hit"] == 0.0)
    one = next(r for r in rows if r["hit"] == 1.0)
    for column in ("perfect", "fpo", "cpi", "epi", "no_indicator"):
        check(
            failures,
            100.0 - 1e-9 <= zero[column] <= 100.4 * (1 + 1e-3),
            f"h=0 {column}={zero[column]:.6f} outside [100, 100.4]",
        )
    check(failures, math.isclose(zero["epi"], 100.4, rel_tol=1e-3),
          f"h=0 epi={zero['epi']:.6f}, want 100.4")
    check(failures, math.isclose(zero["cpi"], 100.33239, rel_tol=1e-3),
          f"h=0 cpi={zero['cpi']:.6f}, want 100.33239")
    check(failures, math.isclose(one["perfect"], 1.0, abs_tol=1e-9),
          f"h=1 perfect={one['perfect']:.6f}, want 1.0")
    check(failures, math.isclose(one["fpo"], 1.0, abs_tol=1e-9),
          f"h=1 fpo={one['fpo']:.6f}, want 1.0")
    check(failures, math.isclose(one["epi"], 20.0, abs_tol=1e-9),
          f"h=1 epi={one['epi']:.6f}, want 20.0")
    report(2, "closed forms at the h=0 and h=1 endpoints", failures, started, budget=1.0)


def test_criterion_3_monte_carlo_cross_check():
    started = time.perf_counter()
    failures = []
    n, fpr, beta = 20, 0.02, 100.0
    trials = 1_000_000
    chunk = 125_000
    for h in (0.1, 0.5, 0.9):
        params = HomogeneousParams(n, h, fpr, beta)
        rho = params.rho
        m_star = np.array([fpo_access_count(k, beta, rho) for k in range(n + 1)])
        m_blind = fpo_access_count(n, beta, 1.0 - h)
        rng = np.random.default_rng(90210 + int(h * 10))
        sums = {name: 0.0 for name in ("perfect", "fpo", "cpi", "epi", "no_indicator")}
        sq = dict(sums)
        for _ in range(trials // chunk):
            held = rng.random((chunk, n)) < h
            indicated = held | (rng.random((chunk, n)) < fpr)
            k = indicated.sum(axis=1)
            any_held = held.any(axis=1)
            samples = {}
            samples["perfect"] = np.where(any_held, 1.0, beta)
            samples["epi"] = k + beta * ~any_held
            first_ind = indicated.argmax(axis=1)
            cpi_absent = ~held[np.arange(chunk), first_ind]
            samples["cpi"] = np.where(k == 0, beta, 1.0 + beta * cpi_absent)
            # access the first m indicated stores; a hit needs the first
            # truly-holding store to sit within that prefix
            m = m_star[k]
            first_held = held.argmax(axis=1)
            rank = indicated.cumsum(axis=1)[np.arange(chunk), first_held] - 1
            fpo_hit = any_held & (rank < m)
            samples["fpo"] = m + beta * ~fpo_hit
            blind_hit = held[:, :m_blind].any(axis=1)
            samples["no_indicator"] = m_blind + beta * ~blind_hit
            for name, arr in samples.items():
                sums[name] += float(arr.sum())
                sq[name] += float((arr * arr).sum())
        closed = {
            "perfect": perfect_indicator_cost(n, h, beta),
            "fpo": fpo_cost(params),
            "cpi": cpi_cost(params),
            "epi": epi_cost(params),
            "no_indicator": no_indicator_cost(params),
        }
        for name, want in closed.items():
            mean = sums[name] / trials
            var = max(sq[name] / trials - mean * mean, 0.0)
            se = math.sqrt(var / trials)
            # tiny absolute floor: at extreme h some estimators degenerate
            # to a constant and the only slack left is float roundoff
            tolerance = 3.0 * se + 1e-9
            check(
                failures,
                abs(mean - want) <= tolerance,
                f"h={h} {name}: simulated {mean:.6f} vs closed {want:.6f} "
                f"(|diff|={abs(mean - want):.2e} > 3*SE={3 * se:.2e})",
            )
    report(3, "10^6-trial simulation matches the closed forms (3 SE)", failures, started, budget=30.0)


def _instances(count, seed, uniform_costs=False):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, 12)
        beta = rng.choice((16.0, 64.0, 256.0))
        if uniform_costs:
            cost = float(rng.randint(1, 8))
            stores = [
                DatastoreProfile(j, cost, rng.uniform(0.01, 0.99)) for j in range(n)
            ]
        else:
            stores = [
                DatastoreProfile(j, float(rng.randint(1, 8)), rng.uniform(0.01, 0.99))
                for j in range(n)
            ]
        out.append(SelectionContext(tuple(stores), beta))
    return out


INSTANCES = _instances(1000, seed=424242)


def test_criterion_4_budget_sweep_equals_exhaustive():
    started = time.perf_counter()
    failures = []
    for idx, ctx in enumerate(INSTANCES):
        got = phi(select_dsalg_pp(ctx), ctx.miss_penalty)
        want = phi(select_exhaustive(ctx), ctx.miss_penalty)
        if got != want and not math.isclose(got, want, abs_tol=1e-9):
            failures.append(f"instance {idx}: budget sweep {got!r} != optimum {want!r}")
            if len(failures) >= 5:
                break
    report(4, "exact budget sweep matches the optimum on 1000 instances", failures, started, budget=30.0)


def test_criterion_5_bound_suites():
    started = time.perf_counter()
    failures = []
    uniform_seen = 0
    for idx, ctx in enumerate(INSTANCES):
        beta = ctx.miss_penalty
        opt = phi(select_exhaustive(ctx), beta)

        pot_sel = select_pot(ctx)
        pot = phi(pot_sel, beta)
        k = len(pot_sel)
        if k == 0:
            check(failures, math.isclose(pot, opt, abs_tol=1e-9),
                  f"instance {idx}: empty potential pick {pot} != optimum {opt}")
        else:
            state = potential_state(ctx)
            ratio = state.high_cost_sums[k] / state.low_cost_sums[k]
            check(failures, pot <= ratio * opt + 1e-9,
                  f"instance {idx}: potential bound {pot:.6f} > {ratio:.3f}*{opt:.6f}")

        costs = {p.access_cost for p in ctx.candidates}
        if len(costs) <= 1:
            uniform_seen += 1
            check(failures, math.isclose(pot, opt, rel_tol=1e-12, abs_tol=1e-9),
                  f"instance {idx}: uniform costs but potential {pot} != optimum {opt}")

        pgm = phi(select_pgm(ctx), beta)
        check(failures, pgm <= 2.0 * math.log2(beta) * opt + 1e-9,
              f"instance {idx}: merge-tree bound {pgm:.6f} > 2*log2({beta})*{opt:.6f}")

        umb = phi(select_dsalg_knap(ctx), beta)
        check(failures, umb >= opt - 1e-9,
              f"instance {idx}: cost-tier pick {umb:.6f} beats the optimum {opt:.6f}")

        items = tuple(
            KnapsackItem(p.id, -math.log2(p.mis_ratio), int(p.access_cost))
            for p in ctx.candidates
        )
        max_budget = min(sum(it.cost for it in items), int(beta))
        exact_sets = solve_exact_all_budgets(items, max_budget)
        by_id = {it.id: it for it in items}
        for budget, exact_ids in enumerate(exact_sets):
            exact_profit = sum(by_id[i].profit for i in exact_ids)
            greedy_ids = solve_greedy2(KnapsackInstance(budget, items))
            greedy_profit = sum(by_id[i].profit for i in greedy_ids)
            check(failures, greedy_profit >= 0.5 * exact_profit - 1e-9,
                  f"instance {idx} budget {budget}: greedy {greedy_profit:.6f} "
                  f"< half of exact {exact_profit:.6f}")
        if len(failures) >= 10:
            break

    # all-equal cost draws are rare among the 1000; a dedicated batch makes
    # the uniform-cost optimality leg carry real weight
    for idx, ctx in enumerate(_instances(200, seed=515151, uniform_costs=True)):
        pot = phi(select_pot(ctx), ctx.miss_penalty)
        opt = phi(select_exhaustive(ctx), ctx.miss_penalty)
        check(failures, math.isclose(pot, opt, rel_tol=1e-12, abs_tol=1e-9),
              f"uniform batch {idx}: potential {pot} != optimum {opt}")
    check(failures, uniform_seen >= 1, "no uniform-cost instance among the 1000")
    report(5, "approximation bounds hold on all 1000 instances", failures, started, budget=60.0)


def test_criterion_6_counting_bloom_filter():
    started = time.perf_counter()
    failures = []
    m = size_for_target_fpr(1000, 0.02, 5)
    check(failures, abs(m - 8181) <= 1, f"size_for_target_fpr gave {m}, want 8181 +- 1")

    rng = random.Random(606060)
    f = CountingBloomFilter(m, 5, seed=60)
    present = set()
    universe = list(range(3000))
    for _ in range(100_000):
        item = rng.choice(universe)
        op = rng.random()
        if op < 0.45 and item not in present and len(present) < 1000:
            f.insert(item)
            present.add(item)
        elif op < 0.7 and present:
            victim = rng.choice(sorted(present))
            f.remove(victim)
            present.discard(victim)
        elif item in present and not f.query(item):
            failures.append(f"false negative on {item}")
            break

    fresh = CountingBloomFilter(m, 5, seed=61)
    for i in range(1000):
        fresh.insert(i)
    probes = 100_000
    fp = sum(1 for i in range(1000, 1000 + probes) if fresh.query(i))
    rate = fp / probes
    check(failures, 0.01 <= rate <= 0.04,
          f"empirical false positive rate {rate:.4f} outside [0.01, 0.04]")
    report(6, "indicator sizing, no false negatives, empirical FPR", failures, started, budget=10.0)


def test_criterion_7_heterogeneous_simulation():
    started = time.perf_counter()
    failures = []
    policies = ("cpi", "epi", "pot", "umb", "pgm")
    trace = zipf_trace(100_000, 20_000, skew=1.0, seed=42)
    rows = run_grid(
        policies + ("pi",),
        betas=[100.0], ks=[1, 5], seeds=[7],
        trace=trace, store_capacity=1000, target_fpr=0.02, alpha=0.5,
    )
    cells = {}
    for m in rows:
        cells[(m.config.locations_per_item, m.config.strategy)] = m
    for k in (1, 5):
        by_ac = {name: cells[(k, name)].ac_norm for name in policies}
        cheapest = min(by_ac, key=by_ac.get)
        check(failures, cheapest == "cpi",
              f"k={k}: {cheapest} has the lowest normalized access cost "
              f"({by_ac[cheapest]:.4f}), expected cpi ({by_ac['cpi']:.4f})")
        by_tc = {name: cells[(k, name)].tc_norm for name in policies}
        best = min(by_tc.values())
        for name in ("umb", "pgm"):
            check(failures, by_tc[name] <= 1.10 * best,
                  f"k={k}: {name} TC_norm {by_tc[name]:.4f} more than 10% above "
                  f"the best policy ({best:.4f})")
    check(
        failures,
        cells[(5, "epi")].tc_norm > cells[(5, "cpi")].tc_norm,
        f"k=5: epi TC_norm {cells[(5, 'epi')].tc_norm:.4f} not above "
        f"cpi {cells[(5, 'cpi')].tc_norm:.4f}",
    )
    report(7, "19-node Zipf simulation reproduces the strategy ordering", failures, started, budget=300.0)


def test_criterion_8_byte_identical_csv(tmp_path):
    started = time.perf_counter()
    failures = []
    sim_args = [
        "simulate", "--strategy", "pgm", "--beta", "100", "--k", "2", "--seed", "5",
        "--synth-requests", "2000", "--synth-catalog", "1000", "--store-size", "200",
    ]
    a = tmp_path / "sim_a.csv"
    b = tmp_path / "sim_b.csv"
    assert main(sim_args + ["--out", os.fspath(a)]) == 0
    assert main(sim_args + ["--out", os.fspath(b)]) == 0
    check(failures, a.read_bytes() == b.read_bytes(), "repeated simulate CSVs differ")

    bench_args = [
        "bench", "--strategies", "cpi,umb,pi", "--betas", "100", "--ks", "1,2",
        "--seeds", "3", "--synth-requests", "1500", "--synth-catalog", "800",
        "--store-size", "100",
    ]
    c = tmp_path / "bench_a.csv"
    d = tmp_path / "bench_b.csv"
    assert main(bench_args + ["--out", os.fspath(c)]) == 0
    assert main(bench_args + ["--out", os.fspath(d)]) == 0
    check(failures, c.read_bytes() == d.read_bytes(), "repeated bench CSVs differ")
    check(failures, c.read_bytes() != a.read_bytes(), "bench and simulate outputs collide")
    report(8, "same-seed simulate and bench runs are byte-identical", failures, started)
