"""Byte-exact golden outputs: a small benchmark grid, one `dss simulate` CSV,
`dss simulate` for every strategy, `dss analyze` with its defaults,
`dss select` on a set of contexts, counting-filter counters after seeded
insert/remove sequences, and the bundled topology's access-cost matrices.

The files under tests/golden/ pin what the simulator and the filters
produce, so an optimisation can show that it changed no output. Regenerate
them from the current code with ``PYTHONPATH=src python tests/test_golden.py``;
a change that alters a golden file must say why.
"""

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

from dss.cbf import CountingBloomFilter
from dss.cli import main
from dss.sim import GROUND_TRUTH_STRATEGY, metrics_csv, run_grid
from dss.strategies import STRATEGIES
from dss.topology import cost_matrix, default_topology
from dss.workload import zipf_trace

GOLDEN = Path(__file__).parent / "golden"

# Every store evicts in every cell of this grid (at least 8 evictions per
# store at k=1), so filter removals and sticky-free decrements are covered.
GRID = dict(
    strategies=["cpi", "epi", "pot", "pp", "umb", "pgm", "pi"],
    betas=[2.5, 100.0],
    ks=[1, 2, 5],
    seeds=[1, 2],
    store_capacity=8,
)
GRID_TRACE = dict(num_requests=800, catalog_size=2000, skew=0.8, seed=11)

SIMULATE_ARGS = [
    "simulate", "--strategy", "pgm", "--k", "2", "--beta", "50", "--seed", "5",
    "--store-size", "15", "--synth-requests", "1500", "--synth-catalog", "3000",
    "--synth-skew", "0.9",
]

# `dss simulate` for every name resolve_strategy accepts, at each k.
EVERY_STRATEGY = [*STRATEGIES, GROUND_TRUTH_STRATEGY]
EVERY_STRATEGY_KS = (1, 2)
EVERY_STRATEGY_ARGS = ["--store-size", "15", "--synth-requests", "2000"]

# Every beta is crossed with every candidate count; 1.5 is below pgm's
# domain. Costs are integers up to about beta/4, so pp sweeps many budgets
# and pgm fills several bands.
SELECT_BETAS = (1.5, 2.5, 100.0, 1000.0)
SELECT_SIZES = (0, 1, 5, 12, 19)

# Tiny filters repeat an index within one item (each repeat increments) and
# drive counters to the sticky 255; 328 is the size of a 40-item store.
FILTER_SIZES = (4, 7, 328)

# (alpha, big_t) for the bundled topology's cost matrices; None is the
# default bandwidth scale, the largest effective bandwidth.
COST_MATRIX_CASES = ((0.0, None), (0.5, None), (1.0, None), (0.5, 1000.0))


def grid_csv() -> str:
    return metrics_csv(run_grid(trace=zipf_trace(**GRID_TRACE), **GRID))


def simulate_csv(out: Path) -> str:
    assert main([*SIMULATE_ARGS, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def every_strategy_text() -> str:
    """`dss simulate` output per strategy and k, each under a `# name k=k` line."""
    out = []
    for name in EVERY_STRATEGY:
        for k in EVERY_STRATEGY_KS:
            out.append(f"# {name} k={k}\n")
            out.append(_cli_stdout(
                ["simulate", "--strategy", name, "--k", str(k), *EVERY_STRATEGY_ARGS]))
    return "".join(out)


def analyze_csv() -> str:
    return _cli_stdout(["analyze"])


def select_contexts() -> list[tuple[str, float, list[tuple]]]:
    """(name, beta, [(id, cost, rho), ...]) for the `dss select` golden file."""
    rng = random.Random(23)
    out = []
    for beta in SELECT_BETAS:
        max_cost = max(2, int(beta // 4))
        for n in SELECT_SIZES:
            ids = sorted(rng.sample(range(40), n))
            stores = [(j, rng.randint(1, max_cost), rng.uniform(0.01, 0.99)) for j in ids]
            out.append((f"beta={beta:g} n={n}", beta, stores))
    out.append(("duplicate costs", 100.0, [
        (j, cost, rng.uniform(0.05, 0.95)) for j, cost in enumerate((3, 7, 3, 12, 7, 3, 12, 1, 7))
    ]))
    out.append(("duplicate costs and rhos", 40.0, [(j, 4, 0.5) for j in range(6)]))
    # 0 and 1e-15 both clamp to the same knapsack weight, and 1 - 1e-12 is
    # the clamp's upper end, RHO_MAX.
    out.append(("rho near 0 and 1", 100.0, [
        (1, 5, 0.0), (2, 4, 1e-15), (3, 9, 1e-9), (4, 2, 0.999), (5, 1, 1 - 1e-12),
        (6, 3, 0.9999999),
    ]))
    out.append(("costs beyond the top band", 100.0, [
        (1, 150, 0.01), (2, 127, 0.02), (3, 128, 0.01), (4, 64, 0.3), (5, 1, 0.9),
    ]))
    out.append(("fractional costs", 100.0, [
        (1, 1.5, 0.5), (2, 2.25, 0.4), (3, 7, 0.2), (4, 3.75, 0.35), (5, 12.5, 0.05),
    ]))
    return out


def _write_context(path: Path, beta: float, stores: list[tuple]) -> None:
    lines = [f"beta: {beta!r}", "stores: []" if not stores else "stores:"]
    lines += [f"  - {{id: {j}, cost: {c!r}, rho: {r!r}}}" for j, c, r in stores]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def select_text(tmp: Path) -> str:
    """`dss select` output per context, each under a `# name` line."""
    out = io.StringIO()
    for name, beta, stores in select_contexts():
        path = tmp / "context.yaml"
        _write_context(path, beta, stores)
        out.write(f"# {name}\n")
        with contextlib.redirect_stdout(out):
            assert main(["select", "--context", str(path)]) == 0
    return out.getvalue()


def filter_counters(m: int) -> bytes:
    """Counters after a seeded mix of inserts and removals of present items
    (int, str and bytes tokens, repeats allowed). Inserts lead in the first
    half and removals in the second, so at m=7 some counters turn sticky
    while others drain back down."""
    rng = random.Random(m)
    universe = [*range(-20, 20), *(f"s{i}" for i in range(40)), *(b"b%d" % i for i in range(20))]
    f = CountingBloomFilter(m, 5, seed=1000 + m)
    present = []
    for step in range(2000):
        if present and rng.random() < (0.3 if step < 1000 else 0.6):
            f.remove(present.pop(rng.randrange(len(present))))
        else:
            item = rng.choice(universe)
            f.insert(item)
            present.append(item)
    return bytes(f.counters)


def cost_matrix_text() -> str:
    """Each case's matrix, one row per line, under an `# alpha=… big_t=…` line."""
    topo = default_topology()
    out = []
    for alpha, big_t in COST_MATRIX_CASES:
        out.append(f"# alpha={alpha:g} big_t={big_t}\n")
        out += [" ".join(map(str, row)) + "\n" for row in cost_matrix(topo, alpha, big_t).tolist()]
    return "".join(out)


def test_grid_csv_matches_golden():
    assert grid_csv() == (GOLDEN / "grid.csv").read_text(encoding="utf-8")


def test_simulate_csv_matches_golden(tmp_path):
    golden = (GOLDEN / "simulate.csv").read_text(encoding="utf-8")
    assert simulate_csv(tmp_path / "sim.csv") == golden


def test_every_strategy_simulate_matches_golden():
    golden = (GOLDEN / "simulate_every_strategy.txt").read_text(encoding="utf-8")
    assert every_strategy_text() == golden


def test_analyze_csv_matches_golden():
    assert analyze_csv() == (GOLDEN / "analyze.csv").read_text(encoding="utf-8")


def test_select_matches_golden(tmp_path):
    assert select_text(tmp_path) == (GOLDEN / "select.txt").read_text(encoding="utf-8")


def test_select_golden_covers_unavailable_strategies():
    text = (GOLDEN / "select.txt").read_text(encoding="utf-8")
    assert "pp unavailable" in text
    assert "pgm unavailable" in text


def test_filter_counters_match_golden():
    for m in FILTER_SIZES:
        assert filter_counters(m) == (GOLDEN / f"cbf_m{m}.bin").read_bytes(), m


def test_cost_matrix_matches_golden():
    assert cost_matrix_text() == (GOLDEN / "cost_matrix.txt").read_text(encoding="utf-8")


def test_tiny_filters_reach_sticky_counters():
    for m in (4, 7):
        assert 255 in filter_counters(m)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "grid.csv").write_text(grid_csv(), encoding="utf-8")
    simulate_csv(GOLDEN / "simulate.csv")
    (GOLDEN / "simulate_every_strategy.txt").write_text(every_strategy_text(), encoding="utf-8")
    (GOLDEN / "analyze.csv").write_text(analyze_csv(), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "select.txt").write_text(select_text(Path(tmp)), encoding="utf-8")
    for size in FILTER_SIZES:
        (GOLDEN / f"cbf_m{size}.bin").write_bytes(filter_counters(size))
    (GOLDEN / "cost_matrix.txt").write_text(cost_matrix_text(), encoding="utf-8")
    sys.exit(0)
