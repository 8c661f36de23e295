"""Byte-exact golden outputs: a small benchmark grid, one `dss simulate` CSV,
and counting-filter counters after seeded insert/remove sequences.

The files under tests/golden/ pin what the simulator and the filters
produce, so an optimisation can show that it changed no output. Regenerate
them from the current code with ``PYTHONPATH=src python tests/test_golden.py``;
a change that alters a golden file must say why.
"""

import random
import sys
from pathlib import Path

from dss.cbf import CountingBloomFilter
from dss.cli import main
from dss.sim import metrics_csv, run_grid
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

# Tiny filters repeat an index within one item (each repeat increments) and
# drive counters to the sticky 255; 328 is the size of a 40-item store.
FILTER_SIZES = (4, 7, 328)


def grid_csv() -> str:
    return metrics_csv(run_grid(trace=zipf_trace(**GRID_TRACE), **GRID))


def simulate_csv(out: Path) -> str:
    assert main([*SIMULATE_ARGS, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


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


def test_grid_csv_matches_golden():
    assert grid_csv() == (GOLDEN / "grid.csv").read_text(encoding="utf-8")


def test_simulate_csv_matches_golden(tmp_path):
    golden = (GOLDEN / "simulate.csv").read_text(encoding="utf-8")
    assert simulate_csv(tmp_path / "sim.csv") == golden


def test_filter_counters_match_golden():
    for m in FILTER_SIZES:
        assert filter_counters(m) == (GOLDEN / f"cbf_m{m}.bin").read_bytes(), m


def test_tiny_filters_reach_sticky_counters():
    for m in (4, 7):
        assert 255 in filter_counters(m)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "grid.csv").write_text(grid_csv(), encoding="utf-8")
    simulate_csv(GOLDEN / "simulate.csv")
    for size in FILTER_SIZES:
        (GOLDEN / f"cbf_m{size}.bin").write_bytes(filter_counters(size))
    sys.exit(0)
