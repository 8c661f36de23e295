"""Counting Bloom filter: sizing, membership semantics, false-positive rate."""

import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dss.cbf import (
    CountingBloomFilter,
    FilterBank,
    _item_bytes,
    expected_fpr,
    size_for_target_fpr,
)
from dss.core import InvariantError


def test_size_for_reference_configuration():
    assert size_for_target_fpr(1000, 0.02, 5) == 8181


def test_size_is_minimal():
    m = size_for_target_fpr(1000, 0.02, 5)
    assert expected_fpr(1000, m, 5) <= 0.02
    assert expected_fpr(1000, m - 1, 5) > 0.02


def test_size_tiny_filter():
    # 1 - exp(-1/m) <= 0.5 first holds at m = 2
    assert size_for_target_fpr(1, 0.5, 1) == 2


def test_size_scales_linearly_in_capacity():
    rng = random.Random(41)
    for _ in range(20):
        s = rng.randint(100, 5000)
        fpr = rng.uniform(0.005, 0.2)
        h = rng.randint(2, 8)
        m1 = size_for_target_fpr(s, fpr, h)
        m2 = size_for_target_fpr(2 * s, fpr, h)
        assert abs(m2 - 2 * m1) <= 0.01 * m2 + 1


def test_size_argument_validation():
    with pytest.raises(ValueError):
        size_for_target_fpr(0, 0.02, 5)
    with pytest.raises(ValueError):
        size_for_target_fpr(10, 0.0, 5)
    with pytest.raises(ValueError):
        size_for_target_fpr(10, 1.0, 5)
    with pytest.raises(ValueError):
        size_for_target_fpr(10, 0.02, 0)


def test_insert_then_query():
    f = CountingBloomFilter(128, 3, seed=1)
    assert not f.query("x")
    f.insert("x")
    assert f.query("x")
    assert "x" in f


def test_remove_clears_unshared_counters():
    f = CountingBloomFilter(1024, 3, seed=2)
    f.insert("only")
    f.remove("only")
    assert not f.query("only")
    assert sum(f.counters) == 0


def test_no_false_negatives_under_random_interleaving():
    # 10^5 mixed ops against a reference set: present items always answer yes
    rng = random.Random(43)
    f = CountingBloomFilter(4096, 5, seed=3)
    present = set()
    universe = [f"item{i}" for i in range(2000)]
    for _ in range(100_000):
        item = rng.choice(universe)
        op = rng.random()
        if op < 0.45 and item not in present:
            f.insert(item)
            present.add(item)
        elif op < 0.75 and present:
            victim = rng.choice(sorted(present))
            f.remove(victim)
            present.discard(victim)
        else:
            if item in present:
                assert f.query(item)
    for item in present:
        assert f.query(item)


def test_counters_never_negative_and_saturate_sticky():
    f = CountingBloomFilter(4, 1, seed=4)
    for _ in range(300):
        f.insert("hot")
    assert max(f.counters) == 255
    assert f.sticky
    # sticky counters survive removals: the item still queries positive
    for _ in range(300):
        f.remove("hot")
    assert f.query("hot")
    assert min(f.counters) >= 0


def test_same_seed_same_state():
    ops = [("insert", i) for i in range(200)] + [("remove", i) for i in range(0, 200, 2)]
    random.Random(44).shuffle(ops)
    # removals must follow their inserts; replay in a valid order
    state = {}
    valid = []
    for op, item in ops:
        if op == "insert" and not state.get(item):
            state[item] = True
            valid.append((op, item))
        elif op == "remove" and state.get(item):
            state[item] = False
            valid.append((op, item))
    a = CountingBloomFilter(512, 5, seed=99)
    b = CountingBloomFilter(512, 5, seed=99)
    for op, item in valid:
        getattr(a, op)(item)
        getattr(b, op)(item)
    assert bytes(a.counters) == bytes(b.counters)
    c = CountingBloomFilter(512, 5, seed=100)
    for op, item in valid:
        getattr(c, op)(item)
    assert bytes(c.counters) != bytes(a.counters)


def test_empirical_fpr_near_target():
    m = size_for_target_fpr(1000, 0.02, 5)
    f = CountingBloomFilter(m, 5, seed=5)
    for i in range(1000):
        f.insert(i)
    probes = 100_000
    false_positives = sum(1 for i in range(1000, 1000 + probes) if f.query(i))
    rate = false_positives / probes
    assert 0.01 <= rate <= 0.04


def test_remove_without_insert_raises_invariant_error():
    f = CountingBloomFilter(64, 3, seed=6)
    with pytest.raises(InvariantError):
        f.remove("never-inserted")
    assert not issubclass(InvariantError, ValueError)  # the CLI maps ValueError to exit 2


def test_remove_accepts_the_indexes_insert_returned():
    f = CountingBloomFilter(64, 3, seed=6)
    indexes = f.insert("x")
    assert len(indexes) == 3 and f.query("x")
    f.remove("x", indexes)
    assert not any(f.counters)
    with pytest.raises(InvariantError):
        f.remove("x", indexes)


def test_underflow_check_survives_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from dss.cbf import CountingBloomFilter\n"
        "from dss.core import InvariantError\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    CountingBloomFilter(64, 3, seed=6).remove('never-inserted')\n"
        "except InvariantError:\n"
        "    raise SystemExit(7)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 7, done.stderr


@pytest.mark.parametrize("num_hashes", [1, 4])
@pytest.mark.parametrize("num_counters", [1, 2, 4, 97])
def test_bank_rows_behave_like_standalone_filters(num_counters, num_hashes):
    # At the small sizes an item's indexes repeat within a filter, and the
    # bank's gather must still read each filter's own column of the block.
    seeds = (11, 12, 13)
    bank = FilterBank(seeds, num_counters, num_hashes)
    alone = [CountingBloomFilter(num_counters, num_hashes, seed=s) for s in seeds]
    rows = [bank.filter(j) for j in range(len(seeds))]
    rng = random.Random(45)
    for _ in range(300):
        j = rng.randrange(len(seeds))
        item = rng.randrange(60)
        rows[j].insert(item)
        alone[j].insert(item)
    for j, f in enumerate(alone):
        assert bytes(rows[j].counters) == bytes(f.counters)
        assert bytes(bank.counters[j]) == bytes(f.counters)
        assert rows[j].seed == f.seed
    for item in range(100):
        expected = [j for j, f in enumerate(alone) if f.query(item)]
        assert bank.positives(bank.block(item)) == expected
    with pytest.raises(IndexError):
        bank.filter(3)


def test_numbers_that_compare_equal_hash_alike():
    # A number of integral value is the int it equals; any other number is
    # the str of the float it equals, else its exact ratio, and off the real
    # axis its complex str; nan hashes as its str and a str as its text. Any
    # other item is refused, as a test in test_sim.py checks.
    for same in (5.0, np.float64(5.0), np.float32(5.0), Fraction(10, 2), np.int8(5),
                 Decimal(5), Decimal("5.000"), 5 + 0j, np.complex128(5), np.complex64(5)):
        assert _item_bytes(same) == _item_bytes(5), repr(same)
    assert _item_bytes(float(2**200)) == _item_bytes(2**200)
    assert _item_bytes(Decimal(2**130)) == _item_bytes(2**130)
    assert _item_bytes(complex(-(2.0**130), 0.0)) == _item_bytes(-(2**130))
    for a, b in ((5.5, Fraction(11, 2)), (Decimal("0.1"), Fraction(1, 10)),
                 (np.float32(0.1), float(np.float32(0.1))), (Decimal("Infinity"), math.inf),
                 (5.5 + 0j, Decimal("5.5")), (Fraction(1, 3), Fraction(-2, -6)),
                 (np.longdouble(2.5), 2.5), (5 + 1j, np.complex64(5 + 1j))):
        assert a == b and hash(a) == hash(b)
        assert _item_bytes(a) == _item_bytes(b), (a, b)
    for other, text in ((2.5, "2.5"), (Fraction(7, 2), "3.5"), (float("inf"), "inf"),
                        (float("nan"), "nan"), ("5", "5"), (Decimal("5.5"), "5.5"),
                        (Decimal("NaN"), "NaN"), (Decimal("-Infinity"), "-inf"),
                        (5 + 1j, "(5+1j)"), (complex(float("inf"), 0), "inf"),
                        (Fraction(1, 3), "1/3"), (Decimal("0.1"), "1/10"),
                        (np.float32(0.1), "0.10000000149011612")):
        assert _item_bytes(other) == text.encode("utf-8"), repr(other)
    f = CountingBloomFilter(64, 3, seed=1)
    f.insert(5)
    f.remove(5.0)
    assert not any(f.counters)


def test_every_integer_hashes_and_in_range_ones_keep_their_bytes():
    for n in (0, -1, 5, 2**127 - 1, -(2**127)):
        assert _item_bytes(n) == n.to_bytes(16, "little", signed=True)
    big = (2**127, -(2**127) - 1, 2**128, -(2**128), 2**130, 10**100)
    encodings = {_item_bytes(n) for n in big}
    assert len(encodings) == len(big)
    assert all(len(b) > 16 for b in encodings)
    f = CountingBloomFilter(97, 5, seed=3)
    f.insert(2**130)
    assert 2**130 in f
