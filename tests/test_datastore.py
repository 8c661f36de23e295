"""LRU store with indicator bookkeeping and the epoch miss-ratio estimator."""

import random
from collections import OrderedDict

import numpy as np
import pytest

from dss.cbf import CountingBloomFilter, FilterBank
from dss.core import InvariantError
from dss.datastore import Datastore, RhoEstimator


def make_store(capacity=4, seed=0):
    return Datastore(0, capacity, CountingBloomFilter(2048, 5, seed=seed))


def test_estimator_cumulative_before_first_epoch():
    est = RhoEstimator()
    assert est.estimate == 0.5  # uninformative prior before any access
    for miss in [True, False, False, True, False, False, False, True, False, False]:
        est.record(miss)
    assert est.estimate == pytest.approx(0.3)
    assert est.accesses == 10


def test_estimator_epoch_rollover():
    est = RhoEstimator()
    for i in range(100):
        est.record(miss=i < 30)
    assert est.estimate == pytest.approx(0.3)
    # next epoch carries 10 misses: 0.1*(10/100) + 0.9*0.3
    for i in range(100):
        est.record(miss=i < 10)
    assert est.estimate == pytest.approx(0.28)


def test_estimator_mid_epoch_estimate_is_frozen():
    est = RhoEstimator()
    for i in range(100):
        est.record(miss=i < 30)
    for _ in range(50):
        est.record(miss=True)
    assert est.estimate == pytest.approx(0.3)  # refresh waits for the boundary


def test_estimator_fixed_points():
    clean = RhoEstimator()
    for _ in range(200):
        clean.record(miss=False)
    assert clean.estimate == 0.0
    dirty = RhoEstimator()
    for _ in range(200):
        dirty.record(miss=True)
    assert dirty.estimate == 1.0


def test_estimator_converges_to_bernoulli_rate():
    for p, seed in [(0.1, 51), (0.3, 52), (0.7, 53)]:
        rng = random.Random(seed)
        est = RhoEstimator()
        for _ in range(50 * 100):
            est.record(miss=rng.random() < p)
        assert abs(est.estimate - p) <= 0.05


def test_access_hit_and_miss():
    store = make_store()
    store.insert("a")
    assert store.access("a") is True
    assert store.access("zzz") is False
    assert store.estimator.accesses == 2
    assert store.estimator.estimate == pytest.approx(0.5)


def test_insert_within_capacity_no_eviction():
    store = make_store(capacity=3)
    assert store.insert("a") is None
    assert store.insert("b") is None
    assert len(store) == 2


def test_insert_duplicate_rejected():
    store = make_store()
    store.insert("a")
    with pytest.raises(InvariantError, match="already present"):
        store.insert("a")


def test_refused_item_changes_nothing():
    # The new item is hashed before anything is evicted, so an item the
    # filter refuses leaves the full store's contents and counters alone.
    store = make_store(capacity=1)
    store.insert("a")
    counters = bytes(store.indicator.counters)
    with pytest.raises(ValueError, match="an item must be an int, str or bytes"):
        store.insert(5.0)
    assert store.holds("a") and len(store) == 1
    assert bytes(store.indicator.counters) == counters


def test_lru_eviction_order():
    store = make_store(capacity=2)
    store.insert("a")
    store.insert("b")
    store.access("a")  # refreshes recency, so b is now the oldest
    evicted = store.insert("c")
    assert evicted == "b"
    assert store.holds("a") and store.holds("c") and not store.holds("b")
    assert not store.indicator.query("b")
    assert store.indicator.query("a")


def test_eviction_uncounts_without_hashing_again(monkeypatch):
    seen = []
    real = FilterBank.block

    def lookup(bank, item):
        seen.append(item)
        return real(bank, item)

    monkeypatch.setattr(FilterBank, "block", lookup)
    store = Datastore(0, 1, FilterBank((3,), 64, 4).filter(0))
    store.insert("a")
    assert store.insert("b") == "a"
    assert seen == ["a", "b"]  # the eviction of "a" used the indexes kept at insert
    only_b = CountingBloomFilter(64, 4, seed=3)
    only_b.insert("b")
    assert bytes(store.indicator.counters) == bytes(only_b.counters)


def test_evicting_insert_counts_the_new_item_under_its_own_indexes(monkeypatch):
    # Given indexes replace the lookup; the evicted item leaves under the
    # indexes kept at its own insert.
    def no_lookup(bank, item):
        raise AssertionError(f"looked {item!r} up")

    monkeypatch.setattr(FilterBank, "block", no_lookup)
    store = Datastore(0, 1, FilterBank((3,), 64, 4).filter(0))
    assert store.insert("a", [1, 2, 3, 4]) is None
    assert store.insert("b", [5, 6, 7, 9]) == "a"
    counters = bytes(store.indicator.counters)
    assert [i for i, value in enumerate(counters) if value] == [5, 6, 7, 9]
    assert all(counters[i] == 1 for i in (5, 6, 7, 9))


@pytest.mark.parametrize("with_filter", [True, False])
def test_matches_reference_lru_on_random_trace(with_filter):
    rng = random.Random(54)
    store = make_store(capacity=50, seed=6) if with_filter else Datastore(0, 50, None)
    reference: OrderedDict = OrderedDict()
    universe = [f"i{n}" for n in range(300)]
    for _ in range(10_000):
        item = rng.choice(universe)
        if rng.random() < 0.5:
            hit = store.access(item)
            assert hit == (item in reference)
            if hit:
                reference.move_to_end(item)
        elif not store.holds(item):
            evicted = store.insert(item)
            expected_eviction = None
            if len(reference) >= 50:
                expected_eviction, _ = reference.popitem(last=False)
            reference[item] = None
            assert evicted == expected_eviction
    assert set(reference) == {item for item in universe if store.holds(item)}
    if with_filter:
        for item in reference:
            assert store.indicator.query(item)  # contents always indicate positive


def test_capacity_validation():
    with pytest.raises(ValueError):
        Datastore(0, 0, CountingBloomFilter(64))
    # A fractional capacity would hold its ceiling's worth of items, and
    # True is an int subclass, not a capacity; a numpy integer is one.
    with pytest.raises(ValueError, match=r"^capacity must be >= 1, got 0$"):
        Datastore(0, 0, None)
    for bad in (2.5, True, "3", None):
        with pytest.raises(ValueError, match=r"^capacity must be an integer, got "):
            Datastore(0, bad, None)
    store = Datastore(0, np.int64(2), None)
    assert type(store.capacity) is int
    for item in range(3):
        store.insert(item)
    assert len(store) == 2
