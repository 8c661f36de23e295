"""An LRU datastore with an attached membership indicator and an online
miss-ratio estimate.

The store holds at most ``capacity`` items; inserting beyond that evicts the
least recently used one. Its counting Bloom filter indicator tracks contents
exactly through inserts and evictions, so the filter answers yes for every
cached item. The estimator watches the store's own access outcomes and
exposes a smoothed miss ratio that selection strategies consume.
"""

from __future__ import annotations

from collections import OrderedDict

from .cbf import CountingBloomFilter


# The estimator's rule: accesses per epoch, the weight of the newest epoch
# in the moving average, and the estimate before any access.
EPOCH_LEN = 100
WEIGHT = 0.1
INITIAL_ESTIMATE = 0.5


class RhoEstimator:
    """Epoch-based miss-ratio estimate.

    Through the first ``EPOCH_LEN`` accesses the estimate is the plain
    cumulative miss ratio. Afterwards it is frozen between epoch boundaries
    and refreshed once per epoch by an exponential moving average:

        estimate <- WEIGHT * (epoch misses / EPOCH_LEN) + (1 - WEIGHT) * estimate

    Before any access at all, ``estimate`` is ``INITIAL_ESTIMATE``.
    """

    __slots__ = ("_estimate", "_accesses", "_misses", "_epoch_misses")

    def __init__(self):
        self._estimate = INITIAL_ESTIMATE
        self._accesses = 0
        self._misses = 0
        self._epoch_misses = 0

    def record(self, miss: bool) -> None:
        self._accesses += 1
        if miss:
            self._misses += 1
            self._epoch_misses += 1
        if self._accesses <= EPOCH_LEN:
            self._estimate = self._misses / self._accesses
        if self._accesses % EPOCH_LEN == 0:
            if self._accesses > EPOCH_LEN:
                epoch_ratio = self._epoch_misses / EPOCH_LEN
                self._estimate = WEIGHT * epoch_ratio + (1.0 - WEIGHT) * self._estimate
            self._epoch_misses = 0

    @property
    def estimate(self) -> float:
        return self._estimate

    @property
    def accesses(self) -> int:
        return self._accesses


class Datastore:
    """LRU cache with indicator-consistent inserts, evictions and accesses."""

    __slots__ = ("id", "capacity", "indicator", "estimator", "_contents")

    def __init__(self, store_id: int, capacity: int, indicator: CountingBloomFilter):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.id = store_id
        self.capacity = capacity
        self.indicator = indicator
        self.estimator = RhoEstimator()
        # Resident item -> the counter indexes its insert bumped, so an
        # eviction un-counts it without hashing it again.
        self._contents: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._contents)

    def holds(self, item) -> bool:
        """Ground-truth lookup; no recency or estimator side effects."""
        return item in self._contents

    def access(self, item) -> bool:
        """One access from a client: refreshes recency on a hit, feeds the
        miss-ratio estimator either way, returns whether the item was here."""
        hit = item in self._contents
        if hit:
            self._contents.move_to_end(item)
        self.estimator.record(miss=not hit)
        return hit

    def insert(self, item):
        """Add an item (most recently used position), evicting the least
        recently used one if full. Returns the evicted item or None.
        Inserting an item already present is a caller bug."""
        if item in self._contents:
            raise ValueError(f"item {item!r} already present in store {self.id}")
        evicted = None
        if len(self._contents) >= self.capacity:
            evicted, indexes = self._contents.popitem(last=False)
            self.indicator.remove(evicted, indexes)
        self._contents[item] = self.indicator.insert(item)
        return evicted
