"""An LRU datastore with an attached membership indicator and an online
miss-ratio estimate.

The store holds at most ``capacity`` items; inserting beyond that evicts the
least recently used one. Its counting Bloom filter indicator tracks contents
exactly through inserts and evictions, so the filter answers yes for every
cached item. A store whose indicator is None keeps no filter: its callers
read its contents through ``holds``. The estimator watches the store's own
access outcomes and exposes a smoothed miss ratio that selection strategies
consume.
"""

from __future__ import annotations

from collections import OrderedDict

from .cbf import CountingBloomFilter, _count
from .core import InvariantError
from .workload import _integer


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
    ``estimate`` is a plain attribute that only ``record`` writes, so a
    reader pays an attribute load, not a call; callers do not assign it.
    """

    __slots__ = ("estimate", "_accesses", "_epoch_misses")

    def __init__(self):
        self.estimate = INITIAL_ESTIMATE
        self._accesses = 0
        self._epoch_misses = 0

    def record(self, miss: bool) -> None:
        """Count one access; through the first epoch, its misses are all."""
        self._accesses += 1
        if miss:
            self._epoch_misses += 1
        if self._accesses <= EPOCH_LEN:
            self.estimate = self._epoch_misses / self._accesses
        if self._accesses % EPOCH_LEN == 0:
            if self._accesses > EPOCH_LEN:
                epoch_ratio = self._epoch_misses / EPOCH_LEN
                self.estimate = WEIGHT * epoch_ratio + (1.0 - WEIGHT) * self.estimate
            self._epoch_misses = 0

    @property
    def accesses(self) -> int:
        return self._accesses


class Datastore:
    """LRU cache with indicator-consistent inserts, evictions and accesses.
    ``indicator`` is None for a store that keeps no filter."""

    __slots__ = ("id", "capacity", "indicator", "estimator", "_contents", "_counters")

    def __init__(self, store_id: int, capacity: int, indicator: CountingBloomFilter | None):
        self.id = store_id
        self.capacity = _integer("capacity", capacity, 1)
        self.indicator = indicator
        # The indicator's bank buffer, which its flat indexes address.
        self._counters = None if indicator is None else indicator.bank._buf
        self.estimator = RhoEstimator()
        # Resident item -> the counter indexes its insert bumped (None
        # without a filter), so an eviction un-counts it without hashing it
        # again.
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
        self.estimator.record(not hit)
        return hit

    def insert(self, item, indexes=None):
        """Add an item (most recently used position), evicting the least
        recently used one if full. Returns the evicted item or None.
        ``indexes``, when given, are the item's counter indexes in this
        store's filter (its column of the item's index block), so the item
        is not hashed again. They may be any iterable of ints that can be
        iterated again, such as a list or a strided ``memoryview`` slice:
        the store keeps them until the item's eviction counts them out. A
        store with no filter ignores them. The counters move by the
        filter's own rule, in one ``cbf._count`` pass that counts the
        evicted item's indexes out (``()`` when nothing is evicted) and the
        new item's in. Inserting an item already present is a caller bug
        (InvariantError)."""
        contents = self._contents
        if item in contents:
            raise InvariantError(f"item {item!r} already present in store {self.id}")
        counters = self._counters
        if counters is None:
            indexes = None
        elif indexes is None:
            # Hashed before any eviction, so a refused item changes nothing.
            indexes = self.indicator._indexes(item)
        evicted = None
        evicted_indexes = ()
        if len(contents) >= self.capacity:
            evicted, evicted_indexes = contents.popitem(last=False)
        if counters is not None:
            _count(counters, evicted_indexes, indexes)
        contents[item] = indexes
        return evicted
