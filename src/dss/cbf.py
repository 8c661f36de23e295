"""Counting Bloom filters with saturating 8-bit counters.

The membership indicator each datastore exposes: insertions bump
``num_hashes`` counters, removals decrement them, and a query answers yes
iff all of them are positive. Present items are never denied (no false
negatives); absent items may be confirmed with the usual Bloom false
positive rate. A counter that climbs to 255 turns sticky and is never
changed again, trading a little extra false-positive mass for overflow
safety. Only saturation reaches 255, so the value itself is the sticky mark.
That rule is written once, in ``_count``, which moves the counters of an
item out and of another in over one buffer: a filter's insert and remove
each use one side of it, and a ``Datastore`` eviction both at once.

Hashing is double hashing: a single keyed 128-bit digest per item supplies
two 64-bit halves h1, h2 and index i is (h1 + i*h2) mod m. The digest is
keyed by the filter seed (blake2b), so placements are reproducible across
processes regardless of interpreter hash randomization.

A ``FilterBank`` holds equally sized filters as the rows of one counter
buffer, so "which filters indicate x?" is one gather over the item's index
block (its counter indexes in every row) and one reduce over the block's
hash rows. A ``CountingBloomFilter`` is one row of a bank, whose indexes are
one column of the block; standing alone it is the single row of a bank of
its own.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
from typing import Sequence

import numpy as np

from .core import InvariantError

_MASK64 = (1 << 64) - 1


def _item_bytes(item) -> bytes:
    """An item's hash input: an int (a numpy integer too, as the int it
    equals) in 16 signed little-endian bytes, or in as many more as an int
    outside that range needs; a str in UTF-8; bytes as they are.

    Any other item is a ValueError: equal items must hash alike and every
    process must place an item alike, and a str does neither for a float
    (5.0 equals 5) or a frozenset (its order follows the str hash seed).
    Pass such a value as int(x) or str(x)."""
    if isinstance(item, int):
        value = item
    elif isinstance(item, str):
        return item.encode("utf-8")
    elif isinstance(item, bytes):
        return item
    elif isinstance(item, numbers.Integral):
        value = int(item)
    else:
        raise ValueError(f"an item must be an int, str or bytes, got {type(item)}")
    try:
        return value.to_bytes(16, "little", signed=True)
    except OverflowError:
        return value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)


def size_for_target_fpr(capacity: int, target_fpr: float, num_hashes: int = 5) -> int:
    """Smallest counter count m with (1 - exp(-num_hashes*capacity/m))**num_hashes
    at or below the target false positive rate."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if not (0.0 < target_fpr < 1.0):
        raise ValueError(f"target_fpr must lie in (0, 1), got {target_fpr}")
    if num_hashes < 1:
        raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")

    def ok(m: int) -> bool:
        return expected_fpr(capacity, m, num_hashes) <= target_fpr

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2 + 1 if hi > 1 else 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def expected_fpr(capacity: int, num_counters: int, num_hashes: int) -> float:
    """Nominal false positive rate at the given fill level."""
    return (1.0 - math.exp(-num_hashes * capacity / num_counters)) ** num_hashes


def index_block(
    item, seeds: Sequence[int], num_counters: int, num_hashes: int
) -> np.ndarray:
    """An item's counter indexes in filters laid end to end in one buffer,
    one filter of ``num_counters`` counters per seed, as an int64 array of
    shape ``(num_hashes, len(seeds))``: hash-major, so row i holds hash i's
    flat index in every filter and column j holds filter j's indexes."""
    return index_blocks((item,), seeds, num_counters, num_hashes)[0]


def index_blocks(
    items: Sequence, seeds: Sequence[int], num_counters: int, num_hashes: int
) -> np.ndarray:
    """Each item's ``index_block``, as an int64 array of shape
    ``(len(items), num_hashes, len(seeds))``: one keyed digest per item and
    seed, then one pass of array arithmetic over the whole batch.

    h1 and h2 are reduced mod m before the arithmetic, which keeps
    (h1 + i*h2) mod m exact in 64 bits.
    """
    hashers, steps, offsets = _block_plan(tuple(seeds), num_counters, num_hashes)
    digests = []
    for item in items:
        payload = _item_bytes(item)
        for keyed in hashers:
            h = keyed.copy()
            h.update(payload)
            digests.append(h.digest())
    m = np.uint64(num_counters)
    # h1 and h2 per item and filter, with a unit axis for the hash steps; the
    # odd stride keeps double hashing from collapsing to one index.
    halves = np.frombuffer(b"".join(digests), dtype="<u8").reshape(len(items), 1, len(hashers), 2)
    halves = np.bitwise_or(halves, _ODD_H2)
    np.remainder(halves, m, out=halves)
    blocks = steps * halves[..., 1]
    blocks += halves[..., 0]
    np.remainder(blocks, m, out=blocks)
    blocks += offsets
    return blocks.view(np.int64)


# ORed into an item's (h1, h2) digest halves: sets h2's low bit only.
_ODD_H2 = np.array([0, 1], dtype=np.uint64)


@functools.lru_cache(maxsize=16)
def _block_plan(seeds: tuple, num_counters: int, num_hashes: int) -> tuple:
    """What ``index_blocks`` needs besides the items, for one filter layout:
    a blake2b hasher keyed by each filter's seed and fed nothing yet (an
    item's digest is a copy of it fed the item), the hash steps
    0..num_hashes-1 as a column, and each filter's first flat index as a
    row. The arrays are read-only."""
    hashers = tuple(
        hashlib.blake2b(digest_size=16, key=(seed & _MASK64).to_bytes(8, "little"))
        for seed in seeds
    )
    steps = np.arange(num_hashes, dtype=np.uint64)[:, None]
    offsets = np.arange(len(seeds), dtype=np.uint64) * np.uint64(num_counters)
    steps.flags.writeable = False
    offsets.flags.writeable = False
    return hashers, steps, offsets


class FilterBank:
    """Counting Bloom filters of equal size, one per seed, as the rows of one
    uint8 counter buffer.

    ``block(item)`` hashes the item to its index block (see
    ``index_block``): one row per hash, one column per filter. Each row's
    ``CountingBloomFilter`` view updates and queries its own counters
    through its column of the block.
    """

    __slots__ = ("seeds", "num_counters", "num_hashes", "_buf", "_flat")

    def __init__(self, seeds: Sequence[int], num_counters: int, num_hashes: int = 5):
        if not seeds:
            raise ValueError("a filter bank needs at least one seed")
        if num_counters < 1:
            raise ValueError(f"num_counters must be >= 1, got {num_counters}")
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        self.seeds = tuple(s & _MASK64 for s in seeds)
        self.num_counters = num_counters
        self.num_hashes = num_hashes
        # Python-level updates go through the bytearray, gathers through the
        # numpy view of the same memory.
        self._buf = bytearray(len(self.seeds) * num_counters)
        self._flat = np.frombuffer(self._buf, dtype=np.uint8)

    def block(self, item) -> np.ndarray:
        """The item's index block in this bank."""
        return index_block(item, self.seeds, self.num_counters, self.num_hashes)

    @property
    def counters(self) -> np.ndarray:
        """The counters, one row per filter (a view, not a copy)."""
        return self._flat.reshape(len(self.seeds), self.num_counters)

    def filter(self, row: int) -> CountingBloomFilter:
        """The bank's row-th filter, a view that shares the counters."""
        if not 0 <= row < len(self.seeds):
            raise IndexError(f"filter row {row} outside 0..{len(self.seeds) - 1}")
        view = CountingBloomFilter.__new__(CountingBloomFilter)
        view._attach(self, row)
        return view

    def positives(self, block: np.ndarray) -> list[int]:
        """Rows whose counters under the item's index block are all positive."""
        return np.minimum.reduce(self._flat.take(block)).nonzero()[0].tolist()


def _count(counters: bytearray, out, into) -> None:
    """Count the item at indexes ``out`` out of the counters, then the item
    at ``into`` in: one pass for an eviction and its insert, with ``()``
    for a side that has no item. Counting in bumps a counter by one and
    leaves one at 255 (sticky); counting out undoes that, leaves a sticky
    counter too, and finds a counter already at zero (the sign of a removal
    with no insert) an InvariantError."""
    for idx in out:
        value = counters[idx]
        if value == 255:
            continue
        if value == 0:
            raise InvariantError("counter underflow: remove without insert")
        counters[idx] = value - 1
    for idx in into:
        value = counters[idx]
        if value != 255:
            counters[idx] = value + 1


class CountingBloomFilter:
    """Seeded counting Bloom filter over opaque item ids: one row of a
    ``FilterBank``."""

    __slots__ = ("bank", "row")

    def __init__(self, num_counters: int, num_hashes: int = 5, seed: int = 0):
        self._attach(FilterBank((seed,), num_counters, num_hashes), 0)

    def _attach(self, bank: FilterBank, row: int) -> None:
        self.bank = bank
        self.row = row

    @property
    def seed(self) -> int:
        return self.bank.seeds[self.row]

    @property
    def counters(self) -> memoryview:
        m = self.bank.num_counters
        return memoryview(self.bank._buf)[self.row * m:(self.row + 1) * m]

    @property
    def sticky(self) -> frozenset[int]:
        """Indexes of the counters that saturated at 255."""
        return frozenset(i for i, value in enumerate(self.counters) if value == 255)

    def _indexes(self, item) -> list[int]:
        return self.bank.block(item)[:, self.row].tolist()

    def insert(self, item, indexes: Sequence[int] | None = None) -> Sequence[int]:
        """Count the item in; returns its counter indexes, which ``remove``
        accepts in place of hashing the item again. ``indexes``, when given,
        are the item's counter indexes in this filter (its column of the
        item's index block)."""
        if indexes is None:
            indexes = self._indexes(item)
        _count(self.bank._buf, (), indexes)
        return indexes

    def remove(self, item, indexes: Sequence[int] | None = None) -> None:
        """Undo one prior insert of this item; raises InvariantError on the
        cheap-to-detect sign of removing an item never inserted, a counter
        already at zero. ``indexes`` are what that insert returned."""
        if indexes is None:
            indexes = self._indexes(item)
        _count(self.bank._buf, indexes, ())

    def query(self, item) -> bool:
        buf = self.bank._buf
        for idx in self._indexes(item):
            if buf[idx] == 0:
                return False
        return True

    def __contains__(self, item) -> bool:
        return self.query(item)
