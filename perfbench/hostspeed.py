"""Host-speed calibration of the benchmark's timings.

On a shared host the same work runs up to about twice as fast at some
moments as at others, in phases of a fraction of a second to minutes, and
no clock a process can read shows it: CPU time tracks wall time. So a fixed
pure-Python kernel that never calls dss is timed at marks between short
segments of each round (~0.1 s of simulated requests or of selection
calls) and around each set-up. The time of a segment, and of every request in it, is scaled by
the kernel's speed at the marks on either side to the time it would take
on a host where the kernel takes REFERENCE_NS. On a 2-vCPU Xeon virtual
machine, over eight minutes of alternating kernel runs and ~0.1-s units of
simulated and selection work, the 5-s medians of the kernel and of the work
moved together (correlation 0.98); scaling each unit by the kernel run next
to it cut the spread of those medians from 0.30 to 0.03-0.04 of their
median.

dss is idle while the kernel runs, so a dss change reaches the kernel only
through work it leaves running in the background; the benchmark starts
none, and the kernel's own time is reported with the results.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

REFERENCE_NS = 2_000_000
KERNEL_STEPS = 1500
KERNEL_REPS = 2  # a mark keeps the fastest of these, to skip interrupts

_PAYLOAD = b"perfbench-reference"


def _kernel() -> int:
    """Hashing, dict updates and float and int arithmetic, the mix dss's
    hot paths run, with no allocation the garbage collector tracks."""
    blake = hashlib.blake2b
    table = dict.fromkeys(range(64), 0)
    acc = 0
    x = 0.5
    for i in range(KERNEL_STEPS):
        h = int.from_bytes(blake(_PAYLOAD + i.to_bytes(4, "little"), digest_size=8).digest(),
                           "little")
        j = h & 63
        table[j] = table[j] + 1
        acc ^= h >> 7
        x = x * 0.999 + (h & 1023) * 1e-3
    return acc + int(x)


class HostSpeed:
    """Marks in one round, and the scaling of the segments between them."""

    def __init__(self):
        self.starts: list[int] = []  # clock when each mark began
        self.ends: list[int] = []  # clock when it ended
        self.kernel_ns: list[int] = []  # the kernel's time at each mark

    def mark(self) -> None:
        clock = time.perf_counter_ns
        start = clock()
        best = None
        for _ in range(KERNEL_REPS):
            t = clock()
            _kernel()
            t = clock() - t
            best = t if best is None else min(best, t)
        self.starts.append(start)
        self.ends.append(clock())
        self.kernel_ns.append(best)

    def _scales(self) -> np.ndarray:
        k = np.asarray(self.kernel_ns, dtype=np.float64)
        return REFERENCE_NS / ((k[:-1] + k[1:]) / 2)

    def _segments_ns(self) -> np.ndarray:
        return np.asarray(self.starts[1:], dtype=np.int64) - np.asarray(self.ends[:-1], dtype=np.int64)

    def raw_ns(self) -> int:
        """Time between the first and the last mark, the marks left out."""
        return int(self._segments_ns().sum())

    def scaled_ns(self) -> float:
        """raw_ns with each segment scaled to the reference host speed."""
        return float((self._segments_ns() * self._scales()).sum())

    def scale(self, starts_ns: np.ndarray, durations_ns: np.ndarray) -> np.ndarray:
        """Durations of intervals that begin at ``starts_ns``, each scaled
        by the segment it begins in."""
        seg = np.searchsorted(np.asarray(self.ends, dtype=np.int64), starts_ns, side="right") - 1
        seg = np.clip(seg, 0, len(self.ends) - 2)
        return durations_ns * self._scales()[seg]
