"""Request traces: synthetic Zipf workloads and plain trace files.

A trace is a sequence of opaque item tokens. The file form puts one token
per line (blank lines ignored); the synthetic form draws item ranks from a
Zipf distribution with configurable skew over a fixed catalog.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


def zipf_trace(
    num_requests: int, catalog_size: int, skew: float = 1.0, seed: int = 0
) -> list[int]:
    """Seeded Zipf(skew) draws over item ids 0..catalog_size-1.

    Rank r (1-based) carries probability proportional to 1 / r**skew.
    """
    num_requests = _integer("num_requests", num_requests, 1)
    catalog_size = _integer("catalog_size", catalog_size, 1)
    seed = _integer("seed", seed, 0)
    if isinstance(skew, bool) or not isinstance(skew, numbers.Real):
        raise ValueError(f"skew must be a real number, got {skew!r}")
    skew = float(skew)
    if not (math.isfinite(skew) and skew >= 0):
        raise ValueError(f"skew must be finite and >= 0, got {skew}")
    # The CDF is built in place in one buffer: weights, then running sums.
    cumulative = np.arange(1, catalog_size + 1, dtype=np.float64)
    np.power(cumulative, -skew, out=cumulative)
    np.cumsum(cumulative, out=cumulative)
    cumulative /= cumulative[-1]
    rng = np.random.default_rng(seed)
    draws = rng.random(num_requests)
    return np.searchsorted(cumulative, draws, side="right").tolist()


def _integer(name: str, value, least: int | None) -> int:
    """``value`` as an int, refusing a bool, a non-integer and a value
    below ``least`` (unless it is None, for a caller that checks the range
    itself) with a ValueError naming the parameter."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def load_trace(path: str) -> list[str]:
    """One item token per line; surrounding whitespace stripped, blanks skipped."""
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            token = line.strip()
            if token:
                items.append(token)
    if not items:
        raise ValueError(f"{path}: trace contains no items")
    return items


def save_trace(items, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(f"{item}\n")
