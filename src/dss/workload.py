"""Request traces: synthetic Zipf workloads and plain trace files.

A trace is a sequence of opaque item tokens. The file form puts one token
per line (blank lines ignored); the synthetic form draws item ranks from a
Zipf distribution with configurable skew over a fixed catalog.
"""

from __future__ import annotations

import math

import numpy as np


def zipf_trace(
    num_requests: int, catalog_size: int, skew: float = 1.0, seed: int = 0
) -> list[int]:
    """Seeded Zipf(skew) draws over item ids 0..catalog_size-1.

    Rank r (1-based) carries probability proportional to 1 / r**skew.
    """
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if catalog_size < 1:
        raise ValueError(f"catalog_size must be >= 1, got {catalog_size}")
    if not (math.isfinite(skew) and skew >= 0):
        raise ValueError(f"skew must be finite and >= 0, got {skew}")
    ranks = np.arange(1, catalog_size + 1, dtype=np.float64)
    weights = ranks ** -skew
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    rng = np.random.default_rng(seed)
    draws = rng.random(num_requests)
    return np.searchsorted(cumulative, draws, side="right").tolist()


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
