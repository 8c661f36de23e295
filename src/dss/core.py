"""Core domain model for cost-aware datastore selection.

A client asks a set of datastores for an item; each store answers through an
approximate membership indicator that never misses present items but may
answer yes for absent ones. Accessing a set ``D`` of positively-indicating
stores costs the sum of their access costs, and a miss penalty is paid when
none of the accessed stores actually holds the item. With independent
misindications the expected cost of accessing ``D`` is

    phi(D) = sum(c_j for j in D) + miss_penalty * prod(rho_j for j in D)

where ``rho_j`` is the probability that store ``j`` does not hold the item
given its positive indication. The empty product is 1, so phi(empty) equals
the miss penalty: accessing nothing is always a miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

# Largest representable misindication ratio; rho == 1 would make a store
# useless and breaks the closed forms, so callers clamp just below it.
RHO_MAX = 1.0 - 1e-12

# Floor applied to rho only where a logarithm is taken (knapsack weights).
RHO_MIN = 1e-12


class InvariantError(RuntimeError):
    """An internal invariant broke: a bug or misuse, not bad input data.

    Raised instead of ``assert`` so that ``python -O`` keeps the check, and
    deliberately not a ``ValueError``, which the CLI reports as bad input.
    """


def positive_prob(hit_ratio: float, fpr: float) -> float:
    """Probability that a store's indicator answers yes.

    The indicator is positive when the store holds the item (probability
    ``hit_ratio``) or when it false-positives on an absent item.
    """
    _check_unit("hit_ratio", hit_ratio)
    _check_unit("fpr", fpr)
    return hit_ratio + (1.0 - hit_ratio) * fpr


def misindication_ratio(hit_ratio: float, fpr: float) -> float:
    """Probability that the item is absent given a positive indication.

    Bayes on the indicator: fpr*(1-h) / (h + (1-h)*fpr). Undefined when the
    indicator can never be positive (hit_ratio == 0 and fpr == 0); raises
    ValueError in that case. The result is clamped into [0, RHO_MAX].
    """
    q = positive_prob(hit_ratio, fpr)
    if q == 0.0:
        raise ValueError(
            "misindication ratio undefined: indicator is never positive "
            "(hit_ratio == 0 and fpr == 0)"
        )
    rho = fpr * (1.0 - hit_ratio) / q
    return clamp_mis_ratio(rho)


def clamp_mis_ratio(value: float) -> float:
    """Clamp a raw misindication estimate into the representable [0, RHO_MAX]."""
    if math.isnan(value):
        raise ValueError("misindication ratio is NaN")
    return min(max(value, 0.0), RHO_MAX)


@dataclass(frozen=True)
class DatastoreProfile:
    """One candidate store as a selection strategy sees it.

    ``access_cost`` is the cost of querying the store from the current
    client; ``mis_ratio`` is the probability the store does not hold the item
    despite its positive indication.
    """

    id: int
    access_cost: float
    mis_ratio: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.access_cost) and self.access_cost >= 0.0):
            raise ValueError(f"access_cost must be finite and >= 0, got {self.access_cost}")
        if not (0.0 <= self.mis_ratio < 1.0):
            raise ValueError(f"mis_ratio must lie in [0, 1), got {self.mis_ratio}")

    @classmethod
    def _trusted(cls, id: int, access_cost: float, mis_ratio: float) -> DatastoreProfile:
        """A profile built without ``__post_init__``'s checks, for a caller
        whose inputs pass them by construction: a finite float access cost
        >= 0 and a float mis ratio in [0, 1). Equal to
        ``DatastoreProfile(id, access_cost, mis_ratio)``. The fields go
        straight into the instance dict, past the frozen ``__setattr__``."""
        profile = object.__new__(cls)
        fields = profile.__dict__
        fields["id"] = id
        fields["access_cost"] = access_cost
        fields["mis_ratio"] = mis_ratio
        return profile


@dataclass(frozen=True)
class SelectionContext:
    """Everything a strategy may look at for one request.

    ``candidates`` are the stores with a positive indication, with distinct
    ids and access costs normalized so the cheapest possible store costs at
    least 1. ``miss_penalty`` is the cost of retrieving the item from the
    origin after accessing no store that holds it.
    """

    candidates: tuple[DatastoreProfile, ...]
    miss_penalty: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        ids = [p.id for p in self.candidates]
        if len(set(ids)) != len(ids):
            raise ValueError("candidate ids must be distinct")
        if not (math.isfinite(self.miss_penalty) and self.miss_penalty >= 1.0):
            raise ValueError(f"miss_penalty must be finite and >= 1, got {self.miss_penalty}")
        for p in self.candidates:
            if p.access_cost < 1.0:
                raise ValueError(
                    f"access costs are normalized to >= 1, got {p.access_cost} for id {p.id}"
                )

    @classmethod
    def _trusted(
        cls, candidates: tuple[DatastoreProfile, ...], miss_penalty: float
    ) -> SelectionContext:
        """A context built without ``__post_init__``'s checks, for a caller
        whose inputs pass them by construction: a tuple of profiles with
        distinct ids and access costs >= 1, and a finite miss penalty >= 1.
        Equal to ``SelectionContext(candidates, miss_penalty)``. The fields
        go straight into the instance dict, past the frozen ``__setattr__``."""
        ctx = object.__new__(cls)
        fields = ctx.__dict__
        fields["candidates"] = candidates
        fields["miss_penalty"] = miss_penalty
        return ctx

    @property
    def n_positive(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class CostBreakdown:
    """Expected cost of accessing a fixed selection, split into parts.

    ``total == access_cost + miss_penalty * miss_ratio`` holds exactly: the
    total is constructed from the two parts, not recomputed separately.
    """

    access_cost: float
    miss_ratio: float
    total: float


def expected_cost(
    selection: Iterable[DatastoreProfile], miss_penalty: float
) -> CostBreakdown:
    """Expected cost phi of accessing every store in ``selection``.

    The empty selection yields CostBreakdown(0, 1, miss_penalty). Profiles
    are folded in increasing id order so the result is invariant under input
    permutation, bit for bit.
    """
    if not (math.isfinite(miss_penalty) and miss_penalty >= 1.0):
        raise ValueError(f"miss_penalty must be finite and >= 1, got {miss_penalty}")
    access = 0.0
    miss = 1.0
    for p in sorted(selection, key=lambda p: p.id):
        access += p.access_cost
        miss *= p.mis_ratio
    return CostBreakdown(access, miss, access + miss_penalty * miss)


def _check_unit(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
