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
import numbers
from dataclasses import dataclass
from typing import Iterable

from .workload import _integer

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


@dataclass(frozen=True, slots=True)
class DatastoreProfile:
    """One candidate store as a selection strategy sees it.

    ``id`` is an integer (any ``operator.index`` integer, numpy's too, kept
    as an ``int``; a bool is refused). ``access_cost`` is the cost of
    querying the store from the current client; ``mis_ratio`` is the
    probability the store does not hold the item despite its positive
    indication. Each must be a real number (a float, or a ``numbers.Real``
    that is not a bool); anything else is refused with the same ValueError
    as an out-of-range value.
    """

    id: int
    access_cost: float
    mis_ratio: float

    def __post_init__(self) -> None:
        if type(self.id) is not int:
            object.__setattr__(self, "id", _integer("id", self.id, None))
        cost = self.access_cost
        if not ((type(cost) is float or _is_real(cost)) and math.isfinite(cost) and cost >= 0.0):
            raise ValueError(f"access_cost must be finite and >= 0, got {cost}")
        rho = self.mis_ratio
        if not ((type(rho) is float or _is_real(rho)) and 0.0 <= rho < 1.0):
            raise ValueError(f"mis_ratio must lie in [0, 1), got {rho}")

    @classmethod
    def _trusted(cls, id: int, access_cost: float, mis_ratio: float) -> DatastoreProfile:
        """A profile built without ``__post_init__``'s checks, for a caller
        whose inputs pass them by construction: an int id, a finite float
        access cost >= 0 and a float mis ratio in [0, 1). Equal to
        ``DatastoreProfile(id, access_cost, mis_ratio)``. The fields go
        straight into their slots through the slots' descriptors, past the
        frozen ``__setattr__``."""
        profile = object.__new__(cls)
        _set_profile_id(profile, id)
        _set_profile_access_cost(profile, access_cost)
        _set_profile_mis_ratio(profile, mis_ratio)
        return profile


@dataclass(frozen=True, slots=True)
class SelectionContext:
    """Everything a strategy may look at for one request.

    ``candidates`` are the stores with a positive indication: an iterable of
    DatastoreProfile (kept as a tuple) with distinct ids and access costs
    normalized so the cheapest possible store costs at least 1.
    ``miss_penalty`` is the cost of retrieving the item from the origin
    after accessing no store that holds it: a real number, not a bool, as
    in DatastoreProfile.
    """

    candidates: tuple[DatastoreProfile, ...]
    miss_penalty: float

    def __post_init__(self) -> None:
        try:
            iter(self.candidates)
        except TypeError:
            raise ValueError(
                f"candidates must be an iterable of DatastoreProfile, got {self.candidates!r}"
            ) from None
        candidates = tuple(self.candidates)
        for p in candidates:
            if not isinstance(p, DatastoreProfile):
                raise ValueError(f"candidates must be DatastoreProfiles, got {p!r}")
        object.__setattr__(self, "candidates", candidates)
        ids = [p.id for p in candidates]
        if len(set(ids)) != len(ids):
            raise ValueError("candidate ids must be distinct")
        _check_miss_penalty(self.miss_penalty)
        for p in candidates:
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
        go straight into their slots, as in ``DatastoreProfile._trusted``."""
        ctx = object.__new__(cls)
        _set_context_candidates(ctx, candidates)
        _set_context_miss_penalty(ctx, miss_penalty)
        return ctx

    @property
    def n_positive(self) -> int:
        return len(self.candidates)


# The slots' member descriptors, bound once: their ``__set__`` fills a slot
# of a frozen instance past the ``__setattr__`` that refuses it. Slots, and
# never an instance ``__dict__``: once CPython 3.11+ has made an instance's
# dict, every later load of one of its fields is a dict lookup.
_set_profile_id = DatastoreProfile.id.__set__
_set_profile_access_cost = DatastoreProfile.access_cost.__set__
_set_profile_mis_ratio = DatastoreProfile.mis_ratio.__set__
_set_context_candidates = SelectionContext.candidates.__set__
_set_context_miss_penalty = SelectionContext.miss_penalty.__set__


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
    _check_miss_penalty(miss_penalty)
    access = 0.0
    miss = 1.0
    for p in sorted(selection, key=lambda p: p.id):
        access += p.access_cost
        miss *= p.mis_ratio
    return CostBreakdown(access, miss, access + miss_penalty * miss)


def _is_real(value) -> bool:
    """Whether a profile field or a miss penalty that is not a float is a
    real number: a ``numbers.Real`` that is not a bool. A str, None or a
    Decimal is not one. Callers test ``type(value) is float`` first, as
    nearly every value is one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_miss_penalty(miss_penalty: float) -> None:
    real = type(miss_penalty) is float or _is_real(miss_penalty)
    if not (real and math.isfinite(miss_penalty) and miss_penalty >= 1.0):
        raise ValueError(f"miss_penalty must be finite and >= 1, got {miss_penalty}")


def _check_unit(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
