"""Closed-form expected costs when all stores look alike.

With n stores that each hold the requested item independently with
probability ``hit_ratio`` and run indicators with a common false positive
rate, every store shares the same positive-indication probability q and
misindication ratio rho, and unit access cost. The number of positive
indications N_x is Binomial(n, q), and the cost of accessing k of the
positively-indicating stores is

    cost_homo(k) = k + miss_penalty * rho**k

which is enough to price the standard strategies in closed form:

- EPI accesses every positive indication.
- CPI accesses exactly one (any one, by symmetry).
- FPO accesses the k minimizing cost_homo among the N_x available.
- The perfect-indicator baseline accesses one store iff the item is cached
  somewhere (no false positives, unit cost).
- The no-indicator baseline is FPO with fpr = 1: indicators carry no
  information, so every store is a candidate and rho degrades to 1 - h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .core import misindication_ratio, positive_prob

@dataclass(frozen=True)
class HomogeneousParams:
    """Shared-parameter population of stores: n, h, fpr and the miss penalty."""

    n_stores: int
    hit_ratio: float
    fpr: float
    miss_penalty: float

    def __post_init__(self) -> None:
        if self.n_stores < 1:
            raise ValueError(f"n_stores must be >= 1, got {self.n_stores}")
        if not (0.0 <= self.hit_ratio <= 1.0):
            raise ValueError(f"hit_ratio must lie in [0, 1], got {self.hit_ratio}")
        if not (0.0 <= self.fpr <= 1.0):
            raise ValueError(f"fpr must lie in [0, 1], got {self.fpr}")
        if not (math.isfinite(self.miss_penalty) and self.miss_penalty >= 1.0):
            raise ValueError(f"miss_penalty must be finite and >= 1, got {self.miss_penalty}")

    @property
    def q(self) -> float:
        """Per-store positive indication probability."""
        return positive_prob(self.hit_ratio, self.fpr)

    @property
    def rho(self) -> float:
        """Per-store misindication ratio; 0 by convention when q == 0."""
        if self.q == 0.0:
            # Positives never occur, so the conditional carries no weight.
            return 0.0
        return misindication_ratio(self.hit_ratio, self.fpr)


def cost_homo(k: int, beta: float, rho: float) -> float:
    """Expected cost of accessing k positively-indicating identical stores."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return k + beta * rho**k


def nx_distribution(n: int, q: float) -> list[float]:
    """Pmf of the number of positive indications: Binomial(n, q) as a list.

    Computed in log space, so large n neither overflows nor underflows.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q == 0.0:
        return [1.0] + [0.0] * n
    if q == 1.0:
        return [0.0] * n + [1.0]
    log_q = math.log(q)
    log_1q = math.log1p(-q)
    log_fact_n = math.lgamma(n + 1)
    return [
        math.exp(
            log_fact_n
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * log_q
            + (n - k) * log_1q
        )
        for k in range(n + 1)
    ]


def fpo_access_count(k: int, beta: float, rho: float) -> int:
    """Optimal number of identical positive stores to access, out of k.

    cost_homo(y) is convex in y with stationary point
    y* = -ln(-beta*ln(rho)) / ln(rho), so the integer optimum lies in
    {0, k, floor(y*), ceil(y*)} clipped to [0, k]. Ties prefer fewer
    accesses. rho == 0 needs one access at most; rho == 1 makes accesses
    pure overhead, so the comparison degenerates to {0, k}.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 0
    if rho <= 0.0:
        return 1
    candidates = {0, k}
    if rho < 1.0:
        log_rho = math.log(rho)
        y = -math.log(-beta * log_rho) / log_rho
        if math.isfinite(y):
            for m in (math.floor(y), math.ceil(y)):
                if 0 <= m <= k:
                    candidates.add(m)
    return min(candidates, key=lambda m: (cost_homo(m, beta, rho), m))


def epi_cost(params: HomogeneousParams) -> float:
    """Expected cost of accessing every positive indication.

    n*q accesses on average; a miss requires every store to either stay
    silent or misindicate, hence the (1 - q + q*rho)**n miss probability.
    """
    n, q, rho, beta = params.n_stores, params.q, params.rho, params.miss_penalty
    return n * q + beta * (1.0 - q + q * rho) ** n


def cpi_cost(params: HomogeneousParams) -> float:
    """Expected cost of accessing one positive indication when there is one.

    No positives at all (probability (1-q)**n) is a straight miss; otherwise
    one unit access plus a miss with probability rho.
    """
    n, q, rho, beta = params.n_stores, params.q, params.rho, params.miss_penalty
    none = (1.0 - q) ** n
    return none * beta + (1.0 - none) * (1.0 + beta * rho)


def fpo_cost(params: HomogeneousParams) -> float:
    """Expected cost of the best fixed access count, averaged over N_x."""
    n, q, rho, beta = params.n_stores, params.q, params.rho, params.miss_penalty
    pmf = nx_distribution(n, q)
    return sum(
        p * cost_homo(fpo_access_count(k, beta, rho), beta, rho)
        for k, p in enumerate(pmf)
    )


def perfect_indicator_cost(n: int, hit_ratio: float, beta: float) -> float:
    """Expected cost with error-free indicators: one access iff cached anywhere."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    miss_everywhere = (1.0 - hit_ratio) ** n
    return (1.0 - miss_everywhere) + miss_everywhere * beta


def no_indicator_cost(params: HomogeneousParams) -> float:
    """Expected cost with uninformative indicators (fpr = 1), best fixed count."""
    blind = HomogeneousParams(
        n_stores=params.n_stores,
        hit_ratio=params.hit_ratio,
        fpr=1.0,
        miss_penalty=params.miss_penalty,
    )
    return fpo_cost(blind)


@dataclass(frozen=True)
class SweepPoint:
    """Costs of the five closed forms at one hit ratio."""

    hit: float
    perfect: float
    fpo: float
    cpi: float
    epi: float
    no_indicator: float


def hit_grid(step: float) -> list[float]:
    """Hit ratios 0, step, 2*step, ... capped so 1.0 is always the last point."""
    if not (0.0 < step <= 1.0):
        raise ValueError(f"step must lie in (0, 1], got {step}")
    grid = []
    i = 0
    while i * step < 1.0 - 1e-9:
        grid.append(min(i * step, 1.0))
        i += 1
    grid.append(1.0)
    return grid


def homogeneous_sweep(
    n_stores: int,
    fpr: float,
    miss_penalty: float,
    hits: Iterable[float] | None = None,
) -> list[SweepPoint]:
    """Evaluate every closed form across a grid of hit ratios."""
    points = []
    for h in hit_grid(0.05) if hits is None else hits:
        params = HomogeneousParams(n_stores, h, fpr, miss_penalty)
        points.append(
            SweepPoint(
                hit=h,
                perfect=perfect_indicator_cost(n_stores, h, miss_penalty),
                fpo=fpo_cost(params),
                cpi=cpi_cost(params),
                epi=epi_cost(params),
                no_indicator=no_indicator_cost(params),
            )
        )
    return points


SWEEP_CSV_HEADER = "hit,perfect,fpo,cpi,epi,no_indicator"


def write_sweep_csv(points: Sequence[SweepPoint], out: TextIO) -> None:
    """Write sweep points as CSV, six significant digits throughout."""
    out.write(SWEEP_CSV_HEADER + "\n")
    for p in points:
        row = (p.hit, p.perfect, p.fpo, p.cpi, p.epi, p.no_indicator)
        out.write(",".join(format(v, ".6g") for v in row) + "\n")
