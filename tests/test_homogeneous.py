"""Closed-form costs for identical stores: EPI, CPI, FPO, perfect, blind."""

import io
import math
import random

import numpy as np
import pytest

from dss.homogeneous import (
    SWEEP_CSV_HEADER,
    HomogeneousParams,
    cost_homo,
    cpi_cost,
    epi_cost,
    fpo_access_count,
    fpo_cost,
    hit_grid,
    homogeneous_sweep,
    no_indicator_cost,
    nx_distribution,
    perfect_indicator_cost,
    write_sweep_csv,
)


def params(h, n=20, fpr=0.02, beta=100.0):
    return HomogeneousParams(n, h, fpr, beta)


def test_cost_homo_values():
    rho = misind = 0.02 * 0.5 / 0.51  # h=0.5, fpr=0.02
    assert cost_homo(2, 100.0, rho) == pytest.approx(2.038447, rel=1e-6)
    assert cost_homo(20, 100.0, 1.0) == 120.0
    assert cost_homo(0, 100.0, misind) == 100.0


def test_cost_homo_rejects_bad_args():
    with pytest.raises(ValueError):
        cost_homo(-1, 100.0, 0.5)
    with pytest.raises(ValueError):
        cost_homo(2, 100.0, 1.5)


def test_params_reject_non_finite_miss_penalty():
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            params(0.5, beta=beta)


def test_cost_homo_convex_in_k():
    rng = random.Random(11)
    for _ in range(100):
        beta = rng.uniform(2.0, 1000.0)
        rho = rng.uniform(0.001, 0.999)
        values = [cost_homo(k, beta, rho) for k in range(30)]
        for k in range(1, 29):
            assert values[k + 1] - values[k] >= values[k] - values[k - 1] - 1e-9


def test_nx_distribution_small():
    assert nx_distribution(3, 0.5) == pytest.approx([0.125, 0.375, 0.375, 0.125])
    assert nx_distribution(4, 0.0) == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert nx_distribution(2, 1.0) == [0.0, 0.0, 1.0]


def test_nx_distribution_normalized_large_n():
    # the log-space pmf stays normalized from small n to large
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 400)
        q = rng.uniform(0.001, 0.999)
        pmf = nx_distribution(n, q)
        assert len(pmf) == n + 1
        assert all(p >= 0.0 for p in pmf)
        assert math.isclose(sum(pmf), 1.0, abs_tol=1e-12)
        assert math.isclose(
            sum(k * p for k, p in enumerate(pmf)), n * q, rel_tol=1e-9
        )


def test_fpo_access_count_examples():
    assert fpo_access_count(20, 100.0, 0.5) == 6
    assert fpo_access_count(3, 100.0, 0.5) == 3  # unconstrained optimum exceeds k
    assert fpo_access_count(5, 100.0, 0.0) == 1
    assert fpo_access_count(0, 100.0, 0.5) == 0


def test_fpo_access_count_is_argmin():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.randint(0, 25)
        beta = rng.uniform(1.0, 1000.0)
        rho = rng.uniform(0.0, 1.0)
        m = fpo_access_count(k, beta, rho)
        best = min(range(k + 1), key=lambda j: (cost_homo(j, beta, rho), j))
        assert cost_homo(m, beta, rho) == pytest.approx(cost_homo(best, beta, rho))
        assert m == best


def test_reference_point_half_hit():
    p = params(0.5)
    assert perfect_indicator_cost(20, 0.5, 100.0) == pytest.approx(1.00009, rel=1e-3)
    assert fpo_cost(p) == pytest.approx(2.03852, rel=1e-3)
    assert cpi_cost(p) == pytest.approx(2.96085, rel=1e-3)
    assert epi_cost(p) == pytest.approx(10.20010, rel=1e-3)
    assert no_indicator_cost(p) == pytest.approx(7.5625, rel=1e-3)


def test_reference_point_zero_hit():
    p = params(0.0)
    values = [
        perfect_indicator_cost(20, 0.0, 100.0),
        fpo_cost(p),
        cpi_cost(p),
        epi_cost(p),
        no_indicator_cost(p),
    ]
    for v in values:
        assert 100.0 - 1e-9 <= v <= 100.4 + 1e-9
    assert epi_cost(p) == pytest.approx(100.4, rel=1e-3)
    assert cpi_cost(p) == pytest.approx(100.33239, rel=1e-3)


def test_reference_point_full_hit():
    p = params(1.0)
    assert perfect_indicator_cost(20, 1.0, 100.0) == 1.0
    assert fpo_cost(p) == pytest.approx(1.0)
    assert cpi_cost(p) == pytest.approx(1.0)
    assert epi_cost(p) == pytest.approx(20.0)


def test_strategy_ordering_across_grid():
    # perfect <= fpo <= min(epi, cpi): more information never hurts
    for h in hit_grid(0.05):
        p = params(h)
        perfect = perfect_indicator_cost(20, h, 100.0)
        fpo = fpo_cost(p)
        assert perfect <= fpo + 1e-9
        assert fpo <= min(epi_cost(p), cpi_cost(p)) + 1e-9
        assert fpo <= no_indicator_cost(p) + 1e-9


def test_zero_fpr_collapses_to_perfect():
    for h in hit_grid(0.1):
        p = HomogeneousParams(20, h, 0.0, 100.0)
        perfect = perfect_indicator_cost(20, h, 100.0)
        assert fpo_cost(p) == pytest.approx(perfect, abs=1e-9)
        assert cpi_cost(p) == pytest.approx(perfect, abs=1e-9)


def test_monte_carlo_agrees_with_closed_forms():
    # Simulate the stores directly: presence ~ Bern(h), indication adds
    # false positives; conditional independence makes each positive store
    # truly absent with probability rho, matching the closed forms.
    n, h, fpr, beta = 20, 0.5, 0.02, 100.0
    p = params(h)
    rho = p.rho
    trials = 100_000
    rng = np.random.default_rng(2024)
    held = rng.random((trials, n)) < h
    indicated = held | (rng.random((trials, n)) < fpr)
    k = indicated.sum(axis=1)

    epi_samples = k + beta * (~held.any(axis=1))
    m_star = np.array([fpo_access_count(j, beta, rho) for j in range(n + 1)])
    m = m_star[k]
    fpo_samples = m + beta * (rng.random(trials) < rho**m)
    cpi_samples = np.where(
        k == 0, beta, 1.0 + beta * (rng.random(trials) < rho)
    )

    for samples, expected in [
        (epi_samples, epi_cost(p)),
        (fpo_samples, fpo_cost(p)),
        (cpi_samples, cpi_cost(p)),
    ]:
        se = samples.std(ddof=1) / math.sqrt(trials)
        assert abs(samples.mean() - expected) <= 4.0 * se


def test_hit_grid():
    grid = hit_grid(0.05)
    assert len(grid) == 21
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert hit_grid(1.0) == [0.0, 1.0]
    assert hit_grid(0.3) == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    with pytest.raises(ValueError):
        hit_grid(0.0)


def test_sweep_csv_shape():
    points = homogeneous_sweep(20, 0.02, 100.0)
    assert len(points) == 21
    buf = io.StringIO()
    write_sweep_csv(points, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 22
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0
    assert len(first) == 6
