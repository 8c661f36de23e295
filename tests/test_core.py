"""Core domain model: indication probabilities and the expected-cost objective."""

import math
import random

import pytest

from dss.core import (
    RHO_MAX,
    CostBreakdown,
    DatastoreProfile,
    SelectionContext,
    clamp_mis_ratio,
    expected_cost,
    misindication_ratio,
    positive_prob,
)


def test_positive_prob_basic():
    assert positive_prob(0.5, 0.02) == pytest.approx(0.51)
    assert positive_prob(0.0, 0.0) == 0.0
    assert positive_prob(1.0, 0.7) == 1.0
    assert positive_prob(0.0, 1.0) == 1.0


def test_positive_prob_rejects_out_of_range():
    with pytest.raises(ValueError):
        positive_prob(-0.1, 0.5)
    with pytest.raises(ValueError):
        positive_prob(0.5, 1.5)


def test_misindication_ratio_bayes():
    # fpr*(1-h) / (h + (1-h)*fpr)
    assert misindication_ratio(0.5, 0.02) == pytest.approx(0.02 * 0.5 / 0.51)
    assert misindication_ratio(0.9, 0.0) == 0.0


def test_misindication_ratio_zero_hit_clamps():
    # h=0: every positive is false, the raw ratio is 1; clamped just below.
    assert misindication_ratio(0.0, 0.02) == RHO_MAX


def test_misindication_ratio_undefined_when_never_positive():
    with pytest.raises(ValueError):
        misindication_ratio(0.0, 0.0)


def test_clamp_mis_ratio():
    assert clamp_mis_ratio(-0.5) == 0.0
    assert clamp_mis_ratio(0.25) == 0.25
    assert clamp_mis_ratio(1.0) == RHO_MAX
    assert clamp_mis_ratio(7.0) == RHO_MAX
    with pytest.raises(ValueError):
        clamp_mis_ratio(float("nan"))


def test_misindication_monotone_in_fpr_and_hit():
    # More false positives -> less trustworthy positives; higher hit -> more.
    rng = random.Random(101)
    for _ in range(200):
        h = rng.uniform(0.05, 0.95)
        f1 = rng.uniform(0.0, 0.5)
        f2 = f1 + rng.uniform(0.01, 0.5)
        assert misindication_ratio(h, f1) <= misindication_ratio(h, f2) + 1e-12
        h2 = min(1.0, h + rng.uniform(0.01, 0.05))
        assert misindication_ratio(h2, f2) <= misindication_ratio(h, f2) + 1e-12


def test_datastore_profile_validation():
    DatastoreProfile(0, 1.0, 0.0)  # lower edges allowed
    with pytest.raises(ValueError):
        DatastoreProfile(0, -1.0, 0.5)
    with pytest.raises(ValueError):
        DatastoreProfile(0, math.inf, 0.5)
    with pytest.raises(ValueError):
        DatastoreProfile(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DatastoreProfile(0, 1.0, -0.01)


def test_selection_context_validation():
    a = DatastoreProfile(1, 1.0, 0.5)
    b = DatastoreProfile(2, 2.0, 0.5)
    ctx = SelectionContext((a, b), 100.0)
    assert ctx.n_positive == 2
    with pytest.raises(ValueError):
        SelectionContext((a, DatastoreProfile(1, 3.0, 0.1)), 100.0)
    with pytest.raises(ValueError):
        SelectionContext((a,), 0.5)
    with pytest.raises(ValueError):
        # costs normalized so the cheapest store is at least 1
        SelectionContext((DatastoreProfile(1, 0.5, 0.5),), 100.0)


def test_trusted_context_equals_the_checked_one():
    # Both private constructors equal the checked public ones.
    fields = ((3, 1.0, 0.0), (0, 7.0, 0.25), (9, 2.5, RHO_MAX), (4, 0.0, 0.5))
    for store_id, cost, rho in fields:
        trusted = DatastoreProfile._trusted(store_id, cost, rho)
        checked = DatastoreProfile(store_id, cost, rho)
        assert type(trusted) is DatastoreProfile
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)
        with pytest.raises(AttributeError):  # as frozen as a checked one
            trusted.mis_ratio = 0.5
    stores = tuple(DatastoreProfile._trusted(*f) for f in fields[:3])
    for candidates in ((), stores[:1], stores):
        for beta in (1.0, 100.0):
            trusted = SelectionContext._trusted(candidates, beta)
            assert type(trusted) is SelectionContext
            assert trusted == SelectionContext(candidates, beta)
            assert trusted.n_positive == len(candidates)


def test_expected_cost_two_stores():
    sel = (DatastoreProfile(1, 1.0, 0.5), DatastoreProfile(2, 2.0, 0.5))
    got = expected_cost(sel, 100.0)
    assert got == CostBreakdown(3.0, 0.25, 28.0)


def test_expected_cost_empty_is_pure_miss():
    got = expected_cost((), 100.0)
    assert got.access_cost == 0.0
    assert got.miss_ratio == 1.0
    assert got.total == 100.0


def test_expected_cost_rejects_small_penalty():
    with pytest.raises(ValueError):
        expected_cost((), 0.99)


def test_expected_cost_rejects_non_finite_penalty():
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            expected_cost((), beta)


def test_expected_cost_permutation_invariant_bitwise():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 8)
        sel = [
            DatastoreProfile(j, rng.uniform(1.0, 9.0), rng.uniform(0.0, 0.99))
            for j in range(n)
        ]
        beta = rng.uniform(1.0, 500.0)
        base = expected_cost(sel, beta)
        shuffled = sel[:]
        rng.shuffle(shuffled)
        again = expected_cost(shuffled, beta)
        assert again.access_cost == base.access_cost
        assert again.miss_ratio == base.miss_ratio
        assert again.total == base.total


def test_expected_cost_identity_holds_exactly():
    rng = random.Random(8)
    for _ in range(100):
        sel = [
            DatastoreProfile(j, rng.uniform(1.0, 9.0), rng.uniform(0.0, 0.99))
            for j in range(rng.randint(0, 6))
        ]
        beta = rng.uniform(1.0, 300.0)
        got = expected_cost(sel, beta)
        assert got.total == got.access_cost + beta * got.miss_ratio


def test_expected_cost_adding_a_store_never_raises_miss_ratio():
    rng = random.Random(9)
    for _ in range(100):
        sel = [
            DatastoreProfile(j, rng.uniform(1.0, 9.0), rng.uniform(0.0, 0.99))
            for j in range(rng.randint(1, 6))
        ]
        beta = 100.0
        whole = expected_cost(sel, beta)
        partial = expected_cost(sel[:-1], beta)
        assert whole.miss_ratio <= partial.miss_ratio + 1e-12
        assert whole.access_cost >= partial.access_cost
