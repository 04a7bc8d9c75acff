import numpy as np
import pytest

from simplexshare import (ForecasterState, MixingRule, run_forecaster,
                          step_convex)
from oracles import central_difference_gaps


def quadratic_pull(target):
    """Convex loss ||p - target||^2 / 4 with its shifted subgradient.

    The raw gradient (p - target)/2 lives in [-1/2, 1/2]; adding 1/2
    lands it in [0, 1] as the reduction requires, without changing the
    mixing dynamics beyond a common factor.
    """
    def value(p):
        return float(np.sum((p - target) ** 2) / 4.0)

    def subgradient(p):
        return (p - target) / 2.0 + 0.5

    return value, subgradient


def test_linear_losses_reproduce_the_linear_forecaster():
    rng = np.random.default_rng(0)
    d, T = 4, 40
    losses = rng.random((T, d))
    rule = MixingRule.fixed_share(0.1)
    reference = run_forecaster(rule, 1.3, losses)

    state = ForecasterState(d, rule, 1.3)
    played, realized = [], []
    for t in range(T):
        c = losses[t]
        played.append(state.p)
        loss_value, state = step_convex(
            state, lambda p: float(np.einsum("d,d->", p, c)), lambda p: c)
        realized.append(loss_value)
    assert np.array_equal(np.array(played), reference.played)
    assert np.array_equal(np.array(realized), reference.realized)


def test_constant_loss_keeps_weights_without_sharing():
    state = ForecasterState(3, MixingRule.fixed_share(0.0), 0.7)
    before = state.p
    value, state = step_convex(state, lambda p: 0.25,
                               lambda p: np.full(3, 0.6))
    assert value == 0.25
    assert np.allclose(state.p, before, atol=1e-15)


def test_quadratic_subgradient_example():
    target = np.array([1.0, 0.0])
    value, _ = quadratic_pull(target)
    p = np.array([0.5, 0.5])
    # raw gradient (-0.25, 0.25); a +0.25 shift lands it in [0, 1] here
    g = (p - target) / 2.0 + 0.25
    assert np.allclose(g, [0.0, 0.5], atol=1e-15)
    gaps = central_difference_gaps(value, p)
    assert abs((g[1] - g[0]) - gaps[1]) <= 1e-6


def test_subgradient_oracle_matches_finite_differences():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        target = rng.dirichlet(np.ones(d))
        value, subgradient = quadratic_pull(target)
        for _ in range(20):
            p = rng.dirichlet(np.ones(d))
            g = subgradient(p)
            gaps = central_difference_gaps(value, p)
            assert np.allclose(g - g[0], gaps, atol=1e-5)


def test_per_round_domination_inequality():
    rng = np.random.default_rng(2)
    d = 3
    target = np.array([0.2, 0.5, 0.3])
    value, subgradient = quadratic_pull(target)
    state = ForecasterState(d, MixingRule.fixed_share(0.05), 0.9)
    for _ in range(30):
        p = state.p
        g = subgradient(p)
        for _ in range(100):
            u = rng.random(d) * rng.uniform(0.1, 3.0)
            norm = u.sum()
            lhs = norm * (value(p) - value(u / norm))
            rhs = float((norm * p - u) @ g)
            assert lhs <= rhs + 1e-9
        _, state = step_convex(state, value, subgradient)


def test_out_of_range_subgradient_rejected():
    state = ForecasterState(2, MixingRule.fixed_share(0.1), 1.0)
    with pytest.raises(ValueError, match="subgradient"):
        step_convex(state, lambda p: 0.5, lambda p: np.array([1.5, 0.0]))
    with pytest.raises(ValueError):
        step_convex(state, lambda p: 1.5, lambda p: np.array([0.5, 0.0]))
