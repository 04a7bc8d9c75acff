import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexshare import (as_distribution, binary_entropy, kl_divergence,
                          kl_project_clipped, total_variation)
from simplexshare.simplex_core import kl_project_rows
from oracles import dtv_brute, grid_min_kl, kl_brute, kl_project_argsort

vectors = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8)


def random_distribution(rng, d):
    return rng.dirichlet(np.ones(d))


def test_total_variation_examples():
    assert total_variation([0.5, 0.5], [0.0, 1.0]) == pytest.approx(0.5)
    assert total_variation([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert total_variation([0.2, 0.1], [0.1, 0.3]) == pytest.approx(0.1)
    assert total_variation([0.1, 0.3], [0.2, 0.1]) == pytest.approx(0.2)


def test_total_variation_dimension_mismatch():
    with pytest.raises(ValueError):
        total_variation([0.5, 0.5], [1.0])


@given(vectors, vectors)
def test_total_variation_bounded_by_l1(x, y):
    n = min(len(x), len(y))
    x, y = np.array(x[:n]), np.array(y[:n])
    tv = total_variation(x, y)
    assert tv == pytest.approx(dtv_brute(x, y), abs=1e-12)
    assert tv <= np.abs(x - y).sum() + 1e-12
    assert total_variation(x, x) == 0.0


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_total_variation_half_l1_for_distributions(d, seed):
    rng = np.random.default_rng(seed)
    x, y = random_distribution(rng, d), random_distribution(rng, d)
    assert abs(total_variation(x, y) - 0.5 * np.abs(x - y).sum()) <= 1e-12


def test_kl_examples():
    assert kl_divergence([0.2, 0.8], [0.2, 0.8]) == 0.0
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
        0.6931471805599453, abs=1e-15)
    assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
        0.14384103622589042, abs=1e-15)


def test_kl_support_violation():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_kl_nonnegative_and_matches_brute(d, seed):
    rng = np.random.default_rng(seed)
    x, y = random_distribution(rng, d), rng.dirichlet(np.full(d, 2.0))
    val = kl_divergence(x, y)
    assert val >= 0.0
    assert val == pytest.approx(kl_brute(x, y), abs=1e-12)


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == pytest.approx(0.6931471805599453, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(0.5623351446188083, abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


@given(st.floats(1e-9, 1.0))
def test_binary_entropy_upper_bound(x):
    assert binary_entropy(x) <= x * np.log(np.e / x) + 1e-12


def test_projection_examples():
    v = np.array([0.4, 0.35, 0.25])
    assert np.allclose(kl_project_clipped(v, 0.3), v)  # already feasible
    assert np.allclose(kl_project_clipped([0.9, 0.1], 0.4), [0.8, 0.2],
                       atol=1e-12)
    # scaling after flooring only the smallest entry would push the second
    # entry below the floor, so two entries must be floored
    assert np.allclose(kl_project_clipped([0.85, 0.10, 0.05], 0.3),
                       [0.8, 0.1, 0.1], atol=1e-12)


def test_projection_domain_errors():
    with pytest.raises(ValueError):
        kl_project_clipped([0.5, 0.5], -0.1)
    with pytest.raises(ValueError):
        kl_project_clipped([0.5, 0.5], 1.2)


def test_projection_alpha_limits():
    v = [0.7, 0.2, 0.1]
    assert np.allclose(kl_project_clipped(v, 0.0), v)
    assert np.allclose(kl_project_clipped(v, 1.0), [1 / 3] * 3, atol=1e-12)


def test_projection_feasibility_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(2, 9))
        v = rng.dirichlet(np.ones(d) * rng.uniform(0.3, 3.0))
        v = np.maximum(v, 1e-12)
        v /= v.sum()
        alpha = float(rng.uniform(0.0, 1.0))
        out = kl_project_clipped(v, alpha)
        assert out.min() >= alpha / d - 1e-12
        assert abs(out.sum() - 1.0) <= 1e-12


def test_projection_grid_oracle_small_sample():
    # the full 200-case gate lives in the acceptance suite
    rng = np.random.default_rng(11)
    for case in range(40):
        d = 2 if case % 2 == 0 else 3
        v = np.maximum(rng.dirichlet(np.ones(d)), 1e-6)
        v /= v.sum()
        alpha = float(rng.uniform(0.05, 0.95))
        out = kl_project_clipped(v, alpha)
        ours = kl_brute(out, v)
        res = 1e-4 if d == 2 else 1e-3
        assert ours <= grid_min_kl(v, alpha, res) + 1e-6


def test_projection_pythagorean_inequality():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        v = np.maximum(rng.dirichlet(np.ones(d)), 1e-9)
        v /= v.sum()
        alpha = float(rng.uniform(0.01, 0.99))
        star = kl_project_clipped(v, alpha)
        q = alpha / d + (1.0 - alpha) * rng.dirichlet(np.ones(d))
        lhs = kl_brute(q, v)
        rhs = kl_brute(q, star) + kl_brute(star, v)
        assert lhs >= rhs - 1e-10


def test_stacked_projection_matches_single_rows_bit_for_bit():
    rng = np.random.default_rng(19)
    for d in (2, 4, 7, 50):
        raw = [rng.dirichlet(np.ones(d) * 0.3) for _ in range(6)]
        raw += [np.full(d, 1.0 / d), np.r_[1.0, np.full(d - 1, 1e-300)]]
        # ties at the floor boundary: equal small entries, some floored
        small = np.full(d, 1.0)
        small[: d // 2] = 0.5 / d
        raw += [small, np.round(rng.random(d) * 3) + 1e-3]
        stack = np.stack([as_distribution(r / r.sum()) for r in raw])
        for alpha in (1e-4, 0.3, 0.9, 1.0 - 1e-15, 1.0):
            expected = np.stack([kl_project_clipped(r / r.sum(), alpha)
                                 for r in raw])
            assert np.array_equal(kl_project_rows(stack, alpha), expected)
            # a 3-d stack, and one whose rows all need projecting
            assert np.array_equal(
                kl_project_rows(stack.reshape(2, -1, d), alpha),
                expected.reshape(2, -1, d))
            todo = stack.min(axis=1) < alpha / d
            assert np.array_equal(kl_project_rows(stack[todo], alpha),
                                  expected[todo])
    with pytest.raises(ValueError, match="strictly positive"):
        kl_project_clipped(np.array([1.0, 0.0]), 0.5)
    # a run's pre-weight that underflowed to 0 is floored
    assert np.array_equal(kl_project_rows(np.array([[1.0, 0.0]]), 0.5),
                          [[0.75, 0.25]])


def _projection_rows(rng, d, alpha):
    """Rows summing to 1 (up to rounding) that stress the flooring rule."""
    f = alpha / d
    rows = [rng.dirichlet(np.ones(d) * 0.3)]
    for size in sorted({1, max(1, d // 3), d - 1, d}):
        # a tied block around the floor, and one just below it at the
        # row minimum (where sorted positions would floor a single copy)
        for c in (0.5, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 2.0):
            row = rng.random(d) + 0.5
            row[:size] = c * f
            rows.append(row / row.sum())
        for ulps in (1, 2, 3):
            row = rng.random(d) + 2.0 * f
            row[:size] = f * (1.0 - ulps * 2.0**-53)
            if size == d:  # near-uniform; at the floor when alpha = 1
                row[:] = (1.0 - ulps * 2.0**-53) / d
            else:
                row[size:] *= (1.0 - row[:size].sum()) / row[size:].sum()
            rows.append(row)
    # entries exactly at alpha/d next to smaller ones, and 1e-300 entries
    k = max(1, d // 3)
    row = rng.random(d)
    row[:k], row[k:2 * k] = f, f / 2
    if 2 * k < d:
        row[2 * k:] *= (1.0 - row[:2 * k].sum()) / row[2 * k:].sum()
    rows.append(row)
    row = rng.random(d)
    row[:k] = 1e-300
    rows.append(row / row.sum())
    return np.stack([r for r in rows if r.min() > 0.0])


def _ties_project_alike(row, out):
    _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
    return np.array_equal(out, out[first][inverse])


def test_projection_floors_by_value_like_sort_order():
    """Bit for bit the sort-order rule wherever argsort's tie order cannot
    change its result; where it can, the tied copies are floored together."""
    rng = np.random.default_rng(31)
    tie_order_rows = 0
    for d in (2, 3, 10, 1000):
        for alpha in (1e-4, 0.002, 0.3, 1.0 - 1e-15, 1.0):
            stack = _projection_rows(rng, d, alpha)
            out = kl_project_rows(stack, alpha)
            assert np.array_equal(out, kl_project_argsort(stack, alpha,
                                                          floor_ties=True))
            by_position = kl_project_argsort(stack, alpha)
            for row, got, old in zip(stack, out, by_position):
                assert np.array_equal(kl_project_rows(row, alpha), got)
                assert _ties_project_alike(row, got)
                if _ties_project_alike(row, old):
                    assert np.array_equal(got, old)
                else:
                    tie_order_rows += 1
                    # sort position left all but one tied copy a few
                    # ulps above the floor
                    assert np.allclose(got, old, atol=0.0,
                                       rtol=8 * d * np.finfo(float).eps)
    assert tie_order_rows > 0


def test_as_distribution_validation():
    out = as_distribution([0.25, 0.25, 0.5])
    assert out.sum() == 1.0
    with pytest.raises(ValueError):
        as_distribution([0.5, 0.2])
    with pytest.raises(ValueError):
        as_distribution([-0.1, 1.1])
    with pytest.raises(ValueError):
        as_distribution([np.nan, 1.0])
