import numpy as np
import pytest

from simplexshare import (ComparatorSpec, EnvironmentSpec, MixingRule,
                          discount_regularity, gen_comparator, gen_losses,
                          hindsight_segment_corners, linear_up_discounts,
                          load_losses_csv, make_adversary, make_rng,
                          regularity_m, run_forecaster, sparsity_n)


def test_iid_bernoulli_zero_means_and_determinism():
    spec = EnvironmentSpec(kind="iid_bernoulli", d=3, T=50, seed=5,
                           means=[0.0, 0.0, 0.0])
    assert not gen_losses(spec).any()
    spec = EnvironmentSpec(kind="iid_bernoulli", d=3, T=200, seed=5,
                           means=[0.3, 0.5, 0.9])
    first, second = gen_losses(spec), gen_losses(spec)
    assert np.array_equal(first, second)
    other_stream = gen_losses(spec, stream=1)
    assert not np.array_equal(first, other_stream)
    assert set(np.unique(first)) <= {0.0, 1.0}


def test_piecewise_margin_one_is_deterministic():
    spec = EnvironmentSpec(kind="piecewise_stationary", d=2, T=6, seed=0,
                           segment_lengths=[3, 3],
                           means=[[0.0, 1.0], [1.0, 0.0]])
    losses = gen_losses(spec)
    assert np.array_equal(losses, np.array([[0, 1]] * 3 + [[1, 0]] * 3,
                                           dtype=float))


def test_piecewise_requires_changing_best_arm():
    with pytest.raises(ValueError):
        EnvironmentSpec(kind="piecewise_stationary", d=2, T=4, seed=0,
                        segment_lengths=[2, 2],
                        means=[[0.1, 0.9], [0.2, 0.8]])


def test_environment_validation_errors():
    with pytest.raises(ValueError):
        EnvironmentSpec(kind="nope", d=2, T=4)
    with pytest.raises(ValueError):
        EnvironmentSpec(kind="iid_bernoulli", d=2, T=4, means=[0.5, 1.5])
    with pytest.raises(ValueError):
        EnvironmentSpec(kind="piecewise_stationary", d=2, T=4,
                        segment_lengths=[2, 3],
                        means=[[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        gen_losses(EnvironmentSpec(kind="adversarial_flip", d=2, T=4))


def test_adversarial_flip_hits_heaviest_coordinate():
    adversary = make_adversary(EnvironmentSpec(kind="adversarial_flip", d=3,
                                               T=10, seed=1))
    loss = adversary(1, np.array([0.2, 0.5, 0.3]))
    assert np.array_equal(loss, [0.0, 1.0, 0.0])
    traj = run_forecaster(MixingRule.fixed_share(0.1), 1.0,
                          make_adversary(EnvironmentSpec(
                              kind="adversarial_flip", d=2, T=30, seed=2)),
                          d=2, horizon=30)
    assert np.all(traj.losses.sum(axis=1) == 1.0)
    # every round the unit loss lands on a maximal coordinate
    played_max = traj.played.max(axis=1)
    hit = np.einsum("td,td->t", traj.played, traj.losses)
    assert np.all(hit >= played_max - 1e-12)


def test_losses_csv_roundtrip(tmp_path):
    path = tmp_path / "losses.csv"
    data = np.random.default_rng(0).random((7, 3)).round(6)
    path.write_text("\n".join(",".join(f"{x:.6f}" for x in row)
                              for row in data) + "\n")
    loaded = load_losses_csv(path, d=3, T=7)
    assert np.allclose(loaded, data, atol=1e-12)
    spec = EnvironmentSpec(kind="from_file", path=str(path))
    assert np.allclose(gen_losses(spec), data, atol=1e-12)
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,1.5\n")
    with pytest.raises(ValueError):
        load_losses_csv(bad)


def test_piecewise_corner_comparator_declared_statistics():
    spec = ComparatorSpec(kind="piecewise_corner", segment_lengths=[1] * 4,
                          corners=[0, 1, 0, 1])
    u = gen_comparator(spec, d=2, T=4)
    assert regularity_m(u) == 3.0
    assert sparsity_n(u) == 2.0

    losses = np.array([[0.9, 0.1]] * 3 + [[0.0, 0.6]] * 3)
    corners = hindsight_segment_corners(losses, [3, 3])
    assert corners == [1, 0]
    auto = gen_comparator(ComparatorSpec(kind="piecewise_corner",
                                         segment_lengths=[3, 3]),
                          d=2, T=6, losses=losses)
    assert np.array_equal(auto[:3, 1], np.ones(3))
    assert np.array_equal(auto[3:, 0], np.ones(3))


def test_adaptive_window_comparator_statistics():
    full = gen_comparator(ComparatorSpec(kind="adaptive_window", r=1, s=8,
                                         q=0), d=2, T=8)
    assert regularity_m(full) == 0.0
    assert full[0].sum() == 1.0
    inner = gen_comparator(ComparatorSpec(kind="adaptive_window", r=3, s=5,
                                          q=1), d=2, T=8)
    assert regularity_m(inner) == 1.0
    assert inner[0].sum() == 0.0
    # regularity mass + first-round mass is always one for window comparators
    assert regularity_m(inner) + inner[0].sum() == 1.0
    with pytest.raises(ValueError):
        gen_comparator(ComparatorSpec(kind="adaptive_window", r=0, s=5, q=1),
                       d=2, T=8)
    with pytest.raises(ValueError):
        gen_comparator(ComparatorSpec(kind="adaptive_window", r=3, s=9, q=1),
                       d=2, T=8)


def test_discounted_comparator_and_identity():
    T = 12
    betas = linear_up_discounts(T)
    u = gen_comparator(ComparatorSpec(kind="discounted", betas=betas,
                                      corner=1), d=3, T=T)
    assert np.allclose(u[:, 1], betas)
    assert discount_regularity(betas, np.eye(3)[1]) == pytest.approx(1.0,
                                                                     abs=1e-12)
    assert u[0].sum() + regularity_m(u) == pytest.approx(1.0, abs=1e-12)


def test_scaled_arbitrary_comparator():
    vectors = np.random.default_rng(1).random((5, 2))
    u = gen_comparator(ComparatorSpec(kind="scaled_arbitrary",
                                      vectors=vectors), d=2, T=5)
    assert np.array_equal(u, vectors)
    with pytest.raises(ValueError):
        gen_comparator(ComparatorSpec(kind="scaled_arbitrary",
                                      vectors=-vectors), d=2, T=5)


def test_make_rng_split_streams():
    a = make_rng(9, 0).random(4)
    b = make_rng(9, 0).random(4)
    c = make_rng(9, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
