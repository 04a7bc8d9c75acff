import numpy as np
import pytest

from simplexshare import (ComparatorSpec, EnvironmentSpec, MixingRule,
                          discount_regularity, gen_comparator, gen_losses,
                          hindsight_segment_corners, linear_up_discounts,
                          load_losses_csv, make_adversary, make_rng,
                          regularity_m, run_forecaster, sparsity_n)
from simplexshare.forecasters import LossRows
from simplexshare.regret_eval import Segment, comparator_stats


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
    with pytest.raises(ValueError,
                       match=r"bad.csv: loss entries must lie in \[0, 1\]$"):
        load_losses_csv(bad)
    bad.write_text("0.5,nan\n")
    with pytest.raises(ValueError, match="bad.csv: loss entries must be finite$"):
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


def test_hindsight_segment_corners_checks_its_lengths():
    # [3, -1, 4] sums to 6 but overlaps rounds, and True is no length
    losses = np.array([[0.9, 0.1]] * 3 + [[0.0, 0.6]] * 3)
    for lengths, message in (
            ([3, -1, 4], r"segment_lengths\[1\]: expected a positive integer"),
            ([True, 5], r"segment_lengths\[0\]: expected a positive integer"),
            ([3, 4], "segment_lengths: must sum to T"),
            ([], "segment_lengths: expected a nonempty list")):
        with pytest.raises(ValueError, match=message):
            hindsight_segment_corners(losses, lengths)
    assert hindsight_segment_corners(losses, np.array([1, 5])) == [1, 0]


@pytest.mark.parametrize("finder, losses, message", [
    ("gen_comparator", [[1, 1, 0], [1, 1, 0]],
     r"losses: expected a \(2, 2\) matrix, found \(2, 3\)"),
    ("gen_comparator", [[1, 0], [1, 0], [0, 1]],
     r"losses: expected a \(2, 2\) matrix, found \(3, 2\)"),
    ("gen_comparator", [1, 0], r"losses: expected a \(T, d\) matrix"),
    ("hindsight_segment_corners", [1, 0],
     r"losses: expected a \(T, d\) matrix")],
    ids=["wider", "longer", "vector", "vector-segment-corners"])
def test_hindsight_corners_refuse_losses_of_another_shape(finder, losses,
                                                          message):
    """A one-segment hindsight comparator at d = 2, T = 2: a wider matrix
    would find an arm the comparator does not have, a longer one would be
    read silently, and a vector has no rounds."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        if finder == "gen_comparator":
            gen_comparator(ComparatorSpec(kind="piecewise_corner",
                                          segment_lengths=[2]),
                           d=2, T=2, losses=losses)
        else:
            hindsight_segment_corners(losses, [2])


@pytest.mark.parametrize("reader", ["hindsight_segment_corners",
                                    "gen_comparator", "comparator_stats"])
def test_one_run_readers_refuse_the_rows_of_several_runs(reader):
    """Two 4-round runs at d = 2, run 0 losing on arm 0 and run 1 on arm
    1: a one-run reader would see run 0's rows and drop run 1's."""
    losses = np.zeros((2, 4, 2))
    losses[0, :, 0] = losses[1, :, 1] = 1.0
    rows = LossRows(losses)
    with pytest.raises(ValueError,
                       match="^losses: expected one run, found 2$"):
        if reader == "hindsight_segment_corners":
            hindsight_segment_corners(rows, [4])
        elif reader == "gen_comparator":
            gen_comparator(ComparatorSpec(kind="piecewise_corner",
                                          segment_lengths=[4]),
                           d=2, T=4, losses=rows)
        else:
            comparator_stats([Segment(0, 4, 0)], rows)


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
    u[:] = 7.0  # the result is the caller's own copy
    assert np.all(vectors < 1.0)
    with pytest.raises(ValueError):
        gen_comparator(ComparatorSpec(kind="scaled_arbitrary",
                                      vectors=-vectors), d=2, T=5)


def test_gen_comparator_lays_out_the_rows_written_here():
    """Each kind's matrix, written out by hand, pins the spec-to-rows
    layout apart from the segment code that builds it."""
    losses = np.array([[0.9, 0.1, 0.5],
                       [0.8, 0.2, 0.5],
                       [0.1, 0.9, 0.5],
                       [0.0, 0.7, 0.6],
                       [0.2, 0.9, 0.1]])
    betas = [1.0, 0.5, 0.25, 0.125, 0.0625]
    # betas @ losses = [1.3375, 0.56875, 0.95625]: arm 1 in hindsight
    cases = [
        (ComparatorSpec(kind="piecewise_corner", segment_lengths=[1, 3, 1],
                        corners=[2, 0, 1]),
         [[0, 0, 1], [1, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]]),
        # segment sums [1.7, 0.3, 1.0], [0.1, 1.6, 1.1], [0.2, 0.9, 0.1]
        (ComparatorSpec(kind="piecewise_corner", segment_lengths=[2, 2, 1]),
         [[0, 1, 0], [0, 1, 0], [1, 0, 0], [1, 0, 0], [0, 0, 1]]),
        (ComparatorSpec(kind="adaptive_window", r=2, s=4, q=1),
         [[0, 0, 0], [0, 1, 0], [0, 1, 0], [0, 1, 0], [0, 0, 0]]),
        (ComparatorSpec(kind="adaptive_window", r=3, s=5,
                        q=[0.25, 0.0, 0.75]),
         [[0, 0, 0], [0, 0, 0], [0.25, 0, 0.75], [0.25, 0, 0.75],
          [0.25, 0, 0.75]]),
        (ComparatorSpec(kind="discounted", betas=betas, corner=2),
         [[0, 0, 1.0], [0, 0, 0.5], [0, 0, 0.25], [0, 0, 0.125],
          [0, 0, 0.0625]]),
        (ComparatorSpec(kind="discounted", betas=betas),
         [[0, 1.0, 0], [0, 0.5, 0], [0, 0.25, 0], [0, 0.125, 0],
          [0, 0.0625, 0]]),
    ]
    for spec, rows in cases:
        u = gen_comparator(spec, d=3, T=5, losses=losses)
        assert u.shape == (5, 3) and u.dtype == float
        assert np.array_equal(u, np.array(rows, dtype=float)), spec
    for spec in (ComparatorSpec(kind="piecewise_corner", segment_lengths=[2, 3]),
                 ComparatorSpec(kind="discounted", betas=betas)):
        with pytest.raises(ValueError,
                           match="^hindsight corners need the losses$"):
            gen_comparator(spec, d=3, T=5)


def test_make_rng_split_streams():
    a = make_rng(9, 0).random(4)
    b = make_rng(9, 0).random(4)
    c = make_rng(9, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
