import math
import tracemalloc

import numpy as np
import pytest

from simplexshare import (MixingRule, adaptive_regret, adaptive_regret_details,
                          discount_regularity, discounted_regret,
                          discounted_regret_details,
                          generalized_shifting_regret, linear_down_discounts,
                          linear_up_discounts, regularity_m, run_forecaster,
                          sparsity_n, total_variation)
from simplexshare.regret_eval import (Segment, _RunningSums, as_comparator,
                                      comparator_stats)
from oracles import (adaptive_regret_brute, adaptive_regret_details_brute,
                     comparator_sums_exact, discounted_regret_details_brute,
                     prefix_sums_brute)


def corners(indices, d):
    u = np.zeros((len(indices), d))
    u[np.arange(len(indices)), indices] = 1.0
    return u


def test_regularity_examples():
    assert regularity_m(corners([0, 0, 0], 2)) == 0.0
    # e1, e1, e2, e2, e1: two hard switches
    assert regularity_m(corners([0, 0, 1, 1, 0], 2)) == 2.0
    # window comparator starting after round 1: entering the window
    # costs 1, leaving costs 0
    u = np.zeros((6, 3))
    u[2:5, 1] = 1.0
    assert regularity_m(u) == 1.0
    assert regularity_m(np.array([[0.3, 0.7]])) == 0.0


def test_regularity_counts_hard_switches_exactly():
    rng = np.random.default_rng(2)
    d, T = 6, 300
    switches = sorted(rng.choice(np.arange(1, T), size=7, replace=False))
    arms = [int(rng.integers(d))]
    for _ in switches:
        nxt = int(rng.integers(d))
        while nxt == arms[-1]:
            nxt = int(rng.integers(d))
        arms.append(nxt)
    seq = np.zeros(T, dtype=int)
    bounds_ = [0] + list(switches) + [T]
    for i in range(len(arms)):
        seq[bounds_[i]:bounds_[i + 1]] = arms[i]
    assert regularity_m(corners(seq, d)) == pytest.approx(7.0, abs=1e-12)


def test_regularity_needs_one_temporary_of_the_comparator_size():
    u = np.random.default_rng(4).random((2000, 1000))
    expected = math.fsum(np.maximum(u[1:] - u[:-1], 0.0).sum(axis=1))
    tracemalloc.start()
    try:
        value = regularity_m(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak <= 0.2 * u.nbytes


def test_sparsity_examples():
    assert sparsity_n(corners([0, 0, 0], 2)) == 1.0
    assert sparsity_n(corners([0, 1, 0, 1], 2)) == 2.0
    assert sparsity_n(np.array([[0.2, 0.0], [0.0, 0.5]])) == pytest.approx(0.7)


def test_regularity_sparsity_inequalities():
    rng = np.random.default_rng(8)
    for _ in range(100):
        T, d = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        u = rng.random((T, d)) * rng.random()
        assert sparsity_n(u) <= u.sum() + 1e-12
        if T > 1:
            l1 = np.abs(u[1:] - u[:-1]).sum()
            assert regularity_m(u) <= l1 + 1e-12
            assert regularity_m(u) == pytest.approx(
                sum(total_variation(u[t], u[t - 1]) for t in range(1, T)),
                abs=1e-12)


def test_generalized_shifting_regret_examples():
    rng = np.random.default_rng(4)
    p = rng.dirichlet(np.ones(3), size=9)
    losses = rng.random((9, 3))
    assert generalized_shifting_regret(p, losses, p) == pytest.approx(0.0,
                                                                      abs=1e-12)
    p1 = np.ones((5, 1))
    l1 = rng.random((5, 1))
    u1 = rng.random((5, 1))
    assert generalized_shifting_regret(p1, l1, u1) == pytest.approx(0.0,
                                                                    abs=1e-12)
    assert generalized_shifting_regret(
        np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]),
        np.array([[0.0, 1.0]])) == pytest.approx(0.5)


def test_generalized_shifting_regret_zero_mass_rounds():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    losses = np.array([[1.0, 0.0], [1.0, 1.0]])
    u = np.array([[0.0, 0.0], [0.0, 2.0]])
    # first round contributes nothing, second contributes 2*1 - 2
    assert generalized_shifting_regret(p, losses, u) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        generalized_shifting_regret(p, losses, u[:1])


def test_comparator_statistics_validate_their_input():
    p = np.full((2, 2), 0.5)
    for bad in (np.array([[0.5, -0.1], [0.0, 1.0]]),
                np.array([[0.5, np.nan], [0.0, 1.0]])):
        for fn in (regularity_m, sparsity_n,
                   lambda u: generalized_shifting_regret(p, p, u)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fn(bad)
    with pytest.raises(ValueError, match="matrix"):
        as_comparator(np.ones(3))


def _random_segments(rng, T, d):
    """Segments over random cuts of [0, T), adjacent or with zero rows
    between them: corners with and without a scale, q vectors and sparse
    blocks of rows."""
    cuts = rng.choice(np.arange(1, T), size=int(rng.integers(1, 6)),
                      replace=False)
    ends = [0, *sorted(cuts.tolist()), T]
    segs = []
    for a, b in zip(ends[:-1], ends[1:]):
        kind = rng.integers(5)
        if kind == 1:
            segs.append(Segment(a, b, int(rng.integers(d))))
        elif kind == 2:
            segs.append(Segment(a, b, int(rng.integers(d)), rng.random(T)))
        elif kind == 3:
            segs.append(Segment(a, b, rng.random(d) * (rng.random(d) < 0.7)))
        elif kind == 4:
            rows = rng.random((b - a, d)) * (rng.random((b - a, d)) < 0.3)
            segs.append(Segment(a, b, rows))
    return segs


def test_comparator_stats_sum_rounds_exactly():
    rng = np.random.default_rng(12)
    for trial in range(40):
        T = 300 if trial == 0 else int(rng.integers(300, 2000))
        d = 1000 if trial == 0 else int(rng.integers(1, 40))
        segs = _random_segments(rng, T, d)
        u = np.zeros((T, d))
        for a, b, vec, scale in segs:
            if isinstance(vec, np.ndarray):
                u[a:b] = vec
            else:
                u[a:b, vec] = 1.0 if scale is None else scale[a:b]
        losses = rng.random((T, d))
        if trial % 2:
            losses = np.floor(2.0 * losses)
        exact = comparator_sums_exact(u, losses)
        for comparator in (segs, [Segment(0, T, u)]):
            masses, m, n, U_sum, L_sum = comparator_stats(comparator, losses)
            assert (m, U_sum, L_sum) == exact, (trial, len(comparator))
            assert np.array_equal(masses, u.sum(axis=1))
            assert n == u.max(axis=0).sum()
        assert regularity_m(u) == exact[0]


def test_adaptive_regret_examples():
    rng = np.random.default_rng(9)
    p1 = np.ones((6, 1))
    l1 = rng.random((6, 1))
    assert adaptive_regret(p1, l1, 3) == pytest.approx(0.0, abs=1e-12)

    assert adaptive_regret(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]),
                           1) == pytest.approx(0.5)

    # forecaster always on the unique constant best corner: zero regret
    losses = np.tile([0.2, 0.7, 0.9], (20, 1))
    p = np.tile([1.0, 0.0, 0.0], (20, 1))
    assert adaptive_regret(p, losses, 20) == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(ValueError):
        adaptive_regret(p, losses, 0)
    with pytest.raises(ValueError):
        adaptive_regret(p, losses, 21)


def test_adaptive_regret_matches_brute_force():
    rng = np.random.default_rng(13)
    for T, tau0 in ((60, 7), (200, 25), (200, 200)):
        d = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(d), size=T)
        losses = rng.random((T, d))
        fast = adaptive_regret(p, losses, tau0)
        slow = adaptive_regret_brute(p, losses, tau0)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_adaptive_regret_details_window():
    losses = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    p = np.tile([0.0, 1.0], (4, 1))  # always plays arm 2
    value, r, s, arm = adaptive_regret_details(p, losses, 2)
    assert value == pytest.approx(2.0)
    assert (r, s, arm) == (1, 2, 0)


def test_adaptive_regret_sliding_minimum_matches_brute_force():
    rng = np.random.default_rng(37)
    T = 90
    for d in (1, 2, 4):
        for tau0 in (1, T // 2, T):
            p = rng.dirichlet(np.ones(d), size=T)
            losses = rng.random((T, d))
            losses[rng.random(T) < 0.2] = 0.0
            value, r, s, arm = adaptive_regret_details(p, losses, tau0)
            assert value == pytest.approx(
                adaptive_regret_brute(p, losses, tau0), abs=1e-10)
            assert 1 <= r <= s <= T and s - r + 1 <= tau0
            window = (np.einsum("td,td->", p[r - 1:s], losses[r - 1:s])
                      - losses[r - 1:s, arm].sum())
            assert window == pytest.approx(value, abs=1e-10)


def test_adaptive_regret_tie_break_on_zero_loss_rows():
    # Rounds 2 and 4 have all-zero losses, so every best window can grow
    # over them at equal regret 0.5: windows (1, 1) and (1, 2) for arms 1
    # and 2, and (3, 3), (2, 3) and (3, 4) for arm 0.  The rule picks the
    # smallest width, then the earliest start, then the lowest arm.
    p = np.tile([0.5, 0.25, 0.25], (4, 1))
    losses = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                       [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    for tau0 in (1, 2, 4):
        assert adaptive_regret_details(p, losses, tau0) == (0.5, 1, 1, 1)
    # with the first round dropped, arm 0's one-round window beats its
    # equally good widenings over the zero rows on either side
    assert adaptive_regret_details(p[1:], losses[1:], 3) == (0.5, 2, 2, 0)


# The forecaster always plays the last action, so each action's regret in
# a round is the last column minus its own; halves keep every sum exact.
PLAY_LAST_TIES = {
    # action 0 gains 1 over rounds 1-2, action 1 as much in round 5 alone
    "equal value, different widths": (
        [[0, .5, .5], [0, .5, .5], [0, 0, 0], [0, 0, 0], [1, 0, 1], [0, 0, 0]],
        (1.0, 5, 5, 1)),
    # both gain 1 over two rounds; action 1's window starts first
    "equal width, different starts": (
        [[0, 0, 0], [.5, 0, .5], [.5, 0, .5], [0, .5, .5], [0, .5, .5],
         [0, 0, 0]],
        (1.0, 2, 3, 1)),
    # actions 1 and 2 have the same losses; action 0 gains less
    "equal everything, different actions": (
        [[.5, 0, 0, .5], [0, 0, 0, .5], [0, 0, 0, 0], [.5, .5, .5, .5]],
        (1.0, 1, 2, 1)),
}


@pytest.mark.parametrize("case", PLAY_LAST_TIES)
def test_adaptive_regret_ties_across_actions(case):
    rows, expected = PLAY_LAST_TIES[case]
    losses = np.array(rows, dtype=float)
    T, d = losses.shape
    p = np.zeros((T, d))
    p[:, -1] = 1.0
    for tau0 in (2, T):
        assert adaptive_regret_details(p, losses, tau0) == expected
        assert adaptive_regret_details_brute(p, losses, tau0) == expected


def test_adaptive_regret_ties_match_brute_force():
    # uniform play and losses in {0, 1/2, 1}: exact sums and many ties
    rng = np.random.default_rng(43)
    for _ in range(60):
        T, d = int(rng.integers(1, 16)), int(rng.choice([1, 2, 4]))
        losses = rng.integers(0, 3, size=(T, d)) / 2.0
        p = np.full((T, d), 1.0 / d)
        tau0 = int(rng.integers(1, T + 1))
        assert (adaptive_regret_details(p, losses, tau0)
                == adaptive_regret_details_brute(p, losses, tau0))


def test_adaptive_regret_wide_windows_match_brute_force():
    # tau0 = T scans one block; tau0 just above T/2 pads the last block
    # most.  One-hot play and losses in {0, 1/2, 1} keep every sum exact.
    rng = np.random.default_rng(59)
    for _ in range(80):
        T, d = int(rng.integers(1, 18)), int(rng.choice([1, 2, 3]))
        losses = rng.integers(0, 3, size=(T, d)) / 2.0
        p = np.eye(d)[rng.integers(0, d, size=T)]
        for tau0 in sorted({T // 2 + 1, max(1, T - 1), T}):
            assert (adaptive_regret_details(p, losses, tau0)
                    == adaptive_regret_details_brute(p, losses, tau0)), (
                        T, d, tau0)


def test_adaptive_regret_float_losses_on_the_compensated_path():
    rng = np.random.default_rng(47)
    T, d, tau0 = 10_000, 3, 3
    losses = rng.random((T, d))
    traj = run_forecaster(MixingRule.fixed_share(0.02), 0.3, losses)
    p = traj.played
    value, r, s, arm = adaptive_regret_details(traj, losses, tau0)
    want = adaptive_regret_details_brute(p, losses, tau0)
    assert value == pytest.approx(want[0], abs=1e-12)
    assert (r, s, arm) == want[1:]
    assert adaptive_regret_details(p, losses, tau0) == (value, r, s, arm)


def test_evaluators_refuse_a_batch():
    """An evaluator takes one run: a batch, even with its own losses, is
    refused with a message that points to ``rep(i)``."""
    batch = run_forecaster(MixingRule.fixed_share(0.1), 1.0,
                           np.random.default_rng(3).random((2, 6, 3)))
    for evaluate, arg in ((generalized_shifting_regret, np.ones((6, 3))),
                          (adaptive_regret, 2),
                          (discounted_regret, linear_up_discounts(6))):
        with pytest.raises(ValueError, match=r"one run.*rep\(i\)"):
            evaluate(batch, batch.losses, arg)
        evaluate(batch.rep(1), batch.losses[1], arg)


def test_evaluators_leave_their_inputs_unchanged():
    rng = np.random.default_rng(53)
    T, d = 10_000, 4
    losses = rng.random((T, d))
    u = rng.random((T, d))
    traj = run_forecaster(MixingRule.fixed_share(0.05), 0.5, losses)
    p = traj.played
    inputs = (losses, u, p, traj.log_p)
    kept = [a.copy() for a in inputs]
    regularity_m(u)
    for played in (traj, p):
        generalized_shifting_regret(played, losses, u)
    for played in (traj, p):
        for tau0 in (1, 100, T):
            adaptive_regret_details(played, losses, tau0)
    for a, b in zip(inputs, kept):
        assert np.array_equal(a, b)


def test_discounted_regret_examples():
    rng = np.random.default_rng(21)
    T, d = 40, 4
    p = rng.dirichlet(np.ones(d), size=T)
    losses = rng.random((T, d))
    ones = np.ones(T)
    best = losses.sum(axis=0).min()
    assert discounted_regret(p, losses, ones) == pytest.approx(
        np.einsum("td,td->", p, losses) - best, abs=1e-10)
    assert discounted_regret(p, losses, np.zeros(T)) == 0.0
    with pytest.raises(ValueError):
        discounted_regret(p, losses, np.ones(T + 1))
    with pytest.raises(ValueError):
        discounted_regret(p, losses, np.full(T, 1.5))


def test_discounted_equals_best_corner_shifting_regret():
    rng = np.random.default_rng(22)
    T, d = 30, 3
    p = rng.dirichlet(np.ones(d), size=T)
    losses = rng.random((T, d))
    betas = rng.random(T)
    direct = discounted_regret(p, losses, betas)
    via_corners = max(
        generalized_shifting_regret(p, losses,
                                    betas[:, None] * np.eye(d)[j][None, :])
        for j in range(d))
    assert direct == pytest.approx(via_corners, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_discounted_regret_details_equal_the_exact_oracle(d):
    # float losses, 0/1 losses, and a copy of the first column, where the
    # arm totals tie exactly and the lowest arm must win
    rng = np.random.default_rng(24 + d)
    T = 300
    p = rng.dirichlet(np.ones(d), size=T)
    for losses in (rng.random((T, d)), (rng.random((T, d)) < 0.3) * 1.0):
        if d > 1:
            losses[:, -1] = losses[:, 0]
        for betas in (linear_up_discounts(T), linear_down_discounts(T),
                      rng.random(T)):
            value, arm = discounted_regret_details(p, losses, betas)
            want, want_arm = discounted_regret_details_brute(p, losses, betas)
            assert arm == want_arm
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_discounted_regret_details_form_no_loss_sized_temporary():
    """The arm is the hindsight corner of u_t = beta_t e_j, summed in
    blocks, so the evaluator holds O(T) beside the inputs."""
    rng = np.random.default_rng(30)
    T, d = 20_000, 50
    losses = (rng.random((T, d)) < 0.3) * 1.0
    p = np.full((T, d), 1.0 / d)
    betas = linear_down_discounts(T)
    want = discounted_regret_details_brute(p, losses, betas)
    tracemalloc.start()
    try:
        value, arm = discounted_regret_details(p, losses, betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arm == want[1]
    assert value == pytest.approx(want[0], rel=1e-12, abs=1e-12)
    assert peak < 0.25 * losses.nbytes


def test_discount_regularity_identity():
    rng = np.random.default_rng(23)
    T = 50
    for betas in (linear_up_discounts(T), linear_down_discounts(T),
                  np.full(T, 0.4)):
        q = rng.dirichlet(np.ones(5))
        expected = max(betas[0], betas[-1])
        assert discount_regularity(betas, q) == pytest.approx(expected,
                                                              abs=1e-12)
    # non-monotone schedules break the identity
    betas = np.array([0.2, 0.9, 0.1])
    q = np.array([1.0, 0.0])
    assert discount_regularity(betas, q) == pytest.approx(0.2 + 0.7, abs=1e-12)


def _prefix(values, rows=None):
    """Prefix sums of ``values`` under a zero row, streamed through
    ``_RunningSums`` in blocks of ``rows`` rows (one block by default)."""
    T, k = values.shape
    sums, rows = _RunningSums(k), rows or T
    parts = [sums.extend(values[lo:lo + rows]) for lo in range(0, T, rows)]
    return np.concatenate([parts[0][:1]] + [part[1:] for part in parts])


def test_compensated_prefix_sums():
    rng = np.random.default_rng(29)
    values = rng.random((12_000, 2))
    pref = _prefix(values)
    for idx in (1, 5_000, 12_000):
        exact = [math.fsum(values[:idx, j]) for j in range(2)]
        assert np.allclose(pref[idx], exact, atol=1e-12)


def _prefix_cases(T: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(T)
    bits = (rng.random((T, 3)) < 0.4).astype(float)
    uniform = rng.random((T, 2))
    late = bits[:, :1].copy()
    late[T // 2:, 0] = rng.random(T - T // 2)
    signed = bits[:, 1:].copy()
    signed[0] = -0.0
    signed[1, 0] = -0.0
    return {
        "bits": bits,
        "uniform": uniform,
        "mixed": np.column_stack([bits[:, 0], uniform[:, 0], late, signed]),
        "exact_then_inexact": late,
        "leading_negative_zero": signed,
        "many_inexact": rng.random((T, 30)),
    }


@pytest.mark.parametrize("T", [9_999, 10_000])
def test_prefix_matches_plain_python_sums_bit_for_bit(T):
    # blocks of 1 and 7 rows carry the sums, and a column's switch to
    # Kahan's loop, across blocks; every length takes Kahan's sums
    for name, values in _prefix_cases(T).items():
        want = prefix_sums_brute(values)
        for rows in (1, 7, None):
            got = _prefix(values, rows)
            assert np.array_equal(got, want), (name, rows)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (name,
                                                                       rows)


def test_adaptive_regret_long_horizon_smoke():
    rng = np.random.default_rng(30)
    T, d = 12_000, 3
    losses = rng.random((T, d))
    traj = run_forecaster(MixingRule.fixed_share(0.01), 0.5, losses)
    value = adaptive_regret(traj, losses, 16)
    assert value >= 0.0
