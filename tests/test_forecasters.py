import numpy as np
import pytest

from simplexshare import (ForecasterState, MixingRule, certificate_slacks,
                          loss_update, mix_fixed_share, mix_max_share,
                          mix_projected, run_forecaster,
                          small_loss_certificate_slacks, step_time_varying,
                          varying_rate_certificate_slacks)
from oracles import decayed_max_brute


def random_q(rng, d, count):
    return rng.dirichlet(np.ones(d), size=count)


def test_loss_update_examples():
    p = np.array([0.3, 0.7])
    assert np.allclose(loss_update(p, [0.4, 0.4], 1.3), p)  # equal losses
    assert np.allclose(loss_update([0.5, 0.5], [1, 0], np.log(2)),
                       [1 / 3, 2 / 3], atol=1e-15)
    assert np.allclose(loss_update([0.25, 0.75], [0, 1], np.log(3)),
                       [0.5, 0.5], atol=1e-15)


def test_loss_update_errors():
    with pytest.raises(ValueError):
        loss_update([0.5, 0.5], [0.5, 0.5], 0.0)
    with pytest.raises(ValueError):
        loss_update([0.5, 0.5], [1.2, 0.0], 1.0)
    with pytest.raises(ValueError):
        loss_update([0.5, 0.5], [-0.1, 0.0], 1.0)


def test_mix_fixed_share_examples():
    v = np.array([1 / 3, 2 / 3])
    assert np.allclose(mix_fixed_share(v, 0.0), v)
    assert np.allclose(mix_fixed_share(v, 1.0), [0.5, 0.5])
    assert np.allclose(mix_fixed_share(v, 0.5), [5 / 12, 7 / 12], atol=1e-15)
    with pytest.raises(ValueError):
        mix_fixed_share(v, 1.5)


def test_mix_projected_examples():
    v = np.array([0.55, 0.45])
    assert np.allclose(mix_projected(v, 0.4), v)
    assert np.allclose(mix_projected([0.9, 0.1], 0.4), [0.8, 0.2], atol=1e-12)
    assert np.allclose(mix_projected([0.85, 0.10, 0.05], 0.3),
                       [0.8, 0.1, 0.1], atol=1e-12)


def test_mix_max_share_examples():
    d = 3
    u = np.full(d, 1 / 3)
    for alpha in (0.0, 0.3, 1.0):
        p, w = mix_max_share(u, u, alpha)
        assert np.allclose(p, u, atol=1e-15)
        assert np.allclose(w, u)
    p, w = mix_max_share([0.5, 0.5], [0.8, 0.2], 0.5)
    assert np.allclose(w, [0.8, 0.5])
    assert np.allclose(p, [0.7076923076923077, 0.29230769230769227],
                       atol=1e-12)
    p, w = mix_max_share([0.5, 0.5], [0.8, 0.2], 0.5, gamma=np.log(2))
    assert np.allclose(w, [0.8, 0.25], atol=1e-15)
    assert w.sum() == pytest.approx(1.05, abs=1e-15)
    with pytest.raises(ValueError):
        mix_max_share([0.5, 0.5], [0.8, 0.2], 1.5)
    with pytest.raises(ValueError):
        mix_max_share([0.5, 0.5], [0.8, 0.2], 0.5, gamma=-1.0)


def test_step_time_varying_examples():
    p = np.array([0.21, 0.79])
    loss = np.array([0.7, 0.2])
    eta = 1.3
    p_const, v_const = step_time_varying(p, loss, eta, eta, 0.25)
    v_ref = loss_update(p, loss, eta)
    assert np.array_equal(v_const, v_ref)
    assert np.allclose(p_const, mix_fixed_share(v_ref, 0.25), atol=1e-15)

    u = np.full(4, 0.25)
    _, v = step_time_varying(u, np.zeros(4), 0.5, 2.0, 0.1)
    assert np.allclose(v, u, atol=1e-15)

    _, v = step_time_varying([0.25, 0.75], [0, 0], 1.0, 2.0, 0.0)
    assert np.allclose(v, [0.36602540378443865, 0.6339745962155613],
                       atol=1e-15)

    with pytest.raises(ValueError):
        step_time_varying([0.5, 0.5], [0, 0], 2.0, 1.0, 0.1)


def test_run_forecaster_initialization_and_degenerate_cases():
    traj = run_forecaster(MixingRule.fixed_share(0.1), 1.0, np.empty((0, 4)))
    assert traj.T == 0
    assert np.allclose(traj.p, [[0.25, 0.25, 0.25, 0.25]])

    losses = np.random.default_rng(0).random((13, 1))
    traj = run_forecaster(MixingRule.fixed_share(0.2), 1.0, losses)
    assert np.allclose(traj.played, 1.0)
    assert np.allclose(traj.realized, losses[:, 0])

    with pytest.raises(ValueError):
        run_forecaster(MixingRule.fixed_share(0.1), 1.0, [])


def test_run_forecaster_chained_example():
    traj = run_forecaster(MixingRule.fixed_share(0.5), np.log(2),
                          [[1, 0], [1, 0]])
    assert np.allclose(traj.p[0], [0.5, 0.5])
    assert np.allclose(traj.v[0], [1 / 3, 2 / 3], atol=1e-15)
    assert np.allclose(traj.p[1], [5 / 12, 7 / 12], atol=1e-15)
    assert traj.realized[1] == pytest.approx(5 / 12, abs=1e-15)


def test_trajectory_views_match_hand_stepped_state():
    """Only log weights are stored; every other record is recomputed
    from them bit for bit, for single runs and batches alike."""
    rng = np.random.default_rng(23)
    d, T = 3, 15
    rules = (MixingRule.fixed_share(0.1), MixingRule.projected(0.2),
             MixingRule.max_share(0.1), MixingRule.decayed_max_share(0.1, 0.3),
             MixingRule.time_varying(lambda t: 1.0 / np.sqrt(t),
                                     lambda t: 0.5 / t))
    for rule in rules:
        stored = {"log_p", "losses", "etas", "alphas"}
        if rule.variant in ("max_share", "decayed_max_share"):
            stored.add("log_w")
        for shape in ((T, d), (3, T, d)):
            losses = rng.random(shape)
            traj = run_forecaster(rule, 0.8, losses)
            assert {name for name, value in vars(traj).items()
                    if isinstance(value, np.ndarray)} == stored
            batch = len(shape) == 3
            records = (traj.p, traj.v, traj.log_v, traj.w, traj.realized)
            for i, loss in enumerate(losses.reshape(-1, T, d)):
                p, v, log_v, w, realized = (
                    a[i] if batch and a is not None else a for a in records)
                state = ForecasterState(d, rule, 0.8)
                for t in range(T):
                    assert np.array_equal(p[t], state.p)
                    assert realized[t] == state.p @ loss[t]
                    if w is not None:
                        assert np.array_equal(w[t], state.w)
                    state.update(loss[t])
                    assert np.array_equal(v[t], state.v)
                    assert np.array_equal(log_v[t], state.log_v)
                assert np.array_equal(p[T], state.p)
                if w is not None:
                    assert np.array_equal(w[T], state.w)


def test_run_forecaster_dimension_mismatch_midstream():
    def bad_adversary(t, p):
        return np.zeros(3) if t > 1 else np.zeros(2)

    with pytest.raises(ValueError):
        run_forecaster(MixingRule.fixed_share(0.1), 1.0, bad_adversary,
                       d=2, horizon=3)


def test_weight_floor_for_sharing_rules():
    rng = np.random.default_rng(5)
    losses = rng.random((80, 6))
    for rule in (MixingRule.fixed_share(0.3), MixingRule.projected(0.3)):
        traj = run_forecaster(rule, 2.0, losses)
        assert traj.p[1:].min() >= 0.3 / 6 - 1e-12


def test_certificates_across_rules():
    rng = np.random.default_rng(17)
    d, T = 4, 60
    losses = rng.random((T, d))
    q = random_q(rng, d, 50)
    rules = [MixingRule.fixed_share(0.05), MixingRule.projected(0.1),
             MixingRule.max_share(0.2),
             MixingRule.decayed_max_share(0.2, 0.07)]
    for eta in (0.1, 1.0, 3.0):
        for rule in rules:
            traj = run_forecaster(rule, eta, losses)
            assert certificate_slacks(traj, q).min() >= -1e-9
            assert small_loss_certificate_slacks(traj, q).min() >= -1e-9


def test_varying_rate_certificate():
    rng = np.random.default_rng(23)
    d, T = 5, 120
    losses = rng.random((T, d))
    rule = MixingRule.time_varying(
        lambda t: 1.5 / np.sqrt(t), lambda t: 0.4 / t)
    traj = run_forecaster(rule, None, losses)
    q = random_q(rng, d, 50)
    assert varying_rate_certificate_slacks(traj, q).min() >= -1e-9


def test_time_varying_schedule_violation():
    rule = MixingRule.time_varying(lambda t: float(t), lambda t: 0.1)
    with pytest.raises(ValueError):
        run_forecaster(rule, None, np.zeros((3, 2)))


def test_max_share_sandwich_conditions():
    rng = np.random.default_rng(31)
    d, T = 6, 150
    losses = rng.random((T, d))
    for gamma in (None, 0.05, 0.7):
        if gamma is None:
            rule, C = MixingRule.max_share(0.15), 1.0
        else:
            rule, C = MixingRule.decayed_max_share(0.15, gamma), np.exp(gamma)
        traj = run_forecaster(rule, 1.5, losses)
        w = traj.w
        assert np.all(w[1:] >= traj.v - 1e-12)
        assert np.all(w <= 1.0 + 1e-12)
        assert np.all(C * w[1:] >= w[:-1] - 1e-12)
        z = w.sum(axis=1)
        if gamma is None:
            limits = np.minimum(d, np.arange(1, T + 2))
        else:
            limits = np.full(T + 1, min(d, 1.0 / gamma))
        assert np.all(z <= limits + 1e-9)


def test_decayed_max_matches_definitional_brute_force():
    rng = np.random.default_rng(41)
    d, T, gamma = 5, 200, 0.11
    losses = rng.random((T, d))
    traj = run_forecaster(MixingRule.decayed_max_share(0.2, gamma), 1.0,
                          losses)
    # w rows 1.. hold the recursive max over v_1..v_{t}; rebuild the
    # pre-weight history (v_1 = uniform, then traj.v) and compare
    history = np.vstack([np.full(d, 1.0 / d), traj.v])
    expected = decayed_max_brute(history, gamma)
    assert np.max(np.abs(traj.w - expected)) <= 1e-12


def test_time_varying_constant_equals_fixed_share():
    rng = np.random.default_rng(47)
    d, T, eta, alpha = 3, 500, 0.8, 0.12
    losses = rng.random((T, d))
    fs = run_forecaster(MixingRule.fixed_share(alpha), eta, losses)
    tv = run_forecaster(
        MixingRule.time_varying(lambda t: eta, lambda t: alpha), None, losses)
    assert np.max(np.abs(fs.p - tv.p)) <= 1e-14
    assert np.max(np.abs(fs.v - tv.v)) <= 1e-14


def test_sequence_schedules():
    T = 10
    etas = [1.0 / np.sqrt(t) for t in range(1, T + 1)]
    alphas = [0.3 / t for t in range(1, T + 1)]
    rule = MixingRule.time_varying(etas, alphas)
    traj = run_forecaster(rule, None, np.random.default_rng(3).random((T, 2)))
    assert np.allclose(traj.etas, etas)
    assert np.allclose(traj.alphas, alphas)
