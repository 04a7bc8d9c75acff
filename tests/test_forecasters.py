import tracemalloc

import numpy as np
import pytest

from simplexshare import (ForecasterState, MixingRule, as_loss_vector,
                          certificate_slacks, loss_update, mix_fixed_share,
                          mix_max_share, mix_projected, run_forecaster,
                          small_loss_certificate_slacks, step_time_varying)
from simplexshare import forecasters
from simplexshare.bounds import _weight_constants
from simplexshare.forecasters import _log_loss_step
from oracles import (decayed_max_brute, kl_project_argsort,
                     share_rounds_reference)


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
    assert np.array_equal(mix_fixed_share(v, np.array(0.5)),
                          mix_fixed_share(v, 0.5))
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
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        mix_max_share([0.5, 0.5], [0.8, 0.2], 0.5, gamma=-1.0)
    with pytest.raises(ValueError, match="auxiliary weights"):  # gave nan
        mix_max_share([np.nan, 0.5], [0.8, 0.2], 0.5)
    p, w = mix_max_share([0.5, 0.5], [0.8, 0.2], 0.5, gamma=0.0)
    assert np.allclose(w, [0.8, 0.5])  # gamma = 0: the plain running max


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


def test_projected_run_at_d1000_matches_sort_order_projection_loop():
    """run_forecaster's projected rounds at d = 1000 equal a hand-stepped loop
    that projects each round with the argsort oracle, bit for bit."""
    rng = np.random.default_rng(41)
    d, T, eta, alpha = 1000, 300, 0.5, 0.05
    losses = (rng.random((2, T, d)) < 0.5).astype(float)
    traj = run_forecaster(MixingRule.projected(alpha), eta, losses)
    for rep in range(2):
        log_p = [np.full(d, -np.log(d))]
        for loss in losses[rep]:
            v = np.exp(_log_loss_step(log_p[-1], eta * loss))
            log_p.append(np.log(kl_project_argsort(v, alpha)))
        assert np.array_equal(traj.log_p[rep], np.stack(log_p))
    # most rounds floor some entries
    floored = np.isclose(traj.p.min(axis=-1), alpha / d, rtol=1e-12)
    assert floored.mean() > 0.5


def test_trajectory_views_match_hand_stepped_state(monkeypatch):
    """Only log p, losses and the round parameters are stored; every
    other record, max-share's auxiliary weights included, is recomputed
    from them bit for bit, for single runs and batches alike, whether
    read in one block or in several."""
    rng = np.random.default_rng(23)
    d, T = 3, 15
    rules = (MixingRule.fixed_share(0.1), MixingRule.projected(0.2),
             MixingRule.max_share(0.1), MixingRule.decayed_max_share(0.1, 0.3),
             MixingRule.time_varying(lambda t: 1.0 / np.sqrt(t),
                                     lambda t: 0.5 / t),
             MixingRule.fixed_share(0.0), MixingRule.fixed_share(1.0),
             MixingRule.projected(0.0), MixingRule.projected(1.0),
             MixingRule.max_share(0.0), MixingRule.max_share(1.0),
             MixingRule.decayed_max_share(0.0, 2.0),
             MixingRule.decayed_max_share(1.0, 0.01),
             MixingRule.time_varying([0.9] * 5 + [0.5] * 10,
                                     [1.0] * 3 + [0.2] * 7 + [0.0] * 5))
    for rows in (None, 4):  # T = 15 rounds in one block, then in four
        if rows is not None:
            monkeypatch.setattr(forecasters, "_block_rows", lambda d: rows)
        for rule in rules:
            for shape in ((T, d), (3, T, d)):
                losses = rng.random(shape)
                traj = run_forecaster(rule, 0.8, losses)
                assert {name for name, value in vars(traj).items()
                        if isinstance(value, np.ndarray)} == {
                            "log_p", "losses", "etas", "alphas"}
                batch = len(shape) == 3
                records = (traj.p, traj.v, traj.log_v, traj.w, traj.realized)
                for i, loss in enumerate(losses.reshape(-1, T, d)):
                    p, v, log_v, w, realized = (
                        a[i] if batch and a is not None else a
                        for a in records)
                    if batch:
                        rep_w = traj.rep(i).w
                        assert (w is None and rep_w is None) or np.array_equal(
                            rep_w, w)
                    state = ForecasterState(d, rule, 0.8)
                    for t in range(T):
                        assert np.array_equal(p[t], state.p)
                        assert realized[t] == np.einsum("d,d->", state.p,
                                                        loss[t])
                        if w is not None:
                            assert np.array_equal(w[t], state.w)
                        state.update(loss[t])
                        assert np.array_equal(v[t], state.v)
                        assert np.array_equal(log_v[t], state.log_v)
                    assert np.array_equal(p[T], state.p)
                    if w is not None:
                        assert np.array_equal(w[T], state.w)


def _reference_cases(T):
    """(rule, eta, etas, alphas, gamma) for every rule at alpha 0, 0.05
    and 1; the time-varying runs have falling eta and alpha."""
    for alpha in (0.0, 0.05, 1.0):
        etas, alphas = [0.7] * T, [alpha] * T
        yield MixingRule.fixed_share(alpha), 0.7, etas, alphas, 0.0
        yield MixingRule.projected(alpha), 0.7, etas, alphas, 0.0
        yield MixingRule.max_share(alpha), 0.7, etas, alphas, 0.0
        for gamma in (0.01, 2.0):
            yield (MixingRule.decayed_max_share(alpha, gamma), 0.7, etas,
                   alphas, gamma)
        etas = [0.9 / np.sqrt(t) for t in range(1, T + 1)]
        alphas = [alpha / t for t in range(1, T + 1)]
        yield MixingRule.time_varying(etas, alphas), None, etas, alphas, 0.0


def test_round_step_matches_plain_numpy_reference_bit_for_bit():
    """run_forecaster (single runs, batches, adversary lists) and
    ForecasterState.update give log p, and max share's log w, bit for bit
    equal to a plain-numpy round loop that shares no library code."""
    rng = np.random.default_rng(53)
    adversaries = [lambda t, p: (p >= p.max()).astype(float),
                   lambda t, p: np.full(p.size, (t % 3) / 2.0)]
    for d, T in ((1, 12), (2, 30), (10, 40), (1000, 12)):
        losses = rng.random((3, T, d))
        losses[1] = losses[1] < 0.5  # 0/1 losses: ties and floored entries
        for rule, eta, etas, alphas, gamma in _reference_cases(T):
            def check(log_p, log_w, loss):
                ref_p, ref_w = share_rounds_reference(rule.variant, loss,
                                                      etas, alphas, gamma)
                assert np.array_equal(log_p, ref_p), (d, rule)
                assert (log_w is None) == (ref_w is None)
                assert ref_w is None or np.array_equal(log_w, ref_w)

            single = run_forecaster(rule, eta, losses[0])
            check(single.log_p, single.log_w, losses[0])
            batch = run_forecaster(rule, eta, losses)
            batch_w = batch.log_w
            for i in range(3):
                check(batch.log_p[i], None if batch_w is None else batch_w[i],
                      losses[i])
            played = run_forecaster(rule, eta, adversaries, d=d, horizon=T)
            for i in range(2):
                rep = played.rep(i)
                check(rep.log_p, rep.log_w, rep.losses)
            state = ForecasterState(d, rule, eta)
            log_p, log_w = [state.log_p], [state.log_w]
            for loss in losses[2]:
                state.update(loss)
                log_p.append(state.log_p)
                log_w.append(state.log_w)
            check(np.stack(log_p),
                  None if state.log_w is None else np.stack(log_w), losses[2])


@pytest.mark.parametrize("rule", [MixingRule.fixed_share(0.01),
                                  MixingRule.projected(0.01),
                                  MixingRule.decayed_max_share(0.01, 0.01)],
                         ids=lambda rule: rule.variant)
def test_long_horizon_weights_stay_normalized(rule):
    """Over 1e5 rounds each log p_t, normalized only by its loss step, has
    logsumexp within 1e-12 of 0 and each p_t sums to 1 within 1e-12.
    Time-varying shares fixed share's mix, and max share is decayed max
    share at gamma = 0."""
    rng = np.random.default_rng(71)
    T, d = 100_000, 4
    losses = (rng.random((T, d)) < [0.2, 0.5, 0.5, 0.5]).astype(float)
    traj = run_forecaster(rule, 0.5, losses)
    m = traj.log_p.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(traj.log_p - m).sum(axis=-1))
    assert np.abs(lse).max() <= 1e-12
    assert np.abs(traj.p.sum(axis=-1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("rule, per_round", [
    (MixingRule.fixed_share(0.05), 1),
    (MixingRule.projected(0.3), 1),
    (MixingRule.time_varying(lambda t: 0.7 / np.sqrt(t),
                             lambda t: 0.5 / t), 1),
    (MixingRule.max_share(0.05), 2),
    (MixingRule.decayed_max_share(0.05, 0.1), 2)],
    ids=lambda x: getattr(x, "variant", ""))
def test_each_round_normalizes_once_in_its_loss_step(monkeypatch, rule,
                                                     per_round):
    """A round's one logsumexp is its loss step's; the max-share rules add
    ln Z of the auxiliary weights.  No mix renormalizes."""
    calls, logsumexp = [], forecasters._logsumexp
    monkeypatch.setattr(forecasters, "_logsumexp",
                        lambda *a: calls.append(1) or logsumexp(*a))
    T = 25
    losses = np.random.default_rng(73).random((2, T, 5))
    run_forecaster(rule, 0.7, losses)
    assert len(calls) == per_round * T


def test_round_loop_peak_memory_stays_near_the_record():
    """No T x d temporary and no transposing copy: the traced peak of a
    run stays within 10% of its log p record."""
    rng = np.random.default_rng(61)
    losses = (rng.random((2, 300, 1000)) < 0.5).astype(float)
    for rule in (MixingRule.fixed_share(0.05), MixingRule.projected(0.05),
                 MixingRule.max_share(0.05),
                 MixingRule.decayed_max_share(0.05, 0.01),
                 MixingRule.time_varying(lambda t: 0.5 / np.sqrt(t),
                                         lambda t: 0.05 / t)):
        tracemalloc.start()
        try:
            traj = run_forecaster(rule, 0.5, losses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * traj.log_p.nbytes, rule.variant


def _traced(read, traj):
    """What ``read(traj)`` returns, and the traced peak of forming it."""
    tracemalloc.start()
    try:
        out = read(traj)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certificates_and_log_v_hold_no_extra_record():
    """Over a batch of 32 MB per T x d, both certificates peak below a
    tenth of one T x d and ``log_v`` within 10% of its own output."""
    rng = np.random.default_rng(67)
    losses = (rng.random((2, 2000, 1000)) < 0.5).astype(float)
    for rule in (MixingRule.fixed_share(0.05),
                 MixingRule.time_varying(lambda t: 0.5 / np.sqrt(t),
                                         lambda t: 0.05 / t)):
        traj = run_forecaster(rule, 0.5, losses)
        reads = [certificate_slacks]
        if rule.variant != "time_varying":
            reads.append(small_loss_certificate_slacks)
        for read in reads:
            peak = _traced(read, traj)[1]
            assert peak < 0.1 * losses.nbytes, (rule.variant, read.__name__)
        log_v, peak = _traced(lambda traj: traj.log_v, traj)
        assert peak <= 1.1 * log_v.nbytes, rule.variant


def test_rep_needs_a_batched_trajectory():
    traj = run_forecaster(MixingRule.fixed_share(0.1), 1.0, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="batched trajectory"):
        traj.rep(1)
    batch = run_forecaster(MixingRule.fixed_share(0.1), 1.0,
                           np.zeros((2, 4, 3)))
    assert np.array_equal(batch.rep(1).log_p, traj.log_p)


def test_state_arrays_keep_their_values_after_later_updates():
    rng = np.random.default_rng(31)
    d = 4
    names = ("log_p", "log_v", "log_w", "p", "v", "w")
    for rule in (MixingRule.fixed_share(0.1), MixingRule.fixed_share(0.0),
                 MixingRule.projected(0.2), MixingRule.max_share(0.1),
                 MixingRule.decayed_max_share(0.1, 0.3),
                 MixingRule.time_varying(lambda t: 1.0 / t, lambda t: 0.5 / t)):
        for reps in (None, 2):
            state = ForecasterState(d, rule, 0.8, reps=reps)
            held = []
            for t in range(6):
                arrays = [getattr(state, name) for name in names]
                held.append((arrays, [None if a is None else a.copy()
                                      for a in arrays]))
                state.update(rng.random(d))
                for arrays, copies in held:
                    for name, a, c in zip(names, arrays, copies):
                        assert (a is None and c is None) or np.array_equal(
                            a, c), (rule.variant, reps, name)


@pytest.mark.parametrize("rule, losses, message", [
    (MixingRule.time_varying([0.5, 0.9, 0.9], [0.1] * 3), np.zeros((3, 2)),
     "eta_t > eta_prev"),
    (MixingRule.time_varying([0.5] * 3, [0.1, 0.2, 0.2]), np.zeros((3, 2)),
     "alpha_t > alpha_prev"),
    (MixingRule.time_varying([0.5, float("nan"), 0.5], [0.1] * 3),
     np.zeros((3, 2)), "at t=2 must be positive and finite"),
    (MixingRule.fixed_share(0.1), lambda t, p: np.zeros(3), r"shape \(3,\)"),
    (MixingRule.fixed_share(0.1), lambda t, p: np.array([0.5, 1.5]),
     r"\[0, 1\]"),
    (MixingRule.fixed_share(0.1), lambda t, p: np.array([0.5, np.inf]),
     "finite"),
])
def test_per_round_checks_still_raise(rule, losses, message):
    kwargs = {"d": 2, "horizon": 3} if callable(losses) else {}
    with pytest.raises(ValueError, match=message):
        run_forecaster(rule, 1.0, losses, **kwargs)
    if callable(losses):
        with pytest.raises(ValueError, match=message):
            run_forecaster(rule, 1.0, [losses, losses], **kwargs)


@pytest.mark.parametrize("bad, message", [
    (np.nan, "loss entries must be finite"),
    (np.inf, "loss entries must be finite"),
    (-np.inf, "loss entries must be finite"),
    (-0.1, r"loss entries must lie in \[0, 1\]"),
    (1.1, r"loss entries must lie in \[0, 1\]"),
])
def test_loss_checks_keep_their_messages(bad, message):
    losses = np.full((2, 4, 3), 0.5)
    losses[1, 2, 0] = bad
    with pytest.raises(ValueError, match=f"^{message}$"):
        as_loss_vector([0.5, bad, 0.2])
    for batch in (losses, losses[1]):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_forecaster(MixingRule.fixed_share(0.1), 1.0, batch)
    # a non-finite entry is reported as such next to an out-of-range one
    losses[0, 0, 0] = 2.0
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_forecaster(MixingRule.fixed_share(0.1), 1.0, losses)


def test_loss_checks_accept_the_closed_interval():
    losses = np.array([[-0.0, 1.0], [0.0, 0.25]])
    assert np.array_equal(as_loss_vector(losses[0]), losses[0])
    traj = run_forecaster(MixingRule.fixed_share(0.1), 1.0, losses)
    assert traj.T == 2
    assert run_forecaster(MixingRule.fixed_share(0.1), 1.0,
                          np.zeros((0, 3))).T == 0


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


def _q_form_slacks(log_p, losses, etas, q, small_loss=False):
    """Both certificates' (T, n_q) slacks, written out per comparison
    distribution q from the record alone: log v_{t+1} is the loss update
    (eta_t/eta_{t-1}) log p_t - eta_t l_t, normalized."""
    T, d = losses.shape
    eta = etas[:, None]
    eta_prev = np.concatenate([etas[:1], etas[:-1]])[:, None]
    log_p = log_p[:T]
    pre = eta / eta_prev * log_p - eta * losses
    top = pre.max(axis=1, keepdims=True)
    log_v = pre - top - np.log(np.exp(pre - top).sum(axis=1, keepdims=True))
    played = (np.exp(log_p) * losses).sum(axis=1)[:, None]
    if small_loss:
        return ((log_v - log_p) @ q.T / eta
                - (-np.expm1(-eta) / eta * played - losses @ q.T))
    return ((log_v / eta - log_p / eta_prev) @ q.T
            + (1.0 / eta - 1.0 / eta_prev) * np.log(d) + eta_prev / 8.0
            - (played - losses @ q.T))


def test_certificates_are_one_number_per_round_for_every_q():
    """Every column of the q-form certificates is the one (T,) slack."""
    rng = np.random.default_rng(71)
    T = 40
    for d in (1, 2, 50):
        q = np.vstack([random_q(rng, d, 50), np.eye(d)])
        losses = rng.random((T, d))
        for rule, eta, _, _, _ in _reference_cases(T):
            traj = run_forecaster(rule, eta, losses)
            forms = [(certificate_slacks, False)]
            if rule.variant != "time_varying":
                forms.append((small_loss_certificate_slacks, True))
            for slacks, small_loss in forms:
                got = slacks(traj)
                assert got.shape == (T,)
                np.testing.assert_allclose(
                    _q_form_slacks(traj.log_p, losses, traj.etas, q,
                                   small_loss),
                    np.broadcast_to(got[:, None], (T, len(q))), rtol=0.0,
                    atol=1e-12, err_msg=f"{d} {rule} {slacks.__name__}")


def test_certificates_across_rules():
    rng = np.random.default_rng(17)
    d, T = 4, 60
    losses = rng.random((T, d))
    rules = [MixingRule.fixed_share(0.05), MixingRule.projected(0.1),
             MixingRule.max_share(0.2),
             MixingRule.decayed_max_share(0.2, 0.07)]
    for eta in (0.1, 1.0, 3.0):
        for rule in rules:
            traj = run_forecaster(rule, eta, losses)
            assert certificate_slacks(traj).min() >= -1e-9
            assert small_loss_certificate_slacks(traj).min() >= -1e-9


def test_varying_rate_certificate():
    rng = np.random.default_rng(23)
    d, T = 5, 120
    losses = rng.random((T, d))
    rule = MixingRule.time_varying(
        lambda t: 1.5 / np.sqrt(t), lambda t: 0.4 / t)
    traj = run_forecaster(rule, None, losses)
    slacks = certificate_slacks(traj)
    assert slacks.shape == (T,) and slacks.min() >= -1e-9


def test_small_loss_certificate_needs_a_constant_rate():
    """A varying eta is refused; a time-varying rule whose eta is constant
    and only alpha varies is certified like fixed share."""
    losses = np.random.default_rng(73).random((30, 3))
    rule = MixingRule.time_varying([1.0, 0.5, 0.25], [0.1] * 3)
    traj = run_forecaster(rule, None, losses[:3])
    with pytest.raises(ValueError, match="needs a constant rate"):
        small_loss_certificate_slacks(traj)
    rule = MixingRule.time_varying([0.8] * 30, [0.5 / t for t in range(1, 31)])
    traj = run_forecaster(rule, None, losses)
    slacks = small_loss_certificate_slacks(traj)
    assert slacks.shape == (30,) and slacks.min() >= -1e-9
    q = np.vstack([random_q(np.random.default_rng(79), 3, 10), np.eye(3)])
    np.testing.assert_allclose(
        _q_form_slacks(traj.log_p, losses, traj.etas, q, True),
        np.broadcast_to(slacks[:, None], (30, len(q))), rtol=0.0, atol=1e-12)


def test_certificates_of_a_batch_stack_the_runs():
    rng = np.random.default_rng(41)
    R, T, d = 3, 5, 4
    losses = rng.random((R, T, d))
    cases = [(MixingRule.fixed_share(0.1), 0.7, certificate_slacks),
             (MixingRule.max_share(0.2), 0.7, small_loss_certificate_slacks),
             (MixingRule.time_varying(lambda t: 1.0 / np.sqrt(t),
                                      lambda t: 0.3 / t), None,
              certificate_slacks)]
    for rule, eta, slacks in cases:
        batch = run_forecaster(rule, eta, losses)
        got = slacks(batch)
        assert got.shape == (R, T)
        singles = [slacks(run_forecaster(rule, eta, losses[i]))
                   for i in range(R)]
        assert np.array_equal(got, np.stack(singles)), slacks.__name__
        assert np.array_equal(got, np.stack([slacks(batch.rep(i))
                                             for i in range(R)]))


def test_short_sequence_schedule_names_the_round():
    rule = MixingRule.time_varying([0.5, 0.4], [0.1, 0.1])
    for losses in (np.zeros((3, 2)), np.zeros((2, 3, 2))):
        with pytest.raises(ValueError, match="t=3"):
            run_forecaster(rule, None, losses)


def test_schedule_errors_surface_before_round_1():
    """Every (eta_t, alpha_t) is read and checked before the first round
    is played, so a bad last value costs no adversary call."""
    calls = []

    def adversary(t, p):
        calls.append(t)
        return np.zeros(2)

    rule = MixingRule.time_varying([0.5] * 4 + [np.nan], [0.1] * 5)
    with pytest.raises(ValueError, match="eta schedule at t=5"):
        run_forecaster(rule, None, adversary, d=2, horizon=5)
    assert calls == []


def test_time_varying_schedule_violation():
    rule = MixingRule.time_varying(lambda t: float(t), lambda t: 0.1)
    with pytest.raises(ValueError):
        run_forecaster(rule, None, np.zeros((3, 2)))


def test_max_share_sandwich_conditions():
    rng = np.random.default_rng(31)
    corner = np.zeros((400, 10))  # a loss-1 corner rotating every 5 rounds
    corner[np.arange(400), np.arange(400) // 5 % 10] = 1.0
    for losses, eta, alpha in ((rng.random((150, 6)), 1.5, 0.15),
                               (corner, 2.0, 0.05)):
        T, d = losses.shape
        for gamma in (0.0, 0.05, 0.7, 1.0, 2.0, 5.0):
            if gamma == 0.0:
                rule = MixingRule.max_share(alpha)
            else:
                rule = MixingRule.decayed_max_share(alpha, gamma)
            traj = run_forecaster(rule, eta, losses)
            w = traj.w
            assert np.all(w[1:] >= traj.v - 1e-12)
            assert np.all(w <= 1.0 + 1e-12)
            assert np.all(np.exp(gamma) * w[1:] >= w[:-1] - 1e-12)
            # w_{t+1} <= e^-gamma w_t + v_{t+1} and Z_1 = 1, so Z_t <= min(d,
            # sum_{k<t} e^-gamma k), the sum being at most t
            z = w.sum(axis=1)
            geometric = np.cumsum(np.exp(-gamma * np.arange(T + 1)))
            assert np.all(z <= np.minimum(d, geometric) + 1e-9)
            # w_1..w_T make the played p_t
            assert z[:T].max() <= _weight_constants(d, T, gamma)[1] + 1e-9


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
