import math

import numpy as np
import pytest

from simplexshare import (anytime_adaptive_bound, anytime_schedules,
                          bound_adaptive, bound_decayed_max_share,
                          bound_fixed_share, bound_max_share, bound_projected,
                          bound_shared_weights, bound_time_varying,
                          decayed_max_share_gamma, fixed_share_envelope,
                          tune_fixed_share, tune_small_loss)


def test_bound_projected_examples():
    assert bound_projected(5, 1.0, 1e-9, 0.0, 0.0, 0.0) == pytest.approx(0.0)
    assert bound_projected(2, 1.0, 0.1, 1.0, 10.0, 1.0) == pytest.approx(
        5.938879454113936, abs=1e-12)
    base = bound_projected(7, 1.3, 0.2, 2.0, 30.0, 1.0)
    bumped = bound_projected(7, 1.3, 0.2, 3.0, 30.0, 1.0)
    assert bumped - base == pytest.approx(math.log(7 / 0.2) / 1.3, abs=1e-12)


def test_bound_fixed_share_examples():
    assert bound_fixed_share(2, 1.0, 0.1, 1.0, 10.0, 1.0) == pytest.approx(
        5.7817635793765465, abs=1e-12)
    # alpha -> 0 with m = 0 recovers the plain exponential-weights bound
    assert bound_fixed_share(4, 2.0, 0.0, 0.0, 12.0, 1.0) == pytest.approx(
        math.log(4) / 2.0 + 2.0 * 12.0 / 8.0, abs=1e-12)
    # m equal to the post-round-1 mass kills the last term
    full_shift = bound_fixed_share(4, 1.0, 0.3, 9.0, 10.0, 1.0)
    assert full_shift == pytest.approx(
        math.log(4) + 10.0 / 8.0 + 9.0 * math.log(4 / 0.3), abs=1e-12)
    with pytest.raises(ValueError):
        bound_fixed_share(4, 1.0, 0.3, 9.5, 10.0, 1.0)


def test_tune_fixed_share_examples():
    eta, alpha, bound = tune_fixed_share(10, 2.0, 100.0)
    assert alpha == pytest.approx(0.02)
    assert eta == pytest.approx(1.0736510238978507, abs=1e-12)
    assert bound == pytest.approx(26.84127559744627, abs=1e-12)
    # m0 = U0 boundary: full sharing, budget reduces to m0 ln d
    eta1, alpha1, bound1 = tune_fixed_share(5, 7.0, 7.0)
    assert alpha1 == 1.0
    assert bound1 == pytest.approx(math.sqrt(7.0 * 7.0 * math.log(5) / 2.0))
    with pytest.raises(ValueError):
        tune_fixed_share(5, 8.0, 7.0)


def test_tune_fixed_share_relaxed_form():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.integers(2, 200))
        U0 = float(rng.uniform(1.0, 1e4))
        m0 = float(rng.uniform(1e-3, 1.0)) * U0
        bound = tune_fixed_share(d, m0, U0).bound
        relaxed = math.sqrt(U0 * m0 / 2.0
                            * (math.log(d) + math.log(math.e * U0 / m0)))
        assert bound <= relaxed + 1e-9


def test_tuning_is_a_local_minimum_of_the_envelope():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(2, 50))
        U0 = float(rng.uniform(10.0, 5e3))
        m0 = float(rng.uniform(0.01, 0.5)) * U0
        eta, alpha, bound = tune_fixed_share(d, m0, U0)
        center = fixed_share_envelope(d, m0, U0, eta, alpha)
        assert center == pytest.approx(bound, rel=1e-12)
        for scale in (0.99, 1.01):
            assert fixed_share_envelope(d, m0, U0, eta * scale,
                                        alpha) >= center - 1e-9
            assert fixed_share_envelope(d, m0, U0, eta,
                                        alpha * scale) >= center - 1e-9


def test_bound_adaptive_examples():
    exact, relaxed = bound_adaptive(7, 1)
    assert exact == pytest.approx(math.sqrt(0.5 * math.log(7)), abs=1e-12)
    exact, relaxed = bound_adaptive(2, 8)
    assert exact == pytest.approx(3.850874430885245, abs=1e-12)
    assert relaxed == pytest.approx(3.8846305987775884, abs=1e-12)
    with pytest.raises(ValueError):
        bound_adaptive(2, 0)


def test_bound_adaptive_exact_below_relaxed_scan():
    for d in (2, 5, 17, 101, 1000):
        for tau0 in (1, 2, 3, 10, 100, 1234, 10_000):
            exact, relaxed = bound_adaptive(d, tau0)
            assert exact <= relaxed + 1e-12


def test_tune_small_loss_examples():
    eta, alpha, bound = tune_small_loss(10, 2.0, 100.0, 10.0)
    budget = math.log(10) + math.log(math.e * 100.0 / 2.0)
    assert budget == pytest.approx(7.214608098422192, abs=1e-12)
    assert bound == pytest.approx(19.2267753453616, abs=1e-12)
    assert alpha == pytest.approx(0.02)
    assert eta == pytest.approx(math.log1p(math.sqrt(2 * 2.0 * budget / 10.0)),
                                abs=1e-12)
    # zero loss cap: the bound collapses to the additive budget and the
    # rate degenerates
    eta0, _, bound0 = tune_small_loss(10, 2.0, 100.0, 0.0)
    assert bound0 == pytest.approx(budget, abs=1e-12)
    assert math.isinf(eta0)


def test_small_loss_crossover_with_horizon_tuning():
    d, m0, U0 = 10, 2.0, 100.0
    horizon_bound = tune_fixed_share(d, m0, U0).bound
    values = [tune_small_loss(d, m0, U0, L0).bound
              for L0 in np.linspace(0.0, U0, 41)]
    assert values == sorted(values)  # monotone in L0
    assert values[1] < horizon_bound  # wins when losses are small
    assert values[-1] > horizon_bound  # loses at full-horizon loss


def test_bound_shared_weights_examples():
    assert bound_shared_weights(100, 50, 1.0, 0.1, 3.0, 2.0, 50.0, 1.0, 50.0,
                                1.0) == pytest.approx(38.95074838750277,
                                                      abs=1e-12)
    # C = 1 collapses the decay term
    with_c = bound_shared_weights(10, 20, 1.0, 0.2, 2.0, 3.0, 20.0,
                                  math.e, 10.0, 1.0)
    without_c = bound_shared_weights(10, 20, 1.0, 0.2, 2.0, 3.0, 20.0,
                                     1.0, 10.0, 1.0)
    assert with_c - without_c == pytest.approx(3.0 * 20.0, abs=1e-12)
    with pytest.raises(ValueError):
        bound_shared_weights(10, 20, 1.0, 0.2, 2.0, 3.0, 20.0, 0.5, 10.0)


def test_bound_max_share_caps_normalizers_at_min_d_T():
    d, T, eta, alpha, m, n = 50, 1000, 0.5, 0.01, 5.0, 3.0
    assert bound_max_share(d, T, eta, alpha, m, n) == bound_shared_weights(
        d, T, eta, alpha, m, n, float(T), 1.0, float(min(d, T)), 1.0)


def test_decayed_max_share_tuning_identity():
    # at gamma = m0/(n0 T) the decay penalty n0 T ln C equals m0 exactly
    d, T, eta, alpha, m0, n0 = 200, 100, 2.0, 0.1, 9.0, 2.0
    gamma = decayed_max_share_gamma(m0, n0, T)
    tuned = bound_decayed_max_share(d, T, eta, alpha, m0, n0)
    same_z_no_decay = bound_shared_weights(
        d, T, eta, alpha, m0, n0, float(T), 1.0,
        min(float(d), 1.0 / gamma), 1.0)
    assert tuned - same_z_no_decay == pytest.approx(m0 / eta, abs=1e-12)


def test_decayed_improves_on_plain_max_share_when_sparse():
    d, T, eta, alpha = 200, 100, 2.0, 0.09
    m, n = 9.0, 2.0
    assert bound_decayed_max_share(d, T, eta, alpha, m, n) < bound_max_share(
        d, T, eta, alpha, m, n)


def test_bound_time_varying_matches_fixed_share_for_constants():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(2, 30))
        T = int(rng.integers(1, 40))
        eta = float(rng.uniform(0.05, 3.0))
        alpha = float(rng.uniform(0.01, 0.9))
        u = rng.random(T) * 2.0
        m = float(rng.uniform(0.0, max(u.sum() - u[0], 1e-9)))
        tv = bound_time_varying(d, T, np.full(T, eta), np.full(T, alpha), m, u)
        fs = bound_fixed_share(d, eta, alpha, m, float(u.sum()), float(u[0]))
        assert tv == pytest.approx(fs, abs=1e-12 * max(1.0, abs(fs)))


def test_bound_time_varying_zero_comparator_and_errors():
    etas = np.array([1.0, 0.5, 0.4])
    alphas = np.array([1.0, 0.5, 1 / 3])
    assert bound_time_varying(4, 3, etas, alphas, 0.0,
                              np.zeros(3)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        bound_time_varying(4, 3, etas[::-1], alphas, 0.0, np.zeros(3))


def test_anytime_schedule_values():
    eta3 = math.sqrt(math.log(15) / 3.0)
    for t in (0, 1, 2, 3):
        eta, _ = anytime_schedules(5, t)
        assert eta == pytest.approx(eta3, abs=1e-15)
    assert anytime_schedules(5, 4)[1] == pytest.approx(0.25)
    assert anytime_schedules(5, 100)[0] == pytest.approx(0.2492911570517934,
                                                         abs=1e-15)
    etas = [anytime_schedules(2, t)[0] for t in range(1, 2000)]
    assert all(a >= b - 1e-15 for a, b in zip(etas, etas[1:]))


def test_anytime_adaptive_bound_value():
    assert anytime_adaptive_bound(5, 500) == pytest.approx(91.3039271997744,
                                                           abs=1e-10)
    with pytest.raises(ValueError):
        anytime_adaptive_bound(5, 2)


def test_bounds_monotone_in_comparator_statistics():
    rng = np.random.default_rng(4)
    for _ in range(300):
        d = int(rng.integers(2, 60))
        T = int(rng.integers(5, 300))
        eta = float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(0.01, 0.5))
        u1 = float(rng.uniform(0.0, 1.0))
        U = float(rng.uniform(u1 + 1.0, T))
        m = float(rng.uniform(0.0, U - u1))
        n = float(rng.uniform(0.5, d))
        dm = float(rng.uniform(0.0, U - u1 - m))
        dU = float(rng.uniform(0.0, T))
        for fn in (
            lambda mm, UU: bound_projected(d, eta, alpha, mm, UU, u1),
            lambda mm, UU: bound_fixed_share(d, eta, alpha, mm, UU, u1),
            lambda mm, UU: bound_shared_weights(d, T, eta, alpha, mm, n, UU,
                                                1.3, max(1.0, min(d, T)), u1),
        ):
            base = fn(m, U)
            assert fn(m + dm, U) >= base - 1e-9
            assert fn(m, U + dU) >= base - 1e-9
        base = bound_shared_weights(d, T, eta, alpha, m, n, U, 1.3,
                                    max(1.0, min(d, T)), u1)
        assert bound_shared_weights(d, T, eta, alpha, m, n + 0.5, U, 1.3,
                                    max(1.0, min(d, T)), u1) >= base - 1e-9
