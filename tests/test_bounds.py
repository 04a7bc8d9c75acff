import math
import warnings

import numpy as np
import pytest

from simplexshare import (anytime_adaptive_bound, anytime_schedules,
                          bound_adaptive, bound_decayed_max_share,
                          bound_fixed_share, bound_max_share, bound_projected,
                          bound_shared_weights, bound_time_varying,
                          decayed_max_share_gamma, fixed_share_envelope,
                          small_loss_form, tune_fixed_share, tune_small_loss)
from simplexshare.bounds import _mixing_fixed_share


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


def test_bound_fixed_share_is_its_closed_form_bit_for_bit():
    """(u1/eta ln d + m/eta ln(d/alpha) + tail/eta ln(1/(1-alpha))) + eta/8 U,
    the mixing cost and then eta U / 8, written out here in that order,
    with alpha in (0, 1)."""
    rng = np.random.default_rng(21)
    zero_tails = 0
    for trial in range(3000):
        d = int(rng.integers(1, 2000))
        eta = float(rng.uniform(1e-3, 10.0))
        alpha = float(rng.uniform(1e-12, 1.0))
        u1 = 1.0 if trial % 2 else float(rng.uniform(0.0, 2.0))
        m = (0.0, float(rng.integers(1, 50)), float(rng.uniform(0.0, 50.0)))[
            trial % 3]
        U = u1 + m + (0.0 if trial % 4 == 0 else float(rng.uniform(0.0, 1e4)))
        tail = max(U - u1 - m, 0.0)
        zero_tails += tail == 0.0
        expected = ((u1 / eta * math.log(d)
                     + m / eta * math.log(d / alpha)
                     + tail / eta * math.log(1.0 / (1.0 - alpha)))
                    + eta / 8.0 * U)
        assert bound_fixed_share(d, eta, alpha, m, U, u1) == expected, trial
    assert zero_tails >= 500


def test_boundary_alphas_give_the_limit_inf():
    """A positive coefficient on ln(1/0) (alpha = 0 with m > 0, or alpha = 1
    with mass left after the shifts) makes the bound +inf; a zero
    coefficient drops its term."""
    d, T, eta = 3, 50, 0.5
    for alpha in (0.0, 1.0):
        assert bound_fixed_share(d, eta, alpha, 1.0, 50.0, 1.0) == math.inf
        assert bound_shared_weights(d, T, eta, alpha, 1.0, 2.0, 50.0, C=1.0,
                                    Z_max=3.0) == math.inf
        assert bound_max_share(d, T, eta, alpha, 1.0, 2.0) == math.inf
        assert bound_decayed_max_share(d, T, eta, alpha, 1.0, 2.0) == math.inf
    assert bound_projected(2, 1.0, 0.0, 1.0, 10.0, 1.0) == math.inf
    assert fixed_share_envelope(d, 1.0, 50.0, eta, 1.0) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bound_time_varying(d, 3, [1.0, 1.0, 1.0], [0.5, 0.2, 0.0],
                                  1.0, np.ones(3)) == math.inf
    # zero coefficients: no shift at alpha = 0, no tail at alpha = 1
    assert bound_fixed_share(d, eta, 0.0, 0.0, 50.0, 1.0) == (
        math.log(d) / eta + eta / 8.0 * 50.0)
    assert bound_fixed_share(d, eta, 1.0, 49.0, 50.0, 1.0) == (
        math.log(d) / eta + eta / 8.0 * 50.0 + 49.0 / eta * math.log(d))
    assert bound_projected(2, 1.0, 0.0, 0.0, 10.0, 1.0) == (
        math.log(2) + 10.0 / 8.0)


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
    assert bound == pytest.approx(31.416986030959976, abs=1e-12)
    assert alpha == pytest.approx(0.02)
    assert eta == pytest.approx(math.log1p(math.sqrt(2 * 2.0 * budget / 10.0)),
                                abs=1e-12)
    # the closed form bounds the guarantee (eta L0 + M0)/(1 - e^-eta) - L0
    # at the tuned rate, with mixing cost M0 = m0 B'
    M0 = 2.0 * budget
    assert (eta * 10.0 + M0) / -math.expm1(-eta) - 10.0 <= bound
    # zero loss cap: the bound collapses to the mixing cost M0 = m0 B'
    # and the rate degenerates
    eta0, _, bound0 = tune_small_loss(10, 2.0, 100.0, 0.0)
    assert bound0 == pytest.approx(M0, abs=1e-12)
    assert math.isinf(eta0)


def test_small_loss_form_examples():
    # at eta = ln 2, 1 - e^-eta = 1/2 and k = 2 ln 2
    ln2 = math.log(2.0)
    assert small_loss_form(4.0, ln2, 3.0) == pytest.approx(
        (2.0 * ln2 - 1.0) * 3.0 + 2.0 * ln2 * 4.0, abs=1e-12)
    # k -> 1 as eta -> 0, and k ~ eta for a large eta
    assert small_loss_form(5.0, 1e-12, 3.0) == pytest.approx(5.0)
    assert small_loss_form(5.0, 40.0, 0.0) == pytest.approx(40.0 * 5.0,
                                                            abs=1e-9)
    assert small_loss_form(math.inf, 1.0, 3.0) == math.inf


def test_small_loss_form_keeps_its_digits_at_a_large_rate():
    # k = eta / (1 - e^-eta) = eta exactly at eta = 1e9, and the mixing
    # cost of m = 1, ||u_1||_1 = 1, tail 398 at d = 2, alpha = 0.5 is
    # 401 ln 2 / eta; H - eta U_sum / 8 with U_sum = 400 read 0 here
    eta, ln2 = 1e9, math.log(2.0)
    M = _mixing_fixed_share(2, eta, 0.5, 1.0, 400.0, 1.0)
    assert M == pytest.approx(401.0 * ln2 / eta, rel=1e-15)
    assert bound_fixed_share(2, eta, 0.5, 1.0, 400.0, 1.0) == M + eta * 50.0
    assert small_loss_form(M, eta, 0.0) == pytest.approx(401.0 * ln2,
                                                         rel=1e-15)
    assert small_loss_form(M, eta, 2.5) == pytest.approx(
        (eta - 1.0) * 2.5 + eta * M, rel=1e-15)


def test_full_shift_comparators_of_any_mass_are_in_the_domain():
    # m + ||u_1||_1 = U_sum in exact arithmetic when every round shifts the
    # whole mass; the correctly rounded sums differ by an ulp of U_sum,
    # which an absolute 1e-9 tolerance refused from U_sum ~ 1e7 on
    rng = np.random.default_rng(27)
    below_old_tolerance = 0
    for _ in range(500):
        a = rng.uniform(0.0, 1.0, 8) * 10.0 ** rng.uniform(0.0, 12.0)
        U, u1, m = math.fsum(a), float(a[0]), math.fsum(a[1:])
        below_old_tolerance += U - u1 - m < -1e-9
        assert math.isfinite(bound_fixed_share(2, 1.0, 0.1, m, U, u1))
    assert below_old_tolerance >= 20


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
        min(float(d), float(T), 1.0 / (1.0 - math.exp(-gamma))), 1.0)
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


def test_bounds_reject_nan_statistics():
    nan = math.nan
    for m, U_sum, u1_norm in ((nan, 10.0, 1.0), (1.0, nan, 1.0),
                              (1.0, 10.0, nan)):
        for bound in (bound_fixed_share, bound_projected):
            with pytest.raises(ValueError, match="must be nonnegative"):
                bound(2, 1.0, 0.1, m, U_sum, u1_norm)
        with pytest.raises(ValueError, match="must be nonnegative"):
            bound_shared_weights(2, 10, 1.0, 0.1, m, 1.0, U_sum, C=1.0,
                                 Z_max=2.0, u1_norm=u1_norm)
    for C, Z_max, message in ((nan, 2.0, "C must"), (1.0, nan, "Z_max must")):
        with pytest.raises(ValueError, match=message):
            bound_shared_weights(2, 10, 1.0, 0.1, 1.0, 1.0, 10.0, C=C,
                                 Z_max=Z_max)
    etas, alphas = np.full(3, 0.5), np.full(3, 0.1)
    for m, norms in ((nan, np.ones(3)), (1.0, [1.0, nan, 1.0])):
        with pytest.raises(ValueError, match="masses must be nonnegative"):
            bound_time_varying(2, 3, etas, alphas, m, norms)
    with pytest.raises(ValueError, match="eta schedule"):
        bound_time_varying(2, 3, [0.5, nan, 0.5], alphas, 1.0, np.ones(3))
    with pytest.raises(ValueError, match="alpha schedule"):
        bound_time_varying(2, 3, etas, [0.1, nan, 0.1], 1.0, np.ones(3))


def test_shared_weights_bounds_reject_a_bad_sparsity():
    # a nan n gave a nan bound, and a negative n a smaller one
    for n in (math.nan, -1.0):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            bound_shared_weights(20, 100, 2.0, 0.09, 9.0, n, 100.0, C=1.0,
                                 Z_max=20.0)
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            bound_max_share(200, 100, 2.56, 0.09, 9.0, n)
    assert bound_shared_weights(20, 100, 2.0, 0.09, 9.0, 0.0, 100.0, C=1.0,
                                Z_max=20.0) > 0.0


def test_horizon_and_dimension_are_checked_before_z_max():
    for d, T in ((0, 100), (200, 0)):
        with pytest.raises(ValueError, match="^need d >= 1 and T >= 1$"):
            bound_max_share(d, T, 2.56, 0.09, 9.0, 2.0)
        with pytest.raises(ValueError, match="^need d >= 1 and T >= 1$"):
            bound_decayed_max_share(d, T, 2.56, 0.09, 9.0, 2.0)
    with pytest.raises(ValueError, match="need m0 > 0"):
        bound_decayed_max_share(200, 100, 2.56, 0.09, math.nan, 2.0)


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


def test_bound_time_varying_names_its_domain():
    # ln(d (1 - alpha_T) / alpha_T) is ln 0 at alpha_T = 1, and ln d needs
    # d >= 1; both raised messages that named no parameter
    with pytest.raises(ValueError,
                       match="^alpha schedule must end below 1 when m > 0$"):
        bound_time_varying(3, 2, [1, 1], [1.0, 1.0], 1.0, [1, 1])
    with pytest.raises(ValueError, match="^need d >= 1$"):
        bound_time_varying(0, 2, [1, 1], [0.5, 0.5], 0.0, [1, 1])
    # with m = 0 no shift is paid, so alpha_T = 1 stays in the domain
    assert bound_time_varying(3, 2, [1, 1], [1.0, 1.0], 0.0,
                              [1, 0]) == math.log(3) + 1.0 / 8.0


def test_non_finite_inputs_give_the_limit_or_a_named_error():
    inf, nan = math.inf, math.nan
    # an infinite coefficient times ln 1 is 0, not nan
    assert bound_max_share(10, 100, 1.0, 0.1, 1.0, inf) == inf
    assert bound_shared_weights(1, 100, 2.0, 0.09, 9.0, inf, 100.0, C=1.0,
                                Z_max=1.0) == bound_shared_weights(
        1, 100, 2.0, 0.09, 9.0, 2.0, 100.0, C=1.0, Z_max=1.0)
    assert bound_fixed_share(3, 0.5, 0.0, 0.0, inf, 1.0) == inf
    # C = e^gamma past the float range is +inf
    assert decayed_max_share_gamma(2.0, 1e-5, 50) == 4000.0
    assert bound_decayed_max_share(3, 50, 0.5, 0.1, 2.0, 1e-5) == inf
    for m0, n0 in ((nan, 1.0), (1.0, nan), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="^need m0 > 0, n0 > 0, T >= 1$"):
            decayed_max_share_gamma(m0, n0, 10)
    for m0, n0 in ((1.0, inf), (1e-320, 1e10), (inf, 1.0)):
        with pytest.raises(ValueError, match=r"^gamma = m0/\(n0 T\) = .* "
                           "must be positive and finite$"):
            decayed_max_share_gamma(m0, n0, 10)
    with pytest.raises(ValueError, match="^eta must be positive and finite$"):
        bound_projected(3, inf, 0.1, 0.0, 0.0, 0.0)
    for tune in (lambda U0: tune_fixed_share(10, 4.0, U0),
                 lambda U0: tune_small_loss(10, 4.0, U0, 10.0)):
        with pytest.raises(ValueError, match="^need 0 < m0 <= U0 < inf$"):
            tune(inf)
    with pytest.raises(ValueError, match="^L0 must be nonnegative$"):
        tune_small_loss(10, 4.0, 1000.0, nan)
    with pytest.raises(ValueError, match="float range"):
        tune_small_loss(10, 1e-320, 40.0, 0.0)
