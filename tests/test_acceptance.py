"""Acceptance gate: every certification criterion at its stated tolerance.

Each test prints one pass/fail line (run ``pytest -s`` to see them all);
a criterion passes only with zero violations across its whole grid.
"""

import time

import numpy as np

import simplexshare as ss
from oracles import adaptive_regret_brute, decayed_max_brute, grid_min_kl, kl_brute

CERT_SLACK = -1e-9


def _line(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{tag}: {detail}"


def _rotating_piecewise(d, T, segments, seed, low=0.2, high=0.5, arms=None):
    lengths = [T // segments] * segments
    lengths[-1] += T - sum(lengths)
    means = []
    for i in range(segments):
        row = [high] * d
        arm = (i % d) if arms is None else arms[i]
        row[arm] = low
        means.append(row)
    spec = ss.EnvironmentSpec(kind="piecewise_stationary", d=d, T=T,
                              seed=seed, segment_lengths=lengths, means=means)
    return ss.gen_losses(spec), lengths


def test_criterion_1_per_round_certificates():
    start = time.perf_counter()
    rng = ss.make_rng(20260808)
    dims = (2, 5, 50)
    etas = (0.1, 1.0, 3.0)
    worst = np.inf
    for i in range(50):
        d = dims[i % 3]
        eta = etas[(i // 3) % 3]
        alpha = float(rng.uniform(0.01, 0.4))
        kind = i % 5
        if kind == 0:
            rule = ss.MixingRule.fixed_share(alpha)
        elif kind == 1:
            rule = ss.MixingRule.projected(alpha)
        elif kind == 2:
            rule = ss.MixingRule.max_share(alpha)
        elif kind == 3:
            rule = ss.MixingRule.decayed_max_share(alpha,
                                                   float(rng.uniform(0.01, 1.0)))
        else:
            rule = ss.MixingRule.time_varying(lambda t, e=eta: e,
                                              lambda t, a=alpha: a)
        losses = rng.random((200, d))
        traj = ss.run_forecaster(rule, eta, losses)
        worst = min(worst, float(ss.certificate_slacks(traj).min()))
    elapsed = time.perf_counter() - start
    ok = worst >= CERT_SLACK and elapsed < 10.0
    _line("criterion 1: per-round certificates", ok,
          f"50 configs, min slack {worst:.3e} (>= -1e-9), {elapsed:.1f}s (< 10s)")


def test_criterion_2_fixed_share_shifting_certification():
    start = time.perf_counter()
    d, T = 10, 1000
    eta, alpha, bound = ss.tune_fixed_share(d, 4.0, 1000.0)
    rule = ss.MixingRule.fixed_share(alpha)
    failures = 0
    worst = 0.0
    for seed in range(100):
        losses, lengths = _rotating_piecewise(d, T, 4, seed)
        traj = ss.run_forecaster(rule, eta, losses)
        u = ss.gen_comparator(ss.ComparatorSpec(kind="piecewise_corner",
                                                segment_lengths=lengths),
                              d, T, losses=losses)
        assert ss.regularity_m(u) + float(u[0].sum()) <= 4.0
        assert float(u.sum()) == T
        regret = ss.generalized_shifting_regret(traj, losses, u)
        worst = max(worst, regret)
        failures += regret > bound + 1e-9
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _line("criterion 2: fixed-share shifting certification", ok,
          f"100 runs, worst regret {worst:.3f} <= bound {bound:.3f}, "
          f"{failures} failures, {elapsed:.1f}s (< 30s)")


def test_criterion_3_projected_certification_and_projection_oracle():
    d, T = 10, 1000
    eta, alpha, _ = ss.tune_fixed_share(d, 4.0, 1000.0)
    rule = ss.MixingRule.projected(alpha)
    failures = 0
    worst_gap = np.inf
    for seed in range(100):
        losses, lengths = _rotating_piecewise(d, T, 4, seed)
        traj = ss.run_forecaster(rule, eta, losses)
        u = ss.gen_comparator(ss.ComparatorSpec(kind="piecewise_corner",
                                                segment_lengths=lengths),
                              d, T, losses=losses)
        bound = ss.bound_projected(d, eta, alpha, ss.regularity_m(u),
                                   float(u.sum()), float(u[0].sum()))
        regret = ss.generalized_shifting_regret(traj, losses, u)
        worst_gap = min(worst_gap, bound - regret)
        failures += regret > bound + 1e-9

    rng = ss.make_rng(31337)
    oracle_bad = 0
    for case in range(200):
        dim = 2 if case < 100 else 3
        v = np.maximum(rng.dirichlet(np.ones(dim)), 1e-6)
        v /= v.sum()
        a = float(rng.uniform(0.05, 0.95))
        out = ss.kl_project_clipped(v, a)
        res = 1e-4 if dim == 2 else 1e-3
        oracle_bad += kl_brute(out, v) > grid_min_kl(v, a, res) + 1e-6
    ok = failures == 0 and oracle_bad == 0
    _line("criterion 3: projected certification + projection oracle", ok,
          f"100 runs with min bound margin {worst_gap:.3f}, {failures} bound "
          f"failures; 200 grid-oracle cases, {oracle_bad} beyond 1e-6 KL")


def test_criterion_4_adaptive_regret_certifications():
    start = time.perf_counter()
    d, T = 2, 256
    failures = 0
    details = []
    for tau0 in (8, 32):
        eta, alpha, _ = ss.tune_fixed_share(d, 1.0, float(tau0))
        bound = ss.bound_adaptive(d, tau0)[0]
        worst = 0.0
        for seed in range(50):
            adversary = ss.AdversarialFlip(d, seed=seed)
            traj = ss.run_forecaster(ss.MixingRule.fixed_share(alpha), eta,
                                     adversary, d=d, horizon=T)
            regret = ss.adaptive_regret(traj, traj.losses, tau0)
            worst = max(worst, regret)
            failures += regret > bound + 1e-9
        details.append(f"tau0={tau0}: {worst:.3f} <= {bound:.3f}")

    d5, T5 = 5, 500
    bound5 = ss.anytime_adaptive_bound(d5, T5)
    rule = ss.MixingRule.time_varying(lambda t: ss.anytime_schedules(d5, t)[0],
                                      lambda t: ss.anytime_schedules(d5, t)[1])
    runs = []
    for seed in range(10):
        losses, _ = _rotating_piecewise(d5, T5, 5, seed, low=0.15, high=0.55)
        runs.append(ss.run_forecaster(rule, None, losses))
    for seed in range(8):
        means = list(ss.make_rng(seed, 77).uniform(0.1, 0.9, size=d5))
        losses = ss.gen_losses(ss.EnvironmentSpec(kind="iid_bernoulli", d=d5,
                                                  T=T5, seed=seed + 1000,
                                                  means=means))
        runs.append(ss.run_forecaster(rule, None, losses))
    for seed in range(2):
        adversary = ss.AdversarialFlip(d5, seed=seed)
        runs.append(ss.run_forecaster(rule, None, adversary, d=d5, horizon=T5))
    worst5 = 0.0
    for traj in runs:
        regret = ss.adaptive_regret(traj, traj.losses, T5)  # every interval
        worst5 = max(worst5, regret)
        failures += regret > bound5 + 1e-9
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _line("criterion 4: adaptive-regret certifications", ok,
          f"{'; '.join(details)}; anytime schedules over 20 runs: "
          f"{worst5:.3f} <= {bound5:.3f}; {failures} failures, "
          f"{elapsed:.1f}s (< 60s)")


def test_criterion_5_discounted_regret_certification():
    d, T = 10, 500
    means = list(np.linspace(0.2, 0.65, d))
    failures = 0
    details = []
    for name, betas in (("up", ss.linear_up_discounts(T)),
                        ("down", ss.linear_down_discounts(T))):
        m0 = max(float(betas[0]), float(betas[-1]))
        U0 = float(betas.sum())
        eta, alpha, bound = ss.tune_fixed_share(d, m0, U0)
        worst = 0.0
        for seed in range(25):
            losses = ss.gen_losses(ss.EnvironmentSpec(kind="iid_bernoulli",
                                                      d=d, T=T, seed=seed,
                                                      means=means))
            traj = ss.run_forecaster(ss.MixingRule.fixed_share(alpha), eta,
                                     losses)
            regret = ss.discounted_regret(traj, losses, betas)
            worst = max(worst, regret)
            failures += regret > bound + 1e-9
        details.append(f"linear {name}: {worst:.3f} <= {bound:.3f}")
    ok = failures == 0
    _line("criterion 5: discounted-regret certification", ok,
          f"{'; '.join(details)} over 50 runs, {failures} failures")


def test_criterion_6_sparse_comparator_certification():
    d, T = 200, 100
    m0, n0 = 9.0, 2.0
    alpha = m0 / (T - 1)
    gamma = ss.decayed_max_share_gamma(m0, n0, T)
    # tune eta by minimizing budget/eta + eta T / 8 for each family
    budget_max = ss.bound_max_share(d, T, 1.0, alpha, m0, n0) - T / 8.0
    eta_max = float(np.sqrt(8.0 * budget_max / T))
    bound_max = ss.bound_max_share(d, T, eta_max, alpha, m0, n0)
    budget_dec = ss.bound_decayed_max_share(d, T, 1.0, alpha, m0, n0) - T / 8.0
    eta_dec = float(np.sqrt(8.0 * budget_dec / T))
    bound_dec = ss.bound_decayed_max_share(d, T, eta_dec, alpha, m0, n0)

    lengths = [10] * 10
    arms = [i % 2 for i in range(10)]
    u = ss.gen_comparator(ss.ComparatorSpec(kind="piecewise_corner",
                                            segment_lengths=lengths,
                                            corners=arms), d, T)
    assert ss.regularity_m(u) == m0 and ss.sparsity_n(u) == n0

    failures = 0
    cond_bad = 0
    worst = {"max": 0.0, "dec": 0.0}
    for seed in range(5):
        losses, _ = _rotating_piecewise(d, T, 10, seed, low=0.1, high=0.6,
                                        arms=arms)
        for tag, rule, eta, bound, C in (
                ("max", ss.MixingRule.max_share(alpha), eta_max, bound_max, 1.0),
                ("dec", ss.MixingRule.decayed_max_share(alpha, gamma), eta_dec,
                 bound_dec, float(np.exp(gamma)))):
            traj = ss.run_forecaster(rule, eta, losses)
            regret = ss.generalized_shifting_regret(traj, losses, u)
            worst[tag] = max(worst[tag], regret)
            failures += regret > bound + 1e-9
            w = traj.w
            cond_bad += not (np.all(w[1:] >= traj.v - 1e-12)
                             and np.all(w <= 1.0 + 1e-12)
                             and np.all(C * w[1:] >= w[:-1] - 1e-12))
    ok = failures == 0 and cond_bad == 0 and bound_dec < bound_max
    _line("criterion 6: sparse-comparator certification", ok,
          f"running max {worst['max']:.3f} <= {bound_max:.3f}; decayed "
          f"{worst['dec']:.3f} <= {bound_dec:.3f}; decayed bound < running-max"
          f" bound: {bound_dec:.3f} < {bound_max:.3f}; sandwich-condition "
          f"violations {cond_bad}")


def test_criterion_7_small_loss_certification():
    d, T = 10, 1000
    eta, alpha, bound = ss.tune_small_loss(d, 2.0, 1000.0, 10.0)
    rule = ss.MixingRule.fixed_share(alpha)
    failures = 0
    worst = 0.0
    worst_loss = 0.0
    for seed in range(50):
        means = [[0.5] * d, [0.5] * d]
        means[0][0] = 0.0
        means[1][1] = 0.0
        losses = ss.gen_losses(ss.EnvironmentSpec(
            kind="piecewise_stationary", d=d, T=T, seed=seed,
            segment_lengths=[500, 500], means=means))
        traj = ss.run_forecaster(rule, eta, losses)
        u = ss.gen_comparator(ss.ComparatorSpec(kind="piecewise_corner",
                                                segment_lengths=[500, 500]),
                              d, T, losses=losses)
        comparator_loss = float(np.einsum("td,td->", u, losses))
        worst_loss = max(worst_loss, comparator_loss)
        regret = ss.generalized_shifting_regret(traj, losses, u)
        worst = max(worst, regret)
        failures += (regret > bound + 1e-9) or (comparator_loss > 10.0)
    ok = failures == 0
    _line("criterion 7: small-loss certification", ok,
          f"50 runs, comparator loss <= {worst_loss:.1f} (cap 10), worst "
          f"regret {worst:.3f} <= bound {bound:.3f}, {failures} failures")


def test_criterion_8_equivalence_and_oracle_suite():
    rng = ss.make_rng(88)

    # (a) time-varying with constant schedules == fixed share
    d, T, eta, alpha = 6, 500, 1.1, 0.07
    losses = rng.random((T, d))
    fs = ss.run_forecaster(ss.MixingRule.fixed_share(alpha), eta, losses)
    tv = ss.run_forecaster(ss.MixingRule.time_varying(lambda t: eta,
                                                      lambda t: alpha),
                           None, losses)
    gap_a = max(float(np.abs(fs.p - tv.p).max()),
                float(np.abs(fs.v - tv.v).max()))
    ok_a = gap_a <= 1e-14

    # (b) recursive decayed max == definitional brute force
    d2, T2, gamma = 4, 200, 0.09
    losses2 = rng.random((T2, d2))
    traj = ss.run_forecaster(ss.MixingRule.decayed_max_share(0.15, gamma),
                             0.9, losses2)
    history = np.vstack([np.full(d2, 1.0 / d2), traj.v])
    gap_b = float(np.abs(traj.w - decayed_max_brute(history, gamma)).max())
    ok_b = gap_b <= 1e-12

    # (c) adaptive-regret scan == brute-force double loop
    d3, T3 = 3, 200
    p3 = rng.dirichlet(np.ones(d3), size=T3)
    losses3 = rng.random((T3, d3))
    gap_c = 0.0
    for tau0 in (1, 17, 200):
        gap_c = max(gap_c, abs(ss.adaptive_regret(p3, losses3, tau0)
                               - adaptive_regret_brute(p3, losses3, tau0)))
    ok_c = gap_c <= 1e-10

    # (d) convex reduction on linear losses == the linear forecaster
    d4, T4 = 5, 60
    losses4 = rng.random((T4, d4))
    rule = ss.MixingRule.projected(0.2)
    reference = ss.run_forecaster(rule, 1.7, losses4)
    state = ss.ForecasterState(d4, rule, 1.7)
    played = np.empty((T4, d4))
    for t in range(T4):
        c = losses4[t]
        played[t] = state.p
        _, state = ss.step_convex(state, lambda p: float(p @ c), lambda p: c)
    ok_d = bool(np.array_equal(played, reference.played))

    ok = ok_a and ok_b and ok_c and ok_d
    _line("criterion 8: equivalence/oracle suite", ok,
          f"(a) const-schedule gap {gap_a:.1e} <= 1e-14; (b) decayed-max gap "
          f"{gap_b:.1e} <= 1e-12; (c) adaptive scan gap {gap_c:.1e}; "
          f"(d) linear-loss reduction exact: {ok_d}")
