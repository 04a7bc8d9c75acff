"""Both rate forms of each constant-rate rule's guarantee, on fixed-seed
draws: summed along the row's comparator, each per-round certificate
sits between the row's regret and its form, and the engine's bound is
the smaller form.  The anytime time-varying rule has one form, the
row's bound."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import rate_forms_exact

from simplexshare import (ComparatorSpec, MixingRule, bound_fixed_share,
                          bound_projected, bound_shared_weights,
                          certificate_slacks, gen_comparator, gen_losses,
                          make_adversary, run_forecaster,
                          small_loss_certificate_slacks, small_loss_form)
from simplexshare.bounds import (_mixing_fixed_share, _mixing_projected,
                                 _mixing_shared_weights, _weight_constants)
from simplexshare.experiments import (ConfigError, ForecasterConfig, _bound,
                                      parse_experiment, run_experiment)

RULES = ("fixed_share", "projected", "max_share", "decayed_max_share")
DRAWS = 100


def _composition(rng, T):
    """Up to six positive segment lengths summing to T."""
    parts = int(rng.integers(1, min(T, 6) + 1))
    cuts = np.sort(rng.choice(np.arange(1, T), parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [T]])).tolist()


def _draw(rng, rule, seed):
    """d in 2..6, T in 5..80, eta in (0, 8], alpha in [0, 1), gamma in
    (0, 5]; 0/1 losses whose favoured arm rotates across segments, some
    at loss mean 0, against hindsight piecewise corners."""
    d, T = int(rng.integers(2, 7)), int(rng.integers(5, 81))
    lengths, arm, means = _composition(rng, T), int(rng.integers(d)), []
    for _ in lengths:
        row = rng.uniform(0.5, 1.0, d)
        row[arm] = rng.uniform(0.0, 0.5) * (rng.random() < 0.5)
        means.append(row.tolist())
        arm = (arm + int(rng.integers(1, d))) % d
    forecaster = {"rule": rule, "eta": 8.0 * (1.0 - rng.random()),
                  "alpha": float(rng.random())}
    if rule == "decayed_max_share":
        forecaster["gamma"] = 5.0 * (1.0 - rng.random())
    return {"environment": {"kind": "piecewise_stationary", "d": d, "T": T,
                            "seed": seed, "segment_lengths": lengths,
                            "means": means},
            "comparator": {"kind": "piecewise_corner",
                           "segment_lengths": _composition(rng, T)},
            "forecaster": forecaster, "regret": {"kind": "shifting"},
            "repetitions": 2}


def _forms(spec, row, u1_norm):
    """The Hoeffding form and the mixing cost M of the row's rule."""
    fc, rule, T = spec.forecaster, spec.forecaster.rule, row.T
    if rule.variant == "fixed_share":
        args = (row.d, fc.eta, rule.alpha, row.m, row.U_sum, u1_norm)
        return bound_fixed_share(*args), _mixing_fixed_share(*args)
    if rule.variant == "projected":
        args = (row.d, fc.eta, rule.alpha, row.m, row.U_sum, u1_norm)
        return bound_projected(*args), _mixing_projected(*args)
    args = (row.d, T, fc.eta, rule.alpha, row.m, row.n, row.U_sum,
            *_weight_constants(row.d, T, rule._decay), u1_norm)
    return bound_shared_weights(*args), _mixing_shared_weights(*args)


def _comparator_masses(spec, rep):
    """Repetition ``rep`` run alone, and ||u_t||_1 of its row's comparator
    with its hindsight corners: a shifting row's, or a discounted row's
    arm scaled by the discounts."""
    env, fc = spec.environment, spec.forecaster
    if env.kind == "adversarial_flip":
        traj = run_forecaster(fc.rule, fc.eta, make_adversary(env, rep),
                              d=env.d, horizon=env.T)
    else:
        traj = run_forecaster(fc.rule, fc.eta, gen_losses(env, stream=rep))
    comparator = spec.comparator
    if spec.regret_kind == "discounted":
        comparator = ComparatorSpec(kind="discounted", betas=spec.betas)
    u = gen_comparator(comparator, env.d, env.T, losses=traj.losses)
    return traj, u.sum(axis=1)


def _check_forms(spec):
    """Each row's regret <= C <= H and regret <= C_sl <= the small-loss
    form, C and C_sl being the summed per-round certificates; a
    time-varying row's regret <= C <= its bound."""
    env, fc = spec.environment, spec.forecaster
    for rep, row in enumerate(run_experiment(spec)[:-1]):
        traj, masses = _comparator_masses(spec, rep)
        realized, L_sum = traj.realized, row.L_sum
        C = masses @ (certificate_slacks(traj) + realized) - L_sum
        if fc.eta is None:  # the anytime schedules
            tol = 1e-9 * env.T * (1.0 + abs(row.regret) + abs(row.bound))
            assert row.regret <= C + tol and C <= row.bound + tol
            continue
        k = fc.eta / -np.expm1(-fc.eta)
        C_sl = k * masses @ (small_loss_certificate_slacks(traj)
                             - np.expm1(-fc.eta) / fc.eta * realized)
        C_sl -= L_sum
        H, M = _forms(spec, row, masses[0])
        SL = small_loss_form(M, fc.eta, L_sum)
        assert row.bound == min(H, SL)
        # a valid run's slacks are >= -1e-9 per round up to float error
        tol = 1e-9 * env.T * (1.0 + abs(row.regret) + abs(H) + abs(SL))
        assert row.regret <= C + tol and C <= H + tol
        assert row.regret <= C_sl + tol and C_sl <= SL + tol


@pytest.mark.parametrize("rule", RULES)
def test_both_forms_bound_the_summed_certificates(rule):
    rng = np.random.default_rng(RULES.index(rule))
    for draw in range(DRAWS):
        _check_forms(parse_experiment(_draw(rng, rule, draw)))


def test_the_anytime_rule_bounds_the_summed_certificate():
    rng = np.random.default_rng(len(RULES))
    for draw in range(DRAWS):
        config = _draw(rng, "fixed_share", draw)
        config["forecaster"] = {"rule": "time_varying", "schedules": "anytime"}
        _check_forms(parse_experiment(config))


def _monotone_discounts(rng, T):
    """Sorted draws in [0, 1), rising or falling, with a positive end."""
    betas = np.sort(rng.random(T))
    betas[-1] = max(betas[-1], 0.5)
    return (betas if rng.random() < 0.5 else betas[::-1]).tolist()


DISCOUNTED_KINDS = ("piecewise_stationary", "iid_bernoulli",
                    "adversarial_flip")


@pytest.mark.parametrize("kind", DISCOUNTED_KINDS)
def test_discounted_rows_bound_the_summed_certificates(kind):
    """Auto-tuned fixed share at the row's arm u_t = beta_t e_j, under
    each discount schedule family."""
    rng = np.random.default_rng(10 + DISCOUNTED_KINDS.index(kind))
    for draw in range(DRAWS):
        env = _draw(rng, "fixed_share", draw)["environment"]
        if kind == "iid_bernoulli":
            env = {"kind": kind, "d": env["d"], "T": env["T"], "seed": draw,
                   "means": env["means"][0]}
        elif kind == "adversarial_flip":
            env = {"kind": kind, "d": env["d"], "T": env["T"], "seed": draw}
        schedule = (("linear_up", "linear_down")[draw % 3] if draw % 3 < 2
                    else _monotone_discounts(rng, env["T"]))
        _check_forms(parse_experiment({
            "environment": env, "forecaster": {"rule": "fixed_share"},
            "regret": {"kind": "discounted", "schedule": schedule},
            "repetitions": 2}))


EDGE_ALPHAS = (5e-324, 1e-323, 1e-300, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("alpha", EDGE_ALPHAS)
@pytest.mark.parametrize("rule", RULES)
def test_both_forms_hold_at_the_edges_of_the_float_alphas(rule, alpha):
    """The drawn configs at alpha 5e-324 (alpha/d is 0 for every d >= 2),
    1e-323, 1e-300 and 1 - 2^-53, and two 1000-round segments at d = 2
    and eta = 1, where a share term ln(alpha/d) = -inf gives no floor,
    so the second arm's weight takes the whole second segment to recover
    (regret 1000.5 against H = 995.83).  The projection floors alpha/d in
    the linear domain and refuses an alpha whose floor is 0."""
    rng = np.random.default_rng([RULES.index(rule), EDGE_ALPHAS.index(alpha)])
    configs = [_draw(rng, rule, draw) for draw in range(11)]
    configs[-1].update(
        environment={"kind": "piecewise_stationary", "d": 2, "T": 2000,
                     "segment_lengths": [1000, 1000],
                     "means": [[0.0, 1.0], [1.0, 0.0]]},
        comparator={"kind": "piecewise_corner",
                    "segment_lengths": [1000, 1000]})
    configs[-1]["forecaster"]["eta"] = 1.0
    for config in configs:
        config["forecaster"]["alpha"] = alpha
        if rule == "projected" and alpha / config["environment"]["d"] == 0.0:
            with pytest.raises(ConfigError, match="^forecaster: alpha/d "
                                                  "underflows to 0"):
                parse_experiment(config)
        else:
            _check_forms(parse_experiment(config))


def test_the_engine_bound_is_the_exact_smaller_form_at_any_rate():
    """``experiments._bound`` at ~300 drawn statistics, eta log-uniform in
    [1e-3, 1e300], against both forms summed in rationals
    (``oracles.rate_forms_exact``): a mixing cost recovered as H - eta
    U_sum / 8 loses every digit once eta U_sum / 8 dominates H."""
    rng = np.random.default_rng(26)
    for draw in range(300):
        variant = RULES[draw % 4]
        d = int(np.exp(rng.uniform(np.log(2), np.log(1e6))))
        T = int(rng.integers(2, 10_000))
        eta = float(10.0 ** rng.uniform(-3.0, 300.0))
        alpha = (0.0, 1.0, float(rng.random()))[min(draw % 10, 2)]
        U_sum = float(rng.uniform(1.0, 1e4))
        # a full shift (m = U_sum - u1, no tail) at u1 = 1, where the
        # difference is exact
        u1 = 1.0 if draw % 3 == 1 else float(rng.random())
        m = (0.0, U_sum - u1, float(rng.uniform(0.0, U_sum - u1)))[draw % 3]
        n = float(rng.uniform(0.0, 10.0))
        L_sum = 0.0 if draw % 3 == 1 else float(rng.uniform(0.0, U_sum))
        gamma = float(10.0 ** rng.uniform(-3.0, np.log10(0.5)))
        rule = (MixingRule.decayed_max_share(alpha, gamma)
                if variant == "decayed_max_share"
                else getattr(MixingRule, variant)(alpha))
        run = SimpleNamespace(source=SimpleNamespace(d=d, T=T))
        got = _bound(ForecasterConfig(rule, eta), run, np.array([u1]), m, n,
                     U_sum, L_sum)
        shared = {"fixed_share": (u1, 1, 1.0, d), "projected": None,
                  "max_share": (n, T, 1.0, min(d, T)),
                  "decayed_max_share": (n, T, math.exp(gamma), min(
                      d, T, 1.0 / (1.0 - math.exp(-gamma))))}[variant]
        want = min(rate_forms_exact(d, eta, alpha, m, U_sum, u1, L_sum,
                                    shared))
        assert got == want or math.isclose(got, want, rel_tol=1e-12), draw
