"""Both rate forms of each constant-rate rule's guarantee, on fixed-seed
draws: summed along the row's comparator, each per-round certificate
sits between the row's regret and its form, and the engine's bound is
the smaller form."""

import numpy as np
import pytest

from simplexshare import (bound_fixed_share, bound_projected,
                          bound_shared_weights, certificate_slacks,
                          gen_comparator, gen_losses, run_forecaster,
                          small_loss_certificate_slacks, small_loss_form)
from simplexshare.bounds import _weight_constants
from simplexshare.experiments import parse_experiment, run_experiment

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


def _hoeffding(spec, row):
    fc, rule, T = spec.forecaster, spec.forecaster.rule, row.T
    if rule.variant == "fixed_share":
        return bound_fixed_share(row.d, fc.eta, rule.alpha, row.m, row.U_sum,
                                 1.0)
    if rule.variant == "projected":
        return bound_projected(row.d, fc.eta, rule.alpha, row.m, row.U_sum,
                               1.0)
    return bound_shared_weights(
        row.d, T, fc.eta, rule.alpha, row.m, row.n, row.U_sum,
        *_weight_constants(row.d, T, rule._decay))


@pytest.mark.parametrize("rule", RULES)
def test_both_forms_bound_the_summed_certificates(rule):
    rng = np.random.default_rng(RULES.index(rule))
    for draw in range(DRAWS):
        spec = parse_experiment(_draw(rng, rule, draw))
        env, fc = spec.environment, spec.forecaster
        k = fc.eta / -np.expm1(-fc.eta)
        for rep, row in enumerate(run_experiment(spec)[:-1]):
            traj = run_forecaster(fc.rule, fc.eta,
                                  gen_losses(env, stream=rep))
            u = gen_comparator(spec.comparator, env.d, env.T,
                               losses=traj.losses)
            masses = u.sum(axis=1)
            realized, L_sum = traj.realized, row.L_sum
            C = masses @ (certificate_slacks(traj) + realized) - L_sum
            C_sl = k * masses @ (small_loss_certificate_slacks(traj)
                                 - np.expm1(-fc.eta) / fc.eta * realized)
            C_sl -= L_sum
            H = _hoeffding(spec, row)
            SL = small_loss_form(H, fc.eta, row.U_sum, L_sum)
            assert row.bound == min(H, SL)
            # a valid run's slacks are >= -1e-9 per round up to float error
            tol = 1e-9 * env.T * (1.0 + abs(row.regret) + abs(H) + abs(SL))
            assert row.regret <= C + tol and C <= H + tol
            assert row.regret <= C_sl + tol and C_sl <= SL + tol
