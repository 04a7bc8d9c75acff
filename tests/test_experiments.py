import json
import math
import pathlib
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (best_window_brute, discounted_regret_details_brute,
                     prefix_sums_brute)

from simplexshare.bounds import (_mixing_fixed_share, _mixing_projected,
                                 _mixing_shared_weights, bound_fixed_share,
                                 bound_projected, bound_shared_weights,
                                 bound_time_varying, small_loss_form,
                                 tune_fixed_share, tune_small_loss)
from simplexshare.cli import main as cli_main
from simplexshare import bounds, cli, experiments, forecasters
from simplexshare.environments import (ComparatorSpec, EnvironmentSpec,
                                       gen_comparator, gen_losses,
                                       load_losses_csv, loss_rows,
                                       make_adversary, make_rng)
from simplexshare.experiments import (CSV_COLUMNS, ConfigError, VERDICT_SLACK,
                                      _run_batch, any_failed,
                                      parse_experiment, report_rows,
                                      run_experiment, write_report_csv)
from simplexshare.forecasters import run_forecaster
from simplexshare.regret_eval import (_adaptive_details,
                                      adaptive_regret_details,
                                      discounted_regret_details,
                                      generalized_shifting_regret,
                                      regularity_m, sparsity_n)


def rotating_best_arm_config(reps=5, seed=42):
    means = []
    for seg in range(4):
        row = [0.5] * 10
        row[seg] = 0.2
        means.append(row)
    return {
        "environment": {"kind": "piecewise_stationary", "d": 10, "T": 1000,
                        "seed": seed, "segment_lengths": [250] * 4,
                        "means": means},
        "comparator": {"kind": "piecewise_corner",
                       "segment_lengths": [250] * 4},
        "forecaster": {"rule": "fixed_share", "tune": {"m0": 4, "U0": 1000}},
        "regret": {"kind": "shifting"},
        "repetitions": reps,
    }


def overconfident_config():
    """Caps far below the comparator's true regularity (m = 19 against
    m0 = 1): the tuning's value does not cover it, the rule's own bound
    does."""
    lengths = [2] * 20
    means = [[0.0, 1.0] if i % 2 == 0 else [1.0, 0.0] for i in range(20)]
    return {
        "environment": {"kind": "piecewise_stationary", "d": 2, "T": 40,
                        "seed": 1, "segment_lengths": lengths, "means": means},
        "comparator": {"kind": "piecewise_corner", "segment_lengths": lengths},
        "forecaster": {"rule": "fixed_share", "tune": {"m0": 1, "U0": 40}},
        "regret": {"kind": "shifting"},
        "repetitions": 2,
    }


def test_parse_reports_config_paths():
    with pytest.raises(ConfigError, match="config.environment"):
        parse_experiment({})
    cfg = rotating_best_arm_config()
    del cfg["environment"]["d"]
    with pytest.raises(ConfigError, match="environment.d"):
        parse_experiment(cfg)
    cfg = rotating_best_arm_config()
    cfg["environment"]["means"][1][3] = 1.7
    with pytest.raises(ConfigError, match=r"means\[1\]\[3\]"):
        parse_experiment(cfg)
    cfg = rotating_best_arm_config()
    cfg["regret"] = {"kind": "adaptive", "tau0": 5000}
    with pytest.raises(ConfigError, match="tau0"):
        parse_experiment(cfg)
    cfg = rotating_best_arm_config()
    cfg["forecaster"] = {"rule": "max_share", "eta": 1.0, "alpha": 0.1}
    cfg["regret"] = {"kind": "adaptive", "tau0": 8}
    del cfg["comparator"]
    assert parse_experiment(cfg).regret_kind == "adaptive"
    cfg = rotating_best_arm_config()
    cfg["environment"] = {"kind": "iid_bernoulli", "d": 1, "T": 1000,
                          "means": [0.5]}
    cfg["forecaster"] = {"rule": "time_varying", "schedules": "anytime"}
    with pytest.raises(ConfigError, match="forecaster.schedules"):
        parse_experiment(cfg)
    cfg["environment"] = {"kind": "iid_bernoulli", "d": 2, "T": 2,
                          "means": [0.5, 0.5]}
    cfg["regret"] = {"kind": "adaptive", "tau0": 2}
    del cfg["comparator"]
    assert not any_failed(run_experiment(parse_experiment(cfg)))


def test_unreadable_loss_file_is_a_config_error(tmp_path, capsys):
    cfg = {"environment": {"kind": "from_file", "d": 2, "T": 3,
                           "path": str(tmp_path / "missing.csv")},
           "forecaster": {"rule": "fixed_share", "eta": 1.0, "alpha": 0.1},
           "regret": {"kind": "adaptive", "tau0": 2}}
    with pytest.raises(ConfigError, match="environment.path"):
        parse_experiment(cfg)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert cli_main(["certify", str(config)]) == 2
    assert "error: environment.path" in capsys.readouterr().err
    short = tmp_path / "short.csv"
    short.write_text("0.5,0.5\n0.1,0.9\n")
    cfg["environment"]["path"] = str(short)
    with pytest.raises(ConfigError, match="environment.path: .*expected 3 rows"):
        parse_experiment(cfg)


def test_loss_file_is_read_once_per_run(tmp_path, monkeypatch):
    from simplexshare import environments, experiments

    path = tmp_path / "losses.csv"
    path.write_text("0.5,0.25\n1,0\n0.125,0.75\n")
    cfg = {"environment": {"kind": "from_file", "d": 2, "T": 3,
                           "path": str(path)},
           "forecaster": {"rule": "fixed_share", "eta": 1.0, "alpha": 0.1},
           "regret": {"kind": "adaptive", "tau0": 2}, "repetitions": 3}
    spec = parse_experiment(cfg)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    load = environments.load_losses_csv
    monkeypatch.setattr(environments, "load_losses_csv", counted)
    monkeypatch.setattr(experiments, "load_losses_csv", counted)
    reports = run_experiment(spec)
    assert len(calls) == 1
    rows = report_rows(reports[:-1], include_timing=False)
    assert all(row[1:] == rows[1][1:] for row in rows[2:])


def test_comparator_errors_raise_at_parse_time():
    cfg = rotating_best_arm_config(reps=4)
    cfg["environment"]["T"] = 20000
    cfg["environment"]["segment_lengths"] = [5000] * 4
    cfg["forecaster"] = {"rule": "projected", "tune": {"m0": 4, "U0": 20000}}
    cfg["comparator"] = {"kind": "piecewise_corner",
                         "segment_lengths": [5000] * 4,
                         "corners": [0, 1, 2, 12]}
    with pytest.raises(ConfigError, match=r"comparator\.corners\[3\]"):
        parse_experiment(cfg)
    cfg["comparator"] = {"kind": "piecewise_corner",
                         "segment_lengths": [5000] * 3}
    with pytest.raises(ConfigError, match="comparator.segment_lengths"):
        parse_experiment(cfg)
    # the engine never checks the comparator again, so the spec check
    # rejects what the evaluators would (JSON reads Infinity as inf)
    vectors = [[0.1] * 10 for _ in range(20000)]
    for bad in (-0.5, float("inf"), float("nan")):
        vectors[7][3] = bad
        cfg["comparator"] = {"kind": "scaled_arbitrary", "vectors": vectors}
        with pytest.raises(ConfigError, match="comparator.vectors"):
            parse_experiment(json.loads(json.dumps(cfg)))


@pytest.mark.parametrize("comparator, message", [
    ({"kind": "piecewise_corner", "segment_lengths": [500, 500],
      "corners": [0]}, "corners: expected one corner per segment"),
    ({"kind": "piecewise_corner", "segment_lengths": [500, 500],
      "corners": 1}, "corners: expected one corner per segment"),
    ({"kind": "adaptive_window", "r": 1.5, "s": 5, "q": 0},
     "r: expected an integer"),
    ({"kind": "adaptive_window", "r": 1, "s": "5", "q": 0},
     "s: expected an integer"),
    ({"kind": "discounted", "betas": [1.5] + [1.0] * 999},
     "betas: discounts must lie in [0, 1]"),
    ({"kind": "discounted", "betas": [1.0] * 999},
     "betas: discount schedule has length 999, expected 1000"),
])
def test_comparator_errors_name_their_field(comparator, message):
    """The same message from the parser, under ``comparator.``, and from
    ``gen_comparator``: both read it where the rows are laid out."""
    cfg = rotating_best_arm_config()  # d = 10, T = 1000
    cfg["comparator"] = comparator
    pattern = re.escape(message) + "$"
    with pytest.raises(ConfigError, match=r"^comparator\." + pattern):
        parse_experiment(cfg)
    with pytest.raises(ValueError, match="^" + pattern):
        gen_comparator(ComparatorSpec(**comparator), d=10, T=1000)


def _edited(**sections):
    """The rotating config with whole sections replaced; None drops one."""
    cfg = rotating_best_arm_config()
    for key, value in sections.items():
        if value is None:
            del cfg[key]
        else:
            cfg[key] = value
    return cfg


@pytest.mark.parametrize("config, message", [
    ([], "config: expected a JSON object"),
    (_edited(environment={"kind": "from_file", "d": 0, "T": 1000,
                          "path": "losses.csv"}),
     "environment: from_file needs d >= 1 and T >= 1"),
    (_edited(regret={"kind": "regretful"}),
     "regret.kind: unknown kind 'regretful'"),
    (_edited(regret={"kind": "discounted", "schedule": "flat"},
             comparator=None),
     "regret.schedule: expected 'linear_up', 'linear_down', or a list of "
     "discounts"),
    (_edited(forecaster=[]), "forecaster: expected an object"),
    (_edited(forecaster={"rule": "fixed_share", "eta": "1", "alpha": 0.1}),
     "forecaster.eta: expected a number"),
    (_edited(forecaster={"rule": "time_varying", "schedules": "harmonic"}),
     "forecaster.schedules: only the 'anytime' schedule family is "
     "supported"),
    (_edited(forecaster={"rule": "max_share", "tune": {"m0": 4, "U0": 1000}}),
     "forecaster.tune: tuning is only defined for fixed_share and projected "
     "rules"),
    (_edited(regret={"kind": "discounted",
                     "schedule": [1.0] + [0.5] * 998 + [1.0]},
             comparator=None, forecaster={"rule": "fixed_share"}),
     "forecaster: auto-tuning for discounted regret needs a monotone "
     "schedule"),
    (_edited(repetitions=2.5), "repetitions: expected an integer"),
    (_edited(repetitions=0), "repetitions: must be >= 1"),
    (_edited(output={"include_timing": "yes"}),
     "output.include_timing: expected a boolean"),
])
def test_config_errors_name_their_path(config, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_experiment(config)


_BASE = rotating_best_arm_config()
_SHARE = {"rule": "max_share", "eta": 0.3, "alpha": 0.01}


@pytest.mark.parametrize("path, section, value", [
    ("environment.sed", "environment", {**_BASE["environment"], "sed": 7}),
    ("comparator.corner", "comparator",
     {**_BASE["comparator"], "corner": [0]}),  # discounted comparators only
    ("forecaster.gama", "forecaster", {**_SHARE, "gama": 0.01}),
    ("forecaster.gamma", "forecaster", {**_SHARE, "gamma": 0.01}),
    ("forecaster.eta", "forecaster", {**_BASE["forecaster"], "eta": 0.5}),
    ("forecaster.tune", "forecaster",
     {"rule": "time_varying", "schedules": "anytime",
      "tune": {"m0": 4, "U0": 1000}}),
    ("forecaster.tune.L1", "forecaster",
     {"rule": "fixed_share", "tune": {"m0": 4, "U0": 1000, "L1": 9}}),
    ("regret.tau", "regret", {"kind": "shifting", "tau": 5}),
    ("output.timing", "output", {"timing": False}),
    ("config.outptu", "outptu", {"csv": "report.csv"}),
])
def test_unread_config_keys_are_errors(path, section, value):
    cfg = rotating_best_arm_config()
    cfg[section] = value
    with pytest.raises(ConfigError, match=rf"^{path}: unknown or unused field$"):
        parse_experiment(cfg)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, section, value", [
    ("forecaster.eta", "forecaster", {**_SHARE, "eta": _NAN}),
    ("forecaster.eta", "forecaster", {**_SHARE, "eta": _INF}),
    ("forecaster.alpha", "forecaster", {**_SHARE, "alpha": -_INF}),
    ("forecaster.gamma", "forecaster",
     {**_SHARE, "rule": "decayed_max_share", "gamma": _NAN}),
    ("forecaster.tune.L0", "forecaster",
     {"rule": "fixed_share", "tune": {"m0": 4, "U0": 1000, "L0": _NAN}}),
    ("forecaster.tune.U0", "forecaster",
     {"rule": "fixed_share", "tune": {"m0": 4, "U0": _INF}}),
    ("comparator.q", "comparator",
     {"kind": "adaptive_window", "r": 1, "s": 5, "q": [_INF] + [0.5] * 9}),
])
def test_non_finite_config_numbers_fail_at_parse_time(path, section, value):
    """Python's json reads NaN and Infinity; the parser rejects them."""
    cfg = rotating_best_arm_config()
    cfg[section] = value
    text = json.dumps(cfg)  # writes NaN, Infinity and -Infinity
    with pytest.raises(ConfigError, match=rf"^{path}: .*\bfinite"):
        parse_experiment(json.loads(text))


@pytest.mark.parametrize("tune", [
    {"m0": 1e-320, "U0": 1e10},  # eta and alpha underflow to 0
    {"m0": 4, "U0": 1000, "L0": 0},  # an infinite learning rate
])
def test_tune_caps_without_a_usable_tuning_fail_at_parse_time(tune):
    cfg = rotating_best_arm_config()
    cfg["forecaster"] = {"rule": "fixed_share", "tune": tune}
    with pytest.raises(ConfigError, match="^forecaster.tune: the caps give "):
        parse_experiment(cfg)


@pytest.mark.parametrize("segments", [1, 4])
def test_tune_caps_with_an_infinite_tuned_value_still_certify(segments):
    """The tuned value, infinite here, only picks (eta, alpha); the rows
    take their rule's own bound at that rate, finite for one segment and,
    although d / alpha overflows, for the m = 3 shifts of four."""
    if segments == 1:
        cfg = {"environment": {"kind": "iid_bernoulli", "d": 4, "T": 200,
                               "seed": 3, "means": [0.2, 0.5, 0.5, 0.5]},
               "comparator": {"kind": "piecewise_corner",
                              "segment_lengths": [200]},
               "regret": {"kind": "shifting"}, "repetitions": 2}
    else:
        cfg = rotating_best_arm_config(reps=2)
    cfg["forecaster"] = {"rule": "fixed_share",
                         "tune": {"m0": 1, "U0": 1e308}}
    spec = parse_experiment(cfg)
    assert 0.0 < spec.forecaster.eta < 1e-150
    assert spec.forecaster.rule.alpha == 1e-308
    reports = run_experiment(spec)
    assert not any_failed(reports)
    assert all(math.isfinite(row.bound) for row in reports)
    assert {row.m for row in reports} == {segments - 1.0}


def test_comparator_section_is_read_for_shifting_regret_only():
    cfg = rotating_best_arm_config()
    cfg["regret"] = {"kind": "adaptive", "tau0": 8}
    with pytest.raises(ConfigError, match="^config.comparator: "):
        parse_experiment(cfg)
    del cfg["comparator"]
    assert parse_experiment(cfg).comparator is None


def test_named_discount_schedule_errors_name_their_path(tmp_path, capsys):
    cfg = {"environment": {"kind": "iid_bernoulli", "d": 2, "T": 0,
                           "means": [0.5, 0.5]},
           "forecaster": {"rule": "fixed_share"},
           "regret": {"kind": "discounted", "schedule": "linear_up"}}
    for schedule in ("linear_up", "linear_down"):
        cfg["regret"]["schedule"] = schedule
        with pytest.raises(ConfigError,
                           match="^regret.schedule: T must be >= 1$"):
            parse_experiment(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["certify", str(path)]) == 2
    assert capsys.readouterr().err == "error: regret.schedule: T must be >= 1\n"


def test_trivial_single_point_environment_passes():
    spec = parse_experiment({
        "environment": {"kind": "iid_bernoulli", "d": 1, "T": 20, "seed": 3,
                        "means": [0.4]},
        "comparator": {"kind": "piecewise_corner", "segment_lengths": [20],
                       "corners": [0]},
        "forecaster": {"rule": "fixed_share", "eta": 1.0, "alpha": 0.1},
        "regret": {"kind": "shifting"},
        "repetitions": 1,
    })
    reports = run_experiment(spec)
    assert reports[0].regret == pytest.approx(0.0, abs=1e-12)
    assert all(r.verdict == "pass" for r in reports)


def test_tuned_fixed_share_certifies_on_rotating_environment():
    reports = run_experiment(parse_experiment(rotating_best_arm_config()))
    assert not any_failed(reports)
    body = reports[:-1]
    assert len(body) == 5
    assert all(r.U_sum == pytest.approx(1000.0) for r in body)
    assert all(r.m <= 3.0 for r in body)
    assert reports[-1].run_id == "summary"
    assert reports[-1].regret == max(r.regret for r in body)


def test_fixed_seed_runs_are_byte_identical(tmp_path):
    cfg = rotating_best_arm_config(reps=3)
    cfg["output"] = {"csv": str(tmp_path / "a.csv"), "include_timing": False}
    spec = parse_experiment(cfg)
    write_report_csv(run_experiment(spec), tmp_path / "a.csv", False)
    write_report_csv(run_experiment(spec), tmp_path / "b.csv", False)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _rule_configs(reps):
    """One config per mixing rule, plus the adaptive flip adversary."""
    forecasters = [
        {"rule": "fixed_share", "tune": {"m0": 4, "U0": 1000}},
        {"rule": "projected", "tune": {"m0": 4, "U0": 1000}},
        {"rule": "max_share", "eta": 0.3, "alpha": 0.01},
        {"rule": "decayed_max_share", "eta": 0.3, "alpha": 0.01,
         "gamma": 0.01},
        {"rule": "time_varying", "schedules": "anytime"},
    ]
    configs = []
    for fc in forecasters:
        cfg = rotating_best_arm_config(reps=reps)
        cfg["forecaster"] = fc
        configs.append(cfg)
    configs.append({
        "environment": {"kind": "adversarial_flip", "d": 10, "T": 300,
                        "seed": 11},
        "forecaster": {"rule": "fixed_share"},
        "regret": {"kind": "discounted", "schedule": "linear_down"},
        "repetitions": reps,
    })
    return configs


def test_batched_run_equals_single_runs():
    reps = 4
    for cfg in _rule_configs(reps):
        spec = parse_experiment(cfg)
        env, fc = spec.environment, spec.forecaster
        rule = fc.rule
        if env.kind == "adversarial_flip":
            batch = run_forecaster(rule, fc.eta, [make_adversary(env, stream=i)
                                                  for i in range(reps)],
                                   d=env.d, horizon=env.T)
        else:
            batch = run_forecaster(rule, fc.eta, [gen_losses(env, stream=i)
                                                  for i in range(reps)])
        engine = _run_batch(spec, lambda lo, hi, rows: None)
        for rep in range(reps):
            if env.kind == "adversarial_flip":
                traj = run_forecaster(rule, fc.eta,
                                      make_adversary(env, stream=rep),
                                      d=env.d, horizon=env.T)
            else:
                traj = run_forecaster(rule, fc.eta,
                                      gen_losses(env, stream=rep))
            for name in ("p", "log_p", "v", "log_v", "w", "realized",
                         "losses"):
                single, batched = getattr(traj, name), getattr(batch.rep(rep), name)
                assert (single is None and batched is None) or np.array_equal(
                    single, batched), (rule.variant, env.kind, rep, name)
            # the engine keeps p_t . l_t of each run, the p_t . l_t of a
            # trajectory, and losses that replay the run's: a drawn
            # stream redrawn, an adversary's rows as the run recorded them
            replayed = np.concatenate(
                [b[0] for _, _, b in engine.source.run(rep).blocks()])
            assert np.array_equal(replayed, traj.losses)
            if env.kind != "adversarial_flip":
                assert np.array_equal(replayed, gen_losses(env, stream=rep))
            assert np.array_equal(engine.realized[rep], traj.realized)
        assert np.array_equal(engine.etas, batch.etas)
        assert np.array_equal(engine.alphas, batch.alphas)


def test_summary_wall_ms_is_elapsed_time():
    spec = parse_experiment(rotating_best_arm_config(reps=4))
    start = time.perf_counter()
    reports = run_experiment(spec)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    summary = reports[-1]
    assert 0.0 < summary.wall_ms <= elapsed_ms
    assert sum(r.wall_ms for r in reports[:-1]) <= summary.wall_ms


def test_verdicts_recomputable_from_rows(tmp_path):
    cfg = rotating_best_arm_config(reps=3)
    path = tmp_path / "report.csv"
    spec = parse_experiment(cfg)
    write_report_csv(run_experiment(spec), path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert tuple(header) == CSV_COLUMNS
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        regret, bound = float(row["regret"]), float(row["bound"])
        expected = "pass" if regret <= bound + VERDICT_SLACK * max(
            1.0, abs(bound)) else "fail"
        assert row["verdict"] == expected


def test_report_rows_are_pinned():
    # seed 5: the summary takes its regret, m and n, L_sum and bound from
    # different repetitions; the second config's comparator (m = 3) is
    # beyond its caps (m0 = 1), and its bound is its rule's own
    cfg = {"environment": {"kind": "piecewise_stationary", "d": 3, "T": 12,
                           "seed": 5, "segment_lengths": [6, 6],
                           "means": [[0.3, 0.6, 0.5], [0.6, 0.3, 0.5]]},
           "comparator": {"kind": "piecewise_corner",
                          "segment_lengths": [6, 6]},
           "forecaster": {"rule": "fixed_share", "eta": 0.5, "alpha": 0.1},
           "regret": {"kind": "shifting"}, "repetitions": 3}
    lengths = [2] * 4
    overconfident = {
        "environment": {"kind": "piecewise_stationary", "d": 2, "T": 8,
                        "seed": 1, "segment_lengths": lengths,
                        "means": [[0.0, 1.0], [1.0, 0.0]] * 2},
        "comparator": {"kind": "piecewise_corner", "segment_lengths": lengths},
        "forecaster": {"rule": "fixed_share", "tune": {"m0": 1, "U0": 8}},
        "regret": {"kind": "shifting"}, "repetitions": 1}
    reports = (run_experiment(parse_experiment(cfg))
               + run_experiment(parse_experiment(overconfident)))
    head = "run_id,seed,T,d,regret_kind,regret,m,n,U_sum,L_sum,bound,verdict,wall_ms"
    expected = [head.split(",")] + [line.split(",") for line in (
        "0000,5,12,3,shifting,2.2432412874692229,0,1,12,3,5.2651559218083994,pass,0",
        "0001,5,12,3,shifting,4.1929554591521194,1,2,12,1,11.856829653817057,pass,0",
        "0002,5,12,3,shifting,2.1343007477560647,1,2,12,4,11.856829653817057,pass,0",
        "summary,5,12,3,shifting,4.1929554591521194,1,2,12,4,5.2651559218083994,pass,0",
        "0000,1,8,2,shifting,4.689851790392475,3,2,8,0,6.882773056478162,pass,0",
        "summary,1,8,2,shifting,4.689851790392475,3,2,8,0,6.882773056478162,pass,0")]
    assert report_rows(reports, include_timing=False) == expected
    timed = report_rows(reports)
    assert [row[:-1] for row in timed] == [row[:-1] for row in expected]
    assert [row[-1] for row in timed[1:]] == [
        format(r.wall_ms, ".17g") for r in reports]


def test_overconfident_caps_certify_with_the_rules_own_bound():
    spec = parse_experiment(overconfident_config())
    reports = run_experiment(spec)
    assert not any_failed(reports)
    for row in reports[:-1]:
        assert row.m == 19.0
        assert row.bound == _rule_bound(spec, row, np.ones(row.T))
        assert row.regret > tune_fixed_share(2, 1.0, 40.0).bound


def test_tuned_rows_outside_the_caps_take_their_rules_own_bound():
    # 20 segments whose best arm alternates: m reaches 12 to 19, far
    # above m0 = 1, so the tuned value certifies nothing, but the rule's
    # own guarantee at the run's (eta, alpha) does
    lengths = [10] * 20
    spec = parse_experiment({
        "environment": {"kind": "piecewise_stationary", "d": 2, "T": 200,
                        "seed": 3, "segment_lengths": lengths,
                        "means": [[0.2, 0.5] if i % 2 == 0 else [0.5, 0.2]
                                  for i in range(20)]},
        "comparator": {"kind": "piecewise_corner",
                       "segment_lengths": lengths},
        "forecaster": {"rule": "fixed_share", "tune": {"m0": 1, "U0": 200}},
        "regret": {"kind": "shifting"},
        "repetitions": 5,
    })
    reports = run_experiment(spec)
    assert reports[1].m == 12.0
    assert not any_failed(reports)
    assert all(r.bound == _rule_bound(spec, r, np.ones(r.T))
               for r in reports[:-1])

    # m0 caps the regularity mass m + ||u_1||_1: four segments give m = 3
    # but mass 4, beyond m0 = 3
    cfg = rotating_best_arm_config(reps=2)
    cfg["forecaster"]["tune"]["m0"] = 3
    spec = parse_experiment(cfg)
    reports = run_experiment(spec)
    assert reports[0].m == 3.0 and not any_failed(reports)
    assert all(r.bound == _rule_bound(spec, r, np.ones(r.T))
               for r in reports[:-1])


def test_adaptive_and_discounted_engine_paths():
    adaptive = parse_experiment({
        "environment": {"kind": "adversarial_flip", "d": 2, "T": 64,
                        "seed": 11},
        "forecaster": {"rule": "fixed_share", "tune": {"m0": 1, "U0": 8}},
        "regret": {"kind": "adaptive", "tau0": 8},
        "repetitions": 3,
    })
    reports = run_experiment(adaptive)
    assert not any_failed(reports)

    anytime = parse_experiment({
        "environment": {"kind": "iid_bernoulli", "d": 3, "T": 50, "seed": 11,
                        "means": [0.2, 0.5, 0.8]},
        "forecaster": {"rule": "time_varying", "schedules": "anytime"},
        "regret": {"kind": "adaptive", "tau0": 50},
        "repetitions": 2,
    })
    assert not any_failed(run_experiment(anytime))

    discounted = parse_experiment({
        "environment": {"kind": "iid_bernoulli", "d": 4, "T": 120, "seed": 7,
                        "means": [0.2, 0.4, 0.6, 0.8]},
        "forecaster": {"rule": "fixed_share"},
        "regret": {"kind": "discounted", "schedule": "linear_down"},
        "repetitions": 3,
    })
    reports = run_experiment(discounted)
    assert not any_failed(reports)
    assert all(r.U_sum == pytest.approx(121 * 120 / (2 * 120))
               for r in reports[:-1])

    # non-tuned rules certify discounted regret through the shifting
    # bound at the realized discounted-comparator statistics
    discounted_max_share = parse_experiment({
        "environment": {"kind": "iid_bernoulli", "d": 4, "T": 120, "seed": 7,
                        "means": [0.2, 0.4, 0.6, 0.8]},
        "forecaster": {"rule": "max_share", "eta": 1.0, "alpha": 0.1},
        "regret": {"kind": "discounted", "schedule": "linear_up"},
        "repetitions": 2,
    })
    assert not any_failed(run_experiment(discounted_max_share))


@pytest.mark.parametrize("rows", [None, 7])
def test_time_varying_runs_compute_each_rounds_schedules_once(monkeypatch,
                                                              rows):
    """The anytime rule's two schedules read one (eta_t, alpha_t) pair a
    round, also where a block starts again from the round before it: T
    calls in the run and the parser's domain check."""
    calls = []

    def counted(d, t):
        calls.append(t)
        return schedules(d, t)

    schedules = bounds.anytime_schedules
    monkeypatch.setattr(bounds, "anytime_schedules", counted)
    if rows is not None:
        monkeypatch.setattr(forecasters, "_block_rows", lambda d: rows)
    spec = parse_experiment({
        "environment": {"kind": "iid_bernoulli", "d": 3, "T": 50, "seed": 11,
                        "means": [0.2, 0.5, 0.8]},
        "forecaster": {"rule": "time_varying", "schedules": "anytime"},
        "regret": {"kind": "adaptive", "tau0": 50},
        "repetitions": 2,
    })
    assert not any_failed(run_experiment(spec))
    assert calls == [1] + list(range(1, 51))


_ADAPTIVE_RULES = {
    "fixed_share": {"rule": "fixed_share", "eta": 0.4, "alpha": 0.05},
    "projected": {"rule": "projected", "eta": 0.4, "alpha": 0.05},
    "time_varying": {"rule": "time_varying", "schedules": "anytime"},
    "max_share": {"rule": "max_share", "eta": 0.4, "alpha": 0.05},
    "decayed_max_share": {"rule": "decayed_max_share", "eta": 0.4,
                          "alpha": 0.05, "gamma": 0.02},
    "tuned": None,  # tuned fixed share with caps m0 = 1, U0 = tau0
}


def _rule_bound(spec, row, window, traj=None):
    """The rule's shifting guarantee at a row's statistics and comparator
    masses ``window`` (``traj`` gives a time-varying run's schedules), by
    the bounds module: at a constant rate, the smaller of the Hoeffding
    form M + eta U_sum / 8 and the small-loss form of the mixing cost M."""
    fc, rule, T, d = spec.forecaster, spec.forecaster.rule, row.T, row.d
    u1 = float(window[0])
    if rule.variant == "time_varying":
        return bound_time_varying(d, T, traj.etas, traj.alphas, row.m, window)
    if rule.variant == "fixed_share":
        M = _mixing_fixed_share(d, fc.eta, rule.alpha, row.m, row.U_sum, u1)
        H = bound_fixed_share(d, fc.eta, rule.alpha, row.m, row.U_sum, u1)
    elif rule.variant == "projected":
        M = _mixing_projected(d, fc.eta, rule.alpha, row.m, row.U_sum, u1)
        H = bound_projected(d, fc.eta, rule.alpha, row.m, row.U_sum, u1)
    else:
        # decay gamma: Z_t <= sum_{k<t} e^-gamma k <= 1/(1 - e^-gamma)
        C, Z = ((1.0, float(min(d, T))) if rule.variant == "max_share" else
                (math.exp(rule.gamma), min(float(d), float(T),
                                           -1.0 / math.expm1(-rule.gamma))))
        M = _mixing_shared_weights(d, T, fc.eta, rule.alpha, row.m, row.n,
                                   row.U_sum, C, Z, u1)
        H = bound_shared_weights(d, T, fc.eta, rule.alpha, row.m, row.n,
                                 row.U_sum, C=C, Z_max=Z, u1_norm=u1)
    return min(H, small_loss_form(M, fc.eta, row.L_sum))


@pytest.mark.parametrize("rule", sorted(_ADAPTIVE_RULES))
def test_adaptive_rows_take_their_rules_bound_at_the_window(rule):
    # an adaptive row is the shifting regret against its worst window
    # (one arm over rounds r..s), and its bound is the rule's shifting
    # guarantee there: m + ||u_1||_1 = 1 and U_sum = s - r + 1 <= tau0
    starts = set()
    for env, tau0 in (({"kind": "adversarial_flip", "d": 3, "T": 60,
                        "seed": 4}, 60),
                      (_piecewise_env(5, 90, 3), 30),
                      (_piecewise_env(5, 90, 3), 90),
                      ({"kind": "iid_bernoulli", "d": 4, "T": 40, "seed": 2,
                        "means": [0.0, 1.0, 1.0, 1.0]}, 10)):
        spec = parse_experiment({"environment": env,
                                 "forecaster": _ADAPTIVE_RULES[rule] or {
                                     "rule": "fixed_share",
                                     "tune": {"m0": 1, "U0": tau0}},
                                 "regret": {"kind": "adaptive", "tau0": tau0},
                                 "repetitions": 2})
        reports = run_experiment(spec)
        assert not any_failed(reports)
        for rep, row in enumerate(reports[:-1]):
            traj = _trajectory(spec, rep)
            regret, r, s, _ = adaptive_regret_details(traj, traj.losses, tau0)
            window = np.zeros(traj.T)
            window[r - 1:s] = 1.0
            starts.add(r == 1)
            assert row.regret == regret
            assert (row.m + window[0], row.U_sum) == (1.0, s - r + 1)
            assert row.bound == _rule_bound(spec, row, window, traj)
    assert starts == {True, False}


def test_max_share_engine_bound_path():
    lengths = [10] * 10
    means = []
    for i in range(10):
        row = [0.6] * 20
        row[i % 2] = 0.1
        means.append(row)
    cfg = {
        "environment": {"kind": "piecewise_stationary", "d": 20, "T": 100,
                        "seed": 5, "segment_lengths": lengths, "means": means},
        "comparator": {"kind": "piecewise_corner", "segment_lengths": lengths},
        "forecaster": {"rule": "max_share", "eta": 2.0, "alpha": 0.09},
        "regret": {"kind": "shifting"},
        "repetitions": 2,
    }
    assert not any_failed(run_experiment(parse_experiment(cfg)))
    cfg["forecaster"] = {"rule": "decayed_max_share", "eta": 2.0,
                         "alpha": 0.09, "gamma": 0.045}
    assert not any_failed(run_experiment(parse_experiment(cfg)))


def test_cli_run_tune_project_bound(tmp_path, capsys):
    cfg = rotating_best_arm_config(reps=2)
    cfg["output"] = {"csv": str(tmp_path / "out.csv")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path)]) == 0
    assert (tmp_path / "out.csv").exists()
    out = capsys.readouterr().out
    assert "verdict=pass" in out

    assert cli_main(["project", "--alpha", "0.4", "--v", "0.9,0.1"]) == 0
    assert capsys.readouterr().out.strip() == (
        "0.80000000000000004,0.20000000000000001")


@pytest.mark.parametrize("argv, printed", [
    ("tune --d 10 --m0 4 --U0 1000",
     "eta=0.53132418243760615\nalpha=0.0040000000000000001\n"
     "bound=132.83104560940154\n"),
    ("tune --d 10 --m0 4 --U0 1000 --L0 10",
     "eta=1.2966219280633242\nalpha=0.0040000000000000001\n"
     "bound=61.865408361581387\n"),
    ("tune --d 10 --m0 4 --U0 1000 --L0 0",
     "eta=inf\nalpha=0.0040000000000000001\nbound=35.296184043425171\n"),
    ("bound projected --d 2 --eta 1 --alpha 0.1 --m 1 --U-sum 10",
     "5.9388794541139358\n"),
    ("bound projected --d 2 --eta 1 --alpha 0 --m 1 --U-sum 10", "inf\n"),
    ("bound fixed-share --d 2 --eta 1 --alpha 0.1 --m 1 --U-sum 10 "
     "--u1-norm 1", "5.7817635793765474\n"),
    ("bound adaptive --d 2 --tau0 8",
     "exact=3.8508744308852449\nrelaxed=3.8846305987775884\n"),
    ("bound small-loss --d 10 --m0 4 --U0 1000 --L0 10",
     "61.865408361581387\n"),
    ("bound shared-weights --d 20 --T 100 --eta 2 --alpha 0.09 --m 9 --n 2 "
     "--U-sum 100 --C 1 --Z-max 20", "56.556263319686224\n"),
    ("bound max-share --d 200 --T 100 --eta 2.56 --alpha 0.09 --m 9 --n 2",
     "64.110405483307602\n"),
    ("bound decayed-max-share --d 200 --T 100 --eta 2.56 --alpha 0.09 "
     "--m0 9 --n0 2", "62.417063321912117\n"),
    ("bound anytime-adaptive --d 5 --T 500", "91.303927199774407\n"),
])
def test_cli_guarantees_print_exactly(capsys, argv, printed):
    assert cli_main(argv.split()) == 0
    assert capsys.readouterr() == (printed, "")


@pytest.mark.parametrize("argv, message", [
    ("bound fixed-share --d 2 --eta 1 --alpha 0.1 --m 1 --U-sum nan",
     "m, U_sum, and u1_norm must be nonnegative"),
    ("bound fixed-share --d 2 --eta 1 --alpha 0.1 --m 1 --U-sum 10 "
     "--u1-norm nan", "m, U_sum, and u1_norm must be nonnegative"),
    ("bound projected --d 2 --eta 1 --alpha 0.1 --m nan --U-sum 10",
     "m, U_sum, and u1_norm must be nonnegative"),
    ("bound shared-weights --d 20 --T 100 --eta 2 --alpha 0.09 --m 9 --n 2 "
     "--U-sum 100 --C nan --Z-max 20", "C must be >= 1"),
    ("bound shared-weights --d 20 --T 100 --eta 2 --alpha 0.09 --m 9 "
     "--n nan --U-sum 100 --C 1 --Z-max 20", "n must be nonnegative"),
    ("bound max-share --d 0 --T 100 --eta 2.56 --alpha 0.09 --m 9 --n 2",
     "need d >= 1 and T >= 1"),
    ("bound fixed-share --d 0 --eta 1 --alpha 0.1 --m 0 --U-sum 10 "
     "--u1-norm 0", "need d >= 1"),
    ("bound projected --d -3 --eta 1 --alpha 0.1 --m 0 --U-sum 10 "
     "--u1-norm 0", "need d >= 1"),
    ("bound shared-weights --d 0 --T 5 --eta 1 --alpha 0.1 --m 0 --n 0 "
     "--U-sum 10 --C 1 --Z-max 1 --u1-norm 0", "need d >= 1"),
    ("bound max-share --d 200 --T 0 --eta 2.56 --alpha 0.09 --m 9 --n 2",
     "need d >= 1 and T >= 1"),
    ("bound decayed-max-share --d 200 --T 0 --eta 2.56 --alpha 0.09 "
     "--m0 9 --n0 2", "need d >= 1 and T >= 1"),
    ("bound shared-weights --d 3 --T 50 --eta 1e-320 --alpha 0.1 --m 1 "
     "--n 2 --U-sum 20 --C 1 --Z-max 1e-320 --u1-norm 1",
     "Z_max must be >= 1"),
])
def test_cli_bound_domain_errors_name_the_flag(capsys, argv, message):
    assert cli_main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


_BOUNDARY_CALLS = [
    f"bound {family} --d 3 --eta 0.5 --alpha {alpha} --m {m} --U-sum {U}"
    for family in ("projected", "fixed-share") for alpha in (0, 1)
    for m, U in ((0, 1), (0, 50), (1, 2), (1, 50))
] + [
    f"bound shared-weights --d 3 --T 50 --eta 0.5 --alpha {alpha} --m {m} "
    f"--n 1 --U-sum {U} --C 1 --Z-max 3"
    for alpha in (0, 1) for m, U in ((0, 1), (0, 50), (1, 2), (1, 50))
] + [
    f"bound max-share --d 3 --T {T} --eta 0.5 --alpha {alpha} --m {m} --n 1"
    for alpha in (0, 1) for m, T in ((0, 1), (0, 50), (1, 2), (1, 50))
] + [
    f"bound decayed-max-share --d 3 --T {T} --eta 0.5 --alpha {alpha} "
    f"--m0 {m} --n0 1"
    for alpha in (0, 1) for m, T in ((0, 1), (0, 50), (1, 2), (1, 50))
] + [
    "bound adaptive --d 2 --tau0 1", "bound adaptive --d 1 --tau0 1",
    "bound small-loss --d 2 --m0 1 --U0 1 --L0 0",
    "bound small-loss --d 2 --m0 0 --U0 1 --L0 0",
    "bound anytime-adaptive --d 2 --T 3", "bound anytime-adaptive --d 2 --T 2",
    "tune --d 2 --m0 1 --U0 1", "tune --d 2 --m0 1 --U0 1 --L0 0",
    "tune --d 2 --m0 0 --U0 1",
    # non-finite flags
    "bound decayed-max-share --d 10 --T 100 --eta 1 --alpha 0.1 --m0 1 "
    "--n0 inf",
    "bound decayed-max-share --d 3 --T 50 --eta 0.5 --alpha 0.1 --m0 2 "
    "--n0 1e308",
    "bound decayed-max-share --d 3 --T 50 --eta 0.5 --alpha 0.1 --m0 2 "
    "--n0 1e-5",
    "bound max-share --d 10 --T 100 --eta 1 --alpha 0.1 --m 1 --n inf",
    "bound shared-weights --d 20 --T 100 --eta 2 --alpha 0.09 --m 9 --n inf "
    "--U-sum 100 --C 1 --Z-max 20",
    "bound shared-weights --d 1 --T 100 --eta 2 --alpha 0.09 --m 9 --n 2 "
    "--U-sum 100 --C inf --Z-max 1 --u1-norm 0",
    "bound projected --d 3 --eta inf --alpha 0.1 --m 0 --U-sum 0 --u1-norm 0",
    "bound fixed-share --d 3 --eta 0.5 --alpha 0 --m 0 --U-sum inf",
    "tune --d 10 --m0 4 --U0 inf", "tune --d 10 --m0 inf --U0 inf",
    "tune --d 10 --m0 4 --U0 1000 --L0 nan",
    "tune --d 10 --m0 1e-320 --U0 40 --L0 0",
    "bound small-loss --d 10 --m0 4 --U0 1000 --L0 nan",
]


@pytest.mark.parametrize("argv", _BOUNDARY_CALLS)
def test_cli_guarantees_at_boundary_inputs(capsys, argv):
    """alpha 0 and 1, m = 0 and no mass after the shifts: a number (inf
    included) or an ``error:`` line, never a traceback."""
    code = cli_main(argv.split())
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return
    assert code == 0 and err == ""
    for line in out.splitlines():
        assert not math.isnan(float(line.rpartition("=")[2])), line


_HUGE = "1" + "0" * 400  # an integer beyond the float range


@pytest.mark.parametrize("argv, flag", [
    (f"bound projected --d {_HUGE} --eta 1 --alpha 0.1 --m 1 --U-sum 10", "d"),
    (f"bound fixed-share --d {_HUGE} --eta 1 --alpha 0.1 --m 1 --U-sum 10",
     "d"),
    (f"bound adaptive --d 3 --tau0 {_HUGE}", "tau0"),
    (f"bound adaptive --d {_HUGE} --tau0 3", "d"),
    (f"bound adaptive --d 3 --tau0 -{_HUGE}", "tau0"),
    (f"bound small-loss --d {_HUGE} --m0 4 --U0 1000 --L0 10", "d"),
    (f"bound shared-weights --d {_HUGE} --T 100 --eta 2 --alpha 0.09 --m 9 "
     "--n 2 --U-sum 100 --C 1 --Z-max 20", "d"),
    (f"bound shared-weights --d 20 --T {_HUGE} --eta 2 --alpha 0.09 --m 9 "
     "--n 2 --U-sum 100 --C 1 --Z-max 20", "T"),
    (f"bound max-share --d {_HUGE} --T 100 --eta 2.56 --alpha 0.09 --m 9 "
     "--n 2", "d"),
    (f"bound max-share --d 200 --T {_HUGE} --eta 2.56 --alpha 0.09 --m 9 "
     "--n 2", "T"),
    (f"bound decayed-max-share --d {_HUGE} --T 100 --eta 2.56 --alpha 0.09 "
     "--m0 9 --n0 2", "d"),
    (f"bound decayed-max-share --d 200 --T {_HUGE} --eta 2.56 --alpha 0.09 "
     "--m0 9 --n0 2", "T"),
    (f"bound anytime-adaptive --d {_HUGE} --T 500", "d"),
    (f"bound anytime-adaptive --d 5 --T {_HUGE}", "T"),
    (f"tune --d {_HUGE} --m0 4 --U0 1000", "d"),
], ids=lambda x: x.split(" --")[0])
def test_cli_integer_flags_beyond_the_float_range_are_errors(capsys, argv,
                                                            flag):
    # the guarantees compute in floats: such a flag raised OverflowError
    assert cli_main(argv.split()) == 2
    assert capsys.readouterr() == (
        "", f"error: --{flag}: beyond the float range\n")


def _boundary_alpha_config(rule, alpha):
    return {"environment": {"kind": "iid_bernoulli", "d": 3, "T": 50,
                            "seed": 5, "means": [0.2, 0.5, 0.8]},
            "comparator": {"kind": "piecewise_corner",
                           "segment_lengths": [25, 25], "corners": [0, 1]},
            "forecaster": {"rule": rule, "eta": 0.5, "alpha": alpha},
            "regret": {"kind": "shifting"}, "repetitions": 2}


@pytest.mark.parametrize("rule, alpha", [("fixed_share", 0.0),
                                         ("fixed_share", 1.0),
                                         ("max_share", 1.0)])
def test_boundary_alpha_certifies_with_an_infinite_bound(tmp_path, capsys,
                                                         rule, alpha):
    cfg = _boundary_alpha_config(rule, alpha)
    reports = run_experiment(parse_experiment(cfg))
    assert all(r.bound == math.inf and r.verdict == "pass" for r in reports)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["certify", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "min_bound=inf verdict=pass" in out and err == ""


def test_a_decay_beyond_the_float_range_certifies_with_an_infinite_bound():
    # C = e^gamma overflows at gamma = 1000: certify raised OverflowError
    # after the run; the guarantee's limit is +inf
    cfg = _boundary_alpha_config("decayed_max_share", 0.1)
    cfg["forecaster"]["gamma"] = 1000.0
    reports = run_experiment(parse_experiment(cfg))
    assert all(r.bound == math.inf and r.verdict == "pass" for r in reports)


def _large_eta_config(rule, eta):
    """d = 2, T = 400: two 200-round segments whose favoured arm has loss 0
    and the other loss 1, against the hindsight corners (m = 1, n = 2,
    U_sum = 400, L_sum = 0), at alpha = 0.5."""
    forecaster = {"rule": rule, "eta": eta, "alpha": 0.5}
    if rule == "decayed_max_share":
        forecaster["gamma"] = 0.1
    return {"environment": {"kind": "piecewise_stationary", "d": 2, "T": 400,
                            "segment_lengths": [200, 200],
                            "means": [[0.0, 1.0], [1.0, 0.0]]},
            "comparator": {"kind": "piecewise_corner",
                           "segment_lengths": [200, 200]},
            "forecaster": forecaster, "regret": {"kind": "shifting"}}


# at L_sum = 0 the small-loss form is k M = M eta: n ln 2 + n T gamma
# + ln(2 / 0.5) + 398 ln 2 for the shared-weights rules (fixed share has
# n = ||u_1||_1 = 1 and gamma = 0); projected pays k alpha U_sum = 200 eta
# there, so its Hoeffding form eta U_sum / 8 + alpha U_sum wins
_LARGE_ETA_BOUNDS = {
    "fixed_share": lambda eta: 401.0 * math.log(2.0),
    "max_share": lambda eta: 402.0 * math.log(2.0),
    "decayed_max_share": lambda eta: 402.0 * math.log(2.0) + 80.0,
    "projected": lambda eta: eta * 50.0 + 200.0,
}


@pytest.mark.parametrize("rule, eta", [
    ("fixed_share", 1e7), ("fixed_share", 1e9), ("max_share", 1e9),
    ("decayed_max_share", 1e9), *[(rule, 1e300) for rule in (
        "fixed_share", "projected", "max_share", "decayed_max_share")]])
def test_a_large_rate_certifies_with_the_exact_small_loss_form(
        tmp_path, capsys, rule, eta):
    # forming the small-loss form's mixing cost as H - eta U_sum / 8 lost
    # every digit at a large eta: the bound read 277.758 at eta = 1e7,
    # below the theorem's 401 ln 2, and 0, a false fail, from eta = 1e9
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_large_eta_config(rule, eta)))
    assert cli_main(["certify", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "verdict=pass" in out and err == ""
    bound = float(out.split("min_bound=")[1].split()[0])
    assert bound == pytest.approx(_LARGE_ETA_BOUNDS[rule](eta), rel=1e-12)


def test_a_full_shift_comparator_of_large_mass_certifies(tmp_path, capsys):
    # every round shifts the whole mass, so m + ||u_1||_1 = U_sum in exact
    # arithmetic, but the correctly rounded sums differ by an ulp of
    # U_sum, past an absolute 1e-9 tolerance: certify ran the forecaster
    # and then exited 2 with "m cannot exceed the comparator mass"
    cfg = {"environment": {"kind": "iid_bernoulli", "d": 2, "T": 4,
                           "seed": 1, "means": [0.3, 0.6]},
           "comparator": {"kind": "scaled_arbitrary",
                          "vectors": [[395928.767, 0.0], [0.0, 5285892.633],
                                      [4593358.829, 0.0], [0.0, 623495.791]]},
           "forecaster": {"rule": "fixed_share", "eta": 1.0, "alpha": 0.1},
           "regret": {"kind": "shifting"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["certify", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "verdict=pass" in out and err == ""


def test_cli_certify_exit_codes(tmp_path, capsys, monkeypatch):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(rotating_best_arm_config(reps=2)))
    assert cli_main(["certify", str(good)]) == 0
    capsys.readouterr()

    # every guarantee holds, so a failed row needs a bound made too small
    monkeypatch.setattr(experiments, "_bound", lambda *args: 0.0)
    assert cli_main(["certify", str(good)]) == 1
    assert "certification FAILED" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli_main(["certify", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("eta, alpha", [(800.0, 0.01), (800.0, 1e-300),
                                        (1e5, 0.01), (1e5, 1e-300)])
def test_projected_pre_weights_that_underflow_certify(tmp_path, capsys, eta,
                                                      alpha):
    # exp(log v) of a loss-1 arm underflows to 0 from eta ~ 745 on; the
    # projection floors it, where certify used to exit 2 mid-run with
    # "projection requires strictly positive entries"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "environment": {"kind": "piecewise_stationary", "d": 4, "T": 50,
                        "segment_lengths": [25, 25],
                        "means": [[0.0, 1.0, 1.0, 1.0],
                                  [1.0, 0.0, 1.0, 1.0]]},
        "comparator": {"kind": "piecewise_corner", "segment_lengths": [25, 25]},
        "forecaster": {"rule": "projected", "eta": eta, "alpha": alpha},
        "regret": {"kind": "shifting"}, "repetitions": 2}))
    assert cli_main(["certify", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "verdict=pass" in out and err == ""


@pytest.mark.parametrize("rule, code", [("fixed_share", 0), ("max_share", 0),
                                        ("projected", 2)])
def test_an_alpha_whose_share_underflows_certifies_or_is_refused(
        tmp_path, capsys, rule, code):
    # alpha/d is 0 at alpha = 5e-324, d = 2.  Fixed share mixed with ln(alpha
    # / d) = -inf, no floor, so arm 1 took the whole second segment to
    # recover: regret 1000.5 against bound 995.83, exit 1 with a
    # RuntimeWarning.  Its share term is now ln(alpha) - ln(d), finite as
    # max share's is (regret 745.83).  The projection floors in the linear
    # domain, so it refuses that alpha at parse time; it read regret 1001.0
    # and exited 1.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "environment": {"kind": "piecewise_stationary", "d": 2, "T": 2000,
                        "segment_lengths": [1000, 1000],
                        "means": [[0.0, 1.0], [1.0, 0.0]]},
        "comparator": {"kind": "piecewise_corner",
                       "segment_lengths": [1000, 1000]},
        "forecaster": {"rule": rule, "eta": 1.0, "alpha": 5e-324},
        "regret": {"kind": "shifting"}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["certify", str(path)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "verdict=pass" in out and err == ""
    else:
        assert out == "" and err == ("error: forecaster: alpha/d underflows "
                                     "to 0: the projection's floor must be "
                                     "positive\n")


def test_small_loss_tuned_row_certifies_with_its_own_small_loss_form(
        tmp_path, capsys):
    # 20 segments of 100 rounds whose favoured arm has loss 0 and every
    # other arm loss 1, inside the caps (m + ||u_1||_1 = 20, U_sum = 2000,
    # L_sum = 0): regret 88.39 read a false fail against the tuning's old
    # value 24.50, which dropped the 2 under the root and m0 on M0
    lengths = [100] * 20
    cfg = {"environment": {"kind": "piecewise_stationary", "d": 100,
                           "T": 2000, "segment_lengths": lengths,
                           "means": [[0.0 if j == i else 1.0
                                      for j in range(100)]
                                     for i in range(20)]},
           "comparator": {"kind": "piecewise_corner",
                          "segment_lengths": lengths},
           "forecaster": {"rule": "fixed_share",
                          "tune": {"m0": 20, "U0": 2000, "L0": 1}},
           "regret": {"kind": "shifting"}}
    path = tmp_path / "small_loss.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["certify", str(path)]) == 0
    assert "max_regret=88.389245489341462 min_bound=209.37308590347919 " \
        "verdict=pass" in capsys.readouterr().out
    row = run_experiment(parse_experiment(cfg))[0]
    assert (row.m, row.U_sum, row.L_sum) == (19.0, 2000.0, 0.0)
    tuned = tune_small_loss(100, 20.0, 2000.0, 1.0)
    assert tuned.bound == pytest.approx(224.41605321661908, abs=1e-9)
    H = bound_fixed_share(100, tuned.eta, tuned.alpha, 19.0, 2000.0, 1.0)
    M = _mixing_fixed_share(100, tuned.eta, tuned.alpha, 19.0, 2000.0, 1.0)
    assert row.bound == small_loss_form(M, tuned.eta, 0.0) < H


def test_cli_config_error_paths(tmp_path, capsys):
    cfg = rotating_best_arm_config()
    cfg["environment"]["kind"] = "mystery"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path)]) == 2
    assert "environment.kind" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("environment", "T"),
                                          ("environment", "d"),
                                          (None, "repetitions")])
def test_integers_beyond_the_index_range_fail_at_parse_time(tmp_path, capsys,
                                                            section, key):
    # numpy raised "Maximum allowed dimension exceeded" (or OverflowError)
    # midway through the run
    cfg = {"environment": {"kind": "iid_bernoulli", "d": 2, "T": 5,
                           "means": [0.2, 0.5]},
           "forecaster": {"rule": "fixed_share", "eta": 1.0, "alpha": 0.1},
           "regret": {"kind": "adaptive", "tau0": 2}}
    (cfg[section] if section else cfg)[key] = 2 ** 63
    path = f"{section}.{key}" if section else key
    with pytest.raises(ConfigError, match=rf"^{path}: must be <= "
                       f"{np.iinfo(np.intp).max}$"):
        parse_experiment(cfg)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert cli_main(["certify", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("csv", [True, "no_such_dir/report.csv"])
def test_bad_output_csv_fails_at_parse_time(tmp_path, capsys, csv):
    cfg = rotating_best_arm_config()
    cfg["output"] = {"csv": csv if csv is True else str(tmp_path / csv)}
    with pytest.raises(ConfigError, match="output.csv: .* is not a file path "
                       "in an existing directory"):
        parse_experiment(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["certify", str(path)]) == 2
    assert "error: output.csv" in capsys.readouterr().err


def test_unwritable_report_is_an_error_not_a_failed_row(tmp_path, capsys):
    cfg = rotating_best_arm_config()
    cfg["output"] = {"csv": str(tmp_path)}  # a directory: open() fails
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["certify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _piecewise_env(d, T, segments):
    means = []
    for seg in range(segments):
        row = [0.5] * d
        row[(3 * seg) % d] = 0.2
        means.append(row)
    return {"kind": "piecewise_stationary", "d": d, "T": T, "seed": 3,
            "segment_lengths": [T // segments] * segments, "means": means}


_ADAPTIVE = {"environment": _piecewise_env(10, 20_000, 8),
             "forecaster": {"rule": "fixed_share", "eta": 0.3, "alpha": 0.01}}


def _traced_peak(spec):
    """Peak traced bytes of ``run_experiment(spec)``."""
    make_rng(0)  # numpy imports its generators on first use
    tracemalloc.start()
    try:
        run_experiment(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _shifting_budget(R, T):
    """What a shifting row may hold whatever T * d is: 1 MiB, a loss
    block and a log p ring of 2^15 entries per run, and 64 bytes per
    round and run."""
    return (1 << 20) + R * (2 * 8 * (1 << 15) + 64 * T)


@pytest.mark.parametrize("config", [
    {"environment": _piecewise_env(1000, 2000, 4),
     "comparator": {"kind": "piecewise_corner", "segment_lengths": [500] * 4},
     "forecaster": {"rule": "projected", "eta": 0.1, "alpha": 0.01},
     "regret": {"kind": "shifting"}},
    {"environment": _piecewise_env(1000, 2000, 4),
     "comparator": {"kind": "adaptive_window", "r": 301, "s": 1900,
                    "q": [(j % 7) / 3500 for j in range(1000)]},
     "forecaster": {"rule": "projected", "eta": 0.1, "alpha": 0.01},
     "regret": {"kind": "shifting"}},
    {**_ADAPTIVE, "regret": {"kind": "adaptive", "tau0": 5000}},
    {**_ADAPTIVE, "regret": {"kind": "adaptive", "tau0": 20_000}},
    {**_ADAPTIVE, "regret": {"kind": "discounted", "schedule": "linear_up"}},
], ids=["shifting", "window_vector", "adaptive", "adaptive_whole_horizon",
        "discounted"])
def test_run_experiment_holds_the_losses_and_small_arrays(config):
    # no T x d record, comparator or loss batch: every row replays its
    # losses in blocks (16 MB of them per run here), a discounted row's
    # arm found during the run; each holds at most twelve T-vectors and
    # two per run besides
    spec = parse_experiment({**config, "repetitions": 2})
    R, T = 2, spec.environment.T
    peak = _traced_peak(spec)
    if spec.regret_kind == "shifting":
        assert peak <= _shifting_budget(R, T)
    else:
        assert peak <= (96 + 16 * R) * T


def test_a_long_adaptive_row_holds_its_window_not_its_losses():
    # T = 1e5 rounds and windows of tau0 << T: besides a shifting row's
    # budget, the row holds the window scan's (tau0 + 1, d) state, not the
    # 8 MB of (T, d) losses
    T, d, tau0 = 100_000, 10, 1000
    spec = parse_experiment({
        "environment": _piecewise_env(d, T, 4),
        "forecaster": {"rule": "fixed_share", "eta": 0.3, "alpha": 0.01},
        "regret": {"kind": "adaptive", "tau0": tau0}})
    assert _traced_peak(spec) <= _shifting_budget(1, T) + 8 * (tau0 + 1) * d


@pytest.mark.parametrize("rows", [1, 7, None])
def test_adaptive_rows_stream_compensated_sums_bit_for_bit(
        tmp_path, monkeypatch, rows):
    # a loss file of T = 10,000 rounds: arm 0 is 0/1 for the
    # first half and float after, so its Kahan loop starts mid-stream, arm
    # 1 stays exact and arm 2 is float.  The scan over blocks of 1, 7 or
    # the default rows equals a brute window scan over plain-Python sums.
    T, tau0 = 10_000, 40
    rng = np.random.default_rng(67)
    losses = (rng.random((T, 3)) < 0.4).astype(float)
    losses[T // 2:, 0] = rng.random(T - T // 2)
    losses[:, 2] = rng.random(T)
    path = tmp_path / "losses.csv"
    path.write_text("\n".join(",".join(format(x, ".17g") for x in row)
                              for row in losses) + "\n")
    spec = parse_experiment({
        "environment": {"kind": "from_file", "d": 3, "T": T,
                        "path": str(path)},
        "forecaster": {"rule": "fixed_share", "eta": 0.3, "alpha": 0.01},
        "regret": {"kind": "adaptive", "tau0": tau0}})
    realized = run_forecaster(spec.forecaster.rule, spec.forecaster.eta,
                              losses).realized
    sums = prefix_sums_brute(np.column_stack([realized, losses]))
    want = best_window_brute(sums[:, :1] - sums[:, 1:], tau0)
    value, r, s, arm = want
    assert value > 0.0 and s - r + 1 < tau0
    if rows is not None:
        monkeypatch.setattr(forecasters, "_block_rows", lambda d: rows)
    assert _adaptive_details(realized, loss_rows(spec.environment),
                             tau0) == want
    row = run_experiment(spec)[0]
    assert (row.regret, row.U_sum, row.L_sum) == (
        value, s - r + 1, math.fsum(losses[r - 1:s, arm]))


def test_a_loss_file_is_held_once_for_every_repetition(tmp_path):
    # what the run holds beyond loading the file is a shifting row's
    # budget: one matrix serves all three repetitions
    env = _file_env(tmp_path, 1000, 300, 5)
    spec = parse_experiment({
        "environment": env,
        "comparator": {"kind": "piecewise_corner",
                       "segment_lengths": [100] * 3},
        "forecaster": {"rule": "fixed_share", "eta": 0.3, "alpha": 0.01},
        "regret": {"kind": "shifting"}, "repetitions": 3})
    tracemalloc.start()
    try:
        load_losses_csv(env["path"], 1000, 300)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _traced_peak(spec) <= load_peak + _shifting_budget(3, 300)


def _file_env(tmp_path, d, T, seed):
    """A from_file environment of float losses, written exactly."""
    losses = np.random.default_rng(seed).random((T, d))
    path = tmp_path / f"losses_{seed}.csv"
    path.write_text("\n".join(",".join(format(x, ".17g") for x in row)
                              for row in losses) + "\n")
    return {"kind": "from_file", "d": d, "T": T, "path": str(path)}


def _oracle_configs(floats):
    """Each regret kind and comparator kind, on 0/1 losses and on the
    from_file environment ``floats`` (d = 7, T = 1500)."""
    rng = np.random.default_rng(61)
    T = 1500
    piecewise = _piecewise_env(7, T, 3)
    iid = {"kind": "iid_bernoulli", "d": 6, "T": T, "seed": 5,
           "means": [0.2, 0.4, 0.5, 0.5, 0.6, 0.8]}
    flip = {"kind": "adversarial_flip", "d": 5, "T": 1700, "seed": 9}
    betas = rng.random(T).tolist()
    fixed = {"rule": "fixed_share", "eta": 0.3, "alpha": 0.01}
    shifting = {
        "corner_hindsight": (piecewise, {"kind": "piecewise_corner",
                                         "segment_lengths": [500] * 3}),
        "corner_given_float": (floats, {"kind": "piecewise_corner",
                                        "segment_lengths": [400, 600, 500],
                                        "corners": [0, 3, 0]}),
        "window_corner_float": (floats, {"kind": "adaptive_window", "r": 200,
                                         "s": 1300, "q": 2}),
        "window_vector": (iid, {"kind": "adaptive_window", "r": 300,
                                "s": T, "q": rng.random(6).tolist()}),
        "window_vector_float": (floats, {"kind": "adaptive_window", "r": 1,
                                         "s": 977,
                                         "q": [0.3, 0, 0.1, 0.2, 0, 0.7, 0.1]}),
        "discounted_corner_float": (floats, {"kind": "discounted",
                                             "betas": betas, "corner": 4}),
        "discounted_hindsight": (piecewise, {"kind": "discounted",
                                             "betas": betas}),
        "scaled_arbitrary_float": (floats, {
            "kind": "scaled_arbitrary",
            "vectors": (rng.random((T, 7)) * 0.3).tolist()}),
    }
    configs = {name: {"environment": env, "comparator": comparator,
                      "forecaster": fixed, "regret": {"kind": "shifting"}}
               for name, (env, comparator) in shifting.items()}
    configs["corner_hindsight_time_varying"] = {
        **configs["corner_hindsight"],
        "forecaster": {"rule": "time_varying", "schedules": "anytime"}}
    configs["window_vector_decayed_max_share"] = {
        **configs["window_vector"],
        "forecaster": {"rule": "decayed_max_share", "eta": 0.2,
                       "alpha": 0.02, "gamma": 0.01}}
    for name, env, regret in [
            ("adaptive_float", floats, {"kind": "adaptive", "tau0": 400}),
            ("adaptive_flip", flip, {"kind": "adaptive", "tau0": 1700}),
            ("discounted_list_float", floats,
             {"kind": "discounted", "schedule": betas}),
            ("discounted_flip", flip,
             {"kind": "discounted", "schedule": "linear_down"}),
            ("discounted_linear_up", iid,
             {"kind": "discounted", "schedule": "linear_up"})]:
        configs[name] = {"environment": env, "forecaster": fixed,
                         "regret": regret}
    configs["adaptive_flip_time_varying"] = {
        **configs["adaptive_flip"],
        "forecaster": {"rule": "time_varying", "schedules": "anytime"}}
    configs["discounted_flip_projected"] = {
        **configs["discounted_flip"],
        "forecaster": {"rule": "projected", "eta": 0.4, "alpha": 0.05}}
    return configs


_ORACLE_CASES = sorted(_oracle_configs({}))


def _trajectory(spec, rep):
    """Repetition ``rep`` of the config, run alone with its record."""
    env, fc = spec.environment, spec.forecaster
    if env.kind == "adversarial_flip":
        return run_forecaster(fc.rule, fc.eta, make_adversary(env, stream=rep),
                              d=env.d, horizon=env.T)
    return run_forecaster(fc.rule, fc.eta, gen_losses(env, stream=rep))


def _dense_row(spec, rep):
    """(regret, m, n, U_sum, L_sum) of one repetition by the public
    functions, with the comparator as a dense (T, d) matrix."""
    traj = _trajectory(spec, rep)
    l, T, d = traj.losses, traj.T, traj.d
    if spec.regret_kind == "shifting":
        u = gen_comparator(spec.comparator, d, T, losses=l)
        regret = generalized_shifting_regret(traj, l, u)
    elif spec.regret_kind == "adaptive":
        regret, r, s, arm = adaptive_regret_details(traj, l, spec.tau0)
        u = np.zeros((T, d))
        u[r - 1:s, arm] = 1.0
    else:
        regret, arm = discounted_regret_details(traj, l, spec.betas)
        u = np.zeros((T, d))
        u[:, arm] = spec.betas
    return (regret, regularity_m(u), sparsity_n(u), math.fsum(u.sum(axis=1)),
            math.fsum(np.einsum("td,td->t", u, l)))


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_engine_rows_equal_the_dense_path_bit_for_bit(tmp_path, case):
    floats = _file_env(tmp_path, 7, 1500, 62)
    spec = parse_experiment({**_oracle_configs(floats)[case],
                             "repetitions": 2})
    reports = run_experiment(spec)
    for rep in range(2):
        row = reports[rep]
        assert (row.regret, row.m, row.n, row.U_sum, row.L_sum) == \
            _dense_row(spec, rep), (case, rep)


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_rows_do_not_depend_on_the_block_size(tmp_path, monkeypatch, case):
    # blocks of 1 and 7 rounds put segment boundaries, the 2^14-entry
    # chunks of eta * loss and the carried hindsight sums inside and
    # across blocks; the default is one block of all T rounds here
    floats = _file_env(tmp_path, 7, 1500, 62)
    spec = parse_experiment({**_oracle_configs(floats)[case],
                             "repetitions": 2})
    default = report_rows(run_experiment(spec), include_timing=False)
    for rows in (1, 7):
        monkeypatch.setattr(forecasters, "_block_rows", lambda d: rows)
        assert report_rows(run_experiment(spec), include_timing=False) == \
            default, rows


@pytest.mark.parametrize("d", [1, 4])
def test_engine_discounted_rows_equal_the_exact_oracle(tmp_path, monkeypatch,
                                                       d):
    # the last column copies the best one, so two arm totals tie exactly
    # and the lower arm must win; at d = 1 the regret is 0 up to rounding
    T = 777
    rng = np.random.default_rng(68)
    losses, betas = rng.random((T, d)), rng.random(T)
    losses[:, 0] *= 0.5
    losses[:, -1] = losses[:, 0]
    path = tmp_path / "losses.csv"
    path.write_text("\n".join(",".join(format(x, ".17g") for x in row)
                              for row in losses) + "\n")
    spec = parse_experiment({
        "environment": {"kind": "from_file", "d": d, "T": T,
                        "path": str(path)},
        "forecaster": {"rule": "fixed_share", "eta": 0.3, "alpha": 0.01},
        "regret": {"kind": "discounted", "schedule": betas.tolist()},
        "repetitions": 2})
    arms, evaluate = [], experiments._evaluate

    def spy(spec, run, rep, shared_ms, u):
        arms.append(u[0].vec)
        return evaluate(spec, run, rep, shared_ms, u)

    monkeypatch.setattr(experiments, "_evaluate", spy)
    reports = run_experiment(spec)
    traj = run_forecaster(spec.forecaster.rule, spec.forecaster.eta, losses)
    want, arm = discounted_regret_details_brute(traj.p[:T], losses, betas)
    assert arm == 0 and arms == [arm, arm]
    for row in reports[:2]:
        assert row.regret == pytest.approx(want, rel=1e-12, abs=1e-12)


_GOLDEN = pathlib.Path(__file__).parent / "data" / "benchmark_set0"


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        _GOLDEN.glob("*.json")))
def test_benchmark_shaped_configs_give_their_recorded_csvs(tmp_path, name):
    # configs and include_timing-false reports of input set 0 of each
    # benchmark workload, recorded before the engine dropped its T x d
    # record and comparator; the tuned fixed-share configs' bounds since
    # re-recorded as their rule's own guarantee
    spec = parse_experiment(json.loads((_GOLDEN / f"{name}.json").read_text()))
    write_report_csv(run_experiment(spec), tmp_path / "report.csv", False)
    assert (tmp_path / "report.csv").read_bytes() == \
        (_GOLDEN / f"{name}.csv").read_bytes()


def _oversized(kind):
    """A config one of whose arrays would need more than 2^63 - 1 bytes:
    (path, config)."""
    flip = {"kind": "adversarial_flip", "d": 2 ** 40, "T": 2 ** 40}
    drawn = {"kind": "iid_bernoulli", "d": 2 ** 10, "T": 2 ** 54,
             "means": [0.5] * 2 ** 10}
    share = {"rule": "fixed_share", "eta": 0.5, "alpha": 0.1}
    adaptive = {"kind": "adaptive", "tau0": 1}
    wide = {**drawn, "d": 2 ** 60, "T": 2 ** 4, "means": [0.5, 0.5]}
    if kind == "adversary rows":  # R T d entries
        return "environment", {"environment": flip, "forecaster": share,
                               "regret": adaptive}
    if kind == "window scan":  # (tau0 + 1) d entries
        return "regret.tau0", {"environment": wide, "forecaster": share,
                               "regret": {**adaptive, "tau0": 2 ** 4}}
    # realized losses: R T entries
    return "repetitions", {"environment": {**drawn, "d": 2, "T": 2 ** 4,
                                           "means": [0.5, 0.5]},
                           "forecaster": share, "regret": adaptive,
                           "repetitions": 2 ** 60}


@pytest.mark.parametrize("kind", ["adversary rows", "window scan",
                                  "realized losses"])
def test_arrays_numpy_cannot_index_fail_at_parse_time(tmp_path, capsys,
                                                      monkeypatch, kind):
    # the run ended in "array is too big" with no path, or a traceback;
    # an adaptive row holds its window scan's state, not the T x d losses
    path, cfg = _oversized(kind)
    if cfg["environment"]["d"] == 2 ** 60:  # no config lists 2^60 means
        monkeypatch.setattr(EnvironmentSpec, "__post_init__",
                            lambda self: None)
    with pytest.raises(ConfigError, match=rf"^{path}: .* more than numpy "
                                          "can index"):
        parse_experiment(cfg)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert cli_main(["certify", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1


def test_a_failed_allocation_is_one_error_line(tmp_path, capsys,
                                               monkeypatch):
    # T = 2^40 asks 8 TiB for the linear_up discounts at parse time; the
    # allocation is replaced by its failure here
    def no_memory(*args):
        raise MemoryError()

    cfg = rotating_best_arm_config()
    cfg["regret"] = {"kind": "discounted", "schedule": "linear_up"}
    del cfg["comparator"]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    monkeypatch.setattr(experiments, "linear_up_discounts", no_memory)
    with pytest.raises(ConfigError, match="^regret.schedule: "):
        parse_experiment(cfg)
    assert cli_main(["certify", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: regret.schedule: ")
    monkeypatch.undo()
    # a run that does not fit, past parse time
    monkeypatch.setattr(cli, "run_experiment", no_memory)
    assert cli_main(["certify", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory\n"
