import json
import time

import numpy as np
import pytest

from simplexshare.bounds import tune_fixed_share
from simplexshare.cli import main as cli_main
from simplexshare.environments import gen_losses, make_adversary
from simplexshare.experiments import (CSV_COLUMNS, ConfigError, VERDICT_SLACK,
                                      _evaluate, _run_batch, any_failed,
                                      parse_experiment, report_rows,
                                      run_experiment, write_report_csv)
from simplexshare.forecasters import run_forecaster


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
    """Caps far below the comparator's true regularity: the tuned
    guarantee does not apply and certification must fail."""
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
    with pytest.raises(ConfigError, match="adaptive"):
        parse_experiment(cfg)
    cfg = rotating_best_arm_config()
    cfg["environment"] = {"kind": "iid_bernoulli", "d": 1, "T": 1000,
                          "means": [0.5]}
    cfg["forecaster"] = {"rule": "time_varying", "schedules": "anytime"}
    with pytest.raises(ConfigError, match="forecaster.schedules"):
        parse_experiment(cfg)
    cfg["environment"] = {"kind": "iid_bernoulli", "d": 2, "T": 2,
                          "means": [0.5, 0.5]}
    cfg["regret"] = {"kind": "adaptive", "tau0": 2}
    with pytest.raises(ConfigError, match="regret.kind: need d >= 2 and T >= 3"):
        parse_experiment(cfg)


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
        batch = _run_batch(spec)
        singles = []
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
            singles.append(_evaluate(spec, traj, rep, 0.0))
        engine = run_experiment(spec)[:-1]
        assert report_rows(engine, include_timing=False) == report_rows(
            singles, include_timing=False), (rule.variant, env.kind)


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


def test_overconfident_caps_fail_certification():
    reports = run_experiment(parse_experiment(overconfident_config()))
    assert any_failed(reports)


def test_tuned_bound_applies_only_inside_caps():
    # 20 segments whose best arm alternates: m reaches 12 to 19, far
    # above m0 = 1, so the tuned value certifies nothing
    lengths = [10] * 20
    reports = run_experiment(parse_experiment({
        "environment": {"kind": "piecewise_stationary", "d": 2, "T": 200,
                        "seed": 3, "segment_lengths": lengths,
                        "means": [[0.2, 0.5] if i % 2 == 0 else [0.5, 0.2]
                                  for i in range(20)]},
        "comparator": {"kind": "piecewise_corner",
                       "segment_lengths": lengths},
        "forecaster": {"rule": "fixed_share", "tune": {"m0": 1, "U0": 200}},
        "regret": {"kind": "shifting"},
        "repetitions": 5,
    }))
    assert reports[1].m == 12.0
    assert reports[1].regret < tune_fixed_share(2, 1.0, 200.0).bound
    assert all(np.isnan(r.bound) and r.verdict == "fail" for r in reports)

    # m0 caps the regularity mass m + ||u_1||_1: four segments give m = 3
    # but mass 4, beyond m0 = 3
    cfg = rotating_best_arm_config(reps=2)
    cfg["forecaster"]["tune"]["m0"] = 3
    reports = run_experiment(parse_experiment(cfg))
    assert reports[0].m == 3.0
    assert all(np.isnan(r.bound) for r in reports)


def test_auto_tuned_discounted_caps_allow_float_rounding():
    # U_sum exceeds U0 = sum(betas) by float summation alone
    spec = parse_experiment({
        "environment": {"kind": "iid_bernoulli", "d": 2, "T": 1001,
                        "seed": 7, "means": [0.3, 0.6]},
        "forecaster": {"rule": "fixed_share"},
        "regret": {"kind": "discounted", "schedule": "linear_up"},
        "repetitions": 2,
    })
    reports = run_experiment(spec)
    assert reports[0].U_sum > spec.forecaster.tune["U0"]
    assert all(r.bound == spec.forecaster.tuned.bound and r.verdict == "pass"
               for r in reports)


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

    assert cli_main(["tune", "--d", "10", "--m0", "4", "--U0", "1000"]) == 0
    out = capsys.readouterr().out
    assert "eta=0.53132418243760615" in out
    assert "bound=132.83104560940154" in out

    assert cli_main(["project", "--alpha", "0.4", "--v", "0.9,0.1"]) == 0
    assert capsys.readouterr().out.strip() == (
        "0.80000000000000004,0.20000000000000001")

    assert cli_main(["bound", "adaptive", "--d", "2", "--tau0", "8"]) == 0
    out = capsys.readouterr().out
    assert "exact=3.8508744308852449" in out

    assert cli_main(["bound", "fixed-share", "--d", "2", "--eta", "1",
                     "--alpha", "0.1", "--m", "1", "--U-sum", "10",
                     "--u1-norm", "1"]) == 0
    assert capsys.readouterr().out.strip() == "5.7817635793765465"


def test_cli_certify_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(rotating_best_arm_config(reps=2)))
    assert cli_main(["certify", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(overconfident_config()))
    assert cli_main(["certify", str(bad)]) == 1
    capsys.readouterr()

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli_main(["certify", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_config_error_paths(tmp_path, capsys):
    cfg = rotating_best_arm_config()
    cfg["environment"]["kind"] = "mystery"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path)]) == 2
    assert "environment.kind" in capsys.readouterr().err
