"""The guarantees' hypotheses are checked at every public entry point, by
one checker each (``simplex_core._check_*``)."""

import ast
import math
import pathlib

import numpy as np
import pytest

from simplexshare import (ForecasterState, MixingRule, bound_decayed_max_share,
                          bound_fixed_share, bound_max_share, bound_projected,
                          bound_shared_weights, bound_time_varying,
                          fixed_share_envelope, kl_project_clipped,
                          loss_update, mix_fixed_share, mix_max_share,
                          mix_projected, run_forecaster, small_loss_form,
                          step_time_varying)
from simplexshare import simplex_core
from simplexshare.cli import main as cli_main
from simplexshare.experiments import parse_experiment

P, LOSS, LOSSES = [0.5, 0.5], [0.25, 1.0], [[0.0, 1.0], [1.0, 0.0]]


def _stepped(etas, alphas) -> ForecasterState:
    """A streaming state stepped once per schedule value."""
    state = ForecasterState(2, MixingRule.time_varying(etas, alphas))
    for _ in etas:
        state.update(LOSS)
    return state


ETA_ENTRIES = {
    "loss_update": lambda eta: loss_update(P, LOSS, eta),
    "step_time_varying.eta_t": lambda eta: step_time_varying(P, LOSS, eta,
                                                             1.0, 0.1),
    "step_time_varying.eta_prev": lambda eta: step_time_varying(P, LOSS, 0.5,
                                                                eta, 0.1),
    "ForecasterState": lambda eta: ForecasterState(
        2, MixingRule.fixed_share(0.1), eta),
    "run_forecaster": lambda eta: run_forecaster(
        MixingRule.fixed_share(0.1), eta, LOSSES),
    "run_forecaster.eta_schedule": lambda eta: run_forecaster(
        MixingRule.time_varying([1.0, eta], [0.1, 0.1]), None, LOSSES),
    "ForecasterState.update.eta_schedule": lambda eta: _stepped(
        [1.0, eta], [0.1, 0.1]),
    "bound_projected": lambda eta: bound_projected(2, eta, 0.1, 1.0, 10.0,
                                                   1.0),
    "bound_fixed_share": lambda eta: bound_fixed_share(2, eta, 0.1, 1.0, 10.0,
                                                       1.0),
    "bound_shared_weights": lambda eta: bound_shared_weights(
        2, 10, eta, 0.1, 1.0, 1.0, 10.0, C=1.0, Z_max=2.0),
    "bound_max_share": lambda eta: bound_max_share(2, 10, eta, 0.1, 1.0, 1.0),
    "bound_decayed_max_share": lambda eta: bound_decayed_max_share(
        2, 10, eta, 0.1, 1.0, 1.0),
    "fixed_share_envelope": lambda eta: fixed_share_envelope(2, 1.0, 10.0,
                                                             eta, 0.1),
    "bound_time_varying": lambda eta: bound_time_varying(
        2, 2, [1.0, eta], [0.1, 0.1], 1.0, [1.0, 1.0]),
    "small_loss_form": lambda eta: small_loss_form(5.0, eta, 1.0),
}

ALPHA_ENTRIES = {
    "mix_fixed_share": lambda a: mix_fixed_share(P, a),
    "mix_projected": lambda a: mix_projected(P, a),
    "kl_project_clipped": lambda a: kl_project_clipped(P, a),
    "mix_max_share": lambda a: mix_max_share(P, P, a),
    "step_time_varying": lambda a: step_time_varying(P, LOSS, 0.5, 1.0, a),
    **{f"MixingRule.{name}": lambda a, name=name: getattr(MixingRule, name)(a)
       for name in ("fixed_share", "projected", "max_share")},
    "MixingRule.decayed_max_share": lambda a: MixingRule.decayed_max_share(
        a, 0.1),
    "run_forecaster.alpha_schedule": lambda a: run_forecaster(
        MixingRule.time_varying([1.0, 1.0], [0.1, a]), None, LOSSES),
    "ForecasterState.update.alpha_schedule": lambda a: _stepped(
        [1.0, 1.0], [0.1, a]),
    "bound_projected": lambda a: bound_projected(2, 1.0, a, 1.0, 10.0, 1.0),
    "bound_fixed_share": lambda a: bound_fixed_share(2, 1.0, a, 1.0, 10.0,
                                                     1.0),
    "bound_shared_weights": lambda a: bound_shared_weights(
        2, 10, 1.0, a, 1.0, 1.0, 10.0, C=1.0, Z_max=2.0),
    "bound_max_share": lambda a: bound_max_share(2, 10, 1.0, a, 1.0, 1.0),
    "bound_decayed_max_share": lambda a: bound_decayed_max_share(
        2, 10, 1.0, a, 1.0, 1.0),
    "fixed_share_envelope": lambda a: fixed_share_envelope(2, 1.0, 10.0, 1.0,
                                                           a),
    "bound_time_varying": lambda a: bound_time_varying(
        2, 2, [1.0, 1.0], [0.1, a], 1.0, [1.0, 1.0]),
}

GAMMA_ENTRIES = {
    "mix_max_share": lambda g: mix_max_share(P, P, 0.1, g),
    "MixingRule.decayed_max_share": lambda g: MixingRule.decayed_max_share(
        0.1, g),
}

CASES = ([(f"eta={v} {k}", f, v) for v in (math.inf, math.nan)
          for k, f in ETA_ENTRIES.items()]
         + [(f"alpha=nan {k}", f, math.nan) for k, f in ALPHA_ENTRIES.items()]
         + [(f"gamma={v} {k}", f, v) for v in (math.inf, math.nan)
            for k, f in GAMMA_ENTRIES.items()])


@pytest.mark.parametrize("entry, value",
                         [pytest.param(f, v, id=i) for i, f, v in CASES])
def test_every_entry_point_rejects_a_bad_parameter(entry, value):
    # an infinite eta gave p = [nan, nan], and a nan gamma nan weights
    with pytest.raises(ValueError,
                       match=r"must be (positive and finite|in \[0, 1\]"
                             r"|nonnegative and finite)$"):
        entry(value)


FLOOR_ENTRIES = {
    "kl_project_clipped": lambda a: kl_project_clipped(P, a),
    "mix_projected": lambda a: mix_projected(P, a),
    "ForecasterState": lambda a: ForecasterState(2, MixingRule.projected(a),
                                                 1.0),
    "run_forecaster": lambda a: run_forecaster(MixingRule.projected(a), 1.0,
                                               LOSSES),
    "parse_experiment": lambda a: parse_experiment({
        "environment": {"kind": "iid_bernoulli", "d": 2, "T": 2,
                        "means": [0.5, 0.5]},
        "forecaster": {"rule": "projected", "eta": 1.0, "alpha": a},
        "regret": {"kind": "adaptive", "tau0": 1}}),
}


@pytest.mark.parametrize("entry", FLOOR_ENTRIES.values(), ids=FLOOR_ENTRIES)
def test_every_projected_entry_point_refuses_an_alpha_without_a_floor(entry):
    # at d = 2, alpha = 5e-324 gives alpha/d = 0, and 1e-323 the least
    # positive floor
    with pytest.raises(ValueError, match=r"^(forecaster: )?alpha/d underflows "
                                         r"to 0: the projection's floor must "
                                         r"be positive$"):
        entry(5e-324)
    entry(1e-323)


def test_cli_project_refuses_an_alpha_without_a_floor(capsys):
    assert cli_main(["project", "--alpha", "5e-324", "--v", "0.5,0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: alpha/d underflows to 0: the "
                                 "projection's floor must be positive\n")


@pytest.mark.parametrize("family, flags", [
    ("projected", "--d 2 --eta {eta} --alpha {alpha} --m 1 --U-sum 10"),
    ("fixed-share", "--d 2 --eta {eta} --alpha {alpha} --m 1 --U-sum 10"),
    ("shared-weights", "--d 2 --T 10 --eta {eta} --alpha {alpha} --m 1 --n 1 "
                       "--U-sum 10 --C 1 --Z-max 2"),
    ("max-share", "--d 2 --T 10 --eta {eta} --alpha {alpha} --m 1 --n 1"),
    ("decayed-max-share", "--d 2 --T 10 --eta {eta} --alpha {alpha} --m0 1 "
                          "--n0 1"),
])
@pytest.mark.parametrize("eta, alpha", [("inf", "0.1"), ("nan", "0.1"),
                                        ("1", "nan")])
def test_cli_bound_families_give_one_error_line(capsys, family, flags, eta,
                                                alpha):
    argv = ["bound", family, *flags.format(eta=eta, alpha=alpha).split()]
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("etas, alphas, holds", [
    ([5.0, 5.0 * (1.0 + 5e-13), 4.0], [0.5, 0.25, 0.125], True),
    ([5.0, 5.0 * (1.0 + 2e-12), 4.0], [0.5, 0.25, 0.125], False),
    ([0.1, 0.1 + 5e-13, 0.05], [0.5, 0.25, 0.125], False),  # relative 5e-12
    ([1.0, 1.0, 1.0], [0.5, 0.5 + 5e-13, 0.125], True),
    ([1.0, 1.0, 1.0], [0.5, 0.5 + 2e-12, 0.125], False),
])
def test_forecaster_and_bound_accept_the_same_schedules(etas, alphas, holds):
    """The rise a schedule may take is one definition: eta by a relative
    1e-12, alpha by an absolute 1e-12, for the run, the streaming state
    and the bound.  The bound allowed only an absolute rise of eta, so it
    refused the run's own etas."""
    rule = MixingRule.time_varying(etas, alphas)
    if not holds:
        with pytest.raises(ValueError, match="^schedule violation: "):
            run_forecaster(rule, None, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="^schedule violation: "):
            _stepped(etas, alphas)
        with pytest.raises(ValueError, match="^schedule violation: "):
            bound_time_varying(2, 3, etas, alphas, 1.0, np.ones(3))
        return
    assert _stepped(etas, alphas).t == 4
    traj = run_forecaster(rule, None, np.zeros((3, 2)))
    assert traj.etas.tolist() == etas and traj.alphas.tolist() == alphas
    assert math.isfinite(bound_time_varying(2, 3, traj.etas, traj.alphas, 1.0,
                                            np.ones(3)))


def _message(check, *args) -> str:
    with pytest.raises(ValueError) as info:
        check(*args)
    return str(info.value)


def test_only_the_checker_module_spells_out_a_hypothesis():
    """Each checker's message appears as a string literal in
    ``simplex_core`` alone, so no module grows its own copy of a check."""
    core = simplex_core
    nan = math.nan
    messages = [_message(core._check_eta, nan),
                _message(core._check_alpha, nan),
                _message(core._check_gamma, nan),
                _message(core._check_gamma, nan, "gamma", True),
                _message(core._check_losses, np.array([nan])),
                _message(core._check_losses, np.array([2.0])),
                _message(core._check_schedule_step, 1.0, 2.0, 0.5, 0.5),
                _message(core._check_schedule_step, 1.0, 1.0, 0.5, 1.0),
                _message(core._check_floor, 5e-324, 2)]
    assert len(set(messages)) == len(messages)
    src = pathlib.Path(core.__file__).parent

    def literals(path):
        return [node.value for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)]

    # the scan sees the messages written out whole
    core_literals = literals(src / "simplex_core.py")
    assert all(any(m in text for text in core_literals)
               for m in messages[4:])
    copies = [(path.name, m) for path in sorted(src.glob("*.py"))
              if path.name != "simplex_core.py"
              for text in literals(path) for m in messages if m in text]
    assert not copies
