"""Config-driven batch runner with CSV certification reports.

An experiment config is a JSON document with top-level keys
``environment``, ``comparator`` (shifting regret only), ``forecaster``,
``regret``, ``repetitions``, and ``output``.  ``parse_experiment``
turns it into the library's own objects (``EnvironmentSpec``,
``ComparatorSpec``, ``MixingRule``), whose constructors and checks are
the only validation; their errors come back as ``ConfigError`` with the
config path, before anything runs.

Each repetition runs the forecaster on a freshly seeded loss stream,
evaluates the requested regret notion, and gets the one guarantee that
``_bound`` picks for its (rule, regret kind) pair, or ``nan`` when no
guarantee covers it; a summary row (worst regret vs. smallest bound) is
appended.  Every verdict is recomputable from the emitted columns
alone.

All repetitions of a config run as one lockstep batch, and each row is
bit for bit the row its repetition would give alone.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import bounds as bnd
from .environments import (ComparatorSpec, EnvironmentSpec, check_comparator,
                           gen_comparator, gen_losses, linear_down_discounts,
                           linear_up_discounts, load_losses_csv,
                           make_adversary)
from .forecasters import MixingRule, Trajectory, run_forecaster
from .regret_eval import (adaptive_regret_details, as_discounts,
                          discounted_regret_details,
                          generalized_shifting_regret, regularity_m,
                          sparsity_n)

VERDICT_SLACK = 1e-6

CSV_COLUMNS = ("run_id", "seed", "T", "d", "regret_kind", "regret", "m", "n",
               "U_sum", "L_sum", "bound", "verdict", "wall_ms")


class ConfigError(ValueError):
    """Invalid experiment config; the message carries the config path."""


def _get(mapping, key, path, required=True, default=None):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return mapping[key]


def _number(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _integer(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return value


@contextmanager
def _reported_as(prefix: str):
    """Re-raise a library ``ValueError`` as a ``ConfigError`` whose
    message starts with ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _spec(cls, cfg, path: str, required: tuple[str, ...]):
    """``cls`` built from the config keys that name its fields."""
    values = {key: _get(cfg, key, path) for key in required}
    values.update((f.name, cfg[f.name]) for f in fields(cls) if f.name in cfg)
    with _reported_as(f"{path}."):
        return cls(**values)


@dataclass
class ForecasterConfig:
    """A parsed forecaster; ``tune`` holds the caps (``m0``, ``U0`` and
    optionally ``L0``) under which ``tuned`` was computed."""

    rule: MixingRule
    eta: float | None = None
    tune: dict | None = None
    tuned: bnd.TuneResult | None = None


@dataclass
class ExperimentSpec:
    environment: EnvironmentSpec
    comparator: ComparatorSpec | None
    forecaster: ForecasterConfig
    regret_kind: str
    tau0: int | None
    betas: np.ndarray | None
    repetitions: int
    output_csv: str | None
    include_timing: bool


@dataclass
class RegretReport:
    run_id: str
    seed: int
    T: int
    d: int
    regret_kind: str
    regret: float
    m: float
    n: float
    U_sum: float
    L_sum: float
    bound: float
    verdict: str
    wall_ms: float


def verdict_for(regret: float, bound: float) -> str:
    return "pass" if regret <= bound + VERDICT_SLACK * max(1.0, abs(bound)) else "fail"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _parse_environment(cfg) -> EnvironmentSpec:
    env = _spec(EnvironmentSpec, cfg, "environment", ("kind", "d", "T"))
    if env.kind == "from_file":
        if min(env.d, env.T) < 1:
            raise ConfigError("environment: from_file needs d >= 1 and T >= 1")
        try:
            load_losses_csv(env.path, env.d, env.T)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"environment.path: {exc}") from exc
    return env


def _parse_comparator(cfg, d: int, T: int) -> ComparatorSpec:
    spec = _spec(ComparatorSpec, cfg, "comparator", ("kind",))
    with _reported_as("comparator."):
        check_comparator(spec, d, T)
    return spec


def _parse_regret(cfg, T: int) -> tuple[str, int | None, np.ndarray | None]:
    kind = _get(cfg, "kind", "regret")
    if kind == "shifting":
        return kind, None, None
    if kind == "adaptive":
        tau0 = _integer(_get(cfg, "tau0", "regret"), "regret.tau0", minimum=1)
        if tau0 > T:
            raise ConfigError("regret.tau0: cannot exceed the horizon T")
        return kind, tau0, None
    if kind == "discounted":
        sched = _get(cfg, "schedule", "regret")
        if sched == "linear_up":
            betas = linear_up_discounts(T)
        elif sched == "linear_down":
            betas = linear_down_discounts(T)
        elif isinstance(sched, (list, tuple)):
            with _reported_as("regret.schedule: "):
                betas = as_discounts(sched, T)
        else:
            raise ConfigError("regret.schedule: expected 'linear_up', "
                              "'linear_down', or a list of discounts")
        return kind, None, betas
    raise ConfigError(f"regret.kind: unknown kind {kind!r}")


def _parse_forecaster(cfg, d: int, regret_kind: str,
                      betas: np.ndarray | None) -> ForecasterConfig:
    variant = _get(cfg, "rule", "forecaster")
    if variant == "time_varying":
        if _get(cfg, "schedules", "forecaster") != "anytime":
            raise ConfigError("forecaster.schedules: only the 'anytime' "
                              "schedule family is supported")
        with _reported_as("forecaster.schedules: "):
            bnd.anytime_schedules(d, 1)  # the family's own domain check
        return ForecasterConfig(rule=MixingRule.time_varying(
            lambda t: bnd.anytime_schedules(d, t)[0],
            lambda t: bnd.anytime_schedules(d, t)[1]))
    caps = gamma = tuned = None
    tune = cfg.get("tune")
    if tune is not None:
        if variant not in ("fixed_share", "projected"):
            raise ConfigError("forecaster.tune: tuning is only defined for "
                              "fixed_share and projected rules")
        caps = {key: _number(_get(tune, key, "forecaster.tune"),
                             f"forecaster.tune.{key}") for key in ("m0", "U0")}
        if tune.get("L0") is not None:
            caps["L0"] = _number(tune["L0"], "forecaster.tune.L0")
    elif (regret_kind == "discounted" and variant == "fixed_share"
          and "eta" not in cfg and "alpha" not in cfg):
        # Auto-tune from the discount schedule: the discounted comparator
        # has regularity mass max(beta_1, beta_T) under monotone ramps.
        diffs = np.diff(betas)
        if not (np.all(diffs >= -1e-15) or np.all(diffs <= 1e-15)):
            raise ConfigError("forecaster: auto-tuning for discounted regret "
                              "needs a monotone schedule")
        caps = {"m0": max(float(betas[0]), float(betas[-1])),
                "U0": float(betas.sum())}
    if caps is not None:
        with _reported_as("forecaster.tune: "):
            tuned = (bnd.tune_small_loss(d, **caps) if "L0" in caps
                     else bnd.tune_fixed_share(d, **caps))
        if not math.isfinite(tuned.eta):
            raise ConfigError("forecaster.tune.L0: L0 = 0 gives an "
                              "infinite learning rate; pass a positive cap")
        eta, alpha = tuned.eta, tuned.alpha
    else:
        eta = _number(_get(cfg, "eta", "forecaster"), "forecaster.eta")
        if eta <= 0.0:
            raise ConfigError("forecaster.eta: must be positive")
        alpha = _number(_get(cfg, "alpha", "forecaster"), "forecaster.alpha")
        if variant == "decayed_max_share":
            gamma = _number(_get(cfg, "gamma", "forecaster"),
                            "forecaster.gamma")
    with _reported_as("forecaster: "):
        rule = MixingRule(variant, alpha=alpha, gamma=gamma)
    return ForecasterConfig(rule=rule, eta=eta, tune=caps, tuned=tuned)


def parse_experiment(config: dict) -> ExperimentSpec:
    """Validate a config mapping and resolve every derived quantity."""
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    env = _parse_environment(_get(config, "environment", "config"))
    regret_kind, tau0, betas = _parse_regret(_get(config, "regret", "config"),
                                             env.T)
    comparator = None
    if regret_kind == "shifting":
        comparator = _parse_comparator(_get(config, "comparator", "config"),
                                       env.d, env.T)
    forecaster = _parse_forecaster(_get(config, "forecaster", "config"),
                                   env.d, regret_kind, betas)
    variant = forecaster.rule.variant
    if regret_kind == "adaptive" and variant not in ("fixed_share", "projected",
                                                     "time_varying"):
        raise ConfigError("regret.kind: no certified adaptive-regret bound "
                          f"for forecaster rule {variant!r}")
    if regret_kind == "adaptive" and variant == "time_varying":
        with _reported_as("regret.kind: "):
            bnd.anytime_adaptive_bound(env.d, env.T)  # the bound's domain check
    repetitions = _integer(config.get("repetitions", 1), "repetitions",
                           minimum=1)
    output = config.get("output", {})
    output_csv = _get(output, "csv", "output", required=False)
    include_timing = output.get("include_timing", True) if isinstance(
        output, dict) else True
    if not isinstance(include_timing, bool):
        raise ConfigError("output.include_timing: expected a boolean")
    return ExperimentSpec(environment=env, comparator=comparator,
                          forecaster=forecaster, regret_kind=regret_kind,
                          tau0=tau0, betas=betas, repetitions=repetitions,
                          output_csv=output_csv, include_timing=include_timing)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _comparator_stats(u: np.ndarray, losses: np.ndarray
                      ) -> tuple[float, float, float, float]:
    m = regularity_m(u)
    n = sparsity_n(u)
    U_sum = float(u.sum())
    L_sum = float(np.einsum("td,td->", u, losses))
    return m, n, U_sum, L_sum


def _bound(spec: ExperimentSpec, traj: Trajectory, u: np.ndarray, m: float,
           n: float, U_sum: float, L_sum: float) -> float:
    """The one guarantee that certifies a row, or nan when none does.

    A row's regret is the shifting regret against ``u``, so the rule's
    shifting guarantee at u's statistics applies; adaptive rows bound
    the worst window instead (regularity mass 1, total mass tau0).  A
    tuned fixed-share value is a worst case over its caps, so it holds
    only for comparators inside them: m + ||u_1||_1 <= m0, U_sum <= U0
    and L_sum <= L0, each up to the verdict slack.
    """
    fc, rule = spec.forecaster, spec.forecaster.rule
    d, T = traj.d, traj.T
    u1_norm = float(u[0].sum())
    if spec.regret_kind == "adaptive":
        if rule.variant == "time_varying":
            return bnd.anytime_adaptive_bound(d, T)
        m, U_sum, u1_norm = 1.0, float(spec.tau0), 0.0
    if rule.variant == "fixed_share" and fc.tuned is not None:
        realized = {"m0": m + u1_norm, "U0": U_sum, "L0": L_sum}
        inside = all(realized[key] <= cap + VERDICT_SLACK * max(1.0, cap)
                     for key, cap in fc.tune.items())
        return fc.tuned.bound if inside else math.nan
    if rule.variant == "fixed_share":
        return bnd.bound_fixed_share(d, fc.eta, rule.alpha, m, U_sum, u1_norm)
    if rule.variant == "projected":
        return bnd.bound_projected(d, fc.eta, rule.alpha, m, U_sum, u1_norm)
    if rule.variant == "time_varying":
        return bnd.bound_time_varying(d, T, traj.etas, traj.alphas, m,
                                      u.sum(axis=1))
    if rule.variant == "max_share":
        C, Z_max = 1.0, float(min(d, T))
    else:
        C, Z_max = math.exp(rule.gamma), min(float(d), 1.0 / rule.gamma)
    return bnd.bound_shared_weights(d, T, fc.eta, rule.alpha, m, n, U_sum,
                                    C=C, Z_max=Z_max, u1_norm=u1_norm)


def _run_batch(spec: ExperimentSpec) -> Trajectory:
    """All repetitions of the run, stepped in lockstep.

    Repetition i uses stream i: its own loss stream, or its own
    adversary (one generator per stream) for adaptive environments.
    """
    env = spec.environment
    fc = spec.forecaster
    reps = spec.repetitions
    if env.kind == "adversarial_flip":
        adversaries = [make_adversary(env, stream=rep) for rep in range(reps)]
        return run_forecaster(fc.rule, fc.eta, adversaries, d=env.d,
                              horizon=env.T)
    losses = np.empty((reps, env.T, env.d))
    for rep in range(reps):
        losses[rep] = gen_losses(env, stream=rep)
    return run_forecaster(fc.rule, fc.eta, losses)


def _evaluate(spec: ExperimentSpec, traj: Trajectory, rep: int,
              shared_ms: float) -> RegretReport:
    """The report row of one repetition; ``shared_ms`` is its share of
    the batched generation and forecaster time."""
    start = time.perf_counter()
    losses = traj.losses
    d, T = traj.d, traj.T

    if spec.regret_kind == "shifting":
        u = gen_comparator(spec.comparator, d, T, losses=losses)
        regret = generalized_shifting_regret(traj, losses, u)
    elif spec.regret_kind == "adaptive":
        regret, r, s, arm = adaptive_regret_details(traj, losses, spec.tau0)
        u = np.zeros((T, d))
        u[r - 1:s, arm] = 1.0
    else:  # discounted
        regret, arm = discounted_regret_details(traj, losses, spec.betas)
        # the shifting regret against the maximizing discounted corner
        u = np.zeros((T, d))
        u[:, arm] = spec.betas
    m, n, U_sum, L_sum = _comparator_stats(u, losses)
    bound = _bound(spec, traj, u, m, n, U_sum, L_sum)

    wall_ms = shared_ms + (time.perf_counter() - start) * 1e3
    return RegretReport(run_id=f"{rep:04d}", seed=spec.environment.seed, T=T,
                        d=d, regret_kind=spec.regret_kind, regret=regret, m=m,
                        n=n, U_sum=U_sum, L_sum=L_sum, bound=bound,
                        verdict=verdict_for(regret, bound), wall_ms=wall_ms)


def run_experiment(spec: ExperimentSpec) -> list[RegretReport]:
    """Execute every repetition and append the aggregate summary row.

    The summary holds the worst (largest) regret against the smallest
    bound (nan when any row's is), with its verdict recomputed by the
    standard rule, so a passing summary is conservative.  Its
    ``wall_ms`` is the elapsed time of this call; a repetition's is its
    own evaluation time plus 1/R of the batched generation and
    forecaster time.
    """
    start = time.perf_counter()
    batch = _run_batch(spec)
    shared_ms = (time.perf_counter() - start) * 1e3 / spec.repetitions
    reports = [_evaluate(spec, batch.rep(rep), rep, shared_ms)
               for rep in range(spec.repetitions)]
    worst_regret = max(r.regret for r in reports)
    min_bound = float(np.min([r.bound for r in reports]))
    summary = RegretReport(
        run_id="summary", seed=spec.environment.seed, T=reports[0].T,
        d=reports[0].d, regret_kind=spec.regret_kind, regret=worst_regret,
        m=max(r.m for r in reports), n=max(r.n for r in reports),
        U_sum=max(r.U_sum for r in reports),
        L_sum=max(r.L_sum for r in reports), bound=min_bound,
        verdict=verdict_for(worst_regret, min_bound),
        wall_ms=(time.perf_counter() - start) * 1e3)
    reports.append(summary)
    return reports


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def report_rows(reports: list[RegretReport], include_timing: bool = True
                ) -> list[list[str]]:
    rows = [list(CSV_COLUMNS)]
    for r in reports:
        rows.append([
            r.run_id, str(r.seed), str(r.T), str(r.d), r.regret_kind,
            _fmt(r.regret), _fmt(r.m), _fmt(r.n), _fmt(r.U_sum),
            _fmt(r.L_sum), _fmt(r.bound), r.verdict,
            _fmt(r.wall_ms if include_timing else 0.0),
        ])
    return rows


def write_report_csv(reports: list[RegretReport], path,
                     include_timing: bool = True) -> None:
    rows = report_rows(reports, include_timing)
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(",".join(row) for row in rows) + "\n")


def any_failed(reports: list[RegretReport]) -> bool:
    return any(r.verdict == "fail" for r in reports)
