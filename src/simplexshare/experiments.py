"""Config-driven batch runner with CSV certification reports.

An experiment config is a JSON document with top-level keys
``environment``, ``comparator`` (shifting regret only), ``forecaster``,
``regret``, ``repetitions``, and ``output``.  Each repetition runs the
forecaster on a freshly seeded loss stream, evaluates the requested
regret notion, computes the matching theoretical guarantee, and emits a
verdict row; a summary row (worst regret vs. smallest bound) is
appended.  Every verdict is recomputable from the emitted columns
alone.

All repetitions of a config run as one lockstep batch, and each row is
bit for bit the row its repetition would give alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from .environments import (ComparatorSpec, EnvironmentSpec, gen_comparator,
                           gen_losses, linear_down_discounts,
                           linear_up_discounts, make_adversary)
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


def _number(value, path, minimum=None):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return float(value)


def _integer(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return value


@dataclass
class ForecasterConfig:
    variant: str
    eta: float | None = None
    alpha: float | None = None
    gamma: float | None = None
    schedules: str | None = None
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
    kind = _get(cfg, "kind", "environment")
    if kind not in EnvironmentSpec.KINDS:
        raise ConfigError(f"environment.kind: unknown kind {kind!r}")
    if kind == "from_file":
        path = _get(cfg, "path", "environment")
        return EnvironmentSpec(
            kind=kind, path=str(path),
            d=_integer(_get(cfg, "d", "environment"), "environment.d",
                       minimum=1),
            T=_integer(_get(cfg, "T", "environment"), "environment.T",
                       minimum=1),
            seed=_integer(cfg.get("seed", 0), "environment.seed"))
    d = _integer(_get(cfg, "d", "environment"), "environment.d", minimum=1)
    T = _integer(_get(cfg, "T", "environment"), "environment.T", minimum=0)
    seed = _integer(cfg.get("seed", 0), "environment.seed")
    spec = EnvironmentSpec(kind=kind, d=d, T=T, seed=seed,
                           means=cfg.get("means", []),
                           segment_lengths=cfg.get("segment_lengths", []))
    if kind == "iid_bernoulli":
        means = _get(cfg, "means", "environment")
        if len(means) != d:
            raise ConfigError("environment.means: expected one mean per arm")
        for i, value in enumerate(means):
            v = _number(value, f"environment.means[{i}]")
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"environment.means[{i}]: must be in [0, 1]")
    elif kind == "piecewise_stationary":
        lengths = _get(cfg, "segment_lengths", "environment")
        means = _get(cfg, "means", "environment")
        for i, value in enumerate(lengths):
            _integer(value, f"environment.segment_lengths[{i}]", minimum=1)
        if sum(lengths) != T:
            raise ConfigError("environment.segment_lengths: must sum to T")
        if len(means) != len(lengths):
            raise ConfigError("environment.means: one mean vector per segment")
        for i, row in enumerate(means):
            if len(row) != d:
                raise ConfigError(f"environment.means[{i}]: expected {d} means")
            for j, value in enumerate(row):
                v = _number(value, f"environment.means[{i}][{j}]")
                if not 0.0 <= v <= 1.0:
                    raise ConfigError(
                        f"environment.means[{i}][{j}]: must be in [0, 1]")
    return spec


def _parse_comparator(cfg) -> ComparatorSpec:
    kind = _get(cfg, "kind", "comparator")
    if kind not in ComparatorSpec.KINDS:
        raise ConfigError(f"comparator.kind: unknown kind {kind!r}")
    if kind == "piecewise_corner":
        return ComparatorSpec(kind=kind,
                              segment_lengths=_get(cfg, "segment_lengths",
                                                   "comparator"),
                              corners=cfg.get("corners"))
    if kind == "adaptive_window":
        return ComparatorSpec(kind=kind,
                              r=_integer(_get(cfg, "r", "comparator"),
                                         "comparator.r", minimum=1),
                              s=_integer(_get(cfg, "s", "comparator"),
                                         "comparator.s", minimum=1),
                              q=_get(cfg, "q", "comparator"))
    if kind == "discounted":
        return ComparatorSpec(kind=kind, betas=_get(cfg, "betas", "comparator"),
                              corner=cfg.get("corner"))
    return ComparatorSpec(kind=kind, vectors=_get(cfg, "vectors", "comparator"))


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
            try:
                betas = as_discounts(sched, T)
            except ValueError as exc:
                raise ConfigError(f"regret.schedule: {exc}") from exc
        else:
            raise ConfigError("regret.schedule: expected 'linear_up', "
                              "'linear_down', or a list of discounts")
        return kind, None, betas
    raise ConfigError(f"regret.kind: unknown kind {kind!r}")


def _parse_forecaster(cfg, d: int, T: int, regret_kind: str,
                      betas: np.ndarray | None) -> ForecasterConfig:
    variant = _get(cfg, "rule", "forecaster")
    fc = ForecasterConfig(variant=variant)
    if variant == "time_varying":
        schedules = _get(cfg, "schedules", "forecaster")
        if schedules != "anytime":
            raise ConfigError("forecaster.schedules: only the 'anytime' "
                              "schedule family is supported")
        fc.schedules = schedules
        return fc
    if variant not in ("fixed_share", "projected", "max_share",
                       "decayed_max_share"):
        raise ConfigError(f"forecaster.rule: unknown rule {variant!r}")
    tune = cfg.get("tune")
    if tune is not None:
        if variant not in ("fixed_share", "projected"):
            raise ConfigError("forecaster.tune: tuning is only defined for "
                              "fixed_share and projected rules")
        m0 = _number(_get(tune, "m0", "forecaster.tune"), "forecaster.tune.m0")
        U0 = _number(_get(tune, "U0", "forecaster.tune"), "forecaster.tune.U0")
        if not 0.0 < m0 <= U0:
            raise ConfigError("forecaster.tune: need 0 < m0 <= U0")
        L0 = tune.get("L0")
        if L0 is not None:
            L0 = _number(L0, "forecaster.tune.L0", minimum=0.0)
            fc.tuned = bnd.tune_small_loss(d, m0, U0, L0)
            if not math.isfinite(fc.tuned.eta):
                raise ConfigError("forecaster.tune.L0: L0 = 0 gives an "
                                  "infinite learning rate; pass a positive cap")
        else:
            fc.tuned = bnd.tune_fixed_share(d, m0, U0)
        fc.tune = dict(tune)
        fc.eta, fc.alpha = fc.tuned.eta, fc.tuned.alpha
        return fc
    if (regret_kind == "discounted" and variant == "fixed_share"
            and "eta" not in cfg and "alpha" not in cfg):
        # Auto-tune from the discount schedule: the discounted comparator
        # has regularity mass max(beta_1, beta_T) under monotone ramps.
        diffs = np.diff(betas)
        if not (np.all(diffs >= -1e-15) or np.all(diffs <= 1e-15)):
            raise ConfigError("forecaster: auto-tuning for discounted regret "
                              "needs a monotone schedule")
        m0 = max(float(betas[0]), float(betas[-1]))
        U0 = float(betas.sum())
        fc.tuned = bnd.tune_fixed_share(d, m0, U0)
        fc.tune = {"m0": m0, "U0": U0}
        fc.eta, fc.alpha = fc.tuned.eta, fc.tuned.alpha
        return fc
    fc.eta = _number(_get(cfg, "eta", "forecaster"), "forecaster.eta")
    if fc.eta <= 0.0:
        raise ConfigError("forecaster.eta: must be positive")
    alpha = _number(_get(cfg, "alpha", "forecaster"), "forecaster.alpha")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("forecaster.alpha: must be in [0, 1]")
    fc.alpha = alpha
    if variant == "decayed_max_share":
        fc.gamma = _number(_get(cfg, "gamma", "forecaster"), "forecaster.gamma")
        if fc.gamma <= 0.0:
            raise ConfigError("forecaster.gamma: must be positive")
    return fc


def parse_experiment(config: dict) -> ExperimentSpec:
    """Validate a config mapping and resolve every derived quantity."""
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    env = _parse_environment(_get(config, "environment", "config"))
    regret_kind, tau0, betas = _parse_regret(_get(config, "regret", "config"),
                                             env.T)
    comparator = None
    if regret_kind == "shifting":
        comparator = _parse_comparator(_get(config, "comparator", "config"))
    forecaster = _parse_forecaster(_get(config, "forecaster", "config"),
                                   env.d, env.T, regret_kind, betas)
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


def _build_rule(fc: ForecasterConfig, d: int) -> MixingRule:
    if fc.variant == "time_varying":
        return MixingRule.time_varying(
            lambda t: bnd.anytime_schedules(d, t)[0],
            lambda t: bnd.anytime_schedules(d, t)[1])
    if fc.variant == "fixed_share":
        return MixingRule.fixed_share(fc.alpha)
    if fc.variant == "projected":
        return MixingRule.projected(fc.alpha)
    if fc.variant == "max_share":
        return MixingRule.max_share(fc.alpha)
    return MixingRule.decayed_max_share(fc.alpha, fc.gamma)


def _comparator_stats(u: np.ndarray, losses: np.ndarray
                      ) -> tuple[float, float, float, float]:
    m = regularity_m(u)
    n = sparsity_n(u)
    U_sum = float(u.sum())
    L_sum = float(np.einsum("td,td->", u, losses))
    return m, n, U_sum, L_sum


def _shifting_bound(spec: ExperimentSpec, traj: Trajectory, u: np.ndarray,
                    m: float, U_sum: float) -> float:
    fc = spec.forecaster
    d, T = traj.d, traj.T
    u1_norm = float(u[0].sum())
    if fc.variant == "fixed_share":
        if fc.tuned is not None:
            return fc.tuned.bound
        return bnd.bound_fixed_share(d, fc.eta, fc.alpha, m, U_sum, u1_norm)
    if fc.variant == "projected":
        return bnd.bound_projected(d, fc.eta, fc.alpha, m, U_sum, u1_norm)
    if fc.variant == "max_share":
        n = sparsity_n(u)
        return bnd.bound_shared_weights(d, T, fc.eta, fc.alpha, m, n, U_sum,
                                        C=1.0, Z_max=float(min(d, T)),
                                        u1_norm=u1_norm)
    if fc.variant == "decayed_max_share":
        n = sparsity_n(u)
        return bnd.bound_shared_weights(d, T, fc.eta, fc.alpha, m, n, U_sum,
                                        C=math.exp(fc.gamma),
                                        Z_max=min(float(d), 1.0 / fc.gamma),
                                        u1_norm=u1_norm)
    # time_varying with the anytime schedules
    return bnd.bound_time_varying(d, T, traj.etas, traj.alphas, m,
                                  u.sum(axis=1))


def _adaptive_bound(spec: ExperimentSpec, d: int, T: int) -> float:
    # worst case over window comparators: regularity mass 1, total mass tau0
    fc = spec.forecaster
    tau0 = spec.tau0
    if fc.variant == "time_varying":
        return bnd.anytime_adaptive_bound(d, T)
    if fc.variant == "fixed_share":
        if (fc.tuned is not None and fc.tune.get("L0") is None
                and fc.tune["m0"] == 1 and fc.tune["U0"] == tau0):
            return bnd.bound_adaptive(d, tau0)[0]
        return bnd.bound_fixed_share(d, fc.eta, fc.alpha, m=1.0,
                                     U_sum=float(tau0), u1_norm=0.0)
    if fc.variant == "projected":
        return bnd.bound_projected(d, fc.eta, fc.alpha, m=1.0,
                                   U_sum=float(tau0), u1_norm=0.0)
    raise ConfigError("regret.kind: no certified adaptive-regret bound for "
                      f"forecaster rule {fc.variant!r}")


def _run_batch(spec: ExperimentSpec) -> Trajectory:
    """All repetitions of the run, stepped in lockstep.

    Repetition i uses stream i: its own loss stream, or its own
    adversary (one generator per stream) for adaptive environments.
    """
    env = spec.environment
    fc = spec.forecaster
    rule = _build_rule(fc, env.d)
    reps = spec.repetitions
    if env.kind == "adversarial_flip":
        adversaries = [make_adversary(env, stream=rep) for rep in range(reps)]
        return run_forecaster(rule, fc.eta, adversaries, d=env.d,
                              horizon=env.T)
    losses = np.empty((reps, env.T, env.d))
    for rep in range(reps):
        losses[rep] = gen_losses(env, stream=rep)
    return run_forecaster(rule, fc.eta, losses)


def _evaluate(spec: ExperimentSpec, traj: Trajectory, rep: int,
              shared_ms: float) -> RegretReport:
    """The report row of one repetition; ``shared_ms`` is its share of
    the batched generation and forecaster time."""
    start = time.perf_counter()
    fc = spec.forecaster
    losses = traj.losses
    d, T = traj.d, traj.T

    if spec.regret_kind == "shifting":
        u = gen_comparator(spec.comparator, d, T, losses=losses)
        regret = generalized_shifting_regret(traj, losses, u)
        m, n, U_sum, L_sum = _comparator_stats(u, losses)
        bound = _shifting_bound(spec, traj, u, m, U_sum)
    elif spec.regret_kind == "adaptive":
        regret, r, s, arm = adaptive_regret_details(traj, losses, spec.tau0)
        u = np.zeros((T, d))
        u[r - 1:s, arm] = 1.0
        m, n, U_sum, L_sum = _comparator_stats(u, losses)
        bound = _adaptive_bound(spec, d, T)
    else:  # discounted
        regret, arm = discounted_regret_details(traj, losses, spec.betas)
        # equals the shifting regret against the maximizing discounted
        # corner, so shifting bounds at its realized statistics apply
        u = np.zeros((T, d))
        u[:, arm] = spec.betas
        m, n, U_sum, L_sum = _comparator_stats(u, losses)
        if fc.variant == "fixed_share" and fc.tuned is not None:
            bound = fc.tuned.bound
        else:
            bound = _shifting_bound(spec, traj, u, m, U_sum)

    wall_ms = shared_ms + (time.perf_counter() - start) * 1e3
    return RegretReport(run_id=f"{rep:04d}", seed=spec.environment.seed, T=T,
                        d=d, regret_kind=spec.regret_kind, regret=regret, m=m,
                        n=n, U_sum=U_sum, L_sum=L_sum, bound=bound,
                        verdict=verdict_for(regret, bound), wall_ms=wall_ms)


def run_experiment(spec: ExperimentSpec) -> list[RegretReport]:
    """Execute every repetition and append the aggregate summary row.

    The summary holds the worst (largest) regret against the smallest
    bound, with its verdict recomputed by the standard rule, so a
    passing summary is conservative.  Its ``wall_ms`` is the elapsed
    time of this call; a repetition's is its own evaluation time plus
    1/R of the batched generation and forecaster time.
    """
    start = time.perf_counter()
    batch = _run_batch(spec)
    shared_ms = (time.perf_counter() - start) * 1e3 / spec.repetitions
    reports = [_evaluate(spec, batch.rep(rep), rep, shared_ms)
               for rep in range(spec.repetitions)]
    worst_regret = max(r.regret for r in reports)
    min_bound = min(r.bound for r in reports)
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
