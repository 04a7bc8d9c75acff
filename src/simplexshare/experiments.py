"""Config-driven batch runner with CSV certification reports.

An experiment config is a JSON document with top-level keys
``environment``, ``comparator`` (shifting regret only), ``forecaster``,
``regret``, ``repetitions``, and ``output``.  ``parse_experiment``
turns it into the library's own objects (``EnvironmentSpec``,
``ComparatorSpec``, ``MixingRule``), whose constructors,
``environments.comparator_segments`` (a comparator against d and T)
and the ``simplex_core`` checkers are the only validation.  Their
errors come back as ``ConfigError`` with the config path before
anything runs, and so does a config with an array numpy cannot index.

Each repetition runs the forecaster on its own seeded stream or
adversary, evaluates the requested regret notion, and gets its rule's
shifting guarantee at the row's comparator (``_bound``); a summary row
(worst regret vs. smallest bound) is appended.  Every verdict is
recomputable from the emitted columns alone.  The repetitions run as
one lockstep batch over ``environments.loss_rows``, adaptive or not
(``forecasters._run_realized`` says what it holds), each row bit for
bit its repetition's alone.  A discounted row is a shifting row against
its arm, a hindsight corner, summed as the blocks pass (``SegmentCorners``).
Evaluation then replays a repetition's losses in blocks, never as a
(T, d) matrix: a shifting or discounted row once, an adaptive row twice
(the window scan, in O(tau0 d), then the worst window's statistics).
"""

from __future__ import annotations

import functools
import math
import os
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import bounds as bnd
from .environments import (INDEX_MAX, ComparatorSpec, EnvironmentSpec,
                           comparator_segments, linear_down_discounts,
                           linear_up_discounts, load_losses_csv, loss_rows)
from .forecasters import MixingRule, RealizedRun, _run_realized
from .regret_eval import (Segment, SegmentCorners, _adaptive_details,
                          as_discounts, comparator_stats)
from .simplex_core import _check_eta, _check_floor

VERDICT_SLACK = 1e-6


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
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return float(value)


def _integer(value, path):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer")
    if value < 1:
        raise ConfigError(f"{path}: must be >= 1")
    if value > INDEX_MAX:
        raise ConfigError(f"{path}: must be <= {INDEX_MAX}")
    return value


def _only(cfg: dict, path: str, keys) -> None:
    """Reject a key of ``cfg`` that the parser does not read."""
    for key in cfg:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown or unused field")


@contextmanager
def _reported_as(prefix: str):
    """Re-raise a library ``ValueError`` (a checker's, say), a file's
    ``OSError`` or a failed allocation as a ``ConfigError`` whose message
    starts with ``prefix``."""
    try:
        yield
    except (ValueError, OSError, MemoryError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _spec(cls, cfg, path: str, required: tuple[str, ...]):
    """``cls`` from the config; a key its kind does not read is an error."""
    values = {key: _get(cfg, key, path) for key in required}
    values.update((f.name, cfg[f.name]) for f in fields(cls) if f.name in cfg)
    with _reported_as(f"{path}."):
        spec = cls(**values)
    _only(cfg, path, required + spec.KINDS[spec.kind])
    return spec


@dataclass
class ForecasterConfig:
    """A parsed forecaster: its rule and, at a constant rate, eta."""

    rule: MixingRule
    eta: float | None = None


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
    """One report row; its fields, in order, are the CSV columns."""

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
    verdict: str = field(init=False)
    wall_ms: float

    def __post_init__(self):
        slack = VERDICT_SLACK * max(1.0, abs(self.bound))
        self.verdict = "pass" if self.regret <= self.bound + slack else "fail"


CSV_COLUMNS = tuple(f.name for f in fields(RegretReport))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _parse_environment(cfg) -> EnvironmentSpec:
    env = _spec(EnvironmentSpec, cfg, "environment", ("kind", "d", "T"))
    if env.kind == "from_file":
        if min(env.d, env.T) < 1:
            raise ConfigError("environment: from_file needs d >= 1 and T >= 1")
        with _reported_as("environment.path: "):
            load_losses_csv(env.path, env.d, env.T)
    return env


def _parse_comparator(cfg, d: int, T: int) -> ComparatorSpec:
    spec = _spec(ComparatorSpec, cfg, "comparator", ("kind",))
    with _reported_as("comparator."):
        comparator_segments(spec, d, T)
    return spec


def _parse_regret(cfg, T: int) -> tuple[str, int | None, np.ndarray | None]:
    kind = _get(cfg, "kind", "regret")
    keys = {"shifting": (), "adaptive": ("tau0",), "discounted": ("schedule",)}
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"regret.kind: unknown kind {kind!r}")
    _only(cfg, "regret", ("kind", *keys[kind]))
    if kind == "adaptive":
        tau0 = _integer(_get(cfg, "tau0", "regret"), "regret.tau0")
        if tau0 > T:
            raise ConfigError("regret.tau0: cannot exceed the horizon T")
        return kind, tau0, None
    if kind == "discounted":
        sched = _get(cfg, "schedule", "regret")
        with _reported_as("regret.schedule: "):
            if sched == "linear_up":
                betas = linear_up_discounts(T)
            elif sched == "linear_down":
                betas = linear_down_discounts(T)
            elif isinstance(sched, (list, tuple)):
                betas = as_discounts(sched, T)
            else:
                raise ValueError("expected 'linear_up', 'linear_down', or a "
                                 "list of discounts")
        return kind, None, betas
    return kind, None, None


def _parse_forecaster(cfg, d: int, regret_kind: str,
                      betas: np.ndarray | None) -> ForecasterConfig:
    variant = _get(cfg, "rule", "forecaster")
    if variant == "time_varying":
        _only(cfg, "forecaster", ("rule", "schedules"))
        if _get(cfg, "schedules", "forecaster") != "anytime":
            raise ConfigError("forecaster.schedules: only the 'anytime' "
                              "schedule family is supported")
        with _reported_as("forecaster.schedules: "):
            bnd.anytime_schedules(d, 1)  # the family's own domain check
        # both schedules read round t's pair, computed once
        pair = functools.lru_cache(maxsize=1)(
            lambda t: bnd.anytime_schedules(d, t))
        return ForecasterConfig(rule=MixingRule.time_varying(
            lambda t: pair(t)[0], lambda t: pair(t)[1]))
    caps = gamma = None
    tune = cfg.get("tune")
    if tune is not None:
        if variant not in ("fixed_share", "projected"):
            raise ConfigError("forecaster.tune: tuning is only defined for "
                              "fixed_share and projected rules")
        caps = {key: _number(_get(tune, key, "forecaster.tune"),
                             f"forecaster.tune.{key}") for key in ("m0", "U0")}
        _only(tune, "forecaster.tune", ("m0", "U0", "L0"))
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
        _only(cfg, "forecaster", ("rule", "tune"))
        with _reported_as("forecaster.tune: "):
            tuned = (bnd.tune_small_loss(d, **caps) if "L0" in caps
                     else bnd.tune_fixed_share(d, **caps))
        eta, alpha = tuned.eta, tuned.alpha
        where = f"forecaster.tune: the caps give eta = {eta:g}; "
    else:
        where = "forecaster: "
        eta = _number(_get(cfg, "eta", "forecaster"), "forecaster.eta")
        alpha = _number(_get(cfg, "alpha", "forecaster"), "forecaster.alpha")
        if variant == "decayed_max_share":
            gamma = _number(_get(cfg, "gamma", "forecaster"),
                            "forecaster.gamma")
        _only(cfg, "forecaster", ("rule", "tune", "eta", "alpha")
              + (() if gamma is None else ("gamma",)))
    with _reported_as(where):
        _check_eta(eta)
        rule = MixingRule(variant, alpha=alpha, gamma=gamma)
        if variant == "projected":
            _check_floor(alpha, d)
    return ForecasterConfig(rule=rule, eta=eta)


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
    repetitions = _integer(config.get("repetitions", 1), "repetitions")
    # floats in the run's largest arrays (0 where it has none): the (R, T)
    # realized losses, the adversary's (R, T, d) rows and an adaptive row's
    # (tau0 + 1, d) window-scan state
    R, T, d = repetitions, env.T, env.d
    for path, floats in (
            ("repetitions", R * T),
            ("environment", R * T * d * (env.kind == "adversarial_flip")),
            ("regret.tau0", 0 if tau0 is None else (tau0 + 1) * d)):
        if floats * 8 > INDEX_MAX:
            raise ConfigError(f"{path}: the run needs {floats} floats in one "
                              "array, more than numpy can index")
    output = config.get("output", {})
    output_csv = _get(output, "csv", "output", required=False)
    _only(output, "output", ("csv", "include_timing"))
    if output_csv is not None and not (
            isinstance(output_csv, str)
            and os.path.isdir(os.path.dirname(output_csv) or ".")):
        raise ConfigError(f"output.csv: {output_csv!r} is not a file path in "
                          "an existing directory")
    include_timing = output.get("include_timing", True)
    if not isinstance(include_timing, bool):
        raise ConfigError("output.include_timing: expected a boolean")
    _only(config, "config", ("environment", "forecaster", "regret",
                             "repetitions", "output")
          + (("comparator",) if regret_kind == "shifting" else ()))
    return ExperimentSpec(environment=env, comparator=comparator,
                          forecaster=forecaster, regret_kind=regret_kind,
                          tau0=tau0, betas=betas, repetitions=repetitions,
                          output_csv=output_csv, include_timing=include_timing)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _bound(fc: ForecasterConfig, run: RealizedRun, masses: np.ndarray,
           m: float, n: float, U_sum: float, L_sum: float) -> float:
    """The rule's shifting guarantee at a row's comparator u (given or
    hindsight, an adaptive row's worst window or a discounted row's corner;
    ``masses`` holds its ||u_t||_1) at the run's rate: at a constant rate
    the smaller of H = M + eta U_sum / 8 and ``bounds.small_loss_form`` of
    the rule's mixing cost M, formed once.  Tuned rows need no caps:
    inside them H is at most the tuned value ``fixed_share_envelope(d, m0,
    U0, eta, alpha)``, as eta H = S ln(d/alpha) - ||u_1||_1 ln(1/alpha)
    + (U_sum - S) ln(1/(1-alpha)) + eta^2 U_sum/8, S = m + ||u_1||_1,
    grows in S and U_sum for alpha <= d/(d+1)."""
    rule = fc.rule
    d, T = run.source.d, run.source.T
    u1_norm = float(masses[0])
    if rule.variant == "time_varying":
        return bnd.bound_time_varying(d, T, run.etas, run.alphas, m, masses)
    if rule.variant == "fixed_share":
        M = bnd._mixing_fixed_share(d, fc.eta, rule.alpha, m, U_sum, u1_norm)
    elif rule.variant == "projected":
        M = bnd._mixing_projected(d, fc.eta, rule.alpha, m, U_sum, u1_norm)
    else:
        M = bnd._mixing_shared_weights(
            d, T, fc.eta, rule.alpha, m, n, U_sum,
            *bnd._weight_constants(d, T, rule._decay), u1_norm)
    return min(M + fc.eta / 8.0 * U_sum,
               bnd.small_loss_form(M, fc.eta, L_sum))


def _evaluate(spec: ExperimentSpec, run: RealizedRun, rep: int,
              shared_ms: float, u: list[Segment]) -> RegretReport:
    """The report row of one repetition; ``shared_ms`` is its share of
    the batched generation, forecaster and realized-loss time, and ``u``
    its comparator with its corners: a shifting row's, or a discounted
    row's arm scaled by the discounts.  Either replays the repetition's
    losses once, block by block, for the statistics and is scored as
    ``masses @ realized - L_sum``.  An adaptive row replays them for the
    window scan (``_adaptive_details``) and again for its window's
    statistics."""
    start = time.perf_counter()
    losses, realized = run.source.run(rep), run.realized[rep]
    T, d = run.source.T, run.source.d
    if spec.regret_kind == "adaptive":
        regret, r, s, arm = _adaptive_details(realized, losses, spec.tau0)
        u = [Segment(r - 1, s, arm)]
    masses, m, n, U_sum, L_sum = comparator_stats(u, losses)
    if spec.regret_kind != "adaptive":
        regret = float(masses @ realized - L_sum)
    bound = _bound(spec.forecaster, run, masses, m, n, U_sum, L_sum)
    return RegretReport(run_id=f"{rep:04d}", seed=spec.environment.seed, T=T,
                        d=d, regret_kind=spec.regret_kind, regret=regret, m=m,
                        n=n, U_sum=U_sum, L_sum=L_sum, bound=bound,
                        wall_ms=shared_ms + (time.perf_counter() - start) * 1e3)


def run_experiment(spec: ExperimentSpec) -> list[RegretReport]:
    """Execute every repetition and append the aggregate summary row: the
    worst (largest) regret against the smallest bound, its verdict
    recomputed by the standard rule, so a passing summary is conservative.
    Its ``wall_ms`` is the elapsed time of this call; a repetition's is its
    own evaluation time plus 1/R of the batch's run over ``loss_rows``
    (an adversary's too), realized losses included.  Hindsight corners, a
    discounted row's arm among them, are summed as the run's blocks pass
    (``SegmentCorners``), so evaluation need not replay losses for them."""
    start = time.perf_counter()
    reps, T, d = spec.repetitions, spec.environment.T, spec.environment.d
    if spec.regret_kind == "shifting":
        u = comparator_segments(spec.comparator, d, T)
    elif spec.regret_kind == "discounted":
        u = [Segment(0, T, None, spec.betas)]
    else:  # adaptive: the worst window, found in evaluation
        u = []
    corners = SegmentCorners(u, reps)
    batch = _run_realized(spec.forecaster.rule, spec.forecaster.eta,
                          loss_rows(spec.environment, reps), corners.add)
    shared_ms = (time.perf_counter() - start) * 1e3 / reps
    reports = [_evaluate(spec, batch, rep, shared_ms, corners.runs[rep])
               for rep in range(reps)]
    worst = {key: max(getattr(r, key) for r in reports)
             for key in ("regret", "m", "n", "U_sum", "L_sum")}
    reports.append(replace(reports[0], run_id="summary", **worst,
                           bound=min(r.bound for r in reports),
                           wall_ms=(time.perf_counter() - start) * 1e3))
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
        if not include_timing:
            r = replace(r, wall_ms=0.0)
        rows.append([_fmt(v) if isinstance(v, float) else str(v)
                     for v in astuple(r)])
    return rows


def write_report_csv(reports: list[RegretReport], path,
                     include_timing: bool = True) -> None:
    rows = report_rows(reports, include_timing)
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(",".join(row) for row in rows) + "\n")


def any_failed(reports: list[RegretReport]) -> bool:
    return any(r.verdict == "fail" for r in reports)
