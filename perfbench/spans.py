"""In-memory spans around the functions each layer exposes to the engine.

The traced run patches module attributes where the caller looks them up
(``simplexshare.cli.run_experiment``, ``simplexshare.experiments.gen_losses``,
``simplexshare.forecasters.kl_project_clipped``, every public function of
``simplexshare.bounds``) and restores them afterwards.  No library file
is changed.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

import numpy as np

RULES = ("fixed_share", "projected", "max_share", "decayed_max_share",
         "time_varying")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a span's parent is the innermost open span of its
    thread, or, in a thread with none open, the span marked as adopter
    (``run_experiment``, whose pool workers run the repetitions)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter: int | None = None

    @contextmanager
    def span(self, name: str, adopt: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1].id if stack else self._adopter
        record = Span(next(self._ids), name, time.perf_counter(), 0.0,
                      threading.get_ident(), parent)
        stack.append(record)
        if adopt:
            previous, self._adopter = self._adopter, record.id
        try:
            yield record
        finally:
            if adopt:
                self._adopter = previous
            stack.pop()
            record.end = time.perf_counter()
            self.spans.append(record)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(span, args, result)``
        may attach facts about the call to ``span.info``."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(record, args, result)
                return result
        return traced


def covered_time(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    total, run_start, run_end = 0.0, None, None
    for start, end in intervals:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s.id: s.duration - covered_time(s, children[s.id]) for s in spans}


# ---------------------------------------------------------------------------
# hooks: (module, attribute) -> span name
# ---------------------------------------------------------------------------

HOOKS = (
    ("simplexshare.cli", "parse_experiment", "parse_experiment"),
    ("simplexshare.cli", "run_experiment", "run_experiment"),
    ("simplexshare.cli", "write_report_csv", "write_report_csv"),
    ("simplexshare.experiments", "gen_losses", "gen_losses"),
    ("simplexshare.experiments", "gen_comparator", "gen_comparator"),
    ("simplexshare.experiments", "make_adversary", "make_adversary"),
    ("simplexshare.experiments", "run_forecaster", "run_forecaster"),
    ("simplexshare.forecasters", "kl_project_clipped", "kl_project_clipped"),
    ("simplexshare.experiments", "generalized_shifting_regret", "shifting"),
    ("simplexshare.experiments", "adaptive_regret_details", "adaptive"),
    ("simplexshare.experiments", "discounted_regret_details", "discounted"),
    ("simplexshare.experiments", "regularity_m", "comparator_stats"),
    ("simplexshare.experiments", "sparsity_n", "comparator_stats"),
)


def _after_run_forecaster(record, args, traj):
    record.info["rule"] = args[0].variant
    record.info["rounds"] = traj.T
    record.info["bytes"] = sum(v.nbytes for v in vars(traj).values()
                               if isinstance(v, np.ndarray))


def _bounds_functions(module):
    return [name for name, value in vars(module).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__]


@contextmanager
def installed(tracer: Tracer):
    """Patch every hook to record into ``tracer``; yields missing hooks."""
    saved, missing = [], []

    def patch(module, attr, wrapped):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    for module_name, attr, name in HOOKS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if attr == "run_experiment":
            wrapped = _traced_run_experiment(tracer, original)
        elif attr == "make_adversary":
            wrapped = _traced_make_adversary(tracer, original)
        elif attr == "run_forecaster":
            wrapped = tracer.wrap(name, original, _after_run_forecaster)
        else:
            wrapped = tracer.wrap(name, original)
        patch(module, attr, wrapped)
    bounds = importlib.import_module("simplexshare.bounds")
    for attr in _bounds_functions(bounds):
        patch(bounds, attr, tracer.wrap("bounds", getattr(bounds, attr)))
    try:
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _traced_run_experiment(tracer: Tracer, original):
    def traced(*args, **kwargs):
        with tracer.span("run_experiment", adopt=True) as record:
            cpu = time.process_time()
            reports = original(*args, **kwargs)
            record.info["cpu_s"] = time.process_time() - cpu
            rows = [r for r in reports if r.run_id != "summary"]
            record.info["reps"] = len(rows)
            record.info["fail_verdicts"] = sum(r.verdict == "fail" for r in rows)
            return reports
    return traced


def _traced_make_adversary(tracer: Tracer, original):
    def traced(*args, **kwargs):
        with tracer.span("make_adversary"):
            adversary = original(*args, **kwargs)
        return tracer.wrap("adversary", adversary)
    return traced


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced pass.

    ``X.s`` sums the spans named X that are not nested in another span
    named X (bounds functions call each other); ``X.calls`` counts all.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(name):
        return sum((s.duration for s in named[name]
                    if s.parent is None or by_id[s.parent].name != name), 0.0)

    def self_total(name):
        return sum(selfs[s.id] for s in named[name])

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in named[name])

    forecasts = named["run_forecaster"]
    out = {
        "cli.main.s": (total("cli.main"), "s"),
        "cli.self_s": (self_total("cli.main"), "s"),
        "parse_experiment.s": (total("parse_experiment"), "s"),
        "run_experiment.s": (total("run_experiment"), "s"),
        "run_experiment.self_s": (self_total("run_experiment"), "s"),
        "cpu_per_wall": (_ratio(info_sum("run_experiment", "cpu_s"),
                                total("run_experiment")), "ratio"),
        "write_report_csv.s": (total("write_report_csv"), "s"),
        "reps": (info_sum("run_experiment", "reps"), "count"),
        "fail_verdicts": (info_sum("run_experiment", "fail_verdicts"), "count"),
        "gen_losses.calls": (len(named["gen_losses"]), "count"),
        "gen_losses.s": (total("gen_losses"), "s"),
        "gen_comparator.s": (total("gen_comparator"), "s"),
        "adversary.calls": (len(named["adversary"]), "count"),
        "adversary.s": (total("adversary"), "s"),
        "run_forecaster.calls": (len(forecasts), "count"),
        "run_forecaster.s": (total("run_forecaster"), "s"),
        "rounds": (info_sum("run_forecaster", "rounds"), "count"),
        "trajectory_mb": (max((s.info.get("bytes", 0) for s in forecasts),
                              default=0) / 2 ** 20, "MB"),
    }
    for rule in RULES:
        mine = [s for s in forecasts if s.info.get("rule") == rule]
        out[f"us_per_round.{rule}"] = (
            _ratio(sum(s.duration for s in mine) * 1e6,
                   sum(s.info["rounds"] for s in mine)), "us")
    projected = {s.id for s in forecasts if s.info.get("rule") == "projected"}
    kl_in_projected = sum(s.duration for s in named["kl_project_clipped"]
                          if s.parent in projected)
    out.update({
        "kl_project_clipped.calls": (len(named["kl_project_clipped"]), "count"),
        "kl_project_clipped.s": (total("kl_project_clipped"), "s"),
        "kl_project_clipped.share": (_ratio(
            kl_in_projected,
            sum(by_id[i].duration for i in projected)), "ratio"),
        "shifting.s": (total("shifting"), "s"),
        "adaptive.s": (total("adaptive"), "s"),
        "discounted.s": (total("discounted"), "s"),
        "comparator_stats.s": (total("comparator_stats"), "s"),
        "bounds.calls": (len(named["bounds"]), "count"),
        "bounds.s": (total("bounds"), "s"),
    })
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_metrics(passes: list[dict[str, tuple[float, str]]]
                   ) -> dict[str, tuple[float, str]]:
    """Metric-wise median over traced passes."""
    return {name: (median(p[name][0] for p in passes), unit)
            for name, (_, unit) in passes[0].items()}


def threads_seen(tracer: Tracer) -> int:
    """Distinct threads that ran forecasters: the effective thread count."""
    return len({s.thread for s in tracer.spans if s.name == "run_forecaster"})
