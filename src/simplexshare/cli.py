"""Command-line interface.

Subcommands:

* ``run <config.json>``      -- execute an experiment grid, write the CSV report
* ``certify <config.json>``  -- same, exit nonzero on any failed verdict
* ``tune --d --m0 --U0 [--L0]``  -- print the tuned (eta, alpha, bound)
* ``project --alpha A --v v1,v2,...``  -- print the KL projection
* ``bound <family> ...``     -- print any closed-form guarantee
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bnd
from .experiments import (ConfigError, _fmt, any_failed, parse_experiment,
                          run_experiment, write_report_csv)
from .simplex_core import kl_project_clipped


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _cmd_run(args) -> int:
    """``run`` and ``certify``; only ``certify`` fails on a failed row."""
    spec = parse_experiment(_load_config(args.config))
    reports = run_experiment(spec)
    if spec.output_csv:
        write_report_csv(reports, spec.output_csv, spec.include_timing)
        print(f"wrote {spec.output_csv} ({len(reports)} rows)")
    summary = reports[-1]
    print(f"summary: kind={summary.regret_kind} repetitions={len(reports) - 1} "
          f"max_regret={_fmt(summary.regret)} min_bound={_fmt(summary.bound)} "
          f"verdict={summary.verdict}")
    if args.command == "run":
        return 0
    if any_failed(reports):
        print("certification FAILED", file=sys.stderr)
        return 1
    print("certification passed")
    return 0


def _cmd_project(args) -> int:
    v = [float(x) for x in args.v.split(",")]
    out = kl_project_clipped(v, args.alpha)
    print(",".join(_fmt(x) for x in out))
    return 0


# (guarantee, its flags in order; "=1" marks a flag defaulting to 1.0, a
# bare "=" one defaulting to None).  INTEGERS are integers, others floats.
INTEGERS = ("d", "T", "tau0")
TUNE = (lambda d, m0, U0, L0: bnd.tune_fixed_share(d, m0, U0) if L0 is None
        else bnd.tune_small_loss(d, m0, U0, L0), "d m0 U0 L0=")
BOUND_FAMILIES = {
    "projected": (bnd.bound_projected, "d eta alpha m U_sum u1_norm=1"),
    "fixed-share": (bnd.bound_fixed_share, "d eta alpha m U_sum u1_norm=1"),
    "adaptive": (bnd.bound_adaptive, "d tau0"),
    "small-loss": (lambda *a: bnd.tune_small_loss(*a).bound, "d m0 U0 L0"),
    "shared-weights": (bnd.bound_shared_weights,
                       "d T eta alpha m n U_sum C Z_max u1_norm=1"),
    "max-share": (bnd.bound_max_share, "d T eta alpha m n"),
    "decayed-max-share": (bnd.bound_decayed_max_share, "d T eta alpha m0 n0"),
    "anytime-adaptive": (bnd.anytime_adaptive_bound, "d T"),
}


def _cmd_guarantee(args) -> int:
    """Print a float bare, a result with named fields as name=value."""
    guarantee, flags = args.guarantee
    names = [flag.partition("=")[0] for flag in flags.split()]
    for name in INTEGERS:  # the guarantees compute in floats
        if name in names and not abs(getattr(args, name)) <= sys.float_info.max:
            raise ValueError(f"--{name}: beyond the float range")
    value = guarantee(*(getattr(args, name) for name in names))
    if isinstance(value, tuple):  # a NamedTuple
        for name, x in zip(value._fields, value):
            print(f"{name}={_fmt(x)}")
    else:
        print(_fmt(value))
    return 0


def _add_guarantee(parser, entry) -> None:
    for flag in entry[1].split():
        name, marked, default = flag.partition("=")
        parser.add_argument(
            f"--{name.replace('_', '-')}", dest=name, required=not marked,
            type=int if name in INTEGERS else float,
            default=float(default) if default else None)
    parser.set_defaults(func=_cmd_guarantee, guarantee=entry)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexshare",
        description="Share forecasters on the simplex with regret "
                    "bound certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    for p_run in (sub.add_parser("run", help="run an experiment config"),
                  sub.add_parser("certify", help="run and exit nonzero on "
                                                 "failed verdicts")):
        p_run.add_argument("config")
        p_run.set_defaults(func=_cmd_run)

    _add_guarantee(sub.add_parser("tune", help="print tuned (eta, alpha, "
                                               "bound)"), TUNE)

    p_proj = sub.add_parser("project",
                            help="KL-project a distribution onto the "
                                 "clipped simplex")
    p_proj.add_argument("--alpha", type=float, required=True)
    p_proj.add_argument("--v", type=str, required=True,
                        help="comma-separated probabilities")
    p_proj.set_defaults(func=_cmd_project)

    p_bound = sub.add_parser("bound", help="print a closed-form guarantee")
    bound_sub = p_bound.add_subparsers(dest="family", required=True)

    for family, entry in BOUND_FAMILIES.items():
        _add_guarantee(bound_sub.add_parser(family), entry)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # OSError: the report; MemoryError: a run too large for this machine
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
