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


def _run_common(path: str) -> tuple[int, bool]:
    spec = parse_experiment(_load_config(path))
    reports = run_experiment(spec)
    if spec.output_csv:
        write_report_csv(reports, spec.output_csv, spec.include_timing)
        print(f"wrote {spec.output_csv} ({len(reports)} rows)")
    summary = reports[-1]
    print(f"summary: kind={summary.regret_kind} repetitions={len(reports) - 1} "
          f"max_regret={_fmt(summary.regret)} min_bound={_fmt(summary.bound)} "
          f"verdict={summary.verdict}")
    return len(reports), any_failed(reports)


def _cmd_run(args) -> int:
    _run_common(args.config)
    return 0


def _cmd_certify(args) -> int:
    _, failed = _run_common(args.config)
    if failed:
        print("certification FAILED", file=sys.stderr)
        return 1
    print("certification passed")
    return 0


def _cmd_tune(args) -> int:
    if args.L0 is not None:
        result = bnd.tune_small_loss(args.d, args.m0, args.U0, args.L0)
    else:
        result = bnd.tune_fixed_share(args.d, args.m0, args.U0)
    print(f"eta={_fmt(result.eta)}")
    print(f"alpha={_fmt(result.alpha)}")
    print(f"bound={_fmt(result.bound)}")
    return 0


def _cmd_project(args) -> int:
    v = [float(x) for x in args.v.split(",")]
    out = kl_project_clipped(v, args.alpha)
    print(",".join(_fmt(x) for x in out))
    return 0


def _cmd_bound(args) -> int:
    family = args.family
    if family == "projected":
        value = bnd.bound_projected(args.d, args.eta, args.alpha, args.m,
                                    args.U_sum, args.u1_norm)
    elif family == "fixed-share":
        value = bnd.bound_fixed_share(args.d, args.eta, args.alpha, args.m,
                                      args.U_sum, args.u1_norm)
    elif family == "adaptive":
        exact, relaxed = bnd.bound_adaptive(args.d, args.tau0)
        print(f"exact={_fmt(exact)}")
        print(f"relaxed={_fmt(relaxed)}")
        return 0
    elif family == "small-loss":
        value = bnd.tune_small_loss(args.d, args.m0, args.U0, args.L0).bound
    elif family == "shared-weights":
        value = bnd.bound_shared_weights(args.d, args.T, args.eta, args.alpha,
                                         args.m, args.n, args.U_sum, args.C,
                                         args.Z_max, args.u1_norm)
    elif family == "max-share":
        value = bnd.bound_max_share(args.d, args.T, args.eta, args.alpha,
                                    args.m, args.n)
    elif family == "decayed-max-share":
        value = bnd.bound_decayed_max_share(args.d, args.T, args.eta,
                                            args.alpha, args.m0, args.n0)
    else:  # anytime-adaptive
        value = bnd.anytime_adaptive_bound(args.d, args.T)
    print(_fmt(value))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexshare",
        description="Share forecasters on the simplex with regret "
                    "bound certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_cert = sub.add_parser("certify",
                            help="run and exit nonzero on failed verdicts")
    p_cert.add_argument("config")
    p_cert.set_defaults(func=_cmd_certify)

    p_tune = sub.add_parser("tune", help="print tuned (eta, alpha, bound)")
    p_tune.add_argument("--d", type=int, required=True)
    p_tune.add_argument("--m0", type=float, required=True)
    p_tune.add_argument("--U0", type=float, required=True)
    p_tune.add_argument("--L0", type=float, default=None)
    p_tune.set_defaults(func=_cmd_tune)

    p_proj = sub.add_parser("project",
                            help="KL-project a distribution onto the "
                                 "clipped simplex")
    p_proj.add_argument("--alpha", type=float, required=True)
    p_proj.add_argument("--v", type=str, required=True,
                        help="comma-separated probabilities")
    p_proj.set_defaults(func=_cmd_project)

    p_bound = sub.add_parser("bound", help="print a closed-form guarantee")
    bound_sub = p_bound.add_subparsers(dest="family", required=True)

    def add_family(name, **flags):
        p = bound_sub.add_parser(name)
        for flag, (ftype, required) in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                           type=ftype, required=required,
                           default=None if required else 1.0)
        p.set_defaults(func=_cmd_bound)
        return p

    add_family("projected", d=(int, True), eta=(float, True),
               alpha=(float, True), m=(float, True), U_sum=(float, True),
               u1_norm=(float, False))
    add_family("fixed-share", d=(int, True), eta=(float, True),
               alpha=(float, True), m=(float, True), U_sum=(float, True),
               u1_norm=(float, False))
    add_family("adaptive", d=(int, True), tau0=(int, True))
    add_family("small-loss", d=(int, True), m0=(float, True),
               U0=(float, True), L0=(float, True))
    add_family("shared-weights", d=(int, True), T=(int, True),
               eta=(float, True), alpha=(float, True), m=(float, True),
               n=(float, True), U_sum=(float, True), C=(float, True),
               Z_max=(float, True), u1_norm=(float, False))
    add_family("max-share", d=(int, True), T=(int, True), eta=(float, True),
               alpha=(float, True), m=(float, True), n=(float, True))
    add_family("decayed-max-share", d=(int, True), T=(int, True),
               eta=(float, True), alpha=(float, True), m0=(float, True),
               n0=(float, True))
    add_family("anytime-adaptive", d=(int, True), T=(int, True))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
