"""Certify benchmark: ``simplexshare certify`` on seed-generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload grid_d10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` every config of the workload is certified by a fresh
``python -m simplexshare.cli certify <config>`` child, one child at a
time, in passes until ``--seconds`` are used, and the end-to-end metrics
are reported.  With ``--trace 1`` the same configs run in this process
through ``simplexshare.cli.main``, alternating untraced passes with
passes that record spans around each layer, and the per-layer metrics
are reported.  Every report is checked against reference rows.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from statistics import median

import check
import spans
import workloads as wl

SETUP_LAUNCHES_PER_PASS = 2
CALL_TIMEOUT_S = 120.0
CERTIFY = [sys.executable, "-m", "simplexshare.cli", "certify"]
SETUP_CODE = """\
import json, sys
import simplexshare
from simplexshare.experiments import parse_experiment
for path in sys.argv[1:]:
    with open(path) as handle:
        parse_experiment(json.load(handle))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result for this checkout."""


@dataclass
class Job:
    config: wl.Config
    config_path: str
    csv_path: str
    reference: dict


@dataclass
class Pass:
    """One certify call per config of the workload."""

    walls: list[float] = field(default_factory=list)
    rounds: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def rounds_per_s(self) -> float:
        return self.rounds / self.wall


def source_dir(root: str) -> str | None:
    src = os.path.join(root, "src")
    return src if os.path.isfile(os.path.join(src, "simplexshare", "cli.py")) else None


def prepare(workload: str, seed: int, workdir: str) -> list[Job]:
    pool_index = wl.pool_index(seed)
    configs = wl.generate(workload, seed)
    try:
        reference = check.load_reference(workload, pool_index)
        rows = [reference[config.name] for config in configs]
    except (OSError, KeyError) as exc:
        raise BenchError(f"no reference rows for {workload} input set "
                         f"{pool_index}: {exc!r}") from exc
    return [Job(config, *write_config(config, workdir), config_rows)
            for config, config_rows in zip(configs, rows)]


def write_config(config: wl.Config, workdir: str) -> tuple[str, str]:
    """Write the config the program gets: (config path, report CSV path)."""
    config_path = os.path.join(workdir, f"{config.name}.json")
    csv_path = os.path.join(workdir, f"{config.name}.csv")
    with open(config_path, "w") as handle:
        json.dump(dict(config.body, output={"csv": csv_path,
                                            "include_timing": False}), handle)
    return config_path, csv_path


def launch(cmd: list[str], log_path: str):
    """Run a child to completion: (wall seconds, exit code, rusage)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _check_job(job: Job, ok: bool, why: str) -> list[str]:
    reps = job.config.reps
    if not ok:
        return [f"{job.config.name}: {why}"] * reps
    return [f"{job.config.name} {problem}" for problem in check.failed_reps(
        job.csv_path, reps, job.reference, job.config.caps)]


def _add(result: Pass, job: Job, problems: list[str]) -> None:
    result.rounds += job.config.rounds
    result.attempted += job.config.reps
    result.problems += problems


def certify_pass(jobs: list[Job], workdir: str) -> Pass:
    result = Pass()
    for job in jobs:
        _remove(job.csv_path)
        log_path = os.path.join(workdir, f"{job.config.name}.log")
        wall, code, usage = launch(CERTIFY + [job.config_path], log_path)
        result.walls.append(wall)
        result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024)
        _add(result, job, _check_job(job, code == 0, f"certify exited {code}"))
    return result


def measure_children(jobs: list[Job], workdir: str, seconds: float):
    """End-to-end metrics of one workload, from child processes.

    Set-up launches are spread over the run, between passes, so that
    both metrics sample the same stretch of machine time.
    """
    start = time.perf_counter()
    setup_cmd = [sys.executable, "-c", SETUP_CODE] + [j.config_path for j in jobs]
    setup_log = os.path.join(workdir, "setup.log")
    launch(setup_cmd, setup_log)  # fills the bytecode cache
    setups, passes = [], []
    while True:
        for _ in range(SETUP_LAUNCHES_PER_PASS):
            setups.append(launch(setup_cmd, setup_log))
            if setups[-1][1] != 0:
                with open(setup_log) as handle:
                    raise BenchError(f"set-up launch failed:\n"
                                     f"{handle.read()[-2000:]}")
        passes.append(certify_pass(jobs, workdir))
        elapsed = time.perf_counter() - start
        if elapsed + median(p.wall for p in passes) / 2 >= seconds:
            break
    attempted = sum(p.attempted for p in passes)
    problems = [x for p in passes for x in p.problems]
    # median wall per config over its calls, summed over the configs
    config_walls = sum(median(p.walls[i] for p in passes)
                       for i in range(len(jobs)))
    metrics = {
        "rounds_per_s": (passes[0].rounds / config_walls, "rounds/s"),
        "setup_s": (median(wall for wall, _, _ in setups), "s"),
        "peak_rss_mb": (median(p.peak_rss_mb for p in passes), "MB"),
        "pass_ratio": (1.0 - len(problems) / attempted, "ratio"),
    }
    samples = {"passes": len(passes), "setup_launches": len(setups),
               "failed_ratio": len(problems) / attempted}
    return metrics, attempted, problems, samples


def inprocess_pass(cli, jobs: list[Job], tracer: spans.Tracer | None) -> Pass:
    result = Pass()
    for job in jobs:
        _remove(job.csv_path)
        gc.collect()
        sink = io.StringIO()
        code, why = None, ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = cli.main(["certify", job.config_path])
                else:
                    with tracer.span("cli.main"):
                        code = cli.main(["certify", job.config_path])
        except Exception:  # a crashing config fails its reps; the run goes on
            why = traceback.format_exc(limit=3)
            print(why, file=sys.stderr)
        result.walls.append(time.perf_counter() - start)
        _add(result, job, _check_job(job, code == 0, why or f"main returned {code}"))
    return result


def measure_traced(jobs: list[Job], seconds: float):
    """Per-layer metrics of one workload, from in-process traced passes."""
    import simplexshare.cli as cli

    start = time.perf_counter()
    untraced, traced, layer_passes, threads = [], [], [], set()
    while True:
        untraced.append(inprocess_pass(cli, jobs, None))
        tracer = spans.Tracer()
        with spans.installed(tracer) as missing:
            traced.append(inprocess_pass(cli, jobs, tracer))
        layer_passes.append(spans.layer_metrics(tracer))
        threads.add(spans.threads_seen(tracer))
        elapsed = time.perf_counter() - start
        pair = median(u.wall + t.wall for u, t in zip(untraced, traced))
        if elapsed + pair / 2 >= seconds:
            break
    everything = untraced + traced
    attempted = sum(p.attempted for p in everything)
    problems = [x for p in everything for x in p.problems]
    metrics = spans.median_metrics(layer_passes)
    metrics["trace.overhead"] = (
        median(p.rounds_per_s for p in untraced)
        / median(p.rounds_per_s for p in traced), "ratio")
    samples = {"traced_passes": len(traced), "untraced_passes": len(untraced),
               "threads_seen": sorted(threads), "missing_hooks": missing,
               "failed_ratio": len(problems) / attempted}
    return metrics, attempted, problems, samples


def git_commit(root: str) -> str:
    """HEAD of the checkout, read without leaving it; "unknown" if not git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: str, jobs: list[Job]) -> dict:
    import numpy
    import simplexshare.experiments as ex

    cap = getattr(ex, "thread_cap", None)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(root),
            "threads_effective": None if cap is None else
            min(cap(), max(j.config.reps for j in jobs))}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: str, workdir: str) -> dict:
    jobs = prepare(workload, seed, workdir)
    if trace:
        metrics, attempted, problems, samples = measure_traced(jobs, seconds)
    else:
        metrics, attempted, problems, samples = measure_children(
            jobs, workdir, seconds)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value!r} {unit}")
    for problem in problems[:20]:
        print(f"{workload} FAILED {problem}", file=sys.stderr)
    info = {"workload": workload, "seed": seed,
            "input_set": wl.pool_index(seed), "stamp": stamp(root, jobs),
            "samples": samples}
    print(json.dumps(info))
    return {"correct": not problems, "attempted": attempted,
            "failed": len(problems),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = source_dir(root)
    if src is None:
        print("perfbench: no simplexshare sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    # The library keeps its default threading; children import ./src.
    os.environ.pop("THREADS", None)
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    results = {}
    try:
        for name in names:
            with tempfile.TemporaryDirectory(dir=work_root) as workdir:
                results[name] = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), root, workdir)
    except (BenchError, wl.CapsError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name, result in results.items():
            print(f"{name}: {json.dumps(result)}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
