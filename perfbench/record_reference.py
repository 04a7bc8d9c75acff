"""Record the reference rows the benchmark checks reports against.

Run from the repository root, at a commit whose reports are trusted:

    python3 perfbench/record_reference.py [workload ...]

For every input set of every workload, certify each config once with
the checkout's ``src`` and store regret, m, n, U_sum and L_sum per
run_id in ``perfbench/reference/<workload>.json``.  A row that does not
pass (verdict, regret <= bound, tune caps) stops the recording.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import check
import run
import workloads as wl


def record(workload: str, root: str, workdir: str) -> dict:
    sets = {}
    for index in range(wl.POOL):
        rows_by_config = {}
        for config in wl.generate(workload, index):
            config_path, csv_path = run.write_config(config, workdir)
            wall, code, _ = run.launch(run.CERTIFY + [config_path],
                                       os.path.join(workdir, "certify.log"))
            if code != 0:
                raise SystemExit(f"{workload}/{index}/{config.name}: "
                                 f"certify exited {code}")
            rows = check.read_rows(csv_path)
            reference = {run_id: [float(row[f]) for f in check.FIELDS]
                         for run_id, row in sorted(rows.items())}
            problems = check.failed_reps(csv_path, config.reps, reference,
                                         config.caps)
            if problems or len(rows) != config.reps:
                raise SystemExit(f"{workload}/{index}/{config.name}: "
                                 f"{problems or 'unexpected rows'}")
            rows_by_config[config.name] = reference
            print(f"{workload} set {index} {config.name}: {wall:.2f} s",
                  flush=True)
        sets[str(index)] = rows_by_config
    return {"commit": run.git_commit(root), "fields": list(check.FIELDS),
            "sets": sets}


def main(argv: list[str]) -> int:
    root = os.getcwd()
    src = run.source_dir(root)
    if src is None:
        print("record_reference: run from the repository root", file=sys.stderr)
        return 2
    os.environ.pop("THREADS", None)
    os.environ["PYTHONPATH"] = src
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    for workload in argv or wl.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=work_root) as workdir:
            data = record(workload, root, workdir)
        path = os.path.join(check.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w") as handle:
            json.dump(data, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
