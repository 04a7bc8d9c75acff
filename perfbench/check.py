"""Correctness check of ``certify`` CSV reports against reference rows.

Columns are read by name, so reports that gain columns still check.
``bound`` is not compared with the reference (how a bound is selected
may legitimately change); instead every row must have regret <= bound
and verdict ``pass``.  Rows of tuned configs must also keep the realized
comparator statistics inside the tune caps.
"""

from __future__ import annotations

import csv
import json
import math
import os

FIELDS = ("regret", "m", "n", "U_sum", "L_sum")

# Fixed-seed rows are reproducible to the last bit today; the tolerance
# leaves room for re-associated sums (e.g. a windowed adaptive-regret
# scan) while still catching any change to what is computed.
REL_TOL = 1e-9
ABS_TOL = 1e-9

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def read_rows(path) -> dict[str, dict[str, str]]:
    """Data rows of a report CSV keyed by ``run_id`` (summary row dropped)."""
    with open(path, newline="") as handle:
        rows = {row["run_id"]: row for row in csv.DictReader(handle)}
    rows.pop("summary", None)
    return rows


def row_problem(row: dict[str, str] | None, reference: list[float],
                caps: tuple[float, float] | None) -> str | None:
    """Why a report row is wrong, or None when it passes every check."""
    if row is None:
        return "row missing"
    if row["verdict"] != "pass":
        return f"verdict {row['verdict']}"
    values = {name: float(row[name]) for name in FIELDS}
    if not values["regret"] <= float(row["bound"]):
        return f"regret {values['regret']!r} above bound {row['bound']}"
    for name, expected in zip(FIELDS, reference):
        if not math.isclose(values[name], expected, rel_tol=REL_TOL,
                            abs_tol=ABS_TOL):
            return f"{name} {values[name]!r} differs from reference {expected!r}"
    if caps is not None:
        m0, U0 = caps
        if values["m"] > m0 or values["U_sum"] > U0:
            return (f"m={values['m']!r}, U_sum={values['U_sum']!r} outside "
                    f"tune caps m0={m0!r}, U0={U0!r}")
    return None


def failed_reps(csv_path, reps: int, reference: dict[str, list[float]],
                caps: tuple[float, float] | None) -> list[str]:
    """One message per failed repetition of a report; empty when all pass."""
    try:
        rows = read_rows(csv_path)
    except (OSError, KeyError, csv.Error) as exc:
        return [f"unreadable report: {exc}"] * reps
    problems = []
    for rep in range(reps):
        run_id = f"{rep:04d}"
        try:
            problem = row_problem(rows.get(run_id), reference[run_id], caps)
        except (KeyError, ValueError) as exc:
            problem = f"malformed row: {exc!r}"
        if problem is not None:
            problems.append(f"{run_id}: {problem}")
    return problems


def load_reference(workload: str, pool_index: int) -> dict:
    """Reference rows of one input set: config name -> run_id -> FIELDS."""
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as handle:
        return json.load(handle)["sets"][str(pool_index)]
