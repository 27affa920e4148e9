"""Show that every output check passes on real outputs and fails on perturbed ones.

    python3 bench/selftest.py

Runs each workload once at reduced size (n=1500 paper cohorts with B=100,
a 3000-patient ingest cohort), requires every check to pass on the program's
outputs, then perturbs one output file at a time and requires the check aimed
at it to report a problem. Exits 1 if any check misses its perturbation.
"""

from __future__ import annotations

import csv
import io
import os
import shutil
import sys
from pathlib import Path

import run
from workloads import make_workloads

SEED = 7
SMALL = make_workloads(paper_n=1500, ingest_n=3000, n_boot=100)


def edit_csv(path: Path, edit) -> None:
    """Apply edit(header, rows) to a report CSV, keeping its footer comments."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    body = [line for line in lines if not line.startswith("#")]
    footer = [line for line in lines if line.startswith("#")]
    header, *rows = list(csv.reader(body))
    edit(header, rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    path.write_text(buf.getvalue() + "".join(footer), encoding="utf-8")


def set_cell(column: str, value, row_index: int = 0, where=None):
    """Edit that sets one cell, in the first row matching ``where`` if given."""

    def edit(header, rows):
        j = header.index(column)
        candidates = [r for r in rows if where is None or where(dict(zip(header, r)))]
        row = candidates[row_index]
        row[j] = str(value(float(row[j])) if callable(value) else value)

    return edit


def swap_ci(header, rows):
    lo, hi = header.index("ci_low"), header.index("ci_high")
    rows[0][lo], rows[0][hi] = rows[0][hi], rows[0][lo]


def other_reason(header, rows):
    j = header.index("reason")
    rows[0][j] = "PRIOR_CANCER" if rows[0][j] != "PRIOR_CANCER" else "NO_TREATMENT"


def not_intercept(row) -> bool:
    return row["variable"] != "intercept"


# (workload, command, file, edit, check that must catch it)
PERTURBATIONS = [
    ("effects_paper", "effects", "effects.csv", set_cell("point", lambda v: v + 1e-4),
     "effects.points_match_reference_fit"),
    ("effects_paper", "effects", "effects.csv", set_cell("boot_se", 1e-12),
     "effects.points_near_truth"),
    ("effects_paper", "effects", "effects.csv", set_cell("n_boot_succeeded", 90),
     "effects.bootstrap_success"),
    ("effects_paper", "effects", "effects.csv", swap_ci, "effects.ci_ordered"),
    ("models_paper", "fit", "coefficients_full_CHF.csv",
     set_cell("coefficient", lambda v: v * 1.001, 1), "fit.coefficients_match_reference_fit"),
    ("models_paper", "compare_CHEMO_VS_RADIATION_BASELINE_HEALTH",
     "compare_CHEMO_VS_RADIATION_BASELINE_HEALTH_eliminated.csv",
     set_cell("std_error", lambda v: v * 1.001, 0), "fit.coefficients_match_reference_fit"),
    ("models_paper", "fit", "coefficients_eliminated_CHF.csv",
     set_cell("p_value", 0.5, 0, not_intercept), "fit.eliminated_p_within_alpha"),
    ("models_paper", "fit", "elimination_trace_CHF.csv", set_cell("p_value", 0.01),
     "fit.trace_removed_above_alpha"),
    ("models_paper", "cv", "cv_report.csv",
     set_cell("auc", lambda v: v + 0.01, 0, lambda r: r["fold"] == "POOLED"),
     "cv.pooled_auc_equals_roc_area"),
    ("models_paper", "cv", "roc_points_CAD.csv", set_cell("fpr", 0.99, 1), "cv.roc_monotone"),
    ("ingest_50k", "features", "exclusions.csv", other_reason,
     "features.exclusions_match_injected"),
    ("ingest_50k", "features", "features.csv", set_cell("sbp", lambda v: v + 1.0, 5),
     "features.labs_match_observations"),
]


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    try:
        for name, workload in SMALL.items():
            wdir = work / name
            wdir.mkdir(parents=True)
            setups = run.Setups(workload, SEED, wdir, traced=False)
            setups.run()
            checker = run.make_checker(workload, SEED, setups.data_dir)
            outputs = wdir / "round"
            done = run.run_round(workload, setups.data_dir, outputs, traced=False)
            if done.failed:
                print(f"FAIL {name}: {done.failed} command(s) exited non-zero")
                return 1
            commands = {c.name: c for c in workload.commands}
            for command in workload.commands:
                problems = checker(command, outputs / command.name)
                if any(problems.values()):
                    print(f"FAIL {name}/{command.name}: clean outputs fail {dict(problems)}")
                    ok = False
            for wl, cmd, filename, edit, check in PERTURBATIONS:
                if wl != name:
                    continue
                copy = wdir / "perturbed"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(outputs / cmd, copy)
                edit_csv(copy / filename, edit)
                problems = checker(commands[cmd], copy)
                caught = bool(problems.get(check))
                ok = ok and caught
                print(f"{'ok  ' if caught else 'MISS'} {check} <- perturbed {filename}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
