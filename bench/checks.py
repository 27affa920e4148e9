"""Output checks against computations made apart from the program.

Nothing here imports ``cardiotox``: the design matrices are rebuilt from the
input CSVs, the logistic models are refit with a plain Newton iteration, and
the true effects come from the spec's coefficients. Each ``check_*`` function
returns the problems it found keyed by check name (no problems when the
output is right), so the self-test can show that every check catches a
perturbed file.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

OUTCOMES = ("CHF", "CAD", "CM", "MI")
TREATMENTS = ("CHEMOTHERAPY", "TARGETED")
LAB_KINDS = ("SBP", "DBP", "BMI", "HDL", "LDL", "HBA1C", "TRIGLYCERIDE")
DRUG_CLASSES = (
    "INSULIN", "METFORMIN", "STATIN", "ACE_INHIBITOR", "ARB",
    "ANTIHYPERTENSIVE_COMBINATION", "VASODILATOR", "ANTIARRHYTHMIC",
    "BETA_BLOCKER", "CALCIUM_BLOCKER", "DIURETIC", "ANTIHYPERLIPIDEMIC_OTHER",
)
ANTIHYPERTENSIVE = ("ace_inhibitor", "arb", "beta_blocker", "calcium_blocker",
                    "diuretic", "vasodilator", "antihypertensive_combination")
ANTIHYPERLIPIDEMIA = ("statin", "antihyperlipidemic_other")
CONDITIONS = {"HYPERTENSION": "hypertension", "DIABETES": "diabetes",
              "HYPERLIPIDEMIA": "hyperlipidemia"}
# Covariates of the effects outcome model, as documented for OUTCOME_MODEL.
EFFECT_COVARIATES = (
    "sbp", "dbp", "bmi", "hdl", "ldl", "hba1c", "troponin_flag", "triglyceride",
    "abnormal_blood_pressure", "abnormal_blood_lipid", "hyperlipidemia", "diabetes",
    "hypertension", "insulin", "metformin", "statin", "ace_inhibitor", "arb",
    "antihypertensive_combination", "vasodilator", "antiarrhythmic", "beta_blocker",
    "calcium_blocker", "age",
)
CONTRAST_ARMS = {"CHEMO_VS_RADIATION": "CHEMOTHERAPY", "TARGETED_VS_RADIATION": "TARGETED"}

POINT_TOL = 1e-6        # effect points vs the reference fit, absolute
COEF_RTOL = 1e-6        # coefficients vs the reference fit, share of |beta| + se
TRUTH_SE_MULTIPLE = 4.0
SUCCESS_FLOOR = 0.95
AUC_TOL = 1e-8          # reports print 10 significant digits
LAB_RTOL = 1e-9


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def tree_digest(directory: Path) -> str:
    """Hash of every file under a directory, names and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Reference cohort rebuilt from the input CSVs


def _age(birth: date, on: date) -> int:
    years = on.year - birth.year
    if (on.month, on.day) < (birth.month, birth.day):
        years -= 1
    return years


def _load_code_map(path: Path) -> dict[str, dict[str, str]]:
    table: dict[str, dict[str, str]] = defaultdict(dict)
    for row in _rows(path):
        table[row["code_system"]][row["code_prefix"]] = row["category"]
    return table


def _classify(table, system: str, code: str) -> str | None:
    prefixes = table.get(system, {})
    for length in range(len(code), 0, -1):
        if code[:length] in prefixes:
            return prefixes[code[:length]]
    return None


def index_dates(data_dir: Path) -> dict[str, date]:
    first: dict[str, date] = {}
    for row in _rows(data_dir / "treatments.csv"):
        d = date.fromisoformat(row["date"])
        pid = row["patient_id"]
        if pid not in first or d < first[pid]:
            first[pid] = d
    return first


def baseline_labs(data_dir: Path, index: dict[str, date]) -> dict[str, dict[str, float]]:
    """Per patient and lab kind: the latest value before the index (same-day mean)."""
    latest: dict[tuple[str, str], tuple[date, list[float]]] = {}
    with open(data_dir / "observations.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for pid, day, kind, value in reader:
            if kind not in LAB_KINDS or pid not in index:
                continue
            d = date.fromisoformat(day)
            if d >= index[pid]:
                continue
            key = (pid, kind)
            seen = latest.get(key)
            if seen is None or d > seen[0]:
                latest[key] = (d, [float(value)])
            elif d == seen[0]:
                seen[1].append(float(value))
    labs: dict[str, dict[str, float]] = defaultdict(dict)
    for (pid, kind), (_, values) in latest.items():
        labs[pid][kind] = sum(values) / len(values)
    return labs


@dataclass
class Reference:
    """Feature columns of a fully observed, all-eligible cohort, by feature name."""

    ids: list[str]
    columns: dict[str, np.ndarray]
    arm: np.ndarray                      # treatment name per patient
    outcomes: dict[str, np.ndarray]      # 0/1 per patient


def build_reference(data_dir: Path) -> Reference:
    """Rebuild baseline features from the CSVs that ``cardiotox synth`` wrote.

    Supports the layout synth emits (every patient eligible, one treatment
    type, every lab observed); anything else raises, so a check never runs on
    a reference it cannot vouch for.
    """
    code_map = _load_code_map(data_dir / "code_map.csv")
    patients = {r["patient_id"]: r for r in _rows(data_dir / "patients.csv")}
    ids = sorted(patients)
    index = index_dates(data_dir)
    arms: dict[str, set[str]] = defaultdict(set)
    for row in _rows(data_dir / "treatments.csv"):
        arms[row["patient_id"]].add(row["treatment"])
    labs = baseline_labs(data_dir, index)

    n = len(ids)
    pos = {pid: i for i, pid in enumerate(ids)}
    flags = {name: np.zeros(n) for name in
             ["troponin_flag", *CONDITIONS.values(), *(c.lower() for c in DRUG_CLASSES)]}
    outcomes = {oc: np.zeros(n) for oc in OUTCOMES}
    for row in _rows(data_dir / "observations.csv"):
        pid = row["patient_id"]
        if row["kind"] == "TROPONIN" and date.fromisoformat(row["date"]) < index[pid]:
            flags["troponin_flag"][pos[pid]] = 1.0
    for row in _rows(data_dir / "diagnoses.csv"):
        pid = row["patient_id"]
        d = date.fromisoformat(row["date"])
        category = _classify(code_map, row["code_system"], row["code"])
        if category in CONDITIONS and d < index[pid]:
            flags[CONDITIONS[category]][pos[pid]] = 1.0
        if category in OUTCOMES and d > index[pid]:
            outcomes[category][pos[pid]] = 1.0
    for row in _rows(data_dir / "medications.csv"):
        pid = row["patient_id"]
        if date.fromisoformat(row["date"]) >= index[pid]:
            flags[row["drug_class"].lower()][pos[pid]] = 1.0

    columns: dict[str, np.ndarray] = {"intercept": np.ones(n)}
    for kind in LAB_KINDS:
        try:
            columns[kind.lower()] = np.array([labs[pid][kind] for pid in ids])
        except KeyError as err:
            raise ValueError(f"reference needs every lab observed; missing {err}") from None
    for pid in ids:
        if len(arms[pid]) != 1 or patients[pid]["sex"] != "F":
            raise ValueError(f"reference needs an all-eligible cohort; {pid} is not")
    columns["age"] = np.array([
        float(_age(date.fromisoformat(patients[pid]["birth_date"]), index[pid])) for pid in ids
    ])
    columns.update(flags)
    c = columns
    columns["abnormal_blood_pressure"] = ((c["sbp"] > 130.0) | (c["dbp"] > 80.0)) * 1.0
    columns["abnormal_blood_lipid"] = (
        (c["ldl"] > 130.0) | (c["hdl"] < 50.0) | (c["triglyceride"] > 150.0)) * 1.0
    columns["antihypertensive_medication"] = np.max([c[m] for m in ANTIHYPERTENSIVE], axis=0)
    columns["antihyperlipidemia_medication"] = np.max([c[m] for m in ANTIHYPERLIPIDEMIA], axis=0)
    arm = np.array([next(iter(arms[pid])) for pid in ids])
    columns["treatment_chemotherapy"] = (arm == "CHEMOTHERAPY") * 1.0
    columns["treatment_targeted"] = (arm == "TARGETED") * 1.0
    return Reference(ids, columns, arm, outcomes)


# ---------------------------------------------------------------------------
# Reference logistic fit


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def newton_logit(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood coefficients and standard errors by plain Newton steps."""
    beta = np.zeros(X.shape[1])
    for _ in range(60):
        prob = _sigmoid(X @ beta)
        info = (X * (prob * (1.0 - prob))[:, None]).T @ X
        step = np.linalg.solve(info, X.T @ (y - prob))
        beta = beta + step
        if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(beta))):
            prob = _sigmoid(X @ beta)
            info = (X * (prob * (1.0 - prob))[:, None]).T @ X
            return beta, np.sqrt(np.diag(np.linalg.inv(info)))
    raise ArithmeticError("reference Newton fit did not converge")


def _design(ref: Reference, names: list[str], rows: np.ndarray | None = None) -> np.ndarray:
    X = np.column_stack([ref.columns[name] for name in names])
    return X if rows is None else X[rows]


# ---------------------------------------------------------------------------
# effects_paper


def true_effects(ref: Reference, spec: dict) -> dict[tuple[str, str, str], float]:
    """Sample-average effects under the spec's true outcome coefficients."""
    out = {}
    for oc, coefs in spec["outcome_models"].items():
        eta = np.full(len(ref.ids), coefs.get("intercept", 0.0))
        for name, beta in coefs.items():
            if name not in ("intercept", *TREATMENTS):
                eta = eta + beta * ref.columns[name]
        for t in TREATMENTS:
            diff = _sigmoid(eta + coefs.get(t, 0.0)) - _sigmoid(eta)
            out[(t, oc, "ATE")] = float(np.mean(diff))
            out[(t, oc, "ATT")] = float(np.mean(diff[ref.arm == t]))
    return out


def reference_effects(ref: Reference) -> dict[tuple[str, str, str], float]:
    names = ["intercept", "treatment_chemotherapy", "treatment_targeted", *EFFECT_COVARIATES]
    X = _design(ref, names)
    out = {}
    for oc in OUTCOMES:
        beta, _ = newton_logit(X, ref.outcomes[oc])
        base = X.copy()
        base[:, 1:3] = 0.0
        p0 = _sigmoid(base @ beta)
        for t, col in zip(TREATMENTS, (1, 2)):
            treated = base.copy()
            treated[:, col] = 1.0
            diff = _sigmoid(treated @ beta) - p0
            out[(t, oc, "ATE")] = float(np.mean(diff))
            out[(t, oc, "ATT")] = float(np.mean(diff[ref.arm == t]))
    return out


def check_effects(out_dir: Path, expected: dict, truth: dict,
                  n_boot: int) -> dict[str, list[str]]:
    rows = {(r["treatment"], r["outcome"], r["estimand"]): r
            for r in _rows(out_dir / "effects.csv")}
    problems: dict[str, list[str]] = defaultdict(list)
    if set(rows) != set(expected):
        problems["effects.points_match_reference_fit"].append(
            f"effects.csv rows {sorted(rows)} != expected {sorted(expected)}")
        return problems
    for key, row in rows.items():
        point, se = float(row["point"]), float(row["boot_se"])
        if not abs(point - expected[key]) <= POINT_TOL:
            problems["effects.points_match_reference_fit"].append(
                f"{key}: point {point} vs reference {expected[key]}")
        if not abs(point - truth[key]) <= TRUTH_SE_MULTIPLE * se:
            problems["effects.points_near_truth"].append(
                f"{key}: point {point} vs true {truth[key]:.6g}, boot_se {se}")
        if not int(row["n_boot_succeeded"]) >= SUCCESS_FLOOR * n_boot:
            problems["effects.bootstrap_success"].append(
                f"{key}: {row['n_boot_succeeded']} of {n_boot} replicates succeeded")
        if not float(row["ci_low"]) < float(row["ci_high"]):
            problems["effects.ci_ordered"].append(
                f"{key}: ci [{row['ci_low']}, {row['ci_high']}]")
    return problems


# ---------------------------------------------------------------------------
# models_paper


def _model_rows(ref: Reference, target: str) -> tuple[np.ndarray | None, np.ndarray]:
    """Row selection and labels for an outcome or an arm contrast."""
    if target in OUTCOMES:
        return None, ref.outcomes[target]
    arm = CONTRAST_ARMS[target]
    rows = np.flatnonzero((ref.arm == arm) | (ref.arm == "RADIATION"))
    return rows, (ref.arm[rows] == arm) * 1.0


def _check_coefficients(ref: Reference, target: str, path: Path, problems) -> list[str]:
    report = _rows(path)
    names = [r["variable"] for r in report]
    rows, y = _model_rows(ref, target)
    beta, se = newton_logit(_design(ref, names, rows), y)
    for r, b, s in zip(report, beta, se):
        scale = COEF_RTOL * (abs(b) + s)
        if not (abs(float(r["coefficient"]) - b) <= scale
                and abs(float(r["std_error"]) - s) <= COEF_RTOL * s):
            problems["fit.coefficients_match_reference_fit"].append(
                f"{path.name} {r['variable']}: {r['coefficient']} ± {r['std_error']} "
                f"vs reference {b!r} ± {s!r}")
    return names


def check_elimination(ref: Reference, target: str, full: Path, eliminated: Path,
                      trace: Path, alpha: float, problems) -> None:
    full_names = _check_coefficients(ref, target, full, problems)
    kept = _check_coefficients(ref, target, eliminated, problems)
    for r in _rows(eliminated):
        if r["variable"] != "intercept" and not float(r["p_value"]) <= alpha:
            problems["fit.eliminated_p_within_alpha"].append(
                f"{eliminated.name} keeps {r['variable']} with p={r['p_value']}")
    removed = []
    for r in _rows(trace):
        removed.append(r["removed_variable"])
        if not float(r["p_value"]) > alpha:
            problems["fit.trace_removed_above_alpha"].append(
                f"{trace.name} step {r['step']} removed {r['removed_variable']} "
                f"with p={r['p_value']}")
    if sorted(removed + kept) != sorted(full_names):
        problems["fit.trace_removed_above_alpha"].append(
            f"{trace.name}: removed {removed} plus kept {kept} != full model {full_names}")


def check_fit(ref: Reference, out_dir: Path, alpha: float) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = defaultdict(list)
    for oc in OUTCOMES:
        check_elimination(ref, oc, out_dir / f"coefficients_full_{oc}.csv",
                          out_dir / f"coefficients_eliminated_{oc}.csv",
                          out_dir / f"elimination_trace_{oc}.csv", alpha, problems)
    return problems


def check_compare(ref: Reference, out_dir: Path, contrast: str, feature_set: str,
                  alpha: float) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = defaultdict(list)
    stem = out_dir / f"compare_{contrast}_{feature_set}"
    check_elimination(ref, contrast, Path(f"{stem}_full.csv"), Path(f"{stem}_eliminated.csv"),
                      Path(f"{stem}_trace.csv"), alpha, problems)
    return problems


def check_cv(out_dir: Path) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = defaultdict(list)
    pooled = {r["outcome"]: float(r["auc"]) for r in _rows(out_dir / "cv_report.csv")
              if r["fold"] == "POOLED"}
    for oc in OUTCOMES:
        points = [(float(r["fpr"]), float(r["tpr"]))
                  for r in _rows(out_dir / f"roc_points_{oc}.csv")]
        area = sum((f1 - f0) * (t1 + t0) / 2.0
                   for (f0, t0), (f1, t1) in zip(points, points[1:]))
        if oc not in pooled or not abs(pooled[oc] - area) <= AUC_TOL:
            problems["cv.pooled_auc_equals_roc_area"].append(
                f"{oc}: pooled AUC {pooled.get(oc)} vs ROC area {area!r}")
        steps_ok = all(f1 >= f0 and t1 >= t0
                       for (f0, t0), (f1, t1) in zip(points, points[1:]))
        if not (steps_ok and points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)):
            problems["cv.roc_monotone"].append(
                f"{oc}: ROC curve is not monotone from (0,0) to (1,1)")
    return problems


# ---------------------------------------------------------------------------
# ingest_50k


@dataclass
class IngestReference:
    excluded: dict[str, set[str]]            # injected ids by reason
    included: set[str]
    labs: dict[str, dict[str, float]]


def build_ingest_reference(data_dir: Path, ids_by_reason: dict[str, list[str]]) -> IngestReference:
    injected = {pid for ids in ids_by_reason.values() for pid in ids}
    included = {r["patient_id"] for r in _rows(data_dir / "patients.csv")} - injected
    index = {pid: d for pid, d in index_dates(data_dir).items() if pid in included}
    return IngestReference({k: set(v) for k, v in ids_by_reason.items()}, included,
                           baseline_labs(data_dir, index))


def check_features(out_dir: Path, ref: IngestReference) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = defaultdict(list)
    by_reason: dict[str, set[str]] = defaultdict(set)
    for r in _rows(out_dir / "exclusions.csv"):
        by_reason[r["reason"]].add(r["patient_id"])
    if by_reason != ref.excluded:
        got = {k: len(v) for k, v in sorted(by_reason.items())}
        want = {k: len(v) for k, v in sorted(ref.excluded.items())}
        problems["features.exclusions_match_injected"].append(
            f"excluded per reason {got} != injected {want}")

    seen = set()
    for r in _rows(out_dir / "features.csv"):
        pid = r["patient_id"]
        seen.add(pid)
        labs = ref.labs.get(pid, {})
        for kind in LAB_KINDS:
            value, want = float(r[kind.lower()]), labs.get(kind, math.nan)
            if not abs(value - want) <= LAB_RTOL * abs(want):
                problems["features.labs_match_observations"].append(
                    f"{pid} {kind.lower()}={r[kind.lower()]} but observations.csv has {want!r}")
    if seen != ref.included:
        problems["features.labs_match_observations"].append(
            f"features.csv has {len(seen)} patients, expected the {len(ref.included)} eligible")
    return problems
