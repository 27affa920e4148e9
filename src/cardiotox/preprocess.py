"""Eligibility filtering and baseline feature engineering.

Each eligible patient is anchored at an index date (first treatment) and the
longitudinal record is collapsed into one baseline feature vector:

* labs/vitals: value closest before the index date (same-day ties averaged),
  mean- or constant-imputed when absent;
* pre-condition flags from diagnoses strictly before the index;
* medication flags from prescriptions on or after the index (follow-up);
* outcome flags from diagnoses strictly after the index.

The date boundaries are deliberately asymmetric so that the baseline never
looks into follow-up and outcomes never look into baseline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields as dataclass_fields
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .cohort import (
    CodeMap,
    DiagnosisCategory,
    DrugClass,
    HEART_DISEASE_CATEGORIES,
    ObservationKind,
    PatientRecord,
    Sex,
    Treatment,
    classify_diagnosis,
)
from .errors import EmptyCohortMeanError, UnknownFeatureError
from .tableio import write_csv

MIN_FOLLOWUP_DAYS = 365
ADULT_AGE = 18

HDL_IMPUTE = 55.0
LDL_IMPUTE = 115.0
HBA1C_IMPUTE = 6.0

OUTCOME_NAMES = ("CHF", "CAD", "CM", "MI")

_CONDITION_CATEGORIES = (
    DiagnosisCategory.HYPERTENSION,
    DiagnosisCategory.DIABETES,
    DiagnosisCategory.HYPERLIPIDEMIA,
)

# The slot of each diagnosis flag's category: the conditions first, then the
# outcomes in OUTCOME_NAMES order.
_FLAG_SLOT = {
    category: slot
    for slot, category in enumerate(
        _CONDITION_CATEGORIES + tuple(DiagnosisCategory(name) for name in OUTCOME_NAMES)
    )
}

_DRUG_SLOT = {cls: slot for slot, cls in enumerate(DrugClass)}

# Kinds summarized to a continuous baseline value (troponin becomes a flag).
CONTINUOUS_KINDS = (
    ObservationKind.SBP,
    ObservationKind.DBP,
    ObservationKind.BMI,
    ObservationKind.HDL,
    ObservationKind.LDL,
    ObservationKind.HBA1C,
    ObservationKind.TRIGLYCERIDE,
)

# Feature names of the continuous kinds, in CONTINUOUS_KINDS order.
LAB_FIELDS = tuple(kind.value.lower() for kind in CONTINUOUS_KINDS)

MEAN_IMPUTED_FIELDS = ("triglyceride", "bmi", "dbp", "sbp")
_CONSTANT_IMPUTE = {"hdl": HDL_IMPUTE, "ldl": LDL_IMPUTE, "hba1c": HBA1C_IMPUTE}

DEFAULT_ANTIHYPERTENSIVE_CLASSES = frozenset(
    {
        DrugClass.ACE_INHIBITOR,
        DrugClass.ARB,
        DrugClass.BETA_BLOCKER,
        DrugClass.CALCIUM_BLOCKER,
        DrugClass.DIURETIC,
        DrugClass.VASODILATOR,
        DrugClass.ANTIHYPERTENSIVE_COMBINATION,
    }
)
DEFAULT_ANTIHYPERLIPIDEMIA_CLASSES = frozenset(
    {DrugClass.STATIN, DrugClass.ANTIHYPERLIPIDEMIC_OTHER}
)


class ExclusionReason(Enum):
    NOT_FEMALE_ADULT = "NOT_FEMALE_ADULT"
    NO_TREATMENT = "NO_TREATMENT"
    PRIOR_CANCER = "PRIOR_CANCER"
    PRIOR_HEART_DISEASE = "PRIOR_HEART_DISEASE"
    INSUFFICIENT_FOLLOWUP = "INSUFFICIENT_FOLLOWUP"
    MULTIPLE_TREATMENT_TYPES = "MULTIPLE_TREATMENT_TYPES"


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs for the rules the source protocol leaves open."""

    troponin_threshold: float | None = None
    outcome_horizon_days: int | None = None
    antihypertensive_classes: frozenset[DrugClass] = DEFAULT_ANTIHYPERTENSIVE_CLASSES
    antihyperlipidemia_classes: frozenset[DrugClass] = DEFAULT_ANTIHYPERLIPIDEMIA_CLASSES


@dataclass(frozen=True)
class EligibilityReport:
    included: tuple[str, ...]
    excluded: tuple[tuple[str, ExclusionReason], ...]


@dataclass(frozen=True)
class RawBaseline:
    """Pre-imputation summary: continuous fields may be None (missing)."""

    patient_id: str
    age: float
    sbp: float | None
    dbp: float | None
    bmi: float | None
    hdl: float | None
    ldl: float | None
    hba1c: float | None
    triglyceride: float | None
    troponin_flag: bool
    hypertension: bool
    diabetes: bool
    hyperlipidemia: bool
    medications: tuple[bool, ...]  # one flag per DrugClass, in its order
    treatment: Treatment
    outcomes: tuple[bool, ...]  # one flag per OUTCOME_NAMES entry, in its order


@dataclass(frozen=True)
class BaselineFeatures:
    patient_id: str
    age: float
    sbp: float
    dbp: float
    bmi: float
    hdl: float
    ldl: float
    hba1c: float
    triglyceride: float
    troponin_flag: bool
    abnormal_blood_pressure: bool
    abnormal_blood_lipid: bool
    hypertension: bool
    diabetes: bool
    hyperlipidemia: bool
    insulin: bool
    metformin: bool
    statin: bool
    ace_inhibitor: bool
    arb: bool
    antihypertensive_combination: bool
    vasodilator: bool
    antiarrhythmic: bool
    beta_blocker: bool
    calcium_blocker: bool
    diuretic: bool
    antihyperlipidemic_other: bool
    antihypertensive_medication: bool
    antihyperlipidemia_medication: bool
    treatment: Treatment
    chf: bool
    cad: bool
    cm: bool
    mi: bool
    imputed: frozenset[str] = field(default_factory=frozenset)


FEATURE_COLUMNS = [f.name for f in dataclass_fields(BaselineFeatures)]


def index_date(p: PatientRecord) -> date | None:
    """First treatment date, or None for untreated patients."""
    if not p.treatments:
        return None
    return min(t.date for t in p.treatments)


def age_at(p: PatientRecord, on: date) -> int:
    """Age in completed years on the given date."""
    years = on.year - p.birth_date.year
    if (on.month, on.day) < (p.birth_date.month, p.birth_date.day):
        years -= 1
    return years


def apply_eligibility(
    cohort: list[PatientRecord], code_map: CodeMap, end_of_data: date
) -> EligibilityReport:
    """Partition the cohort, recording the first matching exclusion reason.

    Rules are checked in a fixed precedence order: no treatment, not a female
    adult, multiple treatment types, prior cancer, prior heart disease,
    insufficient follow-up.
    """
    included: list[str] = []
    excluded: list[tuple[str, ExclusionReason]] = []
    for p in cohort:
        reason = _exclusion_reason(p, code_map, end_of_data)
        if reason is None:
            included.append(p.patient_id)
        else:
            excluded.append((p.patient_id, reason))
    return EligibilityReport(included=tuple(included), excluded=tuple(excluded))


def _exclusion_reason(
    p: PatientRecord, code_map: CodeMap, end_of_data: date
) -> ExclusionReason | None:
    index = index_date(p)
    if index is None:
        return ExclusionReason.NO_TREATMENT
    if p.sex is not Sex.F or age_at(p, index) < ADULT_AGE:
        return ExclusionReason.NOT_FEMALE_ADULT
    if len({t.treatment for t in p.treatments}) > 1:
        return ExclusionReason.MULTIPLE_TREATMENT_TYPES
    prior = [(d.date, classify_diagnosis(d, code_map)) for d in p.diagnoses if d.date <= index]
    if any(on < index and category is DiagnosisCategory.PRIOR_CANCER_EXCLUDING
           for on, category in prior):
        return ExclusionReason.PRIOR_CANCER
    if any(category in HEART_DISEASE_CATEGORIES for _, category in prior):
        return ExclusionReason.PRIOR_HEART_DISEASE
    if (end_of_data - index).days < MIN_FOLLOWUP_DAYS:
        return ExclusionReason.INSUFFICIENT_FOLLOWUP
    return None


def summarize_baseline(
    p: PatientRecord,
    index: date,
    code_map: CodeMap,
    config: PreprocessConfig = PreprocessConfig(),
) -> RawBaseline:
    """Collapse one patient's record into a pre-imputation baseline summary.

    One pass over each event list. The records need not be sorted: for each
    lab kind the pass keeps the latest date before the index and that date's
    values in record order, whose mean is the baseline value.
    """
    latest: dict[ObservationKind, tuple[date, list[float]]] = {}
    troponin_flag = False
    threshold = config.troponin_threshold
    for o in p.observations:
        if o.date >= index:
            continue
        if o.kind is ObservationKind.TROPONIN:
            troponin_flag = troponin_flag or threshold is None or o.value > threshold
            continue
        kept = latest.get(o.kind)
        if kept is None or o.date > kept[0]:
            latest[o.kind] = (o.date, [o.value])
        elif o.date == kept[0]:
            kept[1].append(o.value)
    labs = []
    for kind in CONTINUOUS_KINDS:
        kept = latest.get(kind)
        labs.append(None if kept is None else sum(kept[1]) / len(kept[1]))

    flags = [False] * len(_FLAG_SLOT)
    # the horizon is compared in days: index + horizon may not be a valid date
    horizon = config.outcome_horizon_days
    for d in p.diagnoses:
        slot = _FLAG_SLOT.get(classify_diagnosis(d, code_map))
        if slot is None:
            continue
        days = (d.date - index).days
        if slot < len(_CONDITION_CATEGORIES):
            flags[slot] = flags[slot] or days < 0
        else:
            flags[slot] = flags[slot] or (days > 0 and (horizon is None or days <= horizon))

    medications = [False] * len(_DRUG_SLOT)
    for m in p.medications:
        if m.date >= index:
            medications[_DRUG_SLOT[m.drug_class]] = True

    return RawBaseline(
        p.patient_id,
        float(age_at(p, index)),
        *labs,
        troponin_flag,
        *flags[: len(_CONDITION_CATEGORIES)],
        tuple(medications),
        p.treatments[0].treatment,
        tuple(flags[len(_CONDITION_CATEGORIES):]),
    )


def cohort_means(raws: list[RawBaseline]) -> dict[str, float]:
    """Cohort means of the mean-imputed fields, over observed values only."""
    means: dict[str, float] = {}
    for name in MEAN_IMPUTED_FIELDS:
        observed = [getattr(r, name) for r in raws if getattr(r, name) is not None]
        if observed:
            means[name] = sum(observed) / len(observed)
    return means


def impute(
    raw: RawBaseline, means: dict[str, float], config: PreprocessConfig = PreprocessConfig()
) -> BaselineFeatures:
    """Fill missing continuous fields, then derive the features from them.

    Triglyceride, BMI, DBP and SBP fall back to the cohort mean; HDL, LDL and
    HbA1c to the constants 55, 115 and 6.0. The derived flags are evaluated on
    post-imputation values, so imputation is idempotent.
    """
    imputed: set[str] = set()
    labs: list[float] = []
    for name in LAB_FIELDS:
        value = getattr(raw, name)
        if value is None:
            imputed.add(name)
            if name in _CONSTANT_IMPUTE:
                value = _CONSTANT_IMPUTE[name]
            elif name not in means or not math.isfinite(means[name]):
                raise EmptyCohortMeanError(name)
            else:
                value = means[name]
        labs.append(float(value))

    return baseline_features(
        raw.patient_id,
        raw.age,
        labs,
        raw.troponin_flag,
        (raw.hypertension, raw.diabetes, raw.hyperlipidemia),
        raw.medications,
        raw.treatment,
        raw.outcomes,
        config,
        frozenset(imputed),
    )


def baseline_features(
    patient_id: str,
    age: float,
    labs: Sequence[float],
    troponin_flag: bool,
    conditions: Sequence[bool],
    medications: Sequence[bool],
    treatment: Treatment,
    outcomes: Sequence[bool],
    config: PreprocessConfig = PreprocessConfig(),
    imputed: frozenset[str] = frozenset(),
) -> BaselineFeatures:
    """One feature row from complete baseline values.

    ``labs`` holds the values of ``LAB_FIELDS``, ``conditions`` the
    hypertension, diabetes and hyperlipidemia flags, ``medications`` one flag
    per ``DrugClass`` and ``outcomes`` one flag per ``OUTCOME_NAMES`` entry,
    each in that order. This is the one place that derives the abnormality
    flags and the aggregate medication flags, for preprocessing and for
    synthetic cohorts alike. Fields are filled by position (half the cost of
    keywords), in the declaration order of ``BaselineFeatures``, where each
    drug class has the medication field of its lower-cased name.
    """
    sbp, dbp, bmi, hdl, ldl, hba1c, triglyceride = labs
    return BaselineFeatures(
        patient_id,
        age,
        *labs,
        troponin_flag,
        sbp > 130.0 or dbp > 80.0,
        ldl > 130.0 or hdl < 50.0 or triglyceride > 150.0,
        *conditions,
        *medications,
        any([medications[i] for i in _class_positions(config.antihypertensive_classes)]),
        any([medications[i] for i in _class_positions(config.antihyperlipidemia_classes)]),
        treatment,
        *outcomes,
        imputed,
    )


@functools.lru_cache(maxsize=8)
def _class_positions(classes: frozenset[DrugClass]) -> tuple[int, ...]:
    return tuple(i for i, cls in enumerate(DrugClass) if cls in classes)


def compute_features(
    cohort: list[PatientRecord],
    code_map: CodeMap,
    end_of_data: date,
    config: PreprocessConfig = PreprocessConfig(),
) -> tuple[list[BaselineFeatures], EligibilityReport]:
    """Full preprocessing pass: eligibility, summarization, imputation."""
    report = apply_eligibility(cohort, code_map, end_of_data)
    included = set(report.included)
    raws = [
        summarize_baseline(p, index_date(p), code_map, config)
        for p in cohort
        if p.patient_id in included
    ]
    means = cohort_means(raws)
    features = [impute(r, means, config) for r in raws]
    features.sort(key=lambda f: f.patient_id)
    return features, report


# ---------------------------------------------------------------------------
# Feature matrices


@dataclass(frozen=True)
class FeatureMatrix:
    """Design matrix with intercept, plus outcome labels and row identities."""

    column_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    row_ids: tuple[str, ...]
    outcome: str

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def subset_rows(self, rows: np.ndarray) -> "FeatureMatrix":
        ids = tuple(self.row_ids[int(i)] for i in rows)
        return FeatureMatrix(self.column_names, self.X[rows], self.y[rows], ids, self.outcome)

    def select_columns(self, names: tuple[str, ...]) -> "FeatureMatrix":
        idx = [self.column_names.index(name) for name in names]
        return FeatureMatrix(tuple(names), self.X[:, idx], self.y, self.row_ids, self.outcome)


TREATMENT_DUMMY_COLUMNS = ("treatment_chemotherapy", "treatment_targeted")

# Scalar fields usable as predictors (booleans become 0/1 columns): every
# float or bool field of BaselineFeatures except the outcome flags.
_SCALAR_FEATURES = frozenset(
    f.name for f in dataclass_fields(BaselineFeatures) if f.type in ("float", "bool")
) - {name.lower() for name in OUTCOME_NAMES}

# Built-in predictor lists. "treatment" expands to the two dummy columns with
# radiation as the reference arm.
FEATURE_SETS: dict[str, tuple[str, ...]] = {
    "OUTCOME_MODEL": (
        "sbp",
        "dbp",
        "bmi",
        "hdl",
        "ldl",
        "hba1c",
        "troponin_flag",
        "triglyceride",
        "abnormal_blood_pressure",
        "abnormal_blood_lipid",
        "hyperlipidemia",
        "diabetes",
        "hypertension",
        "insulin",
        "metformin",
        "statin",
        "ace_inhibitor",
        "arb",
        "antihypertensive_combination",
        "vasodilator",
        "antiarrhythmic",
        "beta_blocker",
        "calcium_blocker",
        "treatment",
        "age",
    ),
    "BASELINE_HEALTH": (
        "age",
        "sbp",
        "dbp",
        "bmi",
        "ldl",
        "hdl",
        "hba1c",
        "triglyceride",
        "troponin_flag",
        "abnormal_blood_pressure",
        "hypertension",
        "hyperlipidemia",
        "abnormal_blood_lipid",
        "diabetes",
    ),
    "MEDICATION_MODEL": (
        "age",
        "sbp",
        "dbp",
        "bmi",
        "ldl",
        "hdl",
        "hba1c",
        "troponin_flag",
        "triglyceride",
        "abnormal_blood_pressure",
        "abnormal_blood_lipid",
        "hyperlipidemia",
        "diabetes",
        "hypertension",
        "metformin",
        "insulin",
        "statin",
        "ace_inhibitor",
        "arb",
        "vasodilator",
        "antiarrhythmic",
        "beta_blocker",
        "calcium_blocker",
        "diuretic",
        "antihypertensive_medication",
        "antihyperlipidemia_medication",
    ),
}

CONTRASTS = {
    "CHEMO_VS_RADIATION": Treatment.CHEMOTHERAPY,
    "TARGETED_VS_RADIATION": Treatment.TARGETED,
}


def resolve_feature_set(
    feature_set: str | tuple[str, ...] | list[str],
    extra_sets: dict[str, tuple[str, ...]] | None = None,
) -> tuple[str, ...]:
    if isinstance(feature_set, str):
        registry = dict(FEATURE_SETS)
        if extra_sets:
            registry.update(extra_sets)
        if feature_set not in registry:
            raise UnknownFeatureError(feature_set)
        return tuple(registry[feature_set])
    return tuple(feature_set)


def build_matrix(
    features: list[BaselineFeatures],
    feature_set: str | tuple[str, ...] | list[str],
    outcome: str,
    extra_sets: dict[str, tuple[str, ...]] | None = None,
) -> FeatureMatrix:
    """Assemble the design matrix for one analysis.

    ``outcome`` is a cardiac outcome name (CHF/CAD/CM/MI) or a treatment
    contrast (CHEMO_VS_RADIATION / TARGETED_VS_RADIATION). Contrast matrices
    are restricted to the two compared arms with radiation labeled 0. Rows are
    in patient_id order regardless of input order; an intercept column is
    always prepended.
    """
    names = resolve_feature_set(feature_set, extra_sets)
    for name in names:
        if name != "treatment" and name not in _SCALAR_FEATURES:
            raise UnknownFeatureError(name)

    rows = sorted(features, key=lambda f: f.patient_id)
    if outcome in CONTRASTS:
        arm = CONTRASTS[outcome]
        rows = [f for f in rows if f.treatment in (arm, Treatment.RADIATION)]
        labels = [1.0 if f.treatment is arm else 0.0 for f in rows]
    elif outcome in OUTCOME_NAMES:
        labels = [1.0 if getattr(f, outcome.lower()) else 0.0 for f in rows]
    else:
        raise UnknownFeatureError(outcome)

    columns: list[str] = ["intercept"]
    values: list[list[float]] = [[1.0] * len(rows)]
    for name in names:
        if name == "treatment":
            columns.extend(TREATMENT_DUMMY_COLUMNS)
            for arm in (Treatment.CHEMOTHERAPY, Treatment.TARGETED):
                values.append([1.0 if f.treatment is arm else 0.0 for f in rows])
        else:
            columns.append(name)
            values.append([float(getattr(f, name)) for f in rows])

    return FeatureMatrix(
        column_names=tuple(columns),
        X=np.ascontiguousarray(np.array(values, dtype=np.float64).T),
        y=np.asarray(labels, dtype=np.float64),
        row_ids=tuple(f.patient_id for f in rows),
        outcome=outcome,
    )


# ---------------------------------------------------------------------------
# Report emission


def write_features_csv(path: str | Path, features: list[BaselineFeatures]) -> None:
    rows = []
    for f in features:
        row = []
        for name in FEATURE_COLUMNS:
            value = getattr(f, name)
            if name == "treatment":
                row.append(value.value)
            elif name == "imputed":
                row.append(";".join(sorted(value)))
            else:
                row.append(value)
        rows.append(row)
    write_csv(path, FEATURE_COLUMNS, rows)


def write_exclusions_csv(path: str | Path, report: EligibilityReport) -> None:
    write_csv(
        path,
        ("patient_id", "reason"),
        [(pid, reason.value) for pid, reason in report.excluded],
    )
