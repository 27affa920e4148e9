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
import operator
from dataclasses import dataclass, field, fields as dataclass_fields
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .cohort import (
    DRUG_CLASSES,
    HEART_DISEASE_CATEGORIES,
    OBSERVATION_KINDS,
    SEXES,
    TREATMENTS,
    CodeMap,
    Cohort,
    DiagnosisCategory,
    DrugClass,
    EventTable,
    ObservationKind,
    Sex,
    Treatment,
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

# By event code: the position of an observation's kind in CONTINUOUS_KINDS (-1
# for troponin), and of a drug class in DrugClass.
_LAB_SLOT = np.array(
    [CONTINUOUS_KINDS.index(k) if k in CONTINUOUS_KINDS else -1 for k in OBSERVATION_KINDS])
_TROPONIN = OBSERVATION_KINDS.index(ObservationKind.TROPONIN)
_DRUG_SLOT = np.array([list(DrugClass).index(cls) for cls in DRUG_CLASSES])

# More days than lie between any two dates.
_DAY_SPAN = date.max.toordinal()
_EPOCH = date(1970, 1, 1).toordinal()

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def index_days(cohort: Cohort) -> np.ndarray:
    """Each patient's index date (first treatment) as a day ordinal, 0 if untreated."""
    bounds = cohort.treatments.bounds(len(cohort))
    treated = bounds[1:] > bounds[:-1]
    index = np.zeros(len(cohort), np.int32)
    index[treated] = cohort.treatments.day[bounds[:-1][treated]]
    return index


def _age(birth: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Age in completed years on the day ``on``, both given as day ordinals."""
    (born_year, born_month_day), (year, month_day) = _year_month_day(birth), _year_month_day(on)
    return year - born_year - (month_day < born_month_day)


def _year_month_day(ordinals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The year of each day ordinal, and a key that orders its (month, day)."""
    days = (ordinals.astype(np.int64) - _EPOCH).astype("datetime64[D]")
    year, month = days.astype("datetime64[Y]"), days.astype("datetime64[M]")
    month_of_year = (month - year.astype("datetime64[M]")).astype(np.int64)
    day_of_month = (days - month.astype("datetime64[D]")).astype(np.int64)
    return year.astype(np.int64), month_of_year * 32 + day_of_month



def _categories(cohort: Cohort, code_map: CodeMap) -> list[DiagnosisCategory | None]:
    """The category of each distinct diagnosis code of the cohort."""
    return [code_map.classify(system, code) for system, code in cohort.diagnosis_codes]


def _any_per_patient(n: int, patient: np.ndarray, hit: np.ndarray) -> np.ndarray:
    flags = np.zeros(n, bool)
    flags[patient[hit]] = True
    return flags


def apply_eligibility(
    cohort: Cohort, code_map: CodeMap, end_of_data: date
) -> EligibilityReport:
    """Partition the cohort, recording the first matching exclusion reason.

    Rules are checked in a fixed precedence order: no treatment, not a female
    adult, multiple treatment types, prior cancer, prior heart disease,
    insufficient follow-up.
    """
    n = len(cohort)
    index = index_days(cohort)
    tx, dx = cohort.treatments, cohort.diagnoses
    arms = np.zeros((n, len(TREATMENTS)), bool)
    arms[tx.patient, tx.code] = True
    categories = _categories(cohort, code_map)
    cancer = np.array([c is DiagnosisCategory.PRIOR_CANCER_EXCLUDING for c in categories], bool)
    heart = np.array([c in HEART_DISEASE_CATEGORIES for c in categories], bool)
    days = dx.day - index[dx.patient]
    rules = (
        (index == 0, ExclusionReason.NO_TREATMENT),
        ((cohort.sex != SEXES.index(Sex.F)) | (_age(cohort.birth_day, index) < ADULT_AGE),
         ExclusionReason.NOT_FEMALE_ADULT),
        (arms.sum(axis=1) > 1, ExclusionReason.MULTIPLE_TREATMENT_TYPES),
        (_any_per_patient(n, dx.patient, cancer[dx.code] & (days < 0)),
         ExclusionReason.PRIOR_CANCER),
        (_any_per_patient(n, dx.patient, heart[dx.code] & (days <= 0)),
         ExclusionReason.PRIOR_HEART_DISEASE),
        (end_of_data.toordinal() - index < MIN_FOLLOWUP_DAYS,
         ExclusionReason.INSUFFICIENT_FOLLOWUP),
    )
    # the first rule that holds, or -1
    rule = np.select([holds for holds, _ in rules], np.arange(len(rules)), -1).tolist()
    return EligibilityReport(
        included=tuple(pid for pid, r in zip(cohort.patient_ids, rule) if r < 0),
        excluded=tuple((pid, rules[r][1]) for pid, r in zip(cohort.patient_ids, rule) if r >= 0),
    )


def summarize_baselines(
    cohort: Cohort,
    rows: Sequence[int],
    code_map: CodeMap,
    config: PreprocessConfig = PreprocessConfig(),
) -> list[RawBaseline]:
    """Pre-imputation baseline summaries of the given treated patient rows, in order.

    Each lab value is the mean of the kind's observations on its latest day
    before the index date, summed left to right in canonical order (by value).
    """
    rows = np.asarray(rows, np.int64)
    n, m = len(cohort), len(rows)
    index = index_days(cohort)
    if (index[rows] == 0).any():
        raise ValueError("summarize_baselines takes only patients with a treatment")
    slot = np.full(n, -1, np.int64)  # each patient's position in rows, or -1
    slot[rows] = np.arange(m)

    obs = cohort.observations
    at = slot[obs.patient]
    before = (at >= 0) & (obs.day < index[obs.patient])
    troponin = before & (obs.code == _TROPONIN)
    if config.troponin_threshold is not None:
        troponin &= obs.value > config.troponin_threshold
    troponin_flags = _any_per_patient(m, at, troponin)
    labs = _latest_means(m, at, obs, before)

    dx = cohort.diagnoses
    flag = np.array([_FLAG_SLOT.get(c, -1) for c in _categories(cohort, code_map)], np.int64)
    flag = flag[dx.code]
    # the horizon is compared in days; beyond the span of dates it changes nothing
    days = dx.day.astype(np.int64) - index[dx.patient]
    outcome = (flag >= len(_CONDITION_CATEGORIES)) & (days > 0)
    if config.outcome_horizon_days is not None:
        outcome &= days <= max(min(config.outcome_horizon_days, _DAY_SPAN), -_DAY_SPAN)
    condition = (flag >= 0) & (flag < len(_CONDITION_CATEGORIES)) & (days < 0)
    at = slot[dx.patient]
    hit = (at >= 0) & (outcome | condition)
    flags = np.zeros((m, len(_FLAG_SLOT)), bool)
    flags[at[hit], flag[hit]] = True

    med = cohort.medications
    at = slot[med.patient]
    hit = (at >= 0) & (med.day >= index[med.patient])
    medications = np.zeros((m, len(DRUG_CLASSES)), bool)
    medications[at[hit], _DRUG_SLOT[med.code[hit]]] = True

    arm = cohort.treatments.code[cohort.treatments.bounds(n)[rows]]
    conditions = len(_CONDITION_CATEGORIES)
    # RawBaseline fields as columns, so that rows are built without a list per row
    return list(map(
        RawBaseline,
        [cohort.patient_ids[row] for row in rows.tolist()],
        _age(cohort.birth_day[rows], index[rows]).astype(float).tolist(),
        *([None if v != v else v for v in column] for column in labs.T.tolist()),
        troponin_flags.tolist(),
        *flags[:, :conditions].T.tolist(),
        zip(*medications.T.tolist()),
        [TREATMENTS[code] for code in arm.tolist()],
        zip(*flags[:, conditions:].T.tolist()),
    ))


def _latest_means(m: int, at: np.ndarray, obs: EventTable, before: np.ndarray) -> np.ndarray:
    """Per row ``at`` (m rows) and lab kind, the mean of the values on the kind's
    latest day among the ``before`` events; NaN where there are none."""
    means = np.full((m, len(CONTINUOUS_KINDS)), np.nan)
    lab = _LAB_SLOT[obs.code]
    take = before & (lab >= 0)
    if not take.any():
        return means
    # group by (row, kind); a stable sort keeps each group in canonical order
    key = at[take] * len(CONTINUOUS_KINDS) + lab[take]
    order = np.argsort(key, kind="stable")
    key, day, value = key[order], obs.day[take][order], obs.value[take][order]
    starts = np.r_[True, key[1:] != key[:-1]]
    last_day = day[np.r_[starts[1:], True]][np.cumsum(starts) - 1]
    key, value = key[day == last_day], value[day == last_day]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    size = np.diff(np.r_[first, len(key)])
    # sum() starts at 0, so -0.0 sums to 0.0; pairwise summation would round differently
    total = value[first] + 0.0
    for k in range(1, int(size.max(initial=1))):
        more = size > k
        total[more] += value[first[more] + k]
    means.reshape(-1)[key[first]] = total / size
    return means


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
    cohort: Cohort,
    code_map: CodeMap,
    end_of_data: date,
    config: PreprocessConfig = PreprocessConfig(),
) -> tuple[list[BaselineFeatures], EligibilityReport]:
    """Full preprocessing pass: eligibility, summarization, imputation.

    Feature rows are in patient_id order.
    """
    report = apply_eligibility(cohort, code_map, end_of_data)
    row_of = dict(zip(cohort.patient_ids, range(len(cohort))))
    raws = summarize_baselines(cohort, [row_of[pid] for pid in report.included], code_map, config)
    means = cohort_means(raws)
    features = [impute(r, means, config) for r in raws]
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
    values = operator.attrgetter(*FEATURE_COLUMNS)
    treatment, imputed = FEATURE_COLUMNS.index("treatment"), FEATURE_COLUMNS.index("imputed")

    def row(f: BaselineFeatures) -> list:
        cells = list(values(f))
        cells[treatment] = cells[treatment].value
        cells[imputed] = ";".join(sorted(cells[imputed]))
        return cells

    write_csv(path, FEATURE_COLUMNS, map(row, features))


def write_exclusions_csv(path: str | Path, report: EligibilityReport) -> None:
    write_csv(
        path,
        ("patient_id", "reason"),
        [(pid, reason.value) for pid, reason in report.excluded],
    )
