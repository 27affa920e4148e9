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

import itertools
import math
import operator
from dataclasses import dataclass, field, fields as dataclass_fields, replace
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

_CONSTANT_IMPUTE = {"hdl": 55.0, "ldl": 115.0, "hba1c": 6.0}

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


@dataclass(frozen=True)
class Baselines:
    """Baseline summaries of patient rows, as columns with one entry per row.

    The 2-D columns are in order: ``labs`` by ``LAB_FIELDS`` (NaN where
    missing), ``conditions`` hypertension, diabetes, hyperlipidemia,
    ``medications`` by ``DrugClass``, ``outcomes`` by ``OUTCOME_NAMES``.
    """

    patient_ids: Sequence[str]
    age: np.ndarray  # float, completed years on the index date
    labs: np.ndarray  # float, rows x LAB_FIELDS
    troponin_flag: np.ndarray  # bool
    conditions: np.ndarray  # bool, rows x 3
    medications: np.ndarray  # bool, rows x DrugClass
    treatments: Sequence[Treatment]
    outcomes: np.ndarray  # bool, rows x OUTCOME_NAMES


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
) -> Baselines:
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
    return Baselines(
        [cohort.patient_ids[row] for row in rows.tolist()],
        _age(cohort.birth_day[rows], index[rows]).astype(float),
        labs,
        troponin_flags,
        flags[:, :conditions],
        medications,
        [TREATMENTS[code] for code in arm.tolist()],
        flags[:, conditions:],
    )


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


def impute(
    baselines: Baselines, config: PreprocessConfig = PreprocessConfig()
) -> list[BaselineFeatures]:
    """Fill the missing labs, then derive the feature rows from the filled values.

    Triglyceride, BMI, DBP and SBP fall back to the mean of their observed
    values, summed left to right in row order as ``sum()`` does; HDL, LDL and
    HbA1c to the constants 55, 115 and 6.0. A field with no finite mean (no
    observed value, or a sum that overflows) raises EmptyCohortMeanError for
    the first row that lacks it, naming that row's first such field.
    """
    labs = baselines.labs.copy()
    missing = np.isnan(labs)
    for j, name in enumerate(LAB_FIELDS):
        if name in _CONSTANT_IMPUTE:
            labs[missing[:, j], j] = _CONSTANT_IMPUTE[name]
        elif missing[:, j].any():
            observed = labs[~missing[:, j], j].tolist()
            mean = sum(observed) / len(observed) if observed else math.nan
            labs[missing[:, j], j] = mean if math.isfinite(mean) else math.nan
    unfilled = np.argwhere(np.isnan(labs))  # by row, then by field
    if len(unfilled):
        j = unfilled[0, 1]
        raise EmptyCohortMeanError(LAB_FIELDS[j], overflow=not missing[:, j].all())
    # one set per pattern of imputed fields, shared by the rows that have it
    codes = missing.dot(1 << np.arange(len(LAB_FIELDS))).tolist()
    sets = {code: frozenset(name for j, name in enumerate(LAB_FIELDS) if code >> j & 1)
            for code in set(codes)}
    return feature_rows(replace(baselines, labs=labs), config, [sets[code] for code in codes])


def feature_rows(
    baselines: Baselines,
    config: PreprocessConfig = PreprocessConfig(),
    imputed: Sequence[frozenset[str]] | None = None,
) -> list[BaselineFeatures]:
    """One feature row per baseline whose labs are all present.

    The one place that derives the abnormality flags and the aggregate
    medication flags, on whole columns, for preprocessing and synthetic
    cohorts alike. ``imputed`` holds each row's imputed fields (none by
    default). Rows are filled by position (half the cost of keywords) from
    Python values, in ``BaselineFeatures`` order.
    """
    b = baselines
    sbp, dbp, bmi, hdl, ldl, hba1c, triglyceride = b.labs.T

    def any_of(classes: frozenset[DrugClass]) -> list[bool]:
        return (b.medications & [cls in classes for cls in DrugClass]).any(axis=1).tolist()

    return list(map(
        BaselineFeatures,
        b.patient_ids,
        b.age.tolist(),
        *b.labs.T.tolist(),
        b.troponin_flag.tolist(),
        ((sbp > 130.0) | (dbp > 80.0)).tolist(),
        ((ldl > 130.0) | (hdl < 50.0) | (triglyceride > 150.0)).tolist(),
        *b.conditions.T.tolist(),
        *b.medications.T.tolist(),
        any_of(config.antihypertensive_classes),
        any_of(config.antihyperlipidemia_classes),
        b.treatments,
        *b.outcomes.T.tolist(),
        itertools.repeat(frozenset()) if imputed is None else imputed,
    ))


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
    baselines = summarize_baselines(
        cohort, [row_of[pid] for pid in report.included], code_map, config)
    return impute(baselines, config), report


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
