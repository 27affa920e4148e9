"""Longitudinal patient data model and CSV ingestion.

A cohort is a list of :class:`PatientRecord`, each holding demographics plus
timestamped observation / diagnosis / medication / treatment events. Cohorts
are immutable after load and canonically sorted, so loading is independent of
input row order and safe for concurrent readers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    DuplicatePatientError,
    MalformedRowError,
    UnknownPatientError,
)


class Sex(Enum):
    F = "F"
    M = "M"
    OTHER = "OTHER"


class ObservationKind(Enum):
    SBP = "SBP"                    # mmHg
    DBP = "DBP"                    # mmHg
    BMI = "BMI"                    # kg/m^2
    HDL = "HDL"                    # mg/dL
    LDL = "LDL"                    # mg/dL
    HBA1C = "HBA1C"                # %
    TRIGLYCERIDE = "TRIGLYCERIDE"  # mg/dL
    TROPONIN = "TROPONIN"          # ng/mL


class CodeSystem(Enum):
    ICD9 = "ICD9"
    ICD10 = "ICD10"


class DrugClass(Enum):
    INSULIN = "INSULIN"
    METFORMIN = "METFORMIN"
    STATIN = "STATIN"
    ACE_INHIBITOR = "ACE_INHIBITOR"
    ARB = "ARB"
    ANTIHYPERTENSIVE_COMBINATION = "ANTIHYPERTENSIVE_COMBINATION"
    VASODILATOR = "VASODILATOR"
    ANTIARRHYTHMIC = "ANTIARRHYTHMIC"
    BETA_BLOCKER = "BETA_BLOCKER"
    CALCIUM_BLOCKER = "CALCIUM_BLOCKER"
    DIURETIC = "DIURETIC"
    ANTIHYPERLIPIDEMIC_OTHER = "ANTIHYPERLIPIDEMIC_OTHER"


class Treatment(Enum):
    CHEMOTHERAPY = "CHEMOTHERAPY"
    TARGETED = "TARGETED"
    RADIATION = "RADIATION"


class DiagnosisCategory(Enum):
    BREAST_CANCER = "BREAST_CANCER"
    PRIOR_CANCER_EXCLUDING = "PRIOR_CANCER_EXCLUDING"
    PRIOR_CANCER_ALLOWED = "PRIOR_CANCER_ALLOWED"
    CHF = "CHF"
    CAD = "CAD"
    CM = "CM"
    MI = "MI"
    HYPERTENSION = "HYPERTENSION"
    DIABETES = "DIABETES"
    HYPERLIPIDEMIA = "HYPERLIPIDEMIA"
    RADIATION_PROCEDURE = "RADIATION_PROCEDURE"


HEART_DISEASE_CATEGORIES = frozenset(
    {DiagnosisCategory.CHF, DiagnosisCategory.CAD, DiagnosisCategory.CM, DiagnosisCategory.MI}
)


@dataclass(frozen=True)
class Observation:
    date: date
    kind: ObservationKind
    value: float


@dataclass(frozen=True)
class DiagnosisEvent:
    date: date
    code_system: CodeSystem
    code: str


@dataclass(frozen=True)
class MedicationEvent:
    date: date
    drug_class: DrugClass


@dataclass(frozen=True)
class TreatmentEvent:
    date: date
    treatment: Treatment


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    birth_date: date
    sex: Sex
    observations: tuple[Observation, ...] = ()
    diagnoses: tuple[DiagnosisEvent, ...] = ()
    medications: tuple[MedicationEvent, ...] = ()
    treatments: tuple[TreatmentEvent, ...] = ()


@dataclass(frozen=True)
class CodeMap:
    """Prefix tables mapping diagnosis codes to categories, per code system.

    Prefixes are matched longest-first, mirroring the hierarchical structure
    of ICD code families. The default map shipped with this package is
    illustrative documentation, not a clinically validated code list.
    """

    entries: Mapping[CodeSystem, Mapping[str, DiagnosisCategory]] = field(default_factory=dict)

    def classify(self, code_system: CodeSystem, code: str) -> DiagnosisCategory | None:
        table = self.entries.get(code_system)
        if not table:
            return None
        for length in range(len(code), 0, -1):
            category = table.get(code[:length])
            if category is not None:
                return category
        return None


def classify_diagnosis(event: DiagnosisEvent, code_map: CodeMap) -> DiagnosisCategory | None:
    """Category of the longest matching code prefix, or None if nothing matches."""
    return code_map.classify(event.code_system, event.code)


_DEFAULT_MAP_ROWS = [
    ("ICD10", "C50", "BREAST_CANCER"),
    ("ICD10", "C44", "PRIOR_CANCER_ALLOWED"),
    ("ICD10", "D06", "PRIOR_CANCER_ALLOWED"),
    ("ICD10", "C", "PRIOR_CANCER_EXCLUDING"),
    ("ICD10", "I50", "CHF"),
    ("ICD10", "I25", "CAD"),
    ("ICD10", "I42", "CM"),
    ("ICD10", "I21", "MI"),
    ("ICD10", "I10", "HYPERTENSION"),
    ("ICD10", "E11", "DIABETES"),
    ("ICD10", "E78", "HYPERLIPIDEMIA"),
    ("ICD10", "Z51.0", "RADIATION_PROCEDURE"),
    ("ICD9", "174", "BREAST_CANCER"),
    ("ICD9", "173", "PRIOR_CANCER_ALLOWED"),
    ("ICD9", "233.1", "PRIOR_CANCER_ALLOWED"),
    ("ICD9", "1", "PRIOR_CANCER_EXCLUDING"),
    ("ICD9", "2", "PRIOR_CANCER_EXCLUDING"),
    ("ICD9", "428", "CHF"),
    ("ICD9", "414", "CAD"),
    ("ICD9", "425", "CM"),
    ("ICD9", "410", "MI"),
    ("ICD9", "401", "HYPERTENSION"),
    ("ICD9", "250", "DIABETES"),
    ("ICD9", "272", "HYPERLIPIDEMIA"),
    ("ICD9", "V58.0", "RADIATION_PROCEDURE"),
]


def default_code_map() -> CodeMap:
    """Built-in illustrative prefix map covering the categories the pipeline uses."""
    entries: dict[CodeSystem, dict[str, DiagnosisCategory]] = {}
    for system, prefix, category in _DEFAULT_MAP_ROWS:
        entries.setdefault(CodeSystem(system), {})[prefix] = DiagnosisCategory(category)
    return CodeMap(entries)


def default_code_map_rows() -> list[tuple[str, str, str]]:
    return list(_DEFAULT_MAP_ROWS)


def load_code_map(path: str | Path) -> CodeMap:
    """Load a code map from a CSV of (code_system, code_prefix, category)."""
    path = Path(path)
    entries: dict[CodeSystem, dict[str, DiagnosisCategory]] = {}
    for line_no, row in _read_rows(path, ("code_system", "code_prefix", "category")):
        system = _parse_enum(CodeSystem, row["code_system"], path, line_no, "code_system")
        category = _parse_enum(DiagnosisCategory, row["category"], path, line_no, "category")
        prefix = row["code_prefix"]
        if not prefix:
            raise MalformedRowError(str(path), line_no, "code_prefix", "empty prefix")
        table = entries.setdefault(system, {})
        if prefix in table:
            raise MalformedRowError(
                str(path), line_no, "code_prefix", f"duplicate prefix '{prefix}'"
            )
        table[prefix] = category
    return CodeMap(entries)


@dataclass(frozen=True)
class CohortPaths:
    patients: Path
    observations: Path
    diagnoses: Path
    medications: Path
    treatments: Path

    @classmethod
    def in_dir(cls, directory: str | Path) -> "CohortPaths":
        d = Path(directory)
        return cls(
            patients=d / "patients.csv",
            observations=d / "observations.csv",
            diagnoses=d / "diagnoses.csv",
            medications=d / "medications.csv",
            treatments=d / "treatments.csv",
        )


def load_cohort(paths: CohortPaths) -> list[PatientRecord]:
    """Materialize the five event tables into a canonically sorted cohort.

    Codes are not classified here; that happens downstream with a code map.
    Patients are returned sorted by patient_id with events sorted by
    (date, kind, value)-style keys, so any permutation of input rows yields an
    identical cohort.
    """
    patients: dict[str, dict] = {}

    for line_no, row in _read_rows(paths.patients, ("patient_id", "birth_date", "sex")):
        pid = row["patient_id"]
        if not pid:
            raise MalformedRowError(str(paths.patients), line_no, "patient_id", "empty id")
        if pid in patients:
            raise DuplicatePatientError(pid)
        patients[pid] = {
            "birth_date": _parse_date(row["birth_date"], paths.patients, line_no, "birth_date"),
            "sex": _parse_enum(Sex, row["sex"], paths.patients, line_no, "sex"),
            "observations": [],
            "diagnoses": [],
            "medications": [],
            "treatments": [],
        }

    def owner(pid: str, path: Path, line_no: int) -> dict:
        if pid not in patients:
            raise UnknownPatientError(pid, str(path), line_no)
        return patients[pid]

    for line_no, row in _read_rows(paths.observations, ("patient_id", "date", "kind", "value")):
        rec = owner(row["patient_id"], paths.observations, line_no)
        value = _parse_value(row["value"], paths.observations, line_no)
        rec["observations"].append(
            Observation(
                date=_parse_date(row["date"], paths.observations, line_no, "date"),
                kind=_parse_enum(ObservationKind, row["kind"], paths.observations, line_no, "kind"),
                value=value,
            )
        )

    for line_no, row in _read_rows(paths.diagnoses, ("patient_id", "date", "code_system", "code")):
        rec = owner(row["patient_id"], paths.diagnoses, line_no)
        if not row["code"]:
            raise MalformedRowError(str(paths.diagnoses), line_no, "code", "empty code")
        rec["diagnoses"].append(
            DiagnosisEvent(
                date=_parse_date(row["date"], paths.diagnoses, line_no, "date"),
                code_system=_parse_enum(
                    CodeSystem, row["code_system"], paths.diagnoses, line_no, "code_system"
                ),
                code=row["code"],
            )
        )

    for line_no, row in _read_rows(paths.medications, ("patient_id", "date", "drug_class")):
        rec = owner(row["patient_id"], paths.medications, line_no)
        rec["medications"].append(
            MedicationEvent(
                date=_parse_date(row["date"], paths.medications, line_no, "date"),
                drug_class=_parse_enum(
                    DrugClass, row["drug_class"], paths.medications, line_no, "drug_class"
                ),
            )
        )

    for line_no, row in _read_rows(paths.treatments, ("patient_id", "date", "treatment")):
        rec = owner(row["patient_id"], paths.treatments, line_no)
        rec["treatments"].append(
            TreatmentEvent(
                date=_parse_date(row["date"], paths.treatments, line_no, "date"),
                treatment=_parse_enum(
                    Treatment, row["treatment"], paths.treatments, line_no, "treatment"
                ),
            )
        )

    cohort = []
    for pid in sorted(patients):
        rec = patients[pid]
        cohort.append(
            PatientRecord(
                patient_id=pid,
                birth_date=rec["birth_date"],
                sex=rec["sex"],
                observations=tuple(
                    sorted(rec["observations"], key=lambda o: (o.date, o.kind.value, o.value))
                ),
                diagnoses=tuple(
                    sorted(rec["diagnoses"], key=lambda d: (d.date, d.code_system.value, d.code))
                ),
                medications=tuple(
                    sorted(rec["medications"], key=lambda m: (m.date, m.drug_class.value))
                ),
                treatments=tuple(
                    sorted(rec["treatments"], key=lambda t: (t.date, t.treatment.value))
                ),
            )
        )
    return cohort


def _read_rows(path: str | Path, columns: Sequence[str]):
    path = Path(path)
    if not path.exists():
        raise MalformedRowError(str(path), 0, "", "file does not exist")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(str(path), 1, "", "missing header row") from None
        if header != list(columns):
            raise MalformedRowError(
                str(path), 1, "", f"header {header!r} does not match {list(columns)!r}"
            )
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(columns):
                raise MalformedRowError(
                    str(path), line_no, "", f"expected {len(columns)} fields, got {len(raw)}"
                )
            yield line_no, dict(zip(columns, raw))


def _parse_date(text: str, path: Path, line_no: int, column: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise MalformedRowError(
            str(path), line_no, column, f"invalid ISO date '{text}'"
        ) from None


def _parse_enum(enum_cls, text: str, path: Path, line_no: int, column: str):
    try:
        return enum_cls(text)
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise MalformedRowError(
            str(path), line_no, column, f"'{text}' not one of {{{allowed}}}"
        ) from None


def _parse_value(text: str, path: Path, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRowError(
            str(path), line_no, "value", f"'{text}' is not a number"
        ) from None
    if not math.isfinite(value) or value < 0:
        raise MalformedRowError(
            str(path), line_no, "value", f"value must be finite and >= 0, got '{text}'"
        )
    return value
