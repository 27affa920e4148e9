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
    for line_no, (system, prefix, category) in _read_rows(
        path, ("code_system", "code_prefix", "category")
    ):
        system = _parse_enum(CodeSystem, system, path, line_no, "code_system")
        category = _parse_enum(DiagnosisCategory, category, path, line_no, "category")
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


# Event row parsers. The caller has checked patient_id; each parser checks the
# other fields in a fixed order (an observation's value comes first), so a row
# with several faults always reports the same one.


def _observation(row: list[str], path: Path, line_no: int) -> Observation:
    _, day, kind, value = row
    number = _parse_value(value, path, line_no)
    return Observation(
        _parse_date(day, path, line_no, "date"),
        _parse_enum(ObservationKind, kind, path, line_no, "kind"),
        number,
    )


def _diagnosis(row: list[str], path: Path, line_no: int) -> DiagnosisEvent:
    _, day, system, code = row
    if not code:
        raise MalformedRowError(str(path), line_no, "code", "empty code")
    return DiagnosisEvent(
        _parse_date(day, path, line_no, "date"),
        _parse_enum(CodeSystem, system, path, line_no, "code_system"),
        code,
    )


def _medication(row: list[str], path: Path, line_no: int) -> MedicationEvent:
    _, day, drug_class = row
    return MedicationEvent(
        _parse_date(day, path, line_no, "date"),
        _parse_enum(DrugClass, drug_class, path, line_no, "drug_class"),
    )


def _treatment(row: list[str], path: Path, line_no: int) -> TreatmentEvent:
    _, day, treatment = row
    return TreatmentEvent(
        _parse_date(day, path, line_no, "date"),
        _parse_enum(Treatment, treatment, path, line_no, "treatment"),
    )


# The event tables in PatientRecord field order: the field name (also the
# CohortPaths field), the header, the row parser and the canonical sort key.
_EVENT_TABLES = (
    ("observations", ("patient_id", "date", "kind", "value"), _observation,
     lambda o: (o.date, o.kind.value, o.value)),
    ("diagnoses", ("patient_id", "date", "code_system", "code"), _diagnosis,
     lambda d: (d.date, d.code_system.value, d.code)),
    ("medications", ("patient_id", "date", "drug_class"), _medication,
     lambda m: (m.date, m.drug_class.value)),
    ("treatments", ("patient_id", "date", "treatment"), _treatment,
     lambda t: (t.date, t.treatment.value)),
)


def load_cohort(paths: CohortPaths) -> list[PatientRecord]:
    """Materialize the five event tables into a canonically sorted cohort.

    Codes are not classified here; that happens downstream with a code map.
    Patients are returned sorted by patient_id with events sorted by
    (date, kind, value)-style keys, so any permutation of input rows yields an
    identical cohort.
    """
    demographics: dict[str, tuple[date, Sex]] = {}
    for line_no, (pid, birth_date, sex) in _read_rows(
        paths.patients, ("patient_id", "birth_date", "sex")
    ):
        if not pid:
            raise MalformedRowError(str(paths.patients), line_no, "patient_id", "empty id")
        if pid in demographics:
            raise DuplicatePatientError(pid)
        demographics[pid] = (
            _parse_date(birth_date, paths.patients, line_no, "birth_date"),
            _parse_enum(Sex, sex, paths.patients, line_no, "sex"),
        )

    events = {pid: tuple([] for _ in _EVENT_TABLES) for pid in demographics}
    for slot, (name, columns, parse, _) in enumerate(_EVENT_TABLES):
        path = getattr(paths, name)
        for line_no, row in _read_rows(path, columns):
            owned = events.get(row[0])
            if owned is None:
                raise UnknownPatientError(row[0], str(path), line_no)
            owned[slot].append(parse(row, path, line_no))

    cohort = []
    for pid in sorted(demographics):
        tables = zip(events[pid], _EVENT_TABLES)
        sorted_events = (tuple(sorted(rows, key=table[3])) for rows, table in tables)
        cohort.append(PatientRecord(pid, *demographics[pid], *sorted_events))
    return cohort


def _read_rows(path: str | Path, columns: Sequence[str]):
    """Yield (line number, fields) per data row, fields in ``columns`` order."""
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
            yield line_no, raw


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
