"""Longitudinal patient data model and CSV ingestion.

A :class:`Cohort` holds the patients sorted by id, with their birth dates and
sexes, and each event table as numpy columns in one canonical order: by
patient, then date, then the event's kind, code system and code, drug class
or treatment by name, then an observation's value. Any permutation of input
rows therefore loads the same cohort. A cohort iterates as each patient's
:class:`EventRows`, the ranges of its rows in the event tables.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field, fields as dataclass_fields
from datetime import date
from enum import Enum
from itertools import accumulate, chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

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


def _by_name(enum_cls) -> tuple:
    return tuple(sorted(enum_cls, key=lambda member: member.value))


# The members of each coded column, in the order of their names. A code is the
# member's position here, so sorting by code sorts by name.
SEXES = _by_name(Sex)
OBSERVATION_KINDS = _by_name(ObservationKind)
CODE_SYSTEMS = _by_name(CodeSystem)
DRUG_CLASSES = _by_name(DrugClass)
TREATMENTS = _by_name(Treatment)
DIAGNOSIS_CATEGORIES = _by_name(DiagnosisCategory)

_CODE = {members: {m.value: i for i, m in enumerate(members)} for members in (
    SEXES, OBSERVATION_KINDS, CODE_SYSTEMS, DRUG_CLASSES, TREATMENTS, DIAGNOSIS_CATEGORIES)}


@dataclass(frozen=True, eq=False)
class EventTable:
    """One event table as columns in canonical order."""

    patient: np.ndarray  # int32 row in Cohort.patient_ids
    day: np.ndarray  # int32 date ordinal
    # int8 position in OBSERVATION_KINDS, DRUG_CLASSES or TREATMENTS; for
    # diagnoses an int32 position in Cohort.diagnosis_codes
    code: np.ndarray
    value: np.ndarray | None = None  # float64, observations only

    @classmethod
    def sorted(cls, patient, day, code, value=None) -> "EventTable":
        """The table of these columns, put in canonical order."""
        keys = (code, day, patient) if value is None else (value, code, day, patient)
        order = np.lexsort(keys)
        return cls(patient[order], day[order], code[order],
                   None if value is None else value[order])

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.patient, self.day, self.code) + (() if self.value is None else (self.value,))

    def bounds(self, n: int) -> np.ndarray:
        """Where the events of each of n patient rows start, then the end."""
        return np.searchsorted(self.patient, np.arange(n + 1))


class EventRows(NamedTuple):
    """One patient's rows in each event table of a cohort."""

    observations: range
    diagnoses: range
    medications: range
    treatments: range


@dataclass(frozen=True, eq=False)
class Cohort:
    """Patients sorted by id with their event tables as columns.

    Built by :func:`load_cohort`. Iterating gives each patient row's
    :class:`EventRows`; two cohorts are equal when they hold the same patients
    and events.
    """

    patient_ids: tuple[str, ...]
    birth_day: np.ndarray  # int32 date ordinal
    sex: np.ndarray  # int8 position in SEXES
    observations: EventTable
    diagnoses: EventTable
    medications: EventTable
    treatments: EventTable
    # the distinct (code system, code) pairs, sorted by system name and code
    diagnosis_codes: tuple[tuple[CodeSystem, str], ...]

    def tables(self) -> tuple[EventTable, ...]:
        """The event tables in EventRows field order."""
        return (self.observations, self.diagnoses, self.medications, self.treatments)

    def __len__(self) -> int:
        return len(self.patient_ids)

    def __iter__(self) -> Iterator[EventRows]:
        bounds = [t.bounds(len(self)).tolist() for t in self.tables()]
        return map(EventRows._make, zip(*(map(range, b, b[1:]) for b in bounds)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cohort):
            return NotImplemented
        mine, theirs = self._columns(), other._columns()
        return (
            (self.patient_ids, self.diagnosis_codes) == (other.patient_ids, other.diagnosis_codes)
            and all(np.array_equal(a, b) for a, b in zip(mine, theirs))
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.birth_day, self.sex) + tuple(c for t in self.tables() for c in t.columns())


@dataclass(frozen=True)
class CodeMap:
    """Prefix tables mapping diagnosis codes to categories, per code system.

    Prefixes are matched longest-first, mirroring the hierarchical structure
    of ICD code families. The default map shipped with this package is
    illustrative documentation, not a clinically validated code list.
    """

    entries: Mapping[CodeSystem, Mapping[str, DiagnosisCategory]] = field(default_factory=dict)

    def classify(self, code_system: CodeSystem, code: str) -> DiagnosisCategory | None:
        """Category of the longest matching code prefix, or None if nothing matches."""
        table = self.entries.get(code_system)
        if not table:
            return None
        for length in range(len(code), 0, -1):
            category = table.get(code[:length])
            if category is not None:
                return category
        return None


# The built-in map as (code_system, code_prefix, category) rows, as in code_map.csv
DEFAULT_CODE_MAP_ROWS = (
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
)


def default_code_map() -> CodeMap:
    """Built-in illustrative prefix map covering the categories the pipeline uses."""
    entries: dict[CodeSystem, dict[str, DiagnosisCategory]] = {}
    for system, prefix, category in DEFAULT_CODE_MAP_ROWS:
        entries.setdefault(CodeSystem(system), {})[prefix] = DiagnosisCategory(category)
    return CodeMap(entries)


def load_code_map(path: str | Path) -> CodeMap:
    """Load a code map from a CSV of (code_system, code_prefix, category).

    Each row is checked for its code system, category, an empty prefix, then a
    prefix repeated within its code system, and the first fault is reported.
    """
    first_line: dict[tuple[str, str], int] = {}

    def convert(lines, systems, prefixes, categories):
        system, system_check = _member(systems, CODE_SYSTEMS, "code_system")
        category, category_check = _member(categories, DIAGNOSIS_CATEGORIES, "category")
        repeated = _repeated(zip(systems, prefixes), first_line, lines)
        return (system, np.array(prefixes, object), category), [
            system_check,
            category_check,
            _empty(prefixes, "code_prefix", "empty prefix"),
            (repeated, _malformed("code_prefix", lambda i: f"duplicate prefix '{prefixes[i]}'")),
        ]

    entries: dict[CodeSystem, dict[str, DiagnosisCategory]] = {}
    columns = _load_table(Path(path), CSV_HEADERS["code_map"], convert)
    for s, prefix, c in zip(*(column.tolist() for column in columns)):
        entries.setdefault(CODE_SYSTEMS[s], {})[prefix] = DIAGNOSIS_CATEGORIES[c]
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
        return cls(**{table.name: d / f"{table.name}.csv" for table in dataclass_fields(cls)})


# Input checks. Each chunk of a table gets one ordered list of checks, each a
# (fault mask, error of row i) pair built next to the column it converts. The
# loader raises the error of the first failing check on the first faulty row,
# so a row with several faults always reports the same one: an event's unknown
# patient first, then its fields in the order of the table's list (an
# observation's value comes first).


def _encode_observations(memo: dict, date_check, kinds, values):
    code, kind_check = _member(kinds, OBSERVATION_KINDS, "kind")
    value, value_check = _values(values)
    return (code, value), [value_check, date_check, kind_check]


def _encode_diagnoses(memo: dict, date_check, systems, codes):
    # provisional codes in order of first appearance; load_cohort ranks them
    pairs = list(zip(systems, codes))
    for pair in set(pairs).difference(memo):
        memo[pair] = len(memo)
    code = np.fromiter(map(memo.__getitem__, pairs), np.int32, len(pairs))
    _, system_check = _member(systems, CODE_SYSTEMS, "code_system")
    return (code,), [_empty(codes, "code", "empty code"), date_check, system_check]


def _encode_member(members: tuple, column: str):
    """The encoder of a column that names one of ``members``."""
    def encode(memo: dict, date_check, texts):
        code, check = _member(texts, members, column)
        return (code,), [date_check, check]
    return encode


# The event tables in EventRows field order: the field name (also the
# CohortPaths field), the header and the encoder of the columns after patient_id
# and date. It returns the columns after patient and day (code, and an
# observation's value) and the checks after the patient's.
_EVENT_TABLES = (
    ("observations", ("patient_id", "date", "kind", "value"), _encode_observations),
    ("diagnoses", ("patient_id", "date", "code_system", "code"), _encode_diagnoses),
    ("medications", ("patient_id", "date", "drug_class"),
     _encode_member(DRUG_CLASSES, "drug_class")),
    ("treatments", ("patient_id", "date", "treatment"), _encode_member(TREATMENTS, "treatment")),
)
# The header of each cohort CSV by table name: what the loader reads and synth writes.
CSV_HEADERS = {"patients": ("patient_id", "birth_date", "sex"),
               **{name: header for name, header, _ in _EVENT_TABLES},
               "code_map": ("code_system", "code_prefix", "category")}


def load_cohort(paths: CohortPaths) -> Cohort:
    """Read the five event tables into a canonically sorted columnar cohort.

    Codes are not classified here; that happens downstream with a code map.
    Tables are read in the order patients, observations, diagnoses,
    medications, treatments, and the first faulty row of a table in file
    order is reported, with the fault its table's checks list first.
    """
    day_memo: dict[str, int] = {}
    first_line: dict[str, int] = {}

    def patients(lines, pids, births, sexes):
        declared = _repeated(pids, first_line, lines)
        day, birth_check = _date(births, day_memo, "birth_date")
        sex, sex_check = _member(sexes, SEXES, "sex")
        return (np.array(pids, object), day, sex), [
            _empty(pids, "patient_id", "empty id"),
            (declared, lambda i, file, line: DuplicatePatientError(pids[i], file, line)),
            birth_check,
            sex_check,
        ]

    ids, birth_day, sex = _load_table(paths.patients, CSV_HEADERS["patients"], patients)
    order = np.argsort(ids, kind="stable")
    patient_ids = tuple(ids[order].tolist())
    row_of = dict(zip(patient_ids, range(len(ids))))

    tables = []
    for name, header, encode in _EVENT_TABLES:
        memo: dict = {}

        def events(lines, pids, days, *fields):
            patient = _rows(pids, row_of)
            day, date_check = _date(days, day_memo, "date")
            columns, checks = encode(memo, date_check, *fields)
            unknown = (patient < 0, lambda i, file, line: UnknownPatientError(pids[i], file, line))
            return (patient, day, *columns), [unknown, *checks]

        patient, day, code, *value = _load_table(getattr(paths, name), header, events)
        if name == "diagnoses":
            pairs = sorted(memo)
            rank = np.empty(len(pairs), np.int32)
            rank[[memo[pair] for pair in pairs]] = np.arange(len(pairs), dtype=np.int32)
            code = rank[code]
            diagnosis_codes = tuple((CodeSystem(system), text) for system, text in pairs)
        tables.append(EventTable.sorted(patient, day, code, *value))

    return Cohort(patient_ids, birth_day[order], sex[order], *tables, diagnosis_codes)


def _load_table(path: Path, header: Sequence[str], convert) -> list[np.ndarray]:
    """The columns of the table at ``path``, converted chunk by chunk and joined.

    ``convert(lines, *fields)`` turns one chunk's text columns into its
    converted columns and its ordered checks; the chunk's first fault is raised
    before the next chunk is read. A leading chunk of no rows gives every
    column its dtype even when the table has no rows.
    """
    parts = []
    for lines, fields in chain([(range(0), ((),) * len(header))], _read_chunks(path, header)):
        columns, checks = convert(lines, *fields)
        _raise_first_fault(path, lines, checks)
        parts.append(columns)
    return [np.concatenate(column) for column in zip(*parts)]


def _raise_first_fault(path, lines: Sequence[int], checks) -> None:
    """Raise the error of the first failing check on the first faulty row, if any."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(bad.argmax())
        error = next(error for mask, error in checks if mask[i])
        raise error(i, str(path), lines[i])


def _malformed(column: str, reason):
    """The error of row i whose ``column`` is malformed for ``reason(i)``."""
    return lambda i, file, line: MalformedRowError(file, line, column, reason(i))


def _empty(texts: Sequence[str], column: str, reason: str):
    """The check that no text is empty."""
    empty = np.fromiter(map(len, texts), np.int64, len(texts)) == 0
    return empty, _malformed(column, lambda i: reason)


_YYYY_MM_DD = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> date:
    """YYYY-MM-DD as a date; ValueError for other text, such as 20200615, on every Python."""
    if not _YYYY_MM_DD.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


def _date(texts: Sequence[str], memo: dict[str, int], column: str):
    """Date ordinals (int32), 0 where a text is no ISO date, and their check.

    Each distinct text is parsed once per load: ``memo`` holds its ordinal.
    """
    for text in set(texts).difference(memo):
        try:
            memo[text] = iso_date(text).toordinal()
        except ValueError:
            memo[text] = 0
    day = np.fromiter(map(memo.__getitem__, texts), np.int32, len(texts))
    return day, (day == 0, _malformed(column, lambda i: f"invalid ISO date '{texts[i]}'"))


def _member(texts: Sequence[str], members: tuple, column: str):
    """Positions (int8) of the named members, -1 where a text names none, and their check."""
    code = np.fromiter(map(_CODE[members].get, texts, repeat(-1)), np.int8, len(texts))
    allowed = ", ".join(m.value for m in type(members[0]))  # in declaration order
    return code, (code < 0, _malformed(column, lambda i: f"'{texts[i]}' not one of {{{allowed}}}"))


def _values(texts: Sequence[str]):
    """``float(text)`` per text, NaN where it is not a number, and the check that
    each is a finite number >= 0."""
    try:
        value = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        value = np.fromiter(map(_float_or_nan, texts), np.float64, len(texts))

    def reason(i):
        try:
            float(texts[i])
        except ValueError:
            return f"'{texts[i]}' is not a number"
        return f"value must be finite and >= 0, got '{texts[i]}'"
    return value, (~(np.isfinite(value) & (value >= 0)), _malformed("value", reason))


def _repeated(keys: Iterable, first_line: dict, lines: Sequence[int]) -> np.ndarray:
    """Where the key of each line is in ``first_line`` at an earlier line; adds the new keys."""
    first = np.fromiter(map(first_line.setdefault, keys, lines), np.int64, len(lines))
    return first < np.asarray(lines, np.int64)


# Rows are read in slices small enough that the cyclic garbage collector does not
# run while a slice's row lists are alive, and gathered into chunks of columns.
_SLICE_ROWS = 256
_CHUNK_ROWS = 1 << 14
# Faults of the text itself: a field over the csv module's size limit, or bytes
# that are not UTF-8 (reported at the first row of the text being decoded).
_UNREADABLE = (csv.Error, UnicodeDecodeError)


def _read_chunks(path: str | Path, columns: Sequence[str]):
    """Yield (line numbers, fields) per chunk of data rows.

    A row's number is the file line where it starts. ``fields`` holds one list
    of strings per column, in ``columns`` order.
    Empty lines are skipped. A row with the wrong number of fields, or one that
    cannot be read, raises, but only after the rows before it have been
    yielded, so their faults come first.
    """
    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")  # a leading BOM is not data
    except FileNotFoundError:
        raise MalformedRowError(str(path), 0, "", "file does not exist") from None
    except OSError as err:  # a directory, or a file this process may not read
        raise MalformedRowError(str(path), 0, "", f"cannot read file: {err.strerror}") from None
    except ValueError as err:  # a NUL character in the path
        raise MalformedRowError(str(path), 0, "", f"cannot read file: {err}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(str(path), 1, "", "missing header row") from None
        except _UNREADABLE as err:
            raise MalformedRowError(str(path), 1, "", f"unreadable CSV: {err}") from None
        if header != list(columns):
            raise MalformedRowError(
                str(path), 1, "", f"header {header!r} does not match {list(columns)!r}"
            )
        width, line = len(columns), 2
        lines: list[int] = []
        fields: tuple[list[str], ...] = tuple([] for _ in columns)
        while True:
            rows: list[list[str]] = []
            error = None
            try:
                rows.extend(islice(reader, _SLICE_ROWS))  # keeps the rows read before a fault
            except _UNREADABLE as err:
                error = err
            done = error is not None or len(rows) < _SLICE_ROWS
            numbers: Sequence[int] = range(line, line + len(rows))
            if reader.line_num - line + 1 == len(rows):  # each row on one line
                line += len(rows)
            else:  # a line break in a quoted field, or a fault within a row
                numbers = list(accumulate(map(_lines_spanned, rows), initial=line))
                line = numbers.pop()
            fault = error and MalformedRowError(str(path), line, "", f"unreadable CSV: {error}")
            if set(map(len, rows)) - {width}:
                kept = [(n, raw) for n, raw in zip(numbers, rows) if raw]
                for k, (n, raw) in enumerate(kept):
                    if len(raw) != width:
                        fault = MalformedRowError(
                            str(path), n, "", f"expected {width} fields, got {len(raw)}")
                        kept, done = kept[:k], True
                        break
                numbers, rows = [n for n, _ in kept], [raw for _, raw in kept]
            lines.extend(numbers)
            for column, values in zip(fields, zip(*rows)):
                column.extend(values)
            if lines and (done or len(lines) >= _CHUNK_ROWS):
                yield lines, fields
                lines, fields = [], tuple([] for _ in columns)
            if done:
                break
        if fault is not None:
            raise fault


def _lines_spanned(row: list[str]) -> int:
    """The lines a row spans: one, and one per line break (LF, CR LF or CR) in a quoted field."""
    return 1 + sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n") for cell in row)


def _rows(pids: Sequence[str], row_of: dict[str, int]) -> np.ndarray:
    """The patient row (int32) of each id, -1 where an id is unknown."""
    try:
        return np.fromiter(map(row_of.__getitem__, pids), np.int32, len(pids))
    except KeyError:
        return np.fromiter(map(row_of.get, pids, repeat(-1)), np.int32, len(pids))


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan
