"""Columnar ingestion against the row-at-a-time loader it replaced.

``reference_load`` reads the tables one row at a time, as the loader first
did: every row is checked in file order (an unknown patient first, then the
fields in order), and each patient's events are sorted by their canonical
keys. The columnar loader checks whole columns and must report the same
first fault, with the same message, or load the same records.
``reference_code_map`` does the same for a code map.
"""

import csv
import math
import re
import tracemalloc
from datetime import date
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cardiotox import cohort as cohort_module
from cardiotox import preprocess, synth
from cardiotox.cohort import (
    CodeMap,
    CodeSystem,
    Cohort,
    CohortPaths,
    DiagnosisCategory,
    DrugClass,
    EventRows,
    ObservationKind,
    Sex,
    Treatment,
    load_code_map,
    load_cohort,
)
from cardiotox.errors import DuplicatePatientError, MalformedRowError, UnknownPatientError

from records import (
    DiagnosisEvent,
    MedicationEvent,
    Observation,
    PatientRecord,
    TreatmentEvent,
    cohort_of,
    records_of,
)
from test_cli import CELLS, GOLDEN, TABLES, golden_rows

CODE_MAP_HEADER = ["code_system", "code_prefix", "category"]
HEADERS = {
    "patients": ["patient_id", "birth_date", "sex"],
    "observations": ["patient_id", "date", "kind", "value"],
    "diagnoses": ["patient_id", "date", "code_system", "code"],
    "medications": ["patient_id", "date", "drug_class"],
    "treatments": ["patient_id", "date", "treatment"],
}


def rows(path, header):
    """(line, fields) of the non-empty data rows, checking the header and widths.

    A row's line is the file line where it starts, which a line break inside a
    quoted field of an earlier row moves."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None:
            raise MalformedRowError(str(path), 1, "", "missing header row")
        if found != header:
            raise MalformedRowError(str(path), 1, "", f"header {found!r} does not match {header!r}")
        line = reader.line_num + 1
        for raw in reader:
            if raw and len(raw) != len(header):
                raise MalformedRowError(str(path), line, "",
                                        f"expected {len(header)} fields, got {len(raw)}")
            if raw:
                yield line, raw
            line = reader.line_num + 1


def fault(path, line, column, reason):
    raise MalformedRowError(str(path), line, column, reason)


def day(text, path, line, column="date"):
    if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):  # YYYY-MM-DD, on every Python
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    fault(path, line, column, f"invalid ISO date '{text}'")


def member(enum_cls, text, path, line, column):
    if text not in {m.value for m in enum_cls}:
        allowed = ", ".join(m.value for m in enum_cls)
        fault(path, line, column, f"'{text}' not one of {{{allowed}}}")
    return enum_cls(text)


def value(text, path, line):
    try:
        number = float(text)
    except ValueError:
        fault(path, line, "value", f"'{text}' is not a number")
    if not math.isfinite(number) or number < 0:
        fault(path, line, "value", f"value must be finite and >= 0, got '{text}'")
    return number


def reference_load(paths):
    def observation(r, p, n):
        number = value(r[3], p, n)
        return Observation(day(r[1], p, n), member(ObservationKind, r[2], p, n, "kind"), number)

    def diagnosis(r, p, n):
        if not r[3]:
            fault(p, n, "code", "empty code")
        return DiagnosisEvent(day(r[1], p, n), member(CodeSystem, r[2], p, n, "code_system"),
                              r[3])

    parsers = {
        "observations": observation,
        "diagnoses": diagnosis,
        "medications": lambda r, p, n: MedicationEvent(
            day(r[1], p, n), member(DrugClass, r[2], p, n, "drug_class")),
        "treatments": lambda r, p, n: TreatmentEvent(
            day(r[1], p, n), member(Treatment, r[2], p, n, "treatment")),
    }
    keys = {
        "observations": lambda o: (o.date, o.kind.value, o.value),
        "diagnoses": lambda d: (d.date, d.code_system.value, d.code),
        "medications": lambda m: (m.date, m.drug_class.value),
        "treatments": lambda t: (t.date, t.treatment.value),
    }

    people = {}
    for line, (pid, birth, sex) in rows(paths.patients, HEADERS["patients"]):
        if not pid:
            fault(paths.patients, line, "patient_id", "empty id")
        if pid in people:
            raise DuplicatePatientError(pid, str(paths.patients), line)
        people[pid] = (day(birth, paths.patients, line, "birth_date"),
                       member(Sex, sex, paths.patients, line, "sex"))
    events = {pid: {name: [] for name in parsers} for pid in people}
    for name, parse in parsers.items():
        path = getattr(paths, name)
        for line, raw in rows(path, HEADERS[name]):
            if raw[0] not in events:
                raise UnknownPatientError(raw[0], str(path), line)
            events[raw[0]][name].append(parse(raw, path, line))
    return [
        PatientRecord(pid, *people[pid],
                      *(tuple(sorted(events[pid][name], key=keys[name])) for name in parsers))
        for pid in sorted(people)
    ]


def reference_code_map(path):
    entries = {}
    for line, (system, prefix, category) in rows(path, CODE_MAP_HEADER):
        system = member(CodeSystem, system, path, line, "code_system")
        category = member(DiagnosisCategory, category, path, line, "category")
        if not prefix:
            fault(path, line, "code_prefix", "empty prefix")
        if prefix in entries.setdefault(system, {}):
            fault(path, line, "code_prefix", f"duplicate prefix '{prefix}'")
        entries[system][prefix] = category
    return CodeMap(entries)


def outcome(load, path):
    """The code map or records loaded, or the fault as (type, file, line, message)."""
    try:
        loaded = load(path)
    except (MalformedRowError, UnknownPatientError, DuplicatePatientError) as err:
        return type(err).__name__, err.file, err.line, str(err)
    return records_of(loaded) if isinstance(loaded, Cohort) else loaded


def write_tables(root, tables):
    root.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        with open(root / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return CohortPaths.in_dir(root)


@st.composite
def edits(draw):
    """One change to a table: a replaced cell, or an inserted empty, short or copied row."""
    table = draw(st.sampled_from(TABLES))
    kind = draw(st.sampled_from(["cell", "cell", "cell", "empty", "short", "copy"]))
    return table, kind, draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)), draw(CELLS)


def apply(tables, edit):
    table, kind, at, column, text = edit
    rows = tables[table]
    if kind == "cell":
        row = rows[1 + at % (len(rows) - 1)] if len(rows) > 1 else rows[0]
        if row:
            row[column % len(row)] = text
    elif kind == "empty":
        rows.insert(1 + at % len(rows), [])
    elif kind == "short":
        rows.insert(1 + at % len(rows), rows[at % len(rows)][:-1])
    else:
        rows.insert(1 + at % len(rows), list(rows[at % len(rows)]))


@given(changes=st.lists(edits(), min_size=1, max_size=3),
       slice_rows=st.integers(1, 4), chunk_rows=st.integers(1, 9))
@settings(max_examples=300, deadline=None)
@example(changes=[("observations", "cell", 4, 3, "x"), ("observations", "cell", 2, 1, "bad")],
         slice_rows=2, chunk_rows=3)
@example(changes=[("treatments", "short", 7, 0, ""), ("treatments", "cell", 2, 2, "X")],
         slice_rows=1, chunk_rows=2)
# a quoted line break moves the line of every later row
@example(changes=[("patients", "cell", 0, 0, "line\nbreak"), ("patients", "cell", 3, 1, "bad")],
         slice_rows=4, chunk_rows=9)
def test_first_fault_and_records_equal_the_row_loader(tmp_path_factory, changes, slice_rows,
                                                      chunk_rows):
    # small slices and chunks put the faults of a table in different chunks
    tables = golden_rows()
    for change in changes:
        apply(tables, change)
    paths = write_tables(tmp_path_factory.mktemp("tables"), tables)
    want = outcome(reference_load, paths)
    with mock.patch.multiple(cohort_module, _SLICE_ROWS=slice_rows, _CHUNK_ROWS=chunk_rows):
        assert outcome(load_cohort, paths) == want


MAP_CELLS = st.sampled_from(["ICD9", "ICD10", "C", "C44", "I50", "CHF", "MI", "HEART"]) | CELLS
map_edits = st.tuples(st.just("code_map"), st.sampled_from(["cell", "cell", "cell", "copy"]),
                      st.integers(0, 10**6), st.integers(0, 10**6), MAP_CELLS)


@given(changes=st.lists(map_edits, min_size=1, max_size=3),
       slice_rows=st.integers(1, 4), chunk_rows=st.integers(1, 9))
@settings(max_examples=150, deadline=None)
@example(changes=[("code_map", "cell", 2, 0, "ICD11")], slice_rows=1, chunk_rows=1)
@example(changes=[("code_map", "cell", 5, 2, "HEART")], slice_rows=2, chunk_rows=3)
@example(changes=[("code_map", "cell", 3, 1, "")], slice_rows=4, chunk_rows=9)
@example(changes=[("code_map", "copy", 4, 0, "")], slice_rows=1, chunk_rows=2)
# a prefix repeated under another code system is no fault
@example(changes=[("code_map", "copy", 4, 0, ""), ("code_map", "cell", 4, 0, "ICD9")],
         slice_rows=4, chunk_rows=9)
# two faults in one row: the system before the prefix, the category before an
# empty or repeated prefix
@example(changes=[("code_map", "cell", 1, 0, "ICD11"), ("code_map", "cell", 1, 1, "")],
         slice_rows=4, chunk_rows=9)
@example(changes=[("code_map", "cell", 1, 2, "HEART"), ("code_map", "cell", 1, 1, "")],
         slice_rows=4, chunk_rows=9)
@example(changes=[("code_map", "copy", 4, 0, ""), ("code_map", "cell", 4, 2, "HEART")],
         slice_rows=4, chunk_rows=9)
def test_code_map_fault_and_entries_equal_the_row_loader(tmp_path_factory, changes,
                                                         slice_rows, chunk_rows):
    tables = {"code_map": list(csv.reader(open(GOLDEN / "code_map.csv", encoding="utf-8")))}
    for change in changes:
        apply(tables, change)
    path = write_tables(tmp_path_factory.mktemp("map"), tables).patients.with_name("code_map.csv")
    want = outcome(reference_code_map, path)
    with mock.patch.multiple(cohort_module, _SLICE_ROWS=slice_rows, _CHUNK_ROWS=chunk_rows):
        assert outcome(load_code_map, path) == want


def test_unreadable_text_is_a_malformed_row(tmp_path):
    tables = golden_rows()
    tables["diagnoses"][3][3] = "I" * 200_000  # beyond the csv module's field size limit
    paths = write_tables(tmp_path / "long", tables)
    assert outcome(load_cohort, paths)[:3] == (
        "MalformedRowError", str(paths.diagnoses), 4)
    paths = write_tables(tmp_path / "bytes", golden_rows())
    paths.patients.write_bytes(paths.patients.read_bytes().replace(b"P03", b"P\xff3"))
    assert outcome(load_cohort, paths)[:2] == ("MalformedRowError", str(paths.patients))


# few dates, so that events of one patient often share a day and only their
# kinds, codes or values order them
DAYS = st.dates(date(2018, 1, 1), date(2018, 1, 3)) | st.dates()
record_events = st.fixed_dictionaries({
    "observations": st.lists(st.builds(
        Observation, DAYS, st.sampled_from(list(ObservationKind)),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1e6)), max_size=5),
    "diagnoses": st.lists(st.builds(
        DiagnosisEvent, DAYS, st.sampled_from(list(CodeSystem)),
        st.sampled_from(["I50.9", "C34.1", "E11", "250"])), max_size=4),
    "medications": st.lists(st.builds(
        MedicationEvent, DAYS, st.sampled_from(list(DrugClass))), max_size=3),
    "treatments": st.lists(st.builds(
        TreatmentEvent, DAYS, st.sampled_from(list(Treatment))), max_size=3),
})


@given(people=st.lists(st.tuples(st.dates(), st.sampled_from(list(Sex)), record_events),
                       max_size=5),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_loaded_tables_equal_the_cohort_of_their_records(tmp_path_factory, people, data):
    records = [PatientRecord(f"P{i}", birth, sex, **events)
               for i, (birth, sex, events) in enumerate(people)]
    tables = {"patients": [HEADERS["patients"]] + [
        [p.patient_id, p.birth_date.isoformat(), p.sex.value] for p in records]}
    fields = {"observations": ("kind", "value"), "diagnoses": ("code_system", "code"),
              "medications": ("drug_class",), "treatments": ("treatment",)}
    for name, names in fields.items():
        rows = [[p.patient_id, e.date.isoformat()]
                + [getattr(getattr(e, f), "value", getattr(e, f)) for f in names]
                for p in records for e in getattr(p, name)]
        tables[name] = [HEADERS[name]] + data.draw(st.permutations(rows))
    for name in fields:
        tables[name] = [[repr(c) if isinstance(c, float) else c for c in row]
                        for row in tables[name]]
    paths = write_tables(tmp_path_factory.mktemp("records"), tables)
    loaded = load_cohort(paths)
    assert loaded == cohort_of(reversed(records))
    assert records_of(loaded) == reference_load(paths)


def test_event_rows_are_the_ranges_of_one_patients_rows(tmp_path):
    loaded = load_cohort(write_tables(tmp_path, golden_rows()))
    row = loaded.patient_ids.index("P08")
    rows = list(loaded)[row]
    assert isinstance(rows, EventRows)
    for name, span in zip(EventRows._fields, rows):
        assert isinstance(span, range)
        assert list(span) == np.flatnonzero(getattr(loaded, name).patient == row).tolist()
    # by date, then kind, then value
    assert loaded.observations.value[rows.observations].tolist() == [140, 27, 29, 70, 120, 0.02]
    p08 = records_of(loaded)[row]
    assert p08.medications == (MedicationEvent(date(2018, 2, 1), DrugClass.STATIN),)
    assert records_of(cohort_of([p08])) == [p08]


# ---------------------------------------------------------------------------
# Memory

MEMORY_SPEC = {
    "n": 20_000, "seed": 5,
    "covariates": [
        {"name": "age", "dist": "normal", "mu": 57.5, "sigma": 12.0},
        {"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 0.9},
        {"name": "diabetes", "dist": "bernoulli", "p": 0.165},
        {"name": "hypertension", "dist": "bernoulli", "p": 0.3},
    ],
    "treatment_model": {"kind": "randomized", "p_chemo": 0.3, "p_targeted": 0.3},
    "outcome_models": {name: {"intercept": -2.0} for name in ("CHF", "CAD", "CM", "MI")},
}
# The row loader with one object per event peaked at 93 MB here (Python 3.11,
# numpy 2.4); columns and slotted rows need about 30 MB.
MEMORY_BOUND_BYTES = 45_000_000


def test_load_and_features_memory_is_bounded(tmp_path):
    spec = synth.parse_spec(MEMORY_SPEC)
    synth.write_cohort(synth.generate(spec), tmp_path)
    code_map = cohort_module.load_code_map(tmp_path / "code_map.csv")
    tracemalloc.start()
    try:
        loaded = load_cohort(CohortPaths.in_dir(tmp_path))
        features, _ = preprocess.compute_features(loaded, code_map, spec.layout.end_of_data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(features) == MEMORY_SPEC["n"]
    assert peak < MEMORY_BOUND_BYTES, f"peak {peak / 1e6:.1f} MB"


def test_design_matrix_memory_is_bounded_by_the_matrix(tmp_path):
    # room for X and one column's copy at a time, not for the feature rows
    # zipped back into columns (about 3.5 times X on this cohort)
    spec = synth.parse_spec(MEMORY_SPEC)
    synth.write_cohort(synth.generate(spec), tmp_path)
    code_map = cohort_module.load_code_map(tmp_path / "code_map.csv")
    loaded = load_cohort(CohortPaths.in_dir(tmp_path))
    features, _ = preprocess.compute_features(loaded, code_map, spec.layout.end_of_data)
    tracemalloc.start()  # counts only what is allocated from here on
    try:
        fm = preprocess.build_matrix(features, "OUTCOME_MODEL", "CHF")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fm.n == MEMORY_SPEC["n"]
    assert peak < 2 * fm.X.nbytes, f"peak {peak / 2**20:.1f} MiB, X {fm.X.nbytes / 2**20:.1f} MiB"
