import csv
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from cardiotox import cohort as cohort_module
from cardiotox import synth
from cardiotox.cohort import (
    CodeMap,
    CodeSystem,
    CohortPaths,
    DiagnosisCategory,
    EventRows,
    default_code_map,
    load_code_map,
    load_cohort,
)
from cardiotox.errors import (
    DuplicatePatientError,
    MalformedRowError,
    UnknownPatientError,
)

from records import DiagnosisEvent, records_of
from test_cli import GOLDEN, TABLES

PATIENTS = "patient_id,birth_date,sex\nP1,1960-01-01,F\nP2,1950-05-05,M\n"
OBSERVATIONS = (
    "patient_id,date,kind,value\n"
    "P1,2015-01-01,SBP,120\n"
    "P1,2015-02-01,HDL,55\n"
    "P2,2016-03-01,BMI,27.5\n"
)
DIAGNOSES = "patient_id,date,code_system,code\nP1,2014-01-01,ICD10,I10\n"
MEDICATIONS = "patient_id,date,drug_class\nP2,2016-04-01,STATIN\n"
TREATMENTS = "patient_id,date,treatment\nP1,2015-06-01,RADIATION\n"


def write_cohort_files(tmp_path, patients=PATIENTS, observations=OBSERVATIONS,
                       diagnoses=DIAGNOSES, medications=MEDICATIONS, treatments=TREATMENTS):
    (tmp_path / "patients.csv").write_text(patients)
    (tmp_path / "observations.csv").write_text(observations)
    (tmp_path / "diagnoses.csv").write_text(diagnoses)
    (tmp_path / "medications.csv").write_text(medications)
    (tmp_path / "treatments.csv").write_text(treatments)
    return CohortPaths.in_dir(tmp_path)


def test_load_materializes_every_row(tmp_path):
    cohort = load_cohort(write_cohort_files(tmp_path))
    assert [p.patient_id for p in records_of(cohort)] == ["P1", "P2"]
    p1, p2 = records_of(cohort)
    assert len(p1.observations) == 2 and len(p2.observations) == 1
    assert p1.diagnoses[0].code == "I10"
    assert p2.medications[0].drug_class.value == "STATIN"
    assert p1.treatments[0].date == date(2015, 6, 1)
    assert p2.treatments == ()
    total_events = sum(
        len(p.observations) + len(p.diagnoses) + len(p.medications) + len(p.treatments)
        for p in records_of(cohort)
    )
    assert total_events == 6


SMALL_SPEC = {
    "n": 120, "seed": 11,
    "covariates": [{"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 0.9}],
    "treatment_model": {"kind": "randomized", "p_chemo": 0.3, "p_targeted": 0.3},
    "outcome_models": {name: {"intercept": -1.5} for name in ("CHF", "CAD", "CM", "MI")},
}


@pytest.mark.parametrize("source", ["golden", "synth"])
def test_event_rows_count_and_cover_every_loaded_row(tmp_path, source):
    directory = GOLDEN
    if source == "synth":
        directory = tmp_path
        synth.write_cohort(synth.generate(synth.parse_spec(SMALL_SPEC)), directory)
    data_rows = 0
    for name in TABLES:
        with open(directory / f"{name}.csv", newline="", encoding="utf-8") as fh:
            data_rows += sum(1 for row in csv.reader(fh) if row) - 1
    cohort = load_cohort(CohortPaths.in_dir(directory))
    spans = list(cohort)
    assert all(isinstance(rows, EventRows) for rows in spans)
    # what a caller counting each patient and the length of each of its ranges reads
    assert len(cohort) + sum(len(span) for rows in spans for span in rows) == data_rows
    for name in EventRows._fields:
        table = getattr(cohort, name)
        for row, rows in enumerate(spans):
            assert (table.patient[getattr(rows, name)] == row).all()
        covered = [i for rows in spans for i in getattr(rows, name)]
        assert covered == list(range(len(table.patient)))


def test_load_is_row_order_invariant(tmp_path):
    baseline = load_cohort(write_cohort_files(tmp_path))
    shuffled_obs = (
        "patient_id,date,kind,value\n"
        "P2,2016-03-01,BMI,27.5\n"
        "P1,2015-02-01,HDL,55\n"
        "P1,2015-01-01,SBP,120\n"
    )
    shuffled_pat = "patient_id,birth_date,sex\nP2,1950-05-05,M\nP1,1960-01-01,F\n"
    other = tmp_path / "shuffled"
    other.mkdir()
    reordered = load_cohort(
        write_cohort_files(other, patients=shuffled_pat, observations=shuffled_obs)
    )
    assert reordered == baseline


def test_malformed_value_names_location(tmp_path):
    bad = "patient_id,date,kind,value\nP1,2015-01-01,SBP,abc\n"
    paths = write_cohort_files(tmp_path, observations=bad)
    with pytest.raises(MalformedRowError) as err:
        load_cohort(paths)
    assert err.value.line == 2
    assert err.value.column == "value"
    assert "observations.csv" in err.value.file


def test_negative_value_rejected(tmp_path):
    bad = "patient_id,date,kind,value\nP1,2015-01-01,SBP,-3\n"
    with pytest.raises(MalformedRowError):
        load_cohort(write_cohort_files(tmp_path, observations=bad))


def test_bad_date_and_bad_enum(tmp_path):
    with pytest.raises(MalformedRowError) as err:
        load_cohort(write_cohort_files(
            tmp_path, treatments="patient_id,date,treatment\nP1,2015-13-01,RADIATION\n"))
    assert err.value.column == "date"
    other = tmp_path / "enum"
    other.mkdir()
    with pytest.raises(MalformedRowError) as err:
        load_cohort(write_cohort_files(
            other, treatments="patient_id,date,treatment\nP1,2015-06-01,SURGERY\n"))
    assert err.value.column == "treatment"


def test_observation_value_is_checked_before_date(tmp_path):
    bad = "patient_id,date,kind,value\nP1,2015-13-01,SBP,abc\n"
    with pytest.raises(MalformedRowError) as err:
        load_cohort(write_cohort_files(tmp_path, observations=bad))
    assert (err.value.line, err.value.column) == (2, "value")


def test_diagnosis_code_is_checked_before_date(tmp_path):
    bad = "patient_id,date,code_system,code\nP1,2014-00-01,ICD11,\n"
    with pytest.raises(MalformedRowError) as err:
        load_cohort(write_cohort_files(tmp_path, diagnoses=bad))
    assert (err.value.line, err.value.column) == (2, "code")


@pytest.mark.parametrize("table,row", [
    ("observations", "GHOST,2015-13-01,PULSE,abc"),
    ("diagnoses", "GHOST,2014-00-01,ICD11,"),
    ("medications", "GHOST,bad,ASPIRIN"),
    ("treatments", "GHOST,bad,SURGERY"),
])
def test_unknown_patient_is_checked_before_fields(tmp_path, table, row):
    header = {
        "observations": OBSERVATIONS, "diagnoses": DIAGNOSES,
        "medications": MEDICATIONS, "treatments": TREATMENTS,
    }[table].splitlines()[0]
    paths = write_cohort_files(tmp_path, **{table: f"{header}\n{row}\n"})
    with pytest.raises(UnknownPatientError) as err:
        load_cohort(paths)
    assert (err.value.patient_id, err.value.line) == ("GHOST", 2)


def test_unknown_patient(tmp_path):
    bad = "patient_id,date,kind,value\nGHOST,2015-01-01,SBP,120\n"
    with pytest.raises(UnknownPatientError) as err:
        load_cohort(write_cohort_files(tmp_path, observations=bad))
    assert err.value.patient_id == "GHOST"


def test_duplicate_patient(tmp_path):
    dup = "patient_id,birth_date,sex\nP1,1960-01-01,F\nP1,1961-01-01,F\n"
    with pytest.raises(DuplicatePatientError):
        load_cohort(write_cohort_files(tmp_path, patients=dup))


def test_header_mismatch(tmp_path):
    bad = "id,birth,sex\nP1,1960-01-01,F\n"
    with pytest.raises(MalformedRowError) as err:
        load_cohort(write_cohort_files(tmp_path, patients=bad))
    assert err.value.line == 1


def _map(entries):
    return CodeMap({CodeSystem.ICD10: {
        prefix: DiagnosisCategory(cat) for prefix, cat in entries.items()
    }})


def test_classify_prefix_match():
    cmap = _map({"I50": "CHF"})
    event = DiagnosisEvent(date(2020, 1, 1), CodeSystem.ICD10, "I50.9")
    assert cmap.classify(event.code_system, event.code) is DiagnosisCategory.CHF


def test_classify_no_match_returns_none():
    cmap = _map({"I50": "CHF"})
    event = DiagnosisEvent(date(2020, 1, 1), CodeSystem.ICD10, "Z99")
    assert cmap.classify(event.code_system, event.code) is None


def test_classify_longest_prefix_wins():
    cmap = _map({"I5": "CAD", "I50": "CHF"})
    event = DiagnosisEvent(date(2020, 1, 1), CodeSystem.ICD10, "I50.9")
    assert cmap.classify(event.code_system, event.code) is DiagnosisCategory.CHF


def test_classify_respects_code_system():
    cmap = _map({"I50": "CHF"})
    event = DiagnosisEvent(date(2020, 1, 1), CodeSystem.ICD9, "I50.9")
    assert cmap.classify(event.code_system, event.code) is None


@given(
    code=st.text(alphabet="ABC019.", min_size=1, max_size=8),
    prefixes=st.dictionaries(
        st.text(alphabet="ABC019.", min_size=1, max_size=5),
        st.sampled_from([c.value for c in DiagnosisCategory]),
        max_size=6,
    ),
)
def test_classify_longest_prefix_property(code, prefixes):
    cmap = _map(prefixes)
    event = DiagnosisEvent(date(2020, 1, 1), CodeSystem.ICD10, code)
    got = cmap.classify(event.code_system, event.code)
    matching = [p for p in prefixes if code.startswith(p)]
    if not matching:
        assert got is None
    else:
        best = max(matching, key=len)
        assert got is DiagnosisCategory(prefixes[best])


def test_code_map_csv_roundtrip(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text(
        "code_system,code_prefix,category\nICD10,I50,CHF\nICD10,I5,CAD\n"
    )
    cmap = load_code_map(path)
    assert cmap.classify(CodeSystem.ICD10, "I50.1") is DiagnosisCategory.CHF
    assert cmap.classify(CodeSystem.ICD10, "I51") is DiagnosisCategory.CAD


def test_code_map_duplicate_prefix_rejected(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text(
        "code_system,code_prefix,category\nICD10,I50,CHF\nICD10,I50,CAD\n"
    )
    with pytest.raises(MalformedRowError):
        load_code_map(path)


def test_default_code_map_covers_outcomes():
    cmap = default_code_map()
    assert cmap.classify(CodeSystem.ICD10, "I50.9") is DiagnosisCategory.CHF
    assert cmap.classify(CodeSystem.ICD10, "C50.912") is DiagnosisCategory.BREAST_CANCER
    assert cmap.classify(CodeSystem.ICD10, "C34.1") is DiagnosisCategory.PRIOR_CANCER_EXCLUDING
    assert cmap.classify(CodeSystem.ICD10, "C44.0") is DiagnosisCategory.PRIOR_CANCER_ALLOWED


@pytest.mark.parametrize("slice_rows", [1, 2, 256])
@pytest.mark.parametrize("line_break", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("table,text,line,column", [
    ("patients", 'patient_id,birth_date,sex\n"a{0}b",1960-01-01,F\nP2,1960-13-01,F\n',
     4, "birth_date"),
    ("patients", 'patient_id,birth_date,sex\n"a{0}{0}b",1960-01-01,F\nP2,1960-13-01,F\n',
     5, "birth_date"),
    ("patients", 'patient_id,birth_date,sex\n"a{0}b",1960-01-01,F\nP2,1960-01-01\n', 4, ""),
    # a field beyond the csv module's size limit cannot be read
    ("patients", 'patient_id,birth_date,sex\n"a{0}b",1960-01-01,F\nP2,"' + "9" * 200_000
     + '",F\n', 4, ""),
    ("observations", 'patient_id,date,kind,value\n"a{0}b",2015-01-01,SBP,120\n'
     "P1,2015-01-01,SBP,abc\n", 4, "value"),
    ("code_map", 'code_system,code_prefix,category\nICD10,"I5{0}0",CHF\nICD11,I50,CHF\n',
     4, "code_system"),
], ids=["date", "two_breaks", "width", "unreadable", "observations", "code_map"])
def test_fault_after_a_quoted_line_break_names_the_line_its_row_starts_on(
        tmp_path, slice_rows, line_break, table, text, line, column):
    patients = PATIENTS + f'"a{line_break}b",1970-01-01,M\n'
    paths = write_cohort_files(tmp_path, patients=patients)
    path = tmp_path / f"{table}.csv"
    path.write_bytes(text.format(line_break).encode())
    with mock.patch.object(cohort_module, "_SLICE_ROWS", slice_rows):
        with pytest.raises(MalformedRowError) as err:
            load_code_map(path) if table == "code_map" else load_cohort(paths)
    assert (err.value.file, err.value.line, err.value.column) == (str(path), line, column)
