"""Patients as records of their events, for tests.

A :class:`PatientRecord` holds one patient's events as small dataclasses.
``cohort_of`` builds the columnar :class:`Cohort` of hand-made records, and
``records_of`` reads a cohort back as records, one per patient row.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from cardiotox.cohort import (
    DRUG_CLASSES,
    OBSERVATION_KINDS,
    SEXES,
    TREATMENTS,
    CodeSystem,
    Cohort,
    DrugClass,
    EventTable,
    ObservationKind,
    Sex,
    Treatment,
)
from cardiotox.errors import DuplicatePatientError

# The code of each member of a coded column: its position among its kind's members.
_POSITION = {m: i for members in (SEXES, OBSERVATION_KINDS, DRUG_CLASSES, TREATMENTS)
             for i, m in enumerate(members)}


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
    """One patient's events."""

    patient_id: str
    birth_date: date
    sex: Sex
    observations: Sequence[Observation] = ()
    diagnoses: Sequence[DiagnosisEvent] = ()
    medications: Sequence[MedicationEvent] = ()
    treatments: Sequence[TreatmentEvent] = ()


def cohort_of(records: Iterable[PatientRecord]) -> Cohort:
    """The cohort of these records, in canonical order whatever their order."""
    records = sorted(records, key=lambda p: p.patient_id)
    ids = tuple(p.patient_id for p in records)
    for earlier, pid in zip(ids, ids[1:]):
        if earlier == pid:
            raise DuplicatePatientError(pid)
    pairs = sorted({(d.code_system.value, d.code) for p in records for d in p.diagnoses})
    pair_code = {pair: i for i, pair in enumerate(pairs)}

    def table(name, code_of, value_of=None):
        events = [(row, e) for row, p in enumerate(records) for e in getattr(p, name)]
        code = np.array([code_of(e) for _, e in events], np.int32)
        return EventTable.sorted(
            np.array([row for row, _ in events], np.int32),
            np.array([e.date.toordinal() for _, e in events], np.int32),
            code if name == "diagnoses" else code.astype(np.int8),
            None if value_of is None else np.array([value_of(e) for _, e in events], float),
        )

    return Cohort(
        ids,
        np.array([p.birth_date.toordinal() for p in records], np.int32),
        np.array([_POSITION[p.sex] for p in records], np.int8),
        table("observations", lambda o: _POSITION[o.kind], lambda o: o.value),
        table("diagnoses", lambda d: pair_code[d.code_system.value, d.code]),
        table("medications", lambda m: _POSITION[m.drug_class]),
        table("treatments", lambda t: _POSITION[t.treatment]),
        tuple((CodeSystem(system), code) for system, code in pairs),
    )


def records_of(cohort: Cohort) -> list[PatientRecord]:
    """The record of each patient row, its events as tuples in canonical order."""
    obs, dx, med, tx = cohort.tables()

    def on(table, i):
        return date.fromordinal(int(table.day[i]))

    events = (
        lambda i: Observation(on(obs, i), OBSERVATION_KINDS[obs.code[i]], float(obs.value[i])),
        lambda i: DiagnosisEvent(on(dx, i), *cohort.diagnosis_codes[dx.code[i]]),
        lambda i: MedicationEvent(on(med, i), DRUG_CLASSES[med.code[i]]),
        lambda i: TreatmentEvent(on(tx, i), TREATMENTS[tx.code[i]]),
    )
    return [
        PatientRecord(pid, date.fromordinal(birth), SEXES[sex],
                      *(tuple(map(event, span)) for event, span in zip(events, rows)))
        for pid, birth, sex, rows in zip(
            cohort.patient_ids, cohort.birth_day.tolist(), cohort.sex.tolist(), cohort)
    ]
