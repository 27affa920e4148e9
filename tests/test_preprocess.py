import math
from dataclasses import fields as dataclass_fields, replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cardiotox.cohort import (
    HEART_DISEASE_CATEGORIES,
    CodeSystem,
    Cohort,
    DiagnosisCategory,
    DiagnosisEvent,
    DrugClass,
    MedicationEvent,
    Observation,
    ObservationKind,
    PatientRecord,
    Sex,
    Treatment,
    TreatmentEvent,
    classify_diagnosis,
    default_code_map,
)
from cardiotox.errors import EmptyCohortMeanError, UnknownFeatureError
from cardiotox.preprocess import (
    ADULT_AGE,
    CONTINUOUS_KINDS,
    DEFAULT_ANTIHYPERLIPIDEMIA_CLASSES,
    DEFAULT_ANTIHYPERTENSIVE_CLASSES,
    FEATURE_COLUMNS,
    LAB_FIELDS,
    MIN_FOLLOWUP_DAYS,
    OUTCOME_NAMES,
    BaselineFeatures,
    ExclusionReason,
    PreprocessConfig,
    RawBaseline,
    apply_eligibility,
    baseline_features,
    build_matrix,
    cohort_means,
    compute_features,
    impute,
    index_days,
    summarize_baselines,
)

CMAP = default_code_map()
END = date(2020, 12, 31)


def patient(pid="P1", sex=Sex.F, birth=date(1960, 1, 1), observations=(),
            diagnoses=(), medications=(), treatments=()):
    return PatientRecord(
        patient_id=pid, birth_date=birth, sex=sex,
        observations=tuple(observations), diagnoses=tuple(diagnoses),
        medications=tuple(medications), treatments=tuple(treatments),
    )


def index_of(p):
    """One record's index date, read from its cohort's index days."""
    day = int(index_days(Cohort.from_records([p]))[0])
    return date.fromordinal(day) if day else None


def summary(p, config=PreprocessConfig()):
    """One treated record's baseline summary."""
    return summarize_baselines(Cohort.from_records([p]), [0], CMAP, config)[0]


def radiation(on):
    return TreatmentEvent(on, Treatment.RADIATION)


def chemo(on):
    return TreatmentEvent(on, Treatment.CHEMOTHERAPY)


class TestIndexDate:
    def test_single_event(self):
        p = patient(treatments=[radiation(date(2015, 3, 1))])
        assert index_of(p) == date(2015, 3, 1)

    def test_minimum_of_several(self):
        p = patient(treatments=[chemo(date(2016, 1, 10)), chemo(date(2015, 6, 2))])
        assert index_of(p) == date(2015, 6, 2)

    def test_none_without_treatment(self):
        assert index_of(patient()) is None


class TestEligibility:
    def assert_reason(self, p, reason):
        report = apply_eligibility(Cohort.from_records([p]), CMAP, END)
        assert report.excluded == ((p.patient_id, reason),)

    def test_no_treatment(self):
        self.assert_reason(patient(), ExclusionReason.NO_TREATMENT)

    def test_male_excluded(self):
        p = patient(sex=Sex.M, treatments=[radiation(date(2018, 1, 1))])
        self.assert_reason(p, ExclusionReason.NOT_FEMALE_ADULT)

    def test_minor_excluded(self):
        p = patient(birth=date(2001, 6, 1), treatments=[chemo(date(2018, 6, 1))])
        # turns 18 only in June 2019
        self.assert_reason(p, ExclusionReason.NOT_FEMALE_ADULT)

    def test_multiple_treatment_types(self):
        p = patient(treatments=[chemo(date(2018, 1, 1)), radiation(date(2018, 2, 1))])
        self.assert_reason(p, ExclusionReason.MULTIPLE_TREATMENT_TYPES)

    def test_prior_cancer_strictly_before_index(self):
        dx = DiagnosisEvent(date(2017, 12, 31), CodeSystem.ICD10, "C34.1")
        p = patient(diagnoses=[dx], treatments=[chemo(date(2018, 1, 1))])
        self.assert_reason(p, ExclusionReason.PRIOR_CANCER)

    def test_allowed_prior_cancer_not_excluded(self):
        dx = DiagnosisEvent(date(2017, 1, 1), CodeSystem.ICD10, "C44.0")
        p = patient(diagnoses=[dx], treatments=[chemo(date(2018, 1, 1))])
        assert apply_eligibility(Cohort.from_records([p]), CMAP, END).included == ("P1",)

    def test_prior_heart_disease_on_index_counts(self):
        dx = DiagnosisEvent(date(2018, 1, 1), CodeSystem.ICD10, "I50.9")
        p = patient(diagnoses=[dx], treatments=[chemo(date(2018, 1, 1))])
        self.assert_reason(p, ExclusionReason.PRIOR_HEART_DISEASE)

    def test_heart_disease_after_index_is_outcome_not_exclusion(self):
        dx = DiagnosisEvent(date(2018, 5, 1), CodeSystem.ICD10, "I50.9")
        p = patient(diagnoses=[dx], treatments=[chemo(date(2018, 1, 1))])
        assert apply_eligibility(Cohort.from_records([p]), CMAP, END).included == ("P1",)

    def test_insufficient_followup(self):
        p = patient(treatments=[chemo(date(2018, 1, 1))])
        report = apply_eligibility(Cohort.from_records([p]), CMAP, date(2018, 6, 1))
        assert report.excluded == (("P1", ExclusionReason.INSUFFICIENT_FOLLOWUP),)

    def test_exactly_365_days_is_enough(self):
        p = patient(treatments=[chemo(date(2018, 1, 1))])
        report = apply_eligibility(Cohort.from_records([p]), CMAP, date(2019, 1, 1))
        assert report.included == ("P1",)

    def test_precedence_multiple_before_heart_disease(self):
        dx = DiagnosisEvent(date(2017, 5, 1), CodeSystem.ICD10, "I50.9")
        p = patient(
            diagnoses=[dx],
            treatments=[chemo(date(2018, 1, 1)), radiation(date(2018, 2, 1))],
        )
        self.assert_reason(p, ExclusionReason.MULTIPLE_TREATMENT_TYPES)

    def test_partition_and_rerun_stability(self):
        people = [
            patient(pid="A", treatments=[chemo(date(2018, 1, 1))]),
            patient(pid="B"),
            patient(pid="C", sex=Sex.M, treatments=[radiation(date(2018, 1, 1))]),
        ]
        report = apply_eligibility(Cohort.from_records(people), CMAP, END)
        assert set(report.included) | {pid for pid, _ in report.excluded} == {"A", "B", "C"}
        assert set(report.included) & {pid for pid, _ in report.excluded} == set()
        survivors = [p for p in people if p.patient_id in report.included]
        again = apply_eligibility(Cohort.from_records(survivors), CMAP, END)
        assert again.excluded == ()


INDEX = date(2018, 1, 1)


def obs(kind, on, value):
    return Observation(on, kind, value)


class TestSummarize:
    def test_closest_before_index(self):
        p = patient(
            observations=[
                obs(ObservationKind.SBP, date(2017, 1, 1), 140),
                obs(ObservationKind.SBP, date(2017, 6, 1), 120),
            ],
            treatments=[chemo(INDEX)],
        )
        raw = summary(p)
        assert raw.sbp == 120

    def test_same_date_ties_average(self):
        p = patient(
            observations=[
                obs(ObservationKind.BMI, date(2017, 6, 1), 27),
                obs(ObservationKind.BMI, date(2017, 6, 1), 29),
            ],
            treatments=[chemo(INDEX)],
        )
        assert summary(p).bmi == 28

    def test_same_day_mean_is_summed_like_sum(self):
        # sum() starts from 0, so a lone -0.0 gives 0.0, and values add left to
        # right in canonical (ascending) order
        p = patient(observations=[obs(ObservationKind.SBP, DAY_BEFORE, -0.0),
                                  obs(ObservationKind.DBP, DAY_BEFORE, 0.3),
                                  obs(ObservationKind.DBP, DAY_BEFORE, 0.2),
                                  obs(ObservationKind.DBP, DAY_BEFORE, 0.1)],
                    treatments=[chemo(INDEX)])
        raw = summary(p)
        assert math.copysign(1.0, raw.sbp) == 1.0
        assert raw.dbp == sum([0.1, 0.2, 0.3]) / 3 != (0.3 + 0.2 + 0.1) / 3

    def test_untreated_row_is_rejected(self):
        treated = patient(pid="B", treatments=[chemo(INDEX)])
        cohort = Cohort.from_records([patient(pid="A"), treated])
        assert summarize_baselines(cohort, [1], CMAP)[0].patient_id == "B"
        with pytest.raises(ValueError):
            summarize_baselines(cohort, [0, 1], CMAP)

    def test_observation_on_or_after_index_ignored(self):
        p = patient(
            observations=[obs(ObservationKind.LDL, INDEX, 200),
                          obs(ObservationKind.LDL, date(2018, 3, 1), 210)],
            treatments=[chemo(INDEX)],
        )
        assert summary(p).ldl is None

    def test_troponin_flag_presence(self):
        p = patient(
            observations=[obs(ObservationKind.TROPONIN, date(2017, 12, 1), 0.02)],
            treatments=[chemo(INDEX)],
        )
        assert summary(p).troponin_flag is True
        assert summary(patient(treatments=[chemo(INDEX)])).troponin_flag is False

    def test_troponin_threshold_config(self):
        p = patient(
            observations=[obs(ObservationKind.TROPONIN, date(2017, 12, 1), 0.02)],
            treatments=[chemo(INDEX)],
        )
        cfg = PreprocessConfig(troponin_threshold=0.05)
        assert summary(p, cfg).troponin_flag is False
        cfg = PreprocessConfig(troponin_threshold=0.01)
        assert summary(p, cfg).troponin_flag is True

    def test_condition_strictly_before_index(self):
        on_index = DiagnosisEvent(INDEX, CodeSystem.ICD10, "E78.5")
        before = DiagnosisEvent(date(2017, 1, 1), CodeSystem.ICD10, "E11.9")
        p = patient(diagnoses=[on_index, before], treatments=[chemo(INDEX)])
        raw = summary(p)
        assert raw.diabetes is True
        assert raw.hyperlipidemia is False

    def test_medication_on_index_counts_before_does_not(self):
        meds = [
            MedicationEvent(INDEX, DrugClass.ARB),
            MedicationEvent(date(2017, 1, 1), DrugClass.INSULIN),
        ]
        p = patient(medications=meds, treatments=[chemo(INDEX)])
        raw = summary(p)
        taken = dict(zip(DrugClass, raw.medications))
        assert taken[DrugClass.ARB] is True
        assert taken[DrugClass.INSULIN] is False
        means = {"sbp": 120.0, "dbp": 70.0, "bmi": 25.0, "triglyceride": 110.0}
        assert impute(raw, means).antihypertensive_medication is True

    def test_outcome_strictly_after_index(self):
        dx_on = DiagnosisEvent(INDEX, CodeSystem.ICD10, "I25.1")
        dx_after = DiagnosisEvent(date(2018, 9, 1), CodeSystem.ICD10, "I50.9")
        p = patient(diagnoses=[dx_on, dx_after], treatments=[chemo(INDEX)])
        raw = summary(p)
        assert raw.outcomes == (True, False, False, False)  # CHF, CAD, CM, MI

    def test_outcome_horizon_config(self):
        dx = DiagnosisEvent(date(2019, 9, 1), CodeSystem.ICD10, "I50.9")
        p = patient(diagnoses=[dx], treatments=[chemo(INDEX)])
        cfg = PreprocessConfig(outcome_horizon_days=365)
        chf = OUTCOME_NAMES.index("CHF")
        assert summary(p, cfg).outcomes[chf] is False
        cfg = PreprocessConfig(outcome_horizon_days=700)
        assert summary(p, cfg).outcomes[chf] is True


def raw_features(**overrides):
    base = dict(
        patient_id="P1", age=57.0, sbp=120.0, dbp=70.0, bmi=25.0, hdl=60.0,
        ldl=100.0, hba1c=5.5, triglyceride=110.0, troponin_flag=False,
        hypertension=False, diabetes=False, hyperlipidemia=False,
        medications=(False,) * len(DrugClass),
        treatment=Treatment.RADIATION,
        outcomes=(False,) * len(OUTCOME_NAMES),
    )
    base.update(overrides)
    return RawBaseline(**base)


class TestImpute:
    def test_hdl_constant(self):
        bf = impute(raw_features(hdl=None), {})
        assert bf.hdl == 55.0 and bf.imputed == {"hdl"}

    def test_ldl_and_hba1c_constants(self):
        bf = impute(raw_features(ldl=None, hba1c=None), {})
        assert bf.ldl == 115.0 and bf.hba1c == 6.0
        assert bf.imputed == {"ldl", "hba1c"}

    def test_sbp_cohort_mean(self):
        bf = impute(raw_features(sbp=None), {"sbp": 126.0})
        assert bf.sbp == 126.0 and bf.imputed == {"sbp"}

    def test_identity_when_complete(self):
        raw = raw_features()
        bf = impute(raw, {})
        assert bf.imputed == frozenset()
        assert (bf.sbp, bf.dbp, bf.bmi, bf.hdl, bf.ldl, bf.hba1c, bf.triglyceride) == (
            120.0, 70.0, 25.0, 60.0, 100.0, 5.5, 110.0)

    def test_empty_cohort_mean_raises(self):
        with pytest.raises(EmptyCohortMeanError):
            impute(raw_features(bmi=None), {})

    def test_flags_follow_imputed_values(self):
        bf = impute(raw_features(dbp=None, triglyceride=None),
                    {"dbp": 85.0, "triglyceride": 160.0})
        assert bf.abnormal_blood_pressure is True  # dbp 85 > 80
        assert bf.abnormal_blood_lipid is True     # trig 160 > 150

    def test_threshold_strictness(self):
        bf = impute(raw_features(sbp=130.0, dbp=80.0, ldl=130.0, hdl=50.0,
                                 triglyceride=150.0), {})
        assert bf.abnormal_blood_pressure is False
        assert bf.abnormal_blood_lipid is False

    def test_idempotence(self):
        bf = impute(raw_features(hdl=None, sbp=None), {"sbp": 126.0})
        again = impute(
            raw_features(sbp=bf.sbp, dbp=bf.dbp, bmi=bf.bmi, hdl=bf.hdl,
                         ldl=bf.ldl, hba1c=bf.hba1c, triglyceride=bf.triglyceride),
            {"sbp": 999.0},
        )
        for name in ("sbp", "dbp", "bmi", "hdl", "ldl", "hba1c", "triglyceride"):
            assert getattr(again, name) == getattr(bf, name)
        assert again.imputed == frozenset()

    def test_cohort_means_skip_missing(self):
        raws = [raw_features(sbp=120.0), raw_features(patient_id="P2", sbp=None),
                raw_features(patient_id="P3", sbp=132.0)]
        assert cohort_means(raws)["sbp"] == 126.0


class TestBaselineFeatures:
    def test_every_field_lands_under_its_name(self):
        # baseline_features fills BaselineFeatures by position; distinct values,
        # and one flag set at a time, show that each reaches the field of its name
        labs = (131.0, 79.0, 27.5, 51.0, 129.5, 6.1, 149.0)  # only BP abnormal
        flags = {
            "troponin_flag": ("troponin_flag",),
            "conditions": ("hypertension", "diabetes", "hyperlipidemia"),
            "medications": tuple(cls.value.lower() for cls in DrugClass),
            "outcomes": tuple(name.lower() for name in OUTCOME_NAMES),
        }

        def build(**set_flags):
            args = {key: tuple(False for _ in names) for key, names in flags.items()}
            args.update(set_flags)
            return baseline_features("P9", 44.0, labs, args["troponin_flag"][0],
                                     args["conditions"], args["medications"],
                                     Treatment.TARGETED, args["outcomes"],
                                     imputed=frozenset({"hdl"}))

        bf = build()
        assert (bf.patient_id, bf.age, bf.treatment, bf.imputed) == (
            "P9", 44.0, Treatment.TARGETED, {"hdl"})
        assert [getattr(bf, name) for name in LAB_FIELDS] == list(labs)
        aggregates = {
            "antihypertensive_medication": DEFAULT_ANTIHYPERTENSIVE_CLASSES,
            "antihyperlipidemia_medication": DEFAULT_ANTIHYPERLIPIDEMIA_CLASSES,
        }
        for key, names in flags.items():
            for k, name in enumerate(names):
                row = build(**{key: tuple(i == k for i in range(len(names)))})
                expected = {name, "abnormal_blood_pressure"}
                if key == "medications":
                    cls = list(DrugClass)[k]
                    expected |= {flag for flag, classes in aggregates.items() if cls in classes}
                assert {f for f in FEATURE_COLUMNS if getattr(row, f) is True} == expected

    def test_aggregate_flags_follow_configured_classes(self):
        raw = raw_features(medications=tuple(cls is DrugClass.INSULIN for cls in DrugClass))
        assert impute(raw, {}).antihypertensive_medication is False
        cfg = PreprocessConfig(antihypertensive_classes=frozenset({DrugClass.INSULIN}),
                               antihyperlipidemia_classes=frozenset())
        bf = impute(raw, {}, cfg)
        assert bf.antihypertensive_medication is True
        assert bf.antihyperlipidemia_medication is False


def features_fixture(pid, treatment, **overrides):
    raw = raw_features(patient_id=pid, treatment=treatment, **overrides)
    return impute(raw, {})


class TestBuildMatrix:
    def test_small_matrix_shape(self):
        feats = [
            features_fixture("A", Treatment.RADIATION, age=50.0),
            features_fixture("B", Treatment.RADIATION, age=60.0,
                             outcomes=(True, False, False, False)),
            features_fixture("C", Treatment.RADIATION, age=70.0,
                             hypertension=False, diabetes=True),
        ]
        fm = build_matrix(feats, ("age", "diabetes"), "CHF")
        assert fm.column_names == ("intercept", "age", "diabetes")
        assert fm.X.shape == (3, 3)
        assert fm.X[:, 0].tolist() == [1.0, 1.0, 1.0]
        assert fm.X[:, 1].tolist() == [50.0, 60.0, 70.0]
        assert fm.X[:, 2].tolist() == [0.0, 0.0, 1.0]
        assert fm.y.tolist() == [0.0, 1.0, 0.0]

    def test_contrast_restricts_arms(self):
        feats = (
            [features_fixture(f"C{i}", Treatment.CHEMOTHERAPY) for i in range(2)]
            + [features_fixture(f"R{i}", Treatment.RADIATION) for i in range(3)]
            + [features_fixture("T0", Treatment.TARGETED)]
        )
        fm = build_matrix(feats, ("age",), "CHEMO_VS_RADIATION")
        assert fm.n == 5
        assert sorted(fm.y.tolist()) == [0.0, 0.0, 0.0, 1.0, 1.0]
        assert set(fm.row_ids) == {"C0", "C1", "R0", "R1", "R2"}

    def test_unknown_feature(self):
        feats = [features_fixture("A", Treatment.RADIATION)]
        with pytest.raises(UnknownFeatureError):
            build_matrix(feats, ("height",), "CHF")
        with pytest.raises(UnknownFeatureError):
            build_matrix(feats, "NO_SUCH_SET", "CHF")

    def test_treatment_dummies(self):
        feats = [
            features_fixture("A", Treatment.CHEMOTHERAPY),
            features_fixture("B", Treatment.TARGETED),
            features_fixture("C", Treatment.RADIATION),
        ]
        fm = build_matrix(feats, ("treatment",), "CHF")
        assert fm.column_names == ("intercept", "treatment_chemotherapy", "treatment_targeted")
        assert fm.X[:, 1].tolist() == [1.0, 0.0, 0.0]
        assert fm.X[:, 2].tolist() == [0.0, 1.0, 0.0]
        assert (fm.X[:, 1] + fm.X[:, 2] <= 1.0).all()

    def test_rows_sorted_by_patient_id(self):
        feats = [
            features_fixture("B", Treatment.RADIATION),
            features_fixture("A", Treatment.RADIATION),
        ]
        fm = build_matrix(feats, ("age",), "CHF")
        fm2 = build_matrix(list(reversed(feats)), ("age",), "CHF")
        assert fm.row_ids == ("A", "B")
        assert np.array_equal(fm.X, fm2.X)

    def test_no_nan_entries(self):
        feats = [features_fixture("A", Treatment.RADIATION)]
        fm = build_matrix(feats, "OUTCOME_MODEL", "CHF")
        assert np.isfinite(fm.X).all()


def test_compute_features_end_to_end():
    people = [
        patient(
            pid="P1",
            observations=[
                obs(ObservationKind.SBP, date(2017, 6, 1), 120),
                obs(ObservationKind.DBP, date(2017, 6, 1), 75),
                obs(ObservationKind.BMI, date(2017, 6, 1), 26),
                obs(ObservationKind.TRIGLYCERIDE, date(2017, 6, 1), 100),
            ],
            treatments=[chemo(date(2018, 1, 1))],
        ),
        patient(pid="P2", treatments=[radiation(date(2018, 1, 1))]),
    ]
    feats, report = compute_features(Cohort.from_records(people), CMAP, END)
    assert report.included == ("P1", "P2")
    by_id = {f.patient_id: f for f in feats}
    assert by_id["P2"].sbp == 120.0  # cohort mean of the single observed value
    assert "sbp" in by_id["P2"].imputed and "sbp" not in by_id["P1"].imputed


# ---------------------------------------------------------------------------
# References: the summary and the eligibility rules as first written, one record
# at a time, with one scan of the observations per lab kind and one pass over
# the diagnoses per rule. The columnar versions must agree with them on any
# record; the summary reference reads a record in canonical order.


def reference_index(p):
    return min(t.date for t in p.treatments) if p.treatments else None


def reference_age(p, on):
    years = on.year - p.birth_date.year
    if (on.month, on.day) < (p.birth_date.month, p.birth_date.day):
        years -= 1
    return years


def reference_summary(p, index, code_map, config):
    values = {}
    for kind in CONTINUOUS_KINDS:
        pre = [o for o in p.observations if o.kind is kind and o.date < index]
        if not pre:
            values[kind] = None
            continue
        last = max(o.date for o in pre)
        same_day = [o.value for o in pre if o.date == last]
        values[kind] = sum(same_day) / len(same_day)

    troponin_obs = [
        o for o in p.observations if o.kind is ObservationKind.TROPONIN and o.date < index
    ]
    if config.troponin_threshold is None:
        troponin_flag = bool(troponin_obs)
    else:
        troponin_flag = any(o.value > config.troponin_threshold for o in troponin_obs)

    condition_category = {
        "hypertension": DiagnosisCategory.HYPERTENSION,
        "diabetes": DiagnosisCategory.DIABETES,
        "hyperlipidemia": DiagnosisCategory.HYPERLIPIDEMIA,
    }
    outcome_category = {name: DiagnosisCategory(name) for name in ("CHF", "CAD", "CM", "MI")}
    conditions = {name: False for name in condition_category}
    outcome_flags = {name: False for name in outcome_category}
    horizon_end = None
    if config.outcome_horizon_days is not None:
        horizon_end = index + timedelta(days=config.outcome_horizon_days)
    for d in p.diagnoses:
        category = classify_diagnosis(d, code_map)
        if category is None:
            continue
        if d.date < index:
            for name, cond_cat in condition_category.items():
                if category is cond_cat:
                    conditions[name] = True
        if d.date > index and (horizon_end is None or d.date <= horizon_end):
            for name, out_cat in outcome_category.items():
                if category is out_cat:
                    outcome_flags[name] = True

    med_flags = {cls: False for cls in DrugClass}
    for m in p.medications:
        if m.date >= index:
            med_flags[m.drug_class] = True

    return dict(
        patient_id=p.patient_id,
        age=float(reference_age(p, index)),
        **{kind.value.lower(): values[kind] for kind in CONTINUOUS_KINDS},
        troponin_flag=troponin_flag,
        **conditions,
        medication_flags=med_flags,
        treatment=p.treatments[0].treatment,
        outcomes=outcome_flags,
    )


def reference_exclusion(p, code_map, end_of_data):
    index = reference_index(p)
    if index is None:
        return ExclusionReason.NO_TREATMENT
    if p.sex is not Sex.F or reference_age(p, index) < ADULT_AGE:
        return ExclusionReason.NOT_FEMALE_ADULT
    if len({t.treatment for t in p.treatments}) > 1:
        return ExclusionReason.MULTIPLE_TREATMENT_TYPES
    for d in p.diagnoses:
        if (d.date < index and classify_diagnosis(d, code_map)
                is DiagnosisCategory.PRIOR_CANCER_EXCLUDING):
            return ExclusionReason.PRIOR_CANCER
    for d in p.diagnoses:
        if d.date <= index and classify_diagnosis(d, code_map) in HEART_DISEASE_CATEGORIES:
            return ExclusionReason.PRIOR_HEART_DISEASE
    if (end_of_data - index).days < MIN_FOLLOWUP_DAYS:
        return ExclusionReason.INSUFFICIENT_FOLLOWUP
    return None


# Dates a few days either side of INDEX, so same-day ties, events on the index
# date and events on both sides of it are all common. Values include the
# troponin thresholds drawn below.
NEAR_INDEX = st.integers(-3, 3).map(lambda k: INDEX + timedelta(days=k))
VALUES = st.sampled_from([0.05, 0.1, 0.2, 0.3]) | st.floats(0.0, 200.0)
DIAGNOSIS_CODES = [
    (CodeSystem.ICD10, code)
    for code in ("I50.9", "I25.10", "I42.9", "I21.9", "I10", "E11.9", "E78.5",
                 "C34.1", "C44.0", "C50.1", "Z99")
] + [(CodeSystem.ICD9, code) for code in ("428.0", "162.9", "401.1", "V10")]


@st.composite
def records(draw):
    """An unsorted PatientRecord with events around INDEX."""
    kinds = st.sampled_from(list(ObservationKind))
    observations = draw(st.lists(st.builds(obs, kinds, NEAR_INDEX, VALUES), max_size=12))
    # one kind's same-day values, whose mean depends on the order they are summed in
    kind, on = draw(kinds), draw(NEAR_INDEX)
    observations += [obs(kind, on, value) for value in draw(st.lists(VALUES, max_size=5))]
    diagnoses = draw(st.lists(st.builds(
        lambda on, coded: DiagnosisEvent(on, *coded), NEAR_INDEX, st.sampled_from(DIAGNOSIS_CODES)
    ), max_size=10))
    medications = draw(st.lists(st.builds(
        MedicationEvent, NEAR_INDEX, st.sampled_from(list(DrugClass))
    ), max_size=6))
    arms = st.sampled_from([Treatment.CHEMOTHERAPY, Treatment.CHEMOTHERAPY, Treatment.RADIATION])
    treatments = draw(st.lists(st.builds(TreatmentEvent, NEAR_INDEX, arms), max_size=3))
    return patient(
        sex=draw(st.sampled_from([Sex.F, Sex.F, Sex.F, Sex.M])),
        birth=draw(st.sampled_from([date(1960, 1, 1), date(2000, 1, 3)])),
        observations=draw(st.permutations(observations)),
        diagnoses=diagnoses,
        medications=medications,
        treatments=treatments,
    )


CONFIGS = st.builds(
    PreprocessConfig,
    troponin_threshold=st.none() | st.sampled_from([0.05, 0.1, 0.2]),
    outcome_horizon_days=st.none() | st.integers(-2, 4),
)


DAY_BEFORE = INDEX - timedelta(days=1)


def reference_wanted(p, index, config):
    """The reference summary by RawBaseline field, flag groups as ordered tuples."""
    want = reference_summary(p, index, CMAP, config)
    taken = want.pop("medication_flags")
    want["medications"] = tuple(taken[cls] for cls in DrugClass)
    want["outcomes"] = tuple(want["outcomes"][name] for name in OUTCOME_NAMES)
    return want


class TestSinglePassMatchesReferences:
    @given(p=records(), config=CONFIGS)
    @settings(max_examples=300, deadline=None)
    # a troponin value equal to the threshold, an outcome on the horizon's last
    # day, and three same-day values whose sum depends on their order
    @example(p=patient(observations=[obs(ObservationKind.TROPONIN, DAY_BEFORE, 0.1)],
                       treatments=[chemo(INDEX)]),
             config=PreprocessConfig(troponin_threshold=0.1))
    @example(p=patient(diagnoses=[DiagnosisEvent(INDEX + timedelta(days=3), CodeSystem.ICD10,
                                                 "I50.9")], treatments=[chemo(INDEX)]),
             config=PreprocessConfig(outcome_horizon_days=3))
    @example(p=patient(observations=[obs(ObservationKind.SBP, DAY_BEFORE, 0.1),
                                     obs(ObservationKind.SBP, INDEX - timedelta(days=2), 5.0),
                                     obs(ObservationKind.SBP, DAY_BEFORE, 0.2),
                                     obs(ObservationKind.SBP, DAY_BEFORE, 0.3)],
                       treatments=[chemo(INDEX)]),
             config=PreprocessConfig())
    def test_summary_equals_reference(self, p, config):
        index = reference_index(p) or INDEX
        if not p.treatments:
            p = patient(birth=p.birth_date, observations=p.observations,
                        diagnoses=p.diagnoses, medications=p.medications,
                        treatments=[chemo(index)])
        want = reference_wanted(Cohort.from_records([p])[0], index, config)
        got = summary(p, config)
        for f in dataclass_fields(RawBaseline):
            value, expected = getattr(got, f.name), want[f.name]
            assert value == expected, f.name
            assert type(value) is type(expected), f.name
            if isinstance(value, tuple):
                assert all(type(flag) is bool for flag in value), f.name

    @given(people=st.lists(records(), max_size=6), config=CONFIGS, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_summaries_of_many_patients_equal_references(self, people, config, data):
        # patients' events sit side by side in each column; any subset of the
        # treated rows, in any order, gets each row's own summary
        people = [replace(p, patient_id=f"P{i}") for i, p in enumerate(people)]
        cohort = Cohort.from_records(people)
        treated = [row for row, p in enumerate(cohort) if p.treatments]
        rows = data.draw(st.permutations(treated)) if treated else []
        rows = rows[: data.draw(st.integers(0, len(rows)))]
        got = summarize_baselines(cohort, rows, CMAP, config)
        assert len(got) == len(rows)
        for row, raw in zip(rows, got):
            p = cohort[row]
            want = reference_wanted(p, reference_index(p), config)
            assert {f.name: getattr(raw, f.name) for f in dataclass_fields(RawBaseline)} == want

    @given(people=st.lists(records(), max_size=6),
           end_shift=st.sampled_from([0, MIN_FOLLOWUP_DAYS]))
    @settings(max_examples=100, deadline=None)
    def test_exclusions_of_many_patients_equal_references(self, people, end_shift):
        people = [replace(p, patient_id=f"P{i}") for i, p in enumerate(people)]
        end = INDEX + timedelta(days=end_shift)
        report = apply_eligibility(Cohort.from_records(people), CMAP, end)
        want = {p.patient_id: reference_exclusion(p, CMAP, end) for p in people}
        assert report.included == tuple(pid for pid in sorted(want) if want[pid] is None)
        assert report.excluded == tuple(
            (pid, want[pid]) for pid in sorted(want) if want[pid] is not None)

    @given(p=records(), end_shift=st.sampled_from([0, MIN_FOLLOWUP_DAYS]))
    @settings(max_examples=300, deadline=None)
    def test_exclusion_equals_reference(self, p, end_shift):
        end = INDEX + timedelta(days=end_shift)
        report = apply_eligibility(Cohort.from_records([p]), CMAP, end)
        want = reference_exclusion(p, CMAP, end)
        if want is None:
            assert (report.included, report.excluded) == ((p.patient_id,), ())
        else:
            assert report.excluded == ((p.patient_id, want),)

    def test_prior_cancer_before_index_is_not_hidden_by_one_on_it(self):
        # the code on the index date does not count; the earlier one does, and
        # prior cancer takes precedence over the heart disease on the index date
        dxs = [
            DiagnosisEvent(INDEX - timedelta(days=30), CodeSystem.ICD10, "C34.1"),
            DiagnosisEvent(INDEX, CodeSystem.ICD10, "C34.1"),
            DiagnosisEvent(INDEX, CodeSystem.ICD10, "I50.9"),
        ]
        for order in (dxs, dxs[::-1]):
            p = patient(diagnoses=order, treatments=[chemo(INDEX)])
            assert reference_exclusion(p, CMAP, END) is ExclusionReason.PRIOR_CANCER
            assert apply_eligibility(Cohort.from_records([p]), CMAP, END).excluded == (
                ("P1", ExclusionReason.PRIOR_CANCER),)
