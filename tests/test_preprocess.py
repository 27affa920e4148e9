from datetime import date

import numpy as np
import pytest

from cardiotox.cohort import (
    CodeSystem,
    DiagnosisEvent,
    DrugClass,
    MedicationEvent,
    Observation,
    ObservationKind,
    PatientRecord,
    Sex,
    Treatment,
    TreatmentEvent,
    default_code_map,
)
from cardiotox.errors import EmptyCohortMeanError, UnknownFeatureError
from cardiotox.preprocess import (
    DEFAULT_ANTIHYPERLIPIDEMIA_CLASSES,
    DEFAULT_ANTIHYPERTENSIVE_CLASSES,
    FEATURE_COLUMNS,
    LAB_FIELDS,
    OUTCOME_NAMES,
    BaselineFeatures,
    ExclusionReason,
    PreprocessConfig,
    apply_eligibility,
    baseline_features,
    build_matrix,
    cohort_means,
    compute_features,
    impute,
    index_date,
    summarize_baseline,
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


def radiation(on):
    return TreatmentEvent(on, Treatment.RADIATION)


def chemo(on):
    return TreatmentEvent(on, Treatment.CHEMOTHERAPY)


class TestIndexDate:
    def test_single_event(self):
        p = patient(treatments=[radiation(date(2015, 3, 1))])
        assert index_date(p) == date(2015, 3, 1)

    def test_minimum_of_several(self):
        p = patient(treatments=[chemo(date(2016, 1, 10)), chemo(date(2015, 6, 2))])
        assert index_date(p) == date(2015, 6, 2)

    def test_none_without_treatment(self):
        assert index_date(patient()) is None


class TestEligibility:
    def assert_reason(self, p, reason):
        report = apply_eligibility([p], CMAP, END)
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
        assert apply_eligibility([p], CMAP, END).included == ("P1",)

    def test_prior_heart_disease_on_index_counts(self):
        dx = DiagnosisEvent(date(2018, 1, 1), CodeSystem.ICD10, "I50.9")
        p = patient(diagnoses=[dx], treatments=[chemo(date(2018, 1, 1))])
        self.assert_reason(p, ExclusionReason.PRIOR_HEART_DISEASE)

    def test_heart_disease_after_index_is_outcome_not_exclusion(self):
        dx = DiagnosisEvent(date(2018, 5, 1), CodeSystem.ICD10, "I50.9")
        p = patient(diagnoses=[dx], treatments=[chemo(date(2018, 1, 1))])
        assert apply_eligibility([p], CMAP, END).included == ("P1",)

    def test_insufficient_followup(self):
        p = patient(treatments=[chemo(date(2018, 1, 1))])
        report = apply_eligibility([p], CMAP, date(2018, 6, 1))
        assert report.excluded == (("P1", ExclusionReason.INSUFFICIENT_FOLLOWUP),)

    def test_exactly_365_days_is_enough(self):
        p = patient(treatments=[chemo(date(2018, 1, 1))])
        report = apply_eligibility([p], CMAP, date(2019, 1, 1))
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
        report = apply_eligibility(people, CMAP, END)
        assert set(report.included) | {pid for pid, _ in report.excluded} == {"A", "B", "C"}
        assert set(report.included) & {pid for pid, _ in report.excluded} == set()
        survivors = [p for p in people if p.patient_id in report.included]
        again = apply_eligibility(survivors, CMAP, END)
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
        raw = summarize_baseline(p, INDEX, CMAP)
        assert raw.sbp == 120

    def test_same_date_ties_average(self):
        p = patient(
            observations=[
                obs(ObservationKind.BMI, date(2017, 6, 1), 27),
                obs(ObservationKind.BMI, date(2017, 6, 1), 29),
            ],
            treatments=[chemo(INDEX)],
        )
        assert summarize_baseline(p, INDEX, CMAP).bmi == 28

    def test_observation_on_or_after_index_ignored(self):
        p = patient(
            observations=[obs(ObservationKind.LDL, INDEX, 200),
                          obs(ObservationKind.LDL, date(2018, 3, 1), 210)],
            treatments=[chemo(INDEX)],
        )
        assert summarize_baseline(p, INDEX, CMAP).ldl is None

    def test_troponin_flag_presence(self):
        p = patient(
            observations=[obs(ObservationKind.TROPONIN, date(2017, 12, 1), 0.02)],
            treatments=[chemo(INDEX)],
        )
        assert summarize_baseline(p, INDEX, CMAP).troponin_flag is True
        assert summarize_baseline(patient(treatments=[chemo(INDEX)]), INDEX, CMAP).troponin_flag is False

    def test_troponin_threshold_config(self):
        p = patient(
            observations=[obs(ObservationKind.TROPONIN, date(2017, 12, 1), 0.02)],
            treatments=[chemo(INDEX)],
        )
        cfg = PreprocessConfig(troponin_threshold=0.05)
        assert summarize_baseline(p, INDEX, CMAP, cfg).troponin_flag is False
        cfg = PreprocessConfig(troponin_threshold=0.01)
        assert summarize_baseline(p, INDEX, CMAP, cfg).troponin_flag is True

    def test_condition_strictly_before_index(self):
        on_index = DiagnosisEvent(INDEX, CodeSystem.ICD10, "E78.5")
        before = DiagnosisEvent(date(2017, 1, 1), CodeSystem.ICD10, "E11.9")
        p = patient(diagnoses=[on_index, before], treatments=[chemo(INDEX)])
        raw = summarize_baseline(p, INDEX, CMAP)
        assert raw.diabetes is True
        assert raw.hyperlipidemia is False

    def test_medication_on_index_counts_before_does_not(self):
        meds = [
            MedicationEvent(INDEX, DrugClass.ARB),
            MedicationEvent(date(2017, 1, 1), DrugClass.INSULIN),
        ]
        p = patient(medications=meds, treatments=[chemo(INDEX)])
        raw = summarize_baseline(p, INDEX, CMAP)
        assert raw.medication_flags[DrugClass.ARB] is True
        assert raw.medication_flags[DrugClass.INSULIN] is False
        means = {"sbp": 120.0, "dbp": 70.0, "bmi": 25.0, "triglyceride": 110.0}
        assert impute(raw, means).antihypertensive_medication is True

    def test_outcome_strictly_after_index(self):
        dx_on = DiagnosisEvent(INDEX, CodeSystem.ICD10, "I25.1")
        dx_after = DiagnosisEvent(date(2018, 9, 1), CodeSystem.ICD10, "I50.9")
        p = patient(diagnoses=[dx_on, dx_after], treatments=[chemo(INDEX)])
        raw = summarize_baseline(p, INDEX, CMAP)
        assert raw.outcomes == {"CHF": True, "CAD": False, "CM": False, "MI": False}

    def test_outcome_horizon_config(self):
        dx = DiagnosisEvent(date(2019, 9, 1), CodeSystem.ICD10, "I50.9")
        p = patient(diagnoses=[dx], treatments=[chemo(INDEX)])
        cfg = PreprocessConfig(outcome_horizon_days=365)
        assert summarize_baseline(p, INDEX, CMAP, cfg).outcomes["CHF"] is False
        cfg = PreprocessConfig(outcome_horizon_days=700)
        assert summarize_baseline(p, INDEX, CMAP, cfg).outcomes["CHF"] is True


def raw_features(**overrides):
    base = dict(
        patient_id="P1", age=57.0, sbp=120.0, dbp=70.0, bmi=25.0, hdl=60.0,
        ldl=100.0, hba1c=5.5, triglyceride=110.0, troponin_flag=False,
        hypertension=False, diabetes=False, hyperlipidemia=False,
        medication_flags={cls: False for cls in DrugClass},
        treatment=Treatment.RADIATION,
        outcomes={"CHF": False, "CAD": False, "CM": False, "MI": False},
    )
    base.update(overrides)
    from cardiotox.preprocess import RawBaseline
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
        raw = raw_features(medication_flags={cls: cls is DrugClass.INSULIN for cls in DrugClass})
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
                             outcomes={"CHF": True, "CAD": False, "CM": False, "MI": False}),
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
    feats, report = compute_features(people, CMAP, END)
    assert report.included == ("P1", "P2")
    by_id = {f.patient_id: f for f in feats}
    assert by_id["P2"].sbp == 120.0  # cohort mean of the single observed value
    assert "sbp" in by_id["P2"].imputed and "sbp" not in by_id["P1"].imputed
