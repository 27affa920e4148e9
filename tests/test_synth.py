import contextlib
import copy
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cardiotox import cli, cohort, preprocess, synth
from cardiotox.errors import InvalidSpecError


def raw_spec(**overrides):
    raw = {
        "n": 150,
        "seed": 7,
        "covariates": [
            {"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 1.0},
            {"name": "diabetes", "dist": "bernoulli", "p": 0.2},
        ],
        "treatment_model": {"kind": "randomized", "p_chemo": 0.3, "p_targeted": 0.3},
        "outcome_models": {"CHF": {"intercept": -2.0, "CHEMOTHERAPY": 1.0}},
    }
    raw.update(overrides)
    return raw


def base_spec(**overrides):
    return synth.parse_spec(raw_spec(**overrides))


def read_tree(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.csv"))}


class TestGenerate:
    def test_byte_identical_reruns(self, tmp_path):
        spec = base_spec(n=100)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synth.write_cohort(synth.generate(spec), d1)
        synth.write_cohort(synth.generate(spec), d2)
        assert read_tree(d1) == read_tree(d2)

    def test_different_seed_changes_output(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synth.write_cohort(synth.generate(base_spec(n=100)), d1)
        synth.write_cohort(synth.generate(base_spec(n=100, seed=8)), d2)
        assert read_tree(d1) != read_tree(d2)

    def test_degenerate_bernoulli_hits_everyone(self, tmp_path):
        spec = base_spec(
            n=100,
            covariates=[{"name": "diabetes", "dist": "bernoulli", "p": 1.0}],
        )
        sc = synth.generate(spec)
        synth.write_cohort(sc, tmp_path)
        cmap = cohort.load_code_map(tmp_path / "code_map.csv")
        patients = cohort.load_cohort(cohort.CohortPaths.in_dir(tmp_path))
        assert len(patients) == 100
        index = spec.layout.index_date
        for p in patients:
            pre_index_diabetes = [
                d for d in p.diagnoses
                if d.date < index
                and cohort.classify_diagnosis(d, cmap) is cohort.DiagnosisCategory.DIABETES
            ]
            assert pre_index_diabetes, p.patient_id

    def test_marginal_rates_match_spec(self):
        spec = base_spec(
            n=3468,
            seed=31,
            covariates=[
                {"name": "diabetes", "dist": "bernoulli", "p": 0.1652},
                {"name": "hypertension", "dist": "bernoulli", "p": 0.3025},
            ],
        )
        sc = synth.generate(spec)
        for name, p in (("diabetes", 0.1652), ("hypertension", 0.3025)):
            rate = float(sc.values[name].mean())
            se = math.sqrt(p * (1 - p) / spec.n)
            assert abs(rate - p) < 3 * se, (name, rate)

    def test_continuous_marginals_match_spec(self):
        spec = base_spec(n=20000, seed=77)
        sc = synth.generate(spec)
        values = sc.values["hba1c"]
        assert abs(values.mean() - 6.0) < 3 * 1.0 / math.sqrt(20000)
        assert abs(values.std(ddof=1) - 1.0) < 0.03

    def test_pipeline_roundtrip_matches_to_features(self, tmp_path):
        spec = base_spec(n=250, seed=13)
        sc = synth.generate(spec)
        direct = synth.to_features(sc)
        synth.write_cohort(sc, tmp_path)
        cmap = cohort.load_code_map(tmp_path / "code_map.csv")
        patients = cohort.load_cohort(cohort.CohortPaths.in_dir(tmp_path))
        via_files, report = preprocess.compute_features(
            patients, cmap, spec.layout.end_of_data
        )
        assert report.excluded == ()
        assert sorted(direct, key=lambda f: f.patient_id) == via_files

    def test_age_is_whole_years_in_bounds(self):
        spec = base_spec(
            n=2000, seed=5,
            covariates=[{"name": "age", "dist": "normal", "mu": 30.0, "sigma": 30.0}],
        )
        ages = synth.generate(spec).values["age"]
        assert np.all(ages == np.floor(ages))
        assert ages.min() >= 18.0 and ages.max() <= 100.0

    def test_observation_values_clamped_nonnegative(self):
        spec = base_spec(
            n=2000, seed=6,
            covariates=[{"name": "hdl", "dist": "normal", "mu": 1.0, "sigma": 30.0}],
        )
        assert synth.generate(spec).values["hdl"].min() >= 0.0


class TestSpecValidation:
    def test_rejects_unknown_covariate(self):
        with pytest.raises(InvalidSpecError):
            base_spec(covariates=[{"name": "height", "dist": "normal"}])

    def test_rejects_continuous_condition(self):
        with pytest.raises(InvalidSpecError):
            base_spec(covariates=[{"name": "diabetes", "dist": "normal"}])

    def test_rejects_bad_probability(self):
        with pytest.raises(InvalidSpecError):
            base_spec(covariates=[{"name": "diabetes", "dist": "bernoulli", "p": 1.5}])
        with pytest.raises(InvalidSpecError):
            base_spec(treatment_model={"kind": "randomized", "p_chemo": 0.8, "p_targeted": 0.4})

    def test_rejects_undeclared_model_reference(self):
        with pytest.raises(InvalidSpecError):
            base_spec(outcome_models={"CHF": {"intercept": -1.0, "bmi": 0.2}})

    def test_rejects_unknown_outcome(self):
        with pytest.raises(InvalidSpecError):
            base_spec(outcome_models={"STROKE": {"intercept": -1.0}})

    def test_rejects_duplicate_covariates(self):
        with pytest.raises(InvalidSpecError):
            base_spec(covariates=[
                {"name": "hba1c", "dist": "normal"},
                {"name": "hba1c", "dist": "normal"},
            ])

    def test_rejects_draws_beyond_the_float_range(self):
        spec = base_spec(covariates=[{"name": "bmi", "dist": "lognormal", "mu": 710.0}])
        with pytest.raises(InvalidSpecError, match="overflow"):
            synth.generate(spec)

    def test_rejects_linear_predictor_beyond_the_float_range(self, tmp_path, capsys):
        # age * 1e308 overflows to inf and hba1c * -1e308 to -inf; their sum is NaN
        raw = raw_spec(covariates=[{"name": "age", "dist": "normal", "mu": 57.5, "sigma": 12.0},
                                   {"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 0.9}],
                       outcome_models={"MI": {"intercept": -2.9, "age": 1e308,
                                              "hba1c": -1e308}})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o"),
                         "--n-mc", "100"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error[INVALID_SPEC]: a model's linear predictor overflows the float range"]
        assert not (tmp_path / "o" / "truth.csv").exists()

    @pytest.mark.parametrize("n_mc", ["1", "0", "-3"])
    def test_rejects_too_few_monte_carlo_draws(self, tmp_path, capsys, n_mc):
        # one draw has no standard error, none no mean; truth.csv would hold nan
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw_spec()))
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o"),
                         "--n-mc", n_mc])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error[CONFIG]: --n-mc must be >= 2, got {n_mc}"]
        assert not (tmp_path / "o").exists()

    def test_rejects_overflow_in_the_untreated_arms_truth(self):
        # no patient is assigned chemotherapy, so the cohort is well defined;
        # the truth's counterfactual linear predictor 1e308 + 1e308 is not
        spec = base_spec(
            covariates=[{"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 0.9}],
            treatment_model={"kind": "randomized", "p_chemo": 0.0, "p_targeted": 0.5},
            outcome_models={"CHF": {"intercept": 1e308, "hba1c": 1.0, "CHEMOTHERAPY": 1e308}},
        )
        synth.generate(spec)
        with pytest.raises(InvalidSpecError, match="overflow"):
            synth.truth_rows(spec, 100)

    def test_rejects_missing_n(self):
        with pytest.raises(InvalidSpecError):
            synth.parse_spec({"seed": 1})

    @pytest.mark.parametrize("path,value", [
        (("n",), 150.5),
        (("seed",), "7"),
        (("seed",), True),
        (("event_layout", "observation_days_before"), "x"),
        (("event_layout", "outcome_days_after"), 180.0),
        (("event_layout", "fill_defaults"), "false"),
        (("event_layout", "index_date"), 20180615),
        (("treatment_model", "p_chemo"), "a"),
        (("treatment_model", "p_targeted"), True),
        (("treatment_model",), {"kind": "logistic", "chemo_vs_rest": {"intercept": "z"}}),
        (("covariates",), 5),
        (("outcome_models",), []),
        (("covariates", 1, "p"), "q"),
        (("covariates", 0, "mu"), [1]),
        (("covariates", 0, "mu"), 10**400),
        (("covariates", 0, "sigma"), False),
        (("outcome_models", "CHF", "intercept"), "z"),
        (("outcome_models", "CHF", "CHEMOTHERAPY"), None),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_mistyped_value_exits_2(self, tmp_path, capsys, path, value):
        # cli.main turns only PipelineErrors into exit codes, so a traceback fails here
        raw = raw_spec(event_layout={})
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o"),
                         "--n-mc", "100"])
        assert code == 2
        assert "error[INVALID_SPEC]" in capsys.readouterr().err


# Valid specs that between them use every key the parser reads.
FULL_SPECS = [
    raw_spec(event_layout={
        "index_date": "2018-06-15", "end_of_data": "2020-06-15",
        "observation_days_before": 30, "diagnosis_days_before": 60,
        "medication_days_after": 30, "outcome_days_after": 180, "fill_defaults": True,
    }),
    raw_spec(
        n=120,
        covariates=[
            {"name": "age", "dist": "normal", "mu": 57.5, "sigma": 12.0},
            {"name": "bmi", "dist": "lognormal", "mu": 3.3, "sigma": 0.1},
            {"name": "hypertension", "dist": "bernoulli", "p": 0.3},
        ],
        treatment_model={
            "kind": "logistic",
            "chemo_vs_rest": {"intercept": -1.0, "age": 0.01},
            "targeted_vs_radiation": {"intercept": -0.5, "hypertension": 0.2},
        },
        outcome_models={"CHF": {"intercept": -2.0, "bmi": 0.1, "TARGETED": 0.4},
                        "MI": {"intercept": -2.5, "age": 0.01}},
    ),
]


def key_paths(value, path=()):
    """The path of every dict key and list index in a JSON value, nested ones too."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [p for key, child in items for p in [path + (key,), *key_paths(child, path + (key,))]]


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.integers(min_value=2**63) | st.integers(max_value=-(2**63))
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


CASES = [(i, path) for i, spec in enumerate(FULL_SPECS) for path in key_paths(spec)]


@given(case=st.sampled_from(CASES), value=JSON_VALUES)
@example(case=(0, ("n",)), value=2**63)
@example(case=(0, ("event_layout", "observation_days_before")), value=2**63)
@example(case=(0, ("event_layout", "index_date")), value="0050-01-01")
@example(case=(1, ("covariates", 1, "mu")), value=710)
@example(case=(0, ("outcome_models", "CHF", "intercept")), value=40)
@settings(max_examples=200, deadline=None)
def test_any_json_value_at_any_key_exits_0_or_2(tmp_path_factory, case, value):
    base, path = case
    raw = copy.deepcopy(FULL_SPECS[base])
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    root = tmp_path_factory.mktemp("spec")
    (root / "spec.json").write_text(json.dumps(raw))
    err = io.StringIO()
    # cli.main turns only PipelineErrors into exit codes, so a traceback fails here
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "o"),
                         "--n-mc", "100"])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error["), (code, lines)


class TestOracles:
    def test_zero_treatment_coefficient_is_exactly_zero(self):
        spec = base_spec(outcome_models={"CHF": {"intercept": -2.0, "hba1c": 0.3}})
        assert synth.true_ate(spec, "CHEMOTHERAPY", "CHF", 5000) == 0.0
        assert synth.true_att(spec, "TARGETED", "CHF", 5000) == 0.0

    def test_closed_form_no_covariates(self):
        spec = base_spec(outcome_models={"CHF": {"intercept": -2.0, "CHEMOTHERAPY": 1.0}})
        expected = 1 / (1 + math.exp(1.0)) - 1 / (1 + math.exp(2.0))
        value = synth.true_ate(spec, "CHEMOTHERAPY", "CHF", 10)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.14974, abs=5e-6)
        assert synth.true_att(spec, "CHEMOTHERAPY", "CHF", 10) == value

    def test_att_weights_by_assignment_probability(self):
        spec = base_spec(
            n=1000, seed=3,
            treatment_model={
                "kind": "logistic",
                "chemo_vs_rest": {"intercept": -1.0, "hba1c": 0.5},
                "targeted_vs_radiation": {"intercept": -0.5},
            },
            outcome_models={"CHF": {"intercept": -3.0, "hba1c": 0.4, "CHEMOTHERAPY": 0.8}},
        )
        ate = synth.true_ate(spec, "CHEMOTHERAPY", "CHF", 400_000)
        att = synth.true_att(spec, "CHEMOTHERAPY", "CHF", 400_000)
        # treated patients have higher hba1c, hence larger risk differences
        assert att > ate

    def test_auc_half_when_outcome_independent(self):
        spec = base_spec(outcome_models={"CHF": {"intercept": -1.0}})
        assert synth.true_auc(spec, "CHF", 50_000) == pytest.approx(0.5, abs=0.02)

    def test_auc_one_for_deterministic_threshold(self):
        # slope steep enough that no draw lands in the logistic boundary band
        spec = base_spec(
            outcome_models={"CHF": {"intercept": -6.0e7, "hba1c": 1.0e7}},
        )
        assert synth.true_auc(spec, "CHF", 20_000) == 1.0

    def test_truth_rows_cover_all_estimands(self):
        spec = base_spec()
        rows = synth.truth_rows(spec, 2000)
        estimands = {(r[0], r[1], r[2]) for r in rows}
        assert ("ATE", "CHEMOTHERAPY", "CHF") in estimands
        assert ("ATT", "TARGETED", "CHF") in estimands
        assert ("AUC", "", "CHF") in estimands
