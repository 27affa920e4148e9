import contextlib
import copy
import io
import json
import math
import tracemalloc
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cardiotox import cli, cohort, preprocess, synth
from cardiotox.errors import InvalidSpecError, OneClassError
from cardiotox.tableio import write_csv

from records import records_of


TRUTH_DATA = Path(__file__).parent / "data" / "truth"


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
        for p in records_of(patients):
            pre_index_diabetes = [
                d for d in p.diagnoses
                if d.date < index
                and cmap.classify(d.code_system, d.code) is cohort.DiagnosisCategory.DIABETES
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
        assert sorted(direct, key=lambda f: f.patient_id) == list(via_files)

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

    @pytest.mark.parametrize("n_mc", ["1000001", "1000000000000"])
    def test_rejects_too_many_monte_carlo_draws(self, tmp_path, capsys, n_mc):
        # refused before anything is written: 10**12 draws cannot even be allocated
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw_spec()))
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o"),
                         "--n-mc", n_mc])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error[CONFIG]: --n-mc must be <= {synth.MAX_N}, got {n_mc}"]
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

    @pytest.mark.parametrize("path,key,line", [
        ((), "covariate", "unknown key 'covariate' (did you mean 'covariates'?)"),
        (("covariates", 0), "sigm",
         "unknown key 'sigm' in covariates[0] (did you mean 'sigma'?)"),
        (("treatment_model",), "p_chem",
         "unknown key 'p_chem' in treatment_model (did you mean 'p_chemo'?)"),
        (("event_layout",), "outcome_day_after",
         "unknown key 'outcome_day_after' in event_layout (did you mean 'outcome_days_after'?)"),
    ], ids=["top_level", "covariate", "treatment_model", "event_layout"])
    def test_misspelled_key_exits_2(self, tmp_path, capsys, path, key, line):
        # a key that names no setting would otherwise run with the default
        raw = raw_spec(event_layout={})
        target = raw
        for step in path:
            target = target[step]
        target[key] = 99
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o"),
                         "--n-mc", "100"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error[INVALID_SPEC]: {line}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path,key,value,line", [
        (("treatment_model",), "p_chemo", math.nan,
         "treatment_model.p_chemo must be a finite number, got nan"),
        (("covariates", 0), "mu", math.nan, "covariates[0].mu must be a finite number, got nan"),
        (("covariates", 0), "sigma", math.nan,
         "covariates[0].sigma must be a finite number, got nan"),
        (("covariates", 0), "mu", math.inf, "covariates[0].mu must be a finite number, got inf"),
        (("outcome_models", "CHF"), "intercept", math.nan,
         "outcome model CHF coefficient 'intercept' must be a finite number, got nan"),
    ], ids=["p_chemo", "mu", "sigma", "mu_infinity", "coefficient"])
    def test_number_that_is_not_finite_exits_2(self, tmp_path, capsys, path, key, value, line):
        # Python's json reads the literals NaN and Infinity, and every comparison with NaN
        # is false, so no range check would catch one
        raw = raw_spec()
        target = raw
        for step in path:
            target = target[step]
        target[key] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o"),
                         "--n-mc", "100"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error[INVALID_SPEC]: {line}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["20200615", "2020-W24-1"])
    @pytest.mark.parametrize("key", ["index_date", "end_of_data"])
    def test_layout_date_is_yyyy_mm_dd_on_every_python(self, tmp_path, capsys, key, text):
        # Python 3.11's date.fromisoformat also reads these; 3.10's does not
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw_spec(event_layout={key: text})))
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o"),
                         "--n-mc", "100"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error[INVALID_SPEC]: bad date in event_layout: Invalid isoformat string: '{text}'"]
        assert not (tmp_path / "o").exists()

    def test_no_event_layout_gives_the_default_layout(self):
        # end of data two years (730 days) after the index date, whichever way it is made
        assert base_spec().layout == synth.EventLayout()
        assert synth.EventLayout().end_of_data == date(2020, 6, 14)

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

    @pytest.mark.parametrize("treatment_model", [
        {"kind": "randomized", "p_chemo": 0.4, "p_targeted": 0.0},
        # sigmoid(50) rounds to 1: every patient gets chemotherapy
        {"kind": "logistic", "chemo_vs_rest": {"intercept": 50.0}},
    ], ids=["randomized", "logistic"])
    @pytest.mark.parametrize("chf", [
        {"intercept": -1.0, "TARGETED": 0.5},
        {"intercept": -1.0, "TARGETED": 0.5, "hba1c": 0.3},
    ], ids=["closed_form", "monte_carlo"])
    def test_att_of_an_arm_never_assigned_is_left_out(self, treatment_model, chf):
        spec = base_spec(treatment_model=treatment_model, outcome_models={"CHF": chf})
        rows = {(r[0], r[1], r[2]) for r in synth.truth_rows(spec, 2000)}
        assert ("ATE", "TARGETED", "CHF") in rows
        assert ("ATT", "TARGETED", "CHF") not in rows
        assert ("ATT", "CHEMOTHERAPY", "CHF") in rows
        with pytest.raises(InvalidSpecError, match="never assigns arm 'TARGETED'"):
            synth.true_att(spec, "TARGETED", "CHF", 2000)

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

    def test_auc_of_draws_with_one_outcome_class_raises_and_is_left_out(self):
        # sigmoid(-1000) is 0.0: no draw has CHF, while CM still has both classes
        spec = base_spec(outcome_models={"CHF": {"intercept": -1000.0, "hba1c": 0.1},
                                         "CM": {"intercept": -1.0, "hba1c": 0.3}})
        with pytest.raises(OneClassError, match="^need both classes to rank$"):
            synth.true_auc(spec, "CHF", 500)
        rows = {(r[0], r[1], r[2]) for r in synth.truth_rows(spec, 500)}
        assert ("AUC", "", "CHF") not in rows
        assert {("ATE", "CHEMOTHERAPY", "CHF"), ("AUC", "", "CM")} <= rows

    @pytest.mark.parametrize("oracle", [synth.true_ate, synth.true_att])
    def test_an_unknown_treatment_is_reported_before_an_unknown_outcome(self, oracle):
        spec = base_spec()
        with pytest.raises(InvalidSpecError, match=r"^treatment must be one of \('CHEMOTHERAPY', "
                                                   r"'TARGETED'\), got 'RADIATION'$"):
            oracle(spec, "RADIATION", "MI", 100)
        with pytest.raises(InvalidSpecError, match="^spec defines no outcome model for 'MI'$"):
            oracle(spec, "TARGETED", "MI", 100)
        with pytest.raises(InvalidSpecError, match="^spec defines no outcome model for 'MI'$"):
            synth.true_auc(spec, "MI", 100)

    def test_truth_rows_reject_a_linear_predictor_beyond_the_float_range(self):
        # age * 1e308 overflows to inf and hba1c * -1e308 to -inf; CHF before it is finite
        spec = base_spec(
            covariates=[{"name": "age", "dist": "normal", "mu": 57.5, "sigma": 12.0},
                        {"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 0.9}],
            outcome_models={"CHF": {"intercept": -1.0, "hba1c": 0.2},
                            "MI": {"intercept": -2.9, "age": 1e308, "hba1c": -1e308}})
        with pytest.raises(InvalidSpecError,
                           match="^a model's linear predictor overflows the float range$"):
            synth.truth_rows(spec, 100)

    def test_truth_rows_draw_each_oracle_stream_once(self):
        spec = base_spec(outcome_models={outcome: {"intercept": -1.5, "hba1c": 0.2}
                                         for outcome in preprocess.OUTCOME_NAMES})
        with mock.patch.object(synth, "_sample_covariates",
                               wraps=synth._sample_covariates) as sample:
            rows = synth.truth_rows(spec, 200)
        assert sample.call_count == 2  # the effect stream, then the AUC stream
        assert len(rows) == 4 * (2 * 2 + 1)

    def test_truth_csv_equals_the_golden_file(self, tmp_path):
        # the spec declares covariates, never assigns TARGETED (sigmoid(-800) is 0.0),
        # and has a closed-form outcome (CHF) besides a Monte Carlo one (CM)
        spec = synth.load_spec(TRUTH_DATA / "spec.json")
        synth.write_truth_csv(tmp_path / "truth.csv", spec, 5000)
        assert (tmp_path / "truth.csv").read_bytes() == (TRUTH_DATA / "truth.csv").read_bytes()


# ---------------------------------------------------------------------------
# The block writer against the per-patient writer it replaced


def reference_birth_date(index: date, age_years: int) -> date:
    try:
        return index.replace(year=index.year - age_years)
    except ValueError:  # Feb 29 anchored on a non-leap birth year
        return index.replace(year=index.year - age_years, day=28)


# Verbatim copy of the per-patient loop that wrote the cohort tables.
def reference_write_cohort(sc, outdir):
    outdir = Path(outdir)
    layout = sc.spec.layout
    index = layout.index_date
    obs_date = (index - timedelta(days=layout.observation_days_before)).isoformat()
    dx_date = (index - timedelta(days=layout.diagnosis_days_before)).isoformat()
    med_date = (index + timedelta(days=layout.medication_days_after)).isoformat()
    out_date = (index + timedelta(days=layout.outcome_days_after)).isoformat()

    def present(slots):
        return [(slot, sc.values[slot].tolist()) for slot in slots if slot in sc.values]

    labs = [(cohort.ObservationKind(slot.upper()).value, values)
            for slot, values in present(preprocess.LAB_FIELDS)]
    troponin, conditions, drugs = map(
        present, (("troponin",), preprocess.CONDITION_FIELDS, synth._MEDICATION_SLOTS))
    outcomes = [(name, sc.outcomes[name].tolist()) for name in preprocess.OUTCOME_NAMES]
    ages = sc.values["age"].tolist()
    patients, observations, diagnoses, medications, treatments = [], [], [], [], []
    for i, pid in enumerate(sc.patient_ids):
        patients.append((pid, reference_birth_date(index, int(ages[i])).isoformat(), "F"))
        observations += [(pid, obs_date, kind, repr(values[i])) for kind, values in labs]
        observations += [(pid, obs_date, "TROPONIN", repr(synth.TROPONIN_OBS_VALUE))
                         for _, flags in troponin if flags[i] == 1.0]
        diagnoses += [(pid, dx_date, "ICD10", synth._DIAGNOSIS_CODES[slot])
                      for slot, flags in conditions if flags[i] == 1.0]
        diagnoses += [(pid, out_date, "ICD10", synth._DIAGNOSIS_CODES[name])
                      for name, flags in outcomes if flags[i]]
        medications += [(pid, med_date, slot.upper()) for slot, flags in drugs if flags[i] == 1.0]
        treatments.append((pid, index.isoformat(), sc.treatments[i].value))

    write_csv(outdir / "patients.csv", ("patient_id", "birth_date", "sex"), patients)
    write_csv(outdir / "observations.csv", ("patient_id", "date", "kind", "value"), observations)
    write_csv(outdir / "diagnoses.csv", ("patient_id", "date", "code_system", "code"), diagnoses)
    write_csv(outdir / "medications.csv", ("patient_id", "date", "drug_class"), medications)
    write_csv(outdir / "treatments.csv", ("patient_id", "date", "treatment"), treatments)
    write_csv(
        outdir / "code_map.csv",
        ("code_system", "code_prefix", "category"),
        cohort.DEFAULT_CODE_MAP_ROWS,
    )


COHORT_TABLES = ("patients.csv", "observations.csv", "diagnoses.csv", "medications.csv",
                 "treatments.csv", "code_map.csv")
FOUR_OUTCOMES = {"CHF": {"intercept": -1.8}, "CAD": {"intercept": -1.6},
                 "CM": {"intercept": -1.5}, "MI": {"intercept": -1.4}}
HBA1C = {"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 1.0}
WIDE_AGE = {"name": "age", "dist": "normal", "mu": 59.0, "sigma": 40.0}  # both clamps


def written_tables(write, sc, directory: Path) -> dict[str, bytes]:
    write(sc, directory)
    tables = {name: (directory / name).read_bytes() for name in COHORT_TABLES}
    assert sorted(p.name for p in directory.iterdir()) == sorted(COHORT_TABLES)
    return tables


def assert_same_tables(sc, directory: Path) -> dict[str, bytes]:
    got = written_tables(synth.write_cohort, sc, directory / "blocks")
    assert got == written_tables(reference_write_cohort, sc, directory / "reference")
    return got


WRITER_SPECS = {
    **{f"defaults_n{n}": dict(n=n, covariates=[], outcome_models=FOUR_OUTCOMES)
       for n in (1, synth._PATIENT_BLOCK - 1, synth._PATIENT_BLOCK, synth._PATIENT_BLOCK + 1)},
    # no medication slot: medications.csv is only its header
    "hba1c_only": dict(n=300, covariates=[HBA1C], event_layout={"fill_defaults": False}),
    # no observation slot: observations.csv is only its header
    "diabetes_only": dict(n=300, covariates=[{"name": "diabetes", "dist": "bernoulli"}],
                          event_layout={"fill_defaults": False}),
    **{f"troponin_statin_p{p}": dict(n=300, covariates=[
        {"name": "troponin", "dist": "bernoulli", "p": p},
        {"name": "statin", "dist": "bernoulli", "p": p}]) for p in (0.0, 1.0)},
    "one_outcome_model": dict(n=300, outcome_models={"MI": {"intercept": -1.0}}),
    "randomized": dict(n=300),
    "logistic": dict(n=300, treatment_model={
        "kind": "logistic", "chemo_vs_rest": {"intercept": -1.0, "hba1c": 0.2},
        "targeted_vs_radiation": {"intercept": 0.3}}),
    # day 28 for birth years that are not leap years, ages at 18 and 100
    "leap_day_index": dict(n=2000, covariates=[WIDE_AGE, HBA1C],
                           event_layout={"index_date": "2020-02-29"}),
}


@pytest.mark.parametrize("overrides", WRITER_SPECS.values(), ids=WRITER_SPECS)
def test_tables_equal_the_per_patient_writer(tmp_path, overrides):
    spec = base_spec(**overrides)
    tables = assert_same_tables(synth.generate(spec), tmp_path)
    assert tables["patients.csv"].count(b"\n") == spec.n + 1


def test_the_leap_day_spec_reaches_both_age_clamps_and_day_28():
    sc = synth.generate(base_spec(**WRITER_SPECS["leap_day_index"]))
    ages = sc.values["age"]
    assert {18.0, 100.0} <= set(ages.tolist())
    assert any(reference_birth_date(date(2020, 2, 29), int(a)).day == 28 for a in ages)


def test_a_table_without_slots_is_only_its_header(tmp_path):
    tables = assert_same_tables(synth.generate(base_spec(**WRITER_SPECS["hba1c_only"])), tmp_path)
    assert tables["medications.csv"] == b"patient_id,date,drug_class\n"


@st.composite
def writer_raw_specs(draw):
    covariates = []
    for slot in draw(st.lists(st.sampled_from(synth.FILLER_SLOTS), unique=True, max_size=6)):
        if slot in synth._BINARY_SLOTS:
            p = draw(st.sampled_from([0.0, 0.3, 1.0]))
            covariates.append({"name": slot, "dist": "bernoulli", "p": p})
        elif draw(st.booleans()):
            covariates.append({"name": slot, "dist": "normal", "mu": 50.0, "sigma": 40.0})
        else:
            covariates.append({"name": slot, "dist": "lognormal", "mu": 1.0, "sigma": 1.5})
    outcomes = draw(st.lists(st.sampled_from(preprocess.OUTCOME_NAMES), unique=True, min_size=1))
    return raw_spec(
        n=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**64 - 1)),
        covariates=covariates,
        outcome_models={name: {"intercept": -0.5} for name in outcomes},
        event_layout={"fill_defaults": draw(st.booleans()),
                      "index_date": draw(st.sampled_from(["2018-06-15", "2020-02-29"]))},
    )


@given(raw=writer_raw_specs(), block=st.integers(1, 9))
@settings(max_examples=60, deadline=None)
@example(raw=raw_spec(n=5, covariates=[HBA1C], event_layout={"fill_defaults": False}), block=2)
def test_any_declared_slots_write_the_per_patient_tables(tmp_path_factory, raw, block):
    sc = synth.generate(synth.parse_spec(raw))
    with mock.patch.object(synth, "_PATIENT_BLOCK", block):
        assert_same_tables(sc, tmp_path_factory.mktemp("writer"))


@pytest.mark.parametrize("block", [1, 7])
def test_no_byte_depends_on_the_block_size(tmp_path, block):
    sc = synth.generate(base_spec(n=40, covariates=[WIDE_AGE, HBA1C]))
    expected = written_tables(synth.write_cohort, sc, tmp_path / "default")
    with mock.patch.object(synth, "_PATIENT_BLOCK", block):
        assert written_tables(synth.write_cohort, sc, tmp_path / "patched") == expected


def test_write_memory_does_not_grow_with_n(tmp_path):
    block = 256
    peaks = {}
    with mock.patch.object(synth, "_PATIENT_BLOCK", block):
        for blocks in (4, 16):
            sc = synth.generate(base_spec(n=blocks * block, covariates=[]))
            tracemalloc.start()
            try:
                synth.write_cohort(sc, tmp_path / str(blocks))
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[16] <= 1.5 * peaks[4], peaks
