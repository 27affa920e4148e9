import contextlib
import csv
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardiotox import causal, cli
from cardiotox.preprocess import OUTCOME_NAMES
from cardiotox.rng import derive_seed

GOLDEN = Path(__file__).parent / "data" / "golden"

SPEC = {
    "n": 500, "seed": 4242,
    "covariates": [
        {"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 0.9},
        {"name": "hypertension", "dist": "bernoulli", "p": 0.3},
    ],
    "treatment_model": {"kind": "randomized", "p_chemo": 0.3, "p_targeted": 0.3},
    "outcome_models": {
        "CHF": {"intercept": -1.8, "CHEMOTHERAPY": 0.6, "hba1c": 0.2},
        "CAD": {"intercept": -1.6, "hba1c": 0.15},
        "CM": {"intercept": -1.5, "hypertension": 0.4},
        "MI": {"intercept": -1.4},
    },
}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = root / "synth"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out),
                     "--n-mc", "5000"]) == 0
    return out


def test_validate_success(synth_dir, tmp_path, capsys):
    code = cli.main(["validate", "--config", str(synth_dir / "run_config.json"),
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "exclusions.csv").read_text() == "patient_id,reason\n"
    assert (tmp_path / "run_manifest.json").exists()
    assert "500 patients" in capsys.readouterr().out


def test_validate_malformed_row_exits_2(synth_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("patients", "observations", "diagnoses", "medications", "treatments"):
        (broken / f"{name}.csv").write_text((synth_dir / f"{name}.csv").read_text())
    obs = (broken / "observations.csv").read_text().splitlines()
    obs[3] = obs[3].rsplit(",", 1)[0] + ",not_a_number"
    (broken / "observations.csv").write_text("\n".join(obs) + "\n")
    config = {
        "inputs": {f: f"{f}.csv" for f in
                   ("patients", "observations", "diagnoses", "medications", "treatments")},
        "end_of_data": "2020-06-15",
        "seed": 1,
    }
    cfg_path = broken / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = cli.main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "MALFORMED_ROW" in err and ":4" in err


def test_validate_empty_treatments_excludes_everyone(synth_dir, tmp_path):
    clone = tmp_path / "clone"
    clone.mkdir()
    for name in ("patients", "observations", "diagnoses", "medications"):
        (clone / f"{name}.csv").write_text((synth_dir / f"{name}.csv").read_text())
    (clone / "treatments.csv").write_text("patient_id,date,treatment\n")
    cfg_path = clone / "config.json"
    cfg_path.write_text(json.dumps({
        "inputs": {f: f"{f}.csv" for f in
                   ("patients", "observations", "diagnoses", "medications", "treatments")},
        "end_of_data": "2020-06-15",
    }))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "exclusions.csv").read_text().splitlines()
    assert len(lines) == 501
    assert all(line.endswith("NO_TREATMENT") for line in lines[1:])


def test_features_writes_table(synth_dir, tmp_path):
    code = cli.main(["features", "--config", str(synth_dir / "run_config.json"),
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "features.csv").read_text().splitlines()
    assert len(lines) == 501
    assert lines[0].startswith("patient_id,age,sbp,dbp,bmi,hdl,ldl,hba1c,triglyceride")


def test_fit_outputs_and_reruns_identically(synth_dir, tmp_path):
    config = str(synth_dir / "run_config.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["fit", "--config", config, "--outcome", "CHF",
                     "--out", str(out1)]) == 0
    assert cli.main(["fit", "--config", config, "--outcome", "CHF",
                     "--out", str(out2)]) == 0
    for name in ("coefficients_full_CHF.csv", "coefficients_eliminated_CHF.csv",
                 "elimination_trace_CHF.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "coefficients_full_CHF.csv").read_text().splitlines()[0]
    assert header == "variable,coefficient,std_error,std_dev,normalized_coefficient,z,p_value"


def test_fit_degenerate_outcome_exits_3(synth_dir, tmp_path, capsys):
    spec = dict(SPEC)
    spec["outcome_models"] = {"CHF": {"intercept": -1.8}}  # MI never occurs
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "synth"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out),
                     "--n-mc", "1000"]) == 0
    code = cli.main(["fit", "--config", str(out / "run_config.json"),
                     "--outcome", "MI", "--out", str(tmp_path / "fit")])
    assert code == 3
    assert "DEGENERATE_OUTCOME" in capsys.readouterr().err


def test_cv_report_structure(synth_dir, tmp_path):
    code = cli.main(["cv", "--config", str(synth_dir / "run_config.json"),
                     "--outcome", "CHF", "--out", str(tmp_path), "--no-eliminate"])
    assert code == 0
    lines = (tmp_path / "cv_report.csv").read_text().splitlines()
    assert lines[0] == "outcome,fold,auc"
    assert sum(1 for ln in lines if ",MEAN," in ln) == 1
    assert sum(1 for ln in lines if ",POOLED," in ln) == 1
    assert lines[-1].startswith("#")
    roc_lines = (tmp_path / "roc_points_CHF.csv").read_text().splitlines()
    assert roc_lines[0] == "outcome,fpr,tpr,threshold"
    assert roc_lines[1].startswith("CHF,0,0,inf")
    assert roc_lines[-1].split(",")[1:3] == ["1", "1"]


def test_cv_requires_seed(synth_dir, tmp_path, capsys):
    config = json.loads((synth_dir / "run_config.json").read_text())
    del config["seed"]
    config["inputs"] = {k: str(synth_dir / v) for k, v in config["inputs"].items()}
    config["code_map"] = str(synth_dir / "code_map.csv")
    cfg_path = tmp_path / "no_seed.json"
    cfg_path.write_text(json.dumps(config))
    code = cli.main(["cv", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "seed" in capsys.readouterr().err


def test_effects_rejects_small_b(synth_dir, tmp_path):
    code = cli.main(["effects", "--config", str(synth_dir / "run_config.json"),
                     "--out", str(tmp_path), "--b", "50"])
    assert code == 4


def test_compare_writes_reports(synth_dir, tmp_path):
    code = cli.main(["compare", "--config", str(synth_dir / "run_config.json"),
                     "--contrast", "CHEMO_VS_RADIATION",
                     "--feature-set", "BASELINE_HEALTH", "--out", str(tmp_path)])
    assert code == 0
    stem = "compare_CHEMO_VS_RADIATION_BASELINE_HEALTH"
    for suffix in ("_full.csv", "_eliminated.csv", "_trace.csv"):
        assert (tmp_path / f"{stem}{suffix}").exists()


def test_compare_missing_arm_exits_3(tmp_path, capsys):
    spec = dict(SPEC)
    spec["treatment_model"] = {"kind": "randomized", "p_chemo": 0.5, "p_targeted": 0.0}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "synth"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out),
                     "--n-mc", "1000"]) == 0
    code = cli.main(["compare", "--config", str(out / "run_config.json"),
                     "--contrast", "TARGETED_VS_RADIATION",
                     "--feature-set", "BASELINE_HEALTH", "--out", str(tmp_path / "c")])
    assert code == 3


def test_synth_invalid_spec_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"n": 10, "seed": 1, "outcome_models": {}}))
    code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "INVALID_SPEC" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (None, "cannot read spec"),  # a directory
    (b'{"n": 10, "seed": 1, "note": "\xff"}', "cannot read spec"),
    (b'{"n": ' + b"9" * 5000 + b', "seed": 1}', "spec is not valid JSON"),
], ids=["directory", "not_utf8", "integer_too_long"])
def test_unreadable_spec_exits_2(tmp_path, capsys, content, message):
    spec_path = tmp_path / "spec.json"
    if content is None:
        spec_path.mkdir()
    else:
        spec_path.write_bytes(content)
    code = cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1, err
    assert err[0].startswith(f"error[INVALID_SPEC]: {message}"), err


def test_config_not_utf8_exits_4(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(json.dumps(golden_config()).encode() + b" \xff")
    assert cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[CONFIG]: cannot read config {cfg}: "), err


@pytest.mark.parametrize("key", ["observations", "code_map"])
def test_directory_as_input_path_exits_2(tmp_path, capsys, key):
    folder = tmp_path / "obsdir"
    folder.mkdir()
    config = golden_config()
    if key == "code_map":
        config["code_map"] = str(folder)
    else:
        config["inputs"][key] = str(folder)
    assert run_validate(config, tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error[MALFORMED_ROW]: {folder}:0 column '': cannot read file: Is a directory"]


def test_missing_input_file_exits_2(tmp_path, capsys):
    config = golden_config()
    config["inputs"]["treatments"] = str(tmp_path / "absent.csv")
    assert run_validate(config, tmp_path) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error[MALFORMED_ROW]: {tmp_path / 'absent.csv'}:0 column '': file does not exist"]


@pytest.mark.parametrize("command", ["validate", "synth"])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_cannot_be_a_directory_exits_4(tmp_path, capsys, command, below):
    # an existing regular file, or a path through one
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" if below else afile
    if command == "synth":
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        argv = ["synth", "--spec", str(spec_path), "--n-mc", "100"]
    else:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(golden_config()))
        argv = ["validate", "--config", str(cfg_path)]
    assert cli.main([*argv, "--out", str(out)]) == 4
    reason = "Not a directory" if below else "File exists"
    assert capsys.readouterr().err.splitlines() == [
        f"error[CONFIG]: cannot create output directory '{out}': {reason}"]
    assert afile.read_text() == ""


@pytest.mark.parametrize("command,report", [
    ("validate", "exclusions.csv"),
    ("validate", "run_manifest.json"),
    ("synth", "patients.csv"),
])
def test_report_that_cannot_be_written_exits_4(tmp_path, capsys, command, report):
    # a directory where the report file goes
    out = tmp_path / "o"
    (out / report).mkdir(parents=True)
    if command == "synth":
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        argv = ["synth", "--spec", str(spec_path), "--n-mc", "100"]
    else:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(golden_config()))
        argv = ["validate", "--config", str(cfg_path)]
    assert cli.main([*argv, "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error[CONFIG]: cannot write '{out / report}': Is a directory"]


def test_bad_config_exits_4(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4


def test_config_overrides_validated(synth_dir, tmp_path, capsys):
    config = str(synth_dir / "run_config.json")
    for argv, message in [(["cv", "--k", "1"], "k must be >= 2, got 1"),
                          (["fit", "--alpha-stay", "1.5"], "alpha_stay must be in (0, 1), got 1.5"),
                          (["effects", "--b", "99"], "B must be >= 100, got 99")]:
        assert cli.main([*argv, "--config", config, "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.splitlines() == [f"error[CONFIG]: {message}"]


def test_overrides_win_over_the_config(synth_dir, tmp_path):
    config = str(write_config(synth_dir, tmp_path / "cfg", seed=1, k=4))
    assert cli.main(["validate", "--config", config, "--out", str(tmp_path / "v"),
                     "--seed", "7"]) == 0
    assert json.loads((tmp_path / "v" / "run_manifest.json").read_text())["seed"] == 7
    assert cli.main(["cv", "--config", config, "--out", str(tmp_path / "cv"), "--outcome", "CHF",
                     "--no-eliminate", "--k", "3"]) == 0
    rows = (tmp_path / "cv" / "cv_report.csv").read_text().splitlines()[1:-1]
    assert [row.split(",")[1] for row in rows] == ["0", "1", "2", "MEAN", "POOLED"]


def test_manifest_contents(synth_dir, tmp_path):
    out = tmp_path / "o"
    assert cli.main(["validate", "--config", str(synth_dir / "run_config.json"),
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert manifest["seed"] == 4242
    assert set(manifest) == {"command", "config_sha256", "seed", "package_version",
                             "numpy_version", "python_version", "blas"}


def test_manifest_names_the_blas_numpy_was_built_with(synth_dir, tmp_path, monkeypatch):
    def manifest_blas(out):
        assert cli.main(["validate", "--config", str(synth_dir / "run_config.json"),
                         "--out", str(out)]) == 0
        return json.loads((out / "run_manifest.json").read_text())["blas"]

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert manifest_blas(tmp_path / "o") == {"name": blas["name"], "version": blas["version"]}
    assert blas["name"] and blas["version"]
    # a numpy whose build config has no BLAS entry
    monkeypatch.setattr(np.__config__, "CONFIG", {"Build Dependencies": {}})
    assert manifest_blas(tmp_path / "p") is None


def write_config(synth_dir, root, **overrides):
    """root/config.json: the synthetic cohort's config with settings added."""
    config = json.loads((synth_dir / "run_config.json").read_text())
    config["inputs"] = {name: str(synth_dir / f) for name, f in config["inputs"].items()}
    config["code_map"] = str(synth_dir / config["code_map"])
    config.update(overrides)
    root.mkdir()
    (root / "config.json").write_text(json.dumps(config))
    return root / "config.json"


def features_csv(synth_dir, root, **overrides):
    """features.csv of the synthetic cohort, with settings added to its config."""
    config = write_config(synth_dir, root, **overrides)
    assert cli.main(["features", "--config", str(config), "--out", str(root / "o")]) == 0
    return (root / "o" / "features.csv").read_text()


def test_effects_use_the_configs_outcome_model(tmp_path):
    # 500 patients leave too many replicates singular under the full outcome model
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SPEC, "n": 2000}))
    cohort = tmp_path / "synth"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(cohort),
                     "--n-mc", "100"]) == 0
    covariates = ("age", "hba1c", "hypertension")
    config = write_config(cohort, tmp_path / "short",
                          feature_sets={"OUTCOME_MODEL": ["treatment", *covariates]})
    for name, path in (("default", cohort / "run_config.json"), ("short", config)):
        assert cli.main(["effects", "--config", str(path), "--b", "100",
                         "--out", str(tmp_path / name)]) == 0
    features, _ = cli._load_features(cli.load_config(config))
    expected = [estimate for i, oc in enumerate(OUTCOME_NAMES)
                for estimate in causal.bootstrap_effects(
                    features, oc, covariates, n_boot=100, seed=derive_seed(SPEC["seed"], 100 + i))]
    causal.write_effects_csv(tmp_path / "expected.csv", expected)
    short = (tmp_path / "short" / "effects.csv").read_bytes()
    assert short == (tmp_path / "expected.csv").read_bytes()
    assert short != (tmp_path / "default" / "effects.csv").read_bytes()


def test_outcome_horizon_beyond_the_date_range(synth_dir, tmp_path):
    # index + horizon lies outside the representable dates either way
    plain = features_csv(synth_dir, tmp_path / "plain")
    assert features_csv(synth_dir, tmp_path / "far", outcome_horizon_days=3_000_000) == plain

    def outcome_flags(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        return {row[name.lower()] for row in rows for name in OUTCOME_NAMES}

    assert outcome_flags(plain) == {"0", "1"}
    before = features_csv(synth_dir, tmp_path / "before", outcome_horizon_days=-3_000_000)
    assert outcome_flags(before) == {"0"}


def golden_config(**overrides):
    config = {
        "inputs": {name: str(GOLDEN / f"{name}.csv") for name in
                   ("patients", "observations", "diagnoses", "medications", "treatments")},
        "code_map": str(GOLDEN / "code_map.csv"),
        "end_of_data": "2020-12-31",
        "seed": 5,
    }
    config.update(overrides)
    return config


def run_validate(config, root):
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cli.main(["validate", "--config", str(cfg_path), "--out", str(root / "o")])


def config_fault(key, value, message, id=None):
    """A mistyped setting and its whole error line; the id defaults to ``key-value``."""
    return pytest.param(key, value, f"error[CONFIG]: {message}", id=id or f"{key}-{value}")


def inputs_with(**paths):
    return {**golden_config()["inputs"], **paths}


@pytest.mark.parametrize("key,value,line", [
    config_fault("k", "abc", "k must be of type int, got 'abc'"),
    config_fault("alpha_stay", "x", "alpha_stay must be of type float, got 'x'"),
    config_fault("seed", "s", "seed must be of type int, got 's'"),
    config_fault("feature_sets", ["a"], "feature_sets must map names to lists of feature names",
                 id="feature_sets-value3"),
    config_fault("feature_sets", {"MINE": "age"},
                 "feature_sets must map names to lists of feature names", id="feature_sets-value4"),
    config_fault("eliminate_in_causal", "false",
                 "eliminate_in_causal must be of type bool, got 'false'"),
    config_fault("arms_only_ate", 0, "arms_only_ate must be of type bool, got 0"),
    config_fault("B", 1000.7, "B must be of type int, got 1000.7"),
    config_fault("k", True, "k must be of type int, got True"),
    config_fault("troponin_threshold", float("nan"), "troponin_threshold must be finite, got nan"),
    config_fault("antihypertensive_classes", 5, "drug classes must be a list of names, got 5"),
    config_fault("out", 7, "out must be a path string, got 7"),
    # a path that is not a JSON string is a config fault, not a missing file
    config_fault("code_map", 5, "code_map must be of type str, got 5"),
    config_fault("code_map", False, "code_map must be of type str, got False"),
    config_fault("code_map", "", "code_map must name a file, got ''", id="code_map-empty"),
    config_fault("inputs", inputs_with(patients=None),
                 "inputs.patients must be of type str, got None", id="inputs-patients-null"),
    config_fault("inputs", inputs_with(treatments=["t.csv"]),
                 "inputs.treatments must be of type str, got ['t.csv']", id="inputs-treatments-list"),
])
def test_mistyped_config_value_exits_4(tmp_path, capsys, key, value, line):
    assert run_validate(golden_config(**{key: value}), tmp_path) == 4
    assert capsys.readouterr().err.splitlines() == [line]


def test_null_code_map_selects_the_built_in_map(tmp_path):
    assert run_validate(golden_config(code_map=None), tmp_path) == 0


def test_well_typed_config_values_pass(tmp_path):
    config = golden_config(k=3, alpha_stay=0.2, B=100, seed=-3, eliminate_in_causal=True,
                           arms_only_ate=False, outcome_horizon_days=365,
                           troponin_threshold=1, feature_sets={"MINE": ["age", "sbp"]})
    assert run_validate(config, tmp_path) == 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@given(key=st.sampled_from(["k", "alpha_stay", "seed", "B", "feature_sets",
                            "eliminate_in_causal", "arms_only_ate"]),
       value=JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_any_json_config_value_exits_0_or_4(tmp_path_factory, key, value):
    # cli.main turns only PipelineErrors into exit codes, so a traceback fails here
    code = run_validate(golden_config(**{key: value}), tmp_path_factory.mktemp("cfg"))
    assert code in (0, 4)


def test_integer_beyond_float_range_is_a_config_error(tmp_path, capsys):
    # json reads a 401-digit integer exactly; it has no float value to check
    assert run_validate(golden_config(troponin_threshold=10**400), tmp_path) == 4
    assert "error[CONFIG]: troponin_threshold must be finite" in capsys.readouterr().err


def inputs_without(table):
    return {name: path for name, path in golden_config()["inputs"].items() if name != table}


@pytest.mark.parametrize("overrides,message", [
    ({"k": "abc"}, "k must be of type int, got 'abc'"),
    ({"alpha_stay": 1.5}, "alpha_stay must be in (0, 1), got 1.5"),
    ({"feature_sets": {"MINE": "age"}}, "feature_sets must map names to lists of feature names"),
    ({"feature_sets": {"OUTCOME_MODEL": ["treatment", "age", "nope"]}},
     "feature set 'OUTCOME_MODEL' names unknown feature 'nope'"),
    ({"feature_sets": {"OUTCOME_MODEL": ["treatment", "age", "hba1c", "age"]}},
     "feature set 'OUTCOME_MODEL' names 'age' twice"),
    ({"feature_sets": {"BASELINE_HEALTH": ["treatment", "age", "treatment"]}},
     "feature set 'BASELINE_HEALTH' names 'treatment' twice"),
    ({"antihypertensive_classes": 5}, "drug classes must be a list of names, got 5"),
    ({"antihyperlipidemia_classes": ["STATIN", "NOPE"]},
     "bad drug class: 'NOPE' is not a valid DrugClass"),
    ({"inputs": inputs_without("diagnoses")}, "inputs missing table 'diagnoses'"),
    ({"inputs": None}, "config needs an 'inputs' object with the five table paths"),
    ({"end_of_data": "2020-02-30"}, "bad end_of_data '2020-02-30'"),
    ({"end_of_data": None}, "bad end_of_data 'None'"),
    ({"out": 7}, "out must be a path string, got 7"),
    ({"alpha_sty": 0.01}, "unknown key 'alpha_sty' (did you mean 'alpha_stay'?)"),
    ({"inputs": {**golden_config()["inputs"], "patient": "patients.csv"}},
     "unknown key 'patient' in inputs (did you mean 'patients'?)"),
    ({"Boot": 5}, "unknown key 'Boot'"),
], ids=["type", "range", "feature_sets", "unknown_feature", "feature_twice", "treatment_twice",
        "class_list_type", "class_name", "missing_table", "no_inputs", "end_of_data",
        "end_of_data_null", "out", "unknown_key", "unknown_input", "unknown_key_no_hint"])
def test_config_fault_prints_its_whole_line(tmp_path, capsys, overrides, message):
    assert run_validate(golden_config(**overrides), tmp_path) == 4
    assert capsys.readouterr().err.splitlines() == [f"error[CONFIG]: {message}"]


def test_missing_end_of_data_prints_its_whole_line(tmp_path, capsys):
    config = golden_config()
    del config["end_of_data"]
    assert run_validate(config, tmp_path) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error[CONFIG]: config needs 'end_of_data' (ISO date)"]


NUL_INPUT = "error[MALFORMED_ROW]: {}:0 column '': cannot read file: embedded null byte"


@pytest.mark.parametrize("key,code,line", [
    ("observations", 2, NUL_INPUT),
    ("code_map", 2, NUL_INPUT),
    ("out", 4, "error[CONFIG]: cannot create output directory '{}': embedded null byte"),
])
def test_nul_in_a_config_path_prints_one_error_line(tmp_path, capsys, key, code, line):
    nul = str(tmp_path / "a\0b")
    config = golden_config()
    if key == "observations":
        config["inputs"][key] = nul
    else:
        config[key] = nul
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    # without --out, the config's out is the output directory
    out = [] if key == "out" else ["--out", str(tmp_path / "o")]
    assert cli.main(["validate", "--config", str(cfg_path), *out]) == code
    assert capsys.readouterr().err.splitlines() == [line.format(nul.replace("\0", "\\x00"))]


def test_error_line_escapes_every_control_character(tmp_path, capsys):
    controls = "".join(map(chr, [*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029]))
    assert run_validate(golden_config(end_of_data=f"a\\{controls}\u00e9"), tmp_path) == 4
    err = capsys.readouterr().err
    escaped = "".join(repr(c)[1:-1] for c in controls)
    assert err == f"error[CONFIG]: bad end_of_data 'a\\{escaped}\u00e9'\n"
    assert escaped.isprintable() and "\\x00" in escaped and "\\x9f" in escaped


def test_integer_too_long_to_read_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    text = json.dumps(golden_config(troponin_threshold=0)).replace(
        '"troponin_threshold": 0', '"troponin_threshold": ' + "9" * 5000)
    cfg_path.write_text(text)
    assert cli.main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
    assert "error[CONFIG]: config is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code,line", [
    (["validate", "--config"], 4, "error[CONFIG]: config is not valid JSON: maximum recursion"),
    (["synth", "--spec"], 2, "error[INVALID_SPEC]: spec is not valid JSON: maximum recursion"),
], ids=["config", "spec"])
def test_json_nested_too_deep_prints_one_error_line(tmp_path, capsys, argv, code, line):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert cli.main([*argv, str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(line), err


def test_manifest_hash_is_that_of_the_settings_files_bytes(tmp_path):
    # CRLF line endings: the hash is of the bytes on disk, not of the text read back
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(json.dumps(golden_config(), indent=2).replace("\n", "\r\n").encode())
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(json.dumps(SPEC, indent=2).replace("\n", "\r\n").encode())
    assert cli.main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 0
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "s"),
                     "--n-mc", "100"]) == 0
    for out, path in (("v", cfg_path), ("s", spec_path)):
        manifest = json.loads((tmp_path / out / "run_manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv,code,line", [
    (["validate", "--config"], 4, "error[CONFIG]: cannot read config {}: embedded null byte"),
    (["synth", "--spec"], 2, "error[INVALID_SPEC]: cannot read spec {}: embedded null byte"),
], ids=["config", "spec"])
def test_nul_in_a_settings_path_prints_one_error_line(tmp_path, capsys, argv, code, line):
    nul = str(tmp_path / "a\0b")
    assert cli.main([*argv, nul, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.splitlines() == [line.format(nul.replace("\0", "\\x00"))]


@pytest.mark.parametrize("argv,message", [
    (["effects", "--config", "C", "--b", "1000.7"], "argument --b: invalid int value: '1000.7'"),
    (["cv", "--config", "C", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["cv", "--config", "C", "--k", "1.5"], "argument --k: invalid int value: '1.5'"),
    (["fit", "--config", "C", "--alpha-stay", "x"],
     "argument --alpha-stay: invalid float value: 'x'"),
    (["fit", "--config", "C", "--outcome", "XX"], "argument --outcome: invalid choice: 'XX'"),
    (["synth", "--spec", "C", "--n-mc", "abc"], "argument --n-mc: invalid int value: 'abc'"),
    (["validate"], "the following arguments are required: --config"),
    (["validate", "--config", "C", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
], ids=["b", "seed", "k", "alpha_stay", "outcome", "n_mc", "no_config", "unknown_flag",
        "no_command"])
def test_command_line_fault_is_one_config_error_line(synth_dir, tmp_path, capsys, argv,
                                                      message):
    config = str(synth_dir / "run_config.json")
    out = [] if not argv else ["--out", str(tmp_path / "o")]
    assert cli.main([config if arg == "C" else arg for arg in argv] + out) == 4
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[CONFIG]: {message}"), err
    assert captured.out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--help"], ["cv", "--help"], ["synth", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cardiotox")


@pytest.mark.parametrize("edit,key", [
    (lambda text: text[:-1] + ', "B": 1000}', "B"),
    (lambda text: text.replace('"inputs": {', '"inputs": {"patients": "p.csv", '), "patients"),
    (lambda text: text.replace('"feature_sets": {', '"feature_sets": {"X": [], '), "X"),
], ids=["top_level", "inputs", "feature_sets"])
def test_config_key_given_twice_exits_4(tmp_path, capsys, edit, key):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(edit(json.dumps(golden_config(B=100, feature_sets={"X": ["age"]}))))
    assert cli.main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error[CONFIG]: config gives key '{key}' twice"]


@pytest.mark.parametrize("edit,key", [
    (lambda text: text[:-1] + ', "seed": 5}', "seed"),
    (lambda text: text.replace('"sigma": 0.9', '"sigma": 0.9, "sigma": 2'), "sigma"),
    (lambda text: text.replace('"MI": {', '"MI": {"intercept": 0, '), "intercept"),
], ids=["top_level", "covariate", "outcome_model"])
def test_spec_key_given_twice_exits_2(tmp_path, capsys, edit, key):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(edit(json.dumps(SPEC)))
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error[INVALID_SPEC]: spec gives key '{key}' twice"]
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# Faulty input tables: the golden fixture with cells replaced

TABLES = ("patients", "observations", "diagnoses", "medications", "treatments")


def golden_rows():
    return {name: list(csv.reader(open(GOLDEN / f"{name}.csv", newline="", encoding="utf-8")))
            for name in TABLES}


def run_on_tables(rows, root, command="features"):
    """(exit code, stderr lines) of a command on these tables with the golden code map."""
    root.mkdir(parents=True, exist_ok=True)
    for name, table in rows.items():
        with open(root / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
    config = dict(golden_config(), inputs={name: f"{name}.csv" for name in TABLES})
    (root / "config.json").write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(root / "config.json"), "--out", str(root / "o")])
    return code, err.getvalue().splitlines()


CELLS = st.sampled_from([
    "", "P01", "P08", "GHOST", "2018-13-01", "2018-06", "20180615", "-1", "-0", "nan", "inf",
    "1e999", "abc", " 7 ", "ICD11", "C34.1", "I50", "F", "M", "TROPONIN", "STATIN", "SURGERY",
    "a,b", 'x"y', "line\nbreak",
]) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@given(table=st.sampled_from(TABLES), data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_mutated_cell_exits_0_or_names_the_faulty_row(tmp_path_factory, table, data):
    rows = golden_rows()
    line = data.draw(st.integers(0, len(rows[table]) - 1))
    column = data.draw(st.integers(0, len(rows[table][line]) - 1))
    rows[table][line][column] = data.draw(CELLS)
    code, err = run_on_tables(rows, tmp_path_factory.mktemp("cell"))
    if code == 0:
        assert err == []
        return
    assert code == 2 and len(err) == 1, err
    kind = err[0][: err[0].index("]") + 1]
    if kind in ("error[MALFORMED_ROW]", "error[UNKNOWN_PATIENT]", "error[DUPLICATE_PATIENT]"):
        assert re.search(r"\w+\.csv:\d+[: ]", err[0]), err
    else:
        assert kind == "error[EMPTY_COHORT_MEAN]", err


# (table, 1-based line, column index, new text) per fault; the error it gives
TWO_FAULTS = [
    # one row: an observation's value before its date, a diagnosis's code
    # before its date and code system, an unknown patient before any field
    ([("observations", 3, 1, "2017-13-01"), ("observations", 3, 3, "abc")],
     "observations.csv:3 column 'value'"),
    ([("diagnoses", 2, 1, "2017-00-01"), ("diagnoses", 2, 2, "ICD11"),
      ("diagnoses", 2, 3, "")], "diagnoses.csv:2 column 'code'"),
    ([("treatments", 4, 0, "GHOST"), ("treatments", 4, 1, "bad")],
     "treatments.csv:4: event references absent patient 'GHOST'"),
    ([("patients", 5, 0, "P01"), ("patients", 5, 1, "bad")], "patient 'P01' declared"),
    # two rows: the earlier row wins, whatever its fault
    ([("observations", 6, 2, "PULSE"), ("observations", 4, 1, "bad")],
     "observations.csv:4 column 'date'"),
    ([("observations", 9, 0, "GHOST"), ("observations", 7, 3, "-1")],
     "observations.csv:7 column 'value'"),
    ([("medications", 4, 2, "ASPIRIN"), ("medications", 3, 0, "GHOST")],
     "medications.csv:3: event references absent patient 'GHOST'"),
    ([("patients", 9, 2, "X"), ("patients", 4, 1, "1960-02-30")],
     "patients.csv:4 column 'birth_date'"),
    # two tables: patients are read first, then the event tables in order
    ([("treatments", 2, 1, "bad"), ("observations", 20, 3, "x")],
     "observations.csv:20 column 'value'"),
    ([("observations", 2, 3, "x"), ("patients", 11, 2, "Q")], "patients.csv:11 column 'sex'"),
]


@pytest.mark.parametrize("faults,message", TWO_FAULTS)
def test_first_of_several_faults_is_reported(tmp_path, faults, message):
    rows = golden_rows()
    for table, line, column, text in faults:
        rows[table][line - 1][column] = text
    code, err = run_on_tables(rows, tmp_path, "validate")
    assert code == 2 and len(err) == 1 and message in err[0], err


@pytest.mark.parametrize("extra,bad,message", [
    # a row of the wrong width ends the table after the rows before it
    ("P08,2017-01-01,SBP", (5, "x"), "observations.csv:3 column ''"),
    ("P08,2017-01-01,SBP", (2, "x"), "observations.csv:2 column 'value'"),
])
def test_row_of_wrong_width_is_checked_in_file_order(tmp_path, extra, bad, message):
    rows = golden_rows()
    rows["observations"].insert(2, extra.split(","))
    rows["observations"][bad[0] - 1][3] = bad[1]
    code, err = run_on_tables(rows, tmp_path, "validate")
    assert code == 2 and len(err) == 1 and message in err[0], err


def test_duplicate_patient_names_file_and_line(tmp_path):
    rows = golden_rows()
    rows["patients"][6][0] = "P02"
    code, err = run_on_tables(rows, tmp_path, "validate")
    assert code == 2
    assert err == [f"error[DUPLICATE_PATIENT]: {tmp_path / 'patients.csv'}:7: "
                   "patient 'P02' declared more than once"]


def test_error_quoting_a_line_break_stays_on_one_line(tmp_path):
    rows = golden_rows()
    rows["patients"][1][1] = "1970-01-01\n"
    code, err = run_on_tables(rows, tmp_path, "validate")
    assert code == 2
    assert err == [f"error[MALFORMED_ROW]: {tmp_path / 'patients.csv'}:2 column 'birth_date': "
                   "invalid ISO date '1970-01-01\\n'"]


# Python 3.11's date.fromisoformat also reads these; 3.10's does not
NOT_YYYY_MM_DD = ["20200615", "2020-W24-1"]


@pytest.mark.parametrize("text", NOT_YYYY_MM_DD)
def test_table_date_is_yyyy_mm_dd_on_every_python(tmp_path, text):
    rows = golden_rows()
    rows["patients"][1][1] = text
    code, err = run_on_tables(rows, tmp_path, "validate")
    assert code == 2
    assert err == [f"error[MALFORMED_ROW]: {tmp_path / 'patients.csv'}:2 column 'birth_date': "
                   f"invalid ISO date '{text}'"]


@pytest.mark.parametrize("text", NOT_YYYY_MM_DD)
def test_end_of_data_is_yyyy_mm_dd_on_every_python(tmp_path, capsys, text):
    assert run_validate(golden_config(end_of_data=text), tmp_path) == 4
    assert capsys.readouterr().err.splitlines() == [f"error[CONFIG]: bad end_of_data '{text}'"]


def test_id_holding_a_carriage_return_reads_back_as_one_row(tmp_path):
    # a quoted "\r" in an id is one cell; a writer that left it bare would split its row
    for name in (*TABLES, "code_map"):
        (tmp_path / f"{name}.csv").write_bytes((GOLDEN / f"{name}.csv").read_bytes())
    with open(tmp_path / "patients.csv", "a", encoding="utf-8", newline="") as fh:
        fh.write('"X\rY",1960-01-01,F\n')  # no treatment, so it is excluded
    config = dict(golden_config(), inputs={name: str(tmp_path / f"{name}.csv") for name in TABLES})
    assert run_validate(config, tmp_path) == 0
    with open(tmp_path / "o" / "exclusions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["patient_id", "reason"] and len(rows) == 9, rows
    assert rows[-1] == ["X\rY", "NO_TREATMENT"]
