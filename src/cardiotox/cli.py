"""Command-line pipeline driver.

Subcommands: validate, features, fit, cv, effects, compare, synth. Each takes
a JSON run config (plus a few overrides), writes CSV reports into an output
directory, and drops a run manifest so results can be audited and reproduced.
Outputs are byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import date
from pathlib import Path

import numpy as np

from . import __version__, causal, evaluate, glm, preprocess, synth
from .cohort import (
    CodeMap,
    CohortPaths,
    DrugClass,
    default_code_map,
    iso_date,
    load_code_map,
    load_cohort,
)
from .errors import ConfigError, InvalidSpecError, PipelineError, read_json_object
from .errors import require_known, require_type
from .preprocess import CONTRASTS, FEATURE_SETS, OUTCOME_NAMES, PREDICTOR_NAMES, PreprocessConfig
from .rng import derive_seed
from .tableio import open_report

_TABLES = tuple(table.name for table in fields(CohortPaths))
_COMPARE_SETS = ("BASELINE_HEALTH", "MEDICATION_MODEL")
# Escapes of the control characters (C0, DEL, C1) and of the other line breaks, so
# that an error quoting input text stays one line of printable text.
_CONTROLS = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


@dataclass
class RunConfig:
    inputs: CohortPaths
    end_of_data: date
    code_map_path: Path | None = None
    out: Path = Path("out")
    alpha_stay: float = 0.15
    k: int = 5
    n_boot: int = 1000
    seed: int | None = None
    eliminate_in_causal: bool = False
    arms_only_ate: bool = False
    # The predictor sets by name: the built-in ones, each replaced by the
    # config's set of that name if it has one.
    feature_sets: dict[str, tuple[str, ...]] = field(default_factory=lambda: dict(FEATURE_SETS))
    preprocess: PreprocessConfig = PreprocessConfig()
    config_sha256: str = ""

    def code_map(self) -> CodeMap:
        if self.code_map_path is None:
            return default_code_map()
        return load_code_map(self.code_map_path)

    def validate(self) -> None:
        """Raise ConfigError unless every setting has its type and range.

        ``load_config`` calls it on the values read from JSON, and ``main`` again
        after the command-line overrides.
        """
        _check("alpha_stay", self.alpha_stay, float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
        _check("k", self.k, int, lambda v: v >= 2, ">= 2")
        _check("B", self.n_boot, int, lambda v: v >= causal.MIN_BOOTSTRAP,
               f">= {causal.MIN_BOOTSTRAP}")
        _check("eliminate_in_causal", self.eliminate_in_causal, bool)
        _check("arms_only_ate", self.arms_only_ate, bool)
        if self.seed is not None:
            _check("seed", self.seed, int)
        rules = self.preprocess
        if rules.outcome_horizon_days is not None:
            _check("outcome_horizon_days", rules.outcome_horizon_days, int)
        if rules.troponin_threshold is not None:
            _check("troponin_threshold", rules.troponin_threshold, float, math.isfinite, "finite")
        if not isinstance(self.feature_sets, dict) or not all(
            isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names)
            for names in self.feature_sets.values()
        ):
            raise ConfigError("feature_sets must map names to lists of feature names")
        for set_name, names in self.feature_sets.items():
            unknown = next((n for n in names if n not in PREDICTOR_NAMES), None)
            if unknown is not None:
                raise ConfigError(f"feature set '{set_name}' names unknown feature '{unknown}'")
            twice = next((n for i, n in enumerate(names) if n in names[:i]), None)
            if twice is not None:
                raise ConfigError(f"feature set '{set_name}' names '{twice}' twice")


def _check(name: str, value, kind: type, ok=lambda v: True, expected: str = "") -> None:
    """Raise ConfigError unless ``value`` is of type ``kind`` and ``ok(value)`` holds."""
    require_type(name, value, kind, ConfigError)
    try:
        holds = ok(value)
    except OverflowError:  # an integer beyond the float range
        holds = False
    if not holds:
        raise ConfigError(f"{name} must be {expected}, got {value}")


# Settings taken from the JSON as they are: each key's RunConfig field, then the
# PreprocessConfig fields. The drug-class lists are parsed after validate().
_RUN_FIELDS = {"alpha_stay": "alpha_stay", "k": "k", "B": "n_boot", "seed": "seed",
               "eliminate_in_causal": "eliminate_in_causal", "arms_only_ate": "arms_only_ate",
               "feature_sets": "feature_sets"}
_PREPROCESS_FIELDS = ("outcome_horizon_days", "troponin_threshold")
_CLASS_FIELDS = ("antihypertensive_classes", "antihyperlipidemia_classes")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    raw, data = read_json_object(path, "config", ConfigError)
    require_known(raw, ("inputs", "end_of_data", "out", "code_map", *_RUN_FIELDS,
                        *_PREPROCESS_FIELDS, *_CLASS_FIELDS), ConfigError)

    inputs = raw.get("inputs")
    if not isinstance(inputs, dict):
        raise ConfigError("config needs an 'inputs' object with the five table paths")
    require_known(inputs, _TABLES, ConfigError, " in inputs")
    for table in _TABLES:
        if table not in inputs:
            raise ConfigError(f"inputs missing table '{table}'")
        require_type(f"inputs.{table}", inputs[table], str, ConfigError)
    base = path.parent
    paths = CohortPaths(**{table: _resolve(base, inputs[table]) for table in _TABLES})

    if "end_of_data" not in raw:
        raise ConfigError("config needs 'end_of_data' (ISO date)")
    try:
        end_of_data = iso_date(raw["end_of_data"])
    except (TypeError, ValueError):
        raise ConfigError(f"bad end_of_data '{raw['end_of_data']}'") from None

    settings = {name: raw[key] for key, name in _RUN_FIELDS.items() if key in raw}
    if "out" in raw:
        if not isinstance(raw["out"], str):
            raise ConfigError(f"out must be a path string, got {raw['out']!r}")
        settings["out"] = Path(raw["out"])
    code_map = raw.get("code_map")  # absent or null: the built-in map
    if code_map is not None:
        require_type("code_map", code_map, str, ConfigError)
        if not code_map:
            raise ConfigError("code_map must name a file, got ''")
    cfg = RunConfig(
        inputs=paths,
        end_of_data=end_of_data,
        code_map_path=None if code_map is None else _resolve(base, code_map),
        preprocess=PreprocessConfig(**{key: raw[key] for key in _PREPROCESS_FIELDS if key in raw}),
        config_sha256=hashlib.sha256(data).hexdigest(),
        **settings,
    )
    cfg.validate()
    if "feature_sets" in raw:
        cfg.feature_sets = {**FEATURE_SETS, **{
            name: tuple(names) for name, names in raw["feature_sets"].items()}}
    cfg.preprocess = replace(cfg.preprocess, **{
        key: _parse_classes(raw[key]) for key in _CLASS_FIELDS if key in raw})
    return cfg


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def _parse_classes(raw) -> frozenset[DrugClass]:
    if not isinstance(raw, list) or not all(isinstance(name, str) for name in raw):
        raise ConfigError(f"drug classes must be a list of names, got {raw!r}")
    try:
        return frozenset(DrugClass(name) for name in raw)
    except ValueError as err:
        raise ConfigError(f"bad drug class: {err}") from None


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("this command requires a seed (config 'seed' or --seed)")
    return cfg.seed


def _make_outdir(outdir: Path) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a regular file, or a place this process may not write
        raise ConfigError(f"cannot create output directory '{outdir}': {err.strerror}") from None
    except ValueError as err:  # a NUL character in the path
        raise ConfigError(f"cannot create output directory '{outdir}': {err}") from None


def _write_json(path: Path, value: dict) -> None:
    with open_report(path) as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(outdir: Path, command: str, cfg_hash: str, seed: int | None) -> None:
    _write_json(outdir / "run_manifest.json", {
        "command": command,
        "config_sha256": cfg_hash,
        "seed": seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "blas": _blas_build(),
    })


def _blas_build() -> dict | None:
    """Name and version of the BLAS numpy was built with; None if its config has no entry."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (AttributeError, KeyError, TypeError):
        return None


def _load_features(cfg: RunConfig):
    code_map = cfg.code_map()
    cohort = load_cohort(cfg.inputs)
    return preprocess.compute_features(cohort, code_map, cfg.end_of_data, cfg.preprocess)


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(cfg: RunConfig, outdir: Path, args: argparse.Namespace) -> None:
    code_map = cfg.code_map()
    cohort = load_cohort(cfg.inputs)
    report = preprocess.apply_eligibility(cohort, code_map, cfg.end_of_data)
    preprocess.write_exclusions_csv(outdir / "exclusions.csv", report)
    print(f"loaded {len(cohort)} patients: {len(report.included)} included, "
          f"{len(report.excluded)} excluded")


def cmd_features(cfg: RunConfig, outdir: Path, args: argparse.Namespace) -> None:
    features, report = _load_features(cfg)
    preprocess.write_features_csv(outdir / "features.csv", features)
    preprocess.write_exclusions_csv(outdir / "exclusions.csv", report)
    print(f"wrote {len(features)} feature rows")


def _eliminate_and_report(
    fm: preprocess.FeatureMatrix, alpha_stay: float, full: Path, eliminated: Path, trace: Path
) -> None:
    """Backward elimination, then the full and eliminated coefficient reports and the trace."""
    result = glm.backward_eliminate(fm, alpha_stay)
    glm.write_coefficient_report(full, result.full_model, fm)
    glm.write_coefficient_report(
        eliminated, result.final_model, fm.select_columns(result.final_model.column_names))
    glm.write_elimination_trace(trace, result)


def cmd_fit(cfg: RunConfig, outdir: Path, args: argparse.Namespace) -> None:
    features, _ = _load_features(cfg)
    for oc in [args.outcome] if args.outcome else OUTCOME_NAMES:
        fm = preprocess.build_matrix(features, cfg.feature_sets["OUTCOME_MODEL"], oc)
        _eliminate_and_report(fm, cfg.alpha_stay, *(
            outdir / f"{report}_{oc}.csv"
            for report in ("coefficients_full", "coefficients_eliminated", "elimination_trace")))


def cmd_cv(cfg: RunConfig, outdir: Path, args: argparse.Namespace) -> None:
    seed = _require_seed(cfg)
    features, _ = _load_features(cfg)
    reports: list[tuple[str, evaluate.CvReport]] = []
    for oc in [args.outcome] if args.outcome else OUTCOME_NAMES:
        fm = preprocess.build_matrix(features, cfg.feature_sets["OUTCOME_MODEL"], oc)
        oc_seed = derive_seed(seed, OUTCOME_NAMES.index(oc))
        report, scores = evaluate.cv_report_and_scores(
            fm, cfg.k, oc_seed, None if args.no_eliminate else cfg.alpha_stay
        )
        reports.append((oc, report))
        # pooled held-out scores drive the published ROC points
        curve = evaluate.roc_curve(scores, fm.y)
        evaluate.write_roc_points(outdir / f"roc_points_{oc}.csv", oc, curve)
    evaluate.write_cv_report(outdir / "cv_report.csv", reports)


def cmd_effects(cfg: RunConfig, outdir: Path, args: argparse.Namespace) -> None:
    seed = _require_seed(cfg)
    features, _ = _load_features(cfg)
    covariates = causal.outcome_covariates(cfg.feature_sets["OUTCOME_MODEL"])
    estimates = []
    for oc in OUTCOME_NAMES:
        estimates.extend(
            causal.bootstrap_effects(
                features,
                oc,
                covariates,
                n_boot=cfg.n_boot,
                seed=derive_seed(seed, 100 + OUTCOME_NAMES.index(oc)),
                arms_only=cfg.arms_only_ate,
                eliminate_alpha=cfg.alpha_stay if cfg.eliminate_in_causal else None,
            )
        )
    causal.write_effects_csv(outdir / "effects.csv", estimates)


def cmd_compare(cfg: RunConfig, outdir: Path, args: argparse.Namespace) -> None:
    features, _ = _load_features(cfg)
    fm = preprocess.build_matrix(features, cfg.feature_sets[args.feature_set], args.contrast)
    _eliminate_and_report(fm, cfg.alpha_stay, *(
        outdir / f"compare_{args.contrast}_{args.feature_set}_{report}.csv"
        for report in ("full", "eliminated", "trace")))


def cmd_synth(spec_path: Path, outdir: Path, n_mc: int) -> int:
    if n_mc < 2:  # the Monte Carlo standard errors need two draws
        raise ConfigError(f"--n-mc must be >= 2, got {n_mc}")
    if n_mc > synth.MAX_N:
        raise ConfigError(f"--n-mc must be <= {synth.MAX_N}, got {n_mc}")
    raw, data = read_json_object(spec_path, "spec", InvalidSpecError)
    spec = synth.parse_spec(raw)
    cohort = synth.generate(spec)
    _make_outdir(outdir)
    synth.write_cohort(cohort, outdir)
    synth.write_truth_csv(outdir / "truth.csv", spec, n_mc)
    _write_json(outdir / "run_config.json", {
        "inputs": {table: f"{table}.csv" for table in _TABLES},
        "code_map": "code_map.csv",
        "end_of_data": spec.layout.end_of_data.isoformat(),
        "seed": spec.seed,
    })
    _write_manifest(outdir, "synth", hashlib.sha256(data).hexdigest(), spec.seed)
    print(f"wrote synthetic cohort of {spec.n} patients to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """A parser whose faults are config errors: one error line and exit 4, not usage text."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cardiotox",
        description="Cardiac-risk models and treatment effects for breast-cancer cohorts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, run) -> argparse.ArgumentParser:
        """The subcommand ``name``: it reads a run config and runs ``run(cfg, outdir, args)``."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha-stay", type=float, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--b", type=int, dest="n_boot", metavar="B", help="bootstrap replicates")
        p.set_defaults(run=run)
        return p

    command("validate", "load tables and report eligibility", cmd_validate)
    command("features", "emit the baseline feature table", cmd_features)
    fit = command("fit", "fit outcome models with backward elimination", cmd_fit)
    fit.add_argument("--outcome", choices=OUTCOME_NAMES, default=None)
    cv = command("cv", "cross-validated AUC and ROC points", cmd_cv)
    cv.add_argument("--outcome", choices=OUTCOME_NAMES, default=None)
    cv.add_argument("--no-eliminate", action="store_true",
                    help="skip per-fold backward elimination")
    command("effects", "bootstrap ATE/ATT for all outcomes", cmd_effects)
    compare = command("compare", "arm-vs-arm characteristic models", cmd_compare)
    compare.add_argument("--contrast", choices=tuple(CONTRASTS), required=True)
    compare.add_argument("--feature-set", choices=_COMPARE_SETS, required=True)
    synth_p = sub.add_parser("synth", help="generate a synthetic cohort with truth values")
    synth_p.add_argument("--spec", required=True, help="synthetic spec JSON")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.add_argument("--n-mc", type=int, default=200_000, help="Monte Carlo draws for truth")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "synth":
            return cmd_synth(Path(args.spec), Path(args.out), args.n_mc)

        overrides = {name: getattr(args, name) for name in ("seed", "alpha_stay", "k", "n_boot")}
        cfg = replace(load_config(args.config),
                      **{name: value for name, value in overrides.items() if value is not None})
        cfg.validate()
        outdir = Path(args.out) if args.out else cfg.out
        _make_outdir(outdir)
        args.run(cfg, outdir, args)
        _write_manifest(outdir, args.command, cfg.config_sha256, cfg.seed)
        return 0
    except PipelineError as err:
        print(f"error[{err.code}]: {str(err).translate(_CONTROLS)}", file=sys.stderr)
        return err.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
