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
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from . import __version__, causal, evaluate, glm, preprocess, synth
from .cohort import (
    CodeMap,
    CohortPaths,
    DrugClass,
    default_code_map,
    load_code_map,
    load_cohort,
)
from .errors import ConfigError, PipelineError
from .preprocess import OUTCOME_NAMES, PreprocessConfig
from .rng import derive_seed

_CONTRAST_NAMES = ("CHEMO_VS_RADIATION", "TARGETED_VS_RADIATION")
_COMPARE_SETS = ("BASELINE_HEALTH", "MEDICATION_MODEL")
# Escapes of the characters that end a line, so that an error quoting input text
# stays on its one line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


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
    outcome_horizon_days: int | None = None
    troponin_threshold: float | None = None
    feature_sets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    antihypertensive_classes: frozenset[DrugClass] = (
        preprocess.DEFAULT_ANTIHYPERTENSIVE_CLASSES
    )
    antihyperlipidemia_classes: frozenset[DrugClass] = (
        preprocess.DEFAULT_ANTIHYPERLIPIDEMIA_CLASSES
    )
    config_sha256: str = ""

    def preprocess_config(self) -> PreprocessConfig:
        return PreprocessConfig(
            troponin_threshold=self.troponin_threshold,
            outcome_horizon_days=self.outcome_horizon_days,
            antihypertensive_classes=self.antihypertensive_classes,
            antihyperlipidemia_classes=self.antihyperlipidemia_classes,
        )

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
        if self.outcome_horizon_days is not None:
            _check("outcome_horizon_days", self.outcome_horizon_days, int)
        if self.troponin_threshold is not None:
            _check("troponin_threshold", self.troponin_threshold, float, math.isfinite, "finite")
        if not isinstance(self.feature_sets, dict) or not all(
            isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names)
            for names in self.feature_sets.values()
        ):
            raise ConfigError("feature_sets must map names to lists of feature names")


def _check(name: str, value, kind: type, ok=lambda v: True, expected: str = "") -> None:
    """Raise ConfigError unless ``value`` is of type ``kind`` and ``ok(value)`` holds.

    Booleans are not numbers here, and a float setting also takes an integer.
    """
    kinds = (int, float) if kind is float else (kind,)
    typed = isinstance(value, kinds) and (kind is bool or not isinstance(value, bool))
    if not typed:
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
    try:
        holds = ok(value)
    except OverflowError:  # an integer beyond the float range
        holds = False
    if not holds:
        raise ConfigError(f"{name} must be {expected}, got {value}")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    try:
        raw = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    inputs = raw.get("inputs")
    if not isinstance(inputs, dict):
        raise ConfigError("config needs an 'inputs' object with the five table paths")
    base = path.parent
    try:
        paths = CohortPaths(
            patients=_resolve(base, inputs["patients"]),
            observations=_resolve(base, inputs["observations"]),
            diagnoses=_resolve(base, inputs["diagnoses"]),
            medications=_resolve(base, inputs["medications"]),
            treatments=_resolve(base, inputs["treatments"]),
        )
    except KeyError as err:
        raise ConfigError(f"inputs missing table {err}") from None

    if "end_of_data" not in raw:
        raise ConfigError("config needs 'end_of_data' (ISO date)")
    try:
        end_of_data = date.fromisoformat(raw["end_of_data"])
    except (TypeError, ValueError):
        raise ConfigError(f"bad end_of_data '{raw['end_of_data']}'") from None

    out = raw.get("out", "out")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    cfg = RunConfig(
        inputs=paths,
        end_of_data=end_of_data,
        code_map_path=_resolve(base, raw["code_map"]) if raw.get("code_map") else None,
        out=Path(out),
        alpha_stay=raw.get("alpha_stay", 0.15),
        k=raw.get("k", 5),
        n_boot=raw.get("B", 1000),
        seed=raw.get("seed"),
        eliminate_in_causal=raw.get("eliminate_in_causal", False),
        arms_only_ate=raw.get("arms_only_ate", False),
        outcome_horizon_days=raw.get("outcome_horizon_days"),
        troponin_threshold=raw.get("troponin_threshold"),
        feature_sets=raw.get("feature_sets", {}),
        config_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )
    cfg.validate()
    cfg.feature_sets = {name: tuple(names) for name, names in cfg.feature_sets.items()}
    if "antihypertensive_classes" in raw:
        cfg.antihypertensive_classes = _parse_classes(raw["antihypertensive_classes"])
    if "antihyperlipidemia_classes" in raw:
        cfg.antihyperlipidemia_classes = _parse_classes(raw["antihyperlipidemia_classes"])
    return cfg


def _resolve(base: Path, value) -> Path:
    p = Path(str(value))
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


def _write_manifest(outdir: Path, command: str, cfg_hash: str, seed: int | None) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config_sha256": cfg_hash,
        "seed": seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
    }
    with open(outdir / "run_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_features(cfg: RunConfig):
    code_map = cfg.code_map()
    cohort = load_cohort(cfg.inputs)
    return preprocess.compute_features(
        cohort, code_map, cfg.end_of_data, cfg.preprocess_config()
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(cfg: RunConfig, outdir: Path) -> None:
    code_map = cfg.code_map()
    cohort = load_cohort(cfg.inputs)
    report = preprocess.apply_eligibility(cohort, code_map, cfg.end_of_data)
    preprocess.write_exclusions_csv(outdir / "exclusions.csv", report)
    print(f"loaded {len(cohort)} patients: {len(report.included)} included, "
          f"{len(report.excluded)} excluded")


def cmd_features(cfg: RunConfig, outdir: Path) -> None:
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


def cmd_fit(cfg: RunConfig, outdir: Path, outcome: str | None) -> None:
    features, _ = _load_features(cfg)
    outcomes = [outcome] if outcome else list(OUTCOME_NAMES)
    for oc in outcomes:
        fm = preprocess.build_matrix(features, "OUTCOME_MODEL", oc, cfg.feature_sets)
        _eliminate_and_report(fm, cfg.alpha_stay, *(
            outdir / f"{report}_{oc}.csv"
            for report in ("coefficients_full", "coefficients_eliminated", "elimination_trace")))


def cmd_cv(cfg: RunConfig, outdir: Path, outcome: str | None, eliminate: bool = True) -> None:
    seed = _require_seed(cfg)
    features, _ = _load_features(cfg)
    outcomes = [outcome] if outcome else list(OUTCOME_NAMES)
    reports: list[tuple[str, evaluate.CvReport]] = []
    for oc in outcomes:
        fm = preprocess.build_matrix(features, "OUTCOME_MODEL", oc, cfg.feature_sets)
        oc_seed = derive_seed(seed, OUTCOME_NAMES.index(oc))
        report, scores = evaluate.cv_report_and_scores(
            fm, cfg.k, oc_seed, cfg.alpha_stay if eliminate else None
        )
        reports.append((oc, report))
        # pooled held-out scores drive the published ROC points
        curve = evaluate.roc_curve(scores, fm.y)
        evaluate.write_roc_points(outdir / f"roc_points_{oc}.csv", oc, curve)
    evaluate.write_cv_report(outdir / "cv_report.csv", reports)


def cmd_effects(cfg: RunConfig, outdir: Path) -> None:
    seed = _require_seed(cfg)
    features, _ = _load_features(cfg)
    estimates = []
    for oc in OUTCOME_NAMES:
        estimates.extend(
            causal.bootstrap_effects(
                features,
                oc,
                n_boot=cfg.n_boot,
                seed=derive_seed(seed, 100 + OUTCOME_NAMES.index(oc)),
                arms_only=cfg.arms_only_ate,
                eliminate_alpha=cfg.alpha_stay if cfg.eliminate_in_causal else None,
            )
        )
    causal.write_effects_csv(outdir / "effects.csv", estimates)


def cmd_compare(cfg: RunConfig, outdir: Path, contrast: str, feature_set: str) -> None:
    features, _ = _load_features(cfg)
    fm = preprocess.build_matrix(features, feature_set, contrast, cfg.feature_sets)
    _eliminate_and_report(fm, cfg.alpha_stay, *(
        outdir / f"compare_{contrast}_{feature_set}_{report}.csv"
        for report in ("full", "eliminated", "trace")))


def cmd_synth(spec_path: Path, outdir: Path, n_mc: int) -> int:
    if n_mc < 2:  # the Monte Carlo standard errors need two draws
        raise ConfigError(f"--n-mc must be >= 2, got {n_mc}")
    spec = synth.load_spec(spec_path)
    cohort = synth.generate(spec)
    synth.write_cohort(cohort, outdir)
    synth.write_truth_csv(outdir / "truth.csv", spec, n_mc)
    run_config = {
        "inputs": {
            "patients": "patients.csv",
            "observations": "observations.csv",
            "diagnoses": "diagnoses.csv",
            "medications": "medications.csv",
            "treatments": "treatments.csv",
        },
        "code_map": "code_map.csv",
        "end_of_data": spec.layout.end_of_data.isoformat(),
        "seed": spec.seed,
    }
    with open(outdir / "run_config.json", "w", encoding="utf-8") as fh:
        json.dump(run_config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    spec_hash = hashlib.sha256(Path(spec_path).read_bytes()).hexdigest()
    _write_manifest(outdir, "synth", spec_hash, spec.seed)
    print(f"wrote synthetic cohort of {spec.n} patients to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiotox",
        description="Cardiac-risk models and treatment effects for breast-cancer cohorts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha-stay", type=float, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--b", type=int, default=None, help="bootstrap replicates")

    add_common(sub.add_parser("validate", help="load tables and report eligibility"))
    add_common(sub.add_parser("features", help="emit the baseline feature table"))

    fit = sub.add_parser("fit", help="fit outcome models with backward elimination")
    add_common(fit)
    fit.add_argument("--outcome", choices=OUTCOME_NAMES, default=None)

    cv = sub.add_parser("cv", help="cross-validated AUC and ROC points")
    add_common(cv)
    cv.add_argument("--outcome", choices=OUTCOME_NAMES, default=None)
    cv.add_argument(
        "--no-eliminate", action="store_true", help="skip per-fold backward elimination"
    )

    effects = sub.add_parser("effects", help="bootstrap ATE/ATT for all outcomes")
    add_common(effects)

    compare = sub.add_parser("compare", help="arm-vs-arm characteristic models")
    add_common(compare)
    compare.add_argument("--contrast", choices=_CONTRAST_NAMES, required=True)
    compare.add_argument("--feature-set", choices=_COMPARE_SETS, required=True)

    synth_p = sub.add_parser("synth", help="generate a synthetic cohort with truth values")
    synth_p.add_argument("--spec", required=True, help="synthetic spec JSON")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.add_argument("--n-mc", type=int, default=200_000, help="Monte Carlo draws for truth")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(Path(args.spec), Path(args.out), args.n_mc)

        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.alpha_stay is not None:
            cfg.alpha_stay = args.alpha_stay
        if args.k is not None:
            cfg.k = args.k
        if args.b is not None:
            cfg.n_boot = args.b
        cfg.validate()
        outdir = Path(args.out) if args.out else cfg.out
        outdir.mkdir(parents=True, exist_ok=True)

        if args.command == "validate":
            cmd_validate(cfg, outdir)
        elif args.command == "features":
            cmd_features(cfg, outdir)
        elif args.command == "fit":
            cmd_fit(cfg, outdir, args.outcome)
        elif args.command == "cv":
            cmd_cv(cfg, outdir, args.outcome, eliminate=not args.no_eliminate)
        elif args.command == "effects":
            cmd_effects(cfg, outdir)
        elif args.command == "compare":
            cmd_compare(cfg, outdir, args.contrast, args.feature_set)
        else:
            raise ConfigError(f"unknown command {args.command}")
        _write_manifest(outdir, args.command, cfg.config_sha256, cfg.seed)
        return 0
    except PipelineError as err:
        print(f"error[{err.code}]: {str(err).translate(_LINE_BREAKS)}", file=sys.stderr)
        return err.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
