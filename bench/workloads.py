"""Workload definitions: input generation and the CLI commands each round runs.

Every workload starts from the acceptance-suite ``SCALE_SPEC`` cohort, whose
spec seed is derived from the benchmark seed, so the same ``--seed`` always
gives byte-identical inputs. ``ingest_50k`` also appends patients that each
eligibility rule removes; how many per rule is drawn from the same seed.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

# The acceptance suite's scale cohort (tests/test_acceptance.py), at paper size.
SCALE_SPEC = {
    "n": 3468,
    "seed": 90210,
    "covariates": [
        {"name": "age", "dist": "normal", "mu": 57.5, "sigma": 12.0},
        {"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 0.9},
        {"name": "diabetes", "dist": "bernoulli", "p": 0.165},
        {"name": "hypertension", "dist": "bernoulli", "p": 0.3},
    ],
    "treatment_model": {
        "kind": "logistic",
        "chemo_vs_rest": {"intercept": -1.8, "hba1c": 0.08},
        "targeted_vs_radiation": {"intercept": -0.85},
    },
    "outcome_models": {
        "CHF": {"intercept": -3.6, "hba1c": 0.28, "hypertension": 0.35,
                "CHEMOTHERAPY": 0.7, "TARGETED": 0.5},
        "CAD": {"intercept": -3.3, "age": 0.02, "diabetes": 0.3,
                "CHEMOTHERAPY": 0.5, "TARGETED": 0.3},
        "CM": {"intercept": -2.6, "hba1c": 0.15, "hypertension": 0.4, "TARGETED": 0.6},
        "MI": {"intercept": -2.9, "age": 0.012, "CHEMOTHERAPY": 0.6},
    },
}

# synth's default event layout (the spec sets none).
INDEX_DATE = date(2018, 6, 15)
END_OF_DATA = date(2020, 6, 15)

# Monte Carlo draws for truth.csv, as in the acceptance suite. The benchmark's
# own checks do not read truth.csv, so more draws would only lengthen set-up.
SYNTH_N_MC = 10_000

BOOTSTRAP_B = 200
ALPHA_STAY = 0.15
CONTRASTS = ("CHEMO_VS_RADIATION", "TARGETED_VS_RADIATION")
COMPARE_SETS = ("BASELINE_HEALTH", "MEDICATION_MODEL")

EXCLUSION_REASONS = (
    "NO_TREATMENT",
    "NOT_FEMALE_ADULT",
    "MULTIPLE_TREATMENT_TYPES",
    "PRIOR_CANCER",
    "PRIOR_HEART_DISEASE",
    "INSUFFICIENT_FOLLOWUP",
)
# Per-reason count of injected patients is drawn uniformly from this range.
INJECT_RANGE = (40, 80)

_LABS = (("SBP", 128.0), ("DBP", 76.0), ("BMI", 27.5), ("HDL", 60.0), ("LDL", 110.0),
         ("HBA1C", 6.1), ("TRIGLYCERIDE", 130.0))


@dataclass(frozen=True)
class Command:
    """One operation: a CLI invocation writing into its own output directory."""

    name: str
    args: tuple[str, ...]  # subcommand and flags; --config and --out are added
    target: tuple[str, ...] = ()  # (contrast, feature set) of a compare command


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    commands: tuple[Command, ...]
    inject_exclusions: bool = False
    n_boot: int | None = None
    # Set-ups per run; setup_s is their median. Paper-size set-ups take under
    # a second, so they get more repeats to damp machine noise.
    setup_repeats: int = 5


def _paper_effects(n_boot: int) -> tuple[Command, ...]:
    return (Command("effects", ("effects", "--b", str(n_boot))),)


def _paper_models() -> tuple[Command, ...]:
    alpha = ("--alpha-stay", str(ALPHA_STAY))
    commands = [Command("fit", ("fit", *alpha)), Command("cv", ("cv", *alpha))]
    for contrast in CONTRASTS:
        for feature_set in COMPARE_SETS:
            commands.append(
                Command(
                    f"compare_{contrast}_{feature_set}",
                    ("compare", "--contrast", contrast, "--feature-set", feature_set, *alpha),
                    (contrast, feature_set),
                )
            )
    return tuple(commands)


def make_workloads(paper_n: int = 3468, ingest_n: int = 50_000,
                   n_boot: int = BOOTSTRAP_B) -> dict[str, Workload]:
    """The benchmark's workloads; the self-test passes smaller sizes."""
    return {
        "effects_paper": Workload("effects_paper", paper_n, _paper_effects(n_boot),
                                  n_boot=n_boot),
        "models_paper": Workload("models_paper", paper_n, _paper_models()),
        "ingest_50k": Workload("ingest_50k", ingest_n,
                               (Command("features", ("features",)),),
                               inject_exclusions=True, setup_repeats=3),
    }


WORKLOADS = make_workloads()


def spec_for(workload: Workload, seed: int) -> dict:
    spec = copy.deepcopy(SCALE_SPEC)
    spec["n"] = workload.n
    spec["seed"] = SCALE_SPEC["seed"] + seed
    return spec


def command_argv(command: Command, data_dir: Path, out_dir: Path) -> list[str]:
    return [command.args[0], "--config", str(data_dir / "run_config.json"),
            "--out", str(out_dir), *command.args[1:]]


def synth_argv(spec_path: Path, data_dir: Path) -> list[str]:
    return ["synth", "--spec", str(spec_path), "--out", str(data_dir),
            "--n-mc", str(SYNTH_N_MC)]


# ---------------------------------------------------------------------------
# Injected exclusions


def plan_injection(seed: int) -> dict[str, list[str]]:
    """Ids of the patients to append, by the exclusion reason each triggers."""
    rng = random.Random(seed)
    plan = {}
    next_id = 1
    for reason in EXCLUSION_REASONS:
        count = rng.randint(*INJECT_RANGE)
        plan[reason] = [f"X{next_id + i:06d}" for i in range(count)]
        next_id += count
    return plan


def inject_exclusions(data_dir: Path, plan: dict[str, list[str]]) -> None:
    """Append the planned patients to the generated CSVs.

    Each patient is built to trip exactly one rule under the program's
    documented precedence (no treatment, not a female adult, multiple
    treatment types, prior cancer, prior heart disease, short follow-up).
    """
    patients, observations, diagnoses, treatments = [], [], [], []
    index = INDEX_DATE
    adult_birth = index.replace(year=index.year - 50)
    for reason, ids in plan.items():
        for k, pid in enumerate(ids):
            sex, birth, tx = "F", adult_birth, [(index, "CHEMOTHERAPY")]
            if reason == "NO_TREATMENT":
                tx = []
            elif reason == "NOT_FEMALE_ADULT":
                if k % 3 == 0:
                    sex = "M"
                elif k % 3 == 1:
                    sex = "OTHER"
                else:  # a 16-year-old woman
                    birth = index.replace(year=index.year - 16)
            elif reason == "MULTIPLE_TREATMENT_TYPES":
                tx.append((index + timedelta(days=20), "RADIATION"))
            elif reason == "PRIOR_CANCER":
                diagnoses.append((pid, index - timedelta(days=200), "ICD10", "C34.1"))
            elif reason == "PRIOR_HEART_DISEASE":
                diagnoses.append((pid, index, "ICD10", "I50.9"))
            elif reason == "INSUFFICIENT_FOLLOWUP":
                tx = [(END_OF_DATA - timedelta(days=100), "TARGETED")]
            patients.append((pid, birth, sex))
            lab_day = (tx[0][0] if tx else index) - timedelta(days=30)
            for kind, value in _LABS:
                observations.append((pid, lab_day, kind, repr(value + k % 7)))
            treatments.extend((pid, d, name) for d, name in tx)

    for name, rows in (("patients", patients), ("observations", observations),
                       ("diagnoses", diagnoses), ("treatments", treatments)):
        with open(data_dir / f"{name}.csv", "a", encoding="utf-8", newline="") as fh:
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_spec(path: Path, spec: dict) -> None:
    path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n", encoding="utf-8")
