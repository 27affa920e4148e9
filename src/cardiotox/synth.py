"""Synthetic cohorts with known generative truth.

A declarative spec fixes covariate distributions, a treatment-assignment
model, and logistic outcome models; sampling is driven exclusively by the
package's SplitMix64 stream so the emitted cohort files are byte-identical
across runs and implementations. The same spec supports oracle evaluation:
the exact treatment effects and model AUCs implied by the generative law,
either in closed form (no covariates) or by Monte Carlo.

Sampling conventions (fixed, so seeds pin the whole cohort):

* draws are column-major: declared covariates in declaration order, then
  treatment, then outcomes in CHF/CAD/CM/MI order, then default fillers;
* ``age`` is floored to whole years and clamped to [18, 100]; the clamped
  integer is the value used by every model and recovered by preprocessing;
* observation-valued covariates are clamped at 0 (recorded values must be
  non-negative); the clamped value is the modeled value;
* binary covariates (conditions, medications, troponin) must be BERNOULLI;
* three-arm assignment uses two sequential logits (chemotherapy vs rest,
  then targeted vs radiation), or fixed probabilities when randomized; the
  logistic form always consumes two uniform columns, the randomized form one.

Feature slots the spec does not declare are filled from documented default
distributions (below) so that full-feature-set fits on synthetic cohorts are
well posed; fillers carry zero coefficients in every model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dataclass_fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import evaluate
from .cohort import DrugClass, ObservationKind, Treatment, default_code_map_rows
from .errors import InvalidSpecError, OneClassError
from .glm import sigmoid
from .preprocess import LAB_FIELDS, OUTCOME_NAMES, BaselineFeatures, Baselines, feature_rows
from .rng import SplitMix64, derive_seed
from .tableio import write_csv

TREATMENT_KEYS = ("CHEMOTHERAPY", "TARGETED")

AGE_MIN = 18
AGE_MAX = 100
MAX_N = 1_000_000  # patients one spec may ask for
TROPONIN_OBS_VALUE = 0.05

_OBSERVATION_SLOTS = LAB_FIELDS
_CONDITION_SLOTS = ("hypertension", "diabetes", "hyperlipidemia")
_MEDICATION_SLOTS = tuple(cls.value.lower() for cls in DrugClass)
_BINARY_SLOTS = frozenset(("troponin",) + _CONDITION_SLOTS + _MEDICATION_SLOTS)

# Canonical filler order; declared covariates are skipped.
FILLER_SLOTS = ("age",) + _OBSERVATION_SLOTS + ("troponin",) + _CONDITION_SLOTS + _MEDICATION_SLOTS

DEFAULT_FILLERS: dict[str, tuple] = {
    "age": ("normal", 57.5, 12.0),
    "sbp": ("normal", 126.0, 15.0),
    "dbp": ("normal", 74.0, 10.0),
    "bmi": ("normal", 28.5, 6.0),
    "hdl": ("normal", 65.0, 15.0),
    "ldl": ("normal", 112.0, 20.0),
    "hba1c": ("normal", 6.0, 0.8),
    "triglyceride": ("normal", 128.0, 44.0),
    "troponin": ("bernoulli", 0.04),
    "hypertension": ("bernoulli", 0.30),
    "diabetes": ("bernoulli", 0.165),
    "hyperlipidemia": ("bernoulli", 0.24),
    "insulin": ("bernoulli", 0.043),
    "metformin": ("bernoulli", 0.047),
    "statin": ("bernoulli", 0.217),
    "ace_inhibitor": ("bernoulli", 0.155),
    "arb": ("bernoulli", 0.09),
    "antihypertensive_combination": ("bernoulli", 0.036),
    "vasodilator": ("bernoulli", 0.175),
    "antiarrhythmic": ("bernoulli", 0.049),
    "beta_blocker": ("bernoulli", 0.223),
    "calcium_blocker": ("bernoulli", 0.123),
    "diuretic": ("bernoulli", 0.10),
    "antihyperlipidemic_other": ("bernoulli", 0.017),
}

_DIAGNOSIS_CODES = {
    "CHF": "I50.9",
    "CAD": "I25.10",
    "CM": "I42.9",
    "MI": "I21.9",
    "hypertension": "I10",
    "diabetes": "E11.9",
    "hyperlipidemia": "E78.5",
}

_TRUTH_COV_TAG = 7001
_TRUTH_AUC_TAG = 7002


@dataclass(frozen=True)
class CovariateSpec:
    name: str
    dist: str  # normal | bernoulli | lognormal
    mu: float = 0.0
    sigma: float = 1.0
    p: float = 0.5


@dataclass(frozen=True)
class TreatmentModel:
    kind: str  # randomized | logistic
    p_chemo: float = 0.0
    p_targeted: float = 0.0
    chemo_vs_rest: dict[str, float] = field(default_factory=dict)
    targeted_vs_radiation: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class EventLayout:
    index_date: date = date(2018, 6, 15)
    end_of_data: date = date(2020, 6, 15)
    observation_days_before: int = 30
    diagnosis_days_before: int = 60
    medication_days_after: int = 30
    outcome_days_after: int = 180
    fill_defaults: bool = True


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    seed: int
    covariates: tuple[CovariateSpec, ...]
    treatment_model: TreatmentModel
    outcome_models: dict[str, dict[str, float]]
    layout: EventLayout = EventLayout()

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.covariates)


@dataclass(frozen=True)
class SyntheticCohort:
    spec: SyntheticSpec
    patient_ids: tuple[str, ...]
    values: dict[str, np.ndarray]        # declared covariates, modeled values
    fillers: dict[str, np.ndarray]       # undeclared slots
    treatments: np.ndarray               # array of Treatment
    outcomes: dict[str, np.ndarray]      # outcome name -> bool array

    def slot(self, name: str) -> np.ndarray | None:
        if name in self.values:
            return self.values[name]
        return self.fillers.get(name)


# ---------------------------------------------------------------------------
# Spec parsing and validation


def _typed(name: str, value, kind: type):
    """``value`` as ``kind``, or InvalidSpecError unless it has that JSON type.

    Booleans are not numbers here, and a float value also takes an integer.
    """
    kinds = (int, float) if kind is float else (kind,)
    if not isinstance(value, kinds) or (kind is not bool and isinstance(value, bool)):
        raise InvalidSpecError(f"{name} must be of type {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise InvalidSpecError(f"{name} is out of range, got {value!r}") from None


def parse_spec(raw: dict) -> SyntheticSpec:
    if not isinstance(raw, dict):
        raise InvalidSpecError("spec must be a JSON object")
    n = _typed("n", raw.get("n"), int)
    seed = _typed("seed", raw.get("seed"), int)
    if not 1 <= n <= MAX_N:
        raise InvalidSpecError(f"n must be in [1, {MAX_N}], got {n}")

    covariates = tuple(
        _parse_covariate(c) for c in _typed("covariates", raw.get("covariates", []), list)
    )
    names = [c.name for c in covariates]
    if len(set(names)) != len(names):
        raise InvalidSpecError("covariate names must be unique")

    treatment_model = _parse_treatment_model(raw.get("treatment_model"), names)

    outcome_models: dict[str, dict[str, float]] = {}
    for outcome, coefs in _typed("outcome_models", raw.get("outcome_models", {}), dict).items():
        if outcome not in OUTCOME_NAMES:
            raise InvalidSpecError(f"unknown outcome '{outcome}'")
        outcome_models[outcome] = _parse_coefs(
            coefs, set(names) | set(TREATMENT_KEYS), f"outcome model {outcome}"
        )
    if not outcome_models:
        raise InvalidSpecError("at least one outcome model is required")

    layout = _parse_layout(raw.get("event_layout", {}))
    return SyntheticSpec(
        n=n,
        seed=seed,
        covariates=covariates,
        treatment_model=treatment_model,
        outcome_models=outcome_models,
        layout=layout,
    )


def load_spec(path: str | Path) -> SyntheticSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InvalidSpecError(f"spec file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidSpecError(f"cannot read spec {path}: {err}") from None
    except ValueError as err:  # JSONDecodeError, or an integer too long to convert
        raise InvalidSpecError(f"spec is not valid JSON: {err}") from None
    return parse_spec(raw)


def _parse_covariate(raw: dict) -> CovariateSpec:
    if not isinstance(raw, dict) or "name" not in raw or "dist" not in raw:
        raise InvalidSpecError("each covariate needs 'name' and 'dist'")
    name = str(raw["name"])
    dist = str(raw["dist"]).lower()
    if name not in FILLER_SLOTS:
        raise InvalidSpecError(f"'{name}' is not a recognized feature slot")
    if name in _BINARY_SLOTS:
        if dist != "bernoulli":
            raise InvalidSpecError(f"binary slot '{name}' must use the bernoulli distribution")
    elif dist not in ("normal", "lognormal"):
        raise InvalidSpecError(f"continuous slot '{name}' must be normal or lognormal")

    if dist == "bernoulli":
        p = _typed(f"bernoulli p for '{name}'", raw.get("p", 0.5), float)
        if not 0.0 <= p <= 1.0:
            raise InvalidSpecError(f"bernoulli p for '{name}' must be in [0, 1], got {p}")
        return CovariateSpec(name=name, dist=dist, p=p)
    mu = _typed(f"mu for '{name}'", raw.get("mu", 0.0), float)
    sigma = _typed(f"sigma for '{name}'", raw.get("sigma", 1.0), float)
    if sigma < 0:
        raise InvalidSpecError(f"sigma for '{name}' must be >= 0")
    return CovariateSpec(name=name, dist=dist, mu=mu, sigma=sigma)


def _parse_coefs(raw, allowed: set[str], label: str) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise InvalidSpecError(f"{label} must map names to coefficients")
    coefs: dict[str, float] = {}
    for key, value in raw.items():
        if key != "intercept" and key not in allowed:
            raise InvalidSpecError(f"{label} references undeclared name '{key}'")
        coefs[key] = _typed(f"{label} coefficient '{key}'", value, float)
    return coefs


def _parse_treatment_model(raw, covariate_names: list[str]) -> TreatmentModel:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise InvalidSpecError("treatment_model needs a 'kind'")
    kind = str(raw["kind"]).lower()
    if kind == "randomized":
        p_chemo = _typed("p_chemo", raw.get("p_chemo", 0.0), float)
        p_targeted = _typed("p_targeted", raw.get("p_targeted", 0.0), float)
        if min(p_chemo, p_targeted) < 0 or p_chemo + p_targeted > 1.0:
            raise InvalidSpecError("randomized arm probabilities must be >= 0 and sum <= 1")
        return TreatmentModel(kind="randomized", p_chemo=p_chemo, p_targeted=p_targeted)
    if kind == "logistic":
        return TreatmentModel(
            kind="logistic",
            chemo_vs_rest=_parse_coefs(
                raw.get("chemo_vs_rest", {}), set(covariate_names), "chemo_vs_rest"
            ),
            targeted_vs_radiation=_parse_coefs(
                raw.get("targeted_vs_radiation", {}), set(covariate_names), "targeted_vs_radiation"
            ),
        )
    raise InvalidSpecError(f"unknown treatment model kind '{kind}'")


def _parse_layout(raw: dict) -> EventLayout:
    if not isinstance(raw, dict):
        raise InvalidSpecError("event_layout must be an object")
    defaults = EventLayout()
    try:
        index = (
            date.fromisoformat(raw["index_date"]) if "index_date" in raw else defaults.index_date
        )
        end = (
            date.fromisoformat(raw["end_of_data"])
            if "end_of_data" in raw
            else index + timedelta(days=730)
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise InvalidSpecError(f"bad date in event_layout: {err}") from None
    offsets = {  # the day offsets, every int field
        f.name: _typed(f.name, raw.get(f.name, f.default), int)
        for f in dataclass_fields(EventLayout)
        if f.type == "int"
    }
    layout = EventLayout(
        index_date=index,
        end_of_data=end,
        fill_defaults=_typed("fill_defaults", raw.get("fill_defaults", True), bool),
        **offsets,
    )
    if layout.observation_days_before <= 0 or layout.diagnosis_days_before <= 0:
        raise InvalidSpecError("pre-index offsets must be positive")
    if layout.medication_days_after < 0 or layout.outcome_days_after <= 0:
        raise InvalidSpecError("post-index offsets must be positive")
    try:  # every event date and the oldest birth date must exist
        index - timedelta(days=max(layout.observation_days_before, layout.diagnosis_days_before))
        index + timedelta(days=max(layout.medication_days_after, layout.outcome_days_after))
        date(index.year - AGE_MAX, 1, 1)
    except (OverflowError, ValueError):
        raise InvalidSpecError("event_layout puts dates outside the calendar") from None
    if layout.index_date + timedelta(days=layout.outcome_days_after) > layout.end_of_data:
        raise InvalidSpecError("outcome offset falls after end_of_data")
    return layout


# ---------------------------------------------------------------------------
# Sampling


def _sample_slot(name: str, dist: tuple, rng: SplitMix64, n: int) -> np.ndarray:
    kind = dist[0]
    if kind == "bernoulli":
        return rng.bernoulli(dist[1], n).astype(np.float64)
    with np.errstate(over="ignore"):  # draws beyond the float range fail below
        if kind == "normal":
            raw = dist[1] + dist[2] * rng.normal(n)
        elif kind == "lognormal":
            raw = np.exp(dist[1] + dist[2] * rng.normal(n))
        else:  # pragma: no cover - guarded by validation
            raise InvalidSpecError(f"unknown distribution '{kind}'")
    if name == "age":
        return np.clip(np.floor(raw), AGE_MIN, AGE_MAX)
    if not np.isfinite(raw).all():
        raise InvalidSpecError(f"draws of '{name}' overflow the float range")
    return np.maximum(raw, 0.0)


def _covariate_dist(c: CovariateSpec) -> tuple:
    if c.dist == "bernoulli":
        return ("bernoulli", c.p)
    return (c.dist, c.mu, c.sigma)


def _sample_covariates(spec: SyntheticSpec, rng: SplitMix64, n: int) -> dict[str, np.ndarray]:
    return {c.name: _sample_slot(c.name, _covariate_dist(c), rng, n) for c in spec.covariates}


def _linear_predictor(
    coefs: dict[str, float],
    values: dict[str, np.ndarray],
    n: int,
    treatments: np.ndarray | None = None,
) -> np.ndarray:
    """A model's linear predictor per draw, with its treatment terms given ``treatments``.

    A predictor that overflows the float range makes the spec invalid.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        eta = np.full(n, coefs.get("intercept", 0.0))
        for name, coef in coefs.items():
            if name not in ("intercept",) + TREATMENT_KEYS:
                eta += coef * values[name]
        for key in TREATMENT_KEYS:
            if treatments is not None and key in coefs:
                eta = eta + coefs[key] * (treatments == Treatment(key))
    return _finite(eta)


def _finite(eta: np.ndarray) -> np.ndarray:
    if not np.isfinite(eta).all():
        raise InvalidSpecError("a model's linear predictor overflows the float range")
    return eta


def _sample_treatments(
    model: TreatmentModel, values: dict[str, np.ndarray], rng: SplitMix64, n: int
) -> np.ndarray:
    arms = np.empty(n, dtype=object)
    if model.kind == "randomized":
        u = rng.uniform(n)
        arms[:] = Treatment.RADIATION
        arms[u < model.p_chemo + model.p_targeted] = Treatment.TARGETED
        arms[u < model.p_chemo] = Treatment.CHEMOTHERAPY
        return arms
    p_chemo = sigmoid(_linear_predictor(model.chemo_vs_rest, values, n))
    p_targeted = sigmoid(_linear_predictor(model.targeted_vs_radiation, values, n))
    u1 = rng.uniform(n)
    u2 = rng.uniform(n)
    arms[:] = Treatment.RADIATION
    arms[(u1 >= p_chemo) & (u2 < p_targeted)] = Treatment.TARGETED
    arms[u1 < p_chemo] = Treatment.CHEMOTHERAPY
    return arms


def _arm_probabilities(
    model: TreatmentModel, values: dict[str, np.ndarray], n: int
) -> dict[Treatment, np.ndarray]:
    if model.kind == "randomized":
        return {
            Treatment.CHEMOTHERAPY: np.full(n, model.p_chemo),
            Treatment.TARGETED: np.full(n, model.p_targeted),
            Treatment.RADIATION: np.full(n, 1.0 - model.p_chemo - model.p_targeted),
        }
    p_chemo = sigmoid(_linear_predictor(model.chemo_vs_rest, values, n))
    p_targ_given_rest = sigmoid(_linear_predictor(model.targeted_vs_radiation, values, n))
    p_targeted = (1.0 - p_chemo) * p_targ_given_rest
    return {
        Treatment.CHEMOTHERAPY: p_chemo,
        Treatment.TARGETED: p_targeted,
        Treatment.RADIATION: 1.0 - p_chemo - p_targeted,
    }


def generate(spec: SyntheticSpec) -> SyntheticCohort:
    """Sample one cohort; deterministic in the spec (including its seed)."""
    n = spec.n
    rng = SplitMix64(spec.seed)

    values = _sample_covariates(spec, rng, n)
    treatments = _sample_treatments(spec.treatment_model, values, rng, n)

    outcomes: dict[str, np.ndarray] = {}
    for outcome in OUTCOME_NAMES:
        if outcome in spec.outcome_models:
            eta = _linear_predictor(spec.outcome_models[outcome], values, n, treatments)
            outcomes[outcome] = rng.uniform(n) < sigmoid(eta)
        else:
            outcomes[outcome] = np.zeros(n, dtype=bool)

    fillers: dict[str, np.ndarray] = {}
    if spec.layout.fill_defaults:
        for slot in FILLER_SLOTS:
            if slot not in values:
                fillers[slot] = _sample_slot(slot, DEFAULT_FILLERS[slot], rng, n)
    elif "age" not in values:
        fillers["age"] = np.full(n, 55.0)

    width = max(6, len(str(n)))
    ids = tuple(f"S{i:0{width}d}" for i in range(1, n + 1))
    return SyntheticCohort(
        spec=spec,
        patient_ids=ids,
        values=values,
        fillers=fillers,
        treatments=treatments,
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# Event emission


def _birth_date(index: date, age_years: int) -> date:
    try:
        return index.replace(year=index.year - age_years)
    except ValueError:  # Feb 29 anchored on a non-leap birth year
        return index.replace(year=index.year - age_years, day=28)


def write_cohort(sc: SyntheticCohort, outdir: str | Path) -> None:
    """Emit the five cohort CSVs plus the default code map.

    Observation values use shortest round-trip float formatting so the
    pipeline recovers the sampled values bit-exactly; analysis reports keep
    the 10-significant-digit convention.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    layout = sc.spec.layout
    index = layout.index_date
    obs_date = (index - timedelta(days=layout.observation_days_before)).isoformat()
    dx_date = (index - timedelta(days=layout.diagnosis_days_before)).isoformat()
    med_date = (index + timedelta(days=layout.medication_days_after)).isoformat()
    out_date = (index + timedelta(days=layout.outcome_days_after)).isoformat()

    def present(slots: tuple[str, ...]) -> list[tuple[str, list]]:
        """Each slot that has values, with its values as a list."""
        return [(slot, sc.slot(slot).tolist()) for slot in slots if sc.slot(slot) is not None]

    labs = [(ObservationKind(slot.upper()).value, values)
            for slot, values in present(_OBSERVATION_SLOTS)]
    troponin, conditions, drugs = map(present, (("troponin",), _CONDITION_SLOTS, _MEDICATION_SLOTS))
    outcomes = [(name, sc.outcomes[name].tolist()) for name in OUTCOME_NAMES]
    ages = sc.slot("age").tolist()
    patients, observations, diagnoses, medications, treatments = [], [], [], [], []
    for i, pid in enumerate(sc.patient_ids):
        patients.append((pid, _birth_date(index, int(ages[i])).isoformat(), "F"))
        observations += [(pid, obs_date, kind, repr(values[i])) for kind, values in labs]
        observations += [(pid, obs_date, "TROPONIN", repr(TROPONIN_OBS_VALUE))
                         for _, flags in troponin if flags[i] == 1.0]
        diagnoses += [(pid, dx_date, "ICD10", _DIAGNOSIS_CODES[slot])
                      for slot, flags in conditions if flags[i] == 1.0]
        diagnoses += [(pid, out_date, "ICD10", _DIAGNOSIS_CODES[name])
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
        default_code_map_rows(),
    )


def to_features(sc: SyntheticCohort) -> list[BaselineFeatures]:
    """Baseline feature rows straight from the sampled values.

    Bypasses file emission for simulation loops; must stay exactly equivalent
    to generate -> write_cohort -> load_cohort -> compute_features, which the
    test suite asserts. Features are derived by ``preprocess.feature_rows``,
    as in preprocessing. Requires a fully filled cohort.
    """

    def col(name: str) -> np.ndarray:
        column = sc.slot(name)
        if column is None:
            raise InvalidSpecError(f"cohort has no values for slot '{name}'")
        return column

    def columns(names: tuple[str, ...]) -> np.ndarray:
        return np.column_stack([col(name) for name in names])

    return feature_rows(Baselines(
        sc.patient_ids,
        col("age"),
        columns(_OBSERVATION_SLOTS),
        col("troponin") != 0.0,
        columns(_CONDITION_SLOTS) != 0.0,
        columns(_MEDICATION_SLOTS) != 0.0,
        sc.treatments,
        np.column_stack([sc.outcomes[name] for name in OUTCOME_NAMES]),
    ))


# ---------------------------------------------------------------------------
# Oracles


def _is_closed_form(coefs: dict[str, float]) -> bool:
    return all(key in ("intercept",) + TREATMENT_KEYS for key in coefs)


def _require_outcome(spec: SyntheticSpec, outcome: str) -> dict[str, float]:
    if outcome not in spec.outcome_models:
        raise InvalidSpecError(f"spec defines no outcome model for '{outcome}'")
    return spec.outcome_models[outcome]


def _treatment_key(treatment: str | Treatment) -> str:
    key = treatment.value if isinstance(treatment, Treatment) else str(treatment)
    if key not in TREATMENT_KEYS:
        raise InvalidSpecError(f"treatment must be one of {TREATMENT_KEYS}, got '{key}'")
    return key


def _mc_effect(
    spec: SyntheticSpec, treatment: str, outcome: str, n_mc: int, estimand: str
) -> tuple[float, float] | None:
    coefs = _require_outcome(spec, outcome)
    b_t = coefs.get(treatment, 0.0)
    b_0 = coefs.get("intercept", 0.0)
    if _is_closed_form(coefs):
        value = float(sigmoid(np.array([b_0 + b_t]))[0] - sigmoid(np.array([b_0]))[0])
        return value, 0.0

    rng = SplitMix64(derive_seed(spec.seed, _TRUTH_COV_TAG))
    values = _sample_covariates(spec, rng, n_mc)
    eta_base = _linear_predictor(coefs, values, n_mc)
    with np.errstate(over="ignore"):  # checked by _finite
        diff = sigmoid(_finite(eta_base + b_t)) - sigmoid(eta_base)

    if estimand == "ATE":
        return float(np.mean(diff)), float(np.std(diff, ddof=1) / math.sqrt(n_mc))

    arm = Treatment(treatment)
    weights = _arm_probabilities(spec.treatment_model, values, n_mc)[arm]
    w_mean = float(np.mean(weights))
    if w_mean <= 0.0:
        return None  # ATT undefined: the arm is never assigned
    value = float(np.mean(weights * diff) / w_mean)
    resid = weights * (diff - value) / w_mean
    return value, float(np.std(resid, ddof=1) / math.sqrt(n_mc))


def true_ate(
    spec: SyntheticSpec, treatment: str | Treatment, outcome: str, n_mc: int = 200_000
) -> float:
    """Generative-truth ATE of one treatment vs radiation; exact when no covariates."""
    return _mc_effect(spec, _treatment_key(treatment), outcome, n_mc, "ATE")[0]


def true_att(
    spec: SyntheticSpec, treatment: str | Treatment, outcome: str, n_mc: int = 200_000
) -> float:
    """Generative-truth ATT: the same contrast averaged over the treated arm."""
    key = _treatment_key(treatment)
    effect = _mc_effect(spec, key, outcome, n_mc, "ATT")
    if effect is None:
        raise InvalidSpecError(f"treatment model never assigns arm '{key}'")
    return effect[0]


def true_auc(spec: SyntheticSpec, outcome: str, n_mc: int = 200_000) -> float:
    """Monte Carlo AUC of the true linear predictor against simulated outcomes."""
    return _mc_auc(spec, outcome, n_mc)[0]


def _mc_auc(spec: SyntheticSpec, outcome: str, n_mc: int) -> tuple[float, float]:
    coefs = _require_outcome(spec, outcome)
    rng = SplitMix64(derive_seed(spec.seed, _TRUTH_AUC_TAG))
    values = _sample_covariates(spec, rng, n_mc)
    treatments = _sample_treatments(spec.treatment_model, values, rng, n_mc)
    eta = _linear_predictor(coefs, values, n_mc, treatments)
    y = rng.uniform(n_mc) < sigmoid(eta)
    value = evaluate.auc(eta, y.astype(np.int64))
    n1 = int(np.sum(y))
    n0 = n_mc - n1
    # Hanley-McNeil variance for the standard error of an empirical AUC
    q1 = value / (2.0 - value)
    q2 = 2.0 * value**2 / (1.0 + value)
    var = (
        value * (1.0 - value) + (n1 - 1) * (q1 - value**2) + (n0 - 1) * (q2 - value**2)
    ) / (n1 * n0)
    return value, math.sqrt(max(var, 0.0))


def truth_rows(spec: SyntheticSpec, n_mc: int = 200_000) -> list[tuple]:
    """Rows for truth.csv: every effect estimand plus per-outcome AUC."""
    rows: list[tuple] = []
    for outcome in OUTCOME_NAMES:
        if outcome not in spec.outcome_models:
            continue
        for treatment in TREATMENT_KEYS:
            for estimand in ("ATE", "ATT"):
                effect = _mc_effect(spec, treatment, outcome, n_mc, estimand)
                if effect is not None:  # ATT undefined for an arm that is never assigned
                    rows.append((estimand, treatment, outcome, *effect))
    for outcome in OUTCOME_NAMES:
        if outcome not in spec.outcome_models:
            continue
        try:
            value, se = _mc_auc(spec, outcome, n_mc)
        except OneClassError:
            continue  # AUC undefined: every draw has one outcome
        rows.append(("AUC", "", outcome, value, se))
    return rows


def write_truth_csv(path, spec: SyntheticSpec, n_mc: int = 200_000) -> None:
    write_csv(
        path,
        ("estimand", "treatment", "outcome", "value", "mc_se"),
        truth_rows(spec, n_mc),
    )
