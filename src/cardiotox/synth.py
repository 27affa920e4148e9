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

import math
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import evaluate
from .cohort import CSV_HEADERS, DEFAULT_CODE_MAP_ROWS, DrugClass, Treatment, iso_date
from .errors import InvalidSpecError, OneClassError, read_json_object, require_known, require_type
from .glm import sigmoid
from .preprocess import CONDITION_FIELDS, LAB_FIELDS, OUTCOME_NAMES, TREATMENT_DUMMIES
from .preprocess import Baselines
from .rng import SplitMix64, derive_seed
from .tableio import write_columns, write_csv

TREATMENT_KEYS = tuple(arm.value for arm in TREATMENT_DUMMIES)

AGE_MIN = 18
AGE_MAX = 100
MAX_N = 1_000_000  # patients one spec may ask for, and Monte Carlo draws of its truth
TROPONIN_OBS_VALUE = 0.05
INDEX_DATE = date(2018, 6, 15)
DATA_SPAN = timedelta(days=730)  # index date to end of data, unless a spec sets end_of_data

_MEDICATION_SLOTS = tuple(cls.value.lower() for cls in DrugClass)
_BINARY_SLOTS = frozenset(("troponin",) + CONDITION_FIELDS + _MEDICATION_SLOTS)

# Canonical filler order; declared covariates are skipped.
FILLER_SLOTS = ("age", *LAB_FIELDS, "troponin", *CONDITION_FIELDS, *_MEDICATION_SLOTS)


@dataclass(frozen=True)
class CovariateSpec:
    name: str
    dist: str  # normal | bernoulli | lognormal
    mu: float = 0.0
    sigma: float = 1.0
    p: float = 0.5


DEFAULT_FILLERS: dict[str, CovariateSpec] = {c.name: c for c in (
    CovariateSpec("age", "normal", 57.5, 12.0),
    CovariateSpec("sbp", "normal", 126.0, 15.0),
    CovariateSpec("dbp", "normal", 74.0, 10.0),
    CovariateSpec("bmi", "normal", 28.5, 6.0),
    CovariateSpec("hdl", "normal", 65.0, 15.0),
    CovariateSpec("ldl", "normal", 112.0, 20.0),
    CovariateSpec("hba1c", "normal", 6.0, 0.8),
    CovariateSpec("triglyceride", "normal", 128.0, 44.0),
    CovariateSpec("troponin", "bernoulli", p=0.04),
    CovariateSpec("hypertension", "bernoulli", p=0.30),
    CovariateSpec("diabetes", "bernoulli", p=0.165),
    CovariateSpec("hyperlipidemia", "bernoulli", p=0.24),
    CovariateSpec("insulin", "bernoulli", p=0.043),
    CovariateSpec("metformin", "bernoulli", p=0.047),
    CovariateSpec("statin", "bernoulli", p=0.217),
    CovariateSpec("ace_inhibitor", "bernoulli", p=0.155),
    CovariateSpec("arb", "bernoulli", p=0.09),
    CovariateSpec("antihypertensive_combination", "bernoulli", p=0.036),
    CovariateSpec("vasodilator", "bernoulli", p=0.175),
    CovariateSpec("antiarrhythmic", "bernoulli", p=0.049),
    CovariateSpec("beta_blocker", "bernoulli", p=0.223),
    CovariateSpec("calcium_blocker", "bernoulli", p=0.123),
    CovariateSpec("diuretic", "bernoulli", p=0.10),
    CovariateSpec("antihyperlipidemic_other", "bernoulli", p=0.017),
)}

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
class TreatmentModel:
    kind: str  # randomized | logistic
    p_chemo: float = 0.0
    p_targeted: float = 0.0
    chemo_vs_rest: dict[str, float] = field(default_factory=dict)
    targeted_vs_radiation: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class EventLayout:
    index_date: date = INDEX_DATE
    end_of_data: date = INDEX_DATE + DATA_SPAN
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


@dataclass(frozen=True)
class SyntheticCohort:
    spec: SyntheticSpec
    patient_ids: tuple[str, ...]
    values: dict[str, np.ndarray]        # declared covariates, then fillers; modeled values
    treatments: np.ndarray               # array of Treatment
    outcomes: dict[str, np.ndarray]      # outcome name -> bool array


# ---------------------------------------------------------------------------
# Spec parsing and validation


_SPEC_KEYS = ("n", "seed", "covariates", "treatment_model", "outcome_models", "event_layout")
_JSON_TYPES = {kind.__name__: kind for kind in (str, float, int, bool)}


def _typed(name: str, value, kind: type):
    """``value`` as ``kind``; InvalidSpecError unless of that JSON type and, as a number, finite."""
    require_type(name, value, kind, InvalidSpecError)
    try:
        typed = kind(value)
    except OverflowError:  # an integer beyond the float range
        raise InvalidSpecError(f"{name} is out of range, got {value!r}") from None
    if kind is float and not math.isfinite(typed):
        raise InvalidSpecError(f"{name} must be a finite number, got {typed!r}")
    return typed


def _read(cls, raw, where: str, names: frozenset[str] = frozenset()):
    """A ``cls`` from the JSON object ``raw``, each key of the type its field declares.

    A date is an ISO string, and a coefficient map may name ``names`` and the
    intercept. A key that names no field is refused; an absent field takes its
    dataclass default, and a field without one is required.
    """
    if not isinstance(raw, dict):
        raise InvalidSpecError(f"{where} must be an object")
    kinds = {f.name: f.type for f in dataclass_fields(cls)}
    require_known(raw, kinds, InvalidSpecError, f" in {where}")
    for f in dataclass_fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise InvalidSpecError(f"{where} needs '{f.name}'")
    values = {}
    for key, value in raw.items():
        if kinds[key] == "dict[str, float]":
            values[key] = _parse_coefs(value, names, key)
        elif kinds[key] == "date":
            try:
                values[key] = iso_date(_typed(f"{where}.{key}", value, str))
            except ValueError as err:
                raise InvalidSpecError(f"bad date in {where}: {err}") from None
        else:
            values[key] = _typed(f"{where}.{key}", value, _JSON_TYPES[kinds[key]])
    return cls(**values)


def parse_spec(raw: dict) -> SyntheticSpec:
    if not isinstance(raw, dict):
        raise InvalidSpecError("spec must be a JSON object")
    require_known(raw, _SPEC_KEYS, InvalidSpecError)
    n = _typed("n", raw.get("n"), int)
    seed = _typed("seed", raw.get("seed"), int)
    if not 1 <= n <= MAX_N:
        raise InvalidSpecError(f"n must be in [1, {MAX_N}], got {n}")

    covariates = tuple(_parse_covariate(c, f"covariates[{i}]") for i, c in enumerate(
        _typed("covariates", raw.get("covariates", []), list)))
    names = [c.name for c in covariates]
    if len(set(names)) != len(names):
        raise InvalidSpecError("covariate names must be unique")

    treatment_model = _parse_treatment_model(raw.get("treatment_model", {}), frozenset(names))

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
    return parse_spec(read_json_object(path, "spec", InvalidSpecError)[0])


def _parse_covariate(raw, where: str) -> CovariateSpec:
    c = _read(CovariateSpec, raw, where)
    c = replace(c, dist=c.dist.lower())
    if c.name not in FILLER_SLOTS:
        raise InvalidSpecError(f"'{c.name}' is not a recognized feature slot")
    if c.name in _BINARY_SLOTS:
        if c.dist != "bernoulli":
            raise InvalidSpecError(f"binary slot '{c.name}' must use the bernoulli distribution")
    elif c.dist not in ("normal", "lognormal"):
        raise InvalidSpecError(f"continuous slot '{c.name}' must be normal or lognormal")
    if not 0.0 <= c.p <= 1.0:
        raise InvalidSpecError(f"p for '{c.name}' must be in [0, 1], got {c.p}")
    if c.sigma < 0:
        raise InvalidSpecError(f"sigma for '{c.name}' must be >= 0")
    return c


def _parse_coefs(raw, allowed: set[str], label: str) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise InvalidSpecError(f"{label} must map names to coefficients")
    coefs: dict[str, float] = {}
    for key, value in raw.items():
        if key != "intercept" and key not in allowed:
            raise InvalidSpecError(f"{label} references undeclared name '{key}'")
        coefs[key] = _typed(f"{label} coefficient '{key}'", value, float)
    return coefs


def _parse_treatment_model(raw, covariate_names: frozenset[str]) -> TreatmentModel:
    model = _read(TreatmentModel, raw, "treatment_model", covariate_names)
    model = replace(model, kind=model.kind.lower())
    if model.kind not in ("randomized", "logistic"):
        raise InvalidSpecError(f"unknown treatment model kind '{model.kind}'")
    if min(model.p_chemo, model.p_targeted) < 0 or model.p_chemo + model.p_targeted > 1.0:
        raise InvalidSpecError("p_chemo and p_targeted must be >= 0 and sum <= 1")
    return model


def _parse_layout(raw) -> EventLayout:
    layout = _read(EventLayout, raw, "event_layout")
    index = layout.index_date
    if layout.observation_days_before <= 0 or layout.diagnosis_days_before <= 0:
        raise InvalidSpecError("pre-index offsets must be positive")
    if layout.medication_days_after < 0 or layout.outcome_days_after <= 0:
        raise InvalidSpecError("post-index offsets must be positive")
    try:  # every event date, the oldest birth date and the default end of data must exist
        index - timedelta(days=max(layout.observation_days_before, layout.diagnosis_days_before))
        index + timedelta(days=max(layout.medication_days_after, layout.outcome_days_after))
        date(index.year - AGE_MAX, 1, 1)
        if "end_of_data" not in raw:
            layout = replace(layout, end_of_data=index + DATA_SPAN)
    except (OverflowError, ValueError):
        raise InvalidSpecError("event_layout puts dates outside the calendar") from None
    if layout.index_date + timedelta(days=layout.outcome_days_after) > layout.end_of_data:
        raise InvalidSpecError("outcome offset falls after end_of_data")
    return layout


# ---------------------------------------------------------------------------
# Sampling


def _sample_slot(c: CovariateSpec, rng: SplitMix64, n: int) -> np.ndarray:
    if c.dist == "bernoulli":
        return rng.bernoulli(c.p, n).astype(np.float64)
    with np.errstate(over="ignore"):  # draws beyond the float range fail below
        if c.dist == "normal":
            raw = c.mu + c.sigma * rng.normal(n)
        elif c.dist == "lognormal":
            raw = np.exp(c.mu + c.sigma * rng.normal(n))
        else:  # pragma: no cover - guarded by validation
            raise InvalidSpecError(f"unknown distribution '{c.dist}'")
    if c.name == "age":
        return np.clip(np.floor(raw), AGE_MIN, AGE_MAX)
    if not np.isfinite(raw).all():
        raise InvalidSpecError(f"draws of '{c.name}' overflow the float range")
    return np.maximum(raw, 0.0)


def _sample_covariates(spec: SyntheticSpec, rng: SplitMix64, n: int) -> dict[str, np.ndarray]:
    return {c.name: _sample_slot(c, rng, n) for c in spec.covariates}


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


def _assignment_probabilities(model: TreatmentModel, values: dict[str, np.ndarray], n: int):
    """Per draw of a logistic model: P(chemotherapy), and P(targeted) among the rest."""
    return (sigmoid(_linear_predictor(model.chemo_vs_rest, values, n)),
            sigmoid(_linear_predictor(model.targeted_vs_radiation, values, n)))


def _sample_treatments(
    model: TreatmentModel, values: dict[str, np.ndarray], rng: SplitMix64, n: int
) -> np.ndarray:
    if model.kind == "randomized":
        u = rng.uniform(n)
        chemo, targeted = u < model.p_chemo, u < model.p_chemo + model.p_targeted
    else:
        p_chemo, p_targeted = _assignment_probabilities(model, values, n)
        u1, u2 = rng.uniform(n), rng.uniform(n)
        chemo, targeted = u1 < p_chemo, (u1 >= p_chemo) & (u2 < p_targeted)
    arms = np.full(n, Treatment.RADIATION, dtype=object)
    arms[targeted] = Treatment.TARGETED
    arms[chemo] = Treatment.CHEMOTHERAPY
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
    p_chemo, p_targ_given_rest = _assignment_probabilities(model, values, n)
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

    if spec.layout.fill_defaults:
        for slot in FILLER_SLOTS:
            if slot not in values:
                values[slot] = _sample_slot(DEFAULT_FILLERS[slot], rng, n)
    elif "age" not in values:
        values["age"] = np.full(n, 55.0)

    width = max(6, len(str(n)))
    ids = tuple(f"S{i:0{width}d}" for i in range(1, n + 1))
    return SyntheticCohort(
        spec=spec,
        patient_ids=ids,
        values=values,
        treatments=treatments,
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# Event emission


# Patients whose rows are built and written together; no byte depends on it.
_PATIENT_BLOCK = 4096


def _birth_date(index: date, age_years: int) -> date:
    try:
        return index.replace(year=index.year - age_years)
    except ValueError:  # Feb 29 anchored on a non-leap birth year
        return index.replace(year=index.year - age_years, day=28)


def _slot_matrix(values: dict[str, np.ndarray], slots: tuple[str, ...], rows: slice, n: int):
    """The values of ``slots`` for the ``n`` patients ``rows``, as a patients × slots matrix."""
    if missing := [slot for slot in slots if slot not in values]:
        raise InvalidSpecError(f"cohort has no values for slot '{missing[0]}'")
    return np.column_stack([values[slot][rows] for slot in slots] or [np.empty((n, 0))])


def write_cohort(sc: SyntheticCohort, outdir: str | Path) -> None:
    """Emit the five cohort CSVs plus the default code map.

    Tables are written a block of patients at a time, so memory does not grow
    with n. An event table's rows are the set cells of a patients × slots
    matrix, by patient, then by slot. Observation values use shortest
    round-trip float formatting so the pipeline recovers the sampled values
    bit-exactly; analysis reports keep the 10-significant-digit convention.
    """
    outdir = Path(outdir)
    layout = sc.spec.layout
    index = layout.index_date
    obs_date, dx_date, med_date, out_date = (
        (index + timedelta(days=days)).isoformat() for days in (
            -layout.observation_days_before, -layout.diagnosis_days_before,
            layout.medication_days_after, layout.outcome_days_after))
    values = {**sc.values, **sc.outcomes}
    blocks = [slice(i, i + _PATIENT_BLOCK) for i in range(0, len(sc.patient_ids), _PATIENT_BLOCK)]
    observed, diagnosed, medicated = (tuple(slot for slot in slots if slot in values) for slots in (
        LAB_FIELDS + ("troponin",), CONDITION_FIELDS + OUTCOME_NAMES, _MEDICATION_SLOTS))
    lab = np.isin(observed, LAB_FIELDS)  # a row of every lab, and of troponin where flagged
    # ages are whole years in [AGE_MIN, AGE_MAX]
    births = np.array([_birth_date(index, age).isoformat() for age in range(AGE_MIN, AGE_MAX + 1)])

    def events(ids: np.ndarray, has: np.ndarray, *cells) -> list:
        """Rows where ``has`` is set: a list cell holds a text per slot, an array a float
        per patient and slot."""
        patient, slot = np.nonzero(has)
        return [ids[patient], *(
            list(map(repr, c[patient, slot].tolist())) if isinstance(c, np.ndarray)
            else np.array(c, dtype=object)[slot] for c in cells)]

    def observations(ids: np.ndarray, rows: slice) -> list:
        x = _slot_matrix(values, observed, rows, len(ids))
        return events(ids, lab | (x == 1.0), [obs_date] * len(observed),
                      [slot.upper() for slot in observed], np.where(lab, x, TROPONIN_OBS_VALUE))

    for name, columns in (
        ("patients", lambda ids, rows: [
            ids, births[values["age"][rows].astype(np.intp) - AGE_MIN], ["F"] * len(ids)]),
        ("observations", observations),
        ("diagnoses", lambda ids, rows: events(
            ids, _slot_matrix(values, diagnosed, rows, len(ids)) == 1.0,
            [dx_date if slot in CONDITION_FIELDS else out_date for slot in diagnosed],
            ["ICD10"] * len(diagnosed), [_DIAGNOSIS_CODES[slot] for slot in diagnosed])),
        ("medications", lambda ids, rows: events(
            ids, _slot_matrix(values, medicated, rows, len(ids)) == 1.0,
            [med_date] * len(medicated), [slot.upper() for slot in medicated])),
        ("treatments", lambda ids, rows: [
            ids, [index.isoformat()] * len(ids), [arm.value for arm in sc.treatments[rows]]]),
    ):
        write_columns(outdir / f"{name}.csv", CSV_HEADERS[name], (
            columns(np.array(sc.patient_ids[rows], dtype=object), rows) for rows in blocks))
    write_csv(outdir / "code_map.csv", CSV_HEADERS["code_map"], DEFAULT_CODE_MAP_ROWS)


def to_features(sc: SyntheticCohort) -> Baselines:
    """The feature table straight from the sampled values.

    Bypasses file emission for simulation loops; must stay exactly equivalent
    to generate -> write_cohort -> load_cohort -> compute_features, which the
    test suite asserts. The derived flags come from ``Baselines.columns``, as
    in preprocessing. Requires a fully filled cohort.
    """
    age, labs, troponin, conditions, medications = (
        _slot_matrix(sc.values, slots, slice(None), len(sc.patient_ids))
        for slots in (("age",), LAB_FIELDS, ("troponin",), CONDITION_FIELDS, _MEDICATION_SLOTS))
    return Baselines(
        sc.patient_ids,
        age[:, 0],
        labs,
        troponin[:, 0] != 0.0,
        conditions != 0.0,
        medications != 0.0,
        sc.treatments,
        np.column_stack([sc.outcomes[name] for name in OUTCOME_NAMES]),
    )


# ---------------------------------------------------------------------------
# Oracles


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
    rng = SplitMix64(derive_seed(spec.seed, _TRUTH_COV_TAG))
    values = _sample_covariates(spec, rng, n_mc)
    weights = _arm_probabilities(spec.treatment_model, values, n_mc)[Treatment(treatment)]
    w_mean = float(np.mean(weights))
    if estimand == "ATT" and w_mean <= 0.0:
        return None  # ATT undefined: the arm is never assigned
    if all(key in ("intercept",) + TREATMENT_KEYS for key in coefs):  # no covariates
        value = float(sigmoid(np.array([b_0 + b_t]))[0] - sigmoid(np.array([b_0]))[0])
        return value, 0.0

    eta_base = _linear_predictor(coefs, values, n_mc)
    with np.errstate(over="ignore"):  # checked by _finite
        diff = sigmoid(_finite(eta_base + b_t)) - sigmoid(eta_base)

    if estimand == "ATE":
        return float(np.mean(diff)), float(np.std(diff, ddof=1) / math.sqrt(n_mc))
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
