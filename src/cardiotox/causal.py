"""Treatment-effect estimation by outcome-regression standardization.

One logistic outcome model is fit on the whole cohort with chemotherapy and
targeted-therapy dummies (radiation is the reference arm). Counterfactual
probabilities are produced by toggling the dummies while holding covariates at
observed values; averaging their differences gives the average treatment
effect (over everyone) and the effect on the treated (over one arm).
Uncertainty comes from resampling patients with replacement and repeating the
whole fit. A resample is fitted as frequency weights on the original rows
(how often each patient was drawn), and the replicates of one outcome are
fitted together, in blocks, by ``glm.fit_logistic_counts``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import glm
from .errors import (
    ConfigError,
    MissingArmError,
    StatisticalError,
    TooManyBootFailuresError,
)
from .preprocess import (
    BaselineFeatures,
    FEATURE_SETS,
    FeatureMatrix,
    TREATMENT_DUMMIES,
    Treatment,
    build_matrix,
)
from .rng import SplitMix64
from .tableio import write_csv

ESTIMANDS = ("ATE", "ATT")
EFFECT_TREATMENTS = tuple(TREATMENT_DUMMIES)


def outcome_covariates(outcome_model: tuple[str, ...]) -> tuple[str, ...]:
    """An outcome model's predictors other than the treatment dummies themselves."""
    return tuple(name for name in outcome_model if name != "treatment")


DEFAULT_COVARIATES: tuple[str, ...] = outcome_covariates(FEATURE_SETS["OUTCOME_MODEL"])

MIN_BOOTSTRAP = 100
BOOTSTRAP_SUCCESS_FLOOR = 0.95
# Replicates drawn and fitted together. Working memory grows with it (several
# arrays of REPLICATE_BLOCK x n floats), so it stays small and fixed.
REPLICATE_BLOCK = 16


@dataclass(frozen=True)
class EffectEstimate:
    treatment: str
    outcome: str
    estimand: str
    point: float
    boot_se: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    n_boot_requested: int = 0
    n_boot_succeeded: int = 0
    seed: int | None = None


def build_causal_matrix(
    features: Sequence[BaselineFeatures],
    outcome: str,
    covariates: tuple[str, ...] | None = None,
) -> FeatureMatrix:
    """Design matrix ordered intercept, treatment dummies, then covariates."""
    if covariates is None:
        covariates = DEFAULT_COVARIATES
    return build_matrix(features, ("treatment",) + tuple(covariates), outcome)


def _dummy_columns(fm: FeatureMatrix) -> dict[Treatment, int]:
    """The column index of each treated arm's dummy in ``fm``."""
    return {arm: fm.column_names.index(name) for arm, name in TREATMENT_DUMMIES.items()}


def _arm_masks(fm: FeatureMatrix) -> dict[Treatment, np.ndarray]:
    """Rows of each arm; radiation rows are those with no treated dummy set."""
    masks = {arm: fm.X[:, col] == 1.0 for arm, col in _dummy_columns(fm).items()}
    masks[Treatment.RADIATION] = ~np.any(list(masks.values()), axis=0)
    return masks


def _counterfactual_diffs(fm: FeatureMatrix, beta: np.ndarray) -> dict[Treatment, np.ndarray]:
    """Per-row risk difference, treated minus reference, for each treatment.

    ``beta`` is one coefficient vector or a (p, fits) matrix; the result has
    shape (n, fits), one column per fit.
    """
    columns = _dummy_columns(fm)
    X_cf = fm.X.copy()
    X_cf[:, list(columns.values())] = 0.0
    p_ref = glm.predict_beta(beta, X_cf)
    out = {}
    for treatment, col in columns.items():
        X_cf[:, col] = 1.0
        out[treatment] = (glm.predict_beta(beta, X_cf) - p_ref).reshape(fm.n, -1)
        X_cf[:, col] = 0.0
    return out


def effects_from_model(
    model: glm.LogisticModel, fm: FeatureMatrix, arms_only: bool = False
) -> dict[tuple[str, str], float]:
    """Counterfactual-difference means from one fitted model.

    Returns {(treatment, estimand): risk difference}. ``arms_only`` restricts
    the ATE average to the treated arm plus the reference arm instead of the
    whole cohort.
    """
    means = _weighted_effects(fm, model.beta, np.ones((1, fm.n)), arms_only)
    return {key: float(value[0]) for key, value in means.items()}


def _weighted_effects(
    fm: FeatureMatrix, beta: np.ndarray, counts: np.ndarray, arms_only: bool
) -> dict[tuple[str, str], np.ndarray]:
    """``effects_from_model`` for one or many fits, as count-weighted means.

    Column b of ``beta`` was fitted with row b of ``counts`` as frequency
    weights (how often each row was drawn); its effects average over the same
    weighted rows, which is the plain mean over the resampled patients.
    """
    masks = _arm_masks(fm)
    out: dict[tuple[str, str], np.ndarray] = {}
    for treatment, diff in _counterfactual_diffs(fm, beta).items():
        ate_rows = masks[treatment] | masks[Treatment.RADIATION] if arms_only else slice(None)
        for estimand, rows in (("ATE", ate_rows), ("ATT", masks[treatment])):
            out[(treatment.value, estimand)] = _weighted_mean(diff[rows].T, counts[:, rows])
    return out


def _weighted_mean(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row-wise count-weighted means of (fits, rows) values.

    A row whose values are all equal averages to that value exactly:
    no-covariate models then keep ATE == ATT bitwise. Equality is tested over
    all values, drawn or not (a row equal everywhere is also equal on its drawn
    values). A row equal on its drawn values only gets the weighted mean, which
    may differ from that value in the last bits; for counterfactual differences
    that needs drawn patients with identical covariates, or exactly-zero
    covariate coefficients.
    """
    means = np.sum(counts * values, axis=1) / np.sum(counts, axis=1)
    first = values[:, 0]
    return np.where((values == first[:, None]).all(axis=1), first, means)


def _fit_and_estimate(
    fm: FeatureMatrix, arms_only: bool, eliminate_alpha: float | None
) -> tuple[glm.LogisticModel, dict[tuple[str, str], float]]:
    """The full-sample model and its effects; MissingArmError before any fit."""
    masks = _arm_masks(fm)
    missing = [t.value for t in Treatment if not np.any(masks[t])]
    if missing:
        raise MissingArmError(f"no patients in arm(s): {', '.join(missing)}")
    if eliminate_alpha is None:
        model = glm.fit_logistic(fm)
    else:
        # Elimination prunes covariates only: the estimand needs the dummies.
        model = glm.backward_eliminate(
            fm, eliminate_alpha, protected=frozenset({"intercept", *TREATMENT_DUMMIES.values()})
        ).final_model
        fm = fm.select_columns(model.column_names)
    return model, effects_from_model(model, fm, arms_only)


def estimate_effects(
    features: Sequence[BaselineFeatures],
    outcome: str,
    covariates: tuple[str, ...] | None = None,
    *,
    arms_only: bool = False,
    eliminate_alpha: float | None = None,
) -> list[EffectEstimate]:
    """Point estimates of ATE and ATT for both treatments on one outcome."""
    fm = build_causal_matrix(features, outcome, covariates)
    _, points = _fit_and_estimate(fm, arms_only, eliminate_alpha)
    return [
        EffectEstimate(
            treatment=t.value, outcome=outcome, estimand=est, point=points[(t.value, est)]
        )
        for t in EFFECT_TREATMENTS
        for est in ESTIMANDS
    ]


def bootstrap_effects(
    features: Sequence[BaselineFeatures],
    outcome: str,
    covariates: tuple[str, ...] | None = None,
    *,
    n_boot: int = 1000,
    seed: int,
    arms_only: bool = False,
    eliminate_alpha: float | None = None,
) -> list[EffectEstimate]:
    """Point estimates plus percentile CIs from patient-level resampling.

    Replicate b resamples n patients with replacement: the b-th block of n
    draws from the seed's stream, whatever the block size, so the results do
    not depend on how replicates are grouped. A replicate is fitted as
    frequency weights on the original rows (how often each patient was drawn),
    which is the fit on the resampled rows; blocks of replicates are fitted
    together in lockstep, each from its one-step estimate off the full-sample
    optimum, and their effects are count-weighted means. With elimination each
    replicate's column set differs, so those replicates are refitted one at a
    time on resampled rows.
    Replicates that fail statistically are skipped and counted; more than 5%
    failures abort with the failure taxonomy.
    """
    if n_boot < MIN_BOOTSTRAP:
        raise ConfigError(f"bootstrap needs at least {MIN_BOOTSTRAP} replicates, got {n_boot}")
    fm = build_causal_matrix(features, outcome, covariates)
    full_model, full_points = _fit_and_estimate(fm, arms_only, eliminate_alpha)
    if eliminate_alpha is None:
        residuals = fm.y - glm.predict_beta(full_model.beta, fm.X)
        terms = glm.InformationTerms(fm.X)

    rng = SplitMix64(seed)
    draws: dict[tuple[str, str], list[np.ndarray]] = {key: [] for key in full_points}
    failures: dict[str, int] = {}
    succeeded = 0
    for first in range(0, n_boot, REPLICATE_BLOCK):
        block = min(REPLICATE_BLOCK, n_boot - first)
        index = rng.integers(fm.n, block * fm.n).reshape(block, fm.n)
        if eliminate_alpha is not None:
            points, codes = _eliminated_replicates(fm, index, arms_only, eliminate_alpha)
        else:
            index += np.arange(block)[:, None] * fm.n
            counts = np.bincount(index.ravel(), minlength=block * fm.n)
            del index
            counts = counts.reshape(block, fm.n).astype(np.float64)
            points, codes = _weighted_replicates(fm, counts, full_model, residuals, terms,
                                                 arms_only)
        for code in codes:
            if code is not None:
                failures[code] = failures.get(code, 0) + 1
        succeeded += codes.count(None)
        for key, values in points.items():
            draws[key].append(values)

    if succeeded < BOOTSTRAP_SUCCESS_FLOOR * n_boot:
        raise TooManyBootFailuresError(n_boot, succeeded, failures)

    estimates = []
    for t in EFFECT_TREATMENTS:
        for est in ESTIMANDS:
            values = np.concatenate(draws[(t.value, est)])
            ci_low, ci_high = np.percentile(values, [2.5, 97.5], method="linear")
            estimates.append(
                EffectEstimate(
                    treatment=t.value,
                    outcome=outcome,
                    estimand=est,
                    point=full_points[(t.value, est)],
                    boot_se=float(np.std(values, ddof=1)),
                    ci_low=float(ci_low),
                    ci_high=float(ci_high),
                    n_boot_requested=n_boot,
                    n_boot_succeeded=succeeded,
                    seed=seed,
                )
            )
    return estimates


def _weighted_replicates(
    fm: FeatureMatrix,
    counts: np.ndarray,
    full_model: glm.LogisticModel,
    residuals: np.ndarray,
    terms: glm.InformationTerms,
    arms_only: bool,
) -> tuple[dict[tuple[str, str], np.ndarray], list[str | None]]:
    """Effects of the successful replicates in one block, and each one's error code.

    Fit b starts from its one-step estimate ``β̂ + Σ̂ Xᵀ(counts[b] ∘ residuals)``, one
    Newton step from the full-sample optimum β̂ with its covariance Σ̂, where
    ``residuals`` is y minus the probabilities at β̂ (Moulton & Zeger 1991).
    """
    codes: list[str | None] = [None] * len(counts)
    arm_counts = np.column_stack([counts @ rows for rows in _arm_masks(fm).values()])
    for b in np.flatnonzero(np.any(arm_counts == 0.0, axis=1)):
        codes[b] = MissingArmError.code
    fitted = np.array([b for b, code in enumerate(codes) if code is None], dtype=np.int64)
    if len(fitted) < len(counts):
        counts = counts[fitted]
    start = full_model.beta + ((counts * residuals) @ fm.X) @ full_model.covariance
    betas, fit_codes = glm.fit_logistic_counts(fm.X, fm.y, counts, start, terms)
    for b, code in zip(fitted, fit_codes):
        codes[b] = code
    ok = np.array([code is None for code in fit_codes], dtype=bool)
    return _weighted_effects(fm, betas[ok].T, counts[ok], arms_only), codes


def _eliminated_replicates(
    fm: FeatureMatrix, index: np.ndarray, arms_only: bool, eliminate_alpha: float
) -> tuple[dict[tuple[str, str], np.ndarray], list[str | None]]:
    """Per-replicate refits with elimination on resampled rows, for one block."""
    values: dict[tuple[str, str], list[float]] = {}
    codes: list[str | None] = []
    for idx in index:
        try:
            _, points = _fit_and_estimate(fm.subset_rows(idx), arms_only, eliminate_alpha)
        except StatisticalError as err:
            codes.append(err.code)
            continue
        codes.append(None)
        for key, value in points.items():
            values.setdefault(key, []).append(value)
    return {key: np.asarray(v) for key, v in values.items()}, codes


def write_effects_csv(path, estimates: list[EffectEstimate]) -> None:
    """One row per estimate, a column per field but ``n_boot_requested``; an unset value is NA."""
    columns = [f.name for f in fields(EffectEstimate) if f.name != "n_boot_requested"]
    write_csv(path, columns, [
        ["NA" if value is None else value for value in (getattr(e, name) for name in columns)]
        for e in estimates
    ])
