"""Maximum-likelihood logistic regression with Wald inference.

Fitting is Newton-type iteratively reweighted least squares with step-halving
when the deviance would increase. Standard errors come from the inverse
observed information at the optimum. Backward elimination repeatedly drops the
least significant predictor until everything left clears the stay threshold.
``fit_logistic_counts`` runs many frequency-weighted fits of one design matrix
in lockstep (bootstrap replicates), with the same checks as ``fit_logistic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateOutcomeError,
    DimensionMismatchError,
    NotConvergedError,
    SeparationError,
    SingularInformationError,
    ZeroSeError,
)
from .preprocess import FeatureMatrix
from .tableio import write_csv

MAX_ITERATIONS = 100
BETA_TOL = 1e-8
DEVIANCE_TOL = 1e-10
SINGULAR_RTOL = 1e-12
SEPARATION_PROB_EPS = 1e-10
SEPARATION_BETA_BOUND = 20.0
MAX_STEP_HALVINGS = 20

# Smallest positive probability reported; keeps predictions inside (0, 1).
_PROB_FLOOR = 5e-324
_PROB_CEIL = 1.0 - 2.0**-53


@dataclass(frozen=True)
class LogisticModel:
    column_names: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    covariance: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    n: int


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[tuple[str, float], ...]
    final_model: LogisticModel
    full_model: LogisticModel


def sigmoid(eta: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable standard logistic function."""
    eta = np.asarray(eta, dtype=np.float64)
    # exp(-eta) where eta >= 0 and exp(eta) elsewhere: never overflows
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    # y*eta - log(1 + exp(eta)), evaluated stably
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def find_collinear_columns(X: np.ndarray, names: tuple[str, ...]) -> tuple[str, ...]:
    """Columns linearly dependent on the columns before them."""
    offenders = []
    rank = 0
    for j in range(X.shape[1]):
        new_rank = np.linalg.matrix_rank(X[:, : j + 1])
        if new_rank == rank:
            offenders.append(names[j])
        rank = new_rank
    return tuple(offenders)


def fit_logistic(fm: FeatureMatrix, *, start: np.ndarray | None = None) -> LogisticModel:
    """Fit by IRLS; raises instead of returning a bad model.

    ``start`` warm-starts the iteration (used by resampling loops); the
    optimum does not depend on it. Each pass checks for separation and a
    singular or ill-conditioned information matrix before it steps; the pass
    after convergence makes the same checks at the optimum.
    """
    X, y = fm.X, fm.y
    n, p = X.shape
    if n <= p:
        raise SingularInformationError(
            f"n={n} rows cannot identify {p} coefficients",
            find_collinear_columns(X, fm.column_names),
        )
    positives = float(np.sum(y))
    if positives == 0.0 or positives == float(n):
        raise DegenerateOutcomeError("outcome has a single class")

    beta = np.zeros(p) if start is None else np.asarray(start, dtype=np.float64).copy()
    if beta.shape != (p,):
        raise DimensionMismatchError(f"start vector has shape {beta.shape}, expected ({p},)")

    eta = X @ beta
    ll = _log_likelihood(eta, y)
    converged = False
    # `iterations` counts the Newton steps taken before this pass
    for iterations in range(MAX_ITERATIONS + 1):
        if iterations == MAX_ITERATIONS and not converged:
            raise NotConvergedError(f"no convergence after {MAX_ITERATIONS} iterations")
        prob = sigmoid(eta)
        if np.any((prob < SEPARATION_PROB_EPS) | (prob > 1.0 - SEPARATION_PROB_EPS)):
            if np.max(np.abs(beta)) > SEPARATION_BETA_BOUND:
                raise SeparationError(
                    "fitted probabilities pinned at 0/1 with diverging coefficients"
                )
        weights = prob * (1.0 - prob)
        info = (X * weights[:, None]).T @ X
        chol = _cholesky_checked(info, X, fm.column_names)
        if converged:
            break

        score = X.T @ (y - prob)
        delta = np.linalg.solve(chol.T, np.linalg.solve(chol, score))
        step = 1.0
        new_beta = beta + delta
        new_eta = X @ new_beta
        new_ll = _log_likelihood(new_eta, y)
        halvings = 0
        while (not math.isfinite(new_ll) or new_ll < ll) and halvings < MAX_STEP_HALVINGS:
            step *= 0.5
            halvings += 1
            new_beta = beta + step * delta
            new_eta = X @ new_beta
            new_ll = _log_likelihood(new_eta, y)

        beta_change = float(np.max(np.abs(new_beta - beta)))
        dev_change = abs(-2.0 * new_ll - (-2.0 * ll)) / (abs(-2.0 * ll) + 1.0)
        beta, eta, ll = new_beta, new_eta, new_ll
        converged = beta_change < BETA_TOL or dev_change < DEVIANCE_TOL

    covariance = np.linalg.inv(info)
    covariance = (covariance + covariance.T) / 2.0
    return LogisticModel(
        column_names=fm.column_names,
        beta=beta,
        se=np.sqrt(np.diag(covariance)),
        covariance=covariance,
        log_likelihood=ll,
        iterations=iterations,
        converged=True,
        n=n,
    )


def _cholesky_checked(info: np.ndarray, X: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """Cholesky factor of the information matrix; raises if it is singular or ill-conditioned."""
    try:
        chol = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise SingularInformationError(
            "information matrix is not positive definite",
            find_collinear_columns(X, names),
        ) from None
    eigvals = np.linalg.eigvalsh(info)
    if eigvals[-1] <= 0.0 or eigvals[0] <= eigvals[-1] * SINGULAR_RTOL:
        raise SingularInformationError(
            "information matrix is singular at working tolerance",
            find_collinear_columns(X, names),
        )
    return chol


def pairwise_products(X: np.ndarray) -> np.ndarray:
    """Column products ``X[:, i] * X[:, j]`` for i <= j, in ``np.triu_indices`` order.

    A weight row times this matrix is the upper triangle of ``X.T @ diag(w) @ X``,
    so one matrix product gives the information matrices of many fits.
    Columns are written one at a time into one array to keep peak memory at
    the size of the result.
    """
    n, p = X.shape
    rows, cols = np.triu_indices(p)
    X = np.asfortranarray(X)
    products = np.empty((n, len(rows)), order="F")
    for k, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(X[:, i], X[:, j], out=products[:, k])
    return products


def fit_logistic_counts(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    start: np.ndarray,
    products: np.ndarray,
) -> tuple[np.ndarray, list[str | None]]:
    """Fit one model per row of ``counts``, all in lockstep on the same ``X``.

    ``counts[b, i]`` is how often row i enters fit b, so fit b is the fit of
    ``fit_logistic`` on the matrix that repeats each row that often (a
    bootstrap replicate drawn with replacement). Every fit starts from
    ``start`` and has its own step-halving and convergence test, and every
    failure rule of ``fit_logistic`` applies to each fit in the same order.
    Separation is judged on rows with a positive count only. ``products`` is
    ``pairwise_products(X)``, which callers build once for all their fits.

    Returns the coefficients, shape (fits, p) with NaN rows for failed fits,
    and per fit the code of the error ``fit_logistic`` would raise, or None.
    """
    p = X.shape[1]
    rows, cols = np.triu_indices(p)
    counts = np.asarray(counts, dtype=np.float64)
    beta_out = np.full((len(counts), p), np.nan)
    codes: list[str | None] = [None] * len(counts)

    totals = counts.sum(axis=1)
    positives = counts @ y
    for b in range(len(counts)):
        if totals[b] <= p:
            codes[b] = SingularInformationError.code
        elif positives[b] == 0.0 or positives[b] == totals[b]:
            codes[b] = DegenerateOutcomeError.code

    # State of the fits still running; `fit` maps each to its row of `counts`.
    fit = np.array([b for b, code in enumerate(codes) if code is None], dtype=np.int64)
    C = counts if len(fit) == len(counts) else counts[fit]
    beta = np.tile(np.asarray(start, dtype=np.float64), (len(fit), 1))
    eta = beta @ X.T
    ll = _weighted_log_likelihood(eta, y, C)
    done = np.zeros(len(fit), dtype=bool)

    for iteration in range(MAX_ITERATIONS + 1):
        # A fit marked done stepped to its optimum last round; the checks below
        # are then fit_logistic's checks at the optimum.
        alive = np.ones(len(fit), dtype=bool)
        if iteration == MAX_ITERATIONS:
            _fail(codes, fit, alive, ~done, NotConvergedError.code)
        prob = sigmoid(eta)
        pinned = np.any(
            ((prob < SEPARATION_PROB_EPS) | (prob > 1.0 - SEPARATION_PROB_EPS)) & (C > 0.0),
            axis=1,
        )
        diverging = np.max(np.abs(beta), axis=1) > SEPARATION_BETA_BOUND
        _fail(codes, fit, alive, pinned & diverging, SeparationError.code)
        weights = 1.0 - prob
        weights *= prob
        weights *= C
        info = np.empty((len(fit), p, p))
        upper = weights @ products
        del weights
        info[:, rows, cols] = upper
        info[:, cols, rows] = upper
        chol, singular = _cholesky_each(info)
        eigvals = np.linalg.eigvalsh(info[~singular])
        singular[~singular] = (eigvals[:, -1] <= 0.0) | (
            eigvals[:, 0] <= eigvals[:, -1] * SINGULAR_RTOL
        )
        _fail(codes, fit, alive, singular, SingularInformationError.code)

        beta_out[fit[alive & done]] = beta[alive & done]
        keep = alive & ~done
        if not keep.any():
            break
        fit, C, beta, eta, ll = fit[keep], C[keep], beta[keep], eta[keep], ll[keep]
        chol, prob = chol[keep], prob[keep]

        score = (C * (y - prob)) @ X
        del prob
        z = np.linalg.solve(chol, score[:, :, None])
        delta = np.linalg.solve(np.swapaxes(chol, 1, 2), z)[:, :, 0]

        step = np.ones(len(fit))
        new_beta = beta + delta
        new_eta = new_beta @ X.T
        new_ll = _weighted_log_likelihood(new_eta, y, C)
        halvings = 0
        while halvings < MAX_STEP_HALVINGS:
            retry = ~np.isfinite(new_ll) | (new_ll < ll)
            if not retry.any():
                break
            step[retry] *= 0.5
            halvings += 1
            new_beta[retry] = beta[retry] + step[retry, None] * delta[retry]
            new_eta[retry] = new_beta[retry] @ X.T
            new_ll[retry] = _weighted_log_likelihood(new_eta[retry], y, C[retry])

        beta_change = np.max(np.abs(new_beta - beta), axis=1)
        dev_change = np.abs(-2.0 * new_ll - (-2.0 * ll)) / (np.abs(-2.0 * ll) + 1.0)
        beta, eta, ll = new_beta, new_eta, new_ll
        done = (beta_change < BETA_TOL) | (dev_change < DEVIANCE_TOL)

    return beta_out, codes


def _weighted_log_likelihood(eta: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # log(1 + exp(eta)) as in _log_likelihood, from one exp and one log1p per
    # element, which costs less than logaddexp
    softplus = np.log1p(np.exp(-np.abs(eta)))
    softplus += np.maximum(eta, 0.0)
    return np.sum(counts * (y * eta - softplus), axis=1)


def _fail(codes: list, fit: np.ndarray, alive: np.ndarray, mask: np.ndarray, code: str) -> None:
    """Record ``code`` for the live fits in ``mask`` and mark them failed."""
    hit = alive & mask
    for k in np.flatnonzero(hit):
        codes[fit[k]] = code
    alive &= ~hit


def _cholesky_each(info: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a stack of matrices, and which of them do not exist."""
    try:
        return np.linalg.cholesky(info), np.zeros(len(info), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    chol = np.zeros_like(info)
    failed = np.zeros(len(info), dtype=bool)
    for b, matrix in enumerate(info):
        try:
            chol[b] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            failed[b] = True
    return chol, failed


def predict_prob(model: LogisticModel, x: np.ndarray) -> float:
    """Event probability for one feature row, clipped inside (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.beta.shape:
        raise DimensionMismatchError(
            f"row has {x.shape} entries, model has {model.beta.shape}"
        )
    p = float(sigmoid(float(x @ model.beta)))
    return min(max(p, _PROB_FLOOR), _PROB_CEIL)


def predict_matrix(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Event probabilities for each row of a design matrix."""
    if X.shape[1] != len(model.beta):
        raise DimensionMismatchError(
            f"matrix has {X.shape[1]} columns, model has {len(model.beta)}"
        )
    return predict_beta(model.beta, X)


def predict_beta(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``predict_matrix`` for bare coefficients; a (p, fits) ``beta`` gives one column per fit."""
    prob = sigmoid(X @ beta)
    return np.clip(prob, _PROB_FLOOR, _PROB_CEIL, out=prob)


def normal_two_sided_p(z: float) -> float:
    """Two-sided tail probability of the standard normal."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def wald(model: LogisticModel, j: int | str) -> tuple[float, float]:
    """(z, two-sided p) for one coefficient."""
    if isinstance(j, str):
        j = model.column_names.index(j)
    se = float(model.se[j])
    if not (se > 0.0) or not math.isfinite(se):
        raise ZeroSeError(f"standard error of '{model.column_names[j]}' is not positive")
    z = float(model.beta[j]) / se
    return z, normal_two_sided_p(z)


def backward_eliminate(
    fm: FeatureMatrix, alpha_stay: float, protected: frozenset[str] = frozenset({"intercept"})
) -> EliminationTrace:
    """Drop the largest-p predictor until all remaining p-values <= alpha_stay.

    Columns named in ``protected`` (by default the intercept) are never
    candidates. Exact p-value ties are broken by removing the column declared
    later. The trace keeps the first fit, on all columns, as ``full_model``.
    """
    current = fm
    steps: list[tuple[str, float]] = []
    model = full_model = fit_logistic(current)
    while True:
        worst_j = -1
        worst_p = -1.0
        for j, name in enumerate(current.column_names):
            if name in protected:
                continue
            _, p_value = wald(model, j)
            if p_value >= worst_p:  # >= keeps the later column on ties
                worst_p = p_value
                worst_j = j
        if worst_j < 0 or worst_p <= alpha_stay:
            break
        removed = current.column_names[worst_j]
        steps.append((removed, worst_p))
        kept = tuple(n for n in current.column_names if n != removed)
        current = current.select_columns(kept)
        model = fit_logistic(current)
    return EliminationTrace(steps=tuple(steps), final_model=model, full_model=full_model)


def column_std(fm: FeatureMatrix) -> np.ndarray:
    """Sample standard deviation (ddof=1) per column; 0 for constant columns."""
    if fm.n < 2:
        return np.zeros(fm.p)
    return np.std(fm.X, axis=0, ddof=1)


def normalized_coefficients(model: LogisticModel, fm: FeatureMatrix) -> np.ndarray:
    """Coefficient times sample standard deviation, per column.

    Intercept and constant columns get 0: there is no spread to scale by.
    """
    if fm.column_names != model.column_names:
        raise DimensionMismatchError("matrix columns do not match the fitted model")
    sd = column_std(fm)
    return model.beta * sd


def coefficient_report_rows(model: LogisticModel, fm: FeatureMatrix) -> list[tuple]:
    sd = column_std(fm)
    normalized = normalized_coefficients(model, fm)
    rows = []
    for j, name in enumerate(model.column_names):
        z, p_value = wald(model, j)
        rows.append(
            (
                name,
                float(model.beta[j]),
                float(model.se[j]),
                float(sd[j]),
                float(normalized[j]),
                z,
                p_value,
            )
        )
    return rows


def write_coefficient_report(path, model: LogisticModel, fm: FeatureMatrix) -> None:
    write_csv(
        path,
        ("variable", "coefficient", "std_error", "std_dev", "normalized_coefficient", "z", "p_value"),
        coefficient_report_rows(model, fm),
    )


def write_elimination_trace(path, trace: EliminationTrace) -> None:
    write_csv(
        path,
        ("step", "removed_variable", "p_value"),
        [(i + 1, name, p) for i, (name, p) in enumerate(trace.steps)],
    )
