"""Maximum-likelihood logistic regression with Wald inference.

Fitting is Newton-type iteratively reweighted least squares with step-halving
when the deviance would increase. There is one IRLS loop, ``_irls``. It runs
many frequency-weighted fits of one design matrix in lockstep (bootstrap
replicates, ``fit_logistic_counts``), and a single fit (``fit_logistic``) is
its one-fit case with every count 1. Standard errors come from the inverse
observed information at the optimum. Backward elimination repeatedly drops the
least significant predictor until everything left clears the stay threshold.
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
# P-values this close (relative) are an elimination tie. A fit stopped by the
# deviance test can leave p-values that are equal in exact arithmetic 3e-11 apart.
TIE_RTOL = 1e-9

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
    return _logistic(eta, np.exp(-np.abs(eta)))


def _logistic(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``sigmoid(eta)`` from ``e = exp(-|eta|)``, computed once for the log-likelihood too."""
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


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

    ``start`` warm-starts the iteration (used by resampling loops); the optimum
    does not depend on it. This is ``_irls`` with one fit; its first failed check raises.
    """
    n, p = fm.X.shape
    start = np.zeros(p) if start is None else start
    beta, info, ll, steps, (failure,) = _irls(fm.X, fm.y, np.ones((1, n)), start, None)
    if failure is not None:
        error, message = failure
        if error is SingularInformationError:
            raise error(message, find_collinear_columns(fm.X, fm.column_names))
        raise error(message)
    covariance = np.linalg.inv(info[0])
    covariance = (covariance + covariance.T) / 2.0
    return LogisticModel(
        column_names=fm.column_names,
        beta=beta[0],
        se=np.sqrt(np.diag(covariance)),
        covariance=covariance,
        log_likelihood=float(ll[0]),
        iterations=int(steps[0]),
        converged=True,
        n=n,
    )


class InformationTerms:
    """``X.T @ diag(w) @ X`` for each row ``w`` of a weight block, from terms of ``X`` kept once.

    An indicator column j (every value 0.0 or 1.0, not all ones) adds to the
    information only on its rows where x_j = 1: row and column j are
    ``w[rows_j] @ X[rows_j]``, kept as those rows and their row indices. The
    other columns' entries come from their pairwise products, in
    ``np.triu_indices`` order, so that one weight row times them is their upper
    triangle. These are the dense sums without their zero terms; a design with no
    indicator column keeps all its pairwise products.
    """

    def __init__(self, X: np.ndarray):
        n, self.p = X.shape
        indicator = np.array([np.all((col == 0.0) | (col == 1.0)) and not np.all(col == 1.0)
                              for col in X.T], dtype=bool)
        dense = np.flatnonzero(~indicator)
        rows, cols = np.triu_indices(len(dense))
        self.rows, self.cols = dense[rows], dense[cols]
        # columns written one at a time into one array keep peak memory at its size
        self.products = np.empty((n, len(rows)), order="F")
        for k, (i, j) in enumerate(zip(self.rows, self.cols)):
            np.multiply(X[:, i], X[:, j], out=self.products[:, k])
        self.indicators = []
        for j in np.flatnonzero(indicator):
            on = np.flatnonzero(X[:, j] == 1.0)
            self.indicators.append((j, on, X[on]))

    def __call__(self, weights: np.ndarray) -> np.ndarray:
        """The (fits, p, p) information matrices of a (fits, n) weight block."""
        info = np.empty((len(weights), self.p, self.p))
        upper = weights @ self.products
        info[:, self.rows, self.cols] = upper
        info[:, self.cols, self.rows] = upper
        # an entry of two indicator columns is set last by the later one, on both sides
        for j, on, X_on in self.indicators:
            line = weights[:, on] @ X_on
            info[:, j, :] = line
            info[:, :, j] = line
        return info


def fit_logistic_counts(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    start: np.ndarray,
    terms: InformationTerms,
) -> tuple[np.ndarray, list[str | None]]:
    """Fit one model per row of ``counts`` in lockstep (see ``_irls``); ``start`` is one
    row or one row per fit, ``terms`` is ``InformationTerms(X)``. Returns the
    coefficients, NaN rows for failed fits, and each fit's error code or None."""
    beta, _, _, _, failures = _irls(X, y, counts, start, terms)
    return beta, [None if failure is None else failure[0].code for failure in failures]


def _irls(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    start: np.ndarray,
    terms: InformationTerms | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
    """Fit one model per row of ``counts``, all in lockstep on the same ``X``.

    ``counts[b, i]`` is how often row i enters fit b: fit b is the fit on the
    matrix that repeats each row that often (a bootstrap replicate). Fit b
    starts from ``start``, one row shared by all fits or row b of one row per
    fit, steps and halves on its own, and fails on the first failed check: too
    few rows, one outcome class, a wrong ``start`` shape (raised), then at each
    pass: iterations run out, separation on drawn rows, information not
    positive definite or singular.

    ``terms`` is ``InformationTerms(X)``, for a block's information from stored
    terms. A blocked fit's last checks are those of the pass whose step met
    the convergence test: its information there, and separation at the final
    coefficients at the start of the next pass, which factors no information
    for it. None is for one fit: ``(X * w).T @ X`` and ``logaddexp`` then keep
    the digits single fits have always had, and the fit runs one more whole
    pass at the optimum, whose information gives its covariance. Both take
    each pass's probabilities from the ``exp(-|eta|)`` of its log-likelihood.

    Returns per fit the coefficients (NaN if it failed) and None or (error type,
    message). A single fit that succeeds also gets its information,
    log-likelihood and Newton steps at the optimum; other entries are NaN or 0.
    """
    p = X.shape[1]
    counts = np.asarray(counts, dtype=np.float64)
    beta_out, info_out = np.full((len(counts), p), np.nan), np.full((len(counts), p, p), np.nan)
    ll_out, steps_out = np.full(len(counts), np.nan), np.zeros(len(counts), dtype=np.int64)
    failures: list = [None] * len(counts)
    totals, positives = counts.sum(axis=1), counts @ y
    for b in range(len(counts)):
        if totals[b] <= p:
            message = f"n={totals[b]:.0f} rows cannot identify {p} coefficients"
            failures[b] = (SingularInformationError, message)
        elif positives[b] == 0.0 or positives[b] == totals[b]:
            failures[b] = (DegenerateOutcomeError, "outcome has a single class")

    # State of the fits still running; `fit` maps each to its row of `counts`.
    fit = np.array([b for b, failure in enumerate(failures) if failure is None], dtype=np.int64)
    if not len(fit):
        return beta_out, info_out, ll_out, steps_out, failures
    start = np.asarray(start, dtype=np.float64)
    if start.shape not in ((p,), (len(counts), p)):
        expected = f"({p},)" if start.ndim < 2 else f"({len(counts)}, {p})"
        raise DimensionMismatchError(f"start vector has shape {start.shape}, expected {expected}")
    C = counts if len(fit) == len(counts) else counts[fit]
    drawn = C > 0.0
    blocked = terms is not None
    if not blocked:
        scaled = np.empty_like(X)
    beta = np.broadcast_to(start, (len(counts), p))[fit]
    eta = beta @ X.T
    # expneg is exp(-|eta|) from the log-likelihood, reused by the next pass's sigmoid
    ll, expneg = _log_likelihood(eta, y, C, blocked)
    done = np.zeros(len(fit), dtype=bool)

    for iteration in range(MAX_ITERATIONS + 1):
        # A fit marked done stepped to its optimum last pass, and stops now.
        prob = _logistic(eta, expneg)
        pinned = (prob < SEPARATION_PROB_EPS) | (prob > 1.0 - SEPARATION_PROB_EPS)
        separated = np.zeros(len(fit), dtype=bool)
        if pinned.any():
            diverging = np.abs(beta).max(axis=1) > SEPARATION_BETA_BOUND
            separated = (pinned & drawn).any(axis=1) & diverging
        if blocked and done.any():
            # The last pass already factored its information; only separation is left.
            for k in np.flatnonzero(done):
                failures[fit[k]] = _failure(False, separated[k], False, False)
                if failures[fit[k]] is None:
                    beta_out[fit[k]] = beta[k]
            keep = ~done
            if not keep.any():
                break
            fit, C, drawn, beta, eta, ll, expneg, prob, separated, done = (
                state[keep] for state in (fit, C, drawn, beta, eta, ll, expneg, prob, separated,
                                          done))
        weights = 1.0 - prob
        weights *= prob
        weights *= C
        if blocked:
            info = terms(weights)
        else:
            info = (np.multiply(X, weights.reshape(-1, 1), out=scaled).T @ X)[None]  # one fit
        chol, not_definite, ill_conditioned = _factor(info)

        stop = done | separated | not_definite | ill_conditioned
        if iteration == MAX_ITERATIONS:
            stop[:] = True
        if stop.any():
            for k in np.flatnonzero(stop):
                stalled = iteration == MAX_ITERATIONS and not done[k]
                failure = _failure(stalled, separated[k], not_definite[k], ill_conditioned[k])
                failures[fit[k]] = failure
                if failure is None:
                    beta_out[fit[k]], info_out[fit[k]] = beta[k], info[k]
                    ll_out[fit[k]], steps_out[fit[k]] = ll[k], iteration
            keep = ~stop
            if not keep.any():
                break
            fit, C, drawn, beta = fit[keep], C[keep], drawn[keep], beta[keep]
            eta, ll, expneg, chol, prob = eta[keep], ll[keep], expneg[keep], chol[keep], prob[keep]

        score = (C * (y - prob)) @ X
        z = np.linalg.solve(chol, score[:, :, None])
        delta = np.linalg.solve(np.swapaxes(chol, 1, 2), z)[:, :, 0]

        new_beta = beta + delta
        new_eta = new_beta @ X.T
        new_ll, new_expneg = _log_likelihood(new_eta, y, C, blocked)
        # a fit keeps a step once it is kept, so all retrying fits have halved as often
        for halvings in range(1, MAX_STEP_HALVINGS + 1):
            retry = ~np.isfinite(new_ll) | (new_ll < ll)
            if not retry.any():
                break
            new_beta[retry] = beta[retry] + 0.5**halvings * delta[retry]
            new_eta[retry] = new_beta[retry] @ X.T
            new_ll[retry], new_expneg[retry] = _log_likelihood(new_eta[retry], y, C[retry], blocked)

        # relative deviance change |dD| / (|D| + 1), D = -2 ll, with the 2 cancelled
        dev_change = np.abs(new_ll - ll) / (np.abs(ll) + 0.5)
        done = (np.abs(new_beta - beta).max(axis=1) < BETA_TOL) | (dev_change < DEVIANCE_TOL)
        beta, eta, ll, expneg = new_beta, new_eta, new_ll, new_expneg

    return beta_out, info_out, ll_out, steps_out, failures


def _log_likelihood(eta: np.ndarray, y: np.ndarray, counts: np.ndarray, blocked: bool):
    """Count-weighted log-likelihood of each row of ``eta``, and ``exp(-|eta|)``."""
    expneg = np.exp(-np.abs(eta))
    if blocked:  # log(1 + exp(eta)) from that exp and one log1p, cheaper than logaddexp
        softplus = np.log1p(expneg) + np.maximum(eta, 0.0)
    else:
        softplus = np.logaddexp(0.0, eta)
    return (counts * (y * eta - softplus)).sum(axis=1), expneg


def _failure(stalled: bool, separated: bool, not_definite: bool, ill_conditioned: bool):
    """(error type, message) of the first check a fit fails at one pass, or None."""
    checks = (
        (stalled, NotConvergedError, f"no convergence after {MAX_ITERATIONS} iterations"),
        (separated, SeparationError,
         "fitted probabilities pinned at 0/1 with diverging coefficients"),
        (not_definite, SingularInformationError, "information matrix is not positive definite"),
        (ill_conditioned, SingularInformationError,
         "information matrix is singular at working tolerance"),
    )
    return next(((error, message) for failed, error, message in checks if failed), None)


def _factor(info: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cholesky factors of stacked matrices, which do not exist, which are singular."""
    not_definite = np.zeros(len(info), dtype=bool)
    try:
        chol = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        chol = np.zeros_like(info)
        for b, matrix in enumerate(info):
            try:
                chol[b] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                not_definite[b] = True
        # those may hold NaN; identity matrices keep them out of eigvalsh
        info = np.where(not_definite[:, None, None], np.eye(info.shape[1]), info)
    # ascending eigenvalues: this also holds when the largest is <= 0
    eigvals = np.linalg.eigvalsh(info)
    return chol, not_definite, eigvals[:, 0] <= eigvals[:, -1] * SINGULAR_RTOL


def predict_matrix(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Event probabilities for each row of a design matrix."""
    if X.shape[1] != len(model.beta):
        raise DimensionMismatchError(
            f"matrix has {X.shape[1]} columns, model has {len(model.beta)}"
        )
    return predict_beta(model.beta, X)


def predict_beta(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``predict_matrix`` for bare coefficients; a (p, fits) ``beta`` gives one column per fit."""
    # one coefficient vector: a reduction per row, so identical rows score identically
    prob = sigmoid(np.einsum("ij,j->i", X, beta) if beta.ndim == 1 else X @ beta)
    return np.clip(prob, _PROB_FLOOR, _PROB_CEIL, out=prob)


def normal_two_sided_p(z: float) -> float:
    """Two-sided tail probability of the standard normal."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def wald(model: LogisticModel, j: int) -> tuple[float, float]:
    """(z, two-sided p) for coefficient j."""
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
    candidates. P-values within ``TIE_RTOL`` (relative) of the largest are ties,
    which remove the column declared later: neither rounding nor where a fit
    stopped orders p-values that are equal in exact arithmetic. The trace keeps
    the first fit, on all columns, as ``full_model``.

    The full model starts from zero. Each refit starts from the one-step
    estimate of the model without the dropped column j: ``β − Σ[:, j] β_j / Σ_jj``
    with entry j removed, from the previous fit's β and covariance Σ (Lawless &
    Singhal 1978). The optimum does not depend on the start, but its last
    digits may differ from those of a refit started at zero.
    """
    current = fm
    steps: list[tuple[str, float]] = []
    model = full_model = fit_logistic(current)
    while True:
        p_values = {j: wald(model, j)[1]
                    for j, name in enumerate(current.column_names) if name not in protected}
        largest = max(p_values.values(), default=None)
        if largest is None or largest <= alpha_stay:
            break
        worst_j = max(j for j, p_value in p_values.items() if p_value >= largest * (1 - TIE_RTOL))
        removed = current.column_names[worst_j]
        steps.append((removed, p_values[worst_j]))
        kept = tuple(n for n in current.column_names if n != removed)
        current = current.select_columns(kept)
        shift = model.covariance[:, worst_j] / model.covariance[worst_j, worst_j]
        start = np.delete(model.beta - shift * model.beta[worst_j], worst_j)
        model = fit_logistic(current, start=start)
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


def write_coefficient_report(path, model: LogisticModel, fm: FeatureMatrix) -> None:
    columns = (model.column_names, model.beta.tolist(), model.se.tolist(),
               column_std(fm).tolist(), normalized_coefficients(model, fm).tolist())
    write_csv(
        path,
        ("variable", "coefficient", "std_error", "std_dev", "normalized_coefficient", "z", "p_value"),
        [(*row, *wald(model, j)) for j, row in enumerate(zip(*columns))],
    )


def write_elimination_trace(path, trace: EliminationTrace) -> None:
    write_csv(
        path,
        ("step", "removed_variable", "p_value"),
        [(i + 1, name, p) for i, (name, p) in enumerate(trace.steps)],
    )
