"""ROC/AUC computation and stratified cross-validation.

AUC is the Mann-Whitney statistic with half credit for ties, computed from
average ranks in O(n log n) by ``auc``; it equals the trapezoidal area under
the tie-aware ROC curve of ``roc_curve`` and the naive O(n^2) pairwise count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import glm
from .errors import (
    BadKError,
    BadLabelError,
    DegenerateOutcomeError,
    DimensionMismatchError,
    NonFiniteScoreError,
    OneClassError,
)
from .preprocess import FeatureMatrix
from .rng import SplitMix64
from .tableio import write_csv


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float, float], ...]  # (fpr, tpr, threshold)


@dataclass(frozen=True)
class CvReport:
    k: int
    per_fold_auc: tuple[float | None, ...]  # None where the test fold has one class
    mean_auc: float | None  # None when no fold's AUC is defined
    pooled_auc: float
    seed: int


def _check_two_classes(labels: np.ndarray) -> tuple[int, int]:
    """The counts of labels 1 and 0; raise unless every label is one of them and both occur."""
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != labels.size:
        bad = labels[(labels != 1) & (labels != 0)][0]
        raise BadLabelError(f"labels must be 0 or 1, got {bad}")
    if n_pos == 0 or n_neg == 0:
        raise OneClassError("need both classes to rank")
    return n_pos, n_neg


def _scores_and_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DimensionMismatchError("scores and labels must have equal length")
    if not np.all(np.isfinite(scores)):
        raise NonFiniteScoreError("scores must be finite to be ranked")
    return scores, labels


def _tie_groups(sorted_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of equal values in a sorted array."""
    first = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    first = np.concatenate(([0], first))
    last = np.append(first[1:], len(sorted_scores)) - 1
    return first, last


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties at 1/2."""
    scores, labels = _scores_and_labels(scores, labels)
    n_pos, n_neg = _check_two_classes(labels)

    order = np.argsort(scores, kind="stable")
    first, last = _tie_groups(scores[order])
    ranks = np.empty(len(scores), dtype=np.float64)
    # average rank for each tie group, 1-based
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)

    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def roc_curve(scores, labels) -> RocCurve:
    """Threshold sweep over distinct scores, descending; includes (0,0) and (1,1)."""
    scores, labels = _scores_and_labels(scores, labels)
    n_pos, n_neg = _check_two_classes(labels)

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    first, last = _tie_groups(sorted_scores)
    tp = np.cumsum(sorted_labels == 1)[last]
    fp = np.cumsum(sorted_labels == 0)[last]

    points = zip((fp / n_neg).tolist(), (tp / n_pos).tolist(), sorted_scores[first].tolist())
    return RocCurve(points=((0.0, 0.0, float("inf")), *points))


def stratified_kfold(labels, k: int, seed: int) -> np.ndarray:
    """Fold index per row; class-stratified, deterministic in (labels, k, seed).

    Rows of each class are shuffled and dealt round-robin onto a fold cursor
    that persists across classes (larger label first), so per-class fold
    counts differ by at most one and total fold sizes stay balanced too.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if k < 2 or k > n:
        raise BadKError(f"k={k} invalid for n={n}")
    rng = SplitMix64(seed)
    folds = np.empty(n, dtype=np.int64)
    cursor = 0
    for cls in sorted(np.unique(labels), reverse=True):
        idx = rng.shuffled(np.flatnonzero(labels == cls))
        folds[idx] = (cursor + np.arange(len(idx))) % k
        cursor += len(idx)
    return folds


def cv_report_and_scores(
    fm: FeatureMatrix, k: int, seed: int, alpha_stay: float | None = None
) -> tuple[CvReport, np.ndarray]:
    """CV report plus the held-out score per row (for ROC emission)."""
    _check_two_classes(fm.y)
    folds = stratified_kfold(fm.y, k, seed)
    scores = np.empty(fm.n, dtype=np.float64)
    per_fold: list[float | None] = []

    for fold in range(k):
        test_rows = np.flatnonzero(folds == fold)
        train_rows = np.flatnonzero(folds != fold)
        train = fm.subset_rows(train_rows)
        if len(np.unique(train.y)) < 2:
            raise DegenerateOutcomeError(f"training data for fold {fold} has one class")
        if alpha_stay is None:
            model = glm.fit_logistic(train)
            kept = train.column_names
        else:
            trace = glm.backward_eliminate(train, alpha_stay)
            model = trace.final_model
            kept = model.column_names
        test = fm.subset_rows(test_rows).select_columns(kept)
        fold_scores = glm.predict_matrix(model, test.X)
        scores[test_rows] = fold_scores
        if len(np.unique(fm.y[test_rows])) < 2:
            per_fold.append(None)
        else:
            per_fold.append(auc(fold_scores, fm.y[test_rows]))

    defined = [a for a in per_fold if a is not None]
    report = CvReport(
        k=k,
        per_fold_auc=tuple(per_fold),
        mean_auc=float(np.mean(defined)) if defined else None,
        pooled_auc=auc(scores, fm.y),
        seed=seed,
    )
    return report, scores


def cross_validated_auc(
    fm: FeatureMatrix, k: int, seed: int, alpha_stay: float | None = None
) -> CvReport:
    """k-fold CV AUC; elimination (when enabled) reruns inside each training fold."""
    return cv_report_and_scores(fm, k, seed, alpha_stay)[0]


def write_cv_report(path, reports: list[tuple[str, CvReport]]) -> None:
    """One row per fold, then MEAN and POOLED, per outcome; NA when undefined."""
    rows: list[tuple] = []
    for outcome, report in reports:
        for fold, a in enumerate(report.per_fold_auc):
            rows.append((outcome, str(fold), a if a is not None else "NA"))
        rows.append((outcome, "MEAN", report.mean_auc if report.mean_auc is not None else "NA"))
        rows.append((outcome, "POOLED", report.pooled_auc))
    write_csv(
        path,
        ("outcome", "fold", "auc"),
        rows,
        footer_comments=(
            "imputation means are computed on the full included cohort before fold assignment",
        ),
    )


def write_roc_points(path, outcome: str, curve: RocCurve) -> None:
    write_csv(
        path,
        ("outcome", "fpr", "tpr", "threshold"),
        [(outcome, fpr, tpr, thr) for fpr, tpr, thr in curve.points],
    )
