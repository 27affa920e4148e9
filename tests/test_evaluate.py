import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardiotox import evaluate, glm, preprocess, synth
from cardiotox.errors import (
    BadKError,
    BadLabelError,
    DegenerateOutcomeError,
    DimensionMismatchError,
    NonFiniteScoreError,
    OneClassError,
)
from cardiotox.preprocess import FeatureMatrix
from cardiotox.rng import SplitMix64, derive_seed
from test_acceptance import SCALE_SPEC


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = float(np.sum(pos[:, None] > neg[None, :]))
    ties = float(np.sum(pos[:, None] == neg[None, :]))
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def trapezoid(points):
    """Trapezoidal area under ROC points (fpr, tpr, threshold), in sweep order."""
    area = 0.0
    for (fpr0, tpr0, _), (fpr1, tpr1, _) in zip(points, points[1:]):
        area += (fpr1 - fpr0) * (tpr1 + tpr0) / 2.0
    return area


def while_loop_auc(scores, labels):
    """The earlier rank-by-while-loop ``auc``, kept as a bit-exact reference."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def while_loop_roc(scores, labels):
    """The earlier while-loop ``roc_curve``: (points, trapezoid area)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    i = 0
    n = len(sorted_scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        group = sorted_labels[i : j + 1]
        tp += int(np.sum(group == 1))
        fp += int(np.sum(group == 0))
        points.append((fp / n_neg, tp / n_pos, float(sorted_scores[i])))
        i = j + 1
    area = 0.0
    for (fpr0, tpr0, _), (fpr1, tpr1, _) in zip(points, points[1:]):
        area += (fpr1 - fpr0) * (tpr1 + tpr0) / 2.0
    return tuple(points), area


class TestTieGroupingMatchesWhileLoops:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_on_heavy_ties(self, data):
        n = data.draw(st.integers(2, 80))
        levels = data.draw(st.integers(1, 6))
        scores = np.array(data.draw(st.lists(
            st.integers(0, levels), min_size=n, max_size=n))) / 3.0
        if data.draw(st.booleans()):  # signed zeros and a spread scale
            scores = (scores - scores.mean()) * data.draw(st.sampled_from([1.0, -1e-3, 7e5]))
            zero = scores == 0.0
            negative = data.draw(st.lists(st.booleans(), min_size=int(zero.sum()),
                                          max_size=int(zero.sum())))
            scores[zero] = np.where(negative, -0.0, 0.0)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        if labels.sum() in (0, n):
            return
        assert evaluate.auc(scores, labels) == while_loop_auc(scores, labels)
        points, area = while_loop_roc(scores, labels)
        curve = evaluate.roc_curve(scores, labels)
        assert trapezoid(curve.points) == area
        assert len(curve.points) == len(points)
        for got, want in zip(curve.points, points):
            assert got == want
            assert [type(v) for v in got] == [float, float, float]
            assert [np.copysign(1.0, v) for v in got] == [np.copysign(1.0, v) for v in want]


class TestAuc:
    def test_perfect_separation(self):
        assert evaluate.auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert evaluate.auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_mixed_ties(self):
        assert evaluate.auc([0.7, 0.7, 0.3], [1, 0, 0]) == 0.75

    def test_one_class_only(self):
        with pytest.raises(OneClassError):
            evaluate.auc([0.1, 0.2], [1, 1])

    def test_length_mismatch_is_typed(self):
        with pytest.raises(DimensionMismatchError):
            evaluate.auc([0.1, 0.2, 0.3], [0, 1])
        with pytest.raises(DimensionMismatchError):
            evaluate.roc_curve([0.1, 0.2, 0.3], [0, 1])

    @pytest.mark.parametrize("bad", [2, np.nan])
    def test_label_not_0_or_1_is_typed(self, bad):
        # the one positive ranks below the one negative; the bad row is no class
        with pytest.raises(BadLabelError, match="labels must be 0 or 1"):
            evaluate.auc([0.9, 0.5, 0.1], [0, 1, bad])
        with pytest.raises(BadLabelError) as err:
            evaluate.roc_curve([0.9, 0.5, 0.1], [0, 1, bad])
        assert (err.value.code, err.value.exit_code) == ("BAD_LABEL", 3)

    def test_boolean_labels_rank(self):
        labels = np.array([False, True, False])
        assert evaluate.auc([0.9, 0.5, 0.1], labels) == 0.5
        assert trapezoid(evaluate.roc_curve([0.9, 0.5, 0.1], labels).points) == 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_typed(self, bad):
        with pytest.raises(NonFiniteScoreError):
            evaluate.auc([bad, 0.2, 0.3, bad], [1, 0, 0, 1])
        with pytest.raises(NonFiniteScoreError):
            evaluate.roc_curve([0.1, 0.2, bad, 0.4], [1, 0, 0, 1])

    def test_matches_brute_force_with_ties(self):
        g = SplitMix64(101)
        for _ in range(30):
            n = 5 + int(g.uniform(1)[0] * 120)
            scores = np.round(g.uniform(n) * 8) / 8
            labels = (g.uniform(n) < 0.35).astype(int)
            if labels.sum() in (0, n):
                continue
            assert evaluate.auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12
            )

    def test_complement_identity_exact(self):
        g = SplitMix64(102)
        scores = np.round(g.uniform(257) * 6) / 6
        labels = (g.uniform(257) < 0.3).astype(int)
        assert evaluate.auc(scores, labels) + evaluate.auc(-scores, labels) == 1.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_increasing_transform(self, data):
        n = data.draw(st.integers(4, 40))
        scores = np.array(data.draw(st.lists(
            st.integers(-20, 20), min_size=n, max_size=n))) / 7.0
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        if labels.sum() in (0, n):
            return
        base = evaluate.auc(scores, labels)
        assert evaluate.auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert evaluate.auc(3.0 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)


class TestRoc:
    def test_perfect_curve_hits_top_left(self):
        curve = evaluate.roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert (0.0, 1.0) in [(fpr, tpr) for fpr, tpr, _ in curve.points]
        assert curve.points[0][:2] == (0.0, 0.0)
        assert curve.points[-1][:2] == (1.0, 1.0)
        assert trapezoid(curve.points) == 1.0

    def test_all_ties_is_diagonal(self):
        curve = evaluate.roc_curve([0.4, 0.4, 0.4], [1, 0, 1])
        assert [(fpr, tpr) for fpr, tpr, _ in curve.points] == [(0.0, 0.0), (1.0, 1.0)]
        assert trapezoid(curve.points) == 0.5

    def test_monotone_points(self):
        g = SplitMix64(103)
        scores = np.round(g.uniform(80) * 5) / 5
        labels = (g.uniform(80) < 0.4).astype(int)
        curve = evaluate.roc_curve(scores, labels)
        fprs = [p[0] for p in curve.points]
        tprs = [p[1] for p in curve.points]
        assert fprs == sorted(fprs) and tprs == sorted(tprs)

    def test_trapezoid_area_equals_mann_whitney(self):
        g = SplitMix64(104)
        for _ in range(20):
            scores = np.round(g.uniform(100) * 10) / 10
            labels = (g.uniform(100) < 0.5).astype(int)
            if labels.sum() in (0, 100):
                continue
            curve = evaluate.roc_curve(scores, labels)
            assert trapezoid(curve.points) == pytest.approx(evaluate.auc(scores, labels), abs=1e-12)


class TestStratifiedKfold:
    def test_ten_rows_four_positives_five_folds(self):
        labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        folds = evaluate.stratified_kfold(labels, 5, seed=9)
        sizes = [int(np.sum(folds == f)) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]
        pos_counts = sorted(
            int(np.sum((folds == f) & (np.array(labels) == 1))) for f in range(5)
        )
        assert pos_counts == [0, 1, 1, 1, 1]

    def test_deterministic(self):
        labels = (SplitMix64(7).uniform(40) < 0.4).astype(int)
        a = evaluate.stratified_kfold(labels, 4, seed=123)
        b = evaluate.stratified_kfold(labels, 4, seed=123)
        assert np.array_equal(a, b)
        c = evaluate.stratified_kfold(labels, 4, seed=124)
        assert not np.array_equal(a, c)

    def test_bad_k(self):
        with pytest.raises(BadKError):
            evaluate.stratified_kfold([0, 1] * 5, 11, seed=1)
        with pytest.raises(BadKError):
            evaluate.stratified_kfold([0, 1] * 5, 1, seed=1)

    @given(
        labels=st.lists(st.integers(0, 1), min_size=4, max_size=60),
        k=st.integers(2, 6),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_row_in_exactly_one_fold(self, labels, k, seed):
        if k > len(labels):
            return
        folds = evaluate.stratified_kfold(labels, k, seed)
        assert len(folds) == len(labels)
        assert set(folds) <= set(range(k))
        labels = np.array(labels)
        for cls in (0, 1):
            counts = [int(np.sum((folds == f) & (labels == cls))) for f in range(k)]
            assert max(counts) - min(counts) <= 1


def loop_stratified_kfold(labels, k, seed):
    """The earlier row-at-a-time fold assignment, kept as a reference."""
    labels = np.asarray(labels)
    rng = SplitMix64(seed)
    folds = np.empty(len(labels), dtype=np.int64)
    cursor = 0
    for cls in sorted(np.unique(labels), reverse=True):
        for row in rng.shuffled(np.flatnonzero(labels == cls)):
            folds[row] = cursor % k
            cursor += 1
    return folds


@given(
    labels=st.lists(st.integers(0, 2), min_size=2, max_size=80),
    k=st.integers(2, 10),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=100, deadline=None)
def test_stratified_kfold_matches_the_loop(labels, k, seed):
    if k > len(labels):
        return
    folds = evaluate.stratified_kfold(labels, k, seed)
    assert folds.dtype == np.int64
    assert np.array_equal(folds, loop_stratified_kfold(labels, k, seed))


def simulated_matrix(seed, n, signal=0.0, binary_outcome_feature=False):
    g = SplitMix64(seed)
    x1, x2 = g.normal(n), g.normal(n)
    if binary_outcome_feature:
        flag = (g.uniform(n) < 0.4).astype(float)
        y = flag.copy()
        X = np.column_stack([np.ones(n), x1, flag])
        names = ("intercept", "x1", "flag")
    else:
        eta = -0.6 + signal * x1
        y = (g.uniform(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        X = np.column_stack([np.ones(n), x1, x2])
        names = ("intercept", "x1", "x2")
    return FeatureMatrix(names, X, y, ("",) * n, "CHF")


class TestCrossValidation:
    def test_deterministic_binary_feature_surfaces_separation(self):
        # outcome identical to a model column means the fold fits diverge;
        # the fit error propagates rather than silently scoring
        from cardiotox.errors import SeparationError

        fm = simulated_matrix(201, 400, binary_outcome_feature=True)
        with pytest.raises(SeparationError):
            evaluate.cross_validated_auc(fm, 5, seed=3, alpha_stay=None)

    def test_near_deterministic_feature_scores_every_fold_high(self):
        g = SplitMix64(205)
        n = 500
        flag = (g.uniform(n) < 0.4).astype(float)
        y = flag.copy()
        flips = g.integers(n, 12)  # break separation in every class
        y[flips] = 1.0 - y[flips]
        X = np.column_stack([np.ones(n), flag])
        fm = FeatureMatrix(("intercept", "flag"), X, y, ("",) * n, "CHF")
        report = evaluate.cross_validated_auc(fm, 5, seed=3, alpha_stay=None)
        assert all(a > 0.9 for a in report.per_fold_auc)

    def test_deterministic_given_seed(self):
        fm = simulated_matrix(202, 600, signal=0.7)
        r1 = evaluate.cross_validated_auc(fm, 5, seed=11, alpha_stay=None)
        r2 = evaluate.cross_validated_auc(fm, 5, seed=11, alpha_stay=None)
        assert r1 == r2

    def test_mean_is_average_of_folds(self):
        fm = simulated_matrix(203, 500, signal=0.5)
        r = evaluate.cross_validated_auc(fm, 5, seed=2, alpha_stay=None)
        assert r.mean_auc == pytest.approx(np.mean(r.per_fold_auc))
        assert len(r.per_fold_auc) == 5

    def test_elimination_runs_inside_folds(self):
        fm = simulated_matrix(204, 1200, signal=0.8)
        r = evaluate.cross_validated_auc(fm, 4, seed=5, alpha_stay=0.15)
        assert 0.5 < r.pooled_auc <= 1.0

    def test_one_class_training_fold_raises(self):
        # a single positive lands in one fold, so training for that fold
        # sees only negatives
        g = SplitMix64(58)
        y = np.array([1.0] + [0.0] * 11)
        X = np.column_stack([np.ones(12), g.normal(12)])
        fm = FeatureMatrix(("intercept", "x"), X, y, ("",) * 12, "CHF")
        with pytest.raises(DegenerateOutcomeError) as err:
            evaluate.cross_validated_auc(fm, 2, seed=0, alpha_stay=None)
        assert "fold" in str(err.value)

    def test_single_class_test_fold_reports_none(self):
        # 3 positives with k=4: the last fold has no positive to rank
        g = SplitMix64(59)
        n = 24
        x = g.normal(n)
        y = np.zeros(n)
        y[np.argsort(x)[-6:-3]] = 1.0  # positives not extreme, so MLE finite
        X = np.column_stack([np.ones(n), x])
        fm = FeatureMatrix(("intercept", "x"), X, y, ("",) * n, "CHF")
        report = evaluate.cross_validated_auc(fm, 4, seed=0, alpha_stay=None)
        assert None in report.per_fold_auc
        defined = [a for a in report.per_fold_auc if a is not None]
        assert report.mean_auc == pytest.approx(np.mean(defined))

    def test_mean_is_na_when_no_fold_is_defined(self, tmp_path):
        # one row per test fold (leave-one-out): no fold has both classes to rank
        y = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        fm = FeatureMatrix(("intercept",), np.ones((5, 1)), y, ("",) * 5, "CHF")
        report = evaluate.cross_validated_auc(fm, 5, seed=0, alpha_stay=None)
        assert report.per_fold_auc == (None,) * 5
        assert report.mean_auc is None
        evaluate.write_cv_report(tmp_path / "cv_report.csv", [("CHF", report)])
        rows = (tmp_path / "cv_report.csv").read_text().splitlines()
        assert rows[1:7] == [f"CHF,{fold},NA" for fold in range(5)] + ["CHF,MEAN,NA"]
        assert rows[7].startswith("CHF,POOLED,")


def test_identical_held_out_rows_score_identically(monkeypatch):
    # On bench seed 7 (spec seed 90217), X @ beta once scored the copies in 2 of
    # the 508 groups of identical held-out MI rows differently.
    features = synth.to_features(synth.generate(synth.parse_spec({**SCALE_SPEC, "seed": 90217})))
    fm = preprocess.build_matrix(features, preprocess.FEATURE_SETS["OUTCOME_MODEL"], "MI")
    held_out = []
    predict = glm.predict_matrix

    def recorded(model, X):
        held_out.append((X, predict(model, X)))
        return held_out[-1][1]

    monkeypatch.setattr(glm, "predict_matrix", recorded)
    seed = derive_seed(90217, preprocess.OUTCOME_NAMES.index("MI"))
    evaluate.cv_report_and_scores(fm, 5, seed, alpha_stay=0.15)
    groups = 0
    for X, scores in held_out:
        _, group, sizes = np.unique(X, axis=0, return_inverse=True, return_counts=True)
        for g in np.flatnonzero(sizes > 1):
            groups += 1
            assert len(set(scores[group.ravel() == g])) == 1
    assert len(held_out) == 5 and groups == 508
