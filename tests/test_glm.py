import math

import numpy as np
import pytest

from cardiotox import glm
from cardiotox.errors import (
    DegenerateOutcomeError,
    DimensionMismatchError,
    NotConvergedError,
    SeparationError,
    SingularInformationError,
    ZeroSeError,
)
from cardiotox.preprocess import FeatureMatrix
from cardiotox.rng import SplitMix64


def matrix(X, y, names=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    names = names or tuple(
        ["intercept"] + [f"x{i}" for i in range(1, X.shape[1])]
    )
    return FeatureMatrix(tuple(names), X, y, ("",) * len(y), "CHF")


def simulate(seed, n, beta, extra_null=0):
    g = SplitMix64(seed)
    p = len(beta) - 1
    cols = [np.ones(n)] + [g.normal(n) for _ in range(p + extra_null)]
    X = np.column_stack(cols)
    eta = X[:, : p + 1] @ np.asarray(beta)
    y = (g.uniform(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return matrix(X, y)


class TestFit:
    def test_intercept_only_is_logit_of_prevalence(self):
        fm = matrix(np.ones((100, 1)), [1.0] * 25 + [0.0] * 75, ("intercept",))
        m = glm.fit_logistic(fm)
        assert m.beta[0] == pytest.approx(math.log(0.25 / 0.75), abs=1e-10)
        assert m.converged

    def test_separation_detected(self):
        x = np.linspace(-2, 2, 40)
        x = x[x != 0]
        y = (x > 0).astype(float)
        fm = matrix(np.column_stack([np.ones_like(x), x]), y)
        with pytest.raises(SeparationError):
            glm.fit_logistic(fm)

    def test_recovers_generative_coefficients(self):
        fm = simulate(11, 5000, (-1.0, 0.8, -0.5))
        m = glm.fit_logistic(fm)
        assert np.all(np.abs(m.beta - np.array([-1.0, 0.8, -0.5])) < 0.1)

    def test_degenerate_outcome(self):
        fm = matrix(np.column_stack([np.ones(20), np.arange(20.0)]), np.zeros(20))
        with pytest.raises(DegenerateOutcomeError):
            glm.fit_logistic(fm)

    def test_collinear_columns_reported(self):
        g = SplitMix64(3)
        x = g.normal(50)
        X = np.column_stack([np.ones(50), x, x])
        y = (g.uniform(50) < 0.5).astype(float)
        with pytest.raises(SingularInformationError) as err:
            glm.fit_logistic(matrix(X, y, ("intercept", "a", "a_copy")))
        assert "a_copy" in err.value.columns

    def test_stationarity_at_optimum(self):
        fm = simulate(21, 3000, (-0.5, 0.6, 0.3))
        m = glm.fit_logistic(fm)
        probs = glm.predict_matrix(m, fm.X)
        score = fm.X.T @ (fm.y - probs)
        assert np.max(np.abs(score)) < 1e-6

    def test_fitted_probabilities_sum_to_positives(self):
        fm = simulate(22, 2500, (-1.2, 0.4))
        m = glm.fit_logistic(fm)
        probs = glm.predict_matrix(m, fm.X)
        assert float(np.sum(probs)) == pytest.approx(float(np.sum(fm.y)), abs=1e-6)

    def test_row_permutation_invariance(self):
        fm = simulate(23, 800, (-0.8, 0.5, -0.4))
        perm = SplitMix64(5).shuffled(np.arange(fm.n))
        fm2 = FeatureMatrix(fm.column_names, fm.X[perm], fm.y[perm], fm.row_ids, "CHF")
        m1 = glm.fit_logistic(fm)
        m2 = glm.fit_logistic(fm2)
        assert np.max(np.abs(m1.beta - m2.beta)) < 1e-12

    def test_affine_rescale_of_covariate(self):
        fm = simulate(24, 1500, (-0.6, 0.7))
        a = 3.5
        X2 = fm.X.copy()
        X2[:, 1] *= a
        fm2 = FeatureMatrix(fm.column_names, X2, fm.y, fm.row_ids, "CHF")
        m1, m2 = glm.fit_logistic(fm), glm.fit_logistic(fm2)
        assert m2.beta[1] == pytest.approx(m1.beta[1] / a, rel=1e-6)
        p1 = glm.predict_matrix(m1, fm.X)
        p2 = glm.predict_matrix(m2, fm2.X)
        assert np.max(np.abs(p1 - p2)) < 1e-8
        n1 = glm.normalized_coefficients(m1, fm)
        n2 = glm.normalized_coefficients(m2, fm2)
        assert np.max(np.abs(n1 - n2)) < 1e-8

    def test_covariance_symmetric_psd(self):
        fm = simulate(25, 1200, (-0.4, 0.3, 0.2))
        m = glm.fit_logistic(fm)
        assert np.allclose(m.covariance, m.covariance.T)
        assert np.all(np.linalg.eigvalsh(m.covariance) > 0)

    def test_warm_start_reaches_same_optimum(self):
        fm = simulate(26, 1000, (-0.9, 0.6))
        cold = glm.fit_logistic(fm)
        warm = glm.fit_logistic(fm, start=cold.beta + 0.05)
        assert np.max(np.abs(cold.beta - warm.beta)) < 1e-7


class TestPredict:
    def model(self, beta):
        beta = np.asarray(beta, dtype=np.float64)
        p = len(beta)
        return glm.LogisticModel(
            column_names=tuple(f"c{i}" for i in range(p)),
            beta=beta, se=np.ones(p), covariance=np.eye(p),
            log_likelihood=0.0, iterations=1, converged=True, n=10,
        )

    def test_zero_eta_is_half(self):
        assert glm.predict_prob(self.model([0.0]), [1.0]) == 0.5

    def test_log_three(self):
        m = self.model([math.log(3.0)])
        assert glm.predict_prob(m, [1.0]) == pytest.approx(0.75, abs=1e-12)

    def test_deep_tail_does_not_underflow(self):
        p = glm.predict_prob(self.model([-40.0]), [1.0])
        assert 0.0 < p <= 1e-15

    def test_extreme_eta_stays_inside_unit_interval(self):
        assert glm.predict_prob(self.model([-800.0]), [1.0]) > 0.0
        assert glm.predict_prob(self.model([800.0]), [1.0]) < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            glm.predict_prob(self.model([0.1, 0.2]), [1.0])


class TestWald:
    def model(self, beta, se):
        return glm.LogisticModel(
            column_names=("intercept", "x"),
            beta=np.array([0.0, beta]), se=np.array([1.0, se]),
            covariance=np.eye(2), log_likelihood=0.0, iterations=1,
            converged=True, n=10,
        )

    def test_zero_beta_gives_p_one(self):
        z, p = glm.wald(self.model(0.0, 0.3), 1)
        assert z == 0.0 and p == 1.0

    def test_critical_value(self):
        _, p = glm.wald(self.model(1.959964, 1.0), "x")
        assert p == pytest.approx(0.05, abs=1e-6)

    def test_z_two(self):
        z, p = glm.wald(self.model(0.5, 0.25), 1)
        assert z == 2.0
        assert p == pytest.approx(0.04550026389635842, abs=1e-10)

    def test_zero_se(self):
        with pytest.raises(ZeroSeError):
            glm.wald(self.model(0.5, 0.0), 1)

    def test_p_monotone_in_abs_z(self):
        zs = np.linspace(-6, 6, 121)
        ps = [glm.normal_two_sided_p(z) for z in zs]
        assert all(0.0 <= p <= 1.0 for p in ps)
        order = np.argsort(np.abs(zs), kind="stable")
        sorted_ps = np.array(ps)[order]
        assert np.all(np.diff(sorted_ps) <= 1e-15)


class TestEliminate:
    def test_no_removal_when_all_significant(self):
        fm = simulate(31, 4000, (-0.5, 0.9, -0.8))
        trace = glm.backward_eliminate(fm, 0.15)
        assert trace.steps == ()
        assert trace.final_model.column_names == fm.column_names

    def test_noise_removed_signal_kept(self):
        fm = simulate(32, 4000, (-0.5, 0.9, -0.8), extra_null=3)
        trace = glm.backward_eliminate(fm, 0.15)
        kept = set(trace.final_model.column_names)
        assert {"intercept", "x1", "x2"} <= kept
        for _, p in trace.steps:
            assert p > 0.15

    def test_final_model_clears_threshold(self):
        fm = simulate(33, 3000, (-0.5, 0.5), extra_null=4)
        trace = glm.backward_eliminate(fm, 0.15)
        for j, name in enumerate(trace.final_model.column_names):
            if name != "intercept":
                assert glm.wald(trace.final_model, j)[1] <= 0.15

    def test_collinear_full_model_aborts(self):
        g = SplitMix64(8)
        x = g.normal(60)
        X = np.column_stack([np.ones(60), x, 2.0 * x])
        y = (g.uniform(60) < 0.5).astype(float)
        with pytest.raises(SingularInformationError):
            glm.backward_eliminate(matrix(X, y, ("intercept", "a", "b")), 0.15)

    def test_exact_tie_removes_later_column(self):
        # XOR-style design: both coefficients are exactly 0, both p-values 1.0
        X = np.array([
            [1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0],
            [1.0, -1.0, 1.0],
            [1.0, -1.0, -1.0],
        ] * 5)
        y = np.array([1.0, 0.0, 0.0, 1.0] * 5)
        trace = glm.backward_eliminate(matrix(X, y, ("intercept", "x1", "x2")), 0.15)
        assert trace.steps[0][0] == "x2"
        assert trace.steps[0][1] == 1.0
        assert trace.steps[1][0] == "x1"
        assert trace.final_model.column_names == ("intercept",)

    def test_protected_columns_are_never_removed(self):
        fm = simulate(34, 3000, (-0.5, 0.9), extra_null=3)
        plain = glm.backward_eliminate(fm, 0.15)
        dropped = [name for name, _ in plain.steps]
        assert dropped  # some null column goes without protection
        trace = glm.backward_eliminate(fm, 0.15, protected=frozenset({"intercept", *dropped}))
        assert set(dropped) <= set(trace.final_model.column_names)
        assert not set(dropped) & {name for name, _ in trace.steps}

    def test_trace_keeps_the_full_model(self):
        fm = simulate(35, 2000, (-0.5, 0.9), extra_null=2)
        trace = glm.backward_eliminate(fm, 0.15)
        full = glm.fit_logistic(fm)
        assert trace.full_model.column_names == fm.column_names
        assert np.array_equal(trace.full_model.beta, full.beta)
        assert np.array_equal(trace.full_model.se, full.se)


class TestFitCounts:
    def test_matches_fits_on_repeated_rows(self):
        fm = simulate(41, 400, (-0.7, 0.8, -0.4), extra_null=1)
        g = SplitMix64(42)
        index = g.integers(fm.n, 5 * fm.n).reshape(5, fm.n)
        counts = np.stack([np.bincount(idx, minlength=fm.n) for idx in index])
        start = glm.fit_logistic(fm).beta
        products = glm.pairwise_products(fm.X)
        betas, codes = glm.fit_logistic_counts(fm.X, fm.y, counts, start, products)
        assert codes == [None] * 5
        for idx, beta in zip(index, betas):
            expected = glm.fit_logistic(fm.subset_rows(idx), start=start).beta
            assert np.max(np.abs(beta - expected)) < 1e-9

    def test_failure_codes_follow_fit_logistic(self):
        fm = simulate(43, 300, (-0.5, 0.6))
        ones = np.ones(fm.n)
        only_negatives = np.where(fm.y == 0.0, 2.0, 0.0)
        x = np.linspace(-2, 2, fm.n)
        separable = matrix(np.column_stack([np.ones(fm.n), x]), (x > 0).astype(float))
        products = glm.pairwise_products(fm.X)
        _, codes = glm.fit_logistic_counts(
            fm.X, fm.y, np.stack([ones, only_negatives, ones]), np.zeros(2), products
        )
        assert codes == [None, DegenerateOutcomeError.code, None]
        betas, codes = glm.fit_logistic_counts(
            fm.X, fm.y, only_negatives[None, :], np.zeros(2), products
        )
        assert codes == [DegenerateOutcomeError.code] and np.isnan(betas).all()
        _, codes = glm.fit_logistic_counts(
            separable.X, separable.y, ones[None, :], np.zeros(2),
            glm.pairwise_products(separable.X),
        )
        assert codes == [SeparationError.code]
        with pytest.raises(SeparationError):
            glm.fit_logistic(separable)
        # a column that is zero on every drawn row leaves only that fit singular
        rare = np.zeros(fm.n)
        rare[:40] = SplitMix64(44).normal(40)
        X = np.column_stack([fm.X, rare])
        undrawn = np.where(rare == 0.0, 1.0, 0.0)
        betas, codes = glm.fit_logistic_counts(
            X, fm.y, np.stack([ones, undrawn, ones]), np.zeros(3), glm.pairwise_products(X)
        )
        assert codes == [None, SingularInformationError.code, None]
        assert np.isnan(betas[1]).all() and np.array_equal(betas[0], betas[2])
        with pytest.raises(SingularInformationError):
            glm.fit_logistic(matrix(X[rare == 0.0], fm.y[rare == 0.0]))

    def test_not_converged_when_iterations_run_out(self, monkeypatch):
        fm = simulate(45, 500, (-1.5, 1.2, -0.8))
        assert glm.fit_logistic(fm).iterations > 2
        monkeypatch.setattr(glm, "MAX_ITERATIONS", 2)
        with pytest.raises(NotConvergedError):
            glm.fit_logistic(fm)
        betas, codes = glm.fit_logistic_counts(
            fm.X, fm.y, np.ones((1, fm.n)), np.zeros(fm.p), glm.pairwise_products(fm.X)
        )
        assert codes == [NotConvergedError.code] and np.isnan(betas).all()


class TestNormalized:
    def build(self, beta, column):
        X = np.column_stack([np.ones(len(column)), column])
        m = glm.LogisticModel(
            column_names=("intercept", "v"), beta=np.array([0.3, beta]),
            se=np.ones(2), covariance=np.eye(2), log_likelihood=0.0,
            iterations=1, converged=True, n=len(column),
        )
        return m, matrix(X, np.zeros(len(column)), ("intercept", "v"))

    def test_product_of_beta_and_sd(self):
        g = SplitMix64(40)
        raw = g.normal(400)
        col = raw / np.std(raw, ddof=1) * 12.2547
        m, fm = self.build(-0.0593, col)
        sd = float(np.std(col, ddof=1))
        out = glm.normalized_coefficients(m, fm)
        assert out[1] == pytest.approx(-0.0593 * sd, rel=1e-12)
        assert out[1] == pytest.approx(-0.7267, abs=5e-4)

    def test_constant_column_gives_zero(self):
        m, fm = self.build(1.5, np.full(50, 7.0))
        assert glm.normalized_coefficients(m, fm)[1] == 0.0

    def test_zero_beta_gives_zero(self):
        g = SplitMix64(41)
        m, fm = self.build(0.0, g.normal(50))
        assert glm.normalized_coefficients(m, fm)[1] == 0.0

    def test_intercept_entry_zero(self):
        g = SplitMix64(42)
        m, fm = self.build(0.4, g.normal(50))
        assert glm.normalized_coefficients(m, fm)[0] == 0.0
