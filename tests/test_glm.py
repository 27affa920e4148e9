import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardiotox import glm
from cardiotox.errors import (
    DegenerateOutcomeError,
    DimensionMismatchError,
    NotConvergedError,
    SeparationError,
    SingularInformationError,
    StatisticalError,
    ZeroSeError,
)
from cardiotox.preprocess import FeatureMatrix
from cardiotox.rng import SplitMix64
from cardiotox.tableio import write_csv


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

    def predict_prob(self, model, x):
        """The probability of one row, from the matrix predictor."""
        return glm.predict_matrix(model, np.asarray(x, dtype=np.float64)[None])[0]

    def test_zero_eta_is_half(self):
        assert self.predict_prob(self.model([0.0]), [1.0]) == 0.5

    def test_log_three(self):
        m = self.model([math.log(3.0)])
        assert self.predict_prob(m, [1.0]) == pytest.approx(0.75, abs=1e-12)

    def test_deep_tail_does_not_underflow(self):
        p = self.predict_prob(self.model([-40.0]), [1.0])
        assert 0.0 < p <= 1e-15

    def test_extreme_eta_stays_inside_unit_interval(self):
        assert self.predict_prob(self.model([-800.0]), [1.0]) > 0.0
        assert self.predict_prob(self.model([800.0]), [1.0]) < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            self.predict_prob(self.model([0.1, 0.2]), [1.0])

    def test_identical_rows_score_identically(self):
        # A BLAS matrix-vector product may round copies of one row differently by
        # where they sit: X @ beta split the copies in 5 of these 400 matrices
        # (OpenBLAS 0.3.31, Haswell kernels, one thread).
        rng = np.random.default_rng(2)
        for _ in range(400):
            n, p = int(rng.integers(20, 4000)), int(rng.integers(2, 28))
            X = rng.normal(size=(n, p))
            beta = rng.normal(size=p)
            copies = rng.choice(n, 16, replace=False)
            X[copies] = X[copies[0]]
            assert len(set(glm.predict_beta(beta, X)[copies])) == 1


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
        _, p = glm.wald(self.model(1.959964, 1.0), 1)
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

    def test_near_tie_removes_later_column(self):
        # Once x3 is gone, the binary x1 and x2 have a table symmetric in them, so
        # their p-values are equal in exact arithmetic. Rounding, and where a refit
        # stops, set them apart by up to 3e-11 relative, with either one larger.
        rng = np.random.default_rng(2)
        n, rho = 399, 0.9
        Z = np.sqrt(rho) * rng.normal(size=(n, 1)) + np.sqrt(1.0 - rho) * rng.normal(size=(n, 3))
        Z[:, :2] = Z[:, :2] > 0.0
        X = np.column_stack([np.ones(n), Z])
        truth = rng.normal(size=4) * 0.6 * (rng.random(4) < 0.5)
        fm = matrix(X, (rng.random(n) < reference_sigmoid(X @ truth)).astype(float))
        orders = [np.arange(n)] + [np.random.default_rng(k).permutation(n) for k in range(8)]
        for rows in orders:
            warm = fm.subset_rows(rows)  # x1 and x2 are refitted from a one-step estimate
            cold = warm.select_columns(("intercept", "x1", "x2"))  # fitted from zero
            assert [name for name, _ in glm.backward_eliminate(warm, 0.15).steps[:2]] == [
                "x3", "x2"]
            assert glm.backward_eliminate(cold, 0.15).steps[0][0] == "x2"

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
        terms = glm.InformationTerms(fm.X)
        betas, codes = glm.fit_logistic_counts(fm.X, fm.y, counts, start, terms)
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
        terms = glm.InformationTerms(fm.X)
        _, codes = glm.fit_logistic_counts(
            fm.X, fm.y, np.stack([ones, only_negatives, ones]), np.zeros(2), terms
        )
        assert codes == [None, DegenerateOutcomeError.code, None]
        betas, codes = glm.fit_logistic_counts(
            fm.X, fm.y, only_negatives[None, :], np.zeros(2), terms
        )
        assert codes == [DegenerateOutcomeError.code] and np.isnan(betas).all()
        _, codes = glm.fit_logistic_counts(
            separable.X, separable.y, ones[None, :], np.zeros(2),
            glm.InformationTerms(separable.X),
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
            X, fm.y, np.stack([ones, undrawn, ones]), np.zeros(3), glm.InformationTerms(X)
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
            fm.X, fm.y, np.ones((1, fm.n)), np.zeros(fm.p), glm.InformationTerms(fm.X)
        )
        assert codes == [NotConvergedError.code] and np.isnan(betas).all()


def dense_information(X, weights):
    """``Xᵀ diag(w) X`` for each row w of ``weights``, one fit at a time."""
    return np.stack([(X * w[:, None]).T @ X for w in weights])


def pairwise_information(X, weights):
    """The blocked information of old: each weight row times all pairwise column products."""
    rows, cols = np.triu_indices(X.shape[1])
    products = np.asfortranarray(np.column_stack([X[:, i] * X[:, j] for i, j in zip(rows, cols)]))
    upper = weights @ products
    info = np.empty((len(weights), X.shape[1], X.shape[1]))
    info[:, rows, cols] = upper
    info[:, cols, rows] = upper
    return info


def assert_information_within_bound(X, weights, info):
    """Two float sums of the same n nonnegative-weighted products differ by at most
    2·γₙ·(|X|ᵀ W |X|) entrywise, γₙ = n·u / (1 − n·u) with unit roundoff u = 2⁻⁵³."""
    n = X.shape[0]
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    bound = 2.0 * gamma * dense_information(np.abs(X), weights)
    assert np.all(np.abs(info - dense_information(X, weights)) <= bound)
    assert np.array_equal(info, np.swapaxes(info, 1, 2))


def indicator(g, n, prevalence):
    return (g.uniform(n) < prevalence).astype(float)


class TestInformationTerms:
    def test_no_indicator_column_keeps_the_pairwise_products_bit_for_bit(self):
        g = SplitMix64(51)
        X = np.column_stack([np.ones(500), g.normal(500), g.normal(500), g.uniform(500)])
        weights = g.uniform(16 * 500).reshape(16, 500)
        info = glm.InformationTerms(X)(weights)
        assert np.array_equal(info, pairwise_information(X, weights))
        assert_information_within_bound(X, weights, info)

    def test_every_column_but_the_intercept_an_indicator(self):
        g = SplitMix64(52)
        X = np.column_stack([np.ones(700)] + [indicator(g, 700, q) for q in (0.03, 0.2, 0.55, 0.9)])
        terms = glm.InformationTerms(X)
        assert [j for j, _, _ in terms.indicators] == [1, 2, 3, 4]
        assert terms.products.shape == (700, 1)
        weights = g.uniform(16 * 700).reshape(16, 700)
        assert_information_within_bound(X, weights, terms(weights))

    def test_all_ones_column_that_is_not_the_intercept_is_no_indicator(self):
        g = SplitMix64(53)
        X = np.column_stack([g.normal(300), np.ones(300), indicator(g, 300, 0.3)])
        terms = glm.InformationTerms(X)
        assert [j for j, _, _ in terms.indicators] == [2]
        weights = g.uniform(5 * 300).reshape(5, 300)
        assert_information_within_bound(X, weights, terms(weights))

    def test_all_zero_indicator_column_is_singular_as_in_the_dense_form(self):
        fm = simulate(54, 400, (-0.5, 0.6, -0.3))
        X = np.column_stack([fm.X, np.zeros(fm.n), indicator(SplitMix64(55), fm.n, 0.2)])
        terms = glm.InformationTerms(X)
        assert len(terms.indicators[0][1]) == 0  # the all-zero column: no rows
        weights = SplitMix64(56).uniform(4 * fm.n).reshape(4, fm.n)
        assert_information_within_bound(X, weights, terms(weights))
        counts = np.ones((2, fm.n))
        codes = glm.fit_logistic_counts(X, fm.y, counts, np.zeros(5), terms)[1]
        dense = glm.fit_logistic_counts(X, fm.y, counts, np.zeros(5),
                                        lambda w: dense_information(X, w))[1]
        assert codes == dense == [SingularInformationError.code] * 2

    def test_block_of_one_fit(self):
        g = SplitMix64(57)
        X = np.column_stack([np.ones(600), g.normal(600), indicator(g, 600, 0.1)])
        weights = g.uniform(600)[None, :]
        assert_information_within_bound(X, weights, glm.InformationTerms(X)(weights))

    def test_block_that_loses_fits_between_passes(self):
        g = SplitMix64(58)
        x, a, b = g.normal(800), indicator(g, 800, 0.25), indicator(g, 800, 0.6)
        X = np.column_stack([np.ones(800), x, a, b])
        y = (g.uniform(800) < glm.sigmoid(-0.5 + 0.8 * x + 0.7 * a - 0.4 * b)).astype(float)
        index = g.integers(800, 6 * 800).reshape(6, 800)
        counts = np.stack([np.bincount(idx, minlength=800) for idx in index]).astype(float)
        # starts at growing distances from the optimum need more passes
        start = glm.fit_logistic(matrix(X, y)).beta
        starts = start + np.linspace(0.0, 2.0, 6)[:, None]
        terms, sizes = glm.InformationTerms(X), []

        def checked(weights):
            sizes.append(len(weights))
            info = terms(weights)
            assert_information_within_bound(X, weights, info)
            return info

        betas, codes = glm.fit_logistic_counts(X, y, counts, starts, checked)
        assert codes == [None] * 6 and sizes[0] == 6 and 0 < sizes[-1] < 6
        expected, dense_codes = glm.fit_logistic_counts(X, y, counts, starts,
                                                        lambda w: dense_information(X, w))
        # the two paths may stop a pass apart, each within the stop rule's tolerance
        assert dense_codes == codes
        np.testing.assert_allclose(betas, expected, rtol=0, atol=1e-7)


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


# ---------------------------------------------------------------------------
# The coefficient report against a copy of the builder that filled each row by index.

REPORT_HEADER = ("variable", "coefficient", "std_error", "std_dev", "normalized_coefficient",
                 "z", "p_value")


def reference_coefficient_rows(model, fm):
    sd = glm.column_std(fm)
    normalized = glm.normalized_coefficients(model, fm)
    rows = []
    for j, name in enumerate(model.column_names):
        z, p_value = glm.wald(model, j)
        rows.append((name, float(model.beta[j]), float(model.se[j]), float(sd[j]),
                     float(normalized[j]), z, p_value))
    return rows


def constant_column_model():
    g = SplitMix64(43)
    names = ("intercept", "constant", "v")
    X = np.column_stack([np.ones(60), np.full(60, 7.0), g.normal(60)])
    model = glm.LogisticModel(
        column_names=names, beta=np.array([0.3, -1.5, -0.0]), se=np.array([0.2, 0.7, 0.05]),
        covariance=np.eye(3), log_likelihood=0.0, iterations=1, converged=True, n=60,
    )
    return model, matrix(X, np.zeros(60), names)


def fitted_model():
    fm = simulate(44, 300, [-0.5, 0.8, 0.0])
    return glm.fit_logistic(fm), fm


@pytest.mark.parametrize("case", [constant_column_model, fitted_model],
                         ids=["constant_column", "fitted"])
def test_coefficient_report_matches_the_row_by_row_builder(tmp_path, case):
    model, fm = case()
    glm.write_coefficient_report(tmp_path / "report.csv", model, fm)
    write_csv(tmp_path / "reference.csv", REPORT_HEADER, reference_coefficient_rows(model, fm))
    assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_coefficient_report_refuses_a_matrix_of_other_columns(tmp_path):
    model, fm = constant_column_model()
    with pytest.raises(DimensionMismatchError):
        glm.write_coefficient_report(tmp_path / "report.csv", model, fm.select_columns(
            ("intercept", "v", "constant")))
    assert not (tmp_path / "report.csv").exists()


# ---------------------------------------------------------------------------
# fit_logistic against a copy of the stand-alone single-fit IRLS loop it used
# to run. The lockstep engine must reproduce that loop bit for bit: the same
# coefficients, standard errors, covariance, log-likelihood and iteration count,
# and the same error, message and failure order when a fit fails.


def reference_sigmoid(eta):
    eta = np.asarray(eta, dtype=np.float64)
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def reference_log_likelihood(eta, y):
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def reference_cholesky_checked(info, X, names):
    try:
        chol = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise SingularInformationError(
            "information matrix is not positive definite",
            glm.find_collinear_columns(X, names),
        ) from None
    eigvals = np.linalg.eigvalsh(info)
    if eigvals[-1] <= 0.0 or eigvals[0] <= eigvals[-1] * glm.SINGULAR_RTOL:
        raise SingularInformationError(
            "information matrix is singular at working tolerance",
            glm.find_collinear_columns(X, names),
        )
    return chol


def reference_fit(fm, *, start=None):
    X, y = fm.X, fm.y
    n, p = X.shape
    if n <= p:
        raise SingularInformationError(
            f"n={n} rows cannot identify {p} coefficients",
            glm.find_collinear_columns(X, fm.column_names),
        )
    positives = float(np.sum(y))
    if positives == 0.0 or positives == float(n):
        raise DegenerateOutcomeError("outcome has a single class")

    beta = np.zeros(p) if start is None else np.asarray(start, dtype=np.float64).copy()
    if beta.shape != (p,):
        raise DimensionMismatchError(f"start vector has shape {beta.shape}, expected ({p},)")

    eta = X @ beta
    ll = reference_log_likelihood(eta, y)
    converged = False
    # `iterations` counts the Newton steps taken before this pass
    for iterations in range(glm.MAX_ITERATIONS + 1):
        if iterations == glm.MAX_ITERATIONS and not converged:
            raise NotConvergedError(f"no convergence after {glm.MAX_ITERATIONS} iterations")
        prob = reference_sigmoid(eta)
        if np.any((prob < glm.SEPARATION_PROB_EPS) | (prob > 1.0 - glm.SEPARATION_PROB_EPS)):
            if np.max(np.abs(beta)) > glm.SEPARATION_BETA_BOUND:
                raise SeparationError(
                    "fitted probabilities pinned at 0/1 with diverging coefficients"
                )
        weights = prob * (1.0 - prob)
        info = (X * weights[:, None]).T @ X
        chol = reference_cholesky_checked(info, X, fm.column_names)
        if converged:
            break

        score = X.T @ (y - prob)
        delta = np.linalg.solve(chol.T, np.linalg.solve(chol, score))
        step = 1.0
        new_beta = beta + delta
        new_eta = X @ new_beta
        new_ll = reference_log_likelihood(new_eta, y)
        halvings = 0
        while (not math.isfinite(new_ll) or new_ll < ll) and halvings < glm.MAX_STEP_HALVINGS:
            step *= 0.5
            halvings += 1
            new_beta = beta + step * delta
            new_eta = X @ new_beta
            new_ll = reference_log_likelihood(new_eta, y)

        beta_change = float(np.max(np.abs(new_beta - beta)))
        dev_change = abs(-2.0 * new_ll - (-2.0 * ll)) / (abs(-2.0 * ll) + 1.0)
        beta, eta, ll = new_beta, new_eta, new_ll
        converged = beta_change < glm.BETA_TOL or dev_change < glm.DEVIANCE_TOL

    covariance = np.linalg.inv(info)
    covariance = (covariance + covariance.T) / 2.0
    return glm.LogisticModel(
        column_names=fm.column_names,
        beta=beta,
        se=np.sqrt(np.diag(covariance)),
        covariance=covariance,
        log_likelihood=ll,
        iterations=iterations,
        converged=True,
        n=n,
    )


def fit_outcome(fit, fm, start=None):
    """The fitted model, or (error type, message, offending columns)."""
    try:
        return fit(fm, start=start)
    except StatisticalError as err:
        return type(err), str(err), getattr(err, "columns", None)


def assert_same_as_reference(fm, start=None):
    expected = fit_outcome(reference_fit, fm, start)
    got = fit_outcome(glm.fit_logistic, fm, start)
    if isinstance(expected, tuple):
        assert got == expected
        return expected
    assert isinstance(got, glm.LogisticModel), got
    for field in ("beta", "se", "covariance"):
        assert np.array_equal(getattr(got, field), getattr(expected, field)), field
    assert got.log_likelihood == expected.log_likelihood
    assert got.iterations == expected.iterations
    assert got.n == expected.n and got.column_names == expected.column_names
    return expected


def separable():
    x = np.linspace(-2, 2, 40)
    x = x[x != 0]
    return matrix(np.column_stack([np.ones_like(x), x]), (x > 0).astype(float))


def collinear(noise=0.0, n=50):
    g = SplitMix64(3)
    x = g.normal(n)
    copy = x + noise * g.normal(n) if noise else x
    X = np.column_stack([np.ones(n), x, copy])
    return matrix(X, (g.uniform(n) < 0.5).astype(float), ("intercept", "a", "a_copy"))


GLM_FIXTURES = {
    "intercept_only": lambda: matrix(np.ones((100, 1)), [1.0] * 25 + [0.0] * 75, ("intercept",)),
    "recovers": lambda: simulate(11, 5000, (-1.0, 0.8, -0.5)),
    "stationarity": lambda: simulate(21, 3000, (-0.5, 0.6, 0.3)),
    "sum_to_positives": lambda: simulate(22, 2500, (-1.2, 0.4)),
    "permutation": lambda: simulate(23, 800, (-0.8, 0.5, -0.4)),
    "rescale": lambda: simulate(24, 1500, (-0.6, 0.7)),
    "covariance": lambda: simulate(25, 1200, (-0.4, 0.3, 0.2)),
    "warm_start": lambda: simulate(26, 1000, (-0.9, 0.6)),
    "no_removal": lambda: simulate(31, 4000, (-0.5, 0.9, -0.8)),
    "noise_columns": lambda: simulate(32, 4000, (-0.5, 0.9, -0.8), extra_null=3),
    "threshold": lambda: simulate(33, 3000, (-0.5, 0.5), extra_null=4),
    "protected": lambda: simulate(34, 3000, (-0.5, 0.9), extra_null=3),
    "counts": lambda: simulate(41, 400, (-0.7, 0.8, -0.4), extra_null=1),
    "failure_codes": lambda: simulate(43, 300, (-0.5, 0.6)),
    "iterations": lambda: simulate(45, 500, (-1.5, 1.2, -0.8)),
    "xor": lambda: matrix(
        np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [1.0, -1.0, -1.0]] * 5),
        np.array([1.0, 0.0, 0.0, 1.0] * 5), ("intercept", "x1", "x2"),
    ),
    "separable": separable,
    "degenerate": lambda: matrix(np.column_stack([np.ones(20), np.arange(20.0)]), np.zeros(20)),
    "collinear": collinear,
    "near_collinear": lambda: collinear(noise=1e-6),
    "too_few_rows": lambda: matrix(np.column_stack([np.ones(3), np.arange(3.0), [0.0, 1, 4]]),
                                   [0.0, 1.0, 0.0]),
}


class TestSameAsReferenceLoop:
    @pytest.mark.parametrize("name", sorted(GLM_FIXTURES))
    def test_cold_and_warm_fixtures(self, name):
        fm = GLM_FIXTURES[name]()
        cold = assert_same_as_reference(fm)
        if isinstance(cold, glm.LogisticModel):
            assert_same_as_reference(fm, cold.beta + 0.05)
            assert_same_as_reference(fm, cold.beta)

    def test_failing_fixtures_keep_their_errors(self):
        raised = {name: fit_outcome(glm.fit_logistic, GLM_FIXTURES[name]())[0]
                  for name in ("separable", "degenerate", "collinear", "near_collinear",
                               "too_few_rows")}
        assert raised == {
            "separable": SeparationError,
            "degenerate": DegenerateOutcomeError,
            "collinear": SingularInformationError,
            "near_collinear": SingularInformationError,
            "too_few_rows": SingularInformationError,
        }

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 300),
        p=st.integers(1, 6),
        scale=st.sampled_from([0.3, 1.0, 3.0]),
        warm=st.sampled_from(["cold", "near", "far"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_designs(self, seed, n, p, scale, warm):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1)) * scale])
        if p > 2 and rng.random() < 0.3:
            X[:, -1] = (X[:, -1] > 0).astype(float)  # a binary column
        truth = rng.normal(size=p) * 0.8
        y = (rng.random(n) < reference_sigmoid(X @ truth)).astype(float)
        fm = matrix(X, y)
        start = None
        if warm == "near":
            start = truth + rng.normal(size=p) * 0.1
        elif warm == "far":
            start = rng.normal(size=p) * 3.0
        assert_same_as_reference(fm, start)

    # Several faults at once: the one checked first is raised, as in the loop.
    def test_too_few_rows_before_single_class(self):
        fm = matrix(np.ones((2, 3)), np.zeros(2))
        assert assert_same_as_reference(fm)[0] is SingularInformationError

    def test_single_class_before_start_shape(self):
        fm = GLM_FIXTURES["degenerate"]()
        assert assert_same_as_reference(fm, np.zeros(5))[0] is DegenerateOutcomeError

    def test_start_shape_before_any_pass(self):
        outcome = assert_same_as_reference(separable(), np.zeros(3))
        assert outcome[0] is DimensionMismatchError

    def test_iterations_run_out_before_separation(self, monkeypatch):
        assert assert_same_as_reference(separable())[0] is SeparationError
        monkeypatch.setattr(glm, "MAX_ITERATIONS", 2)
        assert assert_same_as_reference(separable())[0] is NotConvergedError

    def test_convergence_on_the_last_pass_is_kept(self, monkeypatch):
        fm = GLM_FIXTURES["iterations"]()
        steps = glm.fit_logistic(fm).iterations
        monkeypatch.setattr(glm, "MAX_ITERATIONS", steps)
        assert assert_same_as_reference(fm).iterations == steps
        monkeypatch.setattr(glm, "MAX_ITERATIONS", steps - 1)
        assert assert_same_as_reference(fm)[0] is NotConvergedError

    def test_separation_before_singular_information(self):
        # probabilities exactly 0 or 1: zero weights, so the information is zero too
        outcome = assert_same_as_reference(separable(), np.array([0.0, 800.0]))
        assert outcome[0] is SeparationError

    def test_each_singular_check_keeps_its_message(self):
        messages = {name: assert_same_as_reference(GLM_FIXTURES[name]())[1]
                    for name in ("too_few_rows", "near_collinear")}
        assert messages == {
            "too_few_rows": "n=3 rows cannot identify 3 coefficients",
            "near_collinear": "information matrix is singular at working tolerance",
        }
        X = np.column_stack([np.ones(30), np.zeros(30)])
        y = np.array([0.0, 1.0] * 15)
        message = assert_same_as_reference(matrix(X, y))[1]
        assert message == "information matrix is not positive definite (offending columns: x1)"


# ---------------------------------------------------------------------------
# backward_eliminate against a copy of the cold-start loop it used to run, where
# every refit started from zero. Refits now start from the one-step restricted
# estimate, which moves only the last digits: the same columns go in the same
# order and the same errors are raised.


def reference_backward_eliminate(fm, alpha_stay, protected=frozenset({"intercept"}),
                                 start=lambda model, j: None):
    """The cold-start loop; ``start(model, j)`` gives a refit's start after column j goes."""
    current = fm
    steps = []
    model = full_model = glm.fit_logistic(current)
    while True:
        worst_j = -1
        worst_p = -1.0
        for j, name in enumerate(current.column_names):
            if name in protected:
                continue
            _, p_value = glm.wald(model, j)
            if p_value >= worst_p:
                worst_p = p_value
                worst_j = j
        if worst_j < 0 or worst_p <= alpha_stay:
            break
        removed = current.column_names[worst_j]
        steps.append((removed, worst_p))
        kept = tuple(n for n in current.column_names if n != removed)
        current = current.select_columns(kept)
        model = glm.fit_logistic(current, start=start(model, worst_j))
    return glm.EliminationTrace(steps=tuple(steps), final_model=model, full_model=full_model)


def newton_refit(X, y):
    """Plain Newton steps to a step below 1e-13 of the coefficients' size."""
    beta = np.zeros(X.shape[1])
    for _ in range(60):
        prob = reference_sigmoid(X @ beta)
        info = (X * (prob * (1.0 - prob))[:, None]).T @ X
        step = np.linalg.solve(info, X.T @ (y - prob))
        beta = beta + step
        if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(beta))):
            return beta
    raise AssertionError("reference Newton fit did not converge")


def eliminate_outcome(eliminate, fm, alpha_stay, protected):
    """The trace, or the error code the elimination raised."""
    try:
        return eliminate(fm, alpha_stay, protected)
    except StatisticalError as err:
        return err.code


def assert_same_elimination(fm, alpha_stay, protected=frozenset({"intercept"})):
    expected = eliminate_outcome(reference_backward_eliminate, fm, alpha_stay, protected)
    got = eliminate_outcome(glm.backward_eliminate, fm, alpha_stay, protected)
    if isinstance(expected, str):
        assert got == expected
        return expected
    assert isinstance(got, glm.EliminationTrace), got
    removed = [name for name, _ in got.steps]
    expected_removed = [name for name, _ in expected.steps]
    parted = [i for i, pair in enumerate(zip(removed, expected_removed)) if pair[0] != pair[1]]
    if parted:
        # Two p-values equal in exact arithmetic (a symmetric table of binary
        # columns) are a tie that rounding breaks, on either side; after it the
        # traces may part.
        i = parted[0]
        before = fm.select_columns(tuple(c for c in fm.column_names if c not in removed[:i]))
        model = glm.fit_logistic(before)
        j, k = (model.column_names.index(name) for name in (removed[i], expected_removed[i]))
        assert abs(glm.wald(model, j)[1] - glm.wald(model, k)[1]) <= 1e-12
        return got
    assert removed == expected_removed
    assert got.final_model.column_names == expected.final_model.column_names
    for (_, p_got), (_, p_expected) in zip(got.steps, expected.steps):
        assert abs(p_got - p_expected) <= 1e-7
    final = fm.select_columns(expected.final_model.column_names)
    se = expected.final_model.se
    for beta in (expected.final_model.beta, newton_refit(final.X, final.y)):
        assert np.all(np.abs(got.final_model.beta - beta) <= 1e-6 * se)
    return got


ELIMINATION_FIXTURES = ("no_removal", "noise_columns", "threshold", "protected", "xor",
                        "collinear", "near_collinear", "separable", "degenerate")


class TestEliminateFromRestrictedEstimate:
    @pytest.mark.parametrize("name", ELIMINATION_FIXTURES)
    def test_fixtures(self, name):
        assert_same_elimination(GLM_FIXTURES[name](), 0.15)

    def test_protected_columns(self):
        fm = GLM_FIXTURES["protected"]()
        dropped = [name for name, _ in assert_same_elimination(fm, 0.15).steps]
        assert_same_elimination(fm, 0.15, frozenset({"intercept", *dropped}))

    def test_acceptance_designs(self):
        # the 100 designs of test_c05_elimination_retention
        true_beta = np.array([0.5, -0.6, 0.7, -0.5, 0.55])
        names = ("intercept",) + tuple(f"t{i}" for i in range(5)) + tuple(
            f"z{i}" for i in range(5))
        for s in range(100):
            g = SplitMix64(600000 + s)
            n = 2000
            X = np.column_stack([np.ones(n)] + [g.normal(n) for _ in range(10)])
            eta = -0.5 + X[:, 1:6] @ true_beta
            y = (g.uniform(n) < 1 / (1 + np.exp(-eta))).astype(float)
            assert isinstance(assert_same_elimination(matrix(X, y, names), 0.15),
                              glm.EliminationTrace)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(60, 400),
        p=st.integers(2, 8),
        rho=st.sampled_from([0.0, 0.5, 0.9]),
        binary=st.integers(0, 3),
        alpha_stay=st.sampled_from([0.15, 0.01, 1e-6]),
    )
    @settings(max_examples=150, deadline=None)
    def test_correlated_designs(self, seed, n, p, rho, binary, alpha_stay):
        rng = np.random.default_rng(seed)
        shared = rng.normal(size=(n, 1))
        Z = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * rng.normal(size=(n, p - 1))
        Z[:, : min(binary, p - 1)] = Z[:, : min(binary, p - 1)] > 0.0  # binary columns
        X = np.column_stack([np.ones(n), Z])
        truth = rng.normal(size=p) * 0.6 * (rng.random(p) < 0.5)
        y = (rng.random(n) < reference_sigmoid(X @ truth)).astype(float)
        assert_same_elimination(matrix(X, y), alpha_stay)

    def test_refits_factor_fewer_matrices(self, monkeypatch):
        factored = []
        factor = glm._factor
        monkeypatch.setattr(glm, "_factor", lambda info: factored.append(len(info)) or factor(info))

        def factorizations(eliminate, fm, **kwargs):
            del factored[:]
            eliminate(fm, 0.15, **kwargs)
            return len(factored)

        fm = GLM_FIXTURES["threshold"]()
        assert factorizations(glm.backward_eliminate, fm) < factorizations(
            reference_backward_eliminate, fm)
        # With correlated columns, dropping one moves the others: the one-step
        # estimate starts closer than the previous coefficients without entry j.
        g = SplitMix64(700)
        n = 2000
        shared = g.normal(n)
        X = np.column_stack([np.ones(n)] + [np.sqrt(0.8) * shared + np.sqrt(0.2) * g.normal(n)
                                            for _ in range(8)])
        eta = -0.5 + X[:, 1:4] @ np.array([0.3, -0.2, 0.05])
        fm = matrix(X, (g.uniform(n) < reference_sigmoid(eta)).astype(float))
        assert factorizations(glm.backward_eliminate, fm) < factorizations(
            reference_backward_eliminate, fm, start=lambda model, j: np.delete(model.beta, j))
