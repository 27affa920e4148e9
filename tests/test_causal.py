import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardiotox import causal, glm, synth
from cardiotox.cohort import Treatment
from cardiotox.errors import (
    ConfigError,
    DegenerateOutcomeError,
    DimensionMismatchError,
    MissingArmError,
    NotConvergedError,
    SeparationError,
    SingularInformationError,
    StatisticalError,
    TooManyBootFailuresError,
)
from cardiotox.preprocess import TREATMENT_DUMMIES, FeatureMatrix
from cardiotox.preprocess import Treatment as PTreatment
from cardiotox.rng import SplitMix64
from cardiotox.tableio import write_csv

from test_acceptance import SCALE_SPEC
from test_ingest import MEMORY_SPEC


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def cohort_features(seed=4001, n=1500, chemo_coef=1.0, targeted_coef=0.0,
                    confounded=False, n_boot_spec=None):
    treatment_model = (
        {"kind": "logistic",
         "chemo_vs_rest": {"intercept": -1.2, "hba1c": 0.3},
         "targeted_vs_radiation": {"intercept": -0.7}}
        if confounded
        else {"kind": "randomized", "p_chemo": 0.3, "p_targeted": 0.3}
    )
    outcome = {"intercept": -2.0, "CHEMOTHERAPY": chemo_coef, "TARGETED": targeted_coef}
    if confounded:
        outcome["hba1c"] = 0.4
    spec = synth.parse_spec({
        "n": n, "seed": seed,
        "covariates": [{"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 1.0}],
        "treatment_model": treatment_model,
        "outcome_models": {"CHF": outcome},
    })
    return spec, synth.to_features(synth.generate(spec))


class TestEstimate:
    def test_zero_dummy_coefficients_give_zero_effects(self):
        _, feats = cohort_features()
        fm = causal.build_causal_matrix(feats, "CHF", ("hba1c",))
        model = glm.fit_logistic(fm)
        zeroed = glm.LogisticModel(
            column_names=model.column_names,
            beta=np.array([model.beta[0], 0.0, 0.0, model.beta[3]]),
            se=model.se, covariance=model.covariance,
            log_likelihood=model.log_likelihood, iterations=model.iterations,
            converged=True, n=model.n,
        )
        points = causal.effects_from_model(zeroed, fm)
        assert all(v == 0.0 for v in points.values())

    def test_no_covariate_closed_form(self):
        _, feats = cohort_features(seed=4002, n=4000)
        ests = {(e.treatment, e.estimand): e.point
                for e in causal.estimate_effects(feats, "CHF", covariates=())}
        fm = causal.build_causal_matrix(feats, "CHF", ())
        m = glm.fit_logistic(fm)
        b0, bc, bt = m.beta
        expected_c = sigmoid(b0 + bc) - sigmoid(b0)
        expected_t = sigmoid(b0 + bt) - sigmoid(b0)
        assert ests[("CHEMOTHERAPY", "ATE")] == pytest.approx(expected_c, abs=1e-12)
        assert ests[("CHEMOTHERAPY", "ATT")] == pytest.approx(expected_c, abs=1e-12)
        assert ests[("TARGETED", "ATE")] == pytest.approx(expected_t, abs=1e-12)
        assert ests[("CHEMOTHERAPY", "ATE")] == ests[("CHEMOTHERAPY", "ATT")]

    def test_effect_sign_matches_dummy_coefficient(self):
        _, feats = cohort_features(seed=4003, n=3000, chemo_coef=0.8,
                                   targeted_coef=-0.6, confounded=True)
        fm = causal.build_causal_matrix(feats, "CHF", ("hba1c",))
        model = glm.fit_logistic(fm)
        points = causal.effects_from_model(model, fm)
        bc = model.beta[list(model.column_names).index("treatment_chemotherapy")]
        bt = model.beta[list(model.column_names).index("treatment_targeted")]
        assert math.copysign(1, points[("CHEMOTHERAPY", "ATE")]) == math.copysign(1, bc)
        assert math.copysign(1, points[("CHEMOTHERAPY", "ATT")]) == math.copysign(1, bc)
        assert math.copysign(1, points[("TARGETED", "ATE")]) == math.copysign(1, bt)

    def test_att_is_restricted_mean_of_same_differences(self):
        _, feats = cohort_features(seed=4004, n=2000, confounded=True)
        fm = causal.build_causal_matrix(feats, "CHF", ("hba1c",))
        model = glm.fit_logistic(fm)
        points = causal.effects_from_model(model, fm)

        chemo_col = fm.column_names.index("treatment_chemotherapy")
        targ_col = fm.column_names.index("treatment_targeted")
        X_ref = fm.X.copy()
        X_ref[:, chemo_col] = 0.0
        X_ref[:, targ_col] = 0.0
        X_c = X_ref.copy()
        X_c[:, chemo_col] = 1.0
        diff = glm.predict_matrix(model, X_c) - glm.predict_matrix(model, X_ref)
        treated = fm.X[:, chemo_col] == 1.0
        assert points[("CHEMOTHERAPY", "ATE")] == pytest.approx(float(diff.mean()), abs=1e-12)
        assert points[("CHEMOTHERAPY", "ATT")] == pytest.approx(
            float(diff[treated].mean()), abs=1e-12)

    def test_row_permutation_invariance(self):
        _, feats = cohort_features(seed=4005, n=900, confounded=True)
        shuffled = list(reversed(feats))
        a = causal.estimate_effects(feats, "CHF", ("hba1c",))
        b = causal.estimate_effects(shuffled, "CHF", ("hba1c",))
        for ea, eb in zip(a, b):
            assert ea == eb

    def test_missing_arm(self):
        _, feats = cohort_features(seed=4006, n=400)
        only_two = [f for f in feats if f.treatment is not PTreatment.TARGETED]
        with pytest.raises(MissingArmError):
            causal.estimate_effects(only_two, "CHF", ("hba1c",))

    def test_arms_only_restricts_ate_average(self):
        _, feats = cohort_features(seed=4007, n=2500, confounded=True)
        full = {(e.treatment, e.estimand): e.point
                for e in causal.estimate_effects(feats, "CHF", ("hba1c",))}
        arms = {(e.treatment, e.estimand): e.point
                for e in causal.estimate_effects(feats, "CHF", ("hba1c",), arms_only=True)}
        assert full[("CHEMOTHERAPY", "ATT")] == arms[("CHEMOTHERAPY", "ATT")]
        assert full[("CHEMOTHERAPY", "ATE")] != arms[("CHEMOTHERAPY", "ATE")]

    def test_elimination_keeps_treatment_dummies(self):
        _, feats = cohort_features(seed=4008, n=2000, chemo_coef=0.0,
                                   targeted_coef=0.0, confounded=True)
        ests = causal.estimate_effects(feats, "CHF", ("hba1c",), eliminate_alpha=0.15)
        assert len(ests) == 4  # dummies survive even with null effects


class TestBootstrap:
    def test_deterministic_given_seed(self, tmp_path):
        _, feats = cohort_features(seed=4010, n=800)
        a = causal.bootstrap_effects(feats, "CHF", ("hba1c",), n_boot=150, seed=99)
        b = causal.bootstrap_effects(feats, "CHF", ("hba1c",), n_boot=150, seed=99)
        assert a == b
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        causal.write_effects_csv(p1, a)
        causal.write_effects_csv(p2, b)
        assert p1.read_bytes() == p2.read_bytes()

    def test_point_comes_from_full_sample(self):
        _, feats = cohort_features(seed=4011, n=800)
        boot = causal.bootstrap_effects(feats, "CHF", ("hba1c",), n_boot=120, seed=7)
        plain = causal.estimate_effects(feats, "CHF", ("hba1c",))
        for e_boot, e_plain in zip(boot, plain):
            assert e_boot.point == e_plain.point

    def test_ci_ordering_and_bookkeeping(self):
        _, feats = cohort_features(seed=4012, n=800)
        for e in causal.bootstrap_effects(feats, "CHF", ("hba1c",), n_boot=130, seed=3):
            assert e.ci_low <= e.ci_high
            assert e.boot_se > 0
            assert e.n_boot_requested == 130
            assert 0 < e.n_boot_succeeded <= 130
            assert -1.0 <= e.point <= 1.0

    def test_rejects_tiny_b(self):
        _, feats = cohort_features(seed=4013, n=400)
        with pytest.raises(ConfigError):
            causal.bootstrap_effects(feats, "CHF", ("hba1c",), n_boot=50, seed=1)

    def test_too_many_failures_reports_taxonomy(self):
        pruned = pruned_targeted_features()
        with pytest.raises(TooManyBootFailuresError) as err:
            causal.bootstrap_effects(pruned, "CHF", ("hba1c",), n_boot=120, seed=17)
        assert err.value.failures.get("MISSING_ARM", 0) > 0
        assert err.value.succeeded < 0.95 * 120


def rowcopy_bootstrap(feats, outcome, covariates, n_boot, seed, arms_only=False):
    """Reference bootstrap: copy each replicate's rows and fit them on their own."""
    fm = causal.build_causal_matrix(feats, outcome, covariates)
    full = glm.fit_logistic(fm)
    points = causal.effects_from_model(full, fm, arms_only)
    index = SplitMix64(seed).integers(fm.n, n_boot * fm.n).reshape(n_boot, fm.n)
    draws = {key: [] for key in points}
    failures = {}
    for idx in index:
        resampled = FeatureMatrix(
            fm.column_names, fm.X[idx], fm.y[idx], ("",) * fm.n, fm.outcome
        )
        try:
            if not all(np.any(m) for m in causal._arm_masks(resampled).values()):
                raise MissingArmError("arm not drawn")
            model = glm.fit_logistic(resampled, start=full.beta)
        except StatisticalError as err:
            failures[err.code] = failures.get(err.code, 0) + 1
            continue
        for key, value in causal.effects_from_model(model, resampled, arms_only).items():
            draws[key].append(value)
    return points, draws, failures


def rare_outcome_features(seed=4121):
    # ~5 events in 260 patients: replicates fail by separation and degeneracy
    spec = synth.parse_spec({
        "n": 260, "seed": seed,
        "covariates": [{"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 1.0}],
        "treatment_model": {"kind": "randomized", "p_chemo": 0.4, "p_targeted": 0.3},
        "outcome_models": {"CHF": {"intercept": -4.0, "CHEMOTHERAPY": 1.0, "TARGETED": 0.5}},
    })
    return synth.to_features(synth.generate(spec))


def pruned_targeted_features():
    # a 1-patient targeted arm vanishes from most resamples
    _, feats = cohort_features(seed=4014, n=600)
    chemo = [f for f in feats if f.treatment is PTreatment.CHEMOTHERAPY]
    radiation = [f for f in feats if f.treatment is PTreatment.RADIATION]
    targeted = [f for f in feats if f.treatment is PTreatment.TARGETED][:1]
    return chemo + radiation + targeted


class TestLockstepMatchesRowCopies:
    CASES = {
        "plain": (lambda: cohort_features(seed=4010, n=800)[1], ("hba1c",), 150, 99, False),
        "arms_only": (lambda: cohort_features(seed=4007, n=1200, confounded=True)[1],
                      ("hba1c",), 120, 11, True),
        "no_covariates": (lambda: cohort_features(seed=4002, n=900)[1], (), 120, 23, False),
        "rare_outcome": (rare_outcome_features, ("hba1c",), 130, 5, False),
        "pruned_targeted_arm": (pruned_targeted_features, ("hba1c",), 120, 17, False),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_draws_failures_and_estimates(self, case, monkeypatch):
        make, covariates, n_boot, seed, arms_only = self.CASES[case]
        feats = make()
        points, draws, failures = rowcopy_bootstrap(
            feats, "CHF", covariates, n_boot, seed, arms_only)
        succeeded = len(draws[("CHEMOTHERAPY", "ATE")])

        # a floor above 1 makes every run report its failure taxonomy
        monkeypatch.setattr(causal, "BOOTSTRAP_SUCCESS_FLOOR", 1.01)
        with pytest.raises(TooManyBootFailuresError) as err:
            causal.bootstrap_effects(feats, "CHF", covariates, n_boot=n_boot, seed=seed,
                                     arms_only=arms_only)
        assert err.value.failures == failures
        assert err.value.succeeded == succeeded
        if case == "rare_outcome":
            assert set(failures) == {"SEPARATION_DETECTED", "DEGENERATE_OUTCOME"}
        if case == "pruned_targeted_arm":
            # the lone targeted patient is either undrawn or alone in its arm
            assert set(failures) == {"MISSING_ARM", "SINGULAR_INFORMATION"}
            assert succeeded == 0
            return

        monkeypatch.setattr(causal, "BOOTSTRAP_SUCCESS_FLOOR", 0.0)
        ests = causal.bootstrap_effects(feats, "CHF", covariates, n_boot=n_boot, seed=seed,
                                        arms_only=arms_only)
        for e in ests:
            values = np.asarray(draws[(e.treatment, e.estimand)])
            ci_low, ci_high = np.percentile(values, [2.5, 97.5], method="linear")
            assert e.point == points[(e.treatment, e.estimand)]
            assert e.n_boot_succeeded == succeeded
            assert abs(e.boot_se - np.std(values, ddof=1)) <= 1e-9
            # When a replicate's last Newton step changes the log-likelihood by
            # less than its rounding error, whether that step is kept or halved
            # away is rounding noise in either path, so the two fits can end up
            # to ~5e-8 apart in beta. A CI bound is one replicate's value, and
            # "plain" shows such a gap of 1.2e-9; the SE averages it out.
            assert abs(e.ci_low - ci_low) <= 1e-8
            assert abs(e.ci_high - ci_high) <= 1e-8
        if case == "no_covariates":
            by_key = {(e.treatment, e.estimand): e for e in ests}
            for t in ("CHEMOTHERAPY", "TARGETED"):
                ate, att = by_key[(t, "ATE")], by_key[(t, "ATT")]
                assert (ate.boot_se, ate.ci_low, ate.ci_high) == (
                    att.boot_se, att.ci_low, att.ci_high)

    def test_undrawn_row_cannot_trip_separation(self):
        # x/100 needs a coefficient far above the separation bound; one extra
        # row at x = 1000 is pinned at probability 1 whenever it is drawn
        g = SplitMix64(4200)
        x = g.normal(300)
        y = (g.uniform(300) < 1.0 / (1.0 + np.exp(0.5 - x))).astype(float)
        X = np.column_stack([np.ones(301), np.append(x, 1000.0) / 100.0])
        y = np.append(y, 1.0)
        start = glm.fit_logistic(FeatureMatrix(
            ("intercept", "x"), X[:300], y[:300], ("",) * 300, "CHF")).beta
        assert np.max(np.abs(start)) > glm.SEPARATION_BETA_BOUND
        counts = np.ones((2, 301))
        counts[0, 300] = 0.0
        betas, codes = glm.fit_logistic_counts(X, y, counts, start, glm.InformationTerms(X))
        assert codes == [None, SeparationError.code]
        assert np.max(np.abs(betas[0] - start)) < 1e-9
        with pytest.raises(SeparationError):
            glm.fit_logistic(FeatureMatrix(("intercept", "x"), X, y, ("",) * 301, "CHF"),
                             start=start)


def test_each_effects_call_fits_its_full_sample_model_once(monkeypatch):
    _, feats = cohort_features(seed=4011, n=800)
    calls = []
    fit = glm.fit_logistic

    def counted_fit(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(glm, "fit_logistic", counted_fit)
    causal.bootstrap_effects(feats, "CHF", ("hba1c",), n_boot=100, seed=7)
    assert len(calls) == 1
    causal.estimate_effects(feats, "CHF", ("hba1c",))
    assert len(calls) == 2
    # an empty arm is found before any fit
    only_two = [f for f in feats if f.treatment is not PTreatment.TARGETED]
    with pytest.raises(MissingArmError):
        causal.bootstrap_effects(only_two, "CHF", ("hba1c",), n_boot=100, seed=7)
    with pytest.raises(MissingArmError):
        causal.estimate_effects(only_two, "CHF", ("hba1c",))
    assert len(calls) == 2


def test_eliminated_replicates_match_row_copy_elimination():
    _, feats = cohort_features(seed=4016, n=600)  # hba1c has no effect: mostly dropped
    fm = causal.build_causal_matrix(feats, "CHF", ("hba1c",))
    protected = frozenset({"intercept", "treatment_chemotherapy", "treatment_targeted"})
    index = SplitMix64(31).integers(fm.n, 100 * fm.n).reshape(100, fm.n)
    draws, kept_hba1c = [], 0
    for idx in index:
        resampled = fm.subset_rows(idx)
        model = glm.backward_eliminate(resampled, 0.15, protected=protected).final_model
        reduced = resampled.select_columns(model.column_names)
        draws.append(causal.effects_from_model(model, reduced)[("CHEMOTHERAPY", "ATE")])
        kept_hba1c += "hba1c" in model.column_names
    assert 0 < kept_hba1c < 50  # column sets differ between replicates
    ests = causal.bootstrap_effects(feats, "CHF", ("hba1c",), n_boot=100, seed=31,
                                    eliminate_alpha=0.15)
    e = next(x for x in ests if (x.treatment, x.estimand) == ("CHEMOTHERAPY", "ATE"))
    assert e.n_boot_succeeded == 100
    assert e.boot_se == float(np.std(draws, ddof=1))
    assert e.point == causal.estimate_effects(
        feats, "CHF", ("hba1c",), eliminate_alpha=0.15)[0].point


def test_bootstrap_memory_does_not_grow_with_b():
    _, feats = cohort_features(seed=4015, n=800)
    peaks = {}
    for n_boot in (200, 1000):
        tracemalloc.start()
        try:
            causal.bootstrap_effects(feats, "CHF", ("hba1c",), n_boot=n_boot, seed=8)
            peaks[n_boot] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # B x n int64 indices alone would add 800 * 800 * 8 bytes = 5 MB at B=1000
    assert peaks[1000] < 1.1 * peaks[200]


def test_information_terms_take_less_than_half_the_pairwise_products():
    # 18 of the default design's 27 columns are indicators with prevalence 0.03-0.55;
    # all n * p(p+1)/2 pairwise products take exactly 1.0 times the bound's unit
    fm = causal.build_causal_matrix(synth.to_features(synth.generate(synth.parse_spec(
        MEMORY_SPEC))), "CHF")
    tracemalloc.start()
    try:
        terms = glm.InformationTerms(fm.X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (fm.n, fm.p, len(terms.indicators)) == (20_000, 27, 18)
    assert peak <= 0.45 * fm.n * fm.p * (fm.p + 1) / 2 * 8


# ---------------------------------------------------------------------------
# Blocked fits against a copy of the stop rule they used to have: a fit whose
# step met the convergence test ran one more whole pass at its optimum, which
# factored and checked its information again before it stopped.


def reference_blocked_irls(X, y, counts, start, terms):
    """The blocked ``glm._irls`` of old: the coefficients and each fit's error code."""
    p = X.shape[1]
    beta_out = np.full((len(counts), p), np.nan)
    codes = [None] * len(counts)
    totals, positives = counts.sum(axis=1), counts @ y
    for b in range(len(counts)):
        if totals[b] <= p:
            codes[b] = SingularInformationError.code
        elif positives[b] == 0.0 or positives[b] == totals[b]:
            codes[b] = DegenerateOutcomeError.code
    fit = np.array([b for b, code in enumerate(codes) if code is None], dtype=np.int64)
    if not len(fit):
        return beta_out, codes
    C = counts[fit]
    drawn = C > 0.0

    def log_likelihood(eta, C):
        softplus = np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0)
        return (C * (y * eta - softplus)).sum(axis=1)

    beta = np.repeat(start[None, :], len(fit), axis=0)
    eta = beta @ X.T
    ll = log_likelihood(eta, C)
    done = np.zeros(len(fit), dtype=bool)
    for iteration in range(glm.MAX_ITERATIONS + 1):
        e = np.exp(-np.abs(eta))
        prob = np.where(eta >= 0, 1.0, e) / (1.0 + e)
        pinned = (prob < glm.SEPARATION_PROB_EPS) | (prob > 1.0 - glm.SEPARATION_PROB_EPS)
        diverging = np.abs(beta).max(axis=1) > glm.SEPARATION_BETA_BOUND
        separated = (pinned & drawn).any(axis=1) & diverging
        weights = prob * (1.0 - prob) * C
        info = terms(weights)
        chol, not_definite, ill_conditioned = glm._factor(info)
        stop = done | separated | not_definite | ill_conditioned
        if iteration == glm.MAX_ITERATIONS:
            stop[:] = True
        for k in np.flatnonzero(stop):
            if iteration == glm.MAX_ITERATIONS and not done[k]:
                codes[fit[k]] = NotConvergedError.code
            elif separated[k]:
                codes[fit[k]] = SeparationError.code
            elif not_definite[k] or ill_conditioned[k]:
                codes[fit[k]] = SingularInformationError.code
            else:
                beta_out[fit[k]] = beta[k]
        keep = ~stop
        if not keep.any():
            break
        fit, C, drawn, beta = fit[keep], C[keep], drawn[keep], beta[keep]
        eta, ll, chol, prob = eta[keep], ll[keep], chol[keep], prob[keep]

        score = (C * (y - prob)) @ X
        z = np.linalg.solve(chol, score[:, :, None])
        delta = np.linalg.solve(np.swapaxes(chol, 1, 2), z)[:, :, 0]
        new_beta = beta + delta
        new_eta = new_beta @ X.T
        new_ll = log_likelihood(new_eta, C)
        for halvings in range(1, glm.MAX_STEP_HALVINGS + 1):
            retry = ~np.isfinite(new_ll) | (new_ll < ll)
            if not retry.any():
                break
            new_beta[retry] = beta[retry] + 0.5**halvings * delta[retry]
            new_eta[retry] = new_beta[retry] @ X.T
            new_ll[retry] = log_likelihood(new_eta[retry], C[retry])
        dev_change = np.abs(new_ll - ll) / (np.abs(ll) + 0.5)
        done = (np.abs(new_beta - beta).max(axis=1) < glm.BETA_TOL) | (
            dev_change < glm.DEVIANCE_TOL)
        beta, eta, ll = new_beta, new_eta, new_ll
    return beta_out, codes


def replicate_blocks(feats, covariates, n_boot, seed):
    """The design, full-sample start and count blocks ``bootstrap_effects`` fits."""
    fm = causal.build_causal_matrix(feats, "CHF", covariates)
    masks = causal._arm_masks(fm)
    rng = SplitMix64(seed)
    blocks = []
    for first in range(0, n_boot, causal.REPLICATE_BLOCK):
        block = min(causal.REPLICATE_BLOCK, n_boot - first)
        index = rng.integers(fm.n, block * fm.n).reshape(block, fm.n)
        counts = np.stack([np.bincount(idx, minlength=fm.n) for idx in index]).astype(float)
        # replicates missing an arm are never fitted
        blocks.append(counts[np.all([counts @ masks[t] > 0 for t in masks], axis=0)])
    return fm, glm.fit_logistic(fm).beta, blocks


def compare_with_reference(feats, covariates, n_boot, seed):
    """Failure counts by code, after comparing every replicate with the old stop rule."""
    fm, start, blocks = replicate_blocks(feats, covariates, n_boot, seed)
    terms = glm.InformationTerms(fm.X)
    failures = {}
    for counts in blocks:
        # fitted alone, a replicate meets the same terms under both rules
        for alone in counts[:, None, :]:
            betas, codes = glm.fit_logistic_counts(fm.X, fm.y, alone, start, terms)
            expected_betas, expected_codes = reference_blocked_irls(
                fm.X, fm.y, alone, start, terms)
            assert codes == expected_codes
            assert np.array_equal(betas, expected_betas, equal_nan=True)
        # In a block, fits now leave a pass sooner, and the BLAS may round a fit's
        # information sums differently once the block holds fewer rows (a few ulp, rarely).
        betas, codes = glm.fit_logistic_counts(fm.X, fm.y, counts, start, terms)
        expected_betas, expected_codes = reference_blocked_irls(
            fm.X, fm.y, counts, start, terms)
        assert codes == expected_codes
        np.testing.assert_allclose(betas, expected_betas, rtol=1e-12, atol=1e-12)
        for code in codes:
            failures[code] = failures.get(code, 0) + 1
    return failures


class TestBlockedStopRule:
    @pytest.mark.parametrize("case", sorted(TestLockstepMatchesRowCopies.CASES))
    def test_fixtures_match_the_old_stop_rule(self, case):
        make, covariates, n_boot, seed, _ = TestLockstepMatchesRowCopies.CASES[case]
        compare_with_reference(make(), covariates, n_boot, seed)

    def test_rare_outcome_seeds_match_the_old_stop_rule(self):
        codes, cohorts = {}, 0
        for k in range(40):
            try:
                failures = compare_with_reference(
                    rare_outcome_features(seed=4300 + k), ("hba1c",), 32, 600 + k)
            except SeparationError:  # the full sample separates: nothing to resample
                continue
            cohorts += 1
            for code, count in failures.items():
                codes[code] = codes.get(code, 0) + count
        assert cohorts >= 20
        # the cases that once ended only on the pass at the optimum all occur
        assert codes.get(SeparationError.code, 0) > 0 and codes.get(None, 0) > 0

    def test_blocked_fits_skip_the_pass_at_the_optimum(self, monkeypatch):
        factored = []
        factor = glm._factor
        monkeypatch.setattr(glm, "_factor", lambda info: factored.append(len(info)) or factor(info))
        make, covariates, n_boot, seed, _ = TestLockstepMatchesRowCopies.CASES["plain"]
        fm, start, blocks = replicate_blocks(make(), covariates, n_boot, seed)
        terms = glm.InformationTerms(fm.X)
        for counts in blocks:
            del factored[:]
            _, codes = glm.fit_logistic_counts(fm.X, fm.y, counts, start, terms)
            now = sum(factored)
            del factored[:]
            reference_blocked_irls(fm.X, fm.y, counts, start, terms)
            assert codes == [None] * len(counts)
            # each fit's information is factored once fewer: at its optimum
            assert sum(factored) - now == len(counts)
        # a single fit still factors its information at the optimum, for its covariance
        del factored[:]
        model = glm.fit_logistic(fm)
        assert factored == [1] * (model.iterations + 1)


# ---------------------------------------------------------------------------
# Replicates start from their one-step estimate off the full-sample optimum.


def one_step_starts(fm, full, counts):
    """``β̂ + Σ̂ Xᵀ(c ∘ (y − p̂))`` for each row c of ``counts``, written out."""
    residual = fm.y - glm.sigmoid(fm.X @ full.beta)
    return np.stack([full.beta + full.covariance @ (fm.X.T @ (c * residual)) for c in counts])


class TestOneStepStarts:
    def test_one_start_per_fit_matches_a_shared_start(self):
        make, covariates, n_boot, seed, _ = TestLockstepMatchesRowCopies.CASES["plain"]
        fm, start, blocks = replicate_blocks(make(), covariates, n_boot, seed)
        terms = glm.InformationTerms(fm.X)
        counts = blocks[0].copy()
        counts[0] = fm.y  # only events drawn: fails before any pass, so its start is unused
        shared = glm.fit_logistic_counts(fm.X, fm.y, counts, start, terms)
        starts = np.repeat(start[None, :], len(counts), axis=0)
        starts[0] = np.nan
        betas, codes = glm.fit_logistic_counts(fm.X, fm.y, counts, starts, terms)
        assert codes == shared[1] and codes[0] == DegenerateOutcomeError.code
        assert np.array_equal(betas, shared[0], equal_nan=True)
        with pytest.raises(DimensionMismatchError, match=rf"shape \({len(counts) + 1}, 4\), "
                           rf"expected \({len(counts)}, 4\)"):
            glm.fit_logistic_counts(fm.X, fm.y, counts, np.vstack([starts, start]), terms)

    def test_bootstrap_hands_each_fit_its_one_step_start(self, monkeypatch):
        make, covariates, n_boot, seed, _ = TestLockstepMatchesRowCopies.CASES["plain"]
        feats = make()
        fm, _, blocks = replicate_blocks(feats, covariates, n_boot, seed)
        full = glm.fit_logistic(fm)
        calls, factored = [], []
        fit_counts, factor = glm.fit_logistic_counts, glm._factor

        def recorded(X, y, counts, start, terms):
            calls.append((counts, start))
            return fit_counts(X, y, counts, start, terms)

        monkeypatch.setattr(glm, "fit_logistic_counts", recorded)
        monkeypatch.setattr(glm, "_factor", lambda info: factored.append(len(info)) or factor(info))
        one_step = causal.bootstrap_effects(feats, "CHF", covariates, n_boot=n_boot, seed=seed)
        passes = len(factored)
        assert len(calls) == len(blocks)
        for (counts, start), expected_counts in zip(calls, blocks):
            assert np.array_equal(counts, expected_counts)
            np.testing.assert_allclose(start, one_step_starts(fm, full, counts),
                                       rtol=0, atol=1e-12)

        # the same bootstrap with every fit started at the full-sample optimum
        monkeypatch.setattr(glm, "fit_logistic_counts", lambda X, y, counts, start, terms:
                            fit_counts(X, y, counts, full.beta, terms))
        del factored[:]
        at_optimum = causal.bootstrap_effects(feats, "CHF", covariates, n_boot=n_boot, seed=seed)
        assert passes < len(factored)
        for a, b in zip(one_step, at_optimum):
            assert (a.point, a.n_boot_succeeded) == (b.point, b.n_boot_succeeded)
            # a CI bound is one replicate's value: the step-rule rounding noise of
            # TestLockstepMatchesRowCopies (2.0e-9 here), which the SE averages out
            assert abs(a.boot_se - b.boot_se) <= 1e-9
            assert abs(a.ci_low - b.ci_low) <= 1e-8 and abs(a.ci_high - b.ci_high) <= 1e-8

    @pytest.mark.parametrize("case", sorted(TestLockstepMatchesRowCopies.CASES))
    def test_same_failures_and_optimum_as_from_the_full_sample_optimum(self, case):
        make, covariates, n_boot, seed, _ = TestLockstepMatchesRowCopies.CASES[case]
        fm, start, blocks = replicate_blocks(make(), covariates, n_boot, seed)
        terms = glm.InformationTerms(fm.X)
        full = glm.fit_logistic(fm)
        for counts in blocks:
            if not len(counts):
                continue
            starts = one_step_starts(fm, full, counts)
            betas, codes = glm.fit_logistic_counts(fm.X, fm.y, counts, starts, terms)
            expected_betas, expected_codes = glm.fit_logistic_counts(
                fm.X, fm.y, counts, start, terms)
            assert codes == expected_codes
            ok = [code is None for code in codes]
            assert np.all(np.abs(betas[ok] - expected_betas[ok]) <= 1e-6 * full.se)


def masked_weighted_mean(values, counts):
    """``causal._weighted_mean`` of old: a row is constant if its drawn values are."""
    means = np.sum(counts * values, axis=1) / np.sum(counts, axis=1)
    drawn = counts > 0
    low = np.min(values, axis=1, where=drawn, initial=np.inf)
    high = np.max(values, axis=1, where=drawn, initial=-np.inf)
    return np.where(low == high, low, means)


@st.composite
def weighted_rows(draw):
    fits, n = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    # few distinct values, so rows equal on their drawn values only also come up
    pool = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=3))
    values, counts = [], []
    for _ in range(fits):
        row = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        values.append([row[0]] * n if draw(st.booleans()) else row)
        drawn = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        drawn[draw(st.integers(0, n - 1))] += 1  # every replicate draws someone
        counts.append(drawn)
    return np.array(values), np.array(counts, dtype=np.float64)


@given(weighted_rows())
@settings(max_examples=300, deadline=None)
def test_weighted_mean_matches_the_masked_reference(rows):
    values, counts = rows
    got = causal._weighted_mean(values, counts)
    expected = masked_weighted_mean(values, counts)
    means = np.sum(counts * values, axis=1) / np.sum(counts, axis=1)
    for b in range(len(values)):
        if np.all(values[b] == values[b, 0]) or len(set(values[b][counts[b] > 0])) > 1:
            assert got[b] == expected[b]
        else:  # equal on its drawn values only: the weighted mean, within rounding
            assert got[b] == means[b]
            assert abs(got[b] - expected[b]) <= 4 * np.spacing(abs(expected[b]))


# ---------------------------------------------------------------------------
# effects.csv against a copy of the writer that named each column by hand.


def reference_write_effects_csv(path, estimates):
    write_csv(
        path,
        ("treatment", "outcome", "estimand", "point", "boot_se", "ci_low", "ci_high",
         "n_boot_succeeded", "seed"),
        [
            (
                e.treatment,
                e.outcome,
                e.estimand,
                e.point,
                e.boot_se if e.boot_se is not None else "NA",
                e.ci_low if e.ci_low is not None else "NA",
                e.ci_high if e.ci_high is not None else "NA",
                e.n_boot_succeeded,
                e.seed if e.seed is not None else "NA",
            )
            for e in estimates
        ],
    )


@pytest.mark.parametrize("estimator", ["bootstrap", "point"])
def test_effects_csv_matches_the_hand_written_columns(tmp_path, estimator):
    _, feats = cohort_features(seed=4014, n=600)
    if estimator == "bootstrap":
        estimates = causal.bootstrap_effects(feats, "CHF", ("hba1c",), n_boot=100, seed=5)
    else:  # no bootstrap: the standard error, interval and seed print NA
        estimates = causal.estimate_effects(feats, "CHF", ("hba1c",))
        assert all(e.boot_se is e.ci_low is e.ci_high is e.seed is None for e in estimates)
    causal.write_effects_csv(tmp_path / "effects.csv", estimates)
    reference_write_effects_csv(tmp_path / "reference.csv", estimates)
    written = (tmp_path / "effects.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert (b",NA," in written) == (estimator == "point")


# ---------------------------------------------------------------------------
# An oracle for boot_se. The standardization estimate has a closed-form
# influence function (Hampel 1974, JASA 69:383; Lunceford & Davidian 2004,
# Stat Med 23:2937), so its standard error needs no resampling. With R the
# averaging rows (all rows for ATE, the treated and reference arms for ATE with
# arms_only, the arm's rows for ATT), d_i row i's counterfactual risk difference
# and θ its mean over R, g = ∂θ/∂β the mean over R of
# σ'(η_i1)·x_i1 − σ'(η_i0)·x_i0, s_i = x_i(y_i − p̂_i) and Σ̂ the model covariance:
#     IF_i = 1[i∈R]·(d_i − θ)·n/|R| + n·gᵀΣ̂ s_i,    SE = √(Σ IF_i²)/n.

ORACLE_B = 1000
# A bootstrap SD has a Monte Carlo SD of about 1/√(2(B−1)) of itself; four of
# those, plus an allowance for the bootstrap's finite-sample departure from the
# linearized model, set before any comparison was run.
ORACLE_ALLOWANCE = 0.05
ORACLE_BOUND = 4 / math.sqrt(2 * (ORACLE_B - 1)) + ORACLE_ALLOWANCE
ORACLE_SEEDS = (SCALE_SPEC["seed"], 90217)


def expit(eta):
    return 1.0 / (1.0 + np.exp(-eta))


def influence_se(fm, model, treatment, estimand, arms_only=False):
    """One cell's standardization estimate θ and its influence-function SE."""
    X, beta, n = fm.X, model.beta, fm.n
    dummies = [fm.column_names.index(name) for name in TREATMENT_DUMMIES.values()]
    arm = fm.column_names.index(TREATMENT_DUMMIES[treatment])
    X0 = X.copy()
    X0[:, dummies] = 0.0
    X1 = X0.copy()
    X1[:, arm] = 1.0
    p0, p1 = expit(X0 @ beta), expit(X1 @ beta)
    treated = X[:, arm] == 1.0
    reference = ~(X[:, dummies] == 1.0).any(axis=1)
    rows = treated if estimand == "ATT" else treated | reference if arms_only else np.ones(n, bool)
    d = p1 - p0
    theta = d[rows].mean()
    g = ((p1 * (1 - p1))[:, None] * X1 - (p0 * (1 - p0))[:, None] * X0)[rows].mean(axis=0)
    scores = X * (fm.y - expit(X @ beta))[:, None]
    influence = rows * (d - theta) * n / rows.sum() + n * (scores @ (model.covariance @ g))
    return theta, math.sqrt(np.sum(influence ** 2)) / n


def oracle_misfit(feats, arms_only):
    """The largest |boot_se / SE − 1| over the four CHF cells of one bootstrap."""
    fm = causal.build_causal_matrix(feats, "CHF")
    model = glm.fit_logistic(fm)
    misfit = 0.0
    for e in causal.bootstrap_effects(feats, "CHF", n_boot=ORACLE_B, seed=1, arms_only=arms_only):
        point, se = influence_se(fm, model, PTreatment(e.treatment), e.estimand, arms_only)
        assert e.point == pytest.approx(point, rel=1e-9)
        misfit = max(misfit, abs(e.boot_se / se - 1.0))
    return misfit


@pytest.fixture(scope="module")
def oracle_cohorts():
    return {seed: synth.to_features(synth.generate(synth.parse_spec({**SCALE_SPEC, "seed": seed})))
            for seed in ORACLE_SEEDS}


@pytest.mark.parametrize("arms_only", [False, True])
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_boot_se_matches_the_influence_function_se(oracle_cohorts, seed, arms_only):
    assert oracle_misfit(oracle_cohorts[seed], arms_only) <= ORACLE_BOUND


def test_replicates_of_half_the_draws_fail_the_oracle(oracle_cohorts, monkeypatch):
    class HalfDraws(SplitMix64):
        def integers(self, upper, n):  # n/2 patients per replicate, each counted twice
            return np.repeat(super().integers(upper, n // 2), 2)

    monkeypatch.setattr(causal, "SplitMix64", HalfDraws)
    assert oracle_misfit(oracle_cohorts[SCALE_SPEC["seed"]], arms_only=False) > ORACLE_BOUND

