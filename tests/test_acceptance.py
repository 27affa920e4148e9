"""Acceptance suite: one test per release criterion, each printing a verdict line.

Statistical criteria run on frozen seeds; the expected values come from
independent oracles (brute-force pairwise counts, quadrature, generative
truth, coverage simulations), never from the implementation under test.
"""

import filecmp
import json
import math
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from cardiotox import causal, cli, cohort, evaluate, glm, preprocess, synth
from cardiotox.preprocess import FeatureMatrix
from cardiotox.rng import SplitMix64

DATA = Path(__file__).parent / "data"


def verdict(criterion: int, ok: bool, text: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def fm_from_arrays(X, y, names):
    return FeatureMatrix(tuple(names), np.asarray(X, float), np.asarray(y, float),
                         ("",) * len(y), "CHF")


# ---------------------------------------------------------------------------
# 1. AUC oracle equivalence


def brute_force_auc(scores, labels):
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = float(np.sum(pos > neg))
    ties = float(np.sum(pos == neg))
    return (wins + 0.5 * ties) / (pos.shape[0] * neg.shape[1])


def test_c01_auc_matches_brute_force():
    g = SplitMix64(101001)
    start = time.time()
    worst = 0.0
    checked = 0
    while checked < 200:
        n = 10 + int(g.uniform(1)[0] * 491)
        grid = 2 + int(g.uniform(1)[0] * 30)  # coarse grid forces ties
        scores = np.floor(g.uniform(n) * grid) / grid
        labels = (g.uniform(n) < 0.05 + 0.9 * g.uniform(1)[0]).astype(int)
        if labels.sum() in (0, n):
            continue
        checked += 1
        worst = max(worst, abs(evaluate.auc(scores, labels) - brute_force_auc(scores, labels)))
    elapsed = time.time() - start
    verdict(1, worst <= 1e-12 and elapsed < 10.0,
            f"200 instances, max |fast - brute force| = {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Logistic MLE exactness


def test_c02_mle_exactness_and_stationarity():
    g = SplitMix64(102001)
    worst_logit = 0.0
    for _ in range(50):
        n = 50 + int(g.uniform(1)[0] * 400)
        k = 1 + int(g.uniform(1)[0] * (n - 1))
        y = np.concatenate([np.ones(k), np.zeros(n - k)])
        model = glm.fit_logistic(fm_from_arrays(np.ones((n, 1)), y, ("intercept",)))
        prevalence = k / n
        worst_logit = max(
            worst_logit, abs(model.beta[0] - math.log(prevalence / (1 - prevalence)))
        )

    worst_score = 0.0
    battery = [
        (-1.0, 0.8, -0.5),
        (-2.5, 0.3),
        (0.2, -0.4, 0.9, 0.1),
        (-3.5, 1.2),
    ]
    for i, beta in enumerate(battery):
        rng = SplitMix64(102100 + i)
        n = 2000
        X = np.column_stack([np.ones(n)] + [rng.normal(n) for _ in beta[1:]])
        y = (rng.uniform(n) < 1 / (1 + np.exp(-X @ np.array(beta)))).astype(float)
        names = tuple(["intercept"] + [f"x{j}" for j in range(len(beta) - 1)])
        m = glm.fit_logistic(fm_from_arrays(X, y, names))
        assert m.converged
        score = X.T @ (y - glm.predict_matrix(m, X))
        worst_score = max(worst_score, float(np.max(np.abs(score))))

    verdict(2, worst_logit < 1e-8 and worst_score < 1e-6,
            f"intercept-only max err {worst_logit:.2e}; max score norm {worst_score:.2e}")


# ---------------------------------------------------------------------------
# 3. Coefficient recovery and SE calibration


def _recovery_fit(seed):
    true_beta = np.array([-1.0, 0.8, -0.5])
    g = SplitMix64(seed)
    n = 5000
    X = np.column_stack([np.ones(n), g.normal(n), g.normal(n)])
    y = (g.uniform(n) < 1 / (1 + np.exp(-X @ true_beta))).astype(float)
    return glm.fit_logistic(fm_from_arrays(X, y, ("intercept", "x1", "x2")))


def test_c03_coefficient_recovery():
    true_beta = np.array([-1.0, 0.8, -0.5])
    worst = max(
        float(np.max(np.abs(_recovery_fit(610000 + s).beta - true_beta))) for s in range(3)
    )
    models = [_recovery_fit(610000 + s) for s in range(100)]
    betas = np.array([m.beta for m in models])
    reported_se = np.array([m.se for m in models]).mean(axis=0)
    empirical_sd = betas.std(axis=0, ddof=1)
    ratios = reported_se / empirical_sd
    verdict(3, worst < 0.1 and np.all(ratios > 0.75) and np.all(ratios < 1.25),
            f"3-seed max |beta err| {worst:.3f}; SE/sd ratios {np.round(ratios, 3)}")


# ---------------------------------------------------------------------------
# 4. Wald p-value accuracy against quadrature


def normal_tail_by_simpson(z: float) -> float:
    """2*(1 - Phi(|z|)) via composite Simpson integration of the density."""
    z = abs(z)
    if z == 0.0:
        return 1.0
    n = max(2, int(z * 512))
    if n % 2:
        n += 1
    t = np.linspace(0.0, z, n + 1)
    f = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    h = z / n
    integral = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    return 1.0 - 2.0 * integral


def test_c04_wald_p_accuracy():
    zs = np.arange(-600, 601) / 100.0
    worst = max(abs(glm.normal_two_sided_p(z) - normal_tail_by_simpson(z)) for z in zs)
    verdict(4, worst < 1e-6, f"max |p - quadrature| over z grid = {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Backward elimination behavior


def exact_binomial_region(n, p, alpha=0.01):
    pmf = np.array([math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)])
    cdf = np.cumsum(pmf)
    lo = int(np.searchsorted(cdf, alpha / 2))
    hi = int(np.searchsorted(cdf, 1 - alpha / 2))
    return lo, hi


def test_c05_elimination_retention():
    true_beta = np.array([0.5, -0.6, 0.7, -0.5, 0.55])
    true_kept = 0
    null_kept = 0
    for s in range(100):
        g = SplitMix64(600000 + s)
        n = 2000
        X = np.column_stack([np.ones(n)] + [g.normal(n) for _ in range(10)])
        eta = -0.5 + X[:, 1:6] @ true_beta
        y = (g.uniform(n) < 1 / (1 + np.exp(-eta))).astype(float)
        names = ("intercept",) + tuple(f"t{i}" for i in range(5)) + tuple(
            f"z{i}" for i in range(5))
        trace = glm.backward_eliminate(fm_from_arrays(X, y, names), 0.15)
        kept = set(trace.final_model.column_names)
        true_kept += sum(1 for i in range(5) if f"t{i}" in kept)
        null_kept += sum(1 for i in range(5) if f"z{i}" in kept)
    lo, hi = exact_binomial_region(500, 0.15)
    verdict(5, true_kept == 500 and lo <= null_kept <= hi,
            f"true retention {true_kept}/500; null retention {null_kept}/500 "
            f"inside 99% region [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# 6. Cross-validation sanity

AUC_SPEC = {
    "n": 5000, "seed": 321,
    "covariates": [{"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 1.0}],
    "treatment_model": {"kind": "randomized", "p_chemo": 0.2, "p_targeted": 0.2},
    "outcome_models": {"CHF": {"intercept": -12.37, "hba1c": 1.795}},
}


def test_c06_cv_sanity(tmp_path):
    means = []
    for s in range(100):
        g = SplitMix64(620000 + s)
        n = 2000
        X = np.column_stack([np.ones(n)] + [g.normal(n) for _ in range(5)])
        y = (g.uniform(n) < 0.3).astype(float)
        names = ("intercept", "a", "b", "c", "d", "e")
        report = evaluate.cross_validated_auc(
            fm_from_arrays(X, y, names), 5, seed=630000 + s, alpha_stay=None)
        means.append(report.mean_auc)
    null_mean = float(np.mean(means))

    spec = synth.parse_spec(AUC_SPEC)
    oracle = synth.true_auc(spec, "CHF", 1_000_000)
    synth.write_cohort(synth.generate(spec), tmp_path)
    cmap = cohort.load_code_map(tmp_path / "code_map.csv")
    patients = cohort.load_cohort(cohort.CohortPaths.in_dir(tmp_path))
    feats, _ = preprocess.compute_features(patients, cmap, spec.layout.end_of_data)
    fm = preprocess.build_matrix(feats, "OUTCOME_MODEL", "CHF")
    report = evaluate.cross_validated_auc(fm, 5, seed=777, alpha_stay=None)

    ok = abs(null_mean - 0.5) < 0.03 and abs(oracle - 0.85) < 0.002 \
        and abs(report.pooled_auc - oracle) < 0.02
    verdict(6, ok,
            f"null CV mean {null_mean:.4f}; oracle AUC {oracle:.4f}; "
            f"pooled CV {report.pooled_auc:.4f} (diff {report.pooled_auc - oracle:+.4f})")


# ---------------------------------------------------------------------------
# 7. Causal correctness

CONFOUNDED_SPEC = {
    "n": 10000, "seed": 777001,
    "covariates": [{"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 1.0}],
    "treatment_model": {"kind": "logistic",
                        "chemo_vs_rest": {"intercept": -3.1, "hba1c": 0.35},
                        "targeted_vs_radiation": {"intercept": -0.8, "hba1c": 0.02}},
    "outcome_models": {"CHF": {"intercept": -5.0, "hba1c": 0.42,
                               "CHEMOTHERAPY": 0.8, "TARGETED": 0.5}},
}


def test_c07_causal_correctness():
    # closed form: logit = -2 + 1 * CHEMO, no covariates
    closed_spec = synth.parse_spec({
        "n": 4000, "seed": 707001,
        "covariates": [],
        "treatment_model": {"kind": "randomized", "p_chemo": 0.34, "p_targeted": 0.33},
        "outcome_models": {"CHF": {"intercept": -2.0, "CHEMOTHERAPY": 1.0}},
    })
    sigma = lambda x: 1.0 / (1.0 + math.exp(-x))
    target = sigma(-1.0) - sigma(-2.0)
    oracle_err = abs(synth.true_ate(closed_spec, "CHEMOTHERAPY", "CHF", 10) - target)

    feats = synth.to_features(synth.generate(closed_spec))
    ests = {(e.treatment, e.estimand): e.point
            for e in causal.estimate_effects(feats, "CHF", covariates=())}
    fitted = glm.fit_logistic(causal.build_causal_matrix(feats, "CHF", ()))
    plug_in = sigma(fitted.beta[0] + fitted.beta[1]) - sigma(fitted.beta[0])
    estimator_err = abs(ests[("CHEMOTHERAPY", "ATE")] - plug_in)
    ate_att_gap = abs(ests[("CHEMOTHERAPY", "ATE")] - ests[("CHEMOTHERAPY", "ATT")])

    # zero treatment coefficients: oracle is exactly zero
    null_spec = synth.parse_spec({
        "n": 100, "seed": 1,
        "covariates": [{"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 1.0}],
        "treatment_model": {"kind": "randomized", "p_chemo": 0.3, "p_targeted": 0.3},
        "outcome_models": {"CHF": {"intercept": -2.0, "hba1c": 0.4}},
    })
    zero_exact = synth.true_ate(null_spec, "CHEMOTHERAPY", "CHF", 100) == 0.0

    # confounded cohort versus Monte Carlo oracle
    spec = synth.parse_spec(CONFOUNDED_SPEC)
    feats = synth.to_features(synth.generate(spec))
    points = {(e.treatment, e.estimand): e.point
              for e in causal.estimate_effects(feats, "CHF")}
    worst = 0.0
    for treatment in ("CHEMOTHERAPY", "TARGETED"):
        ate_oracle = synth.true_ate(spec, treatment, "CHF", 1_000_000)
        att_oracle = synth.true_att(spec, treatment, "CHF", 1_000_000)
        worst = max(worst,
                    abs(points[(treatment, "ATE")] - ate_oracle),
                    abs(points[(treatment, "ATT")] - att_oracle))

    ok = (oracle_err < 1e-6 and estimator_err < 1e-12 and ate_att_gap == 0.0
          and zero_exact and worst < 0.02)
    verdict(7, ok,
            f"closed-form err {oracle_err:.1e}; estimator vs plug-in {estimator_err:.1e}; "
            f"zero-coef exact {zero_exact}; confounded max |err| {worst:.4f}")


# ---------------------------------------------------------------------------
# 8. Bootstrap determinism, runtime, coverage

SCALE_SPEC = {
    "n": 3468, "seed": 90210,
    "covariates": [
        {"name": "age", "dist": "normal", "mu": 57.5, "sigma": 12.0},
        {"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 0.9},
        {"name": "diabetes", "dist": "bernoulli", "p": 0.165},
        {"name": "hypertension", "dist": "bernoulli", "p": 0.3},
    ],
    "treatment_model": {"kind": "logistic",
                        "chemo_vs_rest": {"intercept": -1.8, "hba1c": 0.08},
                        "targeted_vs_radiation": {"intercept": -0.85}},
    "outcome_models": {
        "CHF": {"intercept": -3.6, "hba1c": 0.28, "hypertension": 0.35,
                "CHEMOTHERAPY": 0.7, "TARGETED": 0.5},
        "CAD": {"intercept": -3.3, "age": 0.02, "diabetes": 0.3,
                "CHEMOTHERAPY": 0.5, "TARGETED": 0.3},
        "CM": {"intercept": -2.6, "hba1c": 0.15, "hypertension": 0.4, "TARGETED": 0.6},
        "MI": {"intercept": -2.9, "age": 0.012, "CHEMOTHERAPY": 0.6},
    },
}


def run_cli(*argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0, f"command {argv} exited {code}"


def trees_identical(a: Path, b: Path) -> bool:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names_a)


def test_c08_bootstrap_runtime_determinism_coverage(tmp_path):
    spec_path = tmp_path / "scale_spec.json"
    spec_path.write_text(json.dumps(SCALE_SPEC))
    synth_dir = tmp_path / "synth"
    run_cli("synth", "--spec", spec_path, "--out", synth_dir, "--n-mc", 10000)
    config = synth_dir / "run_config.json"

    start = time.time()
    run_cli("effects", "--config", config, "--out", tmp_path / "fx1", "--b", 1000)
    elapsed = time.time() - start
    run_cli("effects", "--config", config, "--out", tmp_path / "fx2", "--b", 1000)
    identical = (tmp_path / "fx1" / "effects.csv").read_bytes() == (
        tmp_path / "fx2" / "effects.csv").read_bytes()

    covered = 0
    for r in range(200):
        null_spec = synth.parse_spec({
            "n": 2000, "seed": 50000 + r,
            "covariates": [{"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 1.0}],
            "treatment_model": {"kind": "randomized", "p_chemo": 0.35, "p_targeted": 0.3},
            "outcome_models": {"CHF": {"intercept": -3.2, "hba1c": 0.35}},
        })
        feats = synth.to_features(synth.generate(null_spec))
        ests = causal.bootstrap_effects(
            feats, "CHF", covariates=("hba1c",), n_boot=400, seed=90000 + r)
        e = next(x for x in ests
                 if x.treatment == "CHEMOTHERAPY" and x.estimand == "ATE")
        if e.ci_low <= 0.0 <= e.ci_high:
            covered += 1
    coverage = covered / 200.0

    ok = identical and elapsed < 300.0 and 0.91 <= coverage <= 0.99
    verdict(8, ok,
            f"B=1000 run {elapsed:.0f}s (<300s); rerun byte-identical {identical}; "
            f"null coverage {coverage:.3f} in [0.91, 0.99]")


# ---------------------------------------------------------------------------
# 9. Preprocessing golden fixture (hand-computed before implementation)

GOLDEN_EXCLUSIONS = [
    ("P01", "NO_TREATMENT"),
    ("P02", "NOT_FEMALE_ADULT"),
    ("P03", "NOT_FEMALE_ADULT"),
    ("P04", "MULTIPLE_TREATMENT_TYPES"),
    ("P05", "PRIOR_CANCER"),
    ("P06", "PRIOR_HEART_DISEASE"),
    ("P07", "INSUFFICIENT_FOLLOWUP"),
]

GOLDEN_FEATURES = {
    # hand-computed: cohort means sbp=(120+132)/2=126, dbp=(70+86+75)/3=77,
    # bmi=(28+30+26)/3=28, triglyceride=(160+100)/2=130
    "P08": dict(
        age=57.0, sbp=120.0, dbp=70.0, bmi=28.0, hdl=55.0, ldl=115.0, hba1c=6.0,
        triglyceride=130.0, troponin_flag=True, abnormal_blood_pressure=False,
        abnormal_blood_lipid=False, hypertension=False, diabetes=True,
        hyperlipidemia=False, statin=True, antihypertensive_medication=False,
        antihyperlipidemia_medication=True, treatment="CHEMOTHERAPY",
        chf=True, cad=False, cm=False, mi=False,
        imputed=frozenset({"hdl", "ldl", "hba1c", "triglyceride"}),
    ),
    "P09": dict(
        age=61.0, sbp=126.0, dbp=86.0, bmi=30.0, hdl=45.0, ldl=100.0, hba1c=5.5,
        triglyceride=160.0, troponin_flag=False, abnormal_blood_pressure=True,
        abnormal_blood_lipid=True, hypertension=False, diabetes=False,
        hyperlipidemia=False, statin=False, antihypertensive_medication=False,
        antihyperlipidemia_medication=False, treatment="RADIATION",
        chf=False, cad=False, cm=False, mi=False, imputed=frozenset({"sbp"}),
    ),
    "P10": dict(
        age=38.0, sbp=132.0, dbp=75.0, bmi=26.0, hdl=60.0, ldl=140.0, hba1c=6.2,
        triglyceride=100.0, troponin_flag=False, abnormal_blood_pressure=True,
        abnormal_blood_lipid=True, hypertension=True, diabetes=False,
        hyperlipidemia=False, statin=False, arb=True, beta_blocker=True,
        insulin=False, antihypertensive_medication=True,
        antihyperlipidemia_medication=False, treatment="TARGETED",
        chf=False, cad=True, cm=False, mi=False, imputed=frozenset(),
    ),
}

# OUTCOME_MODEL design matrix for outcome CHF, rows P08/P09/P10, hand-written
GOLDEN_MATRIX = np.array([
    # int  sbp dbp bmi hdl ldl hba1c trop trig bp lip hl dm htn ins met sta ace arb cmb vas arr bet cal tch tta age
    [1, 120, 70, 28, 55, 115, 6.0, 1, 130, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 57],
    [1, 126, 86, 30, 45, 100, 5.5, 0, 160, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 61],
    [1, 132, 75, 26, 60, 140, 6.2, 0, 100, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 38],
], dtype=float)


def test_c09_preprocessing_golden_fixture():
    cmap = cohort.load_code_map(DATA / "golden" / "code_map.csv")
    patients = cohort.load_cohort(cohort.CohortPaths.in_dir(DATA / "golden"))
    feats, report = preprocess.compute_features(
        patients, cmap, date(2020, 12, 31))

    exclusions = [(pid, reason.value) for pid, reason in report.excluded]
    assert exclusions == GOLDEN_EXCLUSIONS
    assert report.included == ("P08", "P09", "P10")

    by_id = {f.patient_id: f for f in feats}
    for pid, expected in GOLDEN_FEATURES.items():
        actual = by_id[pid]
        for field, value in expected.items():
            got = getattr(actual, field)
            if field == "treatment":
                got = got.value
            assert got == value, f"{pid}.{field}: expected {value!r}, got {got!r}"
        # unmentioned medication flags are all False
        for med in ("insulin", "metformin", "statin", "ace_inhibitor", "arb",
                    "antihypertensive_combination", "vasodilator", "antiarrhythmic",
                    "beta_blocker", "calcium_blocker", "diuretic",
                    "antihyperlipidemic_other"):
            if med not in expected:
                assert getattr(actual, med) is False, f"{pid}.{med}"

    fm = preprocess.build_matrix(feats, "OUTCOME_MODEL", "CHF")
    assert fm.row_ids == ("P08", "P09", "P10")
    assert np.array_equal(fm.X, GOLDEN_MATRIX)
    assert fm.y.tolist() == [1.0, 0.0, 0.0]
    verdict(9, True, "10-patient fixture matches hand-computed features exactly")


# ---------------------------------------------------------------------------
# 10. End-to-end determinism

E2E_SPEC = {
    "n": 2000, "seed": 20240501,
    "covariates": [
        {"name": "age", "dist": "normal", "mu": 57.5, "sigma": 12.0},
        {"name": "hba1c", "dist": "normal", "mu": 6.0, "sigma": 0.9},
        {"name": "hypertension", "dist": "bernoulli", "p": 0.3},
    ],
    "treatment_model": {"kind": "logistic",
                        "chemo_vs_rest": {"intercept": -1.4, "hba1c": 0.05},
                        "targeted_vs_radiation": {"intercept": -0.9}},
    "outcome_models": {
        "CHF": {"intercept": -2.6, "CHEMOTHERAPY": 0.8, "TARGETED": 0.5,
                "hba1c": 0.3, "hypertension": 0.5},
        "CAD": {"intercept": -2.2, "CHEMOTHERAPY": 0.4, "hba1c": 0.25, "age": 0.01},
        "CM": {"intercept": -2.4, "TARGETED": 0.7, "hypertension": 0.6},
        "MI": {"intercept": -2.0, "CHEMOTHERAPY": 0.3, "age": 0.005},
    },
}


def test_c10_end_to_end_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(E2E_SPEC))

    def run_tree(root: Path) -> None:
        run_cli("synth", "--spec", spec_path, "--out", root / "synth", "--n-mc", 20000)
        config = root / "synth" / "run_config.json"
        run_cli("validate", "--config", config, "--out", root / "validate")
        run_cli("fit", "--config", config, "--out", root / "fit")
        run_cli("cv", "--config", config, "--out", root / "cv")
        run_cli("effects", "--config", config, "--out", root / "effects", "--b", 150)

    run_tree(tmp_path / "run1")
    run_tree(tmp_path / "run2")

    stages = ("synth", "validate", "fit", "cv", "effects")
    same = all(
        trees_identical(tmp_path / "run1" / stage, tmp_path / "run2" / stage)
        for stage in stages
    )
    verdict(10, same, "synth/validate/fit/cv/effects reruns are byte-identical")
