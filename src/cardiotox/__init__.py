"""Cardiac-risk modeling and treatment-effect estimation for breast-cancer cohorts."""

__version__ = "0.1.0"

from .cohort import (  # noqa: F401
    CodeMap,
    Cohort,
    CohortPaths,
    Treatment,
    default_code_map,
    load_code_map,
    load_cohort,
)
from .preprocess import (  # noqa: F401
    BaselineFeatures,
    Baselines,
    EligibilityReport,
    FeatureMatrix,
    PreprocessConfig,
    apply_eligibility,
    build_matrix,
    compute_features,
    impute,
    index_days,
    summarize_baselines,
)
from .glm import (  # noqa: F401
    EliminationTrace,
    LogisticModel,
    backward_eliminate,
    fit_logistic,
    normalized_coefficients,
    wald,
)
from .evaluate import (  # noqa: F401
    CvReport,
    RocCurve,
    auc,
    cross_validated_auc,
    roc_curve,
    stratified_kfold,
)
from .causal import EffectEstimate, bootstrap_effects, estimate_effects  # noqa: F401
from .synth import (  # noqa: F401
    SyntheticSpec,
    generate,
    load_spec,
    true_ate,
    true_att,
    true_auc,
)
