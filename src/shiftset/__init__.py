"""shiftset: prediction-set thresholds with asymptotic PAC coverage
guarantees under unknown covariate shift.

The library works on precomputed scores: each observation is (a, x, score)
with a = 1 for labeled source units and a = 0 for unlabeled target units.
Estimators return per-threshold coverage tables with Wald confidence upper
bounds, from which the largest certifiable threshold is selected.
"""

from .conformal import (
    CalibrationSet,
    IcpThreshold,
    inductive_cp_threshold,
    weighted_cp_set,
    weighted_quantile_cutoffs,
)
from .core import (
    BoundViolationError,
    ConfigurationError,
    DataError,
    DegenerateFoldError,
    DomainError,
    EmptyAcceptanceError,
    FoldPlan,
    ObservedSample,
    RiskTargets,
    RngStream,
    ShiftsetError,
    ThresholdGrid,
    UnfittableFoldError,
    empirical_gamma,
    make_folds,
    miscoverage_vector,
)
from .crossfit import NuisanceFits, fit_nuisances, odds_weight, oracle_nuisances
from .learners import (
    BinaryLearnerSpec,
    ConstantPredictor,
    FittedPredictor,
    fit_binary,
)
from .onestep import (
    CoverageTable,
    FoldEngine,
    ThresholdDecision,
    normal_upper_quantile,
    onestep_estimate,
    plugin_estimate,
    select_threshold,
    weighted_plugin_estimate,
)
from .rejsamp import RsConfig, RsRun, rs_estimate, rs_prepare
from .simbench import (
    ALL_METHODS,
    DGP_KINDS,
    METHODS,
    AggregateRow,
    DgpSpec,
    OracleEvaluator,
    ReplicationReport,
    ReplicationRow,
    StudyConfig,
    dgp_draw,
    oracle_psi,
    oracle_psi_curve,
    oracle_tau0,
    run_study,
    wilson_interval,
)
from .tmle import tmle_estimate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
