"""shiftset: prediction-set thresholds with asymptotic PAC coverage
guarantees under unknown covariate shift.

The library works on precomputed scores: each observation is (a, x, score)
with a = 1 for labeled source units and a = 0 for unlabeled target units.
Estimators return per-threshold coverage tables with Wald confidence upper
bounds, from which the largest certifiable threshold is selected.
"""

from .conformal import (
    IcpThreshold,
    inductive_cp_threshold,
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
    make_folds,
    miscoverage_vector,
)
from .crossfit import NuisanceFits, fit_nuisances, odds_weight
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
    onestep_estimate,
    plugin_estimate,
    select_threshold,
    weighted_plugin_estimate,
)
from .rejsamp import RsRun, rs_estimate, rs_prepare
from .simbench import (
    DGP_KINDS,
    METHODS,
    AggregateRow,
    DgpSpec,
    OracleEvaluator,
    ReplicationReport,
    ReplicationRow,
    StudyConfig,
    dgp_draw,
    oracle_nuisances,
    run_study,
    wilson_interval,
)
from .tmle import tmle_estimate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
