"""Cross-fitted nuisance estimation.

Two nuisance functions drive every shift-aware estimator here:

* the propensity g(x) = Pr(a = 1 | x), fit on all units outside a fold and
  truncated into [delta, 1 - delta];
* the per-threshold conditional coverage error E_tau(x) = Pr(score < tau | x,
  a = 1), fit on source units outside the fold with miscoverage labels.

The covariate-shift likelihood ratio is never estimated by density
estimation; it is recovered from the propensity through the odds transform
``odds_weight``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DomainError,
    FoldPlan,
    ObservedSample,
    ThresholdGrid,
    UnfittableFoldError,
    miscoverage_vector,
)
from .learners import (
    BinaryLearnerSpec,
    ConstantPredictor,
    FittedPredictor,
    fit_binary,
    fit_binary_grid,
)
from .parallel import run_jobs

# The least truncation bound: below it the odds weight can overflow.
PROPENSITY_GUARD = 1e-12

# Sample values (n * p) from which fit_nuisances fits its folds in forked
# workers.  Serial against forked on 2 CPUs (BENCH_19.json, crossover):
# logistic ridge loses at 80,000 values or fewer, about ties from 120,000 to
# 200,000 and gains from 240,000.  Boosted stumps cost more per value and gain
# from about 6,000 (p = 3) or 10,000 (p = 20), so for them the gate is
# conservative.
_FORK_ELEMENTS = 150_000


def _check_delta(delta: float) -> None:
    """Refuse a truncation bound outside [PROPENSITY_GUARD, 0.5): below the
    guard, the odds weight of a propensity truncated at delta can overflow."""
    if not (0.0 < delta < 0.5):
        raise ConfigurationError("delta must lie in (0, 0.5)")
    if delta < PROPENSITY_GUARD:
        raise ConfigurationError(
            f"delta must be at least {PROPENSITY_GUARD:g}, got {delta!r}")


def _check_plan(sample: ObservedSample, folds: FoldPlan, fits=None, fold0=False) -> None:
    """Refuse a fold plan not over the sample's units, and fits of other than its V folds
    (or of 1, for a ``fold0`` reader); oracle fits hold no folds and answer any."""
    if folds.n != sample.n:
        raise ConfigurationError("fold plan does not match the sample size")
    held = len(fits.g_predictors) if fits is not None else 0
    if held not in ((0, folds.V, 1) if fold0 else (0, folds.V)):
        raise ConfigurationError(f"nuisance fits hold {held} folds, the fold plan {folds.V}")


def odds_weight(g, gamma):
    """Importance weight ((1 - g) / g) * (gamma / (1 - gamma)).

    This converts a source-membership probability into the target/source
    covariate density ratio.  Accepts scalars or arrays; the caller is
    responsible for keeping g inside (0, 1), normally via truncation.
    """
    g_arr = np.asarray(g, dtype=float)
    if not np.all((g_arr > 0.0) & (g_arr < 1.0)):  # NaN fails both
        raise DomainError("propensity must lie strictly inside (0, 1)")
    if not (0.0 < gamma < 1.0):
        raise DomainError("gamma must lie strictly inside (0, 1)")
    out = (1.0 - g_arr) / g_arr * (gamma / (1.0 - gamma))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NuisanceFits:
    """Cross-fitted predictors: one propensity per fold, one conditional
    error predictor per (fold, threshold of ``taus``).

    The propensity is truncated into [delta, 1 - delta]; rejection sampling
    (fold 0's fits alone, trained on fold 0's complement) and
    ``simbench.oracle_nuisances`` (the DGP's true functions) truncate at
    ``PROPENSITY_GUARD``.
    """

    taus: tuple[float, ...]
    g_predictors: tuple[FittedPredictor, ...]
    e_predictors: tuple[tuple[FittedPredictor, ...], ...]  # [fold][tau index]
    delta: float

    def __post_init__(self):
        if len(self.e_predictors) != len(self.g_predictors) or any(
                len(row) != len(self.taus) for row in self.e_predictors):
            raise ConfigurationError(
                "nuisance fits need one propensity per fold and one conditional-"
                "error predictor per threshold in each fold")

    def propensity(self, v: int, X: np.ndarray) -> np.ndarray:
        return np.clip(self.g_predictors[v].predict(X), self.delta, 1.0 - self.delta)

    def cond_error(self, v: int, X: np.ndarray) -> np.ndarray:
        """Fold v's conditional-error predictions at X, in [0, 1]: one row
        per fitted threshold."""
        return np.array([pred.predict(X) for pred in self.e_predictors[v]])

    def constant_mask(self, v: int) -> np.ndarray:
        """Per fitted threshold, whether fold v's conditional-error fit is
        constant."""
        return np.array([isinstance(pred, ConstantPredictor)
                         for pred in self.e_predictors[v]])


def fit_on(sample: ObservedSample, train: np.ndarray, grid: ThresholdGrid,
           g_spec: BinaryLearnerSpec, e_spec: BinaryLearnerSpec
           ) -> tuple[FittedPredictor, tuple[FittedPredictor, ...]]:
    """Fit the propensity on the units ``train`` and, on their source units,
    one conditional-error predictor per threshold of ``grid``.

    Where a threshold's miscoverage labels are constant, the exact constant
    predictor is returned, so that thresholds beyond the observed score
    range behave deterministically.
    """
    is_src = sample.a[train] == 1
    g = fit_binary(g_spec, sample.x[train], is_src.astype(float))
    src = train[is_src]
    labels = miscoverage_vector(sample.score[src], grid.taus)
    return g, fit_binary_grid(e_spec, sample.x[src], labels)


def fit_nuisances(sample: ObservedSample, folds: FoldPlan, grid: ThresholdGrid,
                  g_spec: BinaryLearnerSpec, e_spec: BinaryLearnerSpec,
                  delta: float) -> NuisanceFits:
    """Fit out-of-fold propensity and conditional-error predictors: for each
    fold v, :func:`fit_on` the fold's complement.

    Every fold is checked before any is fitted.  The folds' fits are jobs of
    :func:`parallel.run_jobs`, run in forked workers once the sample holds
    ``_FORK_ELEMENTS`` (150,000) values, n times p, and in this process
    below that: starting the workers costs about as much as the fits of a
    smaller sample save on 2 CPUs (``BENCH_19.json``).  A call made from a job
    that runs in this process, as ``simulate --workers 1`` runs its
    replications, fits here too.  Either way the predictors, warnings and
    errors are those of the serial loop, in fold order.
    """
    _check_delta(delta)
    _check_plan(sample, folds)

    jobs = []
    for v in range(folds.V):
        train = folds.complement(v)
        if train.size < 2:
            raise UnfittableFoldError(f"fold {v}: complement has fewer than 2 units")
        if not np.any(sample.a[train] == 1):
            raise UnfittableFoldError(f"fold {v}: complement has no source units")
        jobs.append((train,))

    def fit(train):
        return fit_on(sample, train, grid, g_spec, e_spec)

    workers = None if sample.n * sample.p >= _FORK_ELEMENTS else 1
    g_preds, e_preds = zip(*run_jobs(fit, jobs, workers))
    return NuisanceFits(taus=tuple(grid), g_predictors=g_preds,
                        e_predictors=e_preds, delta=float(delta))
