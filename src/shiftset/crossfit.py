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
    RngStream,
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

# Where no truncation is requested (oracle fits, rejection sampling), the
# propensity is kept this far from exact 0/1, which saturated learners emit,
# so that the odds transform stays finite.
PROPENSITY_GUARD = 1e-12


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
    error predictor per (fold, threshold).

    ``delta = 0`` disables truncation; it serves oracle fits and rejection
    sampling, whose one "fold" is the training half.
    """

    taus: tuple[float, ...]
    g_predictors: tuple[FittedPredictor, ...]
    e_predictors: tuple[tuple[FittedPredictor, ...], ...]  # [fold][tau index]
    delta: float

    def __post_init__(self):
        # Equal keys hash alike: -0.0 finds 0.0, an np.float64 its float.
        object.__setattr__(self, "_tau_index", {t: i for i, t in enumerate(self.taus)})

    def tau_index(self, tau: float) -> int:
        try:
            return self._tau_index[tau]
        except KeyError:
            raise ConfigurationError(f"threshold {tau} is not in the fitted grid") from None

    def propensity(self, v: int, X: np.ndarray) -> np.ndarray:
        g = self.g_predictors[v].predict(X)
        if self.delta > 0.0:
            g = np.clip(g, self.delta, 1.0 - self.delta)
        else:
            g = np.clip(g, PROPENSITY_GUARD, 1.0 - PROPENSITY_GUARD)
        return g

    def cond_error(self, v: int, tau: float, X: np.ndarray) -> np.ndarray:
        pred = self.e_predictors[v][self.tau_index(tau)]
        return np.clip(pred.predict(X), 0.0, 1.0)

    def cond_error_grid(self, v: int, X: np.ndarray, taus=None) -> np.ndarray:
        """:meth:`cond_error` at every threshold of ``taus`` (by default the
        fitted grid): one row per threshold."""
        taus = self.taus if taus is None else taus
        return np.array([self.cond_error(v, tau, X) for tau in taus])

    def is_constant_fit(self, v: int, tau: float) -> bool:
        return isinstance(self.e_predictors[v][self.tau_index(tau)], ConstantPredictor)


def fit_on(sample: ObservedSample, train: np.ndarray, grid: ThresholdGrid,
           g_spec: BinaryLearnerSpec, e_spec: BinaryLearnerSpec, g_rng: RngStream
           ) -> tuple[FittedPredictor, tuple[FittedPredictor, ...]]:
    """Fit the propensity on the units ``train`` and, on their source units,
    one conditional-error predictor per threshold of ``grid``.

    Where a threshold's miscoverage labels are constant, the exact constant
    predictor is returned, so that thresholds beyond the observed score
    range behave deterministically.
    """
    is_src = sample.a[train] == 1
    g = fit_binary(g_spec, sample.x[train], is_src.astype(float), g_rng)
    src = train[is_src]
    labels = miscoverage_vector(sample.score[src], grid.taus)
    return g, fit_binary_grid(e_spec, sample.x[src], labels)


def fit_nuisances(sample: ObservedSample, folds: FoldPlan, grid: ThresholdGrid,
                  g_spec: BinaryLearnerSpec, e_spec: BinaryLearnerSpec,
                  delta: float, rng: RngStream) -> NuisanceFits:
    """Fit out-of-fold propensity and conditional-error predictors: for each
    fold v, :func:`fit_on` the fold's complement."""
    if not (0.0 < delta < 0.5):
        raise ConfigurationError("delta must lie in (0, 0.5)")
    if folds.n != sample.n:
        raise ConfigurationError("fold plan does not match the sample size")

    fitted = []
    for v in range(folds.V):
        train = folds.complement(v)
        if train.size < 2:
            raise UnfittableFoldError(f"fold {v}: complement has fewer than 2 units")
        if not np.any(sample.a[train] == 1):
            raise UnfittableFoldError(f"fold {v}: complement has no source units")
        fitted.append(fit_on(sample, train, grid, g_spec, e_spec,
                             rng.child("propensity", v)))

    g_preds, e_preds = zip(*fitted)
    return NuisanceFits(taus=tuple(grid), g_predictors=g_preds,
                        e_predictors=e_preds, delta=float(delta))


class _FunctionPredictor(FittedPredictor):
    """Wraps an analytic x -> probability function as a predictor."""

    def __init__(self, fn, p):
        self.fn = fn
        self.p = p

    def _predict(self, X):
        return np.asarray(self.fn(X), dtype=float)


def oracle_nuisances(dgp, grid: ThresholdGrid, V: int = 2) -> NuisanceFits:
    """Fold-independent nuisance fits equal to a DGP's true functions.

    Used for property tests that isolate estimator behavior from learner
    error.  No truncation is applied.
    """
    from .simbench import DgpSpec  # deferred: simbench depends on this module

    if not isinstance(dgp, DgpSpec):
        raise ConfigurationError("oracle nuisances require a built-in DGP spec")

    g_pred = _FunctionPredictor(dgp.true_propensity, dgp.p)
    e_by_tau = tuple(
        _FunctionPredictor(lambda X, t=tau: dgp.true_cond_error(X, t), dgp.p)
        for tau in grid
    )
    return _OracleFits(
        taus=tuple(grid),
        g_predictors=(g_pred,) * V,
        e_predictors=(e_by_tau,) * V,
        delta=0.0,
        dgp=dgp,
    )


@dataclass(frozen=True)
class _OracleFits(NuisanceFits):
    """Oracle nuisances, whose conditional-error grid evaluates the DGP's
    label probabilities and scores once for all thresholds."""

    dgp: object = None

    def cond_error_grid(self, v, X, taus=None):
        taus = self.taus if taus is None else [self.taus[self.tau_index(t)] for t in taus]
        return np.clip(self.dgp._true_cond_errors(X, taus), 0.0, 1.0)
