"""Cross-fit one-step corrected coverage-error estimation.

For each candidate threshold tau the pipeline produces a point estimate of
the target-population coverage error, a standard error, and a one-sided Wald
confidence upper bound (CUB); a threshold is then selected as the largest
grid point whose entire prefix has CUB below the requested miscoverage
level.

The fold estimate is

    psi_v = sum_{i in fold, a=0} E(x_i) / #targets
            + (1/|fold|) sum_{i in fold} (a_i / gamma_v) W(x_i) [z_i - E(x_i)]

with W the odds transform of the out-of-fold propensity and gamma_v the
in-fold source fraction.  Fold estimates are combined with |fold| weights.
The variance estimate averages squared influence-type terms centered at the
fold's plug-in value.

The plug-in and weighted plug-in baselines reuse this exact pipeline with
the point estimate swapped out, so all three produce comparable tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .core import (
    SENTINEL_TAU,
    ConfigurationError,
    DegenerateFoldError,
    FoldPlan,
    ObservedSample,
    RiskTargets,
    miscoverage_vector,
)
from .crossfit import NuisanceFits, odds_weight


@dataclass(frozen=True)
class CoverageTable:
    """Per-threshold estimates, standard errors, and confidence upper
    bounds, the rows ``fit`` writes, at strictly increasing thresholds.

    ``extras`` holds method-specific metadata such as TMLE fallback flags.
    """

    taus: np.ndarray
    psi: np.ndarray
    se: np.ndarray
    cub: np.ndarray
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.taus) <= 0):
            raise ConfigurationError("thresholds must be strictly increasing")
        if np.any(self.se < 0):
            raise ConfigurationError("se must be nonnegative")
        if np.any(self.cub < self.psi - 1e-12):
            raise ConfigurationError("CUB below point estimate")


class ThresholdDecision(NamedTuple):
    """Selected threshold, or the zero sentinel."""

    tau_hat: float
    is_sentinel: bool


# ---------------------------------------------------------------------------
# Fold engine
# ---------------------------------------------------------------------------

class _FoldContext:
    """One fold's held-out units and the cross-fitted quantities at them:
    odds weights ``w`` and, one row per fitted threshold, the miscoverage
    labels ``Z`` (0 at target units) and conditional-error predictions
    ``E``; ``constant`` marks the thresholds whose conditional-error fit is
    constant."""

    def __init__(self, sample: ObservedSample, folds: FoldPlan,
                 fits: NuisanceFits, v: int):
        idx = folds.indices(v)
        a = sample.a[idx]
        n_src = int((a == 1).sum())
        n_tgt = int((a == 0).sum())
        if n_src == 0 or n_tgt == 0:
            raise DegenerateFoldError(
                f"fold {v} has {n_src} source and {n_tgt} target units")
        self.v = v
        self.taus = fits.taus
        self.src = a == 1
        self.gamma = n_src / idx.size
        X = sample.x[idx]
        self.w = odds_weight(fits.propensity(v, X), self.gamma)
        self.Z = np.zeros((len(self.taus), idx.size))
        self.Z[:, self.src] = miscoverage_vector(sample.score[idx[self.src]], self.taus)
        self.E = fits.cond_error(v, X)
        self.constant = fits.constant_mask(v)


class FoldEngine:
    """Every fold's context, built once from a sample, its fold plan and the
    cross-fitted nuisances, on the fits' grid, and shared by the four
    cross-fit estimators (one-step, TMLE, plug-in and weighted plug-in)."""

    def __init__(self, sample: ObservedSample, folds: FoldPlan, fits: NuisanceFits):
        self.taus = fits.taus
        self.n = sample.n
        self.fold_sizes = folds.sizes().astype(float)
        self.contexts = [_FoldContext(sample, folds, fits, v)
                         for v in range(folds.V)]


def _wald_cub(psi: np.ndarray, sigma: np.ndarray, n: int,
              alpha_conf: float) -> np.ndarray:
    """One-sided Wald confidence upper bound of each estimate."""
    return psi + float(ndtri(1.0 - alpha_conf)) * sigma / np.sqrt(n)


def _run_folds(engine: FoldEngine, targets: RiskTargets, fold_fn,
               extras=None) -> CoverageTable:
    """Apply fold_fn(ctx) -> (psi_v, sigma2_v), each an array over the grid,
    at every fold, and pool the folds with |fold| weights."""
    psi_by_fold, sigma2_by_fold = (
        np.array(rows) for rows in zip(*map(fold_fn, engine.contexts)))
    weights = engine.fold_sizes / engine.n
    psi = weights @ psi_by_fold
    sigma = np.sqrt(weights @ sigma2_by_fold)
    return CoverageTable(
        taus=np.array(engine.taus, dtype=float), psi=psi, se=sigma / np.sqrt(engine.n),
        cub=_wald_cub(psi, sigma, engine.n, targets.alpha_conf), extras=dict(extras or {}))


# ---------------------------------------------------------------------------
# Fold methods: one row per threshold, every mean taken along a row
# ---------------------------------------------------------------------------

def _columns(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``values[:, mask]`` in C order.  A masked column selection comes out
    in Fortran order, and a row reduction over it does not sum in the order
    that the same row alone would."""
    return np.ascontiguousarray(values[:, mask])


def _target_mean(ctx: _FoldContext, values: np.ndarray) -> np.ndarray:
    return _columns(values, ~ctx.src).mean(axis=1)


def _sigma2(ctx: _FoldContext, fitted: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Mean squared influence term per threshold: w (z - fitted) / gamma at
    source units, (fitted - center) / (1 - gamma) at target units."""
    d = np.where(ctx.src, ctx.w * (ctx.Z - fitted) / ctx.gamma,
                 (fitted - center[:, None]) / (1.0 - ctx.gamma))
    return np.mean(d * d, axis=1)


def _fold_onestep(ctx: _FoldContext):
    """(psi_v, sigma2_v) over the fold's grid."""
    plugin = _target_mean(ctx, ctx.E)
    correction = (np.where(ctx.src, ctx.w, 0.0) * (ctx.Z - ctx.E) / ctx.gamma).mean(axis=1)
    return plugin + correction, _sigma2(ctx, ctx.E, plugin)


def _fold_plugin(ctx: _FoldContext):
    plugin = _target_mean(ctx, ctx.E)
    return plugin, _sigma2(ctx, ctx.E, plugin)


def _fold_wplugin(ctx: _FoldContext):
    psi = (ctx.w[ctx.src] * _columns(ctx.Z, ctx.src)).mean(axis=1)
    return psi, _sigma2(ctx, ctx.E, psi)


def onestep_estimate(engine: FoldEngine, targets: RiskTargets) -> CoverageTable:
    """Cross-fit one-step corrected coverage table over the engine's grid.

    The point estimate may fall outside [0, 1]; ``tmle_estimate`` is the
    range-respecting alternative.
    """
    return _run_folds(engine, targets, _fold_onestep)


def plugin_estimate(engine: FoldEngine, targets: RiskTargets) -> CoverageTable:
    """Plug-in baseline: same pipeline without the one-step correction."""
    return _run_folds(engine, targets, _fold_plugin)


def weighted_plugin_estimate(engine: FoldEngine,
                             targets: RiskTargets) -> CoverageTable:
    """Importance-weighted baseline: fold mean of W * z over source units.

    The weights are unnormalized, so fold values may exceed 1.  Standard
    errors reuse the influence-term machinery with the centering constant
    replaced by this estimate.
    """
    return _run_folds(engine, targets, _fold_wplugin)


# ---------------------------------------------------------------------------
# Threshold selection
# ---------------------------------------------------------------------------

def select_threshold(table: CoverageTable, targets: RiskTargets) -> ThresholdDecision:
    """Largest grid threshold whose whole prefix has CUB < alpha_error.

    Returns the zero sentinel when even the smallest grid point fails, which
    corresponds to the most conservative threshold set on offer.
    """
    feasible = table.cub < targets.alpha_error
    prefix_ok = np.logical_and.accumulate(feasible)
    sentinel = not prefix_ok.any()
    tau_hat = SENTINEL_TAU if sentinel else float(table.taus[np.flatnonzero(prefix_ok)[-1]])
    return ThresholdDecision(tau_hat, sentinel)
