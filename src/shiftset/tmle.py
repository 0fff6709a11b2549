"""Targeted (range-respecting) coverage-error estimation.

Instead of adding a correction term to the plug-in estimate, each fold's
conditional-error fit is fluctuated along a one-dimensional logistic model:
outcome z, offset logit(E(x)), single covariate W(x) (the odds transform of
the out-of-fold propensity), no intercept.  The fluctuated fit solves the
in-fold weighted score equation exactly, and its target-unit mean stays in
[0, 1] by construction.

When the logistic solve is unusable (offset values at 0/1 among in-fold
source units, non-finite iterates, or no convergence), a no-intercept least
squares fit of (z - E) on W replaces it; the resulting values can leave
[0, 1], are clipped for reporting, and feed the variance term unclipped.
Constant 0/1 conditional-error fits are kept as-is with no fluctuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .core import (
    FoldPlan,
    ObservedSample,
    RiskTargets,
    ShiftsetError,
    ThresholdGrid,
)
from .crossfit import NuisanceFits, odds_weight
from .learners import FittedPredictor
from .onestep import CoverageTable, _FoldContext, _FoldEngine, _run_folds

_LOGIT_CLAMP = 1e-6
_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-10  # on the mean score


class TargetingError(ShiftsetError, RuntimeError):
    """Internal inconsistency while targeting (should not occur)."""


class TargetedPredictor(FittedPredictor):
    """Fluctuated conditional-error predictor for one (fold, threshold)."""

    def __init__(self, fits: NuisanceFits, v: int, tau: float, gamma: float,
                 beta: float, mode: str):
        if mode not in ("constant", "logistic", "least-squares"):
            raise TargetingError(f"unknown targeting mode {mode}")
        self.fits = fits
        self.v = v
        self.tau = tau
        self.gamma = gamma
        self.beta = float(beta)
        self.mode = mode
        self.p = None

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        """Fluctuated values before any clipping (least-squares path may
        leave [0, 1])."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        e = self.fits.cond_error(self.v, self.tau, X)
        if self.mode == "constant":
            return e
        return self._fluctuate(e, odds_weight(self.fits.propensity(self.v, X), self.gamma))

    def _fluctuate(self, e: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Fluctuated values from conditional errors ``e`` and weights ``w``
        at the same points."""
        if self.mode == "constant":
            return e
        if self.mode == "logistic":
            off = logit(np.clip(e, _LOGIT_CLAMP, 1.0 - _LOGIT_CLAMP))
            return expit(off + self.beta * w)
        return e + self.beta * w

    def _predict(self, X):
        return np.clip(self.predict_raw(X), 0.0, 1.0)


@dataclass(frozen=True)
class TargetedFoldFit:
    """Targeting outcome for one (fold, threshold)."""

    v: int
    tau: float
    beta: float
    fallback: bool
    predictor: TargetedPredictor


def _newton_logistic(offset: np.ndarray, w: np.ndarray, z: np.ndarray):
    """Solve sum w * (z - expit(offset + beta * w)) = 0 for beta.

    Returns (beta, converged).  The score is monotone decreasing in beta, so
    plain Newton from 0 is stable; saturation makes the score vanish exactly
    in floating point for one-sided label patterns.
    """
    beta = 0.0
    n = w.shape[0]
    for _ in range(_NEWTON_MAX_ITER):
        mu = expit(offset + beta * w)
        score = float(np.sum(w * (z - mu))) / n
        if not np.isfinite(score):
            return beta, False
        if abs(score) <= _NEWTON_TOL:
            return beta, True
        hess = float(np.sum(w * w * mu * (1.0 - mu))) / n
        if not np.isfinite(hess) or hess <= 1e-300:
            return beta, False
        step = score / hess
        if not np.isfinite(step):
            return beta, False
        beta += step
    mu = expit(offset + beta * w)
    score = float(np.sum(w * (z - mu))) / n
    return beta, bool(np.isfinite(score) and abs(score) <= _NEWTON_TOL)


def target_fold(sample: ObservedSample, folds: FoldPlan, v: int, tau: float,
                fits: NuisanceFits) -> TargetedFoldFit:
    """Fluctuate one fold's conditional-error fit at one threshold."""
    return _target(_FoldContext(sample, folds, (tau,), fits, v), 0)


def _target(ctx: _FoldContext, ti: int) -> TargetedFoldFit:
    """:func:`target_fold` at threshold index ``ti`` of the fold's context."""
    v, tau, fits, e_vals = ctx.v, ctx.taus[ti], ctx.fits, ctx.E[ti]
    if fits.is_constant_fit(v, tau):
        const = float(e_vals[0]) if e_vals.size else 0.0
        if const in (0.0, 1.0):
            pred = TargetedPredictor(fits, v, tau, ctx.gamma, 0.0, "constant")
            return TargetedFoldFit(v, tau, 0.0, False, pred)

    src = ctx.src
    if not src.any():
        raise TargetingError("fold without source units reached targeting")
    e_src = e_vals[src]
    w_src = ctx.w[src]
    z_src = ctx.Z[ti][src]

    use_fallback = bool(np.any((e_src <= 0.0) | (e_src >= 1.0)))
    beta = 0.0
    if not use_fallback:
        offset = logit(np.clip(e_src, _LOGIT_CLAMP, 1.0 - _LOGIT_CLAMP))
        beta, converged = _newton_logistic(offset, w_src, z_src)
        use_fallback = not converged

    if use_fallback:
        denom = float(np.sum(w_src * w_src))
        beta = float(np.sum(w_src * (z_src - e_src)) / denom) if denom > 0 else 0.0
    mode = "least-squares" if use_fallback else "logistic"
    pred = TargetedPredictor(fits, v, tau, ctx.gamma, beta, mode)
    return TargetedFoldFit(v, tau, beta, use_fallback, pred)


def tmle_estimate(sample: ObservedSample, folds: FoldPlan, grid: ThresholdGrid,
                  fits: NuisanceFits, targets: RiskTargets) -> CoverageTable:
    """Targeted coverage table over the grid.

    ``extras['fallback']`` marks (fold, threshold) pairs where least squares
    replaced the logistic fluctuation; ``extras['beta']`` holds the fitted
    fluctuation coefficients.  Least-squares values are clipped to [0, 1]
    only for the reported point estimate (see ``extras['ls_clip']``).
    """
    return _tmle_table(_FoldEngine(sample, folds, grid, fits), targets)


def _tmle_table(engine: _FoldEngine, targets: RiskTargets) -> CoverageTable:
    shape = (len(engine.contexts), len(engine.grid))
    fallback = np.zeros(shape, dtype=bool)
    betas = np.zeros(shape)

    def fold_fn(ctx, ti):
        fit = _target(ctx, ti)
        fallback[ctx.v, ti] = fit.fallback
        betas[ctx.v, ti] = fit.beta
        e_vals, z = ctx.E[ti], ctx.Z[ti]
        raw = fit.predictor._fluctuate(e_vals, ctx.w)
        clipped = np.clip(raw, 0.0, 1.0)
        psi_v = float(clipped[~ctx.src].mean())
        d = np.where(ctx.src, ctx.w * (z - raw) / ctx.gamma,
                     (raw - psi_v) / (1.0 - ctx.gamma))
        return psi_v, float(e_vals[~ctx.src].mean()), float(np.mean(d * d))

    extras = {
        "fallback": fallback,
        "beta": betas,
        "ls_clip": "least-squares path clipped to [0,1] for psi only",
    }
    return _run_folds(engine, targets, "tmle", fold_fn, extras=extras)
