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

import numpy as np
from scipy.special import expit, logit

from .core import RiskTargets
from .onestep import (
    CoverageTable,
    FoldEngine,
    _columns,
    _FoldContext,
    _run_folds,
    _sigma2,
    _target_mean,
)

_LOGIT_CLAMP = 1e-6
_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-10  # on the mean score


def _fluctuate(E: np.ndarray, w: np.ndarray, beta: np.ndarray,
               mode: np.ndarray) -> np.ndarray:
    """Fluctuated values, before any clipping, of the conditional errors
    ``E`` (one row per threshold) at points with weights ``w``, by each
    row's coefficient and mode."""
    raw = E.copy()
    rows = mode == "logistic"
    off = logit(np.clip(E[rows], _LOGIT_CLAMP, 1.0 - _LOGIT_CLAMP))
    raw[rows] = expit(off + beta[rows, None] * w)
    rows = mode == "least-squares"
    raw[rows] = E[rows] + beta[rows, None] * w
    return raw


def _newton_logistic(offset: np.ndarray, w: np.ndarray, z: np.ndarray):
    """Solve sum w * (z - expit(offset + beta * w)) = 0 for each row's beta.

    Returns (beta, converged), one per row.  The score is monotone
    decreasing in beta, so plain Newton from 0 is stable; saturation makes
    the score vanish exactly in floating point for one-sided label
    patterns.  A row stops at its first non-finite or converged score.
    """
    n, rows = w.shape[0], offset.shape[0]
    beta, converged, live = np.zeros(rows), np.zeros(rows, dtype=bool), np.arange(rows)
    for it in range(_NEWTON_MAX_ITER + 1):
        mu = expit(offset[live] + beta[live, None] * w)
        score = np.sum(w * (z[live] - mu), axis=1) / n
        converged[live] = np.abs(score) <= _NEWTON_TOL
        go = np.isfinite(score) & ~converged[live]
        if it == _NEWTON_MAX_ITER or not go.any():
            break
        live, score, mu = live[go], score[go], mu[go]
        hess = np.sum(w * w * mu * (1.0 - mu), axis=1) / n
        # Float arithmetic, as in a scalar solve; a row whose curvature or
        # step is unusable stops here.
        with np.errstate(all="ignore"):
            step = score / hess
            go = np.isfinite(hess) & (hess > 1e-300) & np.isfinite(step)
            live = live[go]
            beta[live] += step[go]
    return beta, converged


def _fluctuations(ctx: _FoldContext):
    """(beta, mode) at every threshold of the fold.

    A constant 0/1 conditional-error fit is kept as is.  Otherwise the
    logistic fluctuation is solved, and least squares replaces it where an
    in-fold source unit's fit is at 0 or 1 or the Newton solve fails.
    """
    T = len(ctx.taus)
    e_src, z_src, w_src = _columns(ctx.E, ctx.src), _columns(ctx.Z, ctx.src), ctx.w[ctx.src]
    constant = ctx.constant & ((ctx.E[:, 0] == 0.0) | (ctx.E[:, 0] == 1.0))
    ls = ~constant & np.any((e_src <= 0.0) | (e_src >= 1.0), axis=1)
    beta = np.zeros(T)
    rows = np.flatnonzero(~constant & ~ls)
    offset = logit(np.clip(e_src[rows], _LOGIT_CLAMP, 1.0 - _LOGIT_CLAMP))
    beta[rows], converged = _newton_logistic(offset, w_src, z_src[rows])
    ls[rows[~converged]] = True
    denom = float(np.sum(w_src * w_src))
    beta[ls] = np.sum(w_src * (z_src[ls] - e_src[ls]), axis=1) / denom if denom > 0 else 0.0
    mode = np.where(constant, "constant", np.where(ls, "least-squares", "logistic"))
    return beta, mode


def _fold_tmle(ctx: _FoldContext, beta: np.ndarray, mode: np.ndarray):
    """(psi_v, sigma2_v) over the fold's grid, given the fold's fluctuations."""
    raw = _fluctuate(ctx.E, ctx.w, beta, mode)
    psi = _target_mean(ctx, np.clip(raw, 0.0, 1.0))
    return psi, _sigma2(ctx, raw, psi)


def tmle_estimate(engine: FoldEngine, targets: RiskTargets) -> CoverageTable:
    """Targeted coverage table over the engine's grid.

    ``extras['fallback']`` marks (fold, threshold) pairs where least squares
    replaced the logistic fluctuation.  Least-squares values are clipped to
    [0, 1] only for the reported point estimate (see ``extras['ls_clip']``).
    """
    betas, modes = map(np.array, zip(*map(_fluctuations, engine.contexts)))
    extras = {
        "fallback": modes == "least-squares",
        "ls_clip": "least-squares path clipped to [0,1] for psi only",
    }
    return _run_folds(engine, targets,
                      lambda ctx: _fold_tmle(ctx, betas[ctx.v], modes[ctx.v]),
                      extras=extras)
