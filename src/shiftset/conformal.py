"""Conformal baselines: PAC-tuned split conformal and weighted conformal.

Split conformal ignores covariate shift: the threshold is the k-th smallest
calibration score, with k chosen so that the exact binomial tail certifies
the PAC criterion.  Weighted conformal targets marginal (not training-set
conditional) coverage under estimated shift: a candidate label is kept when
its score clears a weighted lower quantile of the calibration scores, with
the test point contributing its own weight mass below every score.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from .core import SENTINEL_TAU, ConfigurationError, DomainError, RiskTargets


class IcpThreshold(NamedTuple):
    tau: float
    k: int | None
    is_sentinel: bool


def inductive_cp_threshold(scores: np.ndarray, targets: RiskTargets) -> IcpThreshold:
    """PAC-tuned split-conformal threshold from the m calibration scores.

    Picks the largest k >= 1 with Pr(Bin(m, alpha_error) >= k) >= 1 -
    alpha_conf and returns the k-th smallest calibration score; the
    zero sentinel when no k qualifies.  Larger k gives a larger threshold
    (smaller sets), so the rule takes the most aggressive certifiable order
    statistic.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.size < 1:
        raise ConfigurationError("calibration set must be non-empty")
    if not np.all(np.isfinite(scores)):
        raise ConfigurationError("calibration scores must be finite")
    m = scores.size
    # Pr(Bin(m, a) >= k) = I_a(k, m - k + 1) for k = 1..m, decreasing in k.
    ks = np.arange(1, m + 1)
    tail = betainc(ks, m - ks + 1, targets.alpha_error)
    feasible = tail >= 1.0 - targets.alpha_conf
    if not feasible.any():
        return IcpThreshold(SENTINEL_TAU, None, True)
    k = int(np.flatnonzero(feasible)[-1]) + 1
    return IcpThreshold(float(np.sort(scores)[k - 1]), k, False)


def weighted_quantile_cutoffs(cal_scores: np.ndarray, cal_weights: np.ndarray,
                              test_weights: np.ndarray,
                              alpha_error: float) -> np.ndarray:
    """Per test point, the smallest calibration score at which the
    normalized cumulative weight (counting the test point's mass below every
    score) reaches alpha_error.

    A cutoff is -inf when the test mass alone reaches the level, in which
    case every candidate is kept.  Ties in scores pool their weight.
    """
    cal_scores = np.asarray(cal_scores, dtype=float).reshape(-1)
    cal_weights = np.asarray(cal_weights, dtype=float).reshape(-1)
    test_weights = np.asarray(test_weights, dtype=float).reshape(-1)
    if not (0.0 < alpha_error < 1.0):
        raise DomainError(f"alpha_error must lie strictly inside (0, 1), got {alpha_error!r}")
    if cal_scores.shape != cal_weights.shape or cal_scores.size == 0:
        raise ConfigurationError("scores and weights must align and be non-empty")
    if test_weights.size == 0:
        raise ConfigurationError("need at least one test weight")
    if not np.all(np.isfinite(cal_scores)):
        raise DomainError("calibration scores must be finite")
    if not (np.all(np.isfinite(cal_weights) & (cal_weights >= 0))
            and np.all(np.isfinite(test_weights) & (test_weights >= 0))):
        raise DomainError("weights must be finite and nonnegative")
    w_total = float(cal_weights.sum())
    if w_total + test_weights.min() <= 0.0:
        raise DomainError("degenerate weights: total weight is zero")
    order = np.argsort(cal_scores, kind="stable")
    sorted_scores = cal_scores[order]
    cum = np.cumsum(cal_weights[order])
    levels = alpha_error * (w_total + test_weights) - test_weights
    pos = np.searchsorted(cum, levels, side="left")
    pos = np.minimum(pos, cal_scores.size - 1)
    out = sorted_scores[pos]
    return np.where(levels <= 0.0, -np.inf, out)
