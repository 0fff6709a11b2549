"""Rejection-sampling coverage-error estimation.

The cross-fit's fold 0 is the test half and its complement the training
half, the split on which ``icp`` and ``wcp`` calibrate: the run reads the
propensity and conditional-error fits that the cross-fit trained on the
complement, and fits nothing itself.  Source units in the test half are
thinned by rejection sampling with acceptance probability w(x) / B, where w
is the estimated importance weight and B a known upper bound on it; the
accepted units mimic a draw from the target population.  The
accepted-sample miscoverage proportion is then corrected for the estimation
of w, and a Wald CUB built from a dedicated variance formula whose two
pieces are scaled by the inverse half sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    BoundViolationError,
    ConfigurationError,
    DegenerateFoldError,
    EmptyAcceptanceError,
    FoldPlan,
    ObservedSample,
    RiskTargets,
    RngStream,
    miscoverage_vector,
)
from .crossfit import PROPENSITY_GUARD, NuisanceFits, _check_plan, odds_weight
from .onestep import CoverageTable, _wald_table

# The bound rule's multiplier when no bound is known (see rs_prepare).
_BHAT_MULT = 1.3


def _check_bhat_fixed(bhat_fixed: float | None) -> None:
    """Refuse a known bound B that is not finite or lies below 1."""
    if bhat_fixed is not None and not (1.0 <= bhat_fixed < np.inf):
        raise ConfigurationError("fixed bound must be finite and at least 1")


@dataclass(frozen=True)
class RsRun:
    """Frozen state of one rejection-sampling pass on ``sample``:
    ``test_idx`` is fold 0 and ``train_idx`` its complement; ``fits`` holds
    fold 0's nuisances as one fold truncated at ``PROPENSITY_GUARD``."""

    sample: ObservedSample = field(repr=False)
    train_idx: np.ndarray
    test_idx: np.ndarray
    fits: NuisanceFits
    gamma_train: float
    bhat: float
    zeta: np.ndarray          # exogenous uniforms, aligned with test_idx
    what_test: np.ndarray     # estimated weights at test units
    accepted: np.ndarray      # bool mask over test_idx
    pi_hat: float

    @property
    def n_accepted(self) -> int:
        return int(self.accepted.sum())

    def accepted_indices(self) -> np.ndarray:
        return self.test_idx[self.accepted]


def _check_halves(sample: ObservedSample, folds: FoldPlan, fits=None) -> None:
    """Refuse a fold plan or fits that ``crossfit._check_plan`` refuses for
    a reader of fold 0, and a plan whose fold 0 (the test half) or its
    complement (the training half) lacks source or target units."""
    _check_plan(sample, folds, fits, fold0=True)
    for name, half in (("training", folds.complement(0)), ("test", folds.indices(0))):
        a_half = sample.a[half]
        if (a_half == 1).sum() == 0 or (a_half == 0).sum() == 0:
            raise DegenerateFoldError(f"{name} half lacks source or target units")


def rs_prepare(sample: ObservedSample, bhat_fixed: float | None,
               folds: FoldPlan, fits: NuisanceFits, rng: RngStream) -> RsRun:
    """Thin fold 0's source units with fold 0's nuisances, which were
    trained on ``folds.complement(0)``; ``fits`` may hold the other folds
    too, and only fold 0 is read.

    ``bhat_fixed`` set -> use it as the known bound B (and fail the run if an
    observed test-half weight exceeds it); it must be finite and at least 1.
    With no known bound, B = max(1, 1.3 * the largest fold-0 source weight).
    """
    _check_bhat_fixed(bhat_fixed)
    _check_halves(sample, folds, fits)
    train_idx, test_idx = folds.complement(0), folds.indices(0)
    a_test = sample.a[test_idx]

    gamma_train = float(np.mean(sample.a[train_idx] == 1))
    fits = replace(fits, g_predictors=fits.g_predictors[:1],
                   e_predictors=fits.e_predictors[:1], delta=PROPENSITY_GUARD)
    what_test = odds_weight(fits.propensity(0, sample.x[test_idx]), gamma_train)

    src_test = a_test == 1
    w_src_max = float(what_test[src_test].max())
    if bhat_fixed is not None:
        bhat = float(bhat_fixed)
        if bhat < w_src_max:
            raise BoundViolationError(
                f"fixed bound {bhat} below observed weight {w_src_max:.6g}")
    else:
        bhat = max(1.0, _BHAT_MULT * w_src_max)

    zeta = rng.child("rs-zeta").generator().uniform(size=test_idx.size)
    accepted = src_test & (zeta <= what_test / bhat)
    pi_hat = float(what_test[src_test].mean())

    return RsRun(
        sample=sample, train_idx=train_idx, test_idx=test_idx, fits=fits,
        gamma_train=gamma_train, bhat=bhat, zeta=zeta, what_test=what_test,
        accepted=accepted, pi_hat=pi_hat,
    )


def rs_estimate(run: RsRun, targets: RiskTargets) -> CoverageTable:
    """Corrected accepted-proportion estimates with Wald CUBs, one per
    threshold of the run's fits, on the sample the run was prepared on.

    The variance estimate is evaluated term by term: a training-half piece
    from the source-fraction estimate and a test-half piece combining the
    run's ``accepted`` mask, the weight recentering, and the correction term.
    """
    if run.n_accepted == 0:
        raise EmptyAcceptanceError("rejection sampling accepted no units")

    sample = run.sample
    n, n_train, n_test = sample.n, run.train_idx.size, run.test_idx.size
    gamma = run.gamma_train
    a_test = sample.a[run.test_idx].astype(float)
    X_test = sample.x[run.test_idx]
    w = run.what_test
    scores_acc = sample.score[run.accepted_indices()]

    a_train = sample.a[run.train_idx].astype(float)
    train_piece_base = float(np.mean(
        (a_train - gamma) ** 2 / (gamma**2 * (1.0 - gamma) ** 2)))

    # One row per threshold.
    taus = np.array(run.fits.taus, dtype=float)
    E = run.fits.cond_error(0, X_test)
    d_tilde = E * (-(a_test / gamma) * (w / run.pi_hat)
                   + (1.0 - a_test) / (1.0 - gamma))
    z_acc = miscoverage_vector(scores_acc, taus)
    psi = z_acc.mean(axis=1) + d_tilde.mean(axis=1)

    z_full = np.zeros((taus.size, n_test))
    z_full[:, run.accepted] = z_acc
    test_terms = (run.bhat * (a_test / gamma) * run.accepted * (z_full - psi[:, None])
                  + (a_test * (w - 1.0) / gamma) * psi[:, None]
                  + d_tilde)
    # Python's float power (C pow), which is not always x * x in the last bit.
    psi_sq = (psi.astype(object) ** 2).astype(float)
    var = ((n / n_train) * train_piece_base * psi_sq
           + (n / n_test) * np.mean(test_terms**2, axis=1))
    return _wald_table(taus, psi, np.sqrt(var), n, targets.alpha_conf)
