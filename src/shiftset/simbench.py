"""Built-in data-generating processes, oracle quantities, and the
replication harness that compares all seven methods.

Three DGPs are provided, each with a three-label outcome and a fixed
scoring function that deliberately differs from the true conditional label
probabilities:

* ``highdim-sparse`` - 20 exponential covariates, the first two with rate
  2 in the target and rate 1 in the source (importance weights bounded
  by 4);
* ``lowdim`` - trivariate normal covariates whose target covariance is half
  the source covariance (weights bounded by 2^{3/2});
* ``lowdim-noshift`` - the same outcome model with identical covariate
  distributions.

The oracle marginalizes the three labels analytically and Monte-Carlos only
over target covariates; its coverage errors and its threshold come from the
same weighted points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import Callable

import numpy as np
from scipy.special import betaincinv, ndtri

from .conformal import inductive_cp_threshold, weighted_quantile_cutoffs
from .core import (
    BoundViolationError,
    ConfigurationError,
    DataError,
    DegenerateFoldError,
    EmptyAcceptanceError,
    ObservedSample,
    RiskTargets,
    RngStream,
    ThresholdGrid,
    UnfittableFoldError,
    _check_count,
    _is_count,
    _rank_window,
    make_folds,
)
from .crossfit import (
    PROPENSITY_GUARD,
    NuisanceFits,
    _check_delta,
    fit_nuisances,
    fit_on,
    odds_weight,
)
from .learners import BinaryLearnerSpec, _blocked_matmul, _covariates
from .onestep import (
    CoverageTable,
    FoldEngine,
    onestep_estimate,
    plugin_estimate,
    select_threshold,
    weighted_plugin_estimate,
)
from .parallel import run_jobs
from .rejsamp import _check_bhat_fixed, _check_halves, rs_estimate, rs_prepare
from .tmle import tmle_estimate

DGP_KINDS = ("highdim-sparse", "lowdim", "lowdim-noshift")

_LOWDIM_COV = np.array([
    [1.0, 0.2, -0.2],
    [0.2, 1.0, 0.2],
    [-0.2, 0.2, 1.0],
])
_LOWDIM_CHOL = np.linalg.cholesky(_LOWDIM_COV)
_LOWDIM_PREC = np.linalg.inv(_LOWDIM_COV)
# Rows per product of lowdim's covariate draw: an oracle chunk's 200,000 rows
# in one product would be large enough for OpenBLAS to split across threads.
_DRAW_BLOCK = 8192


@dataclass(frozen=True)
class DgpSpec:
    """One of the built-in simulation data-generating processes."""

    kind: str

    def __post_init__(self):
        if self.kind not in DGP_KINDS:
            raise ConfigurationError(f"unknown DGP kind {self.kind!r}")

    @property
    def p(self) -> int:
        return 20 if self.kind == "highdim-sparse" else 3

    # -- covariates ---------------------------------------------------

    def draw_x(self, n: int, a: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        a = np.asarray(a)
        if self.kind == "highdim-sparse":
            X = gen.exponential(scale=1.0, size=(n, 20))
            # rate 2^{1-a} for the two shifted coordinates: halve the scale
            # for target units.
            shift_scale = np.where(a == 1, 1.0, 0.5)
            X[:, 0] *= shift_scale
            X[:, 1] *= shift_scale
            return X
        X = _blocked_matmul(gen.standard_normal((n, 3)), _LOWDIM_CHOL.T, _DRAW_BLOCK)
        if self.kind == "lowdim":
            factor = np.where(a == 1, 1.0, np.sqrt(0.5))
            X *= factor[:, None]
        return X

    # -- outcome model and scoring function ---------------------------

    def label_probs(self, X: np.ndarray) -> np.ndarray:
        """True conditional probabilities of the three labels."""
        X = np.atleast_2d(X)
        if self.kind == "highdim-sparse":
            eta1 = 2.0 + 2.0 * X[:, 0] - 1.1 * X[:, 1]
            eta2 = -2.1 - 2.0 * X[:, 0] + 1.2 * X[:, 2]
        else:
            x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
            eta1 = (1.4 * x1 + 1.5 * x2 - 1.5 * x3
                    + 0.3 * (1.0 - x1) ** 2 + 0.015 * x2 * x3)
            eta2 = (-0.1 - 1.3 * x1 - 2.2 * x2 + 0.5 * x3
                    + 0.5 * (1.0 - x2) ** 2 + 0.03 * x1 * x3)
        return _softmax3(eta1, eta2)

    def score_table(self, X: np.ndarray) -> np.ndarray:
        """s(x, y) for the three labels; rows sum to one."""
        X = np.atleast_2d(X)
        if self.kind == "highdim-sparse":
            u1 = 0.02 + 2.1 * X[:, 0] - 0.91 * X[:, 1] + 0.02 * X[:, 3]
            u2 = -0.03 - 1.95 * X[:, 0] + 1.25 * X[:, 2] + 0.1 * X[:, 4]
        else:
            x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
            u1 = 0.02 + 1.2 * x1 + 1.91 * x2 - 1.6 * x3
            u2 = -0.03 - 1.5 * x1 - 2.4 * x2 + 0.3 * x3
        return _softmax3(u1, u2)

    def draw_scores(self, X: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Draw one label per row of X and return the labels' scores."""
        u = gen.uniform(size=X.shape[0])
        y = (u[:, None] > np.cumsum(self.label_probs(X), axis=1)).sum(axis=1)
        return self.score_table(X)[np.arange(X.shape[0]), y]

    # -- true nuisance functions ---------------------------------------

    def true_likelihood_ratio(self, X: np.ndarray) -> np.ndarray:
        """Target/source covariate density ratio."""
        X = np.atleast_2d(X)
        if self.kind == "highdim-sparse":
            return 4.0 * np.exp(-(X[:, 0] + X[:, 1]))
        if self.kind == "lowdim":
            quad = np.einsum("ij,jk,ik->i", X, _LOWDIM_PREC, X)
            return 2.0**1.5 * np.exp(-0.5 * quad)
        return np.ones(X.shape[0])

    def true_propensity(self, X: np.ndarray) -> np.ndarray:
        # Equal population shares, so g = 1 / (1 + w).
        return 1.0 / (1.0 + self.true_likelihood_ratio(X))

    def true_cond_errors(self, X: np.ndarray, taus) -> np.ndarray:
        """True Pr(score < tau | x) at each threshold, one row each."""
        probs, scores = self.label_probs(X), self.score_table(X)
        return np.array([np.sum(probs * (scores < tau), axis=1) for tau in taus])


def _softmax3(eta1: np.ndarray, eta2: np.ndarray) -> np.ndarray:
    # The row max and row sum written out over the three columns: the same
    # bits as max(axis=1) and sum(axis=1), which sums (e0 + e1) + e2.  The
    # row max is built in column 0 of the output, so the row sum is the only
    # temporary.
    e = np.empty((len(eta1), 3))
    top = e[:, 0]
    np.maximum(eta1, 0.0, out=top)
    np.maximum(top, eta2, out=top)
    np.subtract(eta1, top, out=e[:, 1])
    np.subtract(eta2, top, out=e[:, 2])
    np.subtract(0.0, top, out=top)
    np.exp(e, out=e)
    total = e[:, 0] + e[:, 1]
    total += e[:, 2]
    e /= total[:, None]
    return e


def dgp_draw(spec: DgpSpec, n: int, rng: RngStream) -> ObservedSample:
    """Draw n units; labels (hence scores) exist only for source units."""
    _check_count(n, "n")
    gen = rng.generator()
    a = gen.binomial(1, 0.5, size=n).astype(np.int8)
    X = spec.draw_x(n, a, gen)
    score = np.where(a == 1, spec.draw_scores(X, gen), np.nan)
    return ObservedSample(a=a, x=X, score=score)


# ---------------------------------------------------------------------------
# Oracle quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OracleFits(NuisanceFits):
    """A DGP's true nuisances, the same in every fold, so they answer any
    fold index: the propensity from the density ratio, the conditional error
    from the label probabilities and scores, once for all thresholds.  They
    hold no predictors, so no fit counts as constant."""

    dgp: DgpSpec

    def propensity(self, v, X):
        X = _covariates(X, self.dgp.p)
        return np.clip(self.dgp.true_propensity(X), self.delta, 1.0 - self.delta)

    def cond_error(self, v, X):
        X = _covariates(X, self.dgp.p)
        return np.clip(self.dgp.true_cond_errors(X, self.taus), 0.0, 1.0)

    def constant_mask(self, v):
        return np.zeros(len(self.taus), dtype=bool)


def oracle_nuisances(dgp: DgpSpec, grid: ThresholdGrid) -> NuisanceFits:
    """Nuisance fits equal to a DGP's true functions, for property tests
    that isolate estimator behavior from learner error.  The propensity is
    truncated at ``PROPENSITY_GUARD``."""
    if not isinstance(dgp, DgpSpec):
        raise ConfigurationError("oracle nuisances require a built-in DGP spec")
    return _OracleFits(taus=tuple(grid), g_predictors=(), e_predictors=(),
                       delta=PROPENSITY_GUARD, dgp=dgp)


_CHUNK = 200_000


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise ConfigurationError(f"alpha_error must lie in [0, 1], got {alpha}")


_NEEDS_POINTS = "weighted conformal (wcp) needs an oracle built with points=True"


class OracleEvaluator:
    """The target population as M covariate draws, made in chunks of about
    _CHUNK, with the labels marginalized: point (x, y) weighs Pr(y | x) / M.
    It answers the true coverage error of thresholds and the oracle threshold;
    with ``points=True`` it keeps ``X``, ``probs`` and ``scores`` for wcp.
    """

    def __init__(self, spec: DgpSpec, M: int, rng: RngStream, *, points: bool = False):
        _check_count(M, "M")
        gen = rng.generator()
        self.M = int(M)
        # No chunk but the first has one row: numpy multiplies a one-row matrix
        # as a vector, in other bits than lowdim's draw_x of all M rows at once.
        stops = [*range(_CHUNK, self.M - 1, _CHUNK), self.M]
        # One chunk's points are kept as drawn, so that a study's oracle (one
        # chunk at the default M) holds no second copy of them.
        self.X = np.empty((self.M, spec.p)) if points and len(stops) > 1 else None
        probs, scores = np.empty((self.M, 3)), np.empty((self.M, 3))
        for start, stop in zip([0, *stops], stops):
            X = spec.draw_x(stop - start, np.zeros(stop - start, dtype=int), gen)
            rows = slice(start, stop)
            probs[rows], scores[rows] = spec.label_probs(X), spec.score_table(X)
            if self.X is not None:
                self.X[rows] = X
        if points and self.X is None:
            self.X = X
        del X
        self.probs, self.scores = (probs, scores) if points else (None, None)
        flat = scores.reshape(-1)
        # Without ties (or NaN) every sort gives the one sorting permutation,
        # so the fast unstable sort stands unless adjacent scores fail to
        # increase strictly.
        order = np.argsort(flat)
        self._sorted_scores = flat[order]
        if not np.all(self._sorted_scores[1:] > self._sorted_scores[:-1]):
            order = np.argsort(flat, kind="stable")
            self._sorted_scores = flat[order]
        # In place, and without the unsorted arrays unless the points are kept:
        # the build holds as few score-sized arrays at once as it can.
        del flat, scores
        self._cum_weights = probs.reshape(-1)[order]
        del order, probs
        cum = self._cum_weights
        np.cumsum(cum, out=cum)
        cum /= self.M
        # The rounded sum may stray from 1 either way: never above 1, and
        # exactly 1 past every score.
        np.minimum(cum, 1.0, out=cum)
        cum[-1] = 1.0

    def psi_at(self, tau: float) -> float:
        return float(self.psi_curve([tau])[0])

    def psi_curve(self, taus) -> np.ndarray:
        """The true coverage error at each threshold, with one search."""
        idx = np.searchsorted(self._sorted_scores, np.asarray(list(taus), dtype=float),
                              side="left")
        return np.where(idx > 0, self._cum_weights[idx - 1], 0.0)

    def tau0(self, alpha: float) -> float:
        """The largest threshold whose coverage error is at most ``alpha``:
        ``psi_at(tau) <= alpha`` exactly when ``tau <= tau0(alpha)``, for any
        alpha below 1.  Past it, the largest score."""
        _check_alpha(alpha)
        i = int(np.searchsorted(self._cum_weights, alpha, side="right"))
        return float(self._sorted_scores[min(i, self._sorted_scores.size - 1)])

    def psi_of_cutoffs(self, cutoffs: np.ndarray) -> float:
        if self.X is None:
            raise ConfigurationError(_NEEDS_POINTS)
        cutoffs = np.asarray(cutoffs, dtype=float).reshape(-1)
        if cutoffs.size not in (1, self.M):
            raise ConfigurationError(
                f"need one cutoff or one per oracle point ({self.M}), got {cutoffs.size}")
        # Label by label, left to right: the order np.sum takes along a row.
        miss = self.probs[:, 0] * (self.scores[:, 0] < cutoffs)
        for k in range(1, self.probs.shape[1]):
            miss += self.probs[:, k] * (self.scores[:, k] < cutoffs)
        return float(miss.mean())


def _study_oracle(spec: DgpSpec, M: int, rng: RngStream, *,
                  points: bool = False) -> OracleEvaluator:
    """The oracle that a study seeded by ``rng`` scores against, drawn from
    its ``oracle`` stream; ``oracle`` writes the same one."""
    return OracleEvaluator(spec, M, rng.child("oracle"), points=points)


# ---------------------------------------------------------------------------
# Wilson interval
# ---------------------------------------------------------------------------

def wilson_interval(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    _check_count(n, "n")
    if not (_is_count(k, 0) and k <= n):
        raise ConfigurationError(f"k must be an integer in [0, n], got {k!r}")
    if not (0.0 < level < 1.0):
        raise ConfigurationError("level must lie in (0, 1)")
    z = float(ndtri(0.5 + level / 2.0))
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # the interval is exact at the boundary counts
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return (lo, hi)


# ---------------------------------------------------------------------------
# Replication harness
# ---------------------------------------------------------------------------

_FAILURE_ERRORS = (DegenerateFoldError, EmptyAcceptanceError,
                   BoundViolationError, UnfittableFoldError)


@dataclass(frozen=True, kw_only=True)
class MethodResult:
    """What one method selected on one dataset: ``info``, the run's facts as
    plain ints, floats or None, goes to a ``simulate`` row and to the ``fit``
    metadata, ``table`` to the ``fit`` table.  Weighted conformal, which is
    scored on its cutoffs, sets ``true_error`` and no table.  The defaults
    are a failed row's."""

    tau_hat: float = 0.0
    sentinel: bool = False
    info: dict = field(default_factory=dict)
    # The method's estimated curve: fit's table, and no part of a JSONL row.
    table: CoverageTable | None = field(default=None, repr=False, compare=False)
    true_error: float | None = None


@dataclass(frozen=True)
class ReplicationRow(MethodResult):
    """One method's result on one replication, scored by the oracle in
    ``covered``.  A failed row holds only the name of its error, in
    ``failure``."""

    method: str
    n: int
    rep: int
    covered: bool = False
    failure: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.failure)


@dataclass(frozen=True)
class AggregateRow:
    method: str
    n: int
    reps: int
    failures: int
    covered: int
    proportion: float
    wilson_lo: float
    wilson_hi: float
    tau_mean: float
    tau_median: float
    sentinel_count: int


@dataclass(frozen=True)
class ReplicationReport:
    """Every row, and one aggregate per (n, method); ``simulate`` writes
    the study's settings to its metadata itself."""

    rows: tuple[ReplicationRow, ...]
    aggregates: tuple[AggregateRow, ...]


@dataclass(frozen=True)
class StudyConfig:
    """Everything run_study needs besides the DGP and the RNG."""

    grid: ThresholdGrid
    targets: RiskTargets
    g_spec: BinaryLearnerSpec = BinaryLearnerSpec()
    e_spec: BinaryLearnerSpec = BinaryLearnerSpec()
    V: int = 2
    delta: float = 0.01
    bhat_fixed: float | None = None
    oracle_m: int = 100_000

    def __post_init__(self):
        # As make_folds, fit_nuisances and rs_prepare check them, before any
        # input is read or any oracle built.
        _check_count(self.V, "fold count", 2)
        _check_delta(self.delta)
        _check_bhat_fixed(self.bhat_fixed)
        _check_count(self.oracle_m, "M")


@dataclass
class Dataset:
    """One sample and what every method run on it shares: the fold plan,
    the nuisance fits, fold 0's fits and the fold engine, each built on
    first use.  A build that fails is tried again, and fails alike, for the
    next method."""

    sample: ObservedSample
    cfg: StudyConfig
    folds_rng: RngStream
    rs_rng: RngStream
    oracle: OracleEvaluator | None = None

    @cached_property
    def folds(self):
        return make_folds(self.sample.n, self.cfg.V, self.folds_rng)

    @cached_property
    def fits(self):
        cfg = self.cfg
        return fit_nuisances(self.sample, self.folds, cfg.grid, cfg.g_spec,
                             cfg.e_spec, cfg.delta)

    @cached_property
    def engine(self) -> FoldEngine:
        return FoldEngine(self.sample, self.folds, self.fits)

    @cached_property
    def fold0_fits(self) -> NuisanceFits:
        """Fold 0's nuisances, which rs and wcp read, once fold 0 and its
        complement are checked to hold both populations: the cross-fit's when
        it is built, else one fit on fold 0's complement, the call that
        ``fit_nuisances`` makes for fold 0, so the bits are the same either way."""
        _check_halves(self.sample, self.folds)
        if "fits" in vars(self):  # where cached_property keeps a built value
            return self.fits
        cfg = self.cfg
        g, e = fit_on(self.sample, self.folds.complement(0), cfg.grid,
                      cfg.g_spec, cfg.e_spec)
        return NuisanceFits(taus=tuple(cfg.grid), g_predictors=(g,),
                            e_predictors=(e,), delta=cfg.delta)

    def calibration(self):
        """Fold 0, the calibration fold of icp and wcp, and its source units."""
        cal_idx = self.folds.indices(0)
        cal_src = cal_idx[self.sample.a[cal_idx] == 1]
        if cal_src.size == 0:
            raise DegenerateFoldError("calibration fold has no source units")
        return cal_idx, cal_src


def _selected(data: Dataset, table: CoverageTable, info=None) -> MethodResult:
    """The threshold that ``table`` certifies at the study's targets."""
    dec = select_threshold(table, data.cfg.targets)
    return MethodResult(tau_hat=dec.tau_hat, sentinel=dec.is_sentinel,
                        info=info or {}, table=table)


def _run_tmle(data: Dataset) -> MethodResult:
    table = tmle_estimate(data.engine, data.cfg.targets)
    return _selected(data, table, {"fallback_count": int(table.extras["fallback"].sum())})


def _run_rs(data: Dataset) -> MethodResult:
    """Rejection sampling on fold 0 and its complement, the halves of icp
    and wcp."""
    cfg = data.cfg
    run = rs_prepare(data.sample, cfg.bhat_fixed, data.folds, data.fold0_fits,
                     data.rs_rng)
    return _selected(data, rs_estimate(run, cfg.targets),
                     {"bhat": run.bhat, "n_accepted": run.n_accepted, "pi_hat": run.pi_hat})


def _run_icp(data: Dataset) -> MethodResult:
    """The split-conformal threshold and its one-row table: the median, standard
    deviation and 1 - alpha_conf quantile of the Beta(k, m + 1 - k) law of the
    k-th order statistic's coverage error, or zeros at the sentinel."""
    scores = data.sample.score[data.calibration()[1]]
    res = inductive_cp_threshold(scores, data.cfg.targets)
    k, m = res.k, scores.size
    if res.is_sentinel:
        psi_hat, se, cub = 0.0, 0.0, 0.0
    else:
        # The median, below cub since alpha_conf < 0.5.
        psi_hat = float(betaincinv(k, m + 1 - k, 0.5))
        se = float(np.sqrt(k * (m + 1 - k) / ((m + 1) ** 2 * (m + 2))))
        cub = float(betaincinv(k, m + 1 - k, 1 - data.cfg.targets.alpha_conf))
    return MethodResult(
        tau_hat=res.tau, sentinel=res.is_sentinel, info={"calibration_size": m, "k": k},
        table=CoverageTable(*map(np.atleast_1d, (res.tau, psi_hat, se, cub))))


def _cutoff_median(cutoffs: np.ndarray, cal_scores: np.ndarray) -> float:
    """``np.median(np.maximum(cutoffs, 0.0))`` for cutoffs that are
    calibration scores or -inf, bit for bit, from the counts of their few
    distinct values where that pays.

    Each value is 0.0 or a positive calibration score.  Among those sorted
    candidates, the values lie from the least one's rank to the greatest
    one's, and counting the values at most each candidate there finds the
    two middle order statistics (the one, for an odd count), whose mean is
    what ``np.median`` returns.  A score of -0.0 could leave either zero in
    the values, so it is left to ``np.median``.
    """
    kept = np.maximum(cutoffs, 0.0)
    window = None
    if not np.any(np.signbit(cal_scores) & (cal_scores == 0.0)):
        candidates = np.unique(np.append(cal_scores[cal_scores > 0.0], 0.0))
        window = _rank_window(candidates, kept)
    if window is None:
        return float(np.median(kept))
    lo, hi = window
    n, le = kept.size, np.empty(kept.shape, dtype=bool)
    at_most = [np.count_nonzero(np.less_equal(kept, c, out=le)) for c in candidates[lo:hi]]
    middle = lo + np.searchsorted(at_most + [n], [(n - 1) // 2, n // 2], side="right")
    return float(np.mean(candidates[middle[:2 - n % 2]]))


def _run_wcp(data: Dataset) -> MethodResult:
    # Importance weights from fold 0's propensity, trained on its complement,
    # evaluated at calibration and oracle covariates.
    if data.oracle is None or data.oracle.X is None:
        raise ConfigurationError(_NEEDS_POINTS)
    fits = data.fold0_fits
    cal_idx, cal_src = data.calibration()
    gamma0 = cal_src.size / cal_idx.size
    w_cal = odds_weight(fits.propensity(0, data.sample.x[cal_src]), gamma0)
    w_eval = odds_weight(fits.propensity(0, data.oracle.X), gamma0)
    cal_scores = data.sample.score[cal_src]
    cutoffs = weighted_quantile_cutoffs(cal_scores, w_cal, w_eval,
                                        data.cfg.targets.alpha_error)
    tau_descr = _cutoff_median(cutoffs, cal_scores)
    return MethodResult(tau_hat=tau_descr, info={"cutoff_median": tau_descr},
                        true_error=data.oracle.psi_of_cutoffs(cutoffs))


# Every method, by name, in the paper's order.  Weighted conformal scores
# its per-covariate cutoffs on the oracle's target draws, so it runs only in
# simulation studies.  Entries read their estimator from the module globals
# when called, so perfbench's tracer, which rebinds `simbench.<name>`, sees it.
METHODS: dict[str, Callable[[Dataset], MethodResult]] = {
    "onestep": lambda data: _selected(data, onestep_estimate(data.engine, data.cfg.targets)),
    "tmle": _run_tmle,
    "rs": _run_rs,
    "plugin": lambda data: _selected(data, plugin_estimate(data.engine, data.cfg.targets)),
    "wplugin": lambda data: _selected(
        data, weighted_plugin_estimate(data.engine, data.cfg.targets)),
    "icp": _run_icp,
    "wcp": _run_wcp,
}
# The methods that read ``Dataset.fold0_fits``.  A replication runs them last,
# so they reuse the cross-fit's fold 0 whenever a fold method runs.
_FOLD0_READERS = ("rs", "wcp")


def _ensure_methods(methods) -> tuple[str, ...]:
    methods = tuple(methods)
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ConfigurationError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ConfigurationError(f"method {m!r} given twice")
    if not methods:
        raise ConfigurationError("need at least one method")
    return methods


def _replicate(study, n: int, rep: int) -> list[ReplicationRow]:
    """Every method on replication ``rep`` at sample size ``n``, seeded from
    that job's own streams, its rows in the order of ``methods``."""
    spec, methods, cfg, rng, oracle = study
    try:
        sample = dgp_draw(spec, n, rng.child(f"dgp-n{n}", rep))
    except DataError as exc:  # a draw with no source or no target unit
        return [ReplicationRow(method, n, rep, failure=type(exc).__name__)
                for method in methods]
    data = Dataset(sample, cfg, rng.child(f"folds-n{n}", rep),
                   rng.child(f"method-rs-n{n}", rep), oracle)
    rows = {}
    for method in sorted(methods, key=_FOLD0_READERS.__contains__):
        try:
            res = METHODS[method](data)
        except _FAILURE_ERRORS as exc:
            rows[method] = ReplicationRow(method, n, rep, failure=type(exc).__name__)
            continue
        err = (oracle.psi_at(res.tau_hat) if res.true_error is None
               else res.true_error)
        rows[method] = ReplicationRow(method, n, rep, covered=bool(err <= cfg.targets.alpha_error),
                                      **{**vars(res), "true_error": err})
    return [rows[method] for method in methods]


def run_study(spec: DgpSpec, ns, methods, replications: int,
              cfg: StudyConfig, rng: RngStream,
              workers: int | None = None) -> ReplicationReport:
    """Run every method on the same simulated datasets and score each
    selected set against the shared oracle.

    Failures (a draw with no source or no target unit, degenerate folds,
    empty acceptance, bound violations) are recorded as uncovered rows that
    name the error, never dropped: they stay in the denominator of the
    reported proportions.

    Replications run in ``workers`` forked processes (default: one per
    usable CPU, or one per replication when there are fewer than twice as
    many as CPUs, see :func:`parallel.run_jobs`; 1 runs them in this
    process).  The report is the same for any count.
    """
    methods = _ensure_methods(methods)
    ns = list(ns) if np.iterable(ns) else [ns]
    if not all(_is_count(n) for n in ns):
        raise ConfigurationError(f"sample sizes must be integers of at least 1, got {ns!r}")
    ns = [int(n) for n in ns]
    for i, n in enumerate(ns):
        if n in ns[:i]:
            raise ConfigurationError(f"sample size {n} given twice")
        if n < cfg.V:
            raise ConfigurationError(f"cannot split {n} units into {cfg.V} folds")
    _check_count(replications, "replications")
    if workers is not None:
        _check_count(workers, "workers")

    oracle = _study_oracle(spec, cfg.oracle_m, rng, points="wcp" in methods)
    jobs = [(n, rep) for n in ns for rep in range(replications)]
    study = (spec, methods, cfg, rng, oracle)
    rows = list(chain.from_iterable(run_jobs(partial(_replicate, study), jobs, workers)))

    aggregates = []
    for n in ns:
        for method in methods:
            sub = [r for r in rows if r.method == method and r.n == n]
            covered = sum(r.covered for r in sub)
            failures = sum(r.failed for r in sub)
            lo, hi = wilson_interval(covered, len(sub), 0.95)
            taus = np.array([r.tau_hat for r in sub if not r.failed])
            aggregates.append(AggregateRow(
                method=method, n=n, reps=len(sub), failures=failures,
                covered=covered, proportion=covered / len(sub),
                wilson_lo=lo, wilson_hi=hi,
                tau_mean=float(taus.mean()) if taus.size else 0.0,
                tau_median=float(np.median(taus)) if taus.size else 0.0,
                sentinel_count=sum(r.sentinel for r in sub),
            ))

    return ReplicationReport(rows=tuple(rows), aggregates=tuple(aggregates))
