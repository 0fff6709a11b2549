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

Oracle coverage errors marginalize the three labels analytically and
Monte-Carlo only over target covariates; the oracle threshold follows the
sampled-label quantile recipe instead, so the two are computed differently
on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtri

from .conformal import (
    CalibrationSet,
    inductive_cp_threshold,
    weighted_quantile_cutoffs,
)
from .core import (
    BoundViolationError,
    ConfigurationError,
    DegenerateFoldError,
    EmptyAcceptanceError,
    ObservedSample,
    RiskTargets,
    RngStream,
    ThresholdGrid,
    UnfittableFoldError,
    empirical_gamma,
    make_folds,
)
from .crossfit import fit_nuisances, odds_weight
from .learners import BinaryLearnerSpec
from .onestep import (
    CoverageTable,
    FoldEngine,
    onestep_estimate,
    plugin_estimate,
    select_threshold,
    weighted_plugin_estimate,
)
from .rejsamp import RsConfig, rs_estimate, rs_prepare
from .tmle import tmle_estimate

DGP_KINDS = ("highdim-sparse", "lowdim", "lowdim-noshift")

_LOWDIM_COV = np.array([
    [1.0, 0.2, -0.2],
    [0.2, 1.0, 0.2],
    [-0.2, 0.2, 1.0],
])
_LOWDIM_CHOL = np.linalg.cholesky(_LOWDIM_COV)
_LOWDIM_PREC = np.linalg.inv(_LOWDIM_COV)


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
        Z = gen.standard_normal((n, 3))
        X = Z @ _LOWDIM_CHOL.T
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

    def true_cond_error(self, X: np.ndarray, tau: float) -> np.ndarray:
        return self._true_cond_errors(X, (tau,))[0]

    def _true_cond_errors(self, X: np.ndarray, taus) -> np.ndarray:
        """:meth:`true_cond_error` at each threshold, one row each."""
        probs, scores = self.label_probs(X), self.score_table(X)
        return np.array([np.sum(probs * (scores < tau), axis=1) for tau in taus])


def _softmax3(eta1: np.ndarray, eta2: np.ndarray) -> np.ndarray:
    raw = np.column_stack([np.zeros_like(eta1), eta1, eta2])
    raw -= raw.max(axis=1, keepdims=True)
    e = np.exp(raw)
    return e / e.sum(axis=1, keepdims=True)


def dgp_draw(spec: DgpSpec, n: int, rng: RngStream) -> ObservedSample:
    """Draw n units; labels (hence scores) exist only for source units."""
    if n < 1:
        raise ConfigurationError("need at least one unit")
    gen = rng.generator()
    a = gen.binomial(1, 0.5, size=n).astype(np.int8)
    X = spec.draw_x(n, a, gen)
    probs = spec.label_probs(X)
    u = gen.uniform(size=n)
    cum = np.cumsum(probs, axis=1)
    y = (u[:, None] > cum).sum(axis=1)
    scores = spec.score_table(X)[np.arange(n), y]
    score = np.where(a == 1, scores, np.nan)
    return ObservedSample(a=a, x=X, score=score)


# ---------------------------------------------------------------------------
# Oracle quantities
# ---------------------------------------------------------------------------

_CHUNK = 200_000


def oracle_psi_curve(spec: DgpSpec, taus, M: int, rng: RngStream) -> np.ndarray:
    """True coverage-error curve on a grid, sharing the covariate draws.

    Labels are marginalized analytically; randomness enters only through M
    target covariate draws, so the curve is nondecreasing in tau by
    construction.
    """
    if M < 1:
        raise ConfigurationError("M must be positive")
    taus = np.asarray(list(taus), dtype=float)
    gen = rng.generator()
    totals = np.zeros(taus.shape[0])
    done = 0
    while done < M:
        m = min(_CHUNK, M - done)
        X = spec.draw_x(m, np.zeros(m, dtype=int), gen)
        probs = spec.label_probs(X)
        scores = spec.score_table(X)
        for i, tau in enumerate(taus):
            totals[i] += float(np.sum(probs * (scores < tau)))
        done += m
    return totals / M


def oracle_psi(spec: DgpSpec, tau: float, M: int, rng: RngStream) -> float:
    """True coverage error of the threshold-tau set in the target population."""
    return float(oracle_psi_curve(spec, [tau], M, rng)[0])


def oracle_tau0(spec: DgpSpec, alpha_error: float, M: int, rng: RngStream) -> float:
    """Optimal threshold: the alpha_error quantile of sampled target scores.

    Labels are drawn, not marginalized, matching the Monte-Carlo recipe used
    to calibrate the simulation studies.
    """
    if not (0.0 <= alpha_error <= 1.0):
        raise ConfigurationError(f"alpha_error must lie in [0, 1], got {alpha_error}")
    if M < 1:
        raise ConfigurationError("M must be positive")
    gen = rng.generator()
    out = np.empty(M)
    done = 0
    while done < M:
        m = min(_CHUNK, M - done)
        X = spec.draw_x(m, np.zeros(m, dtype=int), gen)
        probs = spec.label_probs(X)
        u = gen.uniform(size=m)
        y = (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
        out[done:done + m] = spec.score_table(X)[np.arange(m), y]
        done += m
    return float(np.quantile(out, alpha_error))


class OracleEvaluator:
    """Shared target-population draws for scoring selected thresholds.

    Built once per study; evaluates the true coverage error of any fixed
    threshold, and of per-covariate cutoffs (for weighted conformal sets).
    """

    def __init__(self, spec: DgpSpec, M: int, rng: RngStream):
        if M < 1:
            raise ConfigurationError("M must be positive")
        gen = rng.generator()
        self.spec = spec
        self.M = int(M)
        self.X = spec.draw_x(self.M, np.zeros(self.M, dtype=int), gen)
        self.probs = spec.label_probs(self.X)
        self.scores = spec.score_table(self.X)
        flat = self.scores.reshape(-1)
        # Without ties (or NaN) every sort gives the one sorting permutation,
        # so the fast unstable sort stands unless adjacent scores fail to
        # increase strictly.
        order = np.argsort(flat)
        self._sorted_scores = flat[order]
        if not np.all(self._sorted_scores[1:] > self._sorted_scores[:-1]):
            order = np.argsort(flat, kind="stable")
            self._sorted_scores = flat[order]
        # In place, so that the build holds as few score-sized arrays at once
        # as it can.
        self._cum_weights = self.probs.reshape(-1)[order]
        del order
        np.cumsum(self._cum_weights, out=self._cum_weights)
        self._cum_weights /= self.M

    def psi_at(self, tau: float) -> float:
        idx = int(np.searchsorted(self._sorted_scores, tau, side="left"))
        return float(self._cum_weights[idx - 1]) if idx > 0 else 0.0

    def psi_of_cutoffs(self, cutoffs: np.ndarray) -> float:
        cutoffs = np.asarray(cutoffs, dtype=float).reshape(-1)
        # Label by label, left to right: the order np.sum takes along a row.
        miss = self.probs[:, 0] * (self.scores[:, 0] < cutoffs)
        for k in range(1, self.probs.shape[1]):
            miss += self.probs[:, k] * (self.scores[:, k] < cutoffs)
        return float(miss.mean())


# ---------------------------------------------------------------------------
# Wilson interval
# ---------------------------------------------------------------------------

def wilson_interval(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ConfigurationError("n must be positive")
    if not (0 <= k <= n):
        raise ConfigurationError("k must lie in [0, n]")
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


@dataclass(frozen=True)
class ReplicationRow:
    method: str
    n: int
    rep: int
    tau_hat: float
    sentinel: bool
    true_error: float | None
    covered: bool
    failed: bool
    failure: str = ""
    info: dict = field(default_factory=dict)
    # The method's estimated curve, for callers of run_study; not serialized.
    table: CoverageTable | None = field(default=None, repr=False, compare=False)


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
    rows: tuple[ReplicationRow, ...]
    aggregates: tuple[AggregateRow, ...]
    config: dict


@dataclass(frozen=True)
class StudyConfig:
    """Everything run_study needs besides the DGP and the RNG."""

    grid: ThresholdGrid
    targets: RiskTargets
    g_spec: BinaryLearnerSpec = BinaryLearnerSpec()
    e_spec: BinaryLearnerSpec = BinaryLearnerSpec()
    V: int = 2
    delta: float = 0.01
    rs_config: RsConfig = field(default_factory=RsConfig)
    oracle_m: int = 100_000


@dataclass
class Dataset:
    """One sample and what every method run on it shares: the fold plan,
    the nuisance fits and the fold engine, each built on first use.  A build
    that fails is tried again, and fails alike, for the next method."""

    sample: ObservedSample
    cfg: StudyConfig
    folds_rng: RngStream
    nuisance_rng: RngStream
    rs_rng: RngStream
    oracle: OracleEvaluator | None = None

    @cached_property
    def folds(self):
        return make_folds(self.sample.n, self.cfg.V, self.folds_rng)

    @cached_property
    def fits(self):
        cfg = self.cfg
        return fit_nuisances(self.sample, self.folds, cfg.grid, cfg.g_spec,
                             cfg.e_spec, cfg.delta, self.nuisance_rng)

    @cached_property
    def engine(self) -> FoldEngine:
        return FoldEngine(self.sample, self.folds, self.cfg.grid, self.fits)

    def calibration(self):
        """Fold 0, the calibration fold of icp and wcp, and its source units."""
        cal_idx = self.folds.indices(0)
        cal_src = cal_idx[self.sample.a[cal_idx] == 1]
        if cal_src.size == 0:
            raise DegenerateFoldError("calibration fold has no source units")
        return cal_idx, cal_src


class MethodResult(NamedTuple):
    """What one method selected on one dataset: ``info`` goes to a
    ``simulate`` row, ``meta`` to the ``fit`` metadata.  Only weighted
    conformal, which is scored on its cutoffs, sets ``true_error``."""

    tau_hat: float
    sentinel: bool
    info: dict
    meta: dict
    table: CoverageTable | None = None
    true_error: float | None = None


def _selected(table, targets, info, meta) -> MethodResult:
    dec = select_threshold(table, targets)
    return MethodResult(dec.tau_hat, dec.is_sentinel, info, meta, table)


def _run_fold_estimate(data: Dataset, estimate) -> MethodResult:
    return _selected(estimate(data.engine, data.cfg.targets), data.cfg.targets,
                     {}, {})


def _run_tmle(data: Dataset) -> MethodResult:
    table = tmle_estimate(data.engine, data.cfg.targets)
    fallback = int(table.extras["fallback"].sum())
    return _selected(table, data.cfg.targets, {"fallback_count": fallback},
                     {"tmle_fallback_count": fallback,
                      "tmle_clipping": table.extras["ls_clip"]})


def _run_rs(data: Dataset) -> MethodResult:
    cfg = data.cfg
    run = rs_prepare(data.sample, cfg.rs_config, cfg.grid, cfg.g_spec,
                     cfg.e_spec, data.rs_rng)
    table = rs_estimate(run, data.sample, cfg.targets)
    return _selected(table, cfg.targets,
                     {"n_accepted": run.n_accepted, "bhat": run.bhat},
                     {"bhat": run.bhat, "pi_hat": run.pi_hat,
                      "n_accepted": run.n_accepted})


def _run_icp(data: Dataset) -> MethodResult:
    cal = CalibrationSet(data.sample.score[data.calibration()[1]])
    res = inductive_cp_threshold(cal, data.cfg.targets)
    return MethodResult(res.tau, res.is_sentinel, {"k": res.k},
                        {"calibration_size": cal.m, "order_statistic": res.k})


def _run_wcp(data: Dataset) -> MethodResult:
    # Importance weights from the fold-0 (out-of-fold) propensity fit,
    # evaluated at calibration and oracle covariates.
    fits = data.fits
    cal_idx, cal_src = data.calibration()
    if cal_src.size == cal_idx.size:
        raise DegenerateFoldError("calibration fold has no target units")
    gamma0 = empirical_gamma(data.sample, cal_idx)
    w_cal = odds_weight(fits.propensity(0, data.sample.x[cal_src]), gamma0)
    w_eval = odds_weight(fits.propensity(0, data.oracle.X), gamma0)
    cutoffs = weighted_quantile_cutoffs(data.sample.score[cal_src], w_cal,
                                        w_eval, data.cfg.targets.alpha_error)
    tau_descr = float(np.median(np.maximum(cutoffs, 0.0)))
    return MethodResult(tau_descr, False, {"cutoff_median": tau_descr}, {},
                        true_error=data.oracle.psi_of_cutoffs(cutoffs))


# Every method, by name, in the paper's order.  Weighted conformal scores
# its per-covariate cutoffs on the oracle's target draws, so it runs only in
# simulation studies.  Entries read their estimator from the module globals
# when called, so perfbench's tracer, which rebinds `simbench.<name>`, sees it.
METHODS: dict[str, Callable[[Dataset], MethodResult]] = {
    "onestep": lambda data: _run_fold_estimate(data, onestep_estimate),
    "tmle": _run_tmle,
    "rs": _run_rs,
    "plugin": lambda data: _run_fold_estimate(data, plugin_estimate),
    "wplugin": lambda data: _run_fold_estimate(data, weighted_plugin_estimate),
    "icp": _run_icp,
    "wcp": _run_wcp,
}
ALL_METHODS = tuple(METHODS)


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


def run_study(spec: DgpSpec, ns, methods, replications: int,
              cfg: StudyConfig, rng: RngStream) -> ReplicationReport:
    """Run every method on the same simulated datasets and score each
    selected set against the shared oracle.

    Failures (degenerate folds, empty acceptance, bound violations) are
    recorded as uncovered rows, never dropped: they stay in the denominator
    of the reported proportions.
    """
    methods = _ensure_methods(methods)
    ns = [int(n) for n in (ns if np.iterable(ns) else [ns])]
    for i, n in enumerate(ns):
        if n in ns[:i]:
            raise ConfigurationError(f"sample size {n} given twice")
    if replications < 1:
        raise ConfigurationError("need at least one replication")

    oracle = OracleEvaluator(spec, cfg.oracle_m, rng.child("oracle"))

    rows: list[ReplicationRow] = []
    for n in ns:
        for rep in range(replications):
            data = Dataset(dgp_draw(spec, n, rng.child(f"dgp-n{n}", rep)), cfg,
                           rng.child(f"folds-n{n}", rep),
                           rng.child(f"nuisance-n{n}", rep),
                           rng.child(f"method-rs-n{n}", rep), oracle)
            data.folds  # so a fold count that cannot split n fails any study
            for method in methods:
                try:
                    res = METHODS[method](data)
                except _FAILURE_ERRORS as exc:
                    rows.append(ReplicationRow(
                        method=method, n=n, rep=rep, tau_hat=0.0,
                        sentinel=False, true_error=None, covered=False,
                        failed=True, failure=type(exc).__name__))
                    continue
                err = (oracle.psi_at(res.tau_hat) if res.true_error is None
                       else res.true_error)
                rows.append(ReplicationRow(
                    method=method, n=n, rep=rep, tau_hat=res.tau_hat,
                    sentinel=res.sentinel, true_error=err,
                    covered=bool(err <= cfg.targets.alpha_error),
                    failed=False, info=res.info, table=res.table))

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

    config = {
        "dgp": spec.kind,
        "ns": ns,
        "methods": list(methods),
        "replications": replications,
        "alpha_error": cfg.targets.alpha_error,
        "alpha_conf": cfg.targets.alpha_conf,
        "V": cfg.V,
        "delta": cfg.delta,
        "grid": list(cfg.grid),
        "oracle_m": cfg.oracle_m,
        "seed": rng.seed,
    }
    return ReplicationReport(rows=tuple(rows), aggregates=tuple(aggregates),
                             config=config)
