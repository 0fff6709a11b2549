"""In-repo binary-outcome learners used for both nuisance functions.

Two learners share one interface: a ridge-penalized logistic regression fit
by iteratively reweighted least squares over fixed blocks of units, so that
its bits do not depend on the BLAS thread count, and gradient-boosted
decision stumps.  Both return probabilities in [0, 1].  Constant labels
short-circuit to an exactly-constant predictor, which keeps conditional-error
fits exact beyond the observed score range.  ``fit_binary_grid`` fits the
label stack of a threshold grid on one design, each row as if fit alone.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .core import ConfigurationError, DataError, RngStream

LEARNER_KINDS = ("logistic-ridge", "boosted-stumps")

# Boosted-stump probabilities are clamped away from {0, 1} so that downstream
# odds transforms stay finite.
_STUMP_CLAMP = 1e-6
# Elements in one (columns, features, rows) array of a stump-fitting round;
# label columns beyond it are grown in further batches.
_STUMP_BLOCK = 1 << 17
# Log-odds terms, (stumps + 1) x rows, evaluated at once by a stump predictor.
_PREDICT_TERMS = 1 << 14
# Elements in one (rows, p + 1) block of the logistic design.  Every sum over
# rows runs block by block in a fixed order, and no block's matrix product is
# large enough for BLAS to split it across threads.
_IRLS_BLOCK = 1 << 12


@dataclass(frozen=True)
class BinaryLearnerSpec:
    """Configuration for a binary-outcome learner.

    ``ridge`` penalizes non-intercept coefficients only.  The stump fields
    (``rounds``, ``learning_rate``, ``min_child_weight``) are ignored by the
    logistic learner and vice versa.
    """

    kind: str = "logistic-ridge"
    ridge: float = 1e-6
    max_iter: int = 50
    tol: float = 1e-8
    rounds: int = 100
    learning_rate: float = 0.1
    min_child_weight: float = 5.0
    standardize: bool = False

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ConfigurationError(f"unknown learner kind {self.kind!r}")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ConfigurationError("ridge strength must be finite and nonnegative")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigurationError("tol must be finite and positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError("learning_rate must be finite and positive")
        if not (math.isfinite(self.min_child_weight) and self.min_child_weight >= 0):
            raise ConfigurationError("min_child_weight must be finite and nonnegative")
        for name in ("max_iter", "rounds"):
            cap = getattr(self, name)
            if not isinstance(cap, numbers.Integral) or cap < 1:
                raise ConfigurationError(f"{name} must be an integer of at least 1")


class FittedPredictor:
    """A fitted x -> probability map.  Immutable and safe to share."""

    p: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check(X)
        out = self._predict(X)
        return np.clip(out, 0.0, 1.0)

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.p is not None and X.shape[1] != self.p:
            raise DataError(f"expected {self.p} covariates, got {X.shape[1]}")
        return X

    def _predict(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class ConstantPredictor(FittedPredictor):
    """Predicts one fixed probability for every input."""

    def __init__(self, value: float, p: int | None = None):
        if not (0.0 <= value <= 1.0):
            raise ConfigurationError("constant probability must lie in [0, 1]")
        self.value = float(value)
        self.p = p

    def _check(self, X):
        # Dimension is irrelevant for a constant; accept any width.
        return np.atleast_2d(np.asarray(X, dtype=float))

    def _predict(self, X):
        return np.full(X.shape[0], self.value)

    def __repr__(self):
        return f"ConstantPredictor({self.value})"


class LogisticRidgePredictor(FittedPredictor):
    """Logistic model expit(intercept + x @ coef), optionally standardized.

    ``n_iter`` counts the Newton steps of the fit; ``converged`` says whether
    the penalized deviance settled within ``tol`` before ``max_iter``.
    """

    def __init__(self, intercept, coef, p, x_mean=None, x_scale=None, fallback=False,
                 n_iter=0, converged=True):
        self.intercept = float(intercept)
        self.coef = np.asarray(coef, dtype=float)
        self.p = int(p)
        self.x_mean = None if x_mean is None else np.asarray(x_mean, dtype=float)
        self.x_scale = None if x_scale is None else np.asarray(x_scale, dtype=float)
        self.fallback = bool(fallback)
        self.n_iter = int(n_iter)
        self.converged = bool(converged)

    def _predict(self, X):
        if self.x_mean is not None:
            X = (X - self.x_mean) / self.x_scale
        return expit(self.intercept + X @ self.coef)


class BoostedStumpsPredictor(FittedPredictor):
    """Additive log-odds model of depth-1 trees, clamped away from {0, 1}.

    The model is constant on each cell that the distinct thresholds of the
    used features cut.  With fewer cells than rows, ``predict`` sums the
    stumps once per cell, at a point of that cell, and gathers each row's
    cell value; otherwise it sums them row by row.  Either way every row
    gets the same terms added in round order, so the bits agree.
    """

    def __init__(self, base_logodds, features, thresholds, left_values, right_values, p):
        self.base_logodds = float(base_logodds)
        self.features = np.asarray(features, dtype=np.int64)
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.left_values = np.asarray(left_values, dtype=float)
        self.right_values = np.asarray(right_values, dtype=float)
        self.p = int(p)
        self._used = np.unique(self.features)
        self._cuts = [np.unique(self.thresholds[self.features == j]) for j in self._used]
        radix = [c.size + 1 for c in self._cuts]
        self._strides = [math.prod(radix[:i]) for i in range(len(radix))]
        self._cells = math.prod(radix)

    def _predict(self, X):
        if self._cells < X.shape[0]:
            raw = self._raw(self._cell_points())[self._cell_codes(X)]
        else:
            raw = self._raw(np.ascontiguousarray(X.T))
        return np.clip(expit(raw), _STUMP_CLAMP, 1.0 - _STUMP_CLAMP)

    def _cell_codes(self, X):
        """Each row's cell as a mixed-radix number whose digit for a used
        feature counts that feature's thresholds below the row's value."""
        code = np.zeros(X.shape[0], dtype=np.intp)
        for j, cuts, stride in zip(self._used, self._cuts, self._strides):
            rank = np.searchsorted(cuts, X[:, j], side="left")
            rank *= stride
            code += rank
        return code

    def _cell_points(self):
        """One point per cell, features by cells.  Digit r stands for
        ``cuts[r]``, which goes left at exactly the thresholds that values of
        rank r go left at; the top digit for NaN, which goes right at every
        threshold, +inf too."""
        XT = np.full((self.p, self._cells), np.nan)
        cell = np.arange(self._cells)
        for j, cuts, stride in zip(self._used, self._cuts, self._strides):
            XT[j] = np.append(cuts, np.nan)[cell // stride % (cuts.size + 1)]
        return XT

    def _raw(self, XT):
        """Log-odds of the points in the columns of ``XT``, summed in round
        order."""
        rows = max(2, _PREDICT_TERMS // (self.features.size + 1))
        raw = np.empty(XT.shape[1])
        for start in range(0, XT.shape[1], rows):
            block = XT[self.features, start:start + rows]
            m = block.shape[1]
            if m == 1:
                # numpy sums down a lone column pairwise, not row by row.
                block = np.repeat(block, 2, axis=1)
            # Row 0 is the base; summing down the rows adds the stumps in
            # round order, as a loop over them would.
            terms = np.empty((self.features.size + 1, block.shape[1]))
            terms[0] = self.base_logodds
            _leaves(block <= self.thresholds[:, None], self.left_values,
                    self.right_values, out=terms[1:].view(np.int64))
            raw[start:start + m] = np.add.reduce(terms, axis=0)[:m]
        return raw


def fit_binary(spec: BinaryLearnerSpec, X: np.ndarray, z: np.ndarray,
               rng: RngStream | None = None) -> FittedPredictor:
    """Fit a binary-outcome probability model.

    Constant labels always produce the matching constant predictor, whatever
    the configured learner.  IRLS that diverges falls back to an
    intercept-only fit with a warning; it never raises.
    """
    return _fit_stack(spec, X, np.asarray(z, dtype=float).reshape(1, -1))[0]


def fit_binary_grid(spec: BinaryLearnerSpec, X: np.ndarray,
                    Z: np.ndarray) -> tuple[FittedPredictor, ...]:
    """Fit one model per row of the label stack ``Z``, all on the design ``X``.

    Each predictor equals what :func:`fit_binary` returns for that row.
    Boosted stumps share one presort of ``X`` and grow every ensemble in the
    same rounds; logistic fits take their Newton steps together.
    """
    return _fit_stack(spec, X, np.atleast_2d(np.asarray(Z, dtype=float)))


def _fit_stack(spec: BinaryLearnerSpec, X: np.ndarray, Z: np.ndarray):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.ascontiguousarray(Z)
    if X.shape[0] != Z.shape[1]:
        raise DataError("X and z must have the same number of rows")
    if X.shape[0] < 1:
        raise DataError("cannot fit on an empty sample")
    if np.any((Z != 0.0) & (Z != 1.0)):
        raise DataError("labels must be binary")

    p = X.shape[1]
    constant = np.all(Z == Z[:, :1], axis=1)
    preds = [ConstantPredictor(float(z[0]), p=p) if c else None
             for z, c in zip(Z, constant)]
    todo = np.flatnonzero(~constant)
    fit = _fit_logistic if spec.kind == "logistic-ridge" else _fit_boosted_stumps
    fitted = fit(spec, X, Z[todo]) if todo.size else []
    for i, pred in zip(todo, fitted):
        preds[i] = pred
    return tuple(preds)


# ---------------------------------------------------------------------------
# Logistic ridge via IRLS
# ---------------------------------------------------------------------------

def _fit_logistic(spec: BinaryLearnerSpec, X: np.ndarray, Z: np.ndarray):
    """One ridge-logistic IRLS per row of ``Z`` (no row constant), run together.

    Each row starts from zero and falls back to its intercept-only fit, with
    a warning, if a Newton step is singular or not finite.  A row that runs
    to ``max_iter`` without its deviance settling is only marked
    unconverged: a warning would reach the outputs that record warnings.
    Sums over units run block by block with one matrix product per row, so a
    row's bits depend neither on the other rows nor on the BLAS thread count.
    """
    n, p = X.shape
    x_mean = x_scale = None
    Xw = X
    if spec.standardize:
        x_mean = X.mean(axis=0)
        x_scale = X.std(axis=0)
        x_scale = np.where(x_scale > 0, x_scale, 1.0)
        Xw = (X - x_mean) / x_scale

    design = np.column_stack([np.ones(n), Xw])
    step = max(1, _IRLS_BLOCK // (p + 1))
    blocks = [design[s:s + step] for s in range(0, n, step)]
    penalty = np.full(p + 1, spec.ridge)
    penalty[0] = 0.0  # intercept unpenalized

    # From zero, not from the intercept-only fit: on a highdim source half
    # with 14 events in 516 units, that start diverged where zero converges.
    zbar = logit(np.clip(Z.mean(axis=1), 1e-10, 1 - 1e-10))
    beta, eta = np.zeros((Z.shape[0], p + 1)), np.zeros(Z.shape)
    ok, live = np.ones(Z.shape[0], dtype=bool), np.arange(Z.shape[0])
    n_iter, converged = np.zeros(Z.shape[0], dtype=int), np.zeros(Z.shape[0], dtype=bool)
    dev_old = np.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(spec.max_iter):
            mu = expit(eta)
            w = np.clip(mu * (1.0 - mu), 1e-10, None)
            # Working response for the Newton step on the penalized deviance.
            resp = eta + (Z - mu) / w
            lhs = rhs = 0.0
            for s, D in zip(range(0, n, step), blocks):
                Dw = D.T * w[:, None, s:s + step]
                lhs += np.matmul(Dw, D)
                rhs += np.matmul(Dw, resp[:, s:s + step, None])
            new = _solve(lhs + np.diag(penalty), rhs)
            eta = np.concatenate([np.matmul(D, new[..., None])[..., 0] for D in blocks],
                                 axis=1)
            dev = (-2.0 * np.sum(Z * eta - np.logaddexp(0.0, eta), axis=1)
                   + np.sum(penalty * new**2, axis=1))
            # A singular or non-finite step gives a non-finite deviance.
            good = np.isfinite(dev)
            ok[live[~good]] = False
            beta[live[good]] = new[good]
            n_iter[live] += 1
            settled = good & (np.abs(dev_old - dev) < spec.tol)
            converged[live[settled]] = True
            keep = good & ~settled
            live, Z, eta, dev_old = live[keep], Z[keep], eta[keep], dev[keep]
            if not live.size:
                break

    for _ in range(np.count_nonzero(~ok)):
        warnings.warn("IRLS diverged; falling back to an intercept-only fit",
                      RuntimeWarning, stacklevel=4)
    beta[~ok] = 0.0
    beta[~ok, 0] = zbar[~ok]
    return [LogisticRidgePredictor(b[0], b[1:], p, x_mean, x_scale, fallback=not row_ok,
                                   n_iter=k, converged=c)
            for b, row_ok, k, c in zip(beta, ok, n_iter, converged)]


def _solve(lhs, rhs):
    """Newton steps for a stack of systems; a singular one gives NaN."""
    try:
        return np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError:
        return (np.concatenate([_solve(a[None], b[None]) for a, b in zip(lhs, rhs)])
                if len(lhs) > 1 else np.full((1, lhs.shape[1]), np.nan))


# ---------------------------------------------------------------------------
# Gradient-boosted stumps
# ---------------------------------------------------------------------------

def _fit_boosted_stumps(spec: BinaryLearnerSpec, X: np.ndarray, Z: np.ndarray):
    """One boosted-stump ensemble per row of ``Z`` (no row constant).

    Each feature is sorted once.  Every round evaluates, for all growing
    ensembles and all features at once, the exact second-order gain of each
    split between distinct neighbouring values; an ensemble takes its best
    split (first position within a feature, then first feature, on ties) and
    stops growing at its first round without a valid split.
    """
    n, p = X.shape
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    xs = np.take_along_axis(XT, order, axis=1)
    # A split after sorted position k needs xs[k] < xs[k + 1].
    splittable = np.zeros((p, n), dtype=bool)
    splittable[:, :-1] = xs[:, :-1] < xs[:, 1:]
    step = max(1, _STUMP_BLOCK // (p * n))
    return [pred for start in range(0, Z.shape[0], step)
            for pred in _grow_stumps(spec, XT, order.ravel(), xs, splittable,
                                     Z[start:start + step])]


def _grow_stumps(spec, XT, order, xs, splittable, Z):
    p, n = XT.shape
    L = Z.shape[0]
    base = logit(np.clip(Z.mean(axis=1), _STUMP_CLAMP, 1.0 - _STUMP_CLAMP))
    raw = np.repeat(base[:, None], n, axis=1)
    mcw, lr = spec.min_child_weight, spec.learning_rate
    features = np.zeros((L, spec.rounds), dtype=np.int64)
    thresholds, lvals, rvals = np.zeros((3, L, spec.rounds))
    grown = np.zeros(L, dtype=np.int64)
    live = np.arange(L)

    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(spec.rounds):
            prob = expit(raw)
            gh = np.empty((2,) + raw.shape)
            np.subtract(Z, prob, out=gh[0])
            np.clip(prob * (1.0 - prob), 1e-12, None, out=gh[1])
            g_tot, h_tot = gh.sum(axis=2)
            # Left-child sums after each sorted position, shape (live, p, n).
            gl, hl = np.cumsum(gh.take(order, axis=2).reshape(2, -1, p, n), axis=3)
            gr = g_tot[:, None, None] - gl
            hr = h_tot[:, None, None] - hl
            valid = (hl >= mcw) & (hr >= mcw) & splittable
            gain = np.square(gl)
            gain /= hl
            np.square(gr, out=gr)
            gr /= hr
            gain += gr
            gain[~valid] = -np.inf
            gain = gain.reshape(live.size, -1)
            best = gain.argmax(axis=1)
            rows = np.flatnonzero(gain[np.arange(live.size), best] > -np.inf)
            if rows.size < live.size:
                live, raw, Z = live[rows], raw[rows], Z[rows]
                if not live.size:
                    break
            j, k = np.divmod(best[rows], n)
            g_left, h_left = gl[rows, j, k], hl[rows, j, k]
            thr = 0.5 * (xs[j, k] + xs[j, k + 1])
            lv = lr * g_left / h_left
            rv = lr * (g_tot[rows] - g_left) / (h_tot[rows] - h_left)
            features[live, r] = j
            thresholds[live, r] = thr
            lvals[live, r] = lv
            rvals[live, r] = rv
            grown[live] += 1
            raw += _leaves(XT[j] <= thr[:, None], lv, rv)

    return [BoostedStumpsPredictor(base[i], features[i, :m], thresholds[i, :m],
                                   lvals[i, :m], rvals[i, :m], p)
            for i, m in enumerate(grown)]


def _leaves(goes_left, left, right, out=None):
    """``np.where(goes_left, left[:, None], right[:, None])``, exact and
    branch-free: the mask times the xor of the two leaves' bits, xored with
    the right leaf's bits, is the chosen leaf's bits."""
    flip = (left.view(np.int64) ^ right.view(np.int64))[:, None]
    bits = np.bitwise_xor(goes_left * flip, right.view(np.int64)[:, None], out=out)
    return bits.view(np.float64)
