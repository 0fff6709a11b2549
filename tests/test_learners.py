import dataclasses
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit, logit

from shiftset import (
    BinaryLearnerSpec,
    ConfigurationError,
    ConstantPredictor,
    DataError,
    DgpSpec,
    RngStream,
    ThresholdGrid,
    dgp_draw,
    fit_binary,
    fit_nuisances,
    make_folds,
    miscoverage_vector,
)
from shiftset import learners
from shiftset.learners import BoostedStumpsPredictor, LogisticRidgePredictor, fit_binary_grid
from tests.conftest import rs_prepare_on_split


def predict(pred, x):
    """Probability for a single covariate vector."""
    return float(pred.predict(np.asarray(x, dtype=float).reshape(1, -1))[0])


class TestConstantLabels:
    @pytest.mark.parametrize("kind", ["logistic-ridge", "boosted-stumps"])
    def test_all_zero_labels(self, kind):
        pred = fit_binary(BinaryLearnerSpec(kind=kind), np.zeros((5, 2)), np.zeros(5))
        assert isinstance(pred, ConstantPredictor)
        assert predict(pred, [3.0, -1.0]) == 0.0

    @pytest.mark.parametrize("kind", ["logistic-ridge", "boosted-stumps"])
    def test_all_one_labels(self, kind):
        pred = fit_binary(BinaryLearnerSpec(kind=kind), np.zeros((5, 2)), np.ones(5))
        assert predict(pred, [0.0, 0.0]) == 1.0

    @pytest.mark.parametrize("kind", ["logistic-ridge", "boosted-stumps"])
    def test_fitted_constant_checks_the_width(self, kind):
        pred = fit_binary(BinaryLearnerSpec(kind=kind), np.zeros((5, 2)), np.ones(5))
        assert isinstance(pred, ConstantPredictor)
        with pytest.raises(DataError, match="^expected 2 covariates, got 3$"):
            pred.predict(np.zeros((4, 3)))

    @pytest.mark.parametrize("value", [1.5, -0.1])
    def test_constant_outside_unit_interval_rejected(self, value):
        with pytest.raises(ConfigurationError, match=r"must lie in \[0, 1\]"):
            ConstantPredictor(value)


class TestPredict:
    def test_zero_coefficients_give_half(self):
        pred = LogisticRidgePredictor(0.0, np.zeros(3), 3)
        assert predict(pred, [1.0, -2.0, 5.0]) == 0.5

    def test_dimension_mismatch(self):
        pred = LogisticRidgePredictor(0.0, np.zeros(3), 3)
        with pytest.raises(DataError):
            predict(pred, [1.0, 2.0])

    @pytest.mark.parametrize("p", [3, 20])
    def test_row_blocks_match_one_product(self, p):
        # Blocks of 1,024 rows at p=3 and 192 at p=20; the sizes cover
        # single blocks, whole blocks with and without a tail, one-row tails
        # and column-major input.
        gen = np.random.default_rng(p)
        coef = gen.standard_normal(p) * 3
        pred = LogisticRidgePredictor(0.3, coef, p)
        step = {3: 1024, 20: 192}[p]
        whole = [k * step + r for k in (1, 2, 5) for r in (0, 1, 2)]
        for n in (1, 2, 191, 193, 385, 1025, 2049, 4801, *whole):
            for order in "CF":
                X = np.asarray(gen.standard_normal((n, p)) * 4, order=order)
                want = np.clip(expit(0.3 + X @ coef), 0.0, 1.0)
                assert pred.predict(X).tobytes() == want.tobytes(), (n, order)


class TestLogisticRidge:
    def test_symmetric_separable_fit(self):
        # Oracle: direct minimization of the penalized loss, independent of
        # the IRLS code path.
        X = np.array([[-1.0], [1.0]])
        z = np.array([0.0, 1.0])

        def objective(beta):
            eta = beta[0] + X[:, 0] * beta[1]
            return -(z @ eta - np.logaddexp(0, eta).sum()) + 0.5e-6 * beta[1] ** 2

        res = minimize(objective, np.zeros(2), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 20000})
        oracle = expit(res.x[0] + X[:, 0] * res.x[1])

        pred = fit_binary(BinaryLearnerSpec(ridge=1e-6), X, z)
        p = pred.predict(X)
        assert p[0] < 0.5 < p[1]
        assert p[0] == pytest.approx(1.0 - p[1], abs=1e-9)
        np.testing.assert_allclose(p, oracle, atol=1e-6)

    def test_intercept_calibration(self):
        gen = np.random.default_rng(3)
        X = gen.standard_normal((200, 3))
        z = (gen.uniform(size=200) < expit(X[:, 0])).astype(float)
        pred = fit_binary(BinaryLearnerSpec(ridge=1e-6), X, z)
        assert abs(pred.predict(X).mean() - z.mean()) < 1e-6

    def test_deterministic(self):
        gen = np.random.default_rng(4)
        X = gen.standard_normal((80, 2))
        z = (gen.uniform(size=80) < 0.4).astype(float)
        a = fit_binary(BinaryLearnerSpec(), X, z)
        b = fit_binary(BinaryLearnerSpec(), X, z)
        assert a.intercept == b.intercept
        np.testing.assert_array_equal(a.coef, b.coef)

    def test_divergence_falls_back_with_warning(self):
        X = np.array([[1e200], [-1e200], [5e199]])
        z = np.array([1.0, 0.0, 1.0])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            pred = fit_binary(BinaryLearnerSpec(), X, z)
        assert pred.fallback
        assert any("IRLS" in str(w.message) for w in rec)
        np.testing.assert_allclose(pred.predict(X), z.mean(), atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError):
            fit_binary(BinaryLearnerSpec(), np.zeros((4, 2)), np.zeros(3))

    @pytest.mark.parametrize("kind", ["logistic-ridge", "boosted-stumps"])
    def test_empty_sample_rejected(self, kind):
        with pytest.raises(DataError, match="^cannot fit on an empty sample$"):
            fit_binary(BinaryLearnerSpec(kind=kind), np.zeros((0, 2)), np.zeros(0))

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(DataError):
            fit_binary(BinaryLearnerSpec(), np.zeros((3, 1)),
                       np.array([0.0, 0.5, 1.0]))


class TestBoostedStumps:
    def test_predictions_clamped(self):
        gen = np.random.default_rng(11)
        X = gen.standard_normal((300, 2))
        z = (X[:, 0] > 0).astype(float)  # separable
        with mock.patch.multiple(learners, _STUMP_ROUNDS=200, _STUMP_MIN_CHILD_WEIGHT=1.0):
            pred = fit_binary(BinaryLearnerSpec(kind="boosted-stumps"), X, z)
        p = pred.predict(X)
        assert p.min() >= 1e-6 and p.max() <= 1 - 1e-6

    def test_learns_a_step_function(self):
        gen = np.random.default_rng(12)
        X = gen.uniform(-1, 1, size=(500, 3))
        truth = np.where(X[:, 1] > 0.2, 0.8, 0.1)
        z = (gen.uniform(size=500) < truth).astype(float)
        pred = fit_binary(BinaryLearnerSpec(kind="boosted-stumps"), X, z)
        p = pred.predict(X)
        assert p[X[:, 1] > 0.3].mean() > 0.6
        assert p[X[:, 1] < 0.1].mean() < 0.3

    def test_min_child_weight_blocks_splits(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        z = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        # Hessian sum is at most 1.5, so no split can reach the weight floor.
        with mock.patch.object(learners, "_STUMP_MIN_CHILD_WEIGHT", 10.0):
            pred = fit_binary(BinaryLearnerSpec(kind="boosted-stumps"), X, z)
        p = pred.predict(X)
        np.testing.assert_allclose(p, p[0])

    def test_deterministic(self):
        gen = np.random.default_rng(13)
        X = gen.standard_normal((120, 2))
        z = (gen.uniform(size=120) < 0.5).astype(float)
        spec = BinaryLearnerSpec(kind="boosted-stumps")
        with mock.patch.object(learners, "_STUMP_ROUNDS", 30):
            a = fit_binary(spec, X, z).predict(X)
            b = fit_binary(spec, X, z).predict(X)
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Reference oracle for the stump path: one label vector at a time, one
# feature at a time, and a predict loop over the stumps in round order.  It
# reads the learners' fixed settings when called, so a test that patches them
# patches both sides.
# ---------------------------------------------------------------------------

def reference_fit_boosted_stumps(X, z):
    rounds, rate = learners._STUMP_ROUNDS, learners._STUMP_LEARNING_RATE
    min_weight = learners._STUMP_MIN_CHILD_WEIGHT
    n, p = X.shape
    zbar = float(np.clip(np.mean(z), 1e-6, 1.0 - 1e-6))
    base = float(logit(zbar))
    raw = np.full(n, base)

    order = [np.argsort(X[:, j], kind="stable") for j in range(p)]
    features, thresholds, lvals, rvals = [], [], [], []

    for _ in range(rounds):
        prob = expit(raw)
        grad = z - prob
        hess = np.clip(prob * (1.0 - prob), 1e-12, None)
        total_g, total_h = grad.sum(), hess.sum()

        best = None  # (gain, feature, threshold, gl, hl)
        for j in range(p):
            idx = order[j]
            xs = X[idx, j]
            gl = np.cumsum(grad[idx])[:-1]
            hl = np.cumsum(hess[idx])[:-1]
            valid = xs[:-1] < xs[1:]  # split only between distinct values
            valid &= (hl >= min_weight)
            valid &= (total_h - hl >= min_weight)
            if not valid.any():
                continue
            gr = total_g - gl
            hr = total_h - hl
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = gl**2 / hl + gr**2 / hr
            gain[~valid] = -np.inf
            k = int(np.argmax(gain))
            if best is None or gain[k] > best[0]:
                with np.errstate(over="ignore"):
                    thr = 0.5 * (xs[k] + xs[k + 1])
                if not np.isfinite(thr):  # the sum overflowed
                    thr = 0.5 * xs[k] + 0.5 * xs[k + 1]
                best = (float(gain[k]), j, thr, float(gl[k]), float(hl[k]))

        if best is None:
            break
        _, j, thr, gl, hl = best
        gr, hr = total_g - gl, total_h - hl
        left_val = rate * gl / hl
        right_val = rate * gr / hr
        features.append(j)
        thresholds.append(thr)
        lvals.append(left_val)
        rvals.append(right_val)
        raw += np.where(X[:, j] <= thr, left_val, right_val)

    return BoostedStumpsPredictor(base, features, thresholds, lvals, rvals, p)


def reference_predict(pred, X):
    raw = np.full(X.shape[0], pred.base_logodds)
    for j, thr, lv, rv in zip(pred.features, pred.thresholds,
                              pred.left_values, pred.right_values):
        raw += np.where(X[:, j] <= thr, lv, rv)
    return np.clip(np.clip(expit(raw), 1e-6, 1.0 - 1e-6), 0.0, 1.0)


def reference_fit(X, z):
    if np.all(z == z[0]):
        return ConstantPredictor(float(z[0]), p=X.shape[1])
    return reference_fit_boosted_stumps(X, z)


def assert_same_predictor(got, want, X):
    assert type(got) is type(want)
    if isinstance(want, ConstantPredictor):
        assert got.value == want.value
        return
    assert got.base_logodds == want.base_logodds
    for name in ("features", "thresholds", "left_values", "right_values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.predict(X).tobytes() == reference_predict(want, X).tobytes()


# Covariates near the largest double: the sum of two of them overflows to
# +inf or -inf, so their split takes the sum of their halves.
_HUGE = [-1.7e308, -1.5e308, -1.0, 0.0, 1.0, 1.5e308, 1.7e308]


@st.composite
def stump_problems(draw):
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 4))
    cell = draw(st.sampled_from([
        st.integers(-2, 2).map(float),  # tied
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        st.sampled_from(_HUGE),
    ]))
    X = np.array(draw(st.lists(st.lists(cell, min_size=p, max_size=p),
                               min_size=n, max_size=n)))
    for j in draw(st.sets(st.integers(0, p - 1))):
        X[:, j] = X[0, j]  # constant covariate
    scores = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
                      dtype=float)
    taus = draw(st.lists(st.sampled_from([-1.0, 0.5, 1.5, 2.5, 3.5, 6.0]),
                         min_size=1, max_size=6))
    rows = [miscoverage_vector(scores, t) for t in taus]  # nested in tau
    if draw(st.booleans()):
        rows.append(np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                           min_size=n, max_size=n))))
    rows.extend(rows[:draw(st.integers(0, 2))])  # repeated columns
    settings = dict(
        _STUMP_ROUNDS=draw(st.sampled_from([1, 2, 7, 25])),
        _STUMP_LEARNING_RATE=draw(st.sampled_from([0.1, 0.5, 1.0])),
        _STUMP_MIN_CHILD_WEIGHT=draw(st.sampled_from([0.0, 0.3, 5.0, 1e9])))
    return settings, X, np.array(rows)


def stump_cells(pred):
    """Cells cut by the distinct thresholds of each used feature."""
    return int(np.prod([np.unique(pred.thresholds[pred.features == j]).size + 1
                        for j in np.unique(pred.features)]))


def probe_rows(pred, X, m, gen):
    """``m`` rows whose covariates hit training values, thresholds and their
    neighbours, signed zeros, NaN and both infinities."""
    cols = []
    for j in range(X.shape[1]):
        thr = pred.thresholds[pred.features == j]
        pool = np.concatenate([X[:, j], thr, np.nextafter(thr, -np.inf),
                               np.nextafter(thr, np.inf),
                               [-0.0, 0.0, np.nan, np.inf, -np.inf]])
        cols.append(gen.choice(pool, size=m))
    return np.column_stack(cols) if cols else np.zeros((m, 0))


class TestStumpGridReference:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(stump_problems(), st.sampled_from([1 << 14, 12, 3]),
           st.sampled_from([1 << 17, 40]), st.integers(0, 2**32 - 1))
    def test_grid_fit_matches_reference(self, problem, terms, block, seed):
        settings, X, Z = problem
        spec = BinaryLearnerSpec(kind="boosted-stumps")
        X_new = np.vstack([X[::-1], X[:1] + 0.25])  # odd row count
        gen = np.random.default_rng(seed)
        # Small blocks make predict chunks and fit batches cover every tail.
        with mock.patch.multiple(learners, _PREDICT_TERMS=terms, _STUMP_BLOCK=block,
                                 **settings):
            fitted = fit_binary_grid(spec, X, Z)
            assert len(fitted) == Z.shape[0]
            for z, got in zip(Z, fitted):
                want = reference_fit(X, z)
                assert_same_predictor(got, want, X)
                assert_same_predictor(got, want, X_new)
                assert_same_predictor(fit_binary(spec, X, z), want, X[:1])
                if isinstance(want, ConstantPredictor):
                    continue
                # Fewer, as many and more rows than cells: cell lookup and
                # row-by-row sums must give the same bits.
                cells = stump_cells(want)
                sizes = (cells - 1, cells, cells + 1) if cells < 2000 else (50,)
                for m in sizes:
                    assert_same_predictor(got, want, probe_rows(want, X, m, gen))

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    def test_ensemble_without_stumps(self, m):
        pred = BoostedStumpsPredictor(0.3, [], [], [], [], 2)
        X = np.arange(2.0 * m).reshape(m, 2)
        assert pred.predict(X).shape == (m,)
        assert pred.predict(X).tobytes() == reference_predict(pred, X).tobytes()

    def test_cells_at_overflowed_thresholds(self):
        # +inf and -inf thresholds: +inf goes left at +inf, NaN goes right.
        pred = BoostedStumpsPredictor(0.0, [0, 0, 1, 0], [np.inf, -np.inf, 0.0, 1.0],
                                      [0.5, 0.25, -0.125, 1.0], [-1.0, 2.0, 0.75, -0.5], 2)
        assert stump_cells(pred) == 8
        col = np.array([-np.inf, -1.0, -0.0, 1.0, 2.0, np.inf, np.nan])
        X = np.column_stack([np.tile(col, 3), np.repeat([-0.0, np.nan, 1.0], 7)])
        for rows in (X[:7], X[:8], X[:9], X):
            assert pred.predict(rows).tobytes() == reference_predict(pred, rows).tobytes()

    def test_split_between_huge_neighbours_separates_them(self):
        # 0.5 * (x + y) overflows to +inf here, which would send every unit
        # left; the split takes 0.5 * x + 0.5 * y instead, as at a smaller
        # scale.
        spec = BinaryLearnerSpec(kind="boosted-stumps")
        X = np.array([[1.5e308], [1.6e308], [1.7e308], [1.75e308]])
        with mock.patch.multiple(learners, _STUMP_ROUNDS=3, _STUMP_MIN_CHILD_WEIGHT=0.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                huge = fit_binary(spec, X, [0, 0, 1, 1])
            small = fit_binary(spec, X / 1e10, [0, 0, 1, 1])
        assert np.all((1.6e308 < huge.thresholds) & (huge.thresholds < 1.7e308))
        assert huge.predict(X).tobytes() == small.predict(X / 1e10).tobytes()
        np.testing.assert_allclose(huge.predict(X), [0.366, 0.366, 0.634, 0.634],
                                   atol=1e-3)

    def test_labels_must_align_and_be_binary(self):
        spec = BinaryLearnerSpec(kind="boosted-stumps")
        with pytest.raises(DataError):
            fit_binary_grid(spec, np.zeros((3, 1)), np.zeros((2, 4)))
        with pytest.raises(DataError):
            fit_binary_grid(spec, np.zeros((3, 1)), np.full((2, 3), 0.5))


class TestNuisanceGridsMatchReference:
    """Every cross-fitted and rejection-sampling conditional-error fit equals
    the reference fit on the same training units, per (fold, threshold)."""

    spec = BinaryLearnerSpec(kind="boosted-stumps")
    grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)

    def draw(self):
        root = RngStream(31)
        return root, dgp_draw(DgpSpec("lowdim"), 600, root.child("dgp"))

    def test_fit_nuisances(self):
        root, sample = self.draw()
        folds = make_folds(sample.n, 2, root.child("folds"))
        fits = fit_nuisances(sample, folds, self.grid, self.spec, self.spec, 0.01)
        for v in range(folds.V):
            train = folds.complement(v)
            src = train[sample.a[train] == 1]
            for ti, tau in enumerate(self.grid):
                want = reference_fit(sample.x[src],
                                     miscoverage_vector(sample.score[src], tau))
                assert_same_predictor(fits.e_predictors[v][ti], want,
                                      sample.x[folds.indices(v)])

    def test_rs_prepare(self):
        root, sample = self.draw()
        run = rs_prepare_on_split(sample, None, self.grid, self.spec, self.spec,
                                  root.child("rs"))
        src = run.train_idx[sample.a[run.train_idx] == 1]
        for ti, tau in enumerate(self.grid):
            want = reference_fit(sample.x[src],
                                 miscoverage_vector(sample.score[src], tau))
            assert_same_predictor(run.fits.e_predictors[0][ti], want,
                                  sample.x[run.test_idx])


# ---------------------------------------------------------------------------
# Logistic grids: one stacked IRLS must give each row the bits of its own fit
# ---------------------------------------------------------------------------

def assert_same_logistic(got, want):
    assert type(got) is type(want)
    if isinstance(want, ConstantPredictor):
        assert got.value == want.value
        return
    assert (got.fallback, got.n_iter, got.converged) == \
        (want.fallback, want.n_iter, want.converged)
    assert np.float64(got.intercept).tobytes() == np.float64(want.intercept).tobytes()
    assert got.coef.tobytes() == want.coef.tobytes()


class TestLogisticGridStack:
    spec = BinaryLearnerSpec()
    grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)

    def source_half(self, n, v):
        root = RngStream(41)
        sample = dgp_draw(DgpSpec("highdim-sparse"), n, root.child("dgp"))
        train = make_folds(n, 2, root.child("folds")).complement(v)
        src = train[sample.a[train] == 1]
        return sample.x[src], np.array([miscoverage_vector(sample.score[src], t)
                                        for t in self.grid])

    @pytest.mark.parametrize("n", [400, 20_000])
    @pytest.mark.parametrize("v", [0, 1])
    def test_highdim_source_halves(self, n, v):
        X, Z = self.source_half(n, v)
        fitted = fit_binary_grid(self.spec, X, Z)
        assert sum(isinstance(f, LogisticRidgePredictor) for f in fitted) >= 5
        for z, got in zip(Z, fitted):
            assert_same_logistic(got, fit_binary(self.spec, X, z))

    def test_slow_row_does_not_perturb_the_others(self):
        X, Z = self.source_half(2000, 1)
        rare = np.zeros(X.shape[0])
        rare[np.argsort(X[:, 0])[-3:]] = 1.0  # three events at the largest x1
        Z = np.vstack([Z, rare])
        live = []
        solve = learners._solve
        with mock.patch.object(learners, "_solve",
                               lambda a, b: live.append(len(a)) or solve(a, b)):
            fitted = fit_binary_grid(self.spec, X, Z)
        # the rare row iterates alone long after the others have converged
        assert live[0] == np.count_nonzero(np.ptp(Z, axis=1))
        assert live.count(1) >= 5
        for z, got in zip(Z, fitted):
            assert_same_logistic(got, fit_binary(self.spec, X, z))

    def test_rows_that_run_to_max_iter_are_unconverged(self):
        # Quasi-separated fold-0 source halves (about 100 units, p=20): some
        # rows drift to coefficients of order 1e7 without meeting tol.
        runaway = 0
        for seed in range(40):
            root = RngStream(seed)
            sample = dgp_draw(DgpSpec("highdim-sparse"), 400, root.child("dgp"))
            train = make_folds(400, 2, root.child("folds")).complement(0)
            src = train[sample.a[train] == 1]
            Z = np.array([miscoverage_vector(sample.score[src], t) for t in self.grid])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fitted = fit_binary_grid(self.spec, sample.x[src], Z)
            for got in fitted:
                if isinstance(got, ConstantPredictor):
                    continue
                assert 1 <= got.n_iter <= learners._IRLS_MAX_ITER
                assert got.converged or got.n_iter == learners._IRLS_MAX_ITER
                if np.max(np.abs(got.coef)) > 1e6:
                    runaway += 1
                    assert not got.converged
        assert runaway >= 5

    def test_each_diverging_row_falls_back_with_its_own_warning(self):
        X = np.array([[1e200], [-1e200], [5e199]])
        z = np.array([1.0, 0.0, 1.0])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            fitted = fit_binary_grid(self.spec, X, np.vstack([z, z]))
        assert sum("IRLS" in str(w.message) for w in rec) == 2
        for got in fitted:
            assert got.fallback and not got.converged
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert_same_logistic(got, fit_binary(self.spec, X, z))


_COEFFICIENT_BYTES = """
import numpy as np
from shiftset import (BinaryLearnerSpec, DgpSpec, RngStream, ThresholdGrid,
                      dgp_draw, fit_nuisances, make_folds)
from tests.conftest import rs_prepare_on_split
root = RngStream(11)
n = 20_000
grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
spec = BinaryLearnerSpec()
sample = dgp_draw(DgpSpec("highdim-sparse"), n, root.child("dgp"))
fits = fit_nuisances(sample, make_folds(n, 2, root.child("folds")), grid, spec, spec, 0.01)
run = rs_prepare_on_split(sample, None, grid, spec, spec, root.child("rs"))
preds = [*fits.g_predictors, *(e for row in fits.e_predictors for e in row),
         *run.fits.g_predictors, *run.fits.e_predictors[0]]
for p in preds:
    coef = [p.value] if hasattr(p, "value") else [p.intercept, *p.coef]
    print(np.array(coef).tobytes().hex())
"""


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 CPUs")
def test_logistic_fits_ignore_blas_thread_count():
    """At n=20,000 OpenBLAS would split a whole-sample Gram or matrix-vector
    product across threads; the row-blocked IRLS never hands it one."""
    src = os.path.dirname(os.path.dirname(learners.__file__))
    tests_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = []
    for threads in ("1", "2"):
        path = [src, tests_root, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
        out.append(subprocess.run([sys.executable, "-c", _COEFFICIENT_BYTES], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=300).stdout)
    assert out[0].count("\n") == 2 + 2 * 7 + 1 + 7
    assert out[0] == out[1]


@pytest.mark.parametrize("L", [1, 2, 7])
@pytest.mark.parametrize("rows", [1, 2, 110, 195])
@pytest.mark.parametrize("p", [3, 20])
def test_weighted_transpose_is_the_broadcast_product(L, rows, p):
    # A block of the design and of the weights as the IRLS slices them.
    gen = np.random.default_rng(rows * p + L)
    design = np.column_stack([np.ones(400), gen.standard_normal((400, p))])
    w = np.clip(gen.uniform(size=(L, 400)) * 0.25, 1e-10, None)
    resp = gen.standard_normal((L, 400))
    D, block = design[7:7 + rows], slice(7, 7 + rows)
    got = learners._weighted_transpose(D, w[:, block])
    want = D.T * w[:, None, block]
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    assert np.matmul(got, D).tobytes() == np.matmul(want, D).tobytes()
    rhs = resp[:, block, None]
    assert np.matmul(got, rhs).tobytes() == np.matmul(want, rhs).tobytes()


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            BinaryLearnerSpec(kind="neural-net")

    def test_negative_ridge(self):
        with pytest.raises(ConfigurationError):
            BinaryLearnerSpec(ridge=-1.0)

    def test_constant_kind_removed(self):
        with pytest.raises(ConfigurationError):
            BinaryLearnerSpec(kind="constant")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_ridge(self, value):
        with pytest.raises(ConfigurationError):
            BinaryLearnerSpec(ridge=value)

    def test_only_kind_and_ridge_are_settable(self):
        assert [f.name for f in dataclasses.fields(BinaryLearnerSpec)] == ["kind", "ridge"]
