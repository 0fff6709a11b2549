import warnings

import numpy as np
import pytest
from scipy.special import expit, logit

from shiftset import (
    BinaryLearnerSpec,
    DgpSpec,
    FoldEngine,
    FoldPlan,
    NuisanceFits,
    OracleEvaluator,
    RiskTargets,
    RngStream,
    ThresholdGrid,
    dgp_draw,
    fit_nuisances,
    make_folds,
    miscoverage_vector,
    odds_weight,
    onestep_estimate,
    oracle_nuisances,
    plugin_estimate,
    tmle_estimate,
)
from shiftset.learners import ConstantPredictor
from shiftset.tmle import _fluctuate, _fluctuations, _fold_tmle, _newton_logistic
from tests.conftest import LEARNED_ENGINES, LookupPredictor, learned_engine, make_sample

TARGETS = RiskTargets(0.05, 0.05)


def fluctuations_at(sample, folds, fits):
    """(beta, fallback) at the fits' single threshold, one value per fold:
    beta from each fold's fluctuations, fallback from the tmle table's
    extras."""
    engine = FoldEngine(sample, folds, fits)
    table = tmle_estimate(engine, TARGETS)
    beta = np.array([_fluctuations(ctx)[0][0] for ctx in engine.contexts])
    return beta, table.extras["fallback"][:, 0]


def fluctuated(fits, v, ti, gamma, beta, X):
    """Fold v's conditional-error fit at threshold index ``ti`` fluctuated
    on the logistic scale by ``beta``, before clipping, at the points
    ``X``."""
    e = fits.cond_error(v, X)[ti]
    w = odds_weight(fits.propensity(v, X), gamma)
    return expit(logit(np.clip(e, 1e-6, 1.0 - 1e-6)) + beta * w)


def score_residual(sample, folds, fits, v, ti, beta):
    """In-fold weighted score equation value, |sum| / |I_v|, of the logistic
    fluctuation by ``beta`` at threshold index ``ti``."""
    idx = folds.indices(v)
    src = idx[sample.a[idx] == 1]
    gamma = float(np.mean(sample.a[idx] == 1))
    w = odds_weight(fits.propensity(v, sample.x[src]), gamma)
    z = miscoverage_vector(sample.score[src], fits.taus[ti])
    resid = np.sum(w * (z - fluctuated(fits, v, ti, gamma, beta, sample.x[src])))
    return abs(float(resid)) / idx.size


class TestTargetFold:
    def test_balanced_labels_keep_fit(self):
        # two source units, W = (1, 1), E = 0.5, Z = (1, 0): score already
        # solved at beta = 0
        sample = make_sample(a=[1, 1, 0, 0],
                             x=[[1.0], [2.0], [3.0], [4.0]],
                             score=[0.7, 0.3, None, None])
        folds = FoldPlan(V=2, assignment=np.array([0, 0, 1, 1]))
        # gamma_0 = 1, cannot use; put one target in fold 0 instead
        sample = make_sample(a=[1, 1, 0, 1, 0, 0],
                             x=[[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]],
                             score=[0.7, 0.3, None, 0.5, None, None])
        folds = FoldPlan(V=2, assignment=np.array([0, 0, 0, 1, 1, 1]))
        gamma0 = 2 / 3
        # choose g so that W(g, gamma0) == 1 for the two source units
        g_val = gamma0  # (1-g)/g * gamma/(1-gamma) = 1 iff g == gamma
        e_map = ConstantPredictor(0.5)
        g_map = ConstantPredictor(g_val)
        fits = NuisanceFits(taus=(0.5,), g_predictors=(g_map,) * 2,
                            e_predictors=((e_map,),) * 2, delta=0.0)
        beta, fallback = fluctuations_at(sample, folds, fits)
        assert not fallback[0]  # a constant fit at 0.5 is targeted: logistic
        assert beta[0] == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(
            fluctuated(fits, 0, 0, gamma0, beta[0], sample.x[:3]), 0.5, atol=1e-9)

    def test_constant_zero_branch(self, rng):
        sample = dgp_draw(DgpSpec("lowdim"), 120, rng.child("d"))
        folds = make_folds(120, 2, rng.child("f"))
        grid = ThresholdGrid((0.0,))
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        beta, fallback = fluctuations_at(sample, folds, fits)
        assert fits.constant_mask(0)[0]
        assert not fallback[0] and beta[0] == 0.0
        np.testing.assert_array_equal(fits.cond_error(0, sample.x), 0.0)

    def test_one_sided_labels_push_beta_up(self):
        # Z identically 1 on in-fold source units with a non-constant E:
        # targeting must increase the fit, so beta > 0.
        sample = make_sample(a=[1, 1, 0, 1, 0, 0],
                             x=[[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]],
                             score=[0.1, 0.2, None, 0.5, None, None])
        folds = FoldPlan(V=2, assignment=np.array([0, 0, 0, 1, 1, 1]))
        e_map = LookupPredictor({1.0: 0.3, 2.0: 0.6}, default=0.4)
        fits = NuisanceFits(taus=(0.5,),
                            g_predictors=(ConstantPredictor(0.5),) * 2,
                            e_predictors=((e_map,),) * 2, delta=0.0)
        beta, fallback = fluctuations_at(sample, folds, fits)
        assert not fallback[0]
        assert beta[0] > 0
        assert score_residual(sample, folds, fits, 0, 0, beta[0]) <= 1e-6

    def test_extreme_offsets_trigger_least_squares(self):
        # A non-constant fit that emits exact 0/1 values on in-fold source
        # units cannot be targeted on the logit scale.
        sample = make_sample(a=[1, 1, 0, 1, 0, 0],
                             x=[[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]],
                             score=[0.7, 0.3, None, 0.5, None, None])
        folds = FoldPlan(V=2, assignment=np.array([0, 0, 0, 1, 1, 1]))
        e_map = LookupPredictor({1.0: 0.0, 2.0: 0.5}, default=0.5)
        fits = NuisanceFits(taus=(0.5,),
                            g_predictors=(ConstantPredictor(0.5),) * 2,
                            e_predictors=((e_map,),) * 2, delta=0.0)
        beta, fallback = fluctuations_at(sample, folds, fits)
        assert fallback[0]
        # no-intercept least squares of (Z - E) on W, W = (1, 1) here
        z = np.array([0.0, 1.0])
        e = np.array([0.0, 0.5])
        gamma = 2 / 3
        w = np.full(2, odds_weight(0.5, gamma))
        beta_manual = np.sum(w * (z - e)) / np.sum(w * w)
        assert beta[0] == pytest.approx(beta_manual)
        # the unit at x = 1.0 leads fold 0
        ctx = FoldEngine(sample, folds, fits).contexts[0]
        raw = _fluctuate(ctx.E, ctx.w, beta[:1], np.array(["least-squares"]))[0, 0]
        assert raw == pytest.approx(0.0 + beta_manual * w[0])


class TestTmleEstimate:
    def test_score_equation_on_random_data(self, rng):
        spec = DgpSpec("lowdim")
        grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
        for rep in range(5):
            sample = dgp_draw(spec, 300, rng.child("d", rep))
            folds = make_folds(300, 2, rng.child("f", rep))
            fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                                 BinaryLearnerSpec(), 0.01)
            engine = FoldEngine(sample, folds, fits)
            table = tmle_estimate(engine, TARGETS)
            for v in range(2):
                beta, _ = _fluctuations(engine.contexts[v])
                for ti in range(len(grid)):
                    if table.extras["fallback"][v, ti] or fits.constant_mask(v)[ti]:
                        continue
                    assert score_residual(sample, folds, fits, v, ti, beta[ti]) <= 1e-6

    def test_point_estimates_stay_in_unit_interval(self, rng):
        spec = DgpSpec("highdim-sparse")
        grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
        sample = dgp_draw(spec, 400, rng.child("d"))
        folds = make_folds(400, 2, rng.child("f"))
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        engine = FoldEngine(sample, folds, fits)
        table = tmle_estimate(engine, TARGETS)
        assert np.all(table.psi >= 0.0) and np.all(table.psi <= 1.0)
        for ctx in engine.contexts:
            psi_v, _ = _fold_tmle(ctx, *_fluctuations(ctx))
            assert np.all(psi_v >= 0.0) and np.all(psi_v <= 1.0)

    def test_constant_zero_gives_zero_estimate_and_sigma(self, rng):
        sample = dgp_draw(DgpSpec("lowdim"), 150, rng.child("d"))
        folds = make_folds(150, 2, rng.child("f"))
        grid = ThresholdGrid((0.0,))
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        table = tmle_estimate(FoldEngine(sample, folds, fits), TARGETS)
        assert table.psi[0] == 0.0 and table.se[0] == 0.0

    def test_identity_targeting_matches_plugin(self):
        # beta == 0 in every fold: the targeted table equals the plug-in one.
        sample = make_sample(a=[1, 1, 0, 0, 1, 1, 0, 0],
                             x=[[float(i)] for i in range(1, 9)],
                             score=[0.7, 0.3, None, None, 0.7, 0.3, None, None])
        folds = FoldPlan(V=2, assignment=np.array([0, 0, 0, 0, 1, 1, 1, 1]))
        fits = NuisanceFits(taus=(0.5,),
                            g_predictors=(ConstantPredictor(0.5),) * 2,
                            e_predictors=((ConstantPredictor(0.5),),) * 2,
                            delta=0.0)
        engine = FoldEngine(sample, folds, fits)
        t_tmle = tmle_estimate(engine, TARGETS)
        t_plug = plugin_estimate(engine, TARGETS)
        betas = [_fluctuations(ctx)[0] for ctx in engine.contexts]
        np.testing.assert_allclose(betas, 0.0, atol=1e-9)
        np.testing.assert_allclose(t_tmle.psi, t_plug.psi, atol=1e-9)

    def test_noshift_oracle_recovers_level(self):
        rng = RngStream(1618)
        spec = DgpSpec("lowdim-noshift")
        tau0 = OracleEvaluator(spec, 400_000, rng.child("tau0")).tau0(0.05)
        grid = ThresholdGrid((tau0,))
        fits = oracle_nuisances(spec, grid)
        sample = dgp_draw(spec, 10_000, rng.child("d"))
        folds = make_folds(10_000, 2, rng.child("f"))
        table = tmle_estimate(FoldEngine(sample, folds, fits), TARGETS)
        assert abs(table.psi[0] - 0.05) <= 3 * table.se[0]

    def test_close_to_onestep_on_real_fits(self, rng):
        # Both remove the same first-order bias; with sane nuisances the two
        # tables should agree closely at interior thresholds.
        sample = dgp_draw(DgpSpec("lowdim"), 2000, rng.child("d"))
        folds = make_folds(2000, 2, rng.child("f"))
        grid = ThresholdGrid((0.15,))
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        engine = FoldEngine(sample, folds, fits)
        t1 = onestep_estimate(engine, TARGETS)
        t2 = tmle_estimate(engine, TARGETS)
        assert abs(t1.psi[0] - t2.psi[0]) < 0.02


# ---------------------------------------------------------------------------
# Scalar references: one fold and one threshold index at a time
# ---------------------------------------------------------------------------

def reference_newton_logistic(offset, w, z):
    """Solve sum w * (z - expit(offset + beta * w)) = 0 for one beta:
    (beta, converged)."""
    beta = 0.0
    n = w.shape[0]
    for _ in range(100):
        mu = expit(offset + beta * w)
        score = float(np.sum(w * (z - mu))) / n
        if not np.isfinite(score):
            return beta, False
        if abs(score) <= 1e-10:
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
    return beta, bool(np.isfinite(score) and abs(score) <= 1e-10)


def reference_target(ctx, ti):
    """(beta, mode) of the fluctuation at threshold index ``ti``."""
    e_vals = ctx.E[ti]
    if ctx.constant[ti] and float(e_vals[0]) in (0.0, 1.0):
        return 0.0, "constant"
    e_src, w_src, z_src = e_vals[ctx.src], ctx.w[ctx.src], ctx.Z[ti][ctx.src]
    use_fallback = bool(np.any((e_src <= 0.0) | (e_src >= 1.0)))
    beta = 0.0
    if not use_fallback:
        offset = logit(np.clip(e_src, 1e-6, 1.0 - 1e-6))
        beta, converged = reference_newton_logistic(offset, w_src, z_src)
        use_fallback = not converged
    if use_fallback:
        denom = float(np.sum(w_src * w_src))
        beta = float(np.sum(w_src * (z_src - e_src)) / denom) if denom > 0 else 0.0
    return beta, "least-squares" if use_fallback else "logistic"


def reference_fold_tmle(ctx, ti):
    """(psi_v, sigma2_v) at threshold index ``ti``."""
    beta, mode = reference_target(ctx, ti)
    e_vals, z = ctx.E[ti], ctx.Z[ti]
    if mode == "constant":
        raw = e_vals
    elif mode == "logistic":
        raw = expit(logit(np.clip(e_vals, 1e-6, 1.0 - 1e-6)) + beta * ctx.w)
    else:
        raw = e_vals + beta * ctx.w
    psi_v = float(np.clip(raw, 0.0, 1.0)[~ctx.src].mean())
    d = np.where(ctx.src, ctx.w * (z - raw) / ctx.gamma,
                 (raw - psi_v) / (1.0 - ctx.gamma))
    return psi_v, float(np.mean(d * d))


def assert_fold_matches_reference(ctx):
    """Fluctuations and fold values equal the scalar references bit for
    bit, with no warning the references do not give."""
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        beta, mode = _fluctuations(ctx)
        got = _fold_tmle(ctx, beta, mode)
    with warnings.catch_warnings(record=True) as ref_warnings:
        warnings.simplefilter("always")
        ref = [reference_target(ctx, ti) for ti in range(len(ctx.taus))]
        want = np.array([reference_fold_tmle(ctx, ti)
                         for ti in range(len(ctx.taus))]).T
    assert ({str(w.message) for w in got_warnings}
            <= {str(w.message) for w in ref_warnings})
    assert beta.tobytes() == np.array([b for b, _ in ref]).tobytes()
    assert mode.tolist() == [m for _, m in ref]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    return mode


def mixed_mode_fold():
    """Fold 0 has four source units, scores 0.15, 0.25, 0.35 and 0.45, and
    two target units; each threshold's fit takes a different path."""
    sample = make_sample(
        a=[1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0],
        x=[[float(i)] for i in range(1, 13)],
        score=[0.15, 0.25, 0.35, 0.45, None, None, 0.2, 0.4, 0.55, None, None, None])
    folds = FoldPlan(V=2, assignment=np.array([0] * 6 + [1] * 6))
    taus = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    e_row = (
        ConstantPredictor(0.0),                           # constant
        ConstantPredictor(1.0),                           # constant
        LookupPredictor({1.0: 0.0}, default=0.4),         # E at 0: least squares
        LookupPredictor({}, default=1e-6),                # Newton fails
        LookupPredictor({1.0: 0.3, 2.0: 0.6}, default=0.45),  # logistic
        ConstantPredictor(0.35),                          # constant, not 0/1
    )
    g = LookupPredictor({1.0: 0.2, 2.0: 0.7, 3.0: 0.5}, default=0.4)
    fits = NuisanceFits(taus=taus, g_predictors=(g, g),
                        e_predictors=(e_row, e_row), delta=0.0)
    return sample, folds, fits


class TestVectorizedTargetingMatchesScalarReference:
    @pytest.mark.parametrize("case", LEARNED_ENGINES, ids=str)
    def test_learned_fits(self, case):
        for ctx in learned_engine(*case).contexts:
            assert_fold_matches_reference(ctx)

    def test_every_mode_in_one_fold(self):
        sample, folds, fits = mixed_mode_fold()
        ctx = FoldEngine(sample, folds, fits).contexts[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mode = assert_fold_matches_reference(ctx)
        assert mode.tolist() == ["constant", "constant", "least-squares",
                                 "least-squares", "logistic", "logistic"]
        # The fourth threshold's labels are mixed, yet its fit sits at 1e-6:
        # the first step saturates every unit, and the curvature vanishes.
        e_src = ctx.E[3][ctx.src]
        _, converged = _newton_logistic(logit(e_src)[None], ctx.w[ctx.src],
                                        ctx.Z[3][ctx.src][None])
        assert not converged[0]

    def test_newton_rows_solve_independently(self):
        # Converged, saturating and max_iter rows, stacked: each row's
        # result is that of its own scalar solve.
        w = np.array([0.01, 0.01, 100.0])
        e = np.array([[0.99, 0.01, 0.99], [0.3, 0.5, 0.6], [1e-6, 1e-6, 1e-6],
                      [0.2, 0.2, 0.2]])
        z = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                      [1.0, 1.0, 1.0]])
        offset = logit(np.clip(e, 1e-6, 1.0 - 1e-6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, converged = _newton_logistic(offset, w, z)
        want = [reference_newton_logistic(o, w, zr) for o, zr in zip(offset, z)]
        assert beta.tobytes() == np.array([b for b, _ in want]).tobytes()
        assert converged.tolist() == [c for _, c in want]
        assert converged.tolist() == [False, True, False, True]

    def test_overflowing_step_stops_quietly(self):
        # score / hess overflows to inf at the first step: the row stops
        # unconverged and, as in float arithmetic, without a warning.
        offset = np.array([[-800.0, -689.0]])
        w = np.array([4e9, 1.0])
        z = np.array([[1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, converged = _newton_logistic(offset, w, z)
            want = reference_newton_logistic(offset[0], w, z[0])
        assert (beta[0], converged[0]) == want == (0.0, False)
