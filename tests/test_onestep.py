from types import SimpleNamespace

import numpy as np
import pytest

from shiftset import (
    BinaryLearnerSpec,
    ConfigurationError,
    CoverageTable,
    DegenerateFoldError,
    DgpSpec,
    DomainError,
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
    odds_weight,
    onestep_estimate,
    oracle_nuisances,
    plugin_estimate,
    select_threshold,
    weighted_plugin_estimate,
)
from shiftset.learners import ConstantPredictor
from shiftset.onestep import (
    _fold_onestep,
    _fold_plugin,
    _fold_wplugin,
    _run_folds,
)
from tests.conftest import LEARNED_ENGINES, LookupPredictor, learned_engine, make_sample

TARGETS = RiskTargets(0.05, 0.05)


def four_unit_fixture(tau=0.5):
    """The hand-checked fold 0: two source units with weights 2 and 0.5 and
    labels 1 and 0, two target units with conditional errors 0.2 and 0.4.

    Fold 1 holds four filler units so the plan stays balanced.
    """
    sample = make_sample(
        a=[1, 1, 0, 0, 1, 1, 0, 0],
        x=[[1.0], [2.0], [3.0], [4.0], [5.0], [6.0], [7.0], [8.0]],
        score=[0.3, 0.7, None, None, 0.9, 0.2, None, None],
    )
    folds = FoldPlan(V=2, assignment=np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    e_map = LookupPredictor({1.0: 0.5, 2.0: 0.5, 3.0: 0.2, 4.0: 0.4})
    g_map = LookupPredictor({1.0: 1 / 3, 2.0: 2 / 3})
    fits = NuisanceFits(taus=(tau,), g_predictors=(g_map, g_map),
                        e_predictors=((e_map,), (e_map,)), delta=0.0)
    return sample, folds, fits


def gradient_eval(a, x, score, tau, e_hat, g_hat, gamma_hat, psi_plugin):
    """Reference influence-term value for one unit, one unit at a time.

    For target units the source summand vanishes and the (absent) score is
    never read.
    """
    if not (0.0 < gamma_hat < 1.0):
        raise DomainError("gamma_hat must lie strictly inside (0, 1)")
    x = np.asarray(x, dtype=float).reshape(1, -1)
    e_val = float(np.clip(e_hat.predict(x)[0], 0.0, 1.0))
    if a == 0:
        return (e_val - psi_plugin) / (1.0 - gamma_hat)
    w = odds_weight(float(g_hat.predict(x)[0]), gamma_hat)
    return (w / gamma_hat) * (float(score < tau) - e_val)


def onestep_fold(sample, folds, v, fits):
    """One fold's corrected estimate, plug-in estimate and gamma at the
    fits' single threshold, read off the fold functions."""
    ctx = FoldEngine(sample, folds, fits).contexts[v]
    return _fold_onestep(ctx)[0][0], _fold_plugin(ctx)[0][0], ctx.gamma


def pooled(engine, fold_fn):
    """(psi, sigma) pooled from fold_fn's per-fold values with |fold|
    weights, folds summed in order."""
    psi, sigma2 = np.zeros(len(engine.taus)), np.zeros(len(engine.taus))
    for ctx, size in zip(engine.contexts, engine.fold_sizes):
        psi_v, sigma2_v = fold_fn(ctx)
        psi += size / engine.n * psi_v
        sigma2 += size / engine.n * sigma2_v
    return psi, np.sqrt(sigma2)


class TestGradientEval:
    def test_target_unit_centered(self):
        e = ConstantPredictor(0.3)
        g = ConstantPredictor(0.5)
        assert gradient_eval(0, [1.0], None, 0.2, e, g, 0.5, 0.3) == 0.0

    def test_source_unit_centered(self):
        e = ConstantPredictor(1.0)  # matches Z at tau=0.5
        g = ConstantPredictor(0.5)
        assert gradient_eval(1, [1.0], 0.1, 0.5, e, g, 0.5, 0.9) == 0.0

    def test_source_unit_value(self):
        # gamma 0.5, g = 1/3 so W = 2, Z = 1, E = 0.5 -> 2 * 2 * 0.5 = 2.0
        e = ConstantPredictor(0.5)
        g = ConstantPredictor(1 / 3)
        assert gradient_eval(1, [1.0], 0.1, 0.5, e, g, 0.5, 0.0) == pytest.approx(2.0)

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            gradient_eval(1, [1.0], 0.1, 0.5, ConstantPredictor(0.5),
                          ConstantPredictor(0.5), 1.0, 0.0)

    def test_vectorized_folds_match_unit_by_unit_reference(self, rng):
        # Every fold's plug-in value and one-step estimate, and the pooled
        # estimate and variance, equal those built from unit-by-unit
        # influence terms.
        sample = dgp_draw(DgpSpec("lowdim"), 120, rng.child("d"))
        folds = make_folds(120, 2, rng.child("f"))
        grid = ThresholdGrid.from_range(0.0, 0.3, 0.1)
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        engine = FoldEngine(sample, folds, fits)
        table = onestep_estimate(engine, TARGETS)
        fold_psi = [_fold_onestep(ctx)[0] for ctx in engine.contexts]
        fold_plugin = [_fold_plugin(ctx)[0] for ctx in engine.contexts]
        for ti, tau in enumerate(grid):
            pooled_psi = pooled_var = 0.0
            for v in range(2):
                idx = folds.indices(v)
                gamma = float(np.mean(sample.a[idx] == 1))
                e_hat = fits.e_predictors[v][ti]
                g_hat = SimpleNamespace(predict=lambda X, v=v: fits.propensity(v, X))
                plugin = np.mean([e_hat.predict(sample.x[i:i + 1])[0]
                                  for i in idx if sample.a[i] == 0])
                terms = [gradient_eval(sample.a[i], sample.x[i], sample.score[i],
                                       tau, e_hat, g_hat, gamma, plugin)
                         for i in idx]
                src_sum = sum(t for i, t in zip(idx, terms) if sample.a[i] == 1)
                psi_v = plugin + src_sum / idx.size
                assert fold_plugin[v][ti] == pytest.approx(plugin, abs=1e-12)
                assert fold_psi[v][ti] == pytest.approx(psi_v, abs=1e-12)
                pooled_psi += idx.size / sample.n * psi_v
                pooled_var += idx.size / sample.n * np.mean(np.square(terms))
            assert table.psi[ti] == pytest.approx(pooled_psi, abs=1e-12)
            assert ((table.se[ti] * np.sqrt(sample.n)) ** 2
                    == pytest.approx(pooled_var, rel=1e-12, abs=1e-15))


class TestOnestepFold:
    def test_hand_example(self):
        sample, folds, fits = four_unit_fixture()
        psi, plugin, gamma = onestep_fold(sample, folds, 0, fits)
        assert gamma == 0.5
        assert plugin == pytest.approx(0.3)
        assert psi == pytest.approx(0.675)

    def test_zero_correction_when_labels_match_fit(self, rng):
        # tau below every score with a constant-zero fit: psi == plugin == 0
        sample = dgp_draw(DgpSpec("lowdim"), 100, rng.child("d"))
        folds = make_folds(100, 2, rng.child("f"))
        grid = ThresholdGrid((0.0,))
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        psi, plugin, _ = onestep_fold(sample, folds, 0, fits)
        assert psi == 0.0 and plugin == 0.0

    def test_degenerate_fold(self):
        sample = make_sample([1, 1, 1, 0], [[1.0], [2.0], [3.0], [4.0]],
                             [0.1, 0.2, 0.3, None])
        folds = FoldPlan(V=2, assignment=np.array([0, 0, 1, 1]))
        fits = NuisanceFits(taus=(0.5,),
                            g_predictors=(ConstantPredictor(0.5),) * 2,
                            e_predictors=((ConstantPredictor(0.2),),) * 2,
                            delta=0.0)
        with pytest.raises(DegenerateFoldError):
            onestep_fold(sample, folds, 0, fits)  # fold 0 has no targets


class TestOnestepEstimate:
    def test_fold_weighted_mean_invariant(self, rng):
        sample = dgp_draw(DgpSpec("lowdim"), 301, rng.child("d"))
        folds = make_folds(301, 2, rng.child("f"))
        grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        engine = FoldEngine(sample, folds, fits)
        table = onestep_estimate(engine, TARGETS)
        psi, sigma = pooled(engine, _fold_onestep)
        np.testing.assert_allclose(table.psi, psi, rtol=0, atol=1e-15)
        np.testing.assert_allclose(table.se * np.sqrt(engine.n), sigma,
                                   rtol=1e-14, atol=1e-15)
        assert np.all(table.cub >= table.psi)

    def test_zero_variance_at_extreme_threshold(self, rng):
        sample = dgp_draw(DgpSpec("lowdim"), 200, rng.child("d"))
        folds = make_folds(200, 2, rng.child("f"))
        grid = ThresholdGrid((0.0,))
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        table = onestep_estimate(FoldEngine(sample, folds, fits), TARGETS)
        assert table.psi[0] == 0.0
        assert table.se[0] == 0.0
        assert table.cub[0] == 0.0

    def test_alpha_conf_above_half_rejected(self, rng):
        sample = dgp_draw(DgpSpec("lowdim"), 100, rng.child("d"))
        folds = make_folds(100, 2, rng.child("f"))
        grid = ThresholdGrid((0.1,))
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        with pytest.raises(ConfigurationError):
            onestep_estimate(FoldEngine(sample, folds, fits),
                             RiskTargets(0.05, 0.6))

    def test_noshift_oracle_recovers_level(self):
        # At the true 0.05-quantile threshold the coverage error is 0.05.
        rng = RngStream(2718)
        spec = DgpSpec("lowdim-noshift")
        tau0 = OracleEvaluator(spec, 400_000, rng.child("tau0")).tau0(0.05)
        grid = ThresholdGrid((tau0,))
        fits = oracle_nuisances(spec, grid)
        sample = dgp_draw(spec, 10_000, rng.child("d"))
        folds = make_folds(10_000, 2, rng.child("f"))
        table = onestep_estimate(FoldEngine(sample, folds, fits), TARGETS)
        halfwidth = 3 * table.se[0]
        assert abs(table.psi[0] - 0.05) <= halfwidth


class TestBaselines:
    def test_plugin_drops_correction(self):
        sample, folds, fits = four_unit_fixture()
        engine = FoldEngine(sample, folds, fits)
        assert _fold_plugin(engine.contexts[0])[0][0] == pytest.approx(0.3)
        table = plugin_estimate(engine, TARGETS)
        assert table.psi[0] == pytest.approx(pooled(engine, _fold_plugin)[0][0])

    def test_plugin_sigma_matches_onestep(self):
        sample, folds, fits = four_unit_fixture()
        engine = FoldEngine(sample, folds, fits)
        t_plug = plugin_estimate(engine, TARGETS)
        t_one = onestep_estimate(engine, TARGETS)
        np.testing.assert_allclose(t_plug.se, t_one.se)

    def test_weighted_plugin_hand_example(self):
        sample, folds, fits = four_unit_fixture()
        engine = FoldEngine(sample, folds, fits)
        # (2*1 + 0.5*0) / 2 = 1.0; unnormalized weights may exceed 1
        assert _fold_wplugin(engine.contexts[0])[0][0] == pytest.approx(1.0)
        table = weighted_plugin_estimate(engine, TARGETS)
        assert table.psi[0] == pytest.approx(pooled(engine, _fold_wplugin)[0][0])

    def test_weighted_plugin_reduces_to_source_mean_with_unit_weights(self):
        # Balanced fold (gamma 1/2) and g == 1/2 give W == 1, so the fold
        # value is the plain source mean of the miscoverage labels.
        sample = make_sample(a=[1, 1, 0, 0],
                             x=[[1.0], [2.0], [3.0], [4.0]],
                             score=[0.3, 0.7, None, None])
        folds = FoldPlan(V=2, assignment=np.array([0, 1, 0, 1]))
        fits = NuisanceFits(taus=(0.5,),
                            g_predictors=(ConstantPredictor(0.5),) * 2,
                            e_predictors=((ConstantPredictor(0.2),),) * 2,
                            delta=0.0)
        engine = FoldEngine(sample, folds, fits)
        assert _fold_wplugin(engine.contexts[0])[0][0] == pytest.approx(1.0)  # Z = 1
        assert _fold_wplugin(engine.contexts[1])[0][0] == pytest.approx(0.0)  # Z = 0
        table = weighted_plugin_estimate(engine, TARGETS)
        assert table.psi[0] == pytest.approx(0.5)  # two folds of two units


class TestSelectThreshold:
    def _table(self, taus, cubs):
        taus = np.asarray(taus, dtype=float)
        cubs = np.asarray(cubs, dtype=float)
        return CoverageTable(taus=taus, psi=cubs - 0.01,
                             se=np.zeros_like(cubs) + 0.001, cub=cubs)

    @pytest.mark.parametrize("taus", [[0.1, 0.05], [0.05, 0.05]])
    def test_thresholds_must_increase(self, taus):
        # Out of order, the array-order prefix would not be the tau-order one.
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            self._table(taus, [0.01, 0.02])

    def test_prefix_rule_blocks_later_dips(self):
        table = self._table([0.05, 0.10, 0.15, 0.20, 0.25],
                            [0.01, 0.02, 0.03, 0.06, 0.04])
        dec = select_threshold(table, TARGETS)
        assert dec.tau_hat == 0.15 and not dec.is_sentinel

    def test_sentinel_when_nothing_feasible(self):
        table = self._table([0.05, 0.10], [0.9, 0.9])
        dec = select_threshold(table, TARGETS)
        assert dec.is_sentinel and dec.tau_hat == 0.0

    def test_full_grid_feasible(self):
        table = self._table([0.05, 0.10, 0.25], [0.01, 0.02, 0.03])
        dec = select_threshold(table, TARGETS)
        assert dec.tau_hat == 0.25

    def test_strict_inequality_at_level(self):
        table = self._table([0.05], [0.05])  # equal, not below
        dec = select_threshold(table, TARGETS)
        assert dec.is_sentinel


# ---------------------------------------------------------------------------
# Scalar references: one fold and one threshold index at a time
# ---------------------------------------------------------------------------

def reference_fold_plugin(ctx, ti):
    """(psi_v, sigma2_v) at threshold index ``ti``."""
    e_vals, z = ctx.E[ti], ctx.Z[ti]
    plugin = float(e_vals[~ctx.src].mean())
    d = np.where(ctx.src, ctx.w * (z - e_vals) / ctx.gamma,
                 (e_vals - plugin) / (1.0 - ctx.gamma))
    return plugin, float(np.mean(d * d))


def reference_fold_onestep(ctx, ti):
    plugin, s2 = reference_fold_plugin(ctx, ti)
    src_term = np.where(ctx.src, ctx.w, 0.0) * (ctx.Z[ti] - ctx.E[ti]) / ctx.gamma
    return plugin + float(src_term.mean()), s2


def reference_fold_wplugin(ctx, ti):
    e_vals, z = ctx.E[ti], ctx.Z[ti]
    psi = float((ctx.w[ctx.src] * z[ctx.src]).mean())
    d = np.where(ctx.src, ctx.w * (z - e_vals) / ctx.gamma,
                 (e_vals - psi) / (1.0 - ctx.gamma))
    return psi, float(np.mean(d * d))


def assert_same_fold_values(got, ctx, reference):
    """Each of the functional's arrays equals the reference bit for bit."""
    want = np.array([reference(ctx, ti) for ti in range(len(ctx.taus))]).T
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


FOLD_METHODS = [(_fold_onestep, reference_fold_onestep),
                (_fold_plugin, reference_fold_plugin),
                (_fold_wplugin, reference_fold_wplugin)]


class TestFoldFunctionalsMatchScalarReference:
    @pytest.mark.parametrize("case", LEARNED_ENGINES, ids=str)
    @pytest.mark.parametrize("method,reference", FOLD_METHODS,
                             ids=["onestep", "plugin", "wplugin"])
    def test_learned_fits(self, case, method, reference):
        for ctx in learned_engine(*case).contexts:
            assert_same_fold_values(method(ctx), ctx, reference)

    @pytest.mark.parametrize("method,reference", FOLD_METHODS,
                             ids=["onestep", "plugin", "wplugin"])
    def test_hand_example(self, method, reference):
        sample, folds, fits = four_unit_fixture()
        engine = FoldEngine(sample, folds, fits)
        for ctx in engine.contexts:
            assert_same_fold_values(method(ctx), ctx, reference)

    def test_each_fold_runs_once_for_the_whole_grid(self):
        engine = learned_engine(*LEARNED_ENGINES[1])
        seen = []

        def counted(ctx):
            seen.append(ctx.v)
            return _fold_onestep(ctx)

        table = _run_folds(engine, TARGETS, counted)
        assert seen == [0, 1]
        assert table.psi.shape == (len(engine.taus),)
