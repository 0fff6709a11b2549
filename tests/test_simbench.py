import numpy as np
import pytest

from shiftset import (
    ALL_METHODS,
    METHODS,
    BinaryLearnerSpec,
    ConfigurationError,
    DgpSpec,
    NuisanceFits,
    OracleEvaluator,
    RiskTargets,
    RngStream,
    StudyConfig,
    ThresholdGrid,
    dgp_draw,
    make_folds,
    onestep_estimate,
    oracle_psi,
    oracle_psi_curve,
    oracle_tau0,
    plugin_estimate,
    rs_estimate,
    rs_prepare,
    run_study,
    tmle_estimate,
    weighted_plugin_estimate,
    wilson_interval,
)
from shiftset.simbench import Dataset

TARGETS = RiskTargets(0.05, 0.05)
GRID = ThresholdGrid.from_range(0.0, 0.3, 0.05)


class TestDgpDraw:
    def test_highdim_label_probs_at_origin(self):
        spec = DgpSpec("highdim-sparse")
        p = spec.label_probs(np.zeros((1, 20)))[0]
        np.testing.assert_allclose(p, [0.1175, 0.8681, 0.0144], atol=5e-5)

    def test_highdim_scores_at_origin(self):
        # normalized (1, e^0.02, e^-0.03), recomputed independently
        spec = DgpSpec("highdim-sparse")
        s = spec.score_table(np.zeros((1, 20)))[0]
        np.testing.assert_allclose(s, [0.33437582, 0.34113066, 0.32449352],
                                   atol=1e-8)
        assert s.sum() == pytest.approx(1.0)

    def test_scores_sum_to_one(self, rng):
        for kind in ("highdim-sparse", "lowdim", "lowdim-noshift"):
            spec = DgpSpec(kind)
            sample = dgp_draw(spec, 200, rng.child(kind))
            np.testing.assert_allclose(spec.score_table(sample.x).sum(axis=1),
                                       1.0)

    def test_draw_shape_and_masking(self, rng):
        spec = DgpSpec("highdim-sparse")
        sample = dgp_draw(spec, 500, rng.child("d"))
        assert sample.p == 20
        assert np.isnan(sample.score[~sample.is_source]).all()
        assert np.isfinite(sample.score[sample.is_source]).all()
        # scores are probabilities of the drawn label
        assert sample.score[sample.is_source].min() > 0.0
        assert sample.score[sample.is_source].max() < 1.0

    def test_noshift_populations_match(self, rng):
        spec = DgpSpec("lowdim-noshift")
        sample = dgp_draw(spec, 40_000, rng.child("d"))
        cov_src = np.cov(sample.x[sample.is_source].T)
        cov_tgt = np.cov(sample.x[~sample.is_source].T)
        assert np.abs(cov_src - cov_tgt).max() < 0.05

    def test_lowdim_target_covariance_is_halved(self, rng):
        spec = DgpSpec("lowdim")
        sample = dgp_draw(spec, 40_000, rng.child("d"))
        var_src = sample.x[sample.is_source].var(axis=0)
        var_tgt = sample.x[~sample.is_source].var(axis=0)
        np.testing.assert_allclose(var_tgt / var_src, 0.5, atol=0.05)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            DgpSpec("mediumdim")


class TestOracles:
    def test_psi_bounds(self, rng):
        spec = DgpSpec("lowdim")
        assert oracle_psi(spec, -1.0, 2000, rng.child("a")) == 0.0
        assert oracle_psi(spec, 1.5, 2000, rng.child("b")) == 1.0

    def test_curve_monotone(self, rng):
        for kind in ("highdim-sparse", "lowdim", "lowdim-noshift"):
            curve = oracle_psi_curve(DgpSpec(kind), list(GRID), 20_000,
                                     rng.child(kind))
            assert np.all(np.diff(curve) >= 0)

    def test_tau0_extremes(self, rng):
        spec = DgpSpec("lowdim")
        lo = oracle_tau0(spec, 0.0, 5000, rng.child("q0"))
        hi = oracle_tau0(spec, 1.0, 5000, RngStream(1).child("q0"))
        mid = oracle_tau0(spec, 0.05, 5000, rng.child("q1"))
        assert lo < mid < hi

    def test_tau0_seed_stability(self):
        # two seeds at M=100000 should agree within 3 order-statistic SEs
        spec = DgpSpec("lowdim")
        M, alpha, h = 100_000, 0.05, 0.01
        t1 = oracle_tau0(spec, alpha, M, RngStream(1).child("t"))
        t2 = oracle_tau0(spec, alpha, M, RngStream(2).child("t"))
        qlo = oracle_tau0(spec, alpha - h, M, RngStream(3).child("t"))
        qhi = oracle_tau0(spec, alpha + h, M, RngStream(3).child("t"))
        dens = 2 * h / max(qhi - qlo, 1e-12)
        se = np.sqrt(alpha * (1 - alpha) / M) / dens
        assert abs(t1 - t2) < 3 * np.sqrt(2) * se

    def test_tau0_consistent_with_curve(self):
        spec = DgpSpec("lowdim")
        tau0 = oracle_tau0(spec, 0.05, 200_000, RngStream(5).child("t"))
        psi = oracle_psi(spec, tau0, 200_000, RngStream(6).child("p"))
        assert psi == pytest.approx(0.05, abs=0.005)

    def test_source_optimal_threshold_exceeds_target(self):
        # the shift concentrates target covariates where scores run lower
        spec = DgpSpec("highdim-sparse")
        gen = RngStream(7).child("swap").generator()
        qs = {}
        for a in (0, 1):
            X = spec.draw_x(200_000, np.full(200_000, a), gen)
            probs = spec.label_probs(X)
            u = gen.uniform(size=200_000)
            y = (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
            qs[a] = np.quantile(spec.score_table(X)[np.arange(200_000), y], 0.05)
        assert qs[1] > qs[0]

    @pytest.mark.parametrize("M", [0, -5])
    def test_evaluator_needs_a_draw(self, M):
        with pytest.raises(ConfigurationError):
            OracleEvaluator(DgpSpec("lowdim"), M, RngStream(8).child("ev"))

    def test_evaluator_matches_curve(self):
        spec = DgpSpec("lowdim")
        ev = OracleEvaluator(spec, 50_000, RngStream(8).child("ev"))
        curve = oracle_psi_curve(spec, list(GRID), 50_000, RngStream(8).child("ev"))
        for tau, psi in zip(GRID, curve):
            assert ev.psi_at(tau) == pytest.approx(psi, abs=1e-12)
        cut = np.full(ev.M, 0.15)
        assert ev.psi_of_cutoffs(cut) == pytest.approx(ev.psi_at(0.15), abs=1e-12)

    @staticmethod
    def spy_argsort(monkeypatch):
        kinds, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda a, **kw: kinds.append(kw.get("kind")) or argsort(a, **kw))
        return kinds

    def test_untied_scores_take_the_fast_sort(self, monkeypatch):
        kinds = self.spy_argsort(monkeypatch)
        OracleEvaluator(DgpSpec("lowdim"), 20_000, RngStream(8).child("ev"))
        assert kinds == [None]

    def test_tied_scores_sort_stably(self, monkeypatch):
        table = DgpSpec.score_table
        monkeypatch.setattr(DgpSpec, "score_table", lambda self, X: np.round(table(self, X), 2))
        kinds = self.spy_argsort(monkeypatch)
        ev = OracleEvaluator(DgpSpec("lowdim"), 20_000, RngStream(8).child("ev"))
        assert kinds == [None, "stable"]
        monkeypatch.undo()
        flat = ev.scores.reshape(-1)
        order = np.argsort(flat, kind="stable")
        assert not np.array_equal(np.argsort(flat), order)  # the tie order matters
        sorted_scores = flat[order]
        cum = np.cumsum(ev.probs.reshape(-1)[order]) / ev.M
        assert ev._sorted_scores.tobytes() == sorted_scores.tobytes()
        assert ev._cum_weights.tobytes() == cum.tobytes()
        for tau in np.unique(flat)[::7]:
            idx = int(np.searchsorted(sorted_scores, tau, side="left"))
            assert ev.psi_at(tau) == (float(cum[idx - 1]) if idx else 0.0)

    @pytest.mark.parametrize("M", [3, 10, 50, 20_000])
    def test_psi_of_cutoffs_sums_labels_in_row_order(self, M):
        # Small M: a one-ulp change in one row's sum often survives the mean.
        ev = OracleEvaluator(DgpSpec("highdim-sparse"), M, RngStream(9).child("ev"))
        gen = np.random.default_rng(0)
        draws = [gen.uniform(0.0, 1.0, ev.M) for _ in range(20)]
        for cutoffs in (*draws, ev.scores[:, 1], np.full(ev.M, 0.2)):
            want = np.sum(ev.probs * (ev.scores < cutoffs[:, None]), axis=1).mean()
            assert ev.psi_of_cutoffs(cutoffs) == float(want)


class TestWilson:
    def test_boundaries(self):
        lo, _ = wilson_interval(0, 10)
        _, hi = wilson_interval(10, 10)
        assert lo == 0.0 and hi == 1.0

    def test_reference_value(self):
        lo, hi = wilson_interval(190, 200, 0.95)
        assert lo == pytest.approx(0.9104218518612239, abs=1e-12)
        assert hi == pytest.approx(0.9726173543992360, abs=1e-12)

    def test_against_statsmodels(self):
        sm = pytest.importorskip("statsmodels.stats.proportion")
        for k, n in [(3, 17), (50, 80), (199, 200)]:
            lo, hi = wilson_interval(k, n, 0.95)
            slo, shi = sm.proportion_confint(k, n, alpha=0.05, method="wilson")
            assert lo == pytest.approx(slo, abs=1e-10)
            assert hi == pytest.approx(shi, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(11, 10)


class TestRunStudy:
    def _cfg(self, oracle_m=20_000):
        return StudyConfig(grid=GRID, targets=TARGETS, oracle_m=oracle_m)

    def test_deterministic(self):
        spec = DgpSpec("lowdim")
        a = run_study(spec, [300], ["onestep"], 2, self._cfg(), RngStream(9))
        b = run_study(spec, [300], ["onestep"], 2, self._cfg(), RngStream(9))
        assert a.rows == b.rows
        assert a.aggregates == b.aggregates

    def test_row_count_per_method(self):
        spec = DgpSpec("lowdim")
        rep = run_study(spec, [300], ["onestep"], 3, self._cfg(), RngStream(10))
        assert len(rep.rows) == 3
        rep = run_study(spec, [300], ["onestep", "icp"], 3, self._cfg(),
                        RngStream(10))
        assert len(rep.rows) == 6
        assert {r.method for r in rep.rows} == {"onestep", "icp"}

    def test_all_methods_run(self):
        spec = DgpSpec("lowdim")
        rep = run_study(spec, [400],
                        ["onestep", "tmle", "rs", "plugin", "wplugin", "icp",
                         "wcp"], 2, self._cfg(), RngStream(11))
        assert len(rep.rows) == 14
        for row in rep.rows:
            if not row.failed:
                assert 0.0 <= row.true_error <= 1.0

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            run_study(DgpSpec("lowdim"), [300], ["magic"], 1, self._cfg(),
                      RngStream(12))

    def test_aggregate_consistency(self):
        spec = DgpSpec("lowdim-noshift")
        rep = run_study(spec, [400], ["icp"], 10, self._cfg(), RngStream(13))
        agg = rep.aggregates[0]
        manual = sum(r.covered for r in rep.rows)
        assert agg.covered == manual
        assert agg.proportion == manual / 10
        lo, hi = wilson_interval(manual, 10, 0.95)
        assert (agg.wilson_lo, agg.wilson_hi) == (lo, hi)

    def test_degenerate_fold_fails_only_the_fold_methods(self):
        # At this seed replication 0 puts no target unit in fold 1, while
        # the calibration fold (0) and both rejection-sampling halves hold
        # both populations.
        spec, n, root = DgpSpec("lowdim"), 12, RngStream(204)
        sample = dgp_draw(spec, n, root.child(f"dgp-n{n}", 0))
        folds = make_folds(n, 2, root.child(f"folds-n{n}", 0))
        assert not (sample.a[folds.indices(1)] == 0).any()
        assert (sample.a[folds.indices(0)] == 0).any()

        stumps = BinaryLearnerSpec(kind="boosted-stumps")
        cfg = StudyConfig(grid=GRID, targets=TARGETS, g_spec=stumps,
                          e_spec=stumps, oracle_m=2000)
        rows = {r.method: r for r in
                run_study(spec, [n], ALL_METHODS, 1, cfg, root).rows}
        fold_methods = {"onestep", "tmle", "plugin", "wplugin"}
        assert {m for m, r in rows.items() if r.failed} == fold_methods
        for m in fold_methods:
            assert rows[m].failure == "DegenerateFoldError"
            assert (rows[m].tau_hat, rows[m].true_error, rows[m].info) == (0.0, None, {})
        # The other methods give what they give on their own, which is
        # what they gave before the fold methods shared one engine.
        alone = run_study(spec, [n], ["rs", "icp", "wcp"], 1, cfg, root).rows
        assert [rows[r.method] for r in alone] == list(alone)
        assert (rows["rs"].tau_hat, rows["rs"].true_error, rows["rs"].info) == (
            0.1, 0.03343439237556639, {"n_accepted": 3, "bhat": 1.3})
        assert (rows["icp"].sentinel, rows["icp"].info) == (True, {"k": None})
        assert rows["wcp"].info == {"cutoff_median": 0.0}

    def test_wcp_fails_on_a_calibration_fold_without_target_units(self):
        # At this seed the calibration fold holds only source units, so its
        # empirical gamma is 1 and no odds weight exists.
        spec, n, root = DgpSpec("lowdim"), 12, RngStream(16)
        sample = dgp_draw(spec, n, root.child(f"dgp-n{n}", 0))
        folds = make_folds(n, 2, root.child(f"folds-n{n}", 0))
        assert (sample.a[folds.indices(0)] == 1).all()

        stumps = BinaryLearnerSpec(kind="boosted-stumps")
        cfg = StudyConfig(ThresholdGrid.from_range(0, 0.3, 0.05),
                          RiskTargets(0.05, 0.05), stumps, stumps, oracle_m=2000)
        (row,) = run_study(spec, [n], ["wcp"], 1, cfg, root).rows
        assert row.failed and row.failure == "DegenerateFoldError"

    def test_rows_carry_their_method_tables(self):
        rep = run_study(DgpSpec("lowdim"), [300], ["onestep", "icp"], 1,
                        self._cfg(oracle_m=2000), RngStream(15))
        onestep, icp = rep.rows
        assert onestep.table.psi.shape == (len(GRID),)
        assert icp.table is None
        assert "table" not in repr(onestep)

    def test_fold_methods_share_conditional_error_predictions(self, monkeypatch):
        # One prediction per (fold, threshold) of the cross-fitted fits for
        # all four fold methods together, not one per method; rejection
        # sampling's one-fold fits are read once per threshold.
        calls = []   # (fits, v, tau); holding each fits object keeps its id
        cond_error = NuisanceFits.cond_error

        def counted(fits, v, tau, X):
            calls.append((fits, v, tau))
            return cond_error(fits, v, tau, X)

        monkeypatch.setattr(NuisanceFits, "cond_error", counted)
        rep = run_study(DgpSpec("lowdim"), [300], ALL_METHODS, 1,
                        self._cfg(oracle_m=2000), RngStream(14))
        assert not any(r.failed for r in rep.rows)
        by_fits = {}
        for fits, v, tau in calls:
            by_fits.setdefault(id(fits), (fits, []))[1].append((v, tau))
        assert sorted(len(fits.g_predictors) for fits, _ in by_fits.values()) == [1, 2]
        for fits, pairs in by_fits.values():
            V = len(fits.g_predictors)
            assert sorted(pairs) == [(v, tau) for v in range(V) for tau in GRID]

    def test_repeated_method_rejected(self):
        with pytest.raises(ConfigurationError, match="'onestep' given twice"):
            run_study(DgpSpec("lowdim"), [300], ["onestep", "icp", "onestep"], 1,
                      self._cfg(), RngStream(12))

    def test_repeated_sample_size_rejected(self):
        with pytest.raises(ConfigurationError, match="sample size 300 given twice"):
            run_study(DgpSpec("lowdim"), [300, 400, 300], ["icp"], 1,
                      self._cfg(), RngStream(12))


def assert_same_table(got, want):
    """Every field of two coverage tables, arrays compared byte for byte."""
    for name, value in vars(want).items():
        other = getattr(got, name)
        if name == "extras":
            assert other.keys() == value.keys()
            for key in value:
                assert np.array(other[key]).tobytes() == np.array(value[key]).tobytes()
        elif isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and other.tobytes() == value.tobytes()
        else:
            assert other == value


@pytest.mark.parametrize("learner", ["logistic-ridge", "boosted-stumps"])
def test_registry_matches_public_estimators(learner):
    spec = BinaryLearnerSpec(kind=learner)
    cfg = StudyConfig(grid=ThresholdGrid.from_range(0.0, 0.3, 0.01),
                      targets=TARGETS, g_spec=spec, e_spec=spec)
    root = RngStream(21)
    data = Dataset(dgp_draw(DgpSpec("lowdim"), 400, root.child("d")), cfg,
                   root.child("f"), root.child("n"), root.child("rs"))
    for method, estimate in [("onestep", onestep_estimate),
                             ("tmle", tmle_estimate),
                             ("plugin", plugin_estimate),
                             ("wplugin", weighted_plugin_estimate)]:
        assert_same_table(METHODS[method](data).table,
                          estimate(data.engine, TARGETS))
    run = rs_prepare(data.sample, cfg.rs_config, cfg.grid, spec, spec, data.rs_rng)
    assert_same_table(METHODS["rs"](data).table,
                      rs_estimate(run, data.sample, TARGETS))
