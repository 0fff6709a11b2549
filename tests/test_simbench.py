import dataclasses
import multiprocessing
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import binomtest

from shiftset import (
    DGP_KINDS,
    METHODS,
    BinaryLearnerSpec,
    ConfigurationError,
    DataError,
    DegenerateFoldError,
    DgpSpec,
    NuisanceFits,
    ObservedSample,
    OracleEvaluator,
    ReplicationRow,
    RiskTargets,
    RngStream,
    ShiftsetError,
    StudyConfig,
    ThresholdGrid,
    dgp_draw,
    make_folds,
    onestep_estimate,
    plugin_estimate,
    rs_estimate,
    rs_prepare,
    run_study,
    tmle_estimate,
    weighted_plugin_estimate,
    wilson_interval,
)
from shiftset import crossfit, simbench
from shiftset.simbench import Dataset, MethodResult

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

    def test_softmax_matches_the_row_reductions(self):
        def by_reductions(eta1, eta2):
            raw = np.column_stack([np.zeros_like(eta1), eta1, eta2])
            raw -= raw.max(axis=1, keepdims=True)
            e = np.exp(raw)
            return e / e.sum(axis=1, keepdims=True)

        gen = np.random.default_rng(5)
        edges = np.array([0.0, -0.0, 1.0, -1.0, 700.0, -700.0, 709.0, -745.0, 1e-300])
        cases = [(gen.standard_normal(n) * s, gen.standard_normal(n) * s)
                 for n in (1, 2, 3, 7, 100_001) for s in (0.5, 5.0, 300.0)]
        cases += [(np.repeat(edges, len(edges)), np.tile(edges, len(edges))),
                  (np.round(gen.standard_normal(1000)), np.round(gen.standard_normal(1000)))]
        for eta1, eta2 in cases:
            got = simbench._softmax3(eta1, eta2)
            assert got.shape == (len(eta1), 3) and got.flags.c_contiguous
            assert got.tobytes() == by_reductions(eta1, eta2).tobytes()

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
        ev = OracleEvaluator(DgpSpec("lowdim"), 2000, rng.child("a"))
        assert ev.psi_at(-1.0) == 0.0
        assert ev.psi_at(1.5) == 1.0

    @pytest.mark.parametrize("kind", DGP_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_curve_is_a_probability(self, kind, seed):
        # the rounded cumsum of the weights strays from 1 either way
        ev = OracleEvaluator(DgpSpec(kind), 20_000, RngStream(seed).child("oracle"))
        curve = ev.psi_curve(np.arange(0, 301) * 0.005)
        assert np.all((curve >= 0.0) & (curve <= 1.0))
        assert curve[-1] == 1.0

    def test_curve_monotone(self, rng):
        for kind in ("highdim-sparse", "lowdim", "lowdim-noshift"):
            curve = OracleEvaluator(DgpSpec(kind), 20_000, rng.child(kind)).psi_curve(GRID)
            assert np.all(np.diff(curve) >= 0)

    def test_tau0_extremes(self, rng):
        ev = OracleEvaluator(DgpSpec("lowdim"), 5000, rng.child("q0"))
        assert ev.tau0(0.0) < ev.tau0(0.05) < ev.tau0(1.0)

    def test_tau0_seed_stability(self):
        # Two seeds at M=100000 should agree within 3 standard errors of the
        # sampled-label order statistic, which bounds the Monte-Carlo error
        # of the marginalized weights.
        spec = DgpSpec("lowdim")
        M, alpha, h = 100_000, 0.05, 0.01
        t1 = OracleEvaluator(spec, M, RngStream(1).child("t")).tau0(alpha)
        t2 = OracleEvaluator(spec, M, RngStream(2).child("t")).tau0(alpha)
        ev3 = OracleEvaluator(spec, M, RngStream(3).child("t"))
        qlo, qhi = ev3.tau0(alpha - h), ev3.tau0(alpha + h)
        dens = 2 * h / max(qhi - qlo, 1e-12)
        se = np.sqrt(alpha * (1 - alpha) / M) / dens
        assert abs(t1 - t2) < 3 * np.sqrt(2) * se

    def test_tau0_consistent_with_curve(self):
        spec = DgpSpec("lowdim")
        tau0 = OracleEvaluator(spec, 200_000, RngStream(5).child("t")).tau0(0.05)
        psi = OracleEvaluator(spec, 200_000, RngStream(6).child("p")).psi_at(tau0)
        assert psi == pytest.approx(0.05, abs=0.005)

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.05, 0.2, 0.5])
    def test_tau0_is_where_psi_at_crosses_alpha(self, alpha):
        ev = OracleEvaluator(DgpSpec("highdim-sparse"), 3000, RngStream(4).child("ev"))
        tau0 = ev.tau0(alpha)
        assert ev.psi_at(tau0) <= alpha < ev.psi_at(np.nextafter(tau0, 2.0))
        taus = np.concatenate([ev._sorted_scores, np.random.default_rng(1).uniform(0, 1, 500)])
        for tau in taus:
            assert (ev.psi_at(tau) <= alpha) == (tau <= tau0)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_tau0_needs_a_level_in_the_unit_interval(self, alpha):
        ev = OracleEvaluator(DgpSpec("lowdim"), 10, RngStream(4).child("ev"))
        with pytest.raises(ConfigurationError, match=r"must lie in \[0, 1\]"):
            ev.tau0(alpha)

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
        ev = OracleEvaluator(spec, 50_000, RngStream(8).child("ev"), points=True)
        curve = ev.psi_curve(GRID)
        for tau, psi in zip(GRID, curve):
            # the curve as a sum over every point's labels, one tau at a time
            assert np.sum(ev.probs * (ev.scores < tau)) / ev.M == pytest.approx(psi, abs=1e-12)
            assert ev.psi_at(tau) == psi
        cut = np.full(ev.M, 0.15)
        assert ev.psi_of_cutoffs(cut) == pytest.approx(ev.psi_at(0.15), abs=1e-12)

    @pytest.mark.parametrize("kind", DGP_KINDS)
    @pytest.mark.parametrize("M", [450_001, 400_001])
    def test_chunked_build_matches_one_draw(self, kind, M):
        # Two full chunks and a remainder (of one row at 400,001, which the
        # last chunk takes), against all rows drawn at once.
        spec = DgpSpec(kind)
        X = spec.draw_x(M, np.zeros(M, dtype=int), RngStream(12).child("ev").generator())
        probs, scores = spec.label_probs(X), spec.score_table(X)
        order = np.argsort(scores.reshape(-1), kind="stable")
        sorted_scores = scores.reshape(-1)[order]
        cum = np.cumsum(probs.reshape(-1)[order]) / M
        np.minimum(cum, 1.0, out=cum)
        cum[-1] = 1.0
        ev = OracleEvaluator(spec, M, RngStream(12).child("ev"), points=True)
        assert ev.X.tobytes() == X.tobytes()
        del X
        taus = np.arange(0, 201) * 0.005
        want = [float(cum[i - 1]) if i else 0.0
                for i in np.searchsorted(sorted_scores, taus, side="left")]
        got = [ev.psi_at(tau) for tau in taus]
        assert got == want
        assert ev.psi_curve(taus).tolist() == got
        for cutoffs in np.random.default_rng(3).uniform(0.0, 0.6, (3, M)):
            miss = np.sum(probs * (scores < cutoffs[:, None]), axis=1).mean()
            assert ev.psi_of_cutoffs(cutoffs) == float(miss)

    def test_points_only_on_request(self):
        root = RngStream(8)
        bare = OracleEvaluator(DgpSpec("lowdim"), 3000, root.child("ev"))
        full = OracleEvaluator(DgpSpec("lowdim"), 3000, root.child("ev"), points=True)
        assert bare.X is bare.probs is bare.scores is None
        assert full.X.shape == (3000, 3)
        assert bare._sorted_scores.tobytes() == full._sorted_scores.tobytes()
        assert bare._cum_weights.tobytes() == full._cum_weights.tobytes()
        with pytest.raises(ConfigurationError, match=r"\(wcp\).*points=True"):
            bare.psi_of_cutoffs([0.1])
        data = Dataset(dgp_draw(DgpSpec("lowdim"), 200, root.child("d")),
                       StudyConfig(GRID, TARGETS), root.child("f"), root.child("rs"), bare)
        with pytest.raises(ConfigurationError, match=r"\(wcp\).*points=True"):
            METHODS["wcp"](data)

    @pytest.mark.parametrize("methods, points", [(["icp"], False), (["icp", "wcp"], True)])
    def test_studies_keep_points_for_wcp(self, monkeypatch, methods, points):
        built = []

        class Tracked(OracleEvaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.X is not None)

        monkeypatch.setattr(simbench, "OracleEvaluator", Tracked)
        run_study(DgpSpec("lowdim"), [300], methods, 1,
                  StudyConfig(GRID, TARGETS, oracle_m=2000), RngStream(33), workers=1)
        assert built == [points]

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
        ev = OracleEvaluator(DgpSpec("lowdim"), 20_000, RngStream(8).child("ev"),
                             points=True)
        assert kinds == [None, "stable"]
        monkeypatch.undo()
        flat = ev.scores.reshape(-1)
        order = np.argsort(flat, kind="stable")
        assert not np.array_equal(np.argsort(flat), order)  # the tie order matters
        sorted_scores = flat[order]
        cum = np.cumsum(ev.probs.reshape(-1)[order]) / ev.M
        np.minimum(cum, 1.0, out=cum)
        cum[-1] = 1.0
        assert ev._sorted_scores.tobytes() == sorted_scores.tobytes()
        assert ev._cum_weights.tobytes() == cum.tobytes()
        for tau in np.unique(flat)[::7]:
            idx = int(np.searchsorted(sorted_scores, tau, side="left"))
            assert ev.psi_at(tau) == (float(cum[idx - 1]) if idx else 0.0)

    @pytest.mark.parametrize("M", [3, 10, 50, 20_000])
    def test_psi_of_cutoffs_sums_labels_in_row_order(self, M):
        # Small M: a one-ulp change in one row's sum often survives the mean.
        ev = OracleEvaluator(DgpSpec("highdim-sparse"), M, RngStream(9).child("ev"),
                             points=True)
        gen = np.random.default_rng(0)
        draws = [gen.uniform(0.0, 1.0, ev.M) for _ in range(20)]
        for cutoffs in (*draws, ev.scores[:, 1], np.full(ev.M, 0.2)):
            want = np.sum(ev.probs * (ev.scores < cutoffs[:, None]), axis=1).mean()
            assert ev.psi_of_cutoffs(cutoffs) == float(want)

    @pytest.mark.parametrize("size", [0, 2, 4])
    def test_psi_of_cutoffs_needs_one_or_one_per_point(self, size):
        ev = OracleEvaluator(DgpSpec("lowdim"), 3, RngStream(9).child("ev"), points=True)
        with pytest.raises(ConfigurationError,
                           match=rf"one per oracle point \(3\), got {size}$"):
            ev.psi_of_cutoffs(np.zeros(size))
        assert ev.psi_of_cutoffs([0.5]) == ev.psi_of_cutoffs(np.full(3, 0.5))


_STUDY_CFG = StudyConfig(grid=GRID, targets=TARGETS)


@pytest.mark.parametrize("call, args, message", [
    (dgp_draw, (DgpSpec("lowdim"), 2.5, RngStream(1)),
     "n must be an integer of at least 1, got 2.5"),
    (make_folds, (2.5, 2, RngStream(1)),
     "unit count must be a nonnegative integer, got 2.5"),
    (make_folds, (10, 2.5, RngStream(1)),
     "fold count must be an integer of at least 2, got 2.5"),
    (OracleEvaluator, (DgpSpec("lowdim"), 2.5, RngStream(1)),
     "M must be an integer of at least 1, got 2.5"),
    (wilson_interval, (1.5, 2), "k must be an integer in [0, n], got 1.5"),
    (wilson_interval, (1, 2.0), "n must be an integer of at least 1, got 2.0"),
    (run_study, (DgpSpec("lowdim"), [300.0], ["icp"], 1, _STUDY_CFG, RngStream(1)),
     "sample sizes must be integers of at least 1, got [300.0]"),
    (dgp_draw, (DgpSpec("lowdim"), True, RngStream(1)),
     "n must be an integer of at least 1, got True"),
    (RngStream, (-1,), "seed must be a nonnegative integer, got -1"),
    (RngStream, (True,), "seed must be a nonnegative integer, got True"),
    (RngStream(1).child, ("x", -1),
     "substream index must be a nonnegative integer, got -1"),
    (partial(StudyConfig, V=1), (GRID, TARGETS),
     "fold count must be an integer of at least 2, got 1"),
    (run_study, (DgpSpec("lowdim"), [300], ["icp"], 0, _STUDY_CFG, RngStream(1)),
     "replications must be an integer of at least 1, got 0"),
    (run_study, (DgpSpec("lowdim"), [300], ["icp"], 1, _STUDY_CFG, RngStream(1), 0),
     "workers must be an integer of at least 1, got 0"),
], ids=["dgp_draw-n", "make_folds-n", "make_folds-V", "OracleEvaluator-M",
        "wilson_interval-k", "wilson_interval-n", "run_study-n", "dgp_draw-bool-n",
        "RngStream-seed", "RngStream-bool-seed", "RngStream-child-index",
        "StudyConfig-V", "run_study-replications", "run_study-workers"])
def test_sizes_must_be_integers(call, args, message):
    # Each count check's whole message, as every entry point words it.
    with pytest.raises(ConfigurationError) as info:
        call(*args)
    assert str(info.value) == message


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

    def test_against_scipy(self):
        for n in range(1, 61):
            for k in range(n + 1):
                for level in (0.9, 0.95, 0.99):
                    lo, hi = wilson_interval(k, n, level)
                    ref = binomtest(k, n).proportion_ci(level, method="wilson")
                    assert lo == pytest.approx(ref.low, abs=1e-12)
                    assert hi == pytest.approx(ref.high, abs=1e-12)
                    if k == 0:
                        assert lo == 0.0
                    if k == n:
                        assert hi == 1.0

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(11, 10)

    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_level_must_lie_strictly_inside_unit_interval(self, level):
        with pytest.raises(ConfigurationError, match=r"^level must lie in \(0, 1\)$"):
            wilson_interval(5, 10, level)


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
        # At this seed and three folds, replication 0 puts no target unit in
        # fold 1, while the calibration fold (0) and its complement, the
        # halves of rejection sampling, hold both populations.
        spec, n, root = DgpSpec("lowdim"), 12, RngStream(2)
        sample = dgp_draw(spec, n, root.child(f"dgp-n{n}", 0))
        folds = make_folds(n, 3, root.child(f"folds-n{n}", 0))
        assert not (sample.a[folds.indices(1)] == 0).any()
        for half in (folds.indices(0), folds.complement(0)):
            assert set(sample.a[half]) == {0, 1}

        stumps = BinaryLearnerSpec(kind="boosted-stumps")
        cfg = StudyConfig(grid=GRID, targets=TARGETS, g_spec=stumps,
                          e_spec=stumps, V=3, oracle_m=2000)
        rows = {r.method: r for r in
                run_study(spec, [n], tuple(METHODS), 1, cfg, root).rows}
        fold_methods = {"onestep", "tmle", "plugin", "wplugin"}
        assert {m for m, r in rows.items() if r.failed} == fold_methods
        for m in fold_methods:
            # A failed row is its name, its replication and its error.
            assert rows[m] == ReplicationRow(m, n, 0, failure="DegenerateFoldError")
            assert (rows[m].tau_hat, rows[m].true_error, rows[m].info) == (0.0, None, {})
            assert not rows[m].covered and rows[m].table is None
        # The other methods give what they give on their own.
        alone = run_study(spec, [n], ["rs", "icp", "wcp"], 1, cfg, root).rows
        assert [rows[r.method] for r in alone] == list(alone)
        assert (rows["rs"].tau_hat, rows["rs"].true_error, rows["rs"].info) == (
            0.05, 0.011475914286043137, {"bhat": 1.3, "n_accepted": 3, "pi_hat": 1.0})
        assert (rows["icp"].sentinel, rows["icp"].info) == (
            True, {"calibration_size": 3, "k": None})
        assert rows["wcp"].info == {"cutoff_median": 0.0}

    def test_a_degenerate_training_half_fails_rejection_sampling(self):
        # At two folds, fold 1 is rejection sampling's training half: at
        # this seed it holds no target unit, so rs fails with the fold
        # methods, by name and alike whether or not they ran before it.
        spec, n, root = DgpSpec("lowdim"), 12, RngStream(204)
        sample = dgp_draw(spec, n, root.child(f"dgp-n{n}", 0))
        folds = make_folds(n, 2, root.child(f"folds-n{n}", 0))
        assert not (sample.a[folds.indices(1)] == 0).any()
        assert set(sample.a[folds.indices(0)]) == {0, 1}

        stumps = BinaryLearnerSpec(kind="boosted-stumps")
        cfg = StudyConfig(grid=GRID, targets=TARGETS, g_spec=stumps,
                          e_spec=stumps, oracle_m=2000)
        every = run_study(spec, [n], tuple(METHODS), 1, cfg, root).rows
        alone = run_study(spec, [n], ["rs"], 1, cfg, root).rows
        rows = {r.method: r for r in every}
        assert {m for m, r in rows.items() if r.failed} == {
            "onestep", "tmle", "rs", "plugin", "wplugin"}
        assert alone == (rows["rs"],)
        assert rows["rs"] == ReplicationRow("rs", n, 0, failure="DegenerateFoldError")
        data = Dataset(sample, cfg, root.child(f"folds-n{n}", 0), root)
        with pytest.raises(DegenerateFoldError,
                           match="^training half lacks source or target units$"):
            METHODS["rs"](data)

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

    def test_a_draw_without_both_populations_fails_every_method(self):
        rep = run_study(DgpSpec("lowdim"), [6], ["rs", "icp"], 40,
                        self._cfg(oracle_m=1000), RngStream(3), workers=1)
        bad = {r.rep for r in rep.rows if r.failure == "DataError"}
        assert bad
        for r in rep.rows:
            if r.rep in bad:
                assert r.failure == "DataError" and not r.covered
                assert (r.tau_hat, r.true_error, r.info, r.table) == (0.0, None, {}, None)
        assert [a.failures >= len(bad) for a in rep.aggregates] == [True, True]

    def test_a_data_error_inside_a_method_propagates(self, monkeypatch):
        def refuse(data):
            raise DataError("refused")

        monkeypatch.setitem(simbench.METHODS, "icp", refuse)
        with pytest.raises(DataError, match="refused"):
            run_study(DgpSpec("lowdim"), [300], ["icp"], 1,
                      self._cfg(oracle_m=1000), RngStream(3), workers=1)

    def test_wcp_needs_an_oracle(self):
        # As fit builds it: no oracle to score the cutoffs on.
        root = RngStream(22)
        data = Dataset(dgp_draw(DgpSpec("lowdim"), 200, root.child("d")),
                       self._cfg(), root.child("f"), root.child("rs"))
        with pytest.raises(ConfigurationError, match="oracle"):
            METHODS["wcp"](data)

    def test_rows_carry_their_method_tables(self):
        rep = run_study(DgpSpec("lowdim"), [300], ["onestep", "icp"], 1,
                        self._cfg(oracle_m=2000), RngStream(15))
        onestep, icp = rep.rows
        assert onestep.table.psi.shape == (len(GRID),)
        assert icp.table.psi.shape == (1,)
        assert "table" not in repr(onestep)

    @pytest.mark.parametrize("alpha_error", [0.05, 0.01])
    def test_icp_rows_carry_their_beta_row(self, alpha_error):
        # About 75 calibration scores: at 0.01 no order statistic is certifiable.
        cfg = StudyConfig(grid=GRID, targets=RiskTargets(alpha_error, 0.05), oracle_m=2000)
        rep = run_study(DgpSpec("lowdim"), [300], ["icp"], 3, cfg, RngStream(15))
        for row in rep.rows:
            table = row.table
            assert row.sentinel == (alpha_error == 0.01)
            assert table.taus.tolist() == [row.tau_hat]
            if row.sentinel:
                assert [table.psi[0], table.se[0], table.cub[0]] == [0.0, 0.0, 0.0]
            else:
                assert 0.0 < table.psi[0] <= table.cub[0] and table.se[0] > 0.0

    def test_fold_methods_share_conditional_error_predictions(self, monkeypatch):
        # One grid of predictions per fold of the cross-fitted fits for all
        # four fold methods together, not one per method; rejection
        # sampling's one-fold fits are read once.
        calls = []   # (fits, v); holding each fits object keeps its id
        cond_error = NuisanceFits.cond_error

        def counted(fits, v, X):
            calls.append((fits, v))
            return cond_error(fits, v, X)

        monkeypatch.setattr(NuisanceFits, "cond_error", counted)
        rep = run_study(DgpSpec("lowdim"), [300], tuple(METHODS), 1,
                        self._cfg(oracle_m=2000), RngStream(14))
        assert not any(r.failed for r in rep.rows)
        by_fits = {}
        for fits, v in calls:
            by_fits.setdefault(id(fits), (fits, []))[1].append(v)
        assert sorted(len(fits.g_predictors) for fits, _ in by_fits.values()) == [1, 2]
        for fits, folds in by_fits.values():
            assert fits.taus == tuple(GRID)
            assert sorted(folds) == list(range(len(fits.g_predictors)))

    def test_repeated_method_rejected(self):
        with pytest.raises(ConfigurationError, match="'onestep' given twice"):
            run_study(DgpSpec("lowdim"), [300], ["onestep", "icp", "onestep"], 1,
                      self._cfg(), RngStream(12))

    def test_repeated_sample_size_rejected(self):
        with pytest.raises(ConfigurationError, match="sample size 300 given twice"):
            run_study(DgpSpec("lowdim"), [300, 400, 300], ["icp"], 1,
                      self._cfg(), RngStream(12))

    @pytest.mark.parametrize("reps", [2.5, "3", 0, -1, True, None])
    def test_replications_must_be_a_positive_integer(self, reps):
        with pytest.raises(ConfigurationError, match="replications must be an integer"):
            run_study(DgpSpec("lowdim"), [300], ["icp"], reps, self._cfg(),
                      RngStream(12))

    @pytest.mark.parametrize("workers", [0, -2, 1.5, "2", True])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be an integer"):
            run_study(DgpSpec("lowdim"), [300], ["icp"], 2, self._cfg(),
                      RngStream(12), workers=workers)


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


def test_method_result_fields_are_row_fields():
    # A replication row is built from its method's result by field name.
    assert set(MethodResult._fields) <= {f.name for f in dataclasses.fields(ReplicationRow)}


@pytest.mark.parametrize("learner", ["logistic-ridge", "boosted-stumps"])
def test_registry_matches_public_estimators(learner):
    spec = BinaryLearnerSpec(kind=learner)
    cfg = StudyConfig(grid=ThresholdGrid.from_range(0.0, 0.3, 0.01),
                      targets=TARGETS, g_spec=spec, e_spec=spec)
    root = RngStream(21)
    data = Dataset(dgp_draw(DgpSpec("lowdim"), 400, root.child("d")), cfg,
                   root.child("f"), root.child("rs"))
    for method, estimate in [("onestep", onestep_estimate),
                             ("tmle", tmle_estimate),
                             ("plugin", plugin_estimate),
                             ("wplugin", weighted_plugin_estimate)]:
        assert_same_table(METHODS[method](data).table,
                          estimate(data.engine, TARGETS))
    # Rejection sampling on fold 0 and fold 0's cross-fitted nuisances.
    run = rs_prepare(data.sample, cfg.bhat_fixed, data.folds, data.fits, data.rs_rng)
    assert_same_table(METHODS["rs"](data).table,
                      rs_estimate(run, data.sample, TARGETS))


def test_rs_fits_fold_zero_once_or_not_at_all(monkeypatch):
    # Alone, rejection sampling fits fold 0's complement once; after a fold
    # method has built the cross-fit, it fits nothing and gives the same table.
    fitted = []
    fit_on = crossfit.fit_on

    def counted(sample, train, *args):
        fitted.append(train.tolist())
        return fit_on(sample, train, *args)

    monkeypatch.setattr(crossfit, "fit_on", counted)
    monkeypatch.setattr(simbench, "fit_on", counted)
    root = RngStream(24)
    sample = dgp_draw(DgpSpec("lowdim"), 400, root.child("d"))
    alone, after = (Dataset(sample, StudyConfig(GRID, TARGETS), root.child("f"),
                            root.child("rs")) for _ in range(2))
    rs_alone = METHODS["rs"](alone)
    assert fitted == [alone.folds.complement(0).tolist()]

    fitted.clear()
    METHODS["onestep"](after)
    assert len(fitted) == after.folds.V
    rs_after = METHODS["rs"](after)
    assert len(fitted) == after.folds.V
    assert_same_table(rs_after.table, rs_alone.table)
    assert rs_after.info == rs_alone.info


@pytest.mark.parametrize("alpha_conf", [0.05, 0.2])
@pytest.mark.parametrize("method", ["onestep", "plugin", "wplugin", "tmle", "rs"])
def test_wald_methods_share_one_bound(method, alpha_conf):
    # Every Wald table bounds psi by the one-sided normal quantile times se.
    cfg = StudyConfig(grid=GRID, targets=RiskTargets(0.05, alpha_conf))
    root = RngStream(23)
    data = Dataset(dgp_draw(DgpSpec("lowdim"), 600, root.child("d")), cfg,
                   root.child("f"), root.child("rs"))
    table = METHODS[method](data).table
    assert table.taus.dtype == np.float64
    np.testing.assert_array_equal(table.taus, np.array(list(GRID), dtype=float))
    assert np.all(table.se >= 0)
    np.testing.assert_allclose(table.cub - table.psi, ndtri(1 - alpha_conf) * table.se,
                               rtol=1e-12, atol=0)



@st.composite
def hostile_samples(draw):
    """An admissible but hostile sample, a fold count V and a seed whose
    ``folds`` child is the fold stream: from 2V to 40 units, 1, 3 or 60
    covariates at a scale of 1e-8, 1 or 1e8, and maybe a constant column, a
    covariate equal to ``a``, which separates the populations, or a column
    that is a linear combination of two others; scores maybe tied on a 0.1
    lattice; and maybe exactly one source unit in each fold."""
    V = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2 * V, 40))
    p = draw(st.sampled_from([1, 3, 60]))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        folds = make_folds(n, V, RngStream(seed).child("folds"))
        a = np.zeros(n, dtype=np.int64)
        a[[folds.indices(v)[0] for v in range(V)]] = 1
    else:
        a = gen.integers(0, 2, n)
        a[:2] = 1, 0
    x = gen.standard_normal((n, p)) * scale
    score = gen.uniform(0.0, 0.4, n)
    if draw(st.booleans()):
        x[:, -1] = scale
    if draw(st.booleans()):
        x[:, 0] = a
    if p >= 3 and draw(st.booleans()):
        x[:, 1] = x[:, [0, 2]] @ gen.uniform(-2.0, 2.0, 2)
    if draw(st.booleans()):
        score = np.round(score, 1)
    return ObservedSample(a=a, x=x, score=np.where(a == 1, score, np.nan)), V, seed


@settings(max_examples=40, deadline=None)
@given(hostile_samples())
def test_fit_methods_keep_the_contract_on_hostile_samples(drawn):
    # Every method, with either learner, raises a ShiftsetError or gives a
    # finite threshold and a finite table whose bound is not below psi.
    # Weighted conformal runs on the samples with lowdim's 3 covariates,
    # scored on a small lowdim oracle, and must give a finite true error.
    sample, V, seed = drawn
    root = RngStream(seed)
    oracle = (OracleEvaluator(DgpSpec("lowdim"), 300, root.child("oracle"), points=True)
              if sample.p == 3 else None)
    for learner in ("logistic-ridge", "boosted-stumps"):
        spec = BinaryLearnerSpec(kind=learner)
        cfg = StudyConfig(grid=GRID, targets=TARGETS, g_spec=spec, e_spec=spec, V=V)
        data = Dataset(sample, cfg, root.child("folds"), root, oracle)
        for method in (m for m in METHODS if m != "wcp" or oracle is not None):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    res = METHODS[method](data)
                except ShiftsetError:
                    continue
            assert np.isfinite(res.tau_hat)
            if method == "wcp":
                assert np.isfinite(res.true_error)
            if res.table is not None:
                table = res.table
                assert np.all(np.isfinite([table.psi, table.se, table.cub]))
                assert np.all(table.cub >= table.psi - 1e-12)

class TestWorkers:
    """Replications run in forked workers give what the serial loop gives."""

    @pytest.fixture(autouse=True)
    def no_process_outlives_the_study(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("learner", ["logistic-ridge", "boosted-stumps"])
    def test_report_matches_the_serial_loop(self, learner):
        spec = BinaryLearnerSpec(kind=learner)
        cfg = StudyConfig(GRID, TARGETS, spec, spec, oracle_m=2000)
        serial, forked = (run_study(DgpSpec("lowdim"), [300], tuple(METHODS), 4, cfg,
                                    RngStream(31), workers=w) for w in (1, 2))
        assert forked.rows == serial.rows
        assert forked.aggregates == serial.aggregates
        assert sum(r.table is not None for r in serial.rows) == 4 * 6
        for got, want in zip(forked.rows, serial.rows):
            if want.table is None:
                assert got.table is None
            else:
                assert_same_table(got.table, want.table)

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_warnings_and_the_earliest_error_match_the_serial_loop(
            self, monkeypatch, action):
        icp = METHODS["icp"]

        def flaky(data):
            rep = data.folds_rng.path[-1]
            warnings.warn(f"rep {rep}")
            warnings.warn("flaky method", RuntimeWarning)
            if rep in (1, 2):
                raise ValueError(f"rep {rep} failed")
            return icp(data)

        monkeypatch.setitem(METHODS, "icp", flaky)
        seen = []
        for workers in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises(ValueError, match="^rep 1 failed$"):
                    run_study(DgpSpec("lowdim"), [300], ["onestep", "icp"], 4,
                              StudyConfig(GRID, TARGETS, oracle_m=2000),
                              RngStream(32), workers=workers)
            seen.append([(str(w.message), w.category, w.filename, w.lineno)
                         for w in caught])
        assert seen[0] == seen[1]
        messages = [w[0] for w in seen[0]]
        assert messages == (["rep 0", "flaky method", "rep 1", "flaky method"]
                            if action == "always" else
                            ["rep 0", "flaky method", "rep 1"])
        assert {w[2] for w in seen[0]} == {__file__}

    def test_a_daemon_process_runs_the_study_itself(self):
        # A pool's workers are daemons, which may not start processes.
        args = (DgpSpec("lowdim"), [300], ["icp"], 2,
                StudyConfig(GRID, TARGETS, oracle_m=2000), RngStream(34))
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply(run_study, args, {"workers": 2})
        assert inside.rows == run_study(*args, workers=1).rows

    def test_no_reference_to_a_finished_study_is_kept(self, monkeypatch):
        built = []

        class Tracked(OracleEvaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(weakref.ref(self))

        monkeypatch.setattr(simbench, "OracleEvaluator", Tracked)
        run_study(DgpSpec("lowdim"), [300], ["icp", "wcp"], 3,
                  StudyConfig(GRID, TARGETS, oracle_m=2000), RngStream(33),
                  workers=2)
        assert len(built) == 1 and built[0]() is None
