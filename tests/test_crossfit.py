import functools
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from shiftset import (
    DGP_KINDS,
    BinaryLearnerSpec,
    ConfigurationError,
    ConstantPredictor,
    DataError,
    DgpSpec,
    DomainError,
    FoldEngine,
    NuisanceFits,
    ObservedSample,
    RiskTargets,
    ThresholdGrid,
    UnfittableFoldError,
    dgp_draw,
    fit_nuisances,
    make_folds,
    miscoverage_vector,
    odds_weight,
    onestep_estimate,
    oracle_nuisances,
    rs_prepare,
    tmle_estimate,
)
from shiftset import FoldPlan, RngStream, crossfit, parallel, simbench
from shiftset.cli import main
from shiftset.learners import LogisticRidgePredictor
from tests.conftest import LookupPredictor, make_sample


class TestOddsWeight:
    def test_no_shift(self):
        assert odds_weight(0.5, 0.5) == 1.0

    def test_examples(self):
        assert odds_weight(0.8, 0.5) == pytest.approx(0.25)
        assert odds_weight(0.2, 0.5) == pytest.approx(4.0)

    def test_domain_errors(self):
        for g, gamma in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0),
                         (np.array([np.nan, 0.5]), 0.5), (0.5, np.nan)]:
            with pytest.raises(DomainError):
                odds_weight(g, gamma)

    def test_vectorized(self):
        np.testing.assert_allclose(odds_weight(np.array([0.5, 0.2]), 0.5),
                                   [1.0, 4.0])


@pytest.fixture
def fitted(rng):
    spec = DgpSpec("lowdim")
    sample = dgp_draw(spec, 400, rng.child("dgp"))
    folds = make_folds(400, 2, rng.child("folds"))
    grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
    fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                         BinaryLearnerSpec(), 0.01)
    return sample, folds, grid, fits


class TestFitNuisances:
    def test_constant_zero_below_support(self, rng):
        spec = DgpSpec("lowdim")
        sample = dgp_draw(spec, 200, rng.child("d"))
        folds = make_folds(200, 2, rng.child("f"))
        # scores are strictly positive probabilities, so tau=0 gives Z == 0
        # and tau=2 gives Z == 1
        grid = ThresholdGrid((0.0, 2.0))
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), 0.01)
        for v in range(2):
            np.testing.assert_array_equal(fits.constant_mask(v), [True, True])
            E = fits.cond_error(v, sample.x)
            np.testing.assert_array_equal(E[0], 0.0)
            np.testing.assert_array_equal(E[1], 1.0)

    def test_propensity_truncation(self):
        fits = NuisanceFits(taus=(0.1,), g_predictors=(ConstantPredictor(0.001),),
                            e_predictors=((ConstantPredictor(0.0),),), delta=0.01)
        np.testing.assert_array_equal(fits.propensity(0, np.zeros((3, 1))), 0.01)
        fits_hi = NuisanceFits(taus=(0.1,), g_predictors=(ConstantPredictor(0.999),),
                               e_predictors=((ConstantPredictor(0.0),),), delta=0.01)
        np.testing.assert_array_equal(fits_hi.propensity(0, np.zeros((3, 1))), 0.99)

    @pytest.mark.parametrize("delta", [crossfit.PROPENSITY_GUARD, 0.01])
    def test_saturated_propensity_lands_on_delta(self, delta):
        # expit rounds the log-odds -1000 and 1000 to exactly 0 and 1.
        g = LogisticRidgePredictor(0.0, [1e3], 1)
        X = np.array([[-1.0], [1.0]])
        assert g.predict(X).tolist() == [0.0, 1.0]
        fits = NuisanceFits(taus=(0.1,), g_predictors=(g,),
                            e_predictors=((ConstantPredictor(0.0),),), delta=delta)
        assert fits.propensity(0, X).tolist() == [delta, 1.0 - delta]

    def test_truncation_invariant_on_fits(self, fitted):
        sample, folds, grid, fits = fitted
        for v in range(2):
            g = fits.propensity(v, sample.x)
            assert g.min() >= 0.01 and g.max() <= 0.99

    def test_cross_fit_independence(self, fitted, rng):
        # Fold v's fits see only the fold's complement: redrawing every unit
        # inside fold v leaves them unchanged, and they are not the fits of
        # the other fold.
        sample, folds, grid, fits = fitted
        X_eval = sample.x[:50]
        for v in range(2):
            inside = folds.indices(v)
            other = dgp_draw(DgpSpec("lowdim"), 400, rng.child("other", v))
            a, x, score = sample.a.copy(), sample.x.copy(), sample.score.copy()
            a[inside], x[inside], score[inside] = (
                other.a[inside], other.x[inside], other.score[inside])
            moved = ObservedSample(a=a, x=x, score=score)
            refit = fit_nuisances(moved, folds, grid, BinaryLearnerSpec(),
                                  BinaryLearnerSpec(), 0.01)
            np.testing.assert_array_equal(refit.propensity(v, X_eval),
                                          fits.propensity(v, X_eval))
            assert not np.array_equal(refit.propensity(1 - v, X_eval),
                                      fits.propensity(1 - v, X_eval))
            np.testing.assert_array_equal(refit.cond_error(v, X_eval),
                                          fits.cond_error(v, X_eval))

    def test_monotone_labels(self, fitted):
        sample, folds, grid, fits = fitted
        scores = sample.score[sample.is_source]
        taus = list(grid)
        for t1, t2 in zip(taus, taus[1:]):
            z1 = miscoverage_vector(scores, t1)
            z2 = miscoverage_vector(scores, t2)
            assert np.all(z1 <= z2)

    def test_delta_domain(self, fitted):
        sample, folds, grid, _ = fitted
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ConfigurationError, match=r"delta must lie in \(0, 0\.5\)"):
                fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                              BinaryLearnerSpec(), bad)
        # Below PROPENSITY_GUARD an odds weight could overflow to inf.
        for bad in (1e-13, 1e-320):
            with pytest.raises(ConfigurationError, match="delta must be at least 1e-12"):
                fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                              BinaryLearnerSpec(), bad)
        fits = fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                             BinaryLearnerSpec(), crossfit.PROPENSITY_GUARD)
        assert fits.delta == crossfit.PROPENSITY_GUARD

    def test_unfittable_fold(self):
        # fold 1 holds every source unit, so fold 1's complement has none
        sample = make_sample([1, 1, 1, 0, 0, 0],
                             [[float(i)] for i in range(6)],
                             [0.5, 0.6, 0.7, None, None, None])
        folds_bad = FoldPlan(V=2, assignment=np.array([1, 1, 1, 0, 0, 0]))
        with pytest.raises(UnfittableFoldError):
            fit_nuisances(sample, folds_bad, ThresholdGrid((0.1,)),
                          BinaryLearnerSpec(), BinaryLearnerSpec(), 0.01)

    @pytest.mark.parametrize("assignment, error, message", [
        ([0, 1, 0, 1], ConfigurationError, "fold plan does not match the sample size"),
        # fold 0's complement is the one unit in fold 1
        ([0, 0, 1], UnfittableFoldError, "fold 0: complement has fewer than 2 units"),
    ], ids=["mismatched-plan", "one-unit-complement"])
    def test_plan_checked_before_any_fit(self, assignment, error, message):
        sample = make_sample([1, 0, 1], [[0.0], [1.0], [2.0]], [0.5, None, 0.6])
        folds = FoldPlan(V=2, assignment=np.array(assignment))
        with pytest.raises(error, match=f"^{message}$"):
            fit_nuisances(sample, folds, ThresholdGrid((0.1,)),
                          BinaryLearnerSpec(), BinaryLearnerSpec(), 0.01)


LOGIT = BinaryLearnerSpec()


@functools.cache
def pairing_inputs():
    """A 400-unit lowdim sample with its 2- and 3-fold cross-fits and the
    one-fold fit that ``Dataset.fold0_fits`` makes on its 2-fold plan."""
    root = RngStream(7)
    sample = dgp_draw(DgpSpec("lowdim"), 400, root.child("d"))
    grid = ThresholdGrid((0.1, 0.3))
    fits = {f"{V}-fold": fit_nuisances(sample, make_folds(400, V, root.child("folds")),
                                       grid, LOGIT, LOGIT, 0.01)
            for V in (2, 3)}
    data = simbench.Dataset(sample, simbench.StudyConfig(grid, RiskTargets(0.1, 0.05)),
                            root.child("folds"), root.child("rs"))
    fits["fold0"] = data.fold0_fits
    fits["oracle"] = oracle_nuisances(DgpSpec("lowdim"), grid)
    return root, sample, fits


PLAN_SIZE = "fold plan does not match the sample size"


class TestPlanPairing:
    """A fold plan must cover exactly the sample's units, and nuisance fits
    must hold the plan's V folds (or one, for rejection sampling, which
    reads fold 0 alone); oracle fits answer any fold."""

    @pytest.mark.parametrize("consumer, plan_n, V, fits, message", [
        *((consumer, plan_n, 2, "2-fold", PLAN_SIZE)
          for consumer in ("fit_nuisances", "FoldEngine", "rs_prepare")
          for plan_n in (200, 600)),
        ("FoldEngine", 400, 2, "3-fold", "nuisance fits hold 3 folds, the fold plan 2"),
        ("FoldEngine", 400, 3, "2-fold", "nuisance fits hold 2 folds, the fold plan 3"),
        ("rs_prepare", 400, 2, "3-fold", "nuisance fits hold 3 folds, the fold plan 2"),
        ("rs_prepare", 400, 2, "fold0", None),
        *((consumer, 400, V, "oracle", None)
          for consumer in ("FoldEngine", "rs_prepare") for V in (2, 3)),
    ])
    def test_pairing(self, consumer, plan_n, V, fits, message):
        root, sample, all_fits = pairing_inputs()
        folds = make_folds(plan_n, V, root.child("folds"))
        call = {
            "fit_nuisances": lambda: fit_nuisances(
                sample, folds, ThresholdGrid((0.1,)), LOGIT, LOGIT, 0.01),
            "FoldEngine": lambda: FoldEngine(sample, folds, all_fits[fits]),
            "rs_prepare": lambda: rs_prepare(sample, None, folds, all_fits[fits],
                                             root.child("rs")),
        }[consumer]
        if message is None:
            call()
        else:
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                call()


class TestOracleNuisances:
    def test_noshift_propensity_is_half(self):
        fits = oracle_nuisances(DgpSpec("lowdim-noshift"),
                                ThresholdGrid((0.1,)))
        X = np.random.default_rng(0).standard_normal((50, 3))
        np.testing.assert_array_equal(fits.propensity(0, X), 0.5)

    def test_highdim_propensity_at_origin(self):
        # density ratio is 2 per shifted coordinate at 0, so the importance
        # weight is 4 and the source-membership probability 1/5
        fits = oracle_nuisances(DgpSpec("highdim-sparse"), ThresholdGrid((0.1,)))
        x0 = np.zeros((1, 20))
        assert fits.propensity(0, x0)[0] == pytest.approx(0.2)
        spec = DgpSpec("highdim-sparse")
        assert spec.true_likelihood_ratio(x0)[0] == pytest.approx(4.0)
        # 4 is the maximum over the support
        gen = np.random.default_rng(1)
        X = spec.draw_x(5000, np.zeros(5000, dtype=int), gen)
        assert spec.true_likelihood_ratio(X).max() <= 4.0

    def test_cond_error_is_label_expectation(self):
        spec = DgpSpec("lowdim")
        grid = ThresholdGrid((0.15,))
        fits = oracle_nuisances(spec, grid)
        X = np.random.default_rng(2).standard_normal((20, 3))
        probs = spec.label_probs(X)
        scores = spec.score_table(X)
        manual = np.sum(probs * (scores < 0.15), axis=1)
        np.testing.assert_allclose(fits.cond_error(0, X), [manual])

    def test_unsupported_dgp(self):
        with pytest.raises(ConfigurationError):
            oracle_nuisances("not-a-dgp", ThresholdGrid((0.1,)))

    def test_truncated_at_the_guard(self):
        # The true highdim propensity 1 / (1 + 4 exp(-(x1 + x2))) is about
        # 2.5e-305 at x1 + x2 = -700 and exactly 1 at x1 + x2 = 100.
        fits = oracle_nuisances(DgpSpec("highdim-sparse"), ThresholdGrid((0.1,)))
        assert fits.delta == crossfit.PROPENSITY_GUARD
        X = np.zeros((2, 20))
        X[:, :2] = [[-350.0, -350.0], [50.0, 50.0]]
        assert fits.propensity(0, X).tolist() == [fits.delta, 1.0 - fits.delta]

    def test_propensity_needs_the_dgp_width(self):
        fits = oracle_nuisances(DgpSpec("lowdim"), ThresholdGrid((0.1,)))
        with pytest.raises(DataError, match="expected 3 covariates, got 20"):
            fits.propensity(0, np.zeros((2, 20)))

    @pytest.mark.parametrize("kind, p, wrong", [("lowdim", 3, 20), ("highdim-sparse", 20, 3)])
    def test_both_nuisances_check_the_dgp_width(self, kind, p, wrong):
        # A wrong width is refused alike by both; the right one gives the
        # clipped true functions bit for bit.
        spec, grid = DgpSpec(kind), ThresholdGrid.from_range(0.0, 0.3, 0.05)
        fits = oracle_nuisances(spec, grid)
        for method in (fits.propensity, fits.cond_error):
            with pytest.raises(DataError, match=f"^expected {p} covariates, got {wrong}$"):
                method(0, np.zeros((2, wrong)))
        X = spec.draw_x(50, np.zeros(50, dtype=int), np.random.default_rng(4))
        g = np.clip(spec.true_propensity(X), fits.delta, 1.0 - fits.delta)
        E = np.clip(spec.true_cond_errors(X, grid), 0.0, 1.0)
        assert fits.propensity(0, X).tobytes() == g.tobytes()
        assert fits.cond_error(0, X).tobytes() == E.tobytes()

    def test_oracle_fits_answer_every_fold(self):
        spec, grid = DgpSpec("lowdim"), ThresholdGrid.from_range(0.0, 0.3, 0.05)
        root = RngStream(8)
        sample = dgp_draw(spec, 300, root.child("d"))
        engine = FoldEngine(sample, make_folds(300, 3, root.child("f")),
                            oracle_nuisances(spec, grid))
        targets = RiskTargets(0.05, 0.05)
        assert len(engine.contexts) == 3
        for table in (onestep_estimate(engine, targets), tmle_estimate(engine, targets)):
            assert np.isfinite(table.psi).all() and np.isfinite(table.cub).all()


class TestCondErrorGrid:
    def test_learned_rows_are_each_thresholds_fit(self, fitted):
        sample, _, grid, fits = fitted
        for v in range(2):
            want = [np.clip(pred.predict(sample.x), 0.0, 1.0)
                    for pred in fits.e_predictors[v]]
            assert fits.cond_error(v, sample.x).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("kind", DGP_KINDS)
    def test_oracle_rows_are_label_expectations(self, kind):
        # Each row is Pr(score < tau | x), bit for bit what the oracle on
        # that threshold alone gives.
        spec = DgpSpec(kind)
        grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
        fits = oracle_nuisances(spec, grid)
        X = spec.draw_x(500, np.zeros(500, dtype=int), np.random.default_rng(3))
        E = fits.cond_error(1, X)
        probs, scores = spec.label_probs(X), spec.score_table(X)
        for ti, tau in enumerate(grid):
            manual = np.sum(probs * (scores < tau), axis=1)
            assert E[ti].tobytes() == np.clip(manual, 0.0, 1.0).tobytes()
            alone = oracle_nuisances(spec, ThresholdGrid((tau,))).cond_error(1, X)
            assert alone.tobytes() == E[ti:ti + 1].tobytes()
        assert not fits.constant_mask(1).any()

    def test_oracle_grid_evaluates_the_dgp_once(self, monkeypatch):
        calls = []
        label_probs = simbench.DgpSpec.label_probs
        monkeypatch.setattr(simbench.DgpSpec, "label_probs",
                            lambda self, X: calls.append(1) or label_probs(self, X))
        fits = oracle_nuisances(DgpSpec("lowdim"), ThresholdGrid.from_range(0.0, 0.3, 0.05))
        assert fits.cond_error(0, np.zeros((4, 3))).shape == (7, 4)
        assert len(calls) == 1

    def test_constant_mask_marks_constant_fits(self):
        e_row = (ConstantPredictor(0.0), LookupPredictor({}), ConstantPredictor(0.3))
        fits = NuisanceFits(taus=(0.0, 0.05, 0.1), g_predictors=(ConstantPredictor(0.5),),
                            e_predictors=(e_row,), delta=0.0)
        assert fits.constant_mask(0).tolist() == [True, False, True]


class TestNuisanceFitsShapes:
    G = ConstantPredictor(0.5)
    E = ConstantPredictor(0.2)

    @pytest.mark.parametrize("g_predictors, e_predictors", [
        ((G, G), ((E, E),)),         # a propensity without its fold's E row
        ((G,), ((E, E), (E, E))),    # an E row without its fold's propensity
        ((G, G), ((E, E), (E,))),    # a short E row
        ((G, G), ((E, E), (E,) * 3)),  # a long E row
        ((G,), ((),)),               # an empty E row
    ])
    def test_mismatched_construction_rejected(self, g_predictors, e_predictors):
        with pytest.raises(ConfigurationError, match="one propensity per fold"):
            NuisanceFits(taus=(0.1, 0.2), g_predictors=g_predictors,
                         e_predictors=e_predictors, delta=0.0)


def state(obj):
    """A predictor's attributes, arrays as dtype, shape and bytes."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return [state(v) for v in obj]
    if hasattr(obj, "__dict__"):
        return type(obj).__name__, {k: state(v) for k, v in vars(obj).items()}
    return obj


@pytest.fixture
def fold_fitters(tmp_path, monkeypatch):
    """Fit every fold on two CPUs, and return the ids of the processes that
    ran ``fit_on``, in the order they ran it, as a function."""
    log = tmp_path / "fitters.txt"
    fit_on = crossfit.fit_on

    def noted(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fit_on(*args)

    monkeypatch.setattr(crossfit, "fit_on", noted)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    return lambda: [int(pid) for pid in log.read_text().split()] if log.exists() else []


def no_fork():
    raise AssertionError("a process was forked")


class TestFoldPool:
    """From ``_FORK_ELEMENTS`` sample values on, the folds are fitted in
    forked workers, with what fitting them here gives."""

    @pytest.fixture(autouse=True)
    def no_process_outlives_the_call(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("learner", ["logistic-ridge", "boosted-stumps"])
    def test_forked_fits_equal_fits_here(self, monkeypatch, fold_fitters, learner):
        sample = dgp_draw(DgpSpec("lowdim"), 400, RngStream(4).child("d"))
        folds = make_folds(400, 2, RngStream(4).child("f"))
        spec = BinaryLearnerSpec(kind=learner)
        got = []
        for gate in (0, sample.n * sample.p + 1):
            monkeypatch.setattr(crossfit, "_FORK_ELEMENTS", gate)
            fits = fit_nuisances(sample, folds, ThresholdGrid.from_range(0.0, 0.3, 0.05),
                                 spec, spec, 0.01)
            got.append(state([fits.g_predictors, fits.e_predictors]))
        assert got[0] == got[1]
        pids = fold_fitters()
        assert os.getpid() not in pids[:2] and pids[2:] == [os.getpid()] * 2

    def test_warnings_come_in_fold_order(self, monkeypatch, fold_fitters):
        # Every fit diverges on these covariates; a marker after each fold's
        # fits shows whose IRLS warnings came first.
        fit_on = crossfit.fit_on

        def marked(sample, train, grid, g_spec, e_spec):
            fitted = fit_on(sample, train, grid, g_spec, e_spec)
            # With two folds, fold v's training units all lie in fold 1 - v.
            warnings.warn(f"fold {1 - folds.assignment[train[0]]} fitted")
            return fitted

        monkeypatch.setattr(crossfit, "fit_on", marked)
        n = 40
        x = np.where(np.arange(n) % 3, 1e200, -1e200) * (1 + np.arange(n) / n)
        a = np.arange(n) % 2
        sample = ObservedSample(a=a, x=x[:, None],
                                score=np.where(a == 1, np.linspace(0.05, 0.3, n), np.nan))
        folds = make_folds(n, 2, RngStream(1).child("f"))
        runs = []
        for gate in (0, n + 1):
            monkeypatch.setattr(crossfit, "_FORK_ELEMENTS", gate)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit_nuisances(sample, folds, ThresholdGrid((0.1, 0.2)), BinaryLearnerSpec(),
                              BinaryLearnerSpec(), 0.01)
            runs.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
        irls = ("IRLS diverged; falling back to an intercept-only fit", RuntimeWarning,
                crossfit.__file__)
        assert [w[:3] for w in runs[0]] == (
            [irls] * 3 + [("fold 0 fitted", UserWarning, __file__)]
            + [irls] * 3 + [("fold 1 fitted", UserWarning, __file__)])
        assert runs[0] == runs[1]
        assert os.getpid() not in fold_fitters()[:2]

    def test_unfittable_fold_raises_before_any_fit(self, monkeypatch, fold_fitters):
        monkeypatch.setattr(crossfit, "_FORK_ELEMENTS", 0)
        monkeypatch.setattr(os, "fork", no_fork)
        sample = make_sample([0, 1, 1, 0, 0, 1], [[float(i)] for i in range(6)],
                             [None, 0.5, 0.6, None, None, 0.7])
        # fold 1 holds every source unit, so fold 1's complement has none
        folds = FoldPlan(V=2, assignment=np.array([0, 1, 1, 0, 0, 1]))
        with pytest.raises(UnfittableFoldError, match="^fold 1: "):
            fit_nuisances(sample, folds, ThresholdGrid((0.1,)), BinaryLearnerSpec(),
                          BinaryLearnerSpec(), 0.01)
        assert fold_fitters() == []

    def test_a_study_sample_is_fitted_here(self, monkeypatch, fold_fitters):
        # highdim study samples hold 2,000 x 20 values, lowdim ones 2,000 x 3.
        monkeypatch.setattr(os, "fork", no_fork)
        sample = dgp_draw(DgpSpec("highdim-sparse"), 2000, RngStream(5).child("d"))
        fit_nuisances(sample, make_folds(2000, 2, RngStream(5).child("f")),
                      ThresholdGrid((0.1,)), BinaryLearnerSpec(), BinaryLearnerSpec(), 0.01)
        assert fold_fitters() == [os.getpid()] * 2

    def test_one_worker_study_fits_its_folds_here(self, tmp_path, monkeypatch,
                                                  fold_fitters):
        monkeypatch.setattr(crossfit, "_FORK_ELEMENTS", 0)
        monkeypatch.setattr(os, "fork", no_fork)
        assert main(["simulate", "--dgp", "lowdim", "--n", "200", "--reps", "2",
                     "--method", "onestep", "--oracle-m", "2000", "--workers", "1",
                     "--output", str(tmp_path / "s.csv")]) == 0
        assert fold_fitters() == [os.getpid()] * 4


def no_draw(stream):
    raise AssertionError(f"a nuisance fit drew from the stream {stream.path}")


class TestFitsDrawNothing:
    """The learners draw nothing, which is why neither ``fit_nuisances`` nor
    ``fit_on`` takes a stream."""

    @pytest.mark.parametrize("learner", ["logistic-ridge", "boosted-stumps"])
    def test_fits_here(self, monkeypatch, learner):
        root = RngStream(6)
        sample = dgp_draw(DgpSpec("lowdim"), 300, root.child("d"))
        folds = make_folds(300, 3, root.child("f"))
        spec = BinaryLearnerSpec(kind=learner)
        grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
        monkeypatch.setattr(RngStream, "generator", no_draw)
        fits = fit_nuisances(sample, folds, grid, spec, spec, 0.01)
        _, e_preds = crossfit.fit_on(sample, folds.complement(0), grid, spec, spec)
        assert len(fits.g_predictors) == 3 and len(e_preds) == len(grid)

    def test_forked_fits(self, monkeypatch, fold_fitters):
        n = crossfit._FORK_ELEMENTS // 20 + 1
        root = RngStream(7)
        sample = dgp_draw(DgpSpec("highdim-sparse"), n, root.child("d"))
        folds = make_folds(n, 2, root.child("f"))
        monkeypatch.setattr(RngStream, "generator", no_draw)
        fit_nuisances(sample, folds, ThresholdGrid((0.1, 0.2)), BinaryLearnerSpec(),
                      BinaryLearnerSpec(), 0.01)
        pids = fold_fitters()
        assert len(pids) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []
