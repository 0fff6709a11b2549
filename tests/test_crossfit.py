import numpy as np
import pytest

from shiftset import (
    DGP_KINDS,
    BinaryLearnerSpec,
    ConfigurationError,
    ConstantPredictor,
    DgpSpec,
    DomainError,
    NuisanceFits,
    ObservedSample,
    ThresholdGrid,
    UnfittableFoldError,
    dgp_draw,
    fit_nuisances,
    make_folds,
    miscoverage_vector,
    odds_weight,
    oracle_nuisances,
)
from shiftset import simbench
from tests.conftest import make_sample


class TestOddsWeight:
    def test_no_shift(self):
        assert odds_weight(0.5, 0.5) == 1.0

    def test_examples(self):
        assert odds_weight(0.8, 0.5) == pytest.approx(0.25)
        assert odds_weight(0.2, 0.5) == pytest.approx(4.0)

    def test_domain_errors(self):
        for g, gamma in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
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
                         BinaryLearnerSpec(), 0.01, rng.child("nuis"))
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
                             BinaryLearnerSpec(), 0.01, rng.child("n"))
        for v in range(2):
            assert fits.is_constant_fit(v, 0.0)
            np.testing.assert_array_equal(fits.cond_error(v, 0.0, sample.x), 0.0)
            np.testing.assert_array_equal(fits.cond_error(v, 2.0, sample.x), 1.0)

    def test_propensity_truncation(self):
        fits = NuisanceFits(taus=(0.1,), g_predictors=(ConstantPredictor(0.001),),
                            e_predictors=((ConstantPredictor(0.0),),), delta=0.01)
        np.testing.assert_array_equal(fits.propensity(0, np.zeros((3, 1))), 0.01)
        fits_hi = NuisanceFits(taus=(0.1,), g_predictors=(ConstantPredictor(0.999),),
                               e_predictors=((ConstantPredictor(0.0),),), delta=0.01)
        np.testing.assert_array_equal(fits_hi.propensity(0, np.zeros((3, 1))), 0.99)

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
                                  BinaryLearnerSpec(), 0.01, rng.child("nuis"))
            np.testing.assert_array_equal(refit.propensity(v, X_eval),
                                          fits.propensity(v, X_eval))
            assert not np.array_equal(refit.propensity(1 - v, X_eval),
                                      fits.propensity(1 - v, X_eval))
            for tau in grid:
                np.testing.assert_array_equal(refit.cond_error(v, tau, X_eval),
                                              fits.cond_error(v, tau, X_eval))

    def test_monotone_labels(self, fitted):
        sample, folds, grid, fits = fitted
        scores = sample.score[sample.is_source]
        taus = list(grid)
        for t1, t2 in zip(taus, taus[1:]):
            z1 = miscoverage_vector(scores, t1)
            z2 = miscoverage_vector(scores, t2)
            assert np.all(z1 <= z2)

    def test_delta_domain(self, fitted, rng):
        sample, folds, grid, _ = fitted
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ConfigurationError):
                fit_nuisances(sample, folds, grid, BinaryLearnerSpec(),
                              BinaryLearnerSpec(), bad, rng)

    def test_unfittable_fold(self, rng):
        # fold 1 holds every source unit, so fold 1's complement has none
        from shiftset import FoldPlan

        sample = make_sample([1, 1, 1, 0, 0, 0],
                             [[float(i)] for i in range(6)],
                             [0.5, 0.6, 0.7, None, None, None])
        folds_bad = FoldPlan(V=2, assignment=np.array([1, 1, 1, 0, 0, 0]))
        with pytest.raises(UnfittableFoldError):
            fit_nuisances(sample, folds_bad, ThresholdGrid((0.1,)),
                          BinaryLearnerSpec(), BinaryLearnerSpec(), 0.01, rng)


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
        np.testing.assert_allclose(fits.cond_error(0, 0.15, X), manual)

    def test_unsupported_dgp(self):
        with pytest.raises(ConfigurationError):
            oracle_nuisances("not-a-dgp", ThresholdGrid((0.1,)))


class TestCondErrorGrid:
    def stack(self, fits, v, X, taus):
        return np.array([fits.cond_error(v, tau, X) for tau in taus])

    def test_learned_rows_are_cond_error(self, fitted):
        sample, _, grid, fits = fitted
        for v in range(2):
            assert (fits.cond_error_grid(v, sample.x).tobytes()
                    == self.stack(fits, v, sample.x, grid).tobytes())
            taus = (0.3, 0.05)
            assert (fits.cond_error_grid(v, sample.x, taus).tobytes()
                    == self.stack(fits, v, sample.x, taus).tobytes())

    @pytest.mark.parametrize("kind", DGP_KINDS)
    def test_oracle_rows_are_cond_error(self, kind):
        spec = DgpSpec(kind)
        grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
        fits = oracle_nuisances(spec, grid)
        X = spec.draw_x(500, np.zeros(500, dtype=int), np.random.default_rng(3))
        for taus in (None, (0.15,), (0.3, 0.0)):
            want = self.stack(fits, 1, X, grid if taus is None else taus)
            assert fits.cond_error_grid(1, X, taus).tobytes() == want.tobytes()

    def test_oracle_grid_evaluates_the_dgp_once(self, monkeypatch):
        calls = []
        label_probs = simbench.DgpSpec.label_probs
        monkeypatch.setattr(simbench.DgpSpec, "label_probs",
                            lambda self, X: calls.append(1) or label_probs(self, X))
        fits = oracle_nuisances(DgpSpec("lowdim"), ThresholdGrid.from_range(0.0, 0.3, 0.05))
        assert fits.cond_error_grid(0, np.zeros((4, 3))).shape == (7, 4)
        assert len(calls) == 1

    def test_tau_index_finds_equal_keys(self):
        fits = NuisanceFits(taus=(0.0, 0.05, 0.1), g_predictors=(ConstantPredictor(0.5),),
                            e_predictors=((ConstantPredictor(0.0),) * 3,), delta=0.0)
        assert fits.tau_index(np.float64(0.05)) == 1
        assert fits.tau_index(-0.0) == 0
        assert fits.tau_index(0.1) == 2
        for missing in (0.075, np.float64(0.2)):
            with pytest.raises(ConfigurationError):
                fits.tau_index(missing)

    def test_threshold_outside_the_grid_rejected(self, fitted):
        sample, _, _, fits = fitted
        oracle = oracle_nuisances(DgpSpec("lowdim"), ThresholdGrid((0.1,)))
        for f in (fits, oracle):
            with pytest.raises(ConfigurationError):
                f.cond_error_grid(0, sample.x, (0.1, 0.123))
