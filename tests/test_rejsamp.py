import numpy as np
import pytest

from shiftset import (
    BinaryLearnerSpec,
    BoundViolationError,
    ConfigurationError,
    DegenerateFoldError,
    DgpSpec,
    EmptyAcceptanceError,
    FoldPlan,
    NuisanceFits,
    RiskTargets,
    RngStream,
    RsRun,
    ThresholdGrid,
    dgp_draw,
    fit_nuisances,
    make_folds,
    miscoverage_vector,
    rs_estimate,
    rs_prepare,
)
from shiftset import crossfit, rejsamp
from shiftset.learners import ConstantPredictor, LogisticRidgePredictor
from tests.conftest import make_sample, rs_prepare_on_split, rs_split

TARGETS = RiskTargets(0.05, 0.05)
GRID = ThresholdGrid((0.15,))
LOGIT = BinaryLearnerSpec()


@pytest.fixture
def mean_only_fits(monkeypatch):
    """Every nuisance fit predicts its training labels' mean."""
    def fit_grid(spec, X, Z):
        return tuple(ConstantPredictor(float(np.mean(z)), p=X.shape[1])
                     for z in np.atleast_2d(Z))

    monkeypatch.setattr(crossfit, "fit_binary",
                        lambda spec, X, z, rng=None: fit_grid(spec, X, z)[0])
    monkeypatch.setattr(crossfit, "fit_binary_grid", fit_grid)


class TestRsPrepare:
    def test_fixed_bound_domain(self, rng, monkeypatch):
        # Refused before the halves are read or any weight computed, with
        # the message StudyConfig gives; B = 1 passes the check (see
        # test_fixed_bound_violation).
        def refuse(*args):
            raise AssertionError("a half was read")

        sample = dgp_draw(DgpSpec("lowdim"), 300, rng.child("d"))
        folds, fits = rs_split(sample, GRID, LOGIT, LOGIT, rng.child("r"))
        monkeypatch.setattr(rejsamp, "_check_halves", refuse)
        monkeypatch.setattr(rejsamp, "odds_weight", refuse)
        for bad in (0.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError,
                               match="^fixed bound must be finite and at least 1$"):
                rs_prepare(sample, bad, folds, fits, rng.child("r"))

    def test_run_mechanics(self, rng):
        sample = dgp_draw(DgpSpec("lowdim"), 1000, rng.child("d"))
        run = rs_prepare_on_split(sample, None, GRID, LOGIT, LOGIT, rng.child("r"))
        a_test = sample.a[run.test_idx]
        # accepted units are source units passing the thinning draw
        expected = (a_test == 1) & (run.zeta <= run.what_test / run.bhat)
        np.testing.assert_array_equal(run.accepted, expected)
        # multiplier bound rule, floored at 1
        w_src_max = run.what_test[a_test == 1].max()
        assert run.bhat == pytest.approx(max(1.0, 1.3 * w_src_max))
        assert run.bhat >= w_src_max
        # pi is the mean estimated weight over test source units
        assert run.pi_hat == pytest.approx(run.what_test[a_test == 1].mean())
        assert run.pi_hat > 0
        # split is a partition
        both = np.concatenate([run.train_idx, run.test_idx])
        assert sorted(both.tolist()) == list(range(1000))

    def test_constant_propensity_gives_unit_weights(self, rng, mean_only_fits):
        # g fitted as the constant source share equals gamma_train, so the
        # odds transform collapses to exactly 1 everywhere.
        sample = dgp_draw(DgpSpec("lowdim"), 800, rng.child("d"))
        run = rs_prepare_on_split(sample, None, GRID, LOGIT, LOGIT, rng.child("r"))
        np.testing.assert_allclose(run.what_test, 1.0, atol=1e-12)

    def test_weight_equal_to_bound_accepts_all(self, rng, mean_only_fits):
        sample = dgp_draw(DgpSpec("lowdim"), 800, rng.child("d"))
        run = rs_prepare_on_split(sample, 1.0, GRID, LOGIT, LOGIT, rng.child("r"))
        a_test = sample.a[run.test_idx]
        assert run.n_accepted == int((a_test == 1).sum())

    def test_half_bound_accepts_about_half(self, rng, mean_only_fits):
        # unit weights with B = 2: acceptance probability is exactly 1/2
        sample = dgp_draw(DgpSpec("lowdim"), 2400, rng.child("d"))
        run = rs_prepare_on_split(sample, 2.0, GRID, LOGIT, LOGIT, rng.child("r"))
        n_src = int((sample.a[run.test_idx] == 1).sum())
        assert n_src >= 500
        frac = run.n_accepted / n_src
        se = np.sqrt(0.25 / n_src)
        assert abs(frac - 0.5) <= 3 * se

    def test_fixed_bound_violation(self, rng):
        # estimated lowdim weights exceed 1 somewhere, so B = 1 must fail
        sample = dgp_draw(DgpSpec("lowdim"), 1000, rng.child("d"))
        with pytest.raises(BoundViolationError):
            rs_prepare_on_split(sample, 1.0, GRID, LOGIT, LOGIT, rng.child("r"))

    def test_saturated_propensity_truncated_at_the_guard(self, rng, monkeypatch):
        # expit rounds this propensity to exactly 0 below x1 = -0.75 and to
        # exactly 1 above x1 = 0.04.
        saturated = LogisticRidgePredictor(0.0, [1e3, 0.0, 0.0], 3)
        monkeypatch.setattr(crossfit, "fit_binary", lambda spec, X, z: saturated)
        sample = dgp_draw(DgpSpec("lowdim"), 400, rng.child("d"))
        run = rs_prepare_on_split(sample, None, GRID, LOGIT, LOGIT, rng.child("r"))
        assert run.fits.delta == crossfit.PROPENSITY_GUARD
        X = sample.x[run.test_idx]
        raw, g = saturated.predict(X), run.fits.propensity(0, X)
        assert (raw == 0.0).any() and (raw == 1.0).any()
        np.testing.assert_array_equal(g[raw == 0.0], run.fits.delta)
        np.testing.assert_array_equal(g[raw == 1.0], 1.0 - run.fits.delta)

    def test_determinism(self, rng):
        sample = dgp_draw(DgpSpec("lowdim"), 600, rng.child("d"))
        r1 = rs_prepare_on_split(sample, None, GRID, LOGIT, LOGIT, RngStream(3))
        r2 = rs_prepare_on_split(sample, None, GRID, LOGIT, LOGIT, RngStream(3))
        np.testing.assert_array_equal(r1.accepted, r2.accepted)
        np.testing.assert_array_equal(r1.zeta, r2.zeta)


class TestFoldZero:
    """The run's halves are fold 0 and its complement, with fold 0's fits."""

    @pytest.mark.parametrize("V", [2, 3])
    def test_halves_and_fits_are_fold_zeros(self, rng, V):
        sample = dgp_draw(DgpSpec("lowdim"), 600, rng.child("d"))
        folds = make_folds(sample.n, V, rng.child("f"))
        fits = fit_nuisances(sample, folds, GRID, LOGIT, LOGIT, 0.01)
        run = rs_prepare(sample, None, folds, fits, rng.child("r"))
        np.testing.assert_array_equal(run.test_idx, folds.indices(0))
        np.testing.assert_array_equal(run.train_idx, folds.complement(0))
        # The training share is (V - 1) / V.
        assert run.train_idx.size == sample.n - folds.sizes()[0]
        assert run.fits.g_predictors == fits.g_predictors[:1]
        assert run.fits.e_predictors == fits.e_predictors[:1]
        assert run.fits.delta == crossfit.PROPENSITY_GUARD

        # Fold 0 fitted alone gives the same bits.
        g, e = crossfit.fit_on(sample, folds.complement(0), GRID, LOGIT, LOGIT)
        alone = rs_prepare(sample, None, folds, one_fold_fits(tuple(GRID), g, e),
                           rng.child("r"))
        for name in ("what_test", "zeta", "accepted"):
            assert getattr(alone, name).tobytes() == getattr(run, name).tobytes()
        assert (alone.bhat, alone.pi_hat, alone.gamma_train) == (
            run.bhat, run.pi_hat, run.gamma_train)

    @pytest.mark.parametrize("a, half", [([1, 1, 1, 1, 1, 0, 1, 0], "test"),
                                         ([1, 0, 1, 0, 1, 1, 1, 1], "training")])
    def test_a_half_without_both_populations_is_named(self, rng, a, half):
        # Fold 0 is the first four units, its complement the last four.
        sample = make_sample(a=a, x=[[float(i)] for i in range(8)],
                             score=[0.1 if a_i else None for a_i in a])
        folds = FoldPlan(2, [0] * 4 + [1] * 4)
        fits = one_fold_fits((0.15,), ConstantPredictor(0.5), (ConstantPredictor(0.0),))
        with pytest.raises(DegenerateFoldError,
                           match=f"^{half} half lacks source or target units$"):
            rs_prepare(sample, None, folds, fits, rng.child("r"))


def one_fold_fits(taus, g, e_row):
    return NuisanceFits(taus=taus, g_predictors=(g,), e_predictors=(e_row,), delta=0.0)


def hand_run():
    """Hand-built run: 3 test source units with weights (2, 0.5, 1.5)."""
    sample = make_sample(a=[1, 0, 0, 1, 1, 1],
                         x=[[float(i)] for i in range(6)],
                         score=[0.4, None, None, 0.1, 0.8, 0.6])
    return sample, RsRun(
        train_idx=np.array([0, 1, 2]),
        test_idx=np.array([3, 4, 5]),
        fits=one_fold_fits((0.5,), ConstantPredictor(0.5), (ConstantPredictor(0.0),)),
        gamma_train=1 / 3,
        bhat=2.0,
        zeta=np.array([0.1, 0.2, 0.9]),
        what_test=np.array([2.0, 0.5, 1.5]),
        accepted=np.array([True, True, False]),
        pi_hat=float(np.mean([2.0, 0.5, 1.5])),
    )


class TestRsEstimate:
    def test_pi_hat_of_hand_example(self):
        _, run = hand_run()
        assert run.pi_hat == pytest.approx(4 / 3)

    def test_zero_conditional_error_reduces_to_proportion(self):
        # with the trained conditional-error fit identically zero, the
        # correction vanishes and psi is the accepted-sample proportion
        sample, run = hand_run()
        table = rs_estimate(run, sample, TARGETS)
        # accepted scores are 0.1 (Z=1) and 0.8 (Z=0) -> proportion 1/2
        assert table.psi[0] == pytest.approx(0.5)

    def test_table_carries_no_extras(self):
        # The bound, pi_hat and the acceptance count are read from the run.
        sample, run = hand_run()
        assert rs_estimate(run, sample, TARGETS).extras == {}

    def test_variance_is_positive_here(self):
        sample, run = hand_run()
        table = rs_estimate(run, sample, TARGETS)
        assert table.se[0] > 0
        assert table.cub[0] > table.psi[0]

    def test_below_support_threshold_gives_exact_zero(self, rng):
        sample = dgp_draw(DgpSpec("lowdim"), 600, rng.child("d"))
        grid = ThresholdGrid((0.0, 0.15))
        run = rs_prepare_on_split(sample, None, grid, LOGIT, LOGIT, rng.child("r"))
        table = rs_estimate(run, sample, TARGETS)
        assert table.psi[0] == 0.0
        assert table.se[0] == 0.0
        assert table.cub[0] == 0.0

    def test_empty_acceptance_raises(self, rng):
        sample = dgp_draw(DgpSpec("lowdim"), 300, rng.child("d"))
        with pytest.raises(EmptyAcceptanceError):
            run = rs_prepare_on_split(sample, 1e12, GRID, LOGIT, LOGIT, rng.child("r"))
            rs_estimate(run, sample, TARGETS)

    def test_noshift_estimated_nuisances_recover_level(self):
        # threshold at the true 0.05-quantile: corrected estimate within
        # 3 standard errors of 0.05
        from shiftset import OracleEvaluator

        rng = RngStream(31415)
        spec = DgpSpec("lowdim-noshift")
        tau0 = OracleEvaluator(spec, 400_000, rng.child("tau0")).tau0(0.05)
        grid = ThresholdGrid((tau0,))
        sample = dgp_draw(spec, 8000, rng.child("d"))
        run = rs_prepare_on_split(sample, None, grid, LOGIT, LOGIT, rng.child("r"))
        table = rs_estimate(run, sample, TARGETS)
        assert abs(table.psi[0] - 0.05) <= 3 * table.se[0]


def reference_rs_estimate(run, sample, grid):
    """(psi, sigma) of :func:`rs_estimate`, one threshold at a time."""
    n, n_train, n_test = sample.n, run.train_idx.size, run.test_idx.size
    gamma = run.gamma_train
    a_test = sample.a[run.test_idx].astype(float)
    X_test = sample.x[run.test_idx]
    w = run.what_test
    indicator = (run.zeta <= w / run.bhat).astype(float)
    scores_acc = sample.score[run.accepted_indices()]
    a_train = sample.a[run.train_idx].astype(float)
    train_piece_base = float(np.mean(
        (a_train - gamma) ** 2 / (gamma**2 * (1.0 - gamma) ** 2)))
    psi, sigma = [], []
    for ti, tau in enumerate(grid):
        e_test = np.clip(run.fits.e_predictors[0][ti].predict(X_test), 0.0, 1.0)
        d_tilde = e_test * (-(a_test / gamma) * (w / run.pi_hat)
                            + (1.0 - a_test) / (1.0 - gamma))
        proportion = float(np.mean(miscoverage_vector(scores_acc, tau)))
        psi_tau = proportion + float(np.mean(d_tilde))
        z_full = np.zeros(n_test)
        z_full[run.accepted] = miscoverage_vector(scores_acc, tau)
        test_terms = (run.bhat * (a_test / gamma) * indicator * (z_full - psi_tau)
                      + (a_test * (w - 1.0) / gamma) * psi_tau
                      + d_tilde)
        var = ((n / n_train) * train_piece_base * psi_tau**2
               + (n / n_test) * float(np.mean(test_terms**2)))
        psi.append(psi_tau)
        sigma.append(np.sqrt(var))
    return np.array(psi), np.array(sigma)


class TestRsEstimateMatchesScalarReference:
    @pytest.mark.parametrize("kind", ["lowdim", "highdim-sparse"])
    @pytest.mark.parametrize("learner", ["logistic-ridge", "boosted-stumps"])
    @pytest.mark.parametrize("n,step", [(200, 0.003), (2000, 0.05)])
    def test_learned_runs(self, kind, learner, n, step):
        spec = BinaryLearnerSpec(kind=learner)
        grid = ThresholdGrid.from_range(0.0, 0.3, step)
        root = RngStream(n)
        sample = dgp_draw(DgpSpec(kind), n, root.child("d"))
        run = rs_prepare_on_split(sample, None, grid, spec, spec, root.child("r"))
        table = rs_estimate(run, sample, TARGETS)
        psi, sigma = reference_rs_estimate(run, sample, grid)
        assert table.psi.tobytes() == psi.tobytes()
        assert table.se.tobytes() == (sigma / np.sqrt(n)).tobytes()

    def test_psi_is_squared_as_a_python_float(self):
        # Python squares a float with C pow, which differs from psi * psi in
        # the last bit at this psi.  Two training units against 40 test units
        # make the training piece large enough for that bit to reach sigma.
        a = [1, 0] + [1, 0, 0, 0] * 10
        score = [0.4, None] + [0.1 * (i % 9) if a_i else None
                               for i, a_i in enumerate(a[2:])]
        sample = make_sample(a=a, x=[[float(i)] for i in range(42)], score=score)
        run = RsRun(train_idx=np.array([0, 1]), test_idx=np.arange(2, 42),
                    fits=one_fold_fits((0.5,), ConstantPredictor(0.5),
                                       (ConstantPredictor(0.2329),)),
                    gamma_train=0.5,
                    bhat=2.0, zeta=np.full(40, 0.1), what_test=np.ones(40),
                    accepted=np.array(a[2:]) == 1, pi_hat=1.0)
        grid = ThresholdGrid((0.5,))
        table = rs_estimate(run, sample, TARGETS)
        psi = float(table.psi[0])
        assert psi == 0.8329 and psi**2 != psi * psi
        sigma = reference_rs_estimate(run, sample, grid)[1]
        assert table.se.tobytes() == (sigma / np.sqrt(42)).tobytes()
