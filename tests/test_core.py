import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftset
from shiftset import (
    ConfigurationError,
    DataError,
    FoldPlan,
    ObservedSample,
    RiskTargets,
    RngStream,
    ThresholdGrid,
    core,
    empirical_gamma,
    make_folds,
    miscoverage_vector,
)
from tests.conftest import make_sample


def miscoverage_indicator(score, tau):
    """The library's miscoverage label for a single score."""
    return miscoverage_vector(np.array([score]), tau)[0]


def reference_miscoverage(score, tau):
    """1 if the scored label falls outside C_tau, i.e. score < tau."""
    return int(score < tau)


class TestMiscoverageIndicator:
    def test_boundary_score_is_covered(self):
        assert miscoverage_indicator(0.3, 0.3) == 0

    def test_strict_inequality(self):
        assert miscoverage_indicator(0.29, 0.3) == 1

    def test_threshold_below_all_scores_covers_everything(self):
        assert miscoverage_indicator(0.5, -1e300) == 0

    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
    def test_nesting_in_tau(self, score, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert miscoverage_indicator(score, lo) <= miscoverage_indicator(score, hi)

    def test_vector_matches_scalar(self):
        scores = np.array([0.1, 0.3, 0.5])
        np.testing.assert_array_equal(miscoverage_vector(scores, 0.3),
                                      [1.0, 0.0, 0.0])

    def test_grid_gives_one_row_per_threshold(self):
        # the score 0.3 equals the second threshold and is covered there
        scores = np.array([0.1, 0.3, 0.5])
        got = miscoverage_vector(scores, (0.2, 0.3, 0.6))
        assert got.dtype == float
        np.testing.assert_array_equal(got, [[1.0, 0.0, 0.0],
                                            [1.0, 0.0, 0.0],
                                            [1.0, 1.0, 1.0]])

    @given(st.lists(st.floats(-10, 10), max_size=20), st.floats(-10, 10))
    def test_vector_matches_reference(self, scores, tau):
        assert miscoverage_vector(np.array(scores), tau).tolist() == [
            reference_miscoverage(s, tau) for s in scores]


class TestMakeFolds:
    def test_even_split_forced(self, rng):
        plan = make_folds(4, 2, rng)
        assert sorted(plan.sizes()) == [2, 2]

    def test_odd_split_gap_one(self, rng):
        plan = make_folds(5, 2, rng)
        assert sorted(plan.sizes()) == [2, 3]

    def test_deterministic(self):
        a = make_folds(1000, 2, RngStream(7).child("folds"))
        b = make_folds(1000, 2, RngStream(7).child("folds"))
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_n_below_v_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            make_folds(3, 4, rng)

    @given(st.integers(4, 60), st.integers(2, 5), st.integers(0, 10))
    @settings(max_examples=40)
    def test_partition_property(self, n, v, seed):
        if n < v:
            return
        plan = make_folds(n, v, RngStream(seed))
        seen = np.concatenate([plan.indices(k) for k in range(v)])
        assert sorted(seen.tolist()) == list(range(n))
        sizes = plan.sizes()
        assert sizes.max() - sizes.min() <= 1


class TestEmpiricalGamma:
    def test_half(self):
        s = make_sample([1, 1, 0, 0], [[0.0]] * 4, [0.5, 0.6, None, None])
        assert empirical_gamma(s, [0, 1, 2, 3]) == 0.5

    def test_all_source_subset(self):
        s = make_sample([1, 1, 0, 0], [[0.0]] * 4, [0.5, 0.6, None, None])
        assert empirical_gamma(s, [0, 1]) == 1.0

    def test_quarter(self):
        s = make_sample([1, 0, 0, 0], [[0.0]] * 4, [0.5, None, None, None])
        assert empirical_gamma(s, [0, 1, 2, 3]) == 0.25

    def test_empty_rejected(self):
        s = make_sample([1, 0], [[0.0]] * 2, [0.5, None])
        with pytest.raises(ConfigurationError):
            empirical_gamma(s, [])


class TestRngStream:
    def test_replay_bit_for_bit(self):
        a = RngStream(42).child("draws", 3).generator().standard_normal(100)
        b = RngStream(42).child("draws", 3).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_purposes_differ(self):
        a = RngStream(42).child("x").generator().standard_normal(10)
        b = RngStream(42).child("y").generator().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = RngStream(42).child("x", 0).generator().standard_normal(10)
        b = RngStream(42).child("x", 1).generator().standard_normal(10)
        assert not np.array_equal(a, b)


class TestSampleTypes:
    def test_score_presence_enforced(self):
        with pytest.raises(DataError):
            make_sample([1, 0], [[0.0], [0.0]], [None, None])
        with pytest.raises(DataError):
            make_sample([1, 0], [[0.0], [0.0]], [0.5, 0.2])

    def test_both_populations_required(self):
        with pytest.raises(DataError):
            make_sample([1, 1], [[0.0], [0.0]], [0.5, 0.2])

    def test_unit_round_trip(self):
        # Each row of the arrays is one unit: (a, x, score), NaN for targets.
        s = make_sample([1, 0], [[1.0], [2.0]], [0.7, None])
        assert (int(s.a[0]), s.x[0].tolist(), float(s.score[0])) == (1, [1.0], 0.7)
        assert np.isnan(s.score[1])
        rebuilt = ObservedSample(a=s.a.copy(), x=s.x.copy(), score=s.score.copy())
        np.testing.assert_array_equal(rebuilt.x, s.x)
        np.testing.assert_array_equal(rebuilt.score, s.score)

    def test_unit_validation(self):
        # A target unit carrying a score, and a source unit without one.
        with pytest.raises(DataError):
            make_sample([1, 0], [[1.0], [2.0]], [0.5, 0.5])
        with pytest.raises(DataError):
            make_sample([1, 0], [[1.0], [2.0]], [np.nan, None])
        with pytest.raises(DataError):
            make_sample([1, 0], [[1.0], [2.0]], [np.inf, None])


class TestThresholdGrid:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ConfigurationError):
            ThresholdGrid((0.1, 0.1))
        with pytest.raises(ConfigurationError):
            ThresholdGrid(())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_thresholds_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ThresholdGrid((0.1, bad))
        with pytest.raises(ConfigurationError):
            ThresholdGrid((bad,))
        for args in ((0.0, bad, 0.05), (bad, 0.3, 0.05), (0.0, 0.3, bad)):
            with pytest.raises(ConfigurationError):
                ThresholdGrid.from_range(*args)

    @pytest.mark.parametrize("args", [(0.0, 1e300, 1e-300), (-1e308, 1e308, 1.0)])
    def test_non_finite_point_count_rejected(self, args):
        # (hi - lo) / step overflows to inf: no OverflowError from int(round(inf))
        with pytest.raises(ConfigurationError, match="more than"):
            ThresholdGrid.from_range(*args)

    def test_oversized_point_count_rejected_before_building(self):
        limit = core._MAX_GRID_POINTS
        assert len(ThresholdGrid.from_range(0.0, limit - 1.0, 1.0)) == limit
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="more than"):
                ThresholdGrid.from_range(0.0, float(limit), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # a list of limit + 1 thresholds takes megabytes

    @pytest.mark.parametrize("args", [(0.0, 1e-13, 1e-14), (0.1, 0.1 + 5e-13, 1e-13)])
    def test_step_below_rounding_rejected(self, args):
        # thresholds are rounded to 12 decimals, so these steps repeat values
        with pytest.raises(ConfigurationError, match=f"step {args[2]:g}"):
            ThresholdGrid.from_range(*args)

    def test_from_range_hits_endpoints(self):
        grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
        assert list(grid) == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]

    def test_from_score_quantiles(self):
        s = make_sample([1] * 9 + [0],
                        [[float(i)] for i in range(10)],
                        [i / 10 for i in range(1, 10)] + [None])
        grid = ThresholdGrid.from_score_quantiles(s, 3)
        assert len(grid) == 3
        assert all(0.1 <= t <= 0.9 for t in grid)


class TestRiskTargets:
    @pytest.mark.parametrize("ae,ac", [(0.0, 0.05), (1.0, 0.05), (0.05, 0.0),
                                       (0.05, 1.0), (0.05, 0.5)])
    def test_domain(self, ae, ac):
        with pytest.raises(ConfigurationError):
            RiskTargets(alpha_error=ae, alpha_conf=ac)

    def test_interior_ok(self):
        RiskTargets(alpha_error=0.05, alpha_conf=0.05)


class TestFoldPlan:
    def test_bad_assignment_rejected(self):
        with pytest.raises(ConfigurationError):
            FoldPlan(V=2, assignment=np.array([0, 0, 0]))
        with pytest.raises(ConfigurationError):
            FoldPlan(V=3, assignment=np.array([0, 1, 0, 1]))


PUBLIC_NAMES = """
    ALL_METHODS AggregateRow BinaryLearnerSpec BoundViolationError
    CalibrationSet ConfigurationError ConstantPredictor CoverageTable
    DGP_KINDS DataError DegenerateFoldError DgpSpec DomainError
    EmptyAcceptanceError FittedPredictor FoldEngine FoldPlan IcpThreshold
    METHODS NuisanceFits ObservedSample OracleEvaluator ReplicationReport
    ReplicationRow RiskTargets RngStream RsConfig RsRun ShiftsetError
    StudyConfig ThresholdDecision ThresholdGrid UnfittableFoldError dgp_draw
    empirical_gamma fit_binary fit_nuisances inductive_cp_threshold
    make_folds miscoverage_vector normal_upper_quantile odds_weight
    onestep_estimate oracle_nuisances oracle_psi oracle_psi_curve
    oracle_tau0 plugin_estimate rs_estimate rs_prepare run_study
    select_threshold tmle_estimate weighted_cp_set weighted_plugin_estimate
    weighted_quantile_cutoffs wilson_interval
""".split()


def test_public_surface_is_pinned():
    # A name joins or leaves the package's exports only with this list.
    exported = {name for name in shiftset.__all__
                if not isinstance(getattr(shiftset, name), types.ModuleType)}
    assert sorted(exported) == sorted(PUBLIC_NAMES)
