import tracemalloc
import types
import warnings

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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
            RngStream(seed)

    @pytest.mark.parametrize("index", [-1, 1.5, True, "1"])
    def test_child_index_must_be_a_nonnegative_integer(self, index):
        with pytest.raises(ConfigurationError,
                           match="substream index must be a nonnegative integer"):
            RngStream(3).child("a", index)

    def test_numpy_integers_are_accepted(self):
        assert RngStream(np.int64(3)).child("a", np.uint8(1)) == RngStream(3).child("a", 1)


class TestSampleTypes:
    def test_score_presence_enforced(self):
        with pytest.raises(DataError):
            make_sample([1, 0], [[0.0], [0.0]], [None, None])
        with pytest.raises(DataError):
            make_sample([1, 0], [[0.0], [0.0]], [0.5, 0.2])

    def test_both_populations_required(self):
        with pytest.raises(DataError):
            make_sample([1, 1], [[0.0], [0.0]], [0.5, 0.2])

    @pytest.mark.parametrize("a, x, score, message", [
        ([1, 0], [[0.0], [0.0], [0.0]], [0.5, np.nan], "one row per unit"),
        ([1, 0], [[0.0], [0.0]], [0.5, np.nan, 0.2], "one row per unit"),
        ([1, 2], [[0.0], [0.0]], [0.5, np.nan], "must be 0/1"),
    ])
    def test_rows_and_indicator_checked(self, a, x, score, message):
        with pytest.raises(DataError, match=message):
            ObservedSample(a=np.array(a), x=np.array(x), score=np.array(score))

    @pytest.mark.parametrize("a", [[1, 1.7, 0], [1, 256, 0], [1, np.nan, 0]],
                             ids=["fraction", "wraps-to-0", "nan"])
    def test_indicator_checked_before_the_cast(self, a):
        # An int8 cast would make these [1, 1, 0], [1, 0, 0] and [1, 0, 0].
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^population indicator must be 0/1$"):
                ObservedSample(a=np.array(a), x=np.zeros((3, 1)), score=[0.5, 0.5, np.nan])

    def test_bool_indicator_accepted(self):
        s = ObservedSample(a=np.array([True, False]), x=[[1.0], [2.0]], score=[0.5, np.nan])
        assert s.a.dtype == np.int8 and s.a.tolist() == [1, 0]

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

    @pytest.mark.parametrize("args", [(0.0, 0.3, 0.0), (0.0, 0.3, -0.05), (0.3, 0.0, 0.05)])
    def test_step_and_order_checked(self, args):
        with pytest.raises(ConfigurationError, match=r"step > 0 and hi >= lo"):
            ThresholdGrid.from_range(*args)

    def test_from_range_hits_endpoints(self):
        grid = ThresholdGrid.from_range(0.0, 0.3, 0.05)
        assert list(grid) == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]

    def test_from_range_drops_a_point_past_hi(self):
        # 0.28 rounds to six steps, whose end, 0.3, lies past it.
        grid = ThresholdGrid.from_range(0.0, 0.28, 0.05)
        assert list(grid) == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]


class TestRiskTargets:
    # At or below 2**-54, 1 - alpha_conf rounds to 1 and the Wald quantile
    # is inf.
    @pytest.mark.parametrize("ae,ac", [(0.0, 0.05), (1.0, 0.05), (0.05, 0.0),
                                       (0.05, 1.0), (0.05, 0.5), (0.05, 1e-17),
                                       (0.05, 2**-54)])
    def test_domain(self, ae, ac):
        with pytest.raises(ConfigurationError):
            RiskTargets(alpha_error=ae, alpha_conf=ac)

    def test_interior_ok(self):
        RiskTargets(alpha_error=0.05, alpha_conf=0.05)


# Cut values with duplicates, signed zeros and infinities, so that drawn
# keys often equal a cut.
RANK_VALUES = (st.sampled_from([-np.inf, -1.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, np.inf])
               | st.floats(-3.0, 3.0))


@st.composite
def rank_cases(draw):
    """Sorted cuts, and keys drawn from a few values (NaN among them), some
    strided; at 2,048 keys and more the kernel may count."""
    cuts = np.sort(np.array(draw(st.lists(RANK_VALUES, max_size=100)), dtype=float))
    pool = np.array(draw(st.lists(RANK_VALUES | st.just(np.nan), min_size=1, max_size=6)))
    n = draw(st.sampled_from([0, 1, 5, 2047, 2048, 5000, 40_000]))
    step = draw(st.sampled_from([1, 3]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cuts, gen.choice(pool, size=n * step)[::step]


class TestRankLeft:
    """``core._rank_left`` is ``np.searchsorted(cuts, keys, side="left")``,
    whether it counts or searches."""

    @staticmethod
    def assert_searchsorted(cuts, keys):
        got = core._rank_left(cuts, keys)
        want = np.searchsorted(cuts, keys, side="left")
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(rank_cases())
    def test_matches_searchsorted(self, case):
        self.assert_searchsorted(*case)

    @pytest.mark.parametrize("n", [2048, 40_000])
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_counts_up_to_the_gate(self, n, past):
        # Keys from 99.5 to 99.5 + width span `width` of the cuts 0..199.
        gate = min(core._RANK_WINDOW, n // core._KEYS_PER_CUT)
        width = {-1: 0, 0: gate, 1: gate + 1}[past]
        keys = np.random.default_rng(n).uniform(99.5, 99.5 + width, n)
        keys[:2] = 99.5, 99.5 + width
        cuts = np.arange(200.0)
        assert (core._rank_window(cuts, keys) is None) == (past == 1)
        self.assert_searchsorted(cuts, keys)
        # Duplicate cuts count as one cut each.
        self.assert_searchsorted(np.repeat(cuts, 2), keys)

    @pytest.mark.parametrize("keys", [
        np.full(3000, np.nan),
        np.r_[np.full(2999, 199.5), np.nan],
        np.r_[np.full(1500, np.inf), np.full(1500, -np.inf)],
        np.r_[np.full(1500, 0.0), np.full(1500, -0.0)],
        np.empty(0),
    ], ids=["all-nan", "nan-past-every-cut", "infinities", "signed-zeros", "empty"])
    @pytest.mark.parametrize("cuts", [
        np.arange(200.0), np.r_[-np.inf, -0.0, 0.0, np.inf], np.empty(0),
    ], ids=["range", "infinities-and-zeros", "no-cuts"])
    def test_edge_keys_and_cuts(self, keys, cuts):
        self.assert_searchsorted(cuts, keys)
        self.assert_searchsorted(cuts, np.repeat(keys, 2)[::2])


class TestFoldPlan:
    def test_bad_assignment_rejected(self):
        with pytest.raises(ConfigurationError):
            FoldPlan(V=2, assignment=np.array([0, 0, 0]))
        with pytest.raises(ConfigurationError):
            FoldPlan(V=3, assignment=np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("V, assignment, message", [
        (1, [0, 0, 0], "^fold count must be an integer of at least 2, got 1$"),
        (2, [0, 0, 0, 1], "^fold sizes must differ by at most one$"),
    ])
    def test_fold_count_and_balance_checked(self, V, assignment, message):
        with pytest.raises(ConfigurationError, match=message):
            FoldPlan(V=V, assignment=np.array(assignment))

    @pytest.mark.parametrize("V", [2.0, 2.5, True, "2"])
    def test_fold_count_must_be_an_integer(self, V):
        with pytest.raises(ConfigurationError,
                           match=f"^fold count must be an integer of at least 2, got {V!r}$"):
            FoldPlan(V=V, assignment=np.array([0, 1]))

    @pytest.mark.parametrize("assignment", [
        [0.5, 1.5, 0.2, 1.9], [0, 1, -1], [0, 1, 2], [0, 1, np.nan],
    ], ids=["fractions", "negative", "past-V", "nan"])
    def test_assignment_must_hold_fold_indices(self, assignment):
        # Cast first, the fractions became folds [0, 1, 0, 1], -1 and NaN
        # a bare ValueError from np.bincount, and 2 "does not cover every fold".
        with pytest.raises(ConfigurationError,
                           match=r"^fold assignment must hold integers in \[0, 2\)$"):
            FoldPlan(V=2, assignment=np.array(assignment))

    def test_integral_floats_are_fold_indices(self):
        plan = FoldPlan(V=2, assignment=np.array([1.0, 0.0, 1.0]))
        assert plan.assignment.dtype == np.int64 and plan.assignment.tolist() == [1, 0, 1]


PUBLIC_NAMES = """
    AggregateRow BinaryLearnerSpec BoundViolationError
    ConfigurationError ConstantPredictor CoverageTable
    DGP_KINDS DataError DegenerateFoldError DgpSpec DomainError
    EmptyAcceptanceError FittedPredictor FoldEngine FoldPlan IcpThreshold
    METHODS NuisanceFits ObservedSample OracleEvaluator ReplicationReport
    ReplicationRow RiskTargets RngStream RsRun ShiftsetError
    StudyConfig ThresholdDecision ThresholdGrid UnfittableFoldError dgp_draw
    fit_binary fit_nuisances inductive_cp_threshold
    make_folds miscoverage_vector odds_weight
    onestep_estimate oracle_nuisances
    plugin_estimate rs_estimate rs_prepare run_study
    select_threshold tmle_estimate weighted_plugin_estimate
    weighted_quantile_cutoffs wilson_interval
""".split()


def test_public_surface_is_pinned():
    # A name joins or leaves the package's exports only with this list.
    exported = {name for name in shiftset.__all__
                if not isinstance(getattr(shiftset, name), types.ModuleType)}
    assert sorted(exported) == sorted(PUBLIC_NAMES)
