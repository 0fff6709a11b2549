import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincinv
from scipy.stats import beta, binom

import shiftset
from shiftset import (
    CalibrationSet,
    DomainError,
    ConfigurationError,
    RiskTargets,
    inductive_cp_threshold,
    weighted_cp_set,
    weighted_quantile_cutoffs,
)

TARGETS = RiskTargets(0.05, 0.05)


def exact_binom_tail(m, p, k):
    """Pr(Bin(m, p) >= k) by direct summation (oracle, no scipy)."""
    return sum(math.comb(m, j) * p**j * (1 - p) ** (m - j)
               for j in range(k, m + 1))


class TestIncompleteBetaForms:
    """The library uses scipy.special's incomplete beta in place of
    scipy.stats distributions; both must give the same bits."""

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9])
    def test_binomial_tail(self, alpha):
        for m in [*range(1, 130), 250, 1000, 1001, 5000]:
            ks = np.arange(1, m + 1)
            tail = binom.sf(ks - 1, m, alpha)
            cal = CalibrationSet(np.arange(m, dtype=float))
            feasible = np.flatnonzero(tail >= 1.0 - 0.05)
            res = inductive_cp_threshold(cal, RiskTargets(alpha, 0.05))
            assert res.k == (int(feasible[-1]) + 1 if feasible.size else None)
            np.testing.assert_array_equal(betainc(ks, m - ks + 1, alpha), tail)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
    def test_order_statistic_quantile(self, q):
        for m in [*range(1, 60), 500, 1000, 10000]:
            for k in sorted({1, 2, max(1, m // 3), max(1, m // 2), m}):
                if k > m:
                    continue
                assert betaincinv(k, m + 1 - k, q) == beta.ppf(q, k, m + 1 - k)

    def test_import_leaves_scipy_stats_out(self):
        src = os.path.dirname(os.path.dirname(shiftset.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, shiftset, shiftset.cli; "
                "print('scipy.stats' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"


class TestInductiveCp:
    def test_hundred_points(self):
        # with m=100 and both risks at 0.05 the rule certifies k=2:
        # Pr(Bin >= 2) ~ 0.963 >= 0.95 while Pr(Bin >= 3) ~ 0.882 < 0.95
        assert exact_binom_tail(100, 0.05, 2) >= 0.95
        assert exact_binom_tail(100, 0.05, 3) < 0.95
        scores = np.linspace(0.01, 1.0, 100)
        res = inductive_cp_threshold(CalibrationSet(scores), TARGETS)
        assert res.k == 2
        assert res.tau == pytest.approx(np.sort(scores)[1])
        assert not res.is_sentinel

    def test_single_point_sentinel(self):
        res = inductive_cp_threshold(CalibrationSet(np.array([0.4])), TARGETS)
        assert res.is_sentinel and res.tau == 0.0 and res.k is None

    def test_lax_error_level_takes_max_score(self):
        scores = np.array([0.2, 0.9, 0.5, 0.1, 0.7])
        res = inductive_cp_threshold(CalibrationSet(scores),
                                     RiskTargets(0.999, 0.05))
        assert res.k == 5
        assert res.tau == 0.9

    def test_rule_matches_exact_tail_oracle(self):
        for m in (10, 37, 250):
            scores = np.linspace(0, 1, m)
            res = inductive_cp_threshold(CalibrationSet(scores), TARGETS)
            ks = [k for k in range(1, m + 1)
                  if exact_binom_tail(m, 0.05, k) >= 0.95]
            if not ks:
                assert res.is_sentinel
            else:
                assert res.k == max(ks)

    def test_monotone_in_calibration_size(self):
        last_k = 0
        for m in range(1, 120):
            res = inductive_cp_threshold(CalibrationSet(np.linspace(0, 1, m)),
                                         TARGETS)
            k = 0 if res.is_sentinel else res.k
            assert k >= last_k
            last_k = k


def reference_weighted_quantile_cutoff(cal_scores, cal_weights, test_weight,
                                       alpha_error):
    """One test point at a time: the smallest calibration score at which the
    normalized cumulative weight, counting the test point's mass below every
    score, reaches alpha_error; -inf when the test mass alone reaches it."""
    total = float(cal_weights.sum() + test_weight)
    level = alpha_error * total - test_weight
    if level <= 0.0:
        return float("-inf")
    order = np.argsort(cal_scores, kind="stable")
    cum = np.cumsum(cal_weights[order])
    pos = min(int(np.searchsorted(cum, level, side="left")), cal_scores.size - 1)
    return float(cal_scores[order][pos])


def weighted_quantile_cutoff(cal_scores, cal_weights, test_weight, alpha_error):
    """The library's cutoff for a single test point."""
    return weighted_quantile_cutoffs(cal_scores, cal_weights, [test_weight],
                                     alpha_error)[0]


class TestWeightedQuantile:
    def test_hand_example(self):
        cutoff = weighted_quantile_cutoff(np.array([0.1, 0.2, 0.3]),
                                          np.array([1.0, 1.0, 2.0]),
                                          test_weight=0.0, alpha_error=0.25)
        assert cutoff == 0.1

    def test_single_point_dominated_by_calibration(self):
        # the test point's weight share is below the level: beyond its mass
        # the single calibration score decides membership
        cutoff = weighted_quantile_cutoff(np.array([0.6]), np.array([0.9]),
                                          test_weight=0.1, alpha_error=0.25)
        assert cutoff == 0.6

    def test_test_mass_alone_reaches_level(self):
        cutoff = weighted_quantile_cutoff(np.array([0.6]), np.array([0.5]),
                                          test_weight=0.5, alpha_error=0.5)
        assert cutoff == -np.inf

    def test_degenerate_weights(self):
        with pytest.raises(DomainError):
            weighted_quantile_cutoff(np.array([0.5]), np.array([0.0]), 0.0, 0.1)

    @given(st.integers(1, 60), st.floats(0.01, 0.6), st.integers(0, 5))
    @settings(max_examples=60)
    def test_equal_weights_reduce_to_split_conformal(self, m, alpha, seed):
        # oracle: the split-conformal rank rule, keeping a candidate iff its
        # score is at least the (m+1-ceil((1-alpha)(m+1)))-th smallest
        # calibration score.  At integer alpha*(m+1) the pooling convention
        # sits one order statistic lower (more conservative) by design, so
        # those boundary cases are excluded here.
        t = alpha * (m + 1)
        if abs(t - round(t)) < 1e-6:
            return
        gen = np.random.default_rng(seed)
        scores = np.round(gen.uniform(size=m), 3)
        j = m + 1 - math.ceil((1 - alpha) * (m + 1))  # allowed count below
        srt = np.sort(scores)
        oracle_cutoff = -np.inf if j <= 0 else srt[j - 1]
        cutoff = weighted_quantile_cutoff(scores, np.ones(m), 1.0, alpha)
        assert cutoff == oracle_cutoff

    def test_vectorized_matches_scalar(self):
        gen = np.random.default_rng(7)
        scores = gen.uniform(size=40)
        weights = gen.uniform(0.1, 2.0, size=40)
        tws = np.array([0.0, 0.5, 3.0, 50.0])
        vec = weighted_quantile_cutoffs(scores, weights, tws, 0.1)
        for tw, v in zip(tws, vec):
            assert v == reference_weighted_quantile_cutoff(scores, weights, tw, 0.1)

    @given(st.lists(st.tuples(st.integers(0, 6).map(lambda k: k / 6),
                              st.sampled_from([0.0, 0.1, 1.0, 2.5])),
                    min_size=1, max_size=30),
           st.lists(st.sampled_from([0.0, 0.3, 1.0, 40.0]), min_size=1,
                    max_size=5),
           st.sampled_from([0.05, 0.1, 0.5, 0.9]))
    @settings(max_examples=60)
    def test_vectorized_matches_reference_with_ties(self, cal, tws, alpha):
        scores, weights = (np.array(c) for c in zip(*cal))
        if weights.sum() + min(tws) <= 0.0:
            return
        vec = weighted_quantile_cutoffs(scores, weights, tws, alpha)
        assert list(vec) == [reference_weighted_quantile_cutoff(
            scores, weights, tw, alpha) for tw in tws]

    @pytest.mark.parametrize("scores, weights, tws", [
        ([], [], [1.0]),                 # empty calibration arrays
        ([0.1, 0.2], [1.0], [1.0]),      # misaligned scores and weights
        ([0.1, 0.2], [1.0, 1.0], []),    # no test weight
    ])
    def test_malformed_input_rejected(self, scores, weights, tws):
        with pytest.raises(ConfigurationError):
            weighted_quantile_cutoffs(np.array(scores), np.array(weights),
                                      np.array(tws), 0.1)

    @pytest.mark.parametrize("weights, tws", [
        ([1.0, np.nan, 1.0], [1.0]),     # NaN calibration weight
        ([1.0, 1.0, 1.0], [1.0, np.nan]),  # NaN test weight
    ])
    def test_nan_weight_rejected(self, weights, tws):
        with pytest.raises(DomainError):
            weighted_quantile_cutoffs(np.array([0.1, 0.2, 0.3]), np.array(weights),
                                      np.array(tws), 0.1)

    def test_tied_scores_pool_weight(self):
        cutoff = weighted_quantile_cutoff(np.array([0.2, 0.2, 0.4]),
                                          np.array([0.1, 0.2, 0.7]),
                                          test_weight=0.0, alpha_error=0.25)
        assert cutoff == 0.2


class TestWeightedCpSet:
    def test_membership_rule(self):
        members = weighted_cp_set(np.array([0.1, 0.2, 0.3]),
                                  np.array([1.0, 1.0, 2.0]), 0.0,
                                  np.array([0.05, 0.1, 0.25]),
                                  RiskTargets(0.25, 0.05))
        np.testing.assert_array_equal(members, [False, True, True])

    def test_everything_included_under_dominant_test_mass(self):
        members = weighted_cp_set(np.array([0.5]), np.array([0.1]), 10.0,
                                  np.array([-5.0, 0.0, 5.0]),
                                  RiskTargets(0.25, 0.05))
        assert members.all()
