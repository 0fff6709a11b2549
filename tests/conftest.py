import functools
import signal

import numpy as np
import pytest

from shiftset import (
    BinaryLearnerSpec,
    DegenerateFoldError,
    DgpSpec,
    FoldEngine,
    FoldPlan,
    NuisanceFits,
    ObservedSample,
    RngStream,
    ThresholdGrid,
    UnfittableFoldError,
    dgp_draw,
    fit_nuisances,
    make_folds,
    rs_prepare,
)
from shiftset import crossfit


@pytest.fixture
def rng():
    return RngStream(1234)


def make_sample(a, x, score):
    """Build an ObservedSample from plain lists (score None for targets)."""
    a = np.asarray(a, dtype=np.int8)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != a.shape[0]:
        x = x.T
    score = np.array([np.nan if s is None else s for s in score], dtype=float)
    return ObservedSample(a=a, x=x, score=score)


def rs_split(sample, grid, g_spec, e_spec, rng):
    """The inputs of ``rs_prepare`` on the half-split that rejection
    sampling once drew for itself: the permutation of ``rng``'s ``rs-split``
    child, whose first ``round(n / 2)`` units train, as a two-fold plan whose
    fold 0 is the test half, and one ``fit_on`` of the training half as
    one-fold fits.  Tests made on that split keep their data."""
    n = sample.n
    perm = rng.child("rs-split").generator().permutation(n)
    assignment = np.zeros(n, dtype=np.int64)
    assignment[perm[:int(round(n * 0.5))]] = 1
    folds = FoldPlan(2, assignment)
    g, e = crossfit.fit_on(sample, folds.complement(0), grid, g_spec, e_spec)
    return folds, NuisanceFits(taus=tuple(grid), g_predictors=(g,),
                               e_predictors=(e,), delta=crossfit.PROPENSITY_GUARD)


def rs_prepare_on_split(sample, bhat_fixed, grid, g_spec, e_spec, rng):
    """``rs_prepare`` on :func:`rs_split`'s inputs, with the arguments that
    it took when it drew that split."""
    return rs_prepare(sample, bhat_fixed, *rs_split(sample, grid, g_spec, e_spec, rng), rng)


class LookupPredictor:
    """Test helper: x -> fixed value keyed on the first covariate."""

    def __init__(self, mapping, default=0.5):
        self.mapping = dict(mapping)
        self.default = default
        self.p = None

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([self.mapping.get(float(row[0]), self.default)
                         for row in X])


# Learned fits on which the fold methods are checked against their scalar
# references: (DGP, learner, n, grid step); a step of 0.003 gives 101
# thresholds on [0, 0.3].
LEARNED_ENGINES = [
    ("lowdim", "logistic-ridge", 30, 0.05),
    ("lowdim", "boosted-stumps", 200, 0.05),
    ("highdim-sparse", "logistic-ridge", 2000, 0.05),
    ("highdim-sparse", "boosted-stumps", 200, 0.003),
    ("lowdim-noshift", "logistic-ridge", 200, 0.003),
    ("lowdim-noshift", "boosted-stumps", 2000, 0.05),
]


@functools.cache
def learned_engine(kind, learner, n, step):
    """The fold engine of the first seed whose folds all hold source and
    target units."""
    spec = BinaryLearnerSpec(kind=learner)
    grid = ThresholdGrid.from_range(0.0, 0.3, step)
    for seed in range(20):
        root = RngStream(seed)
        sample = dgp_draw(DgpSpec(kind), n, root.child("d"))
        folds = make_folds(n, 2, root.child("f"))
        try:
            fits = fit_nuisances(sample, folds, grid, spec, spec, 0.01)
            return FoldEngine(sample, folds, fits)
        except (DegenerateFoldError, UnfittableFoldError):
            continue
    raise AssertionError("no seed gives usable folds")


@pytest.fixture
def deadline():
    """Fail a test that runs for over a minute, instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
