import numpy as np
import pytest

from shiftset import ObservedSample, RngStream


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
