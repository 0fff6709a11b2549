"""Core domain types shared by every estimator.

Data model: each unit is (a, x, score) where ``a`` indicates the population
the unit was drawn from (1 = source, labeled; 0 = target, unlabeled), ``x``
is a covariate vector, and ``score`` is the value of a fixed scoring function
s(x, y) evaluated at the unit's observed label.  Scores exist only for source
units; the scoring model itself is never touched by this library.

Prediction sets are threshold sets C_tau(x) = {y : s(x, y) >= tau}, so a unit
is miscovered exactly when its score falls strictly below the threshold.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ShiftsetError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ShiftsetError, ValueError):
    """Invalid configuration (bad fold counts, risk levels, grids, ...)."""


class DataError(ShiftsetError, ValueError):
    """Malformed or inadmissible input data."""


class DomainError(ShiftsetError, ValueError):
    """Numeric argument outside its mathematical domain."""


class UnfittableFoldError(ShiftsetError, RuntimeError):
    """A fold complement lacks the units needed to fit a nuisance model."""


class DegenerateFoldError(ShiftsetError, RuntimeError):
    """A fold lacks source or target units, so a fold estimate is undefined."""


class EmptyAcceptanceError(ShiftsetError, RuntimeError):
    """Rejection sampling accepted no units."""


class BoundViolationError(ShiftsetError, RuntimeError):
    """An observed importance weight exceeded the fixed rejection bound."""


class WorkerError(ShiftsetError, RuntimeError):
    """A worker process died (say, killed by the OOM killer) before its job
    finished."""


def _is_count(value, least: int = 1) -> bool:
    """Whether ``value`` is an integer, not a bool, of at least ``least``."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least)


def _check_count(value, name: str, least: int = 1) -> None:
    """Raise ConfigurationError unless ``_is_count(value, least)``."""
    if not _is_count(value, least):
        rule = ("a nonnegative integer" if least == 0
                else f"an integer of at least {least}")
        raise ConfigurationError(f"{name} must be {rule}, got {value!r}")


# ---------------------------------------------------------------------------
# Deterministic RNG streams
# ---------------------------------------------------------------------------

def _purpose_key(purpose: str) -> int:
    # CRC32 gives a stable 32-bit key for a named substream across runs.
    return zlib.crc32(purpose.encode("utf-8"))


@dataclass(frozen=True)
class RngStream:
    """A named, replayable random stream.

    Identical (seed, path) always yields an identical sequence; distinct
    paths yield independent-quality streams.  Substreams are derived with
    :meth:`child`, so parallel replications can share one root seed without
    any coordination.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        _check_count(self.seed, "seed", 0)

    def child(self, purpose: str, index: int = 0) -> "RngStream":
        _check_count(index, "substream index", 0)
        return RngStream(self.seed, self.path + (_purpose_key(purpose), int(index)))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservedSample:
    """Array-backed sample of n units.

    ``score`` holds NaN exactly where ``a == 0``; no estimator ever reads
    those entries.  Covariates must be finite, both populations present.
    """

    a: np.ndarray
    x: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        # Checked before the cast, which would truncate 1.7 to 1, wrap 256 to
        # 0 and turn NaN into 0.
        if not np.isin(self.a, (0, 1)).all():
            raise DataError("population indicator must be 0/1")
        a = np.asarray(self.a, dtype=np.int8)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        score = np.asarray(self.score, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "score", score)
        n = a.shape[0]
        if x.shape[0] != n or score.shape[0] != n:
            raise DataError("a, x and score must have one row per unit")
        if not np.isfinite(x).all():
            raise DataError("covariates must be finite")
        has_score = np.isfinite(score)
        if not np.array_equal(has_score, a == 1):
            raise DataError("a score must be present exactly for source units")
        if (a == 1).sum() < 1 or (a == 0).sum() < 1:
            raise DataError("sample must contain at least one source and one target unit")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n_source(self) -> int:
        return int((self.a == 1).sum())

    @property
    def n_target(self) -> int:
        return int((self.a == 0).sum())

    @property
    def is_source(self) -> np.ndarray:
        return self.a == 1


# ---------------------------------------------------------------------------
# Threshold grids, folds, risk targets
# ---------------------------------------------------------------------------

_MAX_GRID_POINTS = 100_000  # from_range refuses larger grids before building them


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly increasing finite set of candidate thresholds."""

    taus: tuple[float, ...]

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        object.__setattr__(self, "taus", taus)
        if len(taus) == 0:
            raise ConfigurationError("threshold grid must be non-empty")
        if not np.isfinite(taus).all():
            raise ConfigurationError("thresholds must be finite")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ConfigurationError("threshold grid must be strictly increasing")

    def __len__(self) -> int:
        return len(self.taus)

    def __iter__(self):
        return iter(self.taus)

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float) -> "ThresholdGrid":
        """Evenly spaced grid lo, lo+step, ..., up to and including hi."""
        if not np.isfinite([lo, hi, step]).all():
            raise ConfigurationError("grid bounds and step must be finite")
        if step <= 0 or hi < lo:
            raise ConfigurationError("grid requires step > 0 and hi >= lo")
        span = (hi - lo) / step
        if not (np.isfinite(span) and round(span) < _MAX_GRID_POINTS):
            raise ConfigurationError(
                f"grid {lo:g}:{hi:g}:{step:g} holds more than {_MAX_GRID_POINTS} thresholds")
        k = int(round(span))
        taus = [round(lo + i * step, 12) for i in range(k + 1)]
        if taus[-1] > hi + 1e-12:
            taus = taus[:-1]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ConfigurationError(
                f"grid step {step:g} is too fine: thresholds are rounded to 12 decimals")
        return cls(tuple(taus))


@dataclass(frozen=True)
class FoldPlan:
    """Partition of unit indices into V folds of near-equal size."""

    V: int
    assignment: np.ndarray

    def __post_init__(self):
        _check_count(self.V, "fold count", 2)
        # Checked before the cast, which would truncate 0.5 to fold 0.
        if not np.isin(self.assignment, np.arange(self.V)).all():
            raise ConfigurationError(f"fold assignment must hold integers in [0, {self.V})")
        assignment = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", assignment)
        counts = np.bincount(assignment, minlength=self.V)
        if counts.min() == 0:
            raise ConfigurationError("assignment does not cover every fold")
        if counts.max() - counts.min() > 1:
            raise ConfigurationError("fold sizes must differ by at most one")

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def indices(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == v)

    def complement(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != v)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.V)


# Recorded when no threshold is certifiable: C_0(x) keeps every label.
SENTINEL_TAU = 0.0


@dataclass(frozen=True)
class RiskTargets:
    """Miscoverage level and confidence level for the PAC criterion."""

    alpha_error: float
    alpha_conf: float

    def __post_init__(self):
        if not (0.0 < self.alpha_error < 1.0):
            raise ConfigurationError("alpha_error must lie strictly inside (0, 1)")
        if not (0.0 < self.alpha_conf < 0.5):
            raise ConfigurationError("alpha_conf must lie strictly inside (0, 0.5)")
        # At or below 2**-54, 1 - alpha_conf is 1.0 and its Wald quantile inf.
        if 1.0 - self.alpha_conf == 1.0:
            raise ConfigurationError(
                f"alpha_conf must exceed 2**-54 (about 5.55e-17), got {self.alpha_conf!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def miscoverage_vector(scores: np.ndarray, tau) -> np.ndarray:
    """Miscoverage labels Z_tau: 1 where a score falls strictly below tau,
    i.e. outside C_tau.  A score equal to tau is covered (kept in the set).
    A sequence of thresholds gives one row of labels per threshold."""
    return (np.asarray(scores) < np.asarray(tau, dtype=float)[..., None]).astype(float)


# When counting ranks pays, from a keys x window grid against np.searchsorted
# over 40 and 500 cuts: from 2,048 keys on, with up to one cut in the window
# per 512 keys, and at most 64 cuts.
_RANK_MIN_KEYS = 2048
_KEYS_PER_CUT = 512
_RANK_WINDOW = 64


def _rank_window(cuts: np.ndarray, keys: np.ndarray) -> tuple[int, int] | None:
    """The left ranks in sorted ``cuts`` of the least non-NaN key and of the
    greatest key (NaN, which ranks past every cut, when there is one), which
    bound every key's rank; None where too few keys or too many cuts between
    the two make counting cost more than a binary search."""
    if keys.size < _RANK_MIN_KEYS or cuts.size == 0 or np.isnan(cuts[-1]):
        return None
    lo, hi = np.searchsorted(cuts, [np.fmin.reduce(keys, axis=None), keys.max()],
                             side="left")
    if hi - lo > min(_RANK_WINDOW, keys.size // _KEYS_PER_CUT):
        return None
    return int(lo), int(hi)


def _rank_left(cuts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cuts, keys, side="left")`` for sorted ``cuts``.

    Within a window (see ``_rank_window``), each key's rank is its upper
    bound less the count of the window's cuts at or above the key: one
    comparison per cut and key, with no branch for the processor to
    mispredict, where a binary search mispredicts about once per key.
    """
    if keys.size >= _RANK_MIN_KEYS:
        # Each pass over strided keys (a column of a design) runs several
        # times slower than over a contiguous copy of them.
        keys = np.ascontiguousarray(keys)
    window = _rank_window(cuts, keys)
    if window is None:
        return np.searchsorted(cuts, keys, side="left")
    lo, hi = window
    at_or_above = np.zeros(keys.shape, dtype=np.uint8)
    le = np.empty(keys.shape, dtype=bool)
    for cut in cuts[lo:hi]:
        np.less_equal(keys, cut, out=le)
        at_or_above += le.view(np.uint8)
    return np.subtract(hi, at_or_above, dtype=np.intp)


def make_folds(n: int, V: int, rng: RngStream) -> FoldPlan:
    """Randomly partition [n] into V folds whose sizes differ by at most 1."""
    _check_count(V, "fold count", 2)
    _check_count(n, "unit count", 0)
    if n < V:
        raise ConfigurationError(f"cannot split {n} units into {V} folds")
    perm = rng.generator().permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = np.arange(n) % V
    return FoldPlan(V=V, assignment=assignment)

