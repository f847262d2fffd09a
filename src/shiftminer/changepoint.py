"""Penalized offline change point detection for pruning shift-free series.

A segmentation of ``x[0:n]`` is described by boundaries
``nu_1 < ... < nu_m`` with the end sentinel ``nu_m == n``; segment ``k``
covers ``[nu_{k-1}, nu_k)`` with ``nu_0 == 0``. The score minimized is

    sum_k cost(x[nu_{k-1}:nu_k]) + beta * (m - 1)

where ``cost`` is the squared distance of a segment from its own mean
(the Gaussian mean-shift model) and ``beta`` charges each internal
boundary. The end sentinel is free, so a constant series scores 0 with
the single-segment solution regardless of ``beta``.

Two solvers are provided: greedy binary segmentation (penalized, or with
a fixed split count ``k``) and an exact dynamic program over (position, segments used)
for a fixed split count, which serves as the quality oracle for the greedy
search. All tie-breaks prefer the smallest index so results are
deterministic across platforms and thread schedules.

The shift test used by pruning and augmentation needs only the yes/no
answer of binary segmentation, and that answer is decided by its first
greedy split: later rounds only add boundaries. :func:`classify_rows`
therefore computes just the best single split of each series, for a
whole batch of equal-length series in one prefix-sum pass, and
:func:`classify` is its one-series form.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import Stage, TimeSeries, is_int, is_real

logger = logging.getLogger(__name__)

# Scale of the adaptive penalty beta = PENALTY_SCALE * sigma2_hat * log(n),
# with sigma2_hat the first-difference variance estimate (robust to mean
# shifts). Frozen after Monte Carlo calibration: standard normal noise of
# length 120 stays split-free in >= 90/100 seeds while a one-sigma step at
# midpoint is detected in >= 95/100 seeds (see scripts/calibrate_penalty.py).
PENALTY_SCALE = 3.0


class EmptySegmentError(ValueError):
    """Segment start index is not strictly before its end index."""


class OutOfBoundsError(ValueError):
    """Segment indices fall outside the series."""


class InvalidSegmentationError(ValueError):
    """Boundary set violates the segmentation invariants."""


class SeriesTooShortError(ValueError):
    """Series is too short for the requested operation."""


class InfeasibleKError(ValueError):
    """Requested split count cannot fit the series length."""


class ShiftCategory(enum.Enum):
    NO_SHIFT = "no_shift"
    SHIFT = "shift"


@dataclass(frozen=True)
class DetectorConfig:
    """Detection parameters.

    ``penalty_beta=None`` selects the adaptive default
    ``PENALTY_SCALE * sigma2_hat * log(n)`` computed per series.
    """

    penalty_beta: float | None = None
    min_segment_size: int = 2

    def __post_init__(self) -> None:
        beta = self.penalty_beta
        if beta is not None and (not is_real(beta) or not 0 <= beta < math.inf):
            raise ValueError(f"penalty_beta must be null or a finite real number >= 0: {beta!r}")
        if not is_int(self.min_segment_size) or self.min_segment_size < 1:
            raise ValueError(f"min_segment_size must be an int >= 1: {self.min_segment_size!r}")


@dataclass(frozen=True)
class ChangePointSet:
    """Strictly increasing boundaries ending at the series length."""

    boundaries: tuple[int, ...]
    objective: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundaries", tuple(int(b) for b in self.boundaries))
        if not self.boundaries:
            raise InvalidSegmentationError("boundary set must be non-empty")
        if self.boundaries[0] <= 0:
            raise InvalidSegmentationError("boundaries must be positive")
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise InvalidSegmentationError("boundaries must be strictly increasing")

    @property
    def n_internal(self) -> int:
        return len(self.boundaries) - 1

    def segments(self) -> list[tuple[int, int]]:
        starts = (0,) + self.boundaries[:-1]
        return list(zip(starts, self.boundaries))


def l2_cost(values: Sequence[float], start: int, end: int) -> float:
    """Squared distance of ``values[start:end]`` from its sample mean."""
    n = len(values)
    if start >= end:
        raise EmptySegmentError(f"empty segment [{start}, {end})")
    if start < 0 or end > n:
        raise OutOfBoundsError(f"segment [{start}, {end}) outside series of length {n}")
    seg = np.asarray(values[start:end], dtype=float)
    return float(np.sum((seg - seg.mean()) ** 2))


class _PrefixCost:
    """O(1) segment cost queries after an O(n) prefix sum pass."""

    def __init__(self, values: np.ndarray) -> None:
        self.s1 = np.concatenate(([0.0], np.cumsum(values)))
        self.s2 = np.concatenate(([0.0], np.cumsum(values * values)))

    def cost(self, starts, ends) -> np.ndarray:
        """The cost of ``[start, end)``, vectorized over one or both endpoints."""
        total = self.s2[ends] - self.s2[starts]
        lin = self.s1[ends] - self.s1[starts]
        return np.maximum(0.0, total - lin * lin / (np.asarray(ends) - starts))


def default_penalty(values: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Adaptive boundary charge ``PENALTY_SCALE * sigma2_hat * log(n)``.

    ``sigma2_hat = mean(diff(x)^2) / 2`` estimates the noise variance from
    first differences, which a small number of level shifts barely moves.
    Computed along the last axis, so a 2-D input gives one charge per row.
    ``PENALTY_SCALE`` is read at each call, so a calibration sweep can set it.
    """
    x = np.asarray(values, dtype=float)
    n = x.shape[-1] if x.ndim else 0
    if n < 2:
        raise SeriesTooShortError("need >= 2 values to estimate a penalty")
    sigma2 = 0.5 * np.mean(np.diff(x) ** 2, axis=-1)
    return PENALTY_SCALE * sigma2 * math.log(n)


def _resolve_penalty(values: np.ndarray, config: DetectorConfig) -> float | np.ndarray:
    if config.penalty_beta is not None:
        return config.penalty_beta
    return default_penalty(values)


def _validate_boundaries(
    cps: ChangePointSet, n: int, min_segment_size: int
) -> list[tuple[int, int]]:
    """The segments of ``cps`` over ``n`` points, after the two checks
    :class:`ChangePointSet` cannot make: the last boundary is ``n``, and no
    segment is shorter than ``min_segment_size``."""
    if cps.boundaries[-1] != n:
        raise InvalidSegmentationError(f"boundaries must end with the series length {n}")
    segments = cps.segments()
    for start, end in segments:
        if end - start < min_segment_size:
            raise InvalidSegmentationError(
                f"segment [{start}, {end}) shorter than min_segment_size={min_segment_size}"
            )
    return segments


def total_objective(
    values: Sequence[float], cps: ChangePointSet, config: DetectorConfig
) -> float:
    """Segment cost sum plus ``beta`` per internal boundary.

    The end sentinel is not charged: a single-segment solution pays no
    penalty at all.
    """
    segments = _validate_boundaries(cps, len(values), config.min_segment_size)
    beta = _resolve_penalty(np.asarray(values, dtype=float), config)
    cost = sum(l2_cost(values, start, end) for start, end in segments)
    return cost + beta * cps.n_internal


def _best_split(
    cost: _PrefixCost, start: int, end: int, min_size: int
) -> tuple[float, int] | None:
    """Max cost reduction single split of ``[start, end)``, smallest index on ties."""
    lo, hi = start + min_size, end - min_size
    if lo > hi:
        return None
    candidates = np.arange(lo, hi + 1)
    gains = cost.cost(start, end) - cost.cost(start, candidates) - cost.cost(candidates, end)
    idx = int(np.argmax(gains))
    return float(gains[idx]), int(candidates[idx])


def binary_segmentation(
    values: Sequence[float], config: DetectorConfig, k: int | None = None
) -> ChangePointSet:
    """Greedy recursive splitting.

    Each round evaluates the best single split of every current segment
    and applies the globally best one. Without ``k`` (penalized search) a
    split is kept only while its cost reduction strictly exceeds ``beta``;
    with ``k`` exactly that many splits are made, stopping early only when
    no admissible split remains.
    """
    if k is not None and k < 0:
        raise InfeasibleKError(f"split count must be >= 0, got {k}")
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < max(2, config.min_segment_size):
        raise SeriesTooShortError(f"series of length {n} cannot be segmented")
    cost = _PrefixCost(x)
    beta = _resolve_penalty(x, config)

    boundaries = [n]
    while k is None or len(boundaries) - 1 < k:
        best: tuple[float, int] | None = None
        prev = 0
        for b in boundaries:
            found = _best_split(cost, prev, b, config.min_segment_size)
            if found is not None and (best is None or found[0] > best[0]):
                best = found
            prev = b
        if best is None:
            break
        gain, split = best
        if k is None and gain <= beta:
            break
        boundaries = sorted(boundaries + [split])

    objective = sum(cost.cost([0] + boundaries[:-1], boundaries)) + beta * (len(boundaries) - 1)
    return ChangePointSet(boundaries=tuple(boundaries), objective=float(objective))


def exact_segmentation(
    values: Sequence[float], k: int, config: DetectorConfig
) -> ChangePointSet:
    """Globally optimal segmentation with exactly ``k`` internal boundaries.

    Dynamic program over (position, segments remaining); quadratic in the
    series length, intended for lengths up to a couple of thousand. Ties
    resolve to the lexicographically smallest boundary sequence.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    m = config.min_segment_size
    if n < max(2, m):
        raise SeriesTooShortError(f"series of length {n} cannot be segmented")
    if k < 0 or (k + 1) * m > n:
        raise InfeasibleKError(
            f"{k} internal boundaries need length >= {(k + 1) * m}, have {n}"
        )

    cost = _PrefixCost(x)
    beta = _resolve_penalty(x, config)
    if k == 0:
        return ChangePointSet(boundaries=(n,), objective=float(cost.cost(0, n)))

    inf = float("inf")
    # suffix[j][s]: best cost of covering x[s:n] with j segments
    suffix = np.full((k + 2, n + 1), inf)
    suffix[1][: n - m + 1] = cost.cost(np.arange(n - m + 1), n)
    for j in range(2, k + 2):
        for s in range(n - j * m, -1, -1):
            ts = np.arange(s + m, n - (j - 1) * m + 1)
            suffix[j][s] = float(np.min(cost.cost(s, ts) + suffix[j - 1][ts]))

    boundaries: list[int] = []
    s = 0
    for j in range(k + 1, 1, -1):
        ts = np.arange(s + m, n - (j - 1) * m + 1)
        totals = cost.cost(s, ts) + suffix[j - 1][ts]
        s = int(ts[int(np.argmin(totals))])
        boundaries.append(s)
    boundaries.append(n)

    objective = sum(cost.cost([0] + boundaries[:-1], boundaries)) + beta * k
    return ChangePointSet(boundaries=tuple(boundaries), objective=float(objective))


def classify_rows(values: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """Shift flag per row of a 2-D array of equal-length series.

    Row ``i`` is True exactly when :func:`binary_segmentation` of its
    z-scored values (as in :func:`classify`) keeps an internal boundary.
    That is decided by the first greedy split alone, kept exactly when its
    cost reduction exceeds ``beta``. Only that split is computed, for all rows
    in one prefix-sum pass with the same floating-point operations as the full
    search.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise ValueError("classify_rows needs a 2-D array, one series per row")
    rows, n = x.shape
    m = config.min_segment_size
    if n < max(2, m):
        raise SeriesTooShortError(f"series of length {n} cannot be segmented")
    if n < 2 * m:
        return np.zeros(rows, dtype=bool)

    std = x.std(axis=1, keepdims=True)
    flat = std[:, 0] == 0
    z = (x - x.mean(axis=1, keepdims=True)) / np.where(flat[:, None], 1.0, std)
    z[flat] = 0.0
    beta = _resolve_penalty(z, config)

    s1 = np.cumsum(z, axis=1)
    s2 = np.cumsum(z * z, axis=1)
    splits = np.arange(m, n - m + 1)
    lin, sq = s1[:, splits - 1], s2[:, splits - 1]
    lin_n, sq_n = s1[:, -1:], s2[:, -1:]
    rest = lin_n - lin
    whole = np.maximum(0.0, sq_n - lin_n * lin_n / n)
    left = np.maximum(0.0, sq - lin * lin / splits)
    right = np.maximum(0.0, (sq_n - sq) - rest * rest / (n - splits))
    return (whole - left - right).max(axis=1) > beta


def classify(series: TimeSeries, config: DetectorConfig) -> ShiftCategory:
    """Standardize a series and bucket it by shift presence.

    Values are z-scored first so the penalty is comparable across sources
    with different units; a constant series standardizes to zeros and is
    shift-free. The series has a shift exactly when the
    first greedy split of binary segmentation is kept (see
    :func:`classify_rows`, of which this is the one-series form).
    """
    x = series.values
    if x.size < max(2, config.min_segment_size):
        raise SeriesTooShortError(f"series {series.id!r} too short to classify")
    if classify_rows(x[np.newaxis], config)[0]:
        return ShiftCategory.SHIFT
    return ShiftCategory.NO_SHIFT


def detect(series: TimeSeries, config: DetectorConfig) -> ChangePointSet:
    """Segment a series on the same standardized scale ``classify`` uses."""
    x = series.values
    std = float(x.std())
    z = (x - x.mean()) / std if std > 0 else np.zeros_like(x)
    return binary_segmentation(z, config)


def prune(dataset: list[TimeSeries], config: DetectorConfig) -> list[TimeSeries]:
    """Keep only series with a detected shift, restamped to the pruned stage.

    The series of each length are classified together, in one
    :func:`classify_rows` call, with the decisions :func:`classify` makes one
    at a time. A series too short to classify is logged and skipped; any other
    error propagates. Order is preserved.
    """
    by_length: dict[int, list[int]] = {}
    for index, series in enumerate(dataset):
        by_length.setdefault(len(series), []).append(index)
    shifted: list[bool | None] = [None] * len(dataset)  # None: too short
    for n, indices in by_length.items():
        if n >= max(2, config.min_segment_size):
            flags = classify_rows(np.stack([dataset[i].values for i in indices]), config)
            for index, flag in zip(indices, flags.tolist()):
                shifted[index] = flag
    kept: list[TimeSeries] = []
    for series, flag in zip(dataset, shifted):
        if flag is None:
            logger.warning("skipping %s: series %r too short to classify", series.id, series.id)
        elif flag:
            kept.append(series.with_stage(Stage.PRUNED))
    return kept
