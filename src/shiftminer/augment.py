"""Time-dimension augmentation of pruned series.

Three transforms, all length-preserving and value-range-preserving:

* time warp (Um et al., ICMI 2017): resample along a smooth random
  monotone distortion of the index axis. Positive speeds drawn at a few
  equally spaced knots are joined by a natural cubic spline, computed in
  closed form with numpy (one small tridiagonal solve, then one cubic per
  knot interval), and their running sum is the path.
* window warp: stretch or compress one random window (a tenth of the
  length, by 0.5x or 2x) and resample back to the original length.
* window slice: take a random contiguous 90% slice and stretch it back.

Every transform keeps the parent's timestamp grid: the distortions are
index-space operations and inventing warped calendar dates would corrupt
source semantics. Outputs carry a provenance record naming the parent,
the method, and the seed that produced them.

Each transform is one row-batched kernel (``*_rows``: one parent's values
and a list of seeds in, one row per seed out), and each seed draws from its
own generator, as it would alone. Time warp computes every row's path in one
stacked spline pass (a stacked solve with one right-hand side per row, which
unlike one solve with many right-hand sides is bit-identical to solving each
row alone) and resamples them in one ``np.interp``. The window transforms
interpolate each row's own window with ``np.interp`` (``apply_window_*``):
a gathered 2-D form was slower for one row and for long series. Every row is
bit-identical to the same seed drawn alone. The one-row transforms
(``time_warp`` and the rest) are one-row calls of the row kernels that build
the output :class:`TimeSeries`. ``augment_set`` draws each round of a
parent's candidates as one batch per method, tests the round with one
``classify`` call, and builds each output series once. The one-row
transforms take an integer seed (anything ``operator.index`` accepts, numpy
integers included) and record it; a ``Generator`` raises ``TypeError``,
since no recorded seed could reproduce its draws.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass

import numpy as np

from .changepoint import DetectorConfig, SeriesTooShortError
# Shift verification of a batch of candidates. ``augment_set`` reaches it
# through this module name, which perfbench's tracer wraps to time it.
from .changepoint import classify_rows as classify
from .series import AugmentMethod, Provenance, Stage, TimeSeries, is_int, is_real

# Lower bound on warp speeds; keeps the path strictly increasing when the
# spline overshoots or a knot draw comes out negative.
SPEED_FLOOR = 0.1

KNOT_MU = 1.0
WINDOW_WARP_FRACTION = 0.10
WARP_SCALES = (0.5, 2.0)
SLICE_FRACTION = 0.90


@dataclass(frozen=True)
class AugmentConfig:
    """Hyperparameters for the three transforms and the expansion loop. The paper
    fixes the transforms' shapes: KNOT_MU, WINDOW_WARP_FRACTION, WARP_SCALES and
    SLICE_FRACTION are module constants."""

    knot_count: int = 3
    knot_sigma: float = 0.2
    factor: int = 30
    verify_shift: bool = True
    max_retries: int = 10
    master_seed: int | None = None

    def __post_init__(self) -> None:
        for key in ("knot_count", "factor", "max_retries"):
            if not is_int(getattr(self, key)) or getattr(self, key) < 1:
                raise ValueError(f"{key} must be an int >= 1: {getattr(self, key)!r}")
        if not is_real(self.knot_sigma) or not 0 <= self.knot_sigma < math.inf:
            raise ValueError(f"knot_sigma must be a finite real number >= 0: {self.knot_sigma!r}")
        if not isinstance(self.verify_shift, bool):
            raise ValueError(f"verify_shift must be true or false: {self.verify_shift!r}")
        if self.factor % 3 != 0:
            raise ValueError("factor must be divisible by 3 for round-robin allocation")


@dataclass(frozen=True)
class WarpPath:
    """Fractional source index for each output index: strictly increasing,
    pinned to the first and last input positions."""

    mapping: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(float(p) for p in self.mapping))
        p = self.mapping
        if len(p) < 2:
            raise ValueError("warp path needs >= 2 points")
        if p[0] != 0.0 or p[-1] != float(len(p) - 1):
            raise ValueError("warp path endpoints must be 0 and n-1")
        if any(b <= a for a, b in zip(p, p[1:])):
            raise ValueError("warp path must be strictly increasing")


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from arbitrary parts (hash-based, not salted)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def gen_warp_path(n: int, config: AugmentConfig, rng: int | np.random.Generator) -> WarpPath:
    """Random smooth monotone warp path of length ``n``.

    Speeds are drawn at ``knot_count`` evenly spaced interior knots from
    Normal(KNOT_MU, knot_sigma), clamped to the speed floor, with the two
    boundary speeds fixed at 1. A natural cubic spline through the knots
    gives a per-index speed curve; its clamped cumulative sum, rescaled to
    end exactly at ``n - 1``, is the path. All speeds equal means the
    identity path.
    """
    if n < 4:
        raise SeriesTooShortError(f"warp path needs length >= 4, got {n}")
    return WarpPath(mapping=tuple(_warp_paths(n, config, [rng])[0]))


def _warp_paths(n: int, config: AugmentConfig, seeds: list) -> np.ndarray:
    """One warp path per seed (or ``Generator``), a row each."""
    rows, inner = len(seeds), config.knot_count
    anchors = np.linspace(0.0, n - 1.0, inner + 2)
    speeds = np.ones((rows, inner + 2))
    draws = [np.random.default_rng(seed).normal(KNOT_MU, config.knot_sigma, inner)
             for seed in seeds]
    speeds[:, 1:-1] = np.maximum(SPEED_FLOOR, draws)
    # Natural cubic spline through the knots: second derivatives M of 0 at the
    # ends, and M[i-1] + 4 M[i] + M[i+1] = 6 (y[i-1] - 2 y[i] + y[i+1]) / h**2,
    # in one stacked solve with one right-hand side per row (see above).
    h = anchors[1]
    tridiagonal = 4.0 * np.eye(inner) + np.eye(inner, k=1) + np.eye(inner, k=-1)
    rhs = 6.0 / (h * h) * np.diff(speeds, 2, axis=1)
    curv = np.zeros((rows, inner + 2))
    curv[:, 1:-1] = np.linalg.solve(tridiagonal, rhs[..., np.newaxis])[..., 0]
    # each index is a cubic in its offset t from its interval's left knot,
    # with coefficients computed once per interval
    lo, hi = curv[:, :-1], curv[:, 1:]
    cubic, square = (hi - lo) / (6.0 * h), lo / 2.0
    linear = (speeds[:, 1:] - speeds[:, :-1]) / h - h * (2.0 * lo + hi) / 6.0
    x = np.arange(n, dtype=float)
    seg = np.minimum((x / h).astype(np.intp), inner)
    t = x - anchors[seg]
    spline = ((cubic[:, seg] * t + square[:, seg]) * t + linear[:, seg]) * t + speeds[:, seg]
    per_index = np.maximum(SPEED_FLOOR, spline)
    cumulative = np.zeros((rows, n))
    cumulative[:, 1:] = np.cumsum(0.5 * (per_index[:, :-1] + per_index[:, 1:]), axis=1)
    path = cumulative * ((n - 1.0) / cumulative[:, -1:])
    path[:, 0] = 0.0
    path[:, -1] = float(n - 1)
    return path


def _resample(values: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``values`` linearly interpolated at ``positions`` (any shape)."""
    out = np.interp(positions, np.arange(values.size, dtype=float), values)
    # linear interpolation is a convex combination; clip only mops up
    # last-ulp rounding so the range-preservation contract is exact
    return np.clip(out, values.min(), values.max())


def _augmented(
    parent: TimeSeries,
    values: np.ndarray,
    method: AugmentMethod,
    seed: int,
    out_id: str | None,
    verified: bool = False,
) -> TimeSeries:
    return TimeSeries(
        id=out_id or f"{parent.id}-{method.value}",
        source=parent.source,
        timestamps=parent.timestamps,
        values=values,
        stage=Stage.AUGMENTED,
        provenance=Provenance(
            parent_id=parent.id, method=method, seed=seed, shift_verified=verified
        ),
        comment=parent.comment,
    )


def time_warp_rows(values: np.ndarray, config: AugmentConfig, seeds: list[int]) -> np.ndarray:
    """``values`` resampled along the warp path each seed draws, a row per seed."""
    n = values.size
    if n < 4:
        raise SeriesTooShortError(f"time warp needs length >= 4, got {n}")
    return _resample(values, _warp_paths(n, config, seeds))


def time_warp(
    series: TimeSeries, config: AugmentConfig, seed: int, out_id: str | None = None
) -> TimeSeries:
    """Resample the values along a random smooth monotone warp path."""
    seed = operator.index(seed)
    warped = time_warp_rows(series.values, config, [seed])[0]
    return _augmented(series, warped, AugmentMethod.TIME_WARP, seed, out_id)


def apply_window_warp(
    values: np.ndarray, start: int, width: int, scale: float
) -> np.ndarray:
    """Stretch ``values[start:start+width]`` by ``scale`` then resample the
    concatenation back to the original length."""
    values = np.asarray(values, dtype=float)
    n = values.size
    window = values[start : start + width]
    target = max(1, round(scale * width))
    stretched = np.interp(
        np.linspace(0.0, width - 1.0, target), np.arange(width, dtype=float), window
    )
    combined = np.concatenate((values[:start], stretched, values[start + width :]))
    return _resample(combined, np.linspace(0.0, combined.size - 1.0, n))


def window_warp_rows(values: np.ndarray, config: AugmentConfig, seeds: list[int]) -> np.ndarray:
    """One random window warped by a random scale, a row per seed; each seed
    draws start then scale."""
    n = values.size
    if n < 10:
        raise SeriesTooShortError(f"window warp needs length >= 10, got {n}")
    width = max(1, round(WINDOW_WARP_FRACTION * n))
    rows = np.empty((len(seeds), n))
    for row, seed in zip(rows, seeds):
        gen = np.random.default_rng(seed)
        start = int(gen.integers(0, n - width + 1))
        row[:] = apply_window_warp(values, start, width, WARP_SCALES[gen.integers(0, 2)])
    return rows


def window_warp(
    series: TimeSeries, config: AugmentConfig, seed: int, out_id: str | None = None
) -> TimeSeries:
    """Warp one random window by a random scale; draws start then scale."""
    seed = operator.index(seed)
    warped = window_warp_rows(series.values, config, [seed])[0]
    return _augmented(series, warped, AugmentMethod.WINDOW_WARP, seed, out_id)


def apply_window_slice(values: np.ndarray, start: int, length: int) -> np.ndarray:
    """Stretch ``values[start:start+length]`` back to the original length."""
    values = np.asarray(values, dtype=float)
    window = values[start : start + length]
    return _resample(window, np.linspace(0.0, length - 1.0, values.size))


def window_slice_rows(values: np.ndarray, config: AugmentConfig, seeds: list[int]) -> np.ndarray:
    """A random contiguous slice interpolated back to full length, a row per seed."""
    n = values.size
    if n < 10:
        raise SeriesTooShortError(f"window slice needs length >= 10, got {n}")
    length = max(2, round(SLICE_FRACTION * n))
    rows = np.empty((len(seeds), n))
    for row, seed in zip(rows, seeds):
        start = int(np.random.default_rng(seed).integers(0, n - length + 1))
        row[:] = apply_window_slice(values, start, length)
    return rows


def window_slice(
    series: TimeSeries, config: AugmentConfig, seed: int, out_id: str | None = None
) -> TimeSeries:
    """Interpolate a random contiguous slice back to full length."""
    seed = operator.index(seed)
    sliced = window_slice_rows(series.values, config, [seed])[0]
    return _augmented(series, sliced, AugmentMethod.WINDOW_SLICE, seed, out_id)


_METHOD_CYCLE = (
    (AugmentMethod.TIME_WARP, time_warp_rows),
    (AugmentMethod.WINDOW_WARP, window_warp_rows),
    (AugmentMethod.WINDOW_SLICE, window_slice_rows),
)


def _draws(
    parent: TimeSeries, config: AugmentConfig, detector: DetectorConfig
) -> list[tuple[AugmentMethod, int, np.ndarray, bool]]:
    """Method, seed, values and verified flag of each of one parent's
    ``factor`` outputs, in ordinal order.

    Each round draws every pending ordinal at the round's attempt number, one
    row batch per method, and tests the whole round with one ``classify``
    call; the candidates that lost their shift are redrawn in the next round.
    """
    values = parent.values
    rows = np.empty((config.factor, values.size))
    methods = [method for method, _ in _METHOD_CYCLE] * (config.factor // 3)
    seeds = [0] * config.factor
    verified = [False] * config.factor
    pending = list(range(config.factor))
    for attempt in range(config.max_retries):
        for offset, (_, kernel) in enumerate(_METHOD_CYCLE):
            batch = [ordinal for ordinal in pending if ordinal % 3 == offset]
            for ordinal in batch:
                seeds[ordinal] = derive_seed(config.master_seed, parent.id, ordinal, attempt)
            if batch:
                rows[batch] = kernel(values, config, [seeds[ordinal] for ordinal in batch])
        if not config.verify_shift:
            pending = []
            break
        shifted = classify(rows[pending], detector).tolist()
        for ordinal, ok in zip(pending, shifted):
            verified[ordinal] = ok
        pending = [ordinal for ordinal, ok in zip(pending, shifted) if not ok]
        if not pending:
            break
    if pending:  # every attempt failed: window-slice the last seeds
        rows[pending] = window_slice_rows(values, config, [seeds[o] for o in pending])
        for ordinal in pending:
            methods[ordinal] = AugmentMethod.WINDOW_SLICE
    return list(zip(methods, seeds, rows, verified))


def augment_set(
    pruned: list[TimeSeries], config: AugmentConfig, detector: DetectorConfig
) -> list[TimeSeries]:
    """Expand every pruned series into ``factor`` augmented series.

    Methods are allocated round-robin (a third each). Each output draws
    its own seed from (master seed, parent id, output ordinal, attempt),
    so results do not depend on iteration order or parallel schedule.

    With ``verify_shift`` on, a candidate that no longer shows a shift is
    redrawn with a fresh seed up to ``max_retries`` times; if every
    attempt fails, the window-slice variant of the last attempt is emitted
    with ``shift_verified=False`` (slicing keeps a change point whenever
    the slice covers it, and the flag marks the unverified survivor).
    Originals are not included in the output.
    """
    if config.master_seed is None:
        raise ValueError("augment_set needs a resolved master_seed")
    for series in pruned:
        if series.stage is not Stage.PRUNED:
            raise ValueError(f"augment_set input {series.id!r} is not in the pruned stage")

    return [
        _augmented(series, values, method, seed, f"{series.id}-aug{ordinal}", verified)
        for series in pruned
        for ordinal, (method, seed, values, verified) in enumerate(
            _draws(series, config, detector)
        )
    ]
