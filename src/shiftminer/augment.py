"""Time-dimension augmentation of pruned series.

Three transforms, all length-preserving and value-range-preserving:

* time warp: resample along a smooth random monotone distortion of the
  index axis, built from spline-smoothed positive speeds.
* window warp: stretch or compress one random window (a tenth of the
  length, by 0.5x or 2x) and resample back to the original length.
* window slice: take a random contiguous 90% slice and stretch it back.

Every transform keeps the parent's timestamp grid: the distortions are
index-space operations and inventing warped calendar dates would corrupt
source semantics. Outputs carry a provenance record naming the parent,
the method, and the seed that produced them.

Each transform is a values kernel (``*_values``: array in, array out) plus
a wrapper that builds the output :class:`TimeSeries`. ``augment_set``
works on the kernels so it can test a parent's candidates as one batch
and build each output series once. The wrappers take an integer seed
(anything ``operator.index`` accepts, numpy integers included) and record
it; a ``Generator`` raises ``TypeError``, since no recorded seed could
reproduce its draws.
"""

from __future__ import annotations

import hashlib
import logging
import operator
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .changepoint import DetectorConfig, SeriesTooShortError
# Shift verification of a batch of candidates. ``augment_set`` reaches it
# through this module name, which perfbench's tracer wraps to time it.
from .changepoint import classify_rows as classify
from .series import AugmentMethod, MAX_SEED, Provenance, Stage, TimeSeries

logger = logging.getLogger(__name__)

# Lower bound on warp speeds; keeps the path strictly increasing when the
# spline overshoots or a knot draw comes out negative.
SPEED_FLOOR = 0.1


@dataclass(frozen=True)
class AugmentConfig:
    """Hyperparameters for the three transforms and the expansion loop."""

    knot_count: int = 3
    knot_mu: float = 1.0
    knot_sigma: float = 0.2
    window_warp_fraction: float = 0.10
    warp_scales: tuple[float, ...] = (0.5, 2.0)
    slice_fraction: float = 0.90
    factor: int = 30
    verify_shift: bool = True
    max_retries: int = 10
    master_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "warp_scales", tuple(sorted(self.warp_scales)))
        if self.knot_count < 1:
            raise ValueError("knot_count must be >= 1")
        if self.knot_sigma < 0:
            raise ValueError("knot_sigma must be >= 0")
        if not 0 < self.window_warp_fraction < 1:
            raise ValueError("window_warp_fraction must be in (0, 1)")
        if not self.warp_scales or any(s <= 0 for s in self.warp_scales):
            raise ValueError("warp_scales must be positive")
        if not 0 < self.slice_fraction < 1:
            raise ValueError("slice_fraction must be in (0, 1)")
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if self.factor % 3 != 0:
            raise ValueError("factor must be divisible by 3 for round-robin allocation")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.master_seed is not None and not 0 <= self.master_seed <= MAX_SEED:
            raise ValueError("master_seed must fit in 64 unsigned bits")


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

    def as_array(self) -> np.ndarray:
        return np.asarray(self.mapping, dtype=float)


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from arbitrary parts (hash-based, not salted)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def gen_warp_path(n: int, config: AugmentConfig, rng: int | np.random.Generator) -> WarpPath:
    """Random smooth monotone warp path of length ``n``.

    Speeds are drawn at ``knot_count`` evenly spaced interior knots from
    Normal(knot_mu, knot_sigma), clamped to the speed floor, with the two
    boundary speeds fixed at 1. A natural cubic spline through the knots
    gives a per-index speed curve; its clamped cumulative sum, rescaled to
    end exactly at ``n - 1``, is the path. All speeds equal means the
    identity path.
    """
    if n < 4:
        raise SeriesTooShortError(f"warp path needs length >= 4, got {n}")
    return WarpPath(mapping=tuple(_warp_positions(n, config, np.random.default_rng(rng))))


def _warp_positions(n: int, config: AugmentConfig, gen: np.random.Generator) -> np.ndarray:
    anchors = np.linspace(0.0, n - 1.0, config.knot_count + 2)
    speeds = np.empty(config.knot_count + 2)
    speeds[0] = speeds[-1] = 1.0
    speeds[1:-1] = np.maximum(
        SPEED_FLOOR, gen.normal(config.knot_mu, config.knot_sigma, config.knot_count)
    )
    spline = CubicSpline(anchors, speeds, bc_type="natural")
    per_index = np.maximum(SPEED_FLOOR, spline(np.arange(n, dtype=float)))
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (per_index[:-1] + per_index[1:]))))
    path = cumulative * ((n - 1.0) / cumulative[-1])
    path[0] = 0.0
    path[-1] = float(n - 1)
    return path


def _resample(values: np.ndarray, positions: np.ndarray) -> np.ndarray:
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
        values=tuple(values.tolist()),
        stage=Stage.AUGMENTED,
        provenance=Provenance(
            parent_id=parent.id, method=method, seed=seed, shift_verified=verified
        ),
        comment=parent.comment,
    )


def time_warp_values(values: np.ndarray, config: AugmentConfig, seed: int) -> np.ndarray:
    """``values`` resampled along the warp path that ``seed`` draws."""
    n = values.size
    if n < 4:
        raise SeriesTooShortError(f"time warp needs length >= 4, got {n}")
    return _resample(values, _warp_positions(n, config, np.random.default_rng(seed)))


def time_warp(
    series: TimeSeries, config: AugmentConfig, seed: int, out_id: str | None = None
) -> TimeSeries:
    """Resample the values along a random smooth monotone warp path."""
    seed = operator.index(seed)
    warped = time_warp_values(series.values_array(), config, seed)
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


def window_warp_values(values: np.ndarray, config: AugmentConfig, seed: int) -> np.ndarray:
    """Warp one random window by a random scale; draws start then scale."""
    n = values.size
    if n < 10:
        raise SeriesTooShortError(f"window warp needs length >= 10, got {n}")
    gen = np.random.default_rng(seed)
    width = max(1, round(config.window_warp_fraction * n))
    start = int(gen.integers(0, n - width + 1))
    scale = float(gen.choice(config.warp_scales))
    return apply_window_warp(values, start, width, scale)


def window_warp(
    series: TimeSeries, config: AugmentConfig, seed: int, out_id: str | None = None
) -> TimeSeries:
    """Warp one random window by a random scale; draws start then scale."""
    seed = operator.index(seed)
    warped = window_warp_values(series.values_array(), config, seed)
    return _augmented(series, warped, AugmentMethod.WINDOW_WARP, seed, out_id)


def apply_window_slice(values: np.ndarray, start: int, length: int) -> np.ndarray:
    """Stretch ``values[start:start+length]`` back to the original length."""
    values = np.asarray(values, dtype=float)
    window = values[start : start + length]
    return _resample(window, np.linspace(0.0, length - 1.0, values.size))


def window_slice_values(values: np.ndarray, config: AugmentConfig, seed: int) -> np.ndarray:
    """Interpolate a random contiguous slice back to full length."""
    n = values.size
    if n < 10:
        raise SeriesTooShortError(f"window slice needs length >= 10, got {n}")
    gen = np.random.default_rng(seed)
    length = max(2, round(config.slice_fraction * n))
    start = int(gen.integers(0, n - length + 1))
    return apply_window_slice(values, start, length)


def window_slice(
    series: TimeSeries, config: AugmentConfig, seed: int, out_id: str | None = None
) -> TimeSeries:
    """Interpolate a random contiguous slice back to full length."""
    seed = operator.index(seed)
    sliced = window_slice_values(series.values_array(), config, seed)
    return _augmented(series, sliced, AugmentMethod.WINDOW_SLICE, seed, out_id)


_METHOD_CYCLE = (
    (AugmentMethod.TIME_WARP, time_warp_values),
    (AugmentMethod.WINDOW_WARP, window_warp_values),
    (AugmentMethod.WINDOW_SLICE, window_slice_values),
)


def _draws(
    parent: TimeSeries, config: AugmentConfig, detector: DetectorConfig
) -> list[tuple[AugmentMethod, int, np.ndarray, bool]]:
    """Method, seed, values and verified flag of each of one parent's
    ``factor`` outputs, in ordinal order.

    Each round draws every pending ordinal at the round's attempt number
    and tests the whole batch with one ``classify`` call; the candidates
    that lost their shift are redrawn in the next round.
    """
    values = parent.values_array()
    draws: list[tuple[AugmentMethod, int, np.ndarray]] = [None] * config.factor
    verified: set[int] = set()
    pending = list(range(config.factor))
    for attempt in range(config.max_retries):
        for ordinal in pending:
            seed = derive_seed(config.master_seed, parent.id, ordinal, attempt)
            method, kernel = _METHOD_CYCLE[ordinal % 3]
            draws[ordinal] = (method, seed, kernel(values, config, seed))
        if not config.verify_shift:
            pending = []
            break
        shifted = classify(np.stack([draws[ordinal][2] for ordinal in pending]), detector)
        verified.update(ordinal for ordinal, ok in zip(pending, shifted) if ok)
        pending = [ordinal for ordinal, ok in zip(pending, shifted) if not ok]
        if not pending:
            break
    for ordinal in pending:  # every attempt failed: window-slice the last seed
        seed = draws[ordinal][1]
        sliced = window_slice_values(values, config, seed)
        draws[ordinal] = (AugmentMethod.WINDOW_SLICE, seed, sliced)
    return [(*draw, ordinal in verified) for ordinal, draw in enumerate(draws)]


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

    out: list[TimeSeries] = []
    unverified = 0
    for series in pruned:
        for ordinal, (method, seed, values, verified) in enumerate(
            _draws(series, config, detector)
        ):
            out.append(
                _augmented(series, values, method, seed, f"{series.id}-aug{ordinal}", verified)
            )
            unverified += not verified

    if out and config.verify_shift:
        share = unverified / len(out)
        logger.info(
            "augmented %d series from %d parents; %d (%.1f%%) unverified",
            len(out), len(pruned), unverified, 100.0 * share,
        )
    return out
