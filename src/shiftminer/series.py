"""Core domain types shared by every pipeline stage.

A :class:`TimeSeries` is one univariate sampled series with calendar
timestamps at date resolution, a source tag, a pipeline stage tag, and
(for augmented samples) a provenance record pointing back at its parent.
All types are immutable after construction and validate their invariants
eagerly, so a constructed value is always safe to share across threads.
"""

from __future__ import annotations

import enum
import numbers
import operator
from dataclasses import dataclass, fields, replace
from datetime import date
from typing import Sequence

import numpy as np


class SeriesError(ValueError):
    """A series value violates a structural invariant."""


class TooShortError(SeriesError):
    """Fewer than two valid samples."""


class NonMonotonicTimestampsError(SeriesError):
    """Timestamps are not strictly increasing."""


class NonFiniteValueError(SeriesError):
    """A value is NaN or infinite."""


class Source(enum.Enum):
    FRED = "fred"
    EIA = "eia"
    YAHOO = "yahoo"
    TRENDS = "trends"
    SYNTHETIC = "synthetic"


class Stage(enum.Enum):
    ORIGINAL = "original"
    PRUNED = "pruned"
    AUGMENTED = "augmented"


class AugmentMethod(enum.Enum):
    TIME_WARP = "time_warp"
    WINDOW_WARP = "window_warp"
    WINDOW_SLICE = "window_slice"


MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class Provenance:
    """How an augmented series was derived from its parent."""

    parent_id: str
    method: AugmentMethod
    seed: int
    shift_verified: bool

    def __post_init__(self) -> None:
        if not self.parent_id:
            raise SeriesError("provenance parent_id must be non-empty")
        if not 0 <= self.seed <= MAX_SEED:
            raise SeriesError("provenance seed must fit in 64 unsigned bits")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One sampled series plus its pipeline metadata.

    ``values`` is a read-only float64 copy of what the caller passed.
    Series compare equal when every field does, ``values`` exactly; they
    are not hashable.

    Invariants (checked at construction):

    * ``values`` is 1-D and ``len(timestamps) == len(values) >= 2``
    * timestamps strictly increasing
    * every value finite
    * ``stage == AUGMENTED`` exactly when ``provenance`` is present
    """

    id: str
    source: Source
    timestamps: tuple[date, ...]
    values: np.ndarray
    stage: Stage
    provenance: Provenance | None = None
    comment: str = ""

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        if not self.id:
            raise SeriesError("series id must be non-empty")
        if values.shape != (len(self.timestamps),):
            raise SeriesError(
                f"series {self.id!r}: values of shape {values.shape} do not match "
                f"{len(self.timestamps)} timestamps"
            )
        if values.size < 2:
            raise TooShortError(f"series {self.id!r} has {values.size} samples, need >= 2")
        if any(map(operator.ge, self.timestamps, self.timestamps[1:])):
            raise NonMonotonicTimestampsError(
                f"series {self.id!r} timestamps must be strictly increasing"
            )
        if not np.isfinite(values).all():
            raise NonFiniteValueError(f"series {self.id!r} contains non-finite values")
        if (self.stage is Stage.AUGMENTED) != (self.provenance is not None):
            raise SeriesError(
                f"series {self.id!r}: provenance must be present exactly for augmented series"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self.values, other.values) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self)
            if f.name != "values"
        )

    def __len__(self) -> int:
        return len(self.values)

    def with_stage(self, stage: Stage) -> "TimeSeries":
        return replace(self, stage=stage)


def make_series_id(source: Source, native_id: str, start: date, end: date) -> str:
    """Stable storage key: ``<source>-<native id>-<start>-<end>``."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in native_id)
    return f"{source.value}-{safe}-{start.isoformat()}-{end.isoformat()}"


def is_int(value: object) -> bool:
    """Whether ``value`` is an ``int`` that is not a ``bool``: a JSON ``30.0`` is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """Whether ``value`` is a real number that is not a ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def iso_dates(texts: Sequence[str]) -> list[date]:
    """Each text as a date, if all are ``YYYY-MM-DD`` (checked over the column:
    ten characters, dashes at 4 and 7), the one form every supported Python's
    ``date.fromisoformat`` reads; else a ``ValueError`` naming the first that is not."""
    joined = "".join(texts)  # the dashes of every text, as two strided slices
    if set(map(len, texts)) - {10} or joined[4::10].strip("-") or joined[7::10].strip("-"):
        bad = next(t for t in texts if len(t) != 10 or t[4] + t[7] != "--")
        raise ValueError(f"not a YYYY-MM-DD date: {bad!r}")
    return list(map(date.fromisoformat, texts))


def min_max_normalize(series: TimeSeries) -> TimeSeries:
    """Affinely map values onto [0, 1]; a constant series maps to all 0.5.

    The 0.5 convention keeps degenerate inputs inside the output range
    without dividing by zero.
    """
    values = series.values
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return replace(series, values=np.full(values.size, 0.5))
    return replace(series, values=(values - lo) / (hi - lo))
