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
from dataclasses import dataclass, replace
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

DAY = np.dtype("datetime64[D]")
FIRST_DAY, LAST_DAY = np.array(["0001-01-01", "9999-12-31"], dtype=DAY)  # those of ``date``
_EPOCH = date(1970, 1, 1).toordinal()  # the ordinal of numpy's day 0


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


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` and every array down its ``.base`` chain are read-only, the
    last owning its memory (a base that is no array, such as ``bytes``, fails)."""
    while isinstance(array, np.ndarray) and not array.flags.writeable:
        array = array.base
    return array is None


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One sampled series plus its pipeline metadata.

    ``timestamps`` is a read-only ``datetime64[D]`` array. One passed read-only is
    shared (children and restamps keep their parent's) when it owns its memory or
    every array down its ``.base`` chain is read-only; any other array is copied,
    and any other sequence must hold ``datetime.date``. A writeable view taken
    before its base was made read-only can still change a shared array.
    ``values`` is a read-only float64 copy. Series compare equal when every field
    does, both arrays exactly; they are not hashable.

    Invariants (checked at construction):

    * ``values`` is 1-D and ``len(timestamps) == len(values) >= 2``
    * timestamps strictly increasing days of years 1-9999
    * every value finite
    * ``stage == AUGMENTED`` exactly when ``provenance`` is present
    """

    id: str
    source: Source
    timestamps: np.ndarray
    values: np.ndarray
    stage: Stage
    provenance: Provenance | None = None
    comment: str = ""

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        days = self.timestamps
        if not isinstance(days, np.ndarray):  # a non-date raises toordinal's TypeError
            days = (np.fromiter(map(date.toordinal, days), np.int64) - _EPOCH).astype(DAY)
        elif not _frozen(days):
            days = days.copy()
        days.flags.writeable = False
        object.__setattr__(self, "timestamps", days)
        if not self.id:
            raise SeriesError("series id must be non-empty")
        if days.dtype != DAY or days.ndim != 1 or values.shape != days.shape:
            raise SeriesError(
                f"series {self.id!r}: values of shape {values.shape} do not match "
                f"timestamps of shape {days.shape} and type {days.dtype} (1-D days)"
            )
        if values.size < 2:
            raise TooShortError(f"series {self.id!r} has {values.size} samples, need >= 2")
        # False at a NaT too; strict increase puts every day between the first and the last
        if not (days[1:] > days[:-1]).all():
            raise NonMonotonicTimestampsError(
                f"series {self.id!r} timestamps must be strictly increasing"
            )
        if not FIRST_DAY <= days[0] or not days[-1] <= LAST_DAY:
            raise SeriesError(f"series {self.id!r}: a timestamp outside years 1-9999")
        if not np.isfinite(values).all():
            raise NonFiniteValueError(f"series {self.id!r} contains non-finite values")
        if (self.stage is Stage.AUGMENTED) != (self.provenance is not None):
            raise SeriesError(
                f"series {self.id!r}: provenance must be present exactly for augmented series"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return all(np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
                   for mine, theirs in zip(vars(self).values(), vars(other).values()))

    def __len__(self) -> int:
        return len(self.values)

    def with_stage(self, stage: Stage) -> "TimeSeries":
        return replace(self, stage=stage)


def make_series_id(source: Source, native_id: str, start: date | np.datetime64,
                   end: date | np.datetime64) -> str:
    """Stable storage key: ``<source>-<native id>-<start>-<end>``, days as ``YYYY-MM-DD``."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in native_id)
    return f"{source.value}-{safe}-{start}-{end}"


def is_int(value: object) -> bool:
    """Whether ``value`` is an ``int`` that is not a ``bool``: a JSON ``30.0`` is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """Whether ``value`` is a real number that is not a ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def iso_dates(texts: Sequence[str]) -> np.ndarray:
    """The texts as a read-only ``datetime64[D]`` array, if all are ``YYYY-MM-DD`` (checked
    over the column: ten characters, dashes at 4 and 7, ASCII digits elsewhere, a year of
    at least 1), the one form ``date.fromisoformat`` reads on every supported Python; else
    a ``ValueError`` naming the first that is not, or with ``date.fromisoformat``'s message."""
    joined = "".join(texts)  # the characters at one place of each, as a strided slice
    if set(map(len, texts)) - {10} or joined[4::10].strip("-") or joined[7::10].strip("-"):
        bad = next(t for t in texts if len(t) != 10 or t[4] + t[7] != "--")
        raise ValueError(f"not a YYYY-MM-DD date: {bad!r}")
    digits = "".join(joined[i::10] for i in (0, 1, 2, 3, 5, 6, 8, 9))
    try:  # numpy alone reads ' 020-01-05', '+020-01-05' and a year 0000
        days = np.array(texts, dtype=DAY)
        if digits and not (digits.isascii() and digits.isdigit()) or (days < FIRST_DAY).any():
            raise ValueError
    except ValueError:
        for text in texts:
            date.fromisoformat(text)  # raises the message of the first it refuses
        raise
    days.flags.writeable = False
    return days


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
