"""Series and dataset persistence.

Layout on disk::

    data/<dataset>/<stage>/<id>.csv        one row per sample
    data/<dataset>/<stage>/<id>.meta.json  sidecar metadata
    data/<dataset>/manifest.json           stage counts and length stats

Series files are UTF-8 CSV with header ``timestamp,value``, ISO dates,
values at 12 significant digits, and ``\\n`` line endings, so a saved
tree is byte-stable across runs with the same inputs.

:func:`save_stage` writes each CSV body with one ``%``: a row template of
the header and ``<iso date>,%.12g`` per row is filled with the series'
values. The template is built from the series' day array in one numpy pass,
and again only when a series' array is not the previous series' one:
augmented children follow their parent and share its array.

Every file the package writes or removes goes through this module: series through
:func:`save_stage` and :func:`save_series`, every other file through :func:`write_document`,
a stage's outdated files through :func:`clear_from_stage` and :func:`remove_stage`.

A series is read as a CSV body and a sidecar, whose path is built from the CSV's
by one rule: its stem (as ``Path.stem`` has it) plus ``.meta.json``. A sidecar's
fields are read as the types the writer gives them, never coerced: ``id`` and
``comment`` strings, ``source``, ``stage`` and the provenance ``method`` values
of their enums (found in tables keyed by value), the provenance ``parent_id`` a
non-empty string, ``seed`` an int that is not a bool in [0, 2**64) and
``shift_verified`` a bool. Anything else is a :class:`MalformedFileError` naming
the sidecar.

Every file the package reads goes through :func:`read_file`, which returns it
as stored: strict UTF-8 with no newline translation, and bytes that are not
UTF-8 are a :class:`MalformedFileError` naming the file. Only CSV bodies take
``\\r`` as a line end. It and ``_write_file`` use ``os.open``, ``os.read`` and
``os.write``, with no pathlib or text-mode ``io`` wrapping, and an ``OSError``
from either is raised as it is with its path in ``filename``.

A stage directory is read by one loop. It is listed once by name; its series are
the entries ending ``.csv``, in name order, and each one's sidecar is read and
held to the stage rules: its stage is the directory's (the default stage is
``original``, so a series without a sidecar belongs only in ``original/``), its
id is not empty, and it has provenance exactly when the stage is ``augmented``.
A broken rule is a :class:`MalformedFileError` naming the CSV.
:func:`load_stage_meta` returns the sidecars the loop yields, and
:func:`load_stage` reads each CSV body after its sidecar. A standalone
:func:`load_series` reads the body first, then the sidecar, and keeps the
defaults.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .series import (
    MAX_SEED,
    AugmentMethod,
    Provenance,
    SeriesError,
    Source,
    Stage,
    TimeSeries,
    iso_dates,
)

CSV_HEADER = "timestamp,value"
_READ_CHUNK = 1 << 16  # one read takes any sidecar and most CSVs whole


class MalformedFileError(ValueError):
    """A file is not UTF-8, or a stored file does not hold what its kind must."""


class ManifestError(ValueError):
    """Manifest fields violate their invariants."""


@dataclass(frozen=True)
class DatasetManifest:
    """Per-dataset bookkeeping: stage counts plus length statistics."""

    name: str
    domain: str
    description: str
    length_min: int
    length_max: int
    count_original: int
    count_pruned: int
    count_augmented: int
    seed: int
    created_at: str
    notes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count_pruned > self.count_original:
            raise ManifestError("count_pruned must not exceed count_original")
        if min(self.count_original, self.count_pruned, self.count_augmented) < 0:
            raise ManifestError("counts must be non-negative")
        if self.length_min > self.length_max:
            raise ManifestError("length_min must not exceed length_max")
        if self.length_min < 0:
            raise ManifestError("lengths must be non-negative")
        if self.count_original > 0 and self.length_min == 0:
            raise ManifestError("non-empty dataset must report positive lengths")
        if not 0 <= self.seed <= MAX_SEED:
            raise ManifestError("seed must be in [0, 2**64)")


@dataclass(frozen=True)
class SeriesMeta:
    """What a series' sidecar holds: every field of a TimeSeries but its samples."""

    id: str
    source: Source
    stage: Stage
    provenance: Provenance | None
    comment: str


def load_series(path: str | Path) -> TimeSeries:
    """Read one series file (plus sidecar metadata when present).

    Raises :class:`MalformedFileError` naming the file for a bad header, row
    or sidecar, an ``OSError`` naming it when it cannot be read, and re-raises
    the :class:`SeriesError` of the :class:`TimeSeries` checks (too short,
    unordered, a NaN or infinite value) naming the file.
    """
    path = os.fspath(path)
    timestamps, values = _read_body(path)
    return _series(path, _read_sidecar(path), timestamps, values)


def _series(path: str, meta: SeriesMeta, timestamps: np.ndarray,
            values: list[float]) -> TimeSeries:
    try:
        return TimeSeries(meta.id, meta.source, timestamps, values, meta.stage,
                          meta.provenance, meta.comment)
    except SeriesError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _read_body(path: str) -> tuple[np.ndarray, list[float]]:
    text = read_file(path)
    # a CR or CRLF line end leaves a blank line more, and blank lines are dropped
    lines = [ln for ln in map(str.strip, text.replace("\r", "\n").split("\n")) if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise MalformedFileError(f"{path}: expected header {CSV_HEADER!r}")

    for lineno, line in enumerate(lines[1:], start=2):
        if (fields := line.count(",") + 1) != 2:
            raise MalformedFileError(f"{path}:{lineno}: expected 2 fields, got {fields}")
    # the columns as two strided slices of one split: no list per row for the GC to track
    cells = ",".join(lines[1:]).split(",") if len(lines) > 1 else []
    try:
        return iso_dates(cells[0::2]), list(map(float, cells[1::2]))
    except ValueError as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


# a sidecar's source, stage and provenance method, looked up by value
_SOURCES = {member.value: member for member in Source}
_STAGES = {member.value: member for member in Stage}
_METHODS = {member.value: member for member in AugmentMethod}


def _read_sidecar(path: str) -> SeriesMeta:
    """The sidecar of series file ``path``, its stem (as ``Path.stem`` has it) plus
    ``.meta.json``, or without one the defaults: the stem as id, source synthetic,
    stage original, no provenance, no comment. A sidecar that is not a JSON object
    of known fields of their types is a MalformedFileError naming it (an unreadable
    one, its OSError)."""
    head, sep, name = path.rpartition("/")
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    meta_path = f"{head}{sep}{stem}.meta.json"
    try:
        meta = json.loads(read_file(meta_path))
    except FileNotFoundError:
        meta = {}
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"{meta_path}: bad sidecar") from exc
    try:
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        sid, comment = meta.get("id", stem), meta.get("comment", "")
        if type(sid) is not str or type(comment) is not str:
            raise ValueError("id and comment must be strings")
        source, stage = meta.get("source", "synthetic"), meta.get("stage", "original")
        try:
            source, stage = _SOURCES[source], _STAGES[stage]
        except (KeyError, TypeError):  # a value of no member, or an unhashable one
            raise ValueError(f"unknown source {source!r} or stage {stage!r}") from None
        return SeriesMeta(sid, source, stage, _provenance_from_meta(meta.get("provenance")),
                          comment)
    except ValueError as exc:  # any of the faults above, or a bad provenance record
        raise MalformedFileError(f"{meta_path}: bad sidecar: {exc}") from exc


def save_series(series: TimeSeries, directory: str | Path) -> Path:
    """Write ``<id>.csv`` plus ``<id>.meta.json`` under ``directory``.

    Round trip holds: loading the written file reproduces timestamps
    exactly and values to 12 significant digits.
    """
    _save_all([(series, os.fspath(directory))])
    return Path(directory) / f"{series.id}.csv"


_ROW = np.frombuffer(b"0000-00-00,%.12g\n", dtype=np.uint8)  # one CSV row, its digits unset
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # the places of a row's YYYYMMDD
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint8).reshape(100, 2)


def _template(days: np.ndarray) -> str:
    """The header and a ``_ROW`` per day, its century, year, month and day set as digit
    pairs by integer arithmetic and decoded once: digits and "-" only, so no stray "%"."""
    months = days.astype("datetime64[M]")
    month = months.view(np.int64) + 1970 * 12  # months since 0000-01
    pairs = np.stack([month // 1200, month // 12 % 100, month % 12 + 1,
                      (days - months).view(np.int64) + 1], axis=1)
    rows = np.tile(_ROW, (days.size, 1))
    rows[:, _DIGITS] = _PAIRS.take(pairs, axis=0).reshape(-1, 8)
    return f"{CSV_HEADER}\n" + rows.tobytes().decode("ascii")


def _save_all(items: Iterable[tuple[TimeSeries, str]]) -> None:
    """Write each series into its directory, creating each directory once.

    Each CSV body is one ``%`` of a row template over the series' values,
    built again only when a series' day array is not the previous series' one."""
    made, days = set(), None
    for series, directory in items:
        if series.timestamps is not days:
            days = series.timestamps
            template = _template(days)
        meta = {"id": series.id, "source": series.source.value, "stage": series.stage.value,
                "comment": series.comment, "provenance": _provenance_to_meta(series.provenance)}
        if directory not in made:
            Path(directory).mkdir(parents=True, exist_ok=True)
            made.add(directory)
        _write_file(f"{directory}/{series.id}.csv", template % tuple(series.values.tolist()))
        _write_file(f"{directory}/{series.id}.meta.json", _json_text(meta))


def write_document(path: str | Path, doc: object, *, sort_keys: bool = True) -> Path:
    """Write ``doc`` to ``path`` as UTF-8, creating the parent directory: a
    ``str`` as it is, anything else as JSON indented by 2 with a final newline.
    A file that cannot be written raises an ``OSError`` naming its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_file(str(path), doc if isinstance(doc, str) else _json_text(doc, sort_keys))
    return path


def _json_text(doc: object, sort_keys: bool = True) -> str:
    return json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"


def read_file(path: str | Path) -> str:
    """The whole file at ``path`` as stored, as strict UTF-8 with no newline
    translation. Bytes that are not UTF-8 raise :class:`MalformedFileError`
    naming the file; an :class:`OSError` is raised naming it in ``filename``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as exc:  # unlike os.open's, os.read's error names no file
        exc.filename = exc.filename or os.fspath(path)
        raise
    finally:
        os.close(fd)
    try:
        return b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{os.fspath(path)}: not UTF-8 at byte {exc.start}") from exc


def _write_file(path: str, text: str) -> None:
    """Create or truncate the file at ``path`` and write ``text`` as UTF-8,
    looping until the kernel has taken every byte."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    except OSError as exc:  # unlike os.open's, os.write's error names no file
        exc.filename = exc.filename or path
        raise
    finally:
        os.close(fd)


def _provenance_to_meta(prov: Provenance | None) -> dict | None:
    return None if prov is None else {"parent_id": prov.parent_id, "method": prov.method.value,
                                      "seed": prov.seed, "shift_verified": prov.shift_verified}


def _provenance_from_meta(raw: dict | None) -> Provenance | None:
    """The provenance record ``raw``, its fields of exactly the types the writer
    writes: a non-empty str, a known method, an int (not a bool) in range, a bool."""
    if raw is None:
        return None
    try:
        parent_id, seed, verified = raw["parent_id"], raw["seed"], raw["shift_verified"]
        if type(parent_id) is not str or type(seed) is not int or type(verified) is not bool:
            raise TypeError("parent_id, seed and shift_verified must be a str, an int and a bool")
        return Provenance(parent_id, _METHODS[raw["method"]], seed, verified)
    except (KeyError, TypeError, SeriesError) as exc:
        raise MalformedFileError(f"bad provenance record: {raw!r}") from exc


# --- dataset layout -------------------------------------------------------


def dataset_dir(root: str | Path, name: str) -> Path:
    return Path(root) / name


def stage_dir(root: str | Path, name: str, stage: Stage) -> Path:
    return dataset_dir(root, name) / stage.value


def save_stage(root: str | Path, name: str, series_list: Iterable[TimeSeries]) -> None:
    """Write each series under its stage's directory, in the bytes of
    :func:`save_series`, building one row template per run of series that
    share a day array (see the module docstring)."""
    directories = {stage: str(stage_dir(root, name, stage)) for stage in Stage}
    _save_all((series, directories[series.stage]) for series in series_list)


def clear_from_stage(root: str | Path, name: str, stage: Stage) -> None:
    """Delete what a run of ``stage`` makes outdated, where it exists: its
    directory, every later stage's, ``splits/`` and the manifest."""
    later = list(Stage)[list(Stage).index(stage):]
    for path in [*(stage_dir(root, name, s) for s in later), dataset_dir(root, name) / "splits"]:
        if path.exists():
            shutil.rmtree(path)
    manifest_path(root, name).unlink(missing_ok=True)


def remove_stage(root: str | Path, name: str, stage: Stage) -> None:
    """Delete a failed stage's partial output as far as it can, ignoring errors."""
    shutil.rmtree(stage_dir(root, name, stage), ignore_errors=True)


def holds_files(directory: str | Path) -> bool:
    """Whether ``directory`` exists and holds any entry."""
    return os.path.exists(directory) and bool(os.listdir(directory))


def _stage_metas(root: str | Path, name: str, stage: Stage) -> Iterator[tuple[str, SeriesMeta]]:
    """Each ``*.csv`` entry of a stage directory in name order, as its path and its
    sidecar, checked against the stage rules (see :func:`load_stage_meta`); none
    when the directory is missing or cannot be listed."""
    directory = str(stage_dir(root, name, stage))
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for entry in sorted(n for n in names if n.endswith(".csv")):
        path = f"{directory}/{entry}"
        meta = _read_sidecar(path)
        if meta.stage is not stage:
            raise MalformedFileError(f"{path}: a series of stage {meta.stage.value!r} (its "
                                     f"sidecar's, or the default without one) in the "
                                     f"{stage.value} directory")
        if not meta.id or (stage is Stage.AUGMENTED) != (meta.provenance is not None):
            raise MalformedFileError(f"{path}: sidecar has an empty id or misplaced provenance")
        yield path, meta


def load_stage(root: str | Path, name: str, stage: Stage) -> list[TimeSeries]:
    """Load every series in a stage directory, in name order, each sidecar checked
    (see :func:`load_stage_meta`) before its CSV body is read."""
    return [_series(path, meta, *_read_body(path))
            for path, meta in _stage_metas(root, name, stage)]


def load_stage_meta(root: str | Path, name: str, stage: Stage) -> list[SeriesMeta]:
    """The sidecars of the series :func:`load_stage` loads, in its order, not their CSVs.
    A series of another stage (a missing sidecar reads as original), with an empty
    id, or with provenance but not augmented or augmented without it, is a
    :class:`MalformedFileError` naming its CSV."""
    return [meta for _, meta in _stage_metas(root, name, stage)]


def manifest_path(root: str | Path, name: str) -> Path:
    return dataset_dir(root, name) / "manifest.json"


def write_manifest(root: str | Path, manifest: DatasetManifest) -> Path:
    return write_document(manifest_path(root, manifest.name), asdict(manifest))


_MANIFEST_TYPES = {f.name: f.type for f in fields(DatasetManifest)}  # annotation strings


def load_manifest(root: str | Path, name: str) -> DatasetManifest:
    """A manifest not a JSON object of its fields, each of its exact type (a bool
    is no int), is a MalformedFileError naming the file and the field."""
    path = manifest_path(root, name)
    try:
        raw = json.loads(read_file(path))
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"{path}: bad manifest") from exc
    try:
        if not isinstance(raw, dict):
            raise TypeError("not a JSON object")
        for key, value in raw.items():
            kind = _MANIFEST_TYPES.get(key)
            if kind == "dict[str, str]":
                exact = type(value) is dict and all(type(v) is str for v in value.values())
            else:  # an unknown key is left to the constructor to name
                exact = kind is None or type(value).__name__ == kind
            if not exact:
                raise TypeError(f"{key!r} is not of type {kind}")
        return DatasetManifest(**raw)
    except (TypeError, ManifestError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).replace(microsecond=0).isoformat()
