"""Pipeline orchestration: queries -> collect -> prune -> augment -> report.

Every stage persists its series under ``<output_dir>/<dataset>/<stage>/``
and then rewrites the manifest of stage counts and length statistics. A
replay-mode run with a fixed seed is fully deterministic, including the
bytes on disk, as long as the caller supplies the ``created_at`` instant
(the CLI honors ``SOURCE_DATE_EPOCH`` for this).
"""

from __future__ import annotations

import contextlib
import json
import logging
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path

import numpy as np

from . import querygen, sources, storage
from .augment import AugmentConfig, augment_set
from .changepoint import DetectorConfig, prune
from .series import MAX_SEED, Source, Stage, TimeSeries, is_int
from .storage import DatasetManifest, SeriesMeta

__all__ = [
    "PipelineConfig",
    "ConfigError",
    "StageError",
    "PruningEmptyError",
    "Stages",
    "run",
    "split_train_test",
    "split_dataset",
    "report",
]

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Configuration file or fields are unusable."""


class PruningEmptyError(Exception):
    """Pruning left no series with a detected shift."""


class StageError(Exception):
    """A pipeline stage failed; :class:`Stages` says what it left on disk."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    dataset_name: str
    source: Source
    query_file: Path | None = None
    transport_mode: str = "replay"
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    master_seed: int = 0
    output_dir: Path = Path("data")
    fixtures_dir: Path = Path("fixtures")
    domain: str = ""
    description: str = ""
    query_count: int = 50

    def __post_init__(self) -> None:
        for key in ("dataset_name", "domain", "description"):
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"{key} must be a string: {getattr(self, key)!r}")
        if not self.dataset_name:
            raise ConfigError("dataset_name must be non-empty")
        if self.transport_mode not in ("live", "replay", "record"):
            raise ConfigError(f"unknown transport_mode {self.transport_mode!r}")
        if not is_int(self.query_count) or self.query_count < 1:
            raise ConfigError(f"query_count must be an int >= 1: {self.query_count!r}")
        if not is_int(self.master_seed) or not 0 <= self.master_seed <= MAX_SEED:
            raise ConfigError(f"master_seed must be an int in [0, 2**64): {self.master_seed!r}")


def load_config(path: str | Path) -> PipelineConfig:
    """Read a config file whose keys mirror :class:`PipelineConfig`. A relative
    ``query_file`` or ``fixtures_dir`` is relative to the config file, and a
    relative ``output_dir`` to the working directory, as ``--output-dir`` is.
    ``augment.master_seed`` is refused: the seed is ``master_seed`` alone."""
    try:
        raw = json.loads(storage.read_file(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    try:
        kwargs: dict = dict(raw)
        kwargs["source"] = Source(raw["source"])
        if raw.get("query_file"):
            kwargs["query_file"] = Path(path).parent / raw["query_file"]
        if "master_seed" in raw.get("augment", {}):
            raise ValueError("augment.master_seed is not a setting: master_seed is the seed")
        if "detector" in raw:
            kwargs["detector"] = DetectorConfig(**raw["detector"])
        if "augment" in raw:
            kwargs["augment"] = AugmentConfig(**raw["augment"])
        if "fixtures_dir" in raw:
            kwargs["fixtures_dir"] = Path(path).parent / raw["fixtures_dir"]
        if "output_dir" in raw:
            kwargs["output_dir"] = Path(raw["output_dir"])
        return PipelineConfig(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


class Stages:
    """The pipeline's stages for one config, and the ``manifest`` they write.

    ``collect`` starts the manifest (``now`` fixes ``created_at``); ``prune``
    and ``augment`` update only their own fields. A stage with a directory
    first deletes it, every later stage, ``splits/`` and ``manifest.json``;
    a failure removes its partial output and raises :class:`StageError`,
    and success writes the manifest.
    """

    def __init__(self, config: PipelineConfig, now: str | None = None) -> None:
        self.config = config
        self.root = config.output_dir
        self.name = config.dataset_name
        self.now = now
        self.manifest: DatasetManifest | None = None

    @contextlib.contextmanager
    def _stage(self, label: str, stage: Stage | None = None):
        try:
            if stage is not None:
                storage.clear_from_stage(self.root, self.name, stage)
            yield
            if stage is not None:
                storage.write_manifest(self.root, self.manifest)
        except Exception as exc:
            if stage is not None:
                storage.remove_stage(self.root, self.name, stage)
            raise StageError(label, exc) from exc

    def _start_manifest(self, originals: list[TimeSeries], notes: dict[str, str]) -> None:
        lengths = [len(s) for s in originals]
        self.manifest = DatasetManifest(
            name=self.name,
            domain=self.config.domain or _catalog_field(self.config, "domain"),
            description=self.config.description or _catalog_field(self.config, "description"),
            length_min=min(lengths),
            length_max=max(lengths),
            count_original=len(originals),
            count_pruned=0,
            count_augmented=0,
            seed=self.config.master_seed,
            created_at=self.now or storage.utc_now_iso(),
            notes=dict(sorted(notes.items())),
        )

    def _record(self, unverified_augmented: int, **counts: int) -> None:
        """Set a later stage's fields of the manifest."""
        notes = {**self.manifest.notes, "unverified_augmented": str(unverified_augmented)}
        self.manifest = dc_replace(self.manifest, notes=dict(sorted(notes.items())), **counts)

    def collect(
        self,
        *,
        force: bool = False,
        transport: sources.Transport | None = None,
        pacer: sources.RequestPacer | None = None,
    ) -> list[TimeSeries]:
        """Run the query and collection stages and start the manifest. A
        dataset directory that holds anything is only overwritten with
        ``force=True``; the collection stage then clears the old stages.

        Every completion and data request goes through ``transport`` (by
        default the config's) and waits on ``pacer`` (a new one by default)."""
        config = self.config
        dataset_root = storage.dataset_dir(self.root, self.name)
        if not force and storage.holds_files(dataset_root):
            raise ConfigError(
                f"dataset directory {dataset_root} already exists; "
                "only a forced run overwrites it"
            )
        transport = transport or sources.make_transport(config.transport_mode, config.fixtures_dir)
        pacer = pacer or sources.pacer_for(transport)

        notes = {"queries": "generated" if config.query_file is None else "external"}
        with self._stage("queries"):
            if config.query_file is not None:
                loaded = sources.load_queries(config.query_file, default_source=config.source)
                queries = sources.dedup_queries(loaded)
            else:
                queries = querygen.generate_queries(
                    config.source, transport, query_count=config.query_count, pacer=pacer
                )
        with self._stage("collect", Stage.ORIGINAL):
            collected, failures = sources.fetch_all(queries, transport, pacer=pacer)
            notes["fetch_failures"] = str(len(failures))
            if not collected:
                raise sources.EmptyResultError("no series collected")
            storage.save_stage(self.root, self.name, collected)
            self._start_manifest(collected, notes)
        return collected

    def prune(self, originals: list[TimeSeries]) -> list[TimeSeries]:
        with self._stage("prune", Stage.PRUNED):
            pruned = prune(originals, self.config.detector)
            if not pruned:
                raise PruningEmptyError(f"dataset {self.name!r}: no series with a detected shift")
            storage.save_stage(self.root, self.name, pruned)
            self._record(0, count_pruned=len(pruned), count_augmented=0)
        return pruned

    def augment(self, pruned: list[TimeSeries]) -> None:
        """Augment one parent at a time: its children are written before the
        next parent's are drawn, so the stage holds one parent's children."""
        seed = self.config.master_seed
        augment_config = dc_replace(self.config.augment, master_seed=seed)
        with self._stage("augment", Stage.AUGMENTED):
            count, unverified = 0, 0
            for parent in pruned:
                children = augment_set([parent], augment_config, self.config.detector)
                storage.save_stage(self.root, self.name, children)
                count += len(children)
                unverified += sum(not child.provenance.shift_verified for child in children)
                del children  # dropped before the next parent's children are drawn
            if count and augment_config.verify_shift:
                logger.info("augmented %d series from %d parents; %d (%.1f%%) unverified",
                            count, len(pruned), unverified, 100.0 * unverified / count)
            self._record(unverified, count_augmented=count, seed=seed)

    def _stored(self, stage: Stage) -> list[TimeSeries]:
        series = storage.load_stage(self.root, self.name, stage)
        if not series:
            raise ConfigError(f"dataset {self.name!r} has no {stage.value} stage under {self.root}")
        return series

    def rerun(self, stage: Stage) -> list[TimeSeries]:
        """Rerun prune or augment on the stored stage before it, and return
        that stage's series; ``manifest`` has the new counts. The stored
        manifest takes this dataset's name (it may be a copy); without one, a
        manifest is started from disk."""
        previous, step = {
            Stage.PRUNED: (Stage.ORIGINAL, self.prune),
            Stage.AUGMENTED: (Stage.PRUNED, self.augment),
        }[stage]
        inputs = self._stored(previous)
        try:
            self.manifest = dc_replace(storage.load_manifest(self.root, self.name), name=self.name)
        except FileNotFoundError:
            if previous is Stage.ORIGINAL:
                self._start_manifest(inputs, {})
            else:
                self._start_manifest(self._stored(Stage.ORIGINAL), {})
                self._record(0, count_pruned=len(inputs))
        step(inputs)
        return inputs


def run(
    config: PipelineConfig,
    *,
    force: bool = False,
    now: str | None = None,
    transport: sources.Transport | None = None,
    pacer: sources.RequestPacer | None = None,
) -> DatasetManifest:
    """Run every stage of :class:`Stages` and return the manifest written.

    ``now`` fixes ``created_at`` for reproducible manifests; otherwise
    the current UTC time is used. An existing dataset directory is only
    overwritten with ``force=True``, and not before the queries succeed.
    ``transport`` and ``pacer`` go to :meth:`Stages.collect`.
    """
    stages = Stages(config, now)
    stages.augment(stages.prune(stages.collect(force=force, transport=transport, pacer=pacer)))
    return stages.manifest


def _catalog_field(config: PipelineConfig, key: str) -> str:
    """Default report fields from the discovery catalog; "" without a
    readable one (see :func:`querygen.load_catalog`) or a matching entry."""
    try:
        catalog = querygen.load_catalog(config.output_dir / "catalog.json")
    except (OSError, ValueError):
        return ""
    for entry in catalog:
        name = str(entry.get("name", "")).lower()
        if config.source.value in name or config.dataset_name.lower() in name:
            return str(entry.get(key, ""))
    return ""


# --- train/test splitting -----------------------------------------------------


def _check_ratio(ratio: float) -> None:
    if not 0 < ratio < 1:
        raise ConfigError("ratio must be in (0, 1)")


def split_train_test(
    series_list: list[TimeSeries | SeriesMeta],
    ratio: float,
    seed: int,
    train_parent_count: int | None = None,
) -> tuple[list[TimeSeries | SeriesMeta], list[TimeSeries | SeriesMeta]]:
    """Deterministic leakage-free split at the level of pruned parents.

    Augmented series follow their parent to whichever side it lands on.
    The train side gets ``round(ratio * n_parents)`` parents unless
    ``train_parent_count`` overrides the arithmetic (useful to reproduce
    externally fixed splits). It reads only ``id`` and ``provenance``.
    """
    if not series_list:
        raise ConfigError("cannot split an empty series list")
    _check_ratio(ratio)
    if not is_int(seed) or not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"seed must be an int in [0, 2**64): {seed!r}")

    # a parent and its augmented children form one unit, named by the parent
    # id; augmented series whose parent is absent still form their own unit
    units = [s.id if s.provenance is None else s.provenance.parent_id for s in series_list]
    parent_ids = sorted(set(units))
    rng = np.random.default_rng(seed)
    order = [parent_ids[i] for i in rng.permutation(len(parent_ids))]
    if train_parent_count is None:
        n_train = int(ratio * len(order) + 0.5)
    else:
        if not 0 <= train_parent_count <= len(order):
            raise ConfigError("train_parent_count out of range")
        n_train = train_parent_count
    train_set = set(order[:n_train])

    train = [s for s, unit in zip(series_list, units) if unit in train_set]
    test = [s for s, unit in zip(series_list, units) if unit not in train_set]
    return train, test


def split_dataset(
    output_dir: str | Path,
    name: str,
    ratio: float,
    seed: int,
    train_parent_count: int | None = None,
    include_test_augmented: bool = False,
) -> dict:
    """Split a stored dataset and write id lists under ``splits/``.

    The default mirrors the intended training workflow: the train side is
    the augmented expansions of its parents, while the test side keeps
    only un-augmented parents. ``include_test_augmented`` keeps augmented
    series on the test side too. It reads the sidecars, not the CSV bodies.
    """
    _check_ratio(ratio)
    pruned = storage.load_stage_meta(output_dir, name, Stage.PRUNED)
    if not pruned:
        raise ConfigError(f"dataset {name!r} has no pruned series to split")
    augmented = storage.load_stage_meta(output_dir, name, Stage.AUGMENTED)
    train, test = split_train_test(pruned + augmented, ratio, seed, train_parent_count)

    def bucket(items: list[SeriesMeta]) -> dict:
        return {
            "parents": sorted(s.id for s in items if s.provenance is None),
            "augmented": sorted(s.id for s in items if s.provenance is not None),
        }

    train_ids = bucket(train)
    test_ids = bucket(test)
    if not include_test_augmented:
        test_ids["augmented"] = []

    summary = {
        "dataset": name,
        "ratio": ratio,
        "seed": seed,
        "train": train_ids,
        "test": test_ids,
        "counts": {
            "train_parents": len(train_ids["parents"]),
            "train_augmented": len(train_ids["augmented"]),
            "test_parents": len(test_ids["parents"]),
            "test_augmented": len(test_ids["augmented"]),
        },
    }
    splits_dir = storage.dataset_dir(output_dir, name) / "splits"
    for stem, doc in (("train", train_ids), ("test", test_ids), ("summary", summary)):
        storage.write_document(splits_dir / f"{stem}.json", doc)
    return summary


# --- reporting ------------------------------------------------------------------

_REPORT_COLUMNS = (
    "name",
    "domain",
    "description",
    "length_min",
    "length_max",
    "count_original",
    "count_pruned",
    "count_augmented",
)


def report(manifest: DatasetManifest, fmt: str = "text") -> str:
    """Render one summary row; ``csv`` emits a header line plus the row."""
    values = [str(getattr(manifest, col)) for col in _REPORT_COLUMNS]
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        writer.writerow(v.replace("\n", " ") for v in values)
        return buf.getvalue()
    if fmt == "text":
        pairs = [
            f"name: {manifest.name}",
            f"domain: {manifest.domain or '-'}",
            f"description: {manifest.description or '-'}",
            f"length: {manifest.length_min}..{manifest.length_max}",
            f"original: {manifest.count_original}",
            f"pruned: {manifest.count_pruned}",
            f"augmented: {manifest.count_augmented}",
        ]
        return " | ".join(pairs) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
