"""``save_stage`` writes the bytes of ``save_series`` in fewer formatting passes,
every other file of the package is written by ``write_document``, the
``os``-level reader, writer and stage listing match the pathlib ones they
replaced, and every reader names a file that is not UTF-8."""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import re
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftminer import demo, pipeline, querygen, sources, storage
from shiftminer.series import AugmentMethod, Provenance, Source, Stage, TimeSeries
from shiftminer.storage import (
    DatasetManifest,
    MalformedFileError,
    SeriesMeta,
    load_series,
    load_stage,
    load_stage_meta,
    save_series,
    save_stage,
    stage_dir,
    write_document,
    write_manifest,
)

EDGE_VALUES = (-0.0, 5e-324, 1e308, 1e-5, 123456789012.5)
NON_ASCII = "Ölpreis – 原油 ☃"

finite = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


def stamps(first_ordinal: int, n: int) -> tuple[date, ...]:
    return tuple(date.fromordinal(first_ordinal + i) for i in range(n))


def family(parent_values, children_values, comment, other_values, other_first=730120):
    """A pruned parent, augmented children that share its day array, and
    between the children an original series with its own array, which starts
    at ``other_first`` and may overlap the parent's dates, and a pruned twin
    whose array equals the parent's but is another object."""
    parent = TimeSeries("fred-P", Source.FRED, stamps(737425, len(parent_values)),
                        parent_values, Stage.PRUNED, comment=comment)
    children = [
        TimeSeries(f"fred-P-aug{i:02d}", Source.FRED, parent.timestamps, values, Stage.AUGMENTED,
                   Provenance(parent.id, list(AugmentMethod)[i % 3], 2**64 - 1 - i, i % 2 == 0),
                   comment)
        for i, values in enumerate(children_values)
    ]
    other = TimeSeries("eia-O", Source.EIA, stamps(other_first, len(other_values)), other_values,
                       Stage.ORIGINAL, None, NON_ASCII)
    twin = TimeSeries("fred-T", Source.FRED, parent.timestamps.copy(), parent_values[::-1],
                      Stage.PRUNED, comment=comment)
    assert np.array_equal(twin.timestamps, parent.timestamps)
    assert twin.timestamps is not parent.timestamps
    half = len(children) // 2
    return [parent, *children[:half], other, twin, *children[half:]]


def reference_save(series: TimeSeries, directory: Path) -> None:
    """The per-series writer that the batched one replaced, as the oracle of its
    bytes: each day formatted by ``date.isoformat``, not by the writer's template."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = ["timestamp,value"]
    rows.extend(f"{ts.item().isoformat()},{v:.12g}" for ts, v in zip(series.timestamps,
                                                                       series.values.tolist()))
    (directory / f"{series.id}.csv").write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
    prov = series.provenance
    meta = {
        "id": series.id, "source": series.source.value, "stage": series.stage.value,
        "comment": series.comment,
        "provenance": None if prov is None else {
            "parent_id": prov.parent_id, "method": prov.method.value, "seed": prov.seed,
            "shift_verified": prov.shift_verified,
        },
    }
    with open(directory / f"{series.id}.meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@st.composite
def families(draw):
    n = draw(st.integers(2, 12))
    column = st.lists(finite, min_size=n, max_size=n)
    other_values = draw(st.lists(finite, min_size=2, max_size=12))
    # from 0001-01-01, ending at 9999-12-31, overlapping the parent's dates, or apart from them
    other_first = draw(st.sampled_from((1, date.max.toordinal() - len(other_values) + 1,
                                        737425 - len(other_values) + n // 2, 730120)))
    return family(
        draw(column),
        draw(st.lists(column, min_size=1, max_size=4)),
        draw(st.one_of(st.just(NON_ASCII), st.text(max_size=12))),
        other_values,
        other_first,
    )


@given(families())
@settings(max_examples=60, deadline=None)
def test_save_stage_bytes_equal_save_series_loop(series_list):
    with tempfile.TemporaryDirectory() as tmp:
        batched, looped, oracle = (Path(tmp) / part for part in ("batched", "looped", "oracle"))
        save_stage(batched, "d", series_list)
        for series in series_list:
            save_series(series, stage_dir(looped, "d", series.stage))
            reference_save(series, stage_dir(oracle, "d", series.stage))
        tree = tree_bytes(batched)
        assert len(tree) == 2 * len(series_list)
        assert tree == tree_bytes(looped) == tree_bytes(oracle)


def test_a_template_per_run_of_one_array_and_directories_per_call(tmp_path, monkeypatch):
    """A run of series that share one day array builds one row template, and
    an interleaved other array one more before the first is built again; each
    call makes each of its directories once, and a stage written in calls has
    the bytes of one call."""
    n = 40
    parent = TimeSeries("fred-P", Source.FRED, stamps(737425, n),
                        [float(i) for i in range(n)], Stage.PRUNED)
    children = [
        TimeSeries(f"fred-P-aug{i:02d}", Source.FRED, parent.timestamps,
                   [0.5 * i + j for j in range(n)], Stage.AUGMENTED,
                   Provenance(parent.id, AugmentMethod.WINDOW_SLICE, i, True))
        for i in range(30)
    ]
    other = TimeSeries("eia-O", Source.EIA, stamps(730120, 3), [1.0, 2.0, 3.0], Stage.ORIGINAL)
    template, built = storage._template, []
    monkeypatch.setattr(storage, "_template", lambda days: built.append(days) or template(days))
    for root in ("one", "two", "calls", "whole"):
        (tmp_path / root / "d").mkdir(parents=True)  # so that each stage directory is one mkdir
    mkdir, made = Path.mkdir, []
    monkeypatch.setattr(Path, "mkdir",
                        lambda path, *a, **k: made.append(path) or mkdir(path, *a, **k))

    save_stage(tmp_path / "one", "d", [parent, *children])
    assert len(built) == 1 and built[0] is parent.timestamps
    assert made == [stage_dir(tmp_path / "one", "d", stage)
                    for stage in (Stage.PRUNED, Stage.AUGMENTED)]

    built.clear()
    save_stage(tmp_path / "two", "d", [parent, *children[:15], other, *children[15:]])
    assert [days is parent.timestamps for days in built] == [True, False, True]
    assert built[1] is other.timestamps

    made.clear()
    for part in (children[:15], children[15:]):
        save_stage(tmp_path / "calls", "d", part)
    assert made == [stage_dir(tmp_path / "calls", "d", Stage.AUGMENTED)] * 2
    save_stage(tmp_path / "whole", "d", children)
    assert tree_bytes(tmp_path / "calls") == tree_bytes(tmp_path / "whole")


BOUNDARY_YEARS = (1, 1969, 1970, 1971, 1999, 2000, 2001, 9999)


def iso_rows(days: np.ndarray) -> str:
    return "timestamp,value\n" + "".join(f"{day.isoformat()},%.12g\n" for day in days.tolist())


def test_template_of_every_day_of_the_boundary_years():
    days = np.concatenate([np.arange(np.datetime64(f"{year:04d}-01-01"),
                                     np.datetime64(f"{year + 1:04d}-01-01"))
                           for year in BOUNDARY_YEARS])
    assert days.size == 8 * 365 + 1  # of the eight, only 2000 is a leap year
    assert storage._template(days) == iso_rows(days)


@given(st.lists(st.dates(), min_size=1, max_size=40, unique=True))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_template_of_drawn_days(dates):
    days = np.array(sorted(dates), dtype="datetime64[D]")
    assert storage._template(days) == iso_rows(days)


def test_unwritable_stage_names_its_directory(tmp_path):
    (tmp_path / "d").write_text("a file where the dataset directory belongs")
    series = TimeSeries("s", Source.SYNTHETIC, stamps(737425, 2), [1.0, 2.0], Stage.ORIGINAL)
    with pytest.raises(NotADirectoryError) as err:
        save_stage(tmp_path, "d", [series])
    assert err.value.filename == str(stage_dir(tmp_path, "d", Stage.ORIGINAL))


# --- the one writer of every other file -------------------------------------
#
# Each case writes one file under ``root`` through a public writer and returns
# the file, the document it holds and its ``sort_keys``, or the file and its
# text. The file must be exactly ``json.dumps(doc, indent=2, sort_keys=...)``
# and a newline.


def manifest_case(root):
    manifest = DatasetManifest("d", "Économie", "", 2, 9, 3, 1, 30, 7, "2024-06-01T00:00:00+00:00",
                               {"queries": "external"})
    return write_manifest(root, manifest), dataclasses.asdict(manifest), True


def split_case(root):
    parent = TimeSeries("p", Source.FRED, stamps(737425, 3), [1.0, 2.0, 3.0], Stage.PRUNED)
    child = dataclasses.replace(parent, id="p-aug00", stage=Stage.AUGMENTED,
                                provenance=Provenance("p", AugmentMethod.TIME_WARP, 1, True))
    save_stage(root, "d", [parent, child])
    summary = pipeline.split_dataset(root, "d", 0.5, 0, include_test_augmented=True)
    return root / "d" / "splits" / "summary.json", summary, True


def queries_case(root):
    queries = [demo.UNRATE_QUERY]
    doc = [sources.query_to_raw(q) for q in queries]  # "source" first: the keys stay unsorted
    return sources.save_queries(queries, root / "q" / "queries.json"), doc, False


def fixture_case(root):
    params = (("b", "2"), ("api_key", "k"), ("a", "1"))  # sorted, the key left out
    request = sources.Request("fred", "GET", "https://x.test/obs", params)
    header = {"request": {"method": "GET", "url": "https://x.test/obs",
                          "params": [["a", "1"], ["b", "2"]]},
              "status": 200}
    body = "{\r\n" + NON_ASCII  # a one-line header, then the body as it is
    text = json.dumps(header, sort_keys=True) + "\n" + body
    return sources.write_fixture(root, request, sources.Response(200, body)), text


def catalog_case(root):
    entries = [{"name": "FRED", "domain": "Economics", "has_api": True, "link": "", "license": ""}]
    return querygen.write_catalog(entries, root / "c" / "catalog.json"), entries, True


def demo_config_case(root):
    path = demo.build_demo_config(root / "fx", root / "data", root / "fx" / "q.json", "demo", 3)
    doc = {"dataset_name": "demo", "source": "fred", "query_file": "q.json",
           "transport_mode": "replay", "detector": {},
           "augment": {"factor": 30, "verify_shift": True},
           "master_seed": 3, "output_dir": str(root / "data"), "fixtures_dir": ".",
           "domain": "Economics & Finance", "description": "Synthetic macro-style replay corpus"}
    return path, doc, True


def completion_case(root):
    """A completion is recorded as a chat reply: the fixture header, then the reply."""
    text = "Here:\r\n```json\n[]\n```" + NON_ASCII
    header = '{"request": {"method": "POST", "params": [], "url": ""}, "status": 200}\n'
    reply = json.dumps({"choices": [{"message": {"content": text}}]})
    return querygen.write_completion_fixture(root / "llm", "a prompt", text), header + reply


@pytest.mark.parametrize("case", [manifest_case, split_case, queries_case, fixture_case,
                                  catalog_case, demo_config_case, completion_case])
def test_every_writer_writes_indented_json_or_the_text(tmp_path, case):
    path, *expected = case(tmp_path)
    if len(expected) == 2:
        doc, sort_keys = expected
        text = json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"
    else:
        (text,) = expected
    assert path.read_bytes() == text.encode("utf-8")


def test_write_document_makes_parents_and_names_a_failed_file(tmp_path):
    path = write_document(tmp_path / "a" / "b" / "doc.json", {"b": 1, "a": [1, 2]})
    assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    (tmp_path / "blocked").write_text("a file where a directory belongs")
    with pytest.raises(FileExistsError) as err:
        write_document(tmp_path / "blocked" / "doc.txt", "text")
    assert err.value.filename == str(tmp_path / "blocked")


# --- the os-level reader, writer and stage listing --------------------------


def old_stage_files(directory: Path) -> list[Path]:
    """The pathlib listing the one ``os.listdir`` replaced, as the oracle."""
    return sorted(directory.glob("*.csv"), key=str) if directory.is_dir() else []


def old_read(path: Path) -> tuple[str, object]:
    """The file as stored, decoded by pathlib, as the oracle: the text, or the
    class of the error it raised."""
    try:
        return "text", path.read_bytes().decode("utf-8")
    except OSError as exc:
        return "error", type(exc)


def new_read(path: str) -> tuple[str, object]:
    try:
        return "text", storage.read_file(path)
    except OSError as exc:
        return "error", type(exc)


def old_sidecar(path: Path) -> Path:
    return path.with_name(f"{path.stem}.meta.json")


def crowded_stage(directory: Path) -> None:
    """Series with dotted, non-ASCII and hidden ids, one without a sidecar,
    stray files and a sub-directory whose name ends ``.csv``."""
    directory.mkdir(parents=True)
    for name in ("yahoo-BRK.B-2020.csv", f"{NON_ASCII}.csv", ".x.csv", ".csv", ".csv.csv", "a.csv",
                 "b.csv.csv"):  # ".csv" alone is its own stem, as Path.stem has it
        (directory / name).write_text("timestamp,value\n2020-01-01,1\n2020-01-02,2\n")
    (directory / "a.csv").write_text("timestamp,value\r\n2020-01-01,1\r2020-01-02,2\r\n")
    for path in directory.glob("*.csv"):
        if path.name != "a.csv":  # a.csv keeps no sidecar
            old_sidecar(path).write_text(json.dumps({"comment": old_sidecar(path).name}))
    for stray in ("x.csv.tmp", "y.tmp", "README", "a.CSV", "z.meta.json"):
        (directory / stray).write_text("not a series\n")
    (directory / "sub.csv").mkdir()


@pytest.mark.parametrize("layout", ["crowded", "empty", "missing", "a file"])
def test_stage_listing_and_reads_match_pathlib(tmp_path, layout):
    directory = stage_dir(tmp_path, "d", Stage.ORIGINAL)
    if layout == "crowded":
        crowded_stage(directory)
    elif layout == "empty":
        directory.mkdir(parents=True)
    elif layout == "a file":
        directory.parent.mkdir(parents=True)
        directory.write_text("a file where the stage directory belongs")
    old = old_stage_files(directory)
    assert len(old) == (8 if layout == "crowded" else 0)
    # each entry's id is its stem (no sidecar names one), its comment its sidecar's name
    assert load_stage_meta(tmp_path, "d", Stage.ORIGINAL) == [
        SeriesMeta(path.stem, Source.SYNTHETIC, Stage.ORIGINAL, None,
                   "" if path.name in ("a.csv", "sub.csv") else old_sidecar(path).name)
        for path in old
    ]
    for path in directory.iterdir() if directory.is_dir() else []:
        assert new_read(str(path)) == old_read(path)
    if layout == "crowded":
        # the reader keeps CRLF and CR line ends; the CSV body reader translates them
        assert load_series(directory / "a.csv") == TimeSeries(
            "a", Source.SYNTHETIC, stamps(737425, 2), [1.0, 2.0], Stage.ORIGINAL)
        for load in (lambda: load_series(directory / "sub.csv"),
                     lambda: load_stage(tmp_path, "d", Stage.ORIGINAL)):
            with pytest.raises(IsADirectoryError,
                               match=re.escape(f"Is a directory: '{directory}/sub.csv'")):
                load()
        (directory / "sub.csv").rmdir()
        old.remove(directory / "sub.csv")
    assert [(s.id, s.comment) for s in load_stage(tmp_path, "d", Stage.ORIGINAL)] == [
        (meta.id, meta.comment) for meta in load_stage_meta(tmp_path, "d", Stage.ORIGINAL)
    ] == [(path.stem, "" if path.name == "a.csv" else old_sidecar(path).name) for path in old]


def test_read_file_returns_the_file_as_stored(tmp_path):
    path = tmp_path / "doc.txt"
    text = "a\r\nb\rc\n" + NON_ASCII
    path.write_bytes(text.encode("utf-8"))
    assert storage.read_file(path) == storage.read_file(str(path)) == text
    with pytest.raises(FileNotFoundError):  # an OSError passes through as it is
        storage.read_file(tmp_path / "missing.txt")


def not_utf8(path: Path) -> Path:
    """Write a JSON object to ``path`` with byte 0xff at offset 8."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b'{"id": "\xff"}')
    return path


def stage_sidecar(root: Path) -> list[SeriesMeta]:
    """The sidecar of series ``s`` of ``original/``, read by ``load_stage_meta``,
    which opens no CSV: so an empty one will do."""
    (root / "d" / "original" / "s.csv").touch()
    return load_stage_meta(root, "d", Stage.ORIGINAL)


READERS = {  # kind: (its file under the root, a call on the root that reads it)
    "series": ("s.csv", lambda root: load_series(root / "s.csv")),
    "sidecar": ("d/original/s.meta.json", stage_sidecar),
    "manifest": ("d/manifest.json", lambda root: storage.load_manifest(root, "d")),
    "queries": ("q.json", lambda root: sources.load_queries(root / "q.json")),
    "catalog": ("c.json", lambda root: querygen.load_catalog(root / "c.json")),
}


@pytest.mark.parametrize("kind", READERS)
def test_every_reader_names_a_file_that_is_not_utf8(tmp_path, kind):
    name, read = READERS[kind]
    path = not_utf8(tmp_path / name)
    with pytest.raises(MalformedFileError, match=f"^{re.escape(str(path))}: not UTF-8 at byte 8$"):
        read(tmp_path)


def test_fixture_and_config_readers_name_a_file_that_is_not_utf8(tmp_path):
    fixture = not_utf8(tmp_path / "f.http")
    with pytest.raises(sources.FixtureMissingError,
                       match=re.escape(f"unreadable fixture {fixture}: MalformedFileError")):
        sources.read_fixture(fixture)
    completion = not_utf8(querygen.write_completion_fixture(tmp_path / "llm", "p", "text"))
    with pytest.raises(sources.FixtureMissingError,
                       match=re.escape(f"unreadable fixture {completion}: MalformedFileError")):
        sources.fetch_completion("p", sources.ReplayTransport(tmp_path),
                                 sources.RequestPacer(sources.NullClock()))
    config = not_utf8(tmp_path / "cfg.json")
    with pytest.raises(pipeline.ConfigError, match=re.escape(f"{config}: not UTF-8 at byte 8")):
        pipeline.load_config(config)


def test_a_file_larger_than_one_read_round_trips(tmp_path):
    n = 6000
    values = [(i - 3000) / 8 for i in range(n)]  # exact at 12 significant digits
    series = TimeSeries("long", Source.EIA, stamps(700000, n), values, Stage.ORIGINAL,
                        comment=NON_ASCII * 10000)
    path = save_series(series, tmp_path)
    assert path.stat().st_size > storage._READ_CHUNK
    assert (tmp_path / "long.meta.json").stat().st_size > storage._READ_CHUNK
    assert load_series(path) == series


def test_short_writes_still_write_every_byte(tmp_path, monkeypatch):
    series_list = family([1.5, -2.0, 3.0], [[0.25, 5e-324, 1e308]] * 4, NON_ASCII, [1.0, 2.0])
    for series in series_list:
        reference_save(series, stage_dir(tmp_path / "oracle", "d", series.stage))
    write, calls = os.write, []

    def three_bytes(fd, data):
        calls.append(len(data))
        return write(fd, bytes(data[:3]))

    monkeypatch.setattr(os, "write", three_bytes)
    save_stage(tmp_path / "short", "d", series_list)
    doc_path = write_document(tmp_path / "doc.json", {"k": NON_ASCII})
    monkeypatch.undo()
    assert len(calls) > 10 * (2 * len(series_list) + 1)
    assert tree_bytes(tmp_path / "short") == tree_bytes(tmp_path / "oracle")
    assert doc_path.read_bytes() == (json.dumps({"k": NON_ASCII}, indent=2) + "\n").encode()


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_a_failed_read_or_write_closes_its_file(tmp_path, monkeypatch):
    series = TimeSeries("s", Source.SYNTHETIC, stamps(737425, 2), [1.0, 2.0], Stage.ORIGINAL)
    path = save_series(series, tmp_path)
    (tmp_path / "dir.csv").mkdir()  # os.open succeeds on a directory, os.read fails
    before = open_fds()
    with pytest.raises(IsADirectoryError) as err:
        load_series(tmp_path / "dir.csv")
    assert err.value.filename == str(tmp_path / "dir.csv")
    assert open_fds() == before

    def disk_full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", disk_full)
    with pytest.raises(OSError, match=re.escape(f"No space left on device: '{tmp_path}/s.csv'")):
        save_series(series, tmp_path)
    with pytest.raises(OSError) as err:
        write_document(tmp_path / "doc.json", {"a": 1})
    assert (err.value.errno, err.value.filename) == (errno.ENOSPC, str(tmp_path / "doc.json"))
    monkeypatch.undo()
    assert open_fds() == before
    assert path.read_bytes() == b""  # truncated on open, as a text-mode write would leave it
