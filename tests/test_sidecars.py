"""Sidecars read apart from series bodies: ``load_stage_meta`` against
``load_series`` and ``load_stage``."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from shiftminer.series import MAX_SEED, AugmentMethod, Provenance, Source, Stage, TimeSeries
from shiftminer.storage import (
    MalformedFileError,
    SeriesMeta,
    load_series,
    load_stage,
    load_stage_meta,
    save_series,
    save_stage,
    stage_dir,
)

from conftest import make_series

WRONG_SHAPES = ["[]", '"x"', '{"provenance": "x"}', '{"provenance": []}',
                '{"id": 5}', '{"id": null}', '{"comment": 5}', '{"comment": ["x"]}',
                '{"source": []}', '{"stage": "raw"}',
                '{"stage": "augmented", "provenance": {"parent_id": "p", "method": {}, "seed": 1, '
                '"shift_verified": true}}']
# provenance fields of another type than the writer's, or out of range
WRONG_PROVENANCE_FIELDS = [{"parent_id": 5}, {"parent_id": None}, {"parent_id": ""},
                           {"seed": 3.9}, {"seed": "3"}, {"seed": True}, {"seed": -1},
                           {"seed": 2**64}, {"shift_verified": "false"}, {"shift_verified": 0},
                           {"shift_verified": None}]


def meta_of(series: TimeSeries) -> SeriesMeta:
    return SeriesMeta(series.id, series.source, series.stage, series.provenance, series.comment)


def family(root: Path) -> list[TimeSeries]:
    """Two pruned parents and their augmented children, saved under ``root``."""
    out = []
    for p in range(2):
        parent = make_series([1.0, 2.0, 3.0], sid=f"fred-P{p}", source=Source.FRED,
                             stage=Stage.PRUNED, comment=f"parent {p}")
        out.append(parent)
        for i in range(3):
            prov = Provenance(parent.id, list(AugmentMethod)[i], 10 * p + i, i != 1)
            out.append(make_series([1.0, 2.0, 4.0 + i], sid=f"{parent.id}-aug{i}",
                                   source=Source.FRED, stage=Stage.AUGMENTED, provenance=prov))
    save_stage(root, "ds", out)
    return out


def test_stage_meta_matches_loaded_series(tmp_path):
    family(tmp_path)
    for stage in (Stage.PRUNED, Stage.AUGMENTED):
        assert load_stage_meta(tmp_path, "ds", stage) == [
            meta_of(s) for s in load_stage(tmp_path, "ds", stage)
        ]
    assert load_stage_meta(tmp_path, "ds", Stage.ORIGINAL) == []


def test_series_without_sidecar_gets_the_same_metadata(tmp_path):
    family(tmp_path)
    save_stage(tmp_path, "ds", [s.with_stage(Stage.ORIGINAL)
                                for s in load_stage(tmp_path, "ds", Stage.PRUNED)])
    original = stage_dir(tmp_path, "ds", Stage.ORIGINAL)
    (original / "fred-P1.meta.json").unlink()
    loaded = load_series(original / "fred-P1.csv")
    meta = load_stage_meta(tmp_path, "ds", Stage.ORIGINAL)[1]
    assert meta == meta_of(loaded) == SeriesMeta("fred-P1", Source.SYNTHETIC, Stage.ORIGINAL,
                                                 None, "")
    # its children still name it as their parent, so they form one unit with it
    children = load_stage_meta(tmp_path, "ds", Stage.AUGMENTED)[3:]
    assert {c.provenance.parent_id for c in children} == {meta.id}


@pytest.mark.parametrize("stage, victim, fields", [
    (Stage.PRUNED, "fred-P1", None),
    (Stage.AUGMENTED, "fred-P0-aug1", None),
    (Stage.PRUNED, "fred-P1", {"stage": "original"}),
    (Stage.AUGMENTED, "fred-P0-aug1", {"stage": "pruned", "provenance": None}),
])
def test_stage_directory_rejects_a_series_of_another_stage(tmp_path, stage, victim, fields):
    """A missing sidecar (``fields`` None) gives the default stage, original,
    which only ``original/`` accepts; a sidecar may not name another stage."""
    family(tmp_path)
    sidecar = stage_dir(tmp_path, "ds", stage) / f"{victim}.meta.json"
    if fields is None:
        sidecar.unlink()
    else:
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **fields}))
    csv_path = sidecar.with_name(f"{victim}.csv")
    for load in (load_stage, load_stage_meta):
        with pytest.raises(MalformedFileError, match=re.escape(f"{csv_path}: a series of stage")):
            load(tmp_path, "ds", stage)
    # read alone, the series keeps what its sidecar, or the default, says
    assert load_series(csv_path).stage is (Stage.ORIGINAL if fields is None
                                           else Stage(fields["stage"]))


def test_dotted_id_finds_its_sidecar(tmp_path):
    prov = Provenance("yahoo-BRK.B-parent", AugmentMethod.TIME_WARP, 1, True)
    series = make_series([1.0, 2.0], sid="yahoo-BRK.B-2020-01-01-2020-01-02",
                         source=Source.YAHOO, stage=Stage.AUGMENTED, provenance=prov)
    path = save_series(series, stage_dir(tmp_path, "ds", Stage.AUGMENTED))
    assert load_series(path) == series
    assert load_stage_meta(tmp_path, "ds", Stage.AUGMENTED) == [meta_of(series)]


@pytest.mark.parametrize("doc", WRONG_SHAPES)
def test_sidecar_of_the_wrong_shape_is_malformed(tmp_path, doc):
    path = save_series(make_series([1.0, 2.0], sid="s"), stage_dir(tmp_path, "ds", Stage.ORIGINAL))
    sidecar = path.with_name("s.meta.json")
    sidecar.write_text(doc)
    for read in (lambda: load_series(path), lambda: load_stage(tmp_path, "ds", Stage.ORIGINAL),
                 lambda: load_stage_meta(tmp_path, "ds", Stage.ORIGINAL)):
        with pytest.raises(MalformedFileError, match=re.escape(f"{sidecar}: bad sidecar")):
            read()


@pytest.mark.parametrize("fields", WRONG_PROVENANCE_FIELDS)
def test_provenance_field_of_another_type_is_malformed(tmp_path, fields):
    """Fields are read as the types the writer writes, not coerced: a seed of
    3.9, "3" or true is no seed, and a shift_verified of "false" no bool."""
    family(tmp_path)
    sidecar = stage_dir(tmp_path, "ds", Stage.AUGMENTED) / "fred-P0-aug1.meta.json"
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**doc, "provenance": {**doc["provenance"], **fields}}))
    message = re.escape(f"{sidecar}: bad sidecar: bad provenance record")
    for read in (lambda: load_series(sidecar.with_name("fred-P0-aug1.csv")),
                 lambda: load_stage_meta(tmp_path, "ds", Stage.AUGMENTED),
                 lambda: load_stage(tmp_path, "ds", Stage.AUGMENTED)):
        with pytest.raises(MalformedFileError, match=message):
            read()


def test_provenance_with_a_null_seed_is_malformed(tmp_path):
    path = save_series(make_series([1.0, 2.0], sid="s"), tmp_path)
    bad = {"stage": "augmented", "provenance": {"parent_id": "p", "method": "time_warp",
                                               "seed": None, "shift_verified": True}}
    (tmp_path / "s.meta.json").write_text(json.dumps(bad))
    with pytest.raises(MalformedFileError, match="bad provenance record"):
        load_series(path)


def test_body_fault_is_reported_before_sidecar_fault(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("time,val\n2020-01-01,1.0\n")
    (tmp_path / "s.meta.json").write_text("[]")
    with pytest.raises(MalformedFileError, match="expected header"):
        load_series(path)


PROVENANCE = {"parent_id": "fred-P0", "method": "time_warp", "seed": 1, "shift_verified": True}


@pytest.mark.parametrize("stage, victim, fault", [
    (Stage.PRUNED, "fred-P1", {"stage": "original"}),
    (Stage.PRUNED, "fred-P1", None),
    (Stage.AUGMENTED, "fred-P0-aug0", {"id": ""}),
    (Stage.AUGMENTED, "fred-P0-aug0", {"provenance": None}),
    (Stage.PRUNED, "fred-P1", {"provenance": PROVENANCE}),
    (Stage.AUGMENTED, "fred-P0-aug0", "{not JSON"),
], ids=["other-stage", "no-sidecar", "empty-id", "augmented-without-provenance",
        "pruned-with-provenance", "not-json"])
def test_both_stage_loaders_refuse_the_same_faults(tmp_path, stage, victim, fault):
    """A sidecar that breaks a stage rule (``fault`` a dict of fields, or None for
    no sidecar) or is no JSON at all makes both loaders raise one MalformedFileError,
    naming the CSV, or the sidecar when it is no JSON."""
    family(tmp_path)
    sidecar = stage_dir(tmp_path, "ds", stage) / f"{victim}.meta.json"
    if fault is None:
        sidecar.unlink()
    elif isinstance(fault, str):
        sidecar.write_text(fault)
    else:
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **fault}))
    named = sidecar if isinstance(fault, str) else sidecar.with_name(f"{victim}.csv")
    messages = []
    for load in (load_stage, load_stage_meta):
        with pytest.raises(MalformedFileError, match=f"^{re.escape(str(named))}: ") as err:
            load(tmp_path, "ds", stage)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("fields", [{"provenance": None}, {"id": ""}])
def test_series_read_alone_keeps_the_label_checks(tmp_path, fields):
    family(tmp_path)
    sidecar = stage_dir(tmp_path, "ds", Stage.AUGMENTED) / "fred-P0-aug0.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **fields}))
    csv_path = sidecar.with_name("fred-P0-aug0.csv")
    with pytest.raises(ValueError, match=re.escape(str(csv_path))):
        load_series(csv_path)


@pytest.mark.parametrize("fields", [{"id": 5}, {"comment": None}])
def test_stage_meta_rejects_an_id_or_comment_that_is_not_a_string(tmp_path, fields):
    family(tmp_path)
    sidecar = stage_dir(tmp_path, "ds", Stage.AUGMENTED) / "fred-P0-aug1.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **fields}))
    with pytest.raises(MalformedFileError, match=re.escape(f"{sidecar}: bad sidecar: id and "
                                                           "comment must be strings")):
        load_stage_meta(tmp_path, "ds", Stage.AUGMENTED)


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


@st.composite
def stored_series(draw, stage: Stage | None = None) -> TimeSeries:
    """A two-row series of ``stage``, or of a drawn one."""
    stage = stage or draw(st.sampled_from(Stage))
    provenance = None if stage is not Stage.AUGMENTED else Provenance(
        draw(st.text(min_size=1, max_size=6)), draw(st.sampled_from(AugmentMethod)),
        draw(st.integers(0, MAX_SEED)), draw(st.booleans()))
    return make_series([1.0, 2.0], sid=draw(st.text("aZ09._-", min_size=1, max_size=8)),
                       source=draw(st.sampled_from(Source)), stage=stage,
                       provenance=provenance, comment=draw(st.text(max_size=6)))


def typed_meta(doc: dict) -> SeriesMeta | None:
    """The SeriesMeta of a document whose every field has the type and range the
    writer gives it, or None: the oracle, apart from the reader's code."""
    prov = doc["provenance"]
    typed = (type(doc["id"]) is str and type(doc["comment"]) is str
             and doc["source"] in [m.value for m in Source]
             and doc["stage"] in [m.value for m in Stage]
             and (prov is None or (type(prov) is dict
                                   and type(prov.get("parent_id")) is str and prov["parent_id"]
                                   and prov.get("method") in [m.value for m in AugmentMethod]
                                   and type(prov.get("seed")) is int
                                   and 0 <= prov["seed"] <= MAX_SEED
                                   and type(prov.get("shift_verified")) is bool)))
    if not typed:
        return None
    return SeriesMeta(doc["id"], Source(doc["source"]), Stage(doc["stage"]),
                      prov and Provenance(prov["parent_id"], AugmentMethod(prov["method"]),
                                          prov["seed"], prov["shift_verified"]),
                      doc["comment"])


SWAPPABLE = ["id", "source", "stage", "comment", "provenance", "provenance.parent_id",
             "provenance.method", "provenance.seed", "provenance.shift_verified"]
# well-typed fields that break one stage rule in a sidecar of a series of ``stage``
STAGE_FAULTS = {
    "another stage": lambda stage: {"stage": next(s.value for s in Stage if s is not stage)},
    "empty id": lambda stage: {"id": ""},
    "augmented without provenance": lambda stage: {"provenance": None},
    "pruned with provenance": lambda stage: {"provenance": {
        "parent_id": "p", "method": "time_warp", "seed": 1, "shift_verified": True}},
}
FAULT_STAGES = {"augmented without provenance": Stage.AUGMENTED,
                "pruned with provenance": Stage.PRUNED}  # the stage a fault needs, if one


@given(st.none() | st.sampled_from(list(STAGE_FAULTS)),
       st.sets(st.sampled_from(SWAPPABLE), max_size=2), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_sidecar_reads_as_written_or_is_malformed(tmp_path_factory, fault, swapped, data):
    """A written sidecar with up to two fields (of it or of its provenance
    record) swapped for any JSON value, and then perhaps one of the
    :data:`STAGE_FAULTS`, read by ``load_stage_meta`` from the directory of the
    series' stage: a document of well-typed fields that keeps the stage rules
    reads as its SeriesMeta (the written one when nothing was changed), one that
    breaks them raises MalformedFileError naming the CSV, any other raises
    MalformedFileError naming the sidecar, and no other exception escapes. Each
    outcome is a hypothesis ``event``: ``--hypothesis-show-statistics`` shows
    how many examples reached it."""
    series = data.draw(stored_series(FAULT_STAGES.get(fault)))
    root = tmp_path_factory.mktemp("sidecars")
    path = save_series(series, stage_dir(root, "ds", series.stage))
    sidecar = path.with_name(f"{series.id}.meta.json")
    doc = json.loads(sidecar.read_text())
    for field in sorted(swapped):  # a swapped record before a field of it
        key, _, inner = field.partition(".")
        if not inner:
            doc[key] = data.draw(ANY_JSON)
        elif type(doc["provenance"]) is dict:
            doc["provenance"][inner] = data.draw(ANY_JSON)
    if fault is not None:
        doc.update(STAGE_FAULTS[fault](series.stage))
    sidecar.write_text(json.dumps(doc))
    expected = typed_meta(doc)
    if expected is None:
        event("malformed")
        with pytest.raises(MalformedFileError, match=re.escape(f"{sidecar}: bad sidecar")):
            load_stage_meta(root, "ds", series.stage)
    elif expected.stage is series.stage and expected.id and (
            (expected.stage is Stage.AUGMENTED) == (expected.provenance is not None)):
        event("reads as written")
        assert load_stage_meta(root, "ds", series.stage) == [expected]
        assert swapped or fault or expected == meta_of(series)
    else:
        event(f"breaks a stage rule: {fault or 'a swap'} ({series.stage.value})")
        with pytest.raises(MalformedFileError, match=re.escape(f"{path}: ")):
            load_stage_meta(root, "ds", series.stage)
