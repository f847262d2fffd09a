from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import re
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftminer import demo, sources, storage
from shiftminer.augment import AugmentConfig, augment_set
from shiftminer.changepoint import DetectorConfig
from shiftminer.cli import main
from shiftminer.pipeline import (
    ConfigError,
    PipelineConfig,
    PruningEmptyError,
    StageError,
    Stages,
    load_config,
    report,
    run,
    split_dataset,
    split_train_test,
)
from shiftminer.querygen import (
    DISCOVERY_TEMPLATE,
    QUERY_TEMPLATE,
    SOURCE_DISPLAY_NAMES,
    render_text,
)
from shiftminer.series import Source, Stage
from shiftminer.sources import (
    RecordTransport,
    build_completion_request,
    RequestPacer,
    Response,
    load_queries,
    read_fixture,
    write_fixture,
)
from shiftminer.storage import DatasetManifest, load_stage

from conftest import LocalLive, Reply, ScriptedTransport, VirtualClock, make_series, step_values
from test_querygen import TWO_QUERY_TEXT, chat_reply

NOW = "2024-06-01T00:00:00+00:00"


@pytest.fixture()
def mini_corpus(tmp_path):
    fixtures = tmp_path / "fixtures"
    query_file = demo.build_fred_corpus(fixtures, count=16, seed=2)
    config_path = demo.build_demo_config(fixtures, tmp_path / "data", query_file,
                                         dataset_name="mini", master_seed=11)
    return {"config_path": config_path, "root": tmp_path}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def fail_on_third_file(monkeypatch, stage: Stage) -> list[Path]:
    """Make the stage writer raise ``OSError`` on its third file in ``stage``'s
    directory; returns the files it wrote there before that."""
    write_file = storage._write_file
    written: list[Path] = []

    def fail_on_third(path, text):
        if Path(path).parent.name == stage.value:
            if len(written) == 2:
                raise OSError("disk full")
            written.append(Path(path))
        write_file(path, text)

    monkeypatch.setattr(storage, "_write_file", fail_on_third)
    return written


class TestConfig:
    def test_load(self, mini_corpus):
        config = load_config(mini_corpus["config_path"])
        assert config.source is Source.FRED
        assert config.transport_mode == "replay"
        assert config.augment.factor == 30

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("key, value, block", [
        ("split_ratio", 0.8, None),  # the split's ratio is `split --ratio`
        ("changepoint", {"penalty_beta": 2.5}, None),  # the detector block is spelled "detector"
        # the transforms' shapes are constants of the augment module
        ("knot_mu", 1.0, "augment"),
        ("window_warp_fraction", 0.1, "augment"),
        ("warp_scales", [0.5, 2.0], "augment"),
        ("slice_fraction", 0.9, "augment"),
        ("max_changepoints", 1, "detector"),  # no stage read it
        ("known_k", 1, "detector"),  # fixed-count search is binary_segmentation's k
        ("master_seed", 5, "augment"),  # the one seed is master_seed
    ])
    def test_dropped_keys_are_unknown(self, tmp_path, key, value, block):
        path = tmp_path / "cfg.json"
        entry = {key: value} if block is None else {block: {key: value}}
        path.write_text(json.dumps({"dataset_name": "d", "source": "fred", **entry}))
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: .*{key}"):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 2

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset_name": "d", "source": "fred", "bogus": 1}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("block, key, value", [
        (None, "dataset_name", 5),
        (None, "domain", ["a"]),
        ("detector", "min_segment_size", 2.5),
        ("augment", "factor", 30.0),
        ("augment", "knot_count", 3.0),
        (None, "master_seed", -1),
        (None, "master_seed", 2**64),
        (None, "master_seed", "7"),
        (None, "master_seed", True),
        ("augment", "verify_shift", "false"),
        ("detector", "penalty_beta", True),
        ("detector", "penalty_beta", "3"),
        ("augment", "knot_sigma", "0.2"),
        ("augment", "knot_sigma", False),
        (None, "query_count", -5),
        (None, "query_count", 0),
    ])
    def test_a_bad_setting_exits_2_naming_it_before_any_write(
        self, mini_corpus, capsys, block, key, value
    ):
        raw = json.loads(mini_corpus["config_path"].read_text())
        (raw if block is None else raw[block])[key] = value
        path = mini_corpus["config_path"].with_name("bad.json")
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert not (mini_corpus["root"] / "data").exists()

    def test_a_negative_seed_flag_exits_2_before_any_write(self, mini_corpus, capsys):
        assert main(["run", "--config", str(mini_corpus["config_path"]), "--seed", "-1"]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not (mini_corpus["root"] / "data").exists()


class TestRun:
    def test_counts_layout_and_notes(self, mini_corpus):
        config = load_config(mini_corpus["config_path"])
        manifest = run(config, now=NOW)
        assert manifest.count_original == 16
        assert manifest.count_augmented == manifest.count_pruned * 30
        assert manifest.notes["queries"] == "external"
        root = mini_corpus["root"] / "data"
        assert (root / "mini" / "manifest.json").exists()
        for stage, count in (
            (Stage.ORIGINAL, manifest.count_original),
            (Stage.PRUNED, manifest.count_pruned),
            (Stage.AUGMENTED, manifest.count_augmented),
        ):
            series = load_stage(root, "mini", stage)
            assert len(series) == count
            assert all(s.stage is stage for s in series)
        lengths = [len(s) for s in load_stage(root, "mini", Stage.ORIGINAL)]
        assert manifest.length_min == min(lengths)
        assert manifest.length_max == max(lengths)

    def test_augment_logs_one_summary_line(self, mini_corpus, caplog):
        with caplog.at_level(logging.INFO, logger="shiftminer.pipeline"):
            manifest = run(load_config(mini_corpus["config_path"]), now=NOW)
        unverified = int(manifest.notes["unverified_augmented"])
        share = 100.0 * unverified / manifest.count_augmented
        assert [r.getMessage() for r in caplog.records if "augmented" in r.getMessage()] == [
            f"augmented {manifest.count_augmented} series from {manifest.count_pruned} parents; "
            f"{unverified} ({share:.1f}%) unverified"
        ]

    def test_rerun_requires_force(self, mini_corpus):
        config = load_config(mini_corpus["config_path"])
        run(config, now=NOW)
        with pytest.raises(ConfigError):
            run(config, now=NOW)
        run(config, now=NOW, force=True)

    def test_replay_determinism(self, mini_corpus):
        config = load_config(mini_corpus["config_path"])
        run(config, now=NOW)
        first = tree_bytes(mini_corpus["root"] / "data" / "mini")
        run(config, now=NOW, force=True)
        second = tree_bytes(mini_corpus["root"] / "data" / "mini")
        assert first == second

    def test_missing_fixtures_fail_collect_stage(self, mini_corpus, tmp_path):
        config = load_config(mini_corpus["config_path"])
        config = dataclasses.replace(config, fixtures_dir=tmp_path / "empty",
                                     output_dir=tmp_path / "out")
        with pytest.raises(StageError) as err:
            run(config, now=NOW)
        assert err.value.stage == "collect"
        assert not (tmp_path / "out" / config.dataset_name / "manifest.json").exists()
        assert not (tmp_path / "out" / config.dataset_name / "original").exists()

    def test_all_flat_corpus_raises_empty_prune(self, tmp_path):
        fixtures = tmp_path / "fx"
        query_file = demo.build_fred_corpus(fixtures, count=6, seed=5, shifted_share=0.0)
        config_path = demo.build_demo_config(fixtures, tmp_path / "data", query_file,
                                             dataset_name="flat")
        with pytest.raises(StageError) as err:
            run(load_config(config_path), now=NOW)
        assert isinstance(err.value.cause, PruningEmptyError)

    def test_prune_error_becomes_stage_error(self, mini_corpus, monkeypatch):
        def broken(values, config):
            raise RuntimeError("detector broke")

        monkeypatch.setattr("shiftminer.changepoint.classify_rows", broken)
        with pytest.raises(StageError) as err:
            run(load_config(mini_corpus["config_path"]), now=NOW)
        assert err.value.stage == "prune"
        assert isinstance(err.value.cause, RuntimeError)

    def test_generated_queries_via_llm_fixture(self, tmp_path):
        fixtures = tmp_path / "fx"
        query_file = demo.build_fred_corpus(fixtures, count=12, seed=9)
        queries = load_queries(query_file)
        demo.build_llm_fixture(fixtures, queries, query_count=12)
        config = PipelineConfig(
            dataset_name="gen",
            source=Source.FRED,
            transport_mode="replay",
            output_dir=tmp_path / "data",
            fixtures_dir=fixtures,
            master_seed=4,
            query_count=12,
            augment=AugmentConfig(factor=3, master_seed=None),
        )
        manifest = run(config, now=NOW)
        assert manifest.notes["queries"] == "generated"
        assert manifest.count_original == 12


LLM_ENV = {"LLM_ENDPOINT": "https://llm.test/v1/chat/completions", "LLM_MODEL": "m1",
           "LLM_API_KEY": "llm-s3cret"}


@pytest.mark.parametrize("source", ["fred", "eia", "yahoo", "trends"])
def test_a_recorded_run_replays_to_the_same_tree(tmp_path, monkeypatch, http_server, source):
    """A whole ``run`` in record mode against a local server, which answers the
    completion and then the data requests, one 429 and one 503 among them,
    waited out on a virtual clock; then a replay run of that recording, with
    no variable set, writes the same tree."""
    canned = demo.build_connector_fixtures(tmp_path / "canned")
    query = next(q for q in load_queries(canned["queries"]) if q.source.value == source)
    completion = read_fixture(demo.build_llm_fixture(tmp_path / "canned", [query], 1)).body
    bodies = [read_fixture(path).body.encode("utf-8")
              for name, path in canned.items() if name.startswith(source)]
    http_server.replies += [Reply(429), Reply(200, completion.encode("utf-8")), Reply(503),
                            *(Reply(200, body) for body in bodies)]
    for name, value in {**LLM_ENV, "FRED_API_KEY": "fred-s3cret",
                        "EIA_API_KEY": "eia-s3cret"}.items():
        monkeypatch.setenv(name, value)
    fixtures = tmp_path / "recorded"
    config = PipelineConfig("rec", Source(source), transport_mode="record", query_count=1,
                            output_dir=tmp_path / "live", fixtures_dir=fixtures, master_seed=3,
                            augment=AugmentConfig(factor=3, master_seed=None))
    clock = VirtualClock()
    manifest = run(config, now=NOW, transport=RecordTransport(fixtures, LocalLive(http_server.url)),
                   pacer=RequestPacer(clock))
    assert (manifest.notes["queries"], manifest.count_original) == ("generated", 1)
    assert manifest.count_augmented == 3 * manifest.count_pruned > 0
    assert [method for method, *_ in http_server.received] == ["POST"] * 2 + ["GET"] * (
        len(bodies) + 1)
    assert http_server.received[0][1] == "/v1/chat/completions"
    # backoff after the 429 and after the 503, then EIA's second page paced
    assert clock.sleeps == [1.0, 1.0] + [0.5] * (len(bodies) - 1)
    recorded = tree_bytes(fixtures)
    prompt = render_text(QUERY_TEMPLATE.body, {
        "source_name": SOURCE_DISPLAY_NAMES[Source(source)], "query_count": "1"})
    fingerprint = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    assert read_fixture(fixtures / "llm" / f"{fingerprint}.http").body == completion
    assert len(recorded) == 1 + len(bodies)
    assert not any(b"s3cret" in data for data in recorded.values())

    for name in (*LLM_ENV, "FRED_API_KEY", "EIA_API_KEY"):
        monkeypatch.delenv(name)
    replayed = dataclasses.replace(config, transport_mode="replay", output_dir=tmp_path / "replay")
    assert run(replayed, now=NOW) == manifest
    assert tree_bytes(tmp_path / "replay") == tree_bytes(tmp_path / "live")


def run_queries(config, queries, out: Path) -> dict[str, bytes]:
    """The dataset tree of a run of ``config`` on ``queries`` under ``out``."""
    query_file = sources.save_queries(queries, out.with_suffix(".queries.json"))
    run(dataclasses.replace(config, query_file=query_file, output_dir=out), now=NOW)
    return tree_bytes(out / "mini")


@pytest.fixture(scope="module")
def mini_full_run(tmp_path_factory):
    """The mini corpus's config and queries, the series ids each query
    fetches, and the tree of a run on every query (under ``<root>/all``)."""
    root = tmp_path_factory.mktemp("mini")
    query_file = demo.build_fred_corpus(root / "fixtures", count=16, seed=2)
    config = load_config(demo.build_demo_config(root / "fixtures", root / "data", query_file,
                                                dataset_name="mini", master_seed=11))
    queries = load_queries(config.query_file)
    transport = sources.make_transport("replay", config.fixtures_dir)
    ids = [[s.id for s in sources.fetch(q, transport)] for q in queries]
    return config, queries, ids, run_queries(config, queries, root / "all"), root


def descendants(tree: dict[str, bytes], ids) -> dict[str, bytes]:
    """The files of ``tree`` of the series ``ids`` and their augmented children."""
    prefixes = tuple(f"{sid}{end}" for sid in ids for end in (".", "-aug"))
    return {path: data for path, data in tree.items() if Path(path).name.startswith(prefixes)}


class TestPerSeriesIndependence:
    """A series' files are a function of that series and the seed alone, not
    of the order of the queries or of which other series were collected."""

    def _run(self, config, queries, out: Path) -> dict[str, bytes]:
        return run_queries(config, queries, out)

    @given(st.data())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_a_drawn_order_and_subset_of_queries_keep_their_series_bytes(
        self, mini_full_run, data
    ):
        config, queries, ids, full, root = mini_full_run
        # queries that dedup merges are kept or dropped together, in file order,
        # since dedup keeps the first one's comment
        groups: dict[str, list[int]] = {}
        for index, query in enumerate(queries):
            groups.setdefault(sources.canonical_query_key(query), []).append(index)
        order = data.draw(st.permutations(sorted(groups)))
        kept = order[: data.draw(st.integers(1, len(order)))]
        kept_ids = [sid for key in kept for index in groups[key] for sid in ids[index]]
        assume(any(path.startswith("pruned/") for path in descendants(full, kept_ids)))
        with tempfile.TemporaryDirectory(dir=root) as out:
            after = self._run(config, [queries[i] for key in kept for i in groups[key]],
                              Path(out) / "kept")
        manifests = [json.loads(tree.pop("manifest.json")) for tree in (after, dict(full))]
        assert after == descendants(full, kept_ids)
        for manifest in manifests:
            for key in ("count_original", "count_pruned", "count_augmented",
                        "length_min", "length_max"):
                del manifest[key]
        assert manifests[0] == manifests[1]

    @given(st.data())
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_augmenting_a_subset_of_parents_writes_their_children_of_the_full_run(
        self, mini_full_run, data
    ):
        config, _, _, full, root = mini_full_run
        parents = sorted(Path(path).name.removesuffix(".csv") for path in full
                         if path.startswith("pruned/") and path.endswith(".csv"))
        subset = data.draw(st.sets(st.sampled_from(parents), min_size=1))
        with tempfile.TemporaryDirectory(dir=root) as out:
            dataset = Path(out) / "mini"
            shutil.copytree(root / "all" / "mini", dataset,
                            ignore=shutil.ignore_patterns("augmented"))
            for path in (dataset / "pruned").iterdir():
                if path.name.split(".")[0] not in subset:
                    path.unlink()
            Stages(dataclasses.replace(config, output_dir=Path(out)), NOW).rerun(Stage.AUGMENTED)
            after = tree_bytes(dataset / "augmented")
        expect = descendants(full, subset)
        assert {f"augmented/{path}": data for path, data in after.items()} == {
            path: data for path, data in expect.items() if path.startswith("augmented/")
        }

    def test_reversed_queries_leave_the_tree_byte_identical(self, mini_corpus, tmp_path):
        config = load_config(mini_corpus["config_path"])
        queries = load_queries(config.query_file)
        assert (self._run(config, queries[::-1], tmp_path / "reversed")
                == self._run(config, queries, tmp_path / "forward"))

    def test_dropping_a_pruned_query_removes_exactly_its_files(self, mini_corpus, tmp_path):
        config = load_config(mini_corpus["config_path"])
        queries = load_queries(config.query_file)
        before = self._run(config, queries, tmp_path / "all")
        parent = load_stage(tmp_path / "all", "mini", Stage.PRUNED)[0].id
        transport = sources.make_transport("replay", config.fixtures_dir)
        kept = [q for q in queries if [s.id for s in sources.fetch(q, transport)] != [parent]]
        assert len(kept) == len(queries) - 1
        after = self._run(config, kept, tmp_path / "kept")

        gone = {p for p in before if Path(p).name.startswith((f"{parent}.", f"{parent}-aug"))}
        assert len(gone) == 64  # csv and sidecar: original, pruned and 30 children
        assert set(after) == set(before) - gone
        assert all(after[p] == before[p] for p in after if p != "manifest.json")
        old, new = (json.loads(tree["manifest.json"]) for tree in (before, after))
        assert [new.pop(k) - old.pop(k) for k in ("count_original", "count_pruned",
                                                  "count_augmented")] == [-1, -1, -30]
        for key in ("length_min", "length_max"):
            old.pop(key), new.pop(key)
        assert new == old


class TestAugmentMemory:
    """The augment stage writes each parent's children before it draws the
    next parent's, so its peak does not grow with the number of parents."""

    FACTOR, LENGTH, N = 30, 100, 8

    @classmethod
    def _peak(cls, root: Path, parents: int) -> int:
        config = PipelineConfig(dataset_name="mem", source=Source.SYNTHETIC, output_dir=root,
                                augment=AugmentConfig(factor=cls.FACTOR), master_seed=3)
        pruned = [make_series(step_values(cls.LENGTH, 5.0, 0.3, seed=i), sid=f"p{i:03d}",
                              stage=Stage.PRUNED) for i in range(parents)]
        stages = Stages(config, NOW)
        stages.manifest = DatasetManifest("mem", "", "", cls.LENGTH, cls.LENGTH, parents,
                                          parents, 0, 3, NOW)
        tracemalloc.start()
        try:
            stages.augment(pruned)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_on_four_times_the_parents_stays_within_one_and_a_half_times(self, tmp_path):
        self._peak(tmp_path / "warm", 1)  # first-call allocations count in neither run
        few = self._peak(tmp_path / "few", self.N)
        many = self._peak(tmp_path / "many", 4 * self.N)
        assert many <= 1.5 * few, (few, many)


def test_every_stage_holds_read_only_day_arrays_shared_down_the_stages(mini_corpus, monkeypatch):
    """Collected, pruned, augmented and loaded series hold read-only ``datetime64[D]``
    arrays; a pruned series keeps its original's array and a child its parent's."""
    config = load_config(mini_corpus["config_path"])
    stages = Stages(config, NOW)
    originals = stages.collect()
    pruned = stages.prune(originals)
    children, save = [], storage.save_stage
    monkeypatch.setattr(storage, "save_stage",
                        lambda root, name, series: children.extend(series) or save(root, name, series))
    stages.augment(pruned)
    by_id = {s.id: s for s in originals + pruned}
    assert pruned and all(s.timestamps is by_id[s.id].timestamps for s in pruned)
    assert children and all(s.timestamps is by_id[s.provenance.parent_id].timestamps
                            for s in children)
    loaded = [s for stage in Stage for s in storage.load_stage(config.output_dir, "mini", stage)]
    assert len(loaded) == len(originals) + len(pruned) + len(children)
    for series in originals + children + loaded:
        assert str(series.timestamps.dtype) == "datetime64[D]"
        assert not series.timestamps.flags.writeable


class TestCatalogDefaults:
    """A config without ``domain`` and ``description`` takes them from
    ``<output_dir>/catalog.json``; a catalog that is not a list of objects
    counts as unreadable, which leaves them empty."""

    @staticmethod
    def _config_without_domain(mini_corpus) -> Path:
        config = json.loads(mini_corpus["config_path"].read_text())
        del config["domain"], config["description"]
        path = mini_corpus["config_path"].with_name("no-domain.json")
        path.write_text(json.dumps(config))
        return path

    @pytest.mark.parametrize("catalog", [{"name": "fred"}, ["fred"]])
    def test_malformed_catalog_leaves_the_fields_empty(self, mini_corpus, capsys, catalog):
        config_path = str(self._config_without_domain(mini_corpus))
        root = mini_corpus["root"] / "data"
        assert main(["run", "--config", config_path]) == 0
        (root / "catalog.json").write_text(json.dumps(catalog))
        assert main(["run", "--config", config_path, "--force"]) == 0
        manifest = storage.load_manifest(root, "mini")
        assert (manifest.domain, manifest.description) == ("", "")
        assert len(load_stage(root, "mini", Stage.AUGMENTED)) == manifest.count_augmented > 0

    def test_matching_entry_fills_domain_and_description(self, mini_corpus):
        root = mini_corpus["root"] / "data"
        root.mkdir()
        (root / "catalog.json").write_text(json.dumps([
            {"name": "Yahoo Finance", "domain": "Finance", "description": "Market quotes"},
            {"name": "FRED", "domain": "Economics", "description": "Macroeconomic series"},
        ]))
        manifest = run(load_config(self._config_without_domain(mini_corpus)), now=NOW)
        assert (manifest.domain, manifest.description) == ("Economics", "Macroeconomic series")


class TestSplit:
    def _flock(self, n_parents=100, children_per=3):
        out = []
        for i in range(n_parents):
            parent = make_series(step_values(40, 4.0, 0.2, seed=i), sid=f"p{i:03d}",
                                 stage=Stage.PRUNED)
            out.append(parent)
            config = AugmentConfig(factor=3, master_seed=1, verify_shift=False)
            out.extend(augment_set([parent], config, DetectorConfig())[:children_per])
        return out

    def test_ratio_arithmetic(self):
        series = self._flock(100, 0)
        train, test = split_train_test(series, 0.8, seed=0)
        assert len(train) == 80 and len(test) == 20

    def test_leakage_free_across_seeds(self):
        series = self._flock(12, 3)
        for seed in range(20):
            train, test = split_train_test(series, 0.8, seed=seed)
            train_parents = {s.id for s in train if s.provenance is None}
            for s in train:
                if s.provenance is not None:
                    assert s.provenance.parent_id in train_parents
            test_parents = {s.id for s in test if s.provenance is None}
            for s in test:
                if s.provenance is not None:
                    assert s.provenance.parent_id in test_parents
            assert not (train_parents & test_parents)

    def test_deterministic(self):
        series = self._flock(10, 2)
        a = split_train_test(series, 0.8, seed=123)
        b = split_train_test(series, 0.8, seed=123)
        assert [s.id for s in a[0]] == [s.id for s in b[0]]
        assert [s.id for s in a[1]] == [s.id for s in b[1]]

    def test_parent_count_override(self):
        series = self._flock(77, 0)
        config = AugmentConfig(factor=30, master_seed=1, verify_shift=False)
        expanded = series + augment_set(series, config, DetectorConfig())
        train, test = split_train_test(expanded, 0.8, seed=5, train_parent_count=62)
        train_aug = [s for s in train if s.provenance is not None]
        test_parents = [s for s in test if s.provenance is None]
        assert len(train_aug) == 62 * 30 == 1860
        assert len(test_parents) == 15

    def test_empty_input(self):
        with pytest.raises(ConfigError, match="cannot split an empty series list"):
            split_train_test([], 0.8, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.0, True, "3"])
    def test_seed_outside_the_seed_range_is_a_config_error(self, seed):
        message = f"seed must be an int in [0, 2**64): {seed!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            split_train_test(self._flock(3, 1), 0.8, seed=seed)
        assert split_train_test(self._flock(3, 1), 0.8, seed=2**64 - 1)

    def test_split_dataset_files(self, mini_corpus):
        config = load_config(mini_corpus["config_path"])
        manifest = run(config, now=NOW)
        summary = split_dataset(config.output_dir, "mini", ratio=0.8, seed=3)
        counts = summary["counts"]
        assert counts["train_parents"] == round(0.8 * manifest.count_pruned + 1e-9)
        assert counts["train_augmented"] == counts["train_parents"] * 30
        assert counts["test_augmented"] == 0
        splits_dir = config.output_dir / "mini" / "splits"
        train_doc = json.loads((splits_dir / "train.json").read_text())
        assert len(train_doc["augmented"]) == counts["train_augmented"]


class TestReport:
    def _manifest(self, **overrides):
        fields = dict(
            name="fred-fixture", domain="Economics", description="demo",
            length_min=31, length_max=1305,
            count_original=241, count_pruned=77, count_augmented=2310,
            seed=0, created_at=NOW,
        )
        fields.update(overrides)
        return DatasetManifest(**fields)

    def test_text_row_contains_counts(self):
        text = report(self._manifest())
        assert "241" in text and "2310" in text and "77" in text

    def test_csv_two_lines(self):
        text = report(self._manifest(), fmt="csv")
        assert len(text.splitlines()) == 2
        header, row = text.splitlines()
        assert header.startswith("name,domain,description")
        assert row.split(",")[5:] == ["241", "77", "2310"]

    def test_zero_count_manifest(self):
        manifest = self._manifest(count_original=0, count_pruned=0, count_augmented=0,
                                  length_min=0, length_max=0)
        text = report(manifest, fmt="csv")
        assert text.splitlines()[1].endswith("0,0,0")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            report(self._manifest(), fmt="yaml")


class TestCli:
    def test_run_and_report(self, mini_corpus, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1717200000")
        code = main(["run", "--config", str(mini_corpus["config_path"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "original: 16" in out
        root = mini_corpus["root"] / "data"
        code = main(["report", "--dataset", "mini", "--output-dir", str(root), "--csv"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_generate_queries_cli(self, tmp_path, capsys):
        fixtures = tmp_path / "fx"
        query_file = demo.build_fred_corpus(fixtures, count=10, seed=3)
        demo.build_llm_fixture(fixtures, load_queries(query_file), query_count=10)
        out_path = tmp_path / "queries.json"
        code = main([
            "generate-queries", "--source", "fred", "--count", "10",
            "--out", str(out_path), "--fixtures", str(fixtures),
        ])
        assert code == 0
        assert len(load_queries(out_path)) == 10

    @pytest.mark.parametrize("command, flag", [
        ("generate-queries", "--count"), ("generate-queries", "--max-rounds"),
        ("discover", "--max-rounds"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_exit_2_and_write_nothing(self, tmp_path, capsys, command, flag,
                                                       value):
        out_path = tmp_path / "out.json"
        out_path.write_text("[]\n")
        source = ["--source", "fred"] if command == "generate-queries" else []
        with pytest.raises(SystemExit) as exit_:
            main([command, *source, "--out", str(out_path), "--fixtures", str(tmp_path),
                  flag, value])
        assert exit_.value.code == 2
        assert f"argument {flag}: must be at least 1: {value}" in capsys.readouterr().err
        assert out_path.read_text() == "[]\n"

    def test_split_cli(self, mini_corpus, capsys):
        main(["run", "--config", str(mini_corpus["config_path"])])
        root = mini_corpus["root"] / "data"
        code = main(["split", "--dataset", "mini", "--ratio", "0.8", "--seed", "1",
                     "--output-dir", str(root)])
        assert code == 0
        assert "train:" in capsys.readouterr().out

    def test_exit_code_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["run", "--config", str(bad)]) == 2

    def test_exit_code_collect_error(self, mini_corpus, tmp_path, capsys):
        config = json.loads(Path(mini_corpus["config_path"]).read_text())
        config["fixtures_dir"] = str(tmp_path / "void")
        config["output_dir"] = str(tmp_path / "d2")
        path = mini_corpus["config_path"].with_name("cfg.json")
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 3

    @pytest.mark.parametrize(
        "record", ['{"status": 200}', '[200]\n{}', '{"status": "200"}\n{}'],
        ids=["no-newline", "header-not-object", "status-not-int"],
    )
    def test_exit_code_unreadable_fixture(self, mini_corpus, capsys, record):
        fixture = sorted((mini_corpus["root"] / "fixtures" / "fred").glob("*.http"))[0]
        fixture.write_text(record)
        assert main(["run", "--config", str(mini_corpus["config_path"])]) == 3
        assert f"unreadable fixture {fixture}" in capsys.readouterr().err

    @pytest.mark.parametrize("fixture", ["response", "completion"])
    def test_exit_code_fixture_that_is_a_directory(self, mini_corpus, capsys, fixture):
        """A fixture that cannot be read is an I/O error naming it, whichever kind it is."""
        fixtures = mini_corpus["root"] / "fixtures"
        config = json.loads(mini_corpus["config_path"].read_text())
        if fixture == "completion":
            queries = load_queries(fixtures / config.pop("query_file"))
            path = demo.build_llm_fixture(fixtures, queries, query_count=16)
            config["query_count"] = 16
        else:
            path = sorted((fixtures / "fred").glob("*.http"))[0]
        path.unlink()
        path.mkdir()
        config_path = mini_corpus["config_path"].with_name("cfg.json")
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 5
        assert str(path) in capsys.readouterr().err

    def test_exit_code_empty_prune(self, tmp_path, capsys):
        fixtures = tmp_path / "fx"
        query_file = demo.build_fred_corpus(fixtures, count=5, seed=6, shifted_share=0.0)
        config_path = demo.build_demo_config(fixtures, tmp_path / "data", query_file,
                                             dataset_name="flat")
        assert main(["run", "--config", str(config_path)]) == 4

    def test_exit_code_other_stage_error(self, mini_corpus, capsys, monkeypatch):
        def broken(pruned, config, detector):
            raise RuntimeError("augment broke")

        monkeypatch.setattr("shiftminer.pipeline.augment_set", broken)
        assert main(["run", "--config", str(mini_corpus["config_path"])]) == 1

    def test_exit_code_io_error(self, mini_corpus, tmp_path, capsys):
        config = json.loads(Path(mini_corpus["config_path"]).read_text())
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a dir")
        config["output_dir"] = str(blocker / "data")
        path = mini_corpus["config_path"].with_name("cfg.json")
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 5

    def test_record_mode_queries_stage_cannot_write_its_recording(self, tmp_path, monkeypatch):
        for name, value in LLM_ENV.items():
            monkeypatch.setenv(name, value)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        config = PipelineConfig("rec", Source.FRED, transport_mode="record",
                                output_dir=tmp_path / "data", fixtures_dir=blocker / "fx")
        live = ScriptedTransport([Response(200, chat_reply(TWO_QUERY_TEXT))])
        with pytest.raises(StageError) as err:
            run(config, transport=RecordTransport(blocker / "fx", live))
        assert err.value.stage == "queries"
        assert isinstance(err.value.cause, OSError)
        assert err.value.cause.filename == str(blocker / "fx" / "llm")

    @pytest.mark.parametrize("endpoint, code", [(True, 5), (False, 3)],
                             ids=["unwritable-recording", "backend-error"])
    def test_exit_code_record_mode_query_generation(self, tmp_path, monkeypatch, capsys,
                                                    http_server, endpoint, code):
        """An unwritable recording is an I/O error; a completion that fails
        before it is recorded, here for want of ``LLM_ENDPOINT``, a collect error."""
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        monkeypatch.setenv("LLM_MODEL", "m1")
        if endpoint:
            monkeypatch.setenv("LLM_ENDPOINT", http_server.url)
            http_server.replies += [Reply(200, chat_reply(TWO_QUERY_TEXT).encode())] * 2
        else:
            monkeypatch.delenv("LLM_ENDPOINT", raising=False)
        config = {"dataset_name": "rec", "source": "fred", "transport_mode": "record",
                  "output_dir": str(tmp_path / "data"), "fixtures_dir": str(blocker / "fx")}
        config_path = storage.write_document(tmp_path / "rec.json", config)
        assert main(["run", "--config", str(config_path)]) == code
        assert main(["generate-queries", "--source", "fred", "--transport", "record",
                     "--fixtures", str(blocker / "fx"), "--out", str(tmp_path / "q.json")]) == code

    @pytest.mark.parametrize("command", ["generate-queries", "discover", "run", "collect"])
    @pytest.mark.parametrize("reply, message", [
        (None, "no fixture {path} for llm"),
        (Response(404, "{}"), "HTTP 404: llm"),
        (Response(503, "busy"), "HTTP 503: llm: retries exhausted"),
        (Response(200, '{"choices": []}'), "not a chat completion"),
    ], ids=["missing", "not-found", "retries-run-out", "not-a-chat-completion"])
    def test_every_completion_failure_exits_3(self, tmp_path, capsys, command, reply, message):
        fixtures = tmp_path / "fx"
        template, bindings = QUERY_TEMPLATE, {"source_name": "FRED", "query_count": "50"}
        if command == "discover":
            template, bindings = DISCOVERY_TEMPLATE, {}
        request = build_completion_request(render_text(template.body, bindings), "replay")
        path = sources.ReplayTransport(fixtures).fixture_path(request)
        if reply is not None:
            assert write_fixture(fixtures, request, reply) == path
        config = storage.write_document(tmp_path / "cfg.json", {
            "dataset_name": "gen", "source": "fred", "output_dir": str(tmp_path / "data"),
            "fixtures_dir": "fx"})
        args = {"generate-queries": ["--source", "fred", "--out", str(tmp_path / "q.json")],
                "discover": ["--out", str(tmp_path / "catalog.json")]}.get(
            command, ["--config", str(config)])
        if command in ("generate-queries", "discover"):
            args += ["--fixtures", str(fixtures)]
        assert main([command, *args]) == 3
        assert message.format(path=path) in capsys.readouterr().err
        assert not (tmp_path / "data").exists() and not (tmp_path / "q.json").exists()

    def test_prune_and_augment_subcommands(self, mini_corpus, capsys):
        config_path = str(mini_corpus["config_path"])
        main(["collect", "--config", config_path])
        root = mini_corpus["root"] / "data"
        code = main(["prune", "--dataset", "mini", "--config", config_path,
                     "--output-dir", str(root)])
        assert code == 0
        code = main(["augment", "--dataset", "mini", "--config", config_path,
                     "--output-dir", str(root)])
        assert code == 0
        pruned = load_stage(root, "mini", Stage.PRUNED)
        augmented = load_stage(root, "mini", Stage.AUGMENTED)
        assert len(augmented) == len(pruned) * 30

    def test_prune_rerun_replaces_stage(self, mini_corpus, tmp_path, capsys):
        config_path = str(mini_corpus["config_path"])
        stage_root = mini_corpus["root"] / "data" / "mini"
        assert main(["collect", "--config", config_path]) == 0
        assert main(["prune", "--dataset", "mini", "--config", config_path]) == 0
        first_kept = len(list((stage_root / "pruned").glob("*.csv")))
        strict = json.loads(Path(config_path).read_text())
        strict["detector"] = {"penalty_beta": 100}
        strict_path = tmp_path / "strict.json"
        strict_path.write_text(json.dumps(strict))
        capsys.readouterr()
        assert main(["prune", "--dataset", "mini", "--config", str(strict_path)]) == 0
        kept = int(re.search(r"kept (\d+) of 16 series", capsys.readouterr().out).group(1))
        assert 0 < kept < first_kept
        assert len(list((stage_root / "pruned").glob("*.csv"))) == kept
        assert main(["augment", "--dataset", "mini", "--config", str(strict_path)]) == 0
        assert len(list((stage_root / "augmented").glob("*.csv"))) == 30 * kept

    def test_rerun_drops_later_stages_and_updates_manifest(
        self, mini_corpus, tmp_path, capsys, monkeypatch
    ):
        config_path = str(mini_corpus["config_path"])
        root = mini_corpus["root"] / "data"
        dataset = root / "mini"
        assert main(["run", "--config", config_path]) == 0
        assert main(["split", "--dataset", "mini", "--output-dir", str(root)]) == 0
        strict = json.loads(Path(config_path).read_text())
        strict["detector"] = {"penalty_beta": 100}
        strict_path = tmp_path / "strict.json"
        strict_path.write_text(json.dumps(strict))
        capsys.readouterr()

        assert main(["prune", "--dataset", "mini", "--config", str(strict_path)]) == 0
        kept = int(re.search(r"kept (\d+) of 16 series", capsys.readouterr().out).group(1))
        assert not (dataset / "augmented").exists()
        assert not (dataset / "splits").exists()
        assert main(["report", "--dataset", "mini", "--output-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"pruned: {kept} | augmented: 0" in out
        notes = json.loads((dataset / "manifest.json").read_text())["notes"]
        assert notes["unverified_augmented"] == "0"

        assert main(["augment", "--dataset", "mini", "--config", str(strict_path)]) == 0
        assert len(list((dataset / "augmented").glob("*.csv"))) == 30 * kept
        capsys.readouterr()
        assert main(["report", "--dataset", "mini", "--output-dir", str(root)]) == 0
        assert f"pruned: {kept} | augmented: {30 * kept}" in capsys.readouterr().out

        def broken(pruned, config, detector):
            raise RuntimeError("augment broke")

        monkeypatch.setattr("shiftminer.pipeline.augment_set", broken)
        assert main(["augment", "--dataset", "mini", "--config", str(strict_path)]) == 1
        assert not (dataset / "manifest.json").exists()
        assert not (dataset / "augmented").exists()

    def test_exit_code_unreadable_series_file(self, mini_corpus, capsys):
        assert main(["collect", "--config", str(mini_corpus["config_path"])]) == 0
        bad = mini_corpus["root"] / "data" / "mini" / "original" / "bad.csv"
        bad.write_text("this is not a series file\n")
        capsys.readouterr()
        assert main(["prune", "--dataset", "mini", "--config",
                     str(mini_corpus["config_path"])]) == 5
        assert str(bad) in capsys.readouterr().err

    def test_exit_code_non_finite_stored_value(self, mini_corpus, capsys):
        assert main(["collect", "--config", str(mini_corpus["config_path"])]) == 0
        stored = sorted((mini_corpus["root"] / "data" / "mini" / "original").glob("*.csv"))[0]
        lines = stored.read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ",nan"
        stored.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["prune", "--dataset", "mini", "--config",
                     str(mini_corpus["config_path"])]) == 5
        err = capsys.readouterr().err
        assert str(stored) in err and "finite" in err

    @pytest.mark.parametrize("command, stored, code", [
        ("split", "data/mini/augmented/*.meta.json", 5),
        ("prune", "data/mini/original/*.csv", 5),
        ("report", "data/mini/manifest.json", 5),
        ("run", "fixtures/mini-config.json", 2),
    ])
    def test_exit_code_file_not_utf8(self, mini_corpus, capsys, command, stored, code):
        root, config_path = mini_corpus["root"], str(mini_corpus["config_path"])
        assert main(["run", "--config", config_path]) == 0
        path = sorted(root.glob(stored))[0]
        data = path.read_bytes()
        path.write_bytes(data[:8] + b"\xff" + data[8:])
        capsys.readouterr()
        flags = {"run": ["--config", config_path, "--force"],
                 "prune": ["--dataset", "mini", "--config", config_path]}
        args = flags.get(command, ["--dataset", "mini", "--output-dir", str(root / "data")])
        assert main([command, *args]) == code
        assert f"{path}: not UTF-8 at byte 8" in capsys.readouterr().err

    def test_exit_code_query_file_not_json(self, mini_corpus, capsys):
        query_file = load_config(mini_corpus["config_path"]).query_file
        query_file.write_text("{not json")
        assert main(["run", "--config", str(mini_corpus["config_path"])]) == 3
        assert f"{query_file}: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("source, shown", [("nope", "'nope'"), (5, "5"), (None, "None")])
    def test_exit_code_query_file_unknown_source(self, mini_corpus, capsys, source, shown):
        query_file = load_config(mini_corpus["config_path"]).query_file
        entries = json.loads(query_file.read_text())
        entries[1]["source"] = source
        query_file.write_text(json.dumps(entries))
        assert main(["run", "--config", str(mini_corpus["config_path"])]) == 3
        assert f"{query_file}[1]: unknown source {shown}" in capsys.readouterr().err

    def test_exit_code_corrupt_manifest(self, mini_corpus, capsys):
        assert main(["run", "--config", str(mini_corpus["config_path"])]) == 0
        root = mini_corpus["root"] / "data"
        manifest = root / "mini" / "manifest.json"
        manifest.write_text("{not json")
        capsys.readouterr()
        assert main(["report", "--dataset", "mini", "--output-dir", str(root)]) == 5
        assert str(manifest) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("count_augmented", True), ("name", 5), ("seed", "7"), ("notes", ["x"]),
        ("seed", -1), ("seed", 2**70),
    ])
    def test_exit_code_manifest_field_of_wrong_type(self, mini_corpus, capsys, key, value):
        """A field of the wrong type, or a seed outside [0, 2**64), exits 5 and deletes nothing."""
        fault = ("seed must be in [0, 2**64)" if key == "seed" and type(value) is int
                 else f"{key!r} is not of type")
        config_path = str(mini_corpus["config_path"])
        root = mini_corpus["root"] / "data"
        assert main(["run", "--config", config_path]) == 0
        manifest = root / "mini" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
        before = tree_bytes(root / "mini")
        capsys.readouterr()
        assert main(["prune", "--dataset", "mini", "--config", config_path]) == 5
        assert f"{manifest}: {fault}" in capsys.readouterr().err
        assert tree_bytes(root / "mini") == before
        assert main(["report", "--dataset", "mini", "--output-dir", str(root)]) == 5
        assert f"{manifest}: {fault}" in capsys.readouterr().err

    def test_failed_collect_leaves_no_original_stage(self, mini_corpus, monkeypatch, capsys):
        written = fail_on_third_file(monkeypatch, Stage.ORIGINAL)
        assert main(["collect", "--config", str(mini_corpus["config_path"])]) == 5
        assert len(written) == 2
        assert not (mini_corpus["root"] / "data" / "mini" / "original").exists()

    def test_failed_augment_leaves_no_augmented_stage(self, mini_corpus, monkeypatch):
        written = fail_on_third_file(monkeypatch, Stage.AUGMENTED)
        with pytest.raises(StageError):
            run(load_config(mini_corpus["config_path"]), now=NOW)
        dataset = mini_corpus["root"] / "data" / "mini"
        assert len(written) == 2
        assert (dataset / "pruned").is_dir()
        assert not (dataset / "augmented").exists()
        assert not (dataset / "manifest.json").exists()

    def test_stage_subcommands_without_config(self, mini_corpus, capsys):
        main(["collect", "--config", str(mini_corpus["config_path"])])
        root = mini_corpus["root"] / "data"
        assert main(["augment", "--dataset", "mini", "--output-dir", str(root)]) == 2
        assert "no pruned stage under" in capsys.readouterr().err
        assert main(["prune", "--dataset", "mini", "--output-dir", str(root)]) == 0
        assert main(["augment", "--dataset", "mini", "--output-dir", str(root),
                     "--seed", "3"]) == 0
        augmented = load_stage(root, "mini", Stage.AUGMENTED)
        assert len(augmented) == 30 * len(load_stage(root, "mini", Stage.PRUNED))
        assert main(["prune", "--dataset", "other", "--output-dir", str(root)]) == 2
        assert "no original stage under" in capsys.readouterr().err

    def test_stage_subcommand_rejects_unread_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prune", "--dataset", "mini", "--transport", "live"])
        assert exc.value.code == 2


class TestStageLifecycle:
    """Every stage writes the manifest, whether `run` or a subcommand runs it."""

    def _manifest(self, root: Path) -> dict:
        return json.loads((root / "mini" / "manifest.json").read_text())

    def test_stage_subcommands_then_report(self, mini_corpus, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1717200000")
        config_path = str(mini_corpus["config_path"])
        root = mini_corpus["root"] / "data"
        assert main(["collect", "--config", config_path]) == 0
        assert main(["prune", "--dataset", "mini", "--config", config_path]) == 0
        kept = int(re.search(r"kept (\d+) of 16 series", capsys.readouterr().out).group(1))
        assert main(["augment", "--dataset", "mini", "--config", config_path]) == 0
        assert capsys.readouterr().out == f"wrote {30 * kept} augmented series\n"
        assert main(["report", "--dataset", "mini", "--output-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"original: 16 | pruned: {kept} | augmented: {30 * kept}" in out
        manifest = self._manifest(root)
        assert manifest["created_at"] == "2024-06-01T00:00:00+00:00"
        assert manifest["seed"] == 11
        assert manifest["notes"]["queries"] == "external"

    def test_staged_manifest_matches_run(self, mini_corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1717200000")
        config_path = str(mini_corpus["config_path"])
        root = mini_corpus["root"] / "data"
        assert main(["run", "--config", config_path]) == 0
        ran = (root / "mini" / "manifest.json").read_bytes()
        assert main(["collect", "--config", config_path, "--output-dir", str(tmp_path / "d2")]) == 0
        for command in ("prune", "augment"):
            assert main([command, "--dataset", "mini", "--config", config_path,
                         "--output-dir", str(tmp_path / "d2")]) == 0
        assert (tmp_path / "d2" / "mini" / "manifest.json").read_bytes() == ran

    def test_augment_rerun_records_its_seed(self, mini_corpus, capsys):
        config_path = str(mini_corpus["config_path"])
        root = mini_corpus["root"] / "data"
        assert main(["run", "--config", config_path]) == 0
        assert self._manifest(root)["seed"] == 11
        assert main(["augment", "--dataset", "mini", "--config", config_path,
                     "--seed", "3"]) == 0
        assert self._manifest(root)["seed"] == 3
        seeds = {s.provenance.seed for s in load_stage(root, "mini", Stage.AUGMENTED)}
        config = load_config(config_path)
        redo = augment_set(load_stage(root, "mini", Stage.PRUNED),
                           AugmentConfig(factor=30, master_seed=3), config.detector)
        assert seeds == {s.provenance.seed for s in redo}

    def test_run_seed_flag_seeds_every_child(self, mini_corpus):
        config_path = str(mini_corpus["config_path"])
        root = mini_corpus["root"] / "data"
        assert main(["run", "--config", config_path, "--seed", "9"]) == 0
        assert self._manifest(root)["seed"] == 9
        seeds = {s.provenance.seed for s in load_stage(root, "mini", Stage.AUGMENTED)}
        redo = augment_set(load_stage(root, "mini", Stage.PRUNED),
                           AugmentConfig(factor=30, master_seed=9), DetectorConfig())
        assert seeds == {s.provenance.seed for s in redo}

    def test_failed_queries_under_force_keep_the_dataset(self, mini_corpus, tmp_path):
        config = load_config(mini_corpus["config_path"])
        run(config, now=NOW)
        dataset = mini_corpus["root"] / "data" / "mini"
        split_dataset(config.output_dir, "mini", ratio=0.8, seed=3)
        before = tree_bytes(dataset)
        missing = dataclasses.replace(config, query_file=tmp_path / "missing.json")
        with pytest.raises(StageError) as err:
            run(missing, now=NOW, force=True)
        assert err.value.stage == "queries"
        assert tree_bytes(dataset) == before

    def test_force_keeps_files_that_are_not_stages(self, mini_corpus):
        config = load_config(mini_corpus["config_path"])
        run(config, now=NOW)
        dataset = mini_corpus["root"] / "data" / "mini"
        split_dataset(config.output_dir, "mini", ratio=0.8, seed=3)
        (dataset / "original" / "stray.txt").write_text("old")
        (dataset / "NOTES.txt").write_text("kept")
        run(config, now=NOW, force=True)
        assert not (dataset / "original" / "stray.txt").exists()
        assert not (dataset / "splits").exists()
        assert (dataset / "NOTES.txt").read_text() == "kept"

    def test_prune_without_manifest_starts_one(self, mini_corpus, capsys):
        config_path = str(mini_corpus["config_path"])
        root = mini_corpus["root"] / "data"
        assert main(["run", "--config", config_path]) == 0
        (root / "mini" / "manifest.json").unlink()
        assert main(["prune", "--dataset", "mini", "--config", config_path]) == 0
        manifest = self._manifest(root)
        assert manifest["count_original"] == len(load_stage(root, "mini", Stage.ORIGINAL)) == 16
        assert manifest["count_pruned"] == len(load_stage(root, "mini", Stage.PRUNED)) > 0
        assert manifest["count_augmented"] == 0
        lengths = [len(s) for s in load_stage(root, "mini", Stage.ORIGINAL)]
        assert (manifest["length_min"], manifest["length_max"]) == (min(lengths), max(lengths))

    def test_augment_without_manifest_starts_one(self, mini_corpus, capsys):
        config_path = str(mini_corpus["config_path"])
        root = mini_corpus["root"] / "data"
        assert main(["run", "--config", config_path]) == 0
        (root / "mini" / "manifest.json").unlink()
        assert main(["augment", "--dataset", "mini", "--config", config_path]) == 0
        manifest = self._manifest(root)
        pruned = len(load_stage(root, "mini", Stage.PRUNED))
        assert (manifest["count_original"], manifest["count_pruned"]) == (16, pruned)
        assert manifest["count_augmented"] == 30 * pruned

    def test_rerun_in_a_copied_dataset_writes_its_own_manifest(self, mini_corpus, capsys):
        import shutil

        config_path = str(mini_corpus["config_path"])
        root = mini_corpus["root"] / "data"
        assert main(["run", "--config", config_path]) == 0
        shutil.copytree(root / "mini", root / "copy")
        before = tree_bytes(root / "mini")
        assert main(["prune", "--dataset", "copy", "--config", config_path]) == 0
        assert tree_bytes(root / "mini") == before
        manifest = json.loads((root / "copy" / "manifest.json").read_text())
        assert manifest["name"] == "copy"
        assert manifest["count_pruned"] == len(load_stage(root, "copy", Stage.PRUNED))

    def test_unknown_sidecar_source_exits_5(self, mini_corpus, capsys):
        assert main(["collect", "--config", str(mini_corpus["config_path"])]) == 0
        original = mini_corpus["root"] / "data" / "mini" / "original"
        sidecar = sorted(original.glob("*.meta.json"))[0]
        meta = json.loads(sidecar.read_text())
        meta["source"] = "bogus"
        sidecar.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["prune", "--dataset", "mini", "--config",
                     str(mini_corpus["config_path"])]) == 5
        assert str(sidecar) in capsys.readouterr().err


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One replay run of the mini corpus; tests copy its dataset."""
    root = tmp_path_factory.mktemp("mini_run")
    query_file = demo.build_fred_corpus(root / "fixtures", count=16, seed=2)
    config_path = demo.build_demo_config(root / "fixtures", root / "data", query_file,
                                         dataset_name="mini", master_seed=11)
    run(load_config(config_path), now=NOW)
    return root / "data"


@pytest.fixture()
def mini_data(mini_run, tmp_path):
    """An output directory holding a copy of the mini run's dataset."""
    shutil.copytree(mini_run / "mini", tmp_path / "data" / "mini")
    return tmp_path / "data"


def oracle_split_files(root: Path, out_dir: Path, ratio: float, seed: int,
                       train_parent_count: int | None = None,
                       include_test_augmented: bool = False) -> dict[str, bytes]:
    """The split files as written when `split_dataset` loaded and validated
    every pruned and augmented series: the same bucketing and JSON writing."""
    series = load_stage(root, "mini", Stage.PRUNED) + load_stage(root, "mini", Stage.AUGMENTED)
    train, test = split_train_test(series, ratio, seed, train_parent_count)

    def bucket(items):
        return {
            "parents": sorted(s.id for s in items if s.provenance is None),
            "augmented": sorted(s.id for s in items if s.provenance is not None),
        }

    train_ids, test_ids = bucket(train), bucket(test)
    if not include_test_augmented:
        test_ids["augmented"] = []
    counts = {f"{side}_{kind}": len(ids[kind])
              for side, ids in (("train", train_ids), ("test", test_ids))
              for kind in ("parents", "augmented")}
    summary = {"dataset": "mini", "ratio": ratio, "seed": seed, "train": train_ids,
               "test": test_ids, "counts": counts}
    out_dir.mkdir()
    for stem, doc in (("train", train_ids), ("test", test_ids), ("summary", summary)):
        with open(out_dir / f"{stem}.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return tree_bytes(out_dir)


class TestSplitFromSidecars:
    """`split` reads the sidecars only and writes the bytes it wrote when it
    loaded every series."""

    @pytest.mark.parametrize("options", [
        {},
        {"include_test_augmented": True},
        {"train_parent_count": 3},
    ])
    def test_bytes_equal_the_series_loading_split(self, mini_data, tmp_path, options):
        expected = oracle_split_files(mini_data, tmp_path / "oracle", 0.8, 3, **options)
        split_dataset(mini_data, "mini", 0.8, 3, **options)
        assert tree_bytes(mini_data / "mini" / "splits") == expected
        assert set(expected) == {"train.json", "test.json", "summary.json"}

    def test_reads_no_csv_body(self, mini_data, tmp_path, monkeypatch):
        expected = oracle_split_files(mini_data, tmp_path / "oracle", 0.8, 3)

        def no_body(path):
            raise AssertionError(f"split read the body of {path}")

        monkeypatch.setattr(storage, "_read_body", no_body)
        split_dataset(mini_data, "mini", 0.8, 3)
        assert tree_bytes(mini_data / "mini" / "splits") == expected

    def test_garbage_csv_body_still_splits_but_fails_augment(self, mini_data, tmp_path, capsys):
        expected = oracle_split_files(mini_data, tmp_path / "oracle", 0.8, 3)
        victim = sorted((mini_data / "mini" / "pruned").glob("*.csv"))[0]
        victim.write_text("garbage\n")
        split_dataset(mini_data, "mini", 0.8, 3)
        assert tree_bytes(mini_data / "mini" / "splits") == expected
        capsys.readouterr()
        assert main(["augment", "--dataset", "mini", "--output-dir", str(mini_data)]) == 5
        assert str(victim) in capsys.readouterr().err

    @pytest.mark.parametrize("doc", ["[]", '"x"', '{"provenance": "x"}', '{"provenance": []}'])
    def test_sidecar_of_the_wrong_shape_exits_5(self, mini_data, capsys, doc):
        sidecar = sorted((mini_data / "mini" / "augmented").glob("*.meta.json"))[0]
        sidecar.write_text(doc)
        assert main(["split", "--dataset", "mini", "--output-dir", str(mini_data)]) == 5
        assert str(sidecar) in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [{"id": 5}, {"comment": 5}])
    def test_sidecar_with_an_id_or_comment_not_a_string_exits_5(self, mini_data, capsys, fields):
        sidecar = sorted((mini_data / "mini" / "augmented").glob("*.meta.json"))[0]
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **fields}))
        assert main(["split", "--dataset", "mini", "--output-dir", str(mini_data)]) == 5
        assert f"{sidecar}: bad sidecar: id and comment must be strings" in capsys.readouterr().err
        assert not (mini_data / "mini" / "splits").exists()

    @pytest.mark.parametrize("fields", [
        {"source": []}, {"stage": "raw"}, {"provenance": {"method": {}}},
        {"provenance": {"parent_id": 5}}, {"provenance": {"seed": 3.9}},
        {"provenance": {"seed": "3"}}, {"provenance": {"seed": True}},
        {"provenance": {"shift_verified": "false"}},
    ])
    def test_sidecar_field_of_no_member_or_another_type_exits_5(self, mini_data, capsys, fields):
        """Under split, which reads the augmented sidecars, and augment, which
        loads the pruned series: the command names the sidecar and exits 5."""
        augmented = sorted((mini_data / "mini" / "augmented").glob("*.meta.json"))[0]
        pruned = sorted((mini_data / "mini" / "pruned").glob("*.meta.json"))[0]
        doc = json.loads(augmented.read_text())
        bad = {**doc, **fields, "provenance": {**doc["provenance"], **fields.get("provenance", {})}}
        for sidecar, command in ((augmented, "split"), (pruned, "augment")):
            sidecar.write_text(json.dumps(bad))
            capsys.readouterr()
            assert main([command, "--dataset", "mini", "--output-dir", str(mini_data)]) == 5
            assert f"{sidecar}: bad sidecar" in capsys.readouterr().err
        assert not (mini_data / "mini" / "splits").exists()

    @pytest.mark.parametrize("stage, command", [("augmented", "split"), ("pruned", "split"),
                                                ("pruned", "augment")])
    def test_series_without_sidecar_outside_original_exits_5(self, mini_data, capsys, stage,
                                                             command):
        sidecar = sorted((mini_data / "mini" / stage).glob("*.meta.json"))[0]
        sidecar.unlink()
        capsys.readouterr()
        assert main([command, "--dataset", "mini", "--output-dir", str(mini_data)]) == 5
        csv_path = sidecar.with_name(sidecar.name.replace(".meta.json", ".csv"))
        assert f"{csv_path}: a series of stage 'original'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", ["[]", '"x"', '{"provenance": "x"}', '{"provenance": []}'])
    def test_stored_original_sidecar_of_the_wrong_shape_fails_prune(self, mini_data, capsys,
                                                                     doc):
        sidecar = sorted((mini_data / "mini" / "original").glob("*.meta.json"))[0]
        sidecar.write_text(doc)
        assert main(["prune", "--dataset", "mini", "--output-dir", str(mini_data)]) == 5
        assert str(sidecar) in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--dataset", "nope"], "dataset 'nope' has no pruned series to split"),
        (["--dataset", "mini", "--ratio", "1.5"], "ratio must be in (0, 1)"),
        (["--dataset", "nope", "--ratio", "1.5"], "ratio must be in (0, 1)"),
        (["--dataset", "mini", "--train-parents", "9999"], "train_parent_count out of range"),
        (["--dataset", "mini", "--seed", "-1"], "seed must be an int in [0, 2**64): -1"),
        (["--dataset", "mini", "--seed", str(2**70)],
         f"seed must be an int in [0, 2**64): {2**70}"),
    ])
    def test_split_input_errors_exit_2(self, mini_data, capsys, args, message):
        assert main(["split", *args, "--output-dir", str(mini_data)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (mini_data / "mini" / "splits").exists()
