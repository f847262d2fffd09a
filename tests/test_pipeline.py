from __future__ import annotations

import json
from pathlib import Path

import pytest

from shiftminer import demo
from shiftminer.augment import AugmentConfig, augment_set
from shiftminer.changepoint import DetectorConfig
from shiftminer.cli import main
from shiftminer.pipeline import (
    ConfigError,
    EmptyInputError,
    PipelineConfig,
    PruningEmptyError,
    StageError,
    load_config,
    report,
    run,
    split_dataset,
    split_train_test,
)
from shiftminer.series import Source, Stage
from shiftminer.storage import DatasetManifest, load_stage

from conftest import make_series, step_values

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

    def test_bad_ratio(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset_name": "d", "source": "fred", "split_ratio": 2}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset_name": "d", "source": "fred", "bogus": 1}))
        with pytest.raises(ConfigError):
            load_config(path)


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
        import dataclasses

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
        def broken(series, config):
            raise RuntimeError("detector broke")

        monkeypatch.setattr("shiftminer.changepoint.classify", broken)
        with pytest.raises(StageError) as err:
            run(load_config(mini_corpus["config_path"]), now=NOW)
        assert err.value.stage == "prune"
        assert isinstance(err.value.cause, RuntimeError)

    def test_generated_queries_via_llm_fixture(self, tmp_path):
        fixtures = tmp_path / "fx"
        query_file = demo.build_fred_corpus(fixtures, count=12, seed=9)
        from shiftminer.sources import load_queries

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
        with pytest.raises(EmptyInputError):
            split_train_test([], 0.8, seed=0)

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
        from shiftminer.sources import load_queries

        demo.build_llm_fixture(fixtures, load_queries(query_file), query_count=10)
        out_path = tmp_path / "queries.json"
        code = main([
            "generate-queries", "--source", "fred", "--count", "10",
            "--out", str(out_path), "--fixtures", str(fixtures),
        ])
        assert code == 0
        assert len(load_queries(out_path)) == 10

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
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 3

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
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 5

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


def test_config_accepts_changepoint_alias(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "dataset_name": "d", "source": "fred",
        "changepoint": {"penalty_beta": 2.5, "min_segment_size": 3},
    }))
    config = load_config(path)
    assert config.detector.penalty_beta == 2.5
    assert config.detector.min_segment_size == 3
