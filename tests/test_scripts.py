from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from shiftminer.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_make_fixtures_runs_from_any_directory(tmp_path, monkeypatch, capsys):
    made, elsewhere = tmp_path / "made", tmp_path / "elsewhere"
    made.mkdir()
    elsewhere.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_fixtures.py"), "--count", "3"],
        cwd=made, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    config_path = made / "fixtures" / "fred-demo-config.json"
    config = json.loads(config_path.read_text())
    assert config["dataset_name"] == "fred-demo"
    assert (config_path.parent / config["query_file"]).exists()

    # the config's input paths resolve against its own directory, and its
    # output_dir against the working directory
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--config", str(config_path)]) == 0, capsys.readouterr().err
    assert (elsewhere / "data" / "fred-demo" / "manifest.json").exists()
    assert not (made / "data").exists()


def test_bench_pairs_summaries():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    assert bench_pairs.parse_seeds("701-703") == [701, 702, 703]
    assert bench_pairs.parse_seeds("5,9") == [5, 9]
    parent, change = [5.0, 6.0, 7.0, 8.0], [4.0, 6.5, 5.0, 7.0]
    lower = bench_pairs.compare(parent, change, "lower")
    assert lower["parent"] == {"median": 6.5, "q1": 5.75, "q3": 7.25, "runs": parent}
    assert lower["change"]["median"] == 5.75
    assert lower["change_wins"] == "3/4"
    assert lower["change_over_parent"] == round(5.75 / 6.5, 4)
    assert bench_pairs.compare(parent, change, "higher")["change_wins"] == "1/4"
