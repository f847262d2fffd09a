from __future__ import annotations

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
