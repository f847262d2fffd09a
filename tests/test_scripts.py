from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_make_fixtures_runs_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_fixtures.py"), "--count", "3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    config = json.loads((tmp_path / "fixtures" / "fred-demo-config.json").read_text())
    assert config["dataset_name"] == "fred-demo"
    assert (tmp_path / config["query_file"]).exists()
