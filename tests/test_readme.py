"""README examples checked against the code they describe."""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

from shiftminer import demo, sources
from shiftminer.cli import build_parser
from shiftminer.pipeline import load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_config_block_is_the_demo_config(tmp_path):
    block = re.search(r"## Configuration\n.*?```json\n(.*?)```", README, re.S).group(1)
    readme_path = tmp_path / "readme-config.json"
    readme_path.write_text(block)
    query_file = tmp_path / "fred_demo_queries.json"
    demo_path = demo.build_demo_config(tmp_path, Path("data"), query_file)
    assert load_config(readme_path) == load_config(demo_path)
    assert json.loads(block) == json.loads(demo_path.read_text())


def test_subcommand_table_matches_parser():
    rows = re.findall(r"^\| `([a-z-]+)` +\| (.*) \|$", README, re.M)
    documented = {name: set(re.findall(r"`(--[a-z-]+)", flags)) for name, flags in rows}
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    parsed = {}
    for name, parser in subparsers.choices.items():
        options = {opt for action in parser._actions for opt in action.option_strings}
        assert {"-v", "--verbose"} <= options, name  # "all take -v"
        parsed[name] = {opt for opt in options if opt.startswith("--")} - {"--help", "--verbose"}
    assert documented == parsed


def test_retry_schedule_is_the_sources_constants():
    sends, backoff, last, pace = re.search(
        r"sent up to (\d+) times.*?after a backoff of ([\d, ]+) and then (\d+) s\."
        r".*?at least ([\d.]+) s apart", README, re.S
    ).groups()
    assert int(sends) == sources.MAX_ATTEMPTS
    delays = [*map(float, backoff.split(", ")), float(last)]
    assert delays == [sources.BASE_DELAY * 2 ** i for i in range(sources.MAX_ATTEMPTS - 1)]
    assert float(pace) == sources.MIN_REQUEST_INTERVAL


def test_timeouts_are_the_sources_constants():
    data, completion = re.search(
        r"time out after (\d+) s\s+\((\d+) s for a completion\)", README).groups()
    assert (float(data), float(completion)) == (sources.REQUEST_TIMEOUT,
                                                sources.COMPLETION_TIMEOUT)
