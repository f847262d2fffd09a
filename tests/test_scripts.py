from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from shiftminer import demo, querygen, sources
from shiftminer.cli import main
from shiftminer.sources import Request, Response

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


def test_calibrate_penalty_sweeps_the_scale_it_sets():
    # the script sets changepoint.PENALTY_SCALE per row; at 0.1 noise splits,
    # so a row equal to the 3.0 one would mean the setting was not read
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "calibrate_penalty.py"), "--scales", "0.1", "3.0",
         "--seeds", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        " scale  noise H0  1-sigma H1  strong H1  near +-3",
        "  0.10      0.00        1.00       1.00      1.00",
        "  3.00      1.00        1.00       1.00      1.00",
    ]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summaries():
    bench_pairs = load_bench_pairs()
    assert bench_pairs.parse_seeds("701-703") == [701, 702, 703]
    assert bench_pairs.parse_seeds("5,9") == [5, 9]
    parent, change = [5.0, 6.0, 7.0, 8.0], [4.0, 6.5, 5.0, 7.0]
    lower = bench_pairs.compare(parent, change, "lower")
    assert lower["parent"] == {"median": 6.5, "q1": 5.75, "q3": 7.25, "runs": parent}
    assert lower["change"]["median"] == 5.75
    assert lower["change_wins"] == "3/4"
    assert lower["change_over_parent"] == round(5.75 / 6.5, 4)
    assert bench_pairs.compare(parent, change, "higher")["change_wins"] == "1/4"
    for parent, change, better, expected in [
        # 9 of 10 pairs won, medians 1.0 apart against a parent IQR of 0.5
        ([10.0, 10.0, 10.5, 10.5, 10.0, 10.5, 10.0, 10.5, 10.0, 10.5],
         [9.0, 9.0, 9.5, 9.5, 9.0, 9.5, 9.0, 9.5, 9.0, 10.6], "lower", "gain"),
        # every pair won, but the medians differ by less than the parent's IQR
        ([10.0, 12.0, 10.0, 12.0], [9.9, 11.9, 9.9, 11.9], "lower", "within bound"),
        # a higher-is-better metric whose change reads 30.7% lower, past a bound of 0.25
        ([10.0, 10.0, 10.2, 10.2], [7.0, 7.0, 7.0, 7.0], "higher", "worse"),
        # a parent IQR of 3 against an allowed 2.375: no change within it can be told
        ([8.0, 8.0, 11.0, 11.0, 9.5], [10.0, 10.0, 10.0, 10.0, 10.0], "lower", "unresolved"),
    ]:
        result = bench_pairs.compare(parent, change, better)
        assert bench_pairs.verdict(result, better, 0.25) == expected


def test_bench_pairs_digests_equal(capsys):
    bench_pairs = load_bench_pairs()
    same = {"parent": ["aa", "bb"], "change": ["aa", "bb"]}
    assert bench_pairs.digests_equal("demo-30x", [1, 2], same) is True
    assert capsys.readouterr().err == ""
    differ = {"parent": ["aa", "bb", None], "change": ["aa", "cc", None]}
    assert bench_pairs.digests_equal("demo-30x", [1, 2, 3], differ) is False
    assert capsys.readouterr().err.splitlines() == [
        "warning: demo-30x seed 2: tree digest bb (parent) != cc (change)",
        "warning: demo-30x seed 3: tree digest None (parent) != None (change)",
    ]


def test_bench_pairs_summary_lines():
    bench_pairs = load_bench_pairs()

    def judged(parent, change, bound):
        result = bench_pairs.compare(parent, change, "lower")
        return {**result, "verdict": bench_pairs.verdict(result, "lower", bound)}

    end_to_end = {
        "wide-collect": {"run_s": judged([2.0, 2.2, 2.4, 2.6], [1.8, 1.9, 2.0, 2.7], 0.25),
                         "peak_rss_mb": judged([62.0, 62.0], [62.5, 61.5], 0.1),
                         "digests_equal": True},
        "demo-30x": {"run_s": judged([4.0, 4.0], [4.4, 4.4], 0.25),
                     "peak_rss_mb": judged([55.0, 55.0], [61.0, 61.0], 0.1),
                     "digests_equal": False},
    }
    assert bench_pairs.summary_lines(end_to_end, ["run_s", "peak_rss_mb"]) == [
        "wide-collect run_s: 2.3 -> 1.95 (-15.2%), change wins 3/4, parent IQR 2.15-2.45, "
        "verdict within bound, digests_equal true",
        "wide-collect peak_rss_mb: 62 -> 62 (+0.0%), change wins 1/2, parent IQR 62-62, "
        "verdict within bound, digests_equal true",
        "demo-30x run_s: 4 -> 4.4 (+10.0%), change wins 0/2, parent IQR 4-4, "
        "verdict within bound, digests_equal false",
        "demo-30x peak_rss_mb: 55 -> 61 (+10.9%), change wins 0/2, parent IQR 55-55, "
        "verdict worse, digests_equal false",
    ]


def test_bench_pairs_writes_digests_equal(tmp_path, monkeypatch, capsys):
    bench_pairs = load_bench_pairs()
    digests = {"parent": iter(["d1", "d2"]), "change": iter(["d1", "XX"])}

    def fake_run(checkout, workload, seed, seconds, trace=0):
        side = "parent" if checkout.name == "parent" else "change"
        return {"attempted": 1, "failed": 0, "digest": next(digests[side]),
                "metrics": {"run_s": 1.0, "split_s": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        shutil.copy(SCRIPTS.parent / "BENCHMARK.json", tmp_path / side)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--seeds", "1-2", "--workload",
                             "wide-collect", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["end_to_end"]["wide-collect"]
    assert entry["digests"] == {"parent": ["d1", "d2"], "change": ["d1", "XX"]}
    assert entry["digests_equal"] is False
    assert capsys.readouterr().out.splitlines() == [
        f"wide-collect {metric}: 1 -> 1 (+0.0%), change wins 0/2, parent IQR 1-1, "
        "verdict within bound, digests_equal false"
        for metric in ("run_s", "split_s", "peak_rss_mb", "setup_s")
    ]


def test_bench_pairs_traced_compares_every_layer_metric_over_every_seed(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    declared = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    layers = [metric["name"] for metric in declared["per_layer"]]
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        calls.append((seed, trace, checkout.name))
        value = float(seed) + (checkout.name == "change")  # the change reads 1 higher
        names = layers if trace else ["run_s", "split_s", "peak_rss_mb", "setup_s"]
        metrics = {name: 0.0 if name == "sources.retries" else value for name in names}
        return {"attempted": 1, "failed": 0, "digest": "d", "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        shutil.copy(SCRIPTS.parent / "BENCHMARK.json", tmp_path / side)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--seeds", "1-3", "--workload",
                             "demo-30x", "--traced", "--out", str(out)]) == 0
    assert calls == [(1, 0, "parent"), (1, 0, "change"), (1, 1, "parent"), (1, 1, "change"),
                     (2, 0, "change"), (2, 0, "parent"), (2, 1, "change"), (2, 1, "parent"),
                     (3, 0, "parent"), (3, 0, "change"), (3, 1, "parent"), (3, 1, "change")]
    per_layer = json.loads(out.read_text())["per_layer"]["demo-30x"]
    assert list(per_layer) == layers
    assert per_layer["storage.load_s"] == bench_pairs.compare([1.0, 2.0, 3.0], [2.0, 3.0, 4.0],
                                                              "lower")
    assert per_layer["storage.load_s"]["change_wins"] == "0/3"
    assert per_layer["storage.files_per_s"]["change_wins"] == "3/3"
    assert per_layer["sources.retries"]["change_over_parent"] is None


def test_bench_pairs_warns_when_a_side_is_the_checkout_it_runs_from(tmp_path, monkeypatch,
                                                                    capsys):
    bench_pairs = load_bench_pairs()

    def fake_run(checkout, workload, seed, seconds, trace=0):
        return {"attempted": 1, "failed": 0, "digest": "d",
                "metrics": {"run_s": 1.0, "split_s": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        shutil.copy(SCRIPTS.parent / "BENCHMARK.json", tmp_path / side)
    rest = ["--seeds", "1-2", "--workload", "wide-collect", "--out", str(tmp_path / "bench.json")]
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(SCRIPTS.parent), *rest]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert warnings == [f"warning: --change {SCRIPTS.parent} is the checkout this script runs "
                        "from; bench two fresh copies made the same way"]
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), *rest]) == 0
    assert "warning" not in capsys.readouterr().err


def old_write_fixture(root, request, response):
    """The writer of the old ``<source>/<key>.json`` envelopes, kept as the oracle."""
    record = {
        "request": {
            "method": request.method,
            "url": request.url,
            "params": sorted((k, v) for k, v in request.params if k != "api_key"),
        },
        "status": response.status,
        "body": response.body,
    }
    path = Path(root) / request.source / f"{sources.canonical_request_key(request)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes((json.dumps(record, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return path


def convert_fixtures(root):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / "convert_fixtures.py"), str(root)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_convert_fixtures_replays_every_old_recording(tmp_path, monkeypatch):
    root = tmp_path / "fixtures"
    recorded = []

    def record(root, request, response):
        recorded.append((request, response))
        return old_write_fixture(root, request, response)

    monkeypatch.setattr(demo, "write_fixture", record)
    demo.build_connector_fixtures(root)
    odd = [Response(503, "busy\r\n"), Response(200, ""), Response(200, "\nÖlpreis – 原油 ☃\r"),
           Response(404, '{"request": {}, "status": 200}\n{}')]
    for i, response in enumerate(odd):
        record(root, Request("trends", "GET", "https://x.test/\n", (("q", f"x{i}\r\n"),
                                                                    ("api_key", "k"))), response)
    old = {path: path.read_bytes() for path in root.glob("*/*.json")}
    assert len(old) == len(recorded) == 9

    result = convert_fixtures(root)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"converted 9 fixtures under {root}\n"
    assert {path: path.read_bytes() for path in root.glob("*/*.json")} == old  # left in place
    assert len(list(root.glob("*/*.http"))) == 9
    replay = sources.ReplayTransport(root)
    for request, response in recorded:
        assert replay.send(request) == response


def test_convert_fixtures_names_a_file_whose_key_differs(tmp_path):
    good = Request("fred", "GET", "https://x.test/obs", (("series_id", "A"),))
    old_write_fixture(tmp_path, good, Response(200, "{}"))
    moved = old_write_fixture(tmp_path, Request("fred", "GET", "https://x.test/obs", ()),
                              Response(200, "{}"))
    moved = moved.rename(moved.with_name("f" * 32 + ".json"))
    result = convert_fixtures(tmp_path)
    assert result.returncode == 1
    assert f"cannot convert {moved}" in result.stderr
    assert list(tmp_path.glob("*/*.http")) == []  # checked before anything is written


# Two rounds of completions for ``generate-queries --source fred --count 3
# --max-rounds 2``, with CRLF, a lone CR and non-ASCII text, as an older
# recorder stored them: ``llm/<sha256 of the prompt>.txt``, the text as received.
OLD_COMPLETIONS = [
    'Here:\r\n```json\r\n[{"series_id": "UNRATE", "start_date": "2007-01-01", '
    '"end_date": "2013-01-01", "comment": "Ölpreis – 原油"}]\r\n```\r\n',
    '{"series_id": "GDP", "start_date": "2005-01-01", "end_date": "2012-01-01"} then '
    '{"series_id": "UNRATE", "start_date": "2007-01-01", "end_date": "2013-01-01"} and\n'
    '{"series_id": "CPIAUCSL", "start_date": "2001-01-01", "end_date": "2003-01-01", '
    '"comment": "a\\r\\nb"}\r',
]
# sha256 of the query file that generate-queries wrote from those ``.txt`` files
# before completions were recorded as chat replies
OLD_QUERY_FILE_SHA256 = "98cd263ecb29d13d3ce812ec6e484fd5121530cd7894c509342f6f49f2f84161"


def old_completion_tree(root: Path) -> dict[Path, bytes]:
    bindings = {"source_name": "FRED", "query_count": "3"}
    first = querygen.render_text(querygen.QUERY_TEMPLATE.body, bindings)
    prompts = [first, first + "\n\n" + querygen.render_text(querygen.QUERY_TEMPLATE.followups[0],
                                                             bindings)]
    old = {}
    for prompt, text in zip(prompts, OLD_COMPLETIONS):
        path = root / "llm" / f"{hashlib.sha256(prompt.encode('utf-8')).hexdigest()}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
        old[path] = text.encode("utf-8")
    return old


def test_convert_fixtures_replays_old_completions_as_before(tmp_path, capsys):
    root = tmp_path / "fixtures"
    old = old_completion_tree(root)
    result = convert_fixtures(root)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"converted 2 fixtures under {root}\n"
    assert {path: path.read_bytes() for path in root.glob("llm/*.txt")} == old  # left in place
    assert sorted(p.name for p in root.glob("llm/*.http")) == sorted(
        path.with_suffix(".http").name for path in old)
    out = tmp_path / "q.json"
    assert main(["generate-queries", "--source", "fred", "--count", "3", "--max-rounds", "2",
                 "--out", str(out), "--fixtures", str(root)]) == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OLD_QUERY_FILE_SHA256


def test_convert_fixtures_names_a_completion_that_is_not_named_by_a_sha256(tmp_path):
    good = min(old_completion_tree(tmp_path))
    bad = good.with_stem(good.stem.upper())
    bad.write_text("a completion")
    result = convert_fixtures(tmp_path)
    assert result.returncode == 1
    assert f"cannot convert {bad}" in result.stderr
    assert list(tmp_path.glob("*/*.http")) == []  # checked before anything is written


def test_a_traced_bench_run_checks_out():
    """perfbench's tracer wraps ``save_stage``, ``augment_set`` and the shift
    tests by name and reads their arguments and results, so a traced run that
    checks every job says the package still fits it."""
    pytest.importorskip("scipy")  # the bench records scipy's version
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk-verify", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=SCRIPTS.parent, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
