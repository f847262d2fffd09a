"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v`` (the verdict lines bypass
capture so they always reach the terminal).
"""

from __future__ import annotations

import hashlib
import json
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from shiftminer import demo, pipeline
from shiftminer.augment import AugmentConfig, augment_set, gen_warp_path, time_warp, window_slice, window_warp
from shiftminer.changepoint import (
    DetectorConfig,
    ShiftCategory,
    binary_segmentation,
    classify,
    detect,
    exact_segmentation,
    total_objective,
)
from shiftminer.metrics import QuantileForecast, mae_coverage, mse, mse_variance
from shiftminer.querygen import bind_queries, extract_query_objects
from shiftminer.series import Source, Stage, TimeSeries
from shiftminer.sources import (
    EmptyResultError,
    ParseError,
    RequestPacer,
    Response,
    RetryPolicy,
    eia_rows,
    eia_rows_to_series,
    fetch,
    fred_response_to_series,
    load_queries,
    trends_response_to_series,
    validate_query,
    yahoo_response_to_series,
)
from shiftminer.storage import DatasetManifest

from conftest import ScriptedTransport, VirtualClock, make_series
from test_changepoint import oracle_enumerate
from test_querygen import TWO_QUERY_TEXT


def verdict(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


# 1 ---------------------------------------------------------------------------


def test_criterion_1_exact_segmentation_matches_enumeration(capsys):
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    checked = 0
    for _ in range(220):
        k = int(rng.integers(0, 3))
        n = int(rng.integers(max(4, (k + 1) * 2), 17))
        values = rng.normal(0.0, 1.0, n)
        expected, _ = oracle_enumerate(values, k)
        result = exact_segmentation(values, k, DetectorConfig(penalty_beta=0.0))
        assert result.boundaries == expected, (values.tolist(), k)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 200
    assert elapsed < 5.0
    verdict(capsys, f"CRITERION 1: PASS - exact matches enumeration on {checked} instances "
                    f"(n<=16, k<=2) in {elapsed:.2f}s")


# 2 ---------------------------------------------------------------------------


def test_criterion_2_binary_segmentation_quality(capsys):
    rng = np.random.default_rng(202)
    config = DetectorConfig(penalty_beta=0.0)

    dominated = 0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        n = int(rng.integers((k + 1) * 2, 65))
        values = rng.normal(0.0, 1.0, n)
        values[int(rng.integers(1, n)):] += rng.normal(0.0, 2.0)
        exact = exact_segmentation(values, k, config)
        greedy = binary_segmentation(values, DetectorConfig(penalty_beta=0.0, known_k=k))
        exact_cost = total_objective(values, exact, config)
        greedy_cost = total_objective(values, greedy, config)
        assert greedy_cost >= exact_cost - 1e-9
        dominated += 1

    # calibration slice: one true mean shift of >= 3 sigma, fixed-k search
    equal = 0
    trials = 200
    for _ in range(trials):
        k = int(rng.integers(1, 4))
        n = int(rng.integers((k + 1) * 2 + 4, 65))
        split = int(rng.integers(2, n - 2))
        sigma = 1.0
        values = rng.normal(0.0, sigma, n)
        values[split:] += float(rng.choice([-1.0, 1.0])) * rng.uniform(3.0, 6.0) * sigma
        exact = exact_segmentation(values, k, config)
        greedy = binary_segmentation(values, DetectorConfig(penalty_beta=0.0, known_k=k))
        if greedy.n_internal == k:
            e = total_objective(values, exact, config)
            g = total_objective(values, greedy, config)
            if abs(g - e) <= 1e-9 * max(1.0, abs(e)):
                equal += 1
    rate = equal / trials
    assert rate >= 0.70
    verdict(capsys, f"CRITERION 2: PASS - dominance on {dominated}/200 random instances; "
                    f"greedy==exact on {rate:.0%} of single-shift instances (target >= 70%)")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_detection_accuracy(capsys):
    config = DetectorConfig()
    started = time.perf_counter()

    step_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(30_000 + seed)
        values = rng.normal(0.0, 0.5, 200)
        values[100:] += 5.0
        series = make_series(values, sid=f"step{seed}")
        if classify(series, config) is ShiftCategory.SHIFT:
            boundaries = detect(series, config).boundaries
            if any(abs(b - 100) <= 3 for b in boundaries[:-1]):
                step_hits += 1

    noise_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(60_000 + seed)
        series = make_series(rng.normal(0.0, 1.0, 120), sid=f"noise{seed}")
        if classify(series, config) is ShiftCategory.NO_SHIFT:
            noise_hits += 1

    elapsed = time.perf_counter() - started
    assert step_hits >= 95
    assert noise_hits >= 90
    assert elapsed < 10.0
    verdict(capsys, f"CRITERION 3: PASS - step detected within +-3 in {step_hits}/100, "
                    f"noise kept shift-free in {noise_hits}/100, {elapsed:.2f}s")


# 4 ---------------------------------------------------------------------------

EXPECTED_ROWS = [
    ("fred", 77, 2310),
    ("worldcup-trends", 67, 2010),
    ("eia-daily", 1194, 35820),
    ("yahoo-finance", 91, 2730),
    ("covid-trends", 68, 2040),
]


def test_criterion_4_manifest_expansion_arithmetic(capsys):
    stamps = tuple(date(2018, 1, 1) + timedelta(days=i) for i in range(48))
    results = []
    for name, pruned_count, expected_augmented in EXPECTED_ROWS:
        rng = np.random.default_rng(hash(name) % 2**32)
        pruned = []
        for i in range(pruned_count):
            values = rng.normal(0.0, 0.5, 48)
            values[24:] += 5.0
            pruned.append(
                TimeSeries(f"{name}-p{i}", Source.SYNTHETIC, stamps, tuple(values), Stage.PRUNED)
            )
        config = AugmentConfig(factor=30, master_seed=4, verify_shift=False)
        augmented = augment_set(pruned, config, DetectorConfig())
        manifest = DatasetManifest(
            name=name, domain="", description="",
            length_min=48, length_max=48,
            count_original=pruned_count, count_pruned=pruned_count,
            count_augmented=len(augmented),
            seed=4, created_at="2024-01-01T00:00:00+00:00",
        )
        assert manifest.count_augmented == manifest.count_pruned * 30
        assert manifest.count_augmented == expected_augmented
        results.append(f"{pruned_count}->{len(augmented)}")
    verdict(capsys, "CRITERION 4: PASS - expansion exact for all five rows: " + ", ".join(results))


# 5 ---------------------------------------------------------------------------


def test_criterion_5_augmentation_invariants(capsys):
    config = AugmentConfig(master_seed=0)
    identity_config = AugmentConfig(knot_sigma=0.0, master_seed=0)
    rng = np.random.default_rng(505)
    transforms = ((time_warp, "time_warp"), (window_warp, "window_warp"),
                  (window_slice, "window_slice"))

    for transform, _name in transforms:
        for case in range(1000):
            n = int(rng.integers(10, 90))
            values = rng.normal(0.0, 5.0, n)
            series = make_series(values, sid=f"c{case}", stage=Stage.PRUNED)
            out = transform(series, config, case)
            assert len(out) == n
            assert min(out.values) >= values.min()
            assert max(out.values) <= values.max()

    for case in range(200):
        n = int(rng.integers(10, 90))
        values = rng.normal(0.0, 5.0, n)
        series = make_series(values, sid=f"i{case}", stage=Stage.PRUNED)
        out = time_warp(series, identity_config, case)
        assert max(abs(a - b) for a, b in zip(out.values, values)) <= 1e-9

    for case in range(500):
        n = int(rng.integers(4, 200))
        path = np.asarray(gen_warp_path(n, config, case).mapping)
        assert path[0] == 0.0 and path[-1] == float(n - 1)
        assert np.all(np.diff(path) > 0)

    verdict(capsys, "CRITERION 5: PASS - 1000 cases/transform length+range exact, "
                    "identity within 1e-9, 500 warp paths strictly increasing with pinned ends")


# 6 ---------------------------------------------------------------------------


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _tree_digest(tree: dict[str, bytes]) -> str:
    """sha256 over every file in path order: path, NUL, 8-byte big-endian length, bytes."""
    h = hashlib.sha256()
    for rel in sorted(tree):
        data = tree[rel]
        h.update(rel.encode("utf-8") + b"\0" + len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


# Digest of the replay demo's dataset tree. A change here is a declared
# change of output bytes: record its cause and both values in CHANGES.md.
DEMO_TREE_SHA256 = "35dfdc052dbdbc86fe75dce562ef3cab496357387f72012d1d907bc23ffed0d8"


def test_criterion_6_replay_runs_byte_identical(capsys, fred_corpus, tmp_path):
    config_path = demo.build_demo_config(
        fred_corpus["fixtures"], tmp_path / "data", fred_corpus["query_file"],
        dataset_name="fred-demo", master_seed=7,
    )
    config = pipeline.load_config(config_path)
    now = "2024-06-01T00:00:00+00:00"

    manifest_a = pipeline.run(config, now=now)
    report_a = pipeline.report(manifest_a, fmt="csv")
    tree_a = _tree_bytes(tmp_path / "data" / "fred-demo")

    manifest_b = pipeline.run(config, now=now, force=True)
    report_b = pipeline.report(manifest_b, fmt="csv")
    tree_b = _tree_bytes(tmp_path / "data" / "fred-demo")

    assert manifest_a.count_original == 241
    assert manifest_a.count_augmented == manifest_a.count_pruned * 30
    assert manifest_a == manifest_b
    assert report_a == report_b
    assert tree_a == tree_b
    assert _tree_digest(tree_a) == DEMO_TREE_SHA256
    verdict(capsys, f"CRITERION 6: PASS - two replay runs byte-identical over "
                    f"{len(tree_a)} files (241 originals, {manifest_a.count_pruned} pruned, "
                    f"{manifest_a.count_augmented} augmented)")


# 7 ---------------------------------------------------------------------------


def test_criterion_7_connector_robustness(capsys, demo_fixture_root):
    # backoff 1s / 2s / 4s under the virtual clock
    clock = VirtualClock()
    unrate_query = demo.UNRATE_QUERY
    transport = ScriptedTransport([Response(429, "")] * 4, clock)
    policy = RetryPolicy(max_attempts=4, min_request_interval=0.0)
    with pytest.raises(Exception):
        fetch(unrate_query, transport, policy, clock=clock, pacer=RequestPacer(clock, 0.0))
    assert clock.sleeps == [1.0, 2.0, 4.0]

    # pacing never violated across many requests on one source
    clock = VirtualClock()
    dates = demo.month_starts(date(2007, 1, 1), 24)
    ok = Response(200, demo.fred_body(dates, [4.0 + 0.1 * i for i in range(24)]))
    transport = ScriptedTransport([ok] * 8, clock)
    policy = RetryPolicy(min_request_interval=0.5)
    pacer = RequestPacer(clock, 0.5)
    for _ in range(8):
        fetch(unrate_query, transport, policy, clock=clock, pacer=pacer)
    times = [when for _, when in transport.calls]
    assert all(b - a >= 0.5 - 1e-9 for a, b in zip(times, times[1:]))

    # fuzz: mutated bodies parse to valid series or fail with a parse error
    queries = load_queries(demo_fixture_root / "connector_queries.json")
    parsers = {
        "fred": lambda q, b: fred_response_to_series(q.payload, "", b),
        "eia": lambda q, b: eia_rows_to_series(q.payload, "", eia_rows(b)[1]),
        "yahoo": lambda q, b: yahoo_response_to_series(q.payload, "", b),
        "trends": lambda q, b: trends_response_to_series(q.payload, "", b),
    }
    from test_sources import _mutate

    fuzz_count = 0
    for source, parse in parsers.items():
        body = json.loads(next((demo_fixture_root / source).glob("*.json")).read_text())["body"]
        query = next(q for q in queries if q.source.value == source)
        rng = np.random.default_rng(70_000 + len(source))
        for _ in range(150):
            mutated = _mutate(body, rng)
            try:
                series = parse(query, mutated)
            except (ParseError, EmptyResultError):
                fuzz_count += 1
                continue
            for s in series:
                assert len(s.timestamps) == len(s.values) >= 2
                assert all(x < y for x, y in zip(s.timestamps, s.timestamps[1:]))
                assert all(v == v and abs(v) != float("inf") for v in s.values)
            fuzz_count += 1
    assert fuzz_count >= 500
    verdict(capsys, f"CRITERION 7: PASS - backoff 1s/2s/4s exact, pacing respected, "
                    f"{fuzz_count} fuzz cases all valid-or-ParseError")


# 8 ---------------------------------------------------------------------------


def test_criterion_8_query_parsing(capsys):
    raw = extract_query_objects(TWO_QUERY_TEXT)
    accepted, rejected = bind_queries(raw)
    assert len(accepted) == 2 and not rejected
    fred, eia = accepted
    assert fred.source is Source.FRED
    assert fred.payload.series_id == "UNRATE"
    assert fred.payload.start_date == date(2007, 1, 1)
    assert fred.payload.end_date == date(2013, 1, 1)
    assert fred.comment == ("Covers the Great Recession period, showcasing shifts in "
                            "employment levels.")
    assert eia.source is Source.EIA
    assert eia.payload.api_route == "electricity/rto/daily-region-data/data"
    params = eia.payload.params_dict()
    assert params["facets[respondent][]"] == "PJM"
    assert params["length"] == "5000"
    assert params["start"] == "2017-09-01" and params["end"] == "2018-02-28"
    assert eia.comment.startswith("Hurricane Maria")

    # mutation fuzzing never yields an invalid accepted query
    rng = np.random.default_rng(808)
    mutations = 0
    for _ in range(400):
        text = list(TWO_QUERY_TEXT)
        for _ in range(int(rng.integers(1, 6))):
            i = int(rng.integers(0, len(text)))
            op = rng.integers(0, 3)
            if op == 0:
                text[i] = chr(int(rng.integers(32, 127)))
            elif op == 1:
                text[i] = ""
            else:
                text[i] = text[i] + chr(int(rng.integers(32, 127)))
        mutated = "".join(text)
        try:
            objects = extract_query_objects(mutated)
        except Exception:
            mutations += 1
            continue
        accepted, _rejected = bind_queries(objects)
        for q in accepted:
            assert validate_query(q) == []
        mutations += 1
    assert mutations == 400
    verdict(capsys, "CRITERION 8: PASS - 2 validated queries with stated fields; "
                    "400 text mutations never yielded an invalid accepted query")


# 9 ---------------------------------------------------------------------------


def test_criterion_9_metric_examples(capsys):
    assert mse([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    assert mse([0.0, 0.0], [1.0, 3.0]) == pytest.approx(5.0, abs=1e-12)
    assert mse_variance([0.7, 0.7, 0.7]) == pytest.approx(0.0, abs=1e-12)
    assert mse_variance([0.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    levels = (0.1, 0.5, 0.9)
    actuals = np.arange(1.0, 101.0).reshape(10, 10)
    forecasts = [
        QuantileForecast(
            levels=levels,
            values=tuple(tuple(q * 100 + 0.5 for q in levels) for _ in range(10)),
            point=tuple(50.0 for _ in range(10)),
        )
        for _ in range(10)
    ]
    calibrated = mae_coverage(forecasts, [list(r) for r in actuals])
    assert calibrated == pytest.approx(0.0, abs=1e-12)

    high = [
        QuantileForecast(levels=(0.1, 0.9), values=((1e9, 2e9),) * 4, point=(0.0,) * 4)
    ]
    assert mae_coverage(high, [[0.0, 1.0, 2.0, 3.0]]) == pytest.approx(0.5, abs=1e-12)
    verdict(capsys, "CRITERION 9: PASS - metric example tables reproduced within 1e-12")
