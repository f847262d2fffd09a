"""Seeded fixture corpora for the benchmark workloads.

Each builder writes a replay fixture tree (recorded API responses, plus a
query file or a completion fixture) under a directory and returns a
:class:`Workload`: the pipeline config to run on it and the counts a
correct run must report. Every byte is a function of the seed, and the
program under test sees only the files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from shiftminer import demo, querygen, sources
from shiftminer.augment import AugmentConfig
from shiftminer.changepoint import DetectorConfig, ShiftCategory, classify
from shiftminer.pipeline import PipelineConfig
from shiftminer.series import Source, Stage, TimeSeries

DATASET = "bench"
NOW = "2024-07-04T00:00:00+00:00"

# The quick start of the paper: bundled corpus, master seed 7, factor 30.
QUICKSTART_SEED = 20240704
QUICKSTART_COUNT = 241
QUICKSTART_COUNTS = (241, 112, 3360)


@dataclass
class Workload:
    name: str
    config: PipelineConfig
    expected_original: int
    expected_pruned: int | None  # None until resolve_expected() has run
    expected_failed_queries: int
    expected_rejected_queries: int = 0
    # values of every series a successful query returns; the reference
    # pass classifies these to fill ``expected_pruned``
    reference: list[list[float]] = field(default_factory=list, repr=False)

    @property
    def factor(self) -> int:
        return self.config.augment.factor

    @property
    def expected_augmented(self) -> int:
        return self.expected_pruned * self.factor


def _config(root: Path, source: Source, factor: int, **extra) -> PipelineConfig:
    return PipelineConfig(
        dataset_name=DATASET,
        source=source,
        transport_mode="replay",
        detector=DetectorConfig(),
        augment=AugmentConfig(factor=factor, verify_shift=True),
        master_seed=7,
        output_dir=root / "out",
        fixtures_dir=root / "fixtures",
        domain="benchmark",
        description="seeded replay corpus",
        **extra,
    )


# --- demo-30x ---------------------------------------------------------------


def build_demo_30x(root: Path, seed: int) -> Workload:
    """The bundled 241-query corpus. The seed only permutes the order of the
    query file, which the output tree does not depend on."""
    fixtures = root / "fixtures"
    query_file = demo.build_fred_corpus(fixtures, count=QUICKSTART_COUNT, seed=QUICKSTART_SEED)
    raw = json.loads(query_file.read_text(encoding="utf-8"))
    order = np.random.default_rng(seed).permutation(len(raw))
    query_file.write_text(json.dumps([raw[i] for i in order], indent=2) + "\n", encoding="utf-8")
    original, pruned, _ = QUICKSTART_COUNTS
    return Workload(
        name="demo-30x",
        config=_config(root, Source.FRED, 30, query_file=query_file),
        expected_original=original,
        expected_pruned=pruned,
        expected_failed_queries=0,
    )


# --- walk-verify ------------------------------------------------------------

WALK_COUNT = 40


def _business_days(start: date, count: int) -> list[date]:
    days = np.busday_offset(np.datetime64(start), np.arange(count), roll="forward")
    return days.astype(object).tolist()


def _calendar_days(start: date, count: int) -> list[date]:
    return (np.datetime64(start) + np.arange(count)).astype(object).tolist()


def build_walk_verify(root: Path, seed: int) -> Workload:
    """Yahoo-style daily closes reached through query generation.

    Half the series are geometric random walks, which binary segmentation
    splits into tens to hundreds of segments; the rest are flat noise that
    pruning drops. The completion also carries a duplicate and a few
    invalid query objects that the binder must reject.
    """
    fixtures = root / "fixtures"
    rng = np.random.default_rng(seed)
    objects: list[dict] = []
    reference: list[list[float]] = []
    # fixed length schedules, shuffled, keep the total work independent of the seed
    schedule = np.linspace(300, 900, WALK_COUNT // 2).round().astype(int)
    lengths = (rng.permutation(schedule), rng.permutation(schedule))
    for i in range(WALK_COUNT):
        n = int(lengths[i % 2][i // 2])
        days = _business_days(date(2000, 1, 3) + timedelta(days=int(rng.integers(0, 6000))), n)
        p0 = float(rng.uniform(10.0, 400.0))
        if i % 2 == 0:
            steps = rng.normal(0.0, float(rng.uniform(0.01, 0.025)), n)
            closes = p0 * np.exp(np.cumsum(steps))
        else:
            closes = p0 + rng.normal(0.0, p0 * float(rng.uniform(0.005, 0.02)), n)
        closes = np.round(closes, 2).tolist()
        query = sources.YahooQuery(ticker=f"WALK{i:03d}", start_date=days[0], end_date=days[-1])
        sources.write_fixture(
            fixtures,
            sources.build_yahoo_request(query),
            sources.Response(200, demo.yahoo_body(days, closes)),
        )
        objects.append(
            {
                "ticker": query.ticker,
                "start_date": query.start_date.isoformat(),
                "end_date": query.end_date.isoformat(),
                "interval": "daily",
                "comment": "random walk" if i % 2 == 0 else "flat noise",
            }
        )
        reference.append(closes)
    invalid = [
        {"ticker": "BADRANGE", "start_date": "2010-05-01", "end_date": "2009-05-01"},
        {"ticker": "SAMEDAY", "start_date": "2010-05-01", "end_date": "2010-05-01"},
        {"ticker": "BADDATE", "start_date": "May 2010", "end_date": "2011-05-01"},
        {"series_id": "UNRATE", "start_date": "2007-01-01", "end_date": "2013-01-01"},
    ]
    half = WALK_COUNT // 2
    shown = objects[:half] + [dict(objects[7])] + invalid[:2] + objects[half:] + invalid[2:]
    completion = (
        "Here are tickers and windows with likely regime changes.\n\n"
        "```json\n" + json.dumps(shown, indent=2) + "\n```\n"
    )
    prompt = querygen.render_text(
        querygen.QUERY_TEMPLATE.body,
        {
            "source_name": querygen.SOURCE_DISPLAY_NAMES[Source.YAHOO],
            "query_count": str(WALK_COUNT),
        },
    )
    querygen.write_completion_fixture(fixtures / "llm", prompt, completion)
    return Workload(
        name="walk-verify",
        config=_config(root, Source.YAHOO, 3, query_count=WALK_COUNT),
        expected_original=WALK_COUNT,
        expected_pruned=None,
        expected_failed_queries=0,
        expected_rejected_queries=len(invalid),
        reference=reference,
    )


# --- wide-collect -------------------------------------------------------------

WIDE_COUNT = 150
EIA_PAGE = 1000
EIA_ROUTE = "electricity/rto/daily-region-data/data"
# (kind, status) of the queries whose recorded response is an error
WIDE_FAILING = (("fred", 404), ("eia", 503), ("yahoo", 404), ("trends", 503))


def _level(rng: np.random.Generator, n: int, base: float, sd: float, shifted: bool) -> np.ndarray:
    """Flat noise, or noise with one or two level shifts of 4 to 8 sd."""
    values = base + rng.normal(0.0, sd, n)
    if shifted:
        points = rng.choice(np.arange(n // 5, n - n // 5), int(rng.integers(1, 3)), replace=False)
        for p in sorted(points):
            values[p:] += float(rng.choice([-1.0, 1.0])) * sd * float(rng.uniform(4.0, 8.0))
    return values


def build_wide_collect(root: Path, seed: int) -> Workload:
    """Long daily series spread over all four connectors, a tenth of them
    with level shifts, plus a few queries whose recorded answer is 404 or
    503 (the 503s are retried until the attempts run out)."""
    fixtures = root / "fixtures"
    rng = np.random.default_rng(seed)
    queries: list[sources.SourceQuery] = []
    reference: list[list[float]] = []
    kinds = ("fred", "eia", "yahoo", "trends")
    total = WIDE_COUNT + len(WIDE_FAILING)
    # A fixed length schedule and exactly a tenth shifted keep the work per
    # seed even. The shifted series are what pruning keeps and the split
    # reads back, so one is drawn from each tenth of the lengths: a plain
    # draw would move their total length, and split_s, by about 8% a seed.
    lengths = rng.permutation(np.linspace(1000, 4000, total).round().astype(int))
    by_length = np.array_split(np.argsort(lengths[:WIDE_COUNT]), WIDE_COUNT // 10)
    shifted_ids = {int(rng.choice(stratum)) for stratum in by_length}
    for i in range(total):
        failing = i >= WIDE_COUNT
        kind, status = WIDE_FAILING[i - WIDE_COUNT] if failing else (kinds[i % 4], 200)
        n = int(lengths[i])
        shifted = i in shifted_ids
        start = date(1995, 1, 2) + timedelta(days=int(rng.integers(0, 4000)))
        if kind == "yahoo":
            days = _business_days(start, n)
        else:
            days = _calendar_days(start, n)
        tag = f"{i:03d}"
        if kind == "fred":
            level = _level(rng, n, rng.uniform(1.0, 50.0), rng.uniform(0.2, 1.0), shifted)
            values = [float(f"{v:.6g}") for v in level]  # what fred_body writes
            payload = sources.FredQuery(f"WIDE{tag}", start_date=days[0], end_date=days[-1])
            requests = [sources.build_fred_request(payload, api_key=None)]
            bodies = [demo.fred_body(days, values)]
        elif kind == "eia":
            level = _level(rng, n, rng.uniform(500.0, 5000.0), rng.uniform(10.0, 60.0), shifted)
            values = np.round(level, 2).tolist()
            respondent = f"R{tag}"
            payload = sources.EiaQuery(
                api_route=EIA_ROUTE,
                params=(
                    ("frequency", "daily"),
                    ("data[0]", "value"),
                    ("facets[respondent][]", respondent),
                    ("length", str(EIA_PAGE)),
                    ("start", days[0].isoformat()),
                    ("end", days[-1].isoformat()),
                ),
            )
            rows = [
                {"period": d.isoformat(), "respondent": respondent, "type": "D",
                 "value": v, "value-units": "megawatthours"}
                for d, v in zip(days, values)
            ]
            offsets = range(0, n, EIA_PAGE)
            requests = [sources.build_eia_request(payload, api_key=None, offset=o) for o in offsets]
            bodies = [demo.eia_body(rows[o : o + EIA_PAGE], total=n) for o in offsets]
        elif kind == "yahoo":
            level = _level(rng, n, rng.uniform(10.0, 400.0), rng.uniform(0.5, 3.0), shifted)
            values = np.round(level, 2).tolist()
            payload = sources.YahooQuery(ticker=f"WIDE{tag}", start_date=days[0], end_date=days[-1])
            requests = [sources.build_yahoo_request(payload)]
            bodies = [demo.yahoo_body(days, values)]
        else:
            level = _level(rng, n, rng.uniform(30.0, 60.0), rng.uniform(2.0, 6.0), shifted)
            values = np.clip(np.round(level), 0, 100).tolist()
            payload = sources.TrendsQuery(f"topic {tag}", start_date=days[0], end_date=days[-1])
            requests = [sources.build_trends_request(payload)]
            bodies = [demo.trends_body(days, [int(v) for v in values])]
        queries.append(sources.SourceQuery(source=Source(kind), payload=payload, comment=kind))
        if failing:
            # the first request already fails, so it is the only one recorded
            requests, bodies = requests[:1], ['{"error": "recorded failure"}']
        else:
            reference.append(values)
        for request, body in zip(requests, bodies):
            sources.write_fixture(fixtures, request, sources.Response(status, body))
    query_file = sources.save_queries(queries, fixtures / "wide_queries.json")
    return Workload(
        name="wide-collect",
        config=_config(root, Source.FRED, 3, query_file=query_file),
        expected_original=WIDE_COUNT,
        expected_pruned=None,
        expected_failed_queries=len(WIDE_FAILING),
        reference=reference,
    )


BUILDERS = {
    "demo-30x": build_demo_30x,
    "walk-verify": build_walk_verify,
    "wide-collect": build_wide_collect,
}


def resolve_expected(workload: Workload) -> None:
    """Fill ``expected_pruned`` by classifying every reference series directly.

    This path skips collection, storage and the pipeline, so a run whose
    pruned count differs lost or corrupted series on the way. One series is
    built at a time to keep the pass out of the peak memory figure.
    """
    if workload.expected_pruned is not None:
        return
    detector = workload.config.detector
    kept = 0
    for values in workload.reference:
        stamps = tuple(date(2000, 1, 1) + timedelta(days=j) for j in range(len(values)))
        series = TimeSeries("reference", Source.SYNTHETIC, stamps, tuple(values), Stage.ORIGINAL)
        kept += classify(series, detector) is ShiftCategory.SHIFT
    workload.expected_pruned = kept
    workload.reference = []
