"""Synthetic replay corpus for offline demos and hermetic tests.

Builds a complete fixture tree that the replay transport can serve:
recorded-style API response files, a query file, a completion fixture,
and a ready-to-run pipeline config. Every byte is a deterministic
function of the seed.

The canned unemployment-rate response mirrors the shape of a real
monthly macro series over 2007-2013 (slow drift up to a plateau and back
down) so connector tests exercise realistic payloads without network
access.
"""

from __future__ import annotations

import json
import os
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .series import Source
from .sources import (
    EiaQuery,
    FredQuery,
    Response,
    SourceQuery,
    TrendsQuery,
    YahooQuery,
    build_eia_request,
    build_fred_request,
    build_trends_request,
    build_yahoo_request,
    query_to_raw,
    save_queries,
    write_completion_fixture,
    write_fixture,
)
from .querygen import QUERY_TEMPLATE, SOURCE_DISPLAY_NAMES, render_text
from .storage import write_document

# Monthly unemployment-style values, 2007-01 through 2013-01 (73 points).
UNRATE_VALUES = [
    4.6, 4.5, 4.4, 4.5, 4.4, 4.6, 4.7, 4.6, 4.7, 4.7, 4.7, 5.0,
    5.0, 4.9, 5.1, 5.0, 5.4, 5.6, 5.8, 6.1, 6.1, 6.5, 6.8, 7.3,
    7.8, 8.3, 8.7, 9.0, 9.4, 9.5, 9.5, 9.6, 9.8, 10.0, 9.9, 9.9,
    9.8, 9.8, 9.9, 9.9, 9.6, 9.4, 9.4, 9.5, 9.5, 9.4, 9.8, 9.3,
    9.1, 9.0, 9.0, 9.1, 9.0, 9.1, 9.0, 9.0, 9.0, 8.8, 8.6, 8.5,
    8.3, 8.3, 8.2, 8.2, 8.2, 8.2, 8.2, 8.1, 7.8, 7.8, 7.7, 7.9,
    8.0,
]

UNRATE_QUERY = SourceQuery(
    source=Source.FRED,
    payload=FredQuery(
        series_id="UNRATE", start_date=date(2007, 1, 1), end_date=date(2013, 1, 1)
    ),
    comment="Covers the Great Recession period, showcasing shifts in employment levels.",
)


def month_starts(start: date, count: int) -> list[date]:
    out = []
    year, month = start.year, start.month
    for _ in range(count):
        out.append(date(year, month, 1))
        month += 1
        if month > 12:
            month, year = 1, year + 1
    return out


def fred_body(dates: list[date], values: list[float], missing_every: int = 0) -> str:
    observations = []
    for i, (d, v) in enumerate(zip(dates, values)):
        raw = "." if missing_every and i % missing_every == missing_every - 1 else f"{v:.6g}"
        observations.append({"date": d.isoformat(), "value": raw})
    return json.dumps(
        {"count": len(observations), "observations": observations}, sort_keys=True
    )


def eia_body(rows: list[dict], total: int) -> str:
    return json.dumps({"response": {"total": total, "data": rows}}, sort_keys=True)


def yahoo_body(dates: list[date], closes: list[float | None]) -> str:
    # unix midnight UTC per day
    stamps = [int((d - date(1970, 1, 1)).days * 86400) for d in dates]
    doc = {
        "chart": {
            "result": [
                {
                    "timestamp": stamps,
                    "indicators": {"quote": [{"close": closes}]},
                }
            ],
            "error": None,
        }
    }
    return json.dumps(doc, sort_keys=True)


def trends_body(dates: list[date], values: list[int]) -> str:
    timeline = [
        {
            "time": str(int((d - date(1970, 1, 1)).days * 86400)),
            "formattedTime": d.isoformat(),
            "value": [v],
            "hasData": [True],
        }
        for d, v in zip(dates, values)
    ]
    return ")]}'\n" + json.dumps({"default": {"timelineData": timeline}}, sort_keys=True)


def synth_values(rng: np.random.Generator, n: int, shifted: bool) -> np.ndarray:
    """Flat noise, or noise with one or two clear level shifts."""
    base = float(rng.uniform(1.0, 50.0))
    noise_sd = float(rng.uniform(0.2, 1.0))
    values = base + rng.normal(0.0, noise_sd, n)
    if shifted:
        n_shifts = int(rng.integers(1, 3))
        points = sorted(rng.choice(np.arange(n // 5, n - n // 5), n_shifts, replace=False))
        for p in points:
            values[p:] += float(rng.choice([-1.0, 1.0])) * noise_sd * rng.uniform(4.0, 8.0)
    return np.round(values, 4)


def build_connector_fixtures(fixtures_root: str | Path) -> dict[str, Path]:
    """Single-query recorded fixtures for each of the four connectors."""
    root = Path(fixtures_root)
    written: dict[str, Path] = {}

    dates = month_starts(date(2007, 1, 1), len(UNRATE_VALUES))
    request = build_fred_request(UNRATE_QUERY.payload, api_key=None)
    written["fred"] = write_fixture(
        root, request, Response(200, fred_body(dates, UNRATE_VALUES))
    )

    eia_query = SourceQuery(
        source=Source.EIA,
        payload=EiaQuery(
            api_route="electricity/rto/daily-region-data/data",
            params=(
                ("frequency", "daily"),
                ("data[0]", "value"),
                ("facets[respondent][]", "PJM"),
                ("sort[0][column]", "period"),
                ("sort[0][direction]", "desc"),
                ("offset", "0"),
                ("length", "100"),
                ("start", "2017-09-01"),
                ("end", "2018-02-28"),
            ),
        ),
        comment="Hurricane Maria caused significant power disruption in the PJM region.",
    )
    day0 = date(2017, 9, 1)
    rows = [
        {
            "period": (day0 + timedelta(days=i)).isoformat(),
            "respondent": "PJM",
            "type": "D",
            "value": round(800.0 + 30.0 * np.sin(i / 9.0) + (60.0 if i >= 90 else 0.0), 2),
            "value-units": "megawatthours",
        }
        for i in range(180)
    ]
    rows.reverse()  # the query asks for descending sort
    for page, offset in enumerate((0, 100)):
        request = build_eia_request(eia_query.payload, api_key=None, offset=offset)
        body = eia_body(rows[offset : offset + 100], total=len(rows))
        path = write_fixture(root, request, Response(200, body))
        written[f"eia_page{page}"] = path

    yahoo_query = SourceQuery(
        source=Source.YAHOO,
        payload=YahooQuery(
            ticker="SPY", start_date=date(2020, 1, 2), end_date=date(2020, 7, 1)
        ),
        comment="Pandemic-era drawdown and rebound in the S&P 500 tracker.",
    )
    days = [date(2020, 1, 2) + timedelta(days=i) for i in range(130)]
    days = [d for d in days if d.weekday() < 5]
    closes: list[float | None] = [
        round(320.0 - (80.0 if 40 <= i < 60 else 0.0) + 0.2 * i, 2)
        for i in range(len(days))
    ]
    closes[10] = None  # exercise the null-drop path
    request = build_yahoo_request(yahoo_query.payload)
    written["yahoo"] = write_fixture(root, request, Response(200, yahoo_body(days, closes)))

    trends_query = SourceQuery(
        source=Source.TRENDS,
        payload=TrendsQuery(
            keyword="world cup", start_date=date(2022, 1, 2), end_date=date(2024, 4, 21)
        ),
        comment="Interest spikes around the tournament window.",
    )
    weeks = [date(2022, 1, 2) + timedelta(weeks=i) for i in range(120)]
    interest = [5 + (70 if 45 <= i < 52 else 0) + (i % 4) for i in range(120)]
    request = build_trends_request(trends_query.payload)
    written["trends"] = write_fixture(root, request, Response(200, trends_body(weeks, interest)))

    queries_path = root / "connector_queries.json"
    save_queries([UNRATE_QUERY, eia_query, yahoo_query, trends_query], queries_path)
    written["queries"] = queries_path
    return written


def build_fred_corpus(
    fixtures_root: str | Path,
    count: int = 241,
    seed: int = 20240704,
    shifted_share: float = 0.45,
) -> Path:
    """A query file plus ``count`` recorded responses for a replay run.

    Roughly ``shifted_share`` of the series carry clear level shifts and
    survive pruning; the rest are flat noise. Returns the query file path.
    """
    root = Path(fixtures_root)
    rng = np.random.default_rng(seed)
    queries: list[SourceQuery] = []
    for i in range(count):
        n = int(rng.integers(31, 280))
        start = date(2000, 1, 1) + timedelta(days=int(rng.integers(0, 5000)))
        dates = [start + timedelta(days=int(7 * j)) for j in range(n)]
        shifted = bool(rng.random() < shifted_share)
        values = synth_values(rng, n, shifted)
        payload = FredQuery(series_id=f"DEMO{i:03d}", start_date=dates[0], end_date=dates[-1])
        query = SourceQuery(
            source=Source.FRED,
            payload=payload,
            comment=(
                "Window chosen for a suspected level shift."
                if shifted
                else "Baseline window with no suspected shift."
            ),
        )
        queries.append(query)
        request = build_fred_request(payload, api_key=None)
        write_fixture(root, request, Response(200, fred_body(dates, list(values))))

    queries_path = root / "fred_demo_queries.json"
    save_queries(queries, queries_path)
    return queries_path


def build_llm_fixture(
    fixtures_root: str | Path, queries: list[SourceQuery], query_count: int = 50
) -> Path:
    """Freeze a completion that answers the first-round query prompt with a
    fenced JSON array of query objects."""
    root = Path(fixtures_root)
    source = queries[0].source
    prompt = render_text(
        QUERY_TEMPLATE.body,
        {"source_name": SOURCE_DISPLAY_NAMES[source], "query_count": str(query_count)},
    )
    items = []
    for q in queries[:query_count]:
        raw = query_to_raw(q)
        raw.pop("source", None)
        items.append(raw)
    completion = (
        "Here are candidate queries covering windows with likely shifts.\n\n"
        "```json\n" + json.dumps(items, indent=2) + "\n```\n"
    )
    return write_completion_fixture(root / "llm", prompt, completion)


def build_demo_config(
    fixtures_root: str | Path,
    output_dir: str | Path,
    query_file: Path,
    dataset_name: str = "fred-demo",
    master_seed: int = 7,
) -> Path:
    """Write ``<fixtures_root>/<dataset_name>-config.json``, its input paths
    relative to that file, and return its path."""
    config = {
        "dataset_name": dataset_name,
        "source": "fred",
        "query_file": os.path.relpath(query_file, fixtures_root),
        "transport_mode": "replay",
        "detector": {},
        "augment": {"factor": 30, "verify_shift": True},
        "master_seed": master_seed,
        "output_dir": str(output_dir),
        "fixtures_dir": ".",
        "domain": "Economics & Finance",
        "description": "Synthetic macro-style replay corpus",
    }
    return write_document(Path(fixtures_root) / f"{dataset_name}-config.json", config)
