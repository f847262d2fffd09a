"""The response parsers against a pinned output tree and against the
row-wise parsers they replaced.

``Oracle*`` below are those row-wise parsers, kept verbatim but for two rules
they now share: a day is read only from ``YYYY-MM-DD``, checked text by text
(:func:`oracle_iso_date`), and a short EIA period (``YYYY`` or ``YYYY-MM``) only
from ASCII digits. One ``(date, float)`` tuple per row,
``datetime.fromtimestamp`` per stamp, two regex matches per EIA period, and a
sort by date. For any body, the
columnar parsers in ``shiftminer.sources`` must return equal series, bit
for bit, or raise the same exception class.
"""

from __future__ import annotations

import json
import random
import re
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftminer import demo, sources, storage
from shiftminer.series import Source, Stage, TimeSeries, make_series_id
from shiftminer.sources import (
    EiaQuery,
    EmptyResultError,
    FredQuery,
    ParseError,
    ReplayTransport,
    TrendsQuery,
    YahooQuery,
)

from test_acceptance import _tree_bytes, _tree_digest
from test_sources import _mutate

# sha256 of the ``original/`` tree that collecting ``demo.build_connector_fixtures``
# through all four connectors writes (FRED, two descending EIA pages, a Yahoo
# body with one null close, Trends). A change here is a change of output bytes.
CONNECTOR_ORIGINAL_SHA256 = "f6d903d35e890b2c81d16b4c1a808389059ccd55a344a3650d614c3db9aaab72"


def test_four_connector_original_tree_pinned(demo_fixture_root, tmp_path):
    queries = sources.load_queries(demo_fixture_root / "connector_queries.json")
    collected, failures = sources.fetch_all(queries, ReplayTransport(demo_fixture_root))
    assert failures == []
    assert [s.source for s in collected] == [Source.FRED, Source.EIA, Source.YAHOO, Source.TRENDS]
    storage.save_stage(tmp_path, "ds", collected)
    tree = _tree_bytes(storage.stage_dir(tmp_path, "ds", Stage.ORIGINAL))
    assert len(tree) == 8
    assert _tree_digest(tree) == CONNECTOR_ORIGINAL_SHA256


# sha256 of the ``original/`` tree that collecting ``long_connector_corpus`` writes,
# taken with the row-at-a-time parsers. A change here is a change of output bytes.
LONG_ORIGINAL_SHA256 = "db3dec8c821c5dbd0510588eeecf886b834854b85fd661f0d2c1251bfd5a33bc"


def long_connector_corpus(root) -> list[sources.SourceQuery]:
    """Recorded bodies of 2,500-4,000 rows through all four connectors: FRED
    with missing values, one EIA query over three descending pages whose 3,000
    rows interleave two respondents, Yahoo with null closes, and Trends."""
    rng = np.random.default_rng(12)
    start = date(1996, 3, 4)

    def days(n, step=1):
        return [start + timedelta(days=step * i) for i in range(n)]

    def level(n):
        return np.round(rng.uniform(10, 90) + np.cumsum(rng.normal(0, 1, n)), 3).tolist()

    fred = FredQuery("LONGFRED", start, start + timedelta(days=2499))
    eia = EiaQuery(EIA.api_route, (("facets[respondent][]", "PJM,ERCO"), ("length", "1000"),
                                   ("sort[0][column]", "period"), ("sort[0][direction]", "desc")))
    yahoo = YahooQuery("LONG", start, start + timedelta(days=2999))
    trends = TrendsQuery("long topic", start, start + timedelta(weeks=3999), geo="DE")
    closes = level(3000)
    for i in range(7, 3000, 211):
        closes[i] = None
    rows = [{"period": day.isoformat(), "respondent": respondent, "type": "D",
             "value": value, "value-units": "megawatthours"}
            for respondent in ("PJM", "ERCO") for day, value in zip(days(1500), level(1500))]
    rows.sort(key=lambda row: row["period"], reverse=True)
    recorded = [
        (sources.build_fred_request(fred, None), demo.fred_body(days(2500), level(2500), 13)),
        *[(sources.build_eia_request(eia, None, offset),
           demo.eia_body(rows[offset:offset + 1000], len(rows))) for offset in (0, 1000, 2000)],
        (sources.build_yahoo_request(yahoo), demo.yahoo_body(days(3000), closes)),
        (sources.build_trends_request(trends),
         demo.trends_body(days(4000, 7), [int(v) % 101 for v in level(4000)])),
    ]
    for request, body in recorded:
        sources.write_fixture(root, request, sources.Response(200, body))
    return [sources.SourceQuery(source, payload) for source, payload in [
        (Source.FRED, fred), (Source.EIA, eia), (Source.YAHOO, yahoo), (Source.TRENDS, trends)]]


def test_long_four_connector_original_tree_pinned(tmp_path):
    queries = long_connector_corpus(tmp_path / "fixtures")
    collected, failures = sources.fetch_all(queries, ReplayTransport(tmp_path / "fixtures"))
    assert failures == []
    assert [len(s) for s in collected] == [2308, 1500, 1500, 2985, 4000]
    storage.save_stage(tmp_path, "long", collected)
    tree = _tree_bytes(storage.stage_dir(tmp_path, "long", Stage.ORIGINAL))
    assert _tree_digest(tree) == LONG_ORIGINAL_SHA256


# --- the row-wise parsers, as they were -------------------------------------


def oracle_iso_date(text: str) -> date:
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def oracle_parse_period(raw: str) -> date:
    raw = str(raw)
    if re.fullmatch(r"\d{4}", raw, re.ASCII):
        return date(int(raw), 1, 1)
    if re.fullmatch(r"\d{4}-\d{2}", raw, re.ASCII):
        year, month = raw.split("-")
        return date(int(year), int(month), 1)
    return oracle_iso_date(raw[:10])


def oracle_series_or_parse_error(
    source: Source, native_id: str, comment: str, observations: list[tuple[date, float]]
) -> TimeSeries:
    try:
        timestamps, values = zip(*observations)
        return TimeSeries(
            id=make_series_id(source, native_id, timestamps[0], timestamps[-1]),
            source=source,
            timestamps=timestamps,
            values=values,
            stage=Stage.ORIGINAL,
            comment=comment,
        )
    except ValueError as exc:
        raise ParseError(f"{source.value} response for {native_id!r}: {exc}") from exc


def oracle_fred(payload: FredQuery, comment: str, body: str) -> list[TimeSeries]:
    try:
        doc = json.loads(body)
        observations = []
        for row in doc["observations"]:
            raw_value = row["value"]
            if raw_value in (".", "", None):
                continue
            observations.append((oracle_iso_date(row["date"]), float(raw_value)))
    except Exception as exc:
        raise ParseError(f"bad FRED body: {exc}") from exc
    if not observations:
        raise EmptyResultError(f"FRED {payload.series_id}: no observations")
    observations.sort(key=lambda pair: pair[0])
    return [oracle_series_or_parse_error(Source.FRED, payload.series_id, comment, observations)]


def oracle_eia(payload: EiaQuery, comment: str, rows: list[dict]) -> list[TimeSeries]:
    route = payload.api_route.strip("/").split("/")
    stem = route[-2] if route[-1] == "data" and len(route) > 1 else route[-1]
    groups: dict[tuple[tuple[str, str], ...], list[tuple[date, float]]] = {}
    try:
        for row in rows:
            if not isinstance(row, dict) or "period" not in row:
                raise ValueError(f"row without period: {row!r}")
            if row.get("value") is None:
                continue
            when = oracle_parse_period(row["period"])
            value = float(row["value"])
            key = tuple(
                sorted(
                    (str(k), str(v))
                    for k, v in row.items()
                    if k not in ("period", "value") and not k.endswith("units")
                )
            )
            groups.setdefault(key, []).append((when, value))
    except Exception as exc:
        raise ParseError(f"bad EIA rows: {exc}") from exc

    out = []
    for key in sorted(groups):
        observations = sorted(groups[key], key=lambda pair: pair[0])
        native = "-".join([stem] + [v for _, v in key]) if key else stem
        out.append(oracle_series_or_parse_error(Source.EIA, native, comment, observations))
    return out


def oracle_yahoo(payload: YahooQuery, comment: str, body: str) -> list[TimeSeries]:
    try:
        doc = json.loads(body)
        result = doc["chart"]["result"][0]
        stamps = result["timestamp"]
        closes = result["indicators"]["quote"][0]["close"]
        if len(stamps) != len(closes):
            raise ValueError("timestamp/close length mismatch")
        observations = []
        for ts, close in zip(stamps, closes):
            if close is None:
                continue
            day = datetime.fromtimestamp(int(ts), tz=timezone.utc).date()
            observations.append((day, float(close)))
    except Exception as exc:
        raise ParseError(f"bad Yahoo body: {exc}") from exc
    if not observations:
        raise EmptyResultError(f"Yahoo {payload.ticker}: no observations")
    observations.sort(key=lambda pair: pair[0])
    return [oracle_series_or_parse_error(Source.YAHOO, payload.ticker, comment, observations)]


def oracle_trends(payload: TrendsQuery, comment: str, body: str) -> list[TimeSeries]:
    try:
        text = body
        if text.startswith(")]}'"):
            text = text.split("\n", 1)[1] if "\n" in text else text[5:]
        doc = json.loads(text)
        timeline = doc["default"]["timelineData"]
        observations = []
        for entry in timeline:
            values = entry["value"]
            if not values:
                continue
            day = datetime.fromtimestamp(int(entry["time"]), tz=timezone.utc).date()
            observations.append((day, float(values[0])))
    except Exception as exc:
        raise ParseError(f"bad Trends body: {exc}") from exc
    if not observations:
        raise EmptyResultError(f"Trends {payload.keyword}: no observations")
    observations.sort(key=lambda pair: pair[0])
    native = payload.keyword.replace(" ", "_") + (f"-{payload.geo}" if payload.geo else "")
    return [oracle_series_or_parse_error(Source.TRENDS, native, comment, observations)]


# --- comparing outcomes -----------------------------------------------------

FRED = FredQuery("X1", date(2000, 1, 1), date(2001, 1, 1))
EIA = EiaQuery("electricity/rto/daily-region-data/data", (("frequency", "daily"),))
YAHOO = YahooQuery("SPY", date(2000, 1, 1), date(2001, 1, 1))
TRENDS = TrendsQuery("world cup", date(2000, 1, 1), date(2001, 1, 1), geo="US")

# source -> (the parser, its oracle, the payload it is called with)
PARSERS = {
    "fred": (sources.fred_response_to_series, oracle_fred, FRED),
    "eia": (sources.eia_rows_to_series, oracle_eia, EIA),
    "yahoo": (sources.yahoo_response_to_series, oracle_yahoo, YAHOO),
    "trends": (sources.trends_response_to_series, oracle_trends, TRENDS),
}


def outcome(parse, payload, data):
    """The series as comparable plain values, or the class of the parse-family error."""
    try:
        series = parse(payload, "a comment", data)
    except (ParseError, EmptyResultError) as exc:
        return type(exc)
    return [(s.id, s.source, s.stage, s.provenance, s.comment, s.timestamps.tolist(),
             s.values.dtype.str, s.values.tobytes()) for s in series]


def assert_same(source: str, data) -> object:
    """Parser and oracle agree on ``data``; returns the shared outcome."""
    parse, oracle, payload = PARSERS[source]
    expected = outcome(oracle, payload, data)
    assert outcome(parse, payload, data) == expected
    return expected


# --- generated bodies -------------------------------------------------------

FIRST_DAY = -62135596800  # 0001-01-01T00:00:00Z
LAST_SECOND = 253402300799  # 9999-12-31T23:59:59Z
EDGE_STAMPS = [FIRST_DAY - 1, FIRST_DAY, FIRST_DAY + 86399, LAST_SECOND - 86399, LAST_SECOND,
               LAST_SECOND + 1, -86401, -86400, -1, 0, 86399, 10**20, -(10**20)]

ODD = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                st.sampled_from(["", ".", "x", "nan", "inf", "-0", " 7 ", "1e400", "2000-01-01",
                                 "2000", "12", "2000-01-01T10:00"]),
                st.lists(st.integers(0, 9), max_size=2), st.just({"a": 1}))


@st.composite
def observations(draw, stamp=False):
    """(day or stamp, value) rows: increasing, shuffled, with repeats, or reversed."""
    if stamp:
        days = st.integers(-40, 40) | st.integers(FIRST_DAY // 86400, LAST_SECOND // 86400)
        keys = draw(st.lists(
            st.builds(lambda day, second: day * 86400 + second, days,
                      st.sampled_from([0, 0, 1, 43200, 86399])) | st.sampled_from(EDGE_STAMPS),
            max_size=25, unique_by=lambda stamp: stamp // 86400))
    else:
        keys = draw(st.lists(st.dates(date(1969, 12, 20), date(1970, 1, 20)), max_size=25,
                             unique=True))
    keys.sort()
    values = draw(st.lists(st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)
                           | st.integers(-1000, 1000).map(float), min_size=len(keys),
                           max_size=len(keys)))
    rows = list(zip(keys, values))
    order = draw(st.sampled_from(["sorted", "shuffled", "reversed", "repeat"]))
    if order == "shuffled":
        rows = draw(st.permutations(rows))
    elif order == "reversed":
        rows.reverse()
    elif order == "repeat" and rows:
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(st.integers(0, len(rows) - 1))])
    return rows


def spoil(draw, items: list, field: str, odd=ODD) -> None:
    """Maybe set ``field`` of one item (a dict) to an odd value, or drop it."""
    if items and draw(st.integers(0, 5)) == 0:
        item = items[draw(st.integers(0, len(items) - 1))]
        if draw(st.booleans()):
            item[field] = draw(odd)
        else:
            item.pop(field, None)


@st.composite
def fred_bodies(draw):
    rows = [{"date": day.isoformat(), "value": draw(st.sampled_from([f"{v:.6g}", repr(v), v]))}
            for day, v in draw(observations())]
    for row in rows:
        if draw(st.integers(0, 9)) == 0:
            row["value"] = draw(st.sampled_from([".", "", None]))
    spoil(draw, rows, "date")
    spoil(draw, rows, "value")
    return json.dumps({"observations": rows})


@st.composite
def yahoo_bodies(draw):
    rows = draw(observations(stamp=True))
    stamps = [draw(st.sampled_from([s, s + 0.75, str(s)])) if draw(st.integers(0, 9)) == 0 else s
              for s, _ in rows]
    closes = [None if draw(st.integers(0, 9)) == 0 else v for _, v in rows]
    if rows and draw(st.integers(0, 5)) == 0:
        (stamps if draw(st.booleans()) else closes)[draw(st.integers(0, len(rows) - 1))] = draw(ODD)
    if draw(st.integers(0, 9)) == 0:
        closes = closes[:-1]
    doc = {"chart": {"result": [{"timestamp": stamps, "indicators": {"quote": [{"close": closes}]}}]}}
    return json.dumps(doc)


@st.composite
def trends_bodies(draw):
    timeline = [{"time": draw(st.sampled_from([str(s), s])), "value": [v]}
                for s, v in draw(observations(stamp=True))]
    for entry in timeline:
        if draw(st.integers(0, 9)) == 0:
            entry["value"] = draw(st.sampled_from([[], 0, None, [1.5, 2.5], "42"]))
    spoil(draw, timeline, "time")
    spoil(draw, timeline, "value")
    prefix = draw(st.sampled_from(["", ")]}'\n", ")]}', "]))
    return prefix + json.dumps({"default": {"timelineData": timeline}})


IDENTITIES = [("respondent", "type"), ("type", "respondent"), ("respondent",), (),
              ("respondent", "type", "fueltype"), ("value-units", "respondent")]


@st.composite
def eia_rows(draw):
    """Rows of one to three groups, of one or more column sets, whose columns come in
    any order; periods are days, days with a time, or (colliding) months and years."""
    groups = [{column: draw(st.sampled_from(["PJM", "ERCO", 1, "1", True, None]))
               for column in draw(st.sampled_from(IDENTITIES))}
              for _ in range(draw(st.integers(1, 3)))]
    forms = draw(st.sampled_from([["day"], ["day", "time"], ["day", "time", "month", "year"]]))
    rows = []
    for day, value in draw(observations()):
        row = dict(draw(st.sampled_from(groups)))
        row["period"] = {"day": day.isoformat(), "time": f"{day.isoformat()}T{day.day:02d}",
                         "month": f"{day.year}-{day.month:02d}",
                         "year": f"{day.year}"}[draw(st.sampled_from(forms))]
        row["value"] = None if draw(st.integers(0, 9)) == 0 else draw(
            st.sampled_from([value, str(value)]))
        if draw(st.booleans()):
            row["units"] = "MWh"
        keys = draw(st.permutations(list(row)))
        rows.append({key: row[key] for key in keys})
    spoil(draw, rows, "period", ODD | st.sampled_from(["2000-1", "2000-13", "\u0662\u0660\u0662\u0660",
                                                       "2000-01-3", "2000-01-01X"]))
    spoil(draw, rows, "value")
    if rows and draw(st.integers(0, 19)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = draw(ODD)
    return rows


BODIES = {"fred": fred_bodies(), "eia": eia_rows(), "yahoo": yahoo_bodies(),
          "trends": trends_bodies()}


@pytest.mark.parametrize("source", list(PARSERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_generated_bodies_parse_as_before(source, data):
    assert_same(source, data.draw(BODIES[source]))


@pytest.mark.parametrize("source", list(PARSERS))
def test_mutated_fixture_bodies_parse_as_before(source, demo_fixture_root):
    rng = np.random.default_rng(sum(map(ord, source)))
    for path in sorted((demo_fixture_root / source).glob("*.http")):
        body = sources.read_fixture(path).body
        for _ in range(100):
            mutated = _mutate(body, rng)
            if source == "eia":
                try:
                    _, rows = sources.eia_rows(mutated)
                except ParseError:
                    continue
                assert_same(source, rows)
            else:
                assert_same(source, mutated)


@st.composite
def long_eia_rows(draw):
    """200-2,000 rows of 1-4 interleaved groups in a drawn order, one day per row.
    Respondents may be ``1``, ``1.0``, ``True`` and ``"1"`` (three groups, the
    first and last merged); a group may carry a ``type`` (null too) the others
    lack; periods are days, hours or both; one may be malformed or not a string."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 4))
    respondents = draw(st.sampled_from([["PJM", "ERCO", "MISO", "CISO"], [1, 1.0, True, "1"]]))
    extras = draw(st.lists(st.sampled_from([{}, {"type": "D"}, {"type": None}, {"units": "MWh"}]),
                           min_size=4, max_size=4))
    forms = draw(st.sampled_from([["{}"], ["{}T07"], ["{}", "{}T23"]]))
    start = date(2000, 1, 1) + timedelta(days=rng.randrange(5000))
    rows = []
    for i in range(draw(st.integers(200, 2000))):
        group = rng.randrange(count)
        value = None if rng.random() < 0.05 else rng.choice([round(rng.uniform(-1e3, 1e3), 2), "7"])
        rows.append({"period": rng.choice(forms).format((start + timedelta(days=i)).isoformat()),
                     "respondent": respondents[group], **extras[group], "value": value})
    order = draw(st.sampled_from(["sorted", "reversed", "shuffled"]))
    if order != "sorted":
        rows.reverse() if order == "reversed" else rng.shuffle(rows)
    fault = draw(st.sampled_from([None, "2000-13-01", 2000, 20000101, None]))
    if fault is not None or draw(st.booleans()):
        rows[rng.randrange(len(rows))]["period"] = fault
    return rows


@settings(max_examples=40, deadline=None)
@given(rows=long_eia_rows())
def test_long_eia_row_lists_parse_as_before(rows):
    assert_same("eia", rows)


def stamp_body(source: str, stamps: list) -> str:
    """A Yahoo or Trends body of ``stamps`` as they are, each with a value."""
    values = [float(i) for i in range(len(stamps))]
    if source == "yahoo":
        return json.dumps({"chart": {"result": [
            {"timestamp": stamps, "indicators": {"quote": [{"close": values}]}}]}})
    return json.dumps({"default": {"timelineData": [
        {"time": s, "value": [v]} for s, v in zip(stamps, values)]}})


# negative floats truncate toward zero, bools are 0 and 1, strings are read by ``int``
ODD_STAMPS = (st.integers(-400 * 86400, 400 * 86400)
              | st.floats(-400 * 86400, 400 * 86400, allow_nan=False)
              | st.booleans() | st.integers(-400 * 86400, 400 * 86400).map(str)
              | st.sampled_from([-0.5, 0.5, -86400.5, "1.5", 2**63 - 1, 2**63, -(2**63) - 1,
                                 10**30, 1e300, -1e300]))


@pytest.mark.parametrize("source", ["yahoo", "trends"])
@settings(max_examples=150, deadline=None)
@given(stamps=st.lists(ODD_STAMPS, max_size=12))
def test_odd_stamps_parse_as_before(source, stamps):
    assert_same(source, stamp_body(source, stamps))


@pytest.mark.parametrize("source", ["yahoo", "trends"])
@pytest.mark.parametrize("stamps, days", [
    ([-0.5, 86400.75], [date(1970, 1, 1), date(1970, 1, 2)]),
    ([-86400.5, True], [date(1969, 12, 31), date(1970, 1, 1)]),
    (["172800", False], [date(1970, 1, 1), date(1970, 1, 3)]),
    ([0, 2**63], None),
    ([-(2**63) - 1, 0], None),
    ([0, 2**63 - 1], None),
])
def test_odd_stamps_by_hand(source, stamps, days):
    parse, _, payload = PARSERS[source]
    outcome = assert_same(source, stamp_body(source, stamps))
    if days is None:
        assert outcome is ParseError
    else:
        assert parse(payload, "", stamp_body(source, stamps))[0].timestamps.tolist() == days


# --- cases named by hand ----------------------------------------------------


def yahoo_body(stamps, closes) -> str:
    return json.dumps({"chart": {"result": [
        {"timestamp": stamps, "indicators": {"quote": [{"close": closes}]}}]}})


def trends_body(stamps, values) -> str:
    return json.dumps({"default": {"timelineData": [
        {"time": str(s), "value": [v]} for s, v in zip(stamps, values)]}})


@pytest.mark.parametrize("source", ["yahoo", "trends"])
@pytest.mark.parametrize("stamps, first, last", [
    ([FIRST_DAY, FIRST_DAY + 86400], date(1, 1, 1), date(1, 1, 2)),
    ([LAST_SECOND - 86400, LAST_SECOND], date(9999, 12, 30), date(9999, 12, 31)),
    ([-86401, -1, 0], date(1969, 12, 30), date(1970, 1, 1)),
])
def test_representable_and_pre_1970_stamps(source, stamps, first, last):
    body = (yahoo_body if source == "yahoo" else trends_body)(stamps, [1.0] * len(stamps))
    [series] = PARSERS[source][0](PARSERS[source][2], "", body)
    assert (series.timestamps[0], series.timestamps[-1]) == (first, last)
    assert_same(source, body)


@pytest.mark.parametrize("source", ["yahoo", "trends"])
def test_stamps_on_one_pre_1970_day_are_a_repeated_date(source):
    body = (yahoo_body if source == "yahoo" else trends_body)([-86400, -1], [1.0, 2.0])
    assert assert_same(source, body) is ParseError


@pytest.mark.parametrize("source", ["yahoo", "trends"])
@pytest.mark.parametrize("beyond", [FIRST_DAY - 1, LAST_SECOND + 1, 10**20])
def test_stamps_beyond_years_1_to_9999_are_parse_errors(source, beyond):
    body = (yahoo_body if source == "yahoo" else trends_body)([0, beyond], [1.0, 2.0])
    assert assert_same(source, body) is ParseError


def test_eia_column_order_and_column_sets():
    rows = [
        {"period": "2020-01-02", "respondent": "ERCO", "type": "D", "value": 2.0},
        {"type": "D", "value": 1.0, "respondent": "ERCO", "period": "2020-01-01"},
        {"period": "2020-01-03", "value": 3.0, "value-units": "MWh", "type": "D",
         "respondent": "ERCO"},
        {"period": "2020-02", "respondent": "PJM", "value": 5.0},
        {"period": "2019", "value": 4.0, "respondent": "PJM"},
        {"period": "2020-02-01T07", "value": 6.0},
        {"period": "2020-03-01", "value": 7.0},
    ]
    series = sources.eia_rows_to_series(EIA, "", rows)
    # ordered by the sorted (column, value) pairs: ERCO's two columns before PJM's one
    assert [s.id for s in series] == [
        "eia-daily-region-data-2020-02-01-2020-03-01",
        "eia-daily-region-data-ERCO-D-2020-01-01-2020-01-03",
        "eia-daily-region-data-PJM-2019-01-01-2020-02-01",
    ]
    assert series[1].values.tolist() == [1.0, 2.0, 3.0]
    assert_same("eia", rows)
    assert_same("eia", rows[::-1])


@pytest.mark.parametrize("source, data, message", [
    ("fred", json.dumps({"observations": [{"date": "2000-01-01", "value": "1"},
                                          {"date": "2000-01-32", "value": "2"}]}),
     "bad FRED body: day is out of range for month"),
    ("fred", json.dumps({"observations": [{"date": "2000-01-01", "value": "1"},
                                          {"date": "2000-01-02", "value": "x"}]}),
     "bad FRED body: could not convert string to float: 'x'"),
    ("fred", json.dumps({"observations": [{"date": "2000-01-02", "value": "1"},
                                          {"date": "2000-01-02", "value": "2"}]}),
     "fred response for 'X1': series 'fred-X1-2000-01-02-2000-01-02' timestamps must be "
     "strictly increasing"),
    # a day is YYYY-MM-DD only, though Python 3.11's fromisoformat reads these too
    ("fred", json.dumps({"observations": [{"date": "2000-01-01", "value": "1"},
                                          {"date": "20000102", "value": "2"}]}),
     "bad FRED body: not a YYYY-MM-DD date: '20000102'"),
    ("eia", [{"period": "2000-01-01", "value": 1.0}, {"period": "2000-W01-3", "value": 2.0}],
     "bad EIA rows: not a YYYY-MM-DD date: '2000-W01-3'"),
    ("eia", [{"period": "2000-01-01", "value": 1.0}, {"period": "2000-1", "value": 2.0}],
     "bad EIA rows: not a YYYY-MM-DD date: '2000-1'"),
    ("eia", [{"period": "2000-01-01", "value": 1.0}, {"value": 2.0}],
     "bad EIA rows: row without period: {'value': 2.0}"),
    ("yahoo", yahoo_body([0, "x"], [1.0, 2.0]),
     "bad Yahoo body: invalid literal for int() with base 10: 'x'"),
    ("yahoo", yahoo_body([0, 86400], [1.0, "y"]),
     "bad Yahoo body: could not convert string to float: 'y'"),
    ("yahoo", yahoo_body([0, 86400], [1.0]), "bad Yahoo body: timestamp/close length mismatch"),
    ("trends", trends_body([0, "x"], [1, 2]),
     "bad Trends body: invalid literal for int() with base 10: 'x'"),
    ("yahoo", yahoo_body([0], [float("nan")]),
     "yahoo response for 'SPY': series 'yahoo-SPY-1970-01-01-1970-01-01' has 1 samples, "
     "need >= 2"),
])
def test_a_body_with_one_fault_keeps_its_message(source, data, message):
    parse, oracle, payload = PARSERS[source]
    for fn in (parse, oracle):
        with pytest.raises(ParseError) as err:
            fn(payload, "", data)
        assert str(err.value) == message


@pytest.mark.parametrize("period, day", [
    ("2020", date(2020, 1, 1)), ("2020-03", date(2020, 3, 1)), ("0001", date(1, 1, 1)),
    ("9999-12", date(9999, 12, 1)),
])
def test_a_short_eia_period_is_its_first_day(period, day):
    rows = [{"period": period, "value": 1.0}, {"period": "9999-12-31", "value": 2.0}]
    [series] = sources.eia_rows_to_series(EIA, "", rows)
    assert series.timestamps.tolist() == [day, date(9999, 12, 31)]
    assert_same("eia", rows)


@pytest.mark.parametrize("period, message", [
    ("\uff12\uff10\uff12\uff10", "not a YYYY-MM-DD date: '\uff12\uff10\uff12\uff10'"),
    ("\u0662\u0660\u0662\u0660-\u0660\u0663",
     "not a YYYY-MM-DD date: '\u0662\u0660\u0662\u0660-\u0660\u0663'"),
    ("2020-\uff10\uff13", "not a YYYY-MM-DD date: '2020-\uff10\uff13'"),
    ("0000", "year 0 is out of range"),
    ("2020-13", "month must be in 1..12"),
])
def test_a_short_eia_period_takes_ascii_digits_only(period, message):
    rows = [{"period": "2020-01-01", "value": 1.0}, {"period": period, "value": 2.0}]
    parse, oracle, payload = PARSERS["eia"]
    for fn in (parse, oracle):
        with pytest.raises(ParseError) as err:
            fn(payload, "", rows)
        assert str(err.value) == f"bad EIA rows: {message}"


def test_rows_reordered_stably_only_when_out_of_order():
    days = [date(2000, 1, 1) + timedelta(days=i) for i in range(50)]
    shuffled = list(zip(days, map(float, range(50))))
    random.Random(3).shuffle(shuffled)
    body = json.dumps({"observations": [{"date": d.isoformat(), "value": repr(v)}
                                        for d, v in shuffled]})
    [series] = sources.fred_response_to_series(FRED, "", body)
    assert series.timestamps.tolist() == days
    assert series.values.tolist() == list(map(float, range(50)))
    assert_same("fred", body)
