from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import re
import socket
import zlib
from datetime import date, timedelta
from urllib.parse import parse_qs, urlsplit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shiftminer import demo, sources
from shiftminer.series import Source, Stage
from shiftminer.sources import (
    CONNECTORS,
    AuthMissingError,
    EiaQuery,
    EmptyResultError,
    FixtureMissingError,
    FredQuery,
    Interval,
    LiveTransport,
    ParseError,
    QueryFieldError,
    RateLimitedError,
    ReplayTransport,
    Request,
    RequestPacer,
    Response,
    SourceQuery,
    TransportError,
    TrendsQuery,
    UpstreamError,
    YahooQuery,
    build_completion_request,
    build_eia_request,
    build_fred_request,
    build_trends_request,
    build_yahoo_request,
    canonical_request_key,
    dedup_queries,
    eia_rows,
    eia_rows_to_series,
    fetch,
    fetch_all,
    fred_response_to_series,
    known_fields,
    load_queries,
    query_from_raw,
    query_to_raw,
    read_fixture,
    save_queries,
    trends_response_to_series,
    validate_query,
    write_fixture,
    yahoo_response_to_series,
)

from conftest import LocalLive, Reply, ScriptedTransport, VirtualClock

FRED_URL = "https://api.stlouisfed.org/fred/series/observations"

UNRATE = SourceQuery(
    source=Source.FRED,
    payload=FredQuery("UNRATE", date(2007, 1, 1), date(2013, 1, 1)),
    comment="Covers the Great Recession period, showcasing shifts in employment levels.",
)


# Live bodies are decoded with errors="replace", so they hold no lone surrogate.
TEXT = st.text(st.characters(exclude_categories=("Cs",)))
BODY_PIECES = st.sampled_from([
    "\r", "\r\n", "\n", "{}", "Ölpreis – 原油 ☃", "\u2028",
    '{"request": {"method": "GET"}, "status": 404}\n',  # a first line that looks like a header
])
RESPONSES = st.builds(Response, st.integers(100, 599),
                      st.lists(BODY_PIECES | TEXT, max_size=6).map("".join))
REQUESTS = st.builds(Request, st.sampled_from([s.value for s in CONNECTORS]), st.just("GET"),
                     TEXT, st.lists(st.tuples(TEXT, TEXT), max_size=3).map(tuple))


def fred_ok_body(n=24):
    dates = demo.month_starts(date(2007, 1, 1), n)
    return demo.fred_body(dates, [4.5 + 0.1 * i for i in range(n)])


class TestValidateQuery:
    def test_figure_style_query_ok(self):
        assert validate_query(UNRATE) == []

    def test_start_after_end(self):
        q = SourceQuery(Source.FRED, FredQuery("UNRATE", date(2013, 1, 1), date(2007, 1, 1)))
        assert any("start after end" in r for r in validate_query(q))

    def test_empty_identifier(self):
        q = SourceQuery(Source.FRED, FredQuery("", date(2007, 1, 1), date(2013, 1, 1)))
        assert any("empty identifier" in r for r in validate_query(q))

    def test_fred_id_charset(self):
        q = SourceQuery(Source.FRED, FredQuery("un rate", date(2007, 1, 1), date(2013, 1, 1)))
        assert validate_query(q)

    def test_eia_route_relative(self):
        q = SourceQuery(Source.EIA, EiaQuery("/absolute/path", (("a", "1"),)))
        assert any("relative" in r for r in validate_query(q))

    def test_eia_empty_param_key(self):
        q = SourceQuery(Source.EIA, EiaQuery("route/data", (("", "1"),)))
        assert validate_query(q)


class TestDedup:
    def test_comment_excluded_from_key(self):
        a = SourceQuery(Source.FRED, FredQuery("UNRATE", date(2007, 1, 1), date(2013, 1, 1)), "one")
        b = SourceQuery(Source.FRED, FredQuery("UNRATE", date(2007, 1, 1), date(2013, 1, 1)), "two")
        out = dedup_queries([a, b])
        assert out == [a]
        assert out[0].comment == "one"

    def test_different_ranges_kept(self):
        a = SourceQuery(Source.FRED, FredQuery("UNRATE", date(2007, 1, 1), date(2013, 1, 1)))
        b = SourceQuery(Source.FRED, FredQuery("UNRATE", date(2014, 1, 1), date(2015, 1, 1)))
        assert dedup_queries([a, b]) == [a, b]

    def test_empty(self):
        assert dedup_queries([]) == []

    def test_idempotent_and_stable(self):
        rng = np.random.default_rng(0)
        pool = [
            SourceQuery(
                Source.FRED,
                FredQuery(f"S{rng.integers(0, 5)}", date(2000, 1, 1), date(2001, 1, 1)),
            )
            for _ in range(30)
        ]
        once = dedup_queries(pool)
        assert dedup_queries(once) == once


class TestRetryAndPacing:
    def test_two_429_then_success(self, caplog):
        clock = VirtualClock()
        transport = ScriptedTransport(
            [Response(429, ""), Response(429, ""), Response(200, fred_ok_body())], clock
        )
        pacer = RequestPacer(clock)
        with caplog.at_level(logging.INFO, logger="shiftminer.sources"):
            series = fetch(UNRATE, transport, pacer=pacer)
        assert len(series) == 1
        assert len(transport.calls) == 3
        assert clock.sleeps == [1.0, 2.0]
        attempts_logged = [r for r in caplog.records if "attempt" in r.message]
        assert len(attempts_logged) == 3

    def test_backoff_sequence_to_exhaustion(self):
        clock = VirtualClock()
        transport = ScriptedTransport([Response(429, "")] * 5, clock)
        pacer = RequestPacer(clock)
        with pytest.raises(RateLimitedError, match="still throttled after 5 attempts"):
            fetch(UNRATE, transport, pacer=pacer)
        assert len(transport.calls) == 5
        assert clock.sleeps == [1.0, 2.0, 4.0, 8.0]

    def test_server_errors_retry_then_upstream_error(self):
        clock = VirtualClock()
        transport = ScriptedTransport([Response(500, "boom")] * 5, clock)
        with pytest.raises(UpstreamError) as err:
            fetch(UNRATE, transport, pacer=RequestPacer(clock))
        assert err.value.status == 500
        assert len(transport.calls) == 5

    def test_transport_error_retried(self):
        clock = VirtualClock()
        transport = ScriptedTransport(
            [TransportError("reset"), Response(200, fred_ok_body())], clock
        )
        assert len(fetch(UNRATE, transport, pacer=RequestPacer(clock))) == 1
        assert clock.sleeps == [1.0]

    def test_transport_errors_until_retries_run_out(self):
        clock = VirtualClock()
        transport = ScriptedTransport([TransportError("reset")] * 5, clock)
        with pytest.raises(UpstreamError, match="retries exhausted") as err:
            fetch(UNRATE, transport, pacer=RequestPacer(clock))
        assert err.value.status == 0
        assert len(transport.calls) == 5
        assert clock.sleeps == [1.0, 2.0, 4.0, 8.0]

    def test_client_error_not_retried(self):
        clock = VirtualClock()
        transport = ScriptedTransport([Response(404, "")], clock)
        with pytest.raises(UpstreamError):
            fetch(UNRATE, transport, pacer=RequestPacer(clock))
        assert len(transport.calls) == 1

    def test_pacing_interval_respected_across_fetches(self):
        clock = VirtualClock()
        bodies = [Response(200, fred_ok_body())] * 5
        transport = ScriptedTransport(bodies, clock)
        pacer = RequestPacer(clock)
        for _ in range(5):
            fetch(UNRATE, transport, pacer=pacer)
        times = [when for _, when in transport.calls]
        assert np.diff(times).tolist() == [0.5] * 4

    def test_pacing_per_source_independent(self):
        clock = VirtualClock()
        pacer = RequestPacer(clock)
        pacer.wait("fred")
        t0 = clock.now()
        pacer.wait("eia")  # different source, no wait
        assert clock.now() == t0
        pacer.wait("fred")
        assert clock.sleeps == [0.5] and clock.now() == t0 + 0.5

    def test_unparseable_body(self):
        clock = VirtualClock()
        transport = ScriptedTransport([Response(200, "this is not json")], clock)
        with pytest.raises(ParseError):
            fetch(UNRATE, transport, pacer=RequestPacer(clock))

    def test_auth_missing_in_live_mode(self, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        clock = VirtualClock()
        transport = ScriptedTransport([Response(200, fred_ok_body())], clock)
        transport.mode = "live"
        with pytest.raises(AuthMissingError):
            fetch(UNRATE, transport, pacer=RequestPacer(clock))


class TestLiveTransport:
    def _fetch(self, server, clock=None):
        clock = clock or VirtualClock()
        return fetch(UNRATE, LocalLive(server.url), pacer=RequestPacer(clock))

    def test_ok(self, http_server, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k3y")
        http_server.replies.append(Reply(200, fred_ok_body().encode()))
        series = self._fetch(http_server)
        assert len(series) == 1 and len(series[0]) == 24
        method, path, headers, _ = http_server.received[0]
        assert method == "GET"
        assert urlsplit(path).path == "/fred/series/observations"
        assert parse_qs(urlsplit(path).query) == {
            "series_id": ["UNRATE"], "observation_start": ["2007-01-01"],
            "observation_end": ["2013-01-01"], "file_type": ["json"], "api_key": ["k3y"],
        }
        assert headers["User-Agent"] == "shiftminer/0.1"

    def test_not_found_is_upstream_error(self, http_server, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k")
        http_server.replies.append(Reply(404, b'{"error": "no such series"}'))
        with pytest.raises(UpstreamError) as err:
            self._fetch(http_server)
        assert err.value.status == 404
        assert len(http_server.received) == 1

    def test_throttled_then_ok_retries(self, http_server, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k")
        http_server.replies += [Reply(429), Reply(200, fred_ok_body().encode())]
        clock = VirtualClock()
        assert len(self._fetch(http_server, clock)) == 1
        assert clock.sleeps == [1.0]
        assert len(http_server.received) == 2

    def test_unavailable_until_retries_run_out(self, http_server, monkeypatch):
        monkeypatch.setenv("FRED_API_KEY", "k")
        http_server.replies += [Reply(503, b"down")] * 5
        with pytest.raises(UpstreamError) as err:
            self._fetch(http_server)
        assert err.value.status == 503
        assert len(http_server.received) == 5

    def test_timeout_and_refused_connection_are_transport_errors(self, http_server, monkeypatch):
        http_server.replies.append(Reply(200, b"late", delay=1.0))
        monkeypatch.setattr(sources, "REQUEST_TIMEOUT", 0.1)
        with pytest.raises(TransportError, match="timed out"):
            LocalLive(http_server.url).send(build_fred_request(UNRATE.payload, api_key=None))
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            closed_port = sock.getsockname()[1]
        request = build_fred_request(UNRATE.payload, api_key="k3y")
        with pytest.raises(TransportError) as err:
            LocalLive(f"http://127.0.0.1:{closed_port}").send(request)
        assert "k3y" not in str(err.value)

    def test_body_decoded_with_declared_charset(self, http_server):
        http_server.replies += [
            Reply(200, "Zürich café".encode("latin-1"), "text/plain; charset=latin-1"),
            Reply(200, "Zürich café".encode("utf-8"), "text/plain"),
            Reply(200, "Zürich café".encode("utf-8"), "text/plain; charset=no-such-codec"),
        ]
        request = build_fred_request(UNRATE.payload, api_key=None)
        transport = LocalLive(http_server.url)
        for _ in range(3):
            assert transport.send(request) == Response(200, "Zürich café")


class TestConnectors:
    def test_fred_unrate_fixture(self, demo_fixture_root):
        transport = ReplayTransport(demo_fixture_root)
        clock = VirtualClock()
        series = fetch(demo.UNRATE_QUERY, transport, pacer=RequestPacer(clock))
        assert len(series) == 1
        s = series[0]
        assert s.timestamps[0] == date(2007, 1, 1)
        assert s.timestamps[1] == date(2007, 2, 1)  # monthly grid
        assert len(s) == 73
        assert s.stage is Stage.ORIGINAL
        assert s.source is Source.FRED
        assert "Great Recession" in s.comment
        assert s.id.startswith("fred-UNRATE-2007-01-01")

    def test_fred_missing_values_dropped(self):
        dates = demo.month_starts(date(2010, 1, 1), 12)
        body = demo.fred_body(dates, [1.0] * 12, missing_every=4)
        payload = FredQuery("X", date(2010, 1, 1), date(2011, 1, 1))
        series = fred_response_to_series(payload, "", body)
        assert len(series[0]) == 9

    def test_eia_pagination_and_grouping(self, demo_fixture_root):
        queries = load_queries(demo_fixture_root / "connector_queries.json")
        eia_query = next(q for q in queries if q.source is Source.EIA)
        transport = ReplayTransport(demo_fixture_root)
        clock = VirtualClock()
        series = fetch(eia_query, transport, pacer=RequestPacer(clock))
        assert len(series) == 1
        s = series[0]
        assert len(s) == 180  # both pages, resorted ascending
        assert s.timestamps[0] == date(2017, 9, 1)
        assert "PJM" in s.id
        # two scripted pages were fetched
        assert len(list((demo_fixture_root / "eia").glob("*.http"))) == 2

    def test_eia_pages_shorter_than_length_advance_by_the_rows_received(self):
        rows = [{"period": (date(2020, 1, 1) + timedelta(days=i)).isoformat(),
                 "respondent": "PJM", "value": float(i)} for i in range(180)]
        offsets = []

        class CappedTransport:  # serves at most 60 rows whatever the length asked
            mode = "replay"

            def send(self, request):
                offsets.append(offset := int(dict(request.params)["offset"]))
                return Response(200, demo.eia_body(rows[offset:offset + 60], total=len(rows)))

        payload = EiaQuery("electricity/rto/daily-region-data/data", (("length", "100"),))
        [series] = fetch(SourceQuery(Source.EIA, payload), CappedTransport())
        assert offsets == [0, 60, 120]
        assert series.values.tolist() == list(map(float, range(180)))

    def test_eia_total_beyond_the_page_cap_fails_the_query(self):
        rows = [{"period": (date(2000, 1, 1) + timedelta(days=i)).isoformat(),
                 "respondent": "PJM", "value": float(i)} for i in range(7000)]
        offsets = []

        class CappedTransport:  # serves at most 60 rows whatever the length asked
            mode = "replay"

            def send(self, request):
                offsets.append(offset := int(dict(request.params)["offset"]))
                return Response(200, demo.eia_body(rows[offset:offset + 60], total=len(rows)))

        route = "electricity/rto/daily-region-data/data"
        query = SourceQuery(Source.EIA, EiaQuery(route, (("length", "100"),)))
        collected, failures = fetch_all([query], CappedTransport())
        assert len(offsets) == 100
        assert collected == []
        assert failures == [(query, f"TruncatedResultError: EIA {route}: reported 7000 rows, "
                                    "received 6000 in 100 pages")]

    def test_eia_multiple_groups(self):
        rows = []
        for i in range(4):
            for kind in ("D", "NG"):
                rows.append({"period": f"2020-01-{i + 1:02d}", "respondent": "PJM",
                             "type": kind, "value": float(i)})
        payload = EiaQuery("electricity/rto/daily-region-data/data", (("frequency", "daily"),))
        series = eia_rows_to_series(payload, "", rows)
        assert len(series) == 2
        assert all(len(s) == 4 for s in series)

    def test_eia_duplicate_period_rejected(self):
        rows = [
            {"period": "2020-01-01", "respondent": "PJM", "value": 1.0},
            {"period": "2020-01-01", "respondent": "PJM", "value": 2.0},
            {"period": "2020-01-02", "respondent": "PJM", "value": 2.0},
        ]
        payload = EiaQuery("r/data", ())
        with pytest.raises(ParseError):
            eia_rows_to_series(payload, "", rows)

    @pytest.mark.parametrize("source", ["fred", "eia", "yahoo", "trends"])
    def test_one_non_finite_value_is_parse_error(self, source):
        days = demo.month_starts(date(2010, 1, 1), 6)
        start, end = days[0], days[-1]
        parse = {
            "fred": lambda: fred_response_to_series(
                FredQuery("X", start, end), "",
                demo.fred_body(days, [1.0, 2.0, float("inf"), 4.0, 5.0, 6.0]),
            ),
            "eia": lambda: eia_rows_to_series(
                EiaQuery("r/data", ()), "",
                [{"period": d.isoformat(), "respondent": "PJM",
                  "value": "nan" if i == 2 else float(i)} for i, d in enumerate(days)],
            ),
            "yahoo": lambda: yahoo_response_to_series(
                YahooQuery("X", start, end), "",
                demo.yahoo_body(days, [1.0, 2.0, float("nan"), 4.0, 5.0, 6.0]),
            ),
            "trends": lambda: trends_response_to_series(
                TrendsQuery("x", start, end), "",
                demo.trends_body(days, [1, 2, float("nan"), 4, 5, 6]),
            ),
        }[source]
        with pytest.raises(ParseError):
            parse()

    def test_yahoo_fixture(self, demo_fixture_root):
        queries = load_queries(demo_fixture_root / "connector_queries.json")
        yq = next(q for q in queries if q.source is Source.YAHOO)
        transport = ReplayTransport(demo_fixture_root)
        clock = VirtualClock()
        series = fetch(yq, transport, pacer=RequestPacer(clock))
        assert len(series) == 1
        assert series[0].source is Source.YAHOO
        # one null close was dropped
        body = read_fixture(next((demo_fixture_root / "yahoo").glob("*.http"))).body
        n_raw = len(json.loads(body)["chart"]["result"][0]["timestamp"])
        assert len(series[0]) == n_raw - 1

    def test_trends_fixture(self, demo_fixture_root):
        queries = load_queries(demo_fixture_root / "connector_queries.json")
        tq = next(q for q in queries if q.source is Source.TRENDS)
        transport = ReplayTransport(demo_fixture_root)
        clock = VirtualClock()
        series = fetch(tq, transport, pacer=RequestPacer(clock))
        assert len(series) == 1
        assert len(series[0]) == 120
        assert series[0].source is Source.TRENDS

    def test_missing_fixture_raises(self, tmp_path):
        transport = ReplayTransport(tmp_path)
        clock = VirtualClock()
        with pytest.raises(FixtureMissingError):
            fetch(UNRATE, transport, pacer=RequestPacer(clock))

    def test_missing_fixture_message(self, tmp_path, monkeypatch):
        request = build_fred_request(UNRATE.payload, api_key=None)
        path = tmp_path / "fred" / f"{canonical_request_key(request)}.http"
        expected = f"no fixture {path} for {FRED_URL}"
        checked, exists = [], type(path).exists
        monkeypatch.setattr(type(path), "exists",
                            lambda self, *args: checked.append(self) or exists(self, *args))
        with pytest.raises(FixtureMissingError) as err:
            ReplayTransport(tmp_path).send(request)
        assert str(err.value) == expected
        assert checked == []  # the one open is the existence check
        (tmp_path / "fred").write_text("a file where the source directory belongs")
        with pytest.raises(FixtureMissingError) as err:
            ReplayTransport(tmp_path).send(request)
        assert str(err.value) == expected

    def test_fixture_not_utf8_is_unreadable(self, tmp_path):
        request = build_fred_request(UNRATE.payload, api_key=None)
        path = write_fixture(tmp_path, request, Response(200, fred_ok_body()))
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(FixtureMissingError, match=f"unreadable fixture {re.escape(str(path))}"):
            ReplayTransport(tmp_path).send(request)

    @pytest.mark.parametrize("content", [
        b'{"status": 200}',  # no newline
        b'{not json\n{}',
        b'[200]\n{}',  # a header that is not an object
        b'{"request": {}}\n{}',  # no status
        b'{"status": "200"}\n{}',
        b'{"status": true}\n{}',
        b'{"status": 200.0}\n{}',
    ])
    def test_malformed_fixture_is_unreadable(self, tmp_path, content):
        request = build_fred_request(UNRATE.payload, api_key=None)
        path = write_fixture(tmp_path, request, Response(200, fred_ok_body()))
        path.write_bytes(content)
        with pytest.raises(FixtureMissingError, match=f"unreadable fixture {re.escape(str(path))}"):
            ReplayTransport(tmp_path).send(request)

    def test_record_then_replay_roundtrip(self, tmp_path):
        request = build_fred_request(UNRATE.payload, api_key="secret")
        response = Response(200, fred_ok_body())
        write_fixture(tmp_path, request, response)
        stored = next((tmp_path / "fred").glob("*.http")).read_bytes().decode("utf-8")
        assert "secret" not in stored  # credentials redacted
        # replay finds it regardless of the key used to build the request
        replay = ReplayTransport(tmp_path)
        again = replay.send(build_fred_request(UNRATE.payload, api_key=None))
        assert again == response

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(request=REQUESTS, response=RESPONSES)
    def test_write_then_replay_gives_back_the_response(self, tmp_path_factory, request, response):
        root = tmp_path_factory.mktemp("fixtures")
        write_fixture(root, request, response)
        assert ReplayTransport(root).send(request) == response

    def test_empty_observations(self):
        payload = FredQuery("X", date(2010, 1, 1), date(2011, 1, 1))
        body = json.dumps({"observations": []})
        with pytest.raises(EmptyResultError):
            fred_response_to_series(payload, "", body)

    def test_fetch_all_tallies_failures(self, demo_fixture_root):
        bad = SourceQuery(Source.FRED, FredQuery("NOPE", date(2010, 1, 1), date(2011, 1, 1)))
        transport = ReplayTransport(demo_fixture_root)
        clock = VirtualClock()
        with pytest.raises(FixtureMissingError):
            fetch_all([demo.UNRATE_QUERY, bad], transport, pacer=RequestPacer(clock))
        # upstream failures, by contrast, are tallied
        scripted = ScriptedTransport(
            [Response(200, fred_ok_body()), Response(404, "")], VirtualClock()
        )
        scripted.clock = clock = VirtualClock()
        collected, failures = fetch_all([demo.UNRATE_QUERY, bad], scripted,
                                        pacer=RequestPacer(clock))
        assert len(collected) == 1 and len(failures) == 1


class TestQueryFile:
    def test_roundtrip(self, tmp_path):
        queries = [
            UNRATE,
            SourceQuery(Source.YAHOO, YahooQuery("SPY", date(2020, 1, 1), date(2020, 6, 1))),
            SourceQuery(Source.TRENDS, TrendsQuery("flu", date(2019, 1, 1), date(2020, 1, 1), geo="US")),
            SourceQuery(Source.EIA, EiaQuery("electricity/rto/daily-region-data/data",
                                             (("frequency", "daily"), ("length", "5000")))),
        ]
        path = save_queries(queries, tmp_path / "q.json")
        assert load_queries(path) == queries
        raw = json.loads(path.read_text())
        assert set(raw[0]) == {"source", "series_id", "start_date", "end_date", "comment"}

    def test_invalid_entry_raises(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps([{"series_id": "X", "start_date": "2020-01-01"}]))
        with pytest.raises(Exception):
            load_queries(path, default_source=Source.FRED)


# --- parser fuzz: valid series or a parse-family error, never junk ------------


def _mutate(body: str, rng: np.random.Generator) -> str:
    choice = rng.integers(0, 8)
    if choice == 0:
        return body[: rng.integers(0, len(body))]
    if choice == 1:
        return body.replace('"value"', '"wert"', 1)
    if choice == 2:
        return body.replace('"date"', '"when"')
    if choice == 3:
        return body.replace(":", ";", 1)
    if choice == 4:
        i = int(rng.integers(0, max(1, len(body) - 1)))
        return body[:i] + chr(int(rng.integers(32, 127))) + body[i + 1 :]
    if choice == 5:
        return body.replace('"4', '"NaN#', 2)
    if choice == 6:
        return "null"
    return body  # unchanged: must parse


@pytest.mark.parametrize("source", ["fred", "eia", "yahoo", "trends"])
def test_parser_fuzz_never_emits_invalid_series(source, demo_fixture_root):
    fixture_dir = demo_fixture_root / source
    bodies = [read_fixture(p).body for p in sorted(fixture_dir.glob("*.http"))]
    queries = load_queries(demo_fixture_root / "connector_queries.json")
    query = next(q for q in queries if q.source.value == source)
    rng = np.random.default_rng(zlib.crc32(source.encode()))

    checked = 0
    for _ in range(150):
        body = _mutate(bodies[0], rng)
        try:
            if source == "fred":
                series = fred_response_to_series(query.payload, "", body)
            elif source == "eia":
                _, rows = eia_rows(body)
                series = eia_rows_to_series(query.payload, "", rows)
            elif source == "yahoo":
                series = yahoo_response_to_series(query.payload, "", body)
            else:
                series = trends_response_to_series(query.payload, "", body)
        except (ParseError, EmptyResultError):
            checked += 1
            continue
        for s in series:
            assert len(s.timestamps) == len(s.values) >= 2
            assert all(b > a for a, b in zip(s.timestamps, s.timestamps[1:]))
            assert all(v == v and abs(v) != float("inf") for v in s.values)
        checked += 1
    assert checked == 150


def test_request_key_excludes_credentials():
    with_key = build_fred_request(UNRATE.payload, api_key="abc")
    without = build_fred_request(UNRATE.payload, api_key=None)
    assert canonical_request_key(with_key) == canonical_request_key(without)


def test_completion_key_is_the_prompts_sha256_in_every_mode(monkeypatch):
    """A completion is keyed by its prompt alone, not by the endpoint, the model
    or the key, so a recording replays with no LLM_* variable set."""
    prompt = "Let's focus on FRED. Ölpreis"
    replay = build_completion_request(prompt, "replay")
    monkeypatch.setenv("LLM_ENDPOINT", "https://llm.test/v1/chat/completions")
    monkeypatch.setenv("LLM_MODEL", "m1")
    monkeypatch.setenv("LLM_API_KEY", "s3cret")
    live = build_completion_request(prompt, "live")
    assert (replay.url, live.url) == ("", "https://llm.test/v1/chat/completions")
    assert ("Authorization", "Bearer s3cret") in live.headers
    expected = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    assert canonical_request_key(replay) == canonical_request_key(live) == expected
    assert len({replay, live}) == 2  # hashable: the traced bench keeps a set of requests


def test_live_transport_waits_longer_for_a_completion(monkeypatch):
    waits = []

    def urlopen(request, timeout):
        waits.append(timeout)
        raise OSError("refused")

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    monkeypatch.setenv("LLM_ENDPOINT", "https://llm.test/v1/chat/completions")
    monkeypatch.setenv("LLM_MODEL", "m1")
    for request in (build_fred_request(UNRATE.payload, api_key=None),
                    build_completion_request("p", "live")):
        with pytest.raises(TransportError, match="refused"):
            LiveTransport().send(request)
    assert waits == [30.0, 120.0]


# --- replay compatibility: fixture keys and query files are pinned -------------

GOLDEN_FRED = FredQuery("UNRATE", date(2007, 1, 1), date(2013, 1, 1))
GOLDEN_EIA = EiaQuery(
    "electricity/rto/daily-region-data/data",
    (("frequency", "daily"), ("facets[respondent][]", "PJM"), ("length", "5000")),
)
GOLDEN_YAHOO = YahooQuery("SPY", date(2019, 6, 3), date(2021, 6, 1), Interval.WEEKLY)
GOLDEN_TRENDS_GEO = TrendsQuery("flu symptoms", date(2019, 1, 1), date(2021, 1, 1), geo="US")
GOLDEN_TRENDS = TrendsQuery("flu symptoms", date(2019, 1, 1), date(2021, 1, 1))


@pytest.mark.parametrize("request_, key", [
    (build_fred_request(GOLDEN_FRED, api_key="secret"), "1b0b2f8a6834e5374774c979a9d78e37"),
    (build_fred_request(GOLDEN_FRED, api_key=None), "1b0b2f8a6834e5374774c979a9d78e37"),
    (build_eia_request(GOLDEN_EIA, api_key=None, offset=0), "1a0f01d438ee8ba9ee21a19ce752350d"),
    (build_eia_request(GOLDEN_EIA, api_key="secret", offset=1000),
     "85f43c4f9de43b114d20cf071fd4986a"),
    (build_yahoo_request(GOLDEN_YAHOO), "cdde4c447da15f9a7ef3041f31bd8165"),
    (build_trends_request(GOLDEN_TRENDS_GEO), "1dcad88b2d9742e90a11dd5546c20ab4"),
    (build_trends_request(GOLDEN_TRENDS), "2642b89217cc1c7b6ae35a3071e699e4"),
], ids=["fred-key", "fred", "eia-0", "eia-1000", "yahoo-weekly", "trends-geo", "trends"])
def test_fixture_keys_pinned(request_, key):
    assert canonical_request_key(request_) == key


def test_query_file_bytes_pinned(tmp_path):
    queries = [
        SourceQuery(Source.FRED, GOLDEN_FRED, "recession"),
        SourceQuery(Source.EIA, GOLDEN_EIA, "hurricane"),
        SourceQuery(Source.YAHOO, GOLDEN_YAHOO, "covid crash"),
        SourceQuery(Source.TRENDS, GOLDEN_TRENDS_GEO, "pandemic"),
        SourceQuery(Source.TRENDS, GOLDEN_TRENDS),
    ]
    path = save_queries(queries, tmp_path / "q.json")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "301c710b4c8fc1f71a12d57066126e7fa4c680e11958e757aa52cec3f329e107"


GOLDEN_QUERIES = [
    SourceQuery(Source.FRED, GOLDEN_FRED, "recession"),
    SourceQuery(Source.EIA, GOLDEN_EIA, "hurricane"),
    SourceQuery(Source.YAHOO, GOLDEN_YAHOO, "covid crash"),
    SourceQuery(Source.TRENDS, GOLDEN_TRENDS_GEO, "pandemic"),
    SourceQuery(Source.TRENDS, GOLDEN_TRENDS),
]


def _ranged(source, payload_type, ids, *rest):
    """Queries of ``source`` whose payload is ``payload_type(id, start, end, *rest)``."""
    spans = st.lists(st.dates(), min_size=2, max_size=2, unique=True).map(sorted)
    return st.builds(
        lambda id_, span, comment, *more: SourceQuery(source, payload_type(id_, *span, *more),
                                                      comment),
        ids, spans, TEXT, *rest,
    )


# Identifiers, keys and values are any text the checks accept: spaces, brackets,
# non-ASCII, and EIA parameter names the request builder also sets.
EIA_KEYS = st.one_of(
    st.sampled_from(["offset", "length", "data[0]", "facets[respondent][]", " ", "ключ"]),
    TEXT.filter(bool),
)
ANY_QUERY = st.one_of(
    st.sampled_from(GOLDEN_QUERIES),
    _ranged(Source.FRED, FredQuery, st.from_regex(r"[A-Z0-9_]+", fullmatch=True)),
    st.builds(
        lambda route, params, comment: SourceQuery(
            Source.EIA, EiaQuery(route, tuple(params.items())), comment),
        TEXT.filter(lambda r: r and not r.startswith("/") and "://" not in r),
        st.dictionaries(EIA_KEYS, TEXT, max_size=4),
        TEXT,
    ),
    _ranged(Source.YAHOO, YahooQuery, TEXT.filter(bool), st.sampled_from(Interval)),
    _ranged(Source.TRENDS, TrendsQuery, TEXT.filter(bool), st.sampled_from([None, "", "US"])),
)


class TestConnectorTable:
    def test_one_connector_per_source(self):
        assert set(CONNECTORS) == {s for s in Source if s is not Source.SYNTHETIC}
        payload_types = [c.payload_type for c in CONNECTORS.values()]
        assert len(set(payload_types)) == len(payload_types)

    @settings(max_examples=300, deadline=None)
    @given(ANY_QUERY)
    def test_raw_round_trip(self, query):
        raw = query_to_raw(query)
        again = query_from_raw(raw, query.source)
        if query.source is Source.TRENDS:  # an empty geo is written, and read back, as none
            query = dataclasses.replace(
                query, payload=dataclasses.replace(query.payload, geo=query.payload.geo or None)
            )
        assert again == query
        assert query_to_raw(again) == raw
        assert set(raw) <= known_fields(query.source)

    @pytest.mark.parametrize("raw, geo", [
        ({"timeframe": "2020-01-01 2021-01-01", "geo": ""}, None),
        ({"start_date": "2020-01-01", "end_date": "2021-01-01", "geo": None}, None),
        ({"timeframe": "2020-01-01 2021-01-01", "start_date": "1999-01-01",
          "end_date": "1999-02-01", "geo": "US"}, "US"),
    ])
    def test_trends_binds_timeframe_first_and_empty_geo_as_none(self, raw, geo):
        query = query_from_raw({"keyword": "flu", **raw}, Source.TRENDS)
        assert query.payload == TrendsQuery("flu", date(2020, 1, 1), date(2021, 1, 1), geo)

    @pytest.mark.parametrize("raw, source, reason", [
        ({"start_date": "2020-01-01", "end_date": "2021-01-01", "interval": "hourly"},
         Source.YAHOO, "missing field ticker"),
        ({"params": ["a"]}, Source.EIA, "missing field api_route"),
    ])
    def test_first_fault_follows_field_order(self, raw, source, reason):
        with pytest.raises(QueryFieldError, match=f"^{reason}$"):
            query_from_raw(raw, source)

    @pytest.mark.parametrize("raw, source", [
        ({"series_id": "X", "start_date": "2020-01-01"}, Source.FRED),
        ({"series_id": "X", "start_date": "2021-01-01", "end_date": "2020-01-01"}, Source.FRED),
        ({"series_id": "un rate", "start_date": "2020-01-01", "end_date": "2021-01-01"},
         Source.FRED),
        ({"series_id": "", "start_date": "2020-01-01", "end_date": "2020-01-01"}, Source.FRED),
        ({"api_route": "r/data", "params": ["a", "b"]}, Source.EIA),
        ({"api_route": "/abs/data", "params": {"": "1"}}, Source.EIA),
        ({"ticker": "SPY", "start_date": "2020-01-01", "end_date": "2021-01-01",
          "interval": "hourly"}, Source.YAHOO),
        ({"keyword": "flu", "timeframe": "2020-01-01"}, Source.TRENDS),
        ({"keyword": "", "timeframe": "2020-01-01 2021-01-01"}, Source.TRENDS),
        ({"ticker": "SPY", "end_date": "2021-01-01"}, Source.YAHOO),
        ({"keyword": "flu", "start_date": "2020-01-01"}, Source.TRENDS),
        ({"series_id": "X", "start_date": "01/02/2020", "end_date": "2021-01-01"}, Source.FRED),
        ({"api_route": "r/data", "params": "frequency=daily"}, Source.EIA),
        ({"api_route": "r/data", "params": None}, Source.EIA),
        ({"keyword": "flu", "timeframe": "2020-01-01 to 2021-01-01"}, Source.TRENDS),
        ({"keyword": "flu", "timeframe": "2020-13-01 2021-01-01"}, Source.TRENDS),
        ({"keyword": "flu", "timeframe": "today 12-m"}, Source.TRENDS),
        ({"ticker": "SPY", "interval": "hourly"}, Source.YAHOO),
        ({"params": {"a": "1"}}, Source.EIA),
        # only YYYY-MM-DD binds, as on every supported Python: not the basic or week form
        ({"ticker": "SPY", "start_date": 20200101, "end_date": "2021-01-01"}, Source.YAHOO),
        ({"ticker": "SPY", "start_date": "20200101", "end_date": "2021-01-01"}, Source.YAHOO),
        ({"series_id": "X", "start_date": "2020-W01-1", "end_date": "2021-01-01"}, Source.FRED),
        ({"keyword": "flu", "timeframe": "20200101 2021-01-01"}, Source.TRENDS),
    ])
    def test_load_and_bind_reject_with_same_reason(self, raw, source, tmp_path):
        from shiftminer.querygen import bind_queries

        accepted, rejected = bind_queries([raw], source)
        assert not accepted
        path = tmp_path / "q.json"
        path.write_text(json.dumps([raw]))
        with pytest.raises(QueryFieldError) as err:
            load_queries(path, default_source=source)
        assert str(err.value) == f"{path}[0]: {rejected[0][1]}"

    def test_dedup_ignores_param_order_comment_and_empty_geo(self):
        start, end = date(2020, 1, 1), date(2021, 1, 1)
        a = SourceQuery(Source.EIA, EiaQuery("r/data", (("a", "1"), ("b", "2"))), "one")
        b = SourceQuery(Source.EIA, EiaQuery("r/data", (("b", "2"), ("a", "1"))), "two")
        c = SourceQuery(Source.TRENDS, TrendsQuery("flu", start, end, geo=None))
        d = SourceQuery(Source.TRENDS, TrendsQuery("flu", start, end, geo=""))
        e = SourceQuery(Source.TRENDS, TrendsQuery("flu", start, end, geo="US"))
        assert dedup_queries([a, b, c, d, e]) == [a, c, e]
