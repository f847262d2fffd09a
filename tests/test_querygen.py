from __future__ import annotations

import hashlib
import json
import logging
import re
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftminer.querygen import (
    DISCOVERY_TEMPLATE,
    MissingBindingError,
    NoQueriesFoundError,
    QUERY_TEMPLATE,
    bind_queries,
    discover_sources,
    extract_query_objects,
    generate_queries,
    parse_source_table,
    render_text,
    write_completion_fixture,
)
from shiftminer.series import Source
from shiftminer.sources import (
    AuthMissingError,
    EiaQuery,
    FixtureMissingError,
    FredQuery,
    ParseError,
    RecordTransport,
    ReplayTransport,
    RequestPacer,
    Response,
    UpstreamError,
    fetch_completion,
    read_fixture,
)

from conftest import LocalLive, Reply, ScriptedTransport, VirtualClock

# Two query objects in the shape a completion mixes them: a macro series
# pick and an energy API route, each with a one-line justification.
TWO_QUERY_TEXT = """Query example for FRED API:
{"series_id": "UNRATE", "start_date": "2007-01-01", "end_date": "2013-01-01", "comment": "Covers the Great Recession period, showcasing shifts in employment levels."}

Query example for EIA API:
{"api_route": "electricity/rto/daily-region-data/data", "params": {"frequency": "daily", "data[0]": "value", "facets[respondent][]": "PJM", "sort[0][column]": "period", "sort[0][direction]": "desc", "offset": 0, "length": 5000, "start": "2017-09-01", "end": "2018-02-28"}, "comment": "Hurricane Maria caused significant power disruption in the PJM region."}
"""


class TestRenderText:
    def test_query_template_binds_source_and_count(self):
        bindings = {"source_name": "FRED", "query_count": "50"}
        text = render_text(QUERY_TEMPLATE.followups[0], bindings)
        assert "50 queries for the FRED dataset" in text
        assert "{" not in text.replace("{}", "")

    def test_missing_binding(self):
        with pytest.raises(MissingBindingError):
            render_text(QUERY_TEMPLATE.followups[0], {"source_name": "FRED"})

    def test_unrelated_braces_preserved(self):
        out = render_text('emit {"a": 1} for {source_name}', {"source_name": "X"})
        assert out == 'emit {"a": 1} for X'


class TestExtract:
    def test_two_objects_from_prose(self):
        raw = extract_query_objects(TWO_QUERY_TEXT)
        assert len(raw) == 2
        assert raw[0]["series_id"] == "UNRATE"
        assert raw[1]["api_route"] == "electricity/rto/daily-region-data/data"
        assert raw[1]["params"]["facets[respondent][]"] == "PJM"

    def test_fenced_array_flattened(self):
        text = (
            "Here you go:\n```json\n"
            + json.dumps([{"series_id": f"S{i}"} for i in range(3)])
            + "\n```\nDone."
        )
        assert len(extract_query_objects(text)) == 3

    def test_fenced_blocks_take_priority(self):
        text = (
            "```json\n{\"series_id\": \"FIRST\"}\n```\n"
            "later prose mentions {\"series_id\": \"SECOND\"} inline"
        )
        raw = extract_query_objects(text)
        assert [r["series_id"] for r in raw] == ["FIRST", "SECOND"]

    def test_pure_prose_raises(self):
        with pytest.raises(NoQueriesFoundError):
            extract_query_objects("no structured content here, sorry")

    def test_broken_json_skipped(self):
        text = '{"series_id": unquoted} then {"series_id": "OK"}'
        raw = extract_query_objects(text)
        assert raw == [{"series_id": "OK"}]


class TestBind:
    def test_fred_object_accepted(self):
        raw = extract_query_objects(TWO_QUERY_TEXT)
        accepted, rejected = bind_queries([raw[0]], Source.FRED)
        assert not rejected
        q = accepted[0]
        assert q.payload == FredQuery("UNRATE", date(2007, 1, 1), date(2013, 1, 1))
        assert q.comment.startswith("Covers the Great Recession")

    def test_mixed_sources_inferred(self):
        raw = extract_query_objects(TWO_QUERY_TEXT)
        accepted, rejected = bind_queries(raw)
        assert not rejected
        assert [q.source for q in accepted] == [Source.FRED, Source.EIA]
        assert isinstance(accepted[1].payload, EiaQuery)
        assert accepted[1].payload.params_dict()["length"] == "5000"

    def test_missing_field_rejected_with_reason(self):
        accepted, rejected = bind_queries(
            [{"series_id": "X", "start_date": "2020-01-01"}], Source.FRED
        )
        assert not accepted
        assert rejected[0][1] == "missing field end_date"

    def test_start_after_end_rejected(self):
        accepted, rejected = bind_queries(
            [{"series_id": "X", "start_date": "2013-01-01", "end_date": "2007-01-01"}],
            Source.FRED,
        )
        assert not accepted
        assert "start after end" in rejected[0][1]

    def test_unknown_fields_ignored_with_warning(self, caplog):
        obj = {"series_id": "X", "start_date": "2020-01-01", "end_date": "2021-01-01",
               "confidence": 0.9}
        with caplog.at_level(logging.WARNING, logger="shiftminer.querygen"):
            accepted, rejected = bind_queries([obj], Source.FRED)
        assert len(accepted) == 1 and not rejected
        assert any("confidence" in r.message for r in caplog.records)

    def test_wrong_source_shape_rejected(self):
        accepted, rejected = bind_queries(
            [{"api_route": "r/data", "params": {}}], Source.FRED
        )
        assert not accepted and "identify eia" in rejected[0][1]

    @given(st.lists(
        st.dictionaries(
            st.sampled_from(["series_id", "start_date", "end_date", "comment", "junk"]),
            st.one_of(st.text(max_size=12), st.integers(), st.none()),
            max_size=5,
        ),
        max_size=8,
    ))
    @settings(max_examples=150, deadline=None)
    def test_partition_is_complete_and_valid(self, raw_objects):
        from shiftminer.sources import validate_query

        accepted, rejected = bind_queries(raw_objects, Source.FRED)
        assert len(accepted) + len(rejected) == len(raw_objects)
        for q in accepted:
            assert validate_query(q) == []


def chat_reply(content) -> str:
    """The body of a chat-completion reply whose first choice says ``content``."""
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})


class TestGenerate:
    def _replay_with(self, tmp_path, completions, query_count=50):
        """First-round prompt plus growing transcript, fixture per round."""
        bindings = {"source_name": "FRED", "query_count": str(query_count)}
        transcript = render_text(QUERY_TEMPLATE.body, bindings)
        followup = render_text(QUERY_TEMPLATE.followups[0], bindings)
        for i, completion in enumerate(completions):
            if i > 0:
                transcript += "\n\n" + followup
            write_completion_fixture(tmp_path / "llm", transcript, completion)
        return ReplayTransport(tmp_path)

    @staticmethod
    def _fred_objects(start, count):
        return json.dumps(
            [
                {
                    "series_id": f"SER{i:03d}",
                    "start_date": "2007-01-01",
                    "end_date": "2013-01-01",
                    "comment": f"window {i}",
                }
                for i in range(start, start + count)
            ]
        )

    def test_single_round_full_batch(self, tmp_path):
        completion = "```json\n" + self._fred_objects(0, 50) + "\n```"
        transport = self._replay_with(tmp_path, [completion])
        queries = generate_queries(Source.FRED, transport, query_count=50, max_rounds=2)
        assert len(queries) == 50

    def test_second_round_tops_up_and_caps(self, tmp_path):
        malformed = ', {"series_id": 1, "start_date": "nope"}' * 5
        first = "```json\n" + self._fred_objects(0, 30)[:-1] + malformed + "]\n```"
        second = "```json\n" + self._fred_objects(100, 25) + "\n```"
        transport = self._replay_with(tmp_path, [first, second])
        queries = generate_queries(Source.FRED, transport, query_count=50, max_rounds=2)
        assert len(queries) == 50
        ids = [q.payload.series_id for q in queries]
        assert ids[:30] == [f"SER{i:03d}" for i in range(30)]
        assert ids[30:] == [f"SER{i:03d}" for i in range(100, 120)]

    def test_duplicates_merged_across_rounds(self, tmp_path):
        first = "```json\n" + self._fred_objects(0, 10) + "\n```"
        transport = self._replay_with(tmp_path, [first, first.replace("window", "again")])
        queries = generate_queries(Source.FRED, transport, query_count=50, max_rounds=2)
        assert len(queries) == 10

    def test_missing_completion_fixture(self, tmp_path):
        transport = ReplayTransport(tmp_path)  # no fixtures at all
        prompt = render_text(QUERY_TEMPLATE.body, {"source_name": "FRED", "query_count": "5"})
        path = tmp_path / "llm" / f"{hashlib.sha256(prompt.encode()).hexdigest()}.http"
        with pytest.raises(FixtureMissingError, match=f"^no fixture {re.escape(str(path))} for llm$"):
            generate_queries(Source.FRED, transport, query_count=5, max_rounds=1)

    def test_no_queries_after_rounds(self, tmp_path):
        transport = self._replay_with(tmp_path, ["nothing useful", "still nothing"], query_count=5)
        with pytest.raises(NoQueriesFoundError):
            generate_queries(Source.FRED, transport, query_count=5, max_rounds=2)


class TestCatalog:
    LATEX = r"""Here are datasets:
\begin{tabular}{llllll}
\toprule
Domain & Name of dataset & Description & API & Link & Licence \\
\midrule
Economics & FRED & Macroeconomic series & Yes & https://fred.stlouisfed.org & Public \\
Energy & EIA Open Data & Electricity and fuels & yes & https://www.eia.gov/opendata & Public \\
Search & Google Trends & Search interest over time & No &  &  \\
\bottomrule
\end{tabular}"""

    MARKDOWN = """| Domain | Name | Description | API | Link | Licence |
|---|---|---|---|---|---|
| Finance | Yahoo Finance | Market quotes | Yes | https://finance.yahoo.com | ToS |
"""

    def test_latex_rows(self):
        entries = parse_source_table(self.LATEX)
        assert [e["name"] for e in entries] == ["FRED", "EIA Open Data", "Google Trends"]
        assert entries[0]["has_api"] is True
        assert entries[2]["has_api"] is False

    def test_markdown_rows(self):
        entries = parse_source_table(self.MARKDOWN)
        assert entries == [
            {
                "domain": "Finance",
                "name": "Yahoo Finance",
                "description": "Market quotes",
                "has_api": True,
                "link": "https://finance.yahoo.com",
                "license": "ToS",
            }
        ]

    def test_discover_via_replay(self, tmp_path):
        prompt = render_text(DISCOVERY_TEMPLATE.body, {})
        write_completion_fixture(tmp_path / "llm", prompt, self.LATEX)
        entries = discover_sources(ReplayTransport(tmp_path))
        assert len(entries) == 3

    def test_discover_two_rounds_keeps_the_first_of_a_name(self, tmp_path):
        first = render_text(DISCOVERY_TEMPLATE.body, {})
        write_completion_fixture(tmp_path / "llm", first, self.LATEX)
        again = ("| Economics | FRED | Another description | No | | |\n"
                 "| Finance | Yahoo Finance | Market quotes | Yes | | |\n")
        write_completion_fixture(tmp_path / "llm", first + "\n\n" + DISCOVERY_TEMPLATE.followups[0],
                                 again)
        entries = discover_sources(ReplayTransport(tmp_path), max_rounds=2)
        assert [e["name"] for e in entries] == [
            "FRED", "EIA Open Data", "Google Trends", "Yahoo Finance",
        ]
        assert entries[0]["description"] == "Macroeconomic series"
        assert entries[0]["has_api"] is True


def test_replay_deterministic(tmp_path):
    prompt = render_text(QUERY_TEMPLATE.body, {"source_name": "FRED", "query_count": "3"})
    write_completion_fixture(tmp_path / "llm", prompt, '{"series_id": "A", "start_date": "2020-01-01", "end_date": "2021-01-01"}')
    transport = ReplayTransport(tmp_path)
    first = generate_queries(Source.FRED, transport, query_count=3, max_rounds=1)
    second = generate_queries(Source.FRED, transport, query_count=3, max_rounds=1)
    assert first == second


def test_replay_returns_the_completion_as_recorded(tmp_path, monkeypatch):
    """A completion fixture is a chat reply of status 200 under ``llm/``, named by
    the prompt's sha256; replay reads no LLM_* variable, even when one is set."""
    completion = '```json\r\n[{"series_id": "A"}]\r\n```\r\nÖlpreis\r'
    path = write_completion_fixture(tmp_path / "llm", "a prompt", completion)
    assert path == tmp_path / "llm" / f"{hashlib.sha256(b'a prompt').hexdigest()}.http"
    assert read_fixture(path) == Response(200, json.dumps(
        {"choices": [{"message": {"content": completion}}]}))
    monkeypatch.setenv("LLM_ENDPOINT", "https://llm.test/v1")
    pacer = RequestPacer(VirtualClock())
    assert fetch_completion("a prompt", ReplayTransport(tmp_path), pacer) == completion
    with pytest.raises(FixtureMissingError, match=r"\.http for llm$"):
        fetch_completion("another prompt", ReplayTransport(tmp_path), pacer)


def test_a_completion_fixture_root_must_be_the_llm_directory(tmp_path):
    """The file goes into ``root``, never into a sibling ``llm/`` of it."""
    with pytest.raises(ValueError, match=r"directory named llm$"):
        write_completion_fixture(tmp_path / "fixtures", "a prompt", "text")
    assert list(tmp_path.iterdir()) == []


def test_a_recording_that_cannot_be_written_is_an_io_failure(tmp_path, monkeypatch):
    monkeypatch.setenv("LLM_ENDPOINT", "https://llm.test/v1/chat/completions")
    monkeypatch.setenv("LLM_MODEL", "m1")
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    live = ScriptedTransport([Response(200, chat_reply(TWO_QUERY_TEXT))])
    with pytest.raises(NotADirectoryError) as err:
        generate_queries(Source.FRED, RecordTransport(blocker, live), query_count=2, max_rounds=1)
    assert err.value.filename == str(blocker / "llm")


class TestLiveCompletion:
    """A completion sent to a chat endpoint through the live transport, with
    the data requests' retry schedule on a virtual clock."""

    @pytest.fixture
    def live(self, http_server, monkeypatch):
        monkeypatch.setenv("LLM_ENDPOINT", "https://llm.test/v1/chat/completions")
        monkeypatch.setenv("LLM_MODEL", "m1")
        monkeypatch.setenv("LLM_API_KEY", "s3cret")
        self.clock = VirtualClock()
        return LocalLive(http_server.url)

    def complete(self, transport, prompt="list queries"):
        return fetch_completion(prompt, transport, RequestPacer(self.clock))

    def test_chat_completion(self, live, http_server):
        http_server.replies.append(Reply(200, chat_reply(TWO_QUERY_TEXT).encode()))
        assert self.complete(live) == TWO_QUERY_TEXT
        method, path, headers, body = http_server.received[0]
        assert (method, path) == ("POST", "/v1/chat/completions")
        assert headers["Authorization"] == "Bearer s3cret"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {
            "model": "m1", "messages": [{"role": "user", "content": "list queries"}],
        }

    def test_no_authorization_without_key(self, live, http_server, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY")
        http_server.replies.append(Reply(200, chat_reply("ok").encode()))
        assert self.complete(live, "p") == "ok"
        assert "Authorization" not in http_server.received[0][2]

    @pytest.mark.parametrize("name", ["LLM_ENDPOINT", "LLM_MODEL"])
    def test_endpoint_and_model_are_required(self, live, http_server, monkeypatch, name):
        monkeypatch.delenv(name)
        with pytest.raises(AuthMissingError, match=f"{name} is required for live access"):
            self.complete(live)
        assert http_server.received == []

    def test_throttled_then_ok_retries(self, live, http_server):
        http_server.replies += [Reply(429), Reply(200, chat_reply("ok").encode())]
        assert self.complete(live) == "ok"
        assert len(http_server.received) == 2 and self.clock.sleeps == [1.0]

    def test_server_error_until_retries_run_out(self, live, http_server):
        http_server.replies += [Reply(500, b'{"error": "overloaded"}')] * 5
        with pytest.raises(UpstreamError) as err:
            self.complete(live)
        assert err.value.status == 500
        assert len(http_server.received) == 5 and self.clock.sleeps == [1.0, 2.0, 4.0, 8.0]

    @pytest.mark.parametrize("reply", [
        Reply(200, b'{"choices": [{"message": '),
        Reply(200, b'{"choices": []}'),
        Reply(200, b'{"choices": [{"message": {"content": null}}]}'),
    ], ids=["truncated", "no-choice", "null-content"])
    def test_a_reply_that_is_not_a_chat_completion(self, live, http_server, reply):
        http_server.replies.append(reply)
        with pytest.raises(ParseError, match="not a chat completion"):
            self.complete(live)
        assert len(http_server.received) == 1

    def test_recorded_without_the_key_and_replayed_without_the_endpoint(
        self, live, http_server, monkeypatch, tmp_path
    ):
        http_server.replies.append(Reply(200, chat_reply("Zürich ☃\r\n").encode()))
        assert self.complete(RecordTransport(tmp_path, live)) == "Zürich ☃\r\n"
        (fixture,) = (tmp_path / "llm").iterdir()
        assert "s3cret" not in fixture.read_text(encoding="utf-8")
        for name in ("LLM_ENDPOINT", "LLM_MODEL", "LLM_API_KEY"):
            monkeypatch.delenv(name)
        assert self.complete(ReplayTransport(tmp_path)) == "Zürich ☃\r\n"
