from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from datetime import date, timedelta
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest

from shiftminer.series import Source, Stage, TimeSeries
from shiftminer.sources import LiveTransport, Request, Response


def make_series(
    values,
    *,
    sid: str = "test",
    source: Source = Source.SYNTHETIC,
    stage: Stage = Stage.ORIGINAL,
    start: date = date(2020, 1, 1),
    provenance=None,
    comment: str = "",
) -> TimeSeries:
    stamps = tuple(start + timedelta(days=i) for i in range(len(values)))
    return TimeSeries(
        id=sid,
        source=source,
        timestamps=stamps,
        values=tuple(float(v) for v in values),
        stage=stage,
        provenance=provenance,
        comment=comment,
    )


def step_values(n: int = 100, shift: float = 5.0, noise: float = 0.0, seed: int = 0):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, noise, n) if noise else np.zeros(n)
    values[n // 2 :] += shift
    return values


class VirtualClock:
    """Deterministic clock: ``sleep`` advances time instantly."""

    def __init__(self) -> None:
        self.time = 0.0
        self.sleeps: list[float] = []

    def now(self) -> float:
        return self.time

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.time += seconds


class ScriptedTransport:
    """Feeds a fixed response sequence and records request times."""

    mode = "replay"

    def __init__(self, responses, clock: VirtualClock | None = None) -> None:
        self._responses = list(responses)
        self.clock = clock
        self.calls: list[tuple[Request, float]] = []

    def send(self, request: Request) -> Response:
        when = self.clock.now() if self.clock else 0.0
        self.calls.append((request, when))
        if not self._responses:
            raise AssertionError("scripted transport ran out of responses")
        item = self._responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class LocalLive(LiveTransport):
    """The live transport with each request sent to a local server, same path."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url

    def send(self, request):
        url = self.base_url + urlsplit(request.url).path
        return super().send(dataclasses.replace(request, url=url))


@dataclass(frozen=True)
class Reply:
    """One scripted answer of the local HTTP server."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    delay: float = 0.0


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        self.server.received.append((self.command, self.path, self.headers, self.rfile.read(length)))
        reply = self.server.replies.pop(0)
        time.sleep(reply.delay)
        try:
            self.send_response(reply.status)
            self.send_header("Content-Type", reply.content_type)
            self.send_header("Content-Length", str(len(reply.body)))
            self.end_headers()
            self.wfile.write(reply.body)
        except OSError:  # the client stopped waiting
            pass

    do_POST = do_GET

    def log_message(self, format, *args) -> None:
        pass


@pytest.fixture
def http_server():
    """HTTP server on 127.0.0.1 that answers with ``server.replies`` in order.

    ``server.url`` is its base URL; ``server.received`` collects each
    request as (method, path with query, headers, body bytes).
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.replies, server.received = [], []
    server.url = f"http://127.0.0.1:{server.server_port}"
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture(scope="session")
def demo_fixture_root(tmp_path_factory) -> Path:
    """Fixture tree shared by connector and pipeline tests."""
    from shiftminer import demo

    root = tmp_path_factory.mktemp("fixtures")
    demo.build_connector_fixtures(root)
    return root


@pytest.fixture(scope="session")
def fred_corpus(tmp_path_factory) -> dict:
    """Full 241-series replay corpus plus its query file and config."""
    from shiftminer import demo

    root = tmp_path_factory.mktemp("fred_corpus")
    query_file = demo.build_fred_corpus(root, count=241, seed=20240704)
    return {"fixtures": root, "query_file": query_file}
