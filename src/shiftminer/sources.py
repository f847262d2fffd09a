"""Connectors for the four public data-source APIs, and the one way out to
the network for them and for LLM completions.

A :class:`SourceQuery` is a typed, validated request against one source.
Execution goes through an injected transport so every test (and any
offline run) can use recorded fixtures; live mode is the same code path
with an HTTP client behind it. Responses are normalized into
:class:`~shiftminer.series.TimeSeries` values at the original stage. A
completion is one more request, of source :data:`COMPLETION`, recorded,
replayed, retried and paced like the others.

Everything that differs between sources lives in :data:`CONNECTORS`,
one :class:`Connector` record per source.

Credentials come from the environment only (``FRED_API_KEY``,
``EIA_API_KEY``, ``LLM_API_KEY``); they are attached to live requests but
excluded from fixture keys and never written to fixture files.
"""

from __future__ import annotations

import enum
import hashlib
import json
import logging
import operator
import os
import re
import time
import urllib.parse
from dataclasses import MISSING, dataclass, fields
from datetime import date, datetime, timezone
from itertools import compress, repeat
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from .series import DAY, Source, Stage, TimeSeries, iso_dates, make_series_id
from .storage import read_file, write_document

logger = logging.getLogger(__name__)

FRED_OBSERVATIONS_URL = "https://api.stlouisfed.org/fred/series/observations"
EIA_BASE_URL = "https://api.eia.gov/v2"
YAHOO_CHART_URL = "https://query1.finance.yahoo.com/v8/finance/chart"
TRENDS_URL = "https://trends.google.com/trends/api/widgetdata/multiline"

EIA_DEFAULT_PAGE = 5000
EIA_MAX_PAGES = 100

# one retry schedule for every source: up to MAX_ATTEMPTS sends, BASE_DELAY
# seconds of backoff after the first failure, doubling after each later one,
# and requests to one source at least MIN_REQUEST_INTERVAL seconds apart
MAX_ATTEMPTS = 5
BASE_DELAY = 1.0
MIN_REQUEST_INTERVAL = 0.5

# the source of a completion request, and the seconds a live request waits
# for its reply: a completion is generated while the client waits
COMPLETION = "llm"
REQUEST_TIMEOUT = 30.0
COMPLETION_TIMEOUT = 120.0

_FRED_ID_RE = re.compile(r"^[A-Z0-9_]+$")


class AuthMissingError(Exception):
    """A credential required for live access is absent from the environment."""


class RateLimitedError(Exception):
    """Still throttled after exhausting retries."""


class UpstreamError(Exception):
    """The API returned a non-retryable failure (or retries ran out)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ParseError(Exception):
    """Response body could not be turned into valid series."""


class EmptyResultError(Exception):
    """The API answered but carried no usable observations."""


class TransportError(Exception):
    """Retryable transport-level failure (connection reset, timeout)."""


class TruncatedResultError(Exception):
    """More rows than :data:`EIA_MAX_PAGES` pages hold; split the query by date."""


class FixtureMissingError(Exception):
    """Replay transport has no readable recording for this request."""


class QueryFieldError(ValueError):
    """A raw query object is missing or misusing a field."""


class Interval(enum.Enum):
    DAILY = "daily"
    WEEKLY = "weekly"


# --- query payloads -------------------------------------------------------


@dataclass(frozen=True)
class FredQuery:
    series_id: str
    start_date: date
    end_date: date


@dataclass(frozen=True)
class EiaQuery:
    api_route: str
    params: tuple[tuple[str, str], ...]

    def params_dict(self) -> dict[str, str]:
        return dict(self.params)


@dataclass(frozen=True)
class YahooQuery:
    ticker: str
    start_date: date
    end_date: date
    interval: Interval = Interval.DAILY


@dataclass(frozen=True)
class TrendsQuery:
    keyword: str
    start_date: date
    end_date: date
    geo: str | None = None


Payload = FredQuery | EiaQuery | YahooQuery | TrendsQuery


@dataclass(frozen=True)
class SourceQuery:
    """One validated request against one source, plus its justification."""

    source: Source
    payload: Payload
    comment: str = ""

    def __post_init__(self) -> None:
        connector = CONNECTORS.get(self.source)
        if connector is None or not isinstance(self.payload, connector.payload_type):
            raise QueryFieldError(
                f"payload {type(self.payload).__name__} does not match source {self.source.value}"
            )


# --- validation and dedup -------------------------------------------------


def validate_query(query: SourceQuery) -> list[str]:
    """Structured validation; returns reasons, empty when the query is fine."""
    payload = query.payload
    connector = CONNECTORS[query.source]
    reasons = [] if getattr(payload, connector.id_field) else ["empty identifier"]
    reasons.extend(connector.check(payload))
    if hasattr(payload, "start_date") and payload.start_date >= payload.end_date:
        reasons.append(
            "start after end" if payload.start_date > payload.end_date else "start equals end"
        )
    return reasons


def canonical_query_key(query: SourceQuery) -> str:
    """Dedup key: the query-file object with its comment removed."""
    raw = query_to_raw(query)
    del raw["comment"]
    return json.dumps(raw, sort_keys=True)


def dedup_queries(queries: Sequence[SourceQuery]) -> list[SourceQuery]:
    """Drop queries whose canonical key repeats an earlier one; first wins."""
    seen: set[str] = set()
    out: list[SourceQuery] = []
    for q in queries:
        key = canonical_query_key(q)
        if key in seen:
            continue
        seen.add(key)
        out.append(q)
    return out


# --- raw object binding and query files -----------------------------------


def infer_source(raw: dict) -> Source | None:
    """The first source whose identifier field ``raw`` carries."""
    for source, connector in CONNECTORS.items():
        if connector.id_field in raw:
            return source
    return None


def known_fields(source: Source) -> set[str]:
    """Field names a raw query object for ``source`` may carry."""
    connector = CONNECTORS[source]
    payload_fields = {f.name for f in fields(connector.payload_type)}
    return payload_fields | set(connector.aliases) | {"comment", "source"}


def _require(raw: dict, key: str) -> object:
    if key not in raw:
        raise QueryFieldError(f"missing field {key}")
    return raw[key]


def _bind_field(raw: dict, name: str, annotation: str) -> object:
    """One payload field from a raw object, by its annotation (postponed: a string)."""
    value = _require(raw, name)
    if annotation == "date":  # a YYYY-MM-DD string
        try:
            return iso_dates([value])[0].item()
        except (TypeError, ValueError):
            raise QueryFieldError(f"field {name} is not an ISO date: {value!r}") from None
    if annotation == "Interval":
        try:
            return Interval(str(value))
        except ValueError as exc:
            raise QueryFieldError(f"unknown interval {str(value)!r}") from exc
    if annotation == "str | None":
        return str(value) if value else None
    if annotation.startswith("tuple"):
        if not isinstance(value, dict):
            raise QueryFieldError(f"field {name} must be an object")
        return tuple((str(k), str(v)) for k, v in value.items())
    return str(value)


def _field_to_raw(value: object) -> object:
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, enum.Enum):
        return value.value
    return dict(value) if isinstance(value, tuple) else value


def query_from_raw(raw: dict, source: Source) -> SourceQuery:
    """Bind and validate one raw JSON object by its payload type's fields (one
    with a default may be absent); raises :class:`QueryFieldError` with the
    reason for a missing, malformed or invalid field."""
    connector = CONNECTORS.get(source)
    if connector is None:
        raise QueryFieldError(f"source {source} does not accept queries")
    raw = connector.unalias(raw)
    bound = {f.name: _bind_field(raw, f.name, f.type) for f in fields(connector.payload_type)
             if f.name in raw or f.default is MISSING}
    query = SourceQuery(source, connector.payload_type(**bound), str(raw.get("comment", "")))
    reasons = validate_query(query)
    if reasons:
        raise QueryFieldError("; ".join(reasons))
    return query


def query_to_raw(query: SourceQuery) -> dict:
    """Serialize back to the JSON field spelling the binder accepts."""
    p = query.payload
    payload_raw = {f.name: _field_to_raw(getattr(p, f.name)) for f in fields(p)}
    return {"source": query.source.value, **CONNECTORS[query.source].alias(payload_raw),
            "comment": query.comment}


def save_queries(queries: Sequence[SourceQuery], path: str | Path) -> Path:
    return write_document(path, [query_to_raw(q) for q in queries], sort_keys=False)


def load_queries(path: str | Path, default_source: Source | None = None) -> list[SourceQuery]:
    """Strict loader for a query file; any invalid entry raises."""
    try:
        raw_list = json.loads(read_file(path))
    except json.JSONDecodeError as exc:
        raise QueryFieldError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw_list, list):
        raise QueryFieldError(f"{path}: expected a JSON array of query objects")
    out: list[SourceQuery] = []
    for i, raw in enumerate(raw_list):
        if not isinstance(raw, dict):
            raise QueryFieldError(f"{path}[{i}]: expected an object")
        try:
            source = Source(raw["source"]) if "source" in raw else infer_source(raw) or default_source
        except ValueError:
            raise QueryFieldError(f"{path}[{i}]: unknown source {raw['source']!r}") from None
        if source is None:
            raise QueryFieldError(f"{path}[{i}]: cannot determine source")
        try:
            out.append(query_from_raw(raw, source))
        except QueryFieldError as exc:
            raise QueryFieldError(f"{path}[{i}]: {exc}") from exc
    return out


# --- transport, clock, pacing ---------------------------------------------


@dataclass(frozen=True)
class Request:
    source: str
    method: str
    url: str
    params: tuple[tuple[str, str], ...]
    body: bytes = b""
    headers: tuple[tuple[str, str], ...] = ()

    @property
    def target(self) -> str:
        """The url, or the source of a completion replayed without an endpoint."""
        return self.url or self.source


@dataclass(frozen=True)
class Response:
    status: int
    body: str


def canonical_request_key(request: Request) -> str:
    """Fixture key: sha256 over method, url, and sorted params minus credentials;
    for a completion, the sha256 of its prompt alone, so that replay needs no
    endpoint or model."""
    if request.source == COMPLETION:
        prompt = json.loads(request.body)["messages"][0]["content"]
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    params = sorted((k, v) for k, v in request.params if k != "api_key")
    blob = json.dumps(
        {"method": request.method, "url": request.url, "params": params}, sort_keys=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class Transport(Protocol):
    mode: str

    def send(self, request: Request) -> Response: ...


class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class SystemClock:
    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class NullClock:
    """Advances instantly; pacing and backoff become no-ops.

    Used as the default for replay transports, where delays would only
    slow down reading local fixture files.
    """

    def __init__(self) -> None:
        self._time = 0.0

    def now(self) -> float:
        return self._time

    def sleep(self, seconds: float) -> None:
        self._time += seconds


class RequestPacer:
    """The clock of one collection and the time of its last request per source."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._last: dict[str, float] = {}

    def wait(self, source: str) -> None:
        """Sleep until :data:`MIN_REQUEST_INTERVAL` seconds have passed since
        the last request to ``source``, then record this one."""
        last = self._last.get(source)
        if last is not None and (remaining := last + MIN_REQUEST_INTERVAL - self.clock.now()) > 0:
            self.clock.sleep(remaining)
        self._last[source] = self.clock.now()


def _http_request(request: Request, timeout: float) -> Response:
    """One HTTP exchange. Every status, 429 and 5xx too, comes back as a
    :class:`Response` whose body is decoded with the declared charset (UTF-8
    when none is); a failed connection or a timeout raises :class:`TransportError`."""
    # imported here: replay runs, the usual case, never pay for the HTTP stack
    import http.client
    import urllib.error
    import urllib.request

    query = f"?{urllib.parse.urlencode(request.params)}" if request.params else ""
    headers = {"User-Agent": "shiftminer/0.1", **dict(request.headers)}
    outgoing = urllib.request.Request(request.url + query, data=request.body or None,
                                      headers=headers, method=request.method)
    try:
        try:
            reply = urllib.request.urlopen(outgoing, timeout=timeout)
        except urllib.error.HTTPError as exc:  # a status to report, not a failure
            reply = exc
        with reply:
            raw = reply.read()
    except (OSError, http.client.HTTPException) as exc:
        # the query string stays out of the message: it may carry an API key
        raise TransportError(f"{request.method} {request.url}: {exc}") from exc
    try:
        body = raw.decode(reply.headers.get_content_charset("utf-8"), errors="replace")
    except LookupError:  # a charset name Python does not know
        body = raw.decode("utf-8", errors="replace")
    return Response(status=reply.status, body=body)


class LiveTransport:
    """Real HTTP client; network errors surface as retryable failures. The
    one place that decides how long a request waits for its reply."""

    mode = "live"

    def send(self, request: Request) -> Response:
        timeout = COMPLETION_TIMEOUT if request.source == COMPLETION else REQUEST_TIMEOUT
        return _http_request(request, timeout)


class ReplayTransport:
    """Serves responses from ``<root>/<source>/<request hash>.http``."""

    mode = "replay"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def fixture_path(self, request: Request) -> Path:
        return self.root / request.source / f"{canonical_request_key(request)}.http"

    def send(self, request: Request) -> Response:
        path = self.fixture_path(request)
        try:  # one open: no existence check that the read could race
            return read_fixture(path)
        except (FileNotFoundError, NotADirectoryError):
            raise FixtureMissingError(f"no fixture {path} for {request.target}") from None


def read_fixture(path: str | Path) -> Response:
    """The response :func:`write_fixture` recorded at ``path``: a one-line JSON
    header holding the ``status``, a newline, then the body as received. The
    file is read as stored (:func:`~shiftminer.storage.read_file`), so a body's
    ``\\r\\n`` comes back as it was. Raises :class:`FixtureMissingError` for a
    file of any other shape and :class:`FileNotFoundError` for a missing one."""
    try:
        header, newline, body = read_file(path).partition("\n")
        if not newline:
            raise ValueError("no header line")
        status = json.loads(header)["status"]  # a header that is no object: TypeError
        if type(status) is not int:
            raise TypeError(f"status {status!r} is not an int")
    except (ValueError, LookupError, TypeError) as exc:
        raise FixtureMissingError(f"unreadable fixture {path}: {exc!r}") from exc
    return Response(status=status, body=body)


def write_fixture(root: str | Path, request: Request, response: Response) -> Path:
    """Record one request/response pair for :func:`read_fixture`; credentials
    are redacted. The header is dumped without indent, which escapes every
    newline in its strings, so it is always exactly the first line."""
    header = {
        "request": {
            "method": request.method,
            "url": request.url,
            "params": sorted((k, v) for k, v in request.params if k != "api_key"),
        },
        "status": response.status,
    }
    text = f"{json.dumps(header, sort_keys=True)}\n{response.body}"
    return write_document(ReplayTransport(root).fixture_path(request), text)


class RecordTransport:
    """Pass-through transport that records every response it gets, 429 and
    5xx too. A retried request's fixture holds its last attempt."""

    mode = "record"

    def __init__(self, root: str | Path, inner: Transport | None = None) -> None:
        self.root = Path(root)
        self.inner = inner if inner is not None else LiveTransport()

    def send(self, request: Request) -> Response:
        response = self.inner.send(request)
        write_fixture(self.root, request, response)
        return response


def make_transport(mode: str, fixtures_root: str | Path) -> Transport:
    if mode == "live":
        return LiveTransport()
    if mode == "replay":
        return ReplayTransport(fixtures_root)
    if mode == "record":
        return RecordTransport(fixtures_root)
    raise ValueError(f"unknown transport mode {mode!r}")


# --- request construction --------------------------------------------------


def _from_env(name: str, mode: str, what: str) -> str | None:
    """The value of the environment variable ``name``, required outside replay."""
    value = os.environ.get(name)
    if not value and mode != "replay":
        raise AuthMissingError(f"{name} is required for {mode} access to {what}")
    return value or None


def _api_key_for(source: Source, mode: str) -> str | None:
    env_name = CONNECTORS[source].api_key_env
    return _from_env(env_name, mode, source.value) if env_name else None


def build_completion_request(prompt: str, mode: str) -> Request:
    """A chat-completion request for ``prompt``. Outside replay it goes to
    ``LLM_ENDPOINT`` for the model ``LLM_MODEL``, both required, with
    ``LLM_API_KEY`` as a bearer token when set; replay, which keys on the
    prompt alone, reads none of them."""
    endpoint = model = None
    headers = [("Content-Type", "application/json")]
    if mode != "replay":
        endpoint = _from_env("LLM_ENDPOINT", mode, "completions")
        model = _from_env("LLM_MODEL", mode, "completions")
        if api_key := os.environ.get("LLM_API_KEY"):
            headers.append(("Authorization", f"Bearer {api_key}"))
    body = json.dumps({"model": model, "messages": [{"role": "user", "content": prompt}]})
    return Request(COMPLETION, "POST", endpoint or "", (), body.encode("utf-8"), tuple(headers))


def build_fred_request(payload: FredQuery, api_key: str | None) -> Request:
    params = [
        ("series_id", payload.series_id),
        ("observation_start", payload.start_date.isoformat()),
        ("observation_end", payload.end_date.isoformat()),
        ("file_type", "json"),
    ]
    if api_key:
        params.append(("api_key", api_key))
    return Request(Source.FRED.value, "GET", FRED_OBSERVATIONS_URL, tuple(params))


def build_eia_request(payload: EiaQuery, api_key: str | None, offset: int) -> Request:
    params = dict(payload.params)
    params["offset"] = str(offset)
    params.setdefault("length", str(EIA_DEFAULT_PAGE))
    if api_key:
        params["api_key"] = api_key
    url = f"{EIA_BASE_URL}/{payload.api_route.strip('/')}"
    return Request(Source.EIA.value, "GET", url, tuple(sorted(params.items())))


def _unix(day: date) -> int:
    return int(datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp())


def build_yahoo_request(payload: YahooQuery) -> Request:
    interval = {"daily": "1d", "weekly": "1wk"}[payload.interval.value]
    params = (
        ("period1", str(_unix(payload.start_date))),
        ("period2", str(_unix(payload.end_date))),
        ("interval", interval),
        ("events", "history"),
    )
    return Request(Source.YAHOO.value, "GET", f"{YAHOO_CHART_URL}/{payload.ticker}", params)


def build_trends_request(payload: TrendsQuery) -> Request:
    req = {
        "keyword": payload.keyword,
        "geo": payload.geo or "",
        "time": f"{payload.start_date.isoformat()} {payload.end_date.isoformat()}",
    }
    params = (("hl", "en-US"), ("tz", "0"), ("req", json.dumps(req, sort_keys=True)))
    return Request(Source.TRENDS.value, "GET", TRENDS_URL, params)


# --- response parsing -------------------------------------------------------
#
# Each parser builds one column of days and one of floats with C-level maps and
# comprehensions: no (date, value) pair, ``date`` or ``datetime`` per row, and a
# regex only for short EIA periods. EIA rows are checked, filtered and grouped by
# column; epoch stamps become days in one numpy pass. Each series' rows are put in
# order by one stable sort of its days, and the ``TimeSeries`` check is the one
# check that no day repeats.

_YEAR_RE = re.compile(r"\d{4}", re.ASCII)
_MONTH_RE = re.compile(r"\d{4}-\d{2}", re.ASCII)


def _period_day(raw: str) -> str:
    """An EIA period's ``YYYY-MM-DD`` day: ``YYYY`` and ``YYYY-MM`` name their first
    day, a longer period's first ten characters are its day (or an hour after it)."""
    if len(raw) < 10:  # neither short form can match a longer string
        if _YEAR_RE.fullmatch(raw):
            return f"{raw}-01-01"
        if _MONTH_RE.fullmatch(raw):
            return f"{raw}-01"
    return raw[:10]


def _parse_periods(periods: list) -> np.ndarray:
    """The day of the ``str`` of each period, by one :func:`iso_dates` over the
    column; :func:`_period_day` maps it only when a period is under ten characters."""
    texts = list(map(str, periods))
    if min(map(len, texts), default=0) >= 10:
        return iso_dates(list(map(operator.getitem, texts, repeat(slice(10)))))
    return iso_dates(list(map(_period_day, texts)))


def _utc_days(stamps: Iterable) -> np.ndarray:
    """The UTC day of each epoch-seconds stamp: ``int`` of each (it truncates
    a float and reads a string), floor-divided by 86,400 in one int64 array.
    A stamp past int64 raises ``OverflowError``; the ``TimeSeries`` check
    rejects a day outside years 1-9999."""
    return (np.array(list(map(int, stamps)), dtype=np.int64) // 86400).view(DAY)


def _series_or_parse_error(
    source: Source, native_id: str, comment: str, timestamps: np.ndarray, values: Sequence[float]
) -> TimeSeries:
    """One original series from two columns, both reordered by one stable sort
    of the days, so a repeated day is still rejected, and every error names the
    series by its sorted range. The sorted days are frozen for the series to share."""
    order = np.argsort(timestamps, kind="stable")
    timestamps = timestamps[order]
    timestamps.flags.writeable = False
    try:
        series_id = make_series_id(source, native_id, timestamps[0], timestamps[-1])
        return TimeSeries(series_id, source, timestamps, np.asarray(values)[order],
                          Stage.ORIGINAL, comment=comment)
    except ValueError as exc:
        raise ParseError(f"{source.value} response for {native_id!r}: {exc}") from exc


def fred_response_to_series(payload: FredQuery, comment: str, body: str) -> list[TimeSeries]:
    """FRED observations JSON; '.' marks a missing observation and is dropped."""
    try:
        rows = [row for row in json.loads(body)["observations"]
                if row["value"] not in (".", "", None)]
        timestamps = iso_dates([row["date"] for row in rows])
        values = list(map(float, [row["value"] for row in rows]))
    except Exception as exc:
        raise ParseError(f"bad FRED body: {exc}") from exc
    if not rows:
        raise EmptyResultError(f"FRED {payload.series_id}: no observations")
    return [_series_or_parse_error(Source.FRED, payload.series_id, comment, timestamps, values)]


def eia_rows(body: str) -> tuple[int, list[dict]]:
    """One EIA page: reported total plus the row list."""
    try:
        doc = json.loads(body)
        response = doc["response"]
        rows = response["data"]
        total = int(response.get("total", len(rows)))
        if not isinstance(rows, list):
            raise ValueError("data is not a list")
        return total, rows
    except Exception as exc:
        raise ParseError(f"bad EIA body: {exc}") from exc


def eia_rows_to_series(payload: EiaQuery, comment: str, rows: list[dict]) -> list[TimeSeries]:
    """Group rows by their identity columns (all but period, value and
    ``*units``) and the ``str`` of each one's value; one series per group, in
    the order of the sorted ``(column, value)`` pairs.

    The work goes by column: rows without a value are dropped, and each of
    the period, the value and every identity column is mapped once over all
    rows. The columns are split into groups by one stable sort of the rows'
    group codes. Observations are reordered by period; a duplicated period
    within one group is an error rather than silently collapsed.
    """
    route = payload.api_route.strip("/").split("/")
    stem = route[-2] if route[-1] == "data" and len(route) > 1 else route[-1]
    try:
        if not (all(map(isinstance, rows, repeat(dict)))
                and all(map(dict.__contains__, rows, repeat("period")))):
            row = next(row for row in rows if not isinstance(row, dict) or "period" not in row)
            raise ValueError(f"row without period: {row!r}")
        values = list(map(dict.get, rows, repeat("value")))
        if None in values:
            present = list(map(operator.is_not, values, repeat(None)))
            rows, values = list(compress(rows, present)), list(compress(values, present))
        timestamps = _parse_periods(list(map(operator.itemgetter("period"), rows)))
        values = list(map(float, values))
        identity = {columns: tuple(sorted(
            k for k in columns if k not in ("period", "value") and not k.endswith("units")
        )) for columns in set(map(tuple, rows))}  # a row's columns -> its sorted identity columns
        names = sorted(set().union(*identity.values()))
        # a row's key: the str of its value in each of ``names`` ("None" where it has no
        # such column) and, when rows differ in them, its own identity columns
        key_columns = [list(map(str, map(dict.get, rows, repeat(name)))) for name in names]
        if len(set(identity.values())) > 1:
            key_columns.append(list(map(identity.__getitem__, map(tuple, rows))))
    except Exception as exc:
        raise ParseError(f"bad EIA rows: {exc}") from exc

    def pairs(key: tuple) -> tuple[tuple[str, str], ...]:
        own = key[-1] if len(key) > len(names) else names
        return tuple((name, value) for name, value in zip(names, key) if name in own)

    row_keys = list(zip(*key_columns)) if key_columns else [()] * len(rows)
    keys = sorted(set(row_keys), key=pairs)
    codes = np.fromiter(map({key: i for i, key in enumerate(keys)}.__getitem__, row_keys),
                        dtype=np.intp, count=len(row_keys))
    # one stable sort by group keeps each group's rows in arrival order
    order = np.argsort(codes, kind="stable")
    timestamps, values = timestamps[order], np.array(values)[order]
    bounds = [0, *np.cumsum(np.bincount(codes, minlength=len(keys))).tolist()]
    return [
        _series_or_parse_error(Source.EIA, "-".join([stem, *(v for _, v in pairs(key))]),
                               comment, timestamps[start:stop], values[start:stop])
        for key, start, stop in zip(keys, bounds, bounds[1:])
    ]


def yahoo_response_to_series(payload: YahooQuery, comment: str, body: str) -> list[TimeSeries]:
    """Yahoo chart JSON; the daily (or weekly) close is the value, and a null
    close drops its row."""
    try:
        doc = json.loads(body)
        result = doc["chart"]["result"][0]
        stamps = result["timestamp"]
        closes = result["indicators"]["quote"][0]["close"]
        if len(stamps) != len(closes):
            raise ValueError("timestamp/close length mismatch")
        stamps = [ts for ts, close in zip(stamps, closes) if close is not None]
        timestamps = _utc_days(stamps)
        values = list(map(float, [close for close in closes if close is not None]))
    except Exception as exc:
        raise ParseError(f"bad Yahoo body: {exc}") from exc
    if not stamps:
        raise EmptyResultError(f"Yahoo {payload.ticker}: no observations")
    return [_series_or_parse_error(Source.YAHOO, payload.ticker, comment, timestamps, values)]


def trends_response_to_series(payload: TrendsQuery, comment: str, body: str) -> list[TimeSeries]:
    """Interest-over-time JSON (with the anti-hijacking prefix stripped); an
    entry whose value list is empty is dropped."""
    try:
        text = body
        if text.startswith(")]}'"):
            text = text.split("\n", 1)[1] if "\n" in text else text[5:]
        doc = json.loads(text)
        entries = [entry for entry in doc["default"]["timelineData"] if entry["value"]]
        timestamps = _utc_days([entry["time"] for entry in entries])
        values = list(map(float, [entry["value"][0] for entry in entries]))
    except Exception as exc:
        raise ParseError(f"bad Trends body: {exc}") from exc
    if not entries:
        raise EmptyResultError(f"Trends {payload.keyword}: no observations")
    native = payload.keyword.replace(" ", "_") + (f"-{payload.geo}" if payload.geo else "")
    return [_series_or_parse_error(Source.TRENDS, native, comment, timestamps, values)]


# --- connector table --------------------------------------------------------

Send = Callable[[Request], Response]
Collect = Callable[[Payload, str, str | None, Send], list[TimeSeries]]


@dataclass(frozen=True)
class Connector:
    """Everything that differs between sources, in one record.

    The generic query functions read the rest off the payload type: its
    first field is the identifier, which must be non-empty and which marks
    a raw object as this source's; ``start_date``/``end_date`` fields get
    the range check. Every field binds and serializes by its annotation. Only
    Trends spells a field its own way (``aliases``): ``unalias`` rewrites a raw
    object into field names before binding, ``alias`` the fields back.
    """

    payload_type: type
    collect: Collect
    check: Callable[[Payload], list[str]] = lambda payload: []
    api_key_env: str | None = None
    aliases: tuple[str, ...] = ()
    unalias: Callable[[dict], dict] = lambda raw: raw
    alias: Callable[[dict], dict] = lambda raw: raw

    @property
    def id_field(self) -> str:
        return fields(self.payload_type)[0].name


def _one_request(build: Callable[..., Request], parse: Callable[..., list[TimeSeries]]) -> Collect:
    """The collect step of a source that answers a query with one response:
    build the request, send it and parse its body."""
    return lambda p, comment, api_key, send: parse(p, comment, send(build(p, api_key)).body)


def _fred_check(p: FredQuery) -> list[str]:
    if p.series_id and not _FRED_ID_RE.match(p.series_id):
        return [f"series_id {p.series_id!r} must match [A-Z0-9_]+"]
    return []


def _eia_check(p: EiaQuery) -> list[str]:
    reasons = []
    if p.api_route.startswith("/") or "://" in p.api_route:
        reasons.append("api_route must be a relative path")
    if any(not k for k, _ in p.params):
        reasons.append("params keys must be non-empty")
    return reasons


def _eia_collect(p: EiaQuery, comment: str, api_key: str | None, send: Send) -> list[TimeSeries]:
    """Page through the rows until the reported total (or an empty page).
    Each page starts where the rows received so far end, so a server that
    caps a page below the requested ``length`` loses none. A total that
    :data:`EIA_MAX_PAGES` pages do not reach fails the query rather than
    return a cut series."""
    offset = int(p.params_dict().get("offset", 0))
    rows: list[dict] = []
    for _ in range(EIA_MAX_PAGES):
        total, page = eia_rows(send(build_eia_request(p, api_key, offset)).body)
        rows.extend(page)
        offset += len(page)
        if not page or len(rows) >= total:
            break
    else:
        raise TruncatedResultError(f"EIA {p.api_route}: reported {total} rows, received "
                                   f"{len(rows)} in {EIA_MAX_PAGES} pages")
    series = eia_rows_to_series(p, comment, rows)
    if not series:
        raise EmptyResultError(f"EIA {p.api_route}: no observations")
    return series


def _trends_unalias(raw: dict) -> dict:
    """A ``timeframe`` of two dates as ``start_date`` and ``end_date``, bound as any date is."""
    if "timeframe" not in raw:
        return raw
    parts = str(raw["timeframe"]).split()
    if len(parts) != 2:
        raise QueryFieldError(f"timeframe must be 'START END': {raw['timeframe']!r}")
    return {**raw, "start_date": parts[0], "end_date": parts[1]}


def _trends_alias(raw: dict) -> dict:
    """The dates as one ``timeframe``; ``geo`` only when set."""
    timeframe = f"{raw['start_date']} {raw['end_date']}"
    return {"keyword": raw["keyword"], "timeframe": timeframe,
            **({"geo": raw["geo"]} if raw["geo"] else {})}


# Insertion order is the order in which ``infer_source`` tries the identifier fields.
CONNECTORS: dict[Source, Connector] = {
    Source.FRED: Connector(
        FredQuery, _one_request(build_fred_request, fred_response_to_series), _fred_check,
        api_key_env="FRED_API_KEY",
    ),
    Source.EIA: Connector(EiaQuery, _eia_collect, _eia_check, api_key_env="EIA_API_KEY"),
    Source.YAHOO: Connector(
        YahooQuery, _one_request(lambda p, _: build_yahoo_request(p), yahoo_response_to_series)
    ),
    Source.TRENDS: Connector(
        TrendsQuery,
        _one_request(lambda p, _: build_trends_request(p), trends_response_to_series),
        aliases=("timeframe",), unalias=_trends_unalias, alias=_trends_alias,
    ),
}


# --- fetch ------------------------------------------------------------------

def pacer_for(transport: Transport) -> RequestPacer:
    """A new pacer on the system clock; replay waits on a :class:`NullClock`."""
    return RequestPacer(NullClock() if transport.mode == "replay" else SystemClock())


def _execute(request: Request, transport: Transport, pacer: RequestPacer) -> Response:
    last_status: int | None = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        pacer.wait(request.source)
        response: Response | None = None
        try:
            response = transport.send(request)
        except TransportError as exc:
            logger.warning("%s attempt %d/%d failed: %s",
                           request.source, attempt, MAX_ATTEMPTS, exc)
        if response is not None:
            logger.info("%s attempt %d/%d -> HTTP %d",
                        request.source, attempt, MAX_ATTEMPTS, response.status)
            if response.status == 200:
                return response
            if response.status != 429 and not 500 <= response.status < 600:
                raise UpstreamError(response.status, request.target)
            last_status = response.status
        if attempt < MAX_ATTEMPTS:
            pacer.clock.sleep(BASE_DELAY * 2 ** (attempt - 1))
    if last_status == 429:
        raise RateLimitedError(f"{request.target}: still throttled after {MAX_ATTEMPTS} attempts")
    raise UpstreamError(last_status or 0, f"{request.target}: retries exhausted")


def fetch(
    query: SourceQuery,
    transport: Transport,
    *,
    pacer: RequestPacer | None = None,
) -> list[TimeSeries]:
    """Execute one query with pacing, retry, and pagination; normalize the
    response(s) into original-stage series. Without a ``pacer`` the query
    gets its own (see :func:`fetch_all`)."""
    pacer = pacer or pacer_for(transport)
    key = _api_key_for(query.source, transport.mode)

    def send(request: Request) -> Response:
        return _execute(request, transport, pacer)

    return CONNECTORS[query.source].collect(query.payload, query.comment, key, send)


def fetch_completion(prompt: str, transport: Transport, pacer: RequestPacer) -> str:
    """The completion of ``prompt``, ``choices[0].message.content`` of the chat
    reply to one :data:`COMPLETION` request, retried and paced like a data
    request. A reply that is not a chat completion raises :class:`ParseError`."""
    body = _execute(build_completion_request(prompt, transport.mode), transport, pacer).body
    try:
        content = json.loads(body)["choices"][0]["message"]["content"]
        if not isinstance(content, str):
            raise TypeError("the reply's content is not a string")
    except (ValueError, LookupError, TypeError) as exc:
        raise ParseError(f"not a chat completion: {exc!r}") from exc
    return content


def write_completion_fixture(root: str | Path, prompt: str, completion: str) -> Path:
    """Record ``completion`` as the chat reply (status 200) to ``prompt`` under
    ``root``, the :data:`COMPLETION` directory of a fixture tree, where replay
    from ``root``'s parent finds it. A ``root`` not named :data:`COMPLETION` is
    a ``ValueError``."""
    if Path(root).name != COMPLETION:
        raise ValueError(f"{root}: a completion fixture goes under a directory named {COMPLETION}")
    reply = json.dumps({"choices": [{"message": {"content": completion}}]})
    return write_fixture(Path(root).parent, build_completion_request(prompt, "replay"),
                         Response(200, reply))


def fetch_all(
    queries: Iterable[SourceQuery],
    transport: Transport,
    *,
    pacer: RequestPacer | None = None,
) -> tuple[list[TimeSeries], list[tuple[SourceQuery, str]]]:
    """Fetch many queries; per-query upstream failures are tallied, not fatal.

    One ``pacer`` (a new one by default) spaces the requests of all the
    queries to each source :data:`MIN_REQUEST_INTERVAL` apart. Missing
    credentials and missing fixtures abort the whole collection: both mean
    the run is misconfigured rather than the upstream flaking.
    """
    pacer = pacer or pacer_for(transport)
    collected: list[TimeSeries] = []
    failures: list[tuple[SourceQuery, str]] = []
    seen_ids: set[str] = set()
    for query in queries:
        try:
            batch = fetch(query, transport, pacer=pacer)
        except (RateLimitedError, UpstreamError, ParseError, EmptyResultError,
                TruncatedResultError) as exc:
            logger.warning("query failed (%s): %s", type(exc).__name__, exc)
            failures.append((query, f"{type(exc).__name__}: {exc}"))
            continue
        for series in batch:
            if series.id in seen_ids:
                logger.info("duplicate series %s skipped", series.id)
                continue
            seen_ids.add(series.id)
            collected.append(series)
    return collected, failures
