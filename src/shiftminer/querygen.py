"""Prompt construction, completion rounds, and robust query extraction.

Each round's prompt is sent as one completion request through the run's
:class:`~shiftminer.sources.Transport`, the one that collects the data, so
completions are recorded, replayed, retried and paced like data requests.
The contract of record is the fixture store: replay answers each prompt from
``fixtures/llm/<sha256(prompt)>.http``, a chat reply, so no test or offline
run ever talks to a remote model. Live and record mode post to an
OpenAI-style chat endpoint configured via environment variables.

Model output is treated as untrusted text: we extract JSON query objects
from it, bind them to typed payloads, and validate; everything else,
including any generated code, is ignored.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .series import Source
from .sources import (
    QueryFieldError,
    RequestPacer,
    SourceQuery,
    Transport,
    dedup_queries,
    fetch_completion,
    infer_source,
    known_fields,
    pacer_for,
    query_from_raw,
    write_completion_fixture,  # re-exported for the benchmark's fixture builder
)
from .storage import read_file, write_document

logger = logging.getLogger(__name__)

PLACEHOLDER_NAMES = ("source_name", "query_count")
_PLACEHOLDER_RE = re.compile(r"\{(" + "|".join(PLACEHOLDER_NAMES) + r")\}")

SOURCE_DISPLAY_NAMES = {
    Source.FRED: "FRED",
    Source.EIA: "EIA",
    Source.YAHOO: "Yahoo Finance",
    Source.TRENDS: "Google Trends",
}


class MissingBindingError(KeyError):
    """A placeholder in the template has no binding."""


class NoQueriesFoundError(Exception):
    """No parseable query object in the completion text."""


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt body plus ordered follow-up texts, with named placeholders."""

    body: str
    followups: tuple[str, ...] = ()


DISCOVERY_TEMPLATE = PromptTemplate(
    body=(
        "I want to use general-purpose LLMs such as GPT4 to assist in constructing "
        "time series datasets, with a focus on datasets that suffer from distribution "
        "shifts. Our approach does not involve training a model, just using its "
        "empirical knowledge of past events to suggest datasets and time periods that "
        "might exhibit distributional shifts. For example, S&P500 data suffered a "
        "distribution shift during COVID-19. I want an LLM to generate query terms and "
        "data sources to build a heterogeneous time series dataset from different "
        "domains with distributional shifts. Please provide a list of open time series "
        "datasets from different contexts that can be used to query and extract time "
        "series with distribution shifts. In the list, clarify if the dataset has an "
        "API.\n"
        "Provide the list in latex tabular format with the following columns: Domain, "
        "Name of dataset, Description, API (yes/no), Link, Licence. Leave that column "
        "free if you don't have the link or license."
    ),
    followups=("Provide additional data sources in the same format.",),
)

QUERY_TEMPLATE = PromptTemplate(
    body=(
        "Let's focus on {source_name}. Please provide Python code to query the API to "
        "download data that might exhibit distribution shifts. I will do statistical "
        "tests to prune the data and only keep the relevant data."
    ),
    followups=(
        "Provide a list of {query_count} queries for the {source_name} dataset in "
        "Python format with the series_id and time ranges that I can use to download "
        "the data that exhibit distribution shifts.",
    ),
)


def render_text(text: str, bindings: dict[str, str]) -> str:
    """Substitute ``{placeholder}`` tokens; leaves unrelated braces alone."""

    def substitute(match: re.Match) -> str:
        name = match.group(1)
        if name not in bindings:
            raise MissingBindingError(name)
        return str(bindings[name])

    return _PLACEHOLDER_RE.sub(substitute, text)


# --- extraction -------------------------------------------------------------

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_+-]*\n(.*?)```", re.DOTALL)


def _scan_json_values(text: str) -> list[object]:
    """Balanced-delimiter scan for top-level JSON objects and arrays."""
    decoder = json.JSONDecoder()
    found: list[object] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch not in "{[":
            i += 1
            continue
        try:
            value, end = decoder.raw_decode(text, i)
        except json.JSONDecodeError:
            i += 1
            continue
        found.append(value)
        i = end
    return found


def extract_query_objects(llm_output: str) -> list[dict]:
    """Pull raw JSON objects out of completion text, prose tolerated.

    Fenced code blocks are scanned first, then the remaining text; arrays
    are flattened into their object elements, document order preserved.
    """
    raw: list[object] = []
    for match in _FENCE_RE.finditer(llm_output):
        raw.extend(_scan_json_values(match.group(1)))
    remainder = _FENCE_RE.sub(" ", llm_output)
    raw.extend(_scan_json_values(remainder))

    objects: list[dict] = []
    for value in raw:
        if isinstance(value, dict):
            objects.append(value)
        elif isinstance(value, list):
            objects.extend(v for v in value if isinstance(v, dict))
    if not objects:
        raise NoQueriesFoundError("no JSON query objects in completion text")
    return objects


def bind_queries(
    raw_objects: Sequence[dict], source: Source | None = None
) -> tuple[list[SourceQuery], list[tuple[dict, str]]]:
    """Map raw objects to typed queries; returns (accepted, rejected).

    With ``source`` given, objects whose fields belong to a different
    source are rejected; with ``source=None`` the source is inferred from
    the field shape. Unknown extra fields are ignored with a warning.
    """
    accepted: list[SourceQuery] = []
    rejected: list[tuple[dict, str]] = []
    for raw in raw_objects:
        inferred = infer_source(raw)
        target = source or inferred
        if target is None:
            rejected.append((raw, "cannot determine source from fields"))
            continue
        if source is not None and inferred is not None and inferred is not source:
            rejected.append((raw, f"fields identify {inferred.value}, expected {source.value}"))
            continue
        extras = set(raw) - known_fields(target)
        if extras:
            logger.warning("ignoring unknown fields %s", sorted(extras))
        try:
            accepted.append(query_from_raw(raw, target))
        except QueryFieldError as exc:
            rejected.append((raw, str(exc)))
    return accepted, rejected


def _rounds(
    transport: Transport,
    pacer: RequestPacer | None,
    template: PromptTemplate,
    bindings: dict[str, str],
    max_rounds: int,
) -> Iterator[str]:
    """Yield the completion of each round, at most ``max_rounds`` of them.

    The first prompt is the rendered body; each later round appends a blank
    line and the next follow-up (the last one repeats) to the transcript, so
    every round's prompt, and therefore its fixture key, is distinct. One
    ``pacer`` (a new one by default) spaces the rounds' requests. A failed
    completion raises what :func:`~shiftminer.sources.fetch_completion` raises.
    """
    pacer = pacer or pacer_for(transport)
    followups = [render_text(fu, bindings) for fu in template.followups]
    transcript = render_text(template.body, bindings)
    for round_no in range(1, max_rounds + 1):
        if round_no > 1:
            transcript += "\n\n" + followups[min(round_no - 2, len(followups) - 1)]
        yield fetch_completion(transcript, transport, pacer)


def generate_queries(
    source: Source,
    transport: Transport,
    query_count: int = 50,
    max_rounds: int = 2,
    *,
    pacer: RequestPacer | None = None,
) -> list[SourceQuery]:
    """Prompt, extract, bind, and dedup until ``query_count`` queries hold,
    over at most ``max_rounds`` rounds of :data:`QUERY_TEMPLATE`."""
    bindings = {
        "source_name": SOURCE_DISPLAY_NAMES.get(source, source.value),
        "query_count": str(query_count),
    }
    accepted: list[SourceQuery] = []
    rounds = _rounds(transport, pacer, QUERY_TEMPLATE, bindings, max_rounds)
    for round_no, completion in enumerate(rounds, start=1):
        try:
            raw_objects = extract_query_objects(completion)
        except NoQueriesFoundError:
            logger.info("round %d produced no query objects", round_no)
            continue
        batch, rejects = bind_queries(raw_objects, source)
        for raw, reason in rejects:
            logger.info("rejected query %r: %s", raw, reason)
        accepted = dedup_queries(accepted + batch)
        if len(accepted) >= query_count:
            break
    if not accepted:
        raise NoQueriesFoundError(f"no valid {source.value} queries after {max_rounds} round(s)")
    return accepted[:query_count]


# --- source discovery catalog ------------------------------------------------

_LATEX_ROW_RE = re.compile(r"\\\\\s*$")


def parse_source_table(text: str) -> list[dict]:
    """Parse a LaTeX tabular or markdown table of candidate data sources.

    Expected columns: domain, name, description, API yes/no, link,
    license. Header and rule rows are skipped; short rows are ignored.
    """
    entries: list[dict] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("|"):
            cells = [c.strip() for c in stripped.strip("|").split("|")]
            if len(cells) < 4 or set(cells[0]) <= {"-", ":", " "}:
                continue
        elif "&" in stripped:
            if stripped.startswith(("\\hline", "\\toprule", "\\midrule", "\\bottomrule")):
                continue
            cells = [c.strip().rstrip("\\").strip() for c in _LATEX_ROW_RE.sub("", stripped).split("&")]
        else:
            continue
        if len(cells) < 4 or cells[0].lower() in ("domain", "---"):
            continue
        cells += [""] * (6 - len(cells))
        entries.append(
            {
                "domain": cells[0],
                "name": cells[1],
                "description": cells[2],
                "has_api": cells[3].strip().lower().startswith("yes"),
                "link": cells[4],
                "license": cells[5],
            }
        )
    return entries


def discover_sources(transport: Transport, max_rounds: int = 1) -> list[dict]:
    """Run the discovery prompt and parse the returned tables (informational);
    an entry whose name an earlier one has is dropped."""
    unique: dict[str, dict] = {}
    for completion in _rounds(transport, None, DISCOVERY_TEMPLATE, {}, max_rounds):
        for entry in parse_source_table(completion):
            unique.setdefault(entry["name"], entry)
    return list(unique.values())


def write_catalog(entries: Sequence[dict], path: str | Path) -> Path:
    return write_document(path, list(entries))


def load_catalog(path: str | Path) -> list[dict]:
    """The catalog :func:`write_catalog` wrote; a file that is not a JSON
    list of objects raises ``ValueError``."""
    catalog = json.loads(read_file(path))
    if not isinstance(catalog, list) or not all(isinstance(e, dict) for e in catalog):
        raise ValueError(f"{path}: a catalog must be a JSON list of objects")
    return catalog
