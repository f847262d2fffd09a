"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the package from outside, at the
boundary of each layer, and records one span per call: name, start, end
and the span that was open when the call began. Spans stay in memory and
are written out when the benchmark ends. Nothing here changes what the
wrapped functions return.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

from shiftminer import augment, changepoint, pipeline, querygen, sources, storage
from shiftminer.series import Stage, TimeSeries

NO_PARENT = -1


class Recorder:
    """In-memory spans plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.query_of: dict[str, sources.SourceQuery] = {}  # series id -> query
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else NO_PARENT]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def wrap(self, fn, name, after=None):
        """``fn`` recorded as ``name`` (a string, or a function of the call's
        arguments); ``after(result, *args)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(*args)):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return traced

    # --- aggregation ------------------------------------------------------

    def total(self, name: str, under: str | None = None) -> float:
        """Summed duration of spans called ``name`` (optionally only those
        with an ancestor called ``under``)."""
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (under is None or self._has_ancestor(s, under))
        )

    def count(self, name: str, under: str | None = None) -> int:
        return sum(
            1
            for s in self.spans
            if s[0] == name and (under is None or self._has_ancestor(s, under))
        )

    def _has_ancestor(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent != NO_PARENT:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time, and self time (total minus the
        time covered by direct children)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] != NO_PARENT:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = {}
        for s, covered in zip(self.spans, child_time):
            entry = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += s[2] - s[1]
            entry["self_s"] += s[2] - s[1] - covered
        return out


class TracingTransport:
    """Wraps the replay transport; times every send and counts traffic."""

    def __init__(self, inner: sources.Transport, recorder: Recorder) -> None:
        self.inner = inner
        self.mode = inner.mode
        self._recorder = recorder
        self._seen: set[sources.Request] = set()

    def send(self, request: sources.Request) -> sources.Response:
        with self._recorder.span("sources.send"):
            response = self.inner.send(request)
        counts = self._recorder.counts
        counts["sources.requests"] += 1
        counts["sources.bytes_read"] += len(response.body)  # fixture bodies are ASCII JSON
        if request in self._seen:
            counts["sources.retries"] += 1
        self._seen.add(request)
        return response


def _save_stage_name(root, name, series_list) -> str:
    return f"storage.save_{series_list[0].stage.value}"


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Install the wrappers for the duration of one traced job.

    Each patch replaces the name the caller looks up: ``pipeline`` binds
    ``prune`` and ``augment_set`` at import, ``prune`` and ``augment_set``
    look up ``classify`` in their own modules, and the rest is reached as
    a module attribute. ``TimeSeries.__post_init__`` is the validation
    every construction (including ``dataclasses.replace``) runs.
    """
    counts = recorder.counts

    def remember_query(result, query, *args):
        for series in result:
            recorder.query_of[series.id] = query

    def count_failures(result, *args):
        counts["sources.failed_queries"] += len(result[1])

    def count_binding(result, *args):
        counts["querygen.rejected"] += len(result[1])

    def count_queries(result, *args):
        counts["querygen.accepted"] = len(result)

    def count_loaded(result, *args):
        counts["storage.series_loaded"] += len(result)

    def count_kept(result, dataset, *args):
        counts["changepoint.input"] += len(dataset)
        counts["changepoint.kept"] += len(result)

    def count_augmented(result, *args):
        verified = sum(1 for s in result if s.provenance.shift_verified)
        counts["augment.outputs"] += len(result)
        counts["augment.verified"] += verified

    patches = [  # (owner, attribute the caller looks up, span name, counter update)
        (pipeline, "prune", "changepoint.prune", count_kept),
        (pipeline, "augment_set", "augment.augment_set", count_augmented),
        (changepoint, "classify", "changepoint.classify", None),
        (augment, "classify", "changepoint.classify", None),
        (sources, "fetch_all", "sources.fetch_all", count_failures),
        (sources, "fetch", "sources.fetch", remember_query),
        (sources, "load_queries", "sources.load_queries", None),
        (sources, "dedup_queries", "sources.dedup_queries", count_queries),
        (querygen, "generate_queries", "querygen.generate_queries", count_queries),
        (querygen, "bind_queries", "querygen.bind_queries", count_binding),
        (storage, "save_stage", _save_stage_name, None),
        (storage, "load_stage", "storage.load_stage", count_loaded),
        (storage, "write_manifest", "storage.write_manifest", None),
        (TimeSeries, "__post_init__", "series.validate", None),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, after in patches:
            setattr(owner, attr, recorder.wrap(owner.__dict__[attr], name, after))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# The queries stage: generation, or loading and dedup of a query file.
QUERY_STAGE = ("querygen.generate_queries", "sources.load_queries", "sources.dedup_queries")
SAVE_SPANS = {stage: f"storage.save_{stage.value}" for stage in Stage}


def layer_metrics(recorder: Recorder, run_s: float, files: int, nbytes: int) -> dict[str, float]:
    """Per-layer figures of one traced job (``pipeline.run`` then split).

    ``files`` and ``nbytes`` are what the stage directories and manifest
    hold after the run.
    """
    r, c = recorder, recorder.counts
    fetch_s = r.total("sources.fetch_all")
    send_s = r.total("sources.send")
    saves = {stage: r.total(SAVE_SPANS[stage]) for stage in Stage}
    save_s = sum(saves.values())
    queries_s = sum(r.total(name) for name in QUERY_STAGE)
    prune_s = r.total("changepoint.prune")
    augment_s = r.total("augment.augment_set")
    verify_s = r.total("changepoint.classify", under="augment.augment_set")
    attempts = r.count("changepoint.classify", under="augment.augment_set")
    augment_self = r.self_times().get("augment.augment_set", {}).get("self_s", 0.0)
    return {
        "sources.fetch_all_s": fetch_s,
        "sources.send_s": send_s,
        "sources.parse_s": fetch_s - send_s,
        "sources.requests": c["sources.requests"],
        "sources.retries": c["sources.retries"],
        "sources.failed_queries": c["sources.failed_queries"],
        "sources.bytes_read": c["sources.bytes_read"],
        "storage.save_original_s": saves[Stage.ORIGINAL],
        "storage.save_pruned_s": saves[Stage.PRUNED],
        "storage.save_augmented_s": saves[Stage.AUGMENTED],
        "storage.files_written": files,
        "storage.bytes_written": nbytes,
        "storage.files_per_s": files / save_s,
        "storage.mb_per_s": nbytes / 1e6 / save_s,
        "storage.load_s": r.total("storage.load_stage"),
        # every loaded series reads its CSV and its sidecar
        "storage.files_read": 2 * c["storage.series_loaded"],
        "changepoint.prune_s": prune_s,
        "changepoint.classify_calls": r.count("changepoint.classify"),
        "changepoint.kept_ratio": c["changepoint.kept"] / c["changepoint.input"],
        "augment.augment_set_s": augment_s,
        "augment.verify_s": verify_s,
        "augment.transform_s": augment_self,
        "augment.attempts": attempts,
        "augment.verified_ratio": c["augment.verified"] / attempts,
        "augment.unverified": c["augment.outputs"] - c["augment.verified"],
        "series.constructions": r.count("series.validate"),
        "series.validate_s": r.total("series.validate"),
        "querygen.generate_s": queries_s,
        "querygen.accepted": c["querygen.accepted"],
        "querygen.rejected": c["querygen.rejected"],
        "pipeline.other_s": run_s - queries_s - fetch_s - save_s - prune_s - augment_s,
    }
