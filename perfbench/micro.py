"""Micro-timings of the hot kernels on one workload's pruned series."""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

from shiftminer import augment, changepoint, sources, storage
from shiftminer.series import TimeSeries

SAMPLE = 24  # pruned series per kernel, the first by id
REPEATS = 3
TRANSFORM_SEED = 7


class CachedTransport:
    """Replay transport that reads each fixture once, so timed fetches
    measure request building and response parsing, not file reads."""

    def __init__(self, inner: sources.Transport) -> None:
        self.inner = inner
        self.mode = inner.mode
        self._cache: dict[sources.Request, sources.Response] = {}

    def send(self, request: sources.Request) -> sources.Response:
        if request not in self._cache:
            self._cache[request] = self.inner.send(request)
        return self._cache[request]


def _per_call_us(fn, items: list) -> float:
    """Median over repeats of the mean time per call across ``items``."""
    rounds = []
    for _ in range(REPEATS):
        start = perf_counter()
        for item in items:
            fn(item)
        rounds.append((perf_counter() - start) / len(items) * 1e6)
    return statistics.median(rounds)


def micro_timings(
    pruned: list[TimeSeries],
    config,
    query_of: dict[str, sources.SourceQuery],
    scratch: Path,
) -> dict[str, float]:
    """Per-call microseconds of each kernel. ``config`` is the workload's
    pipeline config and ``query_of`` maps series ids to their queries."""
    sample = sorted(pruned, key=lambda s: s.id)[:SAMPLE]
    augment_config = augment.AugmentConfig(
        factor=config.augment.factor, master_seed=config.master_seed
    )
    transport = CachedTransport(sources.ReplayTransport(config.fixtures_dir))
    queries = [query_of[s.id] for s in sample]
    for query in queries:
        sources.fetch(query, transport)
    return {
        "changepoint.classify_us": _per_call_us(
            lambda s: changepoint.classify(s, config.detector), sample
        ),
        "augment.time_warp_us": _per_call_us(
            lambda s: augment.time_warp(s, augment_config, TRANSFORM_SEED), sample
        ),
        "augment.window_warp_us": _per_call_us(
            lambda s: augment.window_warp(s, augment_config, TRANSFORM_SEED), sample
        ),
        "augment.window_slice_us": _per_call_us(
            lambda s: augment.window_slice(s, augment_config, TRANSFORM_SEED), sample
        ),
        "storage.save_series_us": _per_call_us(lambda s: storage.save_series(s, scratch), sample),
        "storage.load_series_us": _per_call_us(
            storage.load_series, [scratch / f"{s.id}.csv" for s in sample]
        ),
        "sources.parse_response_us": _per_call_us(lambda q: sources.fetch(q, transport), queries),
    }
