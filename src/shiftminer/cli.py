"""Command line interface.

Exit codes: 0 success, 1 any other stage failure (for example in
augment), 2 configuration error, 3 collection error, 4 pruning left
nothing, 5 I/O error or unreadable stored file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import pipeline, querygen, sources, storage
from .series import SeriesError, Source, Stage

EXIT_OK = 0
EXIT_STAGE = 1
EXIT_CONFIG = 2
EXIT_COLLECT = 3
EXIT_EMPTY_PRUNE = 4
EXIT_IO = 5
EXIT_CODES_HELP = (
    "exit codes: 0 success, 1 any other stage failure (for example in augment), "
    "2 configuration error, 3 collection error, 4 pruning left nothing, "
    "5 I/O error or unreadable stored file"
)

logger = logging.getLogger(__name__)

_FLAGS = {
    "--transport": dict(choices=("live", "replay", "record"), default=None),
    "--seed": dict(type=int, default=None),
    "--output-dir": dict(type=Path, default=None),
    "--fixtures": dict(type=Path, default=Path("fixtures")),
}


def positive_int(text: str) -> int:
    """An argparse type: an int of at least 1."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def _flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])
    parser.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shiftminer", epilog=EXIT_CODES_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-queries", help="ask the LLM for queries")
    p.add_argument("--source", required=True, choices=[s.value for s in sources.CONNECTORS])
    p.add_argument("--count", type=positive_int, default=50)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--max-rounds", type=positive_int, default=2)
    _flags(p, "--transport", "--fixtures")

    p = sub.add_parser("collect", help="run the query and collection stages")
    p.add_argument("--config", type=Path, required=True)
    _flags(p, "--transport", "--output-dir")

    p = sub.add_parser("prune", help="keep only series with a detected shift")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", type=Path, default=None)
    _flags(p, "--output-dir")

    p = sub.add_parser("augment", help="expand the pruned stage")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", type=Path, default=None)
    _flags(p, "--seed", "--output-dir")

    p = sub.add_parser("split", help="leakage-free train/test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-parents", type=int, default=None)
    p.add_argument("--test-augmented", action="store_true")
    p.add_argument("--output-dir", type=Path, default=Path("data"))
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("report", help="render a dataset summary row")
    p.add_argument("--dataset", required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--output-dir", type=Path, default=Path("data"))
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--force", action="store_true")
    _flags(p, "--transport", "--seed", "--output-dir")

    p = sub.add_parser("discover", help="prompt for candidate data sources, write a catalog")
    p.add_argument("--out", type=Path, default=Path("data/catalog.json"))
    p.add_argument("--max-rounds", type=positive_int, default=1)
    _flags(p, "--transport", "--fixtures")
    return parser


def _load_config(args) -> pipeline.PipelineConfig:
    """The config file with the command line's overrides applied.

    ``prune`` and ``augment`` fall back to the defaults without a config
    file; their stages never read the source.
    """
    if args.config is None:
        config = pipeline.PipelineConfig(dataset_name=args.dataset, source=Source.SYNTHETIC)
    else:
        config = pipeline.load_config(args.config)
    updates = {}
    if getattr(args, "dataset", None):
        updates["dataset_name"] = args.dataset
    if getattr(args, "transport", None):
        updates["transport_mode"] = args.transport
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "output_dir", None) is not None:
        updates["output_dir"] = args.output_dir
    return replace(config, **updates)


def _fixed_now() -> str | None:
    """Honor SOURCE_DATE_EPOCH for reproducible manifests."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return None
    try:
        stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except ValueError:
        return None
    return stamp.replace(microsecond=0).isoformat()


def _cmd_generate_queries(args) -> int:
    transport = sources.make_transport(args.transport or "replay", args.fixtures)
    queries = querygen.generate_queries(
        Source(args.source), transport, query_count=args.count, max_rounds=args.max_rounds
    )
    sources.save_queries(queries, args.out)
    print(f"wrote {len(queries)} queries to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    manifest = pipeline.run(_load_config(args), force=args.force, now=_fixed_now())
    print(pipeline.report(manifest), end="")
    return EXIT_OK


def _cmd_collect(args) -> int:
    config = _load_config(args)
    originals = pipeline.Stages(config, _fixed_now()).collect()
    dataset_root = storage.dataset_dir(config.output_dir, config.dataset_name)
    print(f"collected {len(originals)} series into {dataset_root}")
    return EXIT_OK


def _cmd_prune(args) -> int:
    stages = pipeline.Stages(_load_config(args), _fixed_now())
    originals = stages.rerun(Stage.PRUNED)
    print(f"kept {stages.manifest.count_pruned} of {len(originals)} series")
    return EXIT_OK


def _cmd_augment(args) -> int:
    stages = pipeline.Stages(_load_config(args), _fixed_now())
    stages.rerun(Stage.AUGMENTED)
    print(f"wrote {stages.manifest.count_augmented} augmented series")
    return EXIT_OK


def _cmd_split(args) -> int:
    summary = pipeline.split_dataset(
        args.output_dir,
        args.dataset,
        ratio=args.ratio,
        seed=args.seed,
        train_parent_count=args.train_parents,
        include_test_augmented=args.test_augmented,
    )
    counts = summary["counts"]
    print(
        f"train: {counts['train_parents']} parents / {counts['train_augmented']} augmented; "
        f"test: {counts['test_parents']} parents / {counts['test_augmented']} augmented"
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    manifest = storage.load_manifest(args.output_dir, args.dataset)
    print(pipeline.report(manifest, fmt="csv" if args.csv else "text"), end="")
    return EXIT_OK


def _cmd_discover(args) -> int:
    transport = sources.make_transport(args.transport or "replay", args.fixtures)
    entries = querygen.discover_sources(transport, max_rounds=args.max_rounds)
    querygen.write_catalog(entries, args.out)
    print(f"wrote {len(entries)} catalog entries to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "generate-queries": _cmd_generate_queries,
        "collect": _cmd_collect,
        "prune": _cmd_prune,
        "augment": _cmd_augment,
        "split": _cmd_split,
        "report": _cmd_report,
        "run": _cmd_run,
        "discover": _cmd_discover,
    }
    try:
        return handlers[args.command](args)
    except pipeline.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except pipeline.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.cause, pipeline.PruningEmptyError):
            return EXIT_EMPTY_PRUNE
        if isinstance(exc.cause, OSError):
            return EXIT_IO
        if exc.stage in ("queries", "collect"):
            return EXIT_COLLECT
        return EXIT_STAGE
    except (sources.AuthMissingError, sources.FixtureMissingError, sources.RateLimitedError,
            sources.UpstreamError, sources.ParseError, querygen.NoQueriesFoundError) as exc:
        # a failed completion of generate-queries or discover; under run and
        # collect, the queries stage raises it wrapped
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLECT
    except (OSError, storage.MalformedFileError, SeriesError) as exc:
        # stage errors arrive wrapped, so a bare series error comes from a stored file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
