"""Command line interface.

Exit codes: 0 success, 1 any other stage failure (for example in
augment), 2 configuration error, 3 collection error, 4 pruning left
nothing, 5 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import pipeline, querygen, sources, storage
from .series import Source

EXIT_OK = 0
EXIT_STAGE = 1
EXIT_CONFIG = 2
EXIT_COLLECT = 3
EXIT_EMPTY_PRUNE = 4
EXIT_IO = 5
EXIT_CODES_HELP = (
    "exit codes: 0 success, 1 any other stage failure (for example in augment), "
    "2 configuration error, 3 collection error, 4 pruning left nothing, 5 I/O error"
)

logger = logging.getLogger(__name__)


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--transport", choices=("live", "replay", "record"), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--output-dir", type=Path, default=None)
    parser.add_argument("--fixtures", type=Path, default=Path("fixtures"))
    parser.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shiftminer", epilog=EXIT_CODES_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-queries", help="ask the completion backend for queries")
    p.add_argument("--source", required=True, choices=[s.value for s in Source if s is not Source.SYNTHETIC])
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--max-rounds", type=int, default=2)
    _common(p)

    p = sub.add_parser("collect", help="run the query and collection stages")
    p.add_argument("--config", type=Path, required=True)
    _common(p)

    p = sub.add_parser("prune", help="keep only series with a detected shift")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", type=Path, default=None)
    _common(p)

    p = sub.add_parser("augment", help="expand the pruned stage")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", type=Path, default=None)
    _common(p)

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
    _common(p)

    p = sub.add_parser("discover", help="prompt for candidate data sources, write a catalog")
    p.add_argument("--out", type=Path, default=Path("data/catalog.json"))
    p.add_argument("--max-rounds", type=int, default=1)
    _common(p)
    return parser


def _apply_overrides(config: pipeline.PipelineConfig, args) -> pipeline.PipelineConfig:
    from dataclasses import replace

    updates = {}
    if getattr(args, "transport", None):
        updates["transport_mode"] = args.transport
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "output_dir", None) is not None:
        updates["output_dir"] = args.output_dir
    return replace(config, **updates) if updates else config


def _backend_for(mode: str, fixtures: Path) -> querygen.CompletionBackend:
    llm_root = fixtures / "llm"
    if mode == "replay":
        return querygen.ReplayBackend(llm_root)
    live = querygen.HttpBackend()
    if mode == "record":
        return querygen.RecordBackend(llm_root, live)
    return live


def _cmd_generate_queries(args) -> int:
    mode = args.transport or "replay"
    backend = _backend_for(mode, args.fixtures)
    queries = querygen.generate_queries(
        Source(args.source), backend, query_count=args.count, max_rounds=args.max_rounds
    )
    sources.save_queries(queries, args.out)
    print(f"wrote {len(queries)} queries to {args.out}")
    return EXIT_OK


def _cmd_run(args, collect_only: bool = False) -> int:
    config = _apply_overrides(pipeline.load_config(args.config), args)
    if collect_only:
        config = _collect_only_run(config, force=getattr(args, "force", False))
        return EXIT_OK
    manifest = pipeline.run(config, force=getattr(args, "force", False), now=pipeline._fixed_now())
    print(pipeline.report(manifest), end="")
    return EXIT_OK


def _collect_only_run(config: pipeline.PipelineConfig, force: bool):
    import shutil

    dataset_root = storage.dataset_dir(config.output_dir, config.dataset_name)
    if dataset_root.exists() and any(dataset_root.iterdir()):
        if not force:
            raise pipeline.ConfigError(f"dataset directory {dataset_root} already exists")
        shutil.rmtree(dataset_root)
    transport = sources.make_transport(config.transport_mode, config.fixtures_dir)
    runner = pipeline._Runner(config)
    queries = runner._stage("queries", None, lambda: runner.queries(None))
    originals = runner._stage("collect", None, lambda: runner.collect(queries, transport))
    print(f"collected {len(originals)} series into {dataset_root}")
    return config


def _load_stage_config(args) -> pipeline.PipelineConfig | None:
    if getattr(args, "config", None) is None:
        return None
    return pipeline.load_config(args.config)


def _cmd_prune(args) -> int:
    from .changepoint import DetectorConfig, prune as prune_series

    config = _load_stage_config(args)
    detector = config.detector if config else DetectorConfig()
    root = args.output_dir or (config.output_dir if config else Path("data"))
    originals = storage.load_stage(root, args.dataset, storage.Stage.ORIGINAL)
    if not originals:
        raise pipeline.ConfigError(f"dataset {args.dataset!r} has no original stage under {root}")
    pruned = prune_series(originals, detector)
    if not pruned:
        raise pipeline.PruningEmptyError(f"dataset {args.dataset!r}: nothing survived pruning")
    storage.save_stage(root, args.dataset, pruned)
    print(f"kept {len(pruned)} of {len(originals)} series")
    return EXIT_OK


def _cmd_augment(args) -> int:
    from dataclasses import replace

    from .augment import augment_set

    config = _load_stage_config(args)
    root = args.output_dir or (config.output_dir if config else Path("data"))
    aug = config.augment if config else pipeline.AugmentConfig()
    detector = config.detector if config else pipeline.DetectorConfig()
    if aug.master_seed is None:
        seed = args.seed if args.seed is not None else (config.master_seed if config else 0)
        aug = replace(aug, master_seed=seed)
    pruned = storage.load_stage(root, args.dataset, storage.Stage.PRUNED)
    if not pruned:
        raise pipeline.ConfigError(f"dataset {args.dataset!r} has no pruned stage under {root}")
    augmented = augment_set(pruned, aug, detector)
    storage.save_stage(root, args.dataset, augmented)
    print(f"wrote {len(augmented)} augmented series")
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
    backend = _backend_for(args.transport or "replay", args.fixtures)
    entries = querygen.discover_sources(backend, max_rounds=args.max_rounds)
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
        "collect": lambda a: _cmd_run(a, collect_only=True),
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
        if isinstance(exc.cause, (storage.IoFailureError, OSError)):
            return EXIT_IO
        if exc.stage in ("queries", "collect"):
            return EXIT_COLLECT
        return EXIT_STAGE
    except pipeline.PruningEmptyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_PRUNE
    except (
        sources.AuthMissingError,
        sources.FixtureMissingError,
        sources.EmptyResultError,
        querygen.BackendFailureError,
        querygen.NoQueriesFoundError,
        sources.QueryFieldError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLECT
    except (storage.IoFailureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
