#!/usr/bin/env python3
"""Materialize the offline replay corpus.

Writes, under the chosen root:

* recorded-style response fixtures for all four connectors (one query
  each, including a two-page paginated energy example);
* a 241-query macro-style corpus with responses, its query file, and a
  ready-to-run pipeline config;
* a completion fixture so query generation also works in replay mode.

Everything is deterministic in the seed, so the tree can be deleted and
rebuilt at will. Afterwards try:

    shiftminer run --config fixtures/fred-demo-config.json
    shiftminer report --dataset fred-demo
    shiftminer split --dataset fred-demo --ratio 0.8 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shiftminer import demo
from shiftminer.sources import load_queries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path("fixtures"))
    parser.add_argument("--output-dir", type=Path, default=Path("data"))
    parser.add_argument("--count", type=int, default=241)
    parser.add_argument("--seed", type=int, default=20240704)
    args = parser.parse_args()

    written = demo.build_connector_fixtures(args.root)
    print(f"connector fixtures: {', '.join(sorted(written))}")

    query_file = demo.build_fred_corpus(args.root, count=args.count, seed=args.seed)
    print(f"macro corpus: {args.count} queries -> {query_file}")

    queries = load_queries(query_file)
    fixture = demo.build_llm_fixture(args.root, queries, query_count=min(50, args.count))
    print(f"completion fixture: {fixture}")

    config = demo.build_demo_config(args.root, args.output_dir, query_file)
    print(f"pipeline config: {config}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
