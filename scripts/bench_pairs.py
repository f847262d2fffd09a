#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout against a change checkout.

For every workload and seed, runs ``perfbench/run.py --trace 0`` once in
each checkout, alternating which of the two runs first, and writes one
JSON file: per workload and end-to-end metric, each side's runs, median
and inclusive quartiles, the change's wins out of the pairs (in the
direction ``BENCHMARK.json`` declares better), the ratio of the medians and
a ``verdict`` against the metric's ``bound``; the jobs attempted and failed;
each run's tree digest, and ``digests_equal``, true when both sides wrote the same digest on every
seed (each seed where they differ is also warned about on stderr).
With ``--traced``, every seed also gets a pair of ``--trace 1`` runs, in the
same alternating order, and each per-layer metric is compared like an
end-to-end one (``per_layer``: both sides' runs, medians, quartiles, wins).
It ends by printing one summary line per workload and end-to-end metric:
parent -> change median, the change's wins, the parent's IQR, the verdict and
``digests_equal``. Only the standard library is used.

Bench two fresh copies made the same way, side by side: a working checkout
differs from a fresh one in where its files lie, and on a workload that creates
thousands of files that alone can move ``run_s`` by more than its bound. The
script warns when either side is the checkout it runs from.

    git clone -q . ../change && git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --seeds 701-710 --seconds 30 --out BENCH_7.json --note "what the change does"
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST = re.compile(r"tree digest (\S+)")


def parse_seeds(text: str) -> list[int]:
    """``701-710`` or ``5,9,12``."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` process in ``checkout``: its job counts,
    metric values and tree digest."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(command)} in {checkout} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = DIGEST.search(proc.stdout)
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "digest": digest.group(1) if digest else None,
    }


def summarize(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(value, 4) for value in runs]}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' summaries, the change's wins and the ratio of the medians
    (None when the parent's median is 0, as a count of retries may be)."""
    wins = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    base = statistics.median(parent)
    return {
        "parent": summarize(parent),
        "change": summarize(change),
        "change_wins": f"{wins}/{len(parent)}",
        "change_over_parent": round(statistics.median(change) / base, 4) if base else None,
    }


def verdict(result: dict, better: str, bound: float) -> str:
    """What a compared end-to-end metric shows, with ``bound`` the share of the
    parent's median by which it may worsen: ``gain`` when the change wins at
    least 9/10 of the pairs and its median is better by more than the parent's
    IQR; else ``worse`` when its median is worse by more than the bound;
    ``unresolved`` when the parent's IQR is wider than the bound, so that no
    difference within it can be told from spread; ``within bound`` otherwise."""
    parent, change = result["parent"], result["change"]
    wins, pairs = (int(part) for part in result["change_wins"].split("/"))
    gain = parent["median"] - change["median"]
    gain = gain if better == "lower" else -gain
    iqr, allowed = parent["q3"] - parent["q1"], bound * abs(parent["median"])
    if 10 * wins >= 9 * pairs and gain > iqr:
        return "gain"
    if -gain > allowed:
        return "worse"
    if iqr > allowed:
        return "unresolved"
    return "within bound"


def digests_equal(workload: str, seeds: list[int], digests: dict[str, list]) -> bool:
    """Whether parent and change wrote one tree digest on every seed; warns on
    stderr for each seed where they differ or a run printed none."""
    equal = True
    for seed, parent, change in zip(seeds, digests["parent"], digests["change"]):
        if parent is None or parent != change:
            print(f"warning: {workload} seed {seed}: tree digest {parent} (parent) "
                  f"!= {change} (change)", file=sys.stderr)
            equal = False
    return equal


def summary_lines(end_to_end: dict, metrics: list[str]) -> list[str]:
    """One line per workload and metric: parent -> change median with the
    relative change, the change's wins, the parent's IQR, the verdict and
    ``digests_equal``."""
    lines = []
    for workload, entry in end_to_end.items():
        for metric in metrics:
            result = entry[metric]
            parent, change = result["parent"], result["change"]
            lines.append(
                f"{workload} {metric}: {parent['median']:g} -> {change['median']:g} "
                f"({result['change_over_parent'] - 1:+.1%}), change wins {result['change_wins']}, "
                f"parent IQR {parent['q1']:g}-{parent['q3']:g}, verdict {result['verdict']}, "
                f"digests_equal {str(entry['digests_equal']).lower()}")
    return lines


def machine() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="701-710 or 5,9,12")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--traced", action="store_true",
                        help="add a pair of --trace 1 runs per seed for the per-layer metrics")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--note", default="", help="what the change does")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if len(args.seeds) < 2:
        sys.exit("quartiles need at least two seeds")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if checkout == Path(__file__).resolve().parent.parent:
            print(f"warning: --{side} {checkout} is the checkout this script runs from; "
                  "bench two fresh copies made the same way", file=sys.stderr)
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    layer_better = {metric["name"]: metric["better"] for metric in declared["per_layer"]}
    workloads = args.workload or [workload["name"] for workload in declared["workloads"]]
    report = {
        "change": args.note,
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "machine": machine(),
        "method": "one parent and one change run per seed (with --traced, also one --trace 1 "
                  "run each for per_layer), alternating which runs first; each value is that "
                  "run's median in the unit perfbench reports; quartiles are inclusive; wins "
                  "count pairs where the change is better",
        "end_to_end": {},
    }
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        traced: dict[str, list[dict]] = {"parent": [], "change": []}
        passes = [(0, runs), (1, traced)] if args.traced else [(0, runs)]
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for trace, into in passes:
                for side in order:
                    into[side].append(run_once(checkouts[side], workload, seed, args.seconds,
                                               trace))
                    print(f"{workload} seed {seed} {side} trace {trace}: "
                          f"{json.dumps(into[side][-1]['metrics'])}", file=sys.stderr, flush=True)
        entry: dict = {
            "seeds": args.seeds,
            "jobs": {side: {"attempted": sum(r["attempted"] for r in side_runs),
                            "failed": sum(r["failed"] for r in side_runs)}
                     for side, side_runs in runs.items()},
        }
        for metric, direction in better.items():
            result = compare(*([r["metrics"][metric] for r in runs[side]]
                               for side in ("parent", "change")), direction)
            entry[metric] = {**result, "verdict": verdict(result, direction, bounds[metric])}
        entry["digests"] = {side: [r["digest"] for r in side_runs]
                            for side, side_runs in runs.items()}
        entry["digests_equal"] = digests_equal(workload, args.seeds, entry["digests"])
        report["end_to_end"][workload] = entry
        if args.traced:
            report.setdefault("per_layer", {})[workload] = {
                metric: compare(*([r["metrics"][metric] for r in traced[side]]
                                  for side in ("parent", "change")), direction)
                for metric, direction in layer_better.items()
            }
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # kept after every workload
    print("\n".join(summary_lines(report["end_to_end"], list(better))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
