#!/usr/bin/env python3
"""Benchmark of the shiftminer pipeline on seeded replay corpora.

One job is what a user of the quick start waits for: ``pipeline.run`` from
replay fixtures to ``manifest.json``, then ``pipeline.split_dataset``. Jobs
run one at a time in this process (a closed loop with one client), each
into a fresh output directory that is removed outside the timed region.
Every job's output is checked, and the last line of standard output is a
JSON object with the metrics.

    python3 perfbench/run.py --workload demo-30x --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics, each time scaled to reference
seconds by the speed gauge of ``speed.py``; ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics, the tracing
overhead and micro-timings of the hot kernels, and dumps the spans under
``.perfbench/traces/``. ``--workload all`` runs every workload in both
modes, each in its own process. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("demo-30x", "walk-verify", "wide-collect")

# Set-ups per run (setup_s is their median): at least three, more while
# they take under SETUP_MIN_S together.
SETUP_MIN_BUILDS, SETUP_MIN_S, SETUP_MAX_BUILDS = 3, 3.0, 30
MIN_JOBS = 3  # untraced jobs per run, even when --seconds runs out first
# An untraced job splits again until SPLIT_MIN_S are spent, so a quick
# split gets as many samples as a slow one.
SPLIT_MIN_S, SPLIT_MAX = 1.0, 5
SPLIT_RATIO, SPLIT_SEED = 0.8, 7

sys.path.insert(0, str(ROOT / "src"))
try:
    import micro
    import shiftminer
    import spans
    import speed
    import workloads
    from shiftminer import pipeline, sources, storage
    from shiftminer.series import Stage
except ImportError as exc:  # reported by main(); nothing to measure
    MISSING: str | None = str(exc)
else:
    MISSING = None
    if not Path(shiftminer.__file__).resolve().is_relative_to(ROOT / "src"):
        MISSING = f"shiftminer was imported from {shiftminer.__file__}, not from this checkout"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_info() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# --- statistics -------------------------------------------------------------------


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    for q in (99, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            return f"p{q}={statistics.quantiles(samples, n=100)[q - 1]:.6g}"
    return "no tail (fewer than ten samples beyond p75)"


# --- output check -------------------------------------------------------------------


def tree_files(directory: Path) -> list[tuple[str, Path]]:
    """(relative path, path) of every file under ``directory``, sorted."""
    return sorted(
        (p.relative_to(directory).as_posix(), p) for p in directory.rglob("*") if p.is_file()
    )


def tree_digest(files: list[tuple[str, Path]]) -> str:
    """sha256 of the sorted (relative path, bytes) stream, one file in memory at a time."""
    h = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        h.update(rel.encode("utf-8") + b"\0" + len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def check_job(workload, manifest, summary, counts=None) -> list[str]:
    """What is wrong with one job's output; ``counts`` are a traced job's counters."""
    problems = []
    got = (manifest.count_original, manifest.count_pruned, manifest.count_augmented)
    want = (workload.expected_original, workload.expected_pruned, workload.expected_augmented)
    if got != want:
        problems.append(f"manifest counts {got} != expected {want}")
    failed = manifest.notes.get("fetch_failures")
    if failed != str(workload.expected_failed_queries):
        problems.append(f"fetch_failures {failed} != {workload.expected_failed_queries}")
    split = summary["counts"]
    if split["train_parents"] + split["test_parents"] != manifest.count_pruned:
        problems.append(f"split parents {split} do not add up to {manifest.count_pruned}")
    if split["train_augmented"] != workload.factor * split["train_parents"]:
        problems.append(f"split train_augmented {split['train_augmented']} != factor x parents")
    if counts is not None:
        traced = (counts["sources.failed_queries"], counts["querygen.rejected"])
        want = (workload.expected_failed_queries, workload.expected_rejected_queries)
        if traced != want:
            problems.append(f"traced failed/rejected queries {traced} != {want}")
    return problems


# --- jobs -----------------------------------------------------------------------------


@dataclasses.dataclass
class Job:
    run_s: float
    split_s: list[float]
    digest: str
    problems: list[str]
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    # the untraced times in reference seconds (speed.scale)
    run_ref: float | None = None
    split_ref: list[float] = dataclasses.field(default_factory=list)


def run_job(workload, out_dir: Path, gauge, recorder=None) -> Job:
    """One ``run`` plus its ``split``s; with a recorder, traced and split once.
    Untraced, the gauge is measured before and after every timed call."""
    config = dataclasses.replace(workload.config, output_dir=out_dir)
    transport = sources.ReplayTransport(config.fixtures_dir)
    if recorder is None:
        before = gauge.measure()
        start = perf_counter()
        manifest = pipeline.run(config, now=workloads.NOW, transport=transport)
        ran = perf_counter()
        after = gauge.measure()
        run_ref = speed.scale(ran - start, before, after)
        splits, split_ref = [], []
        while sum(splits) < SPLIT_MIN_S and len(splits) < SPLIT_MAX:
            before = after
            begin = perf_counter()
            summary = pipeline.split_dataset(out_dir, config.dataset_name, SPLIT_RATIO, SPLIT_SEED)
            splits.append(perf_counter() - begin)
            after = gauge.measure()
            split_ref.append(speed.scale(splits[-1], before, after))
    else:
        transport = spans.TracingTransport(transport, recorder)
        with spans.instrument(recorder):
            start = perf_counter()
            with recorder.span("pipeline.run"):
                manifest = pipeline.run(config, now=workloads.NOW, transport=transport)
            ran = perf_counter()
            with recorder.span("pipeline.split_dataset"):
                summary = pipeline.split_dataset(
                    out_dir, config.dataset_name, SPLIT_RATIO, SPLIT_SEED
                )
            splits = [perf_counter() - ran]
    files = tree_files(out_dir / config.dataset_name)
    counts = recorder.counts if recorder is not None else None
    problems = check_job(workload, manifest, summary, counts)
    job = Job(ran - start, splits, tree_digest(files), problems)
    if recorder is None:
        job.run_ref, job.split_ref = run_ref, split_ref
    else:
        written = [path.stat().st_size for rel, path in files if not rel.startswith("splits/")]
        job.layers = spans.layer_metrics(recorder, job.run_s, len(written), sum(written))
    return job


class Runner:
    """Runs jobs, checks each one and keeps the samples."""

    def __init__(self, workload, work: Path, gauge) -> None:
        self.workload = workload
        self.work = work
        self.gauge = gauge
        self.jobs: list[Job] = []
        self.failed = 0
        self.digest: str | None = None
        self.last_pruned = []
        self.durations: list[float] = []  # wall time per job, checks included

    def job(self, recorder=None, keep_pruned: bool = False) -> Job | None:
        out_dir = self.work / f"job{len(self.jobs) + self.failed}"
        label = "traced" if recorder is not None else "untraced"
        begin = perf_counter()
        try:
            job = run_job(self.workload, out_dir, self.gauge, recorder)
            if self.digest is None:
                self.digest = job.digest
            elif job.digest != self.digest:
                job.problems.append(f"tree digest {job.digest[:16]} != first {self.digest[:16]}")
            if keep_pruned:
                name = self.workload.config.dataset_name
                self.last_pruned = storage.load_stage(out_dir, name, Stage.PRUNED)
        except Exception:
            traceback.print_exc()
            job = None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.durations.append(perf_counter() - begin)
        if job is None or job.problems:
            self.failed += 1
            print(f"job failed ({label}): {job.problems if job else 'raised'}", file=sys.stderr)
            return None
        self.jobs.append(job)
        print(f"job {len(self.jobs)} ({label}): run {job.run_s:.4f} s, split "
              f"{', '.join(f'{t:.4f}' for t in job.split_s)} s, digest {job.digest[:16]}")
        return job

    def time_left(self, start: float, seconds: float, jobs: int = 1) -> bool:
        """Whether ``jobs`` more typical jobs still end within ``seconds`` of ``start``."""
        typical = statistics.median(self.durations) if self.durations else 0.0
        return perf_counter() - start + jobs * typical <= seconds

    @property
    def attempted(self) -> int:
        return len(self.jobs) + self.failed


# --- modes ------------------------------------------------------------------------------


def setup(name: str, seed: int, work: Path, gauge, min_builds: int = 1, min_seconds: float = 0.0):
    """Set the workload up (build its fixture corpus, then work out the
    counts a correct run gives) at least ``min_builds`` times, and more
    while that took under ``min_seconds``; keep the last one. Returns
    the workload and each set-up's time in reference seconds, scaled by
    the gauge measured before the first set-up and after the last."""
    times: list[float] = []
    before = gauge.measure()
    while len(times) < min_builds or (sum(times) < min_seconds and len(times) < SETUP_MAX_BUILDS):
        if times:
            shutil.rmtree(root)
        root = work / f"corpus{len(times)}"
        start = perf_counter()
        workload = workloads.BUILDERS[name](root, seed)
        workloads.resolve_expected(workload)
        times.append(perf_counter() - start)
    after = gauge.measure()
    print(f"setup: {len(times)} set-up(s), {', '.join(f'{t:.4f}' for t in times)} s wall; expected "
          f"{workload.expected_original}/{workload.expected_pruned}/{workload.expected_augmented}, "
          f"{workload.expected_failed_queries} failing queries")
    return workload, [speed.scale(t, before, after) for t in times]


def end_to_end(args, work: Path):
    gauge = speed.Gauge()
    workload, setup_times = setup(
        args.workload, args.seed, work, gauge, SETUP_MIN_BUILDS, SETUP_MIN_S
    )
    runner = Runner(workload, work, gauge)
    start = perf_counter()
    while runner.attempted < MIN_JOBS or runner.time_left(start, args.seconds):
        runner.job()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not runner.jobs:
        return runner, None
    samples = {
        "run_s": [j.run_ref for j in runner.jobs],
        "split_s": [t for j in runner.jobs for t in j.split_ref],
        "peak_rss_mb": [peak_rss_mb],
        "setup_s": setup_times,
    }
    kernel = gauge.samples
    print(f"\nspeed gauge: kernel {statistics.median(kernel) * 1e3:.2f} ms median "
          f"({min(kernel) * 1e3:.2f} to {max(kernel) * 1e3:.2f}) over {len(kernel)} measurements, "
          f"nominal {speed.NOMINAL_S * 1e3:g} ms; wall medians: "
          f"run {statistics.median(j.run_s for j in runner.jobs):.6g} s, "
          f"split {statistics.median(t for j in runner.jobs for t in j.split_s):.6g} s")
    units = declared_units("end_to_end")
    print(f"\n{'metric':<14}{'median':>12}  unit  samples  tail")
    for name, values in samples.items():
        print(f"{name:<14}{statistics.median(values):>12.6g}  {units[name]:<4}  "
              f"{len(values):>7}  {tail(values)}")
    return runner, {name: statistics.median(v) for name, v in samples.items()}


def per_layer(args, work: Path):
    gauge = speed.Gauge()
    workload, _ = setup(args.workload, args.seed, work, gauge)
    runner = Runner(workload, work, gauge)
    plain, traced, recorders = [], [], []
    start = perf_counter()
    while not traced or runner.time_left(start, args.seconds, jobs=2):
        job = runner.job()
        if job is not None:
            plain.append(job.run_s)
        recorder = spans.Recorder()
        job = runner.job(recorder, keep_pruned=True)
        if job is not None:
            traced.append(job)
            recorders.append(recorder)
        if runner.failed:
            break
    if not traced or not plain:
        return runner, None
    metrics = {
        name: statistics.median(job.layers[name] for job in traced) for name in traced[0].layers
    }
    metrics["trace.overhead_s"] = (
        statistics.median(j.run_s for j in traced) - statistics.median(plain)
    )
    scratch = work / "micro"
    scratch.mkdir()
    metrics.update(
        micro.micro_timings(runner.last_pruned, workload.config, recorders[-1].query_of, scratch)
    )
    units = declared_units("per_layer")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    self_times = [r.self_times() for r in recorders]
    print("\nself time per span (last traced job):")
    print(f"{'span':<30}{'calls':>8}{'total s':>12}{'self s':>12}")
    for name, entry in sorted(self_times[-1].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<30}{entry['calls']:>8}{entry['total_s']:>12.4f}{entry['self_s']:>12.4f}")
    print(f"\n{'metric':<30}{'median':>14}  unit")
    for name, value in metrics.items():
        print(f"{name:<30}{value:>14.6g}  {units[name]}")
    traces = STATE / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    dump = traces / f"{args.workload}-seed{args.seed}.json"
    dump.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_info(),
        "digest": runner.digest,
        "untraced_run_s": plain,
        "jobs": [
            {"layers": j.layers, "self_times": st, "spans": r.spans}
            for j, st, r in zip(traced, self_times, recorders)
        ],
        "metrics": metrics,
    }))
    print(f"spans written to {dump.relative_to(ROOT)}")
    return runner, metrics


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"\n=== {name} trace {trace}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for one list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if MISSING is not None:
        print(f"cannot benchmark shiftminer from {ROOT / 'src'}: {MISSING}", file=sys.stderr)
        return 2
    # the recorded 404 and 503 answers of wide-collect are expected failures
    logging.getLogger("shiftminer").setLevel(logging.ERROR)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine_info().items()))
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner, metrics = (per_layer if args.trace else end_to_end)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"error_rate: {runner.failed}/{runner.attempted} jobs failed or failed the output check; "
          f"tree digest {runner.digest}")
    if metrics is None:
        print("no job completed", file=sys.stderr)
        return 1
    units = declared_units("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
