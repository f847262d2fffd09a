#!/usr/bin/env python3
"""Monte Carlo calibration of the adaptive penalty scale.

Sweeps the scale constant over a grid and reports, per value:

* no-shift rate on seeded standard normal noise (length 120, 100 seeds),
  target >= 90/100;
* shift rate on a one-sigma midpoint step (length 120, 100 seeds),
  target >= 95/100;
* shift rate and boundary accuracy on a strong step (length 200,
  shift 5, noise sd 0.5, 100 seeds), targets >= 95/100 and within +-3.

Run, pick the scale that clears every target with margin, and freeze it
as ``changepoint.PENALTY_SCALE``.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shiftminer.changepoint import DetectorConfig, ShiftCategory, classify, detect
from shiftminer.series import Source, Stage, TimeSeries

import shiftminer.changepoint as cp


def _series(values: np.ndarray) -> TimeSeries:
    start = date(2015, 1, 1)
    stamps = tuple(start + timedelta(days=i) for i in range(values.size))
    return TimeSeries("cal", Source.SYNTHETIC, stamps, tuple(values), Stage.ORIGINAL)


def noise_no_shift_rate(scale: float, seeds: int = 100, n: int = 120) -> float:
    config = DetectorConfig()
    hits = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        series = _series(rng.normal(0.0, 1.0, n))
        if classify(series, config) is ShiftCategory.NO_SHIFT:
            hits += 1
    return hits / seeds


def one_sigma_step_rate(scale: float, seeds: int = 100, n: int = 120) -> float:
    config = DetectorConfig()
    hits = 0
    for seed in range(seeds):
        rng = np.random.default_rng(10_000 + seed)
        values = rng.normal(0.0, 1.0, n)
        values[n // 2 :] += 1.0
        if classify(_series(values), config) is ShiftCategory.SHIFT:
            hits += 1
    return hits / seeds


def strong_step_rates(scale: float, seeds: int = 100, n: int = 200) -> tuple[float, float]:
    config = DetectorConfig()
    shift_hits = 0
    near_hits = 0
    for seed in range(seeds):
        rng = np.random.default_rng(20_000 + seed)
        values = rng.normal(0.0, 0.5, n)
        values[n // 2 :] += 5.0
        series = _series(values)
        if classify(series, config) is ShiftCategory.SHIFT:
            shift_hits += 1
            boundaries = detect(series, config).boundaries
            if any(abs(b - n // 2) <= 3 for b in boundaries[:-1]):
                near_hits += 1
    return shift_hits / seeds, near_hits / seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scales", type=float, nargs="+", default=[1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0]
    )
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()

    print(f"{'scale':>6} {'noise H0':>9} {'1-sigma H1':>11} {'strong H1':>10} {'near +-3':>9}")
    for scale in args.scales:
        cp.PENALTY_SCALE = scale
        h0 = noise_no_shift_rate(scale, args.seeds)
        h1_weak = one_sigma_step_rate(scale, args.seeds)
        h1_strong, near = strong_step_rates(scale, args.seeds)
        print(f"{scale:>6.2f} {h0:>9.2f} {h1_weak:>11.2f} {h1_strong:>10.2f} {near:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
