from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftminer.changepoint import (
    ChangePointSet,
    DetectorConfig,
    EmptySegmentError,
    InfeasibleKError,
    InvalidSegmentationError,
    OutOfBoundsError,
    SeriesTooShortError,
    ShiftCategory,
    binary_segmentation,
    classify,
    classify_rows,
    default_penalty,
    detect,
    exact_segmentation,
    l2_cost,
    prune,
    total_objective,
)
from shiftminer.series import Stage

from conftest import make_series, step_values


# --- independent oracles -----------------------------------------------------


def oracle_segment_cost(values, start, end) -> float:
    seg = [float(v) for v in values[start:end]]
    mean = sum(seg) / len(seg)
    return sum((v - mean) ** 2 for v in seg)


def oracle_enumerate(values, k: int, min_seg: int = 2):
    """Exhaustive minimum-cost segmentation with exactly k internal
    boundaries; lexicographically smallest boundary tuple on ties."""
    n = len(values)
    best_cost = None
    best_bounds = None
    for combo in itertools.combinations(range(1, n), k):
        bounds = list(combo) + [n]
        prev = 0
        if any(b - a < min_seg for a, b in zip([0] + bounds[:-1], bounds)):
            continue
        cost = 0.0
        for b in bounds:
            cost += oracle_segment_cost(values, prev, b)
            prev = b
        key = (cost, tuple(bounds))
        if best_cost is None or cost < best_cost or (cost == best_cost and tuple(bounds) < best_bounds):
            best_cost = cost
            best_bounds = tuple(bounds)
    return best_bounds, best_cost


def oracle_best_single_split(values, min_seg: int = 2):
    """Max gain over all admissible single splits, smallest index on ties."""
    n = len(values)
    whole = oracle_segment_cost(values, 0, n)
    best = None
    for t in range(min_seg, n - min_seg + 1):
        gain = whole - oracle_segment_cost(values, 0, t) - oracle_segment_cost(values, t, n)
        if best is None or gain > best[0]:
            best = (gain, t)
    return best


# --- l2_cost ------------------------------------------------------------------


class TestL2Cost:
    def test_constant_segment(self):
        assert l2_cost([1, 1, 1, 1], 0, 4) == 0.0

    def test_two_level_segment(self):
        assert l2_cost([0, 0, 1, 1], 0, 4) == pytest.approx(1.0, abs=1e-15)

    def test_constant_subsegment(self):
        assert l2_cost([0, 0, 1, 1], 0, 2) == 0.0

    def test_empty_segment(self):
        with pytest.raises(EmptySegmentError):
            l2_cost([1, 2, 3], 2, 2)

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBoundsError):
            l2_cost([1, 2, 3], 0, 4)

    def test_scale_covariance_exact_power_of_two(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1, 30)
        base = l2_cost(values, 3, 27)
        for c in (2.0, 4.0, 0.5):
            assert l2_cost(values * c, 3, 27) == pytest.approx(c * c * base, rel=1e-12)

    @given(st.floats(0.1, 15.0), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_scale_covariance_random(self, c, seed):
        values = np.random.default_rng(seed).normal(0, 1, 24)
        assert l2_cost(values * c, 0, 24) == pytest.approx(c * c * l2_cost(values, 0, 24), rel=1e-9)


# --- total_objective ------------------------------------------------------------


class TestTotalObjective:
    def test_constant_series_single_segment(self):
        cps = ChangePointSet((8,), 0.0)
        for beta in (0.0, 1.0, 100.0):
            config = DetectorConfig(penalty_beta=beta)
            assert total_objective([3.0] * 8, cps, config) == 0.0

    def test_internal_boundary_charged(self):
        config = DetectorConfig(penalty_beta=0.1)
        assert total_objective([0, 0, 1, 1], ChangePointSet((2, 4), 0.0), config) == pytest.approx(0.1)

    def test_end_sentinel_free(self):
        config = DetectorConfig(penalty_beta=0.1)
        assert total_objective([0, 0, 1, 1], ChangePointSet((4,), 0.0), config) == pytest.approx(1.0)

    def test_invalid_segmentation(self):
        config = DetectorConfig()
        with pytest.raises(InvalidSegmentationError):
            total_objective([0, 0, 1, 1], ChangePointSet((3, 4), 0.0), config)
        with pytest.raises(InvalidSegmentationError):
            total_objective([0, 0, 1, 1], ChangePointSet((2,), 0.0), config)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_decomposition_identity(self, values):
        config = DetectorConfig(penalty_beta=1.0)
        whole = total_objective(values, ChangePointSet((len(values),), 0.0), config)
        assert whole == l2_cost(values, 0, len(values))


# --- binary segmentation ----------------------------------------------------------


FLAT20 = [0.01, -0.02, 0.0, 0.015, -0.01, 0.02, 0.005, -0.015, 0.01, 0.0,
          -0.005, 0.012, -0.02, 0.018, 0.0, -0.01, 0.008, -0.003, 0.015, -0.012]


class TestBinarySegmentation:
    def test_clear_step(self):
        values = [0.0] * 50 + [5.0] * 50
        gain, split = oracle_best_single_split(values)
        assert split == 50 and gain > 1.0
        result = binary_segmentation(values, DetectorConfig(penalty_beta=1.0))
        assert result.boundaries == (50, 100)

    def test_flat_series_no_split(self):
        gain, _ = oracle_best_single_split(FLAT20)
        assert gain < 1.0
        result = binary_segmentation(FLAT20, DetectorConfig(penalty_beta=1.0))
        assert result.boundaries == (20,)

    def test_known_k_single_split(self):
        values = [0.0, 0.0, 0.0, 9.0, 9.0, 9.0]
        config = DetectorConfig(known_k=1, min_segment_size=1)
        gain, split = oracle_best_single_split(values, min_seg=1)
        assert split == 3
        result = binary_segmentation(values, config)
        assert result.boundaries == (3, 6)

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            binary_segmentation([1.0], DetectorConfig())

    def test_max_changepoints_cap(self):
        values = [0.0] * 20 + [10.0] * 20 + [0.0] * 20
        result = binary_segmentation(values, DetectorConfig(penalty_beta=0.5, max_changepoints=1))
        assert result.n_internal == 1

    def test_boundary_count_monotone_in_beta(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(m, 0.5, 30) for m in (0, 4, -2, 6)])
        counts = []
        for beta in (0.01, 0.1, 1.0, 5.0, 25.0, 125.0, 1e4):
            result = binary_segmentation(values, DetectorConfig(penalty_beta=beta))
            counts.append(result.n_internal)
        assert counts == sorted(counts, reverse=True)

    def test_determinism_across_threads(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0, 1, 150)
        values[60:] += 2.0
        config = DetectorConfig()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: binary_segmentation(values, config), range(32)))
        assert len({r.boundaries for r in results}) == 1
        assert len({r.objective for r in results}) == 1


# --- exact segmentation -------------------------------------------------------------


class TestExactSegmentation:
    def test_simple_step(self):
        bounds, _ = oracle_enumerate([0.0, 0.0, 9.0, 9.0], 1)
        assert bounds == (2, 4)
        result = exact_segmentation([0.0, 0.0, 9.0, 9.0], 1, DetectorConfig(penalty_beta=0.0))
        assert result.boundaries == (2, 4)

    def test_k_zero(self):
        result = exact_segmentation([5.0, 1.0, 2.0], 0, DetectorConfig())
        assert result.boundaries == (3,)

    def test_infeasible(self):
        with pytest.raises(InfeasibleKError):
            exact_segmentation([1.0, 2.0, 3.0, 4.0], 2, DetectorConfig())

    def test_matches_enumeration_k2_n16(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, 16)
        config = DetectorConfig(penalty_beta=0.0)
        bounds, _ = oracle_enumerate(values, 2)
        assert exact_segmentation(values, 2, config).boundaries == bounds

    def test_tie_break_lexicographic(self):
        # constant data: every admissible placement costs 0
        values = [7.0] * 8
        result = exact_segmentation(values, 2, DetectorConfig())
        assert result.boundaries == (2, 4, 8)

    @given(st.integers(0, 100_000), st.integers(6, 16), st.integers(1, 2))
    @settings(max_examples=120, deadline=None)
    def test_matches_enumeration_random(self, seed, n, k):
        values = np.random.default_rng(seed).normal(0, 1, n)
        bounds, _ = oracle_enumerate(values, k)
        result = exact_segmentation(values, k, DetectorConfig(penalty_beta=0.0))
        assert result.boundaries == bounds

    @given(st.integers(0, 100_000), st.integers(8, 64), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_dominates_binary_fixed_k(self, seed, n, k):
        if (k + 1) * 2 > n:
            n = (k + 1) * 2
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, n)
        values[n // 2:] += rng.normal(0, 2)
        config = DetectorConfig(penalty_beta=0.0)
        exact = exact_segmentation(values, k, config)
        greedy = binary_segmentation(values, DetectorConfig(penalty_beta=0.0, known_k=k))
        if greedy.n_internal == k:
            exact_cost = total_objective(values, exact, config)
            greedy_cost = total_objective(values, greedy, config)
            assert exact_cost <= greedy_cost + 1e-9


# --- classify / prune --------------------------------------------------------------


class TestClassify:
    def test_constant_series(self):
        assert classify(make_series([4.2] * 100), DetectorConfig()) is ShiftCategory.NO_SHIFT

    def test_step_with_noise(self):
        values = step_values(100, shift=5.0, noise=0.5, seed=1)
        series = make_series(values)
        assert classify(series, DetectorConfig()) is ShiftCategory.SHIFT
        z = (values - values.mean()) / values.std()
        _, oracle_split = oracle_best_single_split(list(z))
        boundaries = detect(series, DetectorConfig()).boundaries
        assert any(abs(b - oracle_split) <= 3 for b in boundaries[:-1])

    def test_noise_mostly_no_shift(self):
        config = DetectorConfig()
        hits = 0
        for seed in range(30):
            values = np.random.default_rng(seed).normal(0, 1, 120)
            if classify(make_series(values), config) is ShiftCategory.NO_SHIFT:
                hits += 1
        assert hits >= 27

    @given(st.integers(0, 10_000), st.floats(0.05, 50.0), st.floats(-100.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, seed, scale, offset):
        values = np.random.default_rng(seed).normal(0, 1, 80)
        values[40:] += 1.5
        config = DetectorConfig()
        base = classify(make_series(values), config)
        transformed = classify(make_series(values * scale + offset), config)
        assert base is transformed

    def test_default_penalty_positive(self):
        values = np.random.default_rng(0).normal(0, 1, 50)
        assert default_penalty(values) > 0.0
        assert default_penalty([3.0, 3.0, 3.0]) == 0.0


# --- first-split shift test against full binary segmentation -------------------------


KINDS = ("walk", "step", "noise", "constant")


def make_values(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "walk":
        return np.cumsum(rng.normal(0, 1, n))
    if kind == "step":
        return step_values(n, shift=float(rng.uniform(0.2, 3.0)), noise=1.0, seed=seed)
    if kind == "noise":
        return rng.normal(0, 1, n)
    return np.full(n, float(rng.uniform(-5, 5)))


def zscore(values: np.ndarray) -> np.ndarray:
    std = float(values.std())
    return (values - values.mean()) / std if std > 0 else np.zeros_like(values)


def oracle_shift(values: np.ndarray, config: DetectorConfig) -> bool:
    """Shift exactly when full binary segmentation keeps an internal boundary."""
    return binary_segmentation(zscore(values), config).boundaries != (values.size,)


SHIFT_CONFIGS = [
    DetectorConfig(),
    DetectorConfig(min_segment_size=1),
    DetectorConfig(min_segment_size=5),
    DetectorConfig(min_segment_size=30),
    DetectorConfig(penalty_beta=0.0),
    DetectorConfig(penalty_beta=4.0, min_segment_size=3),
    DetectorConfig(max_changepoints=1),
    DetectorConfig(max_changepoints=1, min_segment_size=8),
    DetectorConfig(known_k=0),
    DetectorConfig(known_k=1),
    DetectorConfig(known_k=2, min_segment_size=4),
    DetectorConfig(known_k=1, min_segment_size=25),
]


class TestFirstSplitShiftTest:
    @pytest.mark.parametrize("config", SHIFT_CONFIGS)
    def test_seeded_matches_binary_segmentation(self, config):
        m = config.min_segment_size
        # lengths around 2 * min_segment_size, where no split fits below it
        lengths = {max(2, m), max(2, 2 * m - 1), 2 * m, 2 * m + 1, 12, 60, 150}
        lengths = sorted(n for n in lengths if n >= m)
        for kind in KINDS:
            for n in lengths:
                for seed in range(4):
                    values = make_values(kind, n, seed)
                    got = classify(make_series(values), config) is ShiftCategory.SHIFT
                    assert got == oracle_shift(values, config), (kind, n, seed)

    @given(
        st.sampled_from(KINDS),
        st.integers(2, 120),
        st.integers(0, 10_000),
        st.sampled_from(SHIFT_CONFIGS),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_matches_binary_segmentation(self, kind, n, seed, config):
        n = max(n, config.min_segment_size)
        values = make_values(kind, n, seed)
        got = classify(make_series(values), config) is ShiftCategory.SHIFT
        assert got == oracle_shift(values, config)

    @given(
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
        st.integers(2, 90),
        st.integers(0, 10_000),
        st.sampled_from(SHIFT_CONFIGS),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_one_series_at_a_time(self, kinds, n, seed, config):
        n = max(n, config.min_segment_size)
        rows = np.stack([make_values(kind, n, seed + i) for i, kind in enumerate(kinds)])
        expect = [classify(make_series(row), config) is ShiftCategory.SHIFT for row in rows]
        assert classify_rows(rows, config).tolist() == expect

    def test_too_short_raises_like_binary_segmentation(self):
        config = DetectorConfig(min_segment_size=6)
        values = np.arange(5.0)
        with pytest.raises(SeriesTooShortError):
            binary_segmentation(values, config)
        with pytest.raises(SeriesTooShortError):
            classify(make_series(values), config)
        with pytest.raises(SeriesTooShortError):
            classify_rows(values[np.newaxis], config)

    def test_rows_must_be_two_dimensional(self):
        with pytest.raises(ValueError):
            classify_rows(np.zeros(10), DetectorConfig())


class TestPrune:
    def test_keeps_only_shifted(self):
        constant1 = make_series([1.0] * 60, sid="c1")
        step = make_series(step_values(60, 5.0), sid="s")
        constant2 = make_series([2.0] * 60, sid="c2")
        kept = prune([constant1, step, constant2], DetectorConfig())
        assert [s.id for s in kept] == ["s"]
        assert kept[0].stage is Stage.PRUNED

    def test_empty_input(self):
        assert prune([], DetectorConfig()) == []

    def test_all_shifted_identity(self):
        series = [make_series(step_values(60, 5.0, seed=i), sid=f"s{i}") for i in range(5)]
        kept = prune(series, DetectorConfig())
        assert [s.id for s in kept] == [f"s{i}" for i in range(5)]

    def test_too_short_series_logged_and_skipped(self, caplog):
        short = make_series([1.0, 2.0, 3.0], sid="short")
        step = make_series(step_values(60, 5.0), sid="s")
        with caplog.at_level("WARNING", logger="shiftminer.changepoint"):
            kept = prune([short, step], DetectorConfig(min_segment_size=5))
        assert [s.id for s in kept] == ["s"]
        assert "short" in caplog.text

    def test_other_errors_propagate(self, monkeypatch):
        def broken(series, config):
            raise RuntimeError("detector broke")

        monkeypatch.setattr("shiftminer.changepoint.classify", broken)
        with pytest.raises(RuntimeError, match="detector broke"):
            prune([make_series(step_values(60, 5.0))], DetectorConfig())


def test_exact_segmentation_handles_long_series():
    rng = np.random.default_rng(42)
    values = np.concatenate([rng.normal(m, 1.0, 400) for m in (0.0, 6.0, -6.0)])
    import time as _time

    started = _time.perf_counter()
    result = exact_segmentation(values, 2, DetectorConfig(penalty_beta=0.0))
    elapsed = _time.perf_counter() - started
    assert elapsed < 5.0
    assert abs(result.boundaries[0] - 400) <= 2
    assert abs(result.boundaries[1] - 800) <= 2
