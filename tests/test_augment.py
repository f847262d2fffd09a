from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftminer.augment import (
    KNOT_MU,
    SPEED_FLOOR,
    WARP_SCALES,
    AugmentConfig,
    apply_window_slice,
    apply_window_warp,
    augment_set,
    derive_seed,
    gen_warp_path,
    time_warp,
    time_warp_rows,
    window_slice,
    window_slice_rows,
    window_warp,
    window_warp_rows,
)
from shiftminer.changepoint import DetectorConfig, SeriesTooShortError, ShiftCategory, classify
from shiftminer.series import AugmentMethod, Stage

from conftest import make_series, step_values


def oracle_linear_interp(xs, fp_x, fp_y):
    """Plain-python linear interpolation, independent of numpy."""
    out = []
    for x in xs:
        if x <= fp_x[0]:
            out.append(fp_y[0])
            continue
        if x >= fp_x[-1]:
            out.append(fp_y[-1])
            continue
        hi = next(i for i, v in enumerate(fp_x) if v >= x)
        lo = hi - 1
        t = (x - fp_x[lo]) / (fp_x[hi] - fp_x[lo])
        out.append(fp_y[lo] * (1 - t) + fp_y[hi] * t)
    return out


def oracle_window_warp(values, start, width, scale):
    """Straightforward reimplementation: stretch the window, re-grid to n."""
    values = [float(v) for v in values]
    n = len(values)
    window = values[start : start + width]
    target = max(1, round(scale * width))
    grid = [i * (width - 1) / (target - 1) if target > 1 else 0.0 for i in range(target)]
    stretched = oracle_linear_interp(grid, list(range(width)), window)
    combined = values[:start] + stretched + values[start + width :]
    m = len(combined)
    out_grid = [i * (m - 1) / (n - 1) for i in range(n)]
    return oracle_linear_interp(out_grid, list(range(m)), combined)


# One-row reference kernels: one numpy pass per candidate, with np.interp over
# the whole series and a 1-D spline solve. The row-batched kernels must match
# them bit for bit.


def one_row_warp_positions(n, config, seed):
    gen = np.random.default_rng(seed)
    anchors = np.linspace(0.0, n - 1.0, config.knot_count + 2)
    speeds = np.empty(config.knot_count + 2)
    speeds[0] = speeds[-1] = 1.0
    draws = gen.normal(KNOT_MU, config.knot_sigma, config.knot_count)
    speeds[1:-1] = np.maximum(SPEED_FLOOR, draws)
    inner, h = config.knot_count, anchors[1]
    tridiagonal = 4.0 * np.eye(inner) + np.eye(inner, k=1) + np.eye(inner, k=-1)
    curv = np.zeros(inner + 2)
    curv[1:-1] = np.linalg.solve(tridiagonal, 6.0 / (h * h) * np.diff(speeds, 2))
    x = np.arange(n, dtype=float)
    seg = np.minimum((x / h).astype(np.intp), inner)
    t, lo, hi = x - anchors[seg], curv[seg], curv[seg + 1]
    linear = (speeds[seg + 1] - speeds[seg]) / h - h * (2.0 * lo + hi) / 6.0
    spline = (((hi - lo) / (6.0 * h) * t + lo / 2.0) * t + linear) * t + speeds[seg]
    per_index = np.maximum(SPEED_FLOOR, spline)
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (per_index[:-1] + per_index[1:]))))
    path = cumulative * ((n - 1.0) / cumulative[-1])
    path[0], path[-1] = 0.0, float(n - 1)
    return path


def one_row_resample(values, positions):
    out = np.interp(positions, np.arange(values.size, dtype=float), values)
    return np.clip(out, values.min(), values.max())


def one_row_window_warp(values, start, width, scale):
    window = values[start : start + width]
    target = max(1, round(scale * width))
    stretched = np.interp(
        np.linspace(0.0, width - 1.0, target), np.arange(width, dtype=float), window
    )
    combined = np.concatenate((values[:start], stretched, values[start + width :]))
    return one_row_resample(combined, np.linspace(0.0, combined.size - 1.0, values.size))


def one_row_window_slice(values, start, length):
    window = values[start : start + length]
    return one_row_resample(window, np.linspace(0.0, length - 1.0, values.size))


def one_row_kernels(values, config, seed):
    """Time warp, window warp and window slice of ``values`` for one seed."""
    n = values.size
    warped = one_row_resample(values, one_row_warp_positions(n, config, seed))
    gen = np.random.default_rng(seed)
    width = max(1, round(0.10 * n))
    start = int(gen.integers(0, n - width + 1))
    window_warped = one_row_window_warp(values, start, width, float(gen.choice(WARP_SCALES)))
    length = max(2, round(0.90 * n))
    start = int(np.random.default_rng(seed).integers(0, n - length + 1))
    return warped, window_warped, one_row_window_slice(values, start, length)


class TestRowBatches:
    """Each row of a batch is bit-identical to the one-row reference kernels."""

    @given(st.integers(10, 4000), st.integers(1, 8), st.sampled_from([0.0, 0.2, 1.0]),
           st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
           st.integers(0, 2**32 - 1), st.floats(-6, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_one_row_kernels_bit_for_bit(self, n, knot_count, sigma, seeds,
                                                    data_seed, log_scale, signed_zeros):
        rng = np.random.default_rng(data_seed)
        if signed_zeros:  # ties of 0.0 and -0.0 in interpolation and clipping
            values = rng.choice([-0.0, 0.0, 1.0], n)
        else:
            values = rng.normal(0, 10.0**log_scale, n)
        config = AugmentConfig(knot_count=knot_count, knot_sigma=sigma, master_seed=0)
        batches = [kernel(values, config, seeds)
                   for kernel in (time_warp_rows, window_warp_rows, window_slice_rows)]
        for row, seed in enumerate(seeds):
            for batch, expect in zip(batches, one_row_kernels(values, config, seed)):
                assert batch[row].tobytes() == expect.tobytes()


def linspace_positions(n, seed):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(-3, 3, n))


class TestWarpPath:
    def test_sigma_zero_is_identity(self):
        config = AugmentConfig(knot_sigma=0.0, master_seed=0)
        path = gen_warp_path(64, config, 123)
        assert max(abs(p - i) for i, p in enumerate(path.mapping)) <= 1e-9

    def test_endpoints_and_monotonicity(self):
        for knot_count in (1, 3, 8):
            config = AugmentConfig(knot_count=knot_count, master_seed=0)
            for n, seed in itertools.product((4, 100, 4000), range(25)):
                path = gen_warp_path(n, config, seed)
                assert path.mapping[0] == 0.0
                assert path.mapping[-1] == n - 1.0
                diffs = np.diff(path.mapping)
                assert np.all(diffs > 0)

    @pytest.mark.parametrize("knot_count", range(1, 9))
    def test_matches_scipy_natural_spline(self, knot_count):
        interpolate = pytest.importorskip("scipy.interpolate")
        for sigma, n in itertools.product((0.2, 1.0), (4, 5, 17, 73, 400, 4000)):
            config = AugmentConfig(knot_count=knot_count, knot_sigma=sigma, master_seed=0)
            seed = derive_seed(knot_count, sigma, n)
            speeds = np.ones(knot_count + 2)
            draws = np.random.default_rng(seed).normal(KNOT_MU, sigma, knot_count)
            speeds[1:-1] = np.maximum(SPEED_FLOOR, draws)
            anchors = np.linspace(0.0, n - 1.0, knot_count + 2)
            spline = interpolate.CubicSpline(anchors, speeds, bc_type="natural")
            per_index = np.maximum(SPEED_FLOOR, spline(np.arange(n, dtype=float)))
            steps = np.cumsum(0.5 * (per_index[:-1] + per_index[1:]))
            expected = np.concatenate(([0.0], steps)) * ((n - 1.0) / steps[-1])
            path = gen_warp_path(n, config, seed).mapping
            np.testing.assert_allclose(path, expected, rtol=1e-12, err_msg=f"sigma={sigma} n={n}")

    def test_deterministic(self):
        config = AugmentConfig(master_seed=0)
        assert gen_warp_path(50, config, 7) == gen_warp_path(50, config, 7)

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            gen_warp_path(3, AugmentConfig(master_seed=0), 1)


class TestTimeWarp:
    def test_constant_series_unchanged(self):
        ts = make_series([4.0] * 30, stage=Stage.PRUNED)
        out = time_warp(ts, AugmentConfig(master_seed=0), 5)
        assert np.array_equal(out.values, ts.values)
        assert out.provenance.method is AugmentMethod.TIME_WARP
        assert out.timestamps is ts.timestamps

    def test_sigma_zero_identity(self):
        ts = make_series(np.random.default_rng(2).normal(0, 1, 40), stage=Stage.PRUNED)
        out = time_warp(ts, AugmentConfig(knot_sigma=0.0, master_seed=0), 5)
        assert max(abs(a - b) for a, b in zip(out.values, ts.values)) <= 1e-9

    def test_monotone_ramp_stays_monotone_in_range(self):
        ts = make_series([float(i) for i in range(100)], stage=Stage.PRUNED)
        for seed in range(20):
            out = time_warp(ts, AugmentConfig(master_seed=0), seed)
            values = np.array(out.values)
            assert values.min() >= 0.0 and values.max() <= 99.0
            assert np.all(np.diff(values) >= 0)

    def test_seed_recorded(self):
        ts = make_series([1.0, 2.0, 5.0, 3.0, 2.0, 8.0], stage=Stage.PRUNED)
        out = time_warp(ts, AugmentConfig(master_seed=0), 99)
        assert out.provenance.seed == 99


class TestWindowWarp:
    def test_constant_series_unchanged(self):
        ts = make_series([2.5] * 40, stage=Stage.PRUNED)
        out = window_warp(ts, AugmentConfig(master_seed=0), 3)
        assert np.array_equal(out.values, ts.values)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0, 1, 100)
        config = AugmentConfig(master_seed=0)
        ts = make_series(values, stage=Stage.PRUNED)
        for seed in range(10):
            out = window_warp(ts, config, seed)
            # replay the draws in the documented order: start, then scale
            gen = np.random.default_rng(seed)
            width = round(0.10 * 100)
            start = int(gen.integers(0, 100 - width + 1))
            scale = float(gen.choice(WARP_SCALES))
            expect = oracle_window_warp(values, start, width, scale)
            assert np.allclose(out.values, expect, atol=1e-9)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 2**32))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_scale_drawn_by_index_is_the_choice_draw(self, seed, high):
        """The kernel draws its scale as ``WARP_SCALES[integers(0, 2)]`` after its
        start draw: the same scale, and the same generator state after it, as
        ``choice(WARP_SCALES)``."""
        by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        by_choice.integers(0, high)
        by_index.integers(0, high)
        assert float(by_choice.choice(WARP_SCALES)) == WARP_SCALES[by_index.integers(0, 2)]
        assert by_choice.bit_generator.state == by_index.bit_generator.state

    def test_kernel_against_oracle_pinned_window(self):
        values = np.random.default_rng(4).normal(0, 1, 100)
        out = apply_window_warp(values, 40, 10, 2.0)
        expect = oracle_window_warp(values, 40, 10, 2.0)
        assert out.shape == (100,)
        assert np.allclose(out, expect, atol=1e-9)

    def test_kernel_locality_on_smooth_data(self):
        # on smooth data, indices away from the window move only by the
        # small 110 -> 100 re-gridding error
        values = np.sin(np.arange(100) / 40.0)
        out = apply_window_warp(values, 40, 10, 2.0)
        regrid_shift = 10 / 99  # max index drift per output step is ~10%
        bound = np.abs(np.diff(values)).max() * (regrid_shift * 99) + 1e-12
        assert np.abs(out[:30] - values[:30]).max() <= bound

    def test_length_preserved_many(self):
        rng = np.random.default_rng(0)
        config = AugmentConfig(master_seed=0)
        for i in range(200):
            n = int(rng.integers(10, 120))
            ts = make_series(rng.normal(0, 1, n), stage=Stage.PRUNED)
            out = window_warp(ts, config, i)
            assert len(out) == n

    def test_too_short(self):
        ts = make_series([1.0] * 9, stage=Stage.PRUNED)
        with pytest.raises(SeriesTooShortError):
            window_warp(ts, AugmentConfig(master_seed=0), 1)


class TestWindowSlice:
    def test_constant_series_unchanged(self):
        ts = make_series([1.25] * 50, stage=Stage.PRUNED)
        out = window_slice(ts, AugmentConfig(master_seed=0), 11)
        assert np.array_equal(out.values, ts.values)

    def test_linear_ramp_exact(self):
        # a linear ramp sliced to [5, 95) re-grids to the exact ramp 5..94
        out = apply_window_slice(np.arange(100, dtype=float), 5, 90)
        expect = np.linspace(5.0, 94.0, 100)
        assert np.abs(out - expect).max() <= 1e-9

    def test_identity_limit_near_full_slice(self):
        # at fraction 0.999 the rounded slice covers the whole series for
        # n < 500, so the transform is the identity re-grid
        values = np.random.default_rng(3).normal(0, 1, 400)
        out = apply_window_slice(values, 0, round(0.999 * 400))
        assert np.abs(out - values).max() <= 1e-6

    def test_length_preserved_all_seeds(self):
        ts = make_series(np.random.default_rng(1).normal(0, 1, 73), stage=Stage.PRUNED)
        config = AugmentConfig(master_seed=0)
        assert all(len(window_slice(ts, config, seed)) == 73 for seed in range(50))


@given(st.integers(0, 10_000), st.integers(10, 90))
@settings(max_examples=150, deadline=None)
def test_range_preservation_all_transforms(seed, n):
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 10, n)
    ts = make_series(values, stage=Stage.PRUNED)
    config = AugmentConfig(master_seed=0)
    lo, hi = values.min(), values.max()
    for transform in (time_warp, window_warp, window_slice):
        out = transform(ts, config, seed)
        assert len(out) == n
        assert min(out.values) >= lo and max(out.values) <= hi


class TestProvenanceSeed:
    TRANSFORMS = (time_warp, window_warp, window_slice)

    def test_numpy_integer_seed_recorded_and_reproducible(self):
        ts = make_series(np.random.default_rng(6).normal(0, 1, 50), stage=Stage.PRUNED)
        config = AugmentConfig(master_seed=0)
        for transform in self.TRANSFORMS:
            out = transform(ts, config, np.int64(1234))
            assert out.provenance.seed == 1234
            assert type(out.provenance.seed) is int
            assert transform(ts, config, out.provenance.seed) == out

    def test_generator_refused(self):
        ts = make_series(np.random.default_rng(6).normal(0, 1, 50), stage=Stage.PRUNED)
        config = AugmentConfig(master_seed=0)
        for transform in self.TRANSFORMS:
            with pytest.raises(TypeError):
                transform(ts, config, np.random.default_rng(1))


def reference_augment_set(pruned, config, detector):
    """One candidate at a time, through the public transforms and ``classify``."""
    transforms = (time_warp, window_warp, window_slice)
    out = []
    for series in pruned:
        for ordinal in range(config.factor):
            out_id = f"{series.id}-aug{ordinal}"
            for attempt in range(config.max_retries):
                seed = derive_seed(config.master_seed, series.id, ordinal, attempt)
                candidate = transforms[ordinal % 3](series, config, seed, out_id=out_id)
                if not config.verify_shift:
                    break
                if classify(candidate, detector) is ShiftCategory.SHIFT:
                    verified = dataclasses.replace(candidate.provenance, shift_verified=True)
                    candidate = dataclasses.replace(candidate, provenance=verified)
                    break
            else:
                candidate = window_slice(series, config, seed, out_id=out_id)
            out.append(candidate)
    return out


class TestAugmentSet:
    def _pruned(self, count=3, n=60):
        return [
            make_series(step_values(n, 5.0, 0.3, seed=i), sid=f"p{i}", stage=Stage.PRUNED)
            for i in range(count)
        ]

    def test_factor_expansion_and_allocation(self):
        pruned = self._pruned(2)
        config = AugmentConfig(factor=30, master_seed=5, verify_shift=False)
        out = augment_set(pruned, config, DetectorConfig())
        assert len(out) == 60
        per_parent = [s for s in out if s.provenance.parent_id == "p0"]
        methods = [s.provenance.method for s in per_parent]
        assert methods.count(AugmentMethod.TIME_WARP) == 10
        assert methods.count(AugmentMethod.WINDOW_WARP) == 10
        assert methods.count(AugmentMethod.WINDOW_SLICE) == 10
        assert [s.id for s in per_parent[:3]] == ["p0-aug0", "p0-aug1", "p0-aug2"]

    def test_empty_input(self):
        config = AugmentConfig(master_seed=1)
        assert augment_set([], config, DetectorConfig()) == []

    def test_requires_pruned_stage(self):
        series = make_series(step_values(60, 5.0), stage=Stage.ORIGINAL)
        config = AugmentConfig(master_seed=1)
        with pytest.raises(ValueError):
            augment_set([series], config, DetectorConfig())

    def test_requires_master_seed(self):
        with pytest.raises(ValueError):
            augment_set(self._pruned(1), AugmentConfig(), DetectorConfig())

    def test_order_independence(self):
        pruned = self._pruned(3)
        config = AugmentConfig(factor=6, master_seed=5)
        detector = DetectorConfig()
        forward = {s.id: s for s in augment_set(pruned, config, detector)}
        backward = {s.id: s for s in augment_set(list(reversed(pruned)), config, detector)}
        assert forward == backward

    def test_deterministic(self):
        pruned = self._pruned(2)
        config = AugmentConfig(factor=6, master_seed=9)
        detector = DetectorConfig()
        assert augment_set(pruned, config, detector) == augment_set(pruned, config, detector)

    def test_verified_flag_set_on_success(self):
        out = augment_set(
            self._pruned(1), AugmentConfig(factor=3, master_seed=2), DetectorConfig()
        )
        assert all(s.provenance.shift_verified for s in out)

    def test_fallback_to_window_slice_when_unverifiable(self):
        # an absurd penalty makes every candidate classify as shift-free
        detector = DetectorConfig(penalty_beta=1e12)
        config = AugmentConfig(factor=3, master_seed=2, max_retries=3)
        out = augment_set(self._pruned(1), config, detector)
        assert len(out) == 3
        assert all(s.provenance.method is AugmentMethod.WINDOW_SLICE for s in out)
        assert all(not s.provenance.shift_verified for s in out)

    @pytest.mark.parametrize("penalty", [None, 1e12])  # verified, and the fallback
    def test_outputs_share_parent_timestamps(self, penalty):
        pruned = self._pruned(2)
        parents = {s.id: s for s in pruned}
        config = AugmentConfig(factor=6, master_seed=2, max_retries=2)
        out = augment_set(pruned, config, DetectorConfig(penalty_beta=penalty))
        assert len(out) == 12
        assert all(s.timestamps is parents[s.provenance.parent_id].timestamps for s in out)

    def test_unverified_share_low_on_step_corpus(self):
        pruned = self._pruned(6, n=80)
        config = AugmentConfig(factor=30, master_seed=3)
        out = augment_set(pruned, config, DetectorConfig())
        share = sum(1 for s in out if not s.provenance.shift_verified) / len(out)
        assert share < 0.20

    @pytest.mark.parametrize(
        "detector, config",
        [
            (DetectorConfig(), AugmentConfig(factor=9, master_seed=4)),
            (DetectorConfig(), AugmentConfig(factor=6, master_seed=4, verify_shift=False)),
            # a penalty near the candidates' gains: 51 pass at once, 22 after
            # redraws, 47 never
            (
                DetectorConfig(penalty_beta=14.0),
                AugmentConfig(factor=30, master_seed=8, max_retries=3),
            ),
        ],
    )
    def test_batched_matches_one_candidate_at_a_time(self, detector, config):
        pruned = [
            make_series(step_values(40, 1.0, 1.0, seed=i), sid=f"p{i}", stage=Stage.PRUNED)
            for i in range(4)
        ]
        out = augment_set(pruned, config, detector)
        assert out == reference_augment_set(pruned, config, detector)

    def test_factor_divisibility_enforced(self):
        with pytest.raises(ValueError):
            AugmentConfig(factor=10)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2, 0) == derive_seed(1, "a", 2, 0)
        assert derive_seed(1, "a", 2, 0) != derive_seed(1, "a", 2, 1)
        assert 0 <= derive_seed("x") < 2**64
