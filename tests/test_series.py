from __future__ import annotations

import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftminer.series import (
    AugmentMethod,
    NonFiniteValueError,
    NonMonotonicTimestampsError,
    Provenance,
    SeriesError,
    Source,
    Stage,
    TimeSeries,
    TooShortError,
    min_max_normalize,
)
from shiftminer.storage import (
    DatasetManifest,
    MalformedFileError,
    ManifestError,
    load_manifest,
    load_series,
    save_series,
    write_manifest,
)

from conftest import make_series


class TestTimeSeriesInvariants:
    def test_minimal_valid(self):
        ts = make_series([1.0, 2.0])
        assert len(ts) == 2

    def test_too_short(self):
        with pytest.raises(TooShortError):
            make_series([1.0])

    def test_length_mismatch(self):
        with pytest.raises(SeriesError):
            TimeSeries(
                id="x",
                source=Source.SYNTHETIC,
                timestamps=(date(2020, 1, 1), date(2020, 1, 2)),
                values=(1.0,),
                stage=Stage.ORIGINAL,
            )

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonicTimestampsError):
            TimeSeries(
                id="x",
                source=Source.SYNTHETIC,
                timestamps=(date(2020, 1, 2), date(2020, 1, 2)),
                values=(1.0, 2.0),
                stage=Stage.ORIGINAL,
            )

    @pytest.mark.parametrize("days", [(1, 2, 2), (1, 3, 2), (2, 1, 3), (1, 2, 3, 3), (3, 2, 1)])
    def test_equal_or_decreasing_neighbours_anywhere(self, days):
        stamps = tuple(date(2020, 1, d) for d in days)
        with pytest.raises(NonMonotonicTimestampsError, match="strictly increasing"):
            TimeSeries("x", Source.SYNTHETIC, stamps, [1.0] * len(days), Stage.ORIGINAL)
        increasing = tuple(sorted(set(stamps)))
        assert TimeSeries("x", Source.SYNTHETIC, increasing, [1.0] * len(increasing),
                          Stage.ORIGINAL).timestamps == increasing

    def test_non_finite(self):
        with pytest.raises(SeriesError):
            make_series([1.0, float("nan")])

    def test_values_are_read_only_float64(self):
        ts = make_series([1, 2, 3])
        assert isinstance(ts.values, np.ndarray)
        assert ts.values.dtype == np.float64
        assert not ts.values.flags.writeable
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_values_copied_from_caller(self):
        values = np.array([1.0, 2.0, 3.0])
        stamps = (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3))
        ts = TimeSeries("x", Source.SYNTHETIC, stamps, values, Stage.ORIGINAL)
        values[0] = 99.0
        assert np.array_equal(ts.values, [1.0, 2.0, 3.0])

    def test_equality_is_exact(self):
        a = make_series([1.0, 2.0])
        assert a == make_series(np.array([1.0, 2.0]))
        assert a != make_series([1.0, np.nextafter(2.0, 3.0)])
        assert a != make_series([1.0, 2.0], sid="other")
        with pytest.raises(TypeError):
            hash(a)

    def test_two_dimensional_values_rejected(self):
        with pytest.raises(SeriesError):
            TimeSeries("x", Source.SYNTHETIC, (date(2020, 1, 1), date(2020, 1, 2)),
                       np.ones((2, 2)), Stage.ORIGINAL)

    def test_augmented_requires_provenance(self):
        with pytest.raises(SeriesError):
            make_series([1.0, 2.0], stage=Stage.AUGMENTED)
        prov = Provenance("parent", AugmentMethod.TIME_WARP, 1, True)
        with pytest.raises(SeriesError):
            make_series([1.0, 2.0], stage=Stage.ORIGINAL, provenance=prov)
        ts = make_series([1.0, 2.0], stage=Stage.AUGMENTED, provenance=prov)
        assert ts.provenance.parent_id == "parent"


class TestNormalize:
    def test_affine_endpoints(self):
        out = min_max_normalize(make_series([0.0, 5.0, 10.0]))
        assert np.array_equal(out.values, [0.0, 0.5, 1.0])

    def test_constant_maps_to_half(self):
        out = min_max_normalize(make_series([3.0, 3.0, 3.0]))
        assert np.array_equal(out.values, [0.5, 0.5, 0.5])

    def test_two_points(self):
        out = min_max_normalize(make_series([2.0, 4.0]))
        assert np.array_equal(out.values, [0.0, 1.0])

    @given(st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=60))
    def test_bounds_and_idempotence(self, values):
        once = min_max_normalize(make_series(values))
        assert all(0.0 <= v <= 1.0 for v in once.values)
        twice = min_max_normalize(once)
        if max(values) > min(values):
            assert max(abs(a - b) for a, b in zip(once.values, twice.values)) <= 1e-12


class TestStorage:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n2020-01-01,1.0\n2020-01-02,2.0\n")
        ts = load_series(path)
        assert len(ts) == 2
        assert ts.timestamps[0] == date(2020, 1, 1)

    def test_nan_row_is_a_non_finite_value_naming_the_file(self, tmp_path):
        rows = ["timestamp,value"]
        for i in range(10):
            value = "nan" if i == 4 else str(float(i))
            rows.append(f"2020-01-{i + 1:02d},{value}")
        path = tmp_path / "s.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(NonFiniteValueError, match=re.escape(str(path))):
            load_series(path)

    def test_duplicate_timestamp(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n2020-01-01,1.0\n2020-01-01,2.0\n")
        with pytest.raises(NonMonotonicTimestampsError):
            load_series(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,val\n2020-01-01,1.0\n")
        with pytest.raises(MalformedFileError):
            load_series(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n2020-01-01,1.0,extra\n")
        with pytest.raises(MalformedFileError):
            load_series(path)

    @pytest.mark.parametrize("day", ["20200102", "2020-W01-4"])
    def test_a_day_is_yyyy_mm_dd_only(self, tmp_path, day):
        # Python 3.11's fromisoformat reads both, 3.10's neither
        path = tmp_path / "s.csv"
        path.write_text(f"timestamp,value\n2020-01-01,1.0\n{day},2.0\n")
        with pytest.raises(MalformedFileError, match=re.escape(f"{path}: not a YYYY-MM-DD date: {day!r}")):
            load_series(path)

    def test_infinite_row_is_not_dropped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,value\n2020-01-01,1.0\n2020-01-02,-inf\n")
        with pytest.raises(NonFiniteValueError, match=re.escape(str(path))):
            load_series(path)

    def test_too_short_error_names_file(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,value\n2020-01-01,1.0\n")
        with pytest.raises(TooShortError, match=re.escape(str(path))):
            load_series(path)

    def test_order_error_names_file(self, tmp_path):
        path = tmp_path / "unordered.csv"
        path.write_text("timestamp,value\n2020-01-02,1.0\n2020-01-01,2.0\n")
        with pytest.raises(NonMonotonicTimestampsError, match=re.escape(str(path))):
            load_series(path)

    def test_roundtrip_with_provenance(self, tmp_path):
        prov = Provenance("fred-X-2020-01-01-2020-04-09", AugmentMethod.WINDOW_WARP, 99, False)
        ts = make_series(
            [1.5, -2.25, 3.125], sid="child-aug1", source=Source.FRED,
            stage=Stage.AUGMENTED, provenance=prov, comment="why",
        )
        save_series(ts, tmp_path)
        back = load_series(tmp_path / "child-aug1.csv")
        assert back == ts
        meta = (tmp_path / "child-aug1.meta.json").read_text()
        assert "window_warp" in meta and "fred-X" in meta

    def test_unwritable_dir(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        with pytest.raises(FileExistsError) as err:
            save_series(make_series([1.0, 2.0]), blocker)
        assert err.value.filename == str(blocker)

    def test_roundtrip_random_series(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(1000):
            n = int(rng.integers(2, 40))
            values = rng.uniform(-1e6, 1e6, n)
            ts = make_series(values, sid=f"s{i}")
            save_series(ts, tmp_path)
            back = load_series(tmp_path / f"s{i}.csv")
            assert back.timestamps == ts.timestamps
            assert np.allclose(back.values, ts.values, rtol=1e-11, atol=0.0)
            assert back.stage is ts.stage


class TestManifest:
    def _manifest(self, **overrides):
        fields = dict(
            name="d", domain="x", description="y",
            length_min=10, length_max=20,
            count_original=5, count_pruned=3, count_augmented=90,
            seed=1, created_at="2024-01-01T00:00:00+00:00",
        )
        fields.update(overrides)
        return DatasetManifest(**fields)

    def test_valid_roundtrip(self, tmp_path):
        manifest = self._manifest(notes={"queries": "external"})
        write_manifest(tmp_path, manifest)
        assert load_manifest(tmp_path, "d") == manifest

    def test_pruned_exceeds_original(self):
        with pytest.raises(ManifestError):
            self._manifest(count_pruned=6)

    def test_length_order(self):
        with pytest.raises(ManifestError):
            self._manifest(length_min=21)

    def test_zero_count_allows_zero_lengths(self):
        manifest = self._manifest(
            count_original=0, count_pruned=0, count_augmented=0, length_min=0, length_max=0
        )
        assert manifest.count_original == 0


def test_concurrent_saves_on_distinct_paths(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    series = [make_series([float(i), float(i) + 1.0], sid=f"par{i}") for i in range(40)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda s: save_series(s, tmp_path), series))
    for s in series:
        assert load_series(tmp_path / f"{s.id}.csv") == s
