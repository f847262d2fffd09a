from __future__ import annotations

import re
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
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
    iso_dates,
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
                          Stage.ORIGINAL).timestamps.tolist() == list(increasing)

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


DAY = np.dtype("datetime64[D]")


def days(*texts: str) -> np.ndarray:
    return np.array(texts, dtype=DAY)


class TestTimestamps:
    def test_a_read_only_day_array_is_shared_and_a_writeable_one_copied(self):
        mine = days("2020-01-01", "2020-01-03")
        copied = TimeSeries("x", Source.SYNTHETIC, mine, [1.0, 2.0], Stage.ORIGINAL)
        assert copied.timestamps is not mine and not copied.timestamps.flags.writeable
        mine[0] = np.datetime64("2019-01-01")
        assert copied.timestamps.tolist() == [date(2020, 1, 1), date(2020, 1, 3)]
        shared = TimeSeries("y", Source.SYNTHETIC, copied.timestamps, [3.0, 4.0], Stage.ORIGINAL)
        assert shared.timestamps is copied.timestamps
        assert shared.with_stage(Stage.PRUNED).timestamps is copied.timestamps
        with pytest.raises(ValueError):
            shared.timestamps[0] = np.datetime64("2019-01-01")

    def test_a_read_only_view_is_shared_only_when_its_base_is_read_only(self):
        mine = days("2019-01-01", "2020-01-01")
        view = mine.view()
        view.flags.writeable = False
        ts = TimeSeries("x", Source.SYNTHETIC, view, [1.0, 2.0], Stage.ORIGINAL)
        mine[1] = np.datetime64("2018-01-01")
        assert ts.timestamps is not view
        assert ts.timestamps.tolist() == [date(2019, 1, 1), date(2020, 1, 1)]
        frozen = days("2019-01-01", "2020-01-01")
        frozen.flags.writeable = False
        view = frozen[:]
        shared = TimeSeries("y", Source.SYNTHETIC, view, [1.0, 2.0], Stage.ORIGINAL)
        assert shared.timestamps is view
        # a base that is no array, here a bytearray, may change under the view
        raw = np.frombuffer(bytearray(frozen.tobytes()), dtype=DAY)
        raw.flags.writeable = False
        copied = TimeSeries("z", Source.SYNTHETIC, raw, [1.0, 2.0], Stage.ORIGINAL)
        assert copied.timestamps is not raw

    def test_days_from_dates_are_shared_by_children_and_restamps(self):
        parent = TimeSeries("p", Source.SYNTHETIC, (date(2020, 1, 1), date(2020, 1, 2)),
                            [1.0, 2.0], Stage.PRUNED)
        assert parent.timestamps.base is None
        child = TimeSeries("c", Source.SYNTHETIC, parent.timestamps, [3.0, 4.0], Stage.AUGMENTED,
                           Provenance("p", AugmentMethod.TIME_WARP, 1, True))
        assert child.timestamps is parent.timestamps
        assert parent.with_stage(Stage.ORIGINAL).timestamps is parent.timestamps

    def test_dates_become_their_days(self):
        stamps = (date(1, 1, 1), datetime(1970, 1, 1, 23, 59), date(9999, 12, 31))
        ts = TimeSeries("x", Source.SYNTHETIC, stamps, [1.0, 2.0, 3.0], Stage.ORIGINAL)
        assert ts.timestamps.dtype == DAY and not ts.timestamps.flags.writeable
        assert ts.timestamps.tolist() == [date(1, 1, 1), date(1970, 1, 1), date(9999, 12, 31)]
        assert ts == TimeSeries("x", Source.SYNTHETIC, ts.timestamps.copy(), [1.0, 2.0, 3.0],
                                Stage.ORIGINAL)
        assert ts != TimeSeries("x", Source.SYNTHETIC, days("0001-01-01", "1970-01-02",
                                                            "9999-12-31"), [1.0, 2.0, 3.0],
                                Stage.ORIGINAL)

    @pytest.mark.parametrize("stamps, values, error, message", [
        (days("2020-01-01", "NaT", "2020-01-03"), 3, NonMonotonicTimestampsError, "increasing"),
        (days("NaT", "2020-01-03"), 2, NonMonotonicTimestampsError, "increasing"),
        (days("2020-01-01", "NaT"), 2, NonMonotonicTimestampsError, "increasing"),
        (days("9999-12-31", "10000-01-01"), 2, SeriesError, "outside years 1-9999"),
        (days("0000-12-31", "0001-01-01"), 2, SeriesError, "outside years 1-9999"),
        (np.array([0, 86400], dtype="datetime64[s]"), 2, SeriesError, "type datetime64[s]"),
        (np.array([0, 1]), 2, SeriesError, "type int64"),
        (days("2020-01-01", "2020-01-02").reshape(1, 2), 2, SeriesError, "shape (1, 2)"),
        (days("2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04").reshape(2, 2),
         np.ones((2, 2)), SeriesError, "1-D days"),
        ((date(2020, 1, 1), "2020-01-02"), 2, TypeError, "toordinal"),
        ((date(2020, 1, 1), np.datetime64("2020-01-02")), 2, TypeError, "toordinal"),
    ])
    def test_rejected(self, stamps, values, error, message):
        values = np.arange(float(values)) if isinstance(values, int) else values
        with pytest.raises(error, match=re.escape(message)):
            TimeSeries("x", Source.SYNTHETIC, stamps, values, Stage.ORIGINAL)


# ten-character texts shaped YYYY-MM-DD: ASCII digits, and other digits, signs and spaces
ODD_CHARS = "0123456789\u0660\u0662\uff10\uff12\u00b2 +"


def part(width: int, picks: list[str]):
    return (st.sampled_from(picks) | st.text("0123456789", min_size=width, max_size=width)
            | st.text(ODD_CHARS, min_size=width, max_size=width))


DAY_TEXTS = st.builds("{}-{}-{}".format,
                      part(4, ["0000", "0001", "1969", "1970", "2000", "2100", "9999"]),
                      part(2, ["00", "01", "02", "12", "13", "32"]),
                      part(2, ["00", "01", "28", "29", "30", "31", "32"]))


def read_by_iso_dates(texts: list[str]) -> list[date] | str:
    try:
        days = iso_dates(texts)
    except ValueError as exc:
        return str(exc)
    assert days.dtype == DAY and not days.flags.writeable
    return days.tolist()


def read_by_fromisoformat(texts: list[str]) -> list[date] | str:
    try:
        return [date.fromisoformat(text) for text in texts]
    except ValueError as exc:
        return str(exc)


class TestIsoDates:
    @given(DAY_TEXTS)
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_a_text_reads_as_fromisoformat_reads_it(self, text):
        assert read_by_iso_dates([text]) == read_by_fromisoformat([text])

    @given(st.lists(DAY_TEXTS, max_size=8))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_a_column_reads_as_fromisoformat_reads_it(self, texts):
        assert read_by_iso_dates(texts) == read_by_fromisoformat(texts)

    @pytest.mark.parametrize("text, message", [
        (" 020-01-05", "Invalid isoformat string: ' 020-01-05'"),
        ("+020-01-05", "Invalid isoformat string: '+020-01-05'"),
        ("0000-01-01", "year 0 is out of range"),
        ("2020-02-30", "day is out of range for month"),
    ])
    def test_a_refused_text_has_the_fromisoformat_message(self, text, message):
        assert read_by_iso_dates(["2020-01-01", text]) == message

    def test_the_empty_column(self):
        empty = iso_dates([])
        assert empty.dtype == DAY and empty.shape == (0,) and not empty.flags.writeable


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
            assert np.array_equal(back.timestamps, ts.timestamps)
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
