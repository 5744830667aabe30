import calendar
import hashlib
import random
import re
from datetime import date

import numpy as np
import pytest

from tempdyn.ghcn import parse_dly, station_observations
from tempdyn.models import WindowFactors
from tempdyn.series import (
    ContiguityError,
    DataInversionError,
    build_series,
    read_series_csv,
    sidecar_path,
    write_series_csv,
)

from conftest import month_dummies


def constant_series(start: date, end: date, tmax=70, tmin=50):
    days = (end - start).days + 1
    return build_series(np.full(days, tmax), np.full(days, tmin), start, end)


def one_day(tmax: int, tmin: int):
    day = date(2000, 6, 1)
    return build_series([tmax], [tmin], day, day)


class TestBuildSeries:
    def test_avg_dtr_definitions(self):
        series = one_day(75, 55)
        assert series.variable("avg")[0] == 65.0
        assert series.variable("dtr")[0] == 20.0

    def test_degenerate_range(self):
        series = one_day(60, 60)
        assert series.variable("avg")[0] == 60.0
        assert series.variable("dtr")[0] == 0.0

    def test_half_degree_average_is_exact(self):
        series = one_day(71, 50)
        assert series.variable("avg")[0] == 60.5

    def test_unknown_variable_names_the_known_ones(self):
        with pytest.raises(ValueError, match=r"'tmax'; expected one of \('avg', 'dtr'\)"):
            one_day(75, 55).variable("tmax")

    def test_full_window_day_count(self):
        # independent oracle: calendar arithmetic over the archive window
        start, end = date(1960, 1, 1), date(2017, 12, 31)
        expected = (date(2018, 1, 1) - date(1960, 1, 1)).days
        assert expected == 21185
        series = constant_series(start, end)
        assert len(series) == expected
        # the window's t runs over the same days
        t = WindowFactors(start, end).t
        assert (len(t), t[0], t[-1]) == (expected, 1, expected)

    def test_gap_raises_contiguity_error(self):
        start, end = date(2000, 1, 1), date(2000, 1, 10)
        with pytest.raises(ContiguityError, match="spans 10 days, got 9"):
            build_series(np.full(9, 70), np.full(9, 50), start, end)

    def test_unordered_dates_raise(self, tmp_path):
        # dates reach a series only through a sidecar's first day, so a CSV
        # whose rows were reordered is refused whole
        start, end = date(2000, 1, 1), date(2000, 1, 10)
        path = tmp_path / "swapped.csv"
        write_series_csv(constant_series(start, end), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3], lines[4] = lines[4], lines[3]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=mismatch(path)):
            read_series_csv(path)

    def test_inversion_lists_dates(self):
        start, end = date(2000, 1, 1), date(2000, 1, 5)
        with pytest.raises(DataInversionError, match="2000-01-03"):
            build_series([70, 70, 40, 70, 70], [50, 50, 60, 50, 50], start, end)

    def test_reconstruction_identity(self, two_year_window, two_year_payload):
        start, end = two_year_window
        tmax, tmin, _ = station_observations(parse_dly(two_year_payload), start, end)
        series = build_series(tmax, tmin, start, end)
        avg, dtr = series.variable("avg"), series.variable("dtr")
        np.testing.assert_array_equal(avg + dtr / 2.0, series.max_f)
        np.testing.assert_array_equal(avg - dtr / 2.0, series.min_f)

    def test_ingest_order_invariance(self, two_year_window, two_year_payload):
        # shuffling the raw record stream (e.g. MIN file before MAX file)
        # cannot change the built series
        start, end = two_year_window
        lines = two_year_payload.splitlines(keepends=True)
        random.Random(7).shuffle(lines)
        first = station_observations(parse_dly(two_year_payload), start, end)
        second = station_observations(parse_dly(b"".join(lines)), start, end)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        assert first[2] == second[2]
        a = build_series(first[0], first[1], start, end)
        b = build_series(second[0], second[1], start, end)
        np.testing.assert_array_equal(a.variable("avg"), b.variable("avg"))
        np.testing.assert_array_equal(a.variable("dtr"), b.variable("dtr"))


class TestMonthDummies:
    def test_one_year_column_sums(self):
        start, end = date(1961, 1, 1), date(1961, 12, 31)
        sums = month_dummies(WindowFactors(start, end).month_index).sum(axis=0)
        np.testing.assert_array_equal(
            sums, [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
        )

    def test_leap_year_february(self):
        start, end = date(1960, 1, 1), date(1960, 12, 31)
        sums = month_dummies(WindowFactors(start, end).month_index).sum(axis=0)
        assert sums[1] == 29

    def test_full_window_vs_calendar_enumeration(self):
        start, end = date(1960, 1, 1), date(2017, 12, 31)
        sums = month_dummies(WindowFactors(start, end).month_index).sum(axis=0)
        expected = np.zeros(12)
        for year in range(1960, 2018):
            for month in range(1, 13):
                expected[month - 1] += calendar.monthrange(year, month)[1]
        np.testing.assert_array_equal(sums, expected)

    def test_partition_property(self, two_year_window, two_year_payload):
        start, end = two_year_window
        tmax, tmin, _ = station_observations(parse_dly(two_year_payload), start, end)
        series = build_series(tmax, tmin, start, end)
        dummies = month_dummies(WindowFactors(series.start, series.end).month_index)
        np.testing.assert_array_equal(dummies.sum(axis=1), np.ones(len(series)))


class TestSeriesCsv:
    def test_round_trip(self, tmp_path, two_year_window, two_year_payload):
        start, end = two_year_window
        tmax, tmin, _ = station_observations(parse_dly(two_year_payload), start, end)
        series = build_series(tmax, tmin, start, end)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        loaded = read_series_csv(path)
        assert (loaded.start, loaded.end) == (series.start, series.end)
        np.testing.assert_array_equal(loaded.max_f, series.max_f)
        np.testing.assert_array_equal(loaded.min_f, series.min_f)
        np.testing.assert_array_equal(loaded.variable("avg"), series.variable("avg"))
        np.testing.assert_array_equal(loaded.variable("dtr"), series.variable("dtr"))

    def test_header_and_quoting(self, tmp_path):
        series = one_day(71, 50)
        path = tmp_path / "one.csv"
        write_series_csv(series, path)
        content = path.read_text()
        assert content.splitlines()[0] == "date,tmax,tmin,avg,dtr,t,month"
        assert content.splitlines()[1] == "2000-06-01,71,50,60.5,21,1,6"

    def test_inconsistent_file_rejected(self, tmp_path):
        # a CSV the writer did not write has no sidecar to read
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,tmax,tmin,avg,dtr,t,month\n2000-06-01,71,50,99,21,1,6\n"
        )
        with pytest.raises(ValueError, match=missing(path)):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "edit,refusal",
        [
            (lambda rows: ["date,tmax,tmin,avg,dtr"] + rows[1:], "mismatch"),
            (lambda rows: rows[:1], "1 lines"),
            (lambda rows: rows[:3] + rows[4:], "10 lines"),
            (lambda rows: rows[:3] + [""] + rows[3:], "12 lines"),
            (lambda rows: rows[:3] + ["2000-01-03,40,60,50,-20,3,1"] + rows[4:], "mismatch"),
            (lambda rows: rows[:3] + ["2000-01-03,70,50,60,21,3,1"] + rows[4:], "mismatch"),
            (lambda rows: rows[:3] + ["2000-01-03,7x,50,60,20,3,1"] + rows[4:], "mismatch"),
            (
                lambda rows: rows[:3] + ["2000-01-03,70,50,60,21,3,1"] + rows[4:6]
                + ["2000-01-06,70,50,61,20,6,1"] + rows[7:],
                "mismatch",
            ),
        ],
        ids=[
            "header", "empty", "gap", "empty-line", "inverted", "dtr", "not-a-number",
            "first-inconsistent-line",
        ],
    )
    def test_reader_checks(self, tmp_path, edit, refusal):
        # an edit that keeps the line count fails the key, any other the
        # sidecar's length; either way the sidecar is named
        path = tmp_path / "series.csv"
        write_series_csv(constant_series(date(2000, 1, 1), date(2000, 1, 10)), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        if refusal == "mismatch":
            message = mismatch(path)
        else:
            message = wrong_length(path, KEY + 8 * 21, refusal)
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)


def random_series(start: date, end: date, seed: int = 0):
    days = (end - start).days + 1
    rng = np.random.default_rng(seed)
    tmin = rng.integers(-10, 70, size=days)
    return build_series(tmin + rng.integers(0, 35, size=days), tmin, start, end)


def assert_same_series(got, want):
    assert (got.start, len(got)) == (want.start, len(want))
    for name in ("max_f", "min_f", "avg", "dtr"):
        a, b = (
            getattr(s, name) if name.endswith("_f") else s.variable(name) for s in (got, want)
        )
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def refusal(path, reason: str) -> str:
    """The pattern of the refusal of the CSV at ``path``: its sidecar named,
    then ``reason``."""
    return f"^sidecar {re.escape(str(sidecar_path(path)))} {reason}$"


def mismatch(path) -> str:
    return refusal(path, "does not match the CSV's bytes")


def wrong_length(path, size: int, lines: str) -> str:
    return refusal(path, f"holds {size} bytes, not a record of {lines}")


def missing(path) -> str:
    return refusal(path, "cannot be read: No such file or directory")


KEY = 32  # the bytes of a sidecar's key, before its record


def _truncate(sidecar):
    sidecar.write_bytes(sidecar.read_bytes()[:-100])


def _random_bytes(sidecar):
    sidecar.write_bytes(np.random.default_rng(1).bytes(len(sidecar.read_bytes())))


def _other_series(sidecar):
    # the sidecar of another series of the same window, as if the CSV were
    # rewritten without it
    other = sidecar.with_name("other.csv")
    write_series_csv(random_series(date(1960, 1, 1), date(1961, 12, 31), seed=9), other)
    sidecar_path(other).replace(sidecar)


def _altered_record(sidecar):
    # one tmax changed, the key kept: taken as a hit, it would read one
    # value off
    raw = bytearray(sidecar.read_bytes())
    raw[KEY + 8 * 6] ^= 1
    sidecar.write_bytes(bytes(raw))


def _shifted_first_day(sidecar):
    # the record's first day moved a year on, the key kept
    words = np.frombuffer(sidecar.read_bytes(), "<i8", offset=KEY).copy()
    words[0] += 366
    sidecar.write_bytes(sidecar.read_bytes()[:KEY] + words.tobytes())


def _flipped_key_byte(sidecar):
    raw = bytearray(sidecar.read_bytes())
    raw[7] ^= 0x80
    sidecar.write_bytes(bytes(raw))


def _pickled_objects(sidecar):
    values = np.array([{"tmax": [1, 2, 3]}, "not a record"], dtype=object)
    with open(sidecar, "wb") as handle:
        np.save(handle, values, allow_pickle=True)


def _missing(sidecar):
    sidecar.unlink()


def _old_format(sidecar):
    # what earlier versions wrote, <CODE>.npy with both of its digests
    # right, beside the CSV with no sidecar of the current format
    csv = sidecar.with_suffix(".csv")
    series = read_series_csv(csv)
    days = len(series)
    record = np.zeros((), [
        ("csv_sha256", np.uint8, (32,)), ("payload_sha256", np.uint8, (32,)),
        ("first_day", "<M8[D]"), ("tmax", "<i2", (days,)), ("tmin", "<i2", (days,)),
    ])
    record["first_day"] = np.datetime64(series.start, "D")
    record["tmax"], record["tmin"] = series.max_f, series.min_f
    digested = {"payload_sha256": record.tobytes()[64:], "csv_sha256": csv.read_bytes()}
    for field, data in digested.items():
        record[field] = np.frombuffer(hashlib.sha256(data).digest(), np.uint8)
    np.save(csv.with_suffix(".npy"), record, allow_pickle=False)
    sidecar.unlink()


def rekeyed(path, first_day, max_f, min_f):
    """Replace the sidecar of the CSV at ``path`` by this record under the
    key the writer would give it: the sha256 of the CSV's sha256 and the
    record bytes."""
    record = np.concatenate([[first_day], max_f, min_f]).astype("<i8").tobytes()
    key = hashlib.sha256(hashlib.sha256(path.read_bytes()).digest() + record).digest()
    sidecar_path(path).write_bytes(key + record)


class TestSidecar:
    @pytest.mark.parametrize(
        "start, end", [(date(1960, 1, 1), date(2017, 12, 31)), (date(1960, 1, 1), date(1961, 12, 31))],
        ids=["58-year", "2-year"],
    )
    def test_read_equals_the_series_written(self, tmp_path, start, end):
        path = tmp_path / "AAA.csv"
        series = random_series(start, end)
        write_series_csv(series, path)
        assert_same_series(read_series_csv(path), series)

    def test_write_returns_the_digest_of_the_csv_that_keys_the_sidecar(self, tmp_path):
        path = tmp_path / "AAA.csv"
        series = random_series(date(1960, 1, 1), date(1960, 12, 31))
        digest = write_series_csv(series, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        raw = sidecar_path(path).read_bytes()
        # the record: the first day since 1970-01-01, then tmax and tmin
        record = np.concatenate([[-3653], series.max_f, series.min_f]).astype("<i8").tobytes()
        assert raw[KEY:] == record
        assert raw[:KEY] == hashlib.sha256(bytes.fromhex(digest) + record).digest()

    def test_consistent_edit_is_refused(self, tmp_path):
        # tmax, avg and dtr changed together, as a careful hand would: the
        # CSV is no longer the one the sidecar's key vouches for
        path = tmp_path / "AAA.csv"
        write_series_csv(constant_series(date(2000, 1, 1), date(2000, 1, 10)), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "2000-01-03,80,50,65,30,3,1\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=mismatch(path)):
            read_series_csv(path)

    def test_inconsistent_edit_still_rejected(self, tmp_path):
        path = tmp_path / "AAA.csv"
        write_series_csv(constant_series(date(2000, 1, 1), date(2000, 1, 10)), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "2000-01-03,80,50,60,20,3,1\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=mismatch(path)):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "damage, refusal",
        [
            (_truncate, "length"), (_random_bytes, "mismatch"), (_other_series, "mismatch"),
            (_altered_record, "mismatch"), (_pickled_objects, "length"), (_missing, "missing"),
            (_flipped_key_byte, "mismatch"), (_shifted_first_day, "mismatch"),
            (_old_format, "missing"),
        ],
        ids=["truncated", "random-bytes", "other-series", "altered-record", "pickled-objects",
             "missing", "flipped-key-byte", "shifted-first-day", "old-format-npy"],
    )
    def test_unusable_sidecar_is_refused(self, tmp_path, damage, refusal):
        path = tmp_path / "AAA.csv"
        write_series_csv(random_series(date(1960, 1, 1), date(1961, 12, 31)), path)
        damage(sidecar_path(path))
        if refusal == "length":
            message = wrong_length(path, sidecar_path(path).stat().st_size, "732 lines")
        else:
            message = {"mismatch": mismatch, "missing": missing}[refusal](path)
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    @pytest.mark.parametrize("extra", [1, -1], ids=["day-longer", "day-shorter"])
    def test_length_is_checked_before_the_key(self, tmp_path, extra):
        # a record of another day count under a key that matches it: read
        # by its key alone, it would split into arrays of the wrong lengths
        path = tmp_path / "AAA.csv"
        series = random_series(date(1960, 1, 1), date(1961, 12, 31))
        write_series_csv(series, path)
        days = len(series) + extra
        rekeyed(path, -3653, np.full(days, 70), np.full(days, 50))
        size = KEY + 8 * (1 + 2 * days)
        with pytest.raises(ValueError, match=wrong_length(path, size, "732 lines")):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "first_day", [10**15, 10**8, -10**8, (date.max - date(1970, 1, 1)).days],
        ids=["beyond-timedelta", "beyond-date", "before-year-1", "last-day-beyond-date"],
    )
    def test_keyed_first_day_out_of_range_is_refused(self, tmp_path, first_day):
        # a key re-made by hand over a first day that is no date, or whose
        # window ends after the last date
        path = tmp_path / "AAA.csv"
        write_series_csv(constant_series(date(2000, 1, 1), date(2000, 1, 10)), path)
        rekeyed(path, first_day, np.full(10, 70), np.full(10, 50))
        message = refusal(path, f"starts on no date: {first_day} days after 1970-01-01")
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    def test_keyed_sidecar_is_still_checked_as_it_is_built(self, tmp_path):
        # a record whose key matches but whose day 3 has tmax below tmin:
        # a sidecar read goes through build_series like a text parse
        path = tmp_path / "AAA.csv"
        write_series_csv(constant_series(date(2000, 1, 1), date(2000, 1, 10)), path)
        max_f, min_f = np.full(10, 70), np.full(10, 50)
        max_f[2] = 40
        rekeyed(path, (date(2000, 1, 1) - date(1970, 1, 1)).days, max_f, min_f)
        with pytest.raises(DataInversionError, match="^max below min on: 2000-01-03$"):
            read_series_csv(path)

    def test_values_beyond_16_bits_read_back_from_the_sidecar(self, tmp_path):
        path = tmp_path / "AAA.csv"
        wide = build_series([40000, 70], [50, -40000], date(2000, 1, 1), date(2000, 1, 2))
        write_series_csv(wide, path)
        assert sidecar_path(path).exists()
        loaded = read_series_csv(path)
        assert (loaded.max_f.tolist(), loaded.min_f.tolist()) == ([40000, 70], [50, -40000])
