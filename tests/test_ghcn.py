import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempdyn.ghcn import (
    MISSING,
    BoundaryGapError,
    DlyParseError,
    FetchError,
    UnsupportedGapError,
    fetch_station,
    filter_elements,
    interpolate_missing,
    parse_dly,
    round_half_away_from_zero,
    serialize_record,
    station_observations,
    to_fahrenheit_int,
)

from conftest import (
    FIXTURE_TENTHS,
    fixture_line,
    make_dly_line,
    random_valid_line,
    synthetic_station_bytes,
)


def line_bytes(*lines: str) -> bytes:
    return ("\n".join(lines) + "\n").encode("ascii")


class TestParseDly:
    def test_day_one_value_extraction(self):
        line = make_dly_line("USW00013739", 1960, 1, "TMAX", {1: 217})
        record = parse_dly(line_bytes(line))[0]
        assert record.station_id == "USW00013739"
        assert record.year == 1960
        assert record.month == 1
        assert record.element == "TMAX"
        assert record.values[0].value == 217
        assert all(v.value == MISSING for v in record.values[1:])

    def test_all_slots_missing(self):
        line = make_dly_line("USW00013739", 1975, 6, "TMIN", {})
        record = parse_dly(line_bytes(line))[0]
        assert len(record.values) == 31
        assert all(v.value == MISSING for v in record.values)

    def test_hand_decoded_fixture(self):
        # A January 1960 TMAX line assembled column-by-column from the
        # published offset table (station 1-11, year 12-15, month 16-17,
        # element 18-21, then 31 groups of value/mflag/qflag/sflag).
        line = fixture_line()
        # spot-check raw column slices before letting the parser near it
        assert line[0:11] == "USW00013739"
        assert line[11:15] == "1960"
        assert line[15:17] == "01"
        assert line[17:21] == "TMAX"
        assert line[21:26] == f"{FIXTURE_TENTHS[0]:5d}"
        assert line[261:266] == f"{FIXTURE_TENTHS[30]:5d}"

        record = parse_dly(line_bytes(line))[0]
        assert record.station_id == "USW00013739"
        assert (record.year, record.month, record.element) == (1960, 1, "TMAX")
        for day_index, expected in enumerate(FIXTURE_TENTHS):
            slot = record.values[day_index]
            assert slot.value == expected
            assert (slot.mflag, slot.qflag, slot.sflag) == (" ", " ", "0")

    def test_wrong_length_reports_line_number(self):
        good = make_dly_line("USW00013739", 1960, 1, "TMAX", {1: 10})
        with pytest.raises(DlyParseError, match="line 2"):
            parse_dly(line_bytes(good, good[:-1]))

    def test_non_ascii_byte_reports_line_number(self):
        good = make_dly_line("USW00013739", 1960, 1, "TMAX", {1: 10})
        html = "<p>Dépôt introuvable</p>".encode("utf-8")
        with pytest.raises(DlyParseError, match="line 3: non-ASCII byte 0xc3") as info:
            parse_dly(line_bytes(good, good) + html)
        assert info.value.line_number == 3

    def test_non_numeric_value_field(self):
        line = make_dly_line("USW00013739", 1960, 1, "TMAX", {1: 10})
        corrupted = line[:21] + "abcde" + line[26:]
        with pytest.raises(DlyParseError, match="non-numeric value"):
            parse_dly(line_bytes(corrupted))

    def test_month_out_of_range(self):
        line = make_dly_line("USW00013739", 1960, 1, "TMAX", {1: 10})
        corrupted = line[:15] + "13" + line[17:]
        with pytest.raises(DlyParseError, match="month 13"):
            parse_dly(line_bytes(corrupted))

    def test_unknown_elements_retained_then_filterable(self):
        lines = [
            make_dly_line("USW00013739", 1960, 1, "TMAX", {1: 10}),
            make_dly_line("USW00013739", 1960, 1, "PRCP", {1: 5}),
            make_dly_line("USW00013739", 1960, 1, "TMIN", {1: -10}),
        ]
        records = parse_dly(line_bytes(*lines))
        assert [r.element for r in records] == ["TMAX", "PRCP", "TMIN"]
        assert [r.element for r in filter_elements(records)] == ["TMAX", "TMIN"]


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        rng = random.Random(20170801)
        for _ in range(200):
            line = random_valid_line(rng)
            record = parse_dly(line_bytes(line))[0]
            assert serialize_record(record) == line


class TestToFahrenheit:
    @pytest.mark.parametrize(
        "tenths_c,expected",
        [
            (0, 32),  # freezing point
            (100, 50),  # 10.0 C exactly
            (217, 71),  # 21.7 C -> 71.06 F -> 71
            (-178, 0),  # -17.8 C -> -0.04 F -> 0
            (-175, 1),  # -17.5 C -> 0.5 F -> 1 (half away from zero)
            (350, 95),
        ],
    )
    def test_examples(self, tenths_c, expected):
        assert to_fahrenheit_int(tenths_c) == expected

    def test_sentinel_rejected(self):
        with pytest.raises(ValueError, match="sentinel"):
            to_fahrenheit_int(MISSING)

    @given(st.integers(min_value=-2000, max_value=2000))
    def test_monotone_nondecreasing(self, tenths_c):
        if tenths_c == MISSING:
            return
        later = tenths_c + 1 if tenths_c + 1 != MISSING else tenths_c + 2
        assert to_fahrenheit_int(tenths_c) <= to_fahrenheit_int(later)

    def test_round_half_away_from_zero(self):
        assert round_half_away_from_zero(103, 2) == 52
        assert round_half_away_from_zero(-103, 2) == -52
        assert round_half_away_from_zero(101, 2) == 51
        assert round_half_away_from_zero(-101, 2) == -51


class TestInterpolateMissing:
    def test_exact_midpoint(self):
        assert interpolate_missing([50, None, 54]) == [50, 52, 54]

    def test_half_rounds_away_from_zero(self):
        assert interpolate_missing([50, None, 53]) == [50, 52, 53]

    def test_identity_on_complete_data(self):
        assert interpolate_missing([60, 61, 62]) == [60, 61, 62]

    def test_negative_half_rounds_away(self):
        assert interpolate_missing([-50, None, -53]) == [-50, -52, -53]

    def test_boundary_missing_raises(self):
        with pytest.raises(BoundaryGapError):
            interpolate_missing([None, 50, 52])
        with pytest.raises(BoundaryGapError):
            interpolate_missing([50, 52, None])

    def test_consecutive_gap_lists_positions(self):
        days = [date(2010, 5, d) for d in range(9, 14)]
        with pytest.raises(UnsupportedGapError, match="2010-05-10, 2010-05-11"):
            interpolate_missing([50, None, None, 52, 53], labels=days)

    @given(
        st.lists(
            st.one_of(st.integers(-99, 130), st.none()), min_size=2, max_size=40
        )
    )
    @settings(max_examples=200)
    def test_idempotent(self, values):
        try:
            once = interpolate_missing(values)
        except (BoundaryGapError, UnsupportedGapError):
            return
        assert interpolate_missing(once) == once

    def test_present_values_unchanged(self):
        values = [10, None, 30, 40, None, 60, 70]
        filled = interpolate_missing(values)
        for i, value in enumerate(values):
            if value is not None:
                assert filled[i] == value


class TestStationObservations:
    def test_complete_window(self, two_year_window, two_year_payload):
        start, end = two_year_window
        records = parse_dly(two_year_payload)
        observations, notes = station_observations(records, start, end)
        assert len(observations) == (end - start).days + 1
        assert observations[0].date == start
        assert observations[-1].date == end
        assert all(
            o.tmax_f is not None and o.tmin_f is not None for o in observations
        )
        assert notes.interpolated == {"TMAX": [], "TMIN": []}

    def test_single_gaps_interpolated_and_noted(self, two_year_window):
        start, end = two_year_window
        hole = date(1960, 7, 4)
        payload = synthetic_station_bytes(
            "USW00099901", start, end, skip={(hole, "TMAX")}
        )
        observations, notes = station_observations(parse_dly(payload), start, end)
        assert notes.interpolated["TMAX"] == [hole]
        index = (hole - start).days
        before = observations[index - 1].tmax_f
        after = observations[index + 1].tmax_f
        assert observations[index].tmax_f == round_half_away_from_zero(
            before + after, 2
        )

    def test_multiday_gap_aborts(self, two_year_window):
        start, end = two_year_window
        holes = {(date(1961, 3, 3), "TMIN"), (date(1961, 3, 4), "TMIN")}
        payload = synthetic_station_bytes("USW00099901", start, end, skip=holes)
        with pytest.raises(UnsupportedGapError, match="TMIN"):
            station_observations(parse_dly(payload), start, end)

    def test_strict_qc_masks_then_interpolates(self, two_year_window):
        start, end = two_year_window
        flagged = date(1960, 10, 10)
        payload = synthetic_station_bytes(
            "USW00099901", start, end, qflagged={(flagged, "TMIN")}
        )
        records = parse_dly(payload)
        lenient, _ = station_observations(records, start, end, strict_qc=False)
        strict, notes = station_observations(records, start, end, strict_qc=True)
        assert notes.qc_suppressed["TMIN"] == [flagged]
        assert notes.interpolated["TMIN"] == [flagged]
        index = (flagged - start).days
        neighbours = strict[index - 1].tmin_f + strict[index + 1].tmin_f
        assert strict[index].tmin_f == round_half_away_from_zero(neighbours, 2)
        # every other day identical between the two modes
        for i, (a, b) in enumerate(zip(lenient, strict)):
            if i != index:
                assert a == b

    def test_inversion_swapped_and_flagged(self):
        start = end_month = date(1990, 1, 1)
        end = date(1990, 1, 31)
        lines = [
            make_dly_line(
                "USW00099901", 1990, 1, "TMAX", {d: 50 for d in range(1, 32)}
            ),
            make_dly_line(
                "USW00099901",
                1990,
                1,
                "TMIN",
                {d: (10 if d != 15 else 90) for d in range(1, 32)},
            ),
        ]
        observations, notes = station_observations(
            parse_dly(line_bytes(*lines)), start, end
        )
        assert notes.inversions_repaired == [date(1990, 1, 15)]
        swapped = observations[14]
        assert (swapped.tmax_f, swapped.tmin_f) == (
            to_fahrenheit_int(90),
            to_fahrenheit_int(50),
        )

    def test_conflicting_duplicates_rejected(self):
        lines = [
            make_dly_line("USW00099901", 1990, 1, "TMAX", {d: 50 for d in range(1, 32)}),
            make_dly_line("USW00099901", 1990, 1, "TMAX", {d: 51 for d in range(1, 32)}),
            make_dly_line("USW00099901", 1990, 1, "TMIN", {d: 10 for d in range(1, 32)}),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            station_observations(
                parse_dly(line_bytes(*lines)), date(1990, 1, 1), date(1990, 1, 31)
            )


class FakeResponse:
    def __init__(self, status_code: int, content: bytes = b""):
        self.status_code = status_code
        self.content = content


class TestFetchStation:
    def test_cache_hit_bypasses_network(self, tmp_path):
        payload = b"cached-bytes"
        (tmp_path / "USW00013739.dly").write_bytes(payload)

        def no_network(url):
            raise AssertionError("network touched despite cache hit")

        result = fetch_station(
            "USW00013739", "http://example.invalid", tmp_path, http_get=no_network
        )
        assert result == payload

    def test_empty_cache_http_404(self, tmp_path):
        with pytest.raises(FetchError) as excinfo:
            fetch_station(
                "USW00013739",
                "http://example.invalid",
                tmp_path,
                http_get=lambda url: FakeResponse(404),
            )
        assert excinfo.value.status == 404

    def test_fetch_twice_is_deterministic(self, tmp_path):
        calls = []

        def fake_get(url):
            calls.append(url)
            return FakeResponse(200, b"payload-bytes")

        first = fetch_station("USW00013739", "http://x.invalid", tmp_path, http_get=fake_get)
        second = fetch_station("USW00013739", "http://x.invalid", tmp_path, http_get=fake_get)
        assert first == second == b"payload-bytes"
        assert len(calls) == 1  # second call was served from cache

    def test_refresh_prefers_fresh_payload_with_warning(self, tmp_path):
        (tmp_path / "USW00013739.dly").write_bytes(b"old-bytes")
        with pytest.warns(UserWarning, match="differs"):
            result = fetch_station(
                "USW00013739",
                "http://x.invalid",
                tmp_path,
                refresh=True,
                http_get=lambda url: FakeResponse(200, b"new-bytes"),
            )
        assert result == b"new-bytes"
        assert (tmp_path / "USW00013739.dly").read_bytes() == b"new-bytes"

    def test_url_template_placeholder(self, tmp_path):
        seen = []

        def fake_get(url):
            seen.append(url)
            return FakeResponse(200, b"x")

        fetch_station(
            "ABC", "http://host/dl?id={station_id}", tmp_path, http_get=fake_get
        )
        assert seen == ["http://host/dl?id=ABC"]
