import calendar
import random
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempdyn.ghcn import (
    MISSING,
    BoundaryGapError,
    DlyParseError,
    FetchError,
    IngestNotes,
    UnsupportedGapError,
    fetch_station,
    interpolate_missing,
    parse_dly,
    round_half_away_from_zero,
    station_observations,
    to_fahrenheit_int,
)

from conftest import (
    FIXTURE_TENTHS,
    RawDlyRecord,
    decode_line,
    decode_records,
    filter_elements,
    fixture_line,
    make_dly_line,
    random_valid_line,
    serialize_record,
    synthetic_station_bytes,
    tmax_tenths_c,
    tmin_tenths_c,
)


def line_bytes(*lines: str) -> bytes:
    return ("\n".join(lines) + "\n").encode("ascii")


class TestParseDly:
    def test_day_one_value_extraction(self):
        line = make_dly_line("USW00013739", 1960, 1, "TMAX", {1: 217})
        record = decode_records(parse_dly(line_bytes(line)))[0]
        assert record.station_id == "USW00013739"
        assert record.year == 1960
        assert record.month == 1
        assert record.element == "TMAX"
        assert record.values[0].value == 217
        assert all(v.value == MISSING for v in record.values[1:])

    def test_all_slots_missing(self):
        line = make_dly_line("USW00013739", 1975, 6, "TMIN", {})
        record = decode_records(parse_dly(line_bytes(line)))[0]
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

        record = decode_records(parse_dly(line_bytes(line)))[0]
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

    @pytest.mark.parametrize("text", ["  1_2", " +150", "150  ", "\t 150"])
    def test_value_field_must_be_a_right_justified_integer(self, text):
        # int() reads each of these as a number; the archive's format does not
        good = make_dly_line("USW00013739", 1960, 1, "TMAX", {1: 10})
        corrupted = good[:37] + text + good[42:]
        with pytest.raises(DlyParseError) as info:
            parse_dly(line_bytes(good, corrupted))
        assert str(info.value) == f"line 2: non-numeric value field {text!r} for day 3"
        assert info.value.line_number == 2

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
        assert [r.element for r in decode_records(records)] == ["TMAX", "PRCP", "TMIN"]
        assert [r.element for r in filter_elements(decode_records(records))] == ["TMAX", "TMIN"]


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        rng = random.Random(20170801)
        for _ in range(200):
            line = random_valid_line(rng)
            record = decode_records(parse_dly(line_bytes(line)))[0]
            assert serialize_record(record) == line


def reference_parse(data: bytes) -> list[RawDlyRecord]:
    """The line-by-line decoder parse_dly replaced, kept as its reference:
    each field must be a right-justified integer (:func:`conftest.dly_int`)."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        number = len((data[: exc.start] + b"?").decode("ascii").splitlines())
        raise DlyParseError(f"non-ASCII byte 0x{data[exc.start]:02x}; not a .dly file", number)
    records = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if not raw:
            continue
        if len(raw) != 269:
            raise DlyParseError(f"expected 269 characters, got {len(raw)}", number)
        records.append(decode_line(raw, number))
    return records


def outcome(parse, data: bytes):
    """Decoded columns (values of TMAX/TMIN lines only), or the error."""
    try:
        records = parse(data)
    except DlyParseError as exc:
        return ("error", str(exc), exc.line_number)
    if isinstance(records, list):  # the reference
        return ("ok", [
            (r.station_id, r.year, r.month, r.element,
             [v.value for v in r.values] if r.element in ("TMAX", "TMIN") else None,
             "".join(v.mflag + v.qflag + v.sflag for v in r.values))
            for r in records
        ])
    values = dict(zip(records.rows.tolist(), records.values.tolist()))
    return ("ok", [
        (line[:11], records.year[i].item(), records.month[i].item(), line[17:21],
         values.get(i), "".join(line[26 + 8 * d : 29 + 8 * d] for d in range(31)))
        for i, line in enumerate(row.tobytes().decode("ascii") for row in records.lines)
    ])


# (start, stop) of the year, month and 31 value fields
NUMERIC_FIELDS = [(11, 15), (15, 17)] + [(21 + 8 * d, 26 + 8 * d) for d in range(31)]
CORRUPTIONS = ["abcde", "1 2", "  -", "+12", "     ", " +12 ", "1_2", "-0", "00012",
               "--5", "- 5", "5-", "-", "   13", "00", " -1", "\t12"]


@st.composite
def dly_payloads(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = [random_valid_line(rng) for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        if lines:
            i = draw(st.integers(0, len(lines) - 1))
            start, stop = draw(st.sampled_from(NUMERIC_FIELDS))
            text = draw(st.sampled_from(CORRUPTIONS)).rjust(stop - start)[: stop - start]
            lines[i] = lines[i][:start] + text + lines[i][stop:]
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if lines and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i][: draw(st.integers(1, 268))]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + ending for line in lines).encode("ascii")


class TestParserEquivalence:
    @given(dly_payloads())
    @settings(max_examples=300, deadline=None)
    def test_same_values_flags_and_errors_as_reference(self, data):
        assert outcome(parse_dly, data) == outcome(reference_parse, data)

    @pytest.mark.parametrize("text", CORRUPTIONS)
    @pytest.mark.parametrize("field", [(11, 15), (15, 17), (21, 26), (261, 266)])
    def test_each_corruption_in_each_kind_of_field(self, text, field):
        start, stop = field
        lines = [make_dly_line("USW00013739", 1960, m, "TMAX", {1: 10, 31: -5}) for m in (1, 3)]
        lines[1] = lines[1][:start] + text.rjust(stop - start)[: stop - start] + lines[1][stop:]
        data = line_bytes(*lines)
        assert outcome(parse_dly, data) == outcome(reference_parse, data)


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


def fill(values, start=date(2010, 1, 1)):
    """interpolate_missing on a list with None for the gaps, the first
    entry on ``start``, as a list."""
    missing = [v is None for v in values]
    present = np.array([0 if v is None else v for v in values], dtype=np.int64)
    return interpolate_missing(present, missing, start).tolist()


class TestInterpolateMissing:
    def test_exact_midpoint(self):
        assert fill([50, None, 54]) == [50, 52, 54]

    def test_half_rounds_away_from_zero(self):
        assert fill([50, None, 53]) == [50, 52, 53]

    def test_identity_on_complete_data(self):
        assert fill([60, 61, 62]) == [60, 61, 62]

    def test_negative_half_rounds_away(self):
        assert fill([-50, None, -53]) == [-50, -52, -53]

    def test_boundary_missing_raises(self):
        with pytest.raises(BoundaryGapError, match="first observation missing at 2010-01-01"):
            fill([None, 50, 52])
        with pytest.raises(BoundaryGapError, match="last observation missing at 2010-01-03"):
            fill([50, 52, None])

    def test_consecutive_gap_lists_positions(self):
        with pytest.raises(
            UnsupportedGapError, match="at: 2010-05-10, 2010-05-11$"
        ) as info:
            fill([50, None, None, 52, None, 53], start=date(2010, 5, 9))
        assert info.value.positions == [date(2010, 5, 10), date(2010, 5, 11)]

    @given(
        st.lists(
            st.one_of(st.integers(-99, 130), st.none()), min_size=2, max_size=40
        )
    )
    @settings(max_examples=200)
    def test_idempotent(self, values):
        try:
            once = fill(values)
        except (BoundaryGapError, UnsupportedGapError):
            return
        assert fill(once) == once
        # the loop it replaced: each gap takes its neighbours' rounded mean
        for i, value in enumerate(values):
            if value is None:
                assert once[i] == round_half_away_from_zero(
                    values[i - 1] + values[i + 1], 2
                )

    def test_present_values_unchanged(self):
        values = [10, None, 30, 40, None, 60, 70]
        filled = fill(values)
        for i, value in enumerate(values):
            if value is not None:
                assert filled[i] == value


def day_index(start: date, when: date) -> int:
    return (when - start).days


class TestStationObservations:
    def test_complete_window(self, two_year_window, two_year_payload):
        start, end = two_year_window
        records = parse_dly(two_year_payload)
        tmax, tmin, notes = station_observations(records, start, end)
        assert len(tmax) == len(tmin) == (end - start).days + 1
        assert tmax.dtype == tmin.dtype == np.int64
        # against the per-day conversion of the generator's values
        assert tmax[0] == to_fahrenheit_int(max(tmax_tenths_c(start), tmin_tenths_c(start)))
        assert tmin[-1] == to_fahrenheit_int(min(tmax_tenths_c(end), tmin_tenths_c(end)))
        assert notes.interpolated == {"TMAX": [], "TMIN": []}

    def test_single_gaps_interpolated_and_noted(self, two_year_window):
        start, end = two_year_window
        hole = date(1960, 7, 4)
        payload = synthetic_station_bytes(
            "USW00099901", start, end, skip={(hole, "TMAX")}
        )
        tmax, _, notes = station_observations(parse_dly(payload), start, end)
        assert notes.interpolated["TMAX"] == [hole]
        index = day_index(start, hole)
        assert tmax[index] == round_half_away_from_zero(
            tmax[index - 1] + tmax[index + 1], 2
        )

    def test_multiday_gap_aborts(self, two_year_window):
        start, end = two_year_window
        holes = {(date(1961, 3, 3), "TMIN"), (date(1961, 3, 4), "TMIN")}
        payload = synthetic_station_bytes("USW00099901", start, end, skip=holes)
        with pytest.raises(
            UnsupportedGapError, match="TMIN: consecutive missing observations at: "
            "1961-03-03, 1961-03-04"
        ):
            station_observations(parse_dly(payload), start, end)

    def test_strict_qc_masks_then_interpolates(self, two_year_window):
        start, end = two_year_window
        flagged = date(1960, 10, 10)
        payload = synthetic_station_bytes(
            "USW00099901", start, end, qflagged={(flagged, "TMIN")}
        )
        records = parse_dly(payload)
        _, lenient, _ = station_observations(records, start, end, strict_qc=False)
        _, strict, notes = station_observations(records, start, end, strict_qc=True)
        assert notes.qc_suppressed == {"TMIN": [flagged]}
        assert notes.interpolated["TMIN"] == [flagged]
        index = day_index(start, flagged)
        neighbours = strict[index - 1] + strict[index + 1]
        assert strict[index] == round_half_away_from_zero(neighbours, 2)
        # every other day identical between the two modes
        assert np.flatnonzero(lenient != strict).tolist() in ([], [index])

    def test_inversion_swapped_and_flagged(self):
        start = date(1990, 1, 1)
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
        tmax, tmin, notes = station_observations(
            parse_dly(line_bytes(*lines)), start, end
        )
        assert notes.inversions_repaired == [date(1990, 1, 15)]
        assert (tmax[14], tmin[14]) == (
            to_fahrenheit_int(90),
            to_fahrenheit_int(50),
        )

    def test_conflicting_duplicates_rejected(self):
        lines = [
            make_dly_line("USW00099901", 1990, 1, "TMAX", {d: 50 for d in range(1, 32)}),
            make_dly_line("USW00099901", 1990, 1, "TMIN", {d: 10 for d in range(1, 32)}),
            make_dly_line("USW00099901", 1990, 1, "TMAX", {d: 50 + (d == 7) for d in range(1, 32)}),
        ]
        with pytest.raises(
            ValueError, match="line 3: conflicting duplicate TMAX values on 1990-01-07"
        ):
            station_observations(
                parse_dly(line_bytes(*lines)), date(1990, 1, 1), date(1990, 1, 31)
            )

    def test_equal_duplicates_accepted(self):
        line = make_dly_line("USW00099901", 1990, 1, "TMAX", {d: 50 for d in range(1, 32)})
        low = make_dly_line("USW00099901", 1990, 1, "TMIN", {d: 10 for d in range(1, 32)})
        tmax, _, _ = station_observations(
            parse_dly(line_bytes(line, low, line)), date(1990, 1, 1), date(1990, 1, 31)
        )
        assert set(tmax.tolist()) == {to_fahrenheit_int(50)}

    def test_nonexistent_day_rejected_even_outside_window(self):
        lines = [
            make_dly_line("USW00099901", 1990, 1, "TMAX", {d: 50 for d in range(1, 32)}),
            make_dly_line("USW00099901", 1990, 1, "TMIN", {d: 10 for d in range(1, 32)}),
            make_dly_line("USW00099901", 1950, 2, "TMIN", {29: 10}),
        ]
        with pytest.raises(
            DlyParseError, match="line 3: value on nonexistent day 1950-02-29 of TMIN"
        ):
            station_observations(
                parse_dly(line_bytes(*lines)), date(1990, 1, 1), date(1990, 1, 31)
            )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_day_reference(self, data):
        # random months, holes, flags, inversions, duplicates and out-of-window
        # lines against the dict-per-day assembly this module used to do
        start = date(1999, 12, 20)
        end = date(2000, 3, 10)
        strict_qc = data.draw(st.booleans())
        lines = []
        for _ in range(data.draw(st.integers(1, 12))):
            year, month = data.draw(st.sampled_from(
                [(1999, 11), (1999, 12), (2000, 1), (2000, 2), (2000, 3), (2000, 4)]
            ))
            element = data.draw(st.sampled_from(["TMAX", "TMIN", "PRCP"]))
            # now and then one day past the month's end
            days = calendar.monthrange(year, month)[1] + data.draw(st.sampled_from([0, 0, 0, 1]))
            values = {
                d: data.draw(st.integers(-300, 400))
                for d in range(1, days + 1)
                if data.draw(st.integers(0, 9)) > 0
            }
            flags = {d: (" ", data.draw(st.sampled_from(" X")), " ") for d in values}
            lines.append(make_dly_line("USW00099901", year, month, element, values, flags))
        records = parse_dly(line_bytes(*lines))
        try:
            expected = reference_observations(records, start, end, strict_qc)
        except ValueError as exc:
            with pytest.raises(type(exc)) as info:
                station_observations(records, start, end, strict_qc)
            assert str(exc) in str(info.value)
            return
        tmax, tmin, notes = station_observations(records, start, end, strict_qc)
        assert (tmax.tolist(), tmin.tolist()) == expected[:2]
        assert notes == expected[2]


def reference_observations(records, start, end, strict_qc):
    """The per-day loop station_observations replaced, on RawDlyRecords."""
    notes = IngestNotes()
    by_element = {"TMAX": {}, "TMIN": {}}
    for record in filter_elements(decode_records(records)):
        store = by_element[record.element]
        for day_index, slot in enumerate(record.values):
            if slot.value == MISSING:
                continue
            try:
                when = date(record.year, record.month, day_index + 1)
            except ValueError:
                raise DlyParseError(
                    f"value on nonexistent day {record.year}-{record.month:02d}-"
                    f"{day_index + 1:02d} of {record.element}"
                )
            if not start <= when <= end:
                continue
            if strict_qc and slot.qflag != " ":
                notes.qc_suppressed.setdefault(record.element, []).append(when)
                continue
            previous = store.get(when)
            if previous is not None and previous != slot.value:
                raise ValueError(
                    f"conflicting duplicate {record.element} values on {when}"
                )
            store[when] = slot.value
    days = [start + timedelta(days=i) for i in range((end - start).days + 1)]
    filled = {}
    for element in ("TMAX", "TMIN"):
        store = by_element[element]
        raw = [int(to_fahrenheit_int(store[d])) if d in store else None for d in days]
        notes.interpolated[element] = [d for d, v in zip(days, raw) if v is None]
        if raw[0] is None or raw[-1] is None:
            raise BoundaryGapError(element)
        if any(a is None and b is None for a, b in zip(raw, raw[1:])):
            raise UnsupportedGapError(element, [])
        filled[element] = [
            v if v is not None else int(round_half_away_from_zero(raw[i - 1] + raw[i + 1], 2))
            for i, v in enumerate(raw)
        ]
    tmax, tmin = [], []
    for when, high, low in zip(days, filled["TMAX"], filled["TMIN"]):
        if high < low:
            high, low = low, high
            notes.inversions_repaired.append(when)
        tmax.append(high)
        tmin.append(low)
    return tmax, tmin, notes


class FakeResponse:
    def __init__(self, status_code: int, content: bytes = b""):
        self.status_code = status_code
        self.content = content


STATION = "USW00013739"


def station_payload(station_id: str = STATION, tmax: int = 217) -> bytes:
    return line_bytes(
        make_dly_line(station_id, 1960, 1, "TMAX", {1: tmax}),
        make_dly_line(station_id, 1960, 1, "TMIN", {1: 10}),
    )


class TestFetchStation:
    def test_cache_hit_bypasses_network(self, tmp_path):
        payload = b"cached-bytes"
        (tmp_path / f"{STATION}.dly").write_bytes(payload)

        def no_network(url):
            raise AssertionError("network touched despite cache hit")

        result = fetch_station(
            STATION, "http://example.invalid", tmp_path, http_get=no_network
        )
        assert result.data == payload
        assert len(result) == len(payload)
        assert result.source == "cache"
        assert result.cache_path == str(tmp_path / f"{STATION}.dly")

    def test_empty_cache_http_404(self, tmp_path):
        with pytest.raises(FetchError) as excinfo:
            fetch_station(
                STATION,
                "http://example.invalid",
                tmp_path,
                http_get=lambda url: FakeResponse(404),
            )
        assert excinfo.value.status == 404

    def test_fetch_twice_is_deterministic(self, tmp_path):
        calls = []

        def fake_get(url):
            calls.append(url)
            return FakeResponse(200, station_payload())

        first = fetch_station(STATION, "http://x.invalid", tmp_path, http_get=fake_get)
        second = fetch_station(STATION, "http://x.invalid", tmp_path, http_get=fake_get)
        assert first.data == second.data == station_payload()
        assert (first.source, second.source) == ("network", "cache")
        assert len(calls) == 1  # second call was served from cache

    def test_refresh_prefers_fresh_payload_with_warning(self, tmp_path):
        (tmp_path / f"{STATION}.dly").write_bytes(station_payload(tmax=100))
        with pytest.warns(UserWarning, match="differs"):
            result = fetch_station(
                STATION,
                "http://x.invalid",
                tmp_path,
                refresh=True,
                http_get=lambda url: FakeResponse(200, station_payload()),
            )
        assert (result.data, result.source) == (station_payload(), "network")
        assert (tmp_path / f"{STATION}.dly").read_bytes() == station_payload()

    def test_refresh_falls_back_to_cache_and_says_so(self, tmp_path):
        cache_file = tmp_path / f"{STATION}.dly"
        cache_file.write_bytes(station_payload())
        result = fetch_station(
            STATION,
            "http://x.invalid",
            tmp_path,
            refresh=True,
            http_get=lambda url: FakeResponse(503),
        )
        assert (result.data, result.source) == (station_payload(), "cache")
        assert result.fetched_at.timestamp() == pytest.approx(cache_file.stat().st_mtime)

    @pytest.mark.parametrize(
        "payload,reason",
        [
            (b"<html><body>Service unavailable</body></html>\n", "line 1: expected 269"),
            (station_payload()[:-40], "line 2: expected 269"),
            (station_payload("USW00099999"), "holds station USW00099999, not USW00013739"),
            (
                line_bytes(make_dly_line(STATION, 1960, 1, "PRCP", {1: 5})),
                "no TMAX or TMIN",
            ),
            (b"", "no TMAX or TMIN"),
            (
                station_payload().replace(b"   10", b"  +10", 1),
                "line 2: non-numeric value field '  +10' for day 1",
            ),
        ],
        ids=["html", "truncated", "wrong-station", "no-temperature", "empty", "signed-value"],
    )
    def test_bad_payload_never_cached(self, tmp_path, payload, reason):
        cache_file = tmp_path / f"{STATION}.dly"
        cache_file.write_bytes(station_payload())
        with pytest.raises(FetchError, match=f"http://x.invalid/{STATION}.dly") as info:
            fetch_station(
                STATION,
                "http://x.invalid",
                tmp_path,
                refresh=True,
                http_get=lambda url: FakeResponse(200, payload),
            )
        assert reason in str(info.value)
        assert cache_file.read_bytes() == station_payload()
        assert [p.name for p in tmp_path.iterdir()] == [cache_file.name]

