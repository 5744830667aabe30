import calendar
import dataclasses
import random
import weakref
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempdyn import ghcn
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
        assert str(info.value).startswith("line 3: ")

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


def reference_parse(data: bytes) -> list[tuple[int, RawDlyRecord]]:
    """The line-by-line decoder parse_dly replaced, kept as its reference:
    (line number, record) pairs. Lines are split at "\\n" alone, each
    dropping one "\\r" before its "\\n", and each field must be a
    right-justified integer (:func:`conftest.dly_int`)."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        number = len(data[: exc.start].split(b"\n"))
        raise DlyParseError(f"non-ASCII byte 0x{data[exc.start]:02x}; not a .dly file", number)
    *ended, last = text.split("\n")
    records = []
    for number, raw in enumerate([line.removesuffix("\r") for line in ended] + [last], start=1):
        if not raw:
            continue
        if len(raw) != 269:
            raise DlyParseError(f"expected 269 characters, got {len(raw)}", number)
        records.append((number, decode_line(raw, number)))
    return records


def outcome(parse, data: bytes):
    """Decoded columns (values of TMAX/TMIN lines only), or the error."""
    try:
        records = parse(data)
    except DlyParseError as exc:
        return ("error", str(exc))
    if isinstance(records, list):  # the reference
        return ("ok", [
            (number, r.station_id, r.year, r.month, r.element,
             [v.value for v in r.values] if r.element in ("TMAX", "TMIN") else None,
             "".join(v.mflag + v.qflag + v.sflag for v in r.values))
            for number, r in records
        ])
    values = dict(zip(records.rows.tolist(), records.values.tolist()))
    return ("ok", [
        (records.line_numbers[i].item(), line[:11], records.year[i].item(),
         records.month[i].item(), line[17:21], values.get(i),
         "".join(line[26 + 8 * d : 29 + 8 * d] for d in range(31)))
        for i, line in enumerate(row.tobytes().decode("ascii") for row in records.lines)
    ])


# (start, stop) of the year, month and 31 value fields
NUMERIC_FIELDS = [(11, 15), (15, 17)] + [(21 + 8 * d, 26 + 8 * d) for d in range(31)]
CORRUPTIONS = ["abcde", "1 2", "  -", "+12", "     ", " +12 ", "1_2", "-0", "00012",
               "--5", "- 5", "5-", "-", "   13", "00", " -1", "\t12"]
CONTROL_BYTES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\r"]


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
    if lines and draw(st.integers(0, 3)) == 0:
        # a control byte that does not end a line, as only "\n" does
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
        lines[i] = lines[i][:j] + draw(st.sampled_from(CONTROL_BYTES)) + lines[i][j + 1 :]
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


def parse_result(parse, data: bytes):
    """Every field of the records, as (dtype, list) pairs, or the error."""
    try:
        records = parse(data)
    except DlyParseError as exc:
        return ("error", str(exc))
    return ("ok", [
        (getattr(records, f.name).dtype, getattr(records, f.name).tolist())
        for f in dataclasses.fields(records)
    ])


def clean_payloads() -> list[bytes]:
    rng = random.Random(20240601)
    return [
        synthetic_station_bytes("USW00099901", date(1960, 1, 1), date(1961, 12, 31)),
        line_bytes(*(random_valid_line(rng) for _ in range(40))),
        line_bytes(fixture_line()),
    ]


def irregular_payloads() -> dict[str, bytes]:
    """Payloads that are not whole 269-byte lines ended by a newline, and
    payloads of such lines with a corrupted year, month or value field."""
    good = [make_dly_line("USW00013739", 1960, m, "TMAX", {1: 10, 31: -5}) for m in (1, 2, 3)]
    payload = line_bytes(*good)
    cases = {
        "crlf": payload.replace(b"\n", b"\r\n"),
        "no-final-newline": payload[:-1],
        "blank-lines": b"\n" + line_bytes(good[0], "", good[1], "") + good[2].encode() + b"\n\n",
        "non-ascii-byte": payload[:300] + b"\xe9" + payload[301:],
        "form-feed": payload[:300] + b"\x0c" + payload[301:],
        "tab": payload[:300] + b"\t" + payload[301:],
        "short-line": line_bytes(good[0], good[1][:-1], good[2]),
        "empty": b"",
        "cr-only": payload.replace(b"\n", b"\r"),
        "cr-cr-lf": payload.replace(b"\n", b"\r\r\n"),
        # payloads of 270-byte rows ended by "\n" that are not 269-byte lines
        "newline-inside-a-line": payload[:370] + b"\n" + payload[371:],
        "cr-before-newline": payload[:538] + b"\r" + payload[539:],
        "leading-blank-line-and-trailing-cr": b"\n" + payload + b"\r",
        # the sflag of day 1 on line 2
        "file-separator-in-sflag": payload[:298] + b"\x1c" + payload[299:],
        # a form feed in line 1's sflag of day 1, a non-ASCII byte in line 3
        "non-ascii-after-form-feed": (
            payload[:28] + b"\x0c" + payload[29:640] + b"\xe9" + payload[641:]
        ),
    }
    for text in CORRUPTIONS:
        for start, stop in [(11, 15), (15, 17), (21, 26), (261, 266)]:
            lines = list(good)
            lines[1] = lines[1][:start] + text.rjust(stop - start)[: stop - start] + lines[1][stop:]
            cases[f"{text!r}@{start}"] = line_bytes(*lines)
    return cases


class TestBytesNativeParse:
    @pytest.mark.parametrize("index", range(3))
    def test_clean_file_is_parsed_in_place(self, index):
        data = clean_payloads()[index]
        records = parse_dly(data)
        # the line matrix is a view of the payload, not a copy
        assert np.shares_memory(records.lines, np.frombuffer(data, dtype=np.uint8))
        assert records.line_numbers.tolist() == list(range(1, len(records.lines) + 1))
        assert outcome(parse_dly, data) == outcome(reference_parse, data)
        # CRLF endings take the gathered copy, with every field and dtype equal
        crlf = data.replace(b"\n", b"\r\n")
        assert not np.shares_memory(parse_dly(crlf).lines, np.frombuffer(crlf, dtype=np.uint8))
        assert parse_result(parse_dly, crlf) == parse_result(parse_dly, data)

    @pytest.mark.parametrize("case", list(irregular_payloads()))
    def test_irregular_or_corrupt_file_parses_or_fails_as_the_reference_does(self, case):
        data = irregular_payloads()[case]
        assert outcome(parse_dly, data) == outcome(reference_parse, data)

    @pytest.mark.parametrize("case, message", [
        ("form-feed", "line 2: non-numeric value field '-\\x0c999' for day 2"),
        ("cr-only", "line 1: expected 269 characters, got 810"),
        ("cr-cr-lf", "line 1: expected 269 characters, got 270"),
        ("non-ascii-after-form-feed", "line 3: non-ASCII byte 0xe9; not a .dly file"),
    ])
    def test_only_newline_ends_a_line(self, case, message):
        with pytest.raises(DlyParseError) as info:
            parse_dly(irregular_payloads()[case])
        assert str(info.value) == message

    def test_control_byte_in_a_flag_column_is_kept(self):
        records = parse_dly(irregular_payloads()["file-separator-in-sflag"])
        assert records.lines[1, 28] == 0x1C
        assert records.line_numbers.tolist() == [1, 2, 3]


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
        assert str(info.value) == "consecutive missing observations at: 2010-05-10, 2010-05-11"

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
        assert notes.interpolated["TMAX"] == [hole.isoformat()]
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
        assert notes.qc_suppressed == {"TMIN": [flagged.isoformat()]}
        assert notes.interpolated["TMIN"] == [flagged.isoformat()]
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
        assert notes.inversions_repaired == ["1990-01-15"]
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
                notes.qc_suppressed.setdefault(record.element, []).append(when.isoformat())
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
        notes.interpolated[element] = [d.isoformat() for d, v in zip(days, raw) if v is None]
        if raw[0] is None or raw[-1] is None:
            raise BoundaryGapError(element)
        if any(a is None and b is None for a, b in zip(raw, raw[1:])):
            raise UnsupportedGapError(element)
        filled[element] = [
            v if v is not None else int(round_half_away_from_zero(raw[i - 1] + raw[i + 1], 2))
            for i, v in enumerate(raw)
        ]
    tmax, tmin = [], []
    for when, high, low in zip(days, filled["TMAX"], filled["TMIN"]):
        if high < low:
            high, low = low, high
            notes.inversions_repaired.append(when.isoformat())
        tmax.append(high)
        tmin.append(low)
    return tmax, tmin, notes


STATION = "USW00013739"
PATH = f"/{STATION}.dly"


def station_payload(station_id: str = STATION, tmax: int = 217) -> bytes:
    return line_bytes(
        make_dly_line(station_id, 1960, 1, "TMAX", {1: tmax}),
        make_dly_line(station_id, 1960, 1, "TMIN", {1: 10}),
    )


def not_found(archive, tmp_path):
    return archive.url


def unavailable(archive, tmp_path):
    archive.serve(PATH, status=503)
    return archive.url


def no_content(archive, tmp_path):
    archive.serve(PATH, status=204)
    return archive.url


def short_body(archive, tmp_path):
    # a transfer cut short of its Content-Length
    length = str(len(station_payload()))
    archive.serve(PATH, station_payload()[:100], headers={"Content-Length": length})
    return archive.url


def stalled(archive, tmp_path):
    archive.stall(PATH)
    return archive.url


def file_endpoint(archive, tmp_path):
    # urlopen would read this file and report no status
    mirror = tmp_path / "mirror"
    mirror.mkdir()
    (mirror / f"{STATION}.dly").write_bytes(station_payload())
    return mirror.as_uri()


# how each failure is set up, and the end of its FetchError text
FETCH_FAILURES = {
    "404": (not_found, "returned HTTP 404"),
    "503": (unavailable, "returned HTTP 503"),
    "204": (no_content, "returned HTTP 204"),
    "short-body": (short_body, "failed: IncompleteRead(100 bytes read, 440 more expected)"),
    "stall": (stalled, "failed: timed out"),
    "file-endpoint": (file_endpoint, "failed: endpoint scheme 'file' is not http or https"),
}


class TestFetchStations:
    def test_a_download_is_freed_once_its_result_is_dropped(self, tmp_path, monkeypatch):
        # the call made for a download lets go of its future when it returns,
        # so the caller that still holds the call holds no payload
        class Result:
            pass

        monkeypatch.setattr(ghcn, "fetch_station", lambda *args: Result())
        calls = ghcn.fetch_stations([STATION], "http://127.0.0.1:1", tmp_path, refresh=True)
        fetch = next(calls)
        result = fetch()
        freed = weakref.ref(result)
        del result
        calls.close()  # ends the pool, so no worker thread holds the result either
        assert callable(fetch) and freed() is None


class TestFetchStation:
    def test_cache_hit_bypasses_network(self, tmp_path, archive):
        # the cached copy differs from the archive's, and is the one returned
        payload = station_payload(tmax=100)
        (tmp_path / f"{STATION}.dly").write_bytes(payload)
        archive.serve(PATH, station_payload())

        result = fetch_station(STATION, archive.url, tmp_path)
        assert decode_records(result.records) == decode_records(parse_dly(payload))
        assert result.source == "cache"
        assert result.cache_path == str(tmp_path / f"{STATION}.dly")
        assert (result.refresh_error, result.cache_replaced) == (None, None)
        assert archive.requests == []

    @pytest.mark.parametrize("refresh", [False, True], ids=["hit", "refresh-fallback"])
    def test_cache_file_that_does_not_parse_is_named(self, tmp_path, archive, refresh):
        # a cache hit, or the fallback of a refresh the archive refused
        cache_file = tmp_path / f"{STATION}.dly"
        cache_file.write_bytes(b"cached-bytes")
        archive.serve(PATH, status=503)
        with pytest.raises(DlyParseError) as info:
            fetch_station(STATION, archive.url, tmp_path, refresh=refresh)
        why = f" (refresh failed: fetch of {archive.url}{PATH} returned HTTP 503)"
        assert str(info.value) == (
            f"cached file {cache_file}: line 1: expected 269 characters, got 12; "
            "delete it or rerun with --refresh" + (why if refresh else "")
        )
        assert archive.requests == ([PATH] if refresh else [])
        assert cache_file.read_bytes() == b"cached-bytes"

    def test_empty_cache_http_404(self, tmp_path, archive):
        with pytest.raises(FetchError) as excinfo:
            fetch_station(STATION, archive.url, tmp_path)
        assert str(excinfo.value) == f"fetch of {archive.url}/{STATION}.dly returned HTTP 404"

    def test_fetch_twice_is_deterministic(self, tmp_path, archive):
        archive.serve(PATH, station_payload())
        first = fetch_station(STATION, archive.url, tmp_path)
        second = fetch_station(STATION, archive.url, tmp_path)
        assert (first.source, second.source) == ("network", "cache")
        # the download comes with the records checked before it was cached
        assert decode_records(first.records) == decode_records(parse_dly(station_payload()))
        assert decode_records(second.records) == decode_records(first.records)
        assert archive.requests == [PATH]  # second call was served from cache
        assert (tmp_path / f"{STATION}.dly").read_bytes() == station_payload()

    def test_redirect_is_followed_to_the_payload(self, tmp_path, archive):
        archive.serve(PATH, status=302, headers={"Location": f"/moved{PATH}"})
        archive.serve(f"/moved{PATH}", station_payload())
        result = fetch_station(STATION, archive.url, tmp_path)
        assert result.source == "network"
        assert decode_records(result.records) == decode_records(parse_dly(station_payload()))
        assert (tmp_path / f"{STATION}.dly").read_bytes() == station_payload()
        assert archive.requests == [PATH, f"/moved{PATH}"]

    def test_refresh_prefers_fresh_payload_with_a_note(self, tmp_path, archive):
        cached = station_payload(tmax=100) + station_payload()
        (tmp_path / f"{STATION}.dly").write_bytes(cached)
        archive.serve(PATH, station_payload())
        result = fetch_station(STATION, archive.url, tmp_path, refresh=True)
        assert result.source == "network"
        assert decode_records(result.records) == decode_records(parse_dly(station_payload()))
        assert result.cache_replaced == (
            f"archive copy differs from the cache ({len(cached)} vs "
            f"{len(station_payload())} bytes); cache replaced"
        )
        assert (tmp_path / f"{STATION}.dly").read_bytes() == station_payload()
        # a refresh that finds the same bytes has nothing to say
        again = fetch_station(STATION, archive.url, tmp_path, refresh=True)
        assert (again.source, again.cache_replaced) == ("network", None)

    def test_refresh_compares_contents_of_the_same_size(self, tmp_path, archive, monkeypatch):
        # one byte differs in the last of several chunks
        monkeypatch.setattr(ghcn, "_COMPARE_CHUNK", 100)
        payload = station_payload()
        cached = payload[:-2] + b"X" + payload[-1:]
        (tmp_path / f"{STATION}.dly").write_bytes(cached)
        archive.serve(PATH, payload)
        result = fetch_station(STATION, archive.url, tmp_path, refresh=True)
        assert result.cache_replaced == (
            f"archive copy differs from the cache ({len(cached)} vs {len(payload)} bytes); "
            "cache replaced"
        )
        assert (tmp_path / f"{STATION}.dly").read_bytes() == payload

    def test_refresh_falls_back_to_cache_and_says_so(self, tmp_path, archive):
        cache_file = tmp_path / f"{STATION}.dly"
        cache_file.write_bytes(station_payload())
        archive.serve(PATH, status=503)
        result = fetch_station(STATION, archive.url, tmp_path, refresh=True)
        assert result.source == "cache"
        assert decode_records(result.records) == decode_records(parse_dly(station_payload()))
        assert result.fetched_at.timestamp() == pytest.approx(cache_file.stat().st_mtime)

    @pytest.mark.parametrize("failure", FETCH_FAILURES)
    def test_failed_fetch_without_cache_names_the_url(
        self, tmp_path, archive, monkeypatch, failure
    ):
        setup, text = FETCH_FAILURES[failure]
        monkeypatch.setattr(ghcn, "_TIMEOUT", 0.2)
        endpoint = setup(archive, tmp_path)
        with pytest.raises(FetchError) as info:
            fetch_station(STATION, endpoint, tmp_path / "cache")
        assert str(info.value) == f"fetch of {endpoint}/{STATION}.dly {text}"
        assert not (tmp_path / "cache").exists()
        expected = [] if failure == "file-endpoint" else [PATH]
        assert archive.requests == expected

    def test_download_without_its_cache_directory_names_the_directory(self, tmp_path, archive):
        # the payload is served and parses; the directory to keep it in is
        # missing, so the write of the cache file fails and names it
        archive.serve(PATH, station_payload())
        cache = tmp_path / "cache"
        with pytest.raises(OSError) as info:
            fetch_station(STATION, archive.url, cache)
        assert str(info.value) == f"cannot write {cache / f'{STATION}.dly'}: No such file or directory"
        assert archive.requests == [PATH]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure", FETCH_FAILURES)
    def test_failed_refresh_falls_back_to_the_cache(
        self, tmp_path, archive, monkeypatch, failure
    ):
        setup, text = FETCH_FAILURES[failure]
        monkeypatch.setattr(ghcn, "_TIMEOUT", 0.2)
        endpoint = setup(archive, tmp_path)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / f"{STATION}.dly").write_bytes(station_payload(tmax=100))
        result = fetch_station(STATION, endpoint, cache, refresh=True)
        assert result.source == "cache"
        # the FetchError text the fetch would have raised with nothing cached
        assert result.refresh_error == f"fetch of {endpoint}/{STATION}.dly {text}"
        assert decode_records(result.records) == decode_records(parse_dly(station_payload(tmax=100)))
        assert [p.name for p in cache.iterdir()] == [f"{STATION}.dly"]

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
    def test_bad_payload_never_cached(self, tmp_path, archive, payload, reason):
        cache_file = tmp_path / f"{STATION}.dly"
        cache_file.write_bytes(station_payload())
        archive.serve(PATH, payload)
        with pytest.raises(FetchError, match=f"{archive.url}/{STATION}.dly") as info:
            fetch_station(STATION, archive.url, tmp_path, refresh=True)
        assert reason in str(info.value)
        assert cache_file.read_bytes() == station_payload()
        assert [p.name for p in tmp_path.iterdir()] == [cache_file.name]
