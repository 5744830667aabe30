"""GHCN-daily ingestion.

Parses the fixed-width ``.dly`` station files distributed by NOAA's
GHCN-daily archive, fetches them over HTTP with an on-disk cache, converts
the stored tenths-of-degree-Celsius values to integer degrees Fahrenheit,
and repairs isolated single-day gaps by averaging the neighbouring days.

``.dly`` line layout (1-based columns, 269 characters total):

    1-11   station identifier
    12-15  year
    16-17  month
    18-21  element code (TMAX, TMIN, ...)
    22-269 31 day groups of 8 characters each:
           value (5, right-justified, -9999 = missing), mflag, qflag, sflag
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Callable, NamedTuple, Optional, Sequence

import requests

MISSING = -9999
LINE_LENGTH = 269
DAY_SLOTS = 31
TEMPERATURE_ELEMENTS = ("TMAX", "TMIN")
DEFAULT_ENDPOINT = "https://www.ncei.noaa.gov/pub/data/ghcn/daily/all"


class DlyParseError(ValueError):
    """A ``.dly`` line violates the fixed-width format."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class FetchError(RuntimeError):
    """Archive payload could not be obtained from network or cache."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class BoundaryGapError(ValueError):
    """A series is missing its first or last observation."""


class UnsupportedGapError(ValueError):
    """Two or more consecutive days are missing; interpolation refuses to guess."""

    def __init__(self, message: str, positions: Sequence[object]):
        super().__init__(message)
        self.positions = list(positions)


class DlyValue(NamedTuple):
    value: int
    mflag: str
    qflag: str
    sflag: str


@dataclass(frozen=True)
class RawDlyRecord:
    """One station-month-element line, exactly as stored in the archive."""

    station_id: str
    year: int
    month: int
    element: str
    values: tuple[DlyValue, ...]  # always 31 slots


@dataclass(frozen=True)
class DailyObservation:
    """One station-day of temperatures in integer degrees Fahrenheit."""

    date: date
    tmax_f: Optional[int]
    tmin_f: Optional[int]


@dataclass
class IngestNotes:
    """Diagnostics accumulated while repairing a station's record."""

    interpolated: dict[str, list[date]] = field(default_factory=dict)
    qc_suppressed: dict[str, list[date]] = field(default_factory=dict)
    inversions_repaired: list[date] = field(default_factory=list)


def parse_dly(data: bytes) -> list[RawDlyRecord]:
    """Parse a ``.dly`` byte stream into raw records, one per line.

    Every element code present in the file is retained; filter afterwards
    with :func:`filter_elements`. Raises :class:`DlyParseError` (carrying
    the 1-based line number) on malformed lines.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # lines of the ASCII prefix, with "?" standing in for the bad byte
        number = len((data[: exc.start] + b"?").decode("ascii").splitlines())
        raise DlyParseError(
            f"non-ASCII byte 0x{data[exc.start]:02x}; not a .dly file", number
        ) from None
    records = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if not raw:
            continue
        if len(raw) != LINE_LENGTH:
            raise DlyParseError(
                f"expected {LINE_LENGTH} characters, got {len(raw)}", number
            )
        station_id = raw[0:11]
        try:
            year = int(raw[11:15])
        except ValueError:
            raise DlyParseError(f"non-numeric year field {raw[11:15]!r}", number)
        try:
            month = int(raw[15:17])
        except ValueError:
            raise DlyParseError(f"non-numeric month field {raw[15:17]!r}", number)
        if not 1 <= month <= 12:
            raise DlyParseError(f"month {month} out of range", number)
        element = raw[17:21]
        slots = []
        for day in range(DAY_SLOTS):
            offset = 21 + 8 * day
            text = raw[offset : offset + 5]
            try:
                value = int(text)
            except ValueError:
                raise DlyParseError(
                    f"non-numeric value field {text!r} for day {day + 1}", number
                )
            slots.append(
                DlyValue(value, raw[offset + 5], raw[offset + 6], raw[offset + 7])
            )
        records.append(RawDlyRecord(station_id, year, month, element, tuple(slots)))
    return records


def serialize_record(record: RawDlyRecord) -> str:
    """Render a record back to its 269-character archive line."""
    parts = [
        f"{record.station_id:<11.11}",
        f"{record.year:04d}",
        f"{record.month:02d}",
        f"{record.element:<4.4}",
    ]
    for slot in record.values:
        parts.append(f"{slot.value:5d}{slot.mflag}{slot.qflag}{slot.sflag}")
    line = "".join(parts)
    assert len(line) == LINE_LENGTH
    return line


def filter_elements(
    records: Sequence[RawDlyRecord], elements: Sequence[str] = TEMPERATURE_ELEMENTS
) -> list[RawDlyRecord]:
    wanted = set(elements)
    return [r for r in records if r.element in wanted]


def round_half_away_from_zero(numerator: int, denominator: int) -> int:
    """Exact integer rounding of numerator/denominator, halves away from zero."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    sign = 1 if numerator >= 0 else -1
    quotient, remainder = divmod(abs(numerator), denominator)
    if 2 * remainder >= denominator:
        quotient += 1
    return sign * quotient


def to_fahrenheit_int(tenths_celsius: int) -> int:
    """Convert GHCN storage units (tenths of deg C) to the nearest whole deg F.

    U.S. stations originally report integer Fahrenheit, so rounding recovers
    the published scale. F = tc/10 * 9/5 + 32 = (9*tc + 1600) / 50, evaluated
    in exact integer arithmetic with halves rounded away from zero.
    """
    if tenths_celsius == MISSING:
        raise ValueError("missing sentinel passed to to_fahrenheit_int")
    return round_half_away_from_zero(9 * tenths_celsius + 1600, 50)


def interpolate_missing(
    values: Sequence[Optional[int]],
    labels: Optional[Sequence[object]] = None,
) -> list[int]:
    """Fill isolated interior gaps with the rounded mean of the neighbours.

    Half-values round away from zero. The first and last entries must be
    present (:class:`BoundaryGapError`) and no two consecutive entries may be
    missing (:class:`UnsupportedGapError`); multi-day gaps are a data problem
    the caller has to resolve, not something to guess through.

    ``labels`` (e.g. dates) is only used to describe error positions.
    """
    if not values:
        return []
    tags = labels if labels is not None else list(range(len(values)))
    if values[0] is None:
        raise BoundaryGapError(f"first observation missing at {tags[0]}")
    if values[-1] is None:
        raise BoundaryGapError(f"last observation missing at {tags[-1]}")
    runs: list[list[object]] = []
    run: list[object] = []
    for tag, value in zip(tags, values):
        if value is None:
            run.append(tag)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    long_runs = [r for r in runs if len(r) > 1]
    if long_runs:
        flattened = [tag for r in long_runs for tag in r]
        raise UnsupportedGapError(
            "consecutive missing observations at: "
            + ", ".join(str(t) for t in flattened),
            flattened,
        )
    filled = list(values)
    for i, value in enumerate(filled):
        if value is None:
            filled[i] = round_half_away_from_zero(filled[i - 1] + values[i + 1], 2)
    return filled  # type: ignore[return-value]


def station_observations(
    records: Sequence[RawDlyRecord],
    start: date,
    end: date,
    strict_qc: bool = False,
) -> tuple[list[DailyObservation], IngestNotes]:
    """Assemble a complete daily TMAX/TMIN record over ``[start, end]``.

    Values failing NOAA quality control (nonblank qflag) are used as-is
    unless ``strict_qc`` is set, in which case they are treated as missing
    before gap repair. Days where tmax < tmin are repaired by swapping the
    two readings; the notes report every repair and interpolation.
    """
    if start > end:
        raise ValueError("window start is after window end")
    notes = IngestNotes()
    by_element: dict[str, dict[date, int]] = {e: {} for e in TEMPERATURE_ELEMENTS}
    for record in filter_elements(records):
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
    filled: dict[str, list[int]] = {}
    for element in TEMPERATURE_ELEMENTS:
        store = by_element[element]
        raw = [
            to_fahrenheit_int(store[d]) if d in store else None for d in days
        ]
        notes.interpolated[element] = [d for d, v in zip(days, raw) if v is None]
        try:
            filled[element] = interpolate_missing(raw, labels=days)
        except BoundaryGapError as exc:
            raise BoundaryGapError(f"{element}: {exc}") from exc
        except UnsupportedGapError as exc:
            raise UnsupportedGapError(f"{element}: {exc}", exc.positions) from exc

    observations = []
    for i, when in enumerate(days):
        tmax = filled["TMAX"][i]
        tmin = filled["TMIN"][i]
        if tmax < tmin:
            tmax, tmin = tmin, tmax
            notes.inversions_repaired.append(when)
        observations.append(DailyObservation(when, tmax, tmin))
    return observations, notes


def fetch_station(
    station_id: str,
    endpoint: str = DEFAULT_ENDPOINT,
    cache_dir: str | os.PathLike = "cache",
    refresh: bool = False,
    http_get: Optional[Callable[[str], "requests.Response"]] = None,
) -> bytes:
    """Return the ``.dly`` payload for a station, caching it on disk.

    A cache hit bypasses the network entirely unless ``refresh`` is set.
    When a refreshed payload differs from the cached copy, the fresh bytes
    win and a warning is emitted. Cache writes go through a temp file and
    rename so concurrent fetchers never observe a partial file.
    """
    cache_dir = os.fspath(cache_dir)
    cache_path = os.path.join(cache_dir, f"{station_id}.dly")
    cached: Optional[bytes] = None
    if os.path.exists(cache_path):
        with open(cache_path, "rb") as handle:
            cached = handle.read()
        if not refresh:
            return cached

    if "{station_id}" in endpoint:
        url = endpoint.format(station_id=station_id)
    else:
        url = f"{endpoint.rstrip('/')}/{station_id}.dly"
    getter = http_get if http_get is not None else _default_http_get
    try:
        response = getter(url)
    except Exception as exc:
        if cached is not None:
            return cached
        raise FetchError(f"fetch of {url} failed: {exc}") from exc
    if response.status_code != 200:
        if cached is not None:
            return cached
        raise FetchError(
            f"fetch of {url} returned HTTP {response.status_code}",
            status=response.status_code,
        )
    payload = response.content
    if cached is not None and cached != payload:
        import warnings

        warnings.warn(
            f"cached copy of {station_id} differs from archive "
            f"({len(cached)} vs {len(payload)} bytes); using the fresh payload",
            stacklevel=2,
        )
    os.makedirs(cache_dir, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=cache_dir, suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(temp_path, cache_path)
    finally:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
    return payload


def _default_http_get(url: str) -> "requests.Response":
    return requests.get(url, timeout=120)
