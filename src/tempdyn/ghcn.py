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

Parsing is array-native. The non-empty lines become one ``(lines, 269)``
uint8 matrix (a view of the payload itself when every line is 269
printable ASCII bytes and a newline); year, month and every value field
of every element are checked with byte masks, and only the TMAX/TMIN value
fields are decoded, to an int32 ``(rows, 31)`` array. Every year, month and value field must be
a right-justified integer, as the archive's readme.txt defines them:
optional leading spaces, an optional ``-`` and at least one digit. The first
line in file order with any other field (``+12``, ``1_2``, trailing blanks,
a tab, letters) or a month outside 1..12 raises :class:`DlyParseError`,
naming its 1-based line number, the field and, for a value, the day.
Repair scatters each element into an array indexed by day of the window,
so no per-day object is ever built.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .series import write_atomic
from .stations import DEFAULT_ENDPOINT

MISSING = -9999
LINE_LENGTH = 269
DAY_SLOTS = 31
TEMPERATURE_ELEMENTS = ("TMAX", "TMIN")

# byte classes of a plain integer field: spaces, then at most one minus,
# then digits, so the classes never decrease along the field
_SPACE, _MINUS, _DIGIT, _OTHER = 0, 1, 2, 3
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[ord(" ")] = _SPACE
_BYTE_CLASS[ord("-")] = _MINUS
_BYTE_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_BYTE_CLASS.setflags(write=False)
_QFLAG_COLUMNS = slice(21 + 6, LINE_LENGTH, 8)

# seconds a download may wait for the connection or for the next bytes
_TIMEOUT = 120
# downloads wait on the network, so this many overlap, each at most this
# far ahead of the parse
FETCH_THREADS = 4


class DlyParseError(ValueError):
    """A ``.dly`` line violates the fixed-width format."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class FetchError(RuntimeError):
    """Archive payload could not be obtained from network or cache."""


class BoundaryGapError(ValueError):
    """A series is missing its first or last observation."""


class UnsupportedGapError(ValueError):
    """Two or more consecutive days are missing; interpolation refuses to guess."""


@dataclass(frozen=True, eq=False)
class DlyRecords:
    """The lines of one ``.dly`` file, column by column.

    ``lines`` is the (n, 269) byte matrix of the non-empty lines in file
    order and ``line_numbers`` their 1-based numbers in the file. ``year``,
    ``month`` and ``element`` (4-byte codes) are decoded for every line;
    ``values`` (int32, 31 day slots) only for the TMAX/TMIN lines whose
    indices ``rows`` lists. ``len()`` counts lines. No per-line record is
    kept.
    """

    lines: np.ndarray
    line_numbers: np.ndarray
    year: np.ndarray
    month: np.ndarray
    element: np.ndarray
    rows: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.lines)

    def station_ids(self) -> list[str]:
        """The distinct station identifiers, sorted."""
        ids = np.unique(self.lines[:, :11].copy().view("S11"))
        return [s.decode("ascii") for s in ids.tolist()]


@dataclass(frozen=True)
class Fetched:
    """A station's ``.dly`` bytes, their :func:`parse_station` records, and
    how this run obtained them.

    ``source`` is ``"network"`` when the bytes were downloaded by this call
    and ``"cache"`` when they were read from ``cache_path`` (a cache hit, or
    the fallback when a refresh could not reach the archive). ``fetched_at``
    is when the bytes left the archive: the download time, or the cache
    file's modification time. ``refresh_error`` says why a refresh fell
    back to the cache, ``cache_replaced`` that it replaced a different
    cached copy; None otherwise. ``len()`` is the payload's byte count.
    """

    data: bytes
    source: str
    cache_path: str
    fetched_at: datetime
    records: DlyRecords
    refresh_error: Optional[str] = None
    cache_replaced: Optional[str] = None

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class IngestNotes:
    """Diagnostics accumulated while repairing a station's record."""

    interpolated: dict[str, list[date]] = field(default_factory=dict)
    qc_suppressed: dict[str, list[date]] = field(default_factory=dict)
    inversions_repaired: list[date] = field(default_factory=list)


def parse_dly(data: bytes) -> DlyRecords:
    """Parse a ``.dly`` byte stream into columnar records, one per line.

    Every element code present in the file is retained; select records on
    ``element`` afterwards. Raises
    :class:`DlyParseError` (carrying the 1-based line number) for the first
    malformed line; empty lines are skipped and CRLF endings accepted.
    """
    # A payload of whole 269-byte lines, each ended by "\n", in printable
    # ASCII (no byte that str.splitlines would split at) is its own line
    # matrix, taken without a copy. Any other payload goes through the text.
    width = LINE_LENGTH + 1
    if data and len(data) % width == 0:
        matrix = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
        lines = matrix[:, :LINE_LENGTH]
        if (
            (matrix[:, LINE_LENGTH] == ord("\n")).all()
            and lines.min() >= ord(" ")
            and lines.max() <= ord("~")
        ):
            return _decode_matrix(lines, np.arange(1, len(lines) + 1))
    return _parse_text(data)


def _parse_text(data: bytes) -> DlyRecords:
    """:func:`parse_dly` of any payload, through its ASCII text and lines."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # lines of the ASCII prefix, with "?" standing in for the bad byte
        number = len((data[: exc.start] + b"?").decode("ascii").splitlines())
        raise DlyParseError(
            f"non-ASCII byte 0x{data[exc.start]:02x}; not a .dly file", number
        ) from None
    lines = text.splitlines()
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    wrong = np.flatnonzero((lengths != LINE_LENGTH) & (lengths > 0))
    end = int(wrong[0]) if wrong.size else len(lines)
    matrix = np.frombuffer("".join(lines[:end]).encode("ascii"), dtype=np.uint8)
    # the lines before the first one of the wrong length may hold an earlier error
    records = _decode_matrix(
        matrix.reshape(-1, LINE_LENGTH), np.flatnonzero(lengths[:end]) + 1
    )
    if wrong.size:
        raise DlyParseError(
            f"expected {LINE_LENGTH} characters, got {lengths[end]}", end + 1
        )
    return records


def _plain(fields: np.ndarray) -> np.ndarray:
    """Mask over the last axis: spaces, an optional '-', then digits."""
    kinds = [_BYTE_CLASS[fields[..., j]] for j in range(fields.shape[-1])]
    plain = kinds[-1] == _DIGIT
    for left, right in zip(kinds, kinds[1:]):
        plain &= (left <= right) & ((left != _MINUS) | (right != _MINUS))
    return plain


def _decode_plain(fields: np.ndarray) -> np.ndarray:
    """int32 values of fields (last axis) that :func:`_plain` accepts."""
    magnitude = np.zeros(fields.shape[:-1], dtype=np.int32)
    negative = np.zeros(fields.shape[:-1], dtype=bool)
    for j in range(fields.shape[-1]):
        column = fields[..., j]
        digit = column - np.uint8(ord("0"))  # spaces and '-' wrap past 9
        magnitude = magnitude * 10 + np.where(digit <= 9, digit, 0)
        negative |= column == ord("-")
    return np.where(negative, -magnitude, magnitude)


def _decode_matrix(matrix: np.ndarray, line_numbers: np.ndarray) -> DlyRecords:
    """Check and decode the line matrix in bulk; the first line in file order
    with a field outside the plain pattern, or a month outside 1..12, raises."""
    value_fields = matrix[:, 21:].reshape(-1, DAY_SLOTS, 8)[:, :, :5]
    year = _decode_plain(matrix[:, 11:15])
    month = _decode_plain(matrix[:, 15:17])
    plain = (
        _plain(matrix[:, 11:15])
        & _plain(matrix[:, 15:17])
        & (month >= 1)
        & (month <= 12)
        & _plain(value_fields).all(axis=1)
    )
    if not plain.all():
        row = int(np.argmin(plain))
        raise _field_error(matrix[row], int(line_numbers[row]))
    element = matrix[:, 17:21].copy().view("S4").ravel()
    temperature = np.isin(element, [e.encode("ascii") for e in TEMPERATURE_ELEMENTS])
    rows = np.flatnonzero(temperature)
    values = _decode_plain(value_fields[rows])
    return DlyRecords(matrix, line_numbers, year, month, element, rows, values)


def _field_error(line: np.ndarray, number: int) -> DlyParseError:
    """The error for the first bad field of a line :func:`_decode_matrix` refused."""
    raw = line.tobytes().decode("ascii")
    if not _plain(line[11:15]):
        return DlyParseError(f"non-numeric year field {raw[11:15]!r}", number)
    if not _plain(line[15:17]):
        return DlyParseError(f"non-numeric month field {raw[15:17]!r}", number)
    if not 1 <= int(raw[15:17]) <= 12:
        return DlyParseError(f"month {int(raw[15:17])} out of range", number)
    day = int(np.argmin(_plain(line[21:].reshape(DAY_SLOTS, 8)[:, :5])))
    text = raw[21 + 8 * day : 26 + 8 * day]
    return DlyParseError(f"non-numeric value field {text!r} for day {day + 1}", number)


def parse_station(data: bytes, station_id: str) -> DlyRecords:
    """:func:`parse_dly`, requiring every line to belong to ``station_id``
    and at least one TMAX or TMIN line."""
    records = parse_dly(data)
    foreign = [s for s in records.station_ids() if s != station_id]
    if foreign:
        raise DlyParseError(f"holds station {', '.join(foreign)}, not {station_id}")
    if not records.rows.size:
        raise DlyParseError(f"holds no TMAX or TMIN records for {station_id}")
    return records


def round_half_away_from_zero(numerator, denominator: int) -> np.ndarray:
    """Exact integer rounding of numerator/denominator, halves away from zero.

    ``numerator`` is an integer or an integer array; the result has its shape.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    numerator = np.asarray(numerator)
    return np.sign(numerator) * ((np.abs(numerator) + denominator // 2) // denominator)


def to_fahrenheit_int(tenths_celsius) -> np.ndarray:
    """Convert GHCN storage units (tenths of deg C) to the nearest whole deg F.

    U.S. stations originally report integer Fahrenheit, so rounding recovers
    the published scale. F = tc/10 * 9/5 + 32 = (9*tc + 1600) / 50, evaluated
    in exact integer arithmetic with halves rounded away from zero,
    elementwise over an integer array.
    """
    tenths_celsius = np.asarray(tenths_celsius, dtype=np.int64)
    if (tenths_celsius == MISSING).any():
        raise ValueError("missing sentinel passed to to_fahrenheit_int")
    return round_half_away_from_zero(9 * tenths_celsius + 1600, 50)


def interpolate_missing(values: np.ndarray, missing: np.ndarray, start: date) -> np.ndarray:
    """Fill isolated interior gaps with the rounded mean of the neighbours.

    ``missing`` marks the gaps in the integer array ``values`` (whatever
    they hold there is ignored). Half-values round away from zero. The
    first and last entries must be present (:class:`BoundaryGapError`) and
    no two consecutive entries may be missing (:class:`UnsupportedGapError`);
    multi-day gaps are a data problem the caller has to resolve, not
    something to guess through.

    Errors name positions as dates counted from ``start``, the first entry's
    day.
    """
    values = np.asarray(values, dtype=np.int64)
    missing = np.asarray(missing, dtype=bool)
    if not values.size:
        return values.copy()

    def label(position: int) -> date:
        return start + timedelta(days=position)

    if missing[0]:
        raise BoundaryGapError(f"first observation missing at {label(0)}")
    if missing[-1]:
        raise BoundaryGapError(f"last observation missing at {label(len(values) - 1)}")
    gaps = np.flatnonzero(missing)
    paired = missing[gaps - 1] | missing[gaps + 1]
    if paired.any():
        raise UnsupportedGapError(
            "consecutive missing observations at: "
            + ", ".join(str(label(p)) for p in gaps[paired].tolist())
        )
    filled = values.copy()
    filled[gaps] = round_half_away_from_zero(values[gaps - 1] + values[gaps + 1], 2)
    return filled


def _dates(start: date, positions: np.ndarray) -> list[date]:
    return [start + timedelta(days=p) for p in positions.tolist()]


@dataclass
class _Scattered:
    """One element's values on the days of the window, in tenths of deg C."""

    tenths: np.ndarray
    present: np.ndarray
    suppressed: list[date]
    problems: list[tuple[int, int, ValueError]]  # (line, day slot, error)


def _scatter(
    records: DlyRecords, element: str, start: date, days: int, strict_qc: bool
) -> _Scattered:
    """Place one element's values on the window's days, in file order.

    Errors are collected, not raised: the caller raises the one that comes
    first in the file across both elements.
    """
    mine = records.element[records.rows] == element.encode("ascii")
    rows, values = records.rows[mine], records.values[mine]
    year, month = records.year[rows], records.month[rows]
    months = ((year.astype(np.int64) - 1970) * 12 + month - 1).astype("datetime64[M]")
    first = months.astype("datetime64[D]").astype(np.int64)
    length = (months + 1).astype("datetime64[D]").astype(np.int64) - first
    slot = np.arange(DAY_SLOTS)
    exists = ((year >= 1) & (year <= 9999))[:, None] & (slot < length[:, None])
    present = values != MISSING
    problems = []

    bad_row, bad_slot = np.nonzero(present & ~exists)
    if bad_row.size:
        i, d = int(bad_row[0]), int(bad_slot[0])
        line = int(records.line_numbers[rows[i]])
        problems.append((line, d, DlyParseError(
            f"value on nonexistent day {year[i]}-{month[i]:02d}-{d + 1:02d} "
            f"of {element}",
            line,
        )))

    day = first[:, None] + slot - np.datetime64(start, "D").astype(np.int64)
    kept = present & exists & (day >= 0) & (day < days)
    suppressed = []
    if strict_qc:
        flagged = kept & (records.lines[rows][:, _QFLAG_COLUMNS] != ord(" "))
        suppressed = _dates(start, day[flagged])
        kept &= ~flagged

    kept_row, kept_slot = np.nonzero(kept)
    positions, tenths = day[kept_row, kept_slot], values[kept_row, kept_slot]
    order = np.argsort(positions, kind="stable")
    positions, tenths = positions[order], tenths[order]
    leads = np.ones(len(positions), dtype=bool)
    leads[1:] = positions[1:] != positions[:-1]
    # a later value of a day must equal the first one stored
    conflicts = np.sort(order[tenths != tenths[leads][np.cumsum(leads) - 1]])
    if conflicts.size:
        i, d = int(kept_row[conflicts[0]]), int(kept_slot[conflicts[0]])
        line = int(records.line_numbers[rows[i]])
        when = start + timedelta(days=int(day[i, d]))
        problems.append((line, d, ValueError(
            f"line {line}: conflicting duplicate {element} values on {when}"
        )))

    window = np.zeros(days, dtype=np.int64)
    window[positions[leads]] = tenths[leads]
    have = np.zeros(days, dtype=bool)
    have[positions[leads]] = True
    return _Scattered(window, have, suppressed, problems)


def station_observations(
    records: DlyRecords,
    start: date,
    end: date,
    strict_qc: bool = False,
) -> tuple[np.ndarray, np.ndarray, IngestNotes]:
    """Assemble a complete daily TMAX/TMIN record over ``[start, end]``.

    Returns int64 ``tmax`` and ``tmin`` arrays in whole deg F, one entry per
    day of the window, and the notes. Values failing NOAA quality control
    (nonblank qflag) are used as-is unless ``strict_qc`` is set, in which
    case they are treated as missing before gap repair. Days where
    tmax < tmin are repaired by swapping the two readings; the notes report
    every repair and interpolation.
    """
    if start > end:
        raise ValueError("window start is after window end")
    days = (end - start).days + 1
    scattered = {
        element: _scatter(records, element, start, days, strict_qc)
        for element in TEMPERATURE_ELEMENTS
    }
    problems = [p for s in scattered.values() for p in s.problems]
    if problems:
        raise min(problems, key=lambda p: p[:2])[2]

    notes = IngestNotes()
    filled: dict[str, np.ndarray] = {}
    for element, s in scattered.items():
        if s.suppressed:
            notes.qc_suppressed[element] = s.suppressed
        fahrenheit = np.zeros(days, dtype=np.int64)
        fahrenheit[s.present] = to_fahrenheit_int(s.tenths[s.present])
        notes.interpolated[element] = _dates(start, np.flatnonzero(~s.present))
        try:
            filled[element] = interpolate_missing(fahrenheit, ~s.present, start)
        except BoundaryGapError as exc:
            raise BoundaryGapError(f"{element}: {exc}") from exc
        except UnsupportedGapError as exc:
            raise UnsupportedGapError(f"{element}: {exc}") from exc

    inverted = filled["TMAX"] < filled["TMIN"]
    notes.inversions_repaired = _dates(start, np.flatnonzero(inverted))
    tmax = np.maximum(filled["TMAX"], filled["TMIN"])
    tmin = np.minimum(filled["TMAX"], filled["TMIN"])
    return tmax, tmin, notes


def fetch_station(
    station_id: str,
    endpoint: str = DEFAULT_ENDPOINT,
    cache_dir: str | os.PathLike = "cache",
    refresh: bool = False,
) -> Fetched:
    """Return the ``.dly`` payload of a station and its checked records,
    caching a download in the existing directory ``cache_dir``.

    A cache hit bypasses the network entirely unless ``refresh`` is set.
    A download (``http`` or ``https`` only) that fails or answers anything
    but HTTP 200 falls back to the cache file, if any, with the reason in
    ``refresh_error``, else raises :class:`FetchError`. A downloaded
    payload is cached only if :func:`parse_station` accepts it; otherwise
    :class:`FetchError` names the URL and the reason and the cache is left
    as it was; a payload that differs from the cached copy replaces it, as
    ``cache_replaced`` says. A cache file that :func:`parse_station`
    refuses raises :class:`DlyParseError` naming the file. The cache file
    is replaced atomically (:func:`~tempdyn.series.write_atomic`), so
    concurrent fetchers never observe a partial file.
    """
    cache_path = _cache_path(cache_dir, station_id)
    if not refresh and os.path.exists(cache_path):
        return _read_cache(station_id, cache_path)

    url = f"{endpoint.rstrip('/')}/{station_id}.dly"
    try:
        status, payload = _download(url)
        failure = None if status == 200 else f"returned HTTP {status}"
    except Exception as exc:
        failure = f"failed: {exc}"
    if failure is not None:
        reason = f"fetch of {url} {failure}"
        if os.path.exists(cache_path):
            return _read_cache(station_id, cache_path, refresh_error=reason)
        raise FetchError(reason)
    try:
        records = parse_station(payload, station_id)
    except DlyParseError as exc:
        raise FetchError(f"fetch of {url} returned no usable .dly data: {exc}") from None
    replaced = None
    if os.path.exists(cache_path):
        with open(cache_path, "rb") as handle:
            cached = handle.read()
        if cached != payload:
            replaced = (
                f"archive copy differs from the cache ({len(cached)} vs {len(payload)} "
                "bytes); cache replaced"
            )
    write_atomic(cache_path, [payload])
    return Fetched(
        payload, "network", cache_path, datetime.now(timezone.utc), records,
        cache_replaced=replaced,
    )


def _read_cache(station_id: str, cache_path: str, refresh_error: Optional[str] = None) -> Fetched:
    """The cache file of a station with its records; a file that
    :func:`parse_station` refuses is named, with what to do about it."""
    with open(cache_path, "rb") as handle:
        data = handle.read()
        modified = datetime.fromtimestamp(os.fstat(handle.fileno()).st_mtime, timezone.utc)
    try:
        records = parse_station(data, station_id)
    except DlyParseError as exc:
        advice = f"cached file {cache_path}: {exc}; delete it or rerun with --refresh"
        if refresh_error is not None:
            advice += f" (refresh failed: {refresh_error})"
        raise DlyParseError(advice) from None
    return Fetched(data, "cache", cache_path, modified, records, refresh_error)


def fetch_stations(
    station_ids: Sequence[str], endpoint: str, cache_dir: str | os.PathLike, refresh: bool
) -> Iterator[Callable[[], Fetched]]:
    """One call per station, in order, that returns its :func:`fetch_station`
    or raises what that raised.

    A cache hit (about a millisecond) is read when its call is made, in the
    caller's thread, so with nothing to download no thread starts and one
    payload is held at a time. Downloads (a cache miss, or any station
    under ``refresh``) run on a pool of :data:`FETCH_THREADS` threads, at
    most that many ahead of the caller; their calls wait for the result.
    """
    fetches = [partial(fetch_station, s, endpoint, cache_dir, refresh) for s in station_ids]
    downloads = [
        refresh or not os.path.exists(_cache_path(cache_dir, station_id))
        for station_id in station_ids
    ]
    if not any(downloads):
        yield from fetches
        return
    from concurrent.futures import ThreadPoolExecutor

    waiting = iter([f for f, download in zip(fetches, downloads) if download])
    ahead: deque = deque()
    with ThreadPoolExecutor(max_workers=FETCH_THREADS) as pool:
        for fetch, download in zip(fetches, downloads):
            while len(ahead) < FETCH_THREADS and (upcoming := next(waiting, None)) is not None:
                ahead.append(pool.submit(upcoming))
            yield ahead.popleft().result if download else fetch


def _cache_path(cache_dir: str | os.PathLike, station_id: str) -> str:
    return os.path.join(os.fspath(cache_dir), f"{station_id}.dly")


def check_endpoint(url: str) -> None:
    """Refuse a URL whose scheme is not ``http`` or ``https``: urlopen would
    read a ``file:`` URL from disk and report no status."""
    scheme = url.partition(":")[0].lower()
    if scheme not in ("http", "https"):
        raise ValueError(f"endpoint scheme {scheme!r} is not http or https")


def _download(url: str) -> tuple[int, bytes]:
    """The status and body of a GET of ``url``; an HTTP error answer comes
    with an empty body."""
    check_endpoint(url)
    # imported here, so that commands that only read the cache never load
    # urllib.request, http.client or ssl
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=_TIMEOUT) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code, b""
