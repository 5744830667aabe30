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

Parsing is array-native. The non-empty lines (split at ``\\n`` by
:func:`parse_dly`) become one ``(lines, 269)`` uint8 matrix: a view of the
payload itself when every line is 269 bytes and a bare ``\\n``, one copy
otherwise. Year, month and every value field of every element are checked
with byte masks, and only the TMAX/TMIN value fields are decoded, to an
int32 ``(rows, 31)`` array. Every year, month and value field must be a
right-justified integer, as the archive's readme.txt defines them:
optional leading spaces, an optional ``-`` and at least one digit. The
first line in file order with any other field (``+12``, ``1_2``, trailing
blanks, a tab, letters) or a month outside 1..12 raises
:class:`DlyParseError`, naming its 1-based line number, the field and, for
a value, the day. Repair scatters each element into an array indexed by
day of the window, so no per-day object is ever built; its days are sorted,
and duplicates checked, only when a file does not list that element's
months in order.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import staged

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
# bytes of a cache file read at a time to compare it with a download
_COMPARE_CHUNK = 1 << 16


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
    indices ``rows`` lists. No per-line record is kept, and the station
    identifier stays in the first 11 bytes of each line, where
    :func:`parse_station` compares it.
    """

    lines: np.ndarray
    line_numbers: np.ndarray
    year: np.ndarray
    month: np.ndarray
    element: np.ndarray
    rows: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class Fetched:
    """The :func:`parse_station` records of a station's ``.dly`` bytes, and
    how this run obtained them.

    ``source`` is ``"network"`` when the bytes were downloaded by this call
    and ``"cache"`` when they were read from ``cache_path`` (a cache hit, or
    the fallback when a refresh could not reach the archive). ``fetched_at``
    is when the bytes left the archive: the download time, or the cache
    file's modification time. ``refresh_error`` says why a refresh fell
    back to the cache, ``cache_replaced`` that it replaced a different
    cached copy; None otherwise.
    """

    source: str
    cache_path: str
    fetched_at: datetime
    records: DlyRecords
    refresh_error: Optional[str] = None
    cache_replaced: Optional[str] = None


@dataclass
class IngestNotes:
    """Diagnostics accumulated while repairing a station's record, each day
    an ISO date, as the manifest records it."""

    interpolated: dict[str, list[str]] = field(default_factory=dict)
    qc_suppressed: dict[str, list[str]] = field(default_factory=dict)
    inversions_repaired: list[str] = field(default_factory=list)


def parse_dly(data: bytes) -> DlyRecords:
    """Parse a ``.dly`` byte stream into columnar records, one per line.

    Lines end at ``\\n``; one ``\\r`` just before it is dropped, empty lines
    are skipped, and the last line needs no ``\\n``. Every element code
    present in the file is retained; select records on ``element``
    afterwards. Raises :class:`DlyParseError`, with the 1-based line number
    (lines counted by ``\\n``), for the first non-ASCII byte, else for the
    first malformed line.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    if not data.isascii():
        at = int(np.argmax(raw >= 0x80))
        raise DlyParseError(
            f"non-ASCII byte 0x{data[at]:02x}; not a .dly file", data.count(b"\n", 0, at) + 1
        )
    width = LINE_LENGTH + 1
    if data and len(data) % width == 0:
        lines = raw.reshape(-1, width)[:, :LINE_LENGTH]
        # whole 269-byte lines ended by "\n", with no "\n" or "\r" (no byte
        # below " ") inside: the payload is its own line matrix, no copy
        if (raw[LINE_LENGTH::width] == ord("\n")).all() and lines.min() >= ord(" "):
            return _decode_matrix(lines, np.arange(1, len(lines) + 1))
    ends = np.flatnonzero(raw == ord("\n"))
    starts = np.append(0, ends + 1)
    stops = np.append(ends, len(raw))
    # drop one "\r" before each "\n" of a non-empty line
    stops[:-1] -= (ends > starts[:-1]) & (raw[ends - 1] == ord("\r"))
    lengths = stops - starts
    wrong = np.flatnonzero((lengths != LINE_LENGTH) & (lengths > 0))
    end = int(wrong[0]) if wrong.size else len(lengths)
    numbers = np.flatnonzero(lengths[:end]) + 1
    # one copy of the 269 bytes that start each line before the wrong one
    lines = raw[:0].reshape(0, LINE_LENGTH)
    if numbers.size:
        lines = sliding_window_view(raw, LINE_LENGTH)[starts[numbers - 1]]
    # those lines may hold an earlier error
    records = _decode_matrix(lines, numbers)
    if wrong.size:
        raise DlyParseError(f"expected {LINE_LENGTH} characters, got {lengths[end]}", end + 1)
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
    ids = records.lines[:, :11].copy().view("S11").ravel()
    # no line of an archive file names another station, so only a refused
    # file lists its ids; a non-ASCII id's UTF-8 bytes match no line
    foreign = ids != station_id.encode()
    if foreign.any():
        names = sorted({s.decode("ascii") for s in ids[foreign].tolist()})
        raise DlyParseError(f"holds station {', '.join(names)}, not {station_id}")
    if not records.rows.size:
        raise DlyParseError(f"holds no TMAX or TMIN records for {station_id}")
    return records


def round_half_away_from_zero(numerator, denominator: int) -> np.ndarray:
    """Exact integer rounding of numerator/denominator, halves away from zero.

    ``numerator`` is an integer or an integer array; the result has its
    shape. ``denominator`` is a positive integer.
    """
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


def _dates(start: date, positions: np.ndarray) -> list[str]:
    """The ISO dates of the window's days at ``positions``."""
    return np.datetime_as_string(np.datetime64(start, "D") + positions).tolist()


@dataclass
class _Scattered:
    """One element's values on the days of the window, in tenths of deg C."""

    tenths: np.ndarray
    present: np.ndarray
    suppressed: list[str]
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

    bad = np.flatnonzero(present & ~exists)
    if bad.size:
        i, d = divmod(int(bad[0]), DAY_SLOTS)
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

    positions, tenths = day[kept], values[kept]
    # the archive writes each element's months in order: then every day
    # comes once, after the one before, and nothing needs sorting
    if not (positions[1:] > positions[:-1]).all():
        order = np.argsort(positions, kind="stable")
        positions, tenths = positions[order], tenths[order]
        leads = np.ones(len(positions), dtype=bool)
        leads[1:] = positions[1:] != positions[:-1]
        # a later value of a day must equal the first one stored
        conflicts = np.sort(order[tenths != tenths[leads][np.cumsum(leads) - 1]])
        if conflicts.size:
            # row * DAY_SLOTS + slot of the first conflict in file order
            i, d = divmod(int(np.flatnonzero(kept)[conflicts[0]]), DAY_SLOTS)
            line = int(records.line_numbers[rows[i]])
            when = start + timedelta(days=int(day[i, d]))
            problems.append((line, d, ValueError(
                f"line {line}: conflicting duplicate {element} values on {when}"
            )))
        positions, tenths = positions[leads], tenths[leads]

    window = np.zeros(days, dtype=np.int64)
    window[positions] = tenths
    have = np.zeros(days, dtype=bool)
    have[positions] = True
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
    every repair and interpolation. ``start`` precedes ``end``, as the
    run configuration requires.
    """
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
        except (BoundaryGapError, UnsupportedGapError) as exc:
            raise type(exc)(f"{element}: {exc}") from exc

    inverted = filled["TMAX"] < filled["TMIN"]
    notes.inversions_repaired = _dates(start, np.flatnonzero(inverted))
    tmax = np.maximum(filled["TMAX"], filled["TMIN"])
    tmin = np.minimum(filled["TMAX"], filled["TMIN"])
    return tmax, tmin, notes


def fetch_station(
    station_id: str,
    endpoint: str,
    cache_dir: str | os.PathLike,
    refresh: bool = False,
) -> Fetched:
    """Return the checked records of a station's ``.dly`` file, caching a
    download in the existing directory ``cache_dir``.

    A cache hit bypasses the network entirely unless ``refresh`` is set.
    A download (``http`` or ``https`` only) that fails or answers anything
    but HTTP 200 falls back to the cache file, if any, with the reason in
    ``refresh_error``, else raises :class:`FetchError`. A downloaded
    payload is cached only if :func:`parse_station` accepts it; otherwise
    :class:`FetchError` names the URL and the reason and the cache is left
    as it was; a payload that differs from the cached copy replaces it, as
    ``cache_replaced`` says. A cache file that :func:`parse_station`
    refuses raises :class:`DlyParseError` naming the file. The cache file
    is staged and renamed over the old one (:func:`~tempdyn.series.staged`),
    so concurrent fetchers never observe a partial file.
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
    if os.path.exists(cache_path) and not _holds(cache_path, payload):
        replaced = (
            f"archive copy differs from the cache ({os.path.getsize(cache_path)} vs "
            f"{len(payload)} bytes); cache replaced"
        )
    with staged(cache_dir) as write:
        write(os.path.basename(cache_path), [payload])
    return Fetched(
        "network", cache_path, datetime.now(timezone.utc), records, cache_replaced=replaced
    )


def _holds(path: str, payload: bytes) -> bool:
    """Whether the file at ``path`` holds exactly ``payload``: the sizes
    are compared first, then the contents a chunk at a time, so that the
    file is never held whole beside the payload."""
    if os.path.getsize(path) != len(payload):
        return False
    with open(path, "rb") as handle:
        for offset in range(0, len(payload), _COMPARE_CHUNK):
            if handle.read(_COMPARE_CHUNK) != payload[offset : offset + _COMPARE_CHUNK]:
                return False
    return True


def _read_cache(station_id: str, cache_path: str, refresh_error: Optional[str] = None) -> Fetched:
    """The records of a station's cache file; a file that
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
    return Fetched("cache", cache_path, modified, records, refresh_error)


def fetch_stations(
    station_ids: Sequence[str], endpoint: str, cache_dir: str | os.PathLike, refresh: bool
) -> Iterator[Callable[[], Fetched]]:
    """One call per station, in order, that returns its :func:`fetch_station`
    or raises what that raised.

    A cache hit (about a millisecond) is read when its call is made, in the
    caller's thread, so with nothing to download no thread starts and one
    payload is held at a time. Downloads (a cache miss, or any station
    under ``refresh``) run on a pool of :data:`FETCH_THREADS` threads, at
    most that many ahead of the caller; their calls wait for the result and
    then let go of the future, so a caller that still holds the call holds
    no payload once it drops the result.
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
            yield _taken_once(ahead.popleft()) if download else fetch


def _taken_once(future) -> Callable[[], Fetched]:
    """``future.result`` as a call that holds the future only until it is made."""
    held = [future]
    return lambda: held.pop().result()


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
