"""Aligned daily temperature series with calendar features.

AVG = (MAX + MIN)/2 and DTR = MAX - MIN, built over a contiguous daily
window together with the 1-based time trend t and per-day month index.
"""

from __future__ import annotations

import calendar
import hashlib
import io
import os
import threading
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

import numpy as np

VARIABLES = ("avg", "dtr")


class ContiguityError(ValueError):
    """Observation dates do not form one unbroken daily run over the window."""


class DataInversionError(ValueError):
    """tmax < tmin survived ingest-level repair."""


@dataclass(frozen=True)
class TemperatureSeries:
    """Immutable aligned daily record. Arrays are read-only once built.

    ``avg`` holds exact half-degree values (integer inputs make (max+min)/2
    representable without rounding); ``t`` runs 1..T, one day each from
    ``start``.
    """

    start: date
    max_f: np.ndarray
    min_f: np.ndarray
    avg: np.ndarray
    dtr: np.ndarray
    t: np.ndarray
    month: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def end(self) -> date:
        """The last day."""
        return self.start + timedelta(days=len(self) - 1)

    def variable(self, name: str) -> np.ndarray:
        """Regressand accessor: 'avg' or 'dtr', as float64."""
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
        return self.avg if name == "avg" else self.dtr

    @cached_property
    def iso_dates(self) -> list[str]:
        """ISO 8601 text of each day, composed a month at a time and once
        per series, however many files it dates."""
        first, last = self.start, self.end
        text = []
        for year in range(first.year, last.year + 1):
            for month in range(1, 13):
                prefix = f"{year:04d}-{month:02d}"
                length = calendar.monthrange(year, month)[1]
                text += [prefix + suffix for suffix in _DAY_SUFFIXES[:length]]
        offset = (first - date(first.year, 1, 1)).days
        return text[offset : offset + len(self)]


def build_series(
    max_f: np.ndarray, min_f: np.ndarray, start: date, end: date
) -> TemperatureSeries:
    """Construct the aligned series from one integer max/min pair per day of
    ``[start, end]``, checking the day count and max >= min."""
    if start > end:
        raise ValueError("window start is after window end")
    expected = (end - start).days + 1
    if not len(max_f) == len(min_f) == expected:
        raise ContiguityError(
            f"window {start}..{end} spans {expected} days, got "
            f"{len(max_f)} tmax and {len(min_f)} tmin values"
        )
    max_f = np.array(max_f, dtype=np.int64)
    min_f = np.array(min_f, dtype=np.int64)
    inverted = np.flatnonzero(max_f < min_f)
    if inverted.size:
        days = (start + timedelta(days=i) for i in inverted.tolist())
        raise DataInversionError("max below min on: " + ", ".join(map(str, days)))

    days = np.arange(np.datetime64(start, "D"), np.datetime64(end, "D") + 1)
    avg = (max_f + min_f) / 2.0
    dtr = (max_f - min_f).astype(np.float64)
    t = np.arange(1, expected + 1, dtype=np.int64)
    month = days.astype("datetime64[M]").astype(np.int64) % 12 + 1
    for array in (max_f, min_f, avg, dtr, t, month):
        array.setflags(write=False)
    return TemperatureSeries(start, max_f, min_f, avg, dtr, t, month)


SERIES_CSV_HEADER = ["date", "tmax", "tmin", "avg", "dtr", "t", "month"]
_CSV_COLUMNS = np.dtype(
    [("date", "datetime64[D]"), ("tmax", np.int64), ("tmin", np.int64),
     ("avg", np.float64), ("dtr", np.float64)]
)
_DAY_SUFFIXES = [f"-{day:02d}" for day in range(1, 32)]
# rows formatted and joined into one chunk at a time, so the text of a
# file is never held whole
_ROW_BLOCK = 4096


def write_atomic(path, chunks: Union[Iterable[str], Iterable[bytes]]) -> None:
    """Replace ``path`` by the chunks, streamed through a temp file in its
    directory and renamed over it. The chunks are all text, written as
    UTF-8, or all bytes. If anything raises first, the temp file is removed
    and the previous file stays. The temp file is opened like any output
    file, so it keeps a plain ``open()``'s mode (not ``mkstemp``'s 0600).
    Every file tempdyn writes goes through here.
    """
    chunks = iter(chunks)
    first = next(chunks, "")
    # a thread writes one file at a time, so the name is unique among writers
    temp_path = f"{path}.{os.getpid()}-{threading.get_ident()}.part"
    try:
        if isinstance(first, bytes):
            handle = open(temp_path, "wb")
        else:
            handle = open(temp_path, "w", encoding="utf-8", newline="")
        with handle:
            handle.write(first)
            handle.writelines(chunks)
        os.replace(temp_path, path)
    finally:
        if os.path.exists(temp_path):
            os.unlink(temp_path)


def sidecar_path(csv_path) -> Path:
    """The binary copy of a series CSV: ``<CODE>.npy`` next to ``<CODE>.csv``."""
    return Path(csv_path).with_suffix(".npy")


def _sidecar_dtype(days: int) -> np.dtype:
    """The one record of a sidecar: the sha256 of the CSV bytes it mirrors,
    the sha256 of the rest of the record (its payload), then the first day
    and the daily tmax and tmin as 16-bit integers (the whole degrees F an
    archive value can give lie within +-18,100)."""
    return np.dtype(
        [("csv_sha256", np.uint8, (32,)), ("payload_sha256", np.uint8, (32,)),
         ("first_day", "<M8[D]"), ("tmax", "<i2", (days,)), ("tmin", "<i2", (days,))]
    )


_PAYLOAD_OFFSET = 64  # the payload follows the two digests


def _sidecar_bytes(series: TemperatureSeries, csv_sha256: bytes) -> Optional[bytes]:
    """The sidecar of the series, or None when a value does not fit its
    16-bit fields."""
    record = np.zeros((), _sidecar_dtype(len(series)))
    record["first_day"] = np.datetime64(series.start, "D")
    record["tmax"] = series.max_f
    record["tmin"] = series.min_f
    if not (
        np.array_equal(record["tmax"], series.max_f)
        and np.array_equal(record["tmin"], series.min_f)
    ):
        return None
    payload = hashlib.sha256(record.tobytes()[_PAYLOAD_OFFSET:])
    record["payload_sha256"] = np.frombuffer(payload.digest(), np.uint8)
    record["csv_sha256"] = np.frombuffer(csv_sha256, np.uint8)
    buffer = io.BytesIO()
    np.save(buffer, record, allow_pickle=False)
    return buffer.getvalue()


def write_series_csv(series: TemperatureSeries, path) -> str:
    """Write the series CSV, then its sidecar (:func:`sidecar_path`);
    return the sha256 of the CSV bytes as hex.

    The digest is taken as the CSV streams out. The sidecar, a ``.npy``
    record keyed by that digest, lets :func:`read_series_csv` skip the text
    parse; it is written second, so a write cut between the two leaves a
    sidecar whose digest no longer matches, which readers ignore. A series
    with a value beyond 16 bits gets no sidecar and is always parsed.
    """
    # every column but t lies on a small lattice, so each distinct value is
    # formatted once; avg holds exact halves, rendered 60.0 as "60" and
    # 60.5 as "60.5"
    tmax, tmin, avg, dtr, month = (
        distinct_text(column, _format_half)
        for column in (series.max_f, series.min_f, series.avg, series.dtr, series.month)
    )
    digest = hashlib.sha256()

    def hashed(text: str) -> bytes:
        chunk = text.encode()
        digest.update(chunk)
        return chunk

    def block(start: int) -> bytes:
        rows = slice(start, start + _ROW_BLOCK)
        t = map("{}".format, series.t[rows].tolist())
        cells = zip(
            series.iso_dates[rows], tmax[rows], tmin[rows], avg[rows], dtr[rows], t, month[rows]
        )
        return hashed("\n".join(map(",".join, cells)) + "\n")

    blocks = map(block, range(0, len(series), _ROW_BLOCK))
    write_atomic(path, chain([hashed(",".join(SERIES_CSV_HEADER) + "\n")], blocks))
    sidecar = _sidecar_bytes(series, digest.digest())
    if sidecar is not None:
        write_atomic(sidecar_path(path), [sidecar])
    return digest.hexdigest()


def read_series_csv(path) -> TemperatureSeries:
    """Load a series written by :func:`write_series_csv`.

    The file is read once and hashed. When its sidecar mirrors exactly these
    bytes, the series is built from the sidecar's arrays; otherwise (no
    sidecar, or a stale, foreign or damaged one) the text is parsed. Either
    way the series is rebuilt from tmax/tmin, so every construction
    invariant is re-checked. The text parse requires dates that run day by
    day and verifies the stored avg/dtr columns against the rebuild.
    """
    data = Path(path).read_bytes()
    mirrored = _read_sidecar(sidecar_path(path), data)
    return mirrored if mirrored is not None else _parse_series_csv(data, path)


def _read_sidecar(path: Path, data: bytes) -> Optional[TemperatureSeries]:
    """The series of the sidecar at ``path`` when it is a ``.npy`` record
    of the expected dtype and shape whose CSV digest is that of ``data``
    and whose payload matches its own digest; else None.

    The header is checked before any data is used, so a damaged one never
    sizes an allocation, and nothing is ever unpickled.
    """
    days = data.count(b"\n") - 1  # the CSV ends every row, header included
    try:
        raw = path.read_bytes()
        stream = io.BytesIO(raw)
        if days < 1 or np.lib.format.read_magic(stream) != (1, 0):
            return None
        shape, _, dtype = np.lib.format.read_array_header_1_0(stream)
    except (OSError, ValueError):  # no sidecar, or not a .npy file
        return None
    offset = stream.tell()
    expected = _sidecar_dtype(days)
    if shape != () or dtype != expected or len(raw) != offset + expected.itemsize:
        return None
    view = memoryview(raw)[offset:]
    if (
        view[:32] != hashlib.sha256(data).digest()
        or view[32:_PAYLOAD_OFFSET] != hashlib.sha256(view[_PAYLOAD_OFFSET:]).digest()
    ):
        return None
    record = np.frombuffer(raw, expected, count=1, offset=offset)[0]
    first = record["first_day"].item()
    return build_series(record["tmax"], record["tmin"], first, first + timedelta(days=days - 1))


def _parse_series_csv(data: bytes, path) -> TemperatureSeries:
    handle = io.StringIO(data.decode(), newline="")
    header = handle.readline().rstrip("\r\n").split(",")
    if header != SERIES_CSV_HEADER:
        raise ValueError(f"unexpected series CSV header in {path}: {header}")
    body = handle.read()
    if not body:
        raise ValueError(f"series CSV {path} has no rows")
    rows = np.loadtxt(
        io.StringIO(body), delimiter=",", usecols=range(5), dtype=_CSV_COLUMNS,
        comments=None, ndmin=1,
    )
    dates = rows["date"]
    expected = dates[0] + np.arange(len(dates))
    skipped = np.flatnonzero(dates != expected)
    if skipped.size:
        i = int(skipped[0])
        raise ContiguityError(f"expected {expected[i]} at position {i}, got {dates[i]}")
    first, last = dates[[0, -1]].tolist()
    series = build_series(rows["tmax"], rows["tmin"], first, last)
    if not np.array_equal(series.avg, rows["avg"]) or not np.array_equal(
        series.dtr, rows["dtr"]
    ):
        raise ValueError(f"series CSV {path} is internally inconsistent")
    return series


def _format_half(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def distinct_text(
    values: np.ndarray, formatter: Callable[[float], str] = repr
) -> list[str]:
    """``formatter`` of each value as a float, called once per distinct value.

    Values are told apart by their bits, so 0.0 and -0.0 keep their own
    text. For columns with few distinct values, where formatting each row
    would repeat the same work thousands of times.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([formatter(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()
