"""Aligned daily temperature series.

MAX and MIN over a contiguous daily window, from which AVG = (MAX + MIN)/2
and DTR = MAX - MIN are derived when read; the window's time trend t and
months are ``models.WindowFactors``'s.

A series is written as a CSV and a binary sidecar keyed by the CSV's
sha256, and read from the sidecar alone: the CSV is the record that the
key vouches for, never parsed, so one changed after it was written is
refused.

Every CSV, the series files here and the table and figure data in
``reporting``, is encoded by one function, :func:`csv_chunks`, and every
output file is written as bytes by :func:`staged`. Dated CSV rows
(the series files and the dated figure data) are written from per-window
row templates: the text that depends only on the window (date, t, month)
is formatted once per window and layout, and each file fills it with its
own cells. The bytes are those of formatting every row in full.
"""

from __future__ import annotations

import calendar
import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, timedelta
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

VARIABLES = ("avg", "dtr")


class ContiguityError(ValueError):
    """A series' days are not its window's: a value count other than its
    day count, or a series file over another window than the configured one."""


class DataInversionError(ValueError):
    """tmax < tmin survived ingest-level repair."""


@dataclass(frozen=True)
class TemperatureSeries:
    """Immutable aligned daily record: the integer tmax and tmin of each day
    from ``start``, read-only once built. AVG and DTR are derived from them
    on each :meth:`variable` call and never stored."""

    start: date
    max_f: np.ndarray
    min_f: np.ndarray

    def __len__(self) -> int:
        return len(self.max_f)

    @property
    def end(self) -> date:
        """The last day."""
        return self.start + timedelta(days=len(self) - 1)

    def variable(self, name: str) -> np.ndarray:
        """Regressand accessor: 'avg' or 'dtr', as float64."""
        return _derived(name, self.max_f, self.min_f)


def _derived(name: str, max_f: np.ndarray, min_f: np.ndarray) -> np.ndarray:
    """AVG = (MAX + MIN)/2 or DTR = MAX - MIN of daily readings as float64,
    the one place either is computed (integer readings give exact halves)."""
    if name == "avg":
        return (max_f + min_f) / 2.0
    if name == "dtr":
        return (max_f - min_f).astype(np.float64)
    raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")


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
    for array in (max_f, min_f):
        array.setflags(write=False)
    return TemperatureSeries(start, max_f, min_f)


SERIES_CSV_HEADER = ["date", "tmax", "tmin", "avg", "dtr", "t", "month"]
_DAY_SUFFIXES = [f"-{day:02d}" for day in range(1, 32)]
# rows filled and written one chunk at a time, so the text of a file is
# never held whole
_ROW_BLOCK = 4096
# a series row: the day's four temperature cells are one cell
_SERIES_ROW = "{0},%s,{1},{2}\n"


@lru_cache(maxsize=8)
def _row_templates(start: date, days: int, layout: str) -> tuple[str, ...]:
    """The rows of a daily file over ``days`` days from ``start`` as printf
    templates, one per ``_ROW_BLOCK`` rows, built from ``layout``: one row
    with ``{0}`` for the ISO date, ``{1}`` for t (1-based) and ``{2}`` for
    the month, and ``%s`` for each cell a file fills in.

    Cached by window and layout, so the stations of one window, and the
    files of one station, share the text. A template holds no ``%`` but
    its ``%s`` cells: dates and integers have none. The rows are made and
    joined a block at a time: made for the whole window first, they raised
    ``ingest``'s peak RSS by about 1.5 MiB.
    """
    rows = _rows(start, layout)
    return tuple(
        "".join(islice(rows, min(_ROW_BLOCK, days - first)))
        for first in range(0, days, _ROW_BLOCK)
    )


def _rows(start: date, layout: str) -> Iterator[str]:
    """``layout`` formatted for each day from ``start`` on, without end,
    a month at a time."""
    year, month, first, t = start.year, start.month, start.day, 1
    while True:
        prefix = f"{year:04d}-{month:02d}"
        last = calendar.monthrange(year, month)[1]
        dates = [prefix + suffix for suffix in _DAY_SUFFIXES[first - 1 : last]]
        yield from map(layout.format, dates, range(t, t + len(dates)), [month] * len(dates))
        year, month, first, t = year + month // 12, month % 12 + 1, 1, t + len(dates)


Column = tuple[np.ndarray, Callable[[np.ndarray], list]]


def fill_rows(start: date, layout: str, *columns: Column) -> Iterator[str]:
    """The text of a daily file's rows from ``start``, a block at a time:
    each row of :func:`_row_templates`'s ``layout`` takes one cell of each
    column in turn, rendered as by ``%s`` (a float's is its repr).

    A column is its daily values and the function that turns a block of
    them into cells, such as ``np.ndarray.tolist`` or :func:`distinct_text`;
    it is called on one block of rows at a time, so no cell list of the
    whole window is made.
    """
    days = len(columns[0][0])
    for i, template in enumerate(_row_templates(start, days, layout)):
        yield template % _block_cells(columns, i * _ROW_BLOCK, min((i + 1) * _ROW_BLOCK, days))


def _block_cells(columns: tuple[Column, ...], lo: int, hi: int) -> tuple:
    """The cells of rows ``lo..hi-1``, row by row; made apart from
    :func:`fill_rows`, so that it holds none of them while its rows are
    written."""
    width = len(columns)
    cells = [None] * (width * (hi - lo))
    for j, (values, render) in enumerate(columns):
        cells[j::width] = render(values[lo:hi])
    return tuple(cells)


def csv_chunks(header: Sequence[str], rows: Iterable[str]) -> Iterator[bytes]:
    """The header line, then the rows, as UTF-8 chunks: the one CSV
    encoder, for the series CSV and every table and figure CSV."""
    return map(str.encode, chain([",".join(header) + "\n"], rows))


@contextmanager
def staged(directory) -> Iterator[Callable[[str, Iterable], str]]:
    """The one writer: files staged in ``directory``, then published together.

    ``write(name, chunks)`` streams bytes or other buffers to a temp file
    next to ``directory/name`` and returns their sha256 as hex. A clean
    exit renames each temp file over its target, in the order written; an
    exception removes them, and every previous file stays. A rename that
    fails (a directory in the file's place) leaves those renamed before it
    published. An OSError is raised again naming the file and the reason.
    Temp files get a plain ``open()``'s mode, not ``mkstemp``'s 0600.
    """
    pending: list[tuple[str, Path]] = []

    def write(name: str, chunks: Iterable) -> str:
        path = Path(directory) / name
        # a thread stages one file at a time, so the name is unique among writers
        temp_path = f"{path}.{os.getpid()}-{threading.get_ident()}.part"
        pending.append((temp_path, path))
        digest = hashlib.sha256()
        try:
            with open(temp_path, "wb") as handle:
                for chunk in chunks:
                    digest.update(chunk)
                    handle.write(chunk)
                    del chunk  # freed before the next chunk is made: one block held, not two
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
        return digest.hexdigest()

    try:
        yield write
        for temp_path, path in pending:
            try:
                os.replace(temp_path, path)
            except OSError as exc:
                raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for temp_path, _ in pending:
            if os.path.exists(temp_path):
                os.unlink(temp_path)


def sidecar_path(csv_path) -> Path:
    """The binary copy of a series CSV: ``<CODE>.bin`` next to ``<CODE>.csv``."""
    return Path(csv_path).with_suffix(".bin")


# A sidecar is a 32-byte key and then its record: the first day (days since
# 1970-01-01), the daily tmax and the daily tmin, every value one of these.
_WORD = np.dtype("<i8")
_KEY_SIZE = 32
_EPOCH = date(1970, 1, 1)


def _sidecar_key(csv_sha256: bytes, record: Iterable) -> bytes:
    """The sha256 of the CSV's sha256 followed by the record bytes: a
    sidecar is used only for the CSV it was written with, and only as
    written."""
    key = hashlib.sha256(csv_sha256)
    for part in record:
        key.update(part)
    return key.digest()


def _sidecar_chunks(series: TemperatureSeries, csv_sha256: bytes) -> list:
    """The sidecar of the series: its key, then its record as views of the
    series' own arrays, not copies."""
    record = [
        np.array([(series.start - _EPOCH).days], _WORD),
        series.max_f.astype(_WORD, copy=False),
        series.min_f.astype(_WORD, copy=False),
    ]
    return [_sidecar_key(csv_sha256, record), *record]


def _pair_cells(series: TemperatureSeries) -> np.ndarray:
    """The ``tmax,tmin,avg,dtr`` text of each day.

    The four cells depend only on the day's (tmax, tmin) pair, of which a
    station has a few thousand: each pair's text is joined once, from its
    values formatted once each; avg holds exact halves, rendered 60.0 as
    "60" and 60.5 as "60.5". The arrays used on the way are freed when this
    returns, before the first write builds the cached row templates: built
    while they were held, the templates raised ``ingest``'s peak RSS by
    about 0.6 MiB.
    """
    highs, high_codes = np.unique(series.max_f, return_inverse=True)
    lows, low_codes = np.unique(series.min_f, return_inverse=True)
    pairs, inverse = np.unique(high_codes * len(lows) + low_codes, return_inverse=True)
    high, low = highs[pairs // len(lows)], lows[pairs % len(lows)]
    columns = (high, low, *(_derived(name, high, low) for name in VARIABLES))
    pair_text = map(",".join, zip(*(distinct_text(column, _format_half) for column in columns)))
    return np.array(list(pair_text), dtype=object)[inverse]


def write_series_csv(series: TemperatureSeries, path) -> str:
    """Stage the series CSV and its sidecar (:func:`sidecar_path`) and
    publish them together; return the sha256 of the CSV bytes as hex.

    The sidecar, the series' first day and int64 tmax and tmin under a key
    that covers the CSV's digest and them (:func:`_sidecar_key`), is what
    :func:`read_series_csv` reads. A rename that fails between the two
    leaves a sidecar whose key no longer matches, which readers refuse
    until both are written again.
    """
    path = Path(path)
    cells = _pair_cells(series)
    rows = fill_rows(series.start, _SERIES_ROW, (cells, np.ndarray.tolist))
    with staged(path.parent) as write:
        digest = write(path.name, csv_chunks(SERIES_CSV_HEADER, rows))
        write(sidecar_path(path).name, _sidecar_chunks(series, bytes.fromhex(digest)))
    return digest


def read_series_csv(path) -> TemperatureSeries:
    """Load a series written by :func:`write_series_csv` from its sidecar.

    The CSV is read once: its lines give the day count, its sha256 the
    digest the sidecar's key must cover. The sidecar's length is checked
    first, so a damaged one never sizes an array, then its key; the record
    is rebuilt by :func:`build_series`, which copies and re-checks it. A
    CSV that is not what the writer wrote (edited, cut short, or without
    its sidecar) is refused with a ValueError naming the sidecar.
    """
    data = Path(path).read_bytes()
    sidecar = sidecar_path(path)
    lines = data.count(b"\n")  # the CSV ends every line, the header's too
    days = lines - 1
    try:
        raw = sidecar.read_bytes()
    except OSError as exc:
        raise ValueError(f"sidecar {sidecar} cannot be read: {exc.strerror}") from None
    if days < 1 or len(raw) != _KEY_SIZE + _WORD.itemsize * (1 + 2 * days):
        raise ValueError(f"sidecar {sidecar} holds {len(raw)} bytes, not a record of {lines} lines")
    record = memoryview(raw)[_KEY_SIZE:]
    if raw[:_KEY_SIZE] != _sidecar_key(hashlib.sha256(data).digest(), [record]):
        raise ValueError(f"sidecar {sidecar} does not match the CSV's bytes")
    words = np.frombuffer(record, _WORD)
    first = _EPOCH.toordinal() + int(words[0])  # a key re-made by hand can put it anywhere
    if not 1 <= first <= date.max.toordinal() - days + 1:
        raise ValueError(f"sidecar {sidecar} starts on no date: {words[0]} days after {_EPOCH}")
    last = first + days - 1
    return build_series(
        words[1 : days + 1], words[days + 1 :], date.fromordinal(first), date.fromordinal(last)
    )


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
