"""Shared helpers: deterministic synthetic GHCN `.dly` content, and a local
HTTP archive to download it from."""

from __future__ import annotations

import calendar
import http.server
import math
import os
import random
import re
import threading
from dataclasses import dataclass
from datetime import date, timedelta
from typing import NamedTuple, Optional, Sequence

import numpy as np
import pytest

from tempdyn.density import DensityEstimate
from tempdyn.ghcn import LINE_LENGTH, TEMPERATURE_ELEMENTS, DlyParseError, DlyRecords
from tempdyn.hac import bartlett_meat
from tempdyn.models import DUMMY_NAMES, INTERACTION_NAMES
from tempdyn.regression import InsufficientDataError, QRFactor, _check_rank
from tempdyn.series import TemperatureSeries

DAY_SLOTS = 31
MISSING = -9999

FUZZ_ELEMENTS = ["TMAX", "TMIN", "PRCP", "SNOW", "TAVG"]
FUZZ_FLAG_CHARS = " ABDGIKLMNOPRSTWXZ0123456789"


def make_dly_line(
    station_id: str,
    year: int,
    month: int,
    element: str,
    day_values: dict[int, int],
    day_flags: dict[int, tuple[str, str, str]] | None = None,
) -> str:
    """Render one 269-character line; absent days carry the -9999 sentinel."""
    parts = [f"{station_id:<11.11}", f"{year:04d}", f"{month:02d}", f"{element:<4.4}"]
    for day in range(1, DAY_SLOTS + 1):
        value = day_values.get(day, MISSING)
        mflag, qflag, sflag = (day_flags or {}).get(day, (" ", " ", " "))
        parts.append(f"{value:5d}{mflag}{qflag}{sflag}")
    line = "".join(parts)
    assert len(line) == 269
    return line


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


def dly_int(text: str) -> int:
    """A right-justified integer field, as GHCN-Daily's readme.txt defines
    it: spaces, an optional '-', then digits. Anything else is a ValueError."""
    if re.fullmatch(r" *-?[0-9]+", text) is None:
        raise ValueError(f"not a right-justified integer: {text!r}")
    return int(text)


def decode_line(raw: str, number: int) -> RawDlyRecord:
    """Decode one 269-character line field by field with :func:`dly_int`:
    the reference for ``parse_dly``'s bulk checks and decoding."""
    station_id = raw[0:11]
    try:
        year = dly_int(raw[11:15])
    except ValueError:
        raise DlyParseError(f"non-numeric year field {raw[11:15]!r}", number)
    try:
        month = dly_int(raw[15:17])
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
            value = dly_int(text)
        except ValueError:
            raise DlyParseError(
                f"non-numeric value field {text!r} for day {day + 1}", number
            )
        slots.append(DlyValue(value, raw[offset + 5], raw[offset + 6], raw[offset + 7]))
    return RawDlyRecord(station_id, year, month, element, tuple(slots))


def serialize_record(record: RawDlyRecord) -> str:
    """Render a parsed record back to its 269-character archive line."""
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


def decode_records(records: DlyRecords) -> list[RawDlyRecord]:
    """Each line of a parse result decoded to a record, in file order."""
    return [
        decode_line(row.tobytes().decode("ascii"), int(number))
        for row, number in zip(records.lines, records.line_numbers)
    ]


def filter_elements(
    records, elements=TEMPERATURE_ELEMENTS
) -> list[RawDlyRecord]:
    """The records whose element is one of ``elements``, in order."""
    wanted = set(elements)
    return [r for r in records if r.element in wanted]


def _months_between(start: date, end: date):
    year, month = start.year, start.month
    while (year, month) <= (end.year, end.month):
        yield year, month
        month += 1
        if month == 13:
            month = 1
            year += 1


def pseudo_noise(day: date, salt: int = 0) -> float:
    """Deterministic noise in [-0.5, 0.5) keyed on the calendar date."""
    state = (day.toordinal() * 2654435761 + salt * 97531) % (2**32)
    return state / 2**32 - 0.5


def tmax_tenths_c(day: date) -> int:
    angle = 2.0 * math.pi * (day.timetuple().tm_yday - 110) / 365.25
    return int(round(160 + 115 * math.sin(angle) + 60 * pseudo_noise(day, 1)))


def tmin_tenths_c(day: date) -> int:
    angle = 2.0 * math.pi * (day.timetuple().tm_yday - 110) / 365.25
    return int(round(60 + 95 * math.sin(angle) + 60 * pseudo_noise(day, 2)))


def synthetic_station_bytes(
    station_id: str,
    start: date,
    end: date,
    skip: set[tuple[date, str]] = frozenset(),
    qflagged: set[tuple[date, str]] = frozenset(),
) -> bytes:
    """A complete TMAX/TMIN `.dly` payload over [start, end].

    ``skip`` holes specific (date, element) values; ``qflagged`` marks values
    with a failing quality flag.
    """
    generators = {"TMAX": tmax_tenths_c, "TMIN": tmin_tenths_c}
    lines = []
    for year, month in _months_between(start, end):
        n_days = calendar.monthrange(year, month)[1]
        for element, generator in generators.items():
            values: dict[int, int] = {}
            flags: dict[int, tuple[str, str, str]] = {}
            for day_number in range(1, n_days + 1):
                day = date(year, month, day_number)
                if day < start or day > end or (day, element) in skip:
                    continue
                values[day_number] = generator(day)
                if (day, element) in qflagged:
                    flags[day_number] = (" ", "X", " ")
            lines.append(make_dly_line(station_id, year, month, element, values, flags))
    return ("\n".join(lines) + "\n").encode("ascii")


def random_valid_line(rng: random.Random) -> str:
    """One well-formed 269-character line with random content."""
    station = "".join(
        rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789") for _ in range(11)
    )
    year = rng.randint(1800, 2100)
    month = rng.randint(1, 12)
    element = rng.choice(FUZZ_ELEMENTS)
    values = {}
    flags = {}
    for day in range(1, DAY_SLOTS + 1):
        if rng.random() < 0.2:
            continue  # leave the sentinel
        values[day] = rng.randint(-1500, 1500)
        flags[day] = tuple(rng.choice(FUZZ_FLAG_CHARS) for _ in range(3))
    return make_dly_line(station, year, month, element, values, flags)


# January 1960 TMAX values (tenths of deg C) for the hand-built archive line
FIXTURE_TENTHS = [
    33, -17, -44, -6, 22, 44, 61, 28, -11, 0,
    17, 39, 56, 72, 44, 11, -22, -33, 6, 28,
    50, 67, 83, 61, 33, 17, 39, 56, 78, 94, 100,
]


def fixture_line() -> str:
    """Assemble the fixture line column-by-column from the offset table."""
    groups = [f"{value:5d}" + " " + " " + "0" for value in FIXTURE_TENTHS]
    line = "USW00013739" + "1960" + "01" + "TMAX" + "".join(groups)
    assert len(line) == 269
    return line


@pytest.fixture(scope="session", autouse=True)
def offline(tmp_path_factory):
    """The whole session runs offline: the endpoint is a closed local port,
    so a cache miss fails at once instead of reaching the archive, and the
    cache directory is an empty one of the session's, which fails the run
    if a test leaves anything in it rather than in its own directory. The
    archive replication (TEMPDYN_REPLICATION=1) keeps the caller's endpoint
    and cache."""
    if os.environ.get("TEMPDYN_REPLICATION") == "1":
        yield
        return
    cache = tmp_path_factory.mktemp("tempdyn-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TEMPDYN_ENDPOINT", "http://127.0.0.1:9")
        patch.setenv("TEMPDYN_CACHE_DIR", str(cache))
        yield
    left = sorted(str(path) for path in cache.rglob("*"))
    if left:
        pytest.fail(f"tests wrote into TEMPDYN_CACHE_DIR: {left}")


@pytest.fixture
def two_year_window() -> tuple[date, date]:
    return date(1960, 1, 1), date(1961, 12, 31)


@pytest.fixture
def two_year_payload(two_year_window) -> bytes:
    start, end = two_year_window
    return synthetic_station_bytes("USW00099901", start, end)


class LocalArchive:
    """A ``ThreadingHTTPServer`` on 127.0.0.1 that the download code reaches
    as it would reach the archive.

    A path answers with the status, body and headers given to :meth:`serve`
    (``Content-Length`` is the body's unless a header says otherwise), a
    path never served with 404, and a path given to :meth:`stall` with
    nothing until the test ends. ``requests`` lists the paths asked for.
    """

    def __init__(self):
        self.routes: dict[str, tuple[int, bytes, dict[str, str]]] = {}
        self.stalled: set[str] = set()
        self.requests: list[str] = []
        self.released = threading.Event()
        archive = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                archive.requests.append(self.path)
                if self.path in archive.stalled:
                    archive.released.wait(timeout=30)
                    return
                status, body, headers = archive.routes.get(self.path, (404, b"", {}))
                self.send_response(status)
                for name, value in {"Content-Length": str(len(body)), **headers}.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def serve(self, path: str, body: bytes = b"", status: int = 200, headers=None) -> None:
        self.routes[path] = (status, body, dict(headers or {}))

    def stall(self, path: str) -> None:
        self.stalled.add(path)


@pytest.fixture
def archive(monkeypatch):
    """A running :class:`LocalArchive`. ``no_proxy`` names it, so a proxy
    set in the environment cannot take its requests."""
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    local = LocalArchive()
    thread = threading.Thread(
        target=local.server.serve_forever, kwargs={"poll_interval": 0.01}
    )
    thread.start()
    try:
        yield local
    finally:
        local.released.set()
        local.server.shutdown()
        local.server.server_close()
        thread.join(timeout=10)


DEFAULT_MIN_PROMINENCE = 0.10


def integral(estimate: DensityEstimate) -> float:
    """Trapezoid integral of a density estimate over its grid."""
    return float(np.trapezoid(estimate.values, estimate.grid))


def find_modes(
    estimate: DensityEstimate, min_prominence: float = DEFAULT_MIN_PROMINENCE
) -> list[tuple[float, float]]:
    """Interior local maxima above min_prominence * global peak, by location.

    The threshold suppresses grid-level ripples without hiding genuine
    secondary modes.
    """
    values = estimate.values
    floor = min_prominence * float(values.max())
    modes = []
    for i in range(1, len(values) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1] and values[i] > floor:
            modes.append((float(estimate.grid[i]), float(values[i])))
    modes.sort(key=lambda m: m[0])
    return modes


def month_dummies(month_index: np.ndarray) -> np.ndarray:
    """(T, 12) indicator matrix of the days' month indices (0..11, such as
    a window's ``WindowFactors.month_index``); column i marks days falling
    in month index i.

    Each row sums to exactly 1 (one month per day); Feb 29 belongs to the
    February column.
    """
    if len(month_index) == 0:
        raise ValueError("no days")
    dummies = np.zeros((len(month_index), 12), dtype=np.float64)
    dummies[np.arange(len(month_index)), month_index] = 1.0
    dummies.setflags(write=False)
    return dummies


@dataclass(frozen=True)
class DesignMatrix:
    """Named regressor columns of equal length."""

    names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("design data must be 2-dimensional")
        if data.shape[1] != len(self.names):
            raise ValueError(f"{len(self.names)} names for {data.shape[1]} columns")
        if len(set(self.names)) != len(self.names):
            raise ValueError("design column names must be unique")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "data", data)


def evolving_design(dummies: np.ndarray, t: np.ndarray) -> DesignMatrix:
    """The evolving seasonal design D_1..D_12, D_1*t..D_12*t of the month
    indicators ``dummies`` (:func:`month_dummies`), as one dense matrix."""
    t = np.asarray(t, dtype=np.float64)
    data = np.column_stack([dummies, dummies * t[:, None]])
    return DesignMatrix(DUMMY_NAMES + INTERACTION_NAMES, data)


class DenseDesign:
    """A design held as its dense matrix ``data``, with the Q of its
    Householder QR: the tests' stand-in for ``regression.GroupDesign``.
    For the Bartlett meat it is one group of every column, so one run with
    the identity map, whose scores are slices of ``data`` times weights."""

    def __init__(self, names: tuple[str, ...], data: np.ndarray, q: Optional[np.ndarray]):
        self.names, self.data, self.q = names, data, q
        self.group = np.broadcast_to(np.intp(0), len(data))
        self.starts = np.array([0])
        self.width = data.shape[1]

    def scores(self, start: int, stop: int, weights: np.ndarray) -> np.ndarray:
        return self.data[start:stop] * weights[:, None]

    def qt(self, v: np.ndarray) -> np.ndarray:
        return self.q.T @ v

    def qdot(self, c: np.ndarray) -> np.ndarray:
        return self.q @ c


def stacked_meat(data: np.ndarray, u: np.ndarray, lag: int) -> np.ndarray:
    """The Bartlett meat of the scores u_t x_t of the rows x_t of ``data``,
    one dense design: the package's meat in its one-run layout, a plain
    Gram of each block's window sums."""
    names = tuple(f"x{j}" for j in range(data.shape[1]))
    return bartlett_meat(DenseDesign(names, data, None), np.empty((len(u), 0)), u, lag)


def factorize(X: DesignMatrix) -> QRFactor:
    """Householder QR of any design X, unpivoted: the reference that the
    package's closed-form ``group_factor`` is checked against, and the
    factor through which tests fit designs of their own with the package's
    ``ols_fit``, ``hac_cov``, ``fit_with_hac`` and ``bordered``.

    A rank-deficient X raises :class:`SingularDesignError` naming the first
    column that lies in the span of the columns before it.
    """
    n, k = X.data.shape
    if n <= k:
        raise InsufficientDataError(f"{n} observations for {k} regressors")
    q, r = np.linalg.qr(X.data)
    # column-major, so that Q'v is one BLAS dot product per column: numpy
    # returns q row-major, where Q'v sums the n rows in sequence, and on a
    # 58-year daily trend design that put a 24 times larger rounding error
    # on the intercept (1.2e-12 against 4.9e-14)
    q = np.asfortranarray(q)
    scale = float(np.linalg.norm(X.data, axis=0).max())
    _check_rank(X.names, r, scale)
    r_inv = np.linalg.solve(r, np.eye(k))
    nothing = np.empty((n, 0))
    design = DenseDesign(X.names, X.data, q)
    return QRFactor(X.names, np.eye(k), design, nothing, nothing, r, r_inv, scale)


def reference_series_csv(series: TemperatureSeries) -> bytes:
    """The series CSV formatted row by row with f-strings: the reference
    for the bytes ``write_series_csv`` fills in from its row templates."""
    lines = ["date,tmax,tmin,avg,dtr,t,month\n"]
    for i, (high, low) in enumerate(zip(series.max_f.tolist(), series.min_f.tolist())):
        day = series.start + timedelta(days=i)
        avg = f"{(high + low) / 2:.1f}".removesuffix(".0")
        lines.append(f"{day.isoformat()},{high},{low},{avg},{high - low},{i + 1},{day.month}\n")
    return "".join(lines).encode()


def reference_dated_csv(
    start: date, header: Sequence[str], first: np.ndarray, second: np.ndarray
) -> bytes:
    """A dated figure CSV formatted row by row with f-strings, each cell the
    repr of its float: the reference for ``reporting``'s dated writers."""
    lines = [",".join(header) + "\n"]
    for i, (a, b) in enumerate(zip(first.tolist(), second.tolist())):
        lines.append(f"{(start + timedelta(days=i)).isoformat()},{a!r},{b!r}\n")
    return "".join(lines).encode()
