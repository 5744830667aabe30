"""Seeded, archive-like GHCN-daily corpus and the series it must produce.

Each station gets its own level, trend, seasonal amplitude (drifting over
time), diurnal range and AR(1) noise, so no two stations share a value
stream. The files follow the fixed-width ``.dly`` layout (Menne et al. 2012,
J. Atmos. Oceanic Technol. 29:897): one 269-character line per
station-year-month-element, 31 day groups of value/mflag/qflag/sflag.

Like real airport files they carry years outside 1960-2017, elements other
than TMAX/TMIN, quality-flagged values, isolated single-day gaps, a few days
with MAX below MIN, and multi-day gaps outside the sample window. Which
elements, from which years and how often are modelled (see
``EXTRA_ELEMENTS``), not taken from the archive. The truth
for each station is computed here, independently of ``tempdyn``: whole
degrees Fahrenheit rounded half away from zero, single-day holes filled
with the half-away-rounded mean of their neighbours, inversions swapped.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

WINDOW_START = np.datetime64("1960-01-01")
WINDOW_END = np.datetime64("2017-12-31")
WINDOW_YEARS = (1960, 2017)
MISSING = -9999

HOLE_RATE = 0.002  # isolated in-window holes per element-day
INVERSION_RATE = 0.0005  # in-window days stored with MAX below MIN
QFLAG_RATE = 0.003  # temperature values carrying a failing quality flag
QFLAGS = "DGIKLMNORSTWXZ"
LINE_LENGTH = 269
SPACE = ord(" ")

# (element, first year the element is reported) besides TMAX and TMIN.
# PRCP, SNOW and SNWD are, with TMAX and TMIN, the five core elements of
# GHCN-Daily (its readme.txt, section III), so every record carries them
# throughout. TAVG and the weather type WT01 (fog) are two of its other
# elements. TAVG from 1998 and WT01 on 1% of days are assumptions, not
# checked against the station inventory (ghcnd-inventory.txt). Airport
# files also carry elements left out here (AWND, WDF2, WSF2, further WTxx),
# so the share of non-temperature lines is likely understated.
EXTRA_ELEMENTS = (("PRCP", 0), ("SNOW", 0), ("SNWD", 0), ("TAVG", 1998), ("WT01", 0))


@dataclass(frozen=True)
class StationTruth:
    """What ``ingest`` must write for one station over the window, in deg F."""

    code: str
    ghcn_id: str
    tmax: np.ndarray
    tmin: np.ndarray


@dataclass(frozen=True)
class Corpus:
    stations: tuple[StationTruth, ...]
    sha256: str
    stats: dict

    def truth(self, code: str) -> StationTruth:
        for station in self.stations:
            if station.code == code:
                return station
        raise KeyError(code)


def window_dates() -> np.ndarray:
    return np.arange(WINDOW_START, WINDOW_END + 1)


def round_half_away(numerator: np.ndarray, denominator: int) -> np.ndarray:
    sign = np.where(numerator < 0, -1, 1)
    return sign * ((np.abs(numerator) + denominator // 2) // denominator)


def to_fahrenheit(tenths_celsius: np.ndarray) -> np.ndarray:
    return round_half_away(9 * tenths_celsius + 1600, 50)


def _station_days(rng: np.random.Generator):
    # records starting 1948-1955 and ending 2018-2020 are an assumption,
    # like the element mix
    first_year = int(rng.integers(1948, 1956))
    last_year = int(rng.integers(2018, 2021))
    days = np.arange(np.datetime64(f"{first_year}-01-01"), np.datetime64(f"{last_year + 1}-01-01"))
    return first_year, last_year, days


def _temperatures(rng: np.random.Generator, days: np.ndarray):
    """Daily TMAX/TMIN in tenths of a degree C for one station."""
    n = days.size
    years = (days - WINDOW_START).astype(np.float64) / 365.25
    doy = (days - days.astype("datetime64[Y]")).astype(np.float64)
    angle = 2.0 * np.pi * (doy - rng.uniform(100.0, 120.0)) / 365.25
    level = rng.uniform(6.0, 20.0)
    trend = rng.uniform(-0.01, 0.04)  # deg C per year
    amplitude = rng.uniform(5.0, 15.0) + rng.uniform(-0.03, 0.03) * years
    phi, sigma = rng.uniform(0.55, 0.8), rng.uniform(1.5, 3.0)
    noise = lfilter([1.0], [1.0, -phi], sigma * rng.standard_normal(n))
    avg = level + trend * years + amplitude * np.sin(angle) + noise
    dtr_phi, dtr_sigma = rng.uniform(0.2, 0.5), rng.uniform(0.8, 1.6)
    dtr = (
        rng.uniform(8.0, 14.0)
        + rng.uniform(-0.03, 0.01) * years
        + rng.uniform(0.0, 3.0) * np.sin(angle + rng.uniform(0.0, 1.0))
        + lfilter([1.0], [1.0, -dtr_phi], dtr_sigma * rng.standard_normal(n))
    )
    dtr = np.maximum(dtr, 0.0)
    tmax = np.rint(10.0 * (avg + dtr / 2.0)).astype(np.int64)
    tmin = np.rint(10.0 * (avg - dtr / 2.0)).astype(np.int64)
    return tmax, tmin


def _isolated(rng: np.random.Generator, candidates: np.ndarray, rate: float) -> np.ndarray:
    """A sparse subset of ``candidates`` with no two consecutive indices."""
    picked = np.sort(candidates[rng.random(candidates.size) < rate])
    keep = np.ones(picked.size, dtype=bool)
    last = -2
    for i, index in enumerate(picked):
        if index - last < 2:
            keep[i] = False
        else:
            last = index
    return picked[keep]


def _extra_element(rng: np.random.Generator, element: str, n: int):
    """Daily values and presence of one non-temperature element."""
    present = np.ones(n, dtype=bool)
    if element == "PRCP":
        values = np.where(rng.random(n) < 0.3, rng.gamma(0.8, 60.0, n), 0).astype(np.int64)
    elif element == "SNOW":
        values = np.where(rng.random(n) < 0.05, rng.integers(1, 300, n), 0)
    elif element == "SNWD":
        values = np.where(rng.random(n) < 0.08, rng.integers(10, 600, n), 0)
    elif element == "TAVG":
        values = rng.integers(-200, 350, n)
    else:  # weather type: reported only on the days the phenomenon occurred
        values = np.ones(n, dtype=np.int64)
        present = rng.random(n) < 0.01
    return values, present


def _ascii_int(values: np.ndarray, width: int, zero_pad: bool = False) -> np.ndarray:
    """Integers as right-justified ASCII digits, shape ``values.shape + (width,)``."""
    out = np.full(values.shape + (width,), SPACE, dtype=np.uint8)
    magnitude = np.abs(values)
    ndigits = np.full(values.shape, width if zero_pad else 1, dtype=np.int64)
    if not zero_pad:
        for power in range(1, width):
            ndigits += magnitude >= 10**power
    for pos in range(width):
        digits = ((magnitude // 10**pos) % 10 + ord("0")).astype(np.uint8)
        np.copyto(out[..., width - 1 - pos], digits, where=pos < ndigits)
    negative = np.nonzero(values < 0)
    out[negative + (width - 1 - ndigits[negative],)] = ord("-")
    return out


def _station_file(rng: np.random.Generator, ghcn_id: str, stats: dict):
    """Render one station's ``.dly`` bytes; return them with the window truth."""
    first_year, last_year, days = _station_days(rng)
    tmax, tmin = _temperatures(rng, days)
    n = days.size
    start = int((WINDOW_START - days[0]).astype(int))
    length = int((WINDOW_END - WINDOW_START).astype(int)) + 1
    inner = np.arange(start + 1, start + length - 1)  # window edges stay present

    inverted = inner[rng.random(inner.size) < INVERSION_RATE]
    tmax[inverted], tmin[inverted] = tmin[inverted].copy(), tmax[inverted].copy()

    present = {"TMAX": np.ones(n, dtype=bool), "TMIN": np.ones(n, dtype=bool)}
    for element in present:
        present[element][_isolated(rng, inner, HOLE_RATE)] = False
        # a multi-day outage before the window, which ingest must ignore
        outage = int(rng.integers(0, max(1, start - 40)))
        present[element][outage : outage + int(rng.integers(3, 20))] = False

    window = slice(start, start + length)
    truth = {}
    for element, stored in (("TMAX", tmax), ("TMIN", tmin)):
        fahrenheit = to_fahrenheit(stored[window])
        holes = np.nonzero(~present[element][window])[0]
        fahrenheit[holes] = round_half_away(fahrenheit[holes - 1] + fahrenheit[holes + 1], 2)
        truth[element] = fahrenheit
        stats["holes"] += holes.size
    swap = truth["TMAX"] < truth["TMIN"]
    truth["TMAX"], truth["TMIN"] = (
        np.where(swap, truth["TMIN"], truth["TMAX"]),
        np.where(swap, truth["TMAX"], truth["TMIN"]),
    )
    stats["inversions"] += int(swap.sum())

    # one row per month, one column per day slot; slots past month end stay missing
    months = np.arange(np.datetime64(f"{first_year}-01"), np.datetime64(f"{last_year + 1}-01"))
    month_days = months.astype("datetime64[D]")
    month_lengths = ((months + 1).astype("datetime64[D]") - month_days).astype(int)
    valid = np.arange(31) < month_lengths[:, None]
    grid = np.where(valid, (month_days - days[0]).astype(int)[:, None] + np.arange(31), 0)
    years = first_year + np.arange(months.size) // 12
    in_window = (years >= WINDOW_YEARS[0]) & (years <= WINDOW_YEARS[1])

    sflag = np.where(days < np.datetime64("1970-01-01"), ord("0"), np.where(
        days < np.datetime64("2006-01-01"), ord("X"), ord("W"))).astype(np.uint8)
    blank = np.full(n, SPACE, dtype=np.uint8)
    qflag_chars = np.frombuffer(QFLAGS.encode(), dtype=np.uint8)
    elements = []
    for element, stored in (("TMAX", tmax), ("TMIN", tmin)):
        qflag = np.where(
            rng.random(n) < QFLAG_RATE, qflag_chars[rng.integers(0, qflag_chars.size, n)], SPACE
        ).astype(np.uint8)
        elements.append((element, 0, stored, present[element], blank, qflag))
    for element, since in EXTRA_ELEMENTS:
        values, reported = _extra_element(rng, element, n)
        mflag = blank
        if element == "PRCP":
            mflag = np.where((values == 0) & (rng.random(n) < 0.1), ord("T"), SPACE).astype(np.uint8)
        elements.append((element, since, values, reported, mflag, blank))

    blocks, keys = [], []
    for rank, (element, since, values, reported, mflag, qflag) in enumerate(elements):
        cells = valid & reported[grid]
        rows = (years >= since) & cells.any(axis=1)
        cells, cell_index = cells[rows], grid[rows]
        groups = np.empty(cells.shape + (8,), dtype=np.uint8)
        groups[..., :5] = _ascii_int(np.where(cells, values[cell_index], MISSING), 5)
        for offset, flag in ((5, mflag), (6, qflag), (7, sflag)):
            groups[..., offset] = np.where(cells, flag[cell_index], SPACE)
        block = np.empty((cells.shape[0], LINE_LENGTH + 1), dtype=np.uint8)
        block[:, :11] = np.frombuffer(f"{ghcn_id:<11.11}".encode(), dtype=np.uint8)
        block[:, 11:15] = _ascii_int(years[rows], 4, zero_pad=True)
        block[:, 15:17] = _ascii_int(np.arange(months.size)[rows] % 12 + 1, 2, zero_pad=True)
        block[:, 17:21] = np.frombuffer(element.encode(), dtype=np.uint8)
        block[:, 21:LINE_LENGTH] = groups.reshape(cells.shape[0], 31 * 8)
        block[:, LINE_LENGTH] = ord("\n")
        blocks.append(block)
        keys.append(np.nonzero(rows)[0] * len(elements) + rank)

        stats["lines"] += block.shape[0]
        stats["out_of_window_lines"] += int((~in_window[rows]).sum())
        stats["qflag_lines"] += int((groups[..., 6] != SPACE).any(axis=1).sum())
        if element in present:
            holes = (valid & ~reported[grid])[rows] & in_window[rows][:, None]
            stats["gap_lines"] += int(holes.any(axis=1).sum())
        else:
            stats["other_element_lines"] += block.shape[0]
    lines = np.concatenate(blocks)[np.argsort(np.concatenate(keys))]
    return lines.tobytes(), truth


def read_stations(config_path: Path) -> list[tuple[str, str]]:
    """(code, ghcn_id) of the active stations in a tempdyn config file."""
    stations = []
    in_block = False
    for raw in config_path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower() == "[stations]":
            in_block = True
        elif in_block and not line.startswith("!"):
            code, ghcn_id = line.split()[:2]
            stations.append((code, ghcn_id))
    return stations


def generate(seed: int, stations: list[tuple[str, str]], cache_dir: Path) -> Corpus:
    """Write one ``<ghcn_id>.dly`` per station into ``cache_dir``."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    stats = dict.fromkeys(
        ("lines", "out_of_window_lines", "other_element_lines", "gap_lines",
         "qflag_lines", "holes", "inversions"),
        0,
    )
    digest = hashlib.sha256()
    truths = []
    for index, (code, ghcn_id) in enumerate(stations):
        rng = np.random.default_rng([seed, index])
        payload, truth = _station_file(rng, ghcn_id, stats)
        (cache_dir / f"{ghcn_id}.dly").write_bytes(payload)
        digest.update(ghcn_id.encode() + hashlib.sha256(payload).digest())
        truths.append(StationTruth(code, ghcn_id, truth["TMAX"], truth["TMIN"]))
    lines = stats["lines"]
    shares = {
        f"{key}_share": stats[key] / lines
        for key in ("out_of_window_lines", "other_element_lines", "gap_lines", "qflag_lines")
    }
    stats.update(shares)
    return Corpus(tuple(truths), digest.hexdigest(), stats)
