"""Every output file is replaced atomically, with a plain file's mode."""

import dataclasses
import os
import stat
from datetime import date, timedelta

import numpy as np
import pytest

from tempdyn import reporting
from tempdyn.density import DensityEstimate
from tempdyn.ghcn import fetch_station
from tempdyn.models import BatchReport, CityReport
from tempdyn.regression import ModelFit
from tempdyn.series import build_series, read_series_csv, sidecar_path, write_series_csv

from conftest import synthetic_station_bytes

START, END = date(1960, 1, 1), date(1960, 12, 31)
DAYS = (END - START).days + 1
PREVIOUS = b"previous,content\n1,2\n"


class Unprintable:
    """A cell that fails once its row is being formatted, as a full disk would."""

    def __format__(self, spec):
        raise RuntimeError("cell cannot be written")

    def __float__(self):
        raise RuntimeError("cell cannot be written")


class WholeInText:
    """A temperature that formats as text but cannot become an integer, so
    the series CSV is written and its sidecar fails."""

    def __float__(self):
        return 71.0

    def __int__(self):
        raise RuntimeError("sidecar cannot be written")


def _series_with_bad_t():
    built = build_series(np.full(DAYS, 70), np.full(DAYS, 50), START, END)
    t = built.t.astype(object)
    t[200] = Unprintable()
    return dataclasses.replace(built, t=t)


def _row(station, p_nt):
    return CityReport(station, 1.5, False, p_nt, 0.5, 0.5, 0.3, True, 0.8, 6)


def _column_with_bad_cell(n=512, at=300):
    column = np.linspace(0.0, 1.0, n).astype(object)
    column[at] = Unprintable()
    return column


WRITERS = {
    "series": lambda path: write_series_csv(_series_with_bad_t(), path),
    "table": lambda path: reporting.write_table_csv(
        BatchReport("avg", (_row("AAA", 0.1), _row("BBB", Unprintable())), None, ()), path
    ),
    "density": lambda path: reporting.write_density_csv(
        DensityEstimate(np.linspace(0.0, 1.0, 512), _column_with_bad_cell(), 1.0), path
    ),
    "seasonal-fit": lambda path: reporting.write_seasonal_fit_csv(
        build_series(np.full(DAYS, 70), np.full(DAYS, 50), START, END),
        np.zeros(DAYS),
        _column_with_bad_cell(DAYS, 250),
        path,
    ),
    "patterns": lambda path: reporting.write_patterns_csv(
        {"1960": [0.5] * 9 + [Unprintable()] + [0.5] * 2}, path
    ),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_interrupted_writer_leaves_previous_file(tmp_path, writer):
    path = tmp_path / "out.csv"
    path.write_bytes(PREVIOUS)
    with pytest.raises(RuntimeError, match="cannot be written"):
        WRITERS[writer](path)
    assert path.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_interrupted_sidecar_leaves_previous_sidecar(tmp_path):
    # the CSV is replaced, its sidecar is not; the previous sidecar no
    # longer matches the CSV, so the CSV is read as text
    built = build_series(np.full(DAYS, 70), np.full(DAYS, 50), START, END)
    path = tmp_path / "AAA.csv"
    write_series_csv(built, path)
    previous = sidecar_path(path).read_bytes()
    # day 100 becomes 71/50, consistently in every column of the CSV
    max_f, avg, dtr = built.max_f.astype(object), built.avg.copy(), built.dtr.copy()
    max_f[100], avg[100], dtr[100] = WholeInText(), 60.5, 21.0
    with pytest.raises(RuntimeError, match="cannot be written"):
        write_series_csv(dataclasses.replace(built, max_f=max_f, avg=avg, dtr=dtr), path)
    assert sidecar_path(path).read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["AAA.csv", "AAA.npy"]
    assert read_series_csv(path).max_f[99:102].tolist() == [70, 71, 70]


class FakeResponse:
    status_code = 200

    def __init__(self, content: bytes):
        self.content = content


def test_series_csv_and_cache_file_get_plain_open_mode(tmp_path):
    old = os.umask(0o022)
    try:
        with open(tmp_path / "plain.txt", "w"):
            pass
        write_series_csv(
            build_series(np.full(DAYS, 70), np.full(DAYS, 50), START, END),
            tmp_path / "AAA.csv",
        )
        payload = synthetic_station_bytes("USW00099901", START, END)
        fetch_station(
            "USW00099901", "http://x.invalid", tmp_path / "cache",
            http_get=lambda url: FakeResponse(payload),
        )
    finally:
        os.umask(old)
    modes = {
        name: stat.S_IMODE(path.stat().st_mode)
        for name, path in (
            ("plain", tmp_path / "plain.txt"),
            ("series", tmp_path / "AAA.csv"),
            ("cache", tmp_path / "cache" / "USW00099901.dly"),
        )
    }
    modes["sidecar"] = stat.S_IMODE((tmp_path / "AAA.npy").stat().st_mode)
    assert modes == {"plain": 0o644, "series": 0o644, "cache": 0o644, "sidecar": 0o644}
    assert (tmp_path / "cache" / "USW00099901.dly").read_bytes() == payload


def test_dated_columns_hold_each_value_repr(tmp_path):
    # repeated values are formatted once, each still as its own repr: a
    # lattice of temperatures, and one effect per month with both zeros
    rng = np.random.default_rng(5)
    tmin = rng.integers(20, 60, size=DAYS)
    series = build_series(tmin + rng.integers(0, 25, size=DAYS), tmin, START, END)
    residuals = rng.standard_normal(DAYS)
    trend = ModelFit(("const", "time"), np.zeros(2), residuals, 0.5, DAYS)
    effects = np.array([0.1, -0.0, 0.0, 1 / 3, -2.5, 1e-17, 7.0, -1 / 7, 60.5, 1e300, -3.0, 0.2])
    fitted = effects[series.month - 1]
    reporting.write_trend_csv(series, "avg", trend, tmp_path / "trend.csv")
    reporting.write_seasonal_fit_csv(series, residuals, fitted, tmp_path / "fit.csv")

    def expected(header, first, second):
        days = (START + timedelta(days=i) for i in range(DAYS))
        rows = zip(days, first.tolist(), second.tolist())
        return [header] + [f"{day.isoformat()},{a!r},{b!r}" for day, a, b in rows]

    trend_lines = (tmp_path / "trend.csv").read_text().splitlines()
    assert trend_lines == expected("date,actual,fitted", series.avg, series.avg - residuals)
    fit_lines = (tmp_path / "fit.csv").read_text().splitlines()
    assert fit_lines == expected("date,detrended,seasonal_fit", residuals, fitted)
    assert {line.rsplit(",", 1)[1] for line in fit_lines[1:]} >= {"-0.0", "0.0"}
