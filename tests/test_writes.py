"""Every output file is replaced atomically, with a plain file's mode."""

import os
import stat
from datetime import date, timedelta

import numpy as np
import pytest

from tempdyn import reporting
from tempdyn import series as series_mod
from tempdyn.density import DensityEstimate
from tempdyn.ghcn import fetch_station
from tempdyn.models import BatchReport, CityReport
from tempdyn.regression import ModelFit
from tempdyn.series import build_series, read_series_csv, sidecar_path, write_series_csv

from conftest import reference_dated_csv, reference_series_csv, synthetic_station_bytes

START, END = date(1960, 1, 1), date(1960, 12, 31)
DAYS = (END - START).days + 1
PREVIOUS = b"previous,content\n1,2\n"


class Unprintable:
    """A cell that fails once its row is being formatted, as a full disk would."""

    def __format__(self, spec):
        raise RuntimeError("cell cannot be written")

    def __float__(self):
        raise RuntimeError("cell cannot be written")


def _write_series_failing_in_second_block(path):
    # more than one block of rows, so the first block is already streamed
    # into the temp file when the second one fails
    start, end = date(1960, 1, 1), date(1971, 12, 31)
    days = (end - start).days + 1
    assert days > series_mod._ROW_BLOCK
    real = series_mod._row_templates

    class UnfillableTemplate(str):
        """A block of row templates that fails once its rows are filled in,
        as a full disk would while that block streams."""

        def __mod__(self, cells):
            assert [p.suffix for p in path.parent.iterdir() if p != path] == [".part"]
            raise RuntimeError("row block cannot be written")

    def second_block_fails(*window):
        first, second, *rest = real(*window)
        return (first, UnfillableTemplate(second), *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_mod, "_row_templates", second_block_fails)
        write_series_csv(build_series(np.full(days, 70), np.full(days, 50), start, end), path)


def _row(station, p_nt):
    return CityReport(station, 1.5, False, p_nt, 0.5, 0.5, 0.3, True, 0.8, 6)


def _column_with_bad_cell(n=512, at=300):
    column = np.linspace(0.0, 1.0, n).astype(object)
    column[at] = Unprintable()
    return column


WRITERS = {
    "series": _write_series_failing_in_second_block,
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


def test_interrupted_sidecar_leaves_previous_sidecar(tmp_path, monkeypatch):
    # the CSV is replaced, its sidecar is not; the previous sidecar no
    # longer matches the CSV, so the CSV is read as text
    built = build_series(np.full(DAYS, 70), np.full(DAYS, 50), START, END)
    path = tmp_path / "AAA.csv"
    write_series_csv(built, path)
    previous = sidecar_path(path).read_bytes()
    max_f = built.max_f.copy()
    max_f[100] = 71

    def unbuildable(series, csv_sha256):
        raise RuntimeError("sidecar cannot be written")

    # the fault comes once the CSV is renamed into place, while its
    # sidecar is built
    monkeypatch.setattr(series_mod, "_sidecar_bytes", unbuildable)
    with pytest.raises(RuntimeError, match="cannot be written"):
        write_series_csv(build_series(max_f, built.min_f, START, END), path)
    assert sidecar_path(path).read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["AAA.csv", "AAA.npy"]
    assert read_series_csv(path).max_f[99:102].tolist() == [70, 71, 70]


def test_series_csv_and_cache_file_get_plain_open_mode(tmp_path, archive):
    old = os.umask(0o022)
    try:
        with open(tmp_path / "plain.txt", "w"):
            pass
        write_series_csv(
            build_series(np.full(DAYS, 70), np.full(DAYS, 50), START, END),
            tmp_path / "AAA.csv",
        )
        payload = synthetic_station_bytes("USW00099901", START, END)
        archive.serve("/USW00099901.dly", payload)
        (tmp_path / "cache").mkdir()
        fetch_station("USW00099901", archive.url, tmp_path / "cache")
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

    assert (tmp_path / "trend.csv").read_bytes() == reference_dated_csv(
        START, ["date", "actual", "fitted"], series.avg, series.avg - residuals
    )
    assert (tmp_path / "fit.csv").read_bytes() == reference_dated_csv(
        START, ["date", "detrended", "seasonal_fit"], residuals, fitted
    )
    fit_lines = (tmp_path / "fit.csv").read_text().splitlines()
    assert {line.rsplit(",", 1)[1] for line in fit_lines[1:]} >= {"-0.0", "0.0"}


def _random_series(rng, start, days, low):
    tmin = rng.integers(low, low + 40, size=days)
    tmax = tmin + rng.integers(0, 35, size=days)
    return build_series(tmax, tmin, start, start + timedelta(days=days - 1))


def _write_all(series, rng, directory):
    """The series CSV and both dated figure files of ``series``, each
    checked against the per-row reference; whether a sidecar was written."""
    days = len(series)
    path = directory / "AAA.csv"
    write_series_csv(series, path)
    assert path.read_bytes() == reference_series_csv(series)
    residuals = rng.standard_normal(days)
    trend = ModelFit(("const", "time"), np.zeros(2), residuals, 0.5, days)
    reporting.write_trend_csv(series, "dtr", trend, directory / "trend.csv")
    assert (directory / "trend.csv").read_bytes() == reference_dated_csv(
        series.start, ["date", "actual", "fitted"], series.dtr, series.dtr - residuals
    )
    fitted = rng.standard_normal(12)[series.month - 1]
    reporting.write_seasonal_fit_csv(series, residuals, fitted, directory / "fit.csv")
    assert (directory / "fit.csv").read_bytes() == reference_dated_csv(
        series.start, ["date", "detrended", "seasonal_fit"], residuals, fitted
    )
    return sidecar_path(path).exists()


BLOCK = series_mod._ROW_BLOCK


@pytest.mark.parametrize(
    "start, days, low",
    [
        (date(1960, 1, 1), 1, 30),
        (date(1961, 3, 15), 500, 30),
        (date(1999, 11, 20), 120, 30),
        (date(1960, 1, 1), BLOCK, 30),
        (date(1960, 1, 1), BLOCK + 1, 30),
        (date(1979, 12, 1), 400, -60),
    ],
    ids=["1-day", "from-1961-03-15", "over-2000-02-29", "one-block", "block-plus-one",
         "negative"],
)
def test_rows_equal_the_per_row_reference(tmp_path, start, days, low):
    series = _random_series(np.random.default_rng(days), start, days, low)
    assert _write_all(series, np.random.default_rng(1), tmp_path)


def test_rows_beyond_16_bits_equal_the_reference_without_a_sidecar(tmp_path):
    series = build_series(
        [40000, 70, 41001], [50, -40000, 70], date(2000, 2, 28), date(2000, 3, 1)
    )
    assert not _write_all(series, np.random.default_rng(2), tmp_path)


def test_alternating_windows_get_their_own_rows(tmp_path):
    # the same length from another start, another length from the same
    # start, and the same window as before: a cached template of one window
    # never fills another's rows
    rng = np.random.default_rng(3)
    windows = [(date(1960, 1, 1), 800), (date(1961, 3, 15), 800), (date(1960, 1, 1), 801)]
    for start, days in windows * 2:
        assert _write_all(_random_series(rng, start, days, 30), rng, tmp_path)
