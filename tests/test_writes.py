"""Every output file is staged and replaced atomically, with a plain
file's mode, and the files staged together land together."""

import hashlib
import os
import stat
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from tempdyn import reporting
from tempdyn import series as series_mod
from tempdyn.density import DensityEstimate
from tempdyn.ghcn import fetch_station
from tempdyn.models import BatchReport, CityReport, WindowFactors
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


def publish(path, chunks) -> str:
    """``chunks`` staged as ``path`` and published, as a command writes
    each of its files; their sha256 as hex."""
    with series_mod.staged(path.parent) as write:
        return write(path.name, chunks)


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
    "table": lambda path: publish(path, reporting.table_csv(
        BatchReport("avg", (_row("AAA", 0.1), _row("BBB", Unprintable())), None, ())
    )),
    "density": lambda path: publish(path, reporting.density_csv(
        DensityEstimate(np.linspace(0.0, 1.0, 512), _column_with_bad_cell(), 1.0)
    )),
    "seasonal-fit": lambda path: publish(path, reporting.seasonal_fit_csv(
        START,
        np.zeros(DAYS),
        _column_with_bad_cell(DAYS, 250),
    )),
    "patterns": lambda path: publish(path, reporting.patterns_csv(
        {"1960": [0.5] * 9 + [Unprintable()] + [0.5] * 2}
    )),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_interrupted_writer_leaves_previous_file(tmp_path, writer):
    path = tmp_path / "out.csv"
    path.write_bytes(PREVIOUS)
    with pytest.raises(RuntimeError, match="cannot be written"):
        WRITERS[writer](path)
    assert path.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_text_chunk_is_refused_and_leaves_previous_file(tmp_path):
    # every output is handed over as bytes: text is a caller's mistake,
    # refused before the previous file is touched
    path = tmp_path / "out.csv"
    path.write_bytes(PREVIOUS)
    with pytest.raises(TypeError):
        publish(path, ["date,tmax\n", "1960-01-01,70\n"])
    assert path.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_interrupted_sidecar_leaves_previous_sidecar(tmp_path, monkeypatch):
    # the CSV and its sidecar are published together: a fault at the
    # sidecar leaves both previous files, which still read as the previous
    # series
    built = build_series(np.full(DAYS, 70), np.full(DAYS, 50), START, END)
    path = tmp_path / "AAA.csv"
    write_series_csv(built, path)
    previous = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    max_f = built.max_f.copy()
    max_f[100] = 71

    def unbuildable(series, csv_sha256):
        raise RuntimeError("sidecar cannot be written")

    # the fault comes once the CSV is staged, while its sidecar is built
    monkeypatch.setattr(series_mod, "_sidecar_chunks", unbuildable)
    with pytest.raises(RuntimeError, match="cannot be written"):
        write_series_csv(build_series(max_f, built.min_f, START, END), path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == previous
    assert read_series_csv(path).max_f[99:102].tolist() == [70, 70, 70]
    monkeypatch.undo()
    write_series_csv(build_series(max_f, built.min_f, START, END), path)
    assert read_series_csv(path).max_f[99:102].tolist() == [70, 71, 70]


def _previous_files(directory, names):
    for name in names:
        (directory / name).write_bytes(PREVIOUS + name.encode())
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_staged_files_land_together_with_their_sha256(tmp_path):
    previous = _previous_files(tmp_path, ["a.csv", "b.csv"])
    new = {"a.csv": [b"x,y\n", b"1,2\n"], "b.csv": [b"z\n"], "c.csv": [memoryview(b"3\n")]}
    with series_mod.staged(tmp_path) as write:
        digests = {name: write(name, chunks) for name, chunks in new.items()}
        # staged beside the previous files, none of which has moved yet
        staged = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix == ".part"}
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {**previous, **staged}
        assert len(staged) == 3
    written = {name: b"".join(chunks) for name, chunks in new.items()}
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written
    assert digests == {name: hashlib.sha256(data).hexdigest() for name, data in written.items()}


def test_a_failure_before_the_publish_leaves_every_previous_file(tmp_path):
    previous = _previous_files(tmp_path, ["a.csv", "b.csv"])
    with pytest.raises(RuntimeError, match="after two files"):
        with series_mod.staged(tmp_path) as write:
            write("a.csv", [b"new a\n"])
            write("c.csv", [b"new c\n"])
            raise RuntimeError("the command failed after two files")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == previous


def test_a_failed_rename_leaves_the_files_renamed_before_it(tmp_path):
    # renames are atomic one file at a time, not together: with a directory
    # in the second file's place, the first is published and the third not
    previous = _previous_files(tmp_path, ["a.csv", "c.csv"])
    (tmp_path / "b.csv").mkdir()
    with pytest.raises(OSError, match=f"^cannot write {tmp_path / 'b.csv'}: Is a directory$"):
        with series_mod.staged(tmp_path) as write:
            for name in ("a.csv", "b.csv", "c.csv"):
                write(name, [b"new\n"])
    assert (tmp_path / "a.csv").read_bytes() == b"new\n"
    assert (tmp_path / "c.csv").read_bytes() == previous["c.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "c.csv"]


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
    modes["sidecar"] = stat.S_IMODE(sidecar_path(tmp_path / "AAA.csv").stat().st_mode)
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
    fitted = effects[WindowFactors(START, END).month_index]
    publish(tmp_path / "trend.csv", reporting.trend_csv(START, series.variable("avg"), trend))
    publish(tmp_path / "fit.csv", reporting.seasonal_fit_csv(START, residuals, fitted))

    assert (tmp_path / "trend.csv").read_bytes() == reference_dated_csv(
        START, ["date", "actual", "fitted"], series.variable("avg"),
        series.variable("avg") - residuals,
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
    dtr = series.variable("dtr")
    publish(directory / "trend.csv", reporting.trend_csv(series.start, dtr, trend))
    assert (directory / "trend.csv").read_bytes() == reference_dated_csv(
        series.start, ["date", "actual", "fitted"], series.variable("dtr"),
        series.variable("dtr") - residuals,
    )
    fitted = rng.standard_normal(12)[WindowFactors(series.start, series.end).month_index]
    publish(directory / "fit.csv", reporting.seasonal_fit_csv(series.start, residuals, fitted))
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
        (date(1960, 1, 1), BLOCK - 1, 30),
        (date(1960, 1, 1), BLOCK, 30),
        (date(1960, 1, 1), BLOCK + 1, 30),
        (date(1979, 12, 1), 400, -60),
        (date(1960, 1, 1), 21185, 30),
    ],
    ids=["1-day", "from-1961-03-15", "over-2000-02-29", "block-less-one", "one-block",
         "block-plus-one", "negative", "58-years"],
)
def test_rows_equal_the_per_row_reference(tmp_path, start, days, low):
    series = _random_series(np.random.default_rng(days), start, days, low)
    assert _write_all(series, np.random.default_rng(1), tmp_path)


def test_rows_beyond_16_bits_equal_the_reference_with_a_sidecar(tmp_path):
    series = build_series(
        [40000, 70, 41001], [50, -40000, 70], date(2000, 2, 28), date(2000, 3, 1)
    )
    assert _write_all(series, np.random.default_rng(2), tmp_path)


def test_alternating_windows_get_their_own_rows(tmp_path):
    # the same length from another start, another length from the same
    # start, and the same window as before: a cached template of one window
    # never fills another's rows
    rng = np.random.default_rng(3)
    windows = [(date(1960, 1, 1), 800), (date(1961, 3, 15), 800), (date(1960, 1, 1), 801)]
    for start, days in windows * 2:
        assert _write_all(_random_series(rng, start, days, 30), rng, tmp_path)


def test_dated_writer_holds_no_whole_window_list(tmp_path):
    # a 58-year trend file is filled from slices of its two columns, one
    # block of rows at a time: it allocates less than one list of the
    # window's floats would (a 24-byte float and an 8-byte slot each)
    start, days = date(1960, 1, 1), 21185
    rng = np.random.default_rng(4)
    series = _random_series(rng, start, days, 30)
    trend = ModelFit(("const", "time"), np.zeros(2), rng.standard_normal(days), 0.5, days)
    y, path = series.variable("avg"), tmp_path / "trend.csv"
    # the first write builds the window's row templates, which every later
    # dated file of the window shares
    publish(path, reporting.trend_csv(start, y, trend))
    tracemalloc.start()
    try:
        publish(path, reporting.trend_csv(start, y, trend))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < days * 32
    assert path.read_bytes() == reference_dated_csv(
        start, ["date", "actual", "fitted"], y, y - trend.residuals
    )
