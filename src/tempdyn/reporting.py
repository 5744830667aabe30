"""Deterministic table and figure-data files.

Every artifact is written twice where it makes sense: CSV for machines and
an aligned text table for eyeballing. Data files carry no timestamps so
re-runs on unchanged inputs are byte-identical; the ingest manifest records
provenance instead (each station's data source and when it was fetched,
its series sha256 and repairs), and no timing.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .series import TemperatureSeries, distinct_text, write_atomic

if TYPE_CHECKING:  # annotations only, so ingest need not load the fitting modules
    from .density import DensityEstimate
    from .models import BatchReport, CityReport
    from .regression import ModelFit

TABLE_HEADER = [
    "station",
    "delta_trend",
    "delta_trend_star",
    "p_nt",
    "p_ns",
    "p_nts",
    "rho",
    "rho_star",
    "r_squared",
    "hac_bandwidth",
    "delta_trend_full",
    "p_nt_full",
    "p_ns_full",
    "p_nts_full",
    "rho_full",
    "r_squared_full",
]


def _two(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _table_rows(report: BatchReport) -> list[CityReport]:
    rows = list(report.rows)
    if report.median_row is not None:
        rows.append(report.median_row)
    return rows


def _csv(header: Sequence[str], rows: Iterable[str]) -> Iterable[str]:
    """The header line, then the rows: a CSV streamed as text chunks."""
    return chain([",".join(header) + "\n"], rows)


def write_table_csv(report: BatchReport, path: Path) -> None:
    # the row fields are Python floats, so plain {} gives each one's repr
    rows = (
        f"{row.station},{_two(row.delta_trend)},{str(row.delta_trend_starred).lower()},"
        f"{_two(row.p_nt)},{_two(row.p_ns)},{_two(row.p_nts)},"
        f"{_two(row.rho)},{str(row.rho_starred).lower()},{_two(row.r_squared)},"
        f"{row.hac_bandwidth},{row.delta_trend},{row.p_nt},{row.p_ns},{row.p_nts},"
        f"{row.rho},{row.r_squared}\n"
        for row in _table_rows(report)
    )
    write_atomic(path, _csv(TABLE_HEADER, rows))


def format_table_text(report: BatchReport) -> str:
    columns = ["station", "dtrend", "p(nt)", "p(ns)", "p(nts)", "rho", "R2"]
    lines = []
    body = []
    for row in _table_rows(report):
        body.append(
            [
                row.station,
                _two(row.delta_trend) + ("*" if row.delta_trend_starred else ""),
                _two(row.p_nt),
                _two(row.p_ns),
                _two(row.p_nts),
                _two(row.rho) + ("*" if row.rho_starred else ""),
                _two(row.r_squared),
            ]
        )
    widths = [
        max(len(columns[j]), *(len(r[j]) for r in body)) if body else len(columns[j])
        for j in range(len(columns))
    ]
    lines.append("  ".join(c.ljust(widths[j]) for j, c in enumerate(columns)).rstrip())
    for row in body:
        lines.append("  ".join(v.ljust(widths[j]) for j, v in enumerate(row)).rstrip())
    lines.append("")
    # rows of different windows can carry different automatic lags
    lags = sorted({row.hac_bandwidth for row in report.rows})
    lines.append(
        f"variable: {report.variable}  "
        f"HAC bandwidth: {', '.join(map(str, lags)) if lags else 'n/a'}  "
        "(* = significant at the 1% level)"
    )
    if report.failures:
        lines.append("failed stations: " + ", ".join(c for c, _ in report.failures))
    return "\n".join(lines) + "\n"


def write_table_text(report: BatchReport, path: Path) -> None:
    write_atomic(path, [format_table_text(report)])


def write_density_csv(estimate: DensityEstimate, path: Path) -> None:
    rows = (f"{g},{v}\n" for g, v in zip(estimate.grid.tolist(), estimate.values.tolist()))
    write_atomic(path, _csv(["grid", "density"], rows))


def write_trend_csv(
    series: TemperatureSeries, variable: str, trend: ModelFit, path: Path
) -> None:
    y = series.variable(variable)
    # the data lie on a lattice (half or whole degrees)
    fitted = (y - trend.residuals).tolist()
    _write_dated(series, ["actual", "fitted"], distinct_text(y), fitted, path)


def write_seasonal_fit_csv(
    series: TemperatureSeries,
    detrended: np.ndarray,
    seasonal_fitted: np.ndarray,
    path: Path,
) -> None:
    # the fitted values are one effect per month
    columns = detrended.tolist(), distinct_text(seasonal_fitted)
    _write_dated(series, ["detrended", "seasonal_fit"], *columns, path)


def _write_dated(series, names, first: list, second: list, path) -> None:
    """Two daily columns of the series' window, one dated row per day; each
    column holds floats or their text."""
    rows = (f"{when},{a},{b}\n" for when, a, b in zip(series.iso_dates, first, second))
    write_atomic(path, _csv(["date", *names], rows))


def write_patterns_csv(patterns: Mapping[str, Sequence[float]], path: Path) -> None:
    """Twelve rows; one column of month effects per pattern, ``effect_<label>``."""
    rows = (
        f"{m + 1}," + ",".join(f"{effects[m]}" for effects in patterns.values()) + "\n"
        for m in range(12)
    )
    header = ["month"] + [f"effect_{label}" for label in patterns]
    write_atomic(path, _csv(header, rows))


def write_manifest(entries: list[dict], path: Path) -> None:
    write_atomic(path, [json.dumps(entries, indent=2, sort_keys=True), "\n"])
