"""Deterministic table and figure-data files, as bytes: each function
returns one file's chunks, which the commands write with ``series.staged``.

Tables come twice: CSV for machines and an aligned text table for
eyeballing. Data files carry no timestamps so re-runs on unchanged inputs
are byte-identical; the ingest manifest records provenance instead (each
station's data source and when it was fetched, its series sha256 and
repairs), and no timing.

The dated figure files (trend and seasonal fit) fill the window's row
templates (``series.fill_rows``): the date text is formatted once per
window, and each file adds its two cells per day, rendered from slices of
its two columns one block of rows at a time. ``%s`` of a float is its
repr, so the bytes are those of formatting every row in full.
"""

from __future__ import annotations

import json
from datetime import date
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .series import csv_chunks, distinct_text, fill_rows

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


def table_csv(report: BatchReport) -> Iterable[bytes]:
    # the row fields are Python floats, so plain {} gives each one's repr
    rows = (
        f"{row.station},{_two(row.delta_trend)},{str(row.delta_trend_starred).lower()},"
        f"{_two(row.p_nt)},{_two(row.p_ns)},{_two(row.p_nts)},"
        f"{_two(row.rho)},{str(row.rho_starred).lower()},{_two(row.r_squared)},"
        f"{row.hac_bandwidth},{row.delta_trend},{row.p_nt},{row.p_ns},{row.p_nts},"
        f"{row.rho},{row.r_squared}\n"
        for row in _table_rows(report)
    )
    return csv_chunks(TABLE_HEADER, rows)


def table_text(report: BatchReport) -> Iterable[bytes]:
    header = ["station", "dtrend", "p(nt)", "p(ns)", "p(nts)", "rho", "R2"]
    body = [
        [
            row.station,
            _two(row.delta_trend) + ("*" if row.delta_trend_starred else ""),
            _two(row.p_nt),
            _two(row.p_ns),
            _two(row.p_nts),
            _two(row.rho) + ("*" if row.rho_starred else ""),
            _two(row.r_squared),
        ]
        for row in _table_rows(report)
    ]
    # each column as wide as its widest cell, the header's included
    widths = [max(map(len, column)) for column in zip(header, *body)]
    lines = ["  ".join(map(str.ljust, cells, widths)).rstrip() for cells in [header, *body]]
    lines += [
        "",
        f"variable: {report.variable}  "
        f"HAC bandwidth: {report.rows[0].hac_bandwidth if report.rows else 'n/a'}  "
        "(* = significant at the 1% level)",
    ]
    if report.failures:
        lines.append("failed stations: " + ", ".join(c for c, _ in report.failures))
    return ["\n".join(lines).encode() + b"\n"]


def density_csv(estimate: DensityEstimate) -> Iterable[bytes]:
    rows = (f"{g},{v}\n" for g, v in zip(estimate.grid.tolist(), estimate.values.tolist()))
    return csv_chunks(["grid", "density"], rows)


_DATED_ROW = "{0},%s,%s\n"


def trend_csv(start: date, y: np.ndarray, trend: ModelFit) -> Iterable[bytes]:
    # the data lie on a lattice (half or whole degrees)
    columns = (y, distinct_text), (y - trend.residuals, np.ndarray.tolist)
    return csv_chunks(["date", "actual", "fitted"], fill_rows(start, _DATED_ROW, *columns))


def seasonal_fit_csv(
    start: date, detrended: np.ndarray, seasonal_fitted: np.ndarray
) -> Iterable[bytes]:
    # the fitted values are one effect per month
    columns = (detrended, np.ndarray.tolist), (seasonal_fitted, distinct_text)
    return csv_chunks(
        ["date", "detrended", "seasonal_fit"], fill_rows(start, _DATED_ROW, *columns)
    )


def patterns_csv(patterns: Mapping[str, Sequence[float]]) -> Iterable[bytes]:
    """Twelve rows; one column of month effects per pattern, ``effect_<label>``."""
    rows = (
        f"{m + 1}," + ",".join(f"{effects[m]}" for effects in patterns.values()) + "\n"
        for m in range(12)
    )
    header = ["month"] + [f"effect_{label}" for label in patterns]
    return csv_chunks(header, rows)


def manifest_json(entries: list[dict]) -> Iterable[bytes]:
    return [json.dumps(entries, indent=2, sort_keys=True).encode(), b"\n"]
