"""Deterministic table and figure-data files.

Every artifact is written twice where it makes sense: CSV for machines and
an aligned text table for eyeballing. Data files carry no timestamps so
re-runs on unchanged inputs are byte-identical; the ingest manifest records
provenance and timing instead.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .density import DensityEstimate
from .models import (
    BatchReport,
    CityReport,
    EvolvingSeasonalFit,
    SeasonalPattern,
)
from .regression import ModelFit
from .series import TemperatureSeries

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


def _full(value: float) -> str:
    return repr(float(value))


def _table_rows(report: BatchReport) -> list[CityReport]:
    rows = list(report.rows)
    if report.median_row is not None:
        rows.append(report.median_row)
    return rows


def write_table_csv(report: BatchReport, path: Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TABLE_HEADER)
        for row in _table_rows(report):
            writer.writerow(
                [
                    row.station,
                    _two(row.delta_trend),
                    str(row.delta_trend_starred).lower(),
                    _two(row.p_nt),
                    _two(row.p_ns),
                    _two(row.p_nts),
                    _two(row.rho),
                    str(row.rho_starred).lower(),
                    _two(row.r_squared),
                    row.hac_bandwidth,
                    _full(row.delta_trend),
                    _full(row.p_nt),
                    _full(row.p_ns),
                    _full(row.p_nts),
                    _full(row.rho),
                    _full(row.r_squared),
                ]
            )


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
    lines.append(
        f"variable: {report.variable}  "
        f"HAC bandwidth: {report.rows[0].hac_bandwidth if report.rows else 'n/a'}  "
        "(* = significant at the 1% level)"
    )
    if report.failures:
        lines.append("failed stations: " + ", ".join(c for c, _ in report.failures))
    return "\n".join(lines) + "\n"


def write_table_text(report: BatchReport, path: Path) -> None:
    path.write_text(format_table_text(report))


def write_density_csv(estimate: DensityEstimate, path: Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["grid", "density"])
        for g, v in zip(estimate.grid, estimate.values):
            writer.writerow([_full(g), _full(v)])


def write_trend_csv(
    series: TemperatureSeries, variable: str, trend: ModelFit, path: Path
) -> None:
    y = series.variable(variable)
    fitted = y - trend.residuals
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "actual", "fitted"])
        for when, actual, fit_value in zip(series.dates, y, fitted):
            writer.writerow([when.isoformat(), _full(actual), _full(fit_value)])


def write_seasonal_fit_csv(
    series: TemperatureSeries,
    detrended: np.ndarray,
    seasonal_fitted: np.ndarray,
    path: Path,
) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "detrended", "seasonal_fit"])
        for when, dev, fit_value in zip(series.dates, detrended, seasonal_fitted):
            writer.writerow([when.isoformat(), _full(dev), _full(fit_value)])


def write_patterns_csv(patterns: Sequence[SeasonalPattern], path: Path) -> None:
    """Twelve rows; one effect column per pattern, labelled by evaluated_at."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["month"] + [f"effect_{p.evaluated_at}" for p in patterns])
        for m in range(12):
            writer.writerow([m + 1] + [_full(p.month_effects[m]) for p in patterns])


def evolving_patterns(
    fit: EvolvingSeasonalFit, series: TemperatureSeries
) -> list[SeasonalPattern]:
    """Patterns anchored at July 1 of the first and last sample years."""
    first = series.dates[0].year
    last = series.dates[-1].year
    return [fit.pattern_for_year(series, first), fit.pattern_for_year(series, last)]


def write_manifest(entries: list[dict], path: Path) -> None:
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
