"""Correctness gate: the CLI's outputs against the corpus truth and a numpy oracle.

The oracle does not import ``tempdyn``. It fits every model with
``numpy.linalg.lstsq``, builds the Newey-West covariance from an explicit
Bartlett-weighted sum of lagged score cross products, inverts X'X through
the SVD pseudo-inverse, and takes chi-square tails from their closed forms.

Tolerance: a full-precision value passes when it is within ``TOL`` of the
oracle, relative to the larger of 1 and the oracle's magnitude. The program
and the oracle agree to about 1e-10 on this corpus (p-values; 1e-12 for
coefficients), so ``TOL`` leaves room for reordered arithmetic while
catching any change in what is computed.
Rounded (two-decimal) table columns and significance stars must match the
oracle exactly, except where the oracle value lies within ``TOL`` of a
rounding or significance boundary; for the default seed they must also match
the stored reference byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path
from statistics import median

import numpy as np

from corpus import Corpus, StationTruth, window_dates

TOL = 1e-7
STAR_LEVEL = 0.01
JULY = 7
TABLE_VALUES = ("delta_trend", "p_nt", "p_ns", "p_nts", "rho", "r_squared")
SERIES_HEADER = ["date", "tmax", "tmin", "avg", "dtr", "t", "month"]


def close(got: np.ndarray, want: np.ndarray) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want)))
    )


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a comma-separated file without quoting, as string arrays."""
    header, _, body = Path(path).read_text().partition("\n")
    names = header.split(",")
    cells = np.array(body.replace("\n", ",").rstrip(",").split(","))
    if cells.size % len(names):
        raise ValueError(f"{path}: ragged rows")
    rows = cells.reshape(-1, len(names))
    return {name: rows[:, i] for i, name in enumerate(names)}


def chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail from its closed forms for integer df."""
    half = x / 2.0
    if df % 2 == 0:
        term = total = math.exp(-half)
        for i in range(1, df // 2):
            term *= half / i
            total += term
        return total
    total = math.erfc(math.sqrt(half))
    term = math.exp(-half) * math.sqrt(half) / math.gamma(1.5)
    for i in range(1, (df + 1) // 2):
        total += term
        term *= half / (i + 0.5)
    return total


def auto_lag(nobs: int) -> int:
    return int(math.floor(4.0 * (nobs / 100.0) ** (2.0 / 9.0)))


class Fit:
    """OLS by lstsq with a Newey-West (Bartlett) covariance."""

    def __init__(self, X: np.ndarray, y: np.ndarray, with_cov: bool = True):
        self.beta = np.linalg.lstsq(X, y, rcond=None)[0]
        self.fitted = X @ self.beta
        self.residuals = y - self.fitted
        self.lag = auto_lag(len(y))
        if with_cov:
            scores = X * self.residuals[:, None]
            meat = scores.T @ scores
            for j in range(1, self.lag + 1):
                gamma = scores[j:].T @ scores[:-j]
                meat += (1.0 - j / (self.lag + 1.0)) * (gamma + gamma.T)
            pinv = np.linalg.pinv(X)
            bread = pinv @ pinv.T
            self.cov = bread @ meat @ bread

    def wald_p(self, idx: list[int]) -> float:
        b = self.beta[idx]
        statistic = float(b @ np.linalg.solve(self.cov[np.ix_(idx, idx)], b))
        return chi2_sf(statistic, len(idx))


class StationData:
    """A station's series as the program must have built it, with its designs."""

    def __init__(self, truth: StationTruth):
        self.dates = window_dates()
        self.tmax, self.tmin = truth.tmax, truth.tmin
        self.avg = (truth.tmax + truth.tmin) / 2.0
        self.dtr = (truth.tmax - truth.tmin).astype(np.float64)
        self.t = np.arange(1, self.dates.size + 1, dtype=np.float64)
        self.month = (self.dates.astype("datetime64[M]").astype(int) % 12) + 1
        self.dummies = (self.month[:, None] == np.arange(1, 13)).astype(np.float64)
        self.trend_X = np.column_stack([np.ones(self.t.size), self.t])

    def variable(self, name: str) -> np.ndarray:
        return self.avg if name == "avg" else self.dtr


def table_row(data: StationData, variable: str) -> dict:
    y = data.variable(variable)
    trend = Fit(data.trend_X, y)
    months = [m for m in range(12) if m + 1 != JULY]
    d, t = data.dummies[1:, months], data.t[1:]
    X = np.column_stack([np.ones(t.size), t, y[:-1], d, d * t[:, None]])
    joint = Fit(X, y[1:])
    deviations = y[1:] - y[1:].mean()
    dummies = list(range(3, 14))
    interactions = list(range(14, 25))
    slope_p = trend.wald_p([1])
    rho_p = joint.wald_p([2])
    return {
        "delta_trend": trend.beta[1] * (y.size - 1),
        "delta_trend_star": slope_p < STAR_LEVEL,
        "slope_p": slope_p,
        "p_nt": joint.wald_p([1] + interactions),
        "p_ns": joint.wald_p(dummies + interactions),
        "p_nts": joint.wald_p(interactions),
        "rho": joint.beta[2],
        "rho_star": rho_p < STAR_LEVEL,
        "rho_p": rho_p,
        "r_squared": 1.0 - (joint.residuals @ joint.residuals) / (deviations @ deviations),
        "hac_bandwidth": joint.lag,
    }


def median_row(rows: list[dict]) -> dict:
    row = {key: median(r[key] for r in rows) for key in TABLE_VALUES}
    row.update(delta_trend_star=False, rho_star=False, hac_bandwidth=rows[0]["hac_bandwidth"])
    return row


def table_oracle(corpus: Corpus, codes: list[str], variable: str) -> dict[str, dict]:
    rows = {code: table_row(StationData(corpus.truth(code)), variable) for code in codes}
    rows["Median"] = median_row(list(rows.values()))
    return rows


def _rounded(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _near_boundary(value: float, step: float) -> bool:
    scaled = value / step
    return abs(scaled - math.floor(scaled) - 0.5) * step <= TOL * max(1.0, abs(value))


def check_table(path: Path, oracle: dict[str, dict], reference: list[list[str]] | None) -> set[str]:
    """Station codes (or ``Median``) whose table row is missing or wrong."""
    try:
        return _table_failures(path, oracle, reference)
    except (OSError, KeyError, ValueError):
        return set(oracle)  # missing or malformed table


def _table_failures(path: Path, oracle: dict[str, dict], reference: list[list[str]] | None) -> set[str]:
    columns = read_csv(path)
    got = {code: i for i, code in enumerate(columns["station"])}
    bad = {code for code in oracle if code not in got}
    if not bad and list(columns["station"]) != list(oracle):
        bad = set(oracle)  # rows out of order
    for code, want in oracle.items():
        if code in bad:
            continue
        i = got[code]
        ok = all(close(float(columns[f"{k}_full"][i]), want[k]) for k in TABLE_VALUES)
        ok &= int(columns["hac_bandwidth"][i]) == want["hac_bandwidth"]
        for key in TABLE_VALUES:
            if not _near_boundary(want[key], 0.01):
                ok &= columns[key][i] == _rounded(want[key])
        for star, p in (("delta_trend_star", "slope_p"), ("rho_star", "rho_p")):
            if p not in want or abs(want[p] - STAR_LEVEL) > TOL:
                ok &= columns[star][i] == str(bool(want[star])).lower()
        if not ok:
            bad.add(code)
    if reference is not None:
        rounded = rounded_table(path)
        bad |= {row[0] for row in reference if row not in rounded}
        bad |= {row[0] for row in rounded if row not in reference}
    return bad


ROUNDED_COLUMNS = (
    "station", "delta_trend", "delta_trend_star", "p_nt", "p_ns", "p_nts",
    "rho", "rho_star", "r_squared", "hac_bandwidth",
)


def rounded_table(path: Path) -> list[list[str]]:
    columns = read_csv(path)
    return [list(row) for row in zip(*(columns[name] for name in ROUNDED_COLUMNS))]


def _typed(cells: np.ndarray, like: np.ndarray) -> np.ndarray:
    """CSV cells converted to the dtype of the values they must equal."""
    return cells if like.dtype.kind == "U" else cells.astype(like.dtype)


def series_oracle(truth: StationTruth) -> dict[str, np.ndarray]:
    """The columns a station's series CSV must hold, exactly."""
    dates = window_dates()
    return {
        "date": dates.astype(str),
        "tmax": truth.tmax,
        "tmin": truth.tmin,
        "avg": (truth.tmax + truth.tmin) / 2.0,
        "dtr": (truth.tmax - truth.tmin).astype(np.float64),
        "t": np.arange(1, dates.size + 1),
        "month": dates.astype("datetime64[M]").astype(int) % 12 + 1,
    }


def check_series(path: Path, want: dict[str, np.ndarray]) -> bool:
    """Exact match of a series CSV with ``series_oracle``."""
    try:
        columns = read_csv(path)
        return list(columns) == SERIES_HEADER and all(
            np.array_equal(_typed(columns[name], expected), expected) for name, expected in want.items()
        )
    except (OSError, ValueError):
        return False


def kde(data: np.ndarray, grid_points: int = 512):
    """Silverman-bandwidth Gaussian KDE, summed over distinct values with counts."""
    n = data.size
    q75, q25 = np.percentile(data, [75.0, 25.0])
    h = 0.9 * min(float(np.std(data, ddof=1)), (q75 - q25) / 1.34) * n ** (-0.2)
    grid = np.linspace(data.min() - 3.0 * h, data.max() + 3.0 * h, grid_points)
    values, counts = np.unique(data, return_counts=True)
    z = (grid[:, None] - values[None, :]) / h
    density = np.exp(-0.5 * z * z) @ counts / (n * h * math.sqrt(2.0 * math.pi))
    return grid, density


def figure_oracle(truth: StationTruth) -> dict[str, dict[str, tuple[np.ndarray, bool]]]:
    """Expected figure data of one station: file -> column -> (values, exact).

    Dates and actual values must match exactly, fitted values within ``TOL``.
    """
    data = StationData(truth)
    dates = data.dates.astype(str)
    first, last = int(dates[0][:4]), int(dates[-1][:4])
    files = {}
    for variable in ("avg", "dtr"):
        y = data.variable(variable)
        grid, density = kde(y)
        files[f"density_{variable}.csv"] = {"grid": (grid, False), "density": (density, False)}

        trend = Fit(data.trend_X, y, with_cov=False)
        files[f"trend_{variable}.csv"] = {
            "date": (dates, True), "actual": (y, True), "fitted": (trend.fitted, False),
        }

        detrended = trend.residuals
        fixed = Fit(data.dummies, detrended, with_cov=False)
        files[f"seasonal_fit_{variable}.csv"] = {
            "date": (dates, True), "detrended": (detrended, False), "seasonal_fit": (fixed.fitted, False),
        }
        files[f"fixed_pattern_{variable}.csv"] = {"effect_fixed": (fixed.beta, False)}

        X = np.column_stack([data.dummies, data.dummies * data.t[:, None]])
        evolving = Fit(X, detrended, with_cov=False)
        effects = {}
        for year in (first, last):
            t_july = 1 + np.nonzero(data.dates == np.datetime64(f"{year}-07-01"))[0][0]
            effects[f"effect_{year}"] = (evolving.beta[:12] + evolving.beta[12:] * t_july, False)
        files[f"evolving_pattern_{variable}.csv"] = effects
    return files


def check_figures(directory: Path, want: dict[str, dict[str, tuple[np.ndarray, bool]]]) -> bool:
    """Every figure-data file of one station against ``figure_oracle``."""
    try:
        for name, expected in want.items():
            columns = read_csv(directory / name)
            for column, (values, exact) in expected.items():
                got = _typed(columns[column], values)
                if not (np.array_equal(got, values) if exact else close(got, values)):
                    return False
    except (OSError, KeyError, ValueError):
        return False
    return True
