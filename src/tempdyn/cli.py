"""Command-line front end.

Subcommands: ``ingest`` (fetch/parse/repair and write per-station series),
``tables`` (summary tables per variable), ``figures`` (figure-data bundle
for one station), ``fit`` (single-model debug printout).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Optional

import click

# numpy's bundled OpenBLAS starts one thread per core, and after each of the
# pipeline's small solves its idle helpers spin: one thread does the same
# work on less CPU, and the results no longer depend on the core count. A
# count chosen through any variable the library reads is kept, because
# OPENBLAS_NUM_THREADS=1 would override the user's OMP_NUM_THREADS. This
# must run before the package's modules first import numpy.
_BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
)
if not any(os.environ.get(name) for name in _BLAS_THREAD_VARIABLES):
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

# the fitting modules are imported by the commands that fit, so ingest
# loads only what it runs
from . import reporting, series as series_mod  # noqa: E402
from .stations import (  # noqa: E402
    ConfigError, RunConfig, Station, load_config, parse_bandwidth,
)

VARIABLE_CHOICES = click.Choice(["avg", "dtr", "both"])


def _load(config_path: Optional[str]) -> RunConfig:
    try:
        return load_config(config_path)
    except (ConfigError, OSError) as exc:
        raise click.ClickException(str(exc))


def _apply_overrides(config: RunConfig, endpoint, out, hac_bandwidth, strict_qc):
    if endpoint:
        config.endpoint = endpoint
    if out:
        config.output_dir = Path(out)
    if hac_bandwidth is not None:
        config.hac_bandwidth = hac_bandwidth
    if strict_qc:
        config.strict_qc = True


def _parse_bandwidth_flag(ctx, param, value):
    if value is None:
        return None
    try:
        return parse_bandwidth(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


_hac_bandwidth_option = click.option(
    "--hac-bandwidth",
    callback=_parse_bandwidth_flag,
    help="'auto' or a nonnegative integer.",
)


def _select(config: RunConfig, station_codes) -> list[Station]:
    try:
        return config.select(list(station_codes) or None)
    except ConfigError as exc:
        raise click.ClickException(str(exc))


def _check_lag(bandwidth, loaded) -> None:
    """Reject a fixed HAC lag that the shortest loaded series cannot carry.

    The joint model loses its first day to the lagged regressor, so its
    nobs (series length - 1) is the smallest of the four fits.
    """
    lengths = [(len(s), code) for code, s in loaded if not isinstance(s, Exception)]
    if bandwidth == "auto" or not lengths:
        return
    length, code = min(lengths)
    if bandwidth >= length - 1:
        raise click.ClickException(
            f"HAC bandwidth {bandwidth} must be below the joint model's nobs "
            f"{length - 1} ({code}, the shortest series)"
        )


def _series_path(config: RunConfig, code: str) -> Path:
    return config.output_dir / "series" / f"{code}.csv"


def _load_series(config: RunConfig, code: str) -> series_mod.TemperatureSeries:
    """The station's series file, which must cover the configured window: a
    file cut short or left by a run with another window is refused."""
    path = _series_path(config, code)
    if not path.exists():
        raise FileNotFoundError(
            f"no series file {path}; run `tempdyn ingest` for {code} first"
        )
    loaded = series_mod.read_series_csv(path)
    first, last = loaded.dates[0], loaded.dates[-1]
    if (first, last) != (config.window_start, config.window_end):
        raise series_mod.ContiguityError(
            f"series {path} covers {first}..{last} but the window is "
            f"{config.window_start}..{config.window_end}; "
            f"rerun `tempdyn ingest --station {code}`"
        )
    return loaded


@click.group()
def main():
    """Daily temperature trend/seasonality analysis for GHCN stations."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--station", "station_codes", multiple=True, help="Airport code; repeatable.")
@click.option("--endpoint", default=None, help="Archive base URL override.")
@click.option("--strict-qc", is_flag=True, help="Treat qflag-failing values as missing.")
@click.option("--out", default=None, help="Output directory override.")
@click.option("--refresh", is_flag=True, help="Re-download even on cache hit.")
def ingest(config_path, station_codes, endpoint, strict_qc, out, refresh):
    """Fetch, parse, repair, and write per-station daily series CSVs."""
    # only ingest fetches and parses, so the other commands skip these imports
    from concurrent.futures import ThreadPoolExecutor

    from . import ghcn

    config = _load(config_path)
    _apply_overrides(config, endpoint, out, None, strict_qc)
    stations = _select(config, station_codes)

    series_dir = config.output_dir / "series"
    series_dir.mkdir(parents=True, exist_ok=True)

    def fetch(station: Station) -> object:
        """The fetched payload, or the fetch's exception."""
        try:
            return ghcn.fetch_station(
                station.ghcn_id, config.endpoint, config.cache_dir, refresh=refresh
            )
        except Exception as exc:  # noqa: BLE001 - reported in the manifest
            return exc

    def ingest_one(station: Station, fetched: object) -> dict:
        # a failed fetch found no cache file to fall back on
        entry = {"station": station.code, "ghcn_id": station.ghcn_id, "source": "network"}
        try:
            if isinstance(fetched, Exception):
                raise fetched
            entry.update(source=fetched.source, fetched_at=fetched.fetched_at.isoformat())
            try:
                records = ghcn.parse_station(fetched.data, station.ghcn_id)
            except ghcn.DlyParseError as exc:
                # downloads are checked before they are cached, so the cache file is bad
                raise ghcn.DlyParseError(
                    f"cached file {fetched.cache_path}: {exc}; "
                    "delete it or rerun with --refresh"
                ) from None
            tmax, tmin, notes = ghcn.station_observations(
                records, config.window_start, config.window_end, config.strict_qc
            )
            built = series_mod.build_series(
                tmax, tmin, config.window_start, config.window_end
            )
            digest = series_mod.write_series_csv(built, _series_path(config, station.code))
            entry.update(
                status="ok",
                rows=len(built),
                series_csv=str(_series_path(config, station.code)),
                series_sha256=digest,
                interpolated={
                    element: [d.isoformat() for d in dates]
                    for element, dates in notes.interpolated.items()
                },
                inversions_repaired=[d.isoformat() for d in notes.inversions_repaired],
                qc_suppressed={
                    element: [d.isoformat() for d in dates]
                    for element, dates in notes.qc_suppressed.items()
                },
            )
        except Exception as exc:  # noqa: BLE001 - reported in the manifest
            entry.update(status="error", error=f"{type(exc).__name__}: {exc}")
        return entry

    # Downloads wait on the network, so up to four overlap; parsing holds the
    # GIL, so each payload is parsed in config order as it arrives.
    with ThreadPoolExecutor(max_workers=4) as pool:
        entries = [
            ingest_one(station, fetched)
            for station, fetched in zip(stations, pool.map(fetch, stations))
        ]

    reporting.write_manifest(entries, config.output_dir / "manifest.json")
    failed = [e for e in entries if e["status"] != "ok"]
    for entry in entries:
        if entry["status"] == "ok":
            click.echo(f"{entry['station']}: {entry['rows']} rows")
        else:
            click.echo(f"{entry['station']}: FAILED ({entry['error']})", err=True)
    if failed:
        sys.exit(1)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--station", "station_codes", multiple=True)
@click.option("--variable", default="both", type=VARIABLE_CHOICES)
@_hac_bandwidth_option
@click.option("--out", default=None)
def tables(config_path, station_codes, variable, hac_bandwidth, out):
    """Per-station summary tables (trend movement, Wald p-values, rho, R2)."""
    from . import models

    config = _load(config_path)
    _apply_overrides(config, None, out, hac_bandwidth, False)
    stations = _select(config, station_codes)
    variables = ["avg", "dtr"] if variable == "both" else [variable]

    loaded = []
    for station in stations:
        try:
            loaded.append((station.code, _load_series(config, station.code)))
        except Exception as exc:  # noqa: BLE001
            loaded.append((station.code, exc))
    _check_lag(config.hac_bandwidth, loaded)

    tables_dir = config.output_dir / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    any_failure = False
    # each window's designs are factored once, for both variables
    factors = {}
    for var in variables:
        report = models.batch_report(loaded, var, config.hac_bandwidth, factors)
        reporting.write_table_csv(report, tables_dir / f"table_{var}.csv")
        reporting.write_table_text(report, tables_dir / f"table_{var}.txt")
        click.echo(f"wrote {tables_dir / f'table_{var}.csv'}")
        for code, diagnostic in report.failures:
            any_failure = True
            click.echo(f"{var} {code}: FAILED ({diagnostic})", err=True)
    if any_failure:
        sys.exit(1)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--station", "station_code", required=True)
@click.option("--out", default=None)
def figures(config_path, station_code, out):
    """Figure-data bundle for one station: densities, trends, seasonals."""
    from . import density, models
    from .regression import ols_fit

    config = _load(config_path)
    _apply_overrides(config, None, out, None, False)
    try:
        config.station(station_code)  # validate the code before any work
        station_series = _load_series(config, station_code)
    except Exception as exc:  # noqa: BLE001
        raise click.ClickException(str(exc))

    figures_dir = config.output_dir / "figures" / station_code
    figures_dir.mkdir(parents=True, exist_ok=True)

    # Only coefficients, residuals and fitted values are written, so the
    # models are fitted by plain OLS, without HAC covariances. avg and dtr
    # share the window's factors. Every step that can fail comes before the
    # first write, so a failure leaves the station's files as they were: the
    # designs are factored, the pattern years found (a singular design or a
    # window with no July 1 is reported with avg, the variable fitted first),
    # and both densities estimated.
    factors = models.WindowFactors(station_series)
    try:
        trend_qr, fixed_qr, evolving_qr = factors.trend, factors.fixed, factors.evolving
        years = models.pattern_years(station_series)
    except ValueError as exc:  # a singular design, or a window with no July 1
        raise click.ClickException(f"{station_code} avg: {exc}")
    densities = {}
    for var in ("avg", "dtr"):
        try:
            densities[var] = density.kde(station_series.variable(var))
        except density.DegenerateBandwidthError:
            # figures has no bandwidth option, so the library's advice to
            # pass one is left out
            raise click.ClickException(
                f"{station_code} {var}: automatic bandwidth is zero (data has no spread)"
            )

    month = station_series.month
    for var, estimate in densities.items():
        y = station_series.variable(var)
        reporting.write_density_csv(estimate, figures_dir / f"density_{var}.csv")
        trend = ols_fit(trend_qr, y)
        reporting.write_trend_csv(
            station_series, var, trend, figures_dir / f"trend_{var}.csv"
        )
        detrended = trend.residuals
        fixed = models.FixedSeasonalFit(ols_fit(fixed_qr, detrended))
        reporting.write_seasonal_fit_csv(
            station_series, detrended, fixed.fit.beta[month - 1],
            figures_dir / f"seasonal_fit_{var}.csv",
        )
        reporting.write_patterns_csv(
            [fixed.pattern], figures_dir / f"fixed_pattern_{var}.csv"
        )
        evolving = models.EvolvingSeasonalFit(ols_fit(evolving_qr, detrended))
        reporting.write_patterns_csv(
            [evolving.pattern_for_year(station_series, year) for year in years],
            figures_dir / f"evolving_pattern_{var}.csv",
        )
    click.echo(f"wrote figure data under {figures_dir}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--station", "station_code", required=True)
@click.option("--variable", default="avg", type=click.Choice(["avg", "dtr"]))
@click.option(
    "--model",
    default="joint",
    type=click.Choice(["trend", "seasonal", "evolving", "joint"]),
)
@_hac_bandwidth_option
def fit(config_path, station_code, variable, model, hac_bandwidth):
    """Fit a single specification and print its coefficient table."""
    from .regression import BandwidthError, SingularDesignError

    config = _load(config_path)
    _apply_overrides(config, None, None, hac_bandwidth, False)
    try:
        config.station(station_code)
        station_series = _load_series(config, station_code)
    except Exception as exc:  # noqa: BLE001
        raise click.ClickException(str(exc))

    try:
        _fit_and_print(station_series, variable, model, config.hac_bandwidth)
    except (BandwidthError, SingularDesignError) as exc:
        raise click.ClickException(f"{station_code} {variable} {model}: {exc}")


def _fit_and_print(station_series, variable: str, model: str, bandwidth) -> None:
    from . import models

    fit_model = {
        "trend": models.fit_trend,
        "seasonal": models.fit_fixed_seasonal,
        "evolving": models.fit_evolving_seasonal,
        "joint": models.fit_joint,
    }[model]
    result = fit_model(station_series, variable, bandwidth)
    _print_fit(result.fit)
    if model == "trend":
        click.echo(f"delta_trend: {result.delta_trend:.4f} F over the sample")
    elif model == "joint":
        suite = models.hypothesis_suite(result)
        click.echo(
            f"p(nt)={suite.p_nt:.4f}  p(ns)={suite.p_ns:.4f}  p(nts)={suite.p_nts:.4f}"
        )


DAYS_PER_DECADE = 3652.5


def _print_fit(fit_result) -> None:
    # slopes on daily time are tiny; show a per-decade rescaling alongside
    click.echo(f"{'name':<8}{'coef':>16}{'hac_se':>14}{'p':>10}{'per_decade':>14}")
    for name in fit_result.names:
        per_decade = ""
        if name == "time" or name.startswith("dt"):
            per_decade = f"{fit_result.coef(name) * DAYS_PER_DECADE:>14.4g}"
        click.echo(
            f"{name:<8}{fit_result.coef(name):>16.6g}"
            f"{fit_result.se(name):>14.4g}{fit_result.coef_p(name):>10.4f}{per_decade}"
        )
    click.echo(
        f"nobs={fit_result.nobs}  R2={fit_result.r_squared:.4f}  "
        f"bandwidth={fit_result.bandwidth}"
    )


if __name__ == "__main__":
    main()
