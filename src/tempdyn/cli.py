"""Command-line front end: one ``argparse`` parser dispatching to the
subcommands ``ingest``, ``tables``, ``figures`` and ``fit``, plain functions."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

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


class _CommandError(Exception):
    """A command cannot go on; :func:`main` prints it as one ``Error:`` line."""


def _configure(
    config_path: Optional[str], endpoint=None, out=None, hac_bandwidth=None, strict_qc=False
) -> RunConfig:
    """The config at ``config_path`` (the packaged one if None), with the flags applied."""
    try:
        config = load_config(config_path)
    except OSError as exc:
        advice = "pass a readable --config file"
        raise _CommandError(f"cannot read config {exc.filename}: {exc.strerror}; {advice}")
    if endpoint:
        config.endpoint = endpoint
    if out:
        config.output_dir = Path(out)
    if hac_bandwidth is not None:
        config.hac_bandwidth = hac_bandwidth
    if strict_qc:
        config.strict_qc = True
    return config


def _make_dir(path: Path, advice: str = "pass another --out") -> Path:
    """``path``, made with its parents where missing. A failure, such as a
    file in the way when ``--out`` names a file, is one error that ends in
    ``advice``."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CommandError(f"cannot make directory {path}: {exc.strerror}; {advice}") from None
    return path


def _series_path(config: RunConfig, code: str) -> Path:
    return config.output_dir / "series" / f"{code}.csv"


def _load_series(config: RunConfig, code: str) -> series_mod.TemperatureSeries:
    """The station's series, read from its sidecar, over the configured
    window: a CSV or sidecar that is missing, damaged, changed since it was
    written or left by a run with another window is refused with the ingest
    that rewrites both."""
    path = _series_path(config, code)
    if not path.exists():
        raise FileNotFoundError(f"no series file {path}; run `tempdyn ingest --station {code}` first")
    rerun = f"rerun `tempdyn ingest --station {code}`"
    try:
        loaded = series_mod.read_series_csv(path)
    except (ValueError, OSError) as exc:
        raise ValueError(f"series {path}: {str(exc).rstrip('.')}; {rerun}") from None
    first, last = loaded.start, loaded.end
    if (first, last) != (config.window_start, config.window_end):
        raise series_mod.ContiguityError(
            f"series {path} covers {first}..{last} but the window is "
            f"{config.window_start}..{config.window_end}; {rerun}"
        )
    return loaded


def _station_series(config: RunConfig, code: str) -> series_mod.TemperatureSeries:
    """:func:`_load_series` of a station, any failure as one error."""
    try:
        return _load_series(config, code)
    except Exception as exc:  # noqa: BLE001
        raise _CommandError(str(exc))


def ingest(config_path, station_codes, endpoint, strict_qc, out, refresh):
    """Fetch, parse, repair, and write per-station daily series CSVs."""
    # only ingest fetches and parses, so the other commands skip this import
    from . import ghcn

    config = _configure(config_path, endpoint, out, strict_qc=strict_qc)
    stations = config.select(station_codes)
    # a mistyped endpoint is named even when every station is cached
    try:
        ghcn.check_endpoint(config.endpoint)
    except ValueError as exc:
        raise _CommandError(f"cannot download from {config.endpoint}: {exc}") from None

    _make_dir(config.cache_dir, "set another cache_dir or TEMPDYN_CACHE_DIR")
    _make_dir(config.output_dir / "series")

    def ingest_one(station: Station, fetch) -> dict:
        # a fetch that fails found no cache file to fall back on, unless it
        # is a cache file that does not parse
        entry = {"station": station.code, "ghcn_id": station.ghcn_id, "source": "network"}
        try:
            try:
                fetched = fetch()
            except ghcn.DlyParseError:
                entry.update(source="cache")
                raise
            entry.update(source=fetched.source, fetched_at=fetched.fetched_at.isoformat())
            if fetched.refresh_error is not None:
                entry.update(refresh_error=fetched.refresh_error)
                print(
                    f"{station.code}: refresh failed ({fetched.refresh_error}); using the cache",
                    file=sys.stderr,
                )
            if fetched.cache_replaced is not None:
                print(f"{station.code}: {fetched.cache_replaced}", file=sys.stderr)
            try:
                tmax, tmin, notes = ghcn.station_observations(
                    fetched.records, config.window_start, config.window_end, config.strict_qc
                )
            except ghcn.BoundaryGapError as exc:
                if fetched.source != "cache":
                    raise
                # a cache file cut at a line boundary parses but lacks the last day
                raise ghcn.BoundaryGapError(
                    f"cached file {fetched.cache_path}: {exc}; "
                    "if it was cut short, delete it or rerun with --refresh"
                ) from None
            # the records (on LF files a view of the payload) are done with;
            # freed here, their memory serves the series writes (peak RSS
            # about 0.3 MiB lower)
            del fetched
            built = series_mod.build_series(tmax, tmin, config.window_start, config.window_end)
            digest = series_mod.write_series_csv(built, _series_path(config, station.code))
            entry.update(
                status="ok",
                rows=len(built),
                series_csv=str(_series_path(config, station.code)),
                series_sha256=digest,
                **vars(notes),
            )
        except Exception as exc:  # noqa: BLE001 - reported in the manifest
            entry.update(status="error", error=f"{type(exc).__name__}: {exc}")
            print(f"{station.code}: FAILED ({entry['error']})", file=sys.stderr)
        else:
            print(f"{station.code}: {entry['rows']} rows")
        return entry

    # Each station's fetch is called in config order just before its repair:
    # a cache hit is read and parsed then, a download waits for its thread.
    # No name keeps a payload while the next one is read, which keeps the
    # peak RSS about 2 MiB lower.
    fetches = ghcn.fetch_stations(
        [station.ghcn_id for station in stations], config.endpoint, config.cache_dir, refresh
    )
    entries = [ingest_one(station, next(fetches)) for station in stations]
    # written after the report, so a manifest that cannot be written loses no line of it
    with series_mod.staged(config.output_dir) as write:
        write("manifest.json", reporting.manifest_json(entries))
    if any(entry["status"] != "ok" for entry in entries):
        sys.exit(1)


def tables(config_path, station_codes, variable, hac_bandwidth, out):
    """Per-station summary tables (trend movement, Wald p-values, rho, R2)."""
    from . import models

    config = _configure(config_path, out=out, hac_bandwidth=hac_bandwidth)
    stations = config.select(station_codes)
    # the window's designs are factored once, for both variables
    factors = models.WindowFactors(config.window_start, config.window_end).build(
        "joint", "trend", bandwidth=config.hac_bandwidth
    )
    variables = ("avg", "dtr") if variable == "both" else (variable,)
    tables_dir = _make_dir(config.output_dir / "tables")

    def series_or_error(code: str):
        try:
            return _load_series(config, code)
        except Exception as exc:  # noqa: BLE001 - the station's FAILED lines name it
            return exc

    # each series is read when batch_report draws its station, and dropped
    # after its fits, so one series is held at a time
    reports = models.batch_report(
        ((station.code, series_or_error(station.code)) for station in stations),
        variables, config.hac_bandwidth, factors,
    )
    with series_mod.staged(tables_dir) as write:
        for var, report in zip(variables, reports):
            write(f"table_{var}.csv", reporting.table_csv(report))
            write(f"table_{var}.txt", reporting.table_text(report))
    # reported once every table is published, so a write that fails reports none
    for var, report in zip(variables, reports):
        print(f"wrote {tables_dir / f'table_{var}.csv'}")
        for code, diagnostic in report.failures:
            print(f"{var} {code}: FAILED ({diagnostic})", file=sys.stderr)
    if any(report.failures for report in reports):
        sys.exit(1)


def figures(config_path, station_code, out):
    """Figure-data bundle for one station: densities, trends, seasonals."""
    from . import density, models
    from .regression import ols_fit

    config = _configure(config_path, out=out)
    config.station(station_code)  # a mistyped code is named before any work
    # no HAC fit here, so a lag set in the config is not checked
    factors = models.WindowFactors(config.window_start, config.window_end).build(
        "trend", "fixed", "evolving"
    )
    # the evolving pattern is evaluated at the t of each July 1
    pattern_days = models.pattern_days(config.window_start, config.window_end)
    figures_dir = _make_dir(config.output_dir / "figures" / station_code)
    station_series = _station_series(config, station_code)

    # Only coefficients, residuals and fitted values are written, so the
    # models are fitted by plain OLS, without HAC covariances. The ten files
    # land together: a failure leaves the station's files as they were.
    with series_mod.staged(figures_dir) as write:
        for var in series_mod.VARIABLES:
            y = station_series.variable(var)
            try:
                write(f"density_{var}.csv", reporting.density_csv(density.kde(y)))
            except density.DegenerateBandwidthError as exc:
                raise _CommandError(f"{station_code} {var}: {exc}")
            trend = ols_fit(*factors.least_squares("trend", y))
            write(f"trend_{var}.csv", reporting.trend_csv(factors.start, y, trend))
            # each fit, and the detrended series, is dropped once the last
            # file it feeds is written, so the next fit reuses its memory
            # (the benchmark's peak RSS about 0.5 MiB lower)
            del trend
            fixed_qr, detrended = factors.least_squares("fixed", y)
            fixed = ols_fit(fixed_qr, detrended)
            beta, effects = fixed.beta, models.month_effects(fixed)
            del fixed
            write(f"seasonal_fit_{var}.csv", reporting.seasonal_fit_csv(
                factors.start, detrended, beta[factors.month_index]
            ))
            del detrended
            write(f"fixed_pattern_{var}.csv", reporting.patterns_csv({"fixed": effects}))
            evolving = ols_fit(*factors.least_squares("evolving", y))
            write(f"evolving_pattern_{var}.csv", reporting.patterns_csv(
                {year: models.month_effects(evolving, t) for year, t in pattern_days.items()}
            ))
            del evolving
    print(f"wrote figure data under {figures_dir}")


def fit(config_path, station_code, variable, model, hac_bandwidth, out):
    """Fit a single specification and print its coefficient table."""
    from . import models
    from .regression import (
        InsufficientDataError, SingularDesignError, WaldDegeneracyError, fit_with_hac, wald_test,
    )

    config = _configure(config_path, out=out, hac_bandwidth=hac_bandwidth)
    config.station(station_code)  # a mistyped code is named before any work
    name = {"seasonal": "fixed"}.get(model, model)
    try:
        factors = models.WindowFactors(config.window_start, config.window_end).build(
            name, bandwidth=config.hac_bandwidth
        )
        y = _station_series(config, station_code).variable(variable)
        result = fit_with_hac(*factors.least_squares(name, y), config.hac_bandwidth)
        # every line is made before the first is printed, so a failed test
        # prints no part of the table
        lines = _fit_lines(result)
        if model == "trend":
            lines.append(f"delta_trend: {models.delta_trend(result):.4f} F over the sample")
        elif model == "joint":
            lines.append("  ".join(
                f"p({label})={wald_test(result, labels):.4f}"
                for label, labels in models.HYPOTHESES.items()
            ))
        print("\n".join(lines))
    except (InsufficientDataError, SingularDesignError, WaldDegeneracyError) as exc:
        raise _CommandError(f"{station_code} {variable} {model}: {exc}")


DAYS_PER_DECADE = 3652.5


def _fit_lines(fit_result) -> list[str]:
    # slopes on daily time are tiny; show a per-decade rescaling alongside
    lines = [f"{'name':<8}{'coef':>16}{'hac_se':>14}{'p':>10}{'per_decade':>14}"]
    for name in fit_result.names:
        per_decade = ""
        if name == "time" or name.startswith("dt"):
            per_decade = f"{fit_result.coef(name) * DAYS_PER_DECADE:>14.4g}"
        lines.append(
            f"{name:<8}{fit_result.coef(name):>16.6g}"
            f"{fit_result.se(name):>14.4g}{fit_result.coef_p(name):>10.4f}{per_decade}"
        )
    lines.append(f"nobs={fit_result.nobs}  R2={fit_result.r_squared:.4f}  "
                 f"bandwidth={fit_result.bandwidth}")
    return lines


def _existing_path(value: str) -> str:
    if not os.path.exists(value):
        raise argparse.ArgumentTypeError(f"path {value!r} does not exist")
    return value


def _bandwidth(value: str):
    try:
        return parse_bandwidth(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parser() -> argparse.ArgumentParser:
    # each docstring's first line is the help text (docstrings are None under -OO)
    description = (main.__doc__ or "").partition("\n")[0]
    parser = argparse.ArgumentParser(prog="tempdyn", description=description)
    subparsers = parser.add_subparsers(required=True, metavar="COMMAND")
    sub = {}
    for function in (ingest, tables, figures, fit):
        summary = (function.__doc__ or "").partition("\n")[0]
        sub[function] = subparsers.add_parser(function.__name__, help=summary, description=summary)
        sub[function].set_defaults(command=function)
        sub[function].add_argument("--config", dest="config_path", metavar="PATH",
                                   type=_existing_path)
    for function in (ingest, tables):
        sub[function].add_argument("--station", dest="station_codes", action="append",
                                   metavar="CODE", help="Airport code; repeatable.")
    for function in (figures, fit):
        sub[function].add_argument("--station", dest="station_code", required=True, metavar="CODE")
    for function in (ingest, tables, figures, fit):
        sub[function].add_argument("--out", help="Output directory override.")
    for function in (tables, fit):
        sub[function].add_argument("--hac-bandwidth", type=_bandwidth,
                                   help="'auto' or a nonnegative integer.")
    sub[ingest].add_argument("--endpoint", help="Archive base URL override.")
    sub[ingest].add_argument("--strict-qc", action="store_true",
                             help="Treat qflag-failing values as missing.")
    sub[ingest].add_argument("--refresh", action="store_true",
                             help="Re-download even on cache hit.")
    sub[tables].add_argument("--variable", default="both", choices=["avg", "dtr", "both"])
    sub[fit].add_argument("--variable", default="avg", choices=["avg", "dtr"])
    sub[fit].add_argument("--model", default="joint",
                          choices=["trend", "seasonal", "evolving", "joint"])
    return parser


def main(argv: Optional[list[str]] = None, standalone_mode: bool = True) -> None:
    """Daily temperature trend/seasonality analysis for GHCN stations.

    Exits with status 2 on a usage error, and with 1 after one ``Error:``
    line, or a ``FAILED`` line per failed station, on stderr."""
    # standalone_mode changes nothing: it is click's keyword, which the
    # benchmark's in-process runner (`bench/layers.py run`) still passes,
    # and ROADMAP's next benchmark change deletes it with that runner
    try:
        arguments = vars(_parser().parse_args(argv))
        arguments.pop("command")(**arguments)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`tempdyn fit ... | head`): stop quietly,
        # with stdout on devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    # an OSError is an output that cannot be written, named by
    # series.staged; BrokenPipeError is one, so it is caught first
    except (_CommandError, ConfigError, OSError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
