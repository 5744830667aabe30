"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and
patches each wrapper into every ``tempdyn`` module namespace that binds the
original (``models`` imports ``fit_with_hac`` and ``wald_test`` by name, so
patching only ``regression`` would miss those calls without any error).
``scipy.linalg.qr`` is wrapped the same way to count factorisations.

Each thread keeps its own span stack: ``ingest`` and ``batch_report`` run on
``ThreadPoolExecutor`` workers, which do not inherit the caller's context,
so a span opened with an empty stack is attributed to the enclosing command
span. A function missing from the package is reported as absent and its
metrics read zero.

Run as a script it is the traced process of ``run.py --trace 1``:
``layers.py run SPEC_JSON`` runs a workload's commands in this one process,
traced or untraced as the spec says, and ``layers.py serial SERIES_DIR
CODE...`` times ``models.batch_report`` on one worker (BLAS pinned by the
caller's environment). Each prints one JSON line.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np
import scipy.linalg


def _path_bytes(args, kwargs, result) -> int:
    return os.path.getsize(kwargs.get("path", args[-1]))


# (module, function, extra counter name, counter) for every wrapped function
TARGETS = (
    ("stations", "load_config", None, None),
    ("ghcn", "fetch_station", "bytes", lambda a, k, r: len(r)),
    ("ghcn", "parse_dly", "lines", lambda a, k, r: len(r)),
    ("ghcn", "station_observations", None, None),
    ("ghcn", "interpolate_missing", None, None),
    ("series", "build_series", None, None),
    ("series", "write_series_csv", "bytes", _path_bytes),
    ("series", "read_series_csv", None, None),
    ("regression", "ols_fit", None, None),
    ("regression", "hac_cov", None, None),
    ("regression", "fit_with_hac", None, None),
    ("regression", "wald_test", None, None),
    ("models", "fit_trend", None, None),
    ("models", "fit_joint", None, None),
    ("models", "fit_fixed_seasonal", None, None),
    ("models", "fit_evolving_seasonal", None, None),
    ("models", "hypothesis_suite", None, None),
    ("models", "city_report", None, None),
    ("models", "batch_report", None, None),
    ("density", "kde", "points", lambda a, k, r: int(np.size(k.get("data", a[0] if a else ())))),
    ("reporting", "write_table_csv", "bytes", _path_bytes),
    ("reporting", "write_table_text", "bytes", _path_bytes),
    ("reporting", "write_density_csv", "bytes", _path_bytes),
    ("reporting", "write_trend_csv", "bytes", _path_bytes),
    ("reporting", "write_seasonal_fit_csv", "bytes", _path_bytes),
    ("reporting", "write_patterns_csv", "bytes", _path_bytes),
)
COMMAND = "cli.command"
QR = "regression.qr"
# configuration parsing is negligible: calls and time only
TIME_ONLY = {"stations.load_config"}
SPAN_FIELDS = ("calls", "wall_s", "self_s", "cpu_s")

# metric -> (end-to-end metric, workload) it should move
MOVES = {
    "cli.import_s": "wall_s on every workload, most on figures-5x58y",
    "ghcn.fetch_station.bytes": "wall_s on ingest-15x58y",
    "ghcn.parse_dly.lines": "wall_s on ingest-15x58y",
    "ghcn.station_observations.self_s": "wall_s on ingest-15x58y",
    "series.build_series.self_s": "wall_s on ingest-15x58y",
    "series.write_series_csv.bytes": "wall_s on ingest-15x58y",
    "series.read_series_csv.self_s": "wall_s on tables-15x58y",
    "series.reads_per_station": "wall_s on tables-15x58y",
    "regression.*": "wall_s and cpu_s on tables-15x58y, wall_s on figures-5x58y",
    "models.*": "wall_s and cpu_s on tables-15x58y",
    "models.batch_report.serial_s": "cpu_s on tables-15x58y",
    "density.kde.points": "wall_s on figures-5x58y",
    "reporting.write_table_*.bytes": "wall_s on tables-15x58y",
    "reporting.write_*.bytes": "wall_s on figures-5x58y",
    "trace.overhead_s": "none; tracing cost per workload",
}


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = ["cli.import_s"] + [f"{COMMAND}.{f}" for f in SPAN_FIELDS]
    for module, function, extra, _ in TARGETS:
        name = f"{module}.{function}"
        fields = SPAN_FIELDS[:2] if name in TIME_ONLY else SPAN_FIELDS
        names += [f"{name}.{f}" for f in fields]
        if extra:
            names.append(f"{name}.{extra}")
        if name == "series.read_series_csv":
            names.append("series.reads_per_station")
        if name == "regression.wald_test":
            names += [f"{QR}.calls", f"{QR}.wall_s"]
    names += [
        "models.city_report.wait_s",
        "models.city_report.wall_s.p50",
        "models.city_report.wall_s.max",
        "models.batch_report.overlap",
        "models.batch_report.serial_s",
        "trace.overhead_s",
    ]
    return names


UNITS = {"calls": "count", "lines": "count", "points": "count", "bytes": "B",
         "reads_per_station": "ratio", "overlap": "ratio"}


def unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "s")


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu: float


class Tracer:
    """Spans and counters of the wrapped functions, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.read_paths: list[str] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._command: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, command: bool = False):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._command
        if command:
            self._command = span_id
        stack.append(span_id)
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            cpu, end = time.thread_time() - cpu, time.perf_counter()
            stack.pop()
            if command:
                self._command = None
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end, cpu))

    def _wrap(self, name, function, extra, counter):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if counter is not None:
                key = f"{name}.{extra}"
                try:
                    value = counter(args, kwargs, result)
                except (TypeError, IndexError, KeyError, OSError):
                    self.absent.append(key)  # the signature changed; count nothing
                else:
                    with self._lock:
                        self.counters[key] += value
            if name == "series.read_series_csv" and (args or "path" in kwargs):
                self.read_paths.append(os.fspath(kwargs.get("path") or args[0]))
            return result

        return traced

    def _patch(self, original, wrapper, holders) -> None:
        for holder in holders:
            for attribute, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attribute, original))
                    setattr(holder, attribute, wrapper)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "tempdyn" or n.startswith("tempdyn.")]
        for module_name, function, extra, counter in TARGETS:
            name = f"{module_name}.{function}"
            try:
                original = getattr(importlib.import_module(f"tempdyn.{module_name}"), function)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._patch(original, self._wrap(name, original, extra, counter), modules)
        original = scipy.linalg.qr
        self._patch(original, self._wrap(QR, original, None, None), modules + [scipy.linalg])

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._patches):
            setattr(holder, attribute, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer values of one traced workload (``cli.import_s``,
        ``serial_s`` and ``trace.overhead_s`` are measured by the caller)."""
        children = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        values = dict.fromkeys(metric_names(), 0.0)
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children[span.id], key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            wall = span.end - span.start
            for field, value in (("calls", 1), ("wall_s", wall), ("self_s", wall - covered), ("cpu_s", span.cpu)):
                key = f"{span.name}.{field}"
                if key in values:
                    values[key] += value
        values.update({k: v for k, v in self.counters.items() if k in values})
        if self.read_paths:
            values["series.reads_per_station"] = len(self.read_paths) / len(set(self.read_paths))

        batches = [s for s in self.spans if s.name == "models.batch_report"]
        cities = [s for s in self.spans if s.name == "models.city_report"]
        if cities:
            durations = [s.end - s.start for s in cities]
            waits = [
                s.start - max((b.start for b in batches if b.start <= s.start), default=s.start)
                for s in cities
            ]
            values["models.city_report.wait_s"] = median(waits)
            values["models.city_report.wall_s.p50"] = median(durations)
            values["models.city_report.wall_s.max"] = max(durations)
        if batches:
            batch_wall = sum(b.end - b.start for b in batches)
            values["models.batch_report.overlap"] = sum(s.end - s.start for s in cities) / batch_wall
        return values


def run_command(tempdyn_cli, args: list[str], out: str) -> dict:
    """One CLI command in this process, with its output captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    returncode = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            tempdyn_cli.main([*args, "--out", out], standalone_mode=False)
        except SystemExit as exc:
            returncode = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a failing command is counted, not fatal
            traceback.print_exc()
            returncode = 1
    return {"wall": time.perf_counter() - start, "returncode": returncode, "stderr": stderr.getvalue()}


def _run(spec: dict) -> None:
    """The workload's commands in this process, traced or not."""
    import tempdyn.cli as tempdyn_cli

    tracer = Tracer()
    if spec["traced"]:
        tracer.install()
    try:
        commands = []
        for args in spec["commands"]:
            with tracer.span(COMMAND, command=True):
                commands.append(run_command(tempdyn_cli, args, spec["out"]))
    finally:
        tracer.uninstall()
    print(json.dumps({"commands": commands, "metrics": tracer.metrics(), "absent": tracer.absent}))


def _serial(series_dir: str, codes: list[str]) -> None:
    """Both variables' ``batch_report`` on one worker (BLAS pinned by the caller)."""
    import inspect

    from tempdyn import models, series

    loaded = [(code, series.read_series_csv(Path(series_dir) / f"{code}.csv")) for code in codes]
    tracer = Tracer()
    tracer.install()
    takes_workers = "max_workers" in inspect.signature(models.batch_report).parameters
    options = {"max_workers": 1} if takes_workers else {}
    try:
        for variable in ("avg", "dtr"):
            report = models.batch_report(loaded, variable, "auto", **options)
            if report.failures:
                raise SystemExit(f"serial batch_report failed: {report.failures}")
    finally:
        tracer.uninstall()
    print(json.dumps({"serial_s": tracer.metrics()["models.batch_report.wall_s"]}))


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        _run(json.loads(sys.argv[2]))
    elif len(sys.argv) >= 4 and sys.argv[1] == "serial":
        _serial(sys.argv[2], sys.argv[3:])
    else:
        raise SystemExit("usage: layers.py run SPEC_JSON | layers.py serial SERIES_DIR CODE...")
