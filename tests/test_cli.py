import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import tempdyn
from tempdyn import ghcn, models, regression, reporting, series as series_mod
from tempdyn.cli import main

from conftest import make_dly_line, synthetic_station_bytes

WINDOW_START = date(1960, 1, 1)
WINDOW_END = date(1961, 12, 31)


@pytest.fixture
def workspace(tmp_path) -> Path:
    """Config + warm cache for two stations; endpoint is unreachable."""
    cache = tmp_path / "cache"
    cache.mkdir()
    for ghcn_id in ("USW00099901", "USW00099902"):
        (cache / f"{ghcn_id}.dly").write_bytes(
            synthetic_station_bytes(ghcn_id, WINDOW_START, WINDOW_END)
        )
    config = tmp_path / "run.cfg"
    config.write_text(
        f"""
window_start = {WINDOW_START.isoformat()}
window_end = {WINDOW_END.isoformat()}
output_dir = {tmp_path / 'out'}
cache_dir = {cache}
endpoint = http://127.0.0.1:1

[stations]
AAA USW00099901 Alpha-City
BBB USW00099902 Beta-City
!XXX USW00099903 Excluded-City
"""
    )
    return tmp_path


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run(args) -> Result:
    """``main(args)`` in this process, its printout captured and its exit
    status taken from the ``SystemExit`` it raises, 0 if none."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(args)
        except SystemExit as exc:
            exit_code = exc.code or 0
    return Result(exit_code, stdout.getvalue(), stderr.getvalue())


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_series(workspace: Path, code: str, tmax, tmin, start: date, end: date) -> None:
    """Replace (or add) a station's series CSV, as ingest would write it."""
    built = series_mod.build_series(tmax, tmin, start, end)
    series_mod.write_series_csv(built, workspace / "out" / "series" / f"{code}.csv")


def read_series(workspace: Path, code: str) -> series_mod.TemperatureSeries:
    return series_mod.read_series_csv(workspace / "out" / "series" / f"{code}.csv")


def narrow_window(workspace: Path, start: date, end: date) -> series_mod.TemperatureSeries:
    """Cut AAA's ingested series to [start, end] and configure that window."""
    aaa = read_series(workspace, "AAA")
    keep = slice((start - aaa.start).days, (end - aaa.start).days + 1)
    write_series(workspace, "AAA", aaa.max_f[keep], aaa.min_f[keep], start, end)
    config = workspace / "run.cfg"
    config.write_text(
        config.read_text()
        .replace(f"window_start = {WINDOW_START}", f"window_start = {start}")
        .replace(f"window_end = {WINDOW_END}", f"window_end = {end}")
    )
    return read_series(workspace, "AAA")


class TestIngest:
    def test_ingest_writes_series_and_manifest(self, workspace):
        result = run(["ingest", "--config", str(workspace / "run.cfg")])
        assert result.exit_code == 0, result.output
        expected_rows = (WINDOW_END - WINDOW_START).days + 1
        for code in ("AAA", "BBB"):
            series_file = workspace / "out" / "series" / f"{code}.csv"
            assert series_file.exists()
            assert len(series_file.read_text().splitlines()) == expected_rows + 1
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        assert {e["station"] for e in manifest} == {"AAA", "BBB"}
        assert all(e["status"] == "ok" for e in manifest)
        assert all(e["rows"] == expected_rows for e in manifest)

    def test_excluded_station_skipped_unless_requested(self, workspace):
        run(["ingest", "--config", str(workspace / "run.cfg")])
        assert not (workspace / "out" / "series" / "XXX.csv").exists()

    def test_reruns_are_byte_identical(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        first = {
            p.name: p.read_bytes()
            for p in (workspace / "out" / "series").iterdir()
        }
        assert sorted(first) == ["AAA.csv", "AAA.npy", "BBB.csv", "BBB.npy"]
        first_manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        run(["ingest", "--config", config])
        second = {
            p.name: p.read_bytes()
            for p in (workspace / "out" / "series").iterdir()
        }
        assert first == second
        # the manifest differs at most in when each payload was fetched
        second_manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        for entry in first_manifest + second_manifest:
            del entry["fetched_at"]
        assert second_manifest == first_manifest

    def test_manifest_records_each_series_sha256(self, workspace):
        run(["ingest", "--config", str(workspace / "run.cfg")])
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        for entry in manifest:
            path = workspace / "out" / "series" / f"{entry['station']}.csv"
            assert entry["series_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_unknown_station_fails_before_work(self, workspace):
        result = run(
            ["ingest", "--config", str(workspace / "run.cfg"), "--station", "ZZZ"]
        )
        assert result.exit_code != 0
        assert not (workspace / "out" / "series").exists()

    def test_duplicate_code_config_rejected(self, workspace):
        bad = workspace / "bad.cfg"
        bad.write_text("[stations]\nAAA USW1 One\nAAA USW2 Two\n")
        result = run(["ingest", "--config", str(bad)])
        assert result.exit_code != 0

    def test_fetch_failure_sets_exit_code(self, workspace):
        # XXX has no cached payload and the endpoint refuses connections
        result = run(
            ["ingest", "--config", str(workspace / "run.cfg"), "--station", "XXX"]
        )
        assert result.exit_code == 1
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        assert manifest[0]["status"] == "error"

    def test_cold_cache_ingest_downloads_and_caches_the_payload(self, workspace, archive):
        payload = synthetic_station_bytes("USW00099903", WINDOW_START, WINDOW_END)
        archive.serve("/USW00099903.dly", payload)
        result = run([
            "ingest", "--config", str(workspace / "run.cfg"), "--station", "XXX",
            "--endpoint", archive.url,
        ])
        assert result.exit_code == 0, result.output
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        assert [(e["status"], e["source"]) for e in manifest] == [("ok", "network")]
        assert (workspace / "cache" / "USW00099903.dly").read_bytes() == payload
        assert archive.requests == ["/USW00099903.dly"]

    def test_fetches_overlap(self, workspace, archive, monkeypatch):
        # Each download waits at the barrier for the other station's, so
        # downloading one station after the other breaks it and fails both:
        # on a cold cache, and again with --refresh on the cache it filled.
        serve_workspace_stations(workspace, archive)
        barrier = threading.Barrier(2, timeout=5)
        original = ghcn._download

        def waiting_download(url):
            barrier.wait()
            return original(url)

        monkeypatch.setattr(ghcn, "_download", waiting_download)
        args = ["ingest", "--config", str(workspace / "run.cfg"), "--endpoint", archive.url]
        for extra in ([], ["--refresh"]):
            result = run(args + extra)
            assert result.exit_code == 0, result.output
            manifest = json.loads((workspace / "out" / "manifest.json").read_text())
            assert [e["station"] for e in manifest] == ["AAA", "BBB"]
            assert [e["source"] for e in manifest] == ["network", "network"]
        assert len(archive.requests) == 4

    def test_each_download_is_parsed_once(self, workspace, archive, monkeypatch):
        # the records checked before the payload was cached are the ones repaired
        serve_workspace_stations(workspace, archive)
        parsed = []
        original = ghcn.parse_dly

        def counting_parse(data):
            parsed.append(bytes(data[:11]).decode())
            return original(data)

        monkeypatch.setattr(ghcn, "parse_dly", counting_parse)
        result = run([
            "ingest", "--config", str(workspace / "run.cfg"), "--endpoint", archive.url,
        ])
        assert result.exit_code == 0, result.output
        assert sorted(parsed) == ["USW00099901", "USW00099902"]
        # a cache read is parsed when ingest calls its fetch, in config order
        parsed.clear()
        assert run(["ingest", "--config", str(workspace / "run.cfg")]).exit_code == 0
        assert parsed == ["USW00099901", "USW00099902"]

    def test_downloads_run_at_most_four_ahead_of_the_repair(self, tmp_path, archive, monkeypatch):
        # A download's payload is parsed in its fetch thread, so it is held
        # until ingest repairs it. The first repair stalls, so a pool that
        # ran further ahead would download all eight meanwhile.
        ids = [f"USW000999{n}" for n in range(10, 18)]
        for ghcn_id in ids:
            archive.serve(
                f"/{ghcn_id}.dly", synthetic_station_bytes(ghcn_id, WINDOW_START, WINDOW_END)
            )
        config = tmp_path / "run.cfg"
        config.write_text(
            f"window_start = {WINDOW_START}\nwindow_end = {WINDOW_END}\n"
            f"output_dir = {tmp_path / 'out'}\ncache_dir = {tmp_path / 'cache'}\n"
            f"endpoint = {archive.url}\n[stations]\n"
            + "".join(f"S{n} {ghcn_id} City-{n}\n" for n, ghcn_id in enumerate(ids))
        )
        lock = threading.Lock()
        held, most, repaired = [0], [0], []
        download, repair = ghcn._download, ghcn.station_observations

        def counting_download(url):
            answer = download(url)
            with lock:
                held[0] += 1
                most[0] = max(most[0], held[0])
            return answer

        def counting_repair(*args, **kwargs):
            if not repaired:
                time.sleep(0.3)
            repaired.append(args[0])
            with lock:
                held[0] -= 1
            return repair(*args, **kwargs)

        monkeypatch.setattr(ghcn, "_download", counting_download)
        monkeypatch.setattr(ghcn, "station_observations", counting_repair)
        result = run(["ingest", "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert len(archive.requests) == 8 and held == [0]
        assert most[0] <= ghcn.FETCH_THREADS


def serve_workspace_stations(workspace: Path, archive) -> None:
    """Move AAA's and BBB's payloads from the cache to the local archive."""
    for ghcn_id in ("USW00099901", "USW00099902"):
        cached = workspace / "cache" / f"{ghcn_id}.dly"
        archive.serve(f"/{ghcn_id}.dly", cached.read_bytes())
        cached.unlink()


def aaa_payload(**kwargs) -> bytes:
    return synthetic_station_bytes("USW00099901", WINDOW_START, WINDOW_END, **kwargs)


def extra_line(*args) -> bytes:
    return (make_dly_line("USW00099901", *args) + "\n").encode("ascii")


MARCH_1961 = {(date(1961, 3, d), "TMIN") for d in range(1, 32)}

# payload of AAA's cache file, text the diagnostic must contain, and whether
# the payload fails to parse (the diagnostic then names the cache file)
INGEST_FAULTS = {
    "truncated-last-line": (
        lambda: aaa_payload()[:-100], "line 48: expected 269 characters, got 170", True
    ),
    "html-body": (
        lambda: b"<html><body>Not Found</body></html>\n", "line 1: expected 269", True
    ),
    "wrong-station": (
        lambda: synthetic_station_bytes("USW00099999", WINDOW_START, WINDOW_END),
        "holds station USW00099999, not USW00099901",
        True,
    ),
    "feb-30": (
        lambda: aaa_payload() + extra_line(1960, 2, "TMAX", {30: 100}),
        "line 49: value on nonexistent day 1960-02-30 of TMAX",
        False,
    ),
    "conflicting-duplicate": (
        lambda: aaa_payload() + extra_line(1960, 5, "TMAX", {d: 999 for d in range(1, 32)}),
        "line 49: conflicting duplicate TMAX values on 1960-05-01",
        False,
    ),
    "all-missing-month": (
        lambda: aaa_payload(skip=MARCH_1961),
        "TMIN: consecutive missing observations at: 1961-03-01, 1961-03-02",
        False,
    ),
}


class TestIngestFaults:
    @pytest.mark.parametrize("fault", list(INGEST_FAULTS))
    def test_fault_names_station_and_place(self, workspace, fault):
        payload, diagnostic, unparsable = INGEST_FAULTS[fault]
        cache_file = workspace / "cache" / "USW00099901.dly"
        cache_file.write_bytes(payload())
        result = run(["ingest", "--config", str(workspace / "run.cfg")])
        assert result.exit_code == 1
        failed = [line for line in result.output.splitlines() if "FAILED" in line]
        assert len(failed) == 1 and failed[0].startswith("AAA: FAILED (")
        assert diagnostic in failed[0]
        if unparsable:
            assert f"cached file {cache_file}: " in failed[0]
            assert failed[0].endswith("; delete it or rerun with --refresh)")
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        assert [e["status"] for e in manifest] == ["error", "ok"]
        assert [e["source"] for e in manifest] == ["cache", "cache"]
        assert not (workspace / "out" / "series" / "AAA.csv").exists()
        # failures go to stderr, progress to stdout
        assert result.stderr.splitlines() == failed == [f"AAA: FAILED ({manifest[0]['error']})"]
        assert result.stdout == f"BBB: {manifest[1]['rows']} rows\n"

    def test_cache_file_cut_at_a_line_boundary_names_the_file(self, workspace):
        # a cut that ends on a whole line parses, and shows as the window's
        # last day missing
        cache_file = workspace / "cache" / "USW00099901.dly"
        lines = cache_file.read_bytes().splitlines(keepends=True)
        cache_file.write_bytes(b"".join(lines[: len(lines) * 4 // 5]))
        result = run(["ingest", "--config", str(workspace / "run.cfg")])
        assert result.exit_code == 1
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        error = manifest[0]["error"]
        assert error == (
            f"BoundaryGapError: cached file {cache_file}: TMAX: last observation missing "
            "at 1961-12-31; if it was cut short, delete it or rerun with --refresh"
        )
        assert result.stderr == f"AAA: FAILED ({error})\n"
        assert [e["status"] for e in manifest] == ["error", "ok"]
        assert (workspace / "out" / "series" / "BBB.csv").exists()

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict-qc"])
    def test_qflags_on_consecutive_days_fail_only_under_strict_qc(self, workspace, strict):
        # strict QC treats the two flagged values as missing, and a gap of
        # two days is not interpolated
        flagged = {(date(1961, 5, 10), "TMAX"), (date(1961, 5, 11), "TMAX")}
        (workspace / "cache" / "USW00099901.dly").write_bytes(aaa_payload(qflagged=flagged))
        args = ["ingest", "--config", str(workspace / "run.cfg")]
        result = run(args + ["--strict-qc"] if strict else args)
        series_file = workspace / "out" / "series" / "AAA.csv"
        if not strict:
            assert result.exit_code == 0, result.output
            assert series_file.exists()
            return
        assert result.exit_code == 1
        failed = [line for line in result.output.splitlines() if "FAILED" in line]
        assert failed == [
            "AAA: FAILED (UnsupportedGapError: TMAX: consecutive missing "
            "observations at: 1961-05-10, 1961-05-11)"
        ]
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        assert [e["status"] for e in manifest] == ["error", "ok"]
        assert not series_file.exists()

    def test_crlf_cache_file_gives_identical_series(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        lf = (workspace / "out" / "series" / "AAA.csv").read_bytes()
        cache_file = workspace / "cache" / "USW00099901.dly"
        cache_file.write_bytes(cache_file.read_bytes().replace(b"\n", b"\r\n"))
        result = run(["ingest", "--config", config])
        assert result.exit_code == 0, result.output
        assert (workspace / "out" / "series" / "AAA.csv").read_bytes() == lf

    def test_manifest_provenance_follows_the_fetch(self, workspace):
        run(["ingest", "--config", str(workspace / "run.cfg")])
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        cache_file = workspace / "cache" / "USW00099901.dly"
        mtime = datetime.fromtimestamp(cache_file.stat().st_mtime, timezone.utc)
        assert manifest[0]["source"] == "cache"
        assert manifest[0]["fetched_at"] == mtime.isoformat()
        # only a refresh that fell back to the cache has a reason to give
        assert not any("refresh_error" in entry for entry in manifest)

    def test_refresh_falling_back_to_cache_reports_cache(self, workspace):
        # the endpoint refuses connections, so --refresh can only use the cache
        result = run(["ingest", "--config", str(workspace / "run.cfg"), "--refresh"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        assert [e["source"] for e in manifest] == ["cache", "cache"]
        reasons = [e["refresh_error"] for e in manifest]
        for entry, reason in zip(manifest, reasons):
            assert reason.startswith(f"fetch of http://127.0.0.1:1/{entry['ghcn_id']}.dly failed: ")
        assert result.stderr.splitlines() == [
            f"{code}: refresh failed ({reason}); using the cache"
            for code, reason in zip(["AAA", "BBB"], reasons)
        ]

    def test_failed_refresh_to_a_cache_file_that_does_not_parse(self, workspace, archive):
        # AAA's archive answers 503 and its cache file does not parse, so
        # AAA fails in one line that says both; BBB is downloaded and written
        cache_file = workspace / "cache" / "USW00099901.dly"
        cache_file.write_bytes(b"<html><body>Not Found</body></html>\n")
        archive.serve("/USW00099901.dly", status=503)
        archive.serve("/USW00099902.dly", (workspace / "cache" / "USW00099902.dly").read_bytes())
        result = run([
            "ingest", "--config", str(workspace / "run.cfg"), "--endpoint", archive.url,
            "--refresh",
        ])
        assert result.exit_code == 1
        assert result.stderr == (
            f"AAA: FAILED (DlyParseError: cached file {cache_file}: line 1: expected 269 "
            "characters, got 35; delete it or rerun with --refresh (refresh failed: "
            f"fetch of {archive.url}/USW00099901.dly returned HTTP 503))\n"
        )
        manifest = json.loads((workspace / "out" / "manifest.json").read_text())
        assert [(e["status"], e["source"]) for e in manifest] == [
            ("error", "cache"), ("ok", "network")
        ]
        assert result.stdout == f"BBB: {manifest[1]['rows']} rows\n"
        assert (workspace / "out" / "series" / "BBB.csv").exists()
        assert not (workspace / "out" / "series" / "AAA.csv").exists()

    def test_refresh_that_replaces_a_different_cached_copy_says_so(self, workspace, archive):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        series = {p.name: p.read_bytes() for p in (workspace / "out" / "series").iterdir()}
        before = json.loads((workspace / "out" / "manifest.json").read_text())
        # the archive's AAA has one more line, of an element ingest ignores
        cached = (workspace / "cache" / "USW00099901.dly").read_bytes()
        fresh = cached + extra_line(1960, 1, "PRCP", {1: 5})
        archive.serve("/USW00099901.dly", fresh)
        archive.serve("/USW00099902.dly", (workspace / "cache" / "USW00099902.dly").read_bytes())
        result = run(["ingest", "--config", config, "--endpoint", archive.url, "--refresh"])
        assert result.exit_code == 0, result.output
        assert result.stderr == (
            f"AAA: archive copy differs from the cache ({len(cached)} vs {len(fresh)} "
            "bytes); cache replaced\n"
        )
        assert (workspace / "cache" / "USW00099901.dly").read_bytes() == fresh
        assert {p.name: p.read_bytes() for p in (workspace / "out" / "series").iterdir()} == series
        # the manifest gains no key: only the sources and fetch times change
        after = json.loads((workspace / "out" / "manifest.json").read_text())
        assert [e["source"] for e in after] == ["network", "network"]
        assert [sorted(e) for e in after] == [sorted(e) for e in before]

    @pytest.mark.parametrize("endpoint", ["htps://archive.example/daily", "file:///x"])
    def test_endpoint_that_is_not_http_fails_on_a_warm_cache(self, workspace, endpoint):
        # nothing would be downloaded, but the endpoint is still checked
        result = run([
            "ingest", "--config", str(workspace / "run.cfg"), "--endpoint", endpoint,
        ])
        assert result.exit_code == 1
        scheme = endpoint.partition(":")[0]
        assert result.stderr == (
            f"Error: cannot download from {endpoint}: "
            f"endpoint scheme {scheme!r} is not http or https\n"
        )
        assert not (workspace / "out").exists()


class TestTables:
    def test_repeated_station_fails_before_any_read(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        result = run(["tables", "--config", config, "--station", "AAA", "--station", "BBB",
                      "--station", "AAA"])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == "Error: station 'AAA' requested more than once\n"
        assert not (workspace / "out" / "tables").exists()

    def test_missing_series_names_ingest(self, workspace):
        result = run(["tables", "--config", str(workspace / "run.cfg")])
        assert result.exit_code == 1
        assert "ingest" in result.output + (result.stderr or "")

    def test_tables_written_with_median(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        result = run(["tables", "--config", config])
        assert result.exit_code == 0, result.output
        for variable in ("avg", "dtr"):
            rows = read_csv_rows(workspace / "out" / "tables" / f"table_{variable}.csv")
            assert [r["station"] for r in rows] == ["AAA", "BBB", "Median"]
            for row in rows:
                assert 0.0 <= float(row["p_nt"]) <= 1.0
                assert 0.0 <= float(row["p_nts"]) <= 1.0
                assert row["hac_bandwidth"] != ""

    def test_single_station_median_equals_row(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        run(["tables", "--config", config, "--station", "AAA", "--variable", "avg"])
        rows = read_csv_rows(workspace / "out" / "tables" / "table_avg.csv")
        assert len(rows) == 2
        assert rows[0]["delta_trend_full"] == rows[1]["delta_trend_full"]

    def test_csv_and_text_agree_at_declared_precision(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        run(["tables", "--config", config, "--variable", "avg"])
        rows = read_csv_rows(workspace / "out" / "tables" / "table_avg.csv")
        text = (workspace / "out" / "tables" / "table_avg.txt").read_text()
        text_lines = {
            line.split()[0]: line.split() for line in text.splitlines()[1:] if line
        }
        for row in rows:
            cells = text_lines[row["station"]]
            assert cells[1].rstrip("*") == row["delta_trend"]
            assert cells[2] == row["p_nt"]
            assert cells[3] == row["p_ns"]
            assert cells[4] == row["p_nts"]
            assert cells[5].rstrip("*") == row["rho"]
            assert cells[6] == row["r_squared"]
            assert ("*" in cells[1]) == (row["delta_trend_star"] == "true")
            assert ("*" in cells[5]) == (row["rho_star"] == "true")

    def test_reruns_byte_identical(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        run(["tables", "--config", config])
        table = workspace / "out" / "tables" / "table_avg.csv"
        first = table.read_bytes()
        run(["tables", "--config", config])
        assert table.read_bytes() == first

    def test_each_series_read_once(self, workspace, monkeypatch):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        reads = []
        original = series_mod.read_series_csv

        def counting_read(path, *args, **kwargs):
            reads.append(Path(path).name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(series_mod, "read_series_csv", counting_read)
        result = run(["tables", "--config", config, "--variable", "both"])
        assert result.exit_code == 0, result.output
        assert sorted(reads) == ["AAA.csv", "BBB.csv"]

    def test_both_variables_share_the_window_factors(self, workspace, monkeypatch):
        # one window: the joint and trend designs are each factored once for
        # both variables, and each row is its single-station fit to the bit
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        factored = []
        original = models.factorize

        def counting(design):
            factored.append(design.names)
            return original(design)

        monkeypatch.setattr(models, "factorize", counting)
        result = run(["tables", "--config", config, "--variable", "both"])
        assert result.exit_code == 0, result.output
        assert len(factored) == 2
        monkeypatch.undo()

        for var in ("avg", "dtr"):
            rows = read_csv_rows(workspace / "out" / "tables" / f"table_{var}.csv")
            assert [r["station"] for r in rows] == ["AAA", "BBB", "Median"]
            for row in rows[:2]:
                code = row["station"]
                single = models.city_report(code, read_series(workspace, code), var)
                for column in ("delta_trend", "p_nt", "p_ns", "p_nts", "rho", "r_squared"):
                    assert float(row[f"{column}_full"]).hex() == getattr(single, column).hex()

    def test_tables_equal_with_and_without_sidecars(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        tables_dir = workspace / "out" / "tables"
        run(["tables", "--config", config])
        with_sidecars = {p.name: p.read_bytes() for p in tables_dir.iterdir()}
        for sidecar in (workspace / "out" / "series").glob("*.npy"):
            sidecar.unlink()
        run(["tables", "--config", config])
        assert {p.name: p.read_bytes() for p in tables_dir.iterdir()} == with_sidecars
        assert len(with_sidecars) == 4

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_bandwidth_rejected_once(self, workspace, source):
        config = workspace / "run.cfg"
        run(["ingest", "--config", str(config)])
        args = ["tables", "--config", str(config)]
        if source == "flag":
            args += ["--hac-bandwidth", "-3"]
        else:
            config.write_text("hac_bandwidth = -3\n" + config.read_text())
        result = run(args)
        assert result.exit_code != 0
        assert result.output.count("expected 'auto' or a nonnegative integer") == 1
        assert "FAILED" not in result.output
        if source == "config":
            assert f"{config}:1: bad value for hac_bandwidth" in result.output

    def test_lag_beyond_joint_nobs_rejected_once(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        joint_nobs = (WINDOW_END - WINDOW_START).days  # one day lost to the lag
        result = run(["tables", "--config", config, "--hac-bandwidth", str(joint_nobs)])
        assert result.exit_code == 1
        assert result.output.count("Error:") == 1
        assert f"HAC bandwidth {joint_nobs} must be below the joint model's nobs {joint_nobs}" in result.output
        assert "FAILED" not in result.output
        assert not (workspace / "out" / "tables").exists()

        result = run(["tables", "--config", config, "--variable", "avg",
                      "--hac-bandwidth", str(joint_nobs - 1)])
        assert result.exit_code == 0, result.output

    def test_two_windows_grouped_and_match_single_station_fits(self, workspace, monkeypatch):
        # tables loads only series that cover the configured window (see
        # test_series_not_covering_the_window_fails), so two windows reach
        # batch_report from a library caller
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        aaa, bbb = read_series(workspace, "AAA"), read_series(workspace, "BBB")
        # BBB from March 1960 on; XXX on AAA's window with its days reversed
        loaded = [
            ("AAA", aaa),
            ("BBB", series_mod.build_series(bbb.max_f[60:], bbb.min_f[60:], date(1960, 3, 1), WINDOW_END)),
            ("XXX", series_mod.build_series(aaa.max_f[::-1], aaa.min_f[::-1], WINDOW_START, WINDOW_END)),
        ]
        windows = []
        original = models.WindowFactors

        def counting(series):
            windows.append((series.start, len(series)))
            return original(series)

        monkeypatch.setattr(models, "WindowFactors", counting)
        report = models.batch_report(loaded, "avg")
        assert report.failures == ()
        assert windows == [(WINDOW_START, 731), (date(1960, 3, 1), 671)]
        monkeypatch.undo()

        table = workspace / "table_avg.csv"
        reporting.write_table_csv(report, table)
        rows = read_csv_rows(table)
        assert [r["station"] for r in rows] == ["AAA", "BBB", "XXX", "Median"]
        for row, (code, series) in zip(rows, loaded):
            single = models.city_report(code, series, "avg")
            for column in ("delta_trend", "p_nt", "p_ns", "p_nts", "rho", "r_squared"):
                assert float(row[f"{column}_full"]) == getattr(single, column)

    @pytest.mark.parametrize("kind", ["constant", "collinear"])
    def test_degenerate_lag_named_while_other_rows_written(self, workspace, kind):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        aaa = read_series(workspace, "AAA")
        if kind == "constant":
            tmax, tmin = np.full(len(aaa), 60), np.full(len(aaa), 50)
        else:
            # each day holds the next day's month number, so every lag is the
            # intercept plus month dummies
            following = np.append(aaa.month[1:], 1)
            tmax, tmin = 2 * following, np.zeros(len(aaa), dtype=np.int64)
        write_series(workspace, "XXX", tmax, tmin, WINDOW_START, WINDOW_END)
        result = run(["tables", "--config", config,
                      "--station", "AAA", "--station", "XXX", "--station", "BBB"])
        assert result.exit_code == 1
        failed = [line for line in result.output.splitlines() if "FAILED" in line]
        assert failed == [
            f"{var} XXX: FAILED (SingularDesignError: design column 'lag' is linearly dependent)"
            for var in ("avg", "dtr")
        ]
        # failures go to stderr, progress to stdout
        assert result.stderr.splitlines() == failed
        tables_dir = workspace / "out" / "tables"
        assert result.stdout.splitlines() == [
            f"wrote {tables_dir / f'table_{var}.csv'}" for var in ("avg", "dtr")
        ]
        for var in ("avg", "dtr"):
            rows = read_csv_rows(workspace / "out" / "tables" / f"table_{var}.csv")
            assert [r["station"] for r in rows] == ["AAA", "BBB"]

    def test_text_footer_names_each_lag(self, workspace):
        # series of two windows come only from a library caller, as in
        # test_two_windows_grouped_and_match_single_station_fits
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        bbb = read_series(workspace, "BBB")
        # 549 days give the joint fit an automatic lag of 5, AAA's 731 days 6
        loaded = [
            ("AAA", read_series(workspace, "AAA")),
            ("BBB", series_mod.build_series(bbb.max_f[182:], bbb.min_f[182:], date(1960, 7, 1), WINDOW_END)),
        ]
        report = models.batch_report(loaded, "avg")
        reporting.write_table_csv(report, workspace / "table_avg.csv")
        reporting.write_table_text(report, workspace / "table_avg.txt")
        rows = read_csv_rows(workspace / "table_avg.csv")
        assert [r["hac_bandwidth"] for r in rows[:2]] == ["6", "5"]
        text = (workspace / "table_avg.txt").read_text()
        assert "variable: avg  HAC bandwidth: 5, 6  (* = significant" in text

    def test_explicit_bandwidth_recorded(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        run(["tables", "--config", config, "--variable", "avg", "--hac-bandwidth", "9"])
        rows = read_csv_rows(workspace / "out" / "tables" / "table_avg.csv")
        assert {r["hac_bandwidth"] for r in rows} == {"9"}


class TestFigures:
    def test_bundle_contents(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        result = run(["figures", "--config", config, "--station", "AAA"])
        assert result.exit_code == 0, result.output
        bundle = workspace / "out" / "figures" / "AAA"
        expected_rows = (WINDOW_END - WINDOW_START).days + 1
        for variable in ("avg", "dtr"):
            density_rows = read_csv_rows(bundle / f"density_{variable}.csv")
            assert len(density_rows) == 512
            trend_rows = read_csv_rows(bundle / f"trend_{variable}.csv")
            assert len(trend_rows) == expected_rows
            assert set(trend_rows[0]) == {"date", "actual", "fitted"}
            seasonal_rows = read_csv_rows(bundle / f"seasonal_fit_{variable}.csv")
            assert len(seasonal_rows) == expected_rows
            fixed = read_csv_rows(bundle / f"fixed_pattern_{variable}.csv")
            assert [r["month"] for r in fixed] == [str(m) for m in range(1, 13)]
            evolving = read_csv_rows(bundle / f"evolving_pattern_{variable}.csv")
            assert len(evolving) == 12
            assert set(evolving[0]) == {"month", "effect_1960", "effect_1961"}

    def test_density_integrates_to_one(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        run(["figures", "--config", config, "--station", "AAA"])
        rows = read_csv_rows(
            workspace / "out" / "figures" / "AAA" / "density_avg.csv"
        )
        import numpy as np

        grid = np.array([float(r["grid"]) for r in rows])
        values = np.array([float(r["density"]) for r in rows])
        assert 0.99 <= np.trapezoid(values, grid) <= 1.01

    def test_reruns_byte_identical(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        bundle = workspace / "out" / "figures" / "AAA"
        run(["figures", "--config", config, "--station", "AAA"])
        first = {p.name: p.read_bytes() for p in bundle.iterdir()}
        run(["figures", "--config", config, "--station", "AAA"])
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == first
        assert len(first) == 10

    def test_each_design_factored_once(self, workspace, monkeypatch):
        # the trend, fixed and evolving designs depend on the window alone,
        # so avg and dtr share one factor of each; only the trend design is
        # decomposed, the seasonal ones are factored in closed form by month,
        # and the joint design, which figures does not fit, never is
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        factored = []
        decomposed = []
        original = models.factorize
        original_block = models.month_block_factor

        def counting(design):
            factored.append(design.names[-1])
            decomposed.append(design.names)
            return original(design)

        def counting_block(month, t=None):
            factor = original_block(month, t)
            factored.append(factor.design.names[-1])
            return factor

        monkeypatch.setattr(models, "factorize", counting)
        monkeypatch.setattr(models, "month_block_factor", counting_block)
        result = run(["figures", "--config", config, "--station", "AAA"])
        assert result.exit_code == 0, result.output
        assert factored == ["time", "d12", "dt12"]
        aaa = read_series(workspace, "AAA")
        assert models.joint_shared_design(aaa.month, aaa.t).names not in decomposed

    def test_constant_dtr_is_a_one_line_error(self, workspace):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        tmin = read_series(workspace, "AAA").min_f
        write_series(workspace, "AAA", tmin + 10, tmin, WINDOW_START, WINDOW_END)
        result = run(["figures", "--config", config, "--station", "AAA"])
        assert result.exit_code == 1
        assert result.output.startswith("Error: AAA dtr: automatic bandwidth is zero")
        assert "explicit bandwidth" not in result.output
        assert len(result.output.splitlines()) == 1

    def test_dtr_without_spread_leaves_the_bundle_as_it_was(self, workspace):
        # both densities are estimated before the first write, so the avg
        # files are not written either
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        good = read_series(workspace, "AAA")
        bundle = workspace / "out" / "figures" / "AAA"

        def figures_without_dtr_spread():
            tmin = good.min_f
            write_series(workspace, "AAA", tmin + 10, tmin, WINDOW_START, WINDOW_END)
            result = run(["figures", "--config", config, "--station", "AAA"])
            assert result.exit_code == 1
            assert result.output.startswith("Error: AAA dtr: automatic bandwidth is zero")

        figures_without_dtr_spread()
        assert list(bundle.iterdir()) == []

        write_series(workspace, "AAA", good.max_f, good.min_f, WINDOW_START, WINDOW_END)
        result = run(["figures", "--config", config, "--station", "AAA"])
        assert result.exit_code == 0, result.output
        written = {p.name: p.read_bytes() for p in bundle.iterdir()}
        assert len(written) == 10
        figures_without_dtr_spread()
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == written

    def test_singular_design_is_a_one_line_error(self, workspace):
        # three months of data leave nine month dummies without a single
        # day, which the window alone shows
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        aaa = read_series(workspace, "AAA")
        write_series(workspace, "AAA", aaa.max_f[:91], aaa.min_f[:91], WINDOW_START, date(1960, 3, 31))
        short = workspace / "run.cfg"
        short.write_text(short.read_text().replace(f"window_end = {WINDOW_END}", "window_end = 1960-03-31"))
        result = run(["figures", "--config", config, "--station", "AAA"])
        assert result.exit_code == 1
        assert result.output == (
            "Error: window 1960-01-01..1960-03-31 is short of days in Apr, May, Jun, "
            "Jul, Aug, Sep, Oct, Nov, Dec: the evolving model needs two days in every "
            "calendar month\n"
        )

    @pytest.mark.parametrize(
        "start, end, year",
        [(date(1960, 9, 1), WINDOW_END, 1961), (WINDOW_START, date(1961, 6, 30), 1960)],
    )
    def test_evolving_pattern_at_the_july_first_inside_the_window(
        self, workspace, start, end, year
    ):
        # a window that cuts off July 1 of its first or last year holds one
        # July 1 here, so the pattern has one column, labelled by its year
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        short = narrow_window(workspace, start, end)
        result = run(["figures", "--config", config, "--station", "AAA"])
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(workspace / "out" / "figures" / "AAA" / "evolving_pattern_avg.csv")
        assert set(rows[0]) == {"month", f"effect_{year}"}
        evolving = regression.fit_with_hac(
            *models.WindowFactors(short).least_squares("evolving", short.avg)
        )
        t_july = (date(year, 7, 1) - short.start).days + 1
        expected = models.month_effects(evolving, t_july)
        assert [float(r[f"effect_{year}"]) for r in rows] == list(expected)

    def test_window_without_july_first_is_a_one_line_error(self, workspace):
        # the window alone decides this, so no series file need exist
        config = workspace / "run.cfg"
        config.write_text(
            config.read_text()
            .replace(f"window_start = {WINDOW_START}", "window_start = 1960-07-02")
            .replace(f"window_end = {WINDOW_END}", "window_end = 1961-06-30")
        )
        result = run(["figures", "--config", str(config), "--station", "AAA"])
        assert result.exit_code == 1
        assert result.output == (
            "Error: window 1960-07-02..1961-06-30 holds no July 1 "
            "to evaluate the evolving seasonal pattern at\n"
        )
        assert not (workspace / "out").exists()

    def test_missing_series_is_actionable(self, workspace):
        result = run(
            ["figures", "--config", str(workspace / "run.cfg"), "--station", "AAA"]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"Error: no series file {workspace / 'out' / 'series' / 'AAA.csv'}; "
            "run `tempdyn ingest` for AAA first\n"
        )

    def test_unknown_station_rejected(self, workspace):
        result = run(
            ["figures", "--config", str(workspace / "run.cfg"), "--station", "QQQ"]
        )
        assert result.exit_code != 0


class TestFullWindow:
    def test_complete_pipeline_over_58_years(self, tmp_path):
        # the real archive window: 21,185 days (58 years, 15 leap days)
        start, end = date(1960, 1, 1), date(2017, 12, 31)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "USW00099909.dly").write_bytes(
            synthetic_station_bytes("USW00099909", start, end)
        )
        config = tmp_path / "run.cfg"
        config.write_text(
            f"""
output_dir = {tmp_path / 'out'}
cache_dir = {cache}
endpoint = http://127.0.0.1:1

[stations]
FUL USW00099909 Full-Window-City
"""
        )
        result = run(["ingest", "--config", str(config)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest[0]["rows"] == 21185

        result = run(["tables", "--config", str(config)])
        assert result.exit_code == 0, result.output
        rows = read_csv_rows(tmp_path / "out" / "tables" / "table_avg.csv")
        assert [r["station"] for r in rows] == ["FUL", "Median"]
        # auto Newey-West lag at this sample size
        assert rows[0]["hac_bandwidth"] == "13"

        result = run(["figures", "--config", str(config), "--station", "FUL"])
        assert result.exit_code == 0, result.output
        evolving = read_csv_rows(
            tmp_path / "out" / "figures" / "FUL" / "evolving_pattern_avg.csv"
        )
        assert set(evolving[0]) == {"month", "effect_1960", "effect_2017"}


def test_series_not_covering_the_window_fails(tmp_path):
    # a series cut at a line boundary (an interrupted copy, a full disk) or
    # left by a run with another window is refused, not fitted as it is
    # the default window, 1960-2017, with the file cut to its first 14,999 days
    start, cut = date(1960, 1, 1), date(1960, 1, 1) + timedelta(days=14998)
    rng = np.random.default_rng(3)
    tmin = rng.integers(20, 70, size=14999)
    path = tmp_path / "out" / "series" / "FUL.csv"
    path.parent.mkdir(parents=True)
    series_mod.write_series_csv(
        series_mod.build_series(tmin + rng.integers(5, 30, size=14999), tmin, start, cut), path
    )
    config = tmp_path / "run.cfg"
    config.write_text(f"output_dir = {tmp_path / 'out'}\n\n[stations]\nFUL USW00099909 Full-Window-City\n")
    message = (
        f"series {path} covers 1960-01-01..{cut} but the window is "
        "1960-01-01..2017-12-31; rerun `tempdyn ingest --station FUL`"
    )

    result = run(["tables", "--config", str(config), "--variable", "avg"])
    assert result.exit_code == 1
    assert f"avg FUL: FAILED (ContiguityError: {message})" in result.output.splitlines()
    for command in (["figures"], ["fit", "--model", "trend"]):
        result = run([*command, "--config", str(config), "--station", "FUL"])
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"


def test_series_cut_after_ingest_fails_despite_its_sidecar(workspace):
    # the sidecar no longer matches the cut CSV, so the cut text is what is
    # read, and refused
    config = str(workspace / "run.cfg")
    run(["ingest", "--config", config])
    path = workspace / "out" / "series" / "AAA.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:366]))
    result = run(["tables", "--config", config, "--station", "AAA", "--variable", "avg"])
    assert result.exit_code == 1
    assert (
        f"avg AAA: FAILED (ContiguityError: series {path} covers 1960-01-01..1960-12-30 "
        f"but the window is {WINDOW_START}..{WINDOW_END}; rerun `tempdyn ingest --station AAA`)"
    ) in result.output.splitlines()


@pytest.mark.parametrize(
    "command",
    [
        ["tables"],
        ["figures", "--station", "AAA"],
        ["fit", "--station", "AAA", "--model", "joint"],
    ],
    ids=["tables", "figures", "fit"],
)
def test_readers_leave_the_series_files_unchanged(workspace, command):
    config = str(workspace / "run.cfg")
    run(["ingest", "--config", config])
    series_dir = workspace / "out" / "series"
    # one sidecar stale, one missing: still nothing is written
    (series_dir / "AAA.npy").write_bytes((series_dir / "BBB.npy").read_bytes())
    (series_dir / "BBB.npy").unlink()
    before = {p.name: p.read_bytes() for p in series_dir.iterdir()}
    result = run([*command, "--config", config])
    assert result.exit_code == 0, result.output
    assert {p.name: p.read_bytes() for p in series_dir.iterdir()} == before


@pytest.mark.parametrize(
    "end, command, message",
    [
        (date(2000, 5, 31), ["tables"], "Jun, Jul, Aug, Sep, Oct, Nov, Dec: the joint model needs two days"),
        (date(2000, 5, 31), ["figures", "--station", "AAA"],
         "Jun, Jul, Aug, Sep, Oct, Nov, Dec: the evolving model needs two days"),
        (date(2000, 5, 31), ["fit", "--station", "AAA", "--model", "seasonal"],
         "Jun, Jul, Aug, Sep, Oct, Nov, Dec: the fixed model needs one day"),
        (date(2000, 12, 1), ["tables"], "Dec: the joint model needs two days"),
        (date(2000, 12, 1), ["figures", "--station", "AAA"], "Dec: the evolving model needs two days"),
        (date(2000, 12, 1), ["fit", "--station", "AAA", "--model", "evolving"],
         "Dec: the evolving model needs two days"),
        (date(2000, 12, 1), ["fit", "--station", "AAA", "--model", "joint"],
         "Dec: the joint model needs two days"),
    ],
    ids=["may-tables", "may-figures", "may-fit-seasonal", "dec-tables", "dec-figures",
         "dec-fit-evolving", "dec-fit-joint"],
)
def test_window_short_of_a_month_fails_once_before_any_read(workspace, monkeypatch, end, command, message):
    # every station's design would be rank deficient, so the command names
    # the months once instead of failing each station
    config = workspace / "run.cfg"
    run(["ingest", "--config", str(config)])
    config.write_text(
        config.read_text()
        .replace(f"window_start = {WINDOW_START}", "window_start = 2000-01-01")
        .replace(f"window_end = {WINDOW_END}", f"window_end = {end}")
    )

    def read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(series_mod, "read_series_csv", read)
    result = run([command[0], "--config", str(config), *command[1:]])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        f"Error: window 2000-01-01..{end} is short of days in {message} in every "
        "calendar month\n"
    )


class TestFit:
    @pytest.mark.parametrize("model", ["trend", "seasonal", "evolving", "joint"])
    def test_fit_prints_coefficients(self, workspace, model):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        result = run(
            [
                "fit",
                "--config",
                config,
                "--station",
                "AAA",
                "--variable",
                "avg",
                "--model",
                model,
            ]
        )
        assert result.exit_code == 0, result.output
        assert "coef" in result.output
        assert "R2=" in result.output
        if model == "joint":
            assert "p(nts)=" in result.output
            assert "lag" in result.output

    def test_seasonal_fit_prints_the_figures_fixed_pattern(self, workspace):
        # fit and figures fit the fixed seasonal model on the same factors
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        run(["figures", "--config", config, "--station", "AAA"])
        result = run(["fit", "--config", config, "--station", "AAA",
                      "--variable", "avg", "--model", "seasonal"])
        assert result.exit_code == 0, result.output
        printed = [line.split()[1] for line in result.output.splitlines()
                   if line.split()[0] in models.DUMMY_NAMES]
        rows = read_csv_rows(workspace / "out" / "figures" / "AAA" / "fixed_pattern_avg.csv")
        assert printed == [f"{float(r['effect_fixed']):.6g}" for r in rows]

    def test_trend_and_joint_fits_print_the_tables_row(self, workspace):
        # fit and tables fit both models through the same entry, so fit
        # prints the station's table_avg.csv row at its own precision
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        assert run(["tables", "--config", config, "--variable", "avg"]).exit_code == 0
        row = read_csv_rows(workspace / "out" / "tables" / "table_avg.csv")[0]
        assert row["station"] == "AAA"
        full = {name: float(row[f"{name}_full"])
                for name in ("delta_trend", "p_nt", "p_ns", "p_nts", "rho", "r_squared")}
        printed = {}
        for model in ("trend", "joint"):
            result = run(["fit", "--config", config, "--station", "AAA", "--model", model])
            assert result.exit_code == 0, result.output
            printed[model] = result.stdout.splitlines()
        assert printed["trend"][-1] == f"delta_trend: {full['delta_trend']:.4f} F over the sample"
        lag = next(line.split() for line in printed["joint"] if line.split()[0] == "lag")
        assert lag[1] == f"{full['rho']:.6g}"
        assert printed["joint"][-2] == (
            f"nobs={(WINDOW_END - WINDOW_START).days}  R2={full['r_squared']:.4f}  "
            f"bandwidth={row['hac_bandwidth']}"
        )
        assert printed["joint"][-1] == (
            f"p(nt)={full['p_nt']:.4f}  p(ns)={full['p_ns']:.4f}  p(nts)={full['p_nts']:.4f}"
        )

    def test_seasonal_fit_makes_one_hac_covariance(self, workspace, monkeypatch):
        # the de-trending trend fit needs residuals only, not a covariance
        calls = []
        original = regression.hac_cov

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(regression, "hac_cov", counted)
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        result = run(["fit", "--config", config, "--station", "AAA", "--model", "seasonal"])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_out_reads_the_workspace_ingest_wrote(self, workspace):
        # the same --out as tables and figures: no config need name the
        # directory ingest wrote
        config = str(workspace / "run.cfg")
        elsewhere = str(workspace / "elsewhere")
        assert run(["ingest", "--config", config, "--out", elsewhere]).exit_code == 0
        result = run(["fit", "--config", config, "--station", "AAA", "--out", elsewhere])
        assert result.exit_code == 0, result.output
        assert "p(nts)=" in result.output
        configured = run(["fit", "--config", config, "--station", "AAA"])
        assert configured.exit_code == 1
        assert "no series file" in configured.output

    @pytest.mark.parametrize("model", ["trend", "seasonal", "evolving", "joint"])
    def test_bandwidth_beyond_nobs_is_a_one_line_error(self, workspace, model):
        config = str(workspace / "run.cfg")
        run(["ingest", "--config", config])
        result = run(["fit", "--config", config, "--station", "AAA",
                      "--model", model, "--hac-bandwidth", "999999"])
        assert result.exit_code == 1
        assert result.output.startswith("Error: AAA avg")
        assert "bandwidth 999999 must be below nobs" in result.output
        assert len(result.output.splitlines()) == 1

    def test_two_day_trend_window_is_a_one_line_error(self, workspace):
        # the trend model needs no day of any month, but more days than its
        # two regressors
        end = WINDOW_START + timedelta(days=1)
        run(["ingest", "--config", str(workspace / "run.cfg")])
        narrow_window(workspace, WINDOW_START, end)
        result = run(["fit", "--config", str(workspace / "run.cfg"), "--station", "AAA",
                      "--model", "trend"])
        assert result.exit_code == 1
        assert result.output == "Error: AAA avg trend: 2 observations for 2 regressors\n"

    def test_bad_bandwidth_rejected(self, workspace):
        result = run(
            [
                "fit",
                "--config",
                str(workspace / "run.cfg"),
                "--station",
                "AAA",
                "--hac-bandwidth",
                "sometimes",
            ]
        )
        assert result.exit_code == 2
        assert "expected 'auto' or a nonnegative integer, got 'sometimes'" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["tables", "--bogus"],
        ["tables", "--variable", "bogus"],
        ["figures"],
        ["fit"],
        ["fit", "--station", "AAA", "--model", "bogus"],
        ["ingest", "--config", "no-such.cfg"],
        [],
    ],
    ids=["unknown-flag", "bad-variable", "figures-without-station", "fit-without-station",
         "bad-model", "missing-config", "no-command"],
)
def test_usage_error_exits_2_before_any_work(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = run(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: tempdyn")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, directory",
    [("ingest", "run.cfg/series"), ("tables", "run.cfg/tables"), ("figures", "out/figures/AAA")],
)
def test_file_in_place_of_the_output_directory_is_a_one_line_error(
    workspace, command, directory
):
    # --out naming the config file, or a file named figures in the output
    # directory: the directory the command makes cannot be made
    config = str(workspace / "run.cfg")
    run(["ingest", "--config", config])
    (workspace / "out" / "figures").write_text("")
    out = workspace / directory.partition("/")[0]
    station = ["--station", "AAA"] if command == "figures" else []
    result = run([command, "--config", config, "--out", str(out), *station])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == (
        f"Error: cannot make directory {workspace / directory}: Not a directory; "
        "pass another --out\n"
    )


@pytest.mark.parametrize(
    "directory, reason",
    [("run.cfg", "File exists"), ("run.cfg/cache", "Not a directory")],
    ids=["a-file", "under-a-file"],
)
def test_file_in_place_of_the_cache_directory_is_a_one_line_error(
    workspace, archive, monkeypatch, directory, reason
):
    # TEMPDYN_CACHE_DIR naming a file, or a path under one: nothing is
    # fetched, and the advice names the cache setting
    archive.serve("/USW00099901.dly", (workspace / "cache" / "USW00099901.dly").read_bytes())
    monkeypatch.setenv("TEMPDYN_CACHE_DIR", str(workspace / directory))
    result = run([
        "ingest", "--config", str(workspace / "run.cfg"), "--station", "AAA",
        "--endpoint", archive.url,
    ])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == (
        f"Error: cannot make directory {workspace / directory}: {reason}; "
        "set another cache_dir or TEMPDYN_CACHE_DIR\n"
    )
    assert archive.requests == []
    assert not (workspace / "out").exists()


def test_config_that_is_not_utf8_is_a_one_line_error(workspace):
    config = workspace / "run.cfg"
    config.write_bytes(config.read_bytes().replace(b"Alpha-City", b"Alpha-Cit\xe9"))
    result = run(["tables", "--config", str(config)])
    assert (result.exit_code, result.stdout) == (1, "")
    # line 9 is AAA's station row
    assert result.stderr == f"Error: {config}:9: byte 0xe9 is not UTF-8; save the file as UTF-8\n"


@pytest.mark.parametrize("args", [["--help"], ["ingest", "--help"], ["tables", "--help"],
                                  ["figures", "--help"], ["fit", "--help"]])
def test_help_exits_0(args):
    result = run(args)
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: tempdyn")
    assert result.stderr == ""


def test_in_process_callers_get_a_return_or_a_system_exit(workspace):
    # the benchmark's in-process runner passes click's standalone_mode
    config = str(workspace / "run.cfg")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--config", config], standalone_mode=False) is None
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        with pytest.raises(SystemExit) as info:
            main(["fit", "--config", config, "--station", "QQQ"], standalone_mode=False)
    assert info.value.code == 1
    assert stderr.getvalue().startswith("Error: ")
    assert len(stderr.getvalue().splitlines()) == 1


def test_closed_stdout_ends_quietly(workspace):
    # as in `tempdyn fit ... | head -1`: the reader is gone before the first
    # line, and the command stops with status 1 and no traceback
    config = str(workspace / "run.cfg")
    run(["ingest", "--config", config])
    src = Path(tempdyn.__file__).resolve().parents[1]
    process = subprocess.Popen(
        [sys.executable, "-m", "tempdyn.cli", "fit", "--config", config, "--station", "AAA"],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    process.stdout.close()
    _, stderr = process.communicate(timeout=60)
    assert (process.returncode, stderr) == (1, b"")


@pytest.mark.parametrize("args, status", [(["--help"], 0), (["fit", "--model", "bogus"], 2)])
def test_help_and_usage_errors_without_docstrings(tmp_path, args, status):
    # python -OO strips the docstrings that the help texts come from
    src = Path(tempdyn.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-OO", "-m", "tempdyn.cli", *args], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert result.returncode == status
    assert "Traceback" not in result.stderr


def modules_loaded_by(statement: str, unwanted: tuple[str, ...]) -> str:
    """Which of ``unwanted`` a fresh interpreter holds after ``statement``."""
    src = Path(tempdyn.__file__).resolve().parents[1]
    probe = (
        f"import sys; {statement}; "
        f"print(','.join(m for m in {unwanted!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    # the last line: what the statement printed comes before it
    return result.stdout.splitlines()[-1]


# the HTTP client and its TLS, loaded only when a download happens: they
# add tens of milliseconds and a few MiB to every process that imports them
DOWNLOAD_MODULES = ("requests", "urllib.request", "http.client", "ssl")


def test_cli_import_loads_neither_scipy_nor_requests():
    # the estimator runs on numpy alone, the download modules are needed
    # only when a download happens, and the archive parser and the fetch
    # pool only when ingest runs
    unwanted = ("scipy", "tempdyn.ghcn", "concurrent.futures", "click") + DOWNLOAD_MODULES
    assert modules_loaded_by("import tempdyn.cli", unwanted) == ""


def test_warm_cache_ingest_loads_no_download_module(workspace):
    # a cache hit reads a file, so the benchmark's warm-cache ingest never
    # pays for the HTTP client or the download pool
    statement = (
        "from tempdyn.cli import main; "
        f"main(['ingest', '--config', {str(workspace / 'run.cfg')!r}, '--station', 'AAA'])"
    )
    unwanted = DOWNLOAD_MODULES + ("concurrent.futures",)
    assert modules_loaded_by(statement, unwanted) == ""
    manifest = json.loads((workspace / "out" / "manifest.json").read_text())
    assert [(e["status"], e["source"]) for e in manifest] == [("ok", "cache")]


def test_warm_cache_ingest_starts_no_thread(workspace, monkeypatch):
    # each cache file is read in the main thread just before it is parsed
    before = threading.active_count()
    during = []
    repair = ghcn.station_observations

    def counting_repair(*args, **kwargs):
        during.append(threading.active_count())
        return repair(*args, **kwargs)

    monkeypatch.setattr(ghcn, "station_observations", counting_repair)
    result = run(["ingest", "--config", str(workspace / "run.cfg")])
    assert result.exit_code == 0, result.output
    assert during == [before, before]
    assert threading.active_count() == before


def test_ingest_modules_load_no_fitting_module():
    # ingest parses, repairs and writes; the estimator, the density and
    # statistics are left to the commands that fit
    unwanted = ("tempdyn.models", "tempdyn.regression", "tempdyn.density", "statistics")
    statement = "import tempdyn.cli, tempdyn.reporting, tempdyn.ghcn"
    assert modules_loaded_by(statement, unwanted) == ""


BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
)


def environment_with_threads(**threads: str) -> dict[str, str]:
    """This process's environment with ``threads`` as the only BLAS thread
    variables, and the package on the path."""
    src = Path(tempdyn.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return dict(env, PYTHONPATH=str(src), **threads)


@pytest.mark.parametrize(
    "module, given, expected",
    [
        ("tempdyn.cli", {}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
        ("tempdyn.cli", {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
        ("tempdyn.cli", {"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
        ("tempdyn.cli", {"GOTO_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}),
        ("tempdyn.cli", {"MKL_NUM_THREADS": "2"}, {"MKL_NUM_THREADS": "2"}),
        ("tempdyn.models", {}, {}),
    ],
    ids=["unset", "openblas", "omp-alone", "goto-alone", "mkl-alone", "library"],
)
def test_cli_import_pins_one_blas_thread_unless_a_count_is_set(module, given, expected):
    # a count the user chose through any variable the BLAS reads is kept,
    # and importing the library alone changes no variable
    probe = (
        f"import json, os, {module}; "
        f"print(json.dumps({{n: os.environ[n] for n in {BLAS_THREAD_VARIABLES!r} "
        "if n in os.environ}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=environment_with_threads(**given),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout) == expected


def test_default_tables_equal_a_one_thread_run(tmp_path):
    # full-precision columns move with the BLAS thread count, so the
    # default run must be the one-thread run, byte for byte
    start, end = date(1960, 1, 1), date(2017, 12, 31)
    days = (end - start).days + 1
    rng = np.random.default_rng(11)
    tmin = rng.integers(20, 70, size=days)
    path = tmp_path / "out" / "series" / "FUL.csv"
    path.parent.mkdir(parents=True)
    series_mod.write_series_csv(
        series_mod.build_series(tmin + rng.integers(5, 30, size=days), tmin, start, end), path
    )
    config = tmp_path / "run.cfg"
    config.write_text(f"output_dir = {tmp_path / 'out'}\n\n[stations]\nFUL USW00099909 Full-Window-City\n")
    tables_dir = tmp_path / "out" / "tables"

    def tables(**threads: str) -> dict[str, bytes]:
        subprocess.run(
            [sys.executable, "-m", "tempdyn.cli", "tables", "--config", str(config)],
            env=environment_with_threads(**threads),
            capture_output=True,
            check=True,
        )
        return {p.name: p.read_bytes() for p in tables_dir.iterdir()}

    default = tables()
    assert sorted(default) == ["table_avg.csv", "table_avg.txt", "table_dtr.csv", "table_dtr.txt"]
    assert tables(OPENBLAS_NUM_THREADS="1") == default
