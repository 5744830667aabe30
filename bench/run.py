"""The tempdyn benchmark: CLI workloads on a seeded, archive-like corpus.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the benchmark runs ``src/tempdyn``
of that checkout and nothing installed. Each run generates the corpus from
``--seed`` (see ``corpus.py``), writes it into a fresh cache under
``bench/.work/`` and, for ``tables`` and ``figures``, runs ``ingest`` on the
stations they need as an untimed prerequisite. The endpoint points at a closed local port, so a
cache miss fails at once instead of reaching the network.

Workloads (the packaged station list: 15 active stations, 1960-2017):

- ``ingest-15x58y``: ``tempdyn ingest`` on the warm cache; the only workload
  where ``ghcn`` and the write side of ``series`` work.
- ``tables-15x58y``: ``tempdyn tables --variable both``; ``models`` and
  ``regression`` (60 HAC fits on a thread pool) and the read side of
  ``series``.
- ``figures-5x58y``: ``tempdyn figures --station`` for five seeded stations in
  sequence; interpreter start, ``density.kde``, seasonal fits and figure
  CSV writes.

``--trace 0`` runs each command as a child process (cold interpreter, warm
page cache), repeating the workload for at least ``--seconds`` and at least
twice, and reports medians over the repetitions. Before each repetition the
outputs of the previous one are removed, so every repetition is checked on
what it wrote itself. The metrics are ``wall_s`` (the workload's
commands), ``cpu_s`` (user+sys of the children, from ``os.wait4`` per
child), ``max_rss_mb`` (peak RSS of the largest child, MiB) and ``setup_s``
(median of two set-ups: corpus generation plus the prerequisite
``ingest``). The benchmark's own numpy work runs on one BLAS thread; the
commands get the caller's BLAS threading.

``--trace 1`` runs the same commands inside a child process, alternately
untraced and traced by ``layers.Tracer`` (a fresh process each), and reports
the per-layer metrics of ``layers.metric_names()``; ``cli.import_s`` comes
from fresh interpreters and ``models.batch_report.serial_s`` from a
single-threaded subprocess.

Every output is checked (``oracle.py``); a station-operation whose command
exits non-zero, prints a ``FAILED`` line or writes a wrong output counts as
failed, and ``failed / attempted`` is the error rate. At the default seed
the rounded table columns must also equal ``reference.json``, which holds
what the program wrote at that seed when this benchmark was defined, after
it passed the oracle.

The last line of standard output is the JSON result; the line before it is
the full record (environment, corpus statistics, samples, error rate).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The benchmark's own numpy work (corpus, oracle) uses one BLAS thread: idle
# OpenBLAS helper threads spin for a while after each call and would take CPU
# from the command measured next. Children get the caller's environment as it
# was, BLAS threading included. This must precede the first numpy import.
USER_ENV = dict(os.environ)
os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import corpus as corpus_mod  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = SRC / "tempdyn" / "data" / "stations.cfg"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 2
MIN_REPS = 2
IMPORT_REPEATS = 3
DEADLINE_S = 175
UNREACHABLE = "http://127.0.0.1:9"
WORKLOADS = ("ingest-15x58y", "tables-15x58y", "figures-5x58y")
VARIABLES = ("avg", "dtr")


class Deadline(Exception):
    pass


@dataclass
class Command:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stderr: str


@dataclass
class Plan:
    workload: str
    codes: list[str]
    figure_codes: list[str]

    def prerequisite(self) -> list[str]:
        """Stations ``ingest`` must have written before the timed commands."""
        if self.workload == "tables-15x58y":
            return self.codes
        if self.workload == "figures-5x58y":
            return self.figure_codes
        return []

    def commands(self) -> list[list[str]]:
        if self.workload == "ingest-15x58y":
            return [["ingest"]]
        if self.workload == "tables-15x58y":
            return [["tables", "--variable", "both"]]
        return [["figures", "--station", code] for code in self.figure_codes]

    def outputs(self, out: Path) -> list[Path]:
        """What the timed commands write; removed before each repetition."""
        if self.workload == "ingest-15x58y":
            return [out / "series", out / "manifest.json"]
        if self.workload == "tables-15x58y":
            return [out / "tables"]
        return [out / "figures" / code for code in self.figure_codes]

    def operations(self) -> list[str]:
        if self.workload == "tables-15x58y":
            return [f"{v} {code}" for v in VARIABLES for code in self.codes]
        return list(self.figure_codes if self.workload == "figures-5x58y" else self.codes)


def child_env(cache: Path, **extra: str) -> dict[str, str]:
    return dict(
        USER_ENV, PYTHONPATH=str(SRC), TEMPDYN_CACHE_DIR=str(cache),
        TEMPDYN_ENDPOINT=UNREACHABLE, **extra,
    )


def spawn(argv: list[str], work: Path, env: dict[str, str]) -> tuple[int, str, str]:
    """Run one child to completion in its own process group: (returncode, stdout, stderr)."""
    with open(work / "stdout.txt", "w+b") as out, open(work / "stderr.txt", "w+b") as err:
        process = subprocess.Popen(
            argv, cwd=work, env=env, stdout=out, stderr=err, start_new_session=True
        )
        try:
            returncode = process.wait()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
        out.seek(0)
        err.seek(0)
        return returncode, out.read().decode(errors="replace"), err.read().decode(errors="replace")


def cli_command(args: list[str], out: Path, work: Path, cache: Path) -> Command:
    """One ``tempdyn`` command, measured by ``launch.py`` (see there why)."""
    result = work / "command.json"
    result.unlink(missing_ok=True)
    argv = [
        sys.executable, "-S", str(BENCH / "launch.py"), str(result),
        sys.executable, "-m", "tempdyn.cli", *args, "--out", str(out),
    ]
    returncode, _, stderr = spawn(argv, work, child_env(cache))
    if returncode != 0 or not result.exists():
        raise RuntimeError(f"launcher failed: {stderr[-500:]}")
    measured = json.loads(result.read_text())
    return Command(measured["wall"], measured["cpu"], measured["rss_mb"], measured["returncode"], stderr)


class Gate:
    """Checks the outputs of every repetition; the oracle runs once per station."""

    def __init__(self, corpus: corpus_mod.Corpus, plan: Plan, seed: int):
        self.corpus = corpus
        self.plan = plan
        self.problems: list[str] = []
        self.reference = None
        if seed == DEFAULT_SEED:
            stored = json.loads(REFERENCE.read_text())
            if stored["corpus_sha256"] != corpus.sha256:
                self.problems.append("default-seed corpus differs from reference.json")
            self.reference = stored["tables"]
        self._expected: dict[str, object] = {}

    def _want(self, key: str, make, *args):
        if key not in self._expected:
            self._expected[key] = make(*args)
        return self._expected[key]

    def failures(self, out: Path, commands: list[Command]) -> set[str]:
        """Failed station-operations of one repetition."""
        operations = self.plan.operations()
        failed = set()
        for command, args in zip(commands, self.plan.commands()):
            named = {
                op for op in operations
                for line in command.stderr.splitlines()
                if "FAILED" in line and line.startswith(f"{op}:")
            }
            if command.returncode != 0 and not named:
                named = set(operations) if args[0] != "figures" else {args[-1]}
            failed |= named
        return failed | self._wrong_outputs(out)

    def _wrong_outputs(self, out: Path) -> set[str]:
        wrong = set()
        if self.plan.workload == "tables-15x58y":
            for variable in VARIABLES:
                want = self._want(variable, oracle.table_oracle, self.corpus, self.plan.codes, variable)
                reference = self.reference[variable] if self.reference is not None else None
                bad = oracle.check_table(out / "tables" / f"table_{variable}.csv", want, reference)
                # a wrong median row fails every station it summarises
                wrong |= {f"{variable} {code}" for code in (self.plan.codes if "Median" in bad else bad)}
        elif self.plan.workload == "ingest-15x58y":
            for code in self.plan.codes:
                want = self._want(code, oracle.series_oracle, self.corpus.truth(code))
                if not oracle.check_series(out / "series" / f"{code}.csv", want):
                    wrong.add(code)
        else:
            for code in self.plan.figure_codes:
                want = self._want(code, oracle.figure_oracle, self.corpus.truth(code))
                if not oracle.check_figures(out / "figures" / code, want):
                    wrong.add(code)
        return wrong


def set_up(plan: Plan, seed: int, stations, target: Path):
    """Generate the corpus and run the prerequisite ``ingest``.

    Returns the corpus and the prerequisite's error output (empty when it
    succeeded or there is none).
    """
    cache = target / "cache"
    corpus = corpus_mod.generate(seed, stations, cache)
    codes = plan.prerequisite()
    if not codes:
        return corpus, ""
    argv = [sys.executable, "-m", "tempdyn.cli", "ingest", "--out", str(target / "out")]
    argv += [a for code in codes for a in ("--station", code)]
    returncode, _, stderr = spawn(argv, target, child_env(cache))
    return corpus, f"exit {returncode}: {stderr}" if returncode else ""


def clear(paths: list[Path]) -> None:
    for path in paths:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)


def flush(directory: Path) -> None:
    """Write the set-up's files back to disk, so writeback does not overlap timing."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def summarise(values: list[float]) -> dict:
    """Median with sample count, and the highest percentile that has at
    least ten samples beyond it when the sample allows one."""
    summary = {"median": median(values), "n": len(values), "values": values}
    if len(values) >= 20:
        percentile = int(100 * (1 - 10 / len(values)))
        summary[f"p{percentile}"] = float(np.percentile(values, percentile))
    return summary


def environment() -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {name: USER_ENV.get(name) for name in THREAD_VARIABLES},
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            git = ["git", "-C", str(ROOT)]
            record["git_commit"] = subprocess.check_output(git + ["rev-parse", "HEAD"], text=True).strip()
            status = subprocess.check_output(git + ["status", "--porcelain"], text=True)
            record["git_dirty"] = bool(status.strip())
    return record


def run_untraced(plan: Plan, seed: int, seconds: int, stations, work: Path, record: dict):
    started = time.perf_counter()
    setups, digests = [], set()
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        begin = time.perf_counter()
        corpus, errors = set_up(plan, seed, stations, target)
        setups.append(time.perf_counter() - begin)
        digests.add(corpus.sha256)
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    flush(target)
    gate = Gate(corpus, plan, seed)
    if len(digests) != 1:
        gate.problems.append("corpus generation is not deterministic")
    if errors:
        gate.problems.append(f"prerequisite ingest failed: {errors[-500:]}")
    cache, out = target / "cache", target / "out"

    walls, cpus, rsses = [], [], []
    attempted = failed = 0
    measure_start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - measure_start < seconds:
        if walls and time.perf_counter() - started + walls[-1] > DEADLINE_S - 20:
            break
        clear(plan.outputs(out))
        commands = [cli_command(args, out, target, cache) for args in plan.commands()]
        walls.append(sum(c.wall for c in commands))
        cpus.append(sum(c.cpu for c in commands))
        rsses.append(max(c.rss_mb for c in commands))
        attempted += len(plan.operations())
        failed += len(gate.failures(out, commands))

    metrics = {
        "wall_s": {"value": median(walls), "unit": "s"},
        "cpu_s": {"value": median(cpus), "unit": "s"},
        "max_rss_mb": {"value": median(rsses), "unit": "MiB"},
        "setup_s": {"value": median(setups), "unit": "s"},
    }
    record["samples"] = {
        "wall_s": summarise(walls), "cpu_s": summarise(cpus),
        "max_rss_mb": summarise(rsses), "setup_s": summarise(setups),
    }
    return corpus, gate, attempted, failed, metrics


def run_traced(plan: Plan, seed: int, seconds: int, stations, work: Path, record: dict):
    started = time.perf_counter()
    corpus, errors = set_up(plan, seed, stations, work)
    flush(work)
    gate = Gate(corpus, plan, seed)
    if errors:
        gate.problems.append(f"prerequisite ingest failed: {errors[-500:]}")
    cache, out = work / "cache", work / "out"

    probe = "import time; t = time.perf_counter(); import tempdyn.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(IMPORT_REPEATS):
        returncode, stdout, stderr = spawn([sys.executable, "-c", probe], work, child_env(cache))
        if returncode != 0:
            raise RuntimeError(f"import tempdyn.cli failed: {stderr[-500:]}")
        imports.append(float(stdout.strip().splitlines()[-1]))

    untraced, traced, per_rep, absent = [], [], [], set()
    attempted = failed = 0
    measure_start = time.perf_counter()
    while not traced or time.perf_counter() - measure_start < seconds:
        if traced and time.perf_counter() - started + 2 * traced[-1] > DEADLINE_S - 30:
            break
        # a fresh process for each, alternating which goes first
        for traced_run in (False, True) if len(traced) % 2 == 0 else (True, False):
            clear(plan.outputs(out))
            spec = {"commands": plan.commands(), "out": str(out), "traced": traced_run}
            argv = [sys.executable, str(BENCH / "layers.py"), "run", json.dumps(spec)]
            returncode, stdout, stderr = spawn(argv, work, child_env(cache))
            if returncode != 0:
                raise RuntimeError(f"traced run failed: {stderr[-500:]}")
            result = json.loads(stdout.strip().splitlines()[-1])
            commands = [Command(c["wall"], 0.0, 0.0, c["returncode"], c["stderr"]) for c in result["commands"]]
            (traced if traced_run else untraced).append(sum(c.wall for c in commands))
            attempted += len(plan.operations())
            failed += len(gate.failures(out, commands))
            if traced_run:
                per_rep.append(result["metrics"])
                absent.update(result["absent"])

    values = {name: median(rep[name] for rep in per_rep) for name in layers.metric_names()}
    values["cli.import_s"] = median(imports)
    values["trace.overhead_s"] = median(traced) - median(untraced)
    if plan.workload == "tables-15x58y":
        pinned = child_env(cache, **dict.fromkeys(THREAD_VARIABLES, "1"))
        argv = [sys.executable, str(BENCH / "layers.py"), "serial", str(out / "series"), *plan.codes]
        returncode, stdout, stderr = spawn(argv, work, pinned)
        if returncode != 0:
            raise RuntimeError(f"serial batch_report failed: {stderr[-500:]}")
        values["models.batch_report.serial_s"] = json.loads(stdout.strip().splitlines()[-1])["serial_s"]

    metrics = {name: {"value": value, "unit": layers.unit(name)} for name, value in values.items()}
    record["samples"] = {"traced_wall_s": summarise(traced), "untraced_wall_s": summarise(untraced)}
    record["absent"] = sorted(absent)
    record["moves"] = layers.MOVES
    return corpus, gate, attempted, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()
    if options.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "tempdyn" / "cli.py").is_file() or not CONFIG.is_file():
        print(f"no tempdyn sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    def expire(signum, frame):
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    stations = corpus_mod.read_stations(CONFIG)
    codes = [code for code, _ in stations]
    pick = np.random.default_rng(options.seed).choice(len(codes), size=5, replace=False)
    plan = Plan(options.workload, codes, [codes[i] for i in sorted(pick)])
    work = BENCH / ".work" / f"{options.workload}-{options.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    record = {
        "workload": options.workload, "seed": options.seed, "seconds": options.seconds,
        "trace": options.trace, "environment": environment(),
    }
    try:
        # compile bytecode and warm the page cache before anything is timed
        returncode, _, stderr = spawn([sys.executable, "-c", "import tempdyn.cli"], work, child_env(work))
        if returncode != 0:
            print(f"cannot import tempdyn.cli:\n{stderr}", file=sys.stderr)
            return 2
        run = run_traced if options.trace else run_untraced
        corpus, gate, attempted, failed, metrics = run(
            plan, options.seed, options.seconds, stations, work, record
        )
    except Deadline as exc:
        print(str(exc), file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    record.update(
        corpus_sha256=corpus.sha256, corpus_stats=corpus.stats, figure_stations=plan.figure_codes,
        attempted=attempted, failed=failed, error_rate=failed / attempted, problems=gate.problems,
    )
    for name, metric in metrics.items():
        print(f"{options.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{options.workload} error_rate = {failed}/{attempted}")
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0 and not gate.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
