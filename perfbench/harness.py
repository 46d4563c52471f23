"""Shared pieces of the benchmark: locating the checkout's sources,
running CLI child processes, counting operations, and the run record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

# What the installed ``causalpanel`` console script runs.
CLI_ENTRY = "import sys; from causalpanel.cli import main; sys.exit(main())"

PROBE = """\
import json, sys
import causalpanel.cli, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as err:
    blas = f"unknown ({err})"
print(json.dumps({"cli": causalpanel.cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""

CHILD_TIMEOUT_S = 170.0

# The host-speed reference: a process that imports numpy, as every CLI
# command does first, but nothing of the package, and exits. On a shared
# host the speed of every process drifts by 20-50 % over minutes, and the
# CLI's commands drift together with this one, so times are scaled by
# REFERENCE_NOMINAL_S / (the run's median reference time): they read as
# seconds on a host where the reference takes REFERENCE_NOMINAL_S, and a
# change to the package moves them in proportion to the raw times. It
# runs without ``src`` on the path, so no change to the package can
# change it.
REFERENCE_CODE = "import numpy"
# About what the reference took on the machine the benchmark was written
# on (a shared 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
REFERENCE_NOMINAL_S = 0.12

# One BLAS thread in every process that runs the package: its matrices
# are small, and thread hand-offs on a few shared cores only add noise.
# The count is the same on every machine, so records stay comparable.
BLAS_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """The checkout's ``src`` first on the path, and one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(BLAS_ENV)
    return env


@dataclass
class Invocation:
    seconds: float
    returncode: int
    maxrss_mb: float


def run_child(argv: list[str], env: dict[str, str], cwd: str, log_path: str,
              label: str) -> Invocation:
    """Run one child process to completion; its output goes to
    ``log_path`` after a ``$ <label>`` line. Wall time and max RSS are the
    child's alone (``wait4``)."""
    with open(log_path, "ab") as log:
        log.write(f"$ {label}\n".encode())
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(elapsed, proc.returncode, usage.ru_maxrss / 1024.0)


def run_cli(args: list[str], cwd: str, log_path: str) -> Invocation:
    """Run one CLI process, as the ``causalpanel`` console script would."""
    argv = [sys.executable, "-c", CLI_ENTRY, *args]
    return run_child(argv, child_env(), cwd, log_path, "causalpanel " + " ".join(args))


def run_reference(cwd: str, log_path: str) -> Invocation:
    """Run the host-speed reference process (see ``REFERENCE_CODE``)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_ENV)
    return run_child([sys.executable, "-c", REFERENCE_CODE], env, cwd, log_path, "reference")


@dataclass
class Tally:
    """Operations attempted and failed. An operation is one command
    invocation (traced: one in-process ``cli.main`` call or one layer
    pass) and fails on a non-zero exit, an exception, or a failed check."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(f"{what}: {error}")
        return error is None

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def checked(tally: Tally, what: str, check, *args) -> bool:
    """Run one output check; any exception it raises is a failed check."""
    try:
        check(*args)
    except Exception as err:  # a malformed output fails the check, whatever it raises
        return tally.record(what, f"{type(err).__name__}: {err}")
    return tally.record(what, None)


# ---------------------------------------------------------------- record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    """SHA-256 over the package sources, so runs of a checkout without
    git history can still be matched to the code they measured."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def csv_rows(path: str) -> int:
    """Data rows of a CSV file: its lines after the header."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def file_sizes(directory: str) -> dict[str, dict[str, int]]:
    """Rows (for CSVs) and bytes per file."""
    sizes = {}
    for dirpath, _, filenames in os.walk(directory):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            entry = {"bytes": os.path.getsize(path)}
            if name.endswith(".csv"):
                entry["rows"] = csv_rows(path)
            sizes[os.path.relpath(path, directory)] = entry
    return dict(sorted(sizes.items()))


def probe(run_dir: str, log_path: str) -> dict:
    """Import the CLI once in a child (which also compiles the bytecode
    cache) and report where it came from and the library versions."""
    out_path = os.path.join(run_dir, "probe.json")
    with open(out_path, "wb") as out, open(log_path, "ab") as log:
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=run_dir, env=child_env(),
            stdout=out, stderr=log, timeout=CHILD_TIMEOUT_S,
        )
    if proc.returncode != 0:
        raise SystemExit(f"cannot import causalpanel from {SRC} (see {log_path})")
    with open(out_path, encoding="utf-8") as fh:
        info = json.load(fh)
    if not os.path.abspath(info["cli"]).startswith(SRC + os.sep):
        raise SystemExit(f"causalpanel imported from {info['cli']}, not from {SRC}")
    return info


def machine_record(info: dict) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "platform": platform.platform(),
        "python": info["python"],
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "blas": info["blas"],
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
