"""Running yflow jobs: as child processes for the end-to-end numbers, in process for the trace.

Every job runs with ``PYTHONPATH=src`` (the console script is not
installed) and ``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1``; the only
parallelism is the sweep's own process pool.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    env.pop("YFLOW_OUT", None)
    return env


@dataclass
class Job:
    code: int
    seconds: float          # spawn to exit
    rss_mb: float           # ru_maxrss of the child and the workers it reaped
    stdout: str


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def spawn(args: Sequence[str], log_dir: Path, timeout: float) -> Job:
    """Run ``python <args>`` to completion; SIGKILL its process group on timeout."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=job_env(),
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait for anything left in the group (killed pool workers) to go
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except (ProcessLookupError, PermissionError):
            break
        _kill_group(proc.pid)
        time.sleep(0.05)
    stdout = (log_dir / "stdout.txt").read_text(encoding="utf-8", errors="replace")
    return Job(proc.returncode, seconds, usage.ru_maxrss / 1024.0, stdout)


def yflow(args: Sequence[str], log_dir: Path, timeout: float) -> Job:
    return spawn(["-m", "yflow.cli", *args], log_dir, timeout)


def in_process(args: Sequence[str], log_dir: Path) -> Job:
    """``yflow.cli.main(args)`` in this process, looked up at call time so a tracer sees it."""
    log_dir.mkdir(parents=True, exist_ok=True)
    cli = importlib.import_module("yflow.cli")
    with open(log_dir / "stdout.txt", "w", encoding="utf-8") as out, \
            open(log_dir / "stderr.txt", "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(args))
        seconds = time.perf_counter() - t0
    return Job(code, seconds, 0.0, (log_dir / "stdout.txt").read_text(encoding="utf-8"))


@dataclass
class Tally:
    """Jobs attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
