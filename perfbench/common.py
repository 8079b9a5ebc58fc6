"""Shared helpers: paths, program processes, and order statistics."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

#: Program processes run with a fixed hash seed: work counts do not depend
#: on it, but wall time varied by about 20% from one hash seed to another.
HASH_SEED = "0"

#: The calibration loop's length, and its duration at the reference speed.
_CALIBRATION_ITERATIONS = 20_000
CALIBRATION_REFERENCE_MS = 4.0

#: Set-ups per run: each program process is set up, then measured for an
#: equal share of the run; set-up time is the median over them.
SEGMENTS = 3


def program_available() -> bool:
    """True when the program's sources are present beside the benchmark."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def program_env() -> dict:
    """Environment of a program process: default engine, fixed hash seed."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def work_path(name: str) -> str:
    """A scratch file under the benchmark's own ignored work directory."""
    os.makedirs(WORK, exist_ok=True)
    return os.path.join(WORK, name)


class ProgramProcess:
    """One program process, reaped with its resource usage.

    ``peak_rss_mb`` is the process's own peak resident set, read from the
    kernel's accounting when it is reaped.
    """

    def __init__(self, argv: Sequence[str], log_name: str, stdout=subprocess.DEVNULL):
        self.log_path = work_path(log_name)
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=program_env(),
            stdout=stdout, stderr=self._log, stdin=subprocess.DEVNULL,
        )
        self.peak_rss_mb: Optional[float] = None
        self.status: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        """True while the process runs (checked without reaping it)."""
        if self.status is not None:
            return False
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        return os.waitid(os.P_PID, self.pid, flags) is None

    def reap(self, timeout: float) -> int:
        """Wait for the process to end (killing it after ``timeout``)."""
        if self.status is not None:
            return self.status
        timer = threading.Timer(timeout, self.signal_kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = self.status = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._log.close()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.status

    def interrupt(self, timeout: float = 30.0) -> int:
        """Stop with ``SIGINT`` (the service's clean shutdown) and reap."""
        if self.status is None:
            try:
                os.kill(self.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
        return self.reap(timeout)

    def signal_kill(self) -> None:
        """Send ``SIGKILL`` (safe from a watchdog thread; reaping stays here)."""
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def kill(self) -> None:
        """Kill and reap (used on every error path)."""
        if self.status is None:
            self.signal_kill()
            self.reap(30.0)

    def log_tail(self, lines: int = 20) -> str:
        with open(self.log_path, "rb") as handle:
            return b"".join(handle.readlines()[-lines:]).decode("utf-8", "replace")


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes on this core right now.

    The host's cores alternate between two speeds about 1.6x apart, from
    second to second and from minute to minute, as other tenants come and
    go; this loop slows down with them, so operation times divided by it
    read the same on a slow and a fast stretch.
    """
    start = time.perf_counter()
    table = {}
    for i in range(_CALIBRATION_ITERATIONS):
        key = i % 977
        table[key] = table.get(key, 0) + i
    return (time.perf_counter() - start) * 1000.0


def pin_to_one_core() -> None:
    """Run this process and every process it starts on one core.

    The client and the server of the closed loop never compute at the same
    time, and the calibration loop then times the core the program runs on.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    return statistics.quantiles(values, n=4)
