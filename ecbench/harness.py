"""Shared plumbing: statistics, the host probe, child processes, results.

Child processes (``repro serve``, ``repro route``) start in their own
process group, so the group id also covers the pool workers a node
forks.  :meth:`Daemon.stop` sends SIGTERM, waits, and SIGKILLs whatever
is left of the group, counting each straggler.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def timed_median(fn, items, repeat: int = 1) -> float:
    """Median seconds of ``fn(item)`` over *items* (each run *repeat* times)."""
    samples = []
    for item in items:
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(item)
            samples.append(time.perf_counter() - t0)
    return median(samples)


# ----------------------------------------------------------------------
# host probe
# ----------------------------------------------------------------------
def host_probe_ms() -> float:
    """Time a fixed pure-Python loop (milliseconds).

    The loop does no I/O and touches no program code, so a change in its
    time between runs is the host's speed, not the program's.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += (i * i) % 7
    return (time.perf_counter() - t0) * 1e3


class HostProbe:
    """Probe samples taken around (before, between, after) a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 3) -> None:
        self.samples.extend(host_probe_ms() for _ in range(count))

    @property
    def value(self) -> float:
        return median(self.samples)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Environment for program processes: the checkout's ``src`` first
    on the path, and no auth token or chaos plan inherited by accident."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for key in ("REPRO_AUTH_TOKEN", "REPRO_CHAOS"):
        env.pop(key, None)
    return env


class Daemon:
    """One ``python -m repro <args>`` process that prints its address.

    Args:
        args: the CLI arguments after ``repro``.
        workdir: directory for the process's stdout/stderr logs.
        name: log file stem.
        marker: the stdout line prefix announcing the bound address.
    """

    def __init__(
        self, args: list[str], workdir: str, name: str, marker: str,
        cpus: set[int] | None = None,
    ):
        self.name = name
        self.out_path = os.path.join(workdir, f"{name}.out")
        self.err_path = os.path.join(workdir, f"{name}.err")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                env=child_env(),
                start_new_session=True,
                # Set before exec, so every thread and pool worker of the
                # process inherits it.
                preexec_fn=(
                    (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
                ),
            )
        self.pgid = self.proc.pid
        self.address = self._wait_for(marker)

    def _wait_for(self, marker: str, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.out_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(marker):
                        return line[len(marker):].strip()
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        with open(self.err_path, "r", encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"{self.name} did not start: {tail}")

    def stop(self, grace: float = 15.0) -> int:
        """Stop the process and its group; returns the stragglers killed."""
        stragglers = 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            stragglers += 1
        stragglers += _reap_group(self.pgid)
        return stragglers


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _reap_group(pgid: int, grace: float = 5.0) -> int:
    """Wait for a process group to empty; SIGKILL it if it does not."""
    deadline = time.monotonic() + grace
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return 0
            end = time.monotonic() + grace
            while _group_alive(pgid) and time.monotonic() < end:
                time.sleep(0.05)
            return 1
        time.sleep(0.02)
    return 0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among waited-for child processes (MB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> (value, unit, sample count or None)
    metrics: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int | None = None):
        self.metrics[name] = (float(value), unit, samples)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


def put_end_to_end(
    outcome: Outcome, setups, ops: int, seconds: float, latencies_ms,
    peak_rss_mb: float, shares,
) -> None:
    """The end-to-end metrics of one timed run, in print order."""
    outcome.put("setup_s", median(setups), "s", len(setups))
    outcome.put("ops_per_s", ops / seconds, "ops/s", ops)
    outcome.put("lat_p50_ms", median(latencies_ms), "ms", len(latencies_ms))
    outcome.put("lat_p90_ms", percentile(latencies_ms, 90), "ms", len(latencies_ms))
    outcome.put("lat_p99_ms", percentile(latencies_ms, 99), "ms", len(latencies_ms))
    outcome.put("peak_rss_mb", peak_rss_mb, "MB")
    outcome.put("preserved_pct", 100.0 * mean(shares), "%", len(shares))


def emit(workload: str, seed: int, outcome: Outcome, correct: bool) -> None:
    """Print the human report, then the one-line JSON result last."""
    print(
        f"ecbench {workload} seed={seed}: attempted={outcome.attempted} "
        f"failed={outcome.failed} correct={correct}"
    )
    for note in outcome.notes:
        print(f"  {note}")
    for reason in outcome.failures:
        print(f"  FAILED: {reason}")
    for name, (value, unit, samples) in outcome.metrics.items():
        count = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:32s} {value:14.4f} {unit}{count}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in outcome.metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result, separators=(",", ":")), flush=True)
