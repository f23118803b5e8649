"""Server processes of a run, and what ``/proc`` says about them and the host."""

from __future__ import annotations

import contextlib
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

PYTHON = sys.executable
_SERVING = re.compile(rb"serving .* on http://([0-9.]+):(\d+)")


class Server:
    """One ``repro-spc serve`` process (router plus any fleet workers)."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str],
                 log_path: Path, cpus: Optional[Set[int]] = None) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            list(argv), stdout=self._log, stderr=subprocess.STDOUT, env=env,
            # Set before exec, so every thread the server starts inherits it.
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        self.host = "127.0.0.1"
        self.port = 0
        self.pids: List[int] = []

    def wait_serving(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _SERVING.search(self.log_path.read_bytes())
            if match:
                self.host = match.group(1).decode()
                self.port = int(match.group(2))
                self.pids = [self.proc.pid] + descendants(self.proc.pid)
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(
            "server did not start: "
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def get_json(self, path: str) -> dict:
        url = f"http://{self.host}:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        """SIGTERM the server, wait for it and every process it started."""
        pids = set(self.pids) | set(descendants(self.proc.pid))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 30
        for pid in pids - {self.proc.pid}:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.02)
        self._log.close()


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def descendants(root: int) -> List[int]:
    """Every live process below ``root`` (fleet workers and helpers)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    out, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.append(child)
            stack.append(child)
    return out


def cpu_seconds(pids: Sequence[int]) -> float:
    """CPU time of ``pids``, all threads, in seconds.

    Summed from ``/proc/<pid>/task/<tid>/schedstat`` (nanoseconds on a
    CPU, user plus system) rather than ``/proc/<pid>/stat``, whose 10 ms
    ticks are too coarse for one window of a 200 requests/s phase.
    """
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except (FileNotFoundError, ProcessLookupError):
            continue
        for tid in tids:
            try:
                text = Path(f"/proc/{pid}/task/{tid}/schedstat").read_text()
            except (FileNotFoundError, ProcessLookupError):
                continue
            total += int(text.split()[0])
    return total / 1e9


def pss_mb(pids: Sequence[int]) -> float:
    """Summed proportional set size: shared mmap pages are split, not doubled."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        match = re.search(r"^Pss:\s+(\d+) kB", text, re.M)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024


def cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor stole between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already inside user/nice
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def load_average() -> float:
    return float(Path("/proc/loadavg").read_text().split()[0])


class HostProbe:
    """A fixed pure-Python loop, timed in CPU time every ``interval_s``.

    A host diagnostic: it runs inside the client's event loop beside the
    load (about 1 ms of work per 100 ms), so each sample says how fast
    this host ran Python at that moment; when it swings, the host is
    swinging too.
    """

    def __init__(self, interval_s: float = 0.1, iterations: int = 20_000):
        self.interval_s = interval_s
        self.iterations = iterations
        self.samples: List[tuple] = []

    async def run(self) -> None:
        import asyncio

        while True:
            started = time.thread_time()
            acc = 0
            for i in range(self.iterations):
                acc += i & 7
            spent = time.thread_time() - started
            self.samples.append((time.perf_counter(),
                                 spent / self.iterations * 1e9))
            await asyncio.sleep(self.interval_s)

    def median_ns(self, start: float = 0.0, end: float = float("inf")) -> float:
        values = [ns for at, ns in self.samples if start <= at < end]
        return statistics.median(values) if values else 0.0


@contextlib.contextmanager
def pinned(cpus: Optional[Set[int]]):
    """Run this process on ``cpus`` meanwhile (no-op for ``None``)."""
    if not cpus:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """``(server CPUs, client CPUs)``: the last CPU for the client."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


def python_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
