"""``repro-spc serve`` in a subprocess, for tests of the real command.

:class:`Served` starts the CLI (``--port 0``) in its own process group,
reads the address off its ``serving ...`` line and stops it with
``SIGTERM`` (or the whole group with ``SIGKILL``).  With
``--workers 2`` the process it starts is the supervisor, and the one
answering child is below it; :meth:`Served.child_pid` asks the child
itself over ``/stats``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
_SERVING = re.compile(r"serving .* on http://([0-9.]+):(\d+)")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def request(host, port, method, path, payload=None, headers=None,
            timeout=30.0):
    """One request on its own connection: ``(status, headers, body)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class Served:
    """One ``repro-spc serve`` process (a supervisor with ``--workers``).

    ``args`` follow ``serve``; ``launcher`` replaces ``-m repro.cli``
    (a script path, say, that patches the server before it runs).
    """

    def __init__(self, args: Sequence[str], log_path,
                 launcher: Sequence[str] = ("-m", "repro.cli")) -> None:
        self.log_path = Path(log_path)
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, *launcher, "serve", *map(str, args),
                 "--port", "0"],
                stdout=log, stderr=subprocess.STDOUT, env=cli_env(),
                start_new_session=True,
            )
        self.host, self.port = "127.0.0.1", 0
        try:
            self._await_serving()
        except BaseException:
            self.kill()
            raise

    def _await_serving(self, timeout: float = 90.0) -> None:
        deadline = time.time() + timeout
        while time.time() < deadline:
            text = self.log_path.read_text()
            match = _SERVING.search(text)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.05)
        raise AssertionError(f"serve did not start:\n{self.log}")

    @property
    def log(self) -> str:
        return self.log_path.read_text()

    @property
    def address(self):
        return self.host, self.port

    def request(self, method, path, payload=None, headers=None,
                timeout=30.0):
        return request(self.host, self.port, method, path, payload,
                       headers, timeout)

    def json(self, method, path, payload=None):
        status, _, body = self.request(method, path, payload)
        assert status == 200, (path, status, body[:300])
        return json.loads(body)

    def stats(self) -> dict:
        return self.json("GET", "/stats")

    def counters(self) -> dict:
        return self.json("GET", "/metrics")["counters"]

    def child_pid(self) -> int:
        """The answering child's pid (it reports its own)."""
        return self.stats()["supervisor"]["pid"]

    def wait_for(self, predicate, timeout: float = 60.0,
                 interval: float = 0.1):
        """Poll ``predicate()`` until it is truthy; its value, or
        ``None`` past ``timeout`` (request errors count as falsy)."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            try:
                value = predicate()
            except (OSError, http.client.HTTPException):
                value = None
            if value:
                return value
            time.sleep(interval)
        return None

    def wait_generation(self, generation: int, timeout: float = 60.0):
        """The ``/stats`` of a child at ``generation`` or later."""
        def respawned():
            stats = self.stats()
            if stats["supervisor"]["generation"] >= generation:
                return stats
            return None

        stats = self.wait_for(respawned, timeout)
        assert stats is not None, f"no generation {generation}:\n{self.log}"
        return stats

    def stop(self, timeout: float = 60.0) -> Optional[int]:
        """SIGTERM; the exit code (the group is killed past ``timeout``)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            return None
        finally:
            self.kill()

    def kill(self) -> None:
        """SIGKILL the whole process group (supervisor and child)."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group is gone already
        self.process.wait(30)

    def __enter__(self) -> "Served":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
