"""``serve --workers N``: one answering server under a small supervisor.

A CTLS query is one scan of the LCA node's labels, so one process
answers every query; replicas of the same index add memory and update
fan-out, not scan parallelism.  ``repro-spc serve --workers N`` (any
``N >= 2``) therefore runs exactly one
:class:`~repro.serve.server.SPCServer` — with its live tier, WAL
recovery, result cache and breaker — as a child process, and a
:class:`FleetRouter` supervisor in the foreground:

* it binds the listening socket once and hands it to every child it
  starts, so the port and the connections waiting in its accept
  backlog survive a respawn;
* it forwards ``SIGTERM``/``SIGINT`` (drain and exit) and ``SIGHUP``
  (reload) to the child;
* it probes the child every ``probe_interval_s``: a process that exits
  is seen at once, and one that answers no ``GET /health`` for
  ``_PROBE_STRIKES`` probes in a row is killed;
* it respawns a dead child after a capped exponential backoff
  (``respawn_backoff_s`` doubling up to ``respawn_backoff_max_s``).  A
  child that dies ``flap_max_restarts`` times within ``flap_window_s``
  trips the flap circuit: the supervisor gives up and exits non-zero.

The child is the supervisor's own command line run again, so a
launcher script that patches the server at import patches it too.  It
inherits the listening socket and its end of a socket pair, the report
channel, which closes when either side exits; the internal environment
entry :data:`_HANDOFF` names both, its generation (0, then +1 per
respawn, shown in ``/stats`` and ``/health``) and its index file.

A respawn serves exactly what the child it replaces served.  A static
child reports every committed reload on its channel, and its
replacement opens the last reported file.  A live child logs every
acknowledged batch to ``--wal-dir`` (required with ``--workers``), and
its replacement recovers them, on the rebuilt base the log pins.  A
child whose supervisor is gone drains and exits.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Callable, List, Optional

from repro.exceptions import ReproError
from repro.serve.config import ServeConfig

#: Consecutive liveness probes a live child may fail before it is
#: killed as wedged (and respawned).
_PROBE_STRIKES = 3

#: Seconds a child may take to report that it serves.
_START_TIMEOUT_S = 120.0

#: Seconds a draining child may take past its ``drain_grace_s`` before
#: it is killed.
_STOP_MARGIN_S = 30.0

#: Accept backlog of the listening socket (asyncio's default).
_BACKLOG = 100

#: Internal, not a setting: the supervisor hands its child ``"<socket
#: fd> <channel fd> <generation> <index path>"`` in this environment
#: entry, which :meth:`Supervised.inherited` removes.
_HANDOFF = "REPRO_SPC_SUPERVISED"


class FleetError(ReproError):
    """The supervised server could not be started."""


class Supervised:
    """The child's side of the supervisor: the listening socket it
    serves on, its generation, the channel it reports on (its end of a
    socket pair, one JSON array a line) and the index file it opens."""

    def __init__(self, sock: socket.socket, generation: int,
                 channel: socket.socket, index_path: str = "") -> None:
        self.socket = sock
        self.generation = generation
        self.index_path = index_path
        self._channel = channel

    @classmethod
    def inherited(cls) -> Optional["Supervised"]:
        """The handoff of the supervisor that started this process,
        taken out of the environment; ``None`` without one."""
        handoff = os.environ.pop(_HANDOFF, None)
        if handoff is None:
            return None
        listen_fd, channel_fd, generation, index_path = handoff.split(" ", 3)
        return cls(socket.socket(fileno=int(listen_fd)), int(generation),
                   socket.socket(fileno=int(channel_fd)), index_path)

    def report(self, *message) -> None:
        """Send ``message`` to the supervisor (a gone one is ignored)."""
        try:
            self._channel.sendall(json.dumps(message).encode() + b"\n")
        except OSError:
            pass

    def on_orphaned(self, loop, callback: Callable[[], None]) -> None:
        """Call ``callback`` on ``loop`` once the supervisor is gone.

        The supervisor never writes to the channel, so its end becomes
        readable only when it closes: when the supervisor exits."""
        fd = self._channel.fileno()

        def readable() -> None:
            loop.remove_reader(fd)
            callback()

        loop.add_reader(fd, readable)


class FleetRouter:
    """The supervisor of ``serve --workers N``.  Each child runs this
    process's own command line, which must be a ``repro-spc serve``."""

    def __init__(
        self,
        index_path: str,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.config = config or ServeConfig()
        #: The file a respawned child opens: the last committed reload's.
        self.index_path = str(index_path)
        self.host = self.config.host
        self.port = self.config.port
        #: The child's incarnation: 0 for the first spawn, +1 per respawn.
        self.generation = 0
        self.process: Optional[subprocess.Popen] = None
        self._channel: Optional[socket.socket] = None
        #: The start of a report line the channel has not completed.
        self._unread = b""
        self._socket: Optional[socket.socket] = None
        #: Recent child deaths (monotonic) inside the flap window.
        self._deaths: List[float] = []
        #: When a drain started (monotonic), or ``None``.
        self._stopping: Optional[float] = None

    def start(self) -> "FleetRouter":
        """Bind the port and spawn the first child; returns once it
        serves.  Raises :class:`FleetError` if it could not start."""
        family = socket.AF_INET6 if ":" in self.config.host else socket.AF_INET
        self._socket = socket.create_server(
            (self.config.host, self.config.port), family=family,
            backlog=_BACKLOG,
        )
        self.host, self.port = self._socket.getsockname()[:2]
        try:
            self._spawn()
        except BaseException:
            self._socket.close()
            raise
        return self

    def run(self) -> int:
        """Start, then supervise until the child drains (exit code 0)
        or the flap circuit trips (1)."""
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, self._on_signal)
        self.start()
        try:
            return self._supervise()
        finally:
            self._socket.close()

    def _on_signal(self, signum, _frame) -> None:
        if signum != signal.SIGHUP and self._stopping is None:
            self._stopping = time.monotonic()
        if self.process is not None:
            self.process.send_signal(signum)

    # ------------------------------------------------------------------
    # the child
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        if self._channel is not None:
            self._channel.close()
        self._channel, child_end = socket.socketpair()
        self._unread = b""
        fds = (self._socket.fileno(), child_end.fileno())
        handoff = f"{fds[0]} {fds[1]} {self.generation} {self.index_path}"
        with child_end:
            self.process = subprocess.Popen(
                [sys.executable, *sys.orig_argv[1:]],
                stdin=subprocess.DEVNULL, pass_fds=fds,
                env={**os.environ, _HANDOFF: handoff},
            )
        error = self._await_ready()
        if error is not None:
            raise FleetError(error)

    def _read(self, timeout: float) -> Optional[list]:
        """The child's reports that arrive within ``timeout`` seconds;
        ``None`` once its end of the channel is closed: it exited."""
        if not select.select([self._channel], [], [], timeout)[0]:
            return []
        data = self._channel.recv(65536)
        if not data:
            return None
        *lines, self._unread = (self._unread + data).split(b"\n")
        return [json.loads(line) for line in lines]

    def _await_ready(self) -> Optional[str]:
        """``None`` once the child reports that it serves, else why not."""
        deadline = time.monotonic() + _START_TIMEOUT_S
        error = None
        while (left := deadline - time.monotonic()) > 0:
            messages = self._read(left)
            if messages is None:
                code = self.process.wait()
                return error or (
                    f"the server exited with code {code} before it served"
                )
            for message in messages:
                if message[0] == "ready":
                    return None
                if message[0] == "error":
                    error = message[1]
        self.process.kill()
        return error or (
            f"the server did not serve within {_START_TIMEOUT_S:.0f}s"
        )

    def _probe(self) -> bool:
        """Whether ``GET /health`` on the served port gets a status line."""
        timeout = max(1.0, self.config.probe_interval_s)
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=timeout
            ) as probe:
                probe.sendall(
                    b"GET /health HTTP/1.1\r\nHost: supervisor\r\n"
                    b"Connection: close\r\n\r\n"
                )
                return probe.recv(9).startswith(b"HTTP/1.1 ")
        except OSError:
            return False

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _supervise(self) -> int:
        """Watch the child: probe it, respawn it when it dies; return
        the exit code once a drain ends it (0) or it flaps (1)."""
        interval = self.config.probe_interval_s
        strikes = 0
        while True:
            messages = self._read(interval or 1.0)
            if messages is None:
                self.process.wait()
                strikes = 0
                if self._stopping is not None:
                    return 0
                if not self._respawn():
                    return 1
                continue
            for message in messages:
                if message[0] == "serving":
                    self.index_path = message[1]
                elif message[0] == "error":
                    _say(f"the server failed: {message[1]}")
            if self._stopping is not None:
                limit = self.config.drain_grace_s + _STOP_MARGIN_S
                if time.monotonic() - self._stopping > limit:
                    self.process.kill()
            elif interval and not messages:
                strikes = 0 if self._probe() else strikes + 1
                if strikes >= _PROBE_STRIKES:
                    _say(f"{strikes} liveness probes failed; killing "
                         f"pid {self.process.pid}")
                    self.process.kill()

    def _respawn(self) -> bool:
        """Respawn the dead child after the backoff; ``False`` once the
        flap circuit trips."""
        now = time.monotonic()
        self._deaths = [
            death for death in self._deaths
            if now - death <= self.config.flap_window_s
        ] + [now]
        _say(
            f"the server (pid {self.process.pid}, generation "
            f"{self.generation}) exited with code {self.process.returncode}"
        )
        if len(self._deaths) >= self.config.flap_max_restarts:
            _say(
                f"error: the server died {len(self._deaths)} times within "
                f"{self.config.flap_window_s:g}s; giving up (flap circuit)"
            )
            return False
        time.sleep(min(
            self.config.respawn_backoff_max_s,
            self.config.respawn_backoff_s * 2 ** (len(self._deaths) - 1),
        ))
        if self._stopping is not None:
            return True
        self.generation += 1
        try:
            self._spawn()
        except FleetError as exc:
            # Counted as the next death when the loop sees it dead.
            _say(f"respawn failed: {exc}")
        return True


def _say(text: str) -> None:
    print(f"supervisor: {text}", file=sys.stderr, flush=True)
