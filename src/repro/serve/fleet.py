"""``serve --workers N``: one answering server under a small supervisor.

A CTLS query is one scan of the LCA node's labels, so one process
answers every query; replicas of the same index add memory and update
fan-out, not scan parallelism.  ``repro-spc serve --workers N`` (any
``N >= 2``) therefore runs exactly one
:class:`~repro.serve.server.SPCServer` — with its live tier, WAL
recovery, result cache and breaker — as a child process, and a
:class:`FleetRouter` supervisor in the foreground:

* it binds the listening socket once and hands it to every child it
  spawns (multiprocessing's ``spawn`` start method), so the port and
  the connections waiting in its accept backlog survive a respawn;
* it forwards ``SIGTERM``/``SIGINT`` (drain and exit) and ``SIGHUP``
  (reload) to the child;
* it probes the child every ``probe_interval_s``: a process that exits
  is seen at once, and one that answers no ``GET /health`` for
  ``_PROBE_STRIKES`` probes in a row is killed;
* it respawns a dead child after a capped exponential backoff
  (``respawn_backoff_s`` doubling up to ``respawn_backoff_max_s``).  A
  child that dies ``flap_max_restarts`` times within ``flap_window_s``
  trips the flap circuit: the supervisor gives up and exits non-zero.

A respawn serves exactly what the child it replaces served.  A static
child reports every committed reload over its pipe, and its
replacement opens the last reported file.  A live child logs every
acknowledged batch to ``--wal-dir`` (required with ``--workers``), and
its replacement recovers them, on the rebuilt base the log pins.

The child's end of all this is a :class:`Supervised`: the socket, the
child's generation (0 for the first spawn, +1 per respawn, shown in
``/stats`` and ``/health``) and the pipe.  A child whose supervisor is
gone drains and exits.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
import time
from multiprocessing.connection import wait
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


class FleetError(ReproError):
    """The supervised server could not be started."""


class Supervised:
    """The child's side of the supervisor: the listening socket it
    serves on, its generation and the pipe it reports on.  Picklable
    for the ``spawn`` start method."""

    def __init__(self, sock: socket.socket, generation: int, conn) -> None:
        self.socket = sock
        self.generation = generation
        self._conn = conn

    def report(self, *message) -> None:
        """Send ``message`` to the supervisor (a gone one is ignored)."""
        try:
            self._conn.send(message)
        except OSError:
            pass

    def on_orphaned(self, loop, callback: Callable[[], None]) -> None:
        """Call ``callback`` on ``loop`` once the supervisor is gone.

        The supervisor never writes to the pipe, so its end becomes
        readable only when it closes: when the supervisor exits."""
        fd = self._conn.fileno()

        def readable() -> None:
            loop.remove_reader(fd)
            callback()

        loop.add_reader(fd, readable)


def _child_main(serve, index_path: str, supervised: Supervised) -> None:
    """Entry point of the child process (module-level for spawn).  A
    failure the CLI would print as one ``error:`` line is reported to
    the supervisor instead; any other exception keeps its traceback."""
    try:
        code = serve(index_path, supervised)
    except (ReproError, OSError, ValueError) as exc:
        supervised.report("error", str(exc) or type(exc).__name__)
        code = 1
    sys.exit(code)


class FleetRouter:
    """The supervisor of ``serve --workers N``.

    ``serve(index_path, supervised)`` runs one server in the child until
    it drains and returns its exit code; it must be picklable (a
    module-level function, or a :func:`functools.partial` of one).
    """

    def __init__(
        self,
        index_path: str,
        serve: Callable[[str, Supervised], int],
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.config = config or ServeConfig()
        #: The file a respawned child opens: the last committed reload's.
        self.index_path = str(index_path)
        self.serve = serve
        self.host = self.config.host
        self.port = self.config.port
        #: The child's incarnation: 0 for the first spawn, +1 per respawn.
        self.generation = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self._conn = None
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
        if self.process is not None and self.process.is_alive():
            os.kill(self.process.pid, signum)

    # ------------------------------------------------------------------
    # the child
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        supervised = Supervised(self._socket, self.generation, child_conn)
        self.process = context.Process(
            target=_child_main,
            args=(self.serve, self.index_path, supervised),
            name=f"spc-serve-{self.generation}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._conn = parent_conn
        error = self._await_ready()
        if error is not None:
            raise FleetError(error)

    def _await_ready(self) -> Optional[str]:
        """``None`` once the child reports that it serves, else why not."""
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            wait([self._conn, self.process.sentinel], 0.5)
            try:
                while self._conn.poll():
                    message = self._conn.recv()
                    if message[0] == "ready":
                        return None
                    if message[0] == "error":
                        self.process.join(10.0)
                        return message[1]
            except (EOFError, OSError):
                pass
            if not self.process.is_alive():
                return (
                    f"the server exited with code {self.process.exitcode} "
                    "before it served"
                )
        self.process.kill()
        return f"the server did not serve within {_START_TIMEOUT_S:.0f}s"

    def _reports(self) -> bool:
        """Take the child's reports; ``False`` once its end is closed."""
        try:
            while self._conn.poll():
                message = self._conn.recv()
                if message[0] == "serving":
                    self.index_path = message[1]
                elif message[0] == "error":
                    _say(f"the server failed: {message[1]}")
        except (EOFError, OSError):
            return False
        return True

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
            ready = wait(
                [self._conn, self.process.sentinel], interval or 1.0
            )
            if self._conn in ready and not self._reports():
                self.process.join(1.0)
            if self.process.is_alive():
                if self._stopping is not None:
                    limit = self.config.drain_grace_s + _STOP_MARGIN_S
                    if time.monotonic() - self._stopping > limit:
                        self.process.kill()
                elif interval and not ready:
                    strikes = 0 if self._probe() else strikes + 1
                    if strikes >= _PROBE_STRIKES:
                        _say(f"{strikes} liveness probes failed; killing "
                             f"pid {self.process.pid}")
                        self.process.kill()
                continue
            strikes = 0
            if self._stopping is not None:
                return 0
            if not self._respawn():
                return 1

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
            f"{self.generation}) exited with code {self.process.exitcode}"
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
