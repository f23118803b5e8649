"""Run an :class:`SPCServer` on a daemon thread with its own loop.

Tests, benchmarks, and examples need a live server next to a
synchronous caller; :class:`ServerThread` wraps the asyncio lifecycle
(start → serve → drain) behind ``start()``/``stop()`` and hands back
the bound address, so callers never touch the event loop::

    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        report = replay(host, port, pairs)

Extra keyword arguments pass straight through to
:class:`~repro.serve.server.SPCServer`; a durable live tier is one
``updates=recover_coordinator(wal_dir, graph, index)[0]`` away — the
coordinator arrives already replayed to its pre-crash overlay and
keeps appending to the same WAL.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Optional, Tuple

from repro.obs import Recorder
from repro.serve.config import ServeConfig
from repro.serve.server import SPCServer


class ServerThread:
    """Owns one server event loop on a background daemon thread."""

    thread_name = "spc-serve"

    def __init__(
        self,
        index,
        config: Optional[ServeConfig] = None,
        *,
        recorder: Optional[Recorder] = None,
        **server_kwargs,
    ) -> None:
        self._build = functools.partial(
            SPCServer, index, config=config or ServeConfig(port=0),
            recorder=recorder, **server_kwargs,
        )
        self.server = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name=self.thread_name, daemon=True
        )

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Start serving; returns the bound ``(host, port)``."""
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"{self.thread_name} did not start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"{self.thread_name} failed to start: {self._failure!r}"
            ) from self._failure
        assert self.server is not None
        return self.server.host, self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        """Trigger a graceful drain and join the thread."""
        if self._loop is not None and self.server is not None:
            shutdown = self.server.shutdown()
            try:
                asyncio.run_coroutine_threadsafe(
                    shutdown, self._loop
                ).result(timeout)
            except (RuntimeError, asyncio.CancelledError):
                shutdown.close()  # loop already gone: it finished on its own
        self._thread.join(timeout)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures to start()
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        self.server = self._build()
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.wait_stopped()

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
