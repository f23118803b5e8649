"""Deterministic fault injection for the serving stack (``repro.faults``).

A :class:`FaultPlan` describes *which* failures to inject, *where*, and
*how often*, so the chaos test suite and the ``chaos-smoke`` CI job can
drive the real server through index corruption, scan crashes, slow
scans and mid-response connection resets — reproducibly.  Every site draws from its own seeded RNG, so a plan
with the same seed fires the same faults in the same order regardless
of what the other sites are doing.

Sites (each checked at exactly one place in the stack):

========================  ====================================================
``scan.fail``             :class:`FaultyIndex` raises :class:`InjectedFault`
                          from ``query``/``query_batch`` (an infrastructure
                          crash, *not* a :class:`~repro.exceptions.ReproError`
                          — the server must 500 the request, not 400 it;
                          exercises the per-pair isolation retry).
``scan.slow``             :class:`FaultyIndex` sleeps ``delay_ms`` before
                          delegating, on the thread that scans — the event
                          loop on the index path (drain and pipeline
                          testing).
``conn.reset``            the server aborts the TCP connection mid-response
                          (exercises client transport-error handling).
``index.load``            the server's hot-reload path fails validation
                          (exercises reload rollback).
``worker.kill``           the server SIGKILLs itself mid-request
                          (exercises the ``--workers`` supervisor's
                          respawn and flap circuit).
``wal.torn_write``        the write-ahead log crashes mid-append, leaving a
                          torn final record on disk (exercises recovery's
                          torn-tail truncation).
========================  ====================================================

Plans parse from a compact spec (CLI flag or ``REPRO_FAULT_PLAN`` env
var)::

    scan.fail:0.1,conn.reset:0.05,scan.slow:0.02@250ms

Each fired fault is counted into the plan's recorder as
``faults.fired.<site>`` (and attempts as ``faults.checked.<site>``), so
``/metrics`` shows exactly how much chaos a run actually injected.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.exceptions import ReproError
from repro.obs import NULL_RECORDER

#: The injection sites a plan may name.
SITES = (
    "scan.fail",
    "scan.slow",
    "conn.reset",
    "index.load",
    "worker.kill",
    "wal.torn_write",
)

#: Environment variables read by :meth:`FaultPlan.from_env`.
ENV_PLAN = "REPRO_FAULT_PLAN"
ENV_SEED = "REPRO_FAULT_SEED"


class InjectedFault(RuntimeError):
    """A failure fired by a :class:`FaultPlan`.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults model infrastructure crashes (a dead executor, a corrupt
    buffer), which the serving layer must treat as internal errors
    (HTTP 500 + circuit-breaker strikes), not as client mistakes.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site!r}")
        self.site = site


class FaultPlanError(ReproError):
    """A fault-plan spec string could not be parsed."""


@dataclass(frozen=True)
class FaultSpec:
    """One site's injection rule: fire with ``probability`` per check."""

    site: str
    probability: float
    #: Extra latency, for ``*.slow`` sites (milliseconds).
    delay_ms: float = 0.0
    #: Stop firing after this many hits (0 = unlimited).
    max_fires: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {', '.join(SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"{self.site}: probability {self.probability} not in [0, 1]"
            )
        if self.delay_ms < 0:
            raise FaultPlanError(f"{self.site}: delay_ms must be >= 0")
        if self.max_fires < 0:
            raise FaultPlanError(f"{self.site}: max_fires must be >= 0")


def _parse_one(part: str) -> FaultSpec:
    """``site:prob[@delay_ms][xN]`` -> FaultSpec."""
    site, sep, rest = part.partition(":")
    site = site.strip()
    if not sep or not rest:
        raise FaultPlanError(
            f"bad fault spec {part!r}; expected 'site:probability'"
        )
    max_fires = 0
    if "x" in rest:
        rest, _, fires = rest.rpartition("x")
        try:
            max_fires = int(fires)
        except ValueError:
            raise FaultPlanError(
                f"{site}: bad fire limit {fires!r}"
            ) from None
    delay_ms = 0.0
    if "@" in rest:
        rest, _, delay = rest.partition("@")
        delay = delay.strip()
        if delay.endswith("ms"):
            delay = delay[:-2]
        try:
            delay_ms = float(delay)
        except ValueError:
            raise FaultPlanError(f"{site}: bad delay {delay!r}") from None
    try:
        probability = float(rest)
    except ValueError:
        raise FaultPlanError(
            f"{site}: bad probability {rest!r}"
        ) from None
    return FaultSpec(site, probability, delay_ms, max_fires)


class FaultPlan:
    """A set of :class:`FaultSpec` rules with deterministic firing.

    Each site owns an independent ``random.Random`` seeded from
    ``(seed, site)``, so adding a rule for one site never shifts the
    fire sequence of another — a property the chaos tests rely on to
    stay reproducible as plans grow.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec] = (),
        *,
        seed: int = 0,
        recorder=NULL_RECORDER,
    ) -> None:
        self.seed = seed
        self.recorder = recorder
        self._specs: Dict[str, FaultSpec] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._fired: Dict[str, int] = {}
        for spec in specs:
            if spec.site in self._specs:
                raise FaultPlanError(f"duplicate fault site {spec.site!r}")
            self._specs[spec.site] = spec
            self._rngs[spec.site] = random.Random(f"{seed}:{spec.site}")
            self._fired[spec.site] = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, *, seed: int = 0, recorder=NULL_RECORDER):
        """Parse ``site:prob[@delay_ms][xN],...`` into a plan.

        An empty/whitespace spec yields an inactive plan (no sites).
        """
        specs = [
            _parse_one(part)
            for part in text.split(",")
            if part.strip()
        ]
        return cls(specs, seed=seed, recorder=recorder)

    @classmethod
    def from_env(
        cls, environ=None, *, recorder=NULL_RECORDER
    ) -> Optional["FaultPlan"]:
        """Build a plan from ``REPRO_FAULT_PLAN``/``REPRO_FAULT_SEED``.

        Returns ``None`` when the plan variable is unset or empty, so
        callers can write ``plan = FaultPlan.from_env()`` and pass the
        result straight through.
        """
        environ = os.environ if environ is None else environ
        text = environ.get(ENV_PLAN, "").strip()
        if not text:
            return None
        try:
            seed = int(environ.get(ENV_SEED, "0"))
        except ValueError:
            raise FaultPlanError(
                f"{ENV_SEED} must be an integer, "
                f"got {environ.get(ENV_SEED)!r}"
            ) from None
        return cls.parse(text, seed=seed, recorder=recorder)

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any site can still fire."""
        return any(
            spec.probability > 0
            and (spec.max_fires == 0 or self._fired[site] < spec.max_fires)
            for site, spec in self._specs.items()
        )

    def targets(self, *sites: str) -> bool:
        """Whether the plan has a live rule for any of ``sites``."""
        return any(
            site in self._specs and self._specs[site].probability > 0
            for site in sites
        )

    def should_fire(self, site: str) -> bool:
        """One deterministic draw for ``site``; counts checks and fires."""
        spec = self._specs.get(site)
        if spec is None or spec.probability <= 0.0:
            return False
        if spec.max_fires and self._fired[site] >= spec.max_fires:
            return False
        self.recorder.incr(f"faults.checked.{site}")
        if self._rngs[site].random() >= spec.probability:
            return False
        self._fired[site] += 1
        self.recorder.incr(f"faults.fired.{site}")
        return True

    def check(self, site: str) -> None:
        """Raise :class:`InjectedFault` when ``site`` fires."""
        if self.should_fire(site):
            raise InjectedFault(site)

    def maybe_sleep(self, site: str) -> float:
        """Sleep ``delay_ms`` when ``site`` fires; returns seconds slept."""
        if not self.should_fire(site):
            return 0.0
        delay_s = self._specs[site].delay_ms / 1000.0
        if delay_s > 0:
            time.sleep(delay_s)
        return delay_s

    def fired(self, site: str) -> int:
        """How many times ``site`` has fired so far."""
        return self._fired.get(site, 0)

    def snapshot(self) -> Dict[str, dict]:
        """JSON-friendly plan state (spec + fire counts per site)."""
        return {
            site: {
                "probability": spec.probability,
                "delay_ms": spec.delay_ms,
                "max_fires": spec.max_fires,
                "fired": self._fired[site],
            }
            for site, spec in self._specs.items()
        }

    def __repr__(self) -> str:
        rules = ",".join(
            f"{site}:{spec.probability}" for site, spec in self._specs.items()
        )
        return f"FaultPlan({rules or 'inactive'}, seed={self.seed})"


class FaultyIndex:
    """An index proxy injecting ``scan.slow``/``scan.fail`` faults.

    Wraps any SPC index: queries delegate unchanged unless the plan
    fires.  ``scan.slow`` draws before ``scan.fail``, so a plan with
    both can delay *and then* crash the same call.  Diagnostic reads
    (``query_with_stats``, ``stats``) pass through untouched — chaos
    must corrupt answers' *availability*, never the reference values
    tests compare against.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def _inject(self) -> None:
        self.plan.maybe_sleep("scan.slow")
        self.plan.check("scan.fail")

    def query(self, source, target):
        self._inject()
        return self.inner.query(source, target)

    def query_batch(self, pairs):
        self._inject()
        return self.inner.query_batch(pairs)

    def __getattr__(self, name):
        return getattr(self.inner, name)
