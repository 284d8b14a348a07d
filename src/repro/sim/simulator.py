"""The discrete-event simulator: a clock plus an event queue.

All model components (radios, MACs, traffic sources) hold a reference to one
:class:`Simulator` and interact with simulated time exclusively through it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .events import Event, EventQueue
from .trace import Trace

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


def _resolve_checks(checks: Any) -> Any:
    """Normalise the ``checks`` constructor argument to a checker or None.

    The import of :mod:`repro.check.invariants` is deferred to the
    moment checks are actually requested so the kernel module stays
    dependency-free on the default path.
    """
    if checks is None:
        from ..check.invariants import checks_enabled_by_env

        if not checks_enabled_by_env():
            return None
        checks = True
    if checks is False:
        return None
    if checks is True:
        from ..check.invariants import InvariantChecker

        return InvariantChecker()
    return checks


class Simulator:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.sim.trace.Trace` recording structured events.
        When omitted a disabled trace is created so call sites never branch.
    checks:
        Runtime-invariant hooks (see :mod:`repro.check.invariants`).
        ``None`` (the default) consults the ``REPRO_CHECKS`` environment
        variable; ``True`` arms a fresh default
        :class:`~repro.check.invariants.InvariantChecker`; ``False``
        disables checks regardless of the environment; any other object
        is used as the checker directly.  Model layers reach the active
        checker through the public :attr:`checks` attribute (``None``
        when disabled), so the disabled cost is one attribute load and
        an ``is None`` test per hook site.
    obs:
        Optional :class:`~repro.obs.recorder.Observability` telemetry
        recorder.  Model layers reach it through the public :attr:`obs`
        attribute under the same ``is None`` discipline as ``checks``;
        passing a recorder binds it to this simulator (scheduling its
        periodic gauge sampler, when one is configured).
    queue:
        Optional pre-built :class:`~repro.sim.events.EventQueue`, for
        callers that need non-default compaction tuning
        (``EventQueue(compact_min_size=..., compact_dead_fraction=...)``).
        The default queue uses the standard thresholds.
    """

    def __init__(
        self, trace: Optional[Trace] = None, checks: Any = None,
        obs: Any = None, queue: Optional[EventQueue] = None,
    ) -> None:
        #: Current simulation time in seconds.  A plain attribute rather
        #: than a property: it is read on every event dispatch and inside
        #: every PHY/MAC hot path, where descriptor overhead is measurable.
        #: Only the kernel writes it.
        self.now = 0.0
        self._queue = queue if queue is not None else EventQueue()
        self._running = False
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.checks = _resolve_checks(checks)
        self.obs = obs
        if obs is not None:
            obs.bind(self)

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self._queue.push(self.now + delay, callback, priority, tag)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} s; clock already at {self.now} s"
            )
        return self._queue.push(time, callback, priority, tag)

    @property
    def event_queue(self) -> EventQueue:
        """The underlying queue (read-only access for gauges and audits)."""
        return self._queue

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if already fired/cancelled)."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Run events in order until the clock reaches ``until`` seconds.

        The clock is left exactly at ``until`` even if the queue drains
        earlier, so back-to-back ``run`` calls compose naturally.
        """
        if until < self.now:
            raise SimulationError(
                f"run until {until} s is in the past (now {self.now} s)"
            )
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            queue = self._queue
            checks = self.checks
            if checks is None:
                # Hot loop: kept free of per-event instrumentation.
                while True:
                    event = queue.pop_due(until)
                    if event is None:
                        break
                    self.now = event.time
                    event.callback()
            else:
                while True:
                    event = queue.pop_due(until)
                    if event is None:
                        break
                    checks.on_event(event, self.now, queue)
                    self.now = event.time
                    event.callback()
            self.now = until
        finally:
            self._running = False

    def run_until_idle(self, max_time: Optional[float] = None) -> None:
        """Run until the event queue drains (or ``max_time`` is reached)."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            queue = self._queue
            checks = self.checks
            horizon = float("inf") if max_time is None else max_time
            while queue:
                event = queue.pop_due(horizon)
                if event is None:
                    break
                if checks is not None:
                    checks.on_event(event, self.now, queue)
                self.now = event.time
                event.callback()
            if max_time is not None and self.now < max_time and not self._queue:
                self.now = max_time
        finally:
            self._running = False

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)
