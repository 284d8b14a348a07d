"""Ambient check-session plumbing (import-light, no repro imports).

The differential oracle needs to re-run an *unmodified* exhibit under
instrumentation: traces captured, the medium forced onto its brute-force
reference path, runtime invariants armed.  Exhibit ``run()`` callables
construct their :class:`~repro.net.deployment.Deployment` objects
internally, so the instrumentation cannot be threaded through arguments
without touching every figure module.  Instead a :class:`CheckSession`
is installed as an ambient context; ``Deployment.__init__`` consults
:func:`active_session` and, when one is active,

- attaches an enabled :class:`~repro.sim.trace.Trace` (when the caller
  did not supply one) and registers it on the session,
- forces ``Medium(link_cache=False, reference_accumulators=True)``
  when the session runs the reference path, and
- arms the session's :class:`~repro.check.invariants.InvariantChecker`
  on the simulator.

Sessions do not nest and are process-local (the campaign executor's
worker processes never inherit one), so a plain module global is
sufficient — no thread-local machinery.
"""

from __future__ import annotations

from typing import Any, List, Optional

__all__ = ["CheckSession", "active_session"]

_ACTIVE: Optional["CheckSession"] = None


class CheckSession:
    """One instrumented run: trace capture + path selection + checks.

    Parameters
    ----------
    reference:
        When ``True`` deployments built inside the session use the
        brute-force reference path (``Medium(link_cache=False)`` plus
        per-probe mask re-evaluation in the radio power sums) instead
        of the PR-2 fast path.
    capture_traces:
        Attach an enabled trace to every deployment built inside the
        session and collect them (in construction order) on
        :attr:`traces`.
    checker:
        Optional :class:`~repro.check.invariants.InvariantChecker`
        armed on every simulator built inside the session.
    """

    def __init__(
        self,
        reference: bool = False,
        capture_traces: bool = True,
        checker: Any = None,
    ) -> None:
        self.reference = bool(reference)
        self.capture_traces = bool(capture_traces)
        self.checker = checker
        #: Traces of the deployments created inside the session, in
        #: construction order (one exhibit may build several rigs).
        self.traces: List[Any] = []

    # ------------------------------------------------------------------
    def attach_trace(self, trace: Any) -> None:
        """Record one deployment's trace (called by ``Deployment``)."""
        self.traces.append(trace)

    # ------------------------------------------------------------------
    def __enter__(self) -> "CheckSession":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("check sessions do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = None


def active_session() -> Optional[CheckSession]:
    """The currently installed session, or ``None``."""
    return _ACTIVE
