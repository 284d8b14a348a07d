"""repro.check — runtime invariants, differential oracle, determinism.

Every kernel hot path (the batched band-audible fan-out, the on-air
table and the power sums folded from it) shadows a retained brute-force
reference; stateless keyed fading draws are shared by both legs.  This
package is the correctness layer that continuously cross-checks them:

- :mod:`repro.check.invariants` — opt-in runtime invariants
  (``Simulator(checks=...)`` / ``REPRO_CHECKS=1``): event-time
  monotonicity, non-negative power accumulators with periodic
  brute-force resampling, per-frame bit conservation and CCA-threshold
  sanity.  Violations raise :class:`InvariantViolation` with a
  first-divergence report.
- :mod:`repro.check.oracle` — the differential oracle
  (``python -m repro check diff <exhibit>``): runs an exhibit on the
  fast path and on the reference path (``Medium(link_cache=False)`` +
  brute-force accumulators) and diffs the traces event by event.
- :mod:`repro.check.determinism` — the determinism checker
  (``python -m repro check determinism <exhibit>``): same seed twice,
  and ``--jobs 1`` vs ``--jobs N`` through the campaign engine, must
  produce byte-identical ``ResultTable`` JSON.
- :mod:`repro.check.faults` — test-only fault injection used to prove
  the invariant layer actually catches corruption.

Import note: model layers (``repro.net.deployment``, ``repro.phy``)
consult :mod:`repro.check.runtime` on construction, so this package
``__init__`` must stay import-light.  The heavyweight modules (oracle,
determinism — which pull in the experiment registry) are exposed
lazily via module ``__getattr__``.
"""

from __future__ import annotations

from .invariants import CheckConfig, InvariantChecker, InvariantViolation
from .runtime import CheckSession, active_session

__all__ = [
    "CheckConfig",
    "CheckSession",
    "DiffReport",
    "DeterminismReport",
    "InvariantChecker",
    "InvariantViolation",
    "active_session",
    "check_determinism",
    "diff_exhibit",
]

_LAZY = {
    "DiffReport": ("repro.check.oracle", "DiffReport"),
    "diff_exhibit": ("repro.check.oracle", "diff_exhibit"),
    "DeterminismReport": ("repro.check.determinism", "DeterminismReport"),
    "check_determinism": ("repro.check.determinism", "check_determinism"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
