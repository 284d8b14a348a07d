"""Runtime invariants: conservation laws the kernel must never break.

Armed either explicitly (``Simulator(checks=InvariantChecker())`` /
``Simulator(checks=True)``) or ambiently (``REPRO_CHECKS=1`` in the
environment, or via an active :class:`~repro.check.runtime.CheckSession`
with a checker).  Hook points live in the model layers:

===========================  =============================================
hook                         invariant
===========================  =============================================
``on_event``                 event-time monotonicity: the kernel never
                             dispatches an event scheduled before the
                             current clock; periodically cross-checks the
                             event queue's live-event counter against a
                             full heap scan.
``on_accumulator_update``    an eager radio's incremental sensing-path
                             power sum is never negative, and every
                             ``resample_every`` updates it is resampled
                             against the brute-force mask re-evaluation
                             (relative drift ≤ ``drift_rtol``); the
                             decode-path sum is cross-checked at the same
                             cadence.
``on_power_probe``           the same audit for a radio that folds the
                             medium's on-air table: every
                             ``resample_every`` probes its folded sensing-
                             and decode-path sums are checked for sign and
                             resampled against the brute-force mask
                             re-evaluation.
``on_frame_complete``        per-transmission bit conservation: a
                             completed frame samples exactly
                             ``round(airtime · bit_rate)`` bits, and
                             ``0 ≤ errored ≤ total`` (delivered + lost
                             bits add up to the frame's on-air length).
``on_adjustor_threshold``    CCA-threshold sanity: never NaN/±inf and
                             never above the strongest co-channel RSSI
                             observed so far minus the safety margin.
===========================  =============================================

A violated invariant raises :class:`InvariantViolation` carrying a
first-divergence report (who, when, expected vs observed) — the checks
are assertions about *model* correctness, so the simulation must die
loudly rather than record a wrong number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = [
    "CheckConfig",
    "InvariantChecker",
    "InvariantViolation",
    "checks_enabled_by_env",
]

#: Environment variable that arms the default checker on every
#: newly-constructed :class:`~repro.sim.simulator.Simulator`.
ENV_FLAG = "REPRO_CHECKS"


class InvariantViolation(RuntimeError):
    """A runtime invariant failed; the message is the divergence report."""


def checks_enabled_by_env() -> bool:
    """``True`` when ``REPRO_CHECKS`` is set to a truthy value."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in (
        "", "0", "false", "no", "off",
    )


@dataclass(frozen=True)
class CheckConfig:
    """Tunables of the invariant layer."""

    #: Brute-force resample cadence, in accumulator updates (eager radios)
    #: or power probes (folding radios) per radio (1 = every one; raise
    #: to amortise the O(n·mask) resample on big rigs).
    resample_every: int = 32
    #: Allowed relative drift between the incremental accumulator and
    #: its brute-force resample.
    drift_rtol: float = 1e-9
    #: Event-queue live-count audit cadence, in dispatched events.
    queue_audit_every: int = 4096
    #: Slack (dB) for the threshold-vs-strongest-RSSI comparison.
    threshold_slack_db: float = 1e-9

    def __post_init__(self) -> None:
        if self.resample_every < 1:
            raise ValueError("resample_every must be >= 1")
        if self.drift_rtol <= 0:
            raise ValueError("drift_rtol must be > 0")
        if self.queue_audit_every < 1:
            raise ValueError("queue_audit_every must be >= 1")


class InvariantChecker:
    """Stateful hook sink; one instance audits one (or more) simulators.

    The checker is deliberately duck-typed against the model layers (it
    receives radios / receptions / adjustors and reads their public
    state) so this module stays import-light and usable from the
    simulator without cycles.
    """

    def __init__(self, config: Optional[CheckConfig] = None) -> None:
        self.config = config if config is not None else CheckConfig()
        #: Per-invariant pass counters, for reporting.
        self.counters: Dict[str, int] = {
            "events": 0,
            "queue_audits": 0,
            "accumulator_updates": 0,
            "power_probes": 0,
            "accumulator_resamples": 0,
            "frames": 0,
            "thresholds": 0,
        }
        self._accum_updates: Dict[int, int] = {}
        self._probes: Dict[int, int] = {}
        #: Set while a resample runs: its own probes must not recurse.
        self._resampling = False
        self._max_rssi: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Kernel hooks
    # ------------------------------------------------------------------
    def on_event(self, event: Any, now: float, queue: Any = None) -> None:
        """Dispatched-event hook: monotonicity + periodic queue audit."""
        self.counters["events"] += 1
        if event.time < now:
            raise InvariantViolation(
                f"event-time monotonicity violated: event "
                f"{event!r} dispatched at clock {now:.9f} s "
                f"({now - event.time:.3e} s in the past)"
            )
        if (
            queue is not None
            and self.counters["events"] % self.config.queue_audit_every == 0
        ):
            self.counters["queue_audits"] += 1
            scanned = queue.scan_live()
            if scanned != len(queue):
                raise InvariantViolation(
                    f"event-queue live counter diverged: counter says "
                    f"{len(queue)} live events, heap scan found {scanned}"
                )

    # ------------------------------------------------------------------
    # PHY hooks
    # ------------------------------------------------------------------
    def on_accumulator_update(self, radio: Any) -> None:
        """Signal add/remove hook: non-negativity + periodic resample."""
        self.counters["accumulator_updates"] += 1
        self._check_sign(radio)
        key = id(radio)
        count = self._accum_updates.get(key, 0) + 1
        self._accum_updates[key] = count
        if count % self.config.resample_every == 0:
            self.resample_radio(radio)

    def on_power_probe(self, radio: Any) -> None:
        """Probe hook of a folding radio: every ``resample_every`` probes,
        sign check plus resample of both folded sums."""
        if self._resampling:
            return
        self.counters["power_probes"] += 1
        key = id(radio)
        count = self._probes.get(key, 0) + 1
        self._probes[key] = count
        if count % self.config.resample_every == 0:
            self._check_sign(radio)
            self.resample_radio(radio)

    def _check_sign(self, radio: Any) -> None:
        interference = radio.sense_interference_mw()
        if interference < 0.0:
            raise InvariantViolation(
                f"negative sensing-path accumulator on radio "
                f"{radio.name!r} at t={radio.sim.now:.9f} s: "
                f"{interference!r} mW "
                f"({len(radio.active_signals)} active signals)"
            )

    def resample_radio(self, radio: Any) -> None:
        """Cross-check both power sums against brute force now."""
        self.counters["accumulator_resamples"] += 1
        resampling, self._resampling = self._resampling, True
        try:
            self._resample(radio)
        finally:
            self._resampling = resampling

    def _resample(self, radio: Any) -> None:
        self._compare(
            radio,
            "sensing-path",
            incremental=radio.sensed_power_mw(),
            reference=radio.resample_sense_power_mw(),
        )
        self._compare(
            radio,
            "decode-path",
            incremental=radio.in_channel_power_mw(),
            reference=radio.resample_in_channel_power_mw(),
        )

    def _compare(
        self, radio: Any, label: str, incremental: float, reference: float
    ) -> None:
        scale = max(abs(reference), abs(incremental), 1e-300)
        drift = abs(incremental - reference) / scale
        if drift > self.config.drift_rtol:
            raise InvariantViolation(
                f"{label} accumulator drift on radio {radio.name!r} at "
                f"t={radio.sim.now:.9f} s: incremental "
                f"{incremental!r} mW vs brute-force resample "
                f"{reference!r} mW (relative drift {drift:.3e} > "
                f"{self.config.drift_rtol:.1e}; "
                f"{len(radio.active_signals)} active signals) — first "
                f"divergence after "
                f"{self.counters['accumulator_updates']} accumulator "
                f"updates and {self.counters['power_probes']} power probes"
            )

    def on_frame_complete(self, reception: Any, outcome: Any) -> None:
        """Finalised-reception hook: per-transmission bit conservation."""
        self.counters["frames"] += 1
        airtime = outcome.end_time - outcome.start_time
        expected = int(round(airtime * reception.bit_rate_bps))
        if outcome.total_bits != expected:
            raise InvariantViolation(
                f"bit conservation violated for frame "
                f"{outcome.frame.frame_id} at radio "
                f"{reception.radio.name!r}: sampled {outcome.total_bits} "
                f"bits but round(airtime·rate) = round({airtime:.9f} s · "
                f"{reception.bit_rate_bps} bps) = {expected}"
            )
        if not (0 <= outcome.errored_bits <= outcome.total_bits):
            raise InvariantViolation(
                f"errored-bit count out of range for frame "
                f"{outcome.frame.frame_id} at radio "
                f"{reception.radio.name!r}: {outcome.errored_bits} of "
                f"{outcome.total_bits} sampled bits"
            )

    # ------------------------------------------------------------------
    # CCA-Adjustor hooks
    # ------------------------------------------------------------------
    def on_adjustor_rssi(self, adjustor: Any, rssi_dbm: float) -> None:
        """Track the strongest co-channel RSSI each adjustor has seen."""
        key = id(adjustor)
        best = self._max_rssi.get(key)
        if best is None or rssi_dbm > best:
            self._max_rssi[key] = rssi_dbm

    def on_adjustor_threshold(self, adjustor: Any, value_dbm: float) -> None:
        """Derived-threshold hook: finiteness + upper-bound sanity."""
        self.counters["thresholds"] += 1
        if math.isnan(value_dbm) or math.isinf(value_dbm):
            raise InvariantViolation(
                f"CCA threshold became non-finite at "
                f"t={adjustor.sim.now:.9f} s: {value_dbm!r} dBm"
            )
        best = self._max_rssi.get(id(adjustor))
        if best is not None:
            ceiling = best - adjustor.config.margin_db
            if value_dbm > ceiling + self.config.threshold_slack_db:
                raise InvariantViolation(
                    f"CCA threshold sanity violated at "
                    f"t={adjustor.sim.now:.9f} s: derived threshold "
                    f"{value_dbm:.6f} dBm exceeds strongest observed "
                    f"co-channel RSSI ({best:.6f} dBm) minus margin "
                    f"({adjustor.config.margin_db:g} dB)"
                )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line pass-count report for CLI output."""
        c = self.counters
        return (
            f"invariants ok: {c['events']} events, "
            f"{c['queue_audits']} queue audits, "
            f"{c['accumulator_resamples']} accumulator resamples "
            f"(of {c['accumulator_updates']} updates and "
            f"{c['power_probes']} probes), "
            f"{c['frames']} frames, {c['thresholds']} thresholds"
        )
