"""The unslotted CSMA/CA channel-access engine (IEEE 802.15.4 §7.5.1.4).

One :class:`CsmaTransaction` drives a single frame through:

    NB = 0, BE = macMinBE
    loop:
        delay for random(0 .. 2^BE - 1) unit backoff periods
        perform CCA (one measurement window)
        if channel idle:  turnaround, transmit, done
        else:             NB += 1, BE = min(BE + 1, macMaxBE)
                          if NB > macMaxCSMABackoffs: channel-access failure

With ``csma_enabled = False`` the transaction degenerates to
turnaround-then-transmit, which is how the paper's attacker and the
Section III concurrency experiments bypass carrier sensing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..phy.frame import Frame
from ..phy.medium import Transmission
from ..phy.radio import RadioState

if TYPE_CHECKING:  # pragma: no cover
    from .mac import Mac

__all__ = ["CsmaTransaction"]


class CsmaTransaction:
    """Channel access for one frame.  Fire-and-forget with callbacks."""

    def __init__(
        self,
        mac: "Mac",
        frame: Frame,
        on_sent: Callable[[Frame], None],
        on_failure: Callable[[Frame], None],
    ) -> None:
        self.mac = mac
        self.sim = mac.sim
        self.radio = mac.radio
        self.params = params = mac.params
        self.cca_policy = mac.cca_policy
        self.stats = mac.stats
        self.frame = frame
        self.on_sent = on_sent
        self.on_failure = on_failure
        self._nb = 0
        self._be = params.mac_min_be
        self._cancelled = False
        self._pending = None
        #: (start_time, delay) of the backoff in flight, for telemetry.
        self._obs_backoff = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self.params.csma_enabled:
            self._schedule(self.params.turnaround_s, self._transmit)
            return
        self._backoff()

    def cancel(self) -> None:
        """Abandon the transaction (frame is neither sent nor failed)."""
        self._cancelled = True
        if self._pending is not None:
            self.sim.cancel(self._pending)
            self._pending = None

    # ------------------------------------------------------------------
    def _schedule(self, delay: float, callback) -> None:
        self._pending = self.sim.schedule(delay, callback, tag="csma")

    def _backoff(self) -> None:
        slots = int(self.mac.rng.integers(0, 2**self._be))
        delay = slots * self.params.unit_backoff_s
        if self.sim.obs is not None:
            self._obs_backoff = (self.sim.now, delay)
        self._schedule(delay + self.params.cca_duration_s, self._cca_check)

    def _cca_check(self) -> None:
        if self._cancelled:
            return
        self._pending = None
        self.stats.cca_attempts += 1
        threshold = self.cca_policy.threshold_dbm()
        busy = (
            self.radio.state is not RadioState.IDLE
            or self.radio.cca_busy(threshold)
        )
        obs = self.sim.obs
        if obs is not None and self._obs_backoff is not None:
            # Recorded retrospectively, now that the backoff + CCA window
            # is known to have completed (a cancelled transaction leaves
            # no phantom spans).
            start, delay = self._obs_backoff
            self._obs_backoff = None
            obs.on_cca(self.radio.name, start, delay,
                       self.params.cca_duration_s, busy)
        if busy:
            self.stats.cca_busy += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit(
                    "cca_busy",
                    radio=self.radio.name,
                    threshold=round(threshold, 1)
                    if threshold != float("inf")
                    else "inf",
                )
            self._nb += 1
            self._be = min(self._be + 1, self.params.mac_max_be)
            if self._nb > self.params.max_csma_backoffs:
                self.stats.access_failures += 1
                if self.sim.trace.enabled:
                    self.sim.trace.emit("access_failure", radio=self.radio.name)
                self.on_failure(self.frame)
                return
            self._backoff()
            return
        self._schedule(self.params.turnaround_s, self._transmit)

    def _transmit(self) -> None:
        if self._cancelled:
            return
        self._pending = None
        if self.radio.state is not RadioState.IDLE:
            # The radio is mid-transmission (e.g. an acknowledgement fired
            # between our CCA and now).  Retry shortly — equivalent to the
            # hardware rejecting the STXON strobe.
            self._schedule(self.params.turnaround_s, self._transmit)
            return

        def _done(_: Transmission) -> None:
            if self._cancelled:
                return
            self.stats.sent += 1
            self.stats.sent_bytes += self.frame.payload_bytes
            self.on_sent(self.frame)

        self.radio.transmit(self.frame, _done)
