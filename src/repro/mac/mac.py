"""The MAC layer: transmit queue + CSMA/CA + receive filtering + snooping.

One :class:`Mac` owns one :class:`~repro.phy.radio.Radio`.  Upper layers
(:mod:`repro.net.traffic`) push frames with :meth:`Mac.send`; delivered
frames (CRC-good, addressed to this node) are handed to receive listeners.
Every finished reception — including CRC failures and frames addressed to
other nodes — is forwarded to the CCA policy, because the paper's DCN
adjustor feeds on the RSSI of *co-channel interference packets*, not just
on the node's own traffic.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

import numpy as np

from ..phy.errors import FrameReception
from ..phy.frame import Frame
from ..phy.radio import Radio
from ..sim.rng import RngStreams
from ..sim.simulator import Simulator
from .cca import CcaPolicy, FixedCcaThreshold
from .csma import CsmaTransaction
from .params import MacParams
from .stats import MacStats

__all__ = ["Mac"]

ReceiveListener = Callable[[FrameReception], None]
IdleListener = Callable[[], None]


class Mac:
    """802.15.4-style MAC bound to one radio."""

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        rng: RngStreams,
        params: Optional[MacParams] = None,
        cca_policy: Optional[CcaPolicy] = None,
    ) -> None:
        self.sim = sim
        self.radio = radio
        #: ``mac.{name}`` is resolved on the first backoff (:attr:`rng`):
        #: in a large scene most MACs never back off, and a named
        #: stream's values do not depend on when it is built.
        self._rng_streams = rng
        self._rng: Optional[np.random.Generator] = None
        self.params = params if params is not None else MacParams()
        self.cca_policy = cca_policy if cca_policy is not None else FixedCcaThreshold()
        self.stats = MacStats()
        self.name = radio.name
        self._queue: Deque[Frame] = deque()
        self._active: Optional[CsmaTransaction] = None
        self._pending_ack = None
        self._retries = 0
        self._sequence = 0
        self._receive_listeners: List[ReceiveListener] = []
        self._idle_listeners: List[IdleListener] = []
        radio.add_frame_listener(self._on_reception)
        self.cca_policy.attach(self)
        if sim.obs is not None:
            sim.obs.register_mac(self)

    @property
    def rng(self) -> np.random.Generator:
        """The MAC's ``mac.{name}`` backoff stream, resolved on first use."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rng_streams.stream(f"mac.{self.name}")
        return rng

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> bool:
        """Queue ``frame`` for transmission.

        Returns False (and counts a queue drop) when the queue is full.
        Under an ACK-enabled MAC, unicast data frames automatically request
        acknowledgement.
        """
        if len(self._queue) >= self.params.queue_limit:
            self.stats.queue_drops += 1
            return False
        self._sequence += 1
        frame.sequence = self._sequence
        if self.params.ack_enabled and frame.destination is not None:
            frame.ack_request = True
        self._queue.append(frame)
        self.stats.enqueued += 1
        self._kick()
        return True

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a frame is in channel access / TX / awaiting its ACK."""
        return self._active is not None or self._pending_ack is not None

    def _kick(self) -> None:
        if self._active is not None or self._pending_ack is not None:
            return
        if not self._queue:
            return
        frame = self._queue.popleft()
        self._active = CsmaTransaction(
            self, frame, self._on_sent, self._on_access_failure
        )
        self._active.start()

    def _on_sent(self, frame: Frame) -> None:
        self._active = None
        if frame.ack_request:
            self._await_ack(frame)
            return
        self._after_transaction()

    def _on_access_failure(self, frame: Frame) -> None:
        self._active = None
        self.sim.trace.emit("frame_dropped", mac=self.name, frame=frame.frame_id)
        self._after_transaction()

    def _after_transaction(self) -> None:
        if not self._queue:
            for listener in self._idle_listeners:
                listener()
        self._kick()

    # ------------------------------------------------------------------
    # Acknowledgements and retransmission
    # ------------------------------------------------------------------
    def _await_ack(self, frame: Frame) -> None:
        timer = self.sim.schedule(
            self.params.ack_wait_s,
            lambda: self._on_ack_timeout(frame),
            tag=f"{self.name}.ack_wait",
        )
        self._pending_ack = (frame, timer)

    def _on_ack_timeout(self, frame: Frame) -> None:
        self._pending_ack = None
        self.stats.ack_timeouts += 1
        self._retries += 1
        if self._retries > self.params.max_frame_retries:
            self.stats.retry_drops += 1
            self._retries = 0
            self.sim.trace.emit(
                "frame_retry_drop", mac=self.name, frame=frame.frame_id
            )
            self._after_transaction()
            return
        self.stats.retransmissions += 1
        self.sim.trace.emit(
            "frame_retransmit",
            mac=self.name,
            frame=frame.frame_id,
            attempt=self._retries,
        )
        self._active = CsmaTransaction(
            self, frame, self._on_sent, self._on_access_failure
        )
        self._active.start()

    def _on_ack_received(self, reception: FrameReception) -> None:
        if self._pending_ack is None:
            return
        frame, timer = self._pending_ack
        if reception.frame.sequence != frame.sequence:
            return
        if reception.frame.source != (frame.destination or ""):
            return
        self.sim.cancel(timer)
        self._pending_ack = None
        self._retries = 0
        self.stats.acks_received += 1
        self._after_transaction()

    def _send_ack(self, reception: FrameReception) -> None:
        """Acknowledge a just-received unicast frame (no CSMA, per spec)."""
        ack = Frame.ack(self.name, reception.frame.source, reception.frame.sequence)

        def _transmit_ack() -> None:
            from ..phy.radio import RadioState

            if self.radio.state is not RadioState.IDLE:
                return  # half-duplex race: the ACK is simply lost
            self.stats.acks_sent += 1
            self.radio.transmit(ack, lambda _tx: None)

        self.sim.schedule(
            self.params.turnaround_s, _transmit_ack, tag=f"{self.name}.ack"
        )

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def add_receive_listener(self, listener: ReceiveListener) -> None:
        """Subscribe to CRC-good frames addressed to this node."""
        self._receive_listeners.append(listener)

    def add_idle_listener(self, listener: IdleListener) -> None:
        """Subscribe to queue-drained notifications (for saturated sources)."""
        self._idle_listeners.append(listener)

    def _on_reception(self, reception: FrameReception) -> None:
        self.stats.snooped += 1
        self.cca_policy.on_frame_snooped(reception)
        if not reception.crc_ok:
            self.stats.crc_failures += 1
            return
        frame = reception.frame
        if frame.is_ack:
            if frame.destination == self.name:
                self._on_ack_received(reception)
            return
        if frame.destination is not None and frame.destination != self.name:
            return
        self.stats.delivered += 1
        self.stats.delivered_bytes += frame.payload_bytes
        if frame.ack_request and frame.destination == self.name:
            self._send_ack(reception)
        for listener in self._receive_listeners:
            listener(reception)
