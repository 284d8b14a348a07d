"""The radio: a CC2420-like transceiver state machine.

Responsibilities:

- **Sensing** — in-channel power (RSSI register / CCA measurement): the sum
  of every audible signal's power after spectral-mask attenuation toward the
  radio's channel, plus the noise floor.
- **Transmitting** — hands frames to the :class:`~repro.phy.medium.Medium`;
  a transmitting radio is deaf (half-duplex).
- **Receiving** — locks onto co-channel frames whose preamble is decodable
  (RSS above sensitivity and lock-time SINR above the capture threshold);
  off-channel frames are *never* lockable.  This asymmetry is the paper's
  central 802.15.4-vs-802.11 observation (Fig. 2): an 802.15.4 receiver
  cannot decode a packet even 1 MHz off its centre frequency, so
  neighbouring-channel energy acts as tolerable noise rather than hijacking
  the demodulator.

MAC layers subscribe via :meth:`Radio.add_frame_listener` and receive every
finished :class:`~repro.phy.errors.FrameReception` (CRC-good or not —
snooping CRC-failed frames still yields their RSSI, which the DCN
CCA-Adjustor uses).

Two ways to know the power on air
---------------------------------
On the medium's fast path a radio *folds the on-air table*
(:attr:`Radio.folds_on_air`): its probes sum the medium's on-air records
that reach it, in start order, when asked, and the medium only calls into
it to lock or to close a reception segment.  Otherwise — on the reference
leg, for classes with their own lock rule (802.11b) and for radios that
average the RSSI register — the radio keeps *eager* state: a list of
active :class:`~repro.phy.medium.Signal` objects, a running sensing-path
sum and the register's step history, updated by
:meth:`Radio.on_signal_start` / :meth:`Radio.on_signal_end`.  Both give the
same floats (DESIGN.md §15).
"""

from __future__ import annotations

import enum
from collections import deque
from math import log10 as _log10
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..sim.rng import RngStreams
from ..sim.simulator import Simulator
from ..sim.units import dbm_to_mw, mw_to_dbm
from .constants import NOISE_FLOOR_DBM, RSSI_AVG_WINDOW_S, RX_SENSITIVITY_DBM
from .energy import EnergyAccumulator
from .errors import FrameReception
from .frame import Frame
from .mask import SpectralMask, default_cca_mask, default_mask
from .medium import Medium, Signal, Transmission
from .propagation import Position
from .reception import Reception

__all__ = ["RadioState", "RadioConfig", "Radio"]

FrameListener = Callable[[FrameReception], None]


class RadioState(enum.Enum):
    """Transceiver state: listening (IDLE), transmitting (TX) or OFF."""

    IDLE = "idle"  # listening
    TX = "tx"
    OFF = "off"


@dataclass(frozen=True)
class RadioConfig:
    """Receiver characteristics (CC2420 defaults)."""

    sensitivity_dbm: float = RX_SENSITIVITY_DBM
    noise_floor_dbm: float = NOISE_FLOOR_DBM
    #: Minimum SINR at lock time for the preamble/SFD to synchronise.
    capture_threshold_db: float = -1.0
    #: Signals within this offset of the radio's centre count as co-channel.
    co_channel_tolerance_mhz: float = 0.5
    #: When True, CCA compares the 8-symbol *time-averaged* RSSI register
    #: (as the CC2420 actually does) instead of the instantaneous power.
    #: Off by default: at CSMA timescales the difference is small and the
    #: experiment calibration uses the instantaneous reading.
    cca_averaging: bool = False


#: Shared by every radio built without a config (the dataclass is frozen).
_DEFAULT_CONFIG = RadioConfig()


class Radio:
    """One transceiver bound to a medium, a position and a channel."""

    #: Radios of this class answer power probes by folding the medium's
    #: on-air table when the medium runs its fast path (see the module
    #: docstring).  A subclass whose lock rule needs the eager
    #: ``on_signal_start``/``on_signal_end`` calls sets this to False.
    #: A class attribute, decided once per class: nothing compares
    #: methods by identity, so wrapping them never changes the path.
    folds_on_air = True

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        position: Position,
        channel_mhz: float,
        tx_power_dbm: float,
        mask: Optional[SpectralMask] = None,
        cca_mask: Optional[SpectralMask] = None,
        config: Optional[RadioConfig] = None,
        rng: Optional[RngStreams] = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.name = name
        self.position = position
        self.channel_mhz = channel_mhz
        self.tx_power_dbm = tx_power_dbm
        self.mask = mask if mask is not None else default_mask()
        #: The CCA/RSSI sensing path rejects off-channel energy a few dB
        #: more sharply than the demodulator's interference coupling.
        self.cca_mask = cca_mask if cca_mask is not None else default_cca_mask(self.mask)
        self.config = config if config is not None else _DEFAULT_CONFIG
        #: Hot-path copies of the (frozen) config scalars: the lock
        #: decision tree reads them once per delivered signal, where the
        #: dataclass attribute indirection is measurable.
        self._sensitivity_dbm = self.config.sensitivity_dbm
        self._capture_threshold_db = self.config.capture_threshold_db
        self._co_channel_tolerance_mhz = self.config.co_channel_tolerance_mhz
        #: ``biterrors.{name}`` is resolved on the first binomial draw
        #: (:attr:`bit_rng`): most radios never draw one, and a named
        #: stream's values do not depend on when it is built.
        self._rng_streams = rng if rng is not None else medium.rng
        self._bit_rng: Optional[np.random.Generator] = None
        self.state = RadioState.IDLE
        self.current_reception: Optional[Reception] = None
        #: True when this radio folds the medium's on-air table instead
        #: of keeping eager per-signal state (module docstring).
        self._folds = (
            type(self).folds_on_air
            and not self.config.cca_averaging
            and medium.on_air_fast_path
        )
        #: The medium's on-air table (read by the fold).
        self._on_air = medium.on_air
        #: Eager state: active signals in start order.
        self._signals: List[Signal] = []
        self._frame_listeners: List[FrameListener] = []
        self._noise_mw = dbm_to_mw(self.config.noise_floor_dbm)
        #: Memoised per-offset linear gains: signal centre frequency ->
        #: ``(decode_gain, sense_gain)``.  Channel offsets form a small
        #: discrete set, so the mask curves are evaluated once per offset
        #: instead of once per probe.
        self._gain_memo: dict = {}
        #: Eager state: running sensing-path interference sum (mW,
        #: excludes noise).  Maintained incrementally by
        #: :meth:`_add_signal` / :meth:`_remove_signal`; reset exactly on
        #: removal so float drift cannot accumulate.
        self._sense_sum_mw = 0.0
        self.energy = EnergyAccumulator(tx_power_dbm=tx_power_dbm)
        #: Eager state: step history of the sensing-path power,
        #: ``(time, power_mw)`` entries meaning "sensed power became
        #: power_mw at time".  Feeds the time-averaged RSSI register; a
        #: folding radio reads the medium's ended-record log instead.
        self._sense_history: Optional[deque] = None
        if not self._folds:
            self._sense_history = deque(maxlen=128)
            self._sense_history.append((self.sim.now, self._noise_mw))
        #: Reference-path toggle (set by the medium): when True the
        #: power probes re-derive every contribution from the spectral
        #: masks per call instead of using the memoised gains and the
        #: incremental sum — the pre-PR-2 algorithm, kept live for the
        #: differential oracle (``python -m repro check diff``).
        self._reference_accumulators = medium.reference_accumulators
        #: The sim's trace sink is fixed at construction; caching the
        #: object saves two attribute hops per delivered signal.
        self._trace = sim.trace
        #: Row in the link cache's radio arrays (set on registration).
        self._row = -1
        medium.register(self)
        if sim.obs is not None:
            sim.obs.register_radio(self)

    @property
    def bit_rng(self) -> np.random.Generator:
        """The radio's ``biterrors.{name}`` stream, resolved on first use."""
        rng = self._bit_rng
        if rng is None:
            rng = self._bit_rng = self._rng_streams.stream(
                f"biterrors.{self.name}"
            )
        return rng

    # ------------------------------------------------------------------
    # Listener plumbing
    # ------------------------------------------------------------------
    def add_frame_listener(self, listener: FrameListener) -> None:
        self._frame_listeners.append(listener)

    def _dispatch_reception(self, outcome: FrameReception) -> None:
        if self._trace.enabled:
            self.sim.trace.emit(
                "rx_done",
                radio=self.name,
                frame=outcome.frame.frame_id,
                crc=outcome.crc_ok,
                rssi=round(outcome.rssi_dbm, 2),
                errors=outcome.errored_bits,
            )
        for listener in self._frame_listeners:
            listener(outcome)

    # ------------------------------------------------------------------
    # Signal bookkeeping (incremental power accumulators)
    # ------------------------------------------------------------------
    def _gains_for(self, channel_mhz: float) -> tuple:
        """Linear ``(decode, sense)`` gains for a signal at ``channel_mhz``."""
        gains = self._gain_memo.get(channel_mhz)
        if gains is None:
            offset = channel_mhz - self.channel_mhz
            gains = (
                10.0 ** (-self.mask.cached_leakage_db(offset) / 10.0),
                10.0 ** (-self.cca_mask.cached_leakage_db(offset) / 10.0),
            )
            self._gain_memo[channel_mhz] = gains
        return gains

    def _add_signal(self, signal: Signal) -> None:
        """Start tracking ``signal``: cache its post-mask contributions,
        fold them into the running sensing-path sum (O(1)) and step the
        RSSI-register history."""
        gains = self._gain_memo.get(signal.channel_mhz)
        if gains is None:
            gains = self._gains_for(signal.channel_mhz)
        rx_power_mw = signal.rx_power_mw
        signal.decode_mw = rx_power_mw * gains[0]
        sense_mw = rx_power_mw * gains[1]
        signal.sense_mw = sense_mw
        self._signals.append(signal)
        sense_sum = self._sense_sum_mw + sense_mw
        self._sense_sum_mw = sense_sum
        sim = self.sim
        self._sense_history.append((sim.now, self._noise_mw + sense_sum))
        checks = sim.checks
        if checks is not None:
            checks.on_accumulator_update(self)

    def _remove_signal(self, signal: Signal) -> None:
        """Stop tracking ``signal`` and rebuild the sensing-path sum.

        The rebuild is a plain sum over the (short) remaining list of
        already-cached floats: this keeps removal cheap while making the
        running sum *exactly* equal to a fresh brute-force re-summation —
        no incremental subtraction, hence no cancellation drift.
        """
        signals = self._signals
        signals.remove(signal)
        if signals:
            total = 0.0
            for s in signals:
                total += s.sense_mw
            self._sense_sum_mw = total
        else:
            self._sense_sum_mw = total = 0.0
        sim = self.sim
        self._sense_history.append((sim.now, self._noise_mw + total))
        checks = sim.checks
        if checks is not None:
            checks.on_accumulator_update(self)

    @property
    def active_signals(self) -> List[Signal]:
        """The signals on air at this radio, in start order.

        The eager list itself, or — for a folding radio — a fresh
        snapshot built from the medium's on-air table (read-only: the
        radio does not track it)."""
        if self._folds:
            return self.medium.signals_at(self)
        return self._signals

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def in_channel_power_mw(self, exclude: Optional[Signal] = None) -> float:
        """Decode-path in-channel power (mW) including the noise floor.

        Each active signal is attenuated by the demodulator-coupling mask
        according to its centre-frequency offset from this radio's channel
        (linear gain memoised per offset).  This is the interference term
        of reception SINR.  A folding radio sums the on-air records that
        reach it, skipping ``exclude``'s transmission, from the noise
        floor up in start order — the eager loop's exact float sequence.
        """
        if self._reference_accumulators:
            return self.resample_in_channel_power_mw(exclude)
        total = self._noise_mw
        if self._folds:
            skip = exclude.transmission if exclude is not None else None
            for record in self._on_air.values():
                if record.transmission is skip:
                    continue
                # OnAirRecord.contribution_mw, inlined (hot).
                i = record.index.get(self, -1)
                if record.keep[i]:
                    total += (
                        10.0 ** (record.rss[i] / 10.0) * record.decode_gains[i]
                    )
            checks = self.sim.checks
            if checks is not None:
                checks.on_power_probe(self)
            return total
        for signal in self._signals:
            if signal is exclude:
                continue
            total += signal.decode_mw
        return total

    def sense_interference_mw(self) -> float:
        """Sensing-path power of the signals on air, without noise (mW).

        The eager running sum, or the fold over the on-air records that
        reach this radio: a left fold from 0.0 in start order, which is
        what the running sum always equals (every removal re-sums).  The
        fold reads each record's per-radio memo, so a radio re-probing
        while the same frames are on air (CCA after CCA on a busy
        channel) pays a dict hit per record."""
        if not self._folds:
            return self._sense_sum_mw
        total = 0.0
        for record in self._on_air.values():
            memo = record.sense_mw
            mw = memo.get(self)
            if mw is None:
                # OnAirRecord.contribution_mw, inlined (hot).
                i = record.index.get(self, -1)
                mw = memo[self] = (
                    10.0 ** (record.rss[i] / 10.0) * record.sense_gains[i]
                    if record.keep[i] else 0.0
                )
            total += mw
        return total

    def sensed_power_mw(self) -> float:
        """Sensing-path in-channel power (mW): what CCA/RSSI measures."""
        if self._reference_accumulators:
            return self.resample_sense_power_mw()
        if self._folds:
            total = self._noise_mw + self.sense_interference_mw()
            checks = self.sim.checks
            if checks is not None:
                checks.on_power_probe(self)
            return total
        return self._noise_mw + self._sense_sum_mw

    # ------------------------------------------------------------------
    # Reference resampling (pre-PR-2 algorithms, kept live)
    # ------------------------------------------------------------------
    def resample_sense_power_mw(self) -> float:
        """Sensing-path power by full mask re-evaluation.

        The reference algorithm behind :meth:`sensed_power_mw`: every
        active signal's CCA-mask leakage is recomputed per call and the
        contributions are summed in active-list order with the noise
        floor added last — the exact float-operation order of the
        incremental accumulator and of the on-air fold, so a healthy
        radio matches this *bit for bit*.  Used by the invariant layer's
        periodic resample and by the ``check diff`` reference path.
        """
        total = 0.0
        for signal in self.active_signals:
            leakage_db = self.cca_mask.leakage_db(
                signal.channel_mhz - self.channel_mhz
            )
            total += signal.rx_power_mw * (10.0 ** (-leakage_db / 10.0))
        return self._noise_mw + total

    def resample_in_channel_power_mw(
        self, exclude: Optional[Signal] = None
    ) -> float:
        """Decode-path power by full mask re-evaluation (reference).

        Float-order-identical to :meth:`in_channel_power_mw` (noise
        floor first, contributions in active-list order), with each
        per-signal gain re-derived from the decode mask instead of the
        memoised gain.  ``exclude`` is matched by transmission, so a
        signal from a folding radio's :attr:`active_signals` snapshot
        works too.
        """
        total = self._noise_mw
        skip = exclude.transmission if exclude is not None else None
        for signal in self.active_signals:
            if signal.transmission is skip:
                continue
            leakage_db = self.mask.leakage_db(
                signal.channel_mhz - self.channel_mhz
            )
            total += signal.rx_power_mw * (10.0 ** (-leakage_db / 10.0))
        return total

    def sense_power_dbm(self) -> float:
        """Instantaneous sensed power in dBm."""
        return mw_to_dbm(self.sensed_power_mw())

    def rssi_register_dbm(self, window_s: float = RSSI_AVG_WINDOW_S) -> float:
        """The CC2420 RSSI register: sensed power averaged over 8 symbols.

        Computed as the time-weighted mean of the sensing-path power over
        the trailing ``window_s`` (128 us), exactly how the chip's
        RSSI.RSSI_VAL behaves.  A folding radio integrates the medium's
        on-air and recently ended records instead of a step history
        (:meth:`~repro.phy.medium.Medium.sense_average_mw`).
        """
        if self._folds:
            return mw_to_dbm(self.medium.sense_average_mw(self, window_s))
        now = self.sim.now
        horizon = now - window_s
        # Walk the step history backwards, accumulating weighted power.
        total = 0.0
        covered_until = now
        for time, power_mw in reversed(self._sense_history):
            start = max(time, horizon)
            if start < covered_until:
                total += power_mw * (covered_until - start)
                covered_until = start
            if time <= horizon:
                break
        if covered_until > horizon:
            # History shorter than the window: extend the oldest level.
            oldest_power = self._sense_history[0][1]
            total += oldest_power * (covered_until - horizon)
        return mw_to_dbm(total / window_s)

    def cca_busy(self, threshold_dbm: float) -> bool:
        """Energy-detection CCA: busy when in-channel power > threshold."""
        if self.config.cca_averaging:
            return self.rssi_register_dbm() > threshold_dbm
        return self.sense_power_dbm() > threshold_dbm

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def transmit(
        self, frame: Frame, on_complete: Callable[[Transmission], None]
    ) -> Transmission:
        """Start transmitting ``frame`` at this radio's channel and power.

        Any in-progress reception is abandoned (half-duplex radio).  The
        radio returns to IDLE and ``on_complete`` fires at end-of-airtime.
        """
        if self.state is RadioState.TX:
            raise RuntimeError(f"radio {self.name!r} is already transmitting")
        if self.state is RadioState.OFF:
            raise RuntimeError(f"radio {self.name!r} is off")
        obs = self.sim.obs
        if self.current_reception is not None:
            if obs is not None:
                obs.on_rx_abort(
                    self.name, self.current_reception.start_time, self.sim.now
                )
            self.current_reception.abort()
            self.current_reception = None
            if self._folds:
                self.medium.unlock(self)
            if self.sim.trace.enabled:
                self.sim.trace.emit("rx_aborted_by_tx", radio=self.name)
        self.state = RadioState.TX
        self.energy.transition("tx", self.sim.now)
        tx_start = self.sim.now

        def _finish(transmission: Transmission) -> None:
            self.state = RadioState.IDLE
            self.energy.transition("idle", self.sim.now)
            if obs is not None:
                obs.on_tx(self.name, tx_start, self.sim.now, frame.frame_id)
            on_complete(transmission)

        return self.medium.begin_transmission(
            self, frame, self.channel_mhz, self.tx_power_dbm, _finish
        )

    # ------------------------------------------------------------------
    # Medium callbacks
    # ------------------------------------------------------------------
    def on_signal_start(self, signal: Signal) -> None:
        reception = self.current_reception
        if reception is not None:
            # Close the elapsed segment under the *old* interference set
            # before the new signal starts counting.
            reception.on_interference_change()
            self._add_signal(signal)
            return
        self._add_signal(signal)
        offset = signal.channel_mhz - self.channel_mhz
        if (offset if offset >= 0.0 else -offset) > self._co_channel_tolerance_mhz:
            return
        self._maybe_lock(signal)

    def _maybe_lock(self, signal: Signal) -> None:
        """Lock ladder for a just-added co-channel signal.

        Shared by :meth:`on_signal_start` and the medium's on-air fast
        path (which prefilters the co-channel, sensitivity and idle
        tests).  The state/sensitivity/SINR checks are pure predicates
        with no observable effects before the first trace emit, so
        evaluating them ahead of the ladder — as the medium does —
        leaves traces untouched.
        """
        if self.state is not RadioState.IDLE:
            return
        if signal.rx_power_dbm < self._sensitivity_dbm:
            return
        if self._lock_sinr_db(signal) < self._capture_threshold_db:
            if self._trace.enabled:
                self.sim.trace.emit(
                    "preamble_missed",
                    radio=self.name,
                    frame=signal.frame.frame_id,
                    rssi=round(signal.rx_power_dbm, 2),
                )
            return
        self.current_reception = Reception(self, signal)
        if self._trace.enabled:
            self.sim.trace.emit(
                "rx_lock", radio=self.name, frame=signal.frame.frame_id
            )

    def on_signal_end(self, signal: Signal) -> None:
        reception = self.current_reception
        if reception is not None:
            if reception.signal is signal:
                # Close the final segment while the signal still counts as
                # "active minus itself" — remove it afterwards.
                outcome = reception.finalize()
                self.current_reception = None
                self._remove_signal(signal)
                self._finish_reception(reception, outcome)
                return
            # Close the elapsed segment while the ending signal still
            # counts as interference.
            reception.on_interference_change()
        self._remove_signal(signal)

    def _finish_reception(
        self, reception: Reception, outcome: FrameReception
    ) -> None:
        """Report a finalized reception to obs and the frame listeners."""
        obs = self.sim.obs
        if obs is not None:
            obs.on_rx(
                self.name, reception.start_time, self.sim.now,
                outcome.frame.frame_id, outcome.crc_ok, outcome.rssi_dbm,
            )
        self._dispatch_reception(outcome)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _is_co_channel(self, signal: Signal) -> bool:
        offset = abs(signal.channel_mhz - self.channel_mhz)
        return offset <= self.config.co_channel_tolerance_mhz

    def _lock_sinr_db(self, signal: Signal) -> float:
        # Eager fast path: at lock time the candidate signal is already in
        # the active list, so a singleton list means the excluded loop
        # would contribute nothing — the interference term is exactly the
        # noise floor (bit-identical to the general path).
        active = self._signals
        if (
            not self._folds
            and len(active) == 1
            and active[0] is signal
            and not self._reference_accumulators
        ):
            interference_mw = self._noise_mw
        else:
            interference_mw = self.in_channel_power_mw(exclude=signal)
        if interference_mw <= 0.0:
            return 100.0
        # Inlined linear_to_db (same expression, bit for bit): hot.
        return 10.0 * _log10(signal.rx_power_mw / interference_mw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Radio {self.name} ch={self.channel_mhz} MHz "
            f"p={self.tx_power_dbm} dBm {self.state.value}>"
        )
