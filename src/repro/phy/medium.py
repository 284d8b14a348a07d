"""The shared wireless medium.

The medium knows every radio, the path-loss model and the fading model.
When a radio begins transmitting, the medium computes the received power at
every radio that has a link to the source (path loss + per-packet fading),
delivers a ``signal start`` notification immediately and schedules the
matching ``signal end``.  Radios decide for themselves what a signal means
to them (lockable co-channel frame vs. inter-channel interference) — the
medium simply carries centre frequencies around.

Band audibility (the link rule)
-------------------------------
Non-orthogonal channels are modelled by each receiver's spectral masks, so
whether a link exists depends on the transmission's channel.  A link
``source → receiver`` exists for a transmission on ``channel_mhz`` only if
its best-case *post-mask* power reaches the delivery floor::

    mean_rss + fading.max_gain_db() - min(mask.leakage_db(df),
                                          cca_mask.leakage_db(df))
        >= delivery_floor_dbm,        df = channel_mhz - receiver.channel_mhz

(:func:`best_case_dbm`).  On an existing link each packet keeps its own
check: it is delivered when ``mean_rss + draw >= delivery_floor_dbm``.
Co-channel links have zero leakage, so the rule only drops links that the
mean-RSS floor would drop anyway; unbounded fading (``max_gain_db() ==
inf``) drops nothing.  A dropped cross-band link could contribute at most
``floor`` dBm to its receiver's power sums — 15 dB under the default noise
floor — and :class:`~repro.phy.vectorized.VectorizedLinkCache` measures
the sum of what it drops per receiver whenever telemetry is bound (gauge
``phy.medium.culled_power_frac_noise_max``).

One fast path, one reference
----------------------------
``link_cache=True`` (the default) fans out through
:meth:`~repro.phy.vectorized.VectorizedLinkCache.fanout_batch`: one cached
:class:`~repro.phy.vectorized.FanoutBatch` per ``(source, tx power,
channel)``.  ``link_cache=False`` is the brute-force reference: every
transmission scans every radio with the scalar path-loss model, applies
the same rule through the same function and notifies each receiver
through ``on_signal_start``/``on_signal_end``.  Both legs therefore select
the same links in the same (registration) order by construction, and
``repro check diff`` proves the rest of the fast path equal.

Fading draws are stateless (:mod:`repro.phy.fading`): a draw is a pure
function of the link key — a hash of the root seed and the two radio names
— and the source's transmit sequence number, which the medium counts.  Both
legs pass their key column for the transmission to the same
``sample_db_many`` call, so their floats are identical, and skipping a link
never shifts another link's draws.

The on-air table (fast path)
----------------------------
Most receivers of a frame only overhear it as leakage.  On the fast path
the medium therefore delivers nothing to them: it appends one
:class:`OnAirRecord` (the transmission, its batch's link index and gain
columns, and the frame's RSS and keep lists) to :attr:`Medium.on_air`, in
start order, and removes it at the frame's end.  A radio whose class sets
``folds_on_air`` (and that does not average its RSSI register) answers its
power probes by folding over the records that reach it, in start order —
exactly its old active-signal list, with the same float expressions, so
every probe is bit-identical to the old incremental accumulators
(DESIGN.md §15).  Only receivers that act
on a frame get eager work:

- radios with a reception in progress (flagged in ``RadioArrays.locked``)
  close their SINR segment before a reaching record is added, and at its
  end finalize (when locked on it) or close the segment again, in link
  order;
- lock candidates — kept, co-channel, at or above sensitivity, idle and
  unlocked — get a :class:`Signal` and the unchanged lock ladder;
- radios that keep eager state (``folds_on_air = False``, e.g. 802.11b,
  or ``cca_averaging=True``) get ``on_signal_start``/``on_signal_end``
  calls, in link order, as on the reference leg.

Event ordering: at identical timestamps, signal *ends* fire before signal
*starts* (priority 0 vs 1) so that back-to-back transmissions do not appear
to overlap for an instant.  All end processing of one transmission runs in
a single event (the per-receiver notifications would have been scheduled
consecutively, so batching preserves the total order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..sim.rng import RngStreams
from ..sim.simulator import Simulator
from .fading import FadingModel, NoFading, link_keys
from .frame import Frame
from .constants import RSSI_AVG_WINDOW_S
from .propagation import PathLossModel

if TYPE_CHECKING:  # pragma: no cover
    from .radio import Radio
    from .vectorized import VectorizedLinkCache

__all__ = [
    "Transmission",
    "Signal",
    "Medium",
    "best_case_dbm",
    "PRIORITY_SIGNAL_END",
    "PRIORITY_SIGNAL_START",
]

PRIORITY_SIGNAL_END = 0
PRIORITY_SIGNAL_START = 1

#: How long ended on-air records stay readable for the RSSI register of
#: folding radios (:meth:`Medium.sense_average_mw`): eight register
#: windows.
ENDED_LOG_S = 8 * RSSI_AVG_WINDOW_S


@dataclass(slots=True)
class Transmission:
    """One frame on the air, as seen by the transmitter."""

    source: "Radio"
    frame: Frame
    channel_mhz: float
    tx_power_dbm: float
    start_time: float
    end_time: float

    @property
    def airtime_s(self) -> float:
        return self.end_time - self.start_time


class Signal:
    """A transmission as observed by one receiver (with its own RSS).

    ``decode_mw`` / ``sense_mw`` are the receiver-cached post-mask
    contributions of this signal to the decode-path and sensing-path
    in-channel power sums (set by :meth:`Radio._add_signal`); caching them
    here makes the incremental power accumulators O(1) per probe.
    """

    __slots__ = (
        "transmission",
        "rx_power_dbm",
        "rx_power_mw",
        "channel_mhz",
        "decode_mw",
        "sense_mw",
    )

    def __init__(self, transmission: Transmission, rx_power_dbm: float) -> None:
        self.transmission = transmission
        self.rx_power_dbm = rx_power_dbm
        # Inlined dbm_to_mw (same expression, bit for bit): one Signal is
        # built per (transmission, audible receiver) pair, so the
        # function-call overhead is hot.
        self.rx_power_mw = 10.0 ** (rx_power_dbm / 10.0)
        # Copied out of the transmission: read on every mask-gain lookup
        # and co-channel check, where a property indirection is measurable.
        self.channel_mhz = transmission.channel_mhz
        self.decode_mw = 0.0
        self.sense_mw = 0.0

    @property
    def frame(self) -> Frame:
        return self.transmission.frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Signal frame={self.frame.frame_id} ch={self.channel_mhz} MHz "
            f"rss={self.rx_power_dbm:.1f} dBm>"
        )


#: One reference-path fan-out entry: (receiver, mean RSS at the receiver
#: in dBm).
AudibleEntry = Tuple["Radio", float]

class OnAirRecord:
    """One transmission on the air, as the fast path's fold reads it.

    ``index`` maps a receiver to its link position in the batch, whose
    ``decode_gains``/``sense_gains`` columns the record shares; ``rss``
    holds this frame's per-link RSS (dBm) and ``keep`` whether the link
    delivered, plus a trailing ``False`` that an absent receiver reaches
    by looking itself up as ``-1``.  ``sense_mw`` memoises each probing
    radio's sensing-path contribution (``0.0`` when the record does not
    reach it): CCA and DCN probes repeat while the same frames are on
    air.  Decode-path probes (SINR segment closes) happen when the table
    changes, so they fold without a memo.
    """

    __slots__ = (
        "transmission", "index", "rss", "keep", "decode_gains",
        "sense_gains", "sense_mw",
    )

    def __init__(
        self,
        transmission: Transmission,
        index: Dict["Radio", int],
        rss: List[float],
        keep: List[bool],
        decode_gains: List[float],
        sense_gains: List[float],
    ) -> None:
        self.transmission = transmission
        self.index = index
        self.rss = rss
        self.keep = keep
        self.decode_gains = decode_gains
        self.sense_gains = sense_gains
        self.sense_mw: Dict["Radio", float] = {}

    def contribution_mw(self, radio: "Radio", gains: List[float]) -> float:
        """``radio``'s post-mask power from this record under ``gains``:
        ``10 ** (rss / 10) * gain``, the eager ``Signal`` expression, or
        ``0.0`` when the record does not reach it (adding ``0.0`` leaves
        a fold's bits unchanged)."""
        i = self.index.get(radio, -1)
        if self.keep[i]:
            return 10.0 ** (self.rss[i] / 10.0) * gains[i]
        return 0.0


def best_case_dbm(
    receiver: "Radio", channel_mhz: float, mean_rss: float, headroom_db: float
) -> float:
    """Best-case post-mask power of a link at ``receiver`` (dBm).

    ``mean_rss`` plus the fading headroom, minus the receiver's softer
    mask leakage (decode or sensing path) at the transmission's channel
    offset.  The link exists iff this reaches the delivery floor (see the
    module docstring); with unbounded headroom every link exists, and the
    masks are not consulted.
    """
    if headroom_db == float("inf"):
        return headroom_db
    offset = channel_mhz - receiver.channel_mhz
    leakage = min(
        receiver.mask.cached_leakage_db(offset),
        receiver.cca_mask.cached_leakage_db(offset),
    )
    return mean_rss + headroom_db - leakage


class Medium:
    """Registry of radios plus signal delivery.

    Parameters
    ----------
    sim:
        The simulation kernel.
    path_loss:
        Large-scale propagation model.
    fading:
        Per-packet variation model (defaults to none).
    rng:
        Named RNG streams; their root seed keys the fading draws
        (:func:`~repro.phy.fading.link_keys`).
    delivery_floor_dbm:
        Signals below this received power are not delivered at all (15 dB
        under the default noise floor), and links whose best-case
        post-mask power misses it do not exist (the band-audibility rule,
        see the module docstring); keeps event counts linear in the
        number of receivers that can hear a frame.
    link_cache:
        ``True`` (the default) selects the fast path: the
        :class:`~repro.phy.vectorized.VectorizedLinkCache` fan-out
        batches and the on-air table (see the module docstring).
        ``False`` selects the brute-force reference scan with eager
        per-receiver delivery.
    reference_accumulators:
        When ``True`` every radio registered on this medium answers its
        power probes by full per-call mask re-evaluation (the pre-PR-2
        algorithm) instead of the memoised-gain incremental
        accumulators.  Together with ``link_cache=False`` this is the
        complete reference path the differential oracle
        (``python -m repro check diff``) runs against.
    """

    def __init__(
        self,
        sim: Simulator,
        path_loss: PathLossModel,
        fading: Optional[FadingModel] = None,
        rng: Optional[RngStreams] = None,
        delivery_floor_dbm: float = -115.0,
        link_cache: bool = True,
        reference_accumulators: bool = False,
    ) -> None:
        self.sim = sim
        self.path_loss = path_loss
        self.fading = fading if fading is not None else NoFading()
        self.rng = rng if rng is not None else RngStreams(0)
        self.delivery_floor_dbm = delivery_floor_dbm
        self.reference_accumulators = bool(reference_accumulators)
        self._radios: List["Radio"] = []
        self._radio_ids: set = set()
        self._radios_snapshot: Optional[Tuple["Radio", ...]] = None
        self._gain_cache: Optional["VectorizedLinkCache"] = None
        if link_cache:
            from .vectorized import VectorizedLinkCache

            self._gain_cache = VectorizedLinkCache(self)
        #: Radios built on this medium fold the on-air table (if their
        #: class allows) exactly when the fast path is on.
        self.on_air_fast_path = self._gain_cache is not None
        #: id(source) -> transmissions begun so far (the fading counter).
        self._tx_seq: Dict[int, int] = {}
        #: The on-air table: id(transmission) -> record, in start order
        #: (fast path only; see the module docstring).
        self.on_air: Dict[int, OnAirRecord] = {}
        #: Folding radios with a reception in progress (their rows are
        #: flagged in the link cache's ``RadioArrays.locked``).
        self._locked_count = 0
        #: Records that ended within the last ``ENDED_LOG_S``, oldest
        #: first (the RSSI register of folding radios reads them).
        self._ended: Deque[OnAirRecord] = deque()
        from .radio import RadioState

        self._idle = RadioState.IDLE

    # ------------------------------------------------------------------
    def register(self, radio: "Radio") -> None:
        """Add a radio to the medium.  Called by ``Radio.__init__``."""
        if id(radio) in self._radio_ids:
            raise ValueError(f"radio {radio.name!r} registered twice")
        self._radio_ids.add(id(radio))
        self._radios.append(radio)
        self._radios_snapshot = None
        if self._gain_cache is not None:
            # The new radio may hear already-cached sources: fold it into
            # each cached batch in place (bit-identical to a full rebuild,
            # see VectorizedLinkCache.register_radio).
            self._gain_cache.register_radio(radio)

    @property
    def radios(self) -> Tuple["Radio", ...]:
        """All registered radios (immutable snapshot, cached between
        registrations so hot loops do not copy the list on every access)."""
        snapshot = self._radios_snapshot
        if snapshot is None:
            snapshot = self._radios_snapshot = tuple(self._radios)
        return snapshot

    def invalidate_link_cache(self) -> None:
        """Drop cached link budgets after a radio position change."""
        if self._gain_cache is not None:
            self._gain_cache.invalidate()

    def link_keys(
        self, source: "Radio", receivers: Sequence["Radio"]
    ) -> np.ndarray:
        """Fading link keys for ``source`` → each of ``receivers``."""
        return link_keys(
            self.rng.root_seed, source.name, [radio.name for radio in receivers]
        )

    # ------------------------------------------------------------------
    def _audible_entries(
        self, source: "Radio", tx_power_dbm: float, channel_mhz: float
    ) -> List[AudibleEntry]:
        """Reference fan-out: consult the scalar models for every radio."""
        path_loss = self.path_loss
        floor = self.delivery_floor_dbm
        headroom = self.fading.max_gain_db()
        entries: List[AudibleEntry] = []
        for radio in self._radios:
            if radio is source:
                continue
            mean_rss = path_loss.received_power_dbm(
                tx_power_dbm, source.position, radio.position
            )
            if best_case_dbm(radio, channel_mhz, mean_rss, headroom) < floor:
                continue  # no link
            entries.append((radio, mean_rss))
        return entries

    def begin_transmission(
        self,
        source: "Radio",
        frame: Frame,
        channel_mhz: float,
        tx_power_dbm: float,
        on_complete: Callable[[Transmission], None],
    ) -> Transmission:
        """Put ``frame`` on the air and fan it out to audible receivers.

        ``on_complete`` fires at end-of-airtime, *after* receivers have been
        told the signal ended (same timestamp, later priority ordering is
        guaranteed by scheduling receiver ends first).
        """
        sim = self.sim
        now = sim.now
        airtime = frame.airtime_s
        transmission = Transmission(
            source=source,
            frame=frame,
            channel_mhz=channel_mhz,
            tx_power_dbm=tx_power_dbm,
            start_time=now,
            end_time=now + airtime,
        )
        trace = sim.trace
        if trace.enabled:
            trace.emit(
                "tx_start",
                source=source.name,
                frame=frame.frame_id,
                channel=channel_mhz,
                power=tx_power_dbm,
                airtime=airtime,
            )
        obs = sim.obs
        if obs is not None:
            obs.on_transmission(source.name, channel_mhz, airtime)
        tx_seq = self._tx_seq
        counter = tx_seq.get(id(source), 0)
        tx_seq[id(source)] = counter + 1
        if self._gain_cache is not None:
            end = self._start_on_air(transmission, counter)
        else:
            end = self._start_reference(transmission, counter)
        if end is not None:
            sim.schedule(
                airtime, end, priority=PRIORITY_SIGNAL_END, tag="signal_end"
            )
        sim.schedule(
            airtime,
            lambda: on_complete(transmission),
            priority=PRIORITY_SIGNAL_END + 1,
            tag="tx_end",
        )
        return transmission

    # ------------------------------------------------------------------
    # Reference leg: eager per-receiver delivery
    # ------------------------------------------------------------------
    def _start_reference(
        self, transmission: Transmission, counter: int
    ) -> Optional[Callable[[], None]]:
        entries = self._audible_entries(
            transmission.source, transmission.tx_power_dbm,
            transmission.channel_mhz,
        )
        draws = self.fading.sample_db_many(
            self.link_keys(transmission.source, [r for r, _ in entries]),
            counter,
        ).tolist()
        floor = self.delivery_floor_dbm
        delivered: List[Tuple["Radio", Signal]] = []
        for (radio, mean_rss), draw in zip(entries, draws):
            rss = mean_rss + draw
            if rss < floor:
                continue
            signal = Signal(transmission, rss)
            radio.on_signal_start(signal)
            delivered.append((radio, signal))
        if not delivered:
            return None

        def _end_all() -> None:
            for radio, signal in delivered:
                radio.on_signal_end(signal)

        return _end_all

    # ------------------------------------------------------------------
    # Fast leg: the on-air table
    # ------------------------------------------------------------------
    def _start_on_air(
        self, transmission: Transmission, counter: int
    ) -> Optional[Callable[[], None]]:
        cache = self._gain_cache
        batch = cache.fanout_batch(
            transmission.source, transmission.tx_power_dbm,
            transmission.channel_mhz,
        )
        radios = batch.radios
        if not radios:
            return None
        rss_arr = batch.means + self.fading.sample_db_many(batch.keys, counter)
        keep_arr = rss_arr >= self.delivery_floor_dbm
        rows = batch.rows
        if self._locked_count:
            # Receptions in progress close their segment under the old
            # on-air set before this frame counts.
            hits = (cache.arrays.locked[rows] & keep_arr).nonzero()[0]
            for i in hits.tolist():
                radios[i].current_reception.on_interference_change()
        rss = rss_arr.tolist()
        keep = keep_arr.tolist()
        keep.append(False)
        record = OnAirRecord(
            transmission, batch.index, rss, keep,
            batch.decode_gains, batch.sense_gains,
        )
        key = id(transmission)
        self.on_air[key] = record
        # Lock candidates and eager receivers, in link order.
        eager: List[Tuple[int, "Radio", Signal]] = []
        idle = self._idle
        acting = (keep_arr & (rss_arr >= batch.lock_floor)).nonzero()[0]
        for i in acting.tolist():
            radio = radios[i]
            if radio._folds:
                if radio.state is idle and radio.current_reception is None:
                    radio._maybe_lock(Signal(transmission, rss[i]))
                    if radio.current_reception is not None:
                        cache.arrays.locked[radio._row] = True
                        self._locked_count += 1
            else:
                signal = Signal(transmission, rss[i])
                radio.on_signal_start(signal)
                eager.append((i, radio, signal))

        def _end() -> None:
            self._end_on_air(key, record, radios, rows, keep_arr, eager)

        return _end

    def _end_on_air(
        self,
        key: int,
        record: OnAirRecord,
        radios: List["Radio"],
        rows: np.ndarray,
        keep_arr: np.ndarray,
        eager: List[Tuple[int, "Radio", Signal]],
    ) -> None:
        """End of a record: close or finalize the receptions it reaches
        (record still on air), drop it, then dispatch in link order."""
        transmission = record.transmission
        steps: List[tuple] = []
        if self._locked_count:
            locked = self._gain_cache.arrays.locked
            for i in (locked[rows] & keep_arr).nonzero()[0].tolist():
                radio = radios[i]
                reception = radio.current_reception
                if reception.signal.transmission is transmission:
                    outcome = reception.finalize()
                    radio.current_reception = None
                    locked[radio._row] = False
                    self._locked_count -= 1
                    steps.append((i, radio, reception, outcome))
                else:
                    reception.on_interference_change()
        del self.on_air[key]
        ended = self._ended
        ended.append(record)
        horizon = self.sim.now - ENDED_LOG_S
        while ended[0].transmission.end_time < horizon:
            ended.popleft()
        if eager:
            steps.extend((i, radio, signal, None) for i, radio, signal in eager)
            steps.sort(key=itemgetter(0))
        for _, radio, held, outcome in steps:
            if outcome is None:
                radio.on_signal_end(held)
            else:
                radio._finish_reception(held, outcome)

    def unlock(self, radio: "Radio") -> None:
        """Clear a folding radio's reception flag (reception abandoned)."""
        self._gain_cache.arrays.locked[radio._row] = False
        self._locked_count -= 1

    def _pad_on_air(self) -> None:
        """Extend the keep lists of live and logged records after a
        registration grew their batches: the newcomer heard none of them."""
        for records in (self.on_air.values(), self._ended):
            for record in records:
                short = len(record.index) + 1 - len(record.keep)
                if short > 0:
                    record.keep.extend([False] * short)

    # ------------------------------------------------------------------
    # Reads of the on-air table (folding radios)
    # ------------------------------------------------------------------
    def signals_at(self, radio: "Radio") -> List[Signal]:
        """The signals on air at ``radio``, in start order (a snapshot).

        Each :class:`Signal` carries the RSS and cached post-mask powers
        the fold uses; the list is what the radio's active-signal list
        would hold under eager delivery."""
        signals: List[Signal] = []
        for record in self.on_air.values():
            i = record.index.get(radio, -1)
            if record.keep[i]:
                signal = Signal(record.transmission, record.rss[i])
                signal.decode_mw = signal.rx_power_mw * record.decode_gains[i]
                signal.sense_mw = signal.rx_power_mw * record.sense_gains[i]
                signals.append(signal)
        return signals

    def sense_average_mw(self, radio: "Radio", window_s: float) -> float:
        """Time-averaged sensing-path power at ``radio`` over the trailing
        ``window_s`` (the RSSI register of a folding radio).

        Integrates every reaching record, on air or ended within
        :data:`ENDED_LOG_S`, over its overlap with the window; longer
        windows miss records that ended before the log horizon."""
        now = self.sim.now
        horizon = now - window_s
        total = radio._noise_mw * window_s
        for records in (self._ended, self.on_air.values()):
            for record in records:
                transmission = record.transmission
                start = max(transmission.start_time, horizon)
                end = min(transmission.end_time, now)
                if end > start:
                    total += record.contribution_mw(
                        radio, record.sense_gains
                    ) * (end - start)
        return total / window_s
