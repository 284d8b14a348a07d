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
channel)`` and one batched delivery loop.  ``link_cache=False`` is the
brute-force reference: every transmission scans every radio with the scalar
path-loss model and applies the same rule through the same function.  Both
legs therefore select the same links in the same (registration) order by
construction, and ``repro check diff`` proves the rest of the fast path
(accumulator updates, delivery) equal.

Fading draws are stateless (:mod:`repro.phy.fading`): a draw is a pure
function of the link key — a hash of the root seed and the two radio names
— and the source's transmit sequence number, which the medium counts.  Both
legs pass their key column for the transmission to the same
``sample_db_many`` call, so their floats are identical, and skipping a link
never shifts another link's draws.

Event ordering: at identical timestamps, signal *ends* fire before signal
*starts* (priority 0 vs 1) so that back-to-back transmissions do not appear
to overlap for an instant.  All per-receiver end notifications of one
transmission are delivered by a single batched event (they are scheduled
consecutively, so batching preserves the total order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.rng import RngStreams
from ..sim.simulator import Simulator
from .fading import FadingModel, NoFading, link_keys
from .frame import Frame
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
        receiver.mask.leakage_db(offset), receiver.cca_mask.leakage_db(offset)
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
        batches, the batched delivery loop, and per-band event-queue
        shards (each radio's timers and each transmission's end events
        land in its band's sub-heap; placement never reorders dispatch,
        DESIGN.md §15).  ``False`` selects the brute-force reference scan.
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
        #: channel_mhz -> event-queue shard index (lazily registered).
        self._band_shards: Dict[float, int] = {}
        #: id(source) -> transmissions begun so far (the fading counter).
        self._tx_seq: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def register(self, radio: "Radio") -> None:
        """Add a radio to the medium.  Called by ``Radio.__init__``."""
        if id(radio) in self._radio_ids:
            raise ValueError(f"radio {radio.name!r} registered twice")
        self._radio_ids.add(id(radio))
        self._radios.append(radio)
        self._radios_snapshot = None
        if self._gain_cache is not None:
            radio.event_shard = self._band_shard(radio.channel_mhz)
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

    def _band_shard(self, channel_mhz: float) -> int:
        """Event-queue shard for a frequency band (registered lazily)."""
        shard = self._band_shards.get(channel_mhz)
        if shard is None:
            shard = self.sim.add_event_shard()
            self._band_shards[channel_mhz] = shard
        return shard

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
        floor = self.delivery_floor_dbm
        fading = self.fading
        tx_seq = self._tx_seq
        counter = tx_seq.get(id(source), 0)
        tx_seq[id(source)] = counter + 1
        delivered: List[Tuple["Radio", Signal]] = []
        cache = self._gain_cache
        if cache is not None:
            # Batched delivery (DESIGN.md §15): one vector add for the
            # per-packet RSS column, then a tight loop over the survivors
            # that inlines Radio.on_signal_start/_add_signal against the
            # FanoutBatch's precomputed gain columns.  Every float
            # operation (mean+draw add, floor compare, 10**(rss/10),
            # gain multiplies, sense-sum accumulation) mirrors the
            # reference loop below operand-for-operand, so accumulator
            # bits and traces are identical — gated by `repro check diff`
            # and the whole-scene fast-vs-reference property tests.
            batch = cache.fanout_batch(source, tx_power_dbm, channel_mhz)
            radios = batch.radios
            if radios:
                rss_arr = batch.means + fading.sample_db_many(batch.keys, counter)
                keep = rss_arr >= floor
                if keep.all():
                    indices = range(len(radios))
                else:
                    indices = np.nonzero(keep)[0].tolist()
                rss_values = rss_arr.tolist()
                decode_gains = batch.decode_gains
                sense_gains = batch.sense_gains
                co_channel = batch.co_channel
                inline = batch.inline
                checks = sim.checks
                append = delivered.append
                for i in indices:
                    radio = radios[i]
                    rss = rss_values[i]
                    if not inline[i]:
                        # Subclass with custom lock semantics: deliver
                        # through its own on_signal_start, exactly as the
                        # reference loop does.
                        signal = Signal(transmission, rss)
                        radio.on_signal_start(signal)
                        append((radio, signal))
                        continue
                    signal = Signal.__new__(Signal)
                    signal.transmission = transmission
                    signal.rx_power_dbm = rss
                    mw = 10.0 ** (rss / 10.0)
                    signal.rx_power_mw = mw
                    signal.channel_mhz = channel_mhz
                    signal.decode_mw = mw * decode_gains[i]
                    sense_mw = mw * sense_gains[i]
                    signal.sense_mw = sense_mw
                    reception = radio.current_reception
                    if reception is not None:
                        # Close the elapsed segment under the old
                        # interference set before this signal counts.
                        reception.on_interference_change()
                    radio.active_signals.append(signal)
                    sense_sum = radio._sense_sum_mw + sense_mw
                    radio._sense_sum_mw = sense_sum
                    radio._sense_history.append(
                        (now, radio._noise_mw + sense_sum)
                    )
                    if checks is not None:
                        checks.on_accumulator_update(radio)
                    if reception is None and co_channel[i]:
                        radio._maybe_lock(signal)
                    append((radio, signal))
        else:
            entries = self._audible_entries(source, tx_power_dbm, channel_mhz)
            radios = [radio for radio, _ in entries]
            draws = fading.sample_db_many(
                self.link_keys(source, radios), counter
            ).tolist()
            for (radio, mean_rss), draw in zip(entries, draws):
                rss = mean_rss + draw
                if rss < floor:
                    continue
                signal = Signal(transmission, rss)
                radio.on_signal_start(signal)
                delivered.append((radio, signal))
        if delivered:
            # One batched end event for the whole fan-out: the per-receiver
            # notifications would have been scheduled consecutively (same
            # time, same priority, adjacent sequence numbers), so invoking
            # them in order from a single event preserves the total order
            # while keeping heap traffic O(1) per transmission.
            def _end_all() -> None:
                for radio, signal in delivered:
                    radio.on_signal_end(signal)

            # Band-local events ride the source's band shard (None: main
            # heap).  Placement never affects dispatch order — see
            # repro.sim.events — it only isolates per-band heap churn.
            sim.schedule(
                airtime, _end_all, priority=PRIORITY_SIGNAL_END,
                tag="signal_end", shard=source.event_shard,
            )
        sim.schedule(
            airtime,
            lambda: on_complete(transmission),
            priority=PRIORITY_SIGNAL_END + 1,
            tag="tx_end",
            shard=source.event_shard,
        )
        return transmission
