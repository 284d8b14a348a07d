"""The link cache: band-audible fan-outs, built in batches.

:class:`VectorizedLinkCache` is the medium's fast path.  For every
``(source, tx power, channel)`` it builds, once, the :class:`FanoutBatch`
of links that exist under the band-audibility rule (see
:mod:`repro.phy.medium`), together with the delivery columns that the
batched loop in ``Medium.begin_transmission`` reads on every frame.

Exactness
---------
A batch holds exactly the links the brute-force reference
(``Medium(link_cache=False)``) finds, with the same mean-RSS floats, in the
same (registration) order.  The build gets there in two steps:

1. **Preselect** over the whole registry in numpy: the batched path loss
   (``received_power_dbm_batch``) plus the fading headroom, minus each
   receiver's smaller mask leakage at the channel offset
   (``leakage_db_batch``, cached per channel in :class:`RadioArrays`),
   against the floor lowered by :data:`PRESELECT_GUARD_DB`.  numpy's
   transcendentals may differ from libm in the last ulp; the guard band
   is nine orders of magnitude wider, so preselection never drops a link
   the rule keeps.
2. **Confirm** every candidate with the scalar path-loss model and
   :func:`~repro.phy.medium.best_case_dbm` — the very calls the reference
   makes — and keep the scalar mean RSS.

Each confirmed link gets its fading key (:func:`~repro.phy.fading.
link_keys`), a hash of the root seed and the two radio names; draws are
elementwise in the key column, so which links exist never moves another
link's draws.  Registering a radio appends it to every cached batch it has
a link in: it is last in registration order, which is where a rebuild
would place it.

Error budget
------------
While ``sim.obs`` is bound, each build also adds every dropped link's
best-case post-mask power, as a fraction of its receiver's noise power, to
a per-receiver sum.  The largest sum — an upper bound on the power the
rule discards at any receiver at any instant — is exported as the gauge
``phy.medium.culled_power_frac_noise_max``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from .medium import best_case_dbm

if TYPE_CHECKING:  # pragma: no cover
    from .mask import SpectralMask
    from .medium import Medium
    from .radio import Radio

__all__ = [
    "RadioArrays",
    "VectorizedLinkCache",
    "FanoutBatch",
    "PRESELECT_GUARD_DB",
    "CULLED_POWER_GAUGE",
]

#: Guard band (dB) subtracted from the delivery floor during batched
#: preselection.  SIMD-vs-libm rounding differences are a few ulp
#: (~1e-13 dB at typical RSS magnitudes); 1e-6 dB leaves nine orders of
#: magnitude of margin while dropping everything meaningfully inaudible.
PRESELECT_GUARD_DB = 1e-6

#: Obs gauge: the largest per-receiver sum of dropped best-case post-mask
#: power, as a fraction of that receiver's noise power.
CULLED_POWER_GAUGE = "phy.medium.culled_power_frac_noise_max"


class FanoutBatch:
    """Per-(source, tx power, channel) links and their delivery columns.

    Everything the batched delivery loop in ``Medium.begin_transmission``
    needs per link, gathered once and reused for every frame:

    - ``keys``: the uint64 fading link keys, in link order;
    - ``means`` as a float64 array so the per-packet RSS (`mean + draw`)
      computes in one vector add (IEEE elementwise add — bit-identical to
      the reference's scalar sums);
    - ``decode_gains`` / ``sense_gains`` pulled from each receiver's own
      ``_gains_for`` memo, so batched accumulator updates multiply the
      exact floats ``Radio._add_signal`` would use;
    - ``co_channel`` flags precomputing the lock-eligibility offset test;
    - ``inline`` flags marking receivers whose class uses the base
      ``Radio.on_signal_start`` — only those may take the inlined
      delivery loop; subclasses with custom lock semantics (e.g. the
      false-locking 802.11b radio) are dispatched through their own
      ``on_signal_start`` override.
    """

    __slots__ = (
        "radios", "keys", "means", "decode_gains", "sense_gains",
        "co_channel", "inline",
    )

    def __init__(self) -> None:
        self.radios: List["Radio"] = []
        self.keys = np.empty(0, dtype=np.uint64)
        self.means = np.empty(0)
        self.decode_gains: List[float] = []
        self.sense_gains: List[float] = []
        self.co_channel: List[bool] = []
        self.inline: List[bool] = []

    def extend(
        self,
        radios: Sequence["Radio"],
        means: Sequence[float],
        keys: np.ndarray,
        channel_mhz: float,
    ) -> None:
        """Append links (in order) for a transmission on ``channel_mhz``."""
        from .radio import Radio

        base_start = Radio.on_signal_start
        for radio in radios:
            gains = radio._gains_for(channel_mhz)
            self.decode_gains.append(gains[0])
            self.sense_gains.append(gains[1])
            offset = channel_mhz - radio.channel_mhz
            self.co_channel.append(
                (offset if offset >= 0.0 else -offset)
                <= radio._co_channel_tolerance_mhz
            )
            # Radios overriding on_signal_start (custom lock semantics)
            # must not take the inlined delivery loop.
            self.inline.append(type(radio).on_signal_start is base_start)
        self.radios.extend(radios)
        self.keys = np.append(self.keys, keys)
        self.means = np.append(self.means, np.asarray(means, dtype=np.float64))


class RadioArrays:
    """Contiguous struct-of-arrays mirror of a medium's radio registry.

    Holds positions, centre frequencies and noise powers in flat float64
    arrays (grown amortised-O(1)) alongside the radio objects in
    registration order, so batched kernels can run over the whole
    registry without touching per-object Python attributes.  Radios are
    grouped by their ``(mask, cca_mask)`` pair (masks compare by value),
    so the per-channel leakage array costs one batch per distinct pair.
    """

    __slots__ = (
        "radios", "_xy", "_channels", "_noise_mw", "_count",
        "_mask_groups", "_min_leakage",
    )

    def __init__(self) -> None:
        self.radios: List["Radio"] = []
        self._xy = np.empty((16, 2))
        self._channels = np.empty(16)
        self._noise_mw = np.empty(16)
        self._count = 0
        self._mask_groups: Dict[Tuple["SpectralMask", "SpectralMask"], List[int]] = {}
        #: channel_mhz -> min(decode, sense) leakage per radio (dB).
        self._min_leakage: Dict[float, np.ndarray] = {}

    def __len__(self) -> int:
        return self._count

    @property
    def xy(self) -> np.ndarray:
        """Positions, shape ``(n, 2)`` (a view; do not mutate)."""
        return self._xy[: self._count]

    @property
    def channels_mhz(self) -> np.ndarray:
        """Centre frequencies, shape ``(n,)`` (a view; do not mutate)."""
        return self._channels[: self._count]

    @property
    def noise_mw(self) -> np.ndarray:
        """Noise-floor powers in mW, shape ``(n,)`` (a view)."""
        return self._noise_mw[: self._count]

    def append(self, radio: "Radio") -> None:
        n = self._count
        if n == len(self._xy):
            self._xy = np.resize(self._xy, (2 * n, 2))
            self._channels = np.resize(self._channels, 2 * n)
            self._noise_mw = np.resize(self._noise_mw, 2 * n)
        self._xy[n, 0] = radio.position[0]
        self._xy[n, 1] = radio.position[1]
        self._channels[n] = radio.channel_mhz
        self._noise_mw[n] = radio._noise_mw
        self.radios.append(radio)
        self._mask_groups.setdefault((radio.mask, radio.cca_mask), []).append(n)
        self._min_leakage.clear()
        self._count = n + 1

    def refresh(self) -> None:
        """Re-copy positions/channels from the radio objects.

        Called on cache invalidation so explicit position changes (the one
        sanctioned mutation, via ``Medium.invalidate_link_cache``) are
        reflected in the arrays."""
        xy = self._xy
        channels = self._channels
        for i, radio in enumerate(self.radios):
            xy[i, 0] = radio.position[0]
            xy[i, 1] = radio.position[1]
            channels[i] = radio.channel_mhz
        self._min_leakage.clear()

    def min_leakage_db(self, channel_mhz: float) -> np.ndarray:
        """Each radio's ``min(mask, cca_mask)`` leakage for a transmission
        on ``channel_mhz`` (cached per channel)."""
        leakage = self._min_leakage.get(channel_mhz)
        if leakage is None:
            leakage = np.empty(self._count)
            offsets = channel_mhz - self.channels_mhz
            for (mask, cca_mask), members in self._mask_groups.items():
                idx = np.asarray(members)
                group = offsets[idx]
                leakage[idx] = np.minimum(
                    mask.leakage_db_batch(group),
                    cca_mask.leakage_db_batch(group),
                )
            self._min_leakage[channel_mhz] = leakage
        return leakage


class VectorizedLinkCache:
    """Band-audible fan-out batches, built in one numpy pass each.

    Built lazily: the batch for a ``(source, tx power, channel)`` is
    computed on its first transmission and reused for every subsequent
    frame.  Registering a new radio updates every cached batch
    incrementally (:meth:`register_radio`); moving a radio requires an
    explicit :meth:`invalidate` (positions are assumed static).
    """

    __slots__ = ("_medium", "arrays", "_batches", "_sources", "_culled_frac")

    def __init__(self, medium: "Medium") -> None:
        self._medium = medium
        self.arrays = RadioArrays()
        #: (id(source), tx power, channel) -> links and delivery columns.
        self._batches: Dict[Tuple[int, float, float], FanoutBatch] = {}
        #: id(source) -> source, so cached keys can be resolved back to
        #: radios during incremental registration.  Holding the reference
        #: also guarantees the id is never recycled while cached.
        self._sources: Dict[int, "Radio"] = {}
        #: Per-radio sum of dropped best-case power / noise power (only
        #: maintained while sim.obs is bound; see the module docstring).
        self._culled_frac = np.zeros(0)

    # -- registry maintenance ------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached batch (e.g. after a position change)."""
        self._batches.clear()
        self._sources.clear()
        self._culled_frac = np.zeros(0)
        self.arrays.refresh()

    def register_radio(self, radio: "Radio") -> None:
        """Fold a newly registered radio into every cached batch.

        A rebuild iterates the registry in registration order, so the
        newcomer — last in that order — would land at the end of every
        batch it has a link in.  Appending it there, with the mean RSS
        from the same scalar model call, is bit-identical to invalidating
        and rebuilding, at O(cached batches) cost.
        """
        self.arrays.append(radio)
        if not self._batches:
            return
        medium = self._medium
        path_loss = medium.path_loss
        floor = medium.delivery_floor_dbm
        headroom = medium.fading.max_gain_db()
        culled_mw = 0.0
        for (source_id, tx_power_dbm, channel_mhz), batch in self._batches.items():
            source = self._sources[source_id]
            mean_rss = path_loss.received_power_dbm(
                tx_power_dbm, source.position, radio.position
            )
            best = best_case_dbm(radio, channel_mhz, mean_rss, headroom)
            if best < floor:
                culled_mw += 10.0 ** (best / 10.0)
                continue
            batch.extend(
                [radio], [mean_rss], medium.link_keys(source, [radio]),
                channel_mhz,
            )
        if culled_mw and medium.sim.obs is not None:
            frac = np.zeros(len(self.arrays))
            frac[-1] = culled_mw / radio._noise_mw
            self._add_culled(frac)

    # -- fan-out ---------------------------------------------------------
    def fanout_batch(
        self, source: "Radio", tx_power_dbm: float, channel_mhz: float
    ) -> FanoutBatch:
        """The links of ``source`` for a transmission on ``channel_mhz``."""
        key = (id(source), tx_power_dbm, channel_mhz)
        batch = self._batches.get(key)
        if batch is None:
            batch = self._build(source, tx_power_dbm, channel_mhz)
            self._batches[key] = batch
            self._sources[id(source)] = source
        return batch

    def _build(
        self, source: "Radio", tx_power_dbm: float, channel_mhz: float
    ) -> FanoutBatch:
        medium = self._medium
        path_loss = medium.path_loss
        floor = medium.delivery_floor_dbm
        headroom = medium.fading.max_gain_db()
        arrays = self.arrays
        radios = arrays.radios
        approx = None
        if headroom == float("inf"):
            candidates: Sequence[int] = range(len(radios))  # rule keeps all
        else:
            approx = (
                path_loss.received_power_dbm_batch(
                    tx_power_dbm, source.position, arrays.xy
                )
                + headroom
                - arrays.min_leakage_db(channel_mhz)
            )
            candidates = np.nonzero(approx >= floor - PRESELECT_GUARD_DB)[0].tolist()
        kept: List[int] = []
        survivors: List["Radio"] = []
        means: List[float] = []
        for i in candidates:
            radio = radios[i]
            if radio is source:
                continue
            # Exact confirmation through the reference's own calls.
            mean_rss = path_loss.received_power_dbm(
                tx_power_dbm, source.position, radio.position
            )
            if best_case_dbm(radio, channel_mhz, mean_rss, headroom) < floor:
                continue
            kept.append(i)
            survivors.append(radio)
            means.append(mean_rss)
        if approx is not None and medium.sim.obs is not None:
            frac = 10.0 ** (approx / 10.0) / arrays.noise_mw
            frac[kept] = 0.0
            frac[radios.index(source)] = 0.0
            if frac.any():
                self._add_culled(frac)
        batch = FanoutBatch()
        batch.extend(
            survivors, means, medium.link_keys(source, survivors), channel_mhz
        )
        return batch

    # -- error budget ----------------------------------------------------
    def _add_culled(self, frac: np.ndarray) -> None:
        """Add per-radio dropped power fractions (registry-length array).

        The gauge is registered with the first dropped link, so scenes
        where the rule drops nothing export no extra series."""
        total = self._culled_frac
        if len(total) < len(frac):
            total = np.concatenate([total, np.zeros(len(frac) - len(total))])
        total[: len(frac)] += frac
        self._culled_frac = total
        self._medium.sim.obs.registry.gauge(
            CULLED_POWER_GAUGE, self.culled_power_frac_noise_max
        )

    def culled_power_frac_noise_max(self) -> float:
        """Largest per-receiver dropped-power sum, as a fraction of noise."""
        total = self._culled_frac
        return float(total.max()) if len(total) else 0.0
