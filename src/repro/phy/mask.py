"""Spectral leakage / adjacent-channel-rejection curves.

``leakage_db(delta_f)`` is the attenuation (in dB, >= 0) that a signal
transmitted with its centre ``delta_f`` MHz away from the receiver's channel
suffers before it lands in the receiver's passband.  The same curve governs

1. the interference power an off-channel transmission injects into a
   reception (SINR denominator), and
2. the energy an off-channel transmission contributes to a CCA / RSSI
   in-channel measurement.

This single curve is the physical quantity the whole paper rests on: the
trade-off between "more channels" and "more inter-channel interference" is
exactly the shape of this function.  The default
:data:`CC2420_LEAKAGE_POINTS` are calibrated (see
``tests/phy/test_calibration.py``) so that the collided-packet receive rate
versus CFD reproduces the paper's Fig. 4 anchors:

==========  ==================  =====================
CFD (MHz)   CPRR (paper Fig.4)  leakage here (dB)
==========  ==================  =====================
1           < 20 %              2
2           ~ 70 %              10.3
3           ~ 97 %              18
4           100 %               25
5 (ZigBee)  100 %, not fully    30
            orthogonal
>= 9        fully orthogonal    >= 48
==========  ==================  =====================
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence, Tuple

__all__ = [
    "SpectralMask",
    "PiecewiseLinearMask",
    "ShiftedMask",
    "PerfectOrthogonalMask",
    "CC2420_LEAKAGE_POINTS",
    "CCA_LEAKAGE_POINTS",
    "CCA_EXTRA_REJECTION_DB",
    "default_mask",
    "default_cca_mask",
]


class SpectralMask:
    """Interface: attenuation of an off-channel signal, in dB.

    Masks are values: two masks of one class with equal ``_key()``
    compare and hash equal, so the link cache evaluates one batch per
    distinct curve instead of one per radio.  Subclasses that do not
    override ``_key`` compare by identity.
    """

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def _key(self) -> tuple:
        return (id(self),)

    def leakage_db(self, delta_f_mhz: float) -> float:
        raise NotImplementedError

    def cached_leakage_db(self, delta_f_mhz: float) -> float:
        """:meth:`leakage_db`, memoised per offset where the mask allows.

        The base class does not memoise (a subclass may be mutable);
        :class:`PiecewiseLinearMask` keeps one memo per instance, so every
        radio sharing a default mask shares its memo.
        """
        return self.leakage_db(delta_f_mhz)

    def leakage_db_batch(self, delta_f_mhz: "object") -> "object":
        """Attenuation for an array of frequency offsets.

        Returns a float64 numpy array, bit-identical to element-wise
        :meth:`leakage_db` calls (the default loops; overrides should keep
        the guarantee — the link cache preselects band-audible links with
        it, inside a guard band).
        """
        import numpy as np

        out = np.empty(len(delta_f_mhz))
        for i, df in enumerate(delta_f_mhz):
            out[i] = self.leakage_db(float(df))
        return out

    def attenuated_power_dbm(self, power_dbm: float, delta_f_mhz: float) -> float:
        """Received in-band power of a signal offset by ``delta_f_mhz``."""
        return power_dbm - self.leakage_db(delta_f_mhz)


class PiecewiseLinearMask(SpectralMask):
    """Piecewise-linear attenuation over |Δf|, capped at ``max_db``.

    Immutable: the curve is stored as tuples and its ``_key``/hash are
    computed once, so one instance can be shared by every radio and
    equality/hashing (the link cache groups radios by mask) cost O(1).
    Its per-offset leakage memo (:meth:`cached_leakage_db`) is shared the
    same way.

    Parameters
    ----------
    points:
        ``(delta_f_mhz, attenuation_db)`` pairs; must start at Δf = 0 and be
        sorted by Δf with non-decreasing attenuation (a physical receiver
        filter never passes *more* energy further from the carrier).
    max_db:
        Attenuation applied beyond the last point.
    """

    def __init__(
        self, points: Sequence[Tuple[float, float]], max_db: float = 60.0
    ) -> None:
        if not points:
            raise ValueError("mask needs at least one point")
        freqs = [p[0] for p in points]
        attens = [p[1] for p in points]
        if freqs[0] != 0.0:
            raise ValueError("mask must start at delta_f = 0")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("mask frequencies must be strictly increasing")
        if any(b < a for a, b in zip(attens, attens[1:])):
            raise ValueError("mask attenuation must be non-decreasing")
        if max_db < attens[-1]:
            raise ValueError("max_db must be >= the last point's attenuation")
        self._freqs = tuple(freqs)
        self._attens = tuple(attens)
        self._max_db = max_db
        self._key_value = (self._freqs, self._attens, max_db)
        self._hash = hash((type(self), self._key_value))
        #: offset (MHz) -> leakage (dB); see :meth:`cached_leakage_db`.
        self._leakage_memo: dict = {}

    @property
    def max_db(self) -> float:
        return self._max_db

    def _key(self) -> tuple:
        return self._key_value

    def __hash__(self) -> int:
        return self._hash

    def cached_leakage_db(self, delta_f_mhz: float) -> float:
        leakage = self._leakage_memo.get(delta_f_mhz)
        if leakage is None:
            leakage = self._leakage_memo[delta_f_mhz] = self.leakage_db(
                delta_f_mhz
            )
        return leakage

    def leakage_db(self, delta_f_mhz: float) -> float:
        df = abs(delta_f_mhz)
        if df >= self._freqs[-1]:
            # Linear continuation toward the cap using the last segment slope.
            if len(self._freqs) >= 2:
                slope = (self._attens[-1] - self._attens[-2]) / (
                    self._freqs[-1] - self._freqs[-2]
                )
            else:
                slope = 0.0
            extended = self._attens[-1] + slope * (df - self._freqs[-1])
            return min(extended, self.max_db)
        idx = bisect_right(self._freqs, df) - 1
        if idx < 0:
            return self._attens[0]
        f0, f1 = self._freqs[idx], self._freqs[idx + 1]
        a0, a1 = self._attens[idx], self._attens[idx + 1]
        frac = (df - f0) / (f1 - f0)
        return a0 + frac * (a1 - a0)

    def leakage_db_batch(self, delta_f_mhz: "object") -> "object":
        # Bit-identical to the scalar method: linear interpolation uses
        # only IEEE-exact elementwise ops (+, -, *, /, min), and
        # searchsorted reproduces bisect_right exactly.
        import numpy as np

        df = np.abs(np.asarray(delta_f_mhz, dtype=float))
        freqs = np.asarray(self._freqs)
        attens = np.asarray(self._attens)
        out = np.empty(df.shape)
        beyond = df >= self._freqs[-1]
        if beyond.any():
            if len(self._freqs) >= 2:
                slope = (self._attens[-1] - self._attens[-2]) / (
                    self._freqs[-1] - self._freqs[-2]
                )
            else:
                slope = 0.0
            extended = self._attens[-1] + slope * (df[beyond] - self._freqs[-1])
            out[beyond] = np.minimum(extended, self.max_db)
        inner = ~beyond
        if inner.any():
            dfi = df[inner]
            # df >= 0 and freqs[0] == 0, so idx >= 0 always.
            idx = np.searchsorted(freqs, dfi, side="right") - 1
            f0 = freqs[idx]
            a0 = attens[idx]
            frac = (dfi - f0) / (freqs[idx + 1] - f0)
            out[inner] = a0 + frac * (attens[idx + 1] - a0)
        return out


class ShiftedMask(SpectralMask):
    """A mask with ``extra_db`` additional rejection beyond ``from_mhz``.

    Used to model the CC2420's *CCA/RSSI sensing path*, whose channel
    filter rejects adjacent-channel energy a few dB more sharply than the
    demodulator's effective interference coupling (the quantity the CPRR
    experiments calibrate).  Keeping the two curves separate lets the model
    honour both the Fig. 4 CPRR anchors (decode path) and the paper's
    network-level CCA-blocking levels (sensing path) simultaneously.
    """

    def __init__(
        self, base: SpectralMask, extra_db: float = 5.0, from_mhz: float = 0.75
    ) -> None:
        if extra_db < 0:
            raise ValueError("extra_db must be >= 0")
        self.base = base
        self.extra_db = extra_db
        self.from_mhz = from_mhz

    def _key(self) -> tuple:
        return (self.base, self.extra_db, self.from_mhz)

    def leakage_db(self, delta_f_mhz: float) -> float:
        base_db = self.base.leakage_db(delta_f_mhz)
        if abs(delta_f_mhz) <= self.from_mhz:
            return base_db
        return base_db + self.extra_db


class PerfectOrthogonalMask(SpectralMask):
    """Idealised filter: zero leakage off-channel, used for ablations.

    Any signal whose centre differs from the receiver channel by more than
    ``co_channel_tolerance_mhz`` is attenuated by ``max_db``.
    """

    def __init__(
        self, co_channel_tolerance_mhz: float = 0.25, max_db: float = 200.0
    ) -> None:
        self.co_channel_tolerance_mhz = co_channel_tolerance_mhz
        self.max_db = max_db

    def _key(self) -> tuple:
        return (self.co_channel_tolerance_mhz, self.max_db)

    def leakage_db(self, delta_f_mhz: float) -> float:
        if abs(delta_f_mhz) <= self.co_channel_tolerance_mhz:
            return 0.0
        return self.max_db


#: Calibrated CC2420-like leakage anchors (see module docstring and
#: ``tests/phy/test_calibration.py``).
CC2420_LEAKAGE_POINTS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (1.0, 2.0),
    (2.0, 10.3),
    (3.0, 18.0),
    (4.0, 25.0),
    (5.0, 30.0),
    (6.0, 35.0),
    (7.0, 40.0),
    (8.0, 44.0),
    (9.0, 48.0),
    (12.0, 56.0),
)


_DEFAULT_MASK = PiecewiseLinearMask(CC2420_LEAKAGE_POINTS, max_db=60.0)


def default_mask() -> PiecewiseLinearMask:
    """The CC2420-calibrated *decode-path* mask (CPRR anchors, Fig. 4).

    One shared (immutable) instance.
    """
    return _DEFAULT_MASK


#: Sensing-path (CCA/RSSI) rejection anchors.  The CC2420's RSSI channel
#: filter rolls off faster than the demodulator's effective interference
#: coupling: a couple of dB sharper at 2 MHz and markedly sharper from
#: 3 MHz out.  Calibrated against the paper's network-level observations:
#: at CFD = 3 MHz the default -77 dBm CCA is tripped only by *nearby*
#: cross-channel transmitters (Figs. 6, 14: partial blocking), while at
#: CFD = 2 MHz neighbouring channels couple into one carrier-sense domain
#: (Fig. 1's throughput drop at 2 MHz).
CCA_LEAKAGE_POINTS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (1.0, 3.0),
    (2.0, 11.0),
    (3.0, 26.0),
    (4.0, 33.0),
    (5.0, 38.0),
    (6.0, 43.0),
    (7.0, 47.0),
    (8.0, 51.0),
    (9.0, 55.0),
    (12.0, 62.0),
)

#: Kept for backwards compatibility / ablations: a flat extra rejection.
CCA_EXTRA_REJECTION_DB = 5.0

_DEFAULT_CCA_MASK = PiecewiseLinearMask(CCA_LEAKAGE_POINTS, max_db=66.0)


def default_cca_mask(base: SpectralMask | None = None) -> SpectralMask:
    """The sensing-path mask used for CCA / RSSI-register measurements.

    ``base`` is accepted for signature compatibility; when a caller supplies
    a custom decode mask (e.g. the 802.11b substrate) the sensing path
    falls back to a flat extra rejection on top of it, otherwise the
    CC2420-calibrated :data:`CCA_LEAKAGE_POINTS` curve is used (one
    shared, immutable instance).
    """
    if base is None or _is_default_decode_mask(base):
        return _DEFAULT_CCA_MASK
    return ShiftedMask(base, extra_db=CCA_EXTRA_REJECTION_DB)


def _is_default_decode_mask(mask: SpectralMask) -> bool:
    if mask is _DEFAULT_MASK:
        return True
    if not isinstance(mask, PiecewiseLinearMask):
        return False
    return tuple(zip(mask._freqs, mask._attens)) == CC2420_LEAKAGE_POINTS
