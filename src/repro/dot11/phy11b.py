"""A minimal 802.11b PHY for the Fig. 2 contrast experiment.

The paper's Fig. 2 (after Mishra et al.) contrasts two receiver behaviours:

- an **802.11b** receiver *does* synchronise to packets from partially
  overlapped channels — the energy looks like a valid DSSS preamble, the
  receiver locks, spends the frame time decoding garbage, and misses any
  concurrent packet on its own channel;
- an **802.15.4** receiver *cannot* decode anything even 1 MHz off its
  centre frequency, so neighbouring-channel energy is just noise.

:class:`Dot11Radio` implements the first behaviour by overriding the lock
rule of :class:`~repro.phy.radio.Radio`: a signal is lockable when its
*post-mask* in-band power clears the sensitivity, whatever its channel; but
decoding only succeeds for co-channel signals.

Everything else (medium, SINR segments, CSMA engine) is reused from the
main substrate with 802.11b constants.
"""

from __future__ import annotations

from typing import Tuple

from ..mac.params import MacParams
from ..phy.mask import PiecewiseLinearMask
from ..phy.medium import Signal
from ..phy.modulation import dbpsk_ber
from ..phy.radio import Radio, RadioConfig, RadioState
from ..phy.reception import Reception
from ..sim.units import MICROSECOND, linear_to_db, mw_to_dbm

__all__ = [
    "DOT11B_CHANNEL_1_MHZ",
    "DOT11B_CHANNEL_SPACING_MHZ",
    "DOT11B_BIT_RATE_BPS",
    "dot11b_channel_mhz",
    "dot11b_mask",
    "dot11b_mac_params",
    "Dot11Radio",
]

DOT11B_CHANNEL_1_MHZ = 2412.0
DOT11B_CHANNEL_SPACING_MHZ = 5.0
#: 1 Mbps DBPSK (the basic rate keeps airtime math simple).
DOT11B_BIT_RATE_BPS = 1_000_000

#: 802.11b DSSS signals are ~22 MHz wide; spectral overlap between two
#: channels k steps (5 MHz each) apart decays slowly — channels only become
#: orthogonal ~5 steps (25 MHz) apart.  Attenuation versus offset follows
#: the usual partial-overlap factors for the 802.11b transmit mask.
DOT11B_OVERLAP_POINTS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (5.0, 1.0),
    (10.0, 5.0),
    (15.0, 12.0),
    (20.0, 22.0),
    (25.0, 50.0),
    (30.0, 62.0),
)


def dot11b_channel_mhz(channel: int) -> float:
    """Centre frequency of 802.11b channel 1..11."""
    if not 1 <= channel <= 11:
        raise ValueError(f"802.11b channel must be in 1..11, got {channel}")
    return DOT11B_CHANNEL_1_MHZ + DOT11B_CHANNEL_SPACING_MHZ * (channel - 1)


def dot11b_mask() -> PiecewiseLinearMask:
    """Partial-overlap attenuation of ~22 MHz-wide 802.11b DSSS signals."""
    return PiecewiseLinearMask(DOT11B_OVERLAP_POINTS, max_db=70.0)


def dot11b_mac_params() -> MacParams:
    """DCF-flavoured CSMA parameters.

    We reuse the unslotted CSMA/CA engine with 802.11-scale timing: 20 us
    slots, CWmin = 32 slots (2^5), one CCA per attempt standing in for the
    DIFS check.  The engine is 802.15.4-shaped, but for a saturated
    two-link contrast the differences (freeze-and-resume backoff) do not
    change who can decode what — which is the phenomenon under test.
    """
    return MacParams(
        mac_min_be=5,
        mac_max_be=8,
        max_csma_backoffs=6,
        unit_backoff_s=20.0 * MICROSECOND,
        cca_duration_s=15.0 * MICROSECOND,
        turnaround_s=10.0 * MICROSECOND,
    )


#: Shared by every :class:`Dot11Radio` built without a config (frozen).
_DOT11B_CONFIG = RadioConfig(
    sensitivity_dbm=-84.0,
    noise_floor_dbm=-95.0,
    capture_threshold_db=-1.0,
    co_channel_tolerance_mhz=0.5,
)


class Dot11Radio(Radio):
    """A radio whose receiver false-locks onto overlapped-channel energy."""

    #: The false-lock rule reads every delivered signal (any channel), so
    #: this receiver keeps eager per-signal state on every medium path.
    folds_on_air = False

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("mask", dot11b_mask())
        # The sensing path and decode path share the wide 11b filter.
        kwargs.setdefault("cca_mask", kwargs["mask"])
        kwargs.setdefault("config", _DOT11B_CONFIG)
        super().__init__(*args, **kwargs)
        self.false_locks = 0

    def on_signal_start(self, signal: Signal) -> None:
        if self.current_reception is not None:
            # Close the elapsed segment under the old interference set.
            self.current_reception.on_interference_change()
            self._add_signal(signal)
            return
        self._add_signal(signal)
        if self.state is not RadioState.IDLE:
            return
        # Post-mask in-band power was cached by _add_signal.
        in_band_dbm = mw_to_dbm(signal.decode_mw)
        if in_band_dbm < self.config.sensitivity_dbm:
            return
        if self._lock_sinr_db(signal) < self.config.capture_threshold_db:
            self.sim.trace.emit(
                "preamble_missed", radio=self.name, frame=signal.frame.frame_id
            )
            return
        # The 802.11 receiver locks regardless of the signal's channel —
        # this is precisely what makes overlapped-channel concurrency
        # infeasible in 802.11 and feasible in 802.15.4.
        if not self._is_co_channel(signal):
            self.false_locks += 1
            self.sim.trace.emit(
                "false_lock", radio=self.name, frame=signal.frame.frame_id
            )
        self.current_reception = Reception(
            self,
            signal,
            ber_model=dbpsk_ber,
            bit_rate_bps=DOT11B_BIT_RATE_BPS,
        )

    def on_signal_end(self, signal: Signal) -> None:
        reception = self.current_reception
        locked_on_this = reception is not None and reception.signal is signal
        if locked_on_this:
            outcome = reception.finalize()
            self.current_reception = None
            self._remove_signal(signal)
            if self._is_co_channel(signal):
                self._dispatch_reception(outcome)
            # A false-locked off-channel frame never decodes: the receiver
            # simply wasted its airtime.  Nothing is dispatched.
            return
        if self.current_reception is not None:
            self.current_reception.on_interference_change()
        self._remove_signal(signal)

    def _lock_sinr_db(self, signal: Signal) -> float:
        # The post-mask in-band power was cached when the signal was added.
        in_band_mw = signal.decode_mw
        interference_mw = self.in_channel_power_mw(exclude=signal)
        if interference_mw <= 0.0:
            return 100.0
        return linear_to_db(in_band_mw / interference_mw)
