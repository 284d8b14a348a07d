"""DCN — Dynamic CCA-threshold for Non-orthogonal transmission.

:class:`DcnCcaPolicy` is the deployable form of the paper's scheme: a
:class:`~repro.mac.cca.CcaPolicy` that owns a
:class:`~repro.core.adjustor.CcaAdjustor` and drives it from live MAC/radio
events:

- every snooped co-channel frame's RSSI feeds ``observe_rssi`` (the radio
  buffers co-channel packets anyway, so this costs nothing — paper §V-B2);
- during the initializing phase a 1 ms sampler reads the radio's RSSI
  register into ``observe_sense`` (this *does* cost CPU, which is why the
  paper stops it after T_I);
- a T_U-period timer triggers the Case-II relaxation check.

Swapping ``FixedCcaThreshold`` for ``DcnCcaPolicy`` on a node is the entire
deployment story, mirroring the paper's drop-in CCA-Adjustor component
(Fig. 11).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..mac.cca import CcaPolicy
from ..phy.errors import FrameReception
from ..phy.radio import RadioState
from .adjustor import AdjustorConfig, CcaAdjustor

if TYPE_CHECKING:  # pragma: no cover
    from ..mac.mac import Mac

__all__ = ["DcnCcaPolicy"]


class DcnCcaPolicy(CcaPolicy):
    """The paper's DCN scheme as a pluggable CCA policy."""

    def __init__(self, config: Optional[AdjustorConfig] = None) -> None:
        self.config = config if config is not None else AdjustorConfig()
        self._adjustor: Optional[CcaAdjustor] = None
        self._mac: Optional["Mac"] = None
        self._detached = False
        #: Pending self-scheduled events, so :meth:`detach` can cancel
        #: them: the sense sampler, the init-done marker and the Case-II
        #: periodic timer (which otherwise re-arms forever and keeps
        #: ``run_until_idle`` from terminating).
        self._sense_event = None
        self._init_event = None
        self._periodic_event = None

    # ------------------------------------------------------------------
    # CcaPolicy interface
    # ------------------------------------------------------------------
    def attach(self, mac: "Mac") -> None:
        if self._mac is not None:
            raise RuntimeError("a DcnCcaPolicy instance serves exactly one MAC")
        self._mac = mac
        # Late-joiner audit: every schedule() below uses *relative*
        # delays, and the adjustor anchors its history and Case-II
        # reference at ``sim.now`` (not t = 0), so attaching mid-run —
        # a node booting into an already-busy network — behaves exactly
        # like attaching at t = 0 shifted by the boot time.  The
        # initializing phase ends at ``now + T_I`` and the first Case-II
        # check fires at ``now + T_I + T_U``.
        self._adjustor = CcaAdjustor(mac.sim, self.config, owner=mac.name)
        sim = mac.sim
        if self.config.t_init_s > 0:
            self._schedule_sense_sample()
            self._init_event = sim.schedule(
                self.config.t_init_s, self._finish_init, tag="dcn.init_done"
            )
        else:
            self._adjustor.finish_initialization()
        self._periodic_event = sim.schedule(
            self._first_case2_delay(), self._periodic, tag="dcn.case2"
        )

    def detach(self) -> None:
        """Stop all self-scheduled timers so the simulation can drain.

        Idempotent; safe before ``attach``.  The adjustor (and therefore
        ``threshold_dbm``/``history``) stays usable — only the periodic
        drivers stop.  If the initializing phase was still running it is
        finished immediately so the threshold settles at its Case-I
        value rather than staying pinned at the initial one.
        """
        self._detached = True
        if self._mac is None:
            return
        sim = self._mac.sim
        for event in (self._sense_event, self._init_event, self._periodic_event):
            if event is not None:
                sim.cancel(event)
        self._sense_event = self._init_event = self._periodic_event = None
        if self._adjustor is not None and self._adjustor.initializing:
            self._adjustor.finish_initialization()

    def threshold_dbm(self) -> float:
        assert self._adjustor is not None, "policy not attached"
        return self._adjustor.threshold_dbm()

    def on_frame_snooped(self, reception: FrameReception) -> None:
        # The radio only ever locks co-channel frames, so every snooped
        # reception is by construction a co-channel observation.
        assert self._adjustor is not None, "policy not attached"
        self._adjustor.observe_rssi(reception.rssi_dbm)

    def describe(self) -> str:
        return (
            f"DCN(T_I={self.config.t_init_s:g}s, T_U={self.config.t_update_s:g}s, "
            f"margin={self.config.margin_db:g}dB)"
        )

    def history(self) -> List[Tuple[float, float]]:
        if self._adjustor is None:
            return []
        return self._adjustor.history()

    # ------------------------------------------------------------------
    # Internal drivers
    # ------------------------------------------------------------------
    @property
    def adjustor(self) -> CcaAdjustor:
        assert self._adjustor is not None, "policy not attached"
        return self._adjustor

    def _schedule_sense_sample(self) -> None:
        assert self._mac is not None and self._adjustor is not None
        sim = self._mac.sim

        def _sample() -> None:
            assert self._adjustor is not None and self._mac is not None
            if self._detached:
                return
            if self._adjustor.initializing:
                # A transmitting radio cannot sense; skip those samples.
                if self._mac.radio.state is RadioState.IDLE:
                    self._adjustor.observe_sense(self._mac.radio.sense_power_dbm())
                    self._mac.radio.energy.note_sense_sample()
                self._sense_event = sim.schedule(
                    self.config.sense_interval_s, _sample, tag="dcn.sense"
                )

        self._sense_event = sim.schedule(
            self.config.sense_interval_s, _sample, tag="dcn.sense"
        )

    def _finish_init(self) -> None:
        assert self._adjustor is not None
        self._adjustor.finish_initialization()

    def _first_case2_delay(self) -> float:
        return self.config.t_init_s + self.config.t_update_s

    def _periodic(self) -> None:
        assert self._adjustor is not None and self._mac is not None
        if self._detached:
            return
        self._adjustor.periodic_update()
        self._periodic_event = self._mac.sim.schedule(
            self.config.t_update_s, self._periodic, tag="dcn.case2"
        )
