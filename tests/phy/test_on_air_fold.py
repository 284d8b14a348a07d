"""The on-air table against eager delivery (DESIGN.md §15).

On the fast path most radios keep no per-signal state: their probes fold
the medium's on-air records.  These tests run random small scenes with
mixed channels and one radio that must stay eager (an 802.11b receiver
or a radio averaging its RSSI register) on both legs, with invariants
armed, and require

- identical traces on the fast and reference legs;
- at random probe instants, every folding radio's ``sensed_power_mw`` and
  ``in_channel_power_mw(exclude)`` equal to ``resample_*`` bit for bit;
- every radio's ``active_signals`` listing the same transmissions, with
  the same RSS, in the same order as the reference leg's eager list.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.invariants import CheckConfig, InvariantChecker
from repro.dot11.phy11b import Dot11Radio
from repro.phy.fading import LogNormalFading
from repro.phy.frame import Frame, reset_frame_ids
from repro.phy.medium import Medium
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import Radio, RadioConfig
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace

CHANNELS = (2458.0, 2459.0, 2460.0, 2461.0, 2463.0, 2465.0)
RUN_S = 0.02


def _run(seed, n_radios, exempt, fast):
    reset_frame_ids()
    draw = random.Random(seed)
    trace = Trace(enabled=True)
    sim = Simulator(
        trace=trace, checks=InvariantChecker(CheckConfig(resample_every=1))
    )
    trace.bind_clock(lambda: sim.now)
    rng = RngStreams(seed)
    medium = Medium(
        sim,
        LogDistancePathLoss(),
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0),
        rng=rng,
        link_cache=fast,
        reference_accumulators=not fast,
    )
    radios = []
    for i in range(n_radios):
        position = (draw.uniform(0.0, 40.0), draw.uniform(0.0, 40.0))
        channel = draw.choice(CHANNELS)
        if i == 0 and exempt == "dot11":
            radio = Dot11Radio(sim, medium, f"r{i}", position, channel, 0.0,
                               rng=rng)
        elif i == 0:
            radio = Radio(sim, medium, f"r{i}", position, channel, 0.0,
                          rng=rng, config=RadioConfig(cca_averaging=True))
        else:
            radio = Radio(sim, medium, f"r{i}", position, channel, 0.0,
                          rng=rng)
        radios.append(radio)
    assert radios[0]._folds is False
    assert all(radio._folds is fast for radio in radios[1:])

    def chain(radio, gaps):
        if not gaps:
            return
        frame = Frame(radio.name, None, draw.randint(10, 60))
        sim.schedule(
            gaps[0],
            lambda: radio.transmit(frame, lambda _t: chain(radio, gaps[1:])),
        )

    for radio in radios:
        chain(radio, [draw.uniform(0.0, 2e-3) for _ in range(8)])
    probes = []

    def probe(radio):
        signals = radio.active_signals
        probes.append((
            radio.name,
            sim.now,
            [(s.transmission.frame.frame_id, s.rx_power_dbm) for s in signals],
            radio.sensed_power_mw(),
            radio.in_channel_power_mw(),
        ))
        if radio._folds:
            assert radio.sensed_power_mw() == radio.resample_sense_power_mw()
            assert (radio.in_channel_power_mw()
                    == radio.resample_in_channel_power_mw())
            for signal in signals:
                assert (radio.in_channel_power_mw(exclude=signal)
                        == radio.resample_in_channel_power_mw(exclude=signal))

    for _ in range(40):
        radio = draw.choice(radios)
        sim.schedule(draw.uniform(0.0, RUN_S), lambda radio=radio: probe(radio))
    sim.run(RUN_S)
    return [str(record) for record in trace.records], probes


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n_radios=st.integers(min_value=3, max_value=7),
    exempt=st.sampled_from(["dot11", "averaging"]),
)
@settings(max_examples=25, deadline=None)
def test_fold_matches_eager_delivery(seed, n_radios, exempt):
    fast_trace, fast_probes = _run(seed, n_radios, exempt, fast=True)
    ref_trace, ref_probes = _run(seed, n_radios, exempt, fast=False)
    assert any(" tx_start " in record for record in fast_trace)
    assert fast_trace == ref_trace
    assert fast_probes == ref_probes


def test_fold_scene_locks_and_overhears():
    """The generator's scenes exercise what the property is about:
    receptions, off-channel leakage and multi-signal probes."""
    trace, probes = _run(11, 7, "averaging", fast=True)
    assert any(" rx_done " in record for record in trace)
    assert any(len(signals) >= 2 for _, _, signals, _, _ in probes)


def test_radios_registered_mid_frame_fold_only_later_frames():
    """Radios registered while a record is on air grow its batch but were
    not there when it started: their folds skip it (as eager delivery
    never delivered it), and the next frame reaches them."""
    from repro.phy.fading import NoFading
    from repro.phy.propagation import FixedRssMatrix

    sim = Simulator()
    rng = RngStreams(3)
    medium = Medium(sim, FixedRssMatrix(default_loss_db=60.0),
                    fading=NoFading(), rng=rng)
    tx = Radio(sim, medium, "tx", (0.0, 0.0), 2460.0, 0.0, rng=rng)
    Radio(sim, medium, "rx", (1.0, 0.0), 2460.0, 0.0, rng=rng)
    tx.transmit(Frame("tx", None, 20), lambda _t: None)
    late = [
        Radio(sim, medium, f"late{i}", (2.0 + i, 0.0), 2460.0, 0.0, rng=rng)
        for i in range(3)
    ]
    for radio in late:
        assert radio.active_signals == []
        assert radio.sensed_power_mw() == radio._noise_mw
        assert abs(radio.rssi_register_dbm() + 100.0) < 1e-9  # noise
    sim.run_until_idle()
    tx.transmit(Frame("tx", None, 20), lambda _t: None)
    for radio in late:
        (signal,) = radio.active_signals
        assert signal.rx_power_dbm == -60.0
        assert radio.sensed_power_mw() == radio.resample_sense_power_mw()
    sim.run_until_idle()
