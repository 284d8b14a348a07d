"""Tests for the PR-2 kernel performance layer.

Three properties are load-bearing and verified here:

1. **Culling exactness** — running the same scenario with the link cache
   (:class:`~repro.phy.vectorized.VectorizedLinkCache`) enabled and
   disabled (``link_cache=False`` brute-force reference path) produces
   identical observable outcomes, bit for bit.
2. **Accumulator exactness** — the incremental in-channel power sums agree
   with the pre-optimisation brute-force re-summation (kept in
   :mod:`repro.perf.bench`) to within 1e-12 relative, over arbitrary
   signal start/end sequences (hypothesis property test).
3. **Frame-timeline bit accounting** — a completed frame samples exactly
   ``round(airtime * bit_rate)`` bits no matter how many times the
   interference environment changes mid-frame.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.bench import (
    brute_force_in_channel_power_mw,
    brute_force_sensed_power_mw,
)
from repro.phy.constants import BIT_RATE_BPS
from repro.phy.fading import FadingModel, LogNormalFading, NoFading
from repro.phy.frame import Frame
from repro.phy.medium import Medium, Signal, Transmission
from repro.phy.propagation import FixedRssMatrix, LogDistancePathLoss
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


# ----------------------------------------------------------------------
# 1. Culling exactness: link_cache=True vs the brute-force reference path
# ----------------------------------------------------------------------
def _run_scenario(link_cache: bool, seed: int = 7, register_order=None):
    """A mixed-audibility scenario; returns every observable outcome.

    Two transmitters alternate frames towards a population of receivers:
    one comfortably audible, one borderline (mean below the delivery floor
    but within fading headroom, so *some* draws deliver), one hopeless
    (beyond floor + clip: the cullable case).
    """
    sim = Simulator()
    rng = RngStreams(seed)
    matrix = FixedRssMatrix(default_loss_db=60.0)
    positions = {
        "tx1": (0, 0),
        "tx2": (50, 0),
        "near": (1, 0),
        "edge": (2, 0),
        "far": (3, 0),
    }
    # tx1's links: near is clearly audible, edge is borderline
    # (-120 mean, floor -115, clip 12 -> best case -108), far is
    # unreachable under any draw (-150 + 12 < -115: culled).
    matrix.set_loss(positions["tx1"], positions["near"], 50.0)
    matrix.set_loss(positions["tx1"], positions["edge"], 120.0)
    matrix.set_loss(positions["tx1"], positions["far"], 150.0)
    # tx2 mirrors it with different pairings.
    matrix.set_loss(positions["tx2"], positions["near"], 118.0)
    matrix.set_loss(positions["tx2"], positions["edge"], 55.0)
    matrix.set_loss(positions["tx2"], positions["far"], 152.0)
    medium = Medium(
        sim,
        matrix,
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0),
        rng=rng,
        delivery_floor_dbm=-115.0,
        link_cache=link_cache,
    )
    radios = {}
    order = register_order or list(positions)
    for name in order:
        radios[name] = Radio(
            sim, medium, name, positions[name], 2460.0, 0.0, rng=rng
        )
    events = []
    for name in ("near", "edge", "far"):
        def listener(outcome, _name=name):
            events.append(
                (
                    _name,
                    outcome.frame.source,  # frame_id is a process-global counter
                    outcome.rssi_dbm,
                    outcome.crc_ok,
                    outcome.errored_bits,
                    outcome.total_bits,
                )
            )
        radios[name].add_frame_listener(listener)

    def chain(radio, remaining):
        if remaining == 0:
            return
        frame = Frame(radio.name, None, 40)
        radio.transmit(
            frame,
            lambda t: sim.schedule(1e-4, lambda: chain(radio, remaining - 1)),
        )

    sim.schedule(0.0, lambda: chain(radios["tx1"], 15))
    # Offset tx2 so the two frame streams interleave without colliding.
    sim.schedule(2e-3, lambda: chain(radios["tx2"], 15))
    sim.run_until_idle()
    # Sanity: the scenario must actually deliver frames and must include a
    # borderline receiver that is delivered only sometimes.
    delivered_to = {name for name, *_ in events}
    assert "near" in delivered_to and "edge" in delivered_to
    assert "far" not in delivered_to
    edge_count = sum(1 for name, *_ in events if name == "edge")
    assert 0 < edge_count < 30  # some draws miss the floor, some clear it
    return events


def test_culling_matches_brute_force_reference_exactly():
    cached = _run_scenario(link_cache=True)
    brute = _run_scenario(link_cache=False)
    assert cached == brute  # identical tuples, float-exact RSSIs included


def test_results_independent_of_registration_order():
    """Per-link fading streams key on radio *names*, so shuffling the
    registration order must not move any link's draw sequence."""
    base = _run_scenario(link_cache=True)
    shuffled = _run_scenario(
        link_cache=True,
        register_order=["far", "edge", "near", "tx2", "tx1"],
    )
    assert base == shuffled


def test_culling_exact_with_different_seeds():
    for seed in (1, 2, 3):
        assert _run_scenario(True, seed=seed) == _run_scenario(False, seed=seed)


# ----------------------------------------------------------------------
# Link cache unit behaviour
# ----------------------------------------------------------------------
def _batch(medium, tx):
    """``tx``'s cached fan-out batch on its own channel at 0 dBm."""
    return medium._gain_cache.fanout_batch(tx, 0.0, tx.channel_mhz)


def _cache_rig(fading=None, floor=-115.0):
    sim = Simulator()
    matrix = FixedRssMatrix(default_loss_db=60.0)
    medium = Medium(
        sim,
        matrix,
        fading=fading if fading is not None else NoFading(),
        rng=RngStreams(1),
        delivery_floor_dbm=floor,
    )
    return sim, matrix, medium


def test_audible_set_culls_unreachable_receivers():
    sim, matrix, medium = _cache_rig()
    matrix.set_loss((0, 0), (1, 0), 50.0)
    matrix.set_loss((0, 0), (2, 0), 150.0)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    near = Radio(sim, medium, "near", (1, 0), 2460.0, 0.0)
    Radio(sim, medium, "far", (2, 0), 2460.0, 0.0)
    batch = _batch(medium, tx)
    assert batch.radios == [near]
    assert batch.means[0] == pytest.approx(-50.0)


def test_audible_set_respects_fading_headroom():
    """A mean below the floor but within clip_db headroom must be kept."""
    sim, matrix, medium = _cache_rig(
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0)
    )
    matrix.set_loss((0, 0), (1, 0), 120.0)  # mean -120, best case -108
    matrix.set_loss((0, 0), (2, 0), 130.0)  # mean -130, best case -118: cull
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    edge = Radio(sim, medium, "edge", (1, 0), 2460.0, 0.0)
    Radio(sim, medium, "far", (2, 0), 2460.0, 0.0)
    assert _batch(medium, tx).radios == [edge]


def test_unbounded_fading_disables_culling():
    class WildFading(FadingModel):
        def sample_db_many(self, keys, counter):  # pragma: no cover
            return np.zeros(len(keys))

    sim, matrix, medium = _cache_rig(fading=WildFading())
    matrix.set_loss((0, 0), (1, 0), 300.0)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    far = Radio(sim, medium, "far", (1, 0), 2460.0, 0.0)
    assert math.isinf(medium.fading.max_gain_db())
    assert _batch(medium, tx).radios == [far]


def test_audible_set_is_cached_and_register_updates_in_place():
    sim, matrix, medium = _cache_rig()
    matrix.set_loss((0, 0), (1, 0), 50.0)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    Radio(sim, medium, "rx1", (1, 0), 2460.0, 0.0)
    first = _batch(medium, tx)
    assert _batch(medium, tx) is first  # memoised
    matrix.set_loss((0, 0), (2, 0), 55.0)
    late = Radio(sim, medium, "late", (2, 0), 2460.0, 0.0)
    # Registration is a per-radio incremental update, not a full
    # invalidation: the cached batch survives and the newcomer is
    # appended at the end (where a rebuild would have placed it), with
    # the exact scalar-model mean RSS.
    updated = _batch(medium, tx)
    assert updated is first
    assert updated.radios[-1] is late
    assert updated.means[-1] == -55.0


def test_register_updates_match_full_rebuild_bitwise():
    sim, matrix, medium = _cache_rig()
    matrix.set_loss((0, 0), (1, 0), 50.0)
    matrix.set_loss((0, 0), (2, 0), 55.0)
    matrix.set_loss((0, 0), (3, 0), 300.0)  # inaudible: must not be added
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    Radio(sim, medium, "rx1", (1, 0), 2460.0, 0.0)
    # Cross-band peers at -70 dBm: -70 - 60 dB mask < -115, no link.
    matrix.set_loss((0, 0), (4, 0), 70.0)
    Radio(sim, medium, "cross", (4, 0), 2480.0, 0.0)
    _batch(medium, tx)  # warm the cache
    Radio(sim, medium, "late", (2, 0), 2460.0, 0.0)
    Radio(sim, medium, "far", (3, 0), 2460.0, 0.0)
    Radio(sim, medium, "late_cross", (4, 0), 2480.0, 0.0)

    def columns(batch):
        return list(zip(
            batch.radios, batch.means.tolist(), batch.keys.tolist(),
            batch.decode_gains, batch.sense_gains, batch.co_channel,
            batch.inline,
        ))

    incremental = columns(_batch(medium, tx))
    medium.invalidate_link_cache()
    rebuilt = columns(_batch(medium, tx))
    assert [c[0].name for c in incremental] == ["rx1", "late"]
    assert incremental == rebuilt


def test_late_registered_radio_hears_subsequent_transmissions():
    sim, matrix, medium = _cache_rig()
    matrix.set_loss((0, 0), (1, 0), 50.0)
    matrix.set_loss((0, 0), (2, 0), 55.0)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    Radio(sim, medium, "rx1", (1, 0), 2460.0, 0.0)
    tx.transmit(Frame("tx", None, 20), lambda t: None)  # warms the cache
    sim.run_until_idle()
    late = Radio(sim, medium, "late", (2, 0), 2460.0, 0.0)
    got = []
    late.add_frame_listener(lambda outcome: got.append(outcome))
    tx.transmit(Frame("tx", None, 20), lambda t: None)
    sim.run_until_idle()
    assert len(got) == 1


def test_duplicate_registration_rejected():
    sim, _, medium = _cache_rig()
    radio = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    with pytest.raises(ValueError, match="registered twice"):
        medium.register(radio)


def test_radios_snapshot_is_stable_and_refreshed():
    sim, _, medium = _cache_rig()
    a = Radio(sim, medium, "a", (0, 0), 2460.0, 0.0)
    snap = medium.radios
    assert medium.radios is snap  # no per-access copy
    b = Radio(sim, medium, "b", (1, 0), 2460.0, 0.0)
    assert medium.radios == (a, b)


def test_invalidate_link_cache_after_position_change():
    sim, matrix, medium = _cache_rig()
    matrix.set_loss((0, 0), (1, 0), 150.0)
    matrix.set_loss((0, 0), (5, 0), 50.0)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    rx = Radio(sim, medium, "rx", (1, 0), 2460.0, 0.0)
    assert _batch(medium, tx).radios == []
    rx.position = (5, 0)
    medium.invalidate_link_cache()
    assert _batch(medium, tx).radios == [rx]


# ----------------------------------------------------------------------
# Band audibility: the link rule on both legs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("link_cache", [True, False])
def test_sub_floor_cross_band_link_receives_no_signal(link_cache):
    """-80 dBm mean with a 12 dB clip is audible pre-mask, but 75 MHz
    away the softer mask leaks 60 dB: -80 + 12 - 60 < -115.  No link
    exists on either leg, so the receiver never sees a signal."""
    sim = Simulator()
    medium = Medium(
        sim,
        FixedRssMatrix(default_loss_db=80.0),
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0),
        rng=RngStreams(1),
        delivery_floor_dbm=-115.0,
        link_cache=link_cache,
    )
    tx = Radio(sim, medium, "tx", (0, 0), 2405.0, 0.0)
    rx = Radio(sim, medium, "rx", (1, 0), 2480.0, 0.0)
    seen = []
    for _ in range(5):
        tx.transmit(Frame("tx", None, 20), lambda t: None)
        seen.append(len(rx.active_signals))
        sim.run_until_idle()
    assert seen == [0] * 5
    if link_cache:
        assert _batch(medium, tx).radios == []
    else:
        assert medium._audible_entries(tx, 0.0, tx.channel_mhz) == []


@given(
    losses=st.lists(
        st.floats(min_value=40.0, max_value=140.0, allow_nan=False),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_co_channel_links_never_culled(losses):
    """On one channel the leakage is zero, so the band rule drops exactly
    the links the mean-RSS floor drops (mean + clip < floor) — on the fast
    path and on the reference leg alike."""
    for link_cache in (True, False):
        sim = Simulator()
        matrix = FixedRssMatrix(default_loss_db=300.0)
        medium = Medium(
            sim,
            matrix,
            fading=LogNormalFading(sigma_db=4.0, clip_db=12.0),
            rng=RngStreams(1),
            delivery_floor_dbm=-115.0,
            link_cache=link_cache,
        )
        tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
        peers = []
        for i, loss in enumerate(losses):
            matrix.set_loss((0, 0), (i + 1, 0), loss)
            peers.append(Radio(sim, medium, f"rx{i}", (i + 1, 0), 2460.0, 0.0))
        if link_cache:
            got = _batch(medium, tx).radios
        else:
            got = [e[0] for e in medium._audible_entries(tx, 0.0, 2460.0)]
        assert got == [
            peer for peer, loss in zip(peers, losses) if -loss + 12.0 >= -115.0
        ]


def test_culled_power_budget_matches_closed_form():
    """tx on 2405 MHz, rx on 2480 MHz at -80 dBm mean, no fading: the
    link is culled (-80 - 60 dB mask < -115) and its best-case post-mask
    power over rx's -100 dBm noise is 10**((-80 - 60 + 100) / 10) = 1e-4.
    A second batch for tx at -10 dBm adds 1e-5 to rx's sum."""
    from repro.obs.recorder import Observability
    from repro.phy.vectorized import CULLED_POWER_GAUGE

    obs = Observability(sample_interval_s=None)
    sim = Simulator(obs=obs)
    medium = Medium(
        sim,
        FixedRssMatrix(default_loss_db=80.0),
        rng=RngStreams(1),
        delivery_floor_dbm=-115.0,
    )
    tx = Radio(sim, medium, "tx", (0, 0), 2405.0, 0.0)
    Radio(sim, medium, "rx", (1, 0), 2480.0, 0.0)
    tx.transmit(Frame("tx", None, 20), lambda t: None)
    sim.run_until_idle()
    (gauge,) = obs.registry.of_kind("gauge", CULLED_POWER_GAUGE)
    assert gauge.read() == pytest.approx(1e-4, rel=1e-9)
    tx.transmit(Frame("tx", None, 20), lambda t: None)  # cached: no growth
    sim.run_until_idle()
    assert gauge.read() == pytest.approx(1e-4, rel=1e-9)
    medium._gain_cache.fanout_batch(tx, -10.0, 2405.0)
    assert gauge.read() == pytest.approx(1.1e-4, rel=1e-9)


def test_culled_power_budget_off_without_obs():
    sim = Simulator()
    medium = Medium(sim, FixedRssMatrix(default_loss_db=80.0), rng=RngStreams(1))
    tx = Radio(sim, medium, "tx", (0, 0), 2405.0, 0.0)
    Radio(sim, medium, "rx", (1, 0), 2480.0, 0.0)
    assert _batch(medium, tx).radios == []
    assert medium._gain_cache.culled_power_frac_noise_max() == 0.0


# ----------------------------------------------------------------------
# 2. Incremental power accumulator vs brute-force re-summation
# ----------------------------------------------------------------------
def _bare_radio():
    sim = Simulator()
    rng = RngStreams(1)
    medium = Medium(sim, FixedRssMatrix(default_loss_db=50.0), rng=rng)
    return Radio(sim, medium, "rx", (0, 0), 2460.0, 0.0, rng=rng)


def _make_signal(rx, channel_mhz, rx_power_dbm):
    transmission = Transmission(
        source=rx,
        frame=Frame("s", None, 20),
        channel_mhz=channel_mhz,
        tx_power_dbm=0.0,
        start_time=0.0,
        end_time=1.0,
    )
    return Signal(transmission, rx_power_dbm)


def _rel_diff(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _assert_accumulators_exact(rx):
    assert _rel_diff(rx.sensed_power_mw(), brute_force_sensed_power_mw(rx)) <= 1e-12
    assert (
        _rel_diff(rx.in_channel_power_mw(), brute_force_in_channel_power_mw(rx))
        <= 1e-12
    )
    for signal in rx.active_signals:
        assert (
            _rel_diff(
                rx.in_channel_power_mw(exclude=signal),
                brute_force_in_channel_power_mw(rx, exclude=signal),
            )
            <= 1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    spec=st.lists(
        st.tuples(
            st.integers(min_value=-6, max_value=6),  # channel offset (MHz)
            st.floats(min_value=-110.0, max_value=-20.0),  # RSS (dBm)
        ),
        min_size=0,
        max_size=24,
    ),
    data=st.data(),
)
def test_incremental_accumulator_matches_brute_force(spec, data):
    """Random add/remove/probe interleavings stay within 1e-12 relative of
    the pre-optimisation full re-summation (the ISSUE acceptance bound)."""
    rx = _bare_radio()
    live = []
    for offset, power in spec:
        signal = _make_signal(rx, 2460.0 + offset, power)
        rx._add_signal(signal)
        live.append(signal)
        _assert_accumulators_exact(rx)
    while live:
        index = data.draw(
            st.integers(min_value=0, max_value=len(live) - 1), label="remove"
        )
        rx._remove_signal(live.pop(index))
        _assert_accumulators_exact(rx)
    assert rx.sensed_power_mw() == rx._noise_mw  # exact reset, no drift


def test_removal_rebuild_is_bitwise_equal_to_brute_force():
    """After any removal the running sum is *bitwise* the brute-force sum
    (both walk the same list in the same order)."""
    rx = _bare_radio()
    signals = [
        _make_signal(rx, 2460.0 + (i % 5), -40.0 - 7.3 * i) for i in range(12)
    ]
    for signal in signals:
        rx._add_signal(signal)
    for signal in signals[::2]:
        rx._remove_signal(signal)
        assert rx._noise_mw + rx._sense_sum_mw == brute_force_sensed_power_mw(rx)


def test_gain_memo_caches_per_offset():
    rx = _bare_radio()
    first = rx._gains_for(2465.0)
    assert rx._gains_for(2465.0) is first
    assert rx._gains_for(2460.0) == (1.0, 1.0)  # co-channel: no attenuation


# ----------------------------------------------------------------------
# 3. Frame-timeline bit accounting
# ----------------------------------------------------------------------
def test_completed_frame_samples_exactly_its_bit_length():
    """Many mid-frame interference changes must not drift the sampled-bit
    total away from round(airtime * bit_rate)."""
    sim = Simulator()
    rng = RngStreams(3)
    matrix = FixedRssMatrix(default_loss_db=60.0)
    medium = Medium(sim, matrix, fading=NoFading(), rng=rng)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0, rng=rng)
    rx = Radio(sim, medium, "rx", (1, 0), 2460.0, 0.0, rng=rng)
    # Off-channel interferer: perturbs rx's interference environment
    # (segment closures) without being lockable by rx.
    jammer = Radio(sim, medium, "jam", (2, 0), 2465.0, 0.0, rng=rng)
    matrix.set_loss((0, 0), (1, 0), 50.0)
    matrix.set_loss((2, 0), (1, 0), 70.0)

    outcomes = []
    rx.add_frame_listener(lambda outcome: outcomes.append(outcome))

    frame = Frame("tx", "rx", 100)  # long frame: ~4.3 ms on air
    tx.transmit(frame, lambda t: None)

    jam_count = [0]

    def jam():
        if sim.now >= frame.airtime_s - 5e-4:
            return
        jam_count[0] += 1
        jammer.transmit(
            Frame("jam", None, 0),
            lambda t: sim.schedule(3e-5, jam),
        )

    # Odd offset so segment boundaries land on fractional bit times.
    sim.schedule(1.37e-4, jam)
    sim.run_until_idle()

    assert jam_count[0] >= 5  # the frame really was chopped into segments
    [outcome] = outcomes
    expected_bits = round(frame.airtime_s * BIT_RATE_BPS)
    assert outcome.total_bits == expected_bits
    assert outcome.total_bits == frame.total_bits


def test_bit_accounting_with_log_distance_smoke():
    """End-to-end: clean reception over a physical path-loss model still
    accounts every on-air bit exactly once."""
    sim = Simulator()
    rng = RngStreams(4)
    medium = Medium(sim, LogDistancePathLoss(), fading=NoFading(), rng=rng)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0, rng=rng)
    rx = Radio(sim, medium, "rx", (3, 0), 2460.0, 0.0, rng=rng)
    outcomes = []
    rx.add_frame_listener(lambda outcome: outcomes.append(outcome))
    frame = Frame("tx", "rx", 60)
    tx.transmit(frame, lambda t: None)
    sim.run_until_idle()
    [outcome] = outcomes
    assert outcome.total_bits == round(frame.airtime_s * BIT_RATE_BPS)
    assert outcome.crc_ok
