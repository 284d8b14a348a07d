"""Property tests for the vectorized (batched) phy kernels.

Three layers of guarantees, in decreasing strictness:

1. **Bit-identical batch kernels** — mask leakage uses only exact float
   ops and fading draws are elementwise in their key column, so the
   batched results must equal the one-at-a-time results with ``==``.
2. **Guard-banded batch kernels** — batched path loss goes through numpy
   SIMD transcendentals that may differ from libm by a few ulp; the
   contract is "within ``PRESELECT_GUARD_DB``" (it is only ever used to
   *preselect*, never to commit a value).
3. **Identical traces** — whole-scene runs through the fast path (cached
   band-audible fan-out batches, batched delivery) must deliver exactly
   the same frames with the same float-exact outcomes as the brute-force
   reference leg, on co-channel and on spectrally separated scenes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.fading import LogNormalFading, NoFading, link_keys
from repro.phy.frame import Frame
from repro.phy.mask import PiecewiseLinearMask
from repro.phy.medium import Medium
from repro.phy.propagation import (
    FixedRssMatrix,
    FreeSpacePathLoss,
    LogDistancePathLoss,
)
from repro.phy.radio import Radio
from repro.phy.vectorized import PRESELECT_GUARD_DB
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator

finite = st.floats(
    min_value=-500.0, max_value=500.0, allow_nan=False, allow_infinity=False
)
positions = st.lists(st.tuples(finite, finite), min_size=1, max_size=40)


# ----------------------------------------------------------------------
# 1. Batched path loss: within the preselection guard of the scalar path
# ----------------------------------------------------------------------
@given(
    rx=positions,
    tx=st.tuples(finite, finite),
    power=st.floats(min_value=-25.0, max_value=5.0, allow_nan=False),
    model_kind=st.sampled_from(["free_space", "log_distance"]),
)
@settings(max_examples=60, deadline=None)
def test_batched_path_loss_within_preselection_guard(rx, tx, power, model_kind):
    model = (
        FreeSpacePathLoss() if model_kind == "free_space" else LogDistancePathLoss()
    )
    batch = model.received_power_dbm_batch(power, tx, np.asarray(rx, dtype=float))
    for i, pos in enumerate(rx):
        scalar = model.received_power_dbm(power, tx, pos)
        # The guard band is 1e-6 dB; SIMD-vs-libm disagreement must sit
        # orders of magnitude below it for the preselection to be safe.
        assert abs(batch[i] - scalar) <= 1e-9 * max(1.0, abs(scalar))
        assert abs(batch[i] - scalar) < PRESELECT_GUARD_DB


@given(
    rx=positions,
    tx=st.tuples(finite, finite),
    power=st.floats(min_value=-25.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_batched_fixed_matrix_is_bit_identical(rx, tx, power):
    """The matrix model does exact dict lookups: batch must be ``==``."""
    model = FixedRssMatrix(default_loss_db=120.0)
    for i, pos in enumerate(rx):
        if i % 2 == 0:
            model.set_loss(tx, pos, 40.0 + i)
    batch = model.received_power_dbm_batch(power, tx, np.asarray(rx, dtype=float))
    for i, pos in enumerate(rx):
        assert batch[i] == model.received_power_dbm(power, tx, pos)


# ----------------------------------------------------------------------
# 2. Batched mask leakage: bit-identical
# ----------------------------------------------------------------------
mask_points = st.lists(
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    min_size=1,
    max_size=7,
    unique=True,
).map(lambda fs: [0.0] + sorted(fs))


@given(
    freqs=mask_points,
    steps=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=8,
        max_size=8,
    ),
    offsets=st.lists(
        st.floats(min_value=-120.0, max_value=120.0, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
)
@settings(max_examples=60, deadline=None)
def test_batched_mask_leakage_is_bit_identical(freqs, steps, offsets):
    attens = []
    level = 0.0
    for i in range(len(freqs)):
        level += steps[i]
        attens.append(level)
    mask = PiecewiseLinearMask(
        list(zip(freqs, attens)), max_db=attens[-1] + 15.0
    )
    batch = mask.leakage_db_batch(np.asarray(offsets, dtype=float))
    for i, offset in enumerate(offsets):
        assert batch[i] == mask.leakage_db(offset)


# ----------------------------------------------------------------------
# 3. Batched fading draws: elementwise in the key column
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_links=st.integers(min_value=1, max_value=40),
    counter=st.integers(min_value=0, max_value=2**40),
)
@settings(max_examples=40, deadline=None)
def test_sample_db_many_is_bit_identical_to_scalar_loop(seed, n_links, counter):
    """One call over a fanout's key column must equal one call per key:
    a link's draw cannot depend on which other links share the call (nor
    on which evaluator the column's length selects)."""
    model = LogNormalFading(sigma_db=4.0, clip_db=12.0)
    keys = link_keys(seed, "tx", [f"rx{i}" for i in range(n_links)])
    batched = model.sample_db_many(keys, counter).tolist()
    scalar = [model.sample_db_many(keys[i:i + 1], counter)[0] for i in range(n_links)]
    assert batched == scalar


def test_no_fading_sample_db_many_is_zeros():
    keys = link_keys(0, "tx", [f"rx{i}" for i in range(5)])
    assert NoFading().sample_db_many(keys, 3).tolist() == [0.0] * 5


# ----------------------------------------------------------------------
# 4. Whole-scene trace identity: fast path vs brute-force reference
# ----------------------------------------------------------------------
def _delivery_run(
    seed,
    *,
    link_cache=True,
    reference_accumulators=False,
    cross_band=False,
):
    """Two co-channel transmit chains plus receivers; with ``cross_band``
    a second network sits 75 MHz away, audible pre-mask but sub-floor
    post-mask, so the band-audibility rule drops every cross link.
    Returns every delivered frame as a float-exact outcome tuple."""
    sim = Simulator()
    rng = RngStreams(seed)
    matrix = FixedRssMatrix(default_loss_db=200.0)
    positions = {
        "a_tx": (0.0, 0.0),
        "a_rx1": (1.0, 0.0),
        "a_rx2": (2.0, 0.0),
        "b_tx": (10.0, 0.0),
        "b_rx": (11.0, 0.0),
    }
    channels = {name: 2405.0 for name in positions}
    if cross_band:
        channels["b_tx"] = channels["b_rx"] = 2480.0
    # Strong in-network links (high SINR, BER 0); cross-network mean RSS
    # -80 dBm: audible pre-mask (floor -115, clip 12) and, across bands,
    # below the post-mask floor (-80 + 12 - 60 dB mask < -115).
    for tx in ("a_tx", "b_tx"):
        for rx in positions:
            if rx == tx:
                continue
            same = rx.startswith(tx[0])
            matrix.set_loss(
                positions[tx], positions[rx], 45.0 if same else 80.0
            )
    medium = Medium(
        sim,
        matrix,
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0),
        rng=rng,
        delivery_floor_dbm=-115.0,
        link_cache=link_cache,
        reference_accumulators=reference_accumulators,
    )
    radios = {
        name: Radio(sim, medium, name, positions[name], channels[name], 0.0, rng=rng)
        for name in positions
    }
    events = []
    for name in ("a_rx1", "a_rx2", "b_rx"):
        def listener(outcome, _name=name):
            events.append(
                (
                    _name,
                    outcome.frame.source,
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

    sim.schedule(0.0, lambda: chain(radios["a_tx"], 10))
    sim.schedule(1.7e-3, lambda: chain(radios["b_tx"], 10))
    sim.run_until_idle()
    assert any(name == "a_rx1" for name, *_ in events)
    assert any(name == "b_rx" for name, *_ in events)
    return events


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_vectorized_cache_trace_identical_to_scalar_cache(seed):
    """The cached fan-out batches against the brute-force scalar scan
    (``link_cache=False``) with the same incremental accumulators."""
    assert _delivery_run(seed) == _delivery_run(seed, link_cache=False)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_band_sharding_trace_identical_on_separated_bands(seed):
    """Cross-band scene: the fast path and the full reference leg
    (brute-force scan + reference accumulators) apply the same
    band-audibility rule, so their traces are identical and no frame
    crosses the 75 MHz gap."""
    fast = _delivery_run(seed, cross_band=True)
    reference = _delivery_run(
        seed, link_cache=False, reference_accumulators=True, cross_band=True
    )
    assert fast == reference
    # a_tx frames reach only network a; b_tx frames only network b.
    assert all(rx.startswith(src[0]) for rx, src, *_ in fast)


# ----------------------------------------------------------------------
# 5. Band-audibility rule: unit properties on both legs
# ----------------------------------------------------------------------
def _shard_rig(cross_band, link_cache=True):
    sim = Simulator()
    rng = RngStreams(3)
    matrix = FixedRssMatrix(default_loss_db=80.0)
    medium = Medium(
        sim,
        matrix,
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0),
        rng=rng,
        delivery_floor_dbm=-115.0,
        link_cache=link_cache,
    )
    tx = Radio(sim, medium, "tx", (0.0, 0.0), 2405.0, 0.0, rng=rng)
    peers = [
        Radio(
            sim,
            medium,
            f"rx{i}",
            (float(i + 1), 0.0),
            2480.0 if cross_band else 2405.0,
            0.0,
            rng=rng,
        )
        for i in range(4)
    ]
    return medium, tx, peers


def _links(medium, tx):
    """The receivers of ``tx``'s fan-out on its own channel, per leg."""
    if medium._gain_cache is not None:
        return medium._gain_cache.fanout_batch(tx, 0.0, tx.channel_mhz).radios
    return [e[0] for e in medium._audible_entries(tx, 0.0, tx.channel_mhz)]


def test_sharding_never_drops_co_channel_links():
    for link_cache in (True, False):
        medium, tx, peers = _shard_rig(cross_band=False, link_cache=link_cache)
        assert _links(medium, tx) == peers  # zero leakage: all kept


def test_sharding_drops_sub_floor_cross_band_links():
    for link_cache in (True, False):
        medium, tx, peers = _shard_rig(cross_band=True, link_cache=link_cache)
        # Audible pre-mask (-80 + 12 >= -115) but -80 + 12 - 60 < -115:
        # the whole band drops, on both legs.
        assert _links(medium, tx) == []


# ----------------------------------------------------------------------
# 6. Band event shards + batched receiver accumulators (DESIGN.md §15)
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_sharded_scheduler_trace_identical_to_scalar_reference(seed):
    """The full fast stack (band event shards, batched accumulators,
    cached fan-out batches) against the complete reference leg."""
    fast = _delivery_run(seed)
    reference = _delivery_run(
        seed, link_cache=False, reference_accumulators=True
    )
    assert fast == reference


def test_sharded_scheduler_registers_band_shards():
    sim = Simulator()
    rng = RngStreams(5)
    medium = Medium(sim, FixedRssMatrix(default_loss_db=60.0), rng=rng)
    radios = [
        Radio(sim, medium, f"n{i}", (float(i), 0.0),
              2405.0 + 5.0 * (i % 3), 0.0, rng=rng)
        for i in range(6)
    ]
    # One shard per distinct band, shared by that band's radios.
    assert sim.event_queue.num_shards == 3
    by_band = {}
    for radio in radios:
        by_band.setdefault(radio.channel_mhz, set()).add(radio.event_shard)
    assert all(len(s) == 1 for s in by_band.values())
    assert len({next(iter(s)) for s in by_band.values()}) == 3
