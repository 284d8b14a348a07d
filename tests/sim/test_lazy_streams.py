"""Named RNG streams are resolved on first draw.

A MAC resolves ``mac.{name}`` at its first backoff and a radio
``biterrors.{name}`` at its first bit-error draw.  A stream's values
depend only on the root seed and its name, so resolving it late draws
exactly what a stream built up front would have drawn.
"""

from hypothesis import given, settings, strategies as st

from repro.experiments.scenarios import large_scene
from repro.mac.cca import FixedCcaThreshold
from repro.mac.mac import Mac
from repro.phy.constants import (
    CCA_DURATION_S,
    TURNAROUND_TIME_S,
    UNIT_BACKOFF_PERIOD_S,
)
from repro.phy.fading import NoFading
from repro.phy.frame import Frame
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace

NAMES = st.text(alphabet="abcxyz.019_-", min_size=1, max_size=10)


def build_pair(seed, name, trace=None):
    sim = Simulator(trace=trace)
    if trace is not None:
        trace.bind_clock(lambda: sim.now)
    rng = RngStreams(seed)
    medium = Medium(
        sim, FixedRssMatrix(default_loss_db=50.0), fading=NoFading(), rng=rng
    )
    radio = Radio(sim, medium, name, (0, 0), 2460.0, 0.0, rng=rng)
    Radio(sim, medium, "peer", (1, 0), 2460.0, 0.0, rng=rng)
    mac = Mac(sim, radio, rng, cca_policy=FixedCcaThreshold(-77.0))
    return sim, rng, radio, mac


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    name=NAMES,
    others=st.lists(NAMES, max_size=6),
    exponents=st.lists(st.integers(min_value=3, max_value=5),
                       min_size=1, max_size=12),
    trials=st.lists(
        st.tuples(st.integers(min_value=1, max_value=1024),
                  st.floats(min_value=1e-6, max_value=1.0)),
        min_size=1, max_size=12,
    ),
)
def test_lazy_streams_draw_what_eager_streams_draw(
    seed, name, others, exponents, trials
):
    _sim, rng, radio, mac = build_pair(seed, name)
    # Nothing is built at construction...
    assert f"mac.{name}" not in rng._streams
    assert f"biterrors.{name}" not in rng._streams
    # ...and other streams built and drawn from first change nothing.
    for other in others:
        rng.stream(other).random()
    lazy_slots = [int(mac.rng.integers(0, 2**be)) for be in exponents]
    lazy_errors = [int(radio.bit_rng.binomial(n, p)) for n, p in trials]

    eager = RngStreams(seed)
    backoff = eager.stream(f"mac.{name}")
    biterrors = eager.stream(f"biterrors.{name}")
    assert lazy_slots == [int(backoff.integers(0, 2**be)) for be in exponents]
    assert lazy_errors == [int(biterrors.binomial(n, p)) for n, p in trials]
    assert mac.rng is rng.stream(f"mac.{name}")
    assert radio.bit_rng is rng.stream(f"biterrors.{name}")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), name=NAMES)
def test_first_backoff_uses_the_named_stream(seed, name):
    """End to end: the first transmission starts after exactly the slot
    count an up-front ``mac.{name}`` stream gives for BE = macMinBE."""
    trace = Trace()
    sim, rng, _radio, mac = build_pair(seed, name, trace=trace)
    sim.run(0.01)
    assert f"mac.{name}" not in rng._streams  # idle MACs never resolve it
    mac.send(Frame(name, "peer", 60))
    sim.run(1.0)
    tx_start = trace.of_kind("tx_start")[0].time
    slots = round((tx_start - 0.01 - CCA_DURATION_S - TURNAROUND_TIME_S)
                  / UNIT_BACKOFF_PERIOD_S)
    expected = int(RngStreams(seed).stream(f"mac.{name}").integers(0, 2**3))
    assert slots == expected


def _node_streams(rng, prefix):
    return {name for name in rng._streams if name.startswith(prefix)}


def test_large_scene_builds_streams_only_for_nodes_that_draw():
    deployment = large_scene(500, seed=3)
    rng = deployment.rng
    assert not _node_streams(rng, "mac.")
    assert not _node_streams(rng, "biterrors.")

    deployment.start_traffic()
    deployment.sim.run(0.05)
    senders = {node.name for network in deployment.networks
               for node in network.senders()}
    built = _node_streams(rng, "mac.") | _node_streams(rng, "biterrors.")
    # Every sender backed off, so each resolved its backoff stream...
    assert {f"mac.{name}" for name in senders} <= built
    # ...and no other MAC did: idle listeners never back off.
    assert _node_streams(rng, "mac.") == {f"mac.{name}" for name in senders}
    # Every stream that exists has been drawn from: its state has moved
    # on from that of a freshly built stream of the same name.
    fresh = RngStreams(3)
    for name in built:
        assert (rng.stream(name).bit_generator.state
                != fresh.stream(name).bit_generator.state), name
    # Frames lost to bit errors are among the draws.
    for node in deployment.nodes.values():
        if node.mac.stats.crc_failures:
            assert f"biterrors.{node.name}" in built
