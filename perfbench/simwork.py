"""The simulation workloads: ``scene5k`` and ``testbed``.

A run repeats one *block* — build, set up, simulate a fixed simulated
span, digest — until ``--seconds`` of host time have passed (at least
two blocks).  Every block of a run simulates exactly the same thing, so
their digests must agree, and with tracing on their work counters must
agree too.  The simulated span is cut into fixed chunks; each chunk's
host time per MAC frame is one latency sample.

With tracing on, the first block runs untraced (its digest and its
host time per frame are the reference), then the layer wrappers go in
and the remaining blocks run traced.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

from ledger import Ledger
from layers import install_sim_layers
from report import Checks, percentile

__all__ = ["run_sim_workload", "DETERMINISTIC_COUNTERS"]

clock = time.perf_counter

# scene5k: the large-scene shape of the kernel bench's mini_run_5k.
SCENE_MOTES = 5000
SCENE_AREA_M2_PER_MOTE = 400.0
SETUP_STEP_S = 0.001       # simulated step while waiting for first frames
SETUP_CAP_S = 0.2          # every source must have sent by then
SCENE_STEADY_S = 0.06      # simulated steady span per block
SCENE_CHUNK_S = 0.002

# testbed: the Fig. 19 pair in its fast profile plus a 4x4 convergecast.
BUILD_REPEATS = 3
TESTBED_CHUNK_S = 0.25
FIG19_WARMUP_S = 4.5       # repro.experiments.runner.DEFAULT_WARMUP_S
FIG19_MEASURE_S = 3.0      # fig19.run(fast=True)
FIG19_MIN_GAIN = 1.3       # tests/experiments/test_shapes.py pins this
CC_GRID = 4
CC_REPORT_INTERVAL_S = 0.5
CC_WARMUP_S = 5.0
CC_REPORTS_S = 5.0
CC_DRAIN_S = 1.0

#: Work counters a later count-based claim may rest on; they must repeat
#: exactly across the same-seed blocks of a traced run.
DETERMINISTIC_COUNTERS = (
    "sim.events", "sim.rng.streams", "phy.medium.fanout_candidates",
    "phy.fading.draws", "phy.radio.cca_probes", "net.routing.forwarded",
)


@dataclasses.dataclass
class Block:
    """What one block measured."""

    setup_s: List[float]
    steady_s: float
    frames: int
    digest: str
    chunk_ms: List[float]
    stats: Dict[str, float]
    legs: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    busy: Dict[str, float] = dataclasses.field(default_factory=dict)
    gc_gen2_s: float = 0.0
    rss_growth_mb: float = 0.0


class _Window:
    """A steady window: collect first, then watch gen-2 GC and RSS.

    The collection before the window keeps set-up garbage out of it; the
    collector stays enabled inside, because users pay for it.
    """

    def __init__(self, watch: bool) -> None:
        self.watch = watch
        self.gc_gen2_s = 0.0
        self.rss_growth_mb = 0.0
        self._gen2_start: Optional[float] = None

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gen2_start = clock()
        elif self._gen2_start is not None:
            self.gc_gen2_s += clock() - self._gen2_start
            self._gen2_start = None

    def __enter__(self) -> "_Window":
        gc.collect()
        if self.watch:
            self._rss = _rss_mb()
            gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        if self.watch:
            gc.callbacks.remove(self._on_gc)
            self.rss_growth_mb = _rss_mb() - self._rss


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def _frames(deployment) -> int:
    return sum(node.mac.stats.sent for node in deployment.nodes.values())


def _run_chunks(deployment, until: float, chunk_s: float,
                chunk_ms: List[float]) -> tuple:
    """Simulate to ``until`` in ``chunk_s`` steps; (host s, frames)."""
    sim = deployment.sim
    origin = sim.now
    steps = max(1, round((until - origin) / chunk_s))
    host = 0.0
    first = frames = _frames(deployment)
    for step in range(1, steps + 1):
        target = until if step == steps else origin + step * chunk_s
        start = clock()
        sim.run(target)
        elapsed = clock() - start
        host += elapsed
        before, frames = frames, _frames(deployment)
        if frames > before:
            chunk_ms.append(elapsed * 1e3 / (frames - before))
    return host, frames - first


def _digest(deployments, extra: Dict[str, Any]) -> str:
    """Hash of per-node MAC counters (CRC failures included), final DCN
    thresholds and workload-level results."""
    from repro.core.dcn import DcnCcaPolicy

    digest = hashlib.sha256()
    for deployment in deployments:
        for name in sorted(deployment.nodes):
            node = deployment.nodes[name]
            digest.update(name.encode())
            digest.update(repr(dataclasses.astuple(node.mac.stats)).encode())
            policy = node.mac.cca_policy
            if isinstance(policy, DcnCcaPolicy):
                digest.update(repr(policy.threshold_dbm()).encode())
    digest.update(json.dumps(extra, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def _mac_totals(deployments) -> Dict[str, float]:
    from repro.core.dcn import DcnCcaPolicy

    totals = dict.fromkeys(
        ("sent", "cca_attempts", "cca_busy", "access_failures",
         "threshold_updates"), 0)
    for deployment in deployments:
        for node in deployment.nodes.values():
            stats = node.mac.stats
            totals["sent"] += stats.sent
            totals["cca_attempts"] += stats.cca_attempts
            totals["cca_busy"] += stats.cca_busy
            totals["access_failures"] += stats.access_failures
            policy = node.mac.cca_policy
            if isinstance(policy, DcnCcaPolicy):
                totals["threshold_updates"] += len(policy.history())
    return totals


# ----------------------------------------------------------------------
# Blocks.

def scene_block(seed: int, ledger: Optional[Ledger], checks: Checks) -> Block:
    from repro.experiments.scenarios import large_scene

    span = ledger.span if ledger is not None else _no_span
    with span("setup"):
        start = clock()
        deployment = large_scene(SCENE_MOTES, seed=seed,
                                 area_m2_per_mote=SCENE_AREA_M2_PER_MOTE)
        deployment.start_traffic()
        senders = [node for network in deployment.networks
                   for node in network.senders()]
        step = 0
        while (any(node.mac.stats.sent == 0 for node in senders)
               and step * SETUP_STEP_S < SETUP_CAP_S):
            step += 1
            deployment.sim.run(step * SETUP_STEP_S)
        setup_s = clock() - start
    checks.expect(all(node.mac.stats.sent for node in senders),
                  f"scene5k: a source sent nothing in {SETUP_CAP_S} s")
    chunk_ms: List[float] = []
    with _Window(ledger is not None) as window, span("steady"):
        host, frames = _run_chunks(
            deployment, deployment.sim.now + SCENE_STEADY_S, SCENE_CHUNK_S,
            chunk_ms)
    checks.expect(frames > 0, "scene5k: no frame sent in the steady window")
    return Block(
        setup_s=[setup_s], steady_s=host, frames=frames,
        digest=_digest([deployment], {}), chunk_ms=chunk_ms,
        stats=_mac_totals([deployment]),
        gc_gen2_s=window.gc_gen2_s, rss_growth_mb=window.rss_growth_mb,
    )


def testbed_block(seed: int, ledger: Optional[Ledger],
                  checks: Checks) -> Block:
    from repro.experiments.scenarios import (
        convergecast_testbed, dcn_policy_factory, evaluation_plan,
        evaluation_testbed)

    span = ledger.span if ledger is not None else _no_span
    setup: List[float] = []
    with span("build"):
        for _ in range(BUILD_REPEATS):
            start = clock()
            zigbee = evaluation_testbed(evaluation_plan(5.0), seed=seed)
            dcn = evaluation_testbed(evaluation_plan(3.0), seed=seed,
                                     policy_factory=dcn_policy_factory())
            grid, fabric = convergecast_testbed(
                "dcn", seed=seed, rows=CC_GRID, cols=CC_GRID)
            setup.append(clock() - start)
    chunk_ms: List[float] = []
    legs: Dict[str, Dict[str, float]] = {}
    host = 0.0
    frames = 0
    with _Window(ledger is not None) as window:
        pps = {}
        for name, deployment in (("zigbee", zigbee), ("dcn", dcn)):
            events = ledger.counts["sim.events"] if ledger is not None else 0
            with span(name):
                leg_host, leg_frames, pps[name] = _fig19_leg(deployment,
                                                             chunk_ms)
            if ledger is not None:
                events = ledger.counts["sim.events"] - events
            legs[name] = {"frames": leg_frames, "events": events}
            host += leg_host
            frames += leg_frames
        with span("convergecast"):
            leg_host, leg_frames, summary = _convergecast_leg(grid, fabric,
                                                              chunk_ms)
        host += leg_host
        frames += leg_frames
    checks.expect(
        pps["dcn"] > FIG19_MIN_GAIN * pps["zigbee"],
        f"testbed: Fig. 19 DCN {pps['dcn']:.1f} pps does not beat ZigBee "
        f"{pps['zigbee']:.1f} pps by {FIG19_MIN_GAIN}x")
    checks.expect(
        len(dcn.networks) == 6 and len(zigbee.networks) == 4,
        "testbed: Fig. 19 channel counts are not 6 (DCN) and 4 (ZigBee)")
    checks.expect(summary["joined_fraction"] == 1.0,
                  f"testbed: only {summary['joined_fraction']:.0%} of the "
                  "convergecast nodes joined")
    stats = _mac_totals([zigbee, dcn, grid])
    stats.update(forwarded=summary["forwarded"],
                 duplicates=summary["duplicates"],
                 delivery_ratio=summary["delivery_ratio"])
    extra = {"fig19_pps": [repr(pps["zigbee"]), repr(pps["dcn"])],
             "routing": {k: repr(v) for k, v in summary.items()}}
    return Block(
        setup_s=setup, steady_s=host, frames=frames,
        digest=_digest([zigbee, dcn, grid], extra), chunk_ms=chunk_ms,
        stats=stats, legs=legs,
        gc_gen2_s=window.gc_gen2_s, rss_growth_mb=window.rss_growth_mb,
    )


def _fig19_leg(deployment, chunk_ms: List[float]) -> tuple:
    """``run_deployment(deployment, 3.0)``, cut into chunks."""
    from repro.experiments.metrics import (
        measure_networks, snapshot_deployment, throughput_pps)

    deployment.start_traffic()
    warm_host, warm_frames = _run_chunks(deployment, FIG19_WARMUP_S,
                                         TESTBED_CHUNK_S, chunk_ms)
    baseline = snapshot_deployment(deployment)
    host, frames = _run_chunks(deployment, FIG19_WARMUP_S + FIG19_MEASURE_S,
                               TESTBED_CHUNK_S, chunk_ms)
    pps = throughput_pps(
        measure_networks(deployment, baseline, FIG19_MEASURE_S))
    return warm_host + host, warm_frames + frames, pps


def _convergecast_leg(deployment, fabric, chunk_ms: List[float]) -> tuple:
    fabric.start()
    fabric.attach_convergecast(interval_s=CC_REPORT_INTERVAL_S,
                               start_delay_s=CC_WARMUP_S)
    fabric.start_sources()
    host, frames = _run_chunks(deployment, CC_WARMUP_S + CC_REPORTS_S,
                               TESTBED_CHUNK_S, chunk_ms)
    fabric.stop()
    # Bounded drain: DCN's Case-II timer re-arms forever, so a DCN
    # deployment never goes idle.
    drain_host, drain_frames = _run_chunks(
        deployment, deployment.sim.now + CC_DRAIN_S, TESTBED_CHUNK_S,
        chunk_ms)
    return host + drain_host, frames + drain_frames, fabric.summary()


def _no_span(_name: str, **_args):
    return nullcontext()


BLOCKS: Dict[str, Callable[[int, Optional[Ledger], Checks], Block]] = {
    "scene5k": scene_block,
    "testbed": testbed_block,
}


# ----------------------------------------------------------------------
# A whole run.

def run_sim_workload(workload: str, seed: int, seconds: float,
                     trace: bool, checks: Checks) -> Dict[str, Any]:
    """Run blocks for ``seconds``; returns the run's raw measurements."""
    block_fn = BLOCKS[workload]
    start = clock()
    blocks: List[Block] = []
    reference: Optional[Block] = None
    ledger: Optional[Ledger] = None
    if trace:
        reference = block_fn(seed, None, checks)
        ledger = Ledger()
        install_sim_layers(ledger)
    try:
        while clock() - start < seconds or len(blocks) < 2:
            # The previous block's scene is garbage in reference cycles;
            # collect it here rather than inside this block's set-up.
            gc.collect()
            span = ledger.span if ledger is not None else _no_span
            before = ledger.snapshot() if ledger is not None else None
            with span("block", index=len(blocks)):
                block = block_fn(seed, ledger, checks)
            if ledger is not None:
                after = ledger.snapshot()
                block.busy = _diff(before["busy"], after["busy"])
                block.counts = _diff(before["counts"], after["counts"])
                block.counts["net.routing.forwarded"] = block.stats.get(
                    "forwarded", 0)
            blocks.append(block)
    finally:
        if ledger is not None:
            ledger.restore()
    first = (reference or blocks[0]).digest
    for index, block in enumerate(blocks):
        checks.expect(block.digest == first,
                      f"{workload}: block {index} digest {block.digest} "
                      f"differs from {first}")
    if trace:
        base = {name: blocks[0].counts.get(name, 0)
                for name in DETERMINISTIC_COUNTERS}
        for index, block in enumerate(blocks[1:], start=1):
            counts = {name: block.counts.get(name, 0)
                      for name in DETERMINISTIC_COUNTERS}
            checks.expect(counts == base,
                          f"{workload}: work counters of block {index} "
                          f"{counts} differ from block 0 {base}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"blocks": blocks, "reference": reference, "digest": first,
            "ledger": ledger, "peak_rss_mb": peak_rss_mb}


def _diff(before: Dict[str, float],
          after: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def end_to_end(run: Dict[str, Any]) -> Dict[str, Any]:
    """The end-to-end metrics of a run."""
    blocks: List[Block] = run["blocks"]
    chunk_ms = [ms for block in blocks for ms in block.chunk_ms]
    return {
        "setup_s": statistics.median(s for b in blocks for s in b.setup_s),
        "throughput_per_s": statistics.median(
            b.frames / b.steady_s for b in blocks),
        "latency_p50_ms": percentile(chunk_ms, 50),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run: Dict[str, Any]) -> Dict[str, float]:
    """The traced blocks' ledger folded into per-layer metrics."""
    blocks: List[Block] = run["blocks"]
    n = len(blocks)
    busy: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for block in blocks:
        for name, value in block.busy.items():
            busy[name] = busy.get(name, 0.0) + value
        for name, value in block.counts.items():
            counts[name] = counts.get(name, 0) + value
    first = blocks[0]

    def per_unit_us(layer: str, counter: str) -> float:
        return 1e6 * busy.get(layer, 0.0) / counts[counter] \
            if counts.get(counter) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    stats = first.stats
    legs = first.legs
    reference: Block = run["reference"]
    traced_s_per_frame = statistics.median(b.steady_s / b.frames
                                           for b in blocks)
    return {
        "sim.events": first.counts.get("sim.events", 0),
        "sim.us_per_event": per_unit_us("sim", "sim.events"),
        "sim.events_per_frame.zigbee": ratio(
            legs.get("zigbee", {}).get("events", 0),
            legs.get("zigbee", {}).get("frames", 0)),
        "sim.events_per_frame.dcn": ratio(
            legs.get("dcn", {}).get("events", 0),
            legs.get("dcn", {}).get("frames", 0)),
        "sim.rng.streams": first.counts.get("sim.rng.streams", 0),
        "sim.rng.build_s": busy.get("sim.rng", 0.0) / n,
        "phy.medium.transmissions": first.counts.get(
            "phy.medium.transmissions", 0),
        "phy.medium.fanout_candidates": first.counts.get(
            "phy.medium.fanout_candidates", 0),
        "phy.medium.us_per_candidate": per_unit_us(
            "phy.medium", "phy.medium.fanout_candidates"),
        "phy.medium.co_channel_share": ratio(
            counts.get("phy.medium.co_channel", 0),
            counts.get("phy.medium.fanout_candidates", 0)),
        "phy.linkcache.build_s": busy.get("phy.linkcache", 0.0) / n,
        "phy.fading.draws": first.counts.get("phy.fading.draws", 0),
        "phy.fading.us_per_draw": per_unit_us("phy.fading",
                                              "phy.fading.draws"),
        "phy.radio.cca_probes": first.counts.get("phy.radio.cca_probes", 0),
        "phy.radio.us_per_cca_probe": per_unit_us("phy.radio.cca",
                                                  "phy.radio.cca_probes"),
        "phy.radio.signal_ends": first.counts.get("phy.radio.signal_ends", 0),
        "phy.radio.us_per_signal_end": per_unit_us("phy.radio.signal_end",
                                                   "phy.radio.signal_ends"),
        "phy.reception.finalized": first.counts.get(
            "phy.reception.finalized", 0),
        "phy.reception.crc_ok_ratio": ratio(
            counts.get("phy.reception.crc_ok", 0),
            counts.get("phy.reception.finalized", 0)),
        "mac.frames_sent": stats["sent"],
        "mac.cca_busy_ratio": ratio(stats["cca_busy"],
                                    stats["cca_attempts"]),
        "mac.access_failures": stats["access_failures"],
        "core.dcn.sense_observations": first.counts.get(
            "core.dcn.sense_observations", 0),
        "core.dcn.us_per_observation": per_unit_us(
            "core.dcn", "core.dcn.sense_observations"),
        "core.dcn.threshold_updates": stats["threshold_updates"],
        "net.routing.forwarded": stats.get("forwarded", 0),
        "net.routing.duplicate_ratio": ratio(stats.get("duplicates", 0),
                                             stats.get("forwarded", 0)),
        "net.routing.delivery_ratio": stats.get("delivery_ratio", 0.0),
        "net.routing.us_per_forward": per_unit_us("net.routing",
                                                  "net.routing.forwarded"),
        "host.gc_gen2_s": statistics.median(b.gc_gen2_s for b in blocks),
        "host.rss_growth_mb": statistics.median(b.rss_growth_mb
                                                for b in blocks),
        "host.tracing_overhead_ratio": traced_s_per_frame / (
            reference.steady_s / reference.frames),
    }
