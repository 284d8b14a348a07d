"""Kernel micro-benchmark suite and the ``BENCH_kernel.json`` baseline.

The suite times the hot paths the PR-2 performance layer optimised:

- ``event_queue``       — self-rescheduling event throughput (push/pop);
- ``event_cancel_churn``— heavy cancellation (exercises heap compaction);
- ``medium_fanout``     — one transmitter fanning frames to 30 receivers
  through the link cache's batched fan-out;
- ``fanout_1k``         — the same rig at 1000 receivers: the regime the
  struct-of-arrays :mod:`repro.phy.vectorized` path is built for;
- ``cca_probe``         — the sensing-path probe of a default radio with
  20 frames on air: a fold over the medium's on-air table (a memo hit
  per record once the radio has probed them);
- ``cca_probe_brute``   — the pre-optimisation O(n·mask) re-summation,
  kept as the honest "before" reference (also used by the accumulator
  exactness tests);
- ``obs_off_mini_run``  — a 2-node saturated run with telemetry *off*:
  the guard-only cost every ordinary run pays (gated so obs-disabled
  overhead regressions fail CI);
- ``obs_on_mini_run``   — the same run fully instrumented (spans +
  gauge sampling), recording the opt-in cost per frame;
- ``routing_mini_run``  — a 3×3 grid running the full routing stack
  (HELLO discovery, tree join, convergecast forwarding), costed per
  delivered end-to-end report;
- ``mini_run_5k``       — a 5000-mote synthetic scene (16 channels, one
  saturated link each) run for 20 ms of sim time, costed per sent
  frame; the scale tier the batched fan-out targets (skipped in
  ``--quick`` mode);
- ``mini_run_50k``      — the same scene at 50 000 motes: the on-air
  table + single tuple heap regime (DESIGN.md §15; skipped in
  ``--quick`` mode);
- ``mini_run_50k_smoke``— the 50k scene at 5 ms of sim time, sized for
  the CI ``scale`` job (selected there via ``--only``); part of the
  full suite so the committed baseline carries a number the scale job
  can gate against;
- ``fig19_fast``        — an end-to-end representative exhibit (skipped
  in ``--quick`` mode).

Results are machine-normalised via :func:`calibrate` — a fixed pure-Python
loop timed alongside every run — so a committed baseline from one machine
can gate CI runs on another: what is compared is the benchmark's cost
*relative to that machine's Python speed*, not absolute seconds.

Rolling per-bench baselines: :func:`write_baseline` folds the previous
document's measurement into each bench's ``baseline`` field (with its
``measured_at`` stamp and calibration), so ``BENCH_kernel.json`` always
records the *previous* regeneration next to the current one and
``repro perf bench --compare`` can print honest per-bench deltas.  The
module-level :data:`BEFORE_OPTIMISATION` constants are frozen seed-commit
history, not a live baseline.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "BEFORE_OPTIMISATION",
    "brute_force_sensed_power_mw",
    "brute_force_in_channel_power_mw",
    "calibrate",
    "run_bench_suite",
    "load_baseline",
    "check_against_baseline",
    "compare_against_baseline",
    "write_baseline",
]

SCHEMA_VERSION = 1

#: Pre-optimisation numbers, measured at the seed commit (ede54dc) on the
#: same machine that produced the committed ``BENCH_kernel.json`` —
#: interleaved with the optimised build in back-to-back fresh processes to
#: cancel machine-speed drift, and pinned at the *fastest* observed
#: pre-optimisation run (11.37-12.02 s range) so the recorded speedups are
#: conservative.  Kept here (not re-measured) because the brute-force
#: medium fan-out paths no longer exist; the CCA brute-force path *is*
#: still measured live as ``cca_probe_brute``.  These are frozen
#: *historical* references (the fig19 figure predates PR 2) — delta
#: tracking between regenerations lives in the per-bench ``baseline``
#: fields that :func:`write_baseline` maintains, not here.
BEFORE_OPTIMISATION: Dict[str, float] = {
    "fig19_fast_wall_s": 11.37,
    "cca_probe_us": 10.97,  # 20 active signals, per probe
}

#: Provenance note serialised alongside the ``before`` block so readers
#: of ``BENCH_kernel.json`` don't mistake it for a rolling baseline.
BEFORE_NOTE = (
    "frozen seed-commit (pre-PR-2) measurements; per-regeneration deltas "
    "are tracked in each bench's 'baseline' field"
)


# ----------------------------------------------------------------------
# Brute-force reference implementations (pre-optimisation algorithms)
# ----------------------------------------------------------------------
def brute_force_sensed_power_mw(radio) -> float:
    """Sensing-path power by full re-summation (the pre-PR-2 algorithm).

    Walks every active signal, re-evaluates the CCA mask and converts the
    leakage to a linear gain per probe.  Kept as the reference the
    incremental accumulator is benchmarked and property-tested against.
    """
    total = radio._noise_mw
    for signal in radio.active_signals:
        leakage_db = radio.cca_mask.leakage_db(
            signal.channel_mhz - radio.channel_mhz
        )
        total += signal.rx_power_mw * (10.0 ** (-leakage_db / 10.0))
    return total


def brute_force_in_channel_power_mw(radio, exclude=None) -> float:
    """Decode-path power by full re-summation (the pre-PR-2 algorithm)."""
    total = radio._noise_mw
    skip = exclude.transmission if exclude is not None else None
    for signal in radio.active_signals:
        if signal.transmission is skip:
            continue
        leakage_db = radio.mask.leakage_db(signal.channel_mhz - radio.channel_mhz)
        total += signal.rx_power_mw * (10.0 ** (-leakage_db / 10.0))
    return total


# ----------------------------------------------------------------------
# Machine calibration
# ----------------------------------------------------------------------
def calibrate(rounds: int = 3) -> float:
    """Time a fixed pure-Python workload; the per-machine speed unit.

    Returns the best-of-``rounds`` wall time of a deterministic
    arithmetic loop.  Baseline comparisons scale by the ratio of
    calibration times, cancelling out raw machine speed.
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i ^ (i >> 3)
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Individual benchmarks
# ----------------------------------------------------------------------
def _bench_event_queue(n: int) -> Dict[str, Any]:
    from ..sim.simulator import Simulator

    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.schedule(1e-5, tick)

    sim.schedule(0.0, tick)
    t0 = time.perf_counter()
    sim.run_until_idle()
    wall = time.perf_counter() - t0
    assert count[0] == n
    return {"wall_s": wall, "n": n, "per_op_us": wall / n * 1e6}


def _bench_event_cancel_churn(n: int) -> Dict[str, Any]:
    from ..sim.events import EventQueue

    queue = EventQueue()
    t0 = time.perf_counter()
    # Repeatedly push a batch and cancel 90% of it: the lazy-cancellation
    # heap must compact rather than grow monotonically.
    for batch in range(n // 100):
        events = [queue.push(batch + i * 1e-6, lambda: None) for i in range(100)]
        for event in events[10:]:
            queue.cancel(event)
    while queue:
        queue.pop()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "n": n, "per_op_us": wall / n * 1e6}


def _fanout_rig(n_receivers: int = 30):
    from ..phy.fading import NoFading
    from ..phy.medium import Medium
    from ..phy.propagation import FixedRssMatrix
    from ..phy.radio import Radio
    from ..sim.rng import RngStreams
    from ..sim.simulator import Simulator

    sim = Simulator()
    rng = RngStreams(1)
    medium = Medium(
        sim, FixedRssMatrix(default_loss_db=50.0), fading=NoFading(), rng=rng
    )
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0, rng=rng)
    for i in range(n_receivers):
        Radio(sim, medium, f"rx{i}", (1 + i, 0), 2460.0, 0.0, rng=rng)
    return sim, tx


def _bench_medium_fanout(frames: int, n_receivers: int = 30) -> Dict[str, Any]:
    from ..phy.frame import Frame

    sim, tx = _fanout_rig(n_receivers)
    t0 = time.perf_counter()
    for _ in range(frames):
        frame = Frame("tx", None, 60)
        tx.transmit(frame, lambda t: None)
        sim.run(sim.now + frame.airtime_s + 1e-6)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "n": frames, "per_op_us": wall / frames * 1e6}


def _bench_mini_run(n_motes: int, sim_s: float = 0.02) -> Dict[str, Any]:
    """An ``n_motes``-mote scene for ``sim_s`` of simulated time, per frame.

    The spatial density (400 m² per mote) keeps audible sets bounded by
    radio range (~1500 radios at 5k, saturating near ~4800 at 50k), as in
    a real city-scale deployment — so the cost scales with audible-set
    size, not with the global mote count.  World construction stays
    outside the timed window (the 5k convention); the lazy link-cache
    builds (with their fading key columns) still land inside it, on the
    first transmission of each source.

    The pre-window ``gc.collect()`` is measurement hygiene, not a speed
    hack: scene construction churns millions of container objects, and
    without it the collector pays that debt *inside* the timed window —
    at 50k motes a full collection scanning the live scene can double the
    measured per-frame cost depending on what ran earlier in the process.
    """
    from ..experiments.scenarios import large_scene

    deployment = large_scene(n_motes, seed=1, area_m2_per_mote=400.0)
    deployment.start_traffic()
    gc.collect()
    t0 = time.perf_counter()
    deployment.sim.run(sim_s)
    wall = time.perf_counter() - t0
    frames = sum(node.mac.stats.sent for node in deployment.nodes.values())
    assert frames > 0
    return {
        "wall_s": wall,
        "n": frames,
        "per_op_us": wall / frames * 1e6,
        "n_motes": n_motes,
        "sim_s": sim_s,
    }


def _cca_rig(n_signals: int = 20, eager: bool = False):
    """A receiver with ``n_signals`` frames on air at it: channels 2460 to
    2466 MHz, RSS -60 - i dBm.

    By default the frames are real transmissions on a fast-path medium,
    so a probe folds the medium's on-air table — what every default
    radio does.  ``eager=True`` builds the reference leg's radio and
    feeds its per-signal accumulator directly (the brute-force rig).
    """
    from ..phy.frame import Frame
    from ..phy.medium import Medium, Signal, Transmission
    from ..phy.propagation import FixedRssMatrix
    from ..phy.radio import Radio
    from ..sim.rng import RngStreams
    from ..sim.simulator import Simulator

    sim = Simulator()
    rng = RngStreams(1)
    matrix = FixedRssMatrix(default_loss_db=300.0)
    medium = Medium(sim, matrix, rng=rng, link_cache=not eager)
    rx = Radio(sim, medium, "rx", (0, 0), 2460.0, 0.0, rng=rng)
    for i in range(n_signals):
        channel_mhz = 2460.0 + (i % 7)
        if eager:
            transmission = Transmission(
                source=rx,
                frame=Frame("s", None, 60),
                channel_mhz=channel_mhz,
                tx_power_dbm=0.0,
                start_time=0.0,
                end_time=1.0,
            )
            rx._add_signal(Signal(transmission, -60.0 - i))
            continue
        position = (float(i + 1), 0.0)
        matrix.set_loss(position, (0, 0), 60.0 + i)
        source = Radio(sim, medium, f"s{i}", position, channel_mhz, 0.0,
                       rng=rng)
        medium.begin_transmission(
            source, Frame(source.name, None, 60), channel_mhz, 0.0,
            lambda _t: None,
        )
    return rx


def _bench_cca_probe(n: int, brute: bool) -> Dict[str, Any]:
    rx = _cca_rig(eager=brute)
    acc = 0.0
    t0 = time.perf_counter()
    if brute:
        for _ in range(n):
            acc += brute_force_sensed_power_mw(rx)
    else:
        for _ in range(n):
            acc += rx.sensed_power_mw()
    wall = time.perf_counter() - t0
    assert acc > 0.0
    return {"wall_s": wall, "n": n, "per_op_us": wall / n * 1e6}


def _obs_mini_rig(obs=None):
    """A 2-node saturated link — the smallest world exercising every
    obs hook site (medium, CSMA, radio, adjustor guards)."""
    from ..net.deployment import Deployment
    from ..net.topology import LinkSpec, NetworkSpec, NodeSpec

    spec = NetworkSpec(
        label="N0",
        channel_mhz=2460.0,
        nodes=(
            NodeSpec("N0.s0", (0.0, 0.0), 0.0),
            NodeSpec("N0.r0", (1.5, 0.0), 0.0),
        ),
        links=(LinkSpec("N0.s0", "N0.r0"),),
    )
    deployment = Deployment([spec], seed=1, obs=obs)
    deployment.start_traffic()
    return deployment


def _bench_obs_mini_run(enabled: bool, sim_s: float = 0.5) -> Dict[str, Any]:
    """Wall time of a mini run with telemetry off (the guard-only path
    every ordinary run pays) or fully on (spans + gauge sampling)."""
    obs = None
    if enabled:
        from ..obs.recorder import Observability

        obs = Observability(sample_interval_s=0.01)
    deployment = _obs_mini_rig(obs)
    t0 = time.perf_counter()
    deployment.sim.run(sim_s)
    wall = time.perf_counter() - t0
    frames = deployment.node("N0.s0").mac.stats.sent
    assert frames > 0
    return {"wall_s": wall, "n": frames, "per_op_us": wall / frames * 1e6}


def _bench_routing_mini_run(sim_s: float = 8.0) -> Dict[str, Any]:
    """Routing-layer overhead: one 3×3 grid running HELLO discovery,
    tree join and convergecast, costed per *delivered* report — the
    full stack (router dispatch, table folds, forwarding queue) on top
    of the MAC/PHY the other benches isolate."""
    from ..mac.params import MacParams
    from ..net.deployment import Deployment
    from ..net.routing import RoutingFabric
    from ..net.topology import grid_topology

    deployment = Deployment(
        [grid_topology(3, 3, 30.0, 2460.0)],
        seed=1,
        saturate_senders=False,
        mac_params=MacParams(ack_enabled=True),
    )
    fabric = RoutingFabric(deployment)
    fabric.start()
    fabric.attach_convergecast(interval_s=0.25, start_delay_s=2.0)
    fabric.start_sources()
    t0 = time.perf_counter()
    deployment.sim.run(sim_s)
    wall = time.perf_counter() - t0
    delivered = sum(len(s.stats.delays_s) for s in fabric.sink_routers())
    assert delivered > 0
    return {"wall_s": wall, "n": delivered, "per_op_us": wall / delivered * 1e6}


def _bench_fig19_fast() -> Dict[str, Any]:
    from ..experiments.figures import fig19

    t0 = time.perf_counter()
    fig19.run(seed=1, fast=True)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "n": 1, "per_op_us": wall * 1e6}


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
#: Repetitions per micro-benchmark; the *fastest* round is recorded.
#: Best-of-N is the standard jitter filter: scheduling hiccups and cache
#: misses only ever make a round slower, so the minimum is the most
#: repeatable estimate of the true cost — which is what a 25% CI gate
#: needs on benches whose per-op time is fractions of a microsecond.
BENCH_ROUNDS = 3


def _best_of(fn, rounds: int = BENCH_ROUNDS) -> Dict[str, Any]:
    best: Optional[Dict[str, Any]] = None
    for _ in range(rounds):
        result = fn()
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    return best


def run_bench_suite(
    quick: bool = False,
    verbose: bool = True,
    only: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Run the benchmark suite and return the serialisable result document.

    ``quick`` skips only the multi-second benches (the mini_run tiers and
    the end-to-end exhibit); the micro-benchmarks keep identical iteration
    counts in both modes so quick-mode CI numbers are directly comparable
    to a full-mode baseline.  ``only`` restricts the run to the named
    benches — a selected bench runs regardless of the quick gating (the
    CI ``scale`` job uses ``--only mini_run_50k_smoke``); unknown names
    raise ``KeyError``.
    """
    from .. import __version__

    micro = [
        ("event_queue", lambda: _bench_event_queue(200_000)),
        ("event_cancel_churn", lambda: _bench_event_cancel_churn(100_000)),
        ("medium_fanout", lambda: _bench_medium_fanout(400)),
        # The scale regime: same rig, 1000 receivers per frame.
        ("fanout_1k", lambda: _bench_medium_fanout(40, n_receivers=1000)),
        ("cca_probe_brute", lambda: _bench_cca_probe(100_000, brute=True)),
        ("cca_probe", lambda: _bench_cca_probe(200_000, brute=False)),
        # Telemetry guard cost: obs_off is what every ordinary run pays
        # (the baseline gate fails CI when the disabled path regresses
        # >25%); obs_on records the full-instrumentation cost per frame.
        ("obs_off_mini_run", lambda: _bench_obs_mini_run(False)),
        ("obs_on_mini_run", lambda: _bench_obs_mini_run(True)),
        # Routing stack cost per delivered convergecast report.
        ("routing_mini_run", lambda: _bench_routing_mini_run()),
    ]
    # Multi-second benches: one round each (per-op jitter averages out
    # over the run itself).  The third column flags benches excluded from
    # the *default* full suite (they only run when named via ``only``).
    # The mini_run tiers run best-of-2 with the first round doubling as a
    # warm-up: a tier run in a fresh process (the CI scale job's ``--only
    # mini_run_50k_smoke``) pays the process's first big page-fault wave
    # inside the timed window — the lazy link-cache builds are the first
    # large allocations — at up to ~3x the warm cost a full-suite run
    # (already allocator-warm from the previous tier) records.  Best-of-2
    # makes the standalone and in-suite numbers agree and roughly halves
    # run-to-run jitter on contended machines.
    heavy = [
        ("mini_run_5k",
         lambda: _best_of(lambda: _bench_mini_run(5000), rounds=2), False),
        ("mini_run_50k",
         lambda: _best_of(lambda: _bench_mini_run(50_000), rounds=2), False),
        ("mini_run_50k_smoke",
         lambda: _best_of(lambda: _bench_mini_run(50_000, 0.005), rounds=2),
         False),
        ("fig19_fast", _bench_fig19_fast, False),
    ]

    plan = [(name, lambda fn=fn: _best_of(fn)) for name, fn in micro]
    if not quick:
        plan.extend((name, fn) for name, fn, opt_in in heavy if not opt_in)
    if only is not None:
        available = dict(plan)
        available.update((name, fn) for name, fn, _ in heavy)
        unknown = [name for name in only if name not in available]
        if unknown:
            raise KeyError(
                f"unknown bench(es) {unknown}; known: {sorted(available)}"
            )
        plan = [(name, available[name]) for name in only]

    doc: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "quick": quick,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "calibration_s": calibrate(),
        "benches": {},
        "before": dict(BEFORE_OPTIMISATION),
        "before_note": BEFORE_NOTE,
    }
    for name, fn in plan:
        # Level the field between benches: collect the previous bench's
        # garbage now so its teardown is not billed to whichever timed
        # window the next full collection happens to land in (the same
        # hygiene pyperf applies between runs).
        gc.collect()
        result = fn()
        doc["benches"][name] = result
        if verbose:
            print(
                f"  {name:<20} {result['wall_s']*1e3:9.2f} ms total   "
                f"{result['per_op_us']:9.3f} us/op"
            )

    derived: Dict[str, float] = {}
    benches = doc["benches"]
    # Every derived metric is guarded on bench presence so --quick and
    # --only selections produce well-formed documents.
    if "cca_probe_brute" in benches and "cca_probe" in benches:
        derived["cca_probe_speedup"] = (
            benches["cca_probe_brute"]["per_op_us"]
            / benches["cca_probe"]["per_op_us"]
        )
    if "obs_on_mini_run" in benches and "obs_off_mini_run" in benches:
        derived["obs_enabled_overhead_ratio"] = (
            benches["obs_on_mini_run"]["per_op_us"]
            / benches["obs_off_mini_run"]["per_op_us"]
        )
    if "fig19_fast" in benches:
        derived["fig19_speedup_vs_seed"] = (
            BEFORE_OPTIMISATION["fig19_fast_wall_s"]
            / benches["fig19_fast"]["wall_s"]
        )
    # Per-mote throughput: wall time normalised by simulated time and
    # scene size — the unit the 50k scale target is stated in
    # (µs of wall per sent frame, per mote).
    for name in ("mini_run_5k", "mini_run_50k", "mini_run_50k_smoke"):
        bench = benches.get(name)
        if bench is not None and "n_motes" in bench:
            derived[f"{name}_per_mote_us"] = (
                bench["per_op_us"] / bench["n_motes"]
            )
    if "mini_run_5k_per_mote_us" in derived and "mini_run_50k_per_mote_us" in derived:
        derived["scale_per_mote_gain_50k_vs_5k"] = (
            derived["mini_run_5k_per_mote_us"]
            / derived["mini_run_50k_per_mote_us"]
        )
    doc["derived"] = derived
    if verbose:
        for key, value in derived.items():
            print(f"  {key:<28} {value:8.3f}")
    return doc


# ----------------------------------------------------------------------
# Baseline comparison (the CI gate)
# ----------------------------------------------------------------------
def load_baseline(path: str) -> Dict[str, Any]:
    """Load a benchmark document previously written by :func:`write_baseline`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_against_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
    verbose: bool = True,
) -> bool:
    """Compare a fresh suite run against a committed baseline.

    Each benchmark's wall time is first normalised by the calibration
    ratio (how fast this machine runs plain Python relative to the
    machine that produced the baseline), then compared per-op; a
    regression beyond ``tolerance`` (default +25 %) fails the check.
    Benchmarks absent from either document are skipped.
    """
    base_cal = baseline.get("calibration_s") or 1.0
    cur_cal = current.get("calibration_s") or 1.0
    machine_ratio = base_cal / cur_cal  # >1: this machine is faster
    ok = True
    lines: List[str] = []
    for name, base in sorted(baseline.get("benches", {}).items()):
        cur = current.get("benches", {}).get(name)
        if cur is None:
            continue
        normalised = cur["per_op_us"] * machine_ratio
        limit = base["per_op_us"] * (1.0 + tolerance)
        regressed = normalised > limit
        ok = ok and not regressed
        lines.append(
            f"  {name:<20} baseline {base['per_op_us']:9.3f} us/op   "
            f"now {normalised:9.3f} us/op (normalised)   "
            f"{'REGRESSED' if regressed else 'ok'}"
        )
    if verbose:
        print(f"machine calibration ratio: {machine_ratio:.3f}")
        for line in lines:
            print(line)
    return ok


def compare_against_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    verbose: bool = True,
) -> Dict[str, float]:
    """Per-bench normalised deltas against a baseline document (no gate).

    Returns ``{bench: delta}`` where ``delta`` is the fractional change of
    the machine-normalised per-op cost (+0.10 = 10 % slower than the
    baseline, -0.25 = 25 % faster).  Benches absent from either document
    are skipped; derived metrics present in both are printed for context.
    """
    base_cal = baseline.get("calibration_s") or 1.0
    cur_cal = current.get("calibration_s") or 1.0
    machine_ratio = base_cal / cur_cal
    deltas: Dict[str, float] = {}
    if verbose:
        print(f"machine calibration ratio: {machine_ratio:.3f}")
        base_when = baseline.get("generated_at", "unknown date")
        print(f"baseline generated: {base_when}")
    for name, base in sorted(baseline.get("benches", {}).items()):
        cur = current.get("benches", {}).get(name)
        if cur is None:
            continue
        normalised = cur["per_op_us"] * machine_ratio
        delta = normalised / base["per_op_us"] - 1.0
        deltas[name] = delta
        if verbose:
            print(
                f"  {name:<20} baseline {base['per_op_us']:11.3f} us/op   "
                f"now {normalised:11.3f} us/op   {delta:+7.1%}"
            )
    if verbose:
        base_derived = baseline.get("derived", {})
        for key, value in sorted(current.get("derived", {}).items()):
            if key in base_derived:
                print(
                    f"  {key:<28} baseline {base_derived[key]:8.3f}   "
                    f"now {value:8.3f}"
                )
    return deltas


def write_baseline(doc: Dict[str, Any], path: str) -> None:
    """Serialise a suite document as sorted, indented, newline-terminated
    JSON (the committed-baseline format).

    When ``path`` already holds a baseline, each bench of the new
    document gains a ``baseline`` field recording the *previous*
    measurement (per-op cost, its ``measured_at`` stamp and the machine
    calibration it was taken under), and every bench is stamped with the
    document's ``generated_at`` as its ``measured_at`` — so the committed
    file always carries one regeneration of history per bench.
    """
    previous: Optional[Dict[str, Any]] = None
    if os.path.exists(path):
        try:
            previous = load_baseline(path)
        except (OSError, ValueError):
            previous = None
    measured_at = doc.get("generated_at")
    for name, bench in doc.get("benches", {}).items():
        if measured_at is not None:
            bench["measured_at"] = measured_at
        if previous is not None:
            old = previous.get("benches", {}).get(name)
            if old is not None:
                bench["baseline"] = {
                    "per_op_us": old["per_op_us"],
                    "measured_at": old.get(
                        "measured_at", previous.get("generated_at")
                    ),
                    "calibration_s": previous.get("calibration_s"),
                }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
