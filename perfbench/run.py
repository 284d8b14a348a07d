#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {scene5k,testbed,campaign}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the simulator is imported from ``src/``.
With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
it runs the layer wrappers and prints every per-layer metric, and writes
``.perfbench/trace-<workload>-seed<N>.json`` (Chrome ``trace_event``)
and ``.perfbench/layers-<workload>-seed<N>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any output check
failed.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("scene5k", "testbed", "campaign")
#: The seed claims are developed on, and the one they must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit.  A layer a workload does not run reads 0.
PER_LAYER = {
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.events_per_frame.zigbee": "events/frame",
    "sim.events_per_frame.dcn": "events/frame",
    "sim.rng.streams": "count",
    "sim.rng.build_s": "s",
    "phy.medium.transmissions": "count",
    "phy.medium.fanout_candidates": "count",
    "phy.medium.us_per_candidate": "us",
    "phy.medium.co_channel_share": "ratio",
    "phy.linkcache.build_s": "s",
    "phy.fading.draws": "count",
    "phy.fading.us_per_draw": "us",
    "phy.radio.cca_probes": "count",
    "phy.radio.us_per_cca_probe": "us",
    "phy.radio.signal_ends": "count",
    "phy.radio.us_per_signal_end": "us",
    "phy.reception.finalized": "count",
    "phy.reception.crc_ok_ratio": "ratio",
    "mac.frames_sent": "count",
    "mac.cca_busy_ratio": "ratio",
    "mac.access_failures": "count",
    "core.dcn.sense_observations": "count",
    "core.dcn.us_per_observation": "us",
    "core.dcn.threshold_updates": "count",
    "net.routing.forwarded": "count",
    "net.routing.duplicate_ratio": "ratio",
    "net.routing.delivery_ratio": "ratio",
    "net.routing.us_per_forward": "us",
    "obs.job_overhead_ratio": "ratio",
    "campaign.submit_ms": "ms",
    "campaign.cache.hit_ratio": "ratio",
    "campaign.cache.get_ms": "ms",
    "campaign.cache.put_ms": "ms",
    "campaign.journal.append_ms": "ms",
    "campaign.queue_wait_ms": "ms",
    "campaign.execute_s": "s",
    "host.gc_gen2_s": "s",
    "host.rss_growth_mb": "MB",
    "host.tracing_overhead_ratio": "ratio",
}

#: What the generic end-to-end names stand for on each workload.
MEANING = {
    "scene5k": {"throughput_per_s": "frames_per_s (simulated MAC frames "
                                    "per host second, steady window)",
                "latency": "host ms per simulated frame, per 2 ms chunk"},
    "testbed": {"throughput_per_s": "frames_per_s (simulated MAC frames "
                                    "per host second, all legs)",
                "latency": "host ms per simulated frame, per 0.25 s chunk"},
    "campaign": {"throughput_per_s": "campaign_jobs_per_s (fresh jobs per "
                                     "second of the cold phase)",
                 "latency": "warm_submit (submit until the NDJSON stream "
                            "of a fully cached campaign closes)"},
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from report import Checks, emit, percentile, tail_percentile

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    checks = Checks()
    trace = bool(args.trace)
    if args.workload == "campaign":
        import campaign as workload

        raw = workload.run_campaign_workload(ROOT, args.seed, args.seconds,
                                             trace, checks)
        samples = raw["warm_ms"]
    else:
        import simwork as workload

        raw = workload.run_sim_workload(args.workload, args.seed,
                                        args.seconds, trace, checks)
        samples = [ms for block in raw["blocks"] for ms in block.chunk_ms]
        blocks = len(raw["blocks"]) + (raw["reference"] is not None)
        print(f"digest {args.workload} seed={args.seed}: {raw['digest']} "
              f"(checked across {blocks} blocks)")

    meaning = MEANING[args.workload]
    print(f"workload {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    tail_p, tail_ms = tail_percentile(samples)
    print(f"  latency samples: n={len(samples)} ({meaning['latency']}); "
          f"p90 = {percentile(samples, 90):.4f} ms; "
          f"tail p{tail_p:g} = {tail_ms:.4f} ms")
    print(f"  throughput_per_s = {meaning['throughput_per_s']}")
    if trace:
        metrics = _per_layer(args, workload, raw, out_dir)
    else:
        e2e = workload.end_to_end(raw)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    rate = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"  error_rate = {checks.failed}/{checks.attempted} = {rate:.6g} "
          "(failed / attempted operations: output checks, jobs, HTTP "
          "requests)")
    correct = checks.failed == 0 and checks.attempted > 0
    emit({"correct": correct, "attempted": checks.attempted,
          "failed": checks.failed, "metrics": metrics})
    return 0 if correct else 1


def _per_layer(args, workload, raw, out_dir: Path):
    from ledger import write_trace

    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(workload.per_layer(raw))
    ledger = raw["ledger"]
    events = ledger.trace_events(pid=0, process=f"perfbench {args.workload}")
    if "server_ledger" in raw:
        events += raw["server_ledger"]["trace_events"]
    stem = f"{args.workload}-seed{args.seed}"
    write_trace(out_dir / f"trace-{stem}.json", events)
    (out_dir / f"layers-{stem}.json").write_text(
        json.dumps(values, indent=1, sort_keys=True) + "\n")
    from simwork import DETERMINISTIC_COUNTERS

    counters = {name: values[name] for name in DETERMINISTIC_COUNTERS}
    print(f"counters {args.workload} seed={args.seed}: "
          + json.dumps(counters, sort_keys=True))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
