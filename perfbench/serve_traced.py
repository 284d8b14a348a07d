"""Launch ``repro serve`` with the server-side layer wrappers installed.

    python perfbench/serve_traced.py LEDGER_OUT [repro serve arguments...]

Serves until drained (``POST /shutdown``), then writes the ledger —
busy time and counts for the result cache, the journal and each HTTP
route, the HTTP request spans, and gen-2 GC time — to ``LEDGER_OUT`` as
JSON.  The job workers are spawned processes and run unwrapped; their
execute and queue-wait times come from the server's ``/metrics``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    sys.path.insert(0, str(here.parent / "src"))
    from ledger import Ledger
    from layers import install_server_layers
    from repro.__main__ import main as repro_main

    ledger_out, serve_args = argv[0], argv[1:]
    ledger = Ledger()
    install_server_layers(ledger)
    gen2 = {"s": 0.0, "start": None}

    def on_gc(phase, info) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            gen2["start"] = time.perf_counter()
        elif gen2["start"] is not None:
            gen2["s"] += time.perf_counter() - gen2["start"]

    gc.callbacks.append(on_gc)
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        gc.callbacks.remove(on_gc)
        ledger.restore()
        with open(ledger_out, "w", encoding="utf-8") as handle:
            json.dump({
                "busy": ledger.busy, "counts": ledger.counts,
                "gc_gen2_s": gen2["s"],
                "trace_events": ledger.trace_events(pid=1, process="server"),
            }, handle)
    return code


# Spawned job workers import this file as ``__mp_main__``; they must not
# start a second server.
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
