"""Which functions of the program the traced run wraps, layer by layer.

Every wrapper is installed at class level before the deployments are
built, so callbacks bound at construction time (``Router._on_frame`` as a
MAC receive listener, ``EventQueue.pop_due`` in ``Simulator.run``) see
it.  A name the program no longer defines is skipped: its layer then
reads zero work, which is the truth for that commit (the roadmap plans
to delete several of these paths).

Deliberately *not* wrapped: ``Radio.on_signal_start``.  ``FanoutBatch``
inlines deliveries for every radio whose class still has the base
``on_signal_start``; a class-level wrapper would flip that identity test
and send the run down the slow per-receiver path — a different program.
Deliveries are counted where the fanout is formed instead
(``fanout_batch`` candidates, ``sample_db_many`` draws); the matching
``on_signal_end`` calls are wrapped, since nothing compares that method
by identity.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Dict, Optional

from ledger import Ledger

__all__ = ["install_sim_layers", "install_server_layers"]


def _find(path: str) -> Optional[type]:
    """``module.Class`` if the program still defines it, else None."""
    module, _, name = path.rpartition(".")
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def _try_wrap(ledger: Ledger, owner: Optional[type], name: str, layer: str,
              count=None) -> None:
    if owner is not None and name in owner.__dict__:
        ledger.wrap(owner, name, layer, count)


def _count_events(counts: Dict[str, int], _args, event) -> None:
    if event is not None:
        counts["sim.events"] += 1


def _count_transmission(counts, _args, _result) -> None:
    counts["phy.medium.transmissions"] += 1


def _count_draws(counts, args, _result) -> None:
    counts["phy.fading.draws"] += len(args[1])


def _count_probe(counts, _args, _result) -> None:
    counts["phy.radio.cca_probes"] += 1


def _count_signal_end(counts, _args, _result) -> None:
    counts["phy.radio.signal_ends"] += 1


def _count_reception(counts, _args, outcome) -> None:
    counts["phy.reception.finalized"] += 1
    if outcome.crc_ok:
        counts["phy.reception.crc_ok"] += 1


def _count_sense(counts, _args, _result) -> None:
    counts["core.dcn.sense_observations"] += 1


def _count_linkcache_build(counts, _args, _result) -> None:
    counts["phy.linkcache.builds"] += 1


def install_sim_layers(ledger: Ledger) -> None:
    """Wrap the simulator's layer boundaries (call before building)."""
    CcaAdjustor = _find("repro.core.adjustor.CcaAdjustor")
    Router = _find("repro.net.routing.forwarding.Router")
    LogNormalFading = _find("repro.phy.fading.LogNormalFading")
    LinkGainCache = _find("repro.phy.medium.LinkGainCache")
    Medium = _find("repro.phy.medium.Medium")
    Radio = _find("repro.phy.radio.Radio")
    Reception = _find("repro.phy.reception.Reception")
    VectorizedLinkCache = _find("repro.phy.vectorized.VectorizedLinkCache")
    EventQueue = _find("repro.sim.events.EventQueue")
    RngStreams = _find("repro.sim.rng.RngStreams")
    Simulator = _find("repro.sim.simulator.Simulator")

    _try_wrap(ledger, Simulator, "run", "sim")
    _try_wrap(ledger, EventQueue, "pop_due", "sim", _count_events)
    _try_wrap(ledger, Medium, "begin_transmission", "phy.medium",
              _count_transmission)
    _try_wrap(ledger, Medium, "link_fading_streams", "phy.fading")
    _try_wrap(ledger, LogNormalFading, "sample_db_many", "phy.fading",
              _count_draws)
    _try_wrap(ledger, VectorizedLinkCache, "fanout_lists", "phy.linkcache",
              _count_linkcache_build)
    _try_wrap(ledger, VectorizedLinkCache, "sharded_fanout_lists",
              "phy.linkcache", _count_linkcache_build)
    _try_wrap(ledger, LinkGainCache, "audible_entries", "phy.linkcache")
    _try_wrap(ledger, Radio, "cca_busy", "phy.radio.cca", _count_probe)
    _try_wrap(ledger, Radio, "on_signal_end", "phy.radio.signal_end",
              _count_signal_end)
    _try_wrap(ledger, Reception, "finalize", "phy.reception",
              _count_reception)
    _try_wrap(ledger, CcaAdjustor, "observe_sense", "core.dcn", _count_sense)
    for name in ("_on_frame", "send_report", "submit_control"):
        _try_wrap(ledger, Router, name, "net.routing")
    if RngStreams is not None:
        _wrap_rng(ledger, RngStreams)
    if VectorizedLinkCache is not None \
            and "fanout_batch" in VectorizedLinkCache.__dict__:
        _wrap_fanout_batch(ledger, VectorizedLinkCache)


def _wrap_rng(ledger: Ledger, rng_cls: type) -> None:
    """``stream``/``stream_many``: count generators actually built."""
    enter, leave, counts = ledger.enter, ledger.leave, ledger.counts
    for name in ("stream", "stream_many"):
        if name not in rng_cls.__dict__:
            continue
        original = rng_cls.__dict__[name]

        def wrapper(self, *args, _original=original, **kwargs):
            cache = getattr(self, "_streams", None)
            before = len(cache) if cache is not None else 0
            start = enter()
            try:
                result = _original(self, *args, **kwargs)
            finally:
                leave(start, "sim.rng")
            if cache is not None:
                counts["sim.rng.streams"] += len(cache) - before
            return result

        ledger.patch(rng_cls, name, wrapper)


def _wrap_fanout_batch(ledger: Ledger, cache_cls: type) -> None:
    """``fanout_batch``: a hit is delivery work, a miss is a link build.

    A miss is recognised by the batch being formed from fresh fanout
    lists inside the call, which the ``fanout_lists`` wrapper counts.
    """
    original = cache_cls.__dict__["fanout_batch"]
    enter, leave, counts = ledger.enter, ledger.leave, ledger.counts

    def fanout_batch(self, *args, **kwargs):
        builds = counts["phy.linkcache.builds"]
        layer = "phy.medium"
        start = enter()
        try:
            batch = original(self, *args, **kwargs)
        finally:
            if counts["phy.linkcache.builds"] != builds:
                layer = "phy.linkcache"
            leave(start, layer)
        counts["phy.medium.fanout_candidates"] += len(batch.radios)
        counts["phy.medium.co_channel"] += sum(batch.co_channel)
        return batch

    ledger.patch(cache_cls, "fanout_batch", fanout_batch)


# ----------------------------------------------------------------------
# Server side (installed by perfbench/serve_traced.py in the server).

def install_server_layers(ledger: Ledger) -> None:
    """Wrap the campaign server's cache, journal and HTTP routing."""
    ResultCache = _find("repro.campaign.cache.ResultCache")
    CampaignQueue = _find("repro.campaign.queue.CampaignQueue")
    CampaignServer = _find("repro.campaign.server.CampaignServer")

    def count_get(counts, _args, entry) -> None:
        counts["campaign.cache.gets"] += 1
        if entry is not None:
            counts["campaign.cache.hits"] += 1

    def count_put(counts, _args, _result) -> None:
        counts["campaign.cache.puts"] += 1

    def count_append(counts, _args, _result) -> None:
        counts["campaign.journal.appends"] += 1

    _try_wrap(ledger, ResultCache, "get", "campaign.cache.get", count_get)
    _try_wrap(ledger, ResultCache, "put", "campaign.cache.put", count_put)
    for name in ("record_submit", "record_job", "record_done"):
        _try_wrap(ledger, CampaignQueue, name, "campaign.journal",
                  count_append)

    # HTTP requests interleave on the event loop, so they are spans with
    # wall durations rather than frames on the call stack.
    if CampaignServer is None or "_route" not in CampaignServer.__dict__:
        return
    original = CampaignServer.__dict__["_route"]

    async def route(self, method, target, body, writer) -> Any:
        start = time.perf_counter()
        try:
            return await original(self, method, target, body, writer)
        finally:
            end = time.perf_counter()
            path = target.split("?", 1)[0]
            name = f"{method} {_route_name(path)}"
            ledger.busy["http." + name] += end - start
            ledger.counts["http." + name] += 1
            ledger.add_span(name, start, end, cat="http", tid=1,
                            args={"path": path})

    ledger.patch(CampaignServer, "_route", route)


def _route_name(path: str) -> str:
    parts = path.strip("/").split("/")
    if len(parts) >= 2 and parts[0] == "campaigns":
        parts[1] = "<id>"
    return "/" + "/".join(parts)
