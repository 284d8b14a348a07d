"""The ``campaign`` workload: ``repro serve`` as a subprocess, one client.

One client keeps one campaign in flight at a time (closed loop).  Each
campaign runs two real fast exhibits, ``fig04`` and ``fig29``, for two
seeds (four jobs, so two workers stay busy).  Cold campaigns submit
fresh seeds, so every job executes; half of them ask for obs.  Each is
followed by a burst of warm resubmits of the campaigns run so far, so
every warm job is a cache hit.  A warm submit is timed from the POST
until the campaign's NDJSON event stream closes.

The work is fixed for a given ``--seconds`` (campaign counts scale with
it, sized to fill it on the 2-core machine the bounds were set on), so
the server holds the same state at the end of every run and its peak
RSS compares across commits.

Set-up time is server spawn until the first healthy response, measured
over several boots.  With tracing on, the working server is started
through ``perfbench/serve_traced.py``; a plain server on the same cache
then repeats a short warm burst, and the ratio of the two warm medians
is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ledger import Ledger
from report import Checks, percentile

__all__ = ["run_campaign_workload"]

clock = time.perf_counter
HERE = Path(__file__).resolve().parent

EXHIBITS = ["fig04", "fig29"]
SEEDS_PER_CAMPAIGN = 2
JOBS = len(EXHIBITS) * SEEDS_PER_CAMPAIGN
BOOTS = 3                # set-up samples per run (the last one serves)
COLD_PER_S = 1 / 6       # measured cold campaigns per --seconds
WARM_PER_S = 34          # warm submits per --seconds (p99 at 30 s)
MIN_COLD = 2
MIN_WARM = 100           # p90 keeps ten samples beyond it
OVERHEAD_BURST = 300     # plain-server warm submits in a traced run
BOOT_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` process with its own state directory."""

    def __init__(self, root: Path, state: Path, cache: Path,
                 ledger_out: Optional[Path] = None) -> None:
        from repro.campaign.client import CampaignClient

        state.mkdir(parents=True)
        serve = ["--port", "0", "--jobs", str(os.cpu_count() or 1),
                 "--state-dir", str(state / "state"),
                 "--cache-dir", str(cache)]
        if ledger_out is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"),
                    str(ledger_out), *serve]
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   TMPDIR=str(state))
        log_path = state / "server.log"
        self.log = open(log_path, "w", encoding="utf-8")
        start = clock()
        self.proc = subprocess.Popen(argv, cwd=root, env=env,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)
        try:
            url = self._await_banner(log_path)
            self.client = CampaignClient(url, timeout_s=BOOT_TIMEOUT_S)
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock() - start

    def _await_banner(self, log_path: Path) -> str:
        deadline = clock() + BOOT_TIMEOUT_S
        marker = "repro campaign server on "
        while clock() < deadline:
            text = log_path.read_text(encoding="utf-8", errors="replace")
            if marker in text:
                return text.split(marker, 1)[1].split()[0]
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text}")
            time.sleep(0.002)
        raise RuntimeError("server did not announce itself")

    def _await_healthy(self) -> None:
        deadline = clock() + BOOT_TIMEOUT_S
        while True:
            try:
                self.client.info()
                return
            except OSError:
                if clock() > deadline:
                    raise
                time.sleep(0.002)

    def status_mb(self, field: str) -> float:
        """``VmHWM``/``VmRSS`` of the server process (not its workers)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no {field} for pid {self.proc.pid}")

    def stop(self) -> None:
        """Graceful drain, then make sure the process and pool are gone."""
        try:
            if self.proc.poll() is None:
                try:
                    self.client.shutdown()
                except (OSError, AttributeError):
                    self.proc.terminate()
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()


class Loop:
    """The closed-loop client: one campaign in flight at a time."""

    def __init__(self, server: Server, checks: Checks,
                 ledger: Optional[Ledger]) -> None:
        self.server = server
        self.checks = checks
        self.ledger = ledger
        self.last_id = ""
        self.last_events: List[Dict[str, Any]] = []

    def call(self, what: str, fn, *args, **kwargs):
        """One HTTP operation; an error is a failed operation."""
        from repro.campaign.client import ServerError

        start = clock()
        try:
            result = fn(*args, **kwargs)
        except (ServerError, OSError, ValueError) as exc:
            self.checks.expect(False, f"campaign: {what}: {exc}")
            return None
        finally:
            if self.ledger is not None:
                self.ledger.add_span(what, start, clock(), cat="http")
        self.checks.expect(True, what)
        return result

    def run(self, seeds: List[int], obs: bool
            ) -> Tuple[float, Optional[dict]]:
        """Submit, stream to the end; (seconds, final ``done`` event)."""
        client = self.server.client
        start = clock()
        doc = self.call("POST /campaigns", client.submit, ids=EXHIBITS,
                        seeds=seeds, fast=True, obs=obs)
        if doc is None:
            return clock() - start, None
        events = self.call("GET /campaigns/<id>/events",
                           lambda: list(client.stream_events(doc["id"])))
        elapsed = clock() - start
        if not events or events[-1].get("event") != "done":
            self.checks.expect(False, "campaign: event stream ended early")
            return elapsed, None
        for event in events:
            if event.get("event") == "job":
                self.checks.expect(
                    event["ok"], f"campaign: job {event['exhibit_id']} "
                    f"seed {event['seed']} failed: {event.get('error')}")
        self.last_events = events
        self.last_id = doc["id"]
        return elapsed, events[-1]

    def tables(self) -> Optional[Dict[str, str]]:
        doc = self.call("GET /campaigns/<id>", self.server.client.campaign,
                        self.last_id)
        return None if doc is None else doc["result"]["tables"]


def _exhibit_seeds(seed: int, index: int) -> List[int]:
    """Fresh exhibit seeds per benchmark seed (disjoint across seeds)."""
    first = seed * 1000 + index * SEEDS_PER_CAMPAIGN + 1
    return list(range(first, first + SEEDS_PER_CAMPAIGN))


def _job_totals(samples) -> Dict[str, float]:
    """``_sum``/``_count`` of the ``server.job.*`` histograms, all exhibits."""
    totals: Dict[str, float] = {}
    for name, _labels, value in samples or ():
        if name.startswith("server_job_") and name.endswith(("_sum",
                                                             "_count")):
            totals[name] = totals.get(name, 0.0) + value
    return totals


def run_campaign_workload(root: Path, seed: int, seconds: float,
                          trace: bool, checks: Checks) -> Dict[str, Any]:
    state_root = root / ".perfbench" / f"campaign-{os.getpid()}"
    shutil.rmtree(state_root, ignore_errors=True)
    try:
        return _run(root, state_root, seed, seconds, trace, checks)
    finally:
        shutil.rmtree(state_root, ignore_errors=True)


def _run(root: Path, state_root: Path, seed: int, seconds: float,
         trace: bool, checks: Checks) -> Dict[str, Any]:
    cache = state_root / "cache"
    setup: List[float] = []
    ledger_out = state_root / "server-ledger.json" if trace else None
    ledger = Ledger() if trace else None
    if not trace:
        for boot in range(BOOTS - 1):
            probe = Server(root, state_root / f"probe{boot}",
                           state_root / f"probe{boot}-cache")
            setup.append(probe.setup_s)
            probe.stop()
    server = Server(root, state_root / "server", cache, ledger_out)
    setup.append(server.setup_s)
    try:
        loop = Loop(server, checks, ledger)
        result = _phases(loop, seed, seconds, checks)
        result["peak_rss_mb"] = server.status_mb("VmHWM")
        result["rss_growth_mb"] = (server.status_mb("VmRSS")
                                   - result.pop("rss_before_mb"))
    finally:
        server.stop()
    result["setup_s"] = statistics.median(setup)
    if trace:
        checks.expect(server.proc.returncode == 0,
                      f"campaign: traced server exited "
                      f"{server.proc.returncode}")
        result["server_ledger"] = json.loads(ledger_out.read_text())
        plain = Server(root, state_root / "plain", cache)
        try:
            burst = Loop(plain, checks, None)
            warm = [_warm_submit(burst, result["cold"], k, checks)
                    for k in range(OVERHEAD_BURST)]
        finally:
            plain.stop()
        result["plain_warm_ms"] = [ms for ms in warm if ms is not None]
        result["ledger"] = ledger
    return result


def _phases(loop: Loop, seed: int, seconds: float,
            checks: Checks) -> Dict[str, Any]:
    """Cold campaigns, each followed by a burst of warm resubmits.

    Spreading the warm submits over the whole run, rather than one block
    at its end, keeps a passing slow spell of the shared machine from
    deciding a run's warm median.
    """
    client = loop.server.client
    client.metrics_text()  # the scrape path is warm too
    rss_before = loop.server.status_mb("VmRSS")
    n_cold = max(MIN_COLD, round(COLD_PER_S * seconds))
    n_warm = max(MIN_WARM, round(WARM_PER_S * seconds))
    cold: List[Tuple[List[int], bool, Dict[str, str]]] = []
    job_s: Dict[Tuple[str, bool], List[float]] = {}
    job_totals: Dict[str, float] = {}
    cold_s = 0.0
    cold_jobs = 0
    warm_ms: List[float] = []
    # Campaign 0 also spawns the worker pool: it is checked and reused by
    # the warm bursts, but kept out of the cold figures.
    for index in range(1 + n_cold):
        obs = index % 2 == 0
        seeds = _exhibit_seeds(seed, index)
        before = _job_totals(loop.call("GET /metrics", client.metrics))
        elapsed, done = loop.run(seeds, obs)
        if done is None:
            continue
        checks.expect(
            done["ok"] and done["completed"] == JOBS
            and done["cache_hits"] == 0,
            f"campaign: cold campaign {seeds} ended {done}")
        after = _job_totals(loop.call("GET /metrics", client.metrics))
        tables = loop.tables()
        if tables is not None:
            cold.append((seeds, obs, tables))
        if index == 0:
            continue
        cold_s += elapsed
        cold_jobs += done["completed"]
        for name, value in after.items():
            job_totals[name] = (job_totals.get(name, 0.0) + value
                                - before.get(name, 0.0))
        for event in loop.last_events:
            if event.get("event") == "job" and event.get("ok"):
                job_s.setdefault((event["exhibit_id"], obs),
                                 []).append(event["elapsed_s"])
        for k in range(n_warm * (index - 1) // n_cold,
                       n_warm * index // n_cold):
            ms = _warm_submit(loop, cold, k, checks)
            if ms is not None:
                warm_ms.append(ms)
    means = {}
    for base in ("server_job_queue_wait_s", "server_job_elapsed_s"):
        count = job_totals.get(base + "_count", 0.0)
        means[base] = job_totals.get(base + "_sum", 0.0) / count if count \
            else 0.0
    return {
        "cold": cold, "cold_s": cold_s, "cold_jobs": cold_jobs,
        "job_s": job_s, "warm_ms": warm_ms, "server_job_means": means,
        "rss_before_mb": rss_before,
    }


def _warm_submit(loop: Loop, cold, k: int, checks: Checks
                 ) -> Optional[float]:
    """Resubmit cold campaign ``k mod n``: all hits, identical tables."""
    seeds, obs, tables = cold[k % len(cold)]
    elapsed, done = loop.run(seeds, obs)
    if done is None:
        return None
    checks.expect(done["ok"] and done["cache_hits"] == JOBS,
                  f"campaign: warm resubmit of {seeds} ended {done}")
    checks.expect(loop.tables() == tables,
                  f"campaign: warm tables of {seeds} differ from the cold "
                  "execution")
    return elapsed * 1e3


def end_to_end(run: Dict[str, Any]) -> Dict[str, Any]:
    warm = run["warm_ms"]
    return {
        "setup_s": run["setup_s"],
        "throughput_per_s": run["cold_jobs"] / run["cold_s"],
        "latency_p50_ms": percentile(warm, 50),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run: Dict[str, Any]) -> Dict[str, float]:
    server = run["server_ledger"]
    busy, counts = server["busy"], server["counts"]

    def mean_ms(layer: str, counter: str) -> float:
        n = counts.get(counter, 0)
        return 1e3 * busy.get(layer, 0.0) / n if n else 0.0

    ratios = []
    for exhibit in EXHIBITS:
        on = run["job_s"].get((exhibit, True))
        off = run["job_s"].get((exhibit, False))
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    gets = counts.get("campaign.cache.gets", 0)
    means = run["server_job_means"]
    return {
        "obs.job_overhead_ratio": (statistics.mean(ratios)
                                   if ratios else 0.0),
        "campaign.submit_ms": mean_ms("http.POST /campaigns",
                                      "http.POST /campaigns"),
        "campaign.cache.hit_ratio": (counts.get("campaign.cache.hits", 0)
                                     / gets if gets else 0.0),
        "campaign.cache.get_ms": mean_ms("campaign.cache.get",
                                         "campaign.cache.gets"),
        "campaign.cache.put_ms": mean_ms("campaign.cache.put",
                                         "campaign.cache.puts"),
        "campaign.journal.append_ms": mean_ms("campaign.journal",
                                              "campaign.journal.appends"),
        "campaign.queue_wait_ms": 1e3 * means["server_job_queue_wait_s"],
        "campaign.execute_s": means["server_job_elapsed_s"],
        "host.gc_gen2_s": server["gc_gen2_s"],
        "host.rss_growth_mb": run["rss_growth_mb"],
        "host.tracing_overhead_ratio": (
            percentile(run["warm_ms"], 50)
            / percentile(run["plain_warm_ms"], 50)),
    }
