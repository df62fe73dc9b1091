"""The process under test: set-up, feeder, phases, checks and metrics.

``run_workload`` drives one workload end to end.  The runtime, the
serving plane and the feeder thread live in this process; HTTP load
comes from ``loadgen.py`` in a child process.  Timings wrap public
calls only (``HierarchyRuntime.ingest/close_epoch/query``, the
gateway's routes through the load generator); layer counters are read
from what the program exposes, at phase boundaries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from harness import (
    GCMonitor,
    Recorder,
    TraceDigest,
    cpu_seconds,
    gen2_collections,
    histogram_totals,
    median,
    nproc,
    peak_rss_mb,
    percentile,
    tail_beyond,
)
from workloads import SITES, SLO_MS, Workload

LEVELS = ("router", "region", "network")
#: distinct client ids the load generator rotates through, so the
#: per-client token buckets of the plane's admission never refuse
LOAD_CLIENTS = 512
#: per-request socket timeout of the load generator
REQUEST_TIMEOUT_S = 30.0
#: untimed load before a ladder's first rung
WARMUP_S = 1.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- the load generator process ------------------------------------------------


class LoadGenProcess:
    """``loadgen.py`` in a child process, one JSON line per command."""

    #: every generator not yet closed, for the run's watchdog
    running: "set[LoadGenProcess]" = set()

    def __init__(self, root: Path, endpoint: str, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(root / "perfbench" / "loadgen.py"),
                "--src",
                str(root / "src"),
                "--endpoint",
                endpoint,
                "--trace",
                str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=root,
        )
        LoadGenProcess.running.add(self)

    def call(self, name: str, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": name, **args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"load generator exited during {name!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError(f"load generator {name!r}: {reply['error']}")
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.call("quit")
            except (BenchError, OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        LoadGenProcess.running.discard(self)

    def kill(self) -> None:
        """Stop the child now (the watchdog's path)."""
        self.proc.kill()
        self.proc.wait(timeout=10)


# -- the feeder --------------------------------------------------------------------


class Feeder:
    """Generates, ingests and closes epochs on one runtime.

    Input for an epoch is generated right before it is ingested and
    released right after, outside every timed span, so the process
    under test never holds the whole trace.
    """

    def __init__(self, runtime, generator, recorder):
        self.runtime = runtime
        self.recorder = recorder
        self.generator = generator
        self.epoch = 0
        self.digest = TraceDigest()
        #: generated totals, for root mass conservation
        self.flows = self.packets = self.bytes = 0
        #: logical close time -> monotonic due time (write phase only)
        self.due: Dict[float, float] = {}
        self.error: Optional[str] = None
        self.reset()

    def reset(self) -> None:
        self.ingest_s: List[float] = []
        self.close_s: List[float] = []
        self.gen_s = 0.0
        self.records = 0
        self.epochs = 0

    def epoch_once(self, wait_due) -> None:
        """One epoch: generate, ingest per site, wait, close."""
        recorder, runtime = self.recorder, self.runtime
        epoch = self.epoch
        started = time.perf_counter()
        with recorder.span("feeder.gen", epoch=epoch):
            batches = []
            for site in SITES:
                records = self.generator.epoch(site, epoch)
                self.digest.add(site, epoch, records)
                for record in records:
                    self.packets += record.packets
                    self.bytes += record.bytes
                self.flows += len(records)
                batches.append((site, records))
        self.gen_s += time.perf_counter() - started
        for site, records in batches:
            with recorder.span("runtime.ingest", site=site):
                began = time.perf_counter()
                self.records += runtime.ingest(site, records)
                self.ingest_s.append(time.perf_counter() - began)
        del batches, records
        due = wait_due()
        now = (epoch + 1) * runtime.epoch_seconds
        self.due[now] = due
        with recorder.span("runtime.close", epoch=epoch):
            began = time.perf_counter()
            runtime.close_epoch(now)
            self.close_s.append(time.perf_counter() - began)
        self.epoch += 1
        self.epochs += 1

    def run_phase(self, epochs: int, period_s: Optional[float]) -> None:
        """The write phase; errors are kept for the main thread."""
        try:
            start = time.monotonic()
            for index in range(epochs):
                if period_s is None:
                    self.epoch_once(time.monotonic)
                else:
                    due_at = start + (index + 1) * period_s
                    self.epoch_once(lambda: _sleep_until(due_at))
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            self.error = f"{type(exc).__name__}: {exc}"


def _sleep_until(due: float) -> float:
    remaining = due - time.monotonic()
    if remaining > 0:
        time.sleep(remaining)
    return due


# -- set-up ------------------------------------------------------------------------


@dataclass
class Deployment:
    runtime: object
    plane: object
    feeder: Feeder
    data_dir: Optional[Path]
    setup_s: float


def deploy(spec: Workload, seed: int, work_dir: Path, recorder) -> Deployment:
    """Build the runtime, preload it, boot the plane; time all but input
    generation."""
    from repro.runtime.presets import network_4level_runtime
    from repro.serve import ServePlane
    from repro.simulation.traffic import TrafficConfig, TrafficGenerator
    from repro.storage import SegmentLogEngine

    generator = TrafficGenerator(
        TrafficConfig(sites=SITES, flows_per_epoch=spec.flows), seed=seed
    )
    started = time.perf_counter()
    with recorder.span("setup"):
        data_dir = None
        storage = None
        if spec.engine == "segment-log":
            data_dir = work_dir / f"segments-{time.monotonic_ns()}"
            storage = SegmentLogEngine(str(data_dir))
        runtime = network_4level_runtime(
            retain_partitions=spec.retain_partitions, storage=storage
        )
        feeder = Feeder(runtime, generator, recorder)
        for _ in range(spec.preload_epochs):
            feeder.epoch_once(time.monotonic)
        plane = ServePlane(runtime)
        plane.start_background()
    setup_s = time.perf_counter() - started - feeder.gen_s
    feeder.due.clear()
    feeder.reset()
    return Deployment(runtime, plane, feeder, data_dir, setup_s)


def teardown(deployment: Deployment) -> None:
    deployment.plane.close()
    deployment.runtime.shutdown()
    deployment.runtime.engine.close()
    if deployment.data_dir is not None:
        shutil.rmtree(deployment.data_dir, ignore_errors=True)


# -- counters at phase boundaries ------------------------------------------------


def snapshot(deployment: Deployment) -> dict:
    """Every counter the benchmark reads, as one flat dict."""
    from repro.obs.bridge import QUERY_SECONDS
    from repro.serve.bridge import REQUEST_SECONDS

    runtime, plane = deployment.runtime, deployment.plane
    stats = runtime.stats
    obs = runtime.obs
    snap: Dict[str, float] = {}
    for level in LEVELS:
        volume = stats.level(level)
        snap[f"rollup_s.{level}"] = volume.rollup_seconds
        snap[f"summary_bytes.{level}"] = volume.summary_bytes_out
    snap["query_bytes"] = sum(v.query_bytes_out for v in stats.levels())
    snap["fabric_bytes"] = runtime.total_network_bytes()
    snap["wan_bytes"] = runtime.wan_bytes()
    for route in ("cloud", "federated", "cached", "degraded"):
        snap[f"queries.{route}"] = getattr(stats, f"queries_{route}")
    for route, (count, seconds) in histogram_totals(obs, QUERY_SECONDS).items():
        snap[f"query_s.{route}"] = seconds
    snap["query_s.all"] = sum(
        seconds for _, seconds in histogram_totals(obs, QUERY_SECONDS).values()
    )
    serve_hist = histogram_totals(obs, REQUEST_SECONDS).values()
    snap["serve.request_s"] = sum(seconds for _, seconds in serve_hist)
    cache = runtime.planner.cache
    snap["cache.hits"] = cache.hits if cache is not None else 0
    snap["cache.misses"] = cache.misses if cache is not None else 0
    db = runtime.db.stats()
    for key in ("entries", "loaded_entries", "total_nodes"):
        snap[f"flowdb.{key}"] = db[key]
    storage = runtime.storage_stats()
    for key in ("segment_bytes", "segments", "manifest_writes"):
        snap[f"storage.{key}"] = storage[key]
    registry = runtime.planner.subscriptions
    snap["subs.refresh_s"] = registry.refresh_seconds_total
    snap["subs.shipped_bytes"] = registry.shipped_bytes_total
    snap["subs.delta_refreshes"] = registry.delta_refreshes
    snap["subs.rebuilds"] = registry.rebuilds
    census = plane.census()
    nodes = census["nodes"].values()
    snap["serve.routed"] = census["requests_routed"]
    snap["serve.routing.hits"] = census["routing"]["hits"]
    snap["serve.routing.misses"] = census["routing"]["misses"]
    snap["serve.queue_peak"] = max(node["queue_peak"] for node in nodes)
    snap["serve.rejections"] = census["admission"]["rejected"] + sum(
        node["backpressure_rejections"] for node in nodes
    )
    snap["serve.timeouts"] = sum(node["timeouts"] for node in nodes)
    snap["python.gc.gen2"] = gen2_collections()
    snap["proc.cpu_s"] = cpu_seconds()
    return snap


def _delta(phases, key: str) -> float:
    """Sum of ``after - before`` over the measured phase pairs; a key
    appears once its series does (a query route's first use)."""
    return sum(
        after.get(key, 0.0) - before.get(key, 0.0) for before, after in phases
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- one workload ------------------------------------------------------------------


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, dict]
    details: dict = field(default_factory=dict)


class Run:
    """One workload's run in progress: the deployment and what the
    phases have measured so far."""

    def __init__(self, spec: Workload, deployment: Deployment, loadgen,
                 recorder, gc_monitor: GCMonitor) -> None:
        self.spec = spec
        self.gc_monitor = gc_monitor
        self.deployment = deployment
        self.runtime = deployment.runtime
        self.feeder = deployment.feeder
        self.loadgen = loadgen
        self.recorder = recorder
        self.checks: Dict[str, bool] = {}
        #: (before, after) counter snapshots around each measured phase
        #: and, apart, around each cold execution
        self.phases: List[tuple] = []
        self.cold_phases: List[tuple] = []
        self.latest: dict = {}
        self.loads: List[dict] = []
        self.write_load: Optional[dict] = None
        self.rungs: List[dict] = []
        self.local: List[object] = []
        self.cold_ms: Dict[str, List[float]] = {}
        self.cold_answers: List[object] = []
        self.subs: dict = {}
        self.write_wall = self.ladder_wall = 0.0
        self.wan_per_epoch = 0.0
        self.mass = None

    def snapshot(self) -> dict:
        self.latest = snapshot(self.deployment)
        return self.latest

    def collect_garbage(self) -> None:
        """Start a measured span from a collected heap.

        Set-up repeats, answer checks and earlier reads are the
        benchmark's work, not the program's load; their garbage is
        reclaimed here, uncounted, so that no span pays for it.  The
        collector stays enabled inside every span.
        """
        self.gc_monitor.collect()

    def subscribe(self) -> None:
        self.loadgen.call(
            "subscribe", queries=list(self.spec.standing), long_poll_s=1.0
        )

    def write(self, epochs: int) -> None:
        """Feeder epochs (plus reads, if any), then the standing-query
        check against cold re-execution once quiesced."""
        spec, runtime, feeder = self.spec, self.runtime, self.feeder
        self.collect_garbage()
        before = self.snapshot()
        started = time.monotonic()
        writer = threading.Thread(
            target=feeder.run_phase,
            args=(epochs, spec.period_s),
            name="bench-feeder",
        )
        writer.start()
        if spec.write_read_rate > 0:
            self.write_load = self.loadgen.call(
                "load",
                rate=spec.write_read_rate,
                seconds=epochs * spec.period_s,
                mix=list(spec.mix),
                workers=max(1, nproc() - 1),
                clients=LOAD_CLIENTS,
                timeout_s=REQUEST_TIMEOUT_S,
            )
            self.loads.append(self.write_load)
        writer.join()
        self.write_wall = time.monotonic() - started
        after = self.snapshot()
        self.phases.append((before, after))
        if feeder.error is not None:
            raise BenchError(f"feeder failed: {feeder.error}")
        self.wan_per_epoch = (after["wan_bytes"] - before["wan_bytes"]) / (
            feeder.epochs
        )
        self.subs = self.loadgen.call("subs_final")
        runtime.planner.invalidate_cache()
        matched = True
        for text, latest in zip(spec.standing, self.subs["latest"].values()):
            cold = runtime.query(text)
            matched &= (
                latest is not None
                and latest["epoch"] == runtime.planner.clock
                and not cold.is_degraded
                and canonical(latest["result"])
                == canonical(cold.result.to_wire())
            )
        self.checks["subscriptions_match_cold"] = matched

    def cold(self) -> None:
        """``cold_reps`` rounds over the cold texts, in-process, with the
        cache dropped before each execution; only the execution is timed
        and counted.

        The heap is collected once, before the first round.  Within the
        phase the collector runs where the program's allocations trigger
        it, so the gen-2 pauses that cold reads cause are part of their
        cost; over a fixed number of rounds their count is fixed too.
        """
        spec, runtime = self.spec, self.runtime
        repeatable = True
        answers: Dict[str, set] = {text: set() for text in spec.cold}
        self.collect_garbage()
        for _ in range(spec.cold_reps):
            for text in spec.cold:
                runtime.planner.invalidate_cache()
                before = self.snapshot()
                with self.recorder.span("query.cold", text=text):
                    began = time.perf_counter()
                    outcome = runtime.query(text)
                    elapsed = time.perf_counter() - began
                self.cold_phases.append((before, self.snapshot()))
                self.cold_ms.setdefault(text, []).append(elapsed * 1000.0)
                repeatable &= not outcome.cache.hit and not outcome.is_degraded
                answers[text].add(canonical(outcome.result.to_wire()))
        repeatable &= all(len(wires) == 1 for wires in answers.values())
        self.cold_answers = [json.loads(next(iter(answers[text])))
                             for text in spec.cold]
        self.checks["cold_reads_repeatable"] = repeatable

    def ladder(self, seconds: float) -> None:
        """A warm-up pass that doubles as the HTTP identity check, then
        the open-loop rungs."""
        spec = self.spec
        identity = self.loadgen.call("identity", mix=list(spec.mix))
        # the node servers answer through this planner: without the
        # drop, the in-process pass would read the HTTP pass's cache
        self.runtime.planner.invalidate_cache()
        self.local = [self.runtime.query(text) for text in spec.mix]
        self.checks["http_identical_to_in_process"] = all(
            not remote["degraded"]
            and canonical(remote["result"])
            == canonical(mine.result.to_wire())
            for remote, mine in zip(identity["answers"], self.local)
        )
        self.collect_garbage()
        before = self.snapshot()
        started = time.monotonic()
        # an untimed second at the lowest rate lets connections, threads
        # and the allocator settle; its failures still count
        self.loads.append(
            self.loadgen.call(
                "load",
                rate=spec.ladder[0],
                seconds=WARMUP_S,
                mix=list(spec.mix),
                workers=nproc(),
                clients=LOAD_CLIENTS,
                timeout_s=REQUEST_TIMEOUT_S,
            )
        )
        for rate in spec.ladder:
            self.rungs.append(
                self.loadgen.call(
                    "load",
                    rate=rate,
                    seconds=seconds / len(spec.ladder),
                    mix=list(spec.mix),
                    workers=nproc(),
                    clients=LOAD_CLIENTS,
                    timeout_s=REQUEST_TIMEOUT_S,
                )
            )
        self.ladder_wall = time.monotonic() - started
        self.phases.append((before, self.snapshot()))
        self.loads.extend(self.rungs)

    def final_checks(self) -> str:
        """Conservation and wire checks; returns the answer digest."""
        runtime, feeder = self.runtime, self.feeder
        total = runtime.query("SELECT TOTAL FROM ALL")
        mass = total.scalar
        self.checks["root_mass_conserved"] = (
            mass.flows == feeder.flows
            and mass.packets == feeder.packets
            and mass.bytes == feeder.bytes
        )
        self.checks["no_server_errors"] = (
            self.deployment.plane.server_errors == 0
        )
        self.checks["every_200_decodes"] = all(
            "wire_schema" not in load["failures"] for load in self.loads
        )
        self.mass = mass
        return hashlib.sha256(
            canonical(
                [total.result.to_wire()]
                + [answer.result.to_wire() for answer in self.local]
                + self.cold_answers
            ).encode("utf-8")
        ).hexdigest()


def run_workload(
    spec: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    epochs: Optional[int] = None,
) -> Outcome:
    """Run one workload; ``epochs`` fixes the write phase's length
    (tests use it to keep runs tiny)."""
    work_dir = root / ".perfbench" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(trace)
    gc_monitor = GCMonitor()
    deployment = None
    loadgen = None
    started = time.monotonic()
    timeline: Dict[str, float] = {}

    def mark(label: str) -> None:
        timeline[label] = time.monotonic() - started

    try:
        # -- set-up, several times; the last deployment is kept
        setup_s: List[float] = []
        for _ in range(spec.setups):
            if deployment is not None:
                teardown(deployment)
                deployment = None
                gc_monitor.collect()
            deployment = deploy(spec, seed, work_dir, recorder)
            setup_s.append(deployment.setup_s)
        mark("setups")
        loadgen = LoadGenProcess(root, deployment.plane.endpoint, trace)
        hello = loadgen.call("hello")
        if not hello.get("ready"):
            raise BenchError(f"gateway never became ready: {hello}")
        run = Run(spec, deployment, loadgen, recorder, gc_monitor)
        mark("loadgen_ready")
        if trace:
            gc_monitor.install()
        write_epochs = epochs or spec.write_epochs(seconds)
        ladder_s = seconds * (1.0 - spec.write_share)
        order = [
            ("subscribe", run.subscribe),
            ("write", lambda: run.write(write_epochs)),
            ("cold", run.cold),
        ]
        ladder = ("ladder", lambda: run.ladder(ladder_s))
        if spec.ladder_first:
            order.insert(0, ladder)
        else:
            order.append(ladder)
        for label, phase in order:
            phase()
            mark(label)
        gc_monitor.remove()
        rss = peak_rss_mb()
        answer_digest = run.final_checks()
        mark("checks")
    finally:
        gc_monitor.remove()
        if loadgen is not None:
            loadgen.close()
        if deployment is not None:
            teardown(deployment)
        shutil.rmtree(work_dir, ignore_errors=True)
        mark("teardown")
    feeder, rungs, subs = run.feeder, run.rungs, run.subs
    loads, phases, checks = run.loads, run.phases, run.checks
    write_load, mass = run.write_load, run.mass
    write_wall, ladder_wall = run.write_wall, run.ladder_wall
    cold_ms, cold_phases = run.cold_ms, run.cold_phases

    # -- end-to-end metrics
    # reads beside the writes when the workload has them, else the
    # lowest ladder rung
    query_ms = (write_load or rungs[0])["latencies_ms"]
    slo = _slo(spec, rungs)
    lags = [
        (arrived - feeder.due[epoch]) * 1000.0
        for epoch, _seq, arrived in subs["arrivals"]
        if epoch in feeder.due
    ]
    busy = sum(feeder.ingest_s) + sum(feeder.close_s)
    values = {
        "setup_s": (median(setup_s), "s"),
        "ingest_rps": (_ratio(feeder.records, busy), "records/s"),
        "close_ms_p50": (median(feeder.close_s) * 1000.0, "ms"),
        "close_ms_hi": (
            percentile(feeder.close_s, spec.hi) * 1000.0,
            "ms",
        ),
        "wan_bytes_per_epoch": (run.wan_per_epoch, "B"),
        "peak_rss_mb": (rss, "MB"),
        "query_ms_p50": (median(query_ms), "ms"),
        "query_ms_hi": (percentile(query_ms, spec.hi), "ms"),
        "slo_qps": (slo["qps"], "q/s"),
        "sub_lag_ms_p50": (median(lags), "ms"),
        "cold_query_ms": (
            sum(map(sum, cold_ms.values()))
            / sum(len(ms) for ms in cold_ms.values()),
            "ms",
        ),
    }
    attempted = (
        sum(load["attempted"] for load in loads)
        + len(feeder.ingest_s)
        + len(feeder.close_s)
        + subs["polls"]
        + subs["poll_errors"]
        + len(spec.mix)
        + sum(len(ms) for ms in cold_ms.values())
    )
    failed = sum(load["failed"] for load in loads) + subs["poll_errors"]
    failures: Dict[str, int] = {}
    for load in loads:
        for reason, count in load["failures"].items():
            failures[reason] = failures.get(reason, 0) + count
    if subs["poll_errors"]:
        failures["subscription_poll"] = subs["poll_errors"]

    details = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": dataclasses.asdict(spec),
        "slo_ms": SLO_MS,
        "hi": spec.hi,
        "trace_digest": feeder.digest.hexdigest(),
        "trace_records": feeder.digest.records,
        "answer_digest": answer_digest,
        "exact": {
            "records": feeder.records,
            "write_epochs": feeder.epochs,
            "wan_bytes": phases[-1][1]["wan_bytes"],
            "root_flows": mass.flows,
            "root_bytes": mass.bytes,
        },
        "checks": checks,
        "failures": failures,
        "failed_ratio": _ratio(failed, attempted),
        "samples": {
            "setup": len(setup_s),
            "close": len(feeder.close_s),
            "query": len(query_ms),
            "query_hi_beyond": tail_beyond(len(query_ms), spec.hi),
            "close_hi_beyond": tail_beyond(len(feeder.close_s), spec.hi),
            "sub_lag": len(lags),
            "cold": {text: len(ms) for text, ms in cold_ms.items()},
        },
        "ladder": slo["rungs"],
        "wall": {
            "write_s": write_wall,
            "cold_s": sum(map(sum, cold_ms.values())) / 1000.0,
            "ladder_s": ladder_wall,
        },
        "timeline_s": timeline,
        "close_ms": [seconds * 1000.0 for seconds in feeder.close_s],
        "sub_lag_ms": lags,
        "query_ms": query_ms,
        "cold_ms": cold_ms,
        "end_to_end": {name: value for name, (value, _) in values.items()},
        "feeder_gen_s": feeder.gen_s,
    }
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }
    if trace:
        metrics = _layer_metrics(
            spec, phases, cold_phases, run.latest, feeder, loads, subs,
            recorder, gc_monitor, write_wall, ladder_wall,
        )
        details["spans"] = recorder.spans
        details["loadgen_spans"] = [
            span for reply in loads + [subs] for span in reply["spans"]
        ]
        details["attribution"] = _attribution(
            phases, cold_phases, feeder, loads, gc_monitor
        )
    return Outcome(
        correct=all(checks.values()),
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        details=details,
    )


def _slo(spec: Workload, rungs: List[dict]) -> dict:
    """The highest rung that meets ``SLO_MS`` with no growing backlog.

    A rung meets the limit when nothing failed, its ``query_hi``
    latency is within the limit, and its last quarter of requests is
    not slower at the median than its first quarter by more than the
    limit (a backlog that grows through the rung).  The reported rate
    is what that rung achieved: requests over the span from its first
    due time to its last answer.
    """
    summary = []
    best = 0.0
    for rung in rungs:
        latencies = rung["latencies_ms"]
        quarter = max(1, len(latencies) // 4)
        growth = median(latencies[-quarter:]) - median(latencies[:quarter])
        hi = percentile(latencies, spec.hi)
        achieved = rung["attempted"] / rung["elapsed_s"]
        meets = rung["failed"] == 0 and hi <= SLO_MS and growth <= SLO_MS
        summary.append(
            {
                "rate": rung["rate"],
                "achieved_qps": achieved,
                "p50_ms": median(latencies),
                "hi_ms": hi,
                "max_ms": max(latencies),
                "over_slo": sum(1 for ms in latencies if ms > SLO_MS),
                "backlog_growth_ms": growth,
                "failed": rung["failed"],
                "meets_slo": meets,
            }
        )
        if meets:
            best = max(best, achieved)
    return {"qps": best, "rungs": summary}


def _layer_metrics(
    spec, serving_phases, cold_phases, end, feeder, loads, subs, recorder,
    gc_monitor, write_wall, ladder_wall,
) -> Dict[str, dict]:
    """Layer counters over every measured span; the data thread's busy
    time over the serving phases only (cold reads run in-process)."""
    phases = serving_phases + cold_phases
    rollup = {level: _delta(phases, f"rollup_s.{level}") for level in LEVELS}
    close_busy = sum(feeder.close_s)
    hits = _delta(phases, "cache.hits")
    misses = _delta(phases, "cache.misses")
    routing_hits = _delta(phases, "serve.routing.hits")
    routing_misses = _delta(phases, "serve.routing.misses")
    delta_refreshes = _delta(phases, "subs.delta_refreshes")
    rebuilds = _delta(phases, "subs.rebuilds")
    data_busy = _delta(serving_phases, "query_s.all")
    serving_wall = ladder_wall + (write_wall if spec.write_read_rate else 0)
    lates = [late for load in loads for late in load["late_ms"]]
    values = {
        "runtime.ingest.busy_s": (sum(feeder.ingest_s), "s"),
        "runtime.ingest.records": (feeder.records, "count"),
        "runtime.ingest.ms_p50": (median(feeder.ingest_s) * 1000.0, "ms"),
        "runtime.close.busy_s": (close_busy, "s"),
        "runtime.rollup.router_s": (rollup["router"], "s"),
        "runtime.rollup.region_s": (rollup["region"], "s"),
        "runtime.rollup.network_s": (rollup["network"], "s"),
        "runtime.close.tail_s": (close_busy - sum(rollup.values()), "s"),
        "datastore.summary_bytes.router": (
            _delta(phases, "summary_bytes.router"), "B"),
        "datastore.summary_bytes.region": (
            _delta(phases, "summary_bytes.region"), "B"),
        "datastore.summary_bytes.network": (
            _delta(phases, "summary_bytes.network"), "B"),
        "hierarchy.fabric_bytes": (_delta(phases, "fabric_bytes"), "B"),
        "hierarchy.wan_bytes": (_delta(phases, "wan_bytes"), "B"),
        "flowdb.entries": (end["flowdb.entries"], "count"),
        "flowdb.loaded_entries": (end["flowdb.loaded_entries"], "count"),
        "flowdb.total_nodes": (end["flowdb.total_nodes"], "count"),
        "storage.segment_bytes": (end["storage.segment_bytes"], "B"),
        "storage.segments": (end["storage.segments"], "count"),
        "storage.manifest_writes": (
            _delta(phases, "storage.manifest_writes"), "count"),
        "query.routes.cloud": (_delta(phases, "queries.cloud"), "count"),
        "query.routes.federated": (
            _delta(phases, "queries.federated"), "count"),
        "query.routes.cached": (_delta(phases, "queries.cached"), "count"),
        "query.routes.degraded": (
            _delta(phases, "queries.degraded"), "count"),
        "query.cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "query.exec_s.cloud": (_delta(phases, "query_s.cloud"), "s"),
        "query.exec_s.federated": (
            _delta(phases, "query_s.federated"), "s"),
        "query.exec_s.cached": (_delta(phases, "query_s.cached"), "s"),
        "query.shipped_bytes": (_delta(phases, "query_bytes"), "B"),
        "subs.refresh_s": (_delta(phases, "subs.refresh_s"), "s"),
        "subs.shipped_bytes": (_delta(phases, "subs.shipped_bytes"), "B"),
        "subs.delta_refreshes": (delta_refreshes, "count"),
        "subs.rebuilds": (rebuilds, "count"),
        "subs.delta_ratio": (
            _ratio(delta_refreshes, delta_refreshes + rebuilds), "ratio"),
        "serve.routed": (_delta(phases, "serve.routed"), "count"),
        "serve.routing.hit_ratio": (
            _ratio(routing_hits, routing_hits + routing_misses), "ratio"),
        "serve.queue_peak": (end["serve.queue_peak"], "count"),
        "serve.rejections": (_delta(phases, "serve.rejections"), "count"),
        "serve.timeouts": (_delta(phases, "serve.timeouts"), "count"),
        "serve.request_s": (_delta(phases, "serve.request_s"), "s"),
        "serve.data_busy_s": (data_busy, "s"),
        "serve.data_busy_share": (_ratio(data_busy, serving_wall), "ratio"),
        "client.decode_s": (sum(load["decode_s"] for load in loads), "s"),
        "loadgen.late_ms_p50": (median(lates), "ms"),
        "loadgen.late_ms_hi": (percentile(lates, 0.99), "ms"),
        "python.gc.pause_s": (gc_monitor.pause_s, "s"),
        "python.gc.gen2": (_delta(phases, "python.gc.gen2"), "count"),
        "proc.cpu_s": (_delta(phases, "proc.cpu_s"), "s"),
        "feeder.gen_s": (feeder.gen_s, "s"),
        "obs.spans": (len(recorder.spans), "count"),
        "obs.trace_overhead_s": (recorder.overhead_s, "s"),
    }
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }


def _attribution(serving_phases, cold_phases, feeder, loads,
                 gc_monitor) -> dict:
    """Self time per layer over the measured phases, in seconds.

    Request time splits along the path of one query: the load
    generator's send-to-answer time contains the node server's request
    time, which contains the planner's time on the data thread.  Cold
    reads run in-process, apart from the serving path.
    """
    phases = serving_phases + cold_phases
    rollup = {level: _delta(phases, f"rollup_s.{level}") for level in LEVELS}
    close_busy = sum(feeder.close_s)
    waited = sum(sum(load["latencies_ms"]) / 1000.0 for load in loads)
    service = sum(load["service_s"] for load in loads)
    node_request = _delta(phases, "serve.request_s")
    data_busy = _delta(serving_phases, "query_s.all")
    return {
        "feeder.gen (benchmark)": feeder.gen_s,
        "runtime.ingest": sum(feeder.ingest_s),
        **{f"runtime.rollup.{lvl}": secs for lvl, secs in rollup.items()},
        "runtime.close.tail": close_busy - sum(rollup.values()),
        "query (data thread)": data_busy,
        "query.cold (in-process)": _delta(cold_phases, "query_s.all"),
        "serve.node (minus data thread)": node_request - data_busy,
        "gateway + HTTP hops (service minus node)": service - node_request,
        "client.decode": sum(load["decode_s"] for load in loads),
        "waiting before send (due to sent)": waited - service,
        "python.gc (overlaps all)": gc_monitor.pause_s,
    }
