"""Measurement helpers shared by the benchmark's two processes.

Nothing here reaches into the program under test: spans are recorded
around calls the benchmark makes, and counters are read from what the
program already exposes (``runtime.stats``, the observability registry,
the serving plane's census, FlowDB and storage stats).
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_beyond(count: int, fraction: float) -> int:
    """Samples strictly beyond the nearest-rank ``fraction`` percentile."""
    if count == 0:
        return 0
    return count - min(count, max(1, math.ceil(fraction * count)))


class Recorder:
    """Benchmark-side spans, kept in memory and written at the end.

    Each thread keeps its own parent stack, so spans opened on the
    feeder thread never nest under spans of the main thread.  A
    disabled recorder yields without recording anything; the untraced
    run pays one attribute check per span.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        #: seconds spent inside the recorder's own bookkeeping
        self.overhead_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        entered = time.perf_counter()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._ids += 1
            span_id = self._ids
        record = {
            "id": span_id,
            "parent": stack[-1] if stack else None,
            "name": name,
            "thread": threading.current_thread().name,
            "attrs": attrs,
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        self.overhead_s += record["start"] - entered
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)
            self.overhead_s += time.perf_counter() - record["end"]


class GCMonitor:
    """Collector pauses of this process, via ``gc.callbacks``.

    Installed only in the traced run: the untraced run leaves the
    interpreter exactly as the program configures it.
    """

    def __init__(self) -> None:
        self.pause_s = 0.0
        self._started: Dict[int, float] = {}
        self._collecting = False

    def collect(self) -> None:
        """A full collection made by the benchmark, not counted."""
        self._collecting = True
        try:
            gc.collect()
        finally:
            self._collecting = False

    def _callback(self, phase: str, info: dict) -> None:
        if self._collecting:
            return
        ident = threading.get_ident()
        if phase == "start":
            self._started[ident] = time.perf_counter()
        else:
            began = self._started.pop(ident, None)
            if began is not None:
                self.pause_s += time.perf_counter() - began

    def install(self) -> None:
        gc.callbacks.append(self._callback)

    def remove(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


def gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def histogram_totals(obs, name: str) -> Dict[str, List[float]]:
    """``{label: [count, sum]}`` of one histogram family (first label)."""
    family = obs.registry.get(name)
    totals: Dict[str, List[float]] = {}
    if family is None:
        return totals
    for labelvalues, child in family.series():
        label = labelvalues[0] if labelvalues else ""
        entry = totals.setdefault(label, [0, 0.0])
        entry[0] += child.count
        entry[1] += child.sum
    return totals


class TraceDigest:
    """A running sha256 over generated input records."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.records = 0

    def add(self, site: str, epoch: int, records: Iterable) -> None:
        parts = [f"{site}#{epoch}"]
        for record in records:
            parts.append(
                f"{record.key.values}{record.key.levels}"
                f"{record.packets},{record.bytes},"
                f"{record.first_seen!r},{record.last_seen!r}"
            )
            self.records += 1
        self._hash.update("\n".join(parts).encode("utf-8"))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision(root: Path) -> str:
    """The git commit, or a digest of ``src/`` when not in a git tree."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def host_facts() -> Dict[str, object]:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "kernel": platform.release(),
    }
