"""The HTTP load generator: a process of its own, driven over stdio.

The process under test starts this script and sends it one JSON
command per line on stdin; every command gets one JSON reply line on
stdout.  Commands:

* ``hello`` — readiness handshake: poll the gateway's ``/healthz``
  until it answers, then reply ``{"ready": true}``.
* ``subscribe`` — register standing queries over HTTP; the first one
  is long-polled by a background thread that stamps each update's
  arrival with ``time.monotonic()`` (system-wide on Linux, so the
  process under test can subtract its own due times).
* ``load`` — an open-loop schedule at a fixed rate: request ``i`` is
  due at ``t0 + i / rate``.  Latency is timed from the due time, so a
  stall delays every later request too; the generator's own lateness
  (send time minus the later of due time and the moment the worker
  became free) is reported separately.
* ``subs_final`` — stop the long-poll thread and return every arrival
  plus each subscription's latest update.
* ``identity`` — fetch each query once over HTTP and return the
  decoded result bodies.
* ``quit`` — close every connection and exit.

At most ``nproc`` threads hold connections at any time: load workers
plus the long-poll thread.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


class Connection:
    """One keep-alive HTTP/1.1 connection, as ``FlowQLClient`` keeps."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: dict, client_id: str):
        """``(status, raw body)``; no retry, so failures stay visible."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        payload = json.dumps(body, separators=(",", ":"))
        try:
            self._conn.request(
                "POST",
                path,
                body=payload,
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Client": client_id,
                },
            )
            response = self._conn.getresponse()
            return response.status, response.read()
        except (ConnectionError, http.client.HTTPException, OSError):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class LoadGenerator:
    def __init__(self, endpoint: str, nproc: int, trace: bool) -> None:
        from repro.client import FlowQLClient
        from repro.serve import wire

        self.wire = wire
        self.FlowQLClient = FlowQLClient
        self.endpoint = endpoint
        host_port = endpoint.split("//", 1)[-1]
        host, _, port = host_port.partition(":")
        self.host, self.port = host, int(port)
        self.nproc = nproc
        self.trace = trace
        self.handles: List[object] = []
        self.arrivals: List[list] = []
        #: traced runs only: [name, start, end] on this process's
        #: monotonic clock, returned with the reply that ends a phase
        self.spans: List[list] = []
        self._spans_lock = threading.Lock()
        self.polls = 0
        self.poll_errors = 0
        self._poller: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._long_client = None
        self._control = None

    # -- handshake -----------------------------------------------------------

    def hello(self, timeout_s: float = 30.0) -> dict:
        deadline = time.monotonic() + timeout_s
        while True:
            client = self.FlowQLClient(endpoint=self.endpoint)
            try:
                census = client.health()
                return {"ready": True, "nodes": len(census["nodes"])}
            except Exception as exc:  # noqa: BLE001 - retried until deadline
                if time.monotonic() > deadline:
                    return {"ready": False, "error": repr(exc)}
                time.sleep(0.05)
            finally:
                client.close()

    # -- standing queries ----------------------------------------------------

    def subscribe(self, queries: List[str], long_poll_s: float) -> dict:
        """Register ``queries``; the first is long-polled on its own
        connection, the rest are read once more by ``subs_final``."""
        self._long_client = self.FlowQLClient(
            endpoint=self.endpoint, client_id="bench-long-poll"
        )
        self._control = self.FlowQLClient(
            endpoint=self.endpoint, client_id="bench-subs"
        )
        for index, text in enumerate(queries):
            client = self._long_client if index == 0 else self._control
            self.handles.append(client.subscribe("SUBSCRIBE " + text))
        # the control connection is idle until subs_final reopens it
        self._control.close()
        self._stop.clear()
        self._poller = threading.Thread(
            target=self._long_poll,
            args=(self.handles[0], long_poll_s),
            name="bench-long-poll",
        )
        self._poller.start()
        return {"ids": [handle.id for handle in self.handles]}

    def _long_poll(self, handle, wait_s: float) -> None:
        while not self._stop.is_set():
            started = time.monotonic()
            try:
                updates = handle.poll(wait_s=wait_s)
            except Exception:  # noqa: BLE001 - counted as failures
                self.poll_errors += 1
                continue
            arrived = time.monotonic()
            self.polls += 1
            if self.trace:
                self._span("subs.poll", started, arrived)
            for update in updates:
                self.arrivals.append([update.epoch, update.seq, arrived])

    def stop_polling(self) -> Optional[str]:
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=60)
            if self._poller.is_alive():
                return "long-poll thread did not stop"
            self._poller = None
            self._long_client.close()
        return None

    def subs_final(self) -> dict:
        error = self.stop_polling()
        if error is not None:
            return {"error": error}
        latest: Dict[str, object] = {}
        for handle in self.handles:
            handle.poll(wait_s=0.0)
            update = handle.latest()
            latest[handle.id] = (
                update.to_wire() if update is not None else None
            )
        self._control.close()
        self._long_client.close()
        return {
            "arrivals": self.arrivals,
            "latest": latest,
            "polls": self.polls,
            "poll_errors": self.poll_errors,
            "spans": self._take_spans(),
        }

    def _span(self, name: str, start: float, end: float) -> None:
        with self._spans_lock:
            self.spans.append([name, start, end])

    def _take_spans(self) -> List[list]:
        with self._spans_lock:
            spans, self.spans = self.spans, []
        return spans

    # -- open-loop load ------------------------------------------------------

    def load(
        self,
        rate: float,
        seconds: float,
        mix: List[str],
        workers: int,
        clients: int,
        timeout_s: float,
    ) -> dict:
        workers = max(1, min(workers, self.nproc))
        total = max(1, int(rate * seconds))
        lock = threading.Lock()
        state = {"next": 0}
        t0 = time.monotonic() + 0.05
        latencies: List[float] = [0.0] * total
        lates: List[float] = []
        failures: Dict[str, int] = {}
        #: [decode seconds, service seconds (send to answer)]
        totals = [0.0, 0.0]

        def take() -> Optional[int]:
            with lock:
                index = state["next"]
                if index >= total:
                    return None
                state["next"] = index + 1
                return index

        def fail(reason: str) -> None:
            with lock:
                failures[reason] = failures.get(reason, 0) + 1

        def work() -> None:
            connection = Connection(self.host, self.port, timeout_s)
            free_at = time.monotonic()
            try:
                while True:
                    index = take()
                    if index is None:
                        return
                    due = t0 + index / rate
                    now = time.monotonic()
                    if now < due:
                        time.sleep(due - now)
                    sent = time.monotonic()
                    late = sent - max(due, free_at)
                    text = mix[index % len(mix)]
                    client_id = f"lg-{index % clients}"
                    try:
                        status, raw = connection.post(
                            "/v1/query",
                            {"query": text, "client_id": client_id},
                            client_id,
                        )
                    except Exception:  # noqa: BLE001 - a failed request
                        status, raw = None, b""
                    done = time.monotonic()
                    free_at = done
                    latencies[index] = (done - due) * 1000.0
                    decode_started = time.perf_counter()
                    reason = None
                    if status is None:
                        reason = "connection"
                    elif status != 200:
                        reason = f"http_{status}"
                    else:
                        try:
                            outcome = self.wire.decode_outcome(
                                json.loads(raw.decode("utf-8"))
                            )
                            if outcome.is_degraded:
                                reason = "degraded"
                        except Exception:  # noqa: BLE001 - schema failure
                            reason = "wire_schema"
                    with lock:
                        totals[0] += time.perf_counter() - decode_started
                        totals[1] += done - sent
                        lates.append(late * 1000.0)
                    if self.trace:
                        self._span("http.request", sent, done)
                    if reason is not None:
                        fail(reason)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=work, name=f"bench-load-{n}")
            for n in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - t0
        return {
            "rate": rate,
            "seconds": seconds,
            "workers": workers,
            "attempted": total,
            "failed": sum(failures.values()),
            "failures": failures,
            "latencies_ms": latencies,
            "late_ms": lates,
            "decode_s": totals[0],
            "service_s": totals[1],
            "elapsed_s": elapsed,
            "spans": self._take_spans(),
        }

    def identity(self, mix: List[str]) -> dict:
        client = self.FlowQLClient(
            endpoint=self.endpoint, client_id="bench-identity"
        )
        answers = []
        try:
            for text in mix:
                outcome = client.query(text)
                answers.append(
                    {
                        "result": outcome.result.to_wire(),
                        "degraded": outcome.is_degraded,
                    }
                )
        finally:
            client.close()
        return {"answers": answers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--endpoint", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    nproc = len(os.sched_getaffinity(0))
    generator = LoadGenerator(args.endpoint, nproc, bool(args.trace))
    for line in sys.stdin:
        command = json.loads(line)
        name = command.pop("cmd")
        if name == "quit":
            generator.stop_polling()
            _reply({"bye": True})
            return 0
        try:
            _reply(getattr(generator, name)(**command))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            _reply({"error": f"{type(exc).__name__}: {exc}"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
