"""The repository's end-to-end benchmark: one command per workload.

Run from the repository root::

    python3 perfbench/run.py --workload rollup --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.  Full detail
(provenance, checks, ladder, spans) is written to
``.perfbench/out/<workload>-seed<n>-trace<t>.json``.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a run that has not finished by then is stopped, with exit code 3
WATCHDOG_S = 175.0


def _report(outcome, provenance) -> None:
    details = outcome.details
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"trace {int(details['trace'])}  seconds {details['seconds']}")
    print("host " + ", ".join(f"{k}={v}" for k, v in provenance.items()))
    print(f"trace digest {details['trace_digest'][:16]} "
          f"({details['trace_records']} records)  "
          f"answer digest {details['answer_digest'][:16]}")
    samples = details["samples"]
    hi = f"p{details['hi'] * 100:g}"
    print(f"samples (hi = {hi}): close {samples['close']} "
          f"({samples['close_hi_beyond']} beyond), "
          f"query {samples['query']} "
          f"({samples['query_hi_beyond']} beyond), "
          f"sub_lag {samples['sub_lag']}, setup {samples['setup']}")
    for rung in details["ladder"]:
        print(f"  rung {rung['rate']:6.0f} q/s: achieved "
              f"{rung['achieved_qps']:7.1f}  p50 {rung['p50_ms']:8.2f} ms  "
              f"hi {rung['hi_ms']:8.2f} ms  failed {rung['failed']}  "
              f"{'meets' if rung['meets_slo'] else 'misses'} "
              f"{details['slo_ms']:g} ms")
    for name, metric in outcome.metrics.items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  {'failed_ratio':34s} {details['failed_ratio']:14.6f} ratio "
          f"({outcome.failed}/{outcome.attempted}) {details['failures']}")
    if "attribution" in details:
        print("self time by layer (s):")
        for layer, seconds in details["attribution"].items():
            print(f"  {layer:48s} {seconds:10.4f}")
    for check, passed in details["checks"].items():
        print(f"check {check}: {'ok' if passed else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import host_facts, source_revision
    from session import BenchError, run_workload
    from workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    watchdog = threading.Timer(WATCHDOG_S, _expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        outcome = run_workload(
            spec, args.seed, args.seconds, bool(args.trace), ROOT
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()

    provenance = {
        **host_facts(),
        "revision": source_revision(ROOT),
    }
    outcome.details["provenance"] = provenance
    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (
        f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    )
    out_path.write_text(json.dumps(outcome.details, indent=1))
    _report(outcome, provenance)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0 if outcome.correct else 1


def _expire() -> None:
    from session import LoadGenProcess

    print(f"error: run exceeded {WATCHDOG_S:g}s", file=sys.stderr)
    sys.stderr.flush()
    for loadgen in list(LoadGenProcess.running):
        loadgen.kill()
    os._exit(3)


if __name__ == "__main__":
    sys.exit(main())
