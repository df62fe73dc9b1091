"""Attribution report: one untraced and one traced run per workload.

Run from the repository root::

    python3 perfbench/report.py --seed 1 --seconds 30 [--workload live]

For each workload it runs ``run.py`` twice with the same seed, first
with ``--trace 0`` and then with ``--trace 1``, and prints:

* the end-to-end metrics of the untraced run;
* self time per layer from the traced run, with each layer's share of
  the measured wall time;
* ``obs.trace_overhead``: for every end-to-end metric the traced run
  also measured, traced minus untraced as a share of untraced.

The traced run's per-layer metrics are printed by ``run.py`` itself;
this script only reads the detail files both runs write.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench" / "out"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"{workload} trace={trace} failed ({result.returncode}):\n"
            f"{result.stdout[-2000:]}{result.stderr[-2000:]}"
        )
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    details = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return {"summary": summary, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    for workload in args.workload or list(WORKLOADS):
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        details = traced["details"]
        wall = sum(details["wall"].values())
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, "
              f"measured wall {wall:.2f} s)")
        print(f"   failed_ratio {plain['details']['failed_ratio']:.6f} "
              f"({plain['summary']['failed']}/"
              f"{plain['summary']['attempted']}) "
              f"{plain['details']['failures']}")
        for name, metric in plain["summary"]["metrics"].items():
            print(f"   {name:24s} {metric['value']:14.4f} {metric['unit']}")
        print("   self time by layer:")
        for layer, seconds in details["attribution"].items():
            print(f"     {layer:48s} {seconds:9.3f} s "
                  f"{100.0 * seconds / wall:6.1f}%")
        layers = traced["summary"]["metrics"]
        print(f"   serve.data_busy_share "
              f"{layers['serve.data_busy_share']['value']:.3f} "
              f"(data thread busy over serving wall time)")
        print("   obs.trace_overhead (traced - untraced) / untraced:")
        for name, value in details["end_to_end"].items():
            base = plain["summary"]["metrics"][name]["value"]
            share = (value - base) / base if base else 0.0
            print(f"     {name:24s} {share:+8.3%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
