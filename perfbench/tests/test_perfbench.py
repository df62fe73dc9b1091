"""The benchmark's own tests: determinism, provenance and refusal.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They run each workload at a tiny scale (a few hundred flows, two
write epochs), so they check the benchmark's plumbing, not speed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from harness import TraceDigest, percentile, tail_beyond  # noqa: E402
from session import run_workload  # noqa: E402
from workloads import SITES, WORKLOADS  # noqa: E402


def tiny(name: str, **overrides):
    """A workload at test scale; the shape of each phase is unchanged."""
    spec = WORKLOADS[name]
    small = {
        "setups": 2,
        "flows": 60,
        "ladder": (50.0,),
        "write_read_rate": 5.0 if spec.write_read_rate else 0.0,
        "period_s": 0.5 if spec.period_s else None,
        "cold_reps": 2,
    }
    small.update(overrides)
    return dataclasses.replace(spec, **small)


def run_tiny(name: str, seed: int, **overrides):
    return run_workload(
        tiny(name, **overrides), seed, seconds=2.0, trace=False, root=ROOT,
        epochs=2,
    )


class TestStatistics:
    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100
        assert percentile([], 0.5) == 0.0

    def test_tail_beyond_counts_samples_past_the_percentile(self):
        assert tail_beyond(1000, 0.99) == 10
        assert tail_beyond(100, 0.9) == 10
        assert tail_beyond(0, 0.9) == 0


class TestTraceDigest:
    @staticmethod
    def digest(seed: int) -> str:
        from repro.simulation.traffic import TrafficConfig, TrafficGenerator

        generator = TrafficGenerator(
            TrafficConfig(sites=SITES, flows_per_epoch=40), seed=seed
        )
        digest = TraceDigest()
        for epoch in range(2):
            for site in SITES:
                digest.add(site, epoch, generator.epoch(site, epoch))
        return digest.hexdigest()

    def test_same_seed_same_digest(self):
        assert self.digest(7) == self.digest(7)

    def test_other_seed_other_digest(self):
        assert self.digest(7) != self.digest(8)


class TestDeterminism:
    def test_same_seed_same_trace_counts_and_answers(self):
        first = run_tiny("rollup", seed=5)
        second = run_tiny("rollup", seed=5)
        assert first.correct and second.correct
        assert first.failed == second.failed == 0
        for key in ("trace_digest", "answer_digest", "exact"):
            assert first.details[key] == second.details[key], key
        assert (
            first.metrics["wan_bytes_per_epoch"]["value"]
            == second.metrics["wan_bytes_per_epoch"]["value"]
        )

    def test_other_seed_changes_the_trace(self):
        first = run_tiny("rollup", seed=5)
        other = run_tiny("rollup", seed=6)
        assert first.details["trace_digest"] != other.details["trace_digest"]
        assert first.details["answer_digest"] != other.details["answer_digest"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_checks_and_reports_every_metric(name):
    outcome = run_tiny(name, seed=3)
    assert outcome.correct, outcome.details["checks"]
    assert outcome.failed == 0, outcome.details["failures"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in declared["end_to_end"]]
    assert sorted(outcome.metrics) == sorted(names)
    for metric in declared["end_to_end"]:
        reported = outcome.metrics[metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


def test_traced_run_reports_every_layer_metric():
    outcome = run_workload(
        tiny("live"), 3, seconds=2.0, trace=True, root=ROOT, epochs=2
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in declared["per_layer"]]
    assert sorted(outcome.metrics) == sorted(names)
    assert outcome.details["spans"]
    assert outcome.metrics["runtime.ingest.records"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """Only the benchmark's own files: exit non-zero, print no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
