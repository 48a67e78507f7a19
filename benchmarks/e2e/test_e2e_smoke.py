"""Smoke test of the end-to-end benchmark: all four workloads at smoke scale.

Runs ``run.py --scale smoke`` once untraced and once traced (a few seconds
each) and checks what the benchmark promises: every metric named in
``BENCHMARK.json`` is reported with its unit, no operation fails or returns
a wrong output, and tracing records a span for every wrapped layer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_smoke(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=240,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(line: dict, declared: list) -> None:
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in declared:
            reported = line["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], float)


def test_untraced_run_reports_every_end_to_end_metric_without_errors():
    line = run_smoke(0)
    assert_metrics(line, SPEC["end_to_end"])
    for workload in WORKLOADS:
        assert line["metrics"][f"{workload}.toc_cents"]["value"] > 0


def test_traced_run_reports_every_layer_and_spans_each_one():
    line = run_smoke(1)
    assert_metrics(line, SPEC["per_layer"])
    recorded = set()
    for workload in WORKLOADS:
        with open(HERE / "out" / f"{workload}.spans.jsonl", encoding="utf-8") as spans:
            recorded.update(json.loads(span)["name"] for span in spans)
    assert {name for _, _, name in layers.SPANNED} <= recorded
