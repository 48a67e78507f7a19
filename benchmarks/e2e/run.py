"""End-to-end benchmark of the storage advisor: four workloads, cold processes.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload advise --seed 1 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload es_large --trace      # per-layer ledger
    python3 benchmarks/e2e/run.py --runs 10                         # spread per metric
    python3 benchmarks/e2e/run.py --write-expected                  # regenerate oracle

Every run measures ``setup_s`` as the median time from interpreter start to
"ready for the first request" over several cold processes, then runs the
workload in one more fresh process for ``--seconds`` and checks every output
against ``expected.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics untraced and the per-layer metrics with ``--trace``.
The exit code is non-zero when an output is wrong or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKER = HERE / "workloads.py"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("advise", "es_large", "fig9_arms", "service_fleet")
#: Cold set-up processes per run (their median is ``setup_s``).
SETUP_RUNS = {"full": 5, "smoke": 1}
#: Wall-clock limits per child process, inside the 180 s a run may take.
SETUP_TIMEOUT_S = 30.0
MEASURE_TIMEOUT_S = 140.0

END_TO_END = (("setup_s", "s"), ("throughput_ops_s", "ops/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("toc_cents", "cents"), ("peak_rss_mb", "MB"))


class BenchmarkError(RuntimeError):
    """A child process failed or printed no result."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # String hashing is randomised per process by default; on advise that
    # alone moved throughput by up to 6% between otherwise identical runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(mode: str, workload: str, scale: str, *extra: str) -> List[str]:
    return [sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
            "--scale", scale, *extra]


def time_setup(workload: str, scale: str, seed: int) -> float:
    """Seconds from spawning a cold process until it is ready to serve."""
    started = perf_counter()
    proc = subprocess.Popen(_child("setup", workload, scale, "--seed", str(seed)),
                            stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - started
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"{workload}: setup process exited {proc.returncode}")
    return elapsed


def run_child(args: List[str], timeout: float) -> Dict[str, object]:
    """Run one child process and parse the JSON on its last output line."""
    label = f"{args[5]}: {args[3]} process"
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{label} timed out after {timeout:g}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{label} exited {done.returncode}")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             scale: str) -> Dict[str, object]:
    """One benchmark run of one workload: cold set-ups, then the timed window."""
    setups = [] if trace else [time_setup(workload, scale, seed)
                               for _ in range(SETUP_RUNS[scale])]
    result = run_child(_child("measure", workload, scale, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(int(trace))),
                       MEASURE_TIMEOUT_S)
    if setups:
        result["setup_s"] = statistics.median(setups)
        result["setup_runs"] = setups
    return result


def end_to_end(result: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}


def report(result: Dict[str, object], trace: bool) -> None:
    """Print one run in human-readable form."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {result['workload']}: {result['cycles']} cycles, {attempted} ops in "
          f"{result['window_s']:.2f} s (teardown {result['teardown_s']:.2f} s), "
          f"error_rate {failed / attempted:g} ({failed}/{attempted})")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    if not trace:
        notes = {
            "setup_s": f"median of {len(result['setup_runs'])} cold processes",
            "latency_tail_ms": f"p{result['tail_pct']} of {attempted} ops, "
                               f"{result['tail_beyond']} beyond",
        }
        for name, metric in end_to_end(result).items():
            value = metric["value"]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"   {name:<18} {shown:>12} {metric['unit']:<6} {notes.get(name, '')}")
        return
    print(f"   ledger over {result['traced_ops']} traced ops, "
          f"{result['traced_wall_s']:.2f} s traced wall time")
    print(f"   {'layer':<20} {'calls/op':>10} {'self ms/op':>11} {'share':>7}")
    for name, row in result["ledger"].items():
        print(f"   {name:<20} {row['calls_per_op']:>10.3g} {row['self_s_per_op'] * 1e3:>11.4g} "
              f"{row['share']:>7.1%}")
    for name, metric in result["layers"].items():
        print(f"   {name:<26} {metric['value']:>12.6g} {metric['unit']}")


def summary_line(results: List[Dict[str, object]], trace: bool) -> Dict[str, object]:
    """The final JSON object; metric names carry the workload when there are several."""
    metrics: Dict[str, object] = {}
    for result in results:
        chosen = result["layers"] if trace else end_to_end(result)
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + name: metric for name, metric in chosen.items()})
    failed = sum(result["failed"] for result in results)
    return {"correct": failed == 0 and all(result["toc_cents"] is not None for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": failed,
            "metrics": metrics}


def calibrate(workloads: List[str], runs: int, seed: int, seconds: float, scale: str) -> int:
    """Run every workload ``runs`` times in fresh processes and print spreads."""
    raw = []
    for index in range(runs):
        order = workloads if index % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(workload, seed + index, seconds, False, scale)
            report(result, False)
            raw.append(result)
    print(f"== spread over {runs} runs (seeds {seed}..{seed + runs - 1})")
    print(f"   {'workload':<14} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    medians = {}
    for workload in workloads:
        for name, unit in END_TO_END:
            series = [result[name] for result in raw if result["workload"] == workload]
            if len(series) < 2 or None in series:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            medians[f"{workload}.{name}"] = {"value": median, "unit": unit}
            print(f"   {workload:<14} {name:<18} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "calibration.json").write_text(json.dumps(raw, indent=1) + "\n")
    failed = sum(result["failed"] for result in raw)
    print(json.dumps({"correct": failed == 0, "failed": failed, "metrics": medians,
                      "attempted": sum(result["attempted"] for result in raw)}))
    return 0 if failed == 0 else 1


def write_expected(workloads: List[str]) -> int:
    """Regenerate ``expected.json`` through the reference paths."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for workload in workloads:
        outputs: Dict[str, object] = {}
        for scale in SETUP_RUNS:
            outputs.update(run_child(_child("expected", workload, scale), 600.0))
        expected[workload] = outputs
        print(f"{workload}: {len(outputs)} expected outputs")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure at least this long, then finish the cycle in progress")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="trace layers and report per-layer metrics instead")
    parser.add_argument("--runs", type=int, default=0,
                        help="run each workload this many times and print the spreads")
    parser.add_argument("--scale", choices=tuple(SETUP_RUNS), default="full")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        if args.write_expected:
            return write_expected(workloads)
        if args.runs:
            return calibrate(workloads, args.runs, args.seed, args.seconds, args.scale)
        results = []
        for workload in workloads:
            result = run_once(workload, args.seed, args.seconds, bool(args.trace), args.scale)
            report(result, bool(args.trace))
            results.append(result)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    line = summary_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
