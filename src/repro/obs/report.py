"""Observability report CLI: store summary, span flame view, perf gate.

``python -m repro.obs.report`` has three modes:

* **summary** (default) -- tabulate the rows of the SQLite results store
  (``--store``, default ``benchmarks/out/experiments.sqlite``), experiment
  rows and recorded solves, online runs and service sessions alike: run
  id, kind, solver, scenario, elapsed time and span-tree coverage per row;
* **flame** (``--flame [RUN_ID]``) -- render the span tree of one row
  (default: the newest row that has spans) as an indented text flame view
  with per-span duration bars.  Both views only read: a store that does
  not exist is named, exits 1 and is not created;
* **gate** (``--check-regressions``) -- compare the current
  ``BENCH_*.json`` files (``--bench-dir``, default ``benchmarks/out``)
  against the committed baselines in ``--baselines`` (default
  ``benchmarks/baselines``) using the per-metric tolerance bands declared
  in :data:`GATE_CHECKS`, and exit non-zero on any regression.
  ``--write-baselines`` refreshes the committed baselines from the current
  bench output instead.

Tolerance kinds: ``equal`` (exact -- enumeration geometry, epoch counts),
``close`` (relative tolerance -- the deterministic seeded TOC/PSR numbers),
``floor`` (current >= baseline x factor -- machine-relative speedups) and
``timing`` (current <= baseline x timing factor -- wall times; factor from
``--timing-factor`` or ``$REPRO_OBS_GATE_TIMING_FACTOR``, default 3.0,
because CI runners are slower and noisier than the machines that commit
baselines).  A baseline file that does not exist is skipped with a warning;
a *current* file that does not exist fails only for benches named in
``--require`` (CI requires the smokes it just ran).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.store import ResultsStore
from repro.obs.recorder import DEFAULT_STORE

DEFAULT_BENCH_DIR = Path("benchmarks") / "out"
DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"
DEFAULT_TIMING_FACTOR = 3.0


# ---------------------------------------------------------------------------
# Gate declaration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One per-metric tolerance band of the regression gate."""

    #: Dotted path into the BENCH JSON (e.g. ``crossfade.summary.min_psr``).
    path: str
    #: ``equal`` | ``close`` | ``floor`` | ``timing``.
    kind: str
    #: Relative tolerance for ``close``.
    rel: float = 1e-6
    #: Multiplier for ``floor`` (current >= baseline*factor).
    factor: float = 0.5


#: The per-benchmark metric contracts the gate enforces.
GATE_CHECKS: Dict[str, Tuple[Check, ...]] = {
    "parallel_es": (
        Check("space", "equal"),
        Check("objects", "equal"),
        Check("classes", "equal"),
        Check("toc_cents", "close"),
        Check("elapsed_s", "timing"),
    ),
    "scaling_batch_eval": (
        Check("candidates_at_largest", "equal"),
        # Speedups are machine-relative; the bench itself asserts the >=5x
        # absolute bar, the gate only catches order-of-magnitude collapses.
        Check("es_speedup_at_largest", "floor", factor=0.1),
        Check("elapsed_s", "timing"),
    ),
    "online_drift": (
        Check("crossfade.summary.num_epochs", "equal"),
        Check("crossfade.summary.online_cumulative_cents", "close"),
        Check("crossfade.summary.frozen_cumulative_cents", "close"),
        Check("crossfade.summary.saving_fraction", "close"),
        Check("crossfade.summary.online_min_psr", "close"),
        Check("crossfade.retier_count", "equal"),
        Check("predictive_flash_crowd.summary.predictive_cumulative_cents", "close"),
        Check("predictive_flash_crowd.summary.predictive_saving_fraction", "close"),
        Check("crosskind.summary.online_cumulative_cents", "close"),
        Check("crosskind.summary.frozen_cumulative_cents", "close"),
        Check("crossfade.elapsed_s", "timing"),
        Check("predictive_flash_crowd.elapsed_s", "timing"),
        Check("crosskind.elapsed_s", "timing"),
    ),
    "service": (
        Check("fleet.tenants", "equal"),
        Check("fleet.completed_epochs", "equal"),
        Check("fleet.converged", "equal"),
        Check("recovery.converged", "equal"),
        Check("recovery.replayed_epochs", "equal"),
        Check("recovery.worker_kills", "equal"),
        Check("fleet.elapsed_s", "timing"),
        Check("recovery.recovery_s", "timing"),
    ),
    "resilience": (
        Check("degraded_solve.feasible", "equal"),
        Check("online_chaos.num_epochs", "equal"),
        Check("online_chaos.faulty_epochs", "equal"),
        Check("online_chaos.incidents", "equal"),
        Check("online_chaos.min_psr", "close"),
        Check("online_chaos.cumulative_cost_cents", "close"),
        Check("search_chaos.faults_injected", "equal"),
        Check("search_chaos.toc_cents", "close"),
    ),
}

_MISSING = object()


def _resolve(payload: dict, dotted: str):
    node = payload
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def _compare(check: Check, current, baseline, timing_factor: float) -> Tuple[bool, str]:
    """``(ok, explanation)`` for one metric."""
    if check.kind == "equal":
        return current == baseline, f"{current!r} == {baseline!r}"
    current = float(current)
    baseline = float(baseline)
    if check.kind == "close":
        tolerance = check.rel * max(abs(baseline), 1e-12)
        return (
            math.isclose(current, baseline, rel_tol=check.rel, abs_tol=1e-12),
            f"{current:.10g} ~= {baseline:.10g} (rel {check.rel:g}, tol {tolerance:.3g})",
        )
    if check.kind == "floor":
        bound = baseline * check.factor
        return current >= bound, f"{current:.6g} >= {bound:.6g} ({check.factor:g}x baseline)"
    if check.kind == "timing":
        bound = baseline * timing_factor
        return current <= bound, f"{current:.6g}s <= {bound:.6g}s ({timing_factor:g}x baseline)"
    raise ValueError(f"unknown check kind {check.kind!r}")


def check_regressions(bench_dir: Path, baseline_dir: Path, *,
                      timing_factor: float = DEFAULT_TIMING_FACTOR,
                      require: Sequence[str] = (), out=None) -> int:
    """Run the gate; returns the number of failed metrics/benches.

    Like every printer here, it writes to ``out`` or, by default, to
    ``sys.stdout`` as it is at the call (a later redirect is honoured).
    """
    failures = 0
    for bench, checks in GATE_CHECKS.items():
        baseline_path = baseline_dir / f"BENCH_{bench}.json"
        current_path = bench_dir / f"BENCH_{bench}.json"
        if not baseline_path.exists():
            print(f"[skip] {bench}: no committed baseline at {baseline_path}", file=out)
            continue
        if not current_path.exists():
            if bench in require:
                failures += 1
                print(f"[FAIL] {bench}: required bench output missing at "
                      f"{current_path}", file=out)
            else:
                print(f"[skip] {bench}: no current run at {current_path}", file=out)
            continue
        baseline = json.loads(baseline_path.read_text())
        current = json.loads(current_path.read_text())
        for check in checks:
            base_value = _resolve(baseline, check.path)
            cur_value = _resolve(current, check.path)
            label = f"{bench}.{check.path}"
            if base_value is _MISSING:
                print(f"[skip] {label}: not in baseline", file=out)
                continue
            if cur_value is _MISSING:
                failures += 1
                print(f"[FAIL] {label}: present in baseline, missing from "
                      f"current run", file=out)
                continue
            ok, explanation = _compare(check, cur_value, base_value, timing_factor)
            if ok:
                print(f"[ok]   {label}: {explanation}", file=out)
            else:
                failures += 1
                print(f"[FAIL] {label}: {explanation}", file=out)
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} regression(s))"
    print(f"regression gate: {verdict}", file=out)
    return failures


def write_baselines(bench_dir: Path, baseline_dir: Path, out=None) -> int:
    """Copy the current BENCH files of every gated bench into the baselines."""
    baseline_dir.mkdir(parents=True, exist_ok=True)
    copied = 0
    for bench in GATE_CHECKS:
        source = bench_dir / f"BENCH_{bench}.json"
        if not source.exists():
            print(f"[skip] {bench}: no current run at {source}", file=out)
            continue
        target = baseline_dir / source.name
        target.write_text(source.read_text())
        print(f"[ok]   {bench}: baseline refreshed from {source}", file=out)
        copied += 1
    return copied


# ---------------------------------------------------------------------------
# Span-tree analysis
# ---------------------------------------------------------------------------

def span_coverage(span: Optional[dict]) -> float:
    """Fraction of a span's duration accounted for by its children.

    A leaf span accounts for itself (coverage 1.0); an interior span is
    covered by the sum of its direct children's durations.  The acceptance
    bar for instrumented solves/online runs is >= 0.95: the tree explains
    where the time went.
    """
    if not span:
        return 0.0
    children = span.get("children") or ()
    duration = float(span.get("duration_s", 0.0))
    if not children:
        return 1.0
    if duration <= 0.0:
        return 1.0
    covered = sum(float(child.get("duration_s", 0.0)) for child in children)
    return min(1.0, covered / duration)


def render_flame(span: dict, width: int = 30, out=None) -> None:
    """Indented text flame view of one span tree."""
    total = max(float(span.get("duration_s", 0.0)), 1e-12)

    def emit(node: dict, depth: int) -> None:
        duration = float(node.get("duration_s", 0.0))
        share = duration / total
        bar = "#" * max(1, int(round(share * width))) if duration > 0 else ""
        indent = "  " * depth
        print(f"{indent}{node.get('name', '?'):<{max(4, 28 - 2 * depth)}} "
              f"{duration * 1000.0:10.2f} ms {share:6.1%}  {bar}", file=out)
        for offset, event in sorted(
            (float(e.get("offset_s", 0.0)), e) for e in node.get("events", ())
        ):
            print(f"{indent}  * {event.get('name', '?')} @ {offset * 1000.0:.2f} ms "
                  f"{event.get('attrs', {})}", file=out)
        for child in node.get("children", ()):
            emit(child, depth + 1)

    emit(span, 0)


# ---------------------------------------------------------------------------
# Store summary
# ---------------------------------------------------------------------------

def summarize_store(store: ResultsStore, last: int = 20, out=None) -> int:
    """Tabulate the newest ``last`` rows of a results store; returns its size."""
    rows = store.load_all()
    if not rows:
        print(f"results store {store.path}: empty", file=out)
        return 0
    print(f"results store {store.path}: {len(rows)} row(s)", file=out)
    header = (f"{'run_id':<34} {'kind':<10} {'solver':<16} {'scenario':<22} "
              f"{'elapsed_s':>10} {'coverage':>9}")
    print(header, file=out)
    print("-" * len(header), file=out)
    for row in rows[-last:]:
        record = row.record
        coverage_text = (f"{span_coverage(record.spans):9.1%}" if record.spans
                         else "        -")
        print(f"{record.run_id:<34} {row.experiment:<10} {record.solver:<16} "
              f"{(record.scenario or '-'):<22} {record.elapsed_s:>10.4f} "
              f"{coverage_text}", file=out)
    return len(rows)


def _find_record(store: ResultsStore, run_id: str):
    """The record named ``run_id`` (``"last"``: the newest with spans), or ``None``."""
    newest = None
    for row in store:
        if row.record.run_id == run_id:
            return row.record
        if run_id == "last" and row.record.spans:
            newest = row.record
    return newest


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The ``repro.obs.report`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize the results store, render span flame views, "
                    "and gate BENCH results against baselines.",
    )
    parser.add_argument("--store", type=Path, default=DEFAULT_STORE,
                        help=f"results store file (default: {DEFAULT_STORE})")
    parser.add_argument("--last", type=int, default=20,
                        help="how many rows the summary shows")
    parser.add_argument("--flame", nargs="?", const="last", default=None,
                        metavar="RUN_ID",
                        help="render the span tree of RUN_ID (default: newest "
                             "row with spans)")
    parser.add_argument("--check-regressions", action="store_true",
                        help="compare current BENCH JSONs against baselines; "
                             "exit non-zero on regression")
    parser.add_argument("--write-baselines", action="store_true",
                        help="refresh the committed baselines from the "
                             "current bench output")
    parser.add_argument("--bench-dir", type=Path, default=DEFAULT_BENCH_DIR,
                        help="directory of the current BENCH_*.json files "
                             "(default: benchmarks/out)")
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINE_DIR,
                        help="committed baseline directory "
                             "(default: benchmarks/baselines)")
    parser.add_argument("--timing-factor", type=float,
                        default=float(os.environ.get(
                            "REPRO_OBS_GATE_TIMING_FACTOR", DEFAULT_TIMING_FACTOR)),
                        help="allowed slowdown of timing metrics vs baseline")
    parser.add_argument("--require", default="",
                        help="comma-separated benches whose current BENCH "
                             "file must exist (gate mode)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.write_baselines:
        copied = write_baselines(args.bench_dir, args.baselines)
        return 0 if copied else 1
    if args.check_regressions:
        require = tuple(name for name in args.require.split(",") if name)
        failures = check_regressions(
            args.bench_dir, args.baselines,
            timing_factor=args.timing_factor, require=require,
        )
        return 1 if failures else 0
    if not args.store.exists():
        print(f"no results store at {args.store}", file=sys.stderr)
        return 1
    store = ResultsStore(args.store)
    if args.flame is not None:
        record = _find_record(store, args.flame)
        if record is None or not record.spans:
            print(f"no record with spans found for {args.flame!r} in {store.path}")
            return 1
        print(f"{record.run_id} ({record.kind}:{record.solver}, "
              f"scenario={record.scenario or '-'}, "
              f"coverage={span_coverage(record.spans):.1%})")
        render_flame(record.spans)
        return 0
    summarize_store(store, last=args.last)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
