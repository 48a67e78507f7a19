"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at (or near)
paper scale, asserts the qualitative shape of the result, and attaches the
rendered text table to the benchmark's ``extra_info`` so the numbers can be
compared against the paper after a run (see EXPERIMENTS.md).

Besides the human-readable tables, each benchmark emits a machine-readable
``BENCH_<name>.json`` into ``benchmarks/out/`` (or ``$BENCH_JSON_DIR``) via
:func:`write_bench_json`, so successive runs accumulate a perf trajectory
(elapsed seconds, evaluated layouts, speedups, TOCs) that scripts and CI
artifact consumers can diff without scraping stdout.  Fresh JSONs never land
in ``benchmarks/`` itself -- only the curated copies under
``benchmarks/baselines/`` are committed, and the perf gate
(``python -m repro.obs.report --check-regressions``) compares the two.

When ``REPRO_OBS_TRACE`` is on, every payload is also stamped with the
span trees the run produced, so one artifact carries both the headline
numbers and the breakdown that explains them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs import log as obs_log  # noqa: E402
from repro.obs import trace as obs_trace  # noqa: E402

obs_log.configure()

_STORE = None


def experiment_store():
    """The session-shared experiment results store (fresh per pytest run).

    Lives at ``benchmarks/out/experiments.sqlite`` (or ``$BENCH_STORE``); the
    first access of a session deletes any stale file so every benchmark run
    records numbers produced by the current code, while benchmarks within
    the session share runs -- Figure 4 assembles from the rows the Figure 3
    benchmark already recorded instead of re-running the solvers.
    """
    global _STORE
    if _STORE is None:
        from repro.experiments.store import ResultsStore

        path = Path(
            os.environ.get(
                "BENCH_STORE",
                Path(__file__).resolve().parent / "out" / "experiments.sqlite",
            )
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()
        _STORE = ResultsStore(path)
    return _STORE


def orchestrate(figure, scale="paper", workers=2):
    """Populate the store with one figure's missing specs and assemble it.

    This is the single path every figure benchmark goes through: declare the
    figure, let the orchestrator diff its spec matrix against the session
    store and execute only what is missing, then reassemble the figure from
    stored payloads -- so the numbers a benchmark asserts on are exactly the
    numbers the store (and the CI artifact built from it) carries.
    """
    from repro.experiments import orchestrator, specs

    store = experiment_store()
    report = orchestrator.run_figures([figure], store, scale=scale, workers=workers)
    assert report.complete, (
        f"orchestrated sweep for {figure} failed: {report.failed}"
    )
    return specs.assemble_figure(figure, orchestrator.store_lookup(store), scale)


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The wall time of the (single) run is recorded both on the benchmark's
    ``extra_info`` and as ``run_once.last_elapsed_s`` so benchmarks can put
    it into their ``BENCH_*.json`` payload without re-measuring.
    """

    def timed(*inner_args, **inner_kwargs):
        started = time.perf_counter()
        result = function(*inner_args, **inner_kwargs)
        run_once.last_elapsed_s = time.perf_counter() - started
        return result

    result = benchmark.pedantic(timed, args=args, kwargs=kwargs, rounds=1, iterations=1)
    benchmark.extra_info["elapsed_s"] = run_once.last_elapsed_s
    return result


run_once.last_elapsed_s = None


def _jsonable(value):
    """Best-effort coercion for numpy scalars, dataclasses and exotica."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    for caster in (float, str):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return repr(value)


def write_bench_json(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` with the benchmark's headline numbers.

    ``payload`` holds the benchmark-specific metrics (elapsed seconds,
    evaluated layouts, speedups, TOCs, ...); the helper adds the benchmark
    name, a timestamp and any span trees the tracer accumulated, and keeps
    the file deterministic-ish (sorted keys) so diffs between runs stay
    readable.  The target directory defaults to ``benchmarks/out/`` (never
    the committed benchmarks/ root) and can be redirected with
    ``$BENCH_JSON_DIR`` (created on demand), which is how CI collects the
    artifacts.
    """
    directory = Path(
        os.environ.get("BENCH_JSON_DIR", Path(__file__).resolve().parent / "out")
    )
    directory.mkdir(parents=True, exist_ok=True)
    record = {"bench": name, "generated_unix_s": time.time()}
    spans = obs_trace.get_tracer().drain_roots()
    if spans:
        record["spans"] = spans
    record.update(payload)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=_jsonable) + "\n")
    return path
