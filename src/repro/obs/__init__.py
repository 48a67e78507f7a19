"""Unified observability layer: tracing, metrics, run records, reporting.

``repro.obs`` is the measurement substrate every quantitative claim in the
reproduction rests on.  Four parts, one per module:

* :mod:`repro.obs.trace` -- nested :class:`~repro.obs.trace.Span` trees via
  a process-wide :class:`~repro.obs.trace.Tracer` (near-zero cost when
  disabled, one span stack per thread, per-worker buffers merged by the
  parallel-search coordinator);
* :mod:`repro.obs.metrics` -- the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` of counters/gauges/histograms
  fed by the solver, batch-evaluation and online layers at run boundaries;
* :mod:`repro.obs.recorder` -- builds the
  :class:`~repro.obs.recorder.RunRecord` (scenario, solver, git rev, seed,
  stats, metrics snapshot, span tree) of every observed solve, online run
  and service session and writes it as one row of the SQLite
  :class:`~repro.experiments.store.ResultsStore`, beside the experiment
  rows;
* :mod:`repro.obs.report` -- ``python -m repro.obs.report``: store summary,
  span flame view, and the ``--check-regressions`` CI perf gate comparing
  ``BENCH_*.json`` output against ``benchmarks/baselines/``.  It is not
  imported with the package (``from repro.obs import report`` loads it), so
  ``-m`` runs it exactly once.

:mod:`repro.obs.log` adds structured stdlib logging with run-id/span-id
context injection for the driver scripts; :mod:`repro.obs.instrument`
carries the run-facing glue (the observed-run ``Scope``, the
``instrument_solver`` decorator).  Everything is off by default and opt-in
per process (``REPRO_OBS_TRACE``, ``REPRO_OBS_RECORD``) or per block
(:func:`~repro.obs.trace.tracing`, :func:`~repro.obs.recorder.recording`).
"""

from repro.obs import instrument, log, metrics, recorder, trace
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.recorder import RunRecord, recording, run_context
from repro.obs.trace import Span, Tracer, current_span, get_tracer, span, tracing

__all__ = [
    "MetricsRegistry",
    "RunRecord",
    "Span",
    "Tracer",
    "current_span",
    "get_metrics",
    "get_tracer",
    "instrument",
    "log",
    "metrics",
    "recorder",
    "recording",
    "run_context",
    "span",
    "trace",
    "tracing",
]
