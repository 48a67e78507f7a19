"""Unified observability layer: tracing, run records, reporting.

``repro.obs`` is the measurement substrate every quantitative claim in the
reproduction rests on.  Three parts, one per module:

* :mod:`repro.obs.trace` -- nested :class:`~repro.obs.trace.Span` trees via
  a process-wide :class:`~repro.obs.trace.Tracer` (near-zero cost when
  disabled, one span stack per thread, per-worker buffers merged by the
  parallel-search coordinator);
* :mod:`repro.obs.recorder` -- builds the
  :class:`~repro.obs.recorder.RunRecord` (scenario, solver, git rev, seed,
  the run's own stats, span tree) of every observed solve, online run and
  service session and writes it as one row of the SQLite
  :class:`~repro.experiments.store.ResultsStore`, beside the experiment
  rows.  The scenario and seed come from the declaring thread's
  :func:`~repro.obs.recorder.run_context`;
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

from repro.obs import instrument, log, recorder, trace
from repro.obs.recorder import RunRecord, recording, run_context
from repro.obs.trace import Span, Tracer, current_span, get_tracer, span, tracing

__all__ = [
    "RunRecord",
    "Span",
    "Tracer",
    "current_span",
    "get_tracer",
    "instrument",
    "log",
    "recorder",
    "recording",
    "run_context",
    "span",
    "trace",
    "tracing",
]
