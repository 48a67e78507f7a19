"""Nested tracing spans with a near-zero-cost disabled path.

A :class:`Span` is one timed region of a solve or an online epoch: a name,
free-form attributes, a ``time.perf_counter`` duration, point-in-time events
(shard retries, resilience incidents) and child spans.  A :class:`Tracer`
maintains the active span stack and collects finished root spans, so one
solver run yields one tree (``solve:es`` -> ``build`` -> ``enumerate`` ->
``shard[k]``).

Two usage styles cover every call site in the tree:

* context manager -- ``with tracer.span("build", workers=4) as sp: ...`` --
  for regions that are already a lexical block;
* explicit -- ``sp = tracer.start_span("epoch"); ...; tracer.end_span(sp)``
  -- for long loop bodies (the online epoch loop, shard processing) where
  reindenting a hundred lines under a ``with`` would obscure the diff.

Tracing is **off by default** and the disabled path is a handful of
attribute loads returning the shared :data:`NULL_SPAN` singleton, whose
methods are all no-ops -- cheap enough to leave the instrumentation inline
on hot paths (enforced by ``tests/test_obs.py``: <2% of a sanity ES solve).
Enable per process via :func:`tracing` / ``Tracer(enabled=True)`` or the
``REPRO_OBS_TRACE=1`` environment variable.

Worker processes cannot share the coordinator's tracer; they build their own
(:func:`Tracer`), serialize finished spans with :meth:`Span.to_dict`
(durations and event offsets only -- ``perf_counter`` origins are not
comparable across processes) and the coordinator grafts them into its live
tree with :meth:`Tracer.adopt`.

The enabled flag is process-wide; the open-span stack and the finished
roots are per thread, so specs running on the orchestrator's thread pool
each build and drain their own trees.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple


class _NullSpan:
    """Shared do-nothing span returned by every disabled-tracer call."""

    __slots__ = ()

    name = ""
    attrs: Dict[str, object] = {}
    duration_s = 0.0
    events: Tuple = ()
    children: Tuple = ()
    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        """Ignore attribute updates."""
        return self

    def event(self, name: str, **attrs) -> "_NullSpan":
        """Ignore events."""
        return self

    def to_dict(self) -> None:
        """A null span serializes to nothing."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NULL_SPAN>"


#: The singleton no-op span; identity-comparable (``span is NULL_SPAN``).
NULL_SPAN = _NullSpan()


class Span:
    """One timed, attributed, nested region of work."""

    __slots__ = ("name", "attrs", "started_s", "duration_s", "events",
                 "children", "status", "_tracer")

    enabled = True

    def __init__(self, name: str, attrs: Optional[Dict[str, object]] = None,
                 tracer: Optional["Tracer"] = None):
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.started_s = time.perf_counter()
        self.duration_s = 0.0
        #: ``(offset_s, name, attrs)`` triples relative to the span start.
        self.events: List[Tuple[float, str, Dict[str, object]]] = []
        self.children: List["Span"] = []
        self.status = "ok"
        self._tracer = tracer

    # -- recording ------------------------------------------------------
    def set(self, **attrs) -> "Span":
        """Merge ``attrs`` into the span's attributes."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> "Span":
        """Record a point-in-time event at the current offset into the span."""
        self.events.append((time.perf_counter() - self.started_s, name, attrs))
        return self

    # -- context manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.status = "error"
            self.event("exception", type=type(exc).__name__, message=str(exc))
        if self._tracer is not None:
            self._tracer.end_span(self)
        return False

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (relative times only; safe across processes)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "duration_s": self.duration_s,
            "status": self.status,
            "events": [
                {"offset_s": offset, "name": name, "attrs": dict(attrs)}
                for offset, name, attrs in self.events
            ],
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        """Rebuild a finished span (e.g. one shipped back from a worker)."""
        span = cls(str(data.get("name", "")), dict(data.get("attrs", {})))
        span.duration_s = float(data.get("duration_s", 0.0))
        span.status = str(data.get("status", "ok"))
        span.events = [
            (float(event["offset_s"]), str(event["name"]), dict(event.get("attrs", {})))
            for event in data.get("events", ())
        ]
        span.children = [cls.from_dict(child) for child in data.get("children", ())]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration_s:.6f}s, "
                f"{len(self.children)} children)")


class _ThreadSpans(threading.local):
    """One thread's open-span stack and finished top-level spans."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.roots: List[Span] = []


class Tracer:
    """Builds span trees; all methods are no-ops while ``enabled`` is False."""

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._spans = _ThreadSpans()

    @property
    def roots(self) -> List[Span]:
        """This thread's finished top-level spans, oldest first."""
        return self._spans.roots

    # -- span lifecycle -------------------------------------------------
    def span(self, name: str, **attrs):
        """Start a span for use as a context manager (``with tracer.span(...)``)."""
        if not self.enabled:
            return NULL_SPAN
        return self.start_span(name, **attrs)

    def start_span(self, name: str, **attrs):
        """Start a span explicitly; pair with :meth:`end_span`."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(name, attrs, tracer=self)
        self._spans.stack.append(span)
        return span

    def end_span(self, span, **attrs) -> None:
        """Finish ``span``: stamp its duration and attach it to its parent.

        Unwinds any deeper spans left open by an exceptional exit (they are
        closed with the same end time, preserving tree shape).
        """
        if span is NULL_SPAN or not isinstance(span, Span):
            return
        spans = self._spans
        stack = spans.stack
        if span not in stack:
            return  # already ended (double end_span is harmless)
        ended = time.perf_counter()
        while stack:
            top = stack.pop()
            top.duration_s = ended - top.started_s
            if top is span and attrs:
                top.attrs.update(attrs)
            if stack:
                stack[-1].children.append(top)
            else:
                spans.roots.append(top)
            if top is span:
                break

    # -- introspection --------------------------------------------------
    def current(self):
        """The innermost open span of this thread, or :data:`NULL_SPAN`."""
        if not self.enabled or not self._spans.stack:
            return NULL_SPAN
        return self._spans.stack[-1]

    def adopt(self, span_dict: Optional[Dict[str, object]]) -> None:
        """Graft a worker's serialized span under the current span (or roots)."""
        if not self.enabled or not span_dict:
            return
        span = Span.from_dict(span_dict)
        spans = self._spans
        if spans.stack:
            spans.stack[-1].children.append(span)
        else:
            spans.roots.append(span)

    def drain_roots(self) -> List[Dict[str, object]]:
        """Serialize and clear this thread's finished root spans."""
        spans = self._spans
        roots, spans.roots = spans.roots, []
        return [root.to_dict() for root in roots]


def _enabled_from_env() -> bool:
    return os.environ.get("REPRO_OBS_TRACE", "") not in ("", "0", "false", "off")


_TRACER = Tracer(enabled=_enabled_from_env())


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide tracer; returns the previous one."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous


def span(name: str, **attrs):
    """Start a span on the process-wide tracer (context-manager style)."""
    return _TRACER.span(name, **attrs)


def current_span():
    """The innermost open span of the process-wide tracer."""
    return _TRACER.current()


@contextmanager
def tracing(enabled: bool = True):
    """Swap in a fresh tracer for a block; restores the previous on exit.

    >>> from repro.obs import trace
    >>> with trace.tracing() as tracer:
    ...     with trace.span("work"):
    ...         pass
    >>> len(tracer.roots)
    1
    """
    tracer = Tracer(enabled=enabled)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "current_span",
    "get_tracer",
    "set_tracer",
    "span",
    "tracing",
]
