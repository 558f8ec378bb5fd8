"""Span + metric recording with a process-wide, env-selected recorder.

The heart of :mod:`repro.obs`.  A :class:`Recorder` collects
hierarchical :class:`SpanRecord` timings (context-manager spans, nested
per *thread* so a worker thread's spans form their own tree root) and
counter metrics, all under one lock so several threads can record
concurrently.

Selection mirrors the kernel-backend selection
(:mod:`repro.snn.backends`): the process-wide recorder is memoized on
the raw ``REPRO_TRACE`` environment string, so flipping the variable
mid-process swaps recorders immediately, and the disabled path is a
shared :class:`NullRecorder` whose span/metric calls are no-ops cheap
enough to leave permanently compiled into the hot kernels (gated below
2% of the fused-kernel micro-bench by ``benchmarks/check_regression.py``).

Instrumentation never touches the numeric path or RNG: recording reads
the clock and appends to recorder state, nothing else — traced and
untraced runs are bitwise-identical by construction (asserted in
``tests/obs/test_integration.py``).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.config import env_value, trace_selection
from repro.obs.clock import Clock, MonotonicClock

__all__ = [
    "SpanRecord",
    "MetricEntry",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Recorder",
    "NullRecorder",
    "current",
    "use_recorder",
    "span",
    "count",
    "now",
    "enabled",
]


@dataclass(frozen=True, eq=True)
class SpanRecord:
    """One finished span: a named, timed, attributed tree node.

    Attributes:
        span_id: Unique id within the recorder (assigned at entry).
        parent_id: ``span_id`` of the innermost enclosing span *on the
            same thread*, or ``None`` for a thread's root spans.
        name: Hierarchical span name, e.g. ``"kernel.lif_forward"``.
        category: Coarse grouping (``"kernel"``, ``"store"``, ...) used
            as the Chrome trace-event category.
        thread: Name of the recording thread.
        start: Clock reading at entry, seconds.
        end: Clock reading at exit, seconds.
        attrs: JSON-serializable key/value annotations.
    """

    span_id: int
    parent_id: int | None
    name: str
    category: str
    thread: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class MetricEntry:
    """Aggregated state of one metric series (a name + tag set).

    Counters are the one instrument kind: a series reads
    ``total``/``events``, with the ``last``/``low``/``high`` increments
    kept alongside.

    Attributes:
        kind: Always ``"counter"`` (kept in exports for readers).
        name: Metric name, e.g. ``"store.bytes_decoded"``.
        tags: Sorted ``(key, value)`` pairs identifying the series.
        events: Number of recorded updates.
        total: Sum of recorded values.
        last: Most recently recorded value.
        low: Smallest recorded value.
        high: Largest recorded value.
    """

    kind: str
    name: str
    tags: tuple[tuple[str, str], ...]
    events: int
    total: float
    last: float
    low: float
    high: float

    @property
    def mean(self) -> float:
        """Average recorded value (``total / events``)."""
        return self.total / self.events if self.events else 0.0

    def tag_dict(self) -> dict[str, str]:
        """The tag pairs as a plain dict (for export)."""
        return dict(self.tags)


class Span:
    """A live span handle; use as a context manager.

    Entry assigns the span id, captures the parent from the calling
    thread's span stack and reads the clock; exit reads the clock again
    and hands the finished :class:`SpanRecord` to the recorder.  Extra
    attributes can be attached mid-flight via :meth:`set`.
    """

    __slots__ = ("_recorder", "name", "category", "attrs", "span_id", "parent_id", "_start")

    def __init__(self, recorder: "Recorder", name: str, category: str, attrs: dict):
        self._recorder = recorder
        self.name = name
        self.category = category
        self.attrs = attrs
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self._start = 0.0

    def set(self, **attrs) -> "Span":
        """Attach extra attributes to the span; returns ``self``."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        """Open the span: assign ids, record the start time, push."""
        rec = self._recorder
        stack = rec._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = next(rec._ids)
        stack.append(self)
        self._start = rec.clock.now()
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the span: pop, record the end time, store the record."""
        rec = self._recorder
        end = rec.clock.now()
        stack = rec._stack()
        if stack and stack[-1] is self:
            stack.pop()
        rec._finish(
            SpanRecord(
                span_id=self.span_id if self.span_id is not None else 0,
                parent_id=self.parent_id,
                name=self.name,
                category=self.category,
                thread=threading.current_thread().name,
                start=self._start,
                end=end,
                attrs=self.attrs,
            )
        )


class NullSpan:
    """The no-op span the disabled path hands out (one shared instance)."""

    __slots__ = ()

    def set(self, **attrs) -> "NullSpan":
        """Discard attributes; returns ``self``."""
        return self

    def __enter__(self) -> "NullSpan":
        """No-op entry."""
        return self

    def __exit__(self, *exc_info) -> None:
        """No-op exit."""


#: The shared no-op span instance.
NULL_SPAN = NullSpan()


class Recorder:
    """Collects spans and metrics from any thread of the process.

    Attributes:
        clock: The injected :class:`~repro.obs.clock.Clock`; defaults to
            :class:`~repro.obs.clock.MonotonicClock`.
        enabled: Always ``True`` (the disabled counterpart is
            :class:`NullRecorder`).
    """

    enabled = True

    def __init__(self, clock: Clock | None = None):
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._metrics: dict[tuple, list] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        """The calling thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish(self, record: SpanRecord) -> None:
        """Store a finished span (called from the span handle's exit)."""
        with self._lock:
            self._spans.append(record)

    def span(self, name: str, category: str = "", **attrs) -> Span:
        """Create a span handle; nothing is recorded until it is entered."""
        return Span(self, name, category, attrs)

    def mark(self) -> int:
        """Current finished-span count; pass to :meth:`spans` later."""
        with self._lock:
            return len(self._spans)

    def spans(self, start: int = 0) -> tuple[SpanRecord, ...]:
        """Finished spans in finish order, from index ``start`` on."""
        with self._lock:
            return tuple(self._spans[start:])

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0, **tags) -> None:
        """Increment the counter ``name`` (tagged) by ``value``."""
        key = ("counter", name, tuple(sorted((k, str(v)) for k, v in tags.items())))
        value = float(value)
        with self._lock:
            slot = self._metrics.get(key)
            if slot is None:
                self._metrics[key] = [1, value, value, value, value]
            else:
                slot[0] += 1
                slot[1] += value
                slot[2] = value
                if value < slot[3]:
                    slot[3] = value
                if value > slot[4]:
                    slot[4] = value

    def metrics(self) -> tuple[MetricEntry, ...]:
        """Snapshot of every metric series, sorted by (kind, name, tags)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return tuple(
            MetricEntry(
                kind=kind,
                name=name,
                tags=tags,
                events=slot[0],
                total=slot[1],
                last=slot[2],
                low=slot[3],
                high=slot[4],
            )
            for (kind, name, tags), slot in items
        )

    def clear(self) -> None:
        """Drop all finished spans and metric series (tests/benches)."""
        with self._lock:
            self._spans.clear()
            self._metrics.clear()


class NullRecorder:
    """The disabled-path recorder: every call is a near-free no-op.

    Shares the full :class:`Recorder` surface so instrumentation sites
    never branch on enablement themselves.

    Attributes:
        clock: A :class:`~repro.obs.clock.MonotonicClock` (so
            ``obs.now()`` works regardless of enablement).
        enabled: Always ``False``.
    """

    enabled = False

    def __init__(self):
        self.clock: Clock = MonotonicClock()

    def span(self, name: str, category: str = "", **attrs) -> NullSpan:
        """Return the shared no-op span."""
        return NULL_SPAN

    def count(self, name: str, value: float = 1.0, **tags) -> None:
        """Discard the counter update."""

    def mark(self) -> int:
        """Always ``0`` (nothing is ever recorded)."""
        return 0

    def spans(self, start: int = 0) -> tuple[SpanRecord, ...]:
        """Always empty."""
        return ()

    def metrics(self) -> tuple[MetricEntry, ...]:
        """Always empty."""
        return ()

    def clear(self) -> None:
        """No-op (nothing to drop)."""


#: The shared disabled-path recorder.
_NULL_RECORDER = NullRecorder()

#: Explicitly-installed recorders (tests/benches) — innermost wins.
_OVERRIDES: list = []

#: Memoization of the env-selected recorder on the raw env string, so a
#: mid-process flip of ``REPRO_TRACE`` swaps recorders immediately while
#: the steady-state cost stays one environment read + string compare.
_ENV_MEMO: dict = {"raw": None, "recorder": _NULL_RECORDER}


def current() -> Recorder | NullRecorder:
    """The active recorder: innermost override, else the env-selected one."""
    if _OVERRIDES:
        return _OVERRIDES[-1]
    raw = env_value("REPRO_TRACE")
    if raw != _ENV_MEMO["raw"]:
        on, _ = trace_selection()
        _ENV_MEMO["recorder"] = Recorder() if on else _NULL_RECORDER
        _ENV_MEMO["raw"] = raw
    return _ENV_MEMO["recorder"]


@contextmanager
def use_recorder(recorder: Recorder | NullRecorder):
    """Install ``recorder`` as the process-wide recorder for the block.

    Overrides take precedence over ``REPRO_TRACE`` selection and nest
    (innermost wins); tests and benches use this to capture traces
    without touching the environment.  Yields the recorder.
    """
    _OVERRIDES.append(recorder)
    try:
        yield recorder
    finally:
        _OVERRIDES.pop()


def span(name: str, category: str = "", **attrs) -> Span | NullSpan:
    """A span on the current recorder (no-op when tracing is disabled)."""
    recorder = current()
    if not recorder.enabled:
        return NULL_SPAN  # before re-packing ``attrs`` for the callee
    return recorder.span(name, category, **attrs)


def count(name: str, value: float = 1.0, **tags) -> None:
    """Increment a counter on the current recorder."""
    recorder = current()
    if recorder.enabled:
        recorder.count(name, value, **tags)


def now() -> float:
    """The current recorder's clock reading in seconds."""
    return current().clock.now()


def enabled() -> bool:
    """Whether the current recorder actually records anything."""
    return current().enabled
