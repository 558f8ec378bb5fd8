"""Structured observability: tracing spans + runtime metrics.

``repro.obs`` gives every layer of the library one cheap, always-safe
way to account for where time and bytes go:

- **Spans** — hierarchical context-manager timings with attributes,
  nested per thread (a worker thread's spans root their own tree),
  driven by an injectable monotonic :class:`~repro.obs.clock.Clock`.
- **Metrics** — counters (bytes encoded/decoded, kernel calls per
  backend) on the same recorder.
- **Recorder selection** — ``REPRO_TRACE=0|1|<path>`` via
  :func:`repro.config.trace_selection`, memoized like the kernel
  backend selection; the disabled path is a shared no-op recorder whose
  overhead is perf-gated below 2% of the fused-kernel micro-bench.
- **Exporters** — lossless JSONL and Chrome ``trace_event`` JSON
  (Perfetto-loadable), plus a :class:`~repro.obs.report.TraceReport`
  attached to traced ``run_scenario``/``NCLMethod.run`` results.

Tracing never touches the numeric path or the RNG: traced and untraced
runs are bitwise-identical (asserted at ci scale in the test suite).
"""

from repro.obs.clock import Clock, ManualClock, MonotonicClock
from repro.obs.export import (
    maybe_export,
    read_jsonl,
    to_chrome,
    write_chrome,
    write_jsonl,
)
from repro.obs.recorder import (
    NULL_SPAN,
    MetricEntry,
    NullRecorder,
    NullSpan,
    Recorder,
    Span,
    SpanRecord,
    count,
    current,
    enabled,
    now,
    span,
    use_recorder,
)
from repro.obs.report import SpanAggregate, TraceReport

__all__ = [
    "Clock",
    "MonotonicClock",
    "ManualClock",
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
    "write_jsonl",
    "read_jsonl",
    "to_chrome",
    "write_chrome",
    "maybe_export",
    "SpanAggregate",
    "TraceReport",
]
