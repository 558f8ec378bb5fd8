"""Trace summaries: aggregate spans by name and render human tables.

:class:`TraceReport` is the user-facing view of a recorded trace — it
rides along on :class:`~repro.core.strategies.NCLResult` /
``ScenarioResult`` after a traced run, and backs the
``repro trace summary`` CLI for traces read back from JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.recorder import MetricEntry, NullRecorder, Recorder, SpanRecord

__all__ = ["SpanAggregate", "TraceReport"]


@dataclass(frozen=True)
class SpanAggregate:
    """Per-span-name rollup across a trace.

    Attributes:
        name: The span name being aggregated.
        calls: Number of spans with that name.
        total_seconds: Summed duration.
        max_seconds: Longest single span.
    """

    name: str
    calls: int
    total_seconds: float
    max_seconds: float

    @property
    def mean_seconds(self) -> float:
        """Average span duration in seconds."""
        return self.total_seconds / self.calls if self.calls else 0.0


@dataclass(frozen=True)
class TraceReport:
    """An immutable snapshot of recorded spans + metrics.

    Attributes:
        spans: Finished spans in finish order.
        metrics: Metric-series snapshot (sorted).
    """

    spans: tuple[SpanRecord, ...]
    metrics: tuple[MetricEntry, ...]

    @classmethod
    def capture(
        cls, recorder: Recorder | NullRecorder, mark: int = 0
    ) -> "TraceReport | None":
        """Snapshot ``recorder`` from span index ``mark`` on.

        Returns ``None`` for a disabled recorder, so call sites can
        attach the result directly to an optional ``trace`` field.
        """
        if not recorder.enabled:
            return None
        return cls(spans=recorder.spans(mark), metrics=recorder.metrics())

    @property
    def num_spans(self) -> int:
        """Number of spans in the report."""
        return len(self.spans)

    def aggregate(self) -> tuple[SpanAggregate, ...]:
        """Per-name rollups, sorted by total duration (descending)."""
        rollup: dict[str, list] = {}
        for s in self.spans:
            slot = rollup.setdefault(s.name, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += s.duration
            if s.duration > slot[2]:
                slot[2] = s.duration
        aggregates = [
            SpanAggregate(name=name, calls=slot[0], total_seconds=slot[1], max_seconds=slot[2])
            for name, slot in rollup.items()
        ]
        aggregates.sort(key=lambda a: (-a.total_seconds, a.name))
        return tuple(aggregates)

    def top_spans(self, n: int = 10) -> tuple[SpanAggregate, ...]:
        """The ``n`` span names with the largest total duration."""
        return self.aggregate()[: max(0, n)]

    def describe(self, top: int = 10) -> str:
        """Render a plain-text summary: top spans, then metrics."""
        lines = [f"{self.num_spans} spans, {len(self.metrics)} metric series"]
        aggregates = self.top_spans(top)
        if aggregates:
            lines.append("")
            lines.append(
                f"{'span':<32} {'calls':>7} {'total_ms':>10} {'mean_ms':>10} {'max_ms':>10}"
            )
            for a in aggregates:
                lines.append(
                    f"{a.name:<32} {a.calls:>7} "
                    f"{a.total_seconds * 1e3:>10.3f} "
                    f"{a.mean_seconds * 1e3:>10.3f} "
                    f"{a.max_seconds * 1e3:>10.3f}"
                )
        if self.metrics:
            lines.append("")
            lines.append(f"{'metric':<44} {'kind':<10} {'events':>7} {'value':>14}")
            for m in self.metrics:
                tags = ",".join(f"{k}={v}" for k, v in m.tags)
                label = f"{m.name}{{{tags}}}" if tags else m.name
                lines.append(f"{label:<44} {m.kind:<10} {m.events:>7} {m.total:>14.6g}")
        return "\n".join(lines)

    def tree(self, max_depth: int = 6) -> str:
        """Render the span tree as indented text (depth-capped)."""
        by_parent: dict[int | None, list[SpanRecord]] = {}
        ids = {s.span_id for s in self.spans}
        for s in self.spans:
            parent = s.parent_id if s.parent_id in ids else None
            by_parent.setdefault(parent, []).append(s)
        for kids in by_parent.values():
            kids.sort(key=lambda s: s.start)
        lines: list[str] = []

        def walk(parent: int | None, depth: int) -> None:
            if depth >= max_depth:
                return
            for s in by_parent.get(parent, []):
                lines.append(
                    f"{'  ' * depth}{s.name} [{s.thread}] {s.duration * 1e3:.3f}ms"
                )
                walk(s.span_id, depth + 1)

        walk(None, 0)
        return "\n".join(lines)
