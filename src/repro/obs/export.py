"""Trace exporters: JSONL (lossless) and Chrome ``trace_event`` JSON.

JSONL is the native on-disk form — one JSON object per line (a ``meta``
header, then ``span`` and ``metric`` records) — and round-trips back to
:class:`~repro.obs.recorder.SpanRecord`/:class:`~repro.obs.recorder.MetricEntry`
via :func:`read_jsonl`.  :func:`to_chrome` converts spans to the Chrome
``trace_event`` format (``"X"`` complete events with microsecond
``ts``/``dur``, plus ``"M"`` thread-name metadata) loadable in Perfetto
or ``chrome://tracing``; span/parent ids ride along in ``args``, so
the tree survives the conversion.  Metrics are JSONL-only —
the Chrome format has no aggregate-series notion worth abusing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.config import trace_selection
from repro.errors import ConfigError
from repro.obs.recorder import MetricEntry, SpanRecord, current

__all__ = [
    "FORMAT_VERSION",
    "write_jsonl",
    "read_jsonl",
    "to_chrome",
    "write_chrome",
    "maybe_export",
]

#: Version stamp written into the JSONL ``meta`` line.
FORMAT_VERSION = 1

#: The single ``pid`` all events carry (this is a one-process library).
_PID = 1


def write_jsonl(
    path: str | os.PathLike,
    spans: tuple[SpanRecord, ...] | list[SpanRecord],
    metrics: tuple[MetricEntry, ...] | list[MetricEntry] = (),
) -> Path:
    """Write spans + metrics to ``path`` as JSONL; returns the path.

    The parent directory is created if missing; an existing file is
    overwritten (exports are whole-recorder snapshots, so the last
    write is always the most complete one).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({"type": "meta", "version": FORMAT_VERSION, "spans": len(spans)})]
    for s in spans:
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "name": s.name,
                    "cat": s.category,
                    "thread": s.thread,
                    "start": s.start,
                    "end": s.end,
                    "attrs": s.attrs,
                }
            )
        )
    for m in metrics:
        lines.append(
            json.dumps(
                {
                    "type": "metric",
                    "kind": m.kind,
                    "name": m.name,
                    "tags": m.tag_dict(),
                    "events": m.events,
                    "total": m.total,
                    "last": m.last,
                    "low": m.low,
                    "high": m.high,
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def read_jsonl(
    path: str | os.PathLike,
) -> tuple[tuple[SpanRecord, ...], tuple[MetricEntry, ...]]:
    """Parse a JSONL trace file back into ``(spans, metrics)``.

    Raises:
        ConfigError: If the file does not exist or a line is not one of
            the known record types.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"trace file not found: {path}")
    spans: list[SpanRecord] = []
    metrics: list[MetricEntry] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as error:
            raise ConfigError(f"{path}:{lineno}: not valid JSON: {error}") from error
        kind = obj.get("type")
        if kind == "meta":
            continue
        if kind == "span":
            spans.append(
                SpanRecord(
                    span_id=int(obj["id"]),
                    parent_id=None if obj["parent"] is None else int(obj["parent"]),
                    name=obj["name"],
                    category=obj.get("cat", ""),
                    thread=obj.get("thread", "MainThread"),
                    start=float(obj["start"]),
                    end=float(obj["end"]),
                    attrs=dict(obj.get("attrs", {})),
                )
            )
        elif kind == "metric":
            metrics.append(
                MetricEntry(
                    kind=obj["kind"],
                    name=obj["name"],
                    tags=tuple(sorted(obj.get("tags", {}).items())),
                    events=int(obj["events"]),
                    total=float(obj["total"]),
                    last=float(obj["last"]),
                    low=float(obj["low"]),
                    high=float(obj["high"]),
                )
            )
        else:
            raise ConfigError(f"{path}:{lineno}: unknown record type {kind!r}")
    return tuple(spans), tuple(metrics)


def to_chrome(spans: tuple[SpanRecord, ...] | list[SpanRecord]) -> dict:
    """Convert spans to a Chrome ``trace_event`` payload (a JSON dict).

    Each span becomes an ``"X"`` (complete) event with microsecond
    ``ts``/``dur``; threads map to stable integer ``tid``\\ s named via
    ``"M"`` metadata events, so Perfetto renders one track per recording
    thread with correct nesting.
    """
    events = []
    tids: dict[str, int] = {}
    for s in spans:
        tid = tids.setdefault(s.thread, len(tids) + 1)
        events.append(
            {
                "name": s.name,
                "cat": s.category or "repro",
                "ph": "X",
                "pid": _PID,
                "tid": tid,
                "ts": s.start * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": {**s.attrs, "span_id": s.span_id, "parent_id": s.parent_id},
            }
        )
    for thread, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": thread},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(
    path: str | os.PathLike, spans: tuple[SpanRecord, ...] | list[SpanRecord]
) -> Path:
    """Write spans to ``path`` in Chrome ``trace_event`` format."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome(spans), indent=2) + "\n")
    return path


def maybe_export() -> Path | None:
    """Export the current recorder to the ``REPRO_TRACE`` path, if any.

    A no-op (returning ``None``) unless ``REPRO_TRACE`` names a file
    path *and* the current recorder actually recorded something (i.e. it
    is not the null recorder).  Traced entry points (``run_scenario``,
    ``NCLMethod.run``) call this on completion; each call snapshots the
    whole recorder, so the last export of a process is the complete one.
    """
    on, path = trace_selection()
    if not on or path is None:
        return None
    recorder = current()
    if not recorder.enabled:
        return None
    return write_jsonl(path, recorder.spans(), recorder.metrics())
