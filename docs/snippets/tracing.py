"""Runnable docs example: record, summarize and export a trace."""

import numpy as np

from repro import obs
from repro.snn import LIFParameters, RecurrentLIFLayer

# Instrumentation routes through the process-wide recorder.  With
# REPRO_TRACE unset every call is a no-op; installing a Recorder
# explicitly (tests, notebooks) captures without touching the env.
layer = RecurrentLIFLayer(16, 8, LIFParameters(beta=0.9), rng=np.random.default_rng(0))
x = (np.random.default_rng(1).random((20, 4, 16)) < 0.2).astype(np.float32)

recorder = obs.Recorder()
with obs.use_recorder(recorder):
    with obs.span("example.sweep", category="docs", batches=1):
        layer.forward(x)
    obs.count("example.batches", 1)

# The library's own spans (the fused kernel sweep) nest under ours.
report = obs.TraceReport.capture(recorder)
names = {span.name for span in report.spans}
assert {"example.sweep", "kernel.lif_forward"} <= names
kernel = next(s for s in report.spans if s.name == "kernel.lif_forward")
outer = next(s for s in report.spans if s.name == "example.sweep")
assert kernel.parent_id == outer.span_id

# Human summary: top span names + the metric table.
print(report.describe(top=5))

# Lossless JSONL round-trip, and Chrome trace_event for Perfetto.
path = obs.write_jsonl("/tmp/repro-docs-trace.jsonl", report.spans, report.metrics)
spans, metrics = obs.read_jsonl(path)
assert spans == report.spans and metrics == report.metrics
chrome = obs.to_chrome(report.spans)
assert any(event["ph"] == "X" for event in chrome["traceEvents"])
