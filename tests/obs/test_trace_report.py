"""TraceReport tests: capture, tree navigation, aggregates, rendering."""

import pytest

from repro.obs import ManualClock, NullRecorder, Recorder, TraceReport


@pytest.fixture
def recorder():
    clock = ManualClock()
    recorder = Recorder(clock=clock)
    with recorder.span("scenario.run", category="scenario"):
        for epoch in range(2):
            with recorder.span("train.epoch", category="train", epoch=epoch):
                with recorder.span("kernel.lif_forward", category="kernel"):
                    clock.advance(0.010)
                clock.advance(0.040)
        clock.advance(0.100)
    recorder.count("kernel.calls", backend="numpy")
    recorder.count("store.bytes_decoded", 2.0)
    return recorder


class TestCapture:
    def test_disabled_recorder_captures_none(self):
        assert TraceReport.capture(NullRecorder()) is None

    def test_capture_from_mark(self, recorder):
        mark = recorder.mark()
        with recorder.span("later"):
            pass
        report = TraceReport.capture(recorder, mark)
        assert [s.name for s in report.spans] == ["later"]
        # Metrics are a whole-recorder snapshot regardless of the mark.
        assert len(report.metrics) == 2

    def test_full_capture(self, recorder):
        report = TraceReport.capture(recorder)
        assert report.num_spans == 5


class TestTreeNavigation:
    def test_orphans_promote_to_roots(self, recorder):
        # A mark-bounded capture can exclude a span's parent; the child
        # must then surface as a root, not vanish.
        report = TraceReport.capture(recorder)
        no_root = TraceReport(
            spans=tuple(s for s in report.spans if s.name != "scenario.run"),
            metrics=(),
        )
        roots = [line for line in no_root.tree().splitlines() if not line.startswith(" ")]
        assert [line.split()[0] for line in roots] == ["train.epoch", "train.epoch"]


class TestAggregates:
    def test_sorted_by_total_duration(self, recorder):
        report = TraceReport.capture(recorder)
        aggregates = report.aggregate()
        assert [a.name for a in aggregates] == [
            "scenario.run",  # 0.200s
            "train.epoch",  # 2 x 0.050s
            "kernel.lif_forward",  # 2 x 0.010s
        ]
        run, epoch, kernel = aggregates
        assert run.calls == 1 and run.total_seconds == pytest.approx(0.200)
        assert epoch.calls == 2 and epoch.mean_seconds == pytest.approx(0.050)
        assert kernel.max_seconds == pytest.approx(0.010)

    def test_top_spans_limits(self, recorder):
        report = TraceReport.capture(recorder)
        assert len(report.top_spans(2)) == 2
        assert report.top_spans(0) == ()


class TestRendering:
    def test_describe_lists_spans_and_metrics(self, recorder):
        text = TraceReport.capture(recorder).describe()
        assert "5 spans, 2 metric series" in text
        assert "scenario.run" in text
        assert "kernel.calls{backend=numpy}" in text
        assert "store.bytes_decoded" in text

    def test_tree_indents_by_depth(self, recorder):
        tree = TraceReport.capture(recorder).tree()
        lines = tree.splitlines()
        assert lines[0].startswith("scenario.run")
        assert lines[1].startswith("  train.epoch")
        assert lines[2].startswith("    kernel.lif_forward")

    def test_tree_depth_cap(self, recorder):
        tree = TraceReport.capture(recorder).tree(max_depth=1)
        assert "scenario.run" in tree
        assert "train.epoch" not in tree
