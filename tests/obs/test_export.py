"""Exporter tests: JSONL round-trips, Chrome trace_event, maybe_export."""

import json
import threading

import pytest

from repro import obs
from repro.errors import ConfigError
from repro.obs import (
    ManualClock,
    Recorder,
    read_jsonl,
    to_chrome,
    use_recorder,
    write_chrome,
    write_jsonl,
)


@pytest.fixture
def recorder():
    """A recorder holding a small two-thread-shaped trace + metrics."""
    clock = ManualClock()
    recorder = Recorder(clock=clock)
    with recorder.span("scenario.run", category="scenario", scenario="single-step"):
        clock.advance(0.5)
        with recorder.span("train.epoch", category="train", epoch=0) as span:
            clock.advance(0.25)
            span.set(loss=1.25)
    recorder.count("kernel.calls", backend="numpy", kernel="lif_forward")
    recorder.count("store.decode_seconds", 0.25)
    recorder.count("store.decode_seconds", 0.001)
    return recorder


class TestJsonl:
    def test_round_trip_is_exact(self, recorder, tmp_path):
        path = write_jsonl(
            tmp_path / "trace.jsonl", recorder.spans(), recorder.metrics()
        )
        spans, metrics = read_jsonl(path)
        assert spans == recorder.spans()
        assert metrics == recorder.metrics()

    def test_meta_line_first(self, recorder, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl", recorder.spans())
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "meta"
        assert first["spans"] == len(recorder.spans())

    def test_creates_parent_dirs_and_overwrites(self, recorder, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        write_jsonl(path, recorder.spans())
        write_jsonl(path, ())  # snapshot semantics: last write wins
        spans, _ = read_jsonl(path)
        assert spans == ()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_jsonl(tmp_path / "nope.jsonl")

    def test_bad_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "version": 1}\n{oops\n')
        with pytest.raises(ConfigError, match="bad.jsonl:2"):
            read_jsonl(path)

    def test_unknown_record_type_raises(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"type": "frobnicate"}\n')
        with pytest.raises(ConfigError, match="unknown record type"):
            read_jsonl(path)


class TestChrome:
    def test_complete_events_and_thread_metadata(self, recorder):
        payload = to_chrome(recorder.spans())
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == len(recorder.spans())
        assert metadata and metadata[0]["name"] == "thread_name"
        outer = next(e for e in complete if e["name"] == "scenario.run")
        assert outer["ts"] == 0.0
        assert outer["dur"] == pytest.approx(0.75e6)  # microseconds
        assert outer["args"]["scenario"] == "single-step"

    def test_events_carry_the_span_tree(self, recorder):
        """Each span is one "X" event: ids, name, category, thread and
        attributes ride along, and times are microseconds."""
        payload = to_chrome(recorder.spans())
        events = payload["traceEvents"]
        threads = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        complete = {e["args"]["span_id"]: e for e in events if e["ph"] == "X"}
        assert set(complete) == {s.span_id for s in recorder.spans()}
        for span in recorder.spans():
            event = complete[span.span_id]
            assert event["args"] == {
                **span.attrs, "span_id": span.span_id, "parent_id": span.parent_id
            }
            assert event["name"] == span.name
            assert event["cat"] == span.category
            assert threads[event["tid"]] == span.thread
            assert event["pid"] == 1
            assert event["ts"] == pytest.approx(span.start * 1e6)
            assert event["dur"] == pytest.approx((span.end - span.start) * 1e6)
        inner = next(e for e in complete.values() if e["name"] == "train.epoch")
        outer = next(e for e in complete.values() if e["name"] == "scenario.run")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert outer["args"]["parent_id"] is None

    def test_one_tid_per_thread(self):
        clock = ManualClock()
        recorder = Recorder(clock=clock)
        with recorder.span("main"):
            clock.advance(0.1)

        def work():
            with recorder.span("worker"):
                pass

        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
        events = to_chrome(recorder.spans())["traceEvents"]
        named = {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}
        assert len(named) == 2 and sorted(named.values()) == [1, 2]
        for event in (e for e in events if e["ph"] == "X"):
            thread = "MainThread" if event["name"] == "main" else worker.name
            assert event["tid"] == named[thread]

    def test_empty_category_maps_to_repro(self):
        clock = ManualClock()
        recorder = Recorder(clock=clock)
        with recorder.span("bare"):
            clock.advance(0.1)
        (event,) = [e for e in to_chrome(recorder.spans())["traceEvents"] if e["ph"] == "X"]
        assert event["cat"] == "repro"
        assert event["dur"] == pytest.approx(0.1e6)

    def test_write_chrome_is_loadable_json(self, recorder, tmp_path):
        path = write_chrome(tmp_path / "trace.chrome.json", recorder.spans())
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]


class TestMaybeExport:
    def test_noop_when_tracing_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert obs.maybe_export() is None

    def test_noop_when_enabled_without_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert obs.maybe_export() is None

    def test_noop_when_path_set_but_recorder_disabled(self, monkeypatch, tmp_path):
        from repro.obs import NullRecorder

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "trace.jsonl"))
        with use_recorder(NullRecorder()):
            assert obs.maybe_export() is None
        assert not (tmp_path / "trace.jsonl").exists()

    def test_exports_env_selected_recorder(self, monkeypatch, tmp_path):
        target = tmp_path / "run" / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(target))
        obs.count("demo.counter")
        with obs.span("demo.span"):
            pass
        path = obs.maybe_export()
        assert path == target and target.exists()
        spans, metrics = read_jsonl(target)
        assert [s.name for s in spans] == ["demo.span"]
        assert [m.name for m in metrics] == ["demo.counter"]
