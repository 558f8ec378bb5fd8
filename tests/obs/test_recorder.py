"""Recorder/span unit tests: timing, nesting, threads, selection."""

import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    NULL_SPAN,
    ManualClock,
    NullRecorder,
    Recorder,
    use_recorder,
)


class TestSpans:
    def test_manual_clock_timing(self):
        clock = ManualClock()
        recorder = Recorder(clock=clock)
        with recorder.span("outer"):
            clock.advance(1.5)
        (span,) = recorder.spans()
        assert span.name == "outer"
        assert span.start == 0.0
        assert span.end == 1.5
        assert span.duration == 1.5

    def test_nesting_assigns_parent_ids(self):
        recorder = Recorder(clock=ManualClock())
        with recorder.span("a") as a:
            with recorder.span("b") as b:
                with recorder.span("c") as c:
                    pass
            with recorder.span("d") as d:
                pass
        by_name = {s.name: s for s in recorder.spans()}
        assert by_name["a"].parent_id is None
        assert by_name["b"].parent_id == by_name["a"].span_id
        assert by_name["c"].parent_id == by_name["b"].span_id
        assert by_name["d"].parent_id == by_name["a"].span_id
        # Handles saw the same ids the records kept.
        assert (a.span_id, b.span_id, c.span_id, d.span_id) == (1, 2, 3, 4)

    def test_spans_finish_in_exit_order(self):
        recorder = Recorder(clock=ManualClock())
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        assert [s.name for s in recorder.spans()] == ["inner", "outer"]

    def test_attrs_at_creation_and_mid_flight(self):
        recorder = Recorder(clock=ManualClock())
        with recorder.span("k", category="kernel", backend="numpy") as span:
            span.set(loss=0.5)
        (record,) = recorder.spans()
        assert record.category == "kernel"
        assert record.attrs == {"backend": "numpy", "loss": 0.5}

    def test_mark_and_partial_snapshot(self):
        recorder = Recorder(clock=ManualClock())
        with recorder.span("before"):
            pass
        mark = recorder.mark()
        with recorder.span("after"):
            pass
        assert [s.name for s in recorder.spans(mark)] == ["after"]
        assert len(recorder.spans()) == 2

    def test_clear(self):
        recorder = Recorder(clock=ManualClock())
        with recorder.span("x"):
            pass
        recorder.count("n")
        recorder.clear()
        assert recorder.spans() == ()
        assert recorder.metrics() == ()

    def test_sibling_threads_root_their_own_trees(self):
        recorder = Recorder()
        done = threading.Event()

        def worker():
            with recorder.span("worker.outer"):
                with recorder.span("worker.inner"):
                    pass
            done.set()

        with recorder.span("main.outer"):
            thread = threading.Thread(target=worker, name="helper")
            thread.start()
            thread.join()
        assert done.wait(1.0)
        by_name = {s.name: s for s in recorder.spans()}
        # The worker's stack is thread-local: its outer span is a root,
        # NOT a child of the main thread's open span.
        assert by_name["worker.outer"].parent_id is None
        assert by_name["worker.outer"].thread == "helper"
        assert (
            by_name["worker.inner"].parent_id == by_name["worker.outer"].span_id
        )
        assert by_name["main.outer"].parent_id is None


class TestMetrics:
    def test_counter_aggregation(self):
        recorder = Recorder()
        recorder.count("hits")
        recorder.count("hits", 2.0)
        (entry,) = recorder.metrics()
        assert entry.kind == "counter"
        assert (entry.events, entry.total, entry.last) == (2, 3.0, 2.0)

    def test_counter_tracks_increment_extremes(self):
        recorder = Recorder()
        for value in (3.0, 1.0, 2.0):
            recorder.count("bytes", value)
        (entry,) = recorder.metrics()
        assert (entry.last, entry.low, entry.high) == (2.0, 1.0, 3.0)
        assert entry.mean == pytest.approx(2.0)

    def test_tags_split_series(self):
        recorder = Recorder()
        recorder.count("kernel.calls", backend="numpy")
        recorder.count("kernel.calls", backend="c")
        recorder.count("kernel.calls", backend="c")
        entries = {e.tag_dict()["backend"]: e for e in recorder.metrics()}
        assert entries["numpy"].total == 1.0
        assert entries["c"].total == 2.0

    def test_tag_values_stringified_and_sorted(self):
        recorder = Recorder()
        recorder.count("x", b=2, a=1)
        (entry,) = recorder.metrics()
        assert entry.tags == (("a", "1"), ("b", "2"))


class TestSelection:
    def test_null_recorder_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert isinstance(obs.current(), NullRecorder)
        assert not obs.enabled()

    def test_env_flip_swaps_recorder_mid_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        first = obs.current()
        assert isinstance(first, Recorder)
        assert obs.current() is first  # memoized on the raw string
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert isinstance(obs.current(), NullRecorder)
        monkeypatch.setenv("REPRO_TRACE", "1")
        second = obs.current()
        assert isinstance(second, Recorder)
        assert second is not first  # a fresh recorder per flip

    def test_use_recorder_beats_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        recorder = Recorder(clock=ManualClock())
        with use_recorder(recorder):
            assert obs.current() is recorder
            assert obs.enabled()
        assert isinstance(obs.current(), NullRecorder)

    def test_overrides_nest_innermost_wins(self):
        outer, inner = Recorder(), Recorder()
        with use_recorder(outer):
            with use_recorder(inner):
                assert obs.current() is inner
            assert obs.current() is outer

    def test_module_helpers_route_to_override(self):
        recorder = Recorder(clock=ManualClock())
        with use_recorder(recorder):
            obs.count("c", backend="numpy")
            obs.count("d", 4.0)
            with obs.span("s", category="kernel"):
                recorder.clock.advance(0.25)
            assert obs.now() == recorder.clock.now()
        (span,) = recorder.spans()
        assert span.name == "s" and span.duration == 0.25
        assert {e.name for e in recorder.metrics()} == {"c", "d"}


class TestNullRecorder:
    def test_everything_is_a_no_op(self):
        recorder = NullRecorder()
        assert recorder.span("x") is NULL_SPAN
        with recorder.span("x") as span:
            assert span.set(a=1) is span
        recorder.count("c")
        assert recorder.mark() == 0
        assert recorder.spans() == ()
        assert recorder.metrics() == ()
        assert not recorder.enabled
        assert recorder.clock.now() >= 0.0


class TestWorkerThreadSpans:
    @pytest.fixture
    def store(self, tmp_path):
        from repro.replaystore import ReplayStore

        rng = np.random.default_rng(0)
        store = ReplayStore.create(
            tmp_path / "store",
            stored_frames=8,
            num_channels=12,
            generated_timesteps=8,
            shard_samples=4,
        )
        store.append(
            (rng.random((8, 16, 12)) < 0.2).astype(np.float32),
            rng.integers(0, 4, 16),
        )
        return store

    def test_decode_spans_root_on_worker_thread(self, store):
        from repro.replaystore import ReplayStream

        recorder = Recorder()
        with use_recorder(recorder):
            with obs.span("train.epoch", category="train"):
                # Library spans emitted through the module-level helpers
                # from a plain thread while the main thread holds a span.
                worker = threading.Thread(
                    target=ReplayStream(store).materialize, name="replay-reader"
                )
                worker.start()
                worker.join(timeout=30)
        assert not worker.is_alive()
        by_name = {}
        for span in recorder.spans():
            by_name.setdefault(span.name, []).append(span)
        (gather,) = by_name["store.gather"]
        decodes = by_name["store.decode_shard"]
        assert len(decodes) == store.num_shards
        # The worker's spans root their own per-thread tree; the main
        # thread's open train.epoch span must NOT become the parent.
        assert gather.thread == "replay-reader"
        assert gather.parent_id is None
        for span in decodes:
            assert span.thread == "replay-reader"
            assert span.parent_id == gather.span_id
        (epoch,) = by_name["train.epoch"]
        assert epoch.parent_id is None
        counters = {e.name: e for e in recorder.metrics()}
        assert counters["store.shards_decoded"].total == store.num_shards
