"""Per-layer attribution for the traced benchmark repeat.

The benchmark never edits the library: it wraps the public entry points
of each layer (``data``, ``snn``, ``autograd``, ``training``, ``core``,
``replaystore``, ``scenario``) with timing spans recorded here, and
reads the counters the library already keeps (``store.*``,
``prefetch.*``, ``federation.evictions``, ``kernel.calls``) through
``repro.obs.use_recorder``.

Self-time of a span is its duration minus the time its child spans
cover.  Summed per layer over the main thread, the self-times plus the
root span's own self-time (the ``unattributed`` row) add up to the
root's duration exactly.  Spans on the prefetch worker thread overlap
the main thread and are counted separately, never in that sum.
"""

from __future__ import annotations

import hashlib
import inspect
import statistics
import threading
import time

import numpy as np

LAYERS = ("data", "snn", "autograd", "training", "core", "replaystore", "scenario")

KERNELS = ("lif_forward", "lif_backward", "readout_forward", "readout_backward")


class Span:
    """One finished (or open) timed call: name, layer, thread, interval."""

    __slots__ = ("name", "layer", "main", "parent", "start", "end", "child_time")

    def __init__(self, name: str, layer: str, main: bool, parent: "Span | None"):
        self.name = name
        self.layer = layer
        self.main = main
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans around wrapped entry points; undoes its patches."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.root: Span | None = None
        # Layer-specific tallies gathered inside wrappers.
        self.per_step_forwards = 0
        self.predict_keys: list[tuple] = []
        self.errors = 0
        self._seen_errors: set[int] = set()
        self.prefetched: set[tuple[int, int]] = set()
        self.prefetch_decodes = 0
        self.prefetch_useful = 0
        self.eval_fit_time = 0.0
        self._digests: dict[int, tuple[object, str]] = {}

    # -- span stack ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        main = threading.current_thread() is threading.main_thread()
        span = Span(name, layer, main, parent)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        except Exception as error:
            if layer == "replaystore" and id(error) not in self._seen_errors:
                self._seen_errors.add(id(error))
                self.errors += 1
            raise
        finally:
            self.close(span)

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, name: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper (undone by ``unpatch``).

        ``after(result, args, kwargs)`` runs outside the span, so its
        bookkeeping is not charged to the wrapped layer.
        """
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        fn = static.__func__ if kind is not None else static
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, layer, fn, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, static))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        import repro.training.trainer as trainer_module
        from repro.core import latent_replay
        from repro.core.latent_replay import LatentReplayBuffer
        from repro.core.strategies import NCLMethod
        from repro.data.datasets import SpikeDataset
        from repro.data.loaders import DataLoader
        from repro.data.synthetic_shd import SyntheticSHD
        from repro.replaystore.federation import FederatedReplayStore
        from repro.replaystore.prefetch import PrefetchingStream
        from repro.replaystore.store import ReplayStore
        from repro.replaystore.stream import ReplayStream
        from repro.scenario.checkpoint import ScenarioCheckpoint
        from repro.autograd.tensor import Tensor
        from repro.snn.layers import RecurrentLIFLayer
        from repro.snn.network import SpikingNetwork
        from repro.training.optimizers import Adam, Optimizer

        self.patch(SyntheticSHD, "generate_dataset", "data.generate", "data")
        self.patch(SpikeDataset, "to_dense", "data.to_dense", "data")
        self._patch_loader(DataLoader)

        self.patch(
            SpikingNetwork, "predict", "snn.predict", "snn", after=self._note_predict
        )
        self.patch(SpikingNetwork, "forward", "snn.forward", "snn")
        self.patch(SpikingNetwork, "activations_at", "snn.activations_at", "snn")
        self._patch_layer_path(RecurrentLIFLayer)

        self.patch(Tensor, "backward", "autograd.backward", "autograd")

        self._patch_fit(trainer_module.Trainer)
        self.patch(trainer_module.Trainer, "train_epoch", "training.epoch", "training")
        self.patch(Adam, "step", "training.optim", "training")
        self.patch(Optimizer, "zero_grad", "training.optim", "training")
        self.patch(trainer_module, "readout_cross_entropy", "training.loss", "training")

        self.patch(NCLMethod, "run", "core.ncl", "core")
        self.patch(LatentReplayBuffer, "generate", "core.generate", "core")
        self.patch(LatentReplayBuffer, "generate_into_store", "core.generate", "core")
        self.patch(latent_replay, "frozen_front_trace", "core.frozen_trace", "core")

        self._patch_gather(ReplayStream)
        self.patch(PrefetchingStream, "gather", "replaystore.prefetch_wait", "replaystore")
        self._patch_read_shard(ReplayStore)
        self.patch(ReplayStore, "append", "replaystore.write", "replaystore")
        self.patch(ReplayStore, "create", "replaystore.write", "replaystore")
        self.patch(ReplayStore, "open", "replaystore.open", "replaystore")
        self.patch(FederatedReplayStore, "create", "replaystore.open", "replaystore")
        self.patch(FederatedReplayStore, "open", "replaystore.open", "replaystore")
        self.patch(FederatedReplayStore, "adopt", "replaystore.adopt", "replaystore")
        self.patch(FederatedReplayStore, "rebalance", "replaystore.rebalance", "replaystore")

        self.patch(ScenarioCheckpoint, "save", "scenario.checkpoint", "scenario")
        self.patch(ScenarioCheckpoint, "load", "scenario.restore", "scenario")

    # -- wrappers needing more than a span -------------------------------
    def _patch_loader(self, loader_cls) -> None:
        original = loader_cls.__iter__
        tracer = self

        def timed_iter(loader):
            batches = original(loader)
            while True:
                span = tracer.open("data.loader_wait", "data")
                try:
                    item = next(batches)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield item

        loader_cls.__iter__ = timed_iter
        self._patches.append((loader_cls, "__iter__", original))

    def _patch_layer_path(self, layer_cls) -> None:
        """Count LIF layer calls that took the per-timestep tape path."""
        original = layer_cls.forward
        tracer = self

        def forward(layer, *args, **kwargs):
            result = original(layer, *args, **kwargs)
            if layer.last_forward_path == "steps":
                tracer.per_step_forwards += 1
            return result

        layer_cls.forward = forward
        self._patches.append((layer_cls, "forward", original))

    def _patch_fit(self, trainer_cls) -> None:
        original = trainer_cls.fit
        tracer = self

        def fit(trainer, inputs, labels, evaluators=None, epoch_callback=None):
            if evaluators:
                evaluators = {
                    key: (lambda fn=fn: tracer.call("training.eval", "training", fn))
                    for key, fn in evaluators.items()
                }
            span = tracer.open("training.fit", "training")
            try:
                return original(trainer, inputs, labels, evaluators, epoch_callback)
            finally:
                tracer.close(span)
                if evaluators:
                    tracer.eval_fit_time += span.duration

        trainer_cls.fit = fit
        self._patches.append((trainer_cls, "fit", original))

    def _patch_read_shard(self, store_cls) -> None:
        original = store_cls.read_shard
        tracer = self

        def read_shard(store, shard_id):
            span = tracer.open("replaystore.decode", "replaystore")
            try:
                return original(store, shard_id)
            finally:
                tracer.close(span)
                key = (id(store), int(shard_id))
                if span.main:
                    decoded = getattr(tracer._local, "decoded", None)
                    if decoded is not None:
                        decoded.add(key)
                else:
                    with tracer._lock:
                        tracer.prefetch_decodes += 1
                        tracer.prefetched.add(key)

        store_cls.read_shard = read_shard
        self._patches.append((store_cls, "read_shard", original))

    def _patch_gather(self, stream_cls) -> None:
        """Time gathers; a prefetched shard is useful when a gather hits it."""
        original = stream_cls.gather
        tracer = self

        def gather(stream, indices):
            tracer._local.decoded = set()
            try:
                return tracer.call("replaystore.gather", "replaystore", original, stream, indices)
            finally:
                decoded = tracer._local.decoded
                tracer._local.decoded = None
                sizes = [info.num_samples for info in stream.store.shards]
                bounds = np.cumsum([0] + sizes)
                touched = np.unique(
                    np.searchsorted(bounds, np.asarray(indices), side="right") - 1
                )
                store_id = id(stream.store)
                with tracer._lock:
                    for shard in touched:
                        key = (store_id, int(shard))
                        if key in tracer.prefetched:
                            tracer.prefetched.discard(key)
                            if key not in decoded:
                                tracer.prefetch_useful += 1

        stream_cls.gather = gather
        self._patches.append((stream_cls, "gather", original))

    def _note_predict(self, result, args, kwargs) -> None:
        """Fingerprint a predict call: inputs, weights and settings.

        Input digests are memoised per array object (the array is kept
        alive so its id cannot be reused), so a test set evaluated every
        epoch is hashed once, not once per call.
        """
        network, inputs = args[0], args[1]
        data = getattr(inputs, "data", inputs)
        memo = self._digests.get(id(data))
        if memo is None or memo[0] is not data:
            raw = np.ascontiguousarray(data).view(np.uint8)
            memo = (data, hashlib.blake2b(raw, digest_size=16).hexdigest())
            self._digests[id(data)] = memo
        weights = hashlib.blake2b(digest_size=16)
        for param in network.parameters():
            weights.update(np.ascontiguousarray(param.data).view(np.uint8))
        mask = kwargs.get("class_mask")
        settings = (
            kwargs.get("start_layer", 0),
            kwargs.get("controller_from_layer", 0),
            kwargs.get("controller") is not None,
            None if mask is None else np.asarray(mask).tobytes(),
        )
        self.predict_keys.append((memo[1], weights.hexdigest(), settings))

    # -- the root of the measured interval --------------------------------
    def begin(self) -> None:
        self.root = self.open("bench.wall", "unattributed")

    def finish(self) -> None:
        assert self.root is not None
        self.close(self.root)

    # -- metrics ----------------------------------------------------------
    def metrics(self, recorder, baseline_wall: float) -> tuple[dict, list[tuple]]:
        """Per-layer metrics and the self-time table of the traced repeat.

        ``recorder`` is the ``repro.obs`` recorder installed for the
        repeat; ``baseline_wall`` is the untraced median ``wall_s`` the
        traced wall is compared with.
        """
        root = self.root
        wall = root.duration

        def under_root(span: Span) -> bool:
            node = span
            while node.parent is not None:
                node = node.parent
            return node is root

        main = [s for s in self.spans if s.main and s is not root and under_root(s)]
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        for span in main:
            self_by_layer[span.layer] += span.self_time
        unattributed = root.self_time

        def total(name: str, spans=main) -> float:
            return sum(s.duration for s in spans if s.name == name)

        def calls(name: str, spans=main) -> int:
            return sum(1 for s in spans if s.name == name)

        def self_of(name: str) -> float:
            return sum(s.self_time for s in main if s.name == name)

        counters = _counters(recorder)
        hits = counters.get("store.cache_hits", 0.0)
        misses = counters.get("store.cache_misses", 0.0)
        repeats = 0
        seen = set()
        for key in self.predict_keys:
            if key in seen:
                repeats += 1
            seen.add(key)
        epochs = [s.duration for s in main if s.name == "training.epoch"]
        eval_s = total("training.eval")
        scenario_eval = sum(
            s.duration
            for s in main
            if s.name == "snn.predict" and s.parent is not None and s.parent.name == "scenario.run"
        )

        values = {
            "data.generate_s": (total("data.generate"), "s"),
            "data.generate_calls": (calls("data.generate"), "count"),
            "data.to_dense_s": (total("data.to_dense"), "s"),
            "data.to_dense_calls": (calls("data.to_dense"), "count"),
            "data.loader_wait_s": (total("data.loader_wait"), "s"),
            "snn.predict_s": (total("snn.predict"), "s"),
            "snn.predict_calls": (calls("snn.predict"), "count"),
            "snn.predict_repeat_frac": (_share(repeats, len(self.predict_keys)), "fraction"),
            "snn.forward_s": (total("snn.forward"), "s"),
            "snn.forward_calls": (calls("snn.forward"), "count"),
            "snn.activations_at_s": (total("snn.activations_at"), "s"),
            "snn.per_step_forwards": (self.per_step_forwards, "count"),
            "autograd.backward_s": (total("autograd.backward"), "s"),
            "autograd.backward_calls": (calls("autograd.backward"), "count"),
            "training.optim_s": (total("training.optim"), "s"),
            "training.loss_s": (total("training.loss"), "s"),
            "training.epochs": (len(epochs), "count"),
            "training.epoch_s_p50": (statistics.median(epochs), "s"),
            "training.eval_s": (eval_s, "s"),
            "training.eval_frac": (_share(eval_s, self.eval_fit_time), "fraction"),
            "core.generate_s": (total("core.generate"), "s"),
            "core.generate_calls": (calls("core.generate"), "count"),
            "core.frozen_trace_s": (total("core.frozen_trace"), "s"),
            "core.ncl_self_s": (self_of("core.ncl"), "s"),
            "replaystore.gather_frac": (total("replaystore.gather") / wall, "fraction"),
            "replaystore.gather_calls": (calls("replaystore.gather"), "count"),
            "replaystore.prefetch_wait_frac": (
                self_of("replaystore.prefetch_wait") / wall,
                "fraction",
            ),
            "replaystore.prefetch_useful_frac": (
                _share(self.prefetch_useful, self.prefetch_decodes),
                "fraction",
            ),
            "replaystore.cache_hit_frac": (_share(hits, hits + misses), "fraction"),
            "replaystore.shards_decoded": (counters.get("store.shards_decoded", 0.0), "count"),
            "replaystore.bytes_decoded": (counters.get("store.bytes_decoded", 0.0), "B"),
            "replaystore.write_frac": (total("replaystore.write") / wall, "fraction"),
            "replaystore.shards_encoded": (counters.get("store.shards_encoded", 0.0), "count"),
            "replaystore.adopt_frac": (total("replaystore.adopt") / wall, "fraction"),
            "replaystore.rebalance_frac": (total("replaystore.rebalance") / wall, "fraction"),
            "replaystore.evictions": (counters.get("federation.evictions", 0.0), "count"),
            "replaystore.open_frac": (total("replaystore.open") / wall, "fraction"),
            "replaystore.errors": (self.errors, "count"),
            "scenario.eval_s": (scenario_eval, "s"),
            "scenario.checkpoint_frac": (total("scenario.checkpoint") / wall, "fraction"),
            "scenario.checkpoint_calls": (calls("scenario.checkpoint"), "count"),
            "scenario.restore_frac": (total("scenario.restore") / wall, "fraction"),
            "scenario.self_s": (self_of("scenario.run"), "s"),
            "obs.traced_wall_s": (wall, "s"),
            "obs.trace_overhead_frac": (wall / baseline_wall - 1.0, "fraction"),
            "unattributed_frac": (unattributed / wall, "fraction"),
        }
        for kernel in KERNELS:
            values[f"snn.kernel_calls.{kernel}"] = (
                counters.get(f"kernel.calls:{kernel}", 0.0),
                "count",
            )
        for layer in LAYERS:
            values[f"{layer}.self_frac"] = (self_by_layer[layer] / wall, "fraction")

        table = [(layer, self_by_layer[layer]) for layer in LAYERS]
        table.append(("unattributed", unattributed))
        return values, table


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _counters(recorder) -> dict[str, float]:
    """Counter totals by name; ``kernel.calls`` also keyed by kernel tag."""
    out: dict[str, float] = {}
    for entry in recorder.metrics():
        if entry.kind != "counter":
            continue
        out[entry.name] = out.get(entry.name, 0.0) + entry.total
        if entry.name == "kernel.calls":
            key = f"kernel.calls:{entry.tag_dict().get('kernel', '')}"
            out[key] = out.get(key, 0.0) + entry.total
    return out
