"""NCL method interface, shared result containers, and the naive baseline.

Every method runs the same protocol against a pre-trained network and a
:class:`~repro.data.tasks.ClassIncrementalSplit`:

1. ``prepare`` — freeze layers, generate/store latent replay data.
2. ``train`` — run the NCL epochs, recording old/new task accuracy after
   each epoch plus the op-count cost profile.

The cost profile (:class:`EpochCost`) is the bridge to :mod:`repro.hw`:
it captures *what was computed* (forward traces of the learning part,
frozen-part inference, codec work) so latency/energy are derived from
actual simulated activity, not assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.config import ExperimentConfig
from repro.core.latent_replay import LatentReplayBuffer
from repro.core.replayspec import ReplaySpec, resolve_replay_spec
from repro.data.tasks import ClassIncrementalSplit
from repro.errors import ConfigError
from repro.seeding import spawn
from repro.snn.network import PREDICT_BATCH, SpikingNetwork
from repro.snn.state import SpikeTrace
from repro.snn.threshold import ThresholdController
from repro.training.metrics import TrainingHistory, top1_accuracy
from repro.training.optimizers import Adam
from repro.training.trainer import Trainer, TrainerConfig

__all__ = ["EpochCost", "NCLResult", "NCLMethod", "NaiveFinetune"]


@dataclass
class EpochCost:
    """Op-count inputs of one NCL epoch for the hardware models.

    Attributes
    ----------
    train_traces:
        Forward traces of the training passes (learning part); the
        hardware model charges forward + backward for these.
    frozen_traces:
        Inference traces of the frozen part (Alg. 1 line 23 runs it every
        epoch on the current data) — forward cost only.
    decompressed_cells:
        Raster cells written by latent-data decompression this epoch
        (SpikingLR's Fig. 7 cycle; 0 for Replay4NCL).
    timesteps:
        The temporal resolution the epoch ran at.
    """

    train_traces: list[SpikeTrace] = field(default_factory=list)
    frozen_traces: list[SpikeTrace] = field(default_factory=list)
    decompressed_cells: int = 0
    timesteps: int = 0


@dataclass
class NCLResult:
    """Everything one NCL run produces.

    ``network`` is the trained clone (the pre-trained input network is
    never mutated); sequential multi-task scenarios chain on it.
    """

    method: str
    insertion_layer: int
    timesteps: int
    history: TrainingHistory
    final_old_accuracy: float
    final_new_accuracy: float
    final_overall_accuracy: float
    latent_storage_bytes: int
    latent_stored_frames: int
    epoch_costs: list[EpochCost]
    prepare_cost: EpochCost
    network: "SpikingNetwork | None" = None
    #: Directory of the on-disk replay store when the run used the
    #: store-backed path (``ReplaySpec.store_dir``); None for in-memory runs.
    replay_store_path: str | None = None
    #: Measured high-water mark of decoded replay bytes resident during
    #: store-backed training (the stream's LRU residency); 0 for
    #: in-memory runs, where the whole buffer is always resident.
    replay_peak_resident_bytes: int = 0
    #: Spans + metrics this run recorded (see :mod:`repro.obs`); None
    #: unless tracing was enabled (``REPRO_TRACE``/``obs.use_recorder``).
    trace: obs.TraceReport | None = None

    def summary(self) -> str:
        """One-line human-readable digest of the run."""
        return (
            f"{self.method} (Lins={self.insertion_layer}, T={self.timesteps}): "
            f"old={self.final_old_accuracy:.4f} new={self.final_new_accuracy:.4f} "
            f"overall={self.final_overall_accuracy:.4f} "
            f"latent={self.latent_storage_bytes} B"
        )


class NCLMethod:
    """Template for NCL methods; subclasses set policies via hooks."""

    #: Human-readable method name (subclasses override).
    name = "base"

    def __init__(self, config: ExperimentConfig):
        self.config = config

    # -- policy hooks ---------------------------------------------------
    def insertion_layer(self) -> int:
        """The LR insertion layer Lins (layers below it are frozen)."""
        return self.config.ncl.insertion_layer

    def ncl_timesteps(self) -> int:
        """Temporal resolution of the NCL phase."""
        raise NotImplementedError

    def learning_rate(self) -> float:
        """The eta_cl learning rate of the NCL phase."""
        raise NotImplementedError

    def base_eta(self) -> float:
        """The eta_pre entering the divisor policies (see NCLConfig)."""
        base = self.config.ncl.base_learning_rate
        return base if base is not None else self.config.pretrain.learning_rate

    def make_controller(self) -> ThresholdController | None:
        """Threshold controller for NCL training (None = static)."""
        return None

    def make_generation_controller(self) -> ThresholdController | None:
        """Threshold controller for latent-data generation."""
        return None

    def compression_factor(self) -> int:
        """Storage compression applied to latent data (1 = none)."""
        return 1

    def decompress_for_replay(self) -> bool:
        """Whether replay decompresses latent data each epoch."""
        return False

    def uses_replay(self) -> bool:
        """Whether the method maintains a replay buffer at all."""
        return True

    # -- protocol -------------------------------------------------------
    def run(
        self,
        pretrained: SpikingNetwork,
        split: ClassIncrementalSplit,
        replay: ReplaySpec | None = None,
    ) -> NCLResult:
        """Execute the full NCL phase; the pre-trained network is not mutated.

        ``replay`` is a :class:`~repro.core.replayspec.ReplaySpec` (or a
        bare store path promoted to one); ``None`` keeps replay dense in
        memory.  A spec with ``store_dir`` set switches the replay
        buffer to the store-backed path: the generated latent data is
        persisted as a sharded
        :class:`~repro.replaystore.store.ReplayStore` at that directory
        (streamed chunk-by-chunk when no generation controller is
        active, so not even generation holds the dense buffer), and
        training pulls replay minibatches through a lazy
        :class:`~repro.replaystore.stream.ReplayStream` (shard-at-a-time
        decode).  The training trajectory is bitwise-identical to the
        in-memory path at the same seed — shard codecs are lossless and
        the minibatch order is unchanged — while peak resident replay
        memory stays bounded by the stream's decode cache: two decoded
        shards, i.e. ``2 * spec.shard_samples`` dense samples (measured
        into ``NCLResult.replay_peak_resident_bytes``).

        ``spec.prefetch`` controls async shard prefetch on that path: a
        background thread decodes the next minibatch's shards while the
        current batch trains (see
        :class:`~repro.replaystore.prefetch.PrefetchingStream` — output
        is bitwise-identical either way).  ``None`` defers to the
        ``REPRO_PREFETCH`` environment switch.
        """
        replay = resolve_replay_spec(replay)
        if replay is None:
            replay = ReplaySpec()
        if replay.has_federation_options:
            raise ConfigError(
                "federation options only apply to multi-step runs "
                "(run_sequential / run_scenario); a single NCL run has "
                "no federation to configure"
            )
        config = self.config
        recorder = obs.current()
        trace_mark = recorder.mark()
        network = pretrained.clone()
        insertion = self.insertion_layer()
        timesteps = self.ncl_timesteps()
        network.freeze_below(insertion)

        rng = spawn(config.seed, f"ncl:{self.name}")
        prepare_cost = EpochCost(timesteps=timesteps)

        # ---- prepare: latent replay buffer (Alg. 1 lines 6-20) --------
        buffer: LatentReplayBuffer | None = None
        store = None
        if self.uses_replay():
            with obs.span("ncl.prepare", category="scenario", method=self.name):
                replay_subset = split.pretrain_train.sample_fraction(
                    config.ncl.replay_fraction, spawn(config.seed, "replay-subset")
                )
                if replay.store_backed:
                    store, generation_trace = LatentReplayBuffer.generate_into_store(
                        network,
                        replay_subset,
                        replay.store_dir,
                        insertion_layer=insertion,
                        timesteps=timesteps,
                        compression_factor=self.compression_factor(),
                        controller=self.make_generation_controller(),
                        shard_samples=replay.shard_samples,
                        overwrite=replay.overwrite,
                    )
                    prepare_cost.frozen_traces.append(generation_trace)
                else:
                    buffer = LatentReplayBuffer.generate(
                        network,
                        replay_subset,
                        insertion_layer=insertion,
                        timesteps=timesteps,
                        compression_factor=self.compression_factor(),
                        controller=self.make_generation_controller(),
                    )
                    prepare_cost.frozen_traces.append(
                        self._frozen_trace(
                            network,
                            insertion,
                            replay_subset.to_dense(timesteps),
                            controller=self.make_generation_controller(),
                        )
                    )

        # ---- current-task activations (Alg. 1 line 23) ----------------
        new_inputs = split.new_train.to_dense(timesteps)
        new_activations = network.activations_at(insertion, new_inputs)
        new_labels = split.new_train.labels

        latent_bytes = 0
        latent_frames = 0
        decompressed_cells = 0
        store_path: str | None = None
        replay_view = None
        if buffer is not None:
            latent_bytes = buffer.storage_bytes()
            latent_frames = buffer.stored_frames
            decompressed_cells = buffer.decompressed_cells_per_replay(
                self.decompress_for_replay()
            )
            replay_raster = buffer.materialize(
                decompress=self.decompress_for_replay()
            )
            train_inputs = np.concatenate([new_activations, replay_raster], axis=1)
            train_labels = np.concatenate([new_labels, buffer.labels])
        elif store is not None:
            from repro.hw.memory import latent_memory_bytes
            from repro.replaystore.prefetch import PrefetchingStream
            from repro.replaystore.stream import ConcatReplaySource, ReplayStream

            # Path-independent accounting: same storage model the dense
            # buffer would have reported (asserted in the parity tests).
            latent_bytes = latent_memory_bytes(
                store.meta.stored_frames, store.num_samples, store.meta.num_channels
            )
            latent_frames = store.meta.stored_frames
            if self.decompress_for_replay():
                decompressed_cells = int(
                    store.meta.generated_timesteps
                    * store.num_samples
                    * store.meta.num_channels
                )
            stream = ReplayStream(store, decompress=self.decompress_for_replay())
            replay_view = PrefetchingStream(stream, enabled=replay.prefetch)
            train_inputs = ConcatReplaySource(new_activations, replay_view)
            train_labels = np.concatenate([new_labels, store.labels])
            store_path = str(store.root)
        else:
            train_inputs = new_activations
            train_labels = new_labels

        # ---- NCL training (Alg. 1 lines 21-33) ------------------------
        # The try covers everything from here to the end of training:
        # replay_view owns a live worker thread, so any failure before
        # fit() must still join it (not just failures inside fit).
        try:
            controller = self.make_controller()
            optimizer = Adam(
                network.trainable_parameters(), self.learning_rate()
            )
            trainer = Trainer(
                network,
                optimizer,
                TrainerConfig(
                    epochs=config.ncl.epochs,
                    batch_size=config.ncl.batch_size,
                    start_layer=insertion,
                ),
                rng=rng,
                controller=controller,
            )

            # Deployment semantics of Alg. 1: the frozen front keeps its
            # static threshold and never changes during NCL, so each test
            # set crosses it once per run, in predict's chunks (each chunk
            # matches a full predict); epochs run only the learning layers.
            def front(dense: np.ndarray) -> np.ndarray:
                cuts = range(PREDICT_BATCH, dense.shape[1], PREDICT_BATCH)
                chunks = np.split(dense, cuts, axis=1)
                return np.concatenate([network.activations_at(insertion, c) for c in chunks], 1)

            old_test = front(split.pretrain_test.to_dense(timesteps))
            new_test = front(split.new_test.to_dense(timesteps))
            old_labels = split.pretrain_test.labels
            new_test_labels = split.new_test.labels
            preds: dict[str, np.ndarray] = {}

            def predict(key: str, inputs: np.ndarray) -> np.ndarray:
                preds[key] = network.predict(
                    inputs,
                    start_layer=insertion,
                    controller=self.make_controller(),
                    controller_from_layer=insertion,
                )
                return preds[key]

            def eval_old() -> float:
                return top1_accuracy(predict("old", old_test), old_labels)

            def eval_new() -> float:
                return top1_accuracy(predict("new", new_test), new_test_labels)

            def eval_overall() -> float:
                # This epoch's old/new predictions (evaluators run in order).
                both = np.concatenate([preds.pop("old"), preds.pop("new")])
                labels = np.concatenate([old_labels, new_test_labels])
                return top1_accuracy(both, labels)

            with obs.span(
                "ncl.train",
                category="scenario",
                method=self.name,
                epochs=config.ncl.epochs,
            ):
                history = trainer.fit(
                    train_inputs,
                    train_labels,
                    evaluators={
                        "old_task_accuracy": eval_old,
                        "new_task_accuracy": eval_new,
                        "overall_accuracy": eval_overall,
                    },
                )
        finally:
            if replay_view is not None:
                replay_view.close()
        peak_resident = replay_view.peak_cache_bytes if replay_view else 0

        epoch_costs = self._collect_epoch_costs(
            trainer, network, insertion, new_inputs, decompressed_cells, timesteps
        )

        trace = obs.TraceReport.capture(recorder, trace_mark)
        obs.maybe_export()
        final = history.final()
        return NCLResult(
            method=self.name,
            insertion_layer=insertion,
            timesteps=timesteps,
            history=history,
            final_old_accuracy=final.old_task_accuracy,
            final_new_accuracy=final.new_task_accuracy,
            final_overall_accuracy=final.overall_accuracy,
            latent_storage_bytes=latent_bytes,
            latent_stored_frames=latent_frames,
            epoch_costs=epoch_costs,
            prepare_cost=prepare_cost,
            network=network,
            replay_store_path=store_path,
            replay_peak_resident_bytes=peak_resident,
            trace=trace,
        )

    # ------------------------------------------------------------------
    def _frozen_trace(
        self,
        network: SpikingNetwork,
        insertion: int,
        inputs: np.ndarray,
        controller=None,
    ) -> SpikeTrace:
        """Trace of running the frozen front once over ``inputs``.

        Forward-only re-run used purely for op accounting; see
        :func:`~repro.core.latent_replay.frozen_front_trace` (the shared
        authority, also used by store-streamed generation).
        """
        from repro.core.latent_replay import frozen_front_trace

        return frozen_front_trace(network, insertion, inputs, controller)

    def _collect_epoch_costs(
        self,
        trainer: Trainer,
        network: SpikingNetwork,
        insertion: int,
        new_inputs: np.ndarray,
        cells: int,
        timesteps: int,
    ) -> list[EpochCost]:
        """Assemble per-epoch cost inputs from the trainer's traces.

        Alg. 1 recomputes the frozen part on current data every epoch
        (line 23) and SpikingLR decompresses the latent buffer per epoch;
        both are charged here even though the implementation caches the
        results (the values are identical every epoch).  ``cells`` is the
        per-replay decompression volume, captured before a store-backed
        run releases its dense buffer.  Per-epoch evaluation is not
        charged to the cost model, though it follows the same deployment
        semantics.
        """
        frozen = self._frozen_trace(network, insertion, new_inputs)
        costs = []
        for traces in trainer.epoch_traces:
            costs.append(
                EpochCost(
                    train_traces=list(traces),
                    frozen_traces=[frozen] if frozen.entries else [],
                    decompressed_cells=cells,
                    timesteps=timesteps,
                )
            )
        return costs


class NaiveFinetune(NCLMethod):
    """Fine-tune on the new task with no replay — the Fig. 1a baseline.

    "An SNN model without any NCL capabilities" (paper Fig. 1 caption):
    the *whole* network keeps training on new-task data only, at the
    pre-training timestep and learning rate, so old-task accuracy
    collapses (catastrophic forgetting).
    """

    name = "naive-finetune"

    def insertion_layer(self) -> int:
        """Nothing frozen: plain continued training from layer 0."""
        return 0

    def ncl_timesteps(self) -> int:
        """Full pre-training resolution."""
        return self.config.pretrain.timesteps

    def learning_rate(self) -> float:
        """The pre-training rate, continued."""
        return self.config.pretrain.learning_rate

    def uses_replay(self) -> bool:
        """Naive fine-tuning keeps no replay buffer — that is the point."""
        return False
