"""Ablations of the substrate's design choices.

1. Surrogate-gradient family (fast-sigmoid vs atan vs boxcar vs STE) —
   pre-training quality under each pseudo-derivative.
2. Neuron model (plain LIF vs current-based CuBa LIF).
3. Raw-input rehearsal vs latent replay — the memory argument for
   replaying activations instead of inputs.

These run at a small scale regardless of REPRO_BENCH_SCALE (they sweep
whole pre-training runs).
"""

import numpy as np

from repro.autograd.surrogate import (
    atan_surrogate,
    boxcar_surrogate,
    fast_sigmoid_surrogate,
    straight_through_surrogate,
)
from repro.core import RawInputReplay, Replay4NCL
from repro.core.pipeline import pretrain
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import make_class_incremental
from repro.eval import experiments
from repro.eval.results import ExperimentResult, Series
from repro.eval.scale import get_scale
from repro.snn.neurons import LIFParameters


def _ci_setup():
    preset = get_scale("ci")
    generator = SyntheticSHD(preset.shd, seed=preset.experiment.seed)
    split = make_class_incremental(
        generator,
        preset.experiment.samples_per_class,
        preset.experiment.test_samples_per_class,
        num_pretrain_classes=preset.experiment.num_pretrain_classes,
    )
    return preset, split


def test_surrogate_family_ablation(benchmark, record_result):
    preset, split = _ci_setup()
    families = {
        "fast-sigmoid": fast_sigmoid_surrogate(25.0),
        "atan": atan_surrogate(2.0),
        "boxcar": boxcar_surrogate(0.5),
        "straight-through": straight_through_surrogate(),
    }

    def run_sweep():
        from repro.snn.network import SpikingNetwork
        from repro.training import Adam, Trainer, TrainerConfig, top1_accuracy

        accs = {}
        for name, family in families.items():
            # Train from scratch under this surrogate family.
            params = LIFParameters(
                beta=preset.experiment.network.beta,
                threshold=preset.experiment.network.threshold,
                surrogate=family,
            )
            net = SpikingNetwork(preset.experiment.network, seed=0)
            for layer in net.hidden_layers:
                layer.params = params
            inputs = split.pretrain_train.to_dense(preset.experiment.pretrain.timesteps)
            trainer = Trainer(
                net,
                Adam(net.trainable_parameters(), preset.experiment.pretrain.learning_rate),
                TrainerConfig(
                    epochs=preset.experiment.pretrain.epochs,
                    batch_size=preset.experiment.pretrain.batch_size,
                ),
                rng=np.random.default_rng(0),
            )
            trainer.fit(inputs, split.pretrain_train.labels)
            test = split.pretrain_test.to_dense(preset.experiment.pretrain.timesteps)
            accs[name] = top1_accuracy(net.predict(test), split.pretrain_test.labels)
        return accs

    accs = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    result = ExperimentResult(
        experiment_id="ablation_surrogate",
        title="Ablation: surrogate-gradient family (pre-training accuracy)",
        scale="ci",
    )
    result.add_series(Series(
        name="pretrain-acc", x=tuple(accs), y=tuple(accs.values()),
        x_label="surrogate", y_label="top1",
    ))
    record_result(result)

    # The paper's fast-sigmoid choice must train competitively.
    assert accs["fast-sigmoid"] >= max(accs.values()) - 0.25
    assert accs["fast-sigmoid"] > 0.5


def test_neuron_model_ablation(benchmark, record_result):
    preset, split = _ci_setup()

    def run_pair():
        accs = {}
        for name, alpha in (("lif", None), ("cuba", 0.7)):
            config = preset.experiment.replace(
                network=preset.experiment.network.replace(synapse_alpha=alpha)
            )
            accs[name] = pretrain(config, split).test_accuracy
        return accs

    accs = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    result = ExperimentResult(
        experiment_id="ablation_neuron_model",
        title="Ablation: LIF vs CuBa LIF (pre-training accuracy)",
        scale="ci",
    )
    result.add_series(Series(
        name="pretrain-acc", x=tuple(accs), y=tuple(accs.values()),
        x_label="neuron model", y_label="top1",
    ))
    record_result(result)
    assert accs["lif"] > 0.5  # the paper's model must train


def test_raw_vs_latent_replay_memory(benchmark, bench_scale, record_result):
    ctx = experiments.context(bench_scale)
    exp = ctx.preset.experiment

    def run_pair():
        raw = RawInputReplay(exp).run(ctx.pretrained.network, ctx.split)
        latent = Replay4NCL(exp).run(ctx.pretrained.network, ctx.split)
        return raw, latent

    raw, latent = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    result = ExperimentResult(
        experiment_id="ablation_raw_vs_latent",
        title="Ablation: raw-input rehearsal vs latent replay",
        scale=ctx.preset.name,
    )
    result.add_series(Series(
        name="latent-bytes", x=("raw-input", "replay4ncl"),
        y=(float(raw.latent_storage_bytes), float(latent.latent_storage_bytes)),
        x_label="method", y_label="bytes",
    ))
    result.add_series(Series(
        name="old-acc", x=("raw-input", "replay4ncl"),
        y=(raw.final_old_accuracy, latent.final_old_accuracy),
        x_label="method", y_label="top1",
    ))
    record_result(result)

    # Latent replay's storage must be a small fraction of raw rehearsal.
    assert latent.latent_storage_bytes < raw.latent_storage_bytes / 2
