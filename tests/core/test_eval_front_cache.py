"""NCL per-epoch evaluation runs the frozen front once per run.

The frozen layers below the insertion layer never change during NCL, so
``NCLMethod.run`` computes each test set's insertion-layer activations
once and evaluates only the learning layers per epoch.  These tests pin
that optimisation against an oracle that evaluates the straightforward
way — a full ``network.predict`` over the dense test rasters for each
evaluator, with old and new predicted again for the overall accuracy —
and count the work the frozen front does.

The test sets hold more than ``PREDICT_BATCH`` old-task samples so the
front's chunk boundary is exercised.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import Replay4NCL, SpikingLR
from repro.data.synthetic_shd import SyntheticSHD
from repro.data.tasks import make_class_incremental
from repro.snn.layers import RecurrentLIFLayer
from repro.snn.network import PREDICT_BATCH, SpikingNetwork
from repro.training.metrics import top1_accuracy
from repro.training.trainer import Trainer

EPOCHS = 3


@pytest.fixture(scope="module")
def big_split(ci_preset):
    exp = ci_preset.experiment
    generator = SyntheticSHD(ci_preset.shd, seed=exp.seed)
    split = make_class_incremental(
        generator,
        exp.samples_per_class,
        test_samples_per_class=17,
        num_pretrain_classes=exp.num_pretrain_classes,
    )
    assert len(split.pretrain_test) > PREDICT_BATCH
    return split


def _config(ci_preset, insertion, epochs=EPOCHS):
    exp = ci_preset.experiment
    return exp.replace(ncl=exp.ncl.replace(insertion_layer=insertion, epochs=epochs))


def _methods(ci_preset):
    cases = [
        Replay4NCL(_config(ci_preset, lins), adaptive_threshold=True)
        for lins in (1, 2, 3)
    ]
    cases.append(SpikingLR(_config(ci_preset, 3)))
    return cases


def _oracle_fit(method, split):
    """``Trainer.fit`` with the straightforward full-network evaluators."""
    original = Trainer.fit

    def fit(trainer, inputs, labels, evaluators=None, **kwargs):
        network = trainer.network
        timesteps = method.ncl_timesteps()
        old = split.pretrain_test.to_dense(timesteps)
        new = split.new_test.to_dense(timesteps)
        old_labels, new_labels = split.pretrain_test.labels, split.new_test.labels

        def predict(x):
            return network.predict(
                x,
                controller=method.make_controller(),
                controller_from_layer=method.insertion_layer(),
            )

        def overall():
            preds = np.concatenate([predict(old), predict(new)])
            return top1_accuracy(preds, np.concatenate([old_labels, new_labels]))

        oracle = {
            "old_task_accuracy": lambda: top1_accuracy(predict(old), old_labels),
            "new_task_accuracy": lambda: top1_accuracy(predict(new), new_labels),
            "overall_accuracy": overall,
        }
        assert set(oracle) == set(evaluators)
        return original(trainer, inputs, labels, evaluators=oracle, **kwargs)

    return fit


def _recording_predict(monkeypatch):
    calls = []
    original = SpikingNetwork.predict

    def predict(network, inputs, *args, **kwargs):
        out = original(network, inputs, *args, **kwargs)
        calls.append((kwargs.get("start_layer", 0), out))
        return out

    monkeypatch.setattr(SpikingNetwork, "predict", predict)
    return calls


@pytest.mark.parametrize(
    "case", range(4), ids=["replay4ncl-L1", "replay4ncl-L2", "replay4ncl-L3", "spikinglr"]
)
def test_history_bitwise_equals_full_predict_oracle(
    case, ci_preset, ci_pretrained, big_split, monkeypatch
):
    method = _methods(ci_preset)[case]
    network = ci_pretrained.network

    with monkeypatch.context() as m:
        fast_calls = _recording_predict(m)
        fast = method.run(network, big_split)
    with monkeypatch.context() as m:
        oracle_calls = _recording_predict(m)
        m.setattr(Trainer, "fit", _oracle_fit(method, big_split))
        oracle = method.run(network, big_split)

    records = [dataclasses.astuple(r) for r in fast.history]
    assert records == [dataclasses.astuple(r) for r in oracle.history]
    assert len(records) == EPOCHS
    # The per-set predictions themselves, not only the accuracies.
    assert len(fast_calls) == 2 * EPOCHS and len(oracle_calls) == 4 * EPOCHS
    for epoch in range(EPOCHS):
        for k in range(2):
            fast_preds = fast_calls[2 * epoch + k][1]
            np.testing.assert_array_equal(fast_preds, oracle_calls[4 * epoch + k][1])
            np.testing.assert_array_equal(fast_preds, oracle_calls[4 * epoch + 2 + k][1])
    fast_state, oracle_state = fast.network.state_dict(), oracle.network.state_dict()
    for layer, tensors in fast_state.items():
        for name, value in tensors.items():
            np.testing.assert_array_equal(value, oracle_state[layer][name])


def _frozen_work(method, network, split, monkeypatch):
    """(predict start layers, batch sizes each frozen layer ran) for one run."""
    insertion = method.insertion_layer()
    frozen = {layer.name: [] for layer in network.hidden_layers[:insertion]}
    original = RecurrentLIFLayer.forward

    def forward(layer, inputs, *args, **kwargs):
        if layer.name in frozen:
            frozen[layer.name].append(np.shape(getattr(inputs, "data", inputs))[1])
        return original(layer, inputs, *args, **kwargs)

    with monkeypatch.context() as m:
        calls = _recording_predict(m)
        m.setattr(RecurrentLIFLayer, "forward", forward)
        method.run(network, split)
    return [start for start, _ in calls], frozen


@pytest.mark.parametrize("insertion", [1, 3])
def test_frozen_front_runs_once_per_run(
    insertion, ci_preset, ci_pretrained, big_split, monkeypatch
):
    network = ci_pretrained.network
    runs = {}
    for epochs in (1, EPOCHS):
        method = Replay4NCL(_config(ci_preset, insertion, epochs=epochs))
        runs[epochs] = _frozen_work(method, network, big_split, monkeypatch)

    for epochs, (starts, _) in runs.items():
        # One predict per test set per epoch, each skipping the front.
        assert starts == [insertion] * (2 * epochs)
    # Frozen-layer work does not grow with the epoch count.
    once, many = runs[1][1], runs[EPOCHS][1]
    assert len(once) == insertion
    assert many == once
    test_samples = len(big_split.pretrain_test) + len(big_split.new_test)
    for batches in once.values():
        assert sum(batches) >= test_samples
        # The old-task test set crosses the front in predict-sized chunks.
        assert max(batches) == PREDICT_BATCH
