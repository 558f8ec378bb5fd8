"""Census of the backward walk in a ci-scale NCL run.

Each layer is its own backward, and ``Tensor.backward`` stops at the
first pass whose input needs no gradient.  So one NCL minibatch runs the
readout's backward once and each learning hidden layer's backward once;
the frozen front, which replays latent activations into the learning
layers, never runs a backward at all.
"""

import pytest

import repro.training.trainer as trainer_module
from repro import obs
from repro.core import Replay4NCL


def kernel_calls(recorder) -> dict[str, float]:
    """``kernel.calls`` totals by kernel name, over every backend and dtype."""
    calls: dict[str, float] = {}
    for metric in recorder.metrics():
        if metric.name == "kernel.calls":
            kernel = metric.tag_dict()["kernel"]
            calls[kernel] = calls.get(kernel, 0.0) + metric.total
    return calls


@pytest.mark.parametrize("insertion", [1, 2, 3], ids=lambda i: f"L{i}")
def test_one_backward_per_learning_layer_per_minibatch(
    ci_preset, ci_pretrained, ci_split, monkeypatch, insertion
):
    experiment = ci_preset.experiment
    experiment = experiment.replace(
        ncl=experiment.ncl.replace(insertion_layer=insertion, epochs=2)
    )
    minibatches = []
    loss = trainer_module.readout_cross_entropy

    def counting_loss(logits, labels):
        minibatches.append(len(labels))
        return loss(logits, labels)

    monkeypatch.setattr(trainer_module, "readout_cross_entropy", counting_loss)
    recorder = obs.Recorder()
    with obs.use_recorder(recorder):
        result = Replay4NCL(experiment).run(ci_pretrained.network, ci_split)

    network = result.network
    learning = len(network.hidden_layers) - insertion
    calls = kernel_calls(recorder)
    assert len(minibatches) >= 2 * experiment.ncl.epochs
    assert calls.get("readout_backward") == len(minibatches)
    assert calls.get("lif_backward", 0.0) == learning * len(minibatches)
    for i, layer in enumerate(network.hidden_layers):
        for weight in layer.parameters():
            assert (weight.grad is not None) == (i >= insertion), (layer.name, insertion)
    assert network.readout.w_ff.grad is not None
