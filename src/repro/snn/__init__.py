"""Spiking neural network library: LIF neurons, recurrent layers, networks.

Implements the architecture of paper Fig. 6: a stack of recurrent LIF
hidden layers followed by a non-spiking leaky readout, trained with
surrogate-gradient BPTT.  There is one neuron model, Eq. 1-2's
hard-reset LIF, and one surrogate, the fast sigmoid of Fig. 5b.
Networks can be *split* at an arbitrary weight layer into a frozen
front and a learning tail — the mechanism behind latent replay (the
frozen part produces latent activations; only the tail is trained
during the NCL phase).

The simulation hot path is one execution: fused sequence kernels
(:mod:`repro.snn.kernels`) that run a layer's whole time loop — dynamic
thresholds included — in one pass.  Each layer is its own backward:
while training, its pass is built on the output Tensor, and
``Tensor.backward`` on the loss runs the learning layers' passes in
reverse, down to the frozen front.
"""

from repro.snn.init import dense_init, recurrent_init
from repro.snn.kernels import leaky_readout_sequence, lif_sequence
from repro.snn.layers import LeakyReadout, RecurrentLIFLayer
from repro.snn.network import ForwardResult, SpikingNetwork
from repro.snn.neurons import LIFParameters
from repro.snn.state import LayerTraceEntry, SpikeTrace
from repro.snn.threshold import PerNeuronAdaptiveThreshold, ThresholdController

__all__ = [
    "LIFParameters",
    "lif_sequence",
    "leaky_readout_sequence",
    "RecurrentLIFLayer",
    "LeakyReadout",
    "SpikingNetwork",
    "ForwardResult",
    "SpikeTrace",
    "LayerTraceEntry",
    "ThresholdController",
    "PerNeuronAdaptiveThreshold",
    "dense_init",
    "recurrent_init",
]
