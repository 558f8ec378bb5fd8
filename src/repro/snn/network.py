"""The multi-layer recurrent spiking network of paper Fig. 6.

A :class:`SpikingNetwork` is a stack of :class:`RecurrentLIFLayer` hidden
layers followed by a :class:`LeakyReadout`.  Weight layers are indexed
``0 .. L-1`` where ``L-1`` is the readout; the paper's 4-layer network
(``L = 4``) has hidden weight layers 0-2 and readout layer 3.

Latent replay needs two partial passes, both provided here:

- :meth:`activations_at` — run layers ``0 .. k-1`` (the *frozen* part)
  and return the spike raster that feeds weight layer ``k``.  With
  ``k = 0`` this is the raw input (Fig. 6: "LR insertion layer 0" inserts
  input spikes directly).
- :meth:`forward` with ``start_layer=k`` — run the *learning* part only,
  taking pre-computed layer-``k`` input activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import Tensor
from repro.config import NetworkConfig
from repro.errors import ShapeError, SplitError
from repro.seeding import spawn
from repro.snn.layers import LeakyReadout, RecurrentLIFLayer
from repro.snn.neurons import LIFParameters
from repro.snn.state import LayerTraceEntry, SpikeTrace
from repro.snn.threshold import ThresholdController
from repro.autograd.surrogate import fast_sigmoid_surrogate

__all__ = ["SpikingNetwork", "ForwardResult", "ControllerLike"]

#: A threshold controller shared across layers, or a factory
#: ``layer -> ThresholdController`` building one controller per layer
#: (required by per-neuron controllers, whose state is sized to the
#: layer).  ``None`` means the static configured threshold.
ControllerLike = "ThresholdController | callable | None"

#: Samples per :meth:`SpikingNetwork.predict` forward chunk.
PREDICT_BATCH = 64


def _layer_controller(controller, layer) -> ThresholdController | None:
    """Resolve a ControllerLike for one layer (resetting shared ones)."""
    if controller is None:
        return None
    if isinstance(controller, ThresholdController):
        controller.reset()
        return controller
    if callable(controller):
        return controller(layer)
    raise TypeError(
        f"controller must be a ThresholdController, a factory, or None; "
        f"got {type(controller).__name__}"
    )


@dataclass
class ForwardResult:
    """Output of a :meth:`SpikingNetwork.forward` pass.

    Attributes:
        logits: ``[B, num_classes]`` readout maxima (differentiable).
        trace: Per-layer spike counts, for the hardware cost models.
        hidden_spikes: Output spike Tensors per executed hidden layer
            (time-major), present only when ``record_spikes=True``.
    """

    logits: Tensor
    trace: SpikeTrace
    hidden_spikes: list[Tensor] | None = None


class SpikingNetwork:
    """Stack of recurrent LIF layers + leaky readout (Fig. 6a)."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        self.config = config
        self.seed = int(seed)
        surrogate = fast_sigmoid_surrogate(config.surrogate_scale)
        params = LIFParameters(
            beta=config.beta,
            threshold=config.threshold,
            reset_mode=config.reset_mode,
            surrogate=surrogate,
        )
        self.neuron_params = params

        sizes = config.layer_sizes
        self.hidden_layers: list[RecurrentLIFLayer] = []
        for i in range(len(sizes) - 2):
            rng = spawn(seed, f"hidden{i}")
            self.hidden_layers.append(
                RecurrentLIFLayer(
                    sizes[i],
                    sizes[i + 1],
                    params,
                    recurrent=config.recurrent,
                    rng=rng,
                    name=f"hidden{i}",
                    synapse_alpha=config.synapse_alpha,
                )
            )
        self.readout = LeakyReadout(
            sizes[-2],
            sizes[-1],
            beta=config.beta,
            rng=spawn(seed, "readout"),
            readout_mode=config.readout_mode,
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_weight_layers(self) -> int:
        """L = hidden layers + readout."""
        return len(self.hidden_layers) + 1

    def layer_input_size(self, layer: int) -> int:
        """Fan-in of weight layer ``layer`` (what LR data there looks like)."""
        self._check_layer_index(layer)
        return self.config.layer_sizes[layer]

    def _check_layer_index(self, layer: int) -> None:
        if not 0 <= layer < self.num_weight_layers:
            raise SplitError(
                f"weight layer index {layer} out of range 0..{self.num_weight_layers - 1}"
            )

    def parameters(self) -> list[Tensor]:
        """All weight Tensors, hidden layers first, readout last."""
        params: list[Tensor] = []
        for layer in self.hidden_layers:
            params.extend(layer.parameters())
        params.extend(self.readout.parameters())
        return params

    def trainable_parameters(self) -> list[Tensor]:
        """Subset of :meth:`parameters` with ``requires_grad`` set."""
        return [p for p in self.parameters() if p.requires_grad]

    def set_trainable(self, flag: bool) -> None:
        """Mark every weight layer trainable (or frozen) at once."""
        for layer in self.hidden_layers:
            layer.set_trainable(flag)
        self.readout.set_trainable(flag)

    def set_fused(self, flag: bool) -> None:
        """Enable/disable the fused sequence kernels for every layer.

        The fused path (:mod:`repro.snn.kernels`) is the default and is
        numerically identical to the per-step reference; disabling it
        forces the per-step tape everywhere (diagnostics, parity tests).
        Layers under a dynamic threshold controller fall back to the
        per-step path automatically regardless of this flag.
        """
        for layer in self.hidden_layers:
            layer.use_fused = bool(flag)
        self.readout.use_fused = bool(flag)

    def freeze_below(self, insertion_layer: int) -> None:
        """Freeze weight layers ``0 .. insertion_layer-1`` (paper Fig. 6).

        Layers from ``insertion_layer`` on remain trainable — these are
        the "learning layers"; the rest are the "frozen layers" that only
        forward spikes using their pre-trained weights.
        """
        self._check_layer_index(insertion_layer)
        for i, layer in enumerate(self.hidden_layers):
            layer.set_trainable(i >= insertion_layer)
        self.readout.set_trainable(True)

    def state_dict(self) -> dict[str, dict[str, np.ndarray]]:
        """Copy of all weights, keyed by layer name."""
        state = {layer.name: layer.state_dict() for layer in self.hidden_layers}
        state["readout"] = self.readout.state_dict()
        return state

    def load_state_dict(self, state: dict[str, dict[str, np.ndarray]]) -> None:
        """Restore weights from a :meth:`state_dict` copy, in place."""
        for layer in self.hidden_layers:
            layer.load_state_dict(state[layer.name])
        self.readout.load_state_dict(state["readout"])

    def clone(self) -> "SpikingNetwork":
        """Deep copy with identical weights (used to snapshot pre-training)."""
        twin = SpikingNetwork(self.config, seed=self.seed)
        twin.load_state_dict(self.state_dict())
        return twin

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(
        self,
        inputs: Tensor | np.ndarray,
        start_layer: int = 0,
        controller=None,
        record_spikes: bool = False,
        controller_from_layer: int = 0,
        class_mask: np.ndarray | None = None,
    ) -> ForwardResult:
        """Run weight layers ``start_layer .. L-1``.

        Args:
            inputs: ``[T, B, layer_input_size(start_layer)]`` spike
                raster — the dataset encoding for ``start_layer=0``, or
                latent activations when replaying into a later layer.
            controller: :data:`ControllerLike` — a shared controller
                (reset per layer), a per-layer factory, or None for the
                static threshold.
            record_spikes: Keep per-layer output rasters (needed when
                generating latent replay data).
            controller_from_layer: First weight-layer index the
                controller applies to; earlier layers run at their
                static threshold.  NCL evaluation uses this to confine
                adaptive thresholds to the *learning* layers (Alg. 1
                adapts ``netl``, not the frozen front).
            class_mask: Optional boolean ``[num_classes]`` readout mask
                restricting the logits to the active task's classes
                (task-incremental inference).  ``None`` or a full mask
                leaves the logits bitwise-unchanged; see
                :meth:`LeakyReadout.forward`.
        """
        x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        self._check_layer_index(start_layer)
        expected = self.layer_input_size(start_layer)
        if x.ndim != 3 or x.shape[2] != expected:
            raise ShapeError(
                f"start_layer={start_layer} expects [T, B, {expected}] input, "
                f"got shape {tuple(x.shape)}"
            )

        timesteps, batch = x.shape[0], x.shape[1]
        trace = SpikeTrace()
        recorded: list[Tensor] = []
        activations = x
        for i in range(start_layer, len(self.hidden_layers)):
            layer = self.hidden_layers[i]
            layer_ctrl = (
                _layer_controller(controller, layer)
                if i >= controller_from_layer
                else None
            )
            out = layer.forward(activations, layer_ctrl)
            trace.add(
                LayerTraceEntry(
                    name=layer.name,
                    n_in=layer.n_in,
                    n_out=layer.n_out,
                    recurrent=layer.recurrent,
                    input_spike_count=float(activations.data.sum()),
                    output_spike_count=float(out.data.sum()),
                    timesteps=timesteps,
                    batch=batch,
                )
            )
            if record_spikes:
                recorded.append(out)
            activations = out

        logits = self.readout.forward(activations, class_mask=class_mask)
        trace.add(
            LayerTraceEntry(
                name=self.readout.name,
                n_in=self.readout.n_in,
                n_out=self.readout.n_out,
                recurrent=False,
                input_spike_count=float(activations.data.sum()),
                output_spike_count=0.0,
                timesteps=timesteps,
                batch=batch,
            )
        )
        return ForwardResult(
            logits=logits,
            trace=trace,
            hidden_spikes=recorded if record_spikes else None,
        )

    def activations_at(
        self,
        insertion_layer: int,
        inputs: Tensor | np.ndarray,
        controller=None,
    ) -> np.ndarray:
        """Spike raster feeding weight layer ``insertion_layer``.

        Runs the frozen front (layers ``0 .. insertion_layer-1``) in
        inference mode.  ``insertion_layer=0`` returns the raw input —
        inserting LR data "at layer 0" replays input spikes themselves.

        Returns a detached binary array ``[T, B, layer_input_size]`` —
        latent replay data is stored, not differentiated through.
        """
        self._check_layer_index(insertion_layer)
        x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        if insertion_layer == 0:
            return x.data.astype(np.float32, copy=True)

        activations = x
        for i in range(insertion_layer):
            layer = self.hidden_layers[i]
            was_trainable = layer.trainable
            layer.set_trainable(False)
            try:
                activations = layer.forward(
                    activations, _layer_controller(controller, layer)
                )
            finally:
                layer.set_trainable(was_trainable)
        return activations.data.astype(np.float32, copy=True)

    def predict(
        self,
        inputs: Tensor | np.ndarray,
        batch_size: int = PREDICT_BATCH,
        start_layer: int = 0,
        controller=None,
        controller_from_layer: int = 0,
        class_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Class predictions ``[B]`` without building a tape.

        ``class_mask`` restricts the argmax to the active task's classes
        (task-incremental inference); ``None``/full mask is a bitwise
        no-op.
        """
        x = inputs.data if isinstance(inputs, Tensor) else np.asarray(inputs)
        predictions: list[np.ndarray] = []
        flags = [(layer, layer.trainable) for layer in self.hidden_layers]
        flags.append((self.readout, self.readout.trainable))
        for module, _ in flags:
            module.set_trainable(False)
        try:
            for start in range(0, x.shape[1], batch_size):
                chunk = x[:, start : start + batch_size]
                result = self.forward(
                    chunk,
                    start_layer=start_layer,
                    controller=controller,
                    controller_from_layer=controller_from_layer,
                    class_mask=class_mask,
                )
                predictions.append(result.logits.data.argmax(axis=1))
        finally:
            for module, flag in flags:
                module.set_trainable(flag)
        return np.concatenate(predictions) if predictions else np.empty(0, dtype=int)
