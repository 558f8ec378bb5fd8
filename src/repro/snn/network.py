"""The multi-layer recurrent spiking network of paper Fig. 6.

A :class:`SpikingNetwork` is a stack of :class:`RecurrentLIFLayer` hidden
layers followed by a :class:`LeakyReadout`.  Weight layers are indexed
``0 .. L-1`` where ``L-1`` is the readout; the paper's 4-layer network
(``L = 4``) has hidden weight layers 0-2 and readout layer 3.

Latent replay needs two partial passes, both provided here:

- :meth:`activations_at` — run layers ``0 .. k-1`` (the *frozen* part)
  once and return the spike raster that feeds weight layer ``k`` with
  the pass's spike trace.  With ``k = 0`` this is the raw input (Fig. 6:
  "LR insertion layer 0" inserts input spikes directly).
- :meth:`forward` with ``start_layer=k`` — run the *learning* part only,
  taking pre-computed layer-``k`` input activations.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from zipfile import BadZipFile

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.config import NetworkConfig
from repro.errors import DataError, ShapeError, SplitError
from repro.ioutil import atomic_open
from repro.seeding import spawn
from repro.snn.layers import LeakyReadout, RecurrentLIFLayer
from repro.snn.neurons import LIFParameters
from repro.snn.state import LayerTraceEntry, SpikeTrace
from repro.snn.threshold import ThresholdController

#: A per-layer threshold-controller factory, ``layer -> controller``.
ControllerFactory = Callable[[RecurrentLIFLayer], ThresholdController]

__all__ = ["SpikingNetwork", "ForwardResult", "write_weights", "read_weights"]

#: Samples per :meth:`SpikingNetwork.predict` forward chunk.
PREDICT_BATCH = 64


@dataclass
class ForwardResult:
    """Output of a :meth:`SpikingNetwork.forward` pass.

    Attributes:
        logits: ``[B, num_classes]`` time-mean readout membranes
            (differentiable).
        trace: Per-layer spike counts, for the hardware cost models.
    """

    logits: Tensor
    trace: SpikeTrace


class SpikingNetwork:
    """Stack of recurrent LIF layers + leaky readout (Fig. 6a)."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        self.config = config
        self.seed = int(seed)
        params = LIFParameters(beta=config.beta, threshold=config.threshold)

        sizes = config.layer_sizes
        self.hidden_layers: list[RecurrentLIFLayer] = []
        for i in range(len(sizes) - 2):
            rng = spawn(seed, f"hidden{i}")
            self.hidden_layers.append(
                RecurrentLIFLayer(
                    sizes[i],
                    sizes[i + 1],
                    params,
                    rng=rng,
                    name=f"hidden{i}",
                )
            )
        self.readout = LeakyReadout(
            sizes[-2],
            sizes[-1],
            beta=config.beta,
            rng=spawn(seed, "readout"),
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
        """Restore weights from a :meth:`state_dict` copy, in place.

        Raises:
            DataError: If ``state`` lacks a layer or a weight.
            ShapeError: If a weight's shape differs from this network's.
        """
        for layer in [*self.hidden_layers, self.readout]:
            if layer.name not in state:
                raise DataError(f"state dict has no {layer.name!r} layer")
            layer.load_state_dict(state[layer.name])

    def clone(self) -> "SpikingNetwork":
        """Deep copy with identical weights (used to snapshot pre-training)."""
        twin = SpikingNetwork(self.config, seed=self.seed)
        twin.load_state_dict(self.state_dict())
        return twin

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_hidden(
        self,
        inputs: Tensor | np.ndarray,
        start: int,
        stop: int,
        controller: ControllerFactory | None,
        controller_from_layer: int,
    ) -> tuple[Tensor, SpikeTrace, float]:
        """Run hidden layers ``start .. stop-1``, tracing each one.

        The one hidden-layer loop: :meth:`forward` and
        :meth:`activations_at` both call it.  ``inputs`` must be
        ``[T, B, layer_input_size(start)]``.  Returns the output raster,
        the per-layer trace and the output's spike count (which the next
        layer, e.g. the readout, takes as its input count).
        """
        x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        self._check_layer_index(start)
        expected = self.layer_input_size(start)
        if x.data.ndim != 3 or x.shape[2] != expected:
            raise ShapeError(
                f"weight layer {start} expects [T, B, {expected}] input, "
                f"got shape {tuple(x.shape)}"
            )

        timesteps, batch = x.shape[0], x.shape[1]
        trace = SpikeTrace()
        count = float(x.data.sum())  # each layer's output count feeds the next
        for i in range(start, stop):
            layer = self.hidden_layers[i]
            layer_ctrl = (
                controller(layer)
                if controller is not None and i >= controller_from_layer
                else None
            )
            out = layer.forward(x, layer_ctrl)
            out_count = float(out.data.sum())
            trace.add(
                LayerTraceEntry(
                    name=layer.name,
                    n_in=layer.n_in,
                    n_out=layer.n_out,
                    recurrent=True,
                    input_spike_count=count,
                    output_spike_count=out_count,
                    timesteps=timesteps,
                    batch=batch,
                )
            )
            count = out_count
            x = out
        return x, trace, count

    def forward(
        self,
        inputs: Tensor | np.ndarray,
        start_layer: int = 0,
        controller: ControllerFactory | None = None,
        controller_from_layer: int = 0,
        class_mask: np.ndarray | None = None,
    ) -> ForwardResult:
        """Run weight layers ``start_layer .. L-1``.

        Args:
            inputs: ``[T, B, layer_input_size(start_layer)]`` spike
                raster — the dataset encoding for ``start_layer=0``, or
                latent activations when replaying into a later layer.
            controller: A factory ``layer -> ThresholdController``
                building a fresh controller per layer pass (per-neuron
                controllers are sized to their layer), or None for the
                static configured threshold.
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
        activations, trace, count = self._run_hidden(
            inputs,
            start_layer,
            len(self.hidden_layers),
            controller,
            controller_from_layer,
        )
        logits = self.readout.forward(activations, class_mask=class_mask)
        trace.add(
            LayerTraceEntry(
                name=self.readout.name,
                n_in=self.readout.n_in,
                n_out=self.readout.n_out,
                recurrent=False,
                input_spike_count=count,
                output_spike_count=0.0,
                timesteps=activations.shape[0],
                batch=activations.shape[1],
            )
        )
        return ForwardResult(logits=logits, trace=trace)

    def activations_at(
        self,
        insertion_layer: int,
        inputs: Tensor | np.ndarray,
        controller: ControllerFactory | None = None,
    ) -> tuple[np.ndarray, SpikeTrace]:
        """Spike raster feeding weight layer ``insertion_layer``, and its trace.

        Runs the frozen front (layers ``0 .. insertion_layer-1``) once,
        under :func:`~repro.autograd.no_grad`.  ``insertion_layer=0`` returns the raw input —
        inserting LR data "at layer 0" replays input spikes themselves —
        with an empty trace.

        Returns ``(raster, trace)``: a detached binary array
        ``[T, B, layer_input_size]`` (latent replay data is stored, not
        differentiated through) and the frozen front's per-layer
        :class:`~repro.snn.state.SpikeTrace`, the op-accounting input
        of the hardware models.
        """
        self._check_layer_index(insertion_layer)
        with no_grad():
            out, trace, _ = self._run_hidden(
                inputs, 0, insertion_layer, controller, 0
            )
        return out.data.astype(np.float32, copy=True), trace

    def predict(
        self,
        inputs: Tensor | np.ndarray,
        batch_size: int = PREDICT_BATCH,
        start_layer: int = 0,
        controller: ControllerFactory | None = None,
        controller_from_layer: int = 0,
        class_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Class predictions ``[B]``; the forward saves no pass for backward.

        ``class_mask`` restricts the argmax to the active task's classes
        (task-incremental inference); ``None``/full mask is a bitwise
        no-op.
        """
        x = inputs.data if isinstance(inputs, Tensor) else np.asarray(inputs)
        predictions: list[np.ndarray] = []
        with no_grad():
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
        return np.concatenate(predictions) if predictions else np.empty(0, dtype=int)


#: A :meth:`SpikingNetwork.state_dict`: ``{layer: {param: array}}``.
WeightState = dict[str, dict[str, np.ndarray]]


def write_weights(path: str | Path, state: WeightState, **extra: np.ndarray) -> None:
    """Atomically write ``state`` as an ``.npz`` weights archive.

    Each weight is one ``{layer}/{param}`` member, in ``state``'s order;
    the ``extra`` members (names without a ``/``) follow.
    """
    flat = {
        f"{layer}/{param}": value
        for layer, params in state.items()
        for param, value in params.items()
    }
    flat.update(extra)
    with atomic_open(path, "wb") as handle:
        np.savez(handle, **flat)


def read_weights(data: bytes) -> tuple[WeightState, dict[str, np.ndarray]]:
    """Parse the bytes of a :func:`write_weights` archive.

    Returns:
        The weight state and the extra members, by name.

    Raises:
        DataError: If ``data`` is not a readable ``.npz`` archive
            (truncated, not a zip, or a member failing its CRC).
    """
    state: WeightState = {}
    extra: dict[str, np.ndarray] = {}
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            for key in archive.files:
                layer, slash, param = key.partition("/")
                if slash:
                    state.setdefault(layer, {})[param] = archive[key]
                else:
                    extra[key] = archive[key]
    except (OSError, EOFError, ValueError, BadZipFile) as error:
        raise DataError(f"not a readable weights archive: {error}") from None
    return state, extra
