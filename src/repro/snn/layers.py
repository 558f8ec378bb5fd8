"""Spiking layers: recurrent LIF hidden layers and the leaky readout.

Layout convention: spike/current sequences are **time-major** numpy
arrays or Tensors of shape ``[T, B, N]`` (timesteps, batch, neurons).

Every layer pass runs as one fused sequence kernel
(:mod:`repro.snn.kernels`), including passes under a dynamic
:class:`~repro.snn.threshold.ThresholdController` (Alg. 1), which the
kernel consults between timesteps.  Each layer is its own backward:
a training forward builds its pass on the output Tensor, and
``Tensor.backward`` on the loss runs the passes in reverse.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.errors import ConfigError, DataError, ShapeError
from repro.snn import kernels
from repro.seeding import default_rng
from repro.snn.init import dense_init, recurrent_init
from repro.snn.neurons import LIFParameters
from repro.snn.threshold import ThresholdController

__all__ = ["RecurrentLIFLayer", "LeakyReadout", "MASKED_LOGIT"]

#: Additive logit penalty for classes outside an active ``class_mask``.
#: Finite (not ``-inf``) so masked logits stay NaN-free under arithmetic,
#: yet far below any reachable membrane value, so a masked class can
#: never win an argmax.  Exact in float32, the logits' dtype it is added in.
MASKED_LOGIT = -1.0e9


def _load_weights(state: dict[str, np.ndarray], weights: list[tuple[str, Tensor]]) -> None:
    """Copy ``state[name]`` into each ``(name, weight)``, all checked first.

    Nothing is written unless every entry is present with its weight's
    shape, so a bad state leaves the layer as it was.  Each copy takes
    the weight's current dtype, so a float64 state (an old checkpoint)
    restores float32 weights that the compiled kernels run.
    """
    for name, weight in weights:
        if name not in state:
            raise DataError(f"state dict has no {name!r} entry")
        if state[name].shape != weight.data.shape:
            raise ShapeError(f"{name} shape {state[name].shape} != {weight.data.shape}")
    for name, weight in weights:
        weight.data = state[name].astype(weight.data.dtype)


class RecurrentLIFLayer:
    """A dense feedforward projection into recurrent LIF neurons (Fig. 6a).

    Each timestep computes

        I[t]   = X[t] @ W_ff + S[t-1] @ W_rec
        V[t]   = beta * V[t-1] * (1 - S[t-1]) + I[t]     (Eq. 1-2)
        S[t]   = H(V[t] - Vthr)

    with Eq. 2's hard reset; every hidden layer of the paper's SHD
    architecture is recurrent.
    """

    #: Default feedforward init gain.  Plain 1/sqrt(fan_in) leaves deep
    #: layers silent at a threshold of 1.0 with sparse spike inputs; a
    #: gain of 3 puts the initial membrane fluctuations near threshold so
    #: spiking activity propagates through all hidden layers from epoch 0
    #: (fluctuation-driven initialisation).
    FF_GAIN = 3.0

    #: Which execution path the last forward took.  There is one path;
    #: the constant stays for tooling that still reads it.
    last_forward_path = "fused"

    def __init__(
        self,
        n_in: int,
        n_out: int,
        params: LIFParameters,
        rng: np.random.Generator | None = None,
        name: str = "lif",
        ff_gain: float | None = None,
    ):
        rng = rng or default_rng()
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.params = params
        self.name = name
        self.w_ff = dense_init(rng, n_in, n_out, gain=ff_gain or self.FF_GAIN)
        self.w_rec = recurrent_init(rng, n_out)

    # ------------------------------------------------------------------
    def parameters(self) -> list[Tensor]:
        """Weight Tensors: ``w_ff`` then ``w_rec``."""
        return [self.w_ff, self.w_rec]

    def set_trainable(self, flag: bool) -> None:
        """Freeze (False) or unfreeze (True) this layer's weights."""
        for p in self.parameters():
            p.requires_grad = bool(flag)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of this layer's weights, keyed ``w_ff``/``w_rec``."""
        return {"w_ff": self.w_ff.data.copy(), "w_rec": self.w_rec.data.copy()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore weights from a :meth:`state_dict` copy, in place.

        Raises:
            DataError: If ``state`` lacks a weight this layer has.
            ShapeError: If a weight's shape differs from this layer's.
        """
        _load_weights(state, [("w_ff", self.w_ff), ("w_rec", self.w_rec)])

    # ------------------------------------------------------------------
    def forward(
        self,
        inputs: Tensor | np.ndarray,
        controller: ThresholdController | None = None,
    ) -> Tensor:
        """Run the full sequence; return output spikes ``[T, B, n_out]``.

        ``controller`` supplies the effective threshold per timestep
        (Alg. 1); None means the layer's static ``params.threshold``.
        While training, the output carries the layer's pass, whose
        backward sets ``w_ff``/``w_rec`` gradients and returns the
        input's.  When the layer is frozen (no trainable parameters) and
        the input carries no gradient, the sweep builds no pass.
        """
        return kernels.lif_sequence(inputs, self.w_ff, self.params, self.w_rec, controller)


class LeakyReadout:
    """Non-spiking leaky-integrator output layer (Fig. 6a readout).

    Integrates projected input over time without firing.  Classification
    logits are the time-average of each class's membrane: every timestep
    contributes gradient, which trains robustly even for classes whose
    membrane never peaks (a max-over-time readout gives silent classes
    near-zero gradient because their argmax lands on an early,
    spike-free step).
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        beta: float = 0.95,
        rng: np.random.Generator | None = None,
        name: str = "readout",
    ):
        rng = rng or default_rng()
        if not 0.0 < beta < 1.0:
            raise ConfigError(f"readout beta must lie in (0, 1), got {beta}")
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.beta = float(beta)
        self.name = name
        self.w_ff = dense_init(rng, n_in, n_out)

    def parameters(self) -> list[Tensor]:
        """The single feedforward weight Tensor."""
        return [self.w_ff]

    def set_trainable(self, flag: bool) -> None:
        """Freeze (False) or unfreeze (True) the readout weights."""
        for p in self.parameters():
            p.requires_grad = bool(flag)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of the readout weights, keyed ``w_ff``."""
        return {"w_ff": self.w_ff.data.copy()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore weights from a :meth:`state_dict` copy, in place.

        Raises:
            DataError: If ``state`` has no ``w_ff``.
            ShapeError: If its shape differs from this readout's.
        """
        _load_weights(state, [("w_ff", self.w_ff)])

    def forward(
        self,
        inputs: Tensor | np.ndarray,
        class_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Integrate the sequence; return logits ``[B, n_out]``.

        ``class_mask`` is an optional boolean vector ``[n_out]`` selecting
        the classes the readout may answer with (task-incremental
        inference: the task id restricts the label space).  Classes
        outside the mask receive an additive :data:`MASKED_LOGIT` penalty
        after integration, in the logits' dtype, so gradients still flow
        to every logit, in that dtype.  A full mask is skipped
        entirely — the output is bitwise-identical to passing ``None``.
        While training, the logits carry the readout's pass (mask
        included), whose backward sets the ``w_ff`` gradient.
        """
        logits = kernels.leaky_readout_sequence(inputs, self.w_ff, self.beta)
        mask = self._resolve_mask(class_mask)
        if mask is not None:
            # The penalty is a constant: the pass hands the gradient of the
            # masked logits on to the integrator unchanged.
            logits.data = logits.data + np.where(mask, 0.0, MASKED_LOGIT).astype(
                logits.data.dtype
            )
        return logits

    def _resolve_mask(self, class_mask) -> np.ndarray | None:
        """Validate a class mask; None also for a full (no-op) mask."""
        if class_mask is None:
            return None
        mask = np.asarray(class_mask)
        if mask.shape != (self.n_out,):
            raise ShapeError(
                f"class_mask must have shape ({self.n_out},), got {tuple(mask.shape)}"
            )
        mask = mask.astype(bool)
        if not mask.any():
            raise ConfigError("class_mask must keep at least one class")
        if mask.all():
            return None
        return mask
