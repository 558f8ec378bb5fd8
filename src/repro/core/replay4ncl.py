"""Replay4NCL — the paper's method (§III, Alg. 1).

Three coordinated design steps on top of latent replay:

1. **Timestep optimisation** (§III-A): the NCL phase runs at a reduced
   timestep ``T*`` (default 40, Fig. 8 Observation B).  Latent data is
   generated by the frozen front *at* ``T*`` and stored natively —
   there is no decompression pass, and the latent memory shrinks from
   SpikingLR's ``ceil(100/2) = 50`` stored frames to ``T* = 40``
   (the paper's 20% saving).
2. **Parameter adjustments** (§III-B): the NCL learning rate drops to
   ``eta_pre / 100`` (Alg. 1 line 6/21) for careful weight updates on
   fewer spikes, and the threshold potential is lowered/adapted rather
   than kept at the pre-trained value.
3. **Adaptive threshold & insertion strategy** (§III-C): during latent
   generation, ``Vthr`` follows the interval policy (Alg. 1 lines
   10-17, ``adjust_interval = 5``); during NCL training it updates every
   timestep from spike-timing statistics (lines 25-30).
"""

from __future__ import annotations

from repro.config import ExperimentConfig
from repro.core.strategies import NCLMethod
from repro.snn.threshold import PerNeuronAdaptiveThreshold

__all__ = ["Replay4NCL"]


class Replay4NCL(NCLMethod):
    """Reduced-timestep latent replay with parameter adjustments."""

    name = "replay4ncl"

    def __init__(
        self,
        config: ExperimentConfig,
        timesteps: int | None = None,
        adaptive_threshold: bool | None = None,
    ):
        """``timesteps`` and ``adaptive_threshold`` override the NCL
        config (used by the timestep-sweep and ablation benches)."""
        super().__init__(config)
        self._timesteps = timesteps or config.ncl.timesteps
        self._adaptive = (
            config.ncl.adaptive_threshold
            if adaptive_threshold is None
            else adaptive_threshold
        )

    def ncl_timesteps(self) -> int:
        """The reduced resolution T* (the paper's key adjustment)."""
        return self._timesteps

    def learning_rate(self) -> float:
        """Alg. 1 line 6/21: eta_cl = eta_pre / 100."""
        return self.base_eta() / self.config.ncl.learning_rate_divisor

    def make_generation_controller(self):
        """Alg. 1 lines 8-19: interval-gated adaptive threshold.

        Returned as a per-layer factory of per-neuron controllers — see
        :class:`~repro.snn.threshold.PerNeuronAdaptiveThreshold` for why
        the per-neuron granularity is the deployed reading of Alg. 1.
        """
        if not self._adaptive:
            return None
        interval = self.config.ncl.adjust_interval
        timesteps = self._timesteps

        def factory(layer):
            return PerNeuronAdaptiveThreshold(
                num_neurons=layer.n_out,
                timesteps=timesteps,
                adjust_interval=interval,
            )

        return factory

    def make_controller(self):
        """Alg. 1 lines 25-30: per-timestep adaptive threshold (interval 1)."""
        if not self._adaptive:
            return None
        timesteps = self._timesteps

        def factory(layer):
            return PerNeuronAdaptiveThreshold(
                num_neurons=layer.n_out,
                timesteps=timesteps,
                adjust_interval=1,
            )

        return factory
