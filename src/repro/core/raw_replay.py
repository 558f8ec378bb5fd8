"""Raw-input rehearsal: the classic replay baseline latent replay improves on.

Rehearsal methods (§II-C) originally stored *raw input samples* of old
tasks and mixed them into training.  Latent replay [SpikingLR, this
paper] instead stores activations at an intermediate layer, which (a)
shrinks with the layer dimension and (b) lets the frozen front be
skipped at replay time.  This baseline quantifies both effects: it is
mechanically the ``insertion_layer = 0`` corner of the framework —
"latent" data at layer 0 *is* the raw input (paper Fig. 6) — but with
the whole network kept trainable, as classic rehearsal does.
"""

from __future__ import annotations

from repro.core.strategies import NCLMethod

__all__ = ["RawInputReplay"]


class RawInputReplay(NCLMethod):
    """Rehearsal with raw input spikes; trains the full network."""

    name = "raw-input-replay"

    def insertion_layer(self) -> int:
        """Replay raw inputs: Lins = 0, nothing frozen."""
        return 0

    def ncl_timesteps(self) -> int:
        """Full pre-training resolution (no temporal reduction)."""
        return self.config.pretrain.timesteps

    def learning_rate(self) -> float:
        """The pre-training rate, continued."""
        # Classic rehearsal simply continues training at the pre-training
        # rate (the mixed batch provides the stability, not the rate).
        # NCLConfig.base_learning_rate is calibrated for split-network
        # readout updates and does not transfer to full-network training.
        return self.config.pretrain.learning_rate
