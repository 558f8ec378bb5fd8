"""repro — a full reproduction of *Replay4NCL* (DAC 2025).

Replay4NCL is an efficient memory-replay methodology for neuromorphic
continual learning (NCL) on embedded AI systems.  This package implements
the paper's contribution **and every substrate it depends on**, from
scratch on numpy:

- :mod:`repro.autograd` — the weight Tensor, the reverse walk over
  saved layer passes (each layer is its own backward), and the
  fast-sigmoid surrogate gradient.
- :mod:`repro.snn` — recurrent LIF spiking layers and networks.
- :mod:`repro.data` — a synthetic Spiking-Heidelberg-Digits generator and
  class-incremental task machinery.
- :mod:`repro.compression` — spike-train codecs (the Fig. 7 subsampling
  codec, bit-packing, address-event).
- :mod:`repro.replaystore` — persistent, byte-budgeted, streaming
  replay-memory engine (sharded on-disk latent buffers).
- :mod:`repro.training` — optimizers, losses, BPTT trainer, metrics.
- :mod:`repro.core` — the NCL methods: naive fine-tuning, the SpikingLR
  state-of-the-art comparator, and Replay4NCL itself; replay
  persistence is configured through one validated ``ReplaySpec``.
- :mod:`repro.scenario` — scenario-first continual learning: a table
  of lazily-materialised scenarios (single-step, sequential,
  task-incremental, domain-incremental, blurry, streaming) and the
  ``run_scenario`` entry point with standard CL metrics.
- :mod:`repro.hw` — analytic latency/energy/latent-memory models for
  embedded neuromorphic targets.
- :mod:`repro.eval` — one experiment per paper figure/table.

Quickstart
----------
>>> from repro.eval import experiments
>>> result = experiments.run("fig11", scale="ci")   # doctest: +SKIP
"""

from repro.config import (
    ExperimentConfig,
    NCLConfig,
    NetworkConfig,
    PretrainConfig,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "NetworkConfig",
    "PretrainConfig",
    "NCLConfig",
    "ExperimentConfig",
    "ReproError",
    "__version__",
]
