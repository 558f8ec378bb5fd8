"""The paper's contribution: memory-replay NCL methods.

Three methods over the same pre-trained network and class-incremental
split:

- :class:`NaiveFinetune` — no replay; demonstrates catastrophic
  forgetting (paper Fig. 1a).
- :class:`SpikingLR` — the state-of-the-art comparator (Dequino et al.):
  latent replay at the pre-training timestep (T=100) with the Fig. 7
  compress/decompress cycle and a static threshold.
- :class:`Replay4NCL` — the paper's method: latent data generated and
  stored at a reduced timestep T* (no decompression), adaptive threshold
  potential, and a strongly reduced NCL learning rate (Alg. 1).

Entry points: :func:`~repro.core.pipeline.pretrain` builds the shared
pre-trained network; ``method.run(network, split, replay=...)`` runs
one NCL step and returns an :class:`NCLResult` carrying accuracy
curves, latent-memory stats and the op-count cost profile the hardware
models consume.  :func:`repro.scenario.run_scenario` chains steps.
Replay persistence is configured through one validated
:class:`~repro.core.replayspec.ReplaySpec` passed as ``replay=`` to
both, and methods are addressable by name (``naive`` / ``raw`` /
``spikinglr`` / ``replay4ncl`` — see :mod:`repro.core.registry`) so
:func:`~repro.scenario.run_scenario` never hardcodes class references.
"""

from repro.core.latent_replay import LatentReplayBuffer
from repro.core.pipeline import pretrain
from repro.core.raw_replay import RawInputReplay
from repro.core.registry import available_methods, get_method
from repro.core.replay4ncl import Replay4NCL
from repro.core.replayspec import ReplaySpec
from repro.core.spikinglr import SpikingLR
from repro.core.strategies import EpochCost, NCLMethod, NCLResult, NaiveFinetune

__all__ = [
    "LatentReplayBuffer",
    "NCLMethod",
    "NCLResult",
    "EpochCost",
    "NaiveFinetune",
    "RawInputReplay",
    "SpikingLR",
    "Replay4NCL",
    "ReplaySpec",
    "pretrain",
    "get_method",
    "available_methods",
]
