"""Threshold-potential controllers (paper §III-B and Alg. 1).

The paper compensates for the information loss of reduced timesteps by
adjusting the neuron threshold potential ``Vthr`` dynamically during the
NCL phase:

- on timesteps where spikes occur (checked every ``adjust_interval``
  steps during network preparation, every step during NCL training),
  ``Vthr = 1 + 0.01 * (Tstep - avg_spike_time)`` — later average spike
  times pull the threshold down toward 1, early spiking raises it
  slightly (Alg. 1 lines 12-13 / 26-27);
- on silent timesteps, a sigmoidal decay ``Vthr = 1 / (1 + exp(-0.001 t))``
  drops the threshold to about 0.5, making neurons easier to fire when
  the reduced-timestep input provides too few spikes (lines 16 / 29).

Controllers are stateful observers: the network calls
:meth:`ThresholdController.step` once per timestep with the spike
activity of that step, and receives the threshold to use for the next
step.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "ThresholdController",
    "PerNeuronAdaptiveThreshold",
]

#: The 0.01 coefficient of Alg. 1's spike-timing term.
GAIN = 0.01
#: The 0.001 coefficient inside Alg. 1's sigmoidal decay.
DECAY_RATE = 0.001
#: Safety clamp on ``Vthr``.  The paper's formulas already stay inside
#: the band for T <= 100; the clamp guards pathological configurations.
FLOOR, CEIL = 0.05, 4.0
#: Every neuron's threshold before the first step.
INITIAL = 1.0


class ThresholdController:
    """Interface: produces the effective ``Vthr`` per timestep.

    ``step`` may return a scalar (one threshold for the whole layer) or a
    per-neuron array ``[n]`` — the LIF step broadcasts either against the
    membrane.  A network takes controllers as a per-layer factory
    ``layer -> ThresholdController``, building a fresh one per layer pass,
    so a controller sees one sequence from its initial state.
    """

    def step(self, t: int, spike_counts, spike_time_sums):
        """Observe timestep ``t`` activity and return ``Vthr`` for the next step.

        Args:
            t: Timestep index in ``0..T-1``.
            spike_counts: Spikes emitted at ``t``, summed over the
                batch, as a per-neuron array ``[n]`` (scalar controllers
                reduce it).
            spike_time_sums: Per-neuron sums of spike times (each spike
                contributes ``t``), so controllers can maintain running
                means.
        """
        raise NotImplementedError

    @property
    def value(self):
        """Current threshold (scalar or ``[n]`` array)."""
        raise NotImplementedError


class PerNeuronAdaptiveThreshold(ThresholdController):
    """Alg. 1's dynamic threshold policy, applied per neuron.

    Alg. 1 states the two rules — the spike-timing formula where spikes
    occur and the sigmoidal decay where they do not — without fixing
    their granularity.  Applied network-wide, any activity anywhere takes
    the "spikes occur" branch, so the decay never fires and the
    compensation the paper describes in §III-B ("reduce Vthr so fewer
    incoming spikes still reach threshold") cannot happen.  Applied
    **per neuron**, the policy becomes exactly that compensation: neurons
    starved of input under the reduced timestep see their threshold decay
    toward ~0.5 until they fire again, while active neurons follow the
    spike-timing rule around the baseline.  This homeostatic reading is
    what :class:`~repro.core.replay4ncl.Replay4NCL` deploys.

    **Batch coupling.**  ``step`` receives spike counts summed over the
    batch, so every sample of a batch shares one per-neuron threshold
    trajectory, and a sample's output spikes depend on its batch-mates
    (without a controller they do not).  This is the current reading of
    Alg. 1; ROADMAP's Alg. 1 item decides whether it is intended.

    The rule's constants are the module's :data:`GAIN`,
    :data:`DECAY_RATE`, :data:`FLOOR`, :data:`CEIL` and :data:`INITIAL`.

    Attributes:
        num_neurons: Layer width; ``step`` takes per-neuron counts of
            this length.
        timesteps: ``Tstep`` of the NCL phase — enters the spike-timing
            formula.
        adjust_interval: Spike-timing updates happen when
            ``t % adjust_interval == 0`` (Alg. 1 line 10); between
            boundaries a neuron that has spiked holds its value and a
            silent one keeps decaying.  Pass 1 to update on every step
            (the NCL-training variant, lines 25-30).
    """

    def __init__(self, num_neurons: int, timesteps: int, adjust_interval: int = 5):
        if num_neurons <= 0:
            raise ConfigError(f"num_neurons must be positive, got {num_neurons}")
        if timesteps <= 0:
            raise ConfigError(f"timesteps must be positive, got {timesteps}")
        if adjust_interval <= 0:
            raise ConfigError(f"adjust_interval must be positive, got {adjust_interval}")
        self.num_neurons = int(num_neurons)
        self.timesteps = int(timesteps)
        self.adjust_interval = int(adjust_interval)
        self._value = np.full(self.num_neurons, INITIAL, dtype=np.float32)
        self._spike_counts = np.zeros(self.num_neurons, dtype=np.float64)
        self._spike_time_sums = np.zeros(self.num_neurons, dtype=np.float64)

    def step(self, t: int, spike_counts, spike_time_sums) -> np.ndarray:
        """Apply the Alg. 1 rules independently per neuron."""
        spike_counts = np.asarray(spike_counts, dtype=np.float64)
        if spike_counts.shape != (self.num_neurons,):
            raise ConfigError(
                f"expected per-neuron counts of shape ({self.num_neurons},), "
                f"got {spike_counts.shape}"
            )
        self._spike_counts += spike_counts
        self._spike_time_sums += np.asarray(spike_time_sums, dtype=np.float64)

        decay_value = 1.0 / (1.0 + np.exp(-DECAY_RATE * t))
        on_boundary = (t % self.adjust_interval) == 0
        active = self._spike_counts > 0
        if on_boundary:
            with np.errstate(invalid="ignore", divide="ignore"):
                avg = np.where(
                    active, self._spike_time_sums / np.maximum(self._spike_counts, 1e-12), 0.0
                )
            timing_value = 1.0 + GAIN * (self.timesteps - avg)
            self._value = np.where(active, timing_value, decay_value).astype(np.float32)
        else:
            # Off-boundary steps: silent neurons keep decaying; active
            # neurons hold their last timing-rule value.
            self._value = np.where(active, self._value, decay_value).astype(np.float32)
        self._value = np.clip(self._value, FLOOR, CEIL)
        return self._value

    @property
    def value(self) -> np.ndarray:
        """Current per-neuron thresholds, shape ``[num_neurons]``."""
        return self._value

    def __repr__(self) -> str:
        return (
            f"PerNeuronAdaptiveThreshold(n={self.num_neurons}, T={self.timesteps}, "
            f"interval={self.adjust_interval}, mean={float(self._value.mean()):.3f})"
        )
