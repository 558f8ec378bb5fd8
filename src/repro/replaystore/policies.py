"""Admission/eviction policies for byte-budgeted replay memory.

The paper builds its replay buffer from a fixed pre-training subset
(Alg. 1 line 7); an embedded deployment instead sees task data *arrive*
and must decide, sample by sample, what stays inside a hard byte budget.
A policy owns exactly that decision: given a new sample's label and the
currently kept labels, return the slot to (over)write or ``None`` to
reject the sample.

All three policies are deterministic given their RNG, so budgeted
streaming builds are reproducible (seeding discipline matches the rest
of the library).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import StoreError

__all__ = [
    "EvictionPolicy",
    "FIFOPolicy",
    "ReservoirPolicy",
    "ClassBalancedPolicy",
    "get_policy",
]


class EvictionPolicy:
    """Slot-assignment strategy for a fixed-capacity sample set."""

    #: Registry/CLI name (subclasses override).
    name = "base"

    def reset(self) -> None:
        """Clear streaming state (a rebalance calls this once at start)."""

    def admit(
        self,
        label: int,
        kept_labels: Sequence[int],
        capacity: int,
        rng: np.random.Generator,
    ) -> int | None:
        """Pick a slot for the new sample, or ``None`` to reject it.

        ``len(kept_labels)`` appends; anything lower evicts the
        occupant of that slot.
        """
        raise NotImplementedError


class FIFOPolicy(EvictionPolicy):
    """Evict the oldest admitted sample once the budget is full.

    Every arrival is admitted; under heavy streams the buffer degrades
    to "most recent window", which is the baseline the smarter policies
    are judged against.
    """

    name = "fifo"

    def __init__(self):
        self._next = 0

    def reset(self) -> None:
        """Restart the insertion cursor for a fresh build."""
        self._next = 0

    def admit(self, label, kept_labels, capacity, rng) -> int | None:
        """Admit into free slots, then overwrite the oldest slot."""
        if len(kept_labels) < capacity:
            return len(kept_labels)
        slot = self._next
        self._next = (self._next + 1) % capacity
        return slot


class ReservoirPolicy(EvictionPolicy):
    """Vitter reservoir sampling: a uniform sample of the whole stream.

    The ``i``-th arrival is admitted with probability ``capacity / i``,
    replacing a uniformly random slot — so at any point the kept set is
    an unbiased sample of everything seen so far.
    """

    name = "reservoir"

    def __init__(self):
        self._seen = 0

    def reset(self) -> None:
        """Forget the stream position for a fresh build."""
        self._seen = 0

    def admit(self, label, kept_labels, capacity, rng) -> int | None:
        """Vitter reservoir sampling: admit with probability k/seen."""
        self._seen += 1
        if len(kept_labels) < capacity:
            return len(kept_labels)
        slot = int(rng.integers(0, self._seen))
        return slot if slot < capacity else None


class ClassBalancedPolicy(EvictionPolicy):
    """Keep per-class counts as even as the label stream allows.

    A new sample whose class is *not* the (unique) largest evicts a
    random member of the largest class.  Within an already-largest
    class, admission falls back to per-class reservoir sampling so every
    class stays a uniform sample of its own arrivals.  This is the
    policy that preserves the paper's class-stratified replay guarantee
    under streaming arrivals.
    """

    name = "class-balanced"

    def __init__(self):
        self._class_seen: dict[int, int] = {}

    def reset(self) -> None:
        """Clear the per-class arrival counters for a fresh build."""
        self._class_seen = {}

    def admit(self, label, kept_labels, capacity, rng) -> int | None:
        """Per-class reservoir targeting equal slots per class."""
        label = int(label)
        self._class_seen[label] = self._class_seen.get(label, 0) + 1
        if len(kept_labels) < capacity:
            return len(kept_labels)

        counts: dict[int, int] = {}
        for kept in kept_labels:
            counts[int(kept)] = counts.get(int(kept), 0) + 1
        max_count = max(counts.values())
        largest = sorted(c for c, n in counts.items() if n == max_count)

        if counts.get(label, 0) < max_count:
            # Rebalance: push out a random member of the largest class
            # (smallest label id on ties, for determinism).
            victim_class = largest[0]
            positions = [
                i for i, kept in enumerate(kept_labels) if int(kept) == victim_class
            ]
            return positions[int(rng.integers(0, len(positions)))]

        # The class is already (joint-)largest: per-class reservoir.
        slot = int(rng.integers(0, self._class_seen[label]))
        if slot >= counts.get(label, 0):
            return None
        positions = [i for i, kept in enumerate(kept_labels) if int(kept) == label]
        return positions[slot]


_POLICIES = {
    FIFOPolicy.name: FIFOPolicy,
    ReservoirPolicy.name: ReservoirPolicy,
    ClassBalancedPolicy.name: ClassBalancedPolicy,
}


def get_policy(name: str) -> EvictionPolicy:
    """Instantiate a policy by its registry name."""
    if name not in _POLICIES:
        raise StoreError(
            f"unknown eviction policy {name!r}; expected one of {sorted(_POLICIES)}"
        )
    return _POLICIES[name]()
