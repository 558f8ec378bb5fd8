"""Federation of per-task replay stores under one global byte budget.

A long task stream persists one :class:`~repro.replaystore.store.ReplayStore`
per continual step.  The federation orders those member stores and owns
the *global* memory invariant: the modelled bytes of all members
together never exceed ``budget_bytes``.  When a new member pushes the total over budget,
:meth:`FederatedReplayStore.rebalance` re-admits every stored sample —
in global arrival order — under one class-balanced rule and rewrites
each member to hold only its survivors
(:meth:`~repro.replaystore.store.ReplayStore.filter`), deleting a member
left with none, so eviction pressure flows *across* stores: an
over-represented class loses samples from old members to make room for
a new task's samples.  The survivors stay a class-stratified subset of
what arrived, the paper's replay guarantee (Alg. 1 line 7).

On disk a federation is a directory of member stores plus one index::

    root/
      federation.json     # budget, member order, rebalance counter
      step-000/           # ordinary ReplayStore directories
        index.json
        shard-00000.bin
      step-001/
        ...

Member stores stay fully self-describing — ``repro store stats
root/step-000`` keeps working, and training replays a member through an
ordinary :class:`~repro.replaystore.stream.ReplayStream` — the
federation only adds the budget ledger on top.

The ledger is the Fig. 12 storage model,
:func:`~repro.replaystore.format.latent_bytes` over every stored sample
(one bit per cell, bit-packed across the whole archive, plus a fixed
header per sample), the same count buffers and store reports give.
"""

from __future__ import annotations

import operator
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.errors import StoreError
from repro.ioutil import atomic_write_json, locked
from repro.replaystore.format import latent_bytes
from repro.replaystore.store import (
    INDEX_NAME,
    ByteReport,
    ReplayStore,
    StoreStats,
    read_index,
)
from repro.seeding import spawn

__all__ = [
    "FEDERATION_INDEX_NAME",
    "FEDERATION_LOCK_NAME",
    "FederationStats",
    "FederatedReplayStore",
]

FEDERATION_INDEX_NAME = "federation.json"
#: Lock file guarding federation-index read-modify-write (a stable
#: inode; the index itself is renamed on every commit).
FEDERATION_LOCK_NAME = "federation.json.lock"
FEDERATION_VERSION = 1

#: The :class:`~repro.replaystore.store.StoreMeta` fields every member
#: must agree on (the federation's persisted ``geometry``).
_GEOMETRY_FIELDS = (
    "stored_frames",
    "num_channels",
    "codec_factor",
    "insertion_layer",
    "generated_timesteps",
)

#: Index fields of earlier versions that chose the eviction rule, with
#: the one value this version still honours.
_FIXED_FIELDS = {"policy": "class-balanced", "seed": 0}


def _names(value) -> list[str]:
    """A list of member directory names from a parsed index field."""
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise StoreError(f"expected a list of member names, got {value!r}")
    return list(value)


def _class_balanced_survivors(
    labels: Sequence[int], capacity: int, rng: np.random.Generator
) -> np.ndarray:
    """Sorted indices of the ``labels`` a ``capacity``-sample budget keeps.

    Samples arrive in order and fill free slots first.  Once full, a
    sample whose class is not (joint-)largest evicts a random member of
    the largest class (smallest label on ties); a sample of a largest
    class falls back to reservoir sampling within its class, so each
    class stays a uniform sample of its own arrivals.
    """
    kept: list[int] = []  # slot -> arrival index
    kept_labels: list[int] = []
    seen: Counter = Counter()
    for index, label in enumerate(map(int, labels)):
        seen[label] += 1
        if len(kept) < capacity:
            kept.append(index)
            kept_labels.append(label)
            continue
        counts = Counter(kept_labels)
        largest = max(counts.values())
        if counts[label] < largest:
            victim = min(c for c, n in counts.items() if n == largest)
            slots = [i for i, kept_label in enumerate(kept_labels) if kept_label == victim]
            slot = slots[int(rng.integers(0, len(slots)))]
        else:
            draw = int(rng.integers(0, seen[label]))
            if draw >= counts[label]:
                continue
            slot = [i for i, kept_label in enumerate(kept_labels) if kept_label == label][draw]
        kept[slot] = index
        kept_labels[slot] = label
    return np.sort(np.asarray(kept, dtype=np.int64))


@dataclass(frozen=True)
class FederationStats(ByteReport):
    """The one report on a federation (the ``repro store federate`` payload).

    ``modelled_bytes`` is the budget ledger
    (:meth:`FederatedReplayStore.model_bytes`): the Fig. 12 model over
    all samples at once, so the members' own ``modelled_bytes`` can sum
    to a few bytes more (each member pads its own last byte).
    ``members`` holds every member's
    :class:`~repro.replaystore.store.StoreStats` in arrival order; a
    member the budget empties has left the federation.
    """

    num_members: int
    num_samples: int
    modelled_bytes: int
    payload_bytes: int
    disk_bytes: int
    budget_bytes: int | None
    members: dict[str, StoreStats]
    class_counts: dict[int, int]

    @property
    def budget_utilization(self) -> float | None:
        """Modelled bytes over budget (None when unbudgeted)."""
        if self.budget_bytes is None:
            return None
        return self.modelled_bytes / self.budget_bytes


class FederatedReplayStore:
    """Ordered member stores + global budget ledger."""

    def __init__(
        self,
        root: Path,
        member_names: list[str],
        budget_bytes: int | None,
        rebalances: int = 0,
        pending_removal: list[str] | None = None,
        geometry: dict | None = None,
    ):
        self.root = Path(root)
        self.member_names = list(member_names)
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        #: Count of completed rebalance passes; keys the rebalance RNG so
        #: repeated passes stay deterministic yet independent.
        self.rebalances = int(rebalances)
        #: Member dirs an interrupted ``create(overwrite=True)`` still
        #: owes a removal — the crash ledger :meth:`adopt` consults so a
        #: stale dir is never silently re-registered as fresh latents.
        self.pending_removal = list(pending_removal or [])
        #: Latent geometry shared by every member (persisted at first
        #: adopt); lets :meth:`adopt` validate and :meth:`model_bytes`
        #: model without opening a member.
        self.geometry = dict(geometry) if geometry else None
        self._members: dict[str, ReplayStore] = {}

    def _reload(self) -> None:
        """Refresh this handle from the on-disk index (under the lock).

        Mutating ops reload before modifying so read-modify-write cycles
        from concurrent handles compose; a handle whose index vanished
        gets a clean :class:`~repro.errors.StoreError`.
        """
        # The fresh handle's empty member cache replaces ours: cached
        # handles may predate another handle's commit.
        vars(self).update(vars(type(self).open(self.root)))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | Path,
        *,
        budget_bytes: int | None = None,
        overwrite: bool = False,
    ) -> "FederatedReplayStore":
        """Initialise an empty federation directory."""
        root = Path(root)
        index_path = root / FEDERATION_INDEX_NAME
        if budget_bytes is not None and budget_bytes <= 0:
            raise StoreError(f"budget_bytes must be positive, got {budget_bytes}")
        federation = cls(root, [], budget_bytes)
        with locked(root / FEDERATION_LOCK_NAME):
            if index_path.exists() and not overwrite:
                raise StoreError(
                    f"federation already exists at {root} "
                    "(pass overwrite=True to replace)"
                )
            # Overwrite must take the old run's member stores with it:
            # leaving them on disk would let a later `adopt` silently mix
            # stale latents into the new archive.
            old_names: list[str] = []
            if index_path.exists():
                try:
                    previous = cls.open(root)
                    old_names = previous.member_names + previous.pending_removal
                except StoreError:
                    old_names = []  # corrupt index: replace it, keep the dirs
            root.mkdir(parents=True, exist_ok=True)
            # Two-phase overwrite: commit an index that *records* the old
            # member dirs as pending removal, remove them, then commit
            # again with the ledger cleared.  A crash in the removal
            # window leaves an empty federation whose ledger still names
            # every orphan dir — adopt refuses them until the caller
            # acknowledges (allow_orphan=True) or create runs again.
            federation.pending_removal = list(old_names)
            federation._write_index()
            for name in old_names:
                member_dir = root / name
                if member_dir.is_dir():
                    shutil.rmtree(member_dir)
            federation.pending_removal = []
            federation._write_index()
        return federation

    @classmethod
    def open(cls, root: str | Path) -> "FederatedReplayStore":
        """Load an existing federation from its index.

        The one parser of ``federation.json``.  Fields this version no
        longer uses (e.g. ``member_samples``) are ignored, and so are an
        earlier version's ``policy`` and ``seed`` while they name the one
        rule this version runs (``"class-balanced"`` at seed 0); any other
        value cannot be honoured and is a :class:`StoreError`.  An index
        that lists members without their shared ``geometry`` is damaged.
        """
        root = Path(root)

        def parse(payload: dict) -> "FederatedReplayStore":
            budget = payload["budget_bytes"]
            geometry = payload.get("geometry")
            members = _names(payload["members"])
            for key, value in _FIXED_FIELDS.items():
                if key in payload and payload[key] != value:
                    raise StoreError(
                        f"federation {key} {payload[key]!r} is not supported: "
                        f"rebalancing runs the class-balanced rule only "
                        f"({key} {value!r})"
                    )
            if members and geometry is None:
                raise StoreError(
                    f"federation index lists members {members} but no geometry"
                )
            return cls(
                root,
                members,
                None if budget is None else operator.index(budget),
                rebalances=operator.index(payload.get("rebalances", 0)),
                pending_removal=_names(payload.get("pending_removal", [])),
                geometry=None if geometry is None else {
                    key: operator.index(geometry[key]) for key in _GEOMETRY_FIELDS
                },
            )

        return read_index(
            root / FEDERATION_INDEX_NAME, FEDERATION_VERSION, "federation", parse
        )

    def configure(self, *, budget_bytes: int) -> None:
        """Set the budget of an existing federation.

        The budget is validated and persisted immediately (the next
        :meth:`rebalance` enforces it).  This is how ``repro store
        federate`` retrofits a budget onto a federation created without
        one.
        """
        if budget_bytes <= 0:
            raise StoreError(
                f"budget_bytes must be positive, got {budget_bytes}"
            )
        with locked(self.root / FEDERATION_LOCK_NAME):
            self._reload()
            self.budget_bytes = int(budget_bytes)
            self._write_index()

    def _write_index(self) -> None:
        """Atomically replace the index (write-to-temp + rename)."""
        payload = {
            "version": FEDERATION_VERSION,
            "budget_bytes": self.budget_bytes,
            "rebalances": self.rebalances,
            "members": list(self.member_names),
            "pending_removal": list(self.pending_removal),
            "geometry": self.geometry,
        }
        atomic_write_json(self.root / FEDERATION_INDEX_NAME, payload)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def member(self, name: str) -> ReplayStore:
        """The named member store (opened on first access, then cached).

        The cache is dropped whenever this handle reloads the federation
        index, so a mutation always starts from current member state.
        """
        if name not in self.member_names:
            raise StoreError(
                f"{name!r} is not a member of the federation at {self.root}"
            )
        if name not in self._members:
            self._members[name] = ReplayStore.open(self.root / name)
        return self._members[name]

    def members(self) -> Iterator[tuple[str, ReplayStore]]:
        """Member stores in registration (task-arrival) order."""
        for name in self.member_names:
            yield name, self.member(name)

    @staticmethod
    def _geometry_of(store: ReplayStore) -> dict:
        """The meta fields every member must agree on."""
        return {key: getattr(store.meta, key) for key in _GEOMETRY_FIELDS}

    def adopt(self, name: str, *, allow_orphan: bool = False) -> ReplayStore:
        """Register the store at ``root/name`` as the next member.

        The store must already exist (e.g. written by a store-backed NCL
        step) and must share the federation's latent geometry — a
        federation composes stores of *one* insertion point, so mixed
        frame/channel geometry is a caller bug, not a mergeable state.

        A name on the :attr:`pending_removal` ledger is a directory an
        interrupted ``create(overwrite=True)`` failed to delete: its
        contents predate the current federation, so adopting it would
        silently resurrect stale latents.  Such names are refused unless
        the caller passes ``allow_orphan=True`` to explicitly claim the
        old data (which also clears the ledger entry).
        """
        if not name or "/" in name or "\\" in name or name in (".", ".."):
            raise StoreError(
                f"member name must be a plain directory name, got {name!r}"
            )
        with locked(self.root / FEDERATION_LOCK_NAME):
            self._reload()
            if name in self.member_names:
                raise StoreError(f"{name!r} is already a member of the federation")
            if name in self.pending_removal and not allow_orphan:
                raise StoreError(
                    f"cannot adopt {name!r}: the directory predates this "
                    "federation (an interrupted overwrite left it behind) "
                    "and holds stale latents; pass allow_orphan=True to "
                    "claim it anyway, or delete the directory"
                )
            path = self.root / name
            if not (path / INDEX_NAME).exists():
                raise StoreError(f"no replay store to adopt at {path}")
            store = ReplayStore.open(path)
            geometry = self._geometry_of(store)
            reference = self.geometry
            if reference is not None and geometry != reference:
                # Insertion layer and generation timesteps are part of
                # the geometry: stores from different insertion points
                # can share frame/channel counts (equal-width hidden
                # layers) yet live in different feature spaces —
                # federating them would serve semantically mixed replay
                # data with no error.
                raise StoreError(
                    f"cannot adopt {name!r}: geometry "
                    f"(T={geometry['stored_frames']}, "
                    f"C={geometry['num_channels']}, "
                    f"factor={geometry['codec_factor']}, "
                    f"Lins={geometry['insertion_layer']}, "
                    f"Tgen={geometry['generated_timesteps']}) does not match "
                    f"the federation's (T={reference['stored_frames']}, "
                    f"C={reference['num_channels']}, "
                    f"factor={reference['codec_factor']}, "
                    f"Lins={reference['insertion_layer']}, "
                    f"Tgen={reference['generated_timesteps']})"
                )
            if self.geometry is None:
                self.geometry = geometry
            if name in self.pending_removal:
                self.pending_removal.remove(name)
            self.member_names.append(name)
            self._members[name] = store
            self._write_index()
        return store

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def num_members(self) -> int:
        """Number of member stores in the federation."""
        return len(self.member_names)

    @property
    def num_samples(self) -> int:
        """Total samples across every member store."""
        return sum(store.num_samples for _, store in self.members())

    @property
    def labels(self) -> np.ndarray:
        """All labels in global arrival order (index-only)."""
        parts = [store.labels for _, store in self.members()]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)

    def bytes_for(self, samples: int) -> int:
        """``latent_bytes`` of ``samples`` samples at the members' geometry."""
        if self.geometry is None:
            raise StoreError("an empty federation has no sample geometry")
        return latent_bytes(
            self.geometry["stored_frames"], samples, self.geometry["num_channels"]
        )

    def model_bytes(self) -> int:
        """The budget ledger: modelled bytes of every stored sample."""
        return 0 if self.geometry is None else self.bytes_for(self.num_samples)

    def stats(self) -> FederationStats:
        """The federation's :class:`FederationStats` report."""
        members = {name: store.stats() for name, store in self.members()}
        class_counts: dict[int, int] = {}
        for row in members.values():
            for label, count in row.class_counts.items():
                class_counts[label] = class_counts.get(label, 0) + count
        return FederationStats(
            num_members=self.num_members,
            num_samples=sum(row.num_samples for row in members.values()),
            modelled_bytes=self.model_bytes(),
            payload_bytes=sum(row.payload_bytes for row in members.values()),
            disk_bytes=(self.root / FEDERATION_INDEX_NAME).stat().st_size
            + sum(row.disk_bytes for row in members.values()),
            budget_bytes=self.budget_bytes,
            members=members,
            class_counts=dict(sorted(class_counts.items())),
        )

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def over_budget(self) -> bool:
        """Whether the modelled footprint currently exceeds the budget."""
        if self.budget_bytes is None or not self.member_names:
            return False
        return self.model_bytes() > self.budget_bytes

    def rebalance(self) -> int:
        """Enforce the global budget across members; returns evictions.

        Every stored sample is offered — in global arrival order — to the
        class-balanced rule at the budget's capacity; survivors keep
        their member and storage order, losers are evicted via
        :meth:`~repro.replaystore.store.ReplayStore.filter`, and a
        member left with no survivors leaves the federation in the same
        index commit, after which its directory is deleted.  The pass
        is index-only until the per-member rewrites, so decision cost
        never touches shard payloads.  Deterministic: the RNG derives
        from the rebalance counter.  A no-op
        (returns 0) when unbudgeted or already within budget.
        """
        with locked(self.root / FEDERATION_LOCK_NAME):
            self._reload()
            if not self.over_budget():
                return 0
            with obs.span(
                "federation.rebalance", category="store", members=self.num_members
            ) as _span:
                evicted = self._rebalance(_span)
        obs.count("federation.evictions", evicted)
        return evicted

    def _rebalance(self, _span) -> int:
        """The budget-enforcement pass :meth:`rebalance` wraps in a span.

        Runs under the federation lock with a freshly reloaded index.
        Member rewrites take each member's own store lock in turn, so a
        rebalance serializes against direct appends to individual
        members without holding every member lock at once.
        """
        # Eight samples fill whole bytes, so bytes_for(8) is exactly 8x
        # the marginal sample cost: the capacity is the largest n with
        # bytes_for(n) <= budget.
        capacity = 8 * self.budget_bytes // self.bytes_for(8)
        if capacity < 1:
            raise StoreError(
                f"budget of {self.budget_bytes} B holds no sample "
                f"({self.bytes_for(1)} B for one)"
            )
        rng = spawn(0, f"federation-rebalance:{self.rebalances}")
        survivors = _class_balanced_survivors(self.labels, capacity, rng)

        # Rewrite each member with its survivors (storage order kept); a
        # member left with none leaves the federation.  An empty member
        # would admit nothing to a later pass, and the pass RNG is keyed
        # on the counter, so dropping it changes no later decision.
        evicted = 0
        emptied = []
        offset = 0
        for name, store in self.members():
            size = store.num_samples
            local = survivors[(survivors >= offset) & (survivors < offset + size)] - offset
            offset += size
            if local.size:
                evicted += store.filter(local)
            else:
                evicted += size
                emptied.append(name)
        self.member_names = [n for n in self.member_names if n not in emptied]
        self.rebalances += 1
        self._write_index()
        for name in emptied:
            del self._members[name]
            shutil.rmtree(self.root / name)
        _span.set(evicted=evicted)
        return evicted

    def __repr__(self) -> str:
        return (
            f"FederatedReplayStore(root={str(self.root)!r}, "
            f"members={self.num_members}, budget={self.budget_bytes})"
        )

