"""Federation of per-task replay stores under one global byte budget.

A long task stream persists one :class:`~repro.replaystore.store.ReplayStore`
per continual step.  The federation orders those member stores and owns
the *global* memory invariant: the modelled bytes of all members
together never exceed ``budget_bytes``.  When a new member pushes the total over budget,
:meth:`FederatedReplayStore.rebalance` re-admits every stored sample —
in global arrival order — through one of the existing
:mod:`~repro.replaystore.policies` and rewrites each member to hold only
its survivors (:meth:`~repro.replaystore.store.ReplayStore.filter`), so
eviction pressure flows *across* stores: a class-balanced policy will
evict over-represented classes from old members to make room for a new
task's samples.

On disk a federation is a directory of member stores plus one index::

    root/
      federation.json     # budget, policy, seed, member order
      step-000/           # ordinary ReplayStore directories
        index.json
        shard-00000.bin
      step-001/
        ...

Member stores stay fully self-describing — ``repro store stats
root/step-000`` keeps working, and training replays a member through an
ordinary :class:`~repro.replaystore.stream.ReplayStream` — the
federation only adds the budget ledger on top.

Byte accounting uses the same per-sample model as the
:class:`~repro.replaystore.builder.StreamingStoreBuilder` (bit-packed
payload + :data:`~repro.replaystore.builder.SAMPLE_HEADER_BYTES`), so a
federation budget and a builder budget mean the same thing.
"""

from __future__ import annotations

import operator
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import obs
from repro.compression.bitpack import BitpackCodec
from repro.errors import StoreError
from repro.ioutil import atomic_write_json, locked
from repro.replaystore.builder import SAMPLE_HEADER_BYTES
from repro.replaystore.policies import get_policy
from repro.replaystore.store import INDEX_NAME, ReplayStore, read_index
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


def _names(value) -> list[str]:
    """A list of member directory names from a parsed index field."""
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise StoreError(f"expected a list of member names, got {value!r}")
    return list(value)


@dataclass(frozen=True)
class FederationStats:
    """Aggregate view of a federation (the ``repro store federate`` payload)."""

    num_members: int
    num_samples: int
    sample_bytes: int
    model_bytes: int
    budget_bytes: int | None
    policy: str
    member_samples: dict[str, int]
    class_counts: dict[int, int]

    @property
    def budget_utilization(self) -> float | None:
        """Modelled bytes over budget (None when unbudgeted)."""
        if self.budget_bytes is None:
            return None
        return self.model_bytes / self.budget_bytes


class FederatedReplayStore:
    """Ordered member stores + global budget ledger."""

    def __init__(
        self,
        root: Path,
        member_names: list[str],
        budget_bytes: int | None,
        policy: str,
        seed: int,
        rebalances: int = 0,
        pending_removal: list[str] | None = None,
        geometry: dict | None = None,
    ):
        self.root = Path(root)
        self.member_names = list(member_names)
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        self.policy = policy
        self.seed = int(seed)
        #: Count of completed rebalance passes; keys the rebalance RNG so
        #: repeated passes stay deterministic yet independent.
        self.rebalances = int(rebalances)
        #: Member dirs an interrupted ``create(overwrite=True)`` still
        #: owes a removal — the crash ledger :meth:`adopt` consults so a
        #: stale dir is never silently re-registered as fresh latents.
        self.pending_removal = list(pending_removal or [])
        #: Latent geometry shared by every member (persisted at first
        #: adopt); lets :meth:`adopt` validate and :attr:`sample_bytes`
        #: model without opening a reference member.
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
        policy: str = "class-balanced",
        seed: int = 0,
        overwrite: bool = False,
    ) -> "FederatedReplayStore":
        """Initialise an empty federation directory."""
        root = Path(root)
        index_path = root / FEDERATION_INDEX_NAME
        if budget_bytes is not None and budget_bytes <= 0:
            raise StoreError(f"budget_bytes must be positive, got {budget_bytes}")
        get_policy(policy)  # validate the name up front
        federation = cls(root, [], budget_bytes, policy, seed)
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
        longer uses (e.g. ``member_samples``) are ignored.
        """
        root = Path(root)

        def parse(payload: dict) -> "FederatedReplayStore":
            budget = payload["budget_bytes"]
            geometry = payload.get("geometry")
            if not isinstance(payload["policy"], str):
                raise StoreError(f"policy must be a string, got {payload['policy']!r}")
            return cls(
                root,
                _names(payload["members"]),
                None if budget is None else operator.index(budget),
                payload["policy"],
                operator.index(payload["seed"]),
                rebalances=operator.index(payload.get("rebalances", 0)),
                pending_removal=_names(payload.get("pending_removal", [])),
                geometry=None if geometry is None else {
                    key: operator.index(geometry[key]) for key in _GEOMETRY_FIELDS
                },
            )

        return read_index(
            root / FEDERATION_INDEX_NAME, FEDERATION_VERSION, "federation", parse
        )

    def configure(
        self,
        *,
        budget_bytes: int | None = None,
        policy: str | None = None,
        seed: int | None = None,
    ) -> None:
        """Update the budget ledger of an existing federation.

        ``None`` keeps the stored value; explicit values are validated
        and persisted immediately (the next :meth:`rebalance` enforces
        them).  This is how ``repro store federate`` retrofits a budget
        onto a federation created without one.
        """
        if budget_bytes is not None and budget_bytes <= 0:
            raise StoreError(
                f"budget_bytes must be positive, got {budget_bytes}"
            )
        if policy is not None:
            get_policy(policy)  # validate the name
        with locked(self.root / FEDERATION_LOCK_NAME):
            self._reload()
            if budget_bytes is not None:
                self.budget_bytes = int(budget_bytes)
            if policy is not None:
                self.policy = policy
            if seed is not None:
                self.seed = int(seed)
            self._write_index()

    def _write_index(self) -> None:
        """Atomically replace the index (write-to-temp + rename)."""
        payload = {
            "version": FEDERATION_VERSION,
            "budget_bytes": self.budget_bytes,
            "policy": self.policy,
            "seed": self.seed,
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
            if reference is None and self.member_names:
                # Pre-ledger federation index: fall back to a member open.
                reference = self._geometry_of(self.member(self.member_names[0]))
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

    @property
    def sample_bytes(self) -> int:
        """Modelled bytes per stored sample (builder's budget model)."""
        if not self.member_names:
            raise StoreError("an empty federation has no sample geometry")
        geometry = self.geometry
        if geometry is None:  # pre-ledger index: open the first member
            geometry = self._geometry_of(self.member(self.member_names[0]))
        packed = BitpackCodec().packed_bytes(
            (geometry["stored_frames"], geometry["num_channels"])
        )
        return packed + SAMPLE_HEADER_BYTES

    def model_bytes(self) -> int:
        """Modelled federation footprint: ``num_samples * sample_bytes``."""
        if not self.member_names:
            return 0
        return self.num_samples * self.sample_bytes

    def payload_bytes(self) -> int:
        """Actual codec payload bytes across all members."""
        return sum(store.payload_bytes() for _, store in self.members())

    def disk_bytes(self) -> int:
        """On-disk total: member stores plus the federation index."""
        total = (self.root / FEDERATION_INDEX_NAME).stat().st_size
        for _, store in self.members():
            total += store.disk_bytes()
        return total

    def class_counts(self) -> dict[int, int]:
        """Per-class sample counts aggregated over all members."""
        counts: dict[int, int] = {}
        for label in self.labels:
            counts[int(label)] = counts.get(int(label), 0) + 1
        return dict(sorted(counts.items()))

    def stats(self) -> FederationStats:
        """Aggregate :class:`FederationStats` for reporting."""
        return FederationStats(
            num_members=self.num_members,
            num_samples=self.num_samples,
            sample_bytes=self.sample_bytes if self.member_names else 0,
            model_bytes=self.model_bytes(),
            budget_bytes=self.budget_bytes,
            policy=self.policy,
            member_samples={
                name: store.num_samples for name, store in self.members()
            },
            class_counts=self.class_counts(),
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

        Every stored sample is offered — in global arrival order — to a
        fresh instance of the federation's
        :class:`~repro.replaystore.policies.EvictionPolicy` at the
        budget's capacity; survivors keep their member and storage
        order, losers are evicted via
        :meth:`~repro.replaystore.store.ReplayStore.filter`.  The pass
        is index-only until the per-member rewrites, so decision cost
        never touches shard payloads.  Deterministic: the RNG derives
        from the federation seed and the rebalance counter.  A no-op
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
        capacity = self.budget_bytes // self.sample_bytes
        if capacity < 1:
            raise StoreError(
                f"budget of {self.budget_bytes} B holds no sample "
                f"({self.sample_bytes} B each)"
            )
        policy = get_policy(self.policy)
        policy.reset()
        rng = spawn(self.seed, f"federation-rebalance:{self.rebalances}")

        # Policy pass over (member, local index) in global arrival order.
        kept_labels: list[int] = []
        kept_sources: list[tuple[str, int]] = []
        for name, store in self.members():
            for local, label in enumerate(store.labels):
                slot = policy.admit(int(label), kept_labels, capacity, rng)
                if slot is None:
                    continue
                if slot == len(kept_labels):
                    kept_labels.append(int(label))
                    kept_sources.append((name, local))
                else:
                    kept_labels[slot] = int(label)
                    kept_sources[slot] = (name, local)

        # Rewrite each member with its survivors (storage order kept).
        evicted = 0
        for name, store in self.members():
            survivors = np.asarray(
                sorted(local for member, local in kept_sources if member == name),
                dtype=np.int64,
            )
            evicted += store.filter(survivors)
        self.rebalances += 1
        self._write_index()
        _span.set(evicted=evicted)
        return evicted

    def __repr__(self) -> str:
        return (
            f"FederatedReplayStore(root={str(self.root)!r}, "
            f"members={self.num_members}, policy={self.policy!r}, "
            f"budget={self.budget_bytes})"
        )

