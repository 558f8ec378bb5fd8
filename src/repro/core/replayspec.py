"""`ReplaySpec`: one validated object for all replay/store configuration.

:class:`ReplaySpec` is one frozen, validated dataclass passed as
``replay=`` to both run entry points: :meth:`NCLMethod.run` (one step)
and :func:`~repro.scenario.run_scenario` (a chain of steps), each
normalizing it through :func:`resolve_replay_spec`.  ``ReplaySpec()``
(all defaults) means *dense in-memory replay* — identical to passing
nothing.  A spec with ``store_dir`` set routes replay through the
on-disk :mod:`repro.replaystore` machinery; the federation fields only
apply to :func:`~repro.scenario.run_scenario`, where ``store_dir``
names the federation root and each step persists into a member store
beneath it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError

__all__ = ["ReplaySpec", "resolve_replay_spec"]


@dataclass(frozen=True)
class ReplaySpec:
    """Where and how replay memory persists during an NCL run.

    Attributes
    ----------
    store_dir:
        Directory of the on-disk replay store.  ``None`` (default) keeps
        replay dense in memory.  For single runs this is the
        :class:`~repro.replaystore.store.ReplayStore` root; for
        multi-step runs it is the
        :class:`~repro.replaystore.federation.FederatedReplayStore` root
        and each step writes member store ``step-<k>`` beneath it.
    shard_samples:
        Samples per shard (decode granularity) of the store-backed path;
        ``None`` keeps the store default.
    overwrite:
        Replace an existing store/federation at ``store_dir`` instead of
        refusing to clobber it (the re-run switch).
    prefetch:
        Accepted for compatibility and has no effect: the store-backed
        path reads each replay shard once per run, so there is no decode
        latency left to prefetch.  Like the other store options it
        requires ``store_dir``.
    federation_budget_bytes:
        Optional global byte budget enforced across all steps' member
        stores by class-balanced cross-member eviction (multi-step runs
        only).
    """

    store_dir: str | Path | None = None
    shard_samples: int | None = None
    overwrite: bool = False
    prefetch: bool | None = None
    federation_budget_bytes: int | None = None

    def __post_init__(self):
        if self.store_dir is not None:
            object.__setattr__(self, "store_dir", Path(self.store_dir))
        if self.shard_samples is not None and self.shard_samples <= 0:
            raise ConfigError(
                f"shard_samples must be positive, got {self.shard_samples}"
            )
        if (
            self.federation_budget_bytes is not None
            and self.federation_budget_bytes <= 0
        ):
            raise ConfigError(
                "federation_budget_bytes must be positive, got "
                f"{self.federation_budget_bytes}"
            )
        if self.store_dir is None:
            stray = [
                name
                for name, value in (
                    ("shard_samples", self.shard_samples),
                    ("prefetch", self.prefetch),
                    ("federation_budget_bytes", self.federation_budget_bytes),
                )
                if value is not None
            ]
            if self.overwrite:
                stray.append("overwrite")
            if stray:
                raise ConfigError(
                    f"replay options {stray} require store_dir (a dense "
                    "in-memory run has no store to configure)"
                )

    @property
    def store_backed(self) -> bool:
        """Whether replay persists on disk instead of staying dense."""
        return self.store_dir is not None

    def member(self, name: str) -> "ReplaySpec":
        """Spec for one federation member store under ``store_dir``.

        Multi-step runners hand each step this per-member view: the same
        shard/overwrite/prefetch settings, rooted at
        ``store_dir/<name>``, with the federation-level fields stripped
        (the runner, not the per-step method, owns the federation).
        """
        if self.store_dir is None:
            raise ConfigError("member() requires a store-backed spec")
        return ReplaySpec(
            store_dir=Path(self.store_dir) / name,
            shard_samples=self.shard_samples,
            overwrite=self.overwrite,
            prefetch=self.prefetch,
        )

    def describe(self) -> str:
        """One-line human-readable summary of the spec."""
        if not self.store_backed:
            return "dense in-memory replay"
        parts = [f"store-backed replay at {self.store_dir}"]
        if self.shard_samples is not None:
            parts.append(f"{self.shard_samples} samples/shard")
        if self.federation_budget_bytes is not None:
            parts.append(f"budget {self.federation_budget_bytes} B")
        return ", ".join(parts)


def resolve_replay_spec(
    replay: "ReplaySpec | str | Path | None",
) -> ReplaySpec | None:
    """Normalize the ``replay=`` argument of a run entry point.

    A bare path is promoted to ``ReplaySpec(store_dir=path)``; a spec
    passes through; anything else non-``None`` is a
    :class:`ConfigError`.
    """
    if isinstance(replay, (str, Path)):
        replay = ReplaySpec(store_dir=replay)
    if replay is not None and not isinstance(replay, ReplaySpec):
        raise ConfigError(
            f"replay must be a ReplaySpec or a store path, got {type(replay).__name__}"
        )
    return replay
