"""Crash-safe checkpoints for resumable scenario runs.

Long streams die: a 100-step online run on a flaky edge device (or a
preempted CI worker) should continue from where it stopped, and the
continuation must be **bitwise-identical** to the run that was never
interrupted — otherwise resumed results are not comparable to
straight-through ones and every interruption silently forks the
experiment.

The checkpoint granularity is the *scenario step boundary*, and that is
sufficient for exact resumption because of how the training stack keys
its randomness: every NCL step spawns a fresh rng from
``spawn(config.seed, ...)``, builds a fresh optimizer, and trains a
clone — nothing carries across steps except (a) the trained network and
(b) the on-disk replay federation (whose rebalance counter keys its own
rng stream and already persists in the federation index).  Snapshot
those two and the stream's future is a pure function of
``(seed, scenario, step index)``.  No optimizer moments or rng
positions need saving: finer-grained (mid-epoch) checkpoints would, and
this module deliberately does not offer them.

Layout under the checkpoint directory::

    manifest.json          # versioned, fingerprinted; always valid
    network-step-<k>.npz   # weights after completed step k (0 = pretrain)

Writes are crash-safe by ordering: the new network archive lands first
(a *new* filename — the previous step's archive is untouched), then the
manifest is written to a temp file and atomically renamed over the old
one (`os.replace`), then stale archives are removed.  A crash at any
point leaves the previous manifest pointing at its still-existing
archive; a crash before the first commit leaves no manifest, which
resume treats as a fresh start (absent is not corrupt).

Corruption is never silently absorbed: a manifest that does not parse,
a version or fingerprint mismatch, a missing or truncated archive, or
an archive whose sha256 disagrees with the manifest all raise
:class:`~repro.errors.DataError` — resuming from damaged state must be
an explicit user decision (delete the directory), not an automatic
restart that quietly discards completed work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.strategies import EpochCost, NCLResult
from repro.errors import DataError
from repro.ioutil import atomic_write_json
from repro.snn.network import read_weights, write_weights
from repro.training.metrics import EpochRecord, TrainingHistory

__all__ = [
    "CHECKPOINT_VERSION",
    "MANIFEST_NAME",
    "CheckpointState",
    "ScenarioCheckpoint",
    "run_fingerprint",
]

#: Manifest schema version; bump on any incompatible layout change.
CHECKPOINT_VERSION = 1

#: Filename of the manifest inside the checkpoint directory.
MANIFEST_NAME = "manifest.json"

_STEP_FIELDS = (
    "method",
    "insertion_layer",
    "timesteps",
    "final_old_accuracy",
    "final_new_accuracy",
    "final_overall_accuracy",
    "latent_storage_bytes",
    "latent_stored_frames",
    "replay_store_path",
    "replay_peak_resident_bytes",
)


def run_fingerprint(
    *, scenario: object, method: str, experiment: object, replay: object
) -> str:
    """Identity of a run for checkpoint compatibility.

    Two invocations may share a checkpoint directory only when they
    would compute the same stream: same scenario (parameters included —
    the frozen-dataclass ``repr``), same method,
    same experiment configuration (seed included), same replay spec.
    """
    payload = json.dumps(
        {
            "scenario": repr(scenario),
            "method": method,
            "experiment": repr(experiment),
            "replay": repr(replay),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _serialize_result(result: NCLResult) -> dict:
    """JSON payload of one completed step's :class:`NCLResult`.

    Persists the scalars and the epoch history — everything the
    accuracy matrix, metrics, and summaries read.  Epoch traces
    (``epoch_costs``/``prepare_cost``, hardware-model op counts) and the
    obs trace are deliberately not persisted: they describe *how* the
    interrupted process ran, are only consumed by same-process analysis,
    and resume restores them empty.
    """
    payload = {name: getattr(result, name) for name in _STEP_FIELDS}
    payload["history"] = [dataclasses.asdict(r) for r in result.history.records]
    return payload


def _deserialize_result(payload: dict, network) -> NCLResult:
    """Rebuild a restored step's :class:`NCLResult` from its payload."""
    try:
        history = TrainingHistory(
            records=[EpochRecord(**record) for record in payload["history"]]
        )
        return NCLResult(
            history=history,
            epoch_costs=[],
            prepare_cost=EpochCost(),
            network=network,
            **{name: payload[name] for name in _STEP_FIELDS},
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"checkpoint step payload is malformed: {error}") from None


@dataclass(frozen=True)
class CheckpointState:
    """Parsed, integrity-checked contents of a checkpoint directory.

    Attributes:
        steps_completed: Number of fully completed (trained + evaluated
            + committed) continual steps; 0 means only pre-training
            finished.
        pretrain_accuracy: The committed ``R[0, 0]`` entry.
        step_names: Labels of the completed steps, in stream order.
        rows: Committed accuracy-matrix rows, one per completed step.
        results: Restored :class:`NCLResult` per completed step.  Only
            the last one carries the restored network (earlier steps'
            networks were not persisted); scalars, histories, and the
            matrix are exact.
        network_state: The :meth:`~repro.snn.network.SpikingNetwork.state_dict`
            snapshot taken after the last completed step.
        federation: ``{"members": [...], "rebalances": n}`` recorded at
            commit time for store-backed runs; None for dense runs.
    """

    steps_completed: int
    pretrain_accuracy: float
    step_names: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    results: tuple[NCLResult, ...]
    network_state: dict[str, dict[str, np.ndarray]]
    federation: dict | None


class ScenarioCheckpoint:
    """One run's checkpoint directory (see the module docstring)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"ScenarioCheckpoint(root={str(self.root)!r})"

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def _archive_name(self, steps_completed: int) -> str:
        return f"network-step-{steps_completed}.npz"

    def save(
        self,
        *,
        fingerprint: str,
        scenario: str,
        method: str,
        steps_completed: int,
        pretrain_accuracy: float,
        step_names: list[str],
        rows: list[list[float]],
        results: list[NCLResult],
        network,
        federation=None,
    ) -> None:
        """Commit the run's state after ``steps_completed`` steps.

        Atomic at the manifest rename: readers either see the previous
        complete checkpoint or this one, never a mixture.
        """
        self.root.mkdir(parents=True, exist_ok=True)

        archive = self._archive_name(steps_completed)
        write_weights(self.root / archive, network.state_dict())
        digest = hashlib.sha256((self.root / archive).read_bytes()).hexdigest()

        manifest = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "scenario": scenario,
            "method": method,
            "steps_completed": steps_completed,
            "pretrain_accuracy": pretrain_accuracy,
            "step_names": list(step_names),
            "rows": [list(row) for row in rows],
            "steps": [_serialize_result(result) for result in results],
            "network_file": archive,
            "network_sha256": digest,
            "federation": federation,
        }
        atomic_write_json(self.root / MANIFEST_NAME, manifest)

        # Only now is the old archive unreachable; drop it (and any
        # strays an earlier crash left behind).
        for stale in self.root.glob("network-step-*.npz"):
            if stale.name != archive:
                stale.unlink()

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, *, fingerprint: str) -> CheckpointState | None:
        """Read and verify the checkpoint; None when none exists yet.

        Raises:
            DataError: On any damage or mismatch — unparseable or
                incomplete manifest, schema-version or fingerprint
                mismatch, missing/truncated/corrupted network archive.
                Never silently falls back to a fresh start.
        """
        path = self.root / MANIFEST_NAME
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise DataError(
                f"checkpoint manifest {path} is unreadable: {error}"
            ) from None
        if not isinstance(manifest, dict):
            raise DataError(f"checkpoint manifest {path} is not a JSON object")

        version = manifest.get("version")
        if version != CHECKPOINT_VERSION:
            raise DataError(
                f"checkpoint at {self.root} has schema version {version!r}, "
                f"this build reads {CHECKPOINT_VERSION}"
            )
        if manifest.get("fingerprint") != fingerprint:
            raise DataError(
                f"checkpoint at {self.root} belongs to a different run "
                "(scenario/method/config/seed/replay fingerprint mismatch); "
                "point --checkpoint-dir elsewhere or delete it to start over"
            )
        try:
            steps_completed = int(manifest["steps_completed"])
            pretrain_accuracy = float(manifest["pretrain_accuracy"])
            step_names = tuple(str(name) for name in manifest["step_names"])
            rows = tuple(
                tuple(float(v) for v in row) for row in manifest["rows"]
            )
            payloads = manifest["steps"]
            archive = str(manifest["network_file"])
            digest = str(manifest["network_sha256"])
            federation = manifest["federation"]
        except (KeyError, TypeError, ValueError) as error:
            raise DataError(
                f"checkpoint manifest {path} is incomplete: {error}"
            ) from None
        if len(step_names) != steps_completed or len(rows) != steps_completed:
            raise DataError(
                f"checkpoint manifest {path} is inconsistent: "
                f"{steps_completed} steps but {len(step_names)} names / "
                f"{len(rows)} matrix rows"
            )
        if len(payloads) != steps_completed:
            raise DataError(
                f"checkpoint manifest {path} is inconsistent: "
                f"{steps_completed} steps but {len(payloads)} step payloads"
            )

        network_state = self._load_archive(archive, digest)
        results = [
            _deserialize_result(payload, None) for payload in payloads
        ]
        return CheckpointState(
            steps_completed=steps_completed,
            pretrain_accuracy=pretrain_accuracy,
            step_names=step_names,
            rows=rows,
            results=tuple(results),
            network_state=network_state,
            federation=federation,
        )

    def _load_archive(
        self, archive: str, digest: str
    ) -> dict[str, dict[str, np.ndarray]]:
        path = self.root / archive
        if not path.exists():
            raise DataError(
                f"checkpoint at {self.root} references missing network "
                f"archive {archive}"
            )
        # Parse the very bytes that were hashed: a second read of the
        # file could see a different archive than the one verified.
        data = path.read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise DataError(
                f"checkpoint network archive {path} is corrupted "
                "(sha256 mismatch — truncated or damaged write)"
            )
        try:
            state, _ = read_weights(data)
        except DataError as error:
            raise DataError(
                f"checkpoint network archive {path} is unreadable: {error}"
            ) from None
        return state
