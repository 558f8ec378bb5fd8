"""Resume == straight-through: the checkpoint subsystem's contract.

The harness kills a real child process (``os._exit``, no cleanup, no
``atexit`` — the closest a test gets to a power cut) at **every step
boundary** of a ci-scale streaming run, resumes from the surviving
checkpoint, and asserts the resumed run's accuracy/forgetting/BWT
matrices and final network weights are bitwise-identical to a run that
was never interrupted.

Corrupted checkpoints are the other half of the contract: a truncated
archive, a garbage manifest, a foreign fingerprint, or an inconsistent
step count must raise a clear :class:`~repro.errors.DataError` — never
silently restart and discard completed work.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import ReplaySpec
from repro.errors import ConfigError, DataError
from repro.eval.scale import get_scale
from repro.obs import Recorder, use_recorder
from repro.scenario import ScenarioCheckpoint, run_scenario
from repro.scenario.checkpoint import MANIFEST_NAME, run_fingerprint
from repro.snn.network import SpikingNetwork, write_weights

SRC = Path(__file__).resolve().parents[2] / "src"

#: The streaming scenario at ci scale yields exactly this many steps
#: (2 tasks x 2 chunks); the kill matrix covers every boundary.
TOTAL_STEPS = 4

KILL_EXIT_CODE = 42

#: Driver the harness runs in a real child process: complete steps
#: 0..K, commit each, then die hard at the step-K boundary.
_CRASHING_DRIVER = """
import os, sys
from repro.eval.scale import get_scale
from repro.scenario import run_scenario

kill_after, checkpoint_dir = int(sys.argv[1]), sys.argv[2]
preset = get_scale("ci")
experiment = preset.experiment.replace(
    samples_per_class=4,
    test_samples_per_class=2,
    pretrain=preset.experiment.pretrain.replace(epochs=1),
    ncl=preset.experiment.ncl.replace(epochs=1),
)


def kill_at_boundary(index, result):
    if index == kill_after:
        os._exit(42)  # a power cut, not an exception


run_scenario(
    "streaming",
    "replay4ncl",
    experiment=experiment,
    checkpoint=checkpoint_dir,
    on_step=kill_at_boundary,
)
sys.exit(1)  # unreachable when the kill fired
"""


def make_experiment():
    preset = get_scale("ci")
    return preset.experiment.replace(
        samples_per_class=4,
        test_samples_per_class=2,
        pretrain=preset.experiment.pretrain.replace(epochs=1),
        ncl=preset.experiment.ncl.replace(epochs=1),
    )


def crash_at_step(kill_after: int, checkpoint_dir: Path) -> None:
    """Run the driver in a subprocess; assert it died at the boundary."""
    proc = subprocess.run(
        [sys.executable, "-c", _CRASHING_DRIVER, str(kill_after), str(checkpoint_dir)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == KILL_EXIT_CODE, (
        f"driver should have died at step {kill_after} with exit "
        f"{KILL_EXIT_CODE}, got {proc.returncode}:\n{proc.stderr}"
    )


@pytest.fixture(scope="module")
def straight_through():
    """The reference: the same run, never interrupted, no checkpoint."""
    return run_scenario("streaming", "replay4ncl", experiment=make_experiment())


def assert_results_identical(resumed, reference):
    """Bitwise equality of everything the checkpoint promises to preserve."""
    assert resumed.scenario == reference.scenario
    assert resumed.method == reference.method
    assert resumed.step_names == reference.step_names
    assert resumed.pretrain_accuracy == reference.pretrain_accuracy
    # NaN-aware elementwise equality over the full matrix.
    np.testing.assert_array_equal(
        resumed.accuracy_matrix, reference.accuracy_matrix
    )
    assert len(resumed.steps) == len(reference.steps)
    for a, b in zip(resumed.steps, reference.steps):
        assert a.final_old_accuracy == b.final_old_accuracy
        assert a.final_new_accuracy == b.final_new_accuracy
        assert a.final_overall_accuracy == b.final_overall_accuracy
        assert a.history.records == b.history.records
    state_a = resumed.steps[-1].network.state_dict()
    state_b = reference.steps[-1].network.state_dict()
    assert state_a.keys() == state_b.keys()
    for layer in state_a:
        assert state_a[layer].keys() == state_b[layer].keys()
        for param in state_a[layer]:
            np.testing.assert_array_equal(state_a[layer][param], state_b[layer][param])


class TestKillAtEveryBoundary:
    @pytest.mark.parametrize("kill_after", range(TOTAL_STEPS))
    def test_resume_is_bitwise_identical(
        self, kill_after, tmp_path, straight_through
    ):
        checkpoint_dir = tmp_path / "ckpt"
        crash_at_step(kill_after, checkpoint_dir)
        # The surviving checkpoint holds exactly the killed run's
        # committed prefix...
        manifest = json.loads((checkpoint_dir / MANIFEST_NAME).read_text())
        assert manifest["steps_completed"] == kill_after + 1
        # ...and the resumed second half reproduces the never-interrupted
        # run bit for bit.
        resumed = run_scenario(
            "streaming",
            "replay4ncl",
            experiment=make_experiment(),
            checkpoint=checkpoint_dir,
            resume=True,
        )
        assert_results_identical(resumed, straight_through)


class TestRestoredDtype:
    def test_float64_checkpoint_resumes_on_float32_kernels(self, tmp_path):
        # A checkpoint whose readout weights were saved float64 (as the
        # NCL phase once left them) must resume on the float32 kernels,
        # not on the numpy reference.
        checkpoint_dir = tmp_path / "ckpt"
        common = dict(experiment=make_experiment(), checkpoint=checkpoint_dir)
        run_scenario("sequential", "replay4ncl", max_steps=1, **common)
        manifest_path = checkpoint_dir / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        archive = checkpoint_dir / manifest["network_file"]
        with np.load(archive) as data:
            flat = {key: data[key] for key in data.files}
        flat = {
            key: value.astype(np.float64) if key.startswith("readout/") else value
            for key, value in flat.items()
        }
        np.savez(archive, **flat)
        manifest["network_sha256"] = hashlib.sha256(archive.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))

        with use_recorder(Recorder()) as recorder:
            resumed = run_scenario("sequential", "replay4ncl", resume=True, **common)
        calls = [m for m in recorder.metrics() if m.name == "kernel.calls"]
        assert {"readout_forward", "readout_backward"} <= {
            m.tag_dict()["kernel"] for m in calls
        }
        assert {m.tag_dict()["dtype"] for m in calls} == {"float32"}
        state = resumed.steps[-1].network.state_dict()
        assert {w.dtype for params in state.values() for w in params.values()} == {
            np.dtype(np.float32)
        }


class TestCleanInterruption:
    def test_stop_after_then_resume(self, tmp_path, straight_through):
        # max_steps is the cooperative interruption (the CLI's
        # --stop-after): same contract as the hard kill.
        checkpoint_dir = tmp_path / "ckpt"
        partial = run_scenario(
            "streaming",
            "replay4ncl",
            experiment=make_experiment(),
            checkpoint=checkpoint_dir,
            max_steps=2,
        )
        assert len(partial.steps) == 2
        resumed = run_scenario(
            "streaming",
            "replay4ncl",
            experiment=make_experiment(),
            checkpoint=checkpoint_dir,
            resume=True,
        )
        assert_results_identical(resumed, straight_through)

    def test_checkpointing_does_not_perturb_the_run(
        self, tmp_path, straight_through
    ):
        checkpointed = run_scenario(
            "streaming",
            "replay4ncl",
            experiment=make_experiment(),
            checkpoint=tmp_path / "ckpt",
        )
        assert_results_identical(checkpointed, straight_through)

    def test_resume_of_a_finished_run_is_a_no_op_replay(
        self, tmp_path, straight_through
    ):
        checkpoint_dir = tmp_path / "ckpt"
        run_scenario(
            "streaming",
            "replay4ncl",
            experiment=make_experiment(),
            checkpoint=checkpoint_dir,
        )
        resumed = run_scenario(
            "streaming",
            "replay4ncl",
            experiment=make_experiment(),
            checkpoint=checkpoint_dir,
            resume=True,
        )
        assert_results_identical(resumed, straight_through)

    def test_resume_from_empty_directory_is_a_fresh_start(
        self, tmp_path, straight_through
    ):
        # Absent is not corrupt: first launch with --resume just runs.
        resumed = run_scenario(
            "streaming",
            "replay4ncl",
            experiment=make_experiment(),
            checkpoint=tmp_path / "never-written",
            resume=True,
        )
        assert_results_identical(resumed, straight_through)


@pytest.fixture()
def committed_checkpoint(tmp_path):
    """A valid one-step checkpoint to damage in the corruption tests."""
    checkpoint_dir = tmp_path / "ckpt"
    run_scenario(
        "streaming",
        "replay4ncl",
        experiment=make_experiment(),
        checkpoint=checkpoint_dir,
        max_steps=1,
    )
    return checkpoint_dir


def resume(checkpoint_dir, experiment=None):
    return run_scenario(
        "streaming",
        "replay4ncl",
        experiment=experiment or make_experiment(),
        checkpoint=checkpoint_dir,
        resume=True,
    )


class TestCorruptionIsNeverSilent:
    def test_truncated_archive(self, committed_checkpoint):
        archive = next(committed_checkpoint.glob("network-step-*.npz"))
        archive.write_bytes(archive.read_bytes()[:100])
        with pytest.raises(DataError, match="sha256 mismatch"):
            resume(committed_checkpoint)

    def test_garbage_manifest(self, committed_checkpoint):
        (committed_checkpoint / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(DataError, match="unreadable"):
            resume(committed_checkpoint)

    def test_manifest_not_an_object(self, committed_checkpoint):
        (committed_checkpoint / MANIFEST_NAME).write_text("[1, 2, 3]\n")
        with pytest.raises(DataError, match="not a JSON object"):
            resume(committed_checkpoint)

    def test_unknown_schema_version(self, committed_checkpoint):
        path = committed_checkpoint / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["version"] = 999
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="schema version"):
            resume(committed_checkpoint)

    def test_foreign_fingerprint(self, committed_checkpoint):
        # A different seed is a different run; its checkpoint must not
        # be continued.
        other = make_experiment().replace(seed=1234)
        with pytest.raises(DataError, match="different run"):
            resume(committed_checkpoint, experiment=other)

    def test_inconsistent_step_count(self, committed_checkpoint):
        path = committed_checkpoint / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["steps_completed"] = 3
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="inconsistent"):
            resume(committed_checkpoint)

    def test_missing_archive(self, committed_checkpoint):
        next(committed_checkpoint.glob("network-step-*.npz")).unlink()
        with pytest.raises(DataError, match="missing network archive"):
            resume(committed_checkpoint)

    def test_malformed_step_payload(self, committed_checkpoint):
        path = committed_checkpoint / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        del manifest["steps"][0]["final_overall_accuracy"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="malformed"):
            resume(committed_checkpoint)

    def test_incomplete_manifest(self, committed_checkpoint):
        path = committed_checkpoint / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        del manifest["network_file"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="incomplete"):
            resume(committed_checkpoint)

    def test_drifted_stream_rejected(self, committed_checkpoint):
        # Same fingerprint inputs but a stream whose step names changed
        # (here: recorded names tampered) cannot be fast-forwarded.
        path = committed_checkpoint / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["step_names"][0] = "step-0: something else entirely"
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="stream changed"):
            resume(committed_checkpoint)


class TestArchiveReadOnce:
    def test_archive_edited_after_hash_is_not_read(self, tmp_path, monkeypatch):
        # The archive bytes that pass the sha256 check are the bytes the
        # weights come from: an archive swapped on disk after the hash
        # was taken must not be the one loaded.
        config = make_experiment().network
        saved, other = SpikingNetwork(config, seed=0), SpikingNetwork(config, seed=1)
        checkpoint = ScenarioCheckpoint(tmp_path / "ckpt")
        checkpoint.save(
            fingerprint="run", scenario="s", method="m", steps_completed=0,
            pretrain_accuracy=0.5, step_names=[], rows=[], results=[],
            network=saved,
        )
        archive = next((tmp_path / "ckpt").glob("network-step-*.npz"))
        write_weights(tmp_path / "other.npz", other.state_dict())
        swapped = (tmp_path / "other.npz").read_bytes()
        real_read_bytes = Path.read_bytes
        reads = []

        def read_then_swap(path):
            data = real_read_bytes(path)
            if path == archive:
                reads.append(path)
                path.write_bytes(swapped)
            return data

        monkeypatch.setattr(Path, "read_bytes", read_then_swap)
        state = checkpoint.load(fingerprint="run").network_state
        assert reads == [archive]
        for layer, params in saved.state_dict().items():
            for name, value in params.items():
                np.testing.assert_array_equal(state[layer][name], value)


class TestArgumentValidation:
    def test_resume_without_checkpoint(self):
        with pytest.raises(ConfigError, match="requires a checkpoint"):
            run_scenario(
                "streaming",
                "replay4ncl",
                experiment=make_experiment(),
                resume=True,
            )

    def test_non_positive_max_steps(self, tmp_path):
        with pytest.raises(ConfigError, match="max_steps"):
            run_scenario(
                "streaming",
                "replay4ncl",
                experiment=make_experiment(),
                checkpoint=tmp_path / "ckpt",
                max_steps=0,
            )

    def test_fingerprint_covers_the_whole_address(self):
        experiment = make_experiment()
        base = run_fingerprint(
            scenario="s", method="m", experiment=experiment, replay=None
        )
        assert base != run_fingerprint(
            scenario="s2", method="m", experiment=experiment, replay=None
        )
        assert base != run_fingerprint(
            scenario="s", method="m2", experiment=experiment, replay=None
        )
        assert base != run_fingerprint(
            scenario="s",
            method="m",
            experiment=experiment.replace(seed=7),
            replay=None,
        )
        assert base != run_fingerprint(
            scenario="s",
            method="m",
            experiment=experiment,
            replay=ReplaySpec(store_dir="/x"),
        )


class TestStoreBackedResume:
    def test_interrupted_store_backed_run_resumes_bitwise(self, tmp_path):
        experiment = make_experiment()
        spec = ReplaySpec(store_dir=tmp_path / "fed-ref", shard_samples=4)
        reference = run_scenario(
            "streaming", "replay4ncl", experiment=experiment, replay=spec
        )
        resumed_spec = ReplaySpec(store_dir=tmp_path / "fed", shard_samples=4)
        checkpoint_dir = tmp_path / "ckpt"
        run_scenario(
            "streaming",
            "replay4ncl",
            experiment=experiment,
            replay=resumed_spec,
            checkpoint=checkpoint_dir,
            max_steps=2,
        )
        resumed = run_scenario(
            "streaming",
            "replay4ncl",
            experiment=experiment,
            replay=resumed_spec,
            checkpoint=checkpoint_dir,
            resume=True,
        )
        assert resumed.store_root == str(tmp_path / "fed")
        assert resumed.step_names == reference.step_names
        np.testing.assert_array_equal(
            resumed.accuracy_matrix, reference.accuracy_matrix
        )
        state_a = resumed.steps[-1].network.state_dict()
        state_b = reference.steps[-1].network.state_dict()
        for layer in state_a:
            for param in state_a[layer]:
                np.testing.assert_array_equal(
                    state_a[layer][param], state_b[layer][param]
                )

    def test_diverged_federation_rejected(self, tmp_path):
        experiment = make_experiment()
        spec = ReplaySpec(store_dir=tmp_path / "fed", shard_samples=4)
        checkpoint_dir = tmp_path / "ckpt"
        run_scenario(
            "streaming",
            "replay4ncl",
            experiment=experiment,
            replay=spec,
            checkpoint=checkpoint_dir,
            max_steps=1,
        )
        # The federation moves on behind the checkpoint's back (an extra
        # rebalance pass would shift its rng stream): resuming would fork
        # the trajectory, so it must refuse.
        from repro.replaystore.federation import FEDERATION_INDEX_NAME

        index_path = tmp_path / "fed" / FEDERATION_INDEX_NAME
        index = json.loads(index_path.read_text())
        index["rebalances"] = index.get("rebalances", 0) + 1
        index_path.write_text(json.dumps(index))
        with pytest.raises(DataError, match="diverged"):
            run_scenario(
                "streaming",
                "replay4ncl",
                experiment=experiment,
                replay=spec,
                checkpoint=checkpoint_dir,
                resume=True,
            )


class TestCheckpointHygiene:
    def test_stale_archives_are_garbage_collected(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        run_scenario(
            "streaming",
            "replay4ncl",
            experiment=make_experiment(),
            checkpoint=checkpoint_dir,
        )
        archives = sorted(p.name for p in checkpoint_dir.glob("*.npz"))
        assert archives == [f"network-step-{TOTAL_STEPS}.npz"]
        assert not list(checkpoint_dir.glob("*.tmp"))

    def test_checkpoint_repr_names_its_root(self, tmp_path):
        assert str(tmp_path) in repr(ScenarioCheckpoint(tmp_path))
