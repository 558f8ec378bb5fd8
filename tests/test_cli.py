"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig12"])
        assert args.experiment == "fig12"
        assert args.scale == "bench"
        assert args.save_dir is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "headline" in out
        assert "ci" in out and "paper" in out
        # The registries surface here too, not just figures/scales.
        assert "scenarios:" in out and "domain-incremental" in out
        assert "methods:" in out and "replay4ncl" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Replay4NCL" in out

    def test_backends_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_BACKEND=numpy" in out
        for name in ("numpy", "c"):
            assert name in out
        assert "* numpy" in out  # the selected row is starred

    def test_backends_unsatisfiable_selection(self, capsys, monkeypatch):
        from repro.snn import backends

        monkeypatch.setattr(
            backends.get_backend("c"),
            "availability",
            lambda: (False, "no C compiler (cc / gcc / clang) on PATH"),
        )
        monkeypatch.setenv("REPRO_BACKEND", "c")
        assert main(["backends"]) == 2
        captured = capsys.readouterr()
        # The table still prints (diagnostic), the error goes to stderr.
        assert "unavailable" in captured.out
        assert "'c'" in captured.err

    def test_run_fig12_ci(self, capsys, tmp_path):
        code = main(["run", "fig12", "--scale", "ci", "--save-dir", str(tmp_path),
                     "--no-plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert (tmp_path / "fig12.json").exists()
        assert (tmp_path / "fig12.csv").exists()

    def test_unknown_experiment_is_clean_error(self, capsys):
        assert main(["run", "fig99", "--scale", "ci"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_scale_is_clean_error(self, capsys):
        assert main(["run", "fig12", "--scale", "galactic"]) == 2
        assert "error:" in capsys.readouterr().err


class TestScenarioCommands:
    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "single-step",
            "sequential",
            "task-incremental",
            "domain-incremental",
            "blurry",
        ):
            assert name in out
        assert "methods:" in out and "spikinglr" in out

    def test_scenario_run_ci(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        assert main(["scenario", "run", "single-step", "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'single-step'" in out
        assert "average accuracy" in out and "backward transfer" in out

    def test_scenario_run_store_backed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        root = tmp_path / "fed"
        assert main([
            "scenario", "run", "single-step", "--scale", "ci",
            "--store-dir", str(root), "--shard-samples", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert f"replay federation: {root}" in out
        assert (root / "federation.json").exists()

    def test_scenario_run_task_incremental(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        assert main(["scenario", "run", "task-incremental", "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'task-incremental'" in out
        assert "task-incremental eval: readout masked" in out

    def test_steps_override(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        assert main([
            "scenario", "run", "sequential", "--scale", "ci", "--steps", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 step(s)" in out

    def test_steps_rejected_for_single_step(self, capsys):
        assert main([
            "scenario", "run", "single-step", "--scale", "ci", "--steps", "3",
        ]) == 2
        assert "does not take --steps" in capsys.readouterr().err

    def test_unknown_scenario_is_clean_error(self, capsys):
        assert main(["scenario", "run", "task-free", "--scale", "ci"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_store_flags_require_store_dir(self, capsys):
        assert main([
            "scenario", "run", "single-step", "--scale", "ci",
            "--shard-samples", "4",
        ]) == 2
        assert "require --store-dir" in capsys.readouterr().err


class TestTraceCommands:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.obs import ManualClock, Recorder, write_jsonl

        clock = ManualClock()
        recorder = Recorder(clock=clock)
        with recorder.span("scenario.run", category="scenario"):
            clock.advance(0.5)
            with recorder.span("train.epoch", category="train", epoch=0):
                clock.advance(0.25)
        recorder.count("kernel.calls", backend="numpy", kernel="lif_forward")
        return str(
            write_jsonl(tmp_path / "trace.jsonl", recorder.spans(), recorder.metrics())
        )

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_summary(self, capsys, trace_file):
        assert main(["trace", "summary", trace_file]) == 0
        out = capsys.readouterr().out
        assert "2 spans, 1 metric series" in out
        assert "scenario.run" in out and "train.epoch" in out
        assert "kernel.calls{backend=numpy,kernel=lif_forward}" in out

    def test_summary_top_limits_rows(self, capsys, trace_file):
        assert main(["trace", "summary", trace_file, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario.run" in out  # the longer span wins the one slot
        assert "train.epoch" not in out.split("metric")[0]

    def test_summary_tree(self, capsys, trace_file):
        assert main(["trace", "summary", trace_file, "--tree"]) == 0
        out = capsys.readouterr().out
        assert "  train.epoch" in out  # indented under scenario.run

    def test_export_default_output(self, capsys, trace_file, tmp_path):
        import json

        assert main(["trace", "export", trace_file]) == 0
        out = capsys.readouterr().out
        assert "wrote 2 spans" in out
        converted = tmp_path / "trace.chrome.json"
        assert converted.exists()
        payload = json.loads(converted.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert names == {"scenario.run", "train.epoch"}

    def test_export_explicit_output(self, capsys, trace_file, tmp_path):
        target = tmp_path / "custom.json"
        assert main(["trace", "export", trace_file, "-o", str(target)]) == 0
        assert target.exists()

    def test_missing_trace_is_clean_error(self, capsys, tmp_path):
        assert main(["trace", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture
def store_dir(tmp_path):
    from repro.replaystore import ReplayStore

    rng = np.random.default_rng(0)
    store = ReplayStore.create(
        tmp_path / "store",
        stored_frames=10,
        num_channels=8,
        generated_timesteps=10,
        shard_samples=4,
    )
    store.append(
        (rng.random((10, 11, 8)) < 0.2).astype(np.float32),
        rng.integers(0, 3, 11),
    )
    return str(store.root)


class TestStoreCommands:
    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_inspect(self, capsys, store_dir):
        assert main(["store", "inspect", store_dir]) == 0
        out = capsys.readouterr().out
        assert "shard-00000.bin" in out
        assert "shard-00002.bin" in out

    def test_stats(self, capsys, store_dir):
        assert main(["store", "stats", store_dir]) == 0
        out = capsys.readouterr().out
        assert "samples:" in out and "11 in 3 shards" in out
        assert "model bytes:" in out

    def test_compact(self, capsys, store_dir):
        assert main(["store", "compact", store_dir, "--shard-samples", "11"]) == 0
        assert "3 -> 1 shards" in capsys.readouterr().out

    def test_missing_store_is_clean_error(self, capsys, tmp_path):
        assert main(["store", "stats", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestStoreFederate:
    @pytest.fixture
    def federation_root(self, tmp_path):
        from repro.replaystore import ReplayStore

        rng = np.random.default_rng(0)
        root = tmp_path / "fed"
        for k in range(2):
            store = ReplayStore.create(
                root / f"task-{k}",
                stored_frames=10,
                num_channels=8,
                generated_timesteps=10,
                shard_samples=4,
            )
            store.append(
                (rng.random((10, 9, 8)) < 0.2).astype(np.float32),
                np.full(9, k),
            )
        return str(root)

    def test_federate_discovers_and_adopts(self, capsys, federation_root):
        assert main(["store", "federate", federation_root]) == 0
        out = capsys.readouterr().out
        assert "adopted task-0 (9 samples)" in out
        assert "adopted task-1 (9 samples)" in out
        assert "samples:        18" in out

    def test_federate_with_budget_rebalances(self, capsys, federation_root):
        assert main(
            ["store", "federate", federation_root, "--budget-bytes", "280"]
        ) == 0
        out = capsys.readouterr().out
        assert "budget:" in out and "evicted this pass" in out

    def test_federate_is_rerunnable(self, capsys, federation_root):
        assert main(["store", "federate", federation_root]) == 0
        capsys.readouterr()
        # Second invocation reopens the index and finds nothing new.
        assert main(["store", "federate", federation_root]) == 0
        out = capsys.readouterr().out
        assert "adopted" not in out
        assert "members=2" in out

    def test_explicit_member_list(self, capsys, federation_root):
        assert main(
            ["store", "federate", federation_root, "--members", "task-1"]
        ) == 0
        assert "adopted task-1" in capsys.readouterr().out

    def test_unknown_policy_is_clean_error(self, capsys, federation_root):
        assert main(
            ["store", "federate", federation_root, "--policy", "lru"]
        ) == 2
        assert "unknown eviction policy" in capsys.readouterr().err

    def test_budget_retrofits_onto_existing_federation(
        self, capsys, federation_root
    ):
        # Regression: flags passed on a re-run must update the stored
        # ledger, not be silently discarded in favour of the old one.
        assert main(["store", "federate", federation_root]) == 0
        capsys.readouterr()
        assert main(
            ["store", "federate", federation_root, "--budget-bytes", "280"]
        ) == 0
        out = capsys.readouterr().out
        assert "budget:" in out
        assert "0 evicted this pass" not in out  # the new cap forced eviction
        from repro.replaystore import FederatedReplayStore

        federation = FederatedReplayStore.open(federation_root)
        assert federation.budget_bytes == 280
        assert not federation.over_budget()
