"""End-to-end tracing: parity, full span tree, env-driven export.

The acceptance bar of the observability PR: tracing must never touch the
numeric path (traced and untraced ``run_scenario`` runs are bitwise
identical), and a traced ci-scale run must record the full hierarchy —
scenario steps over epochs over kernel sweeps over shard decodes.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import ReplaySpec
from repro.core.pipeline import pretrain
from repro.data.synthetic_shd import SyntheticSHD
from repro.eval.scale import get_scale
from repro.obs import Recorder, TraceReport, read_jsonl, to_chrome, use_recorder
from repro.scenario import get, run_scenario


@pytest.fixture(scope="module")
def env():
    preset = get_scale("ci")
    experiment = preset.experiment.replace(
        ncl=preset.experiment.ncl.replace(epochs=3)
    )
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    return generator, experiment


@pytest.fixture(scope="module")
def shared(env):
    """Scenario + pretraining shared by every run in this module."""
    generator, experiment = env
    scenario = get("single-step")
    first = next(iter(scenario.steps(generator, experiment)))
    pretrained = pretrain(experiment, first.split)
    return dict(
        generator=generator, experiment=experiment, pretrained=pretrained
    )


class TestParity:
    def test_traced_run_is_bitwise_identical(self, shared, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        untraced = run_scenario(get("single-step"), "replay4ncl", **shared)
        assert untraced.trace is None
        with use_recorder(Recorder()):
            traced = run_scenario(get("single-step"), "replay4ncl", **shared)
        assert isinstance(traced.trace, TraceReport)
        np.testing.assert_array_equal(
            traced.accuracy_matrix, untraced.accuracy_matrix
        )
        for a, b in zip(traced.steps, untraced.steps):
            assert a.final_new_accuracy == b.final_new_accuracy
            assert a.final_old_accuracy == b.final_old_accuracy
            assert a.history.losses == b.history.losses


class TestFullTree:
    @pytest.fixture(scope="class")
    def traced(self, shared, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs-integration") / "fed"
        with use_recorder(Recorder()) as recorder:
            result = run_scenario(
                get("single-step"),
                "replay4ncl",
                replay=ReplaySpec(store_dir=root, shard_samples=4),
                **shared,
            )
        return result, recorder

    def test_all_layers_recorded(self, traced):
        result, _ = traced
        names = {s.name for s in result.trace.spans}
        assert {
            "scenario.run",
            "scenario.pretrain",
            "scenario.step",
            "scenario.eval",
            "ncl.prepare",
            "ncl.train",
            "train.epoch",
            "train.eval",
            "kernel.lif_forward",
            "kernel.readout_forward",
            # NCL trains above the insertion layer only, so the backward
            # sweep reaches the readout kernel (frozen layers skip BPTT).
            "kernel.readout_backward",
            "store.encode_shard",
            "store.decode_shard",
            "store.gather",
        } <= names

    def test_kernel_spans_nest_under_epochs_under_steps(self, traced):
        result, _ = traced
        report = result.trace
        by_id = {s.span_id: s for s in report.spans}

        def ancestors(span):
            seen = []
            while span.parent_id is not None and span.parent_id in by_id:
                span = by_id[span.parent_id]
                seen.append(span.name)
            return seen

        # At Lins=3 the learning part is the readout alone: per-epoch
        # evaluation runs no LIF layer (the frozen front's test-set
        # activations are computed once per NCL run, outside the epochs).
        kernel = next(
            s for s in report.spans if s.name == "kernel.readout_forward"
            and "train.epoch" in ancestors(s)
        )
        chain = ancestors(kernel)
        assert "train.epoch" in chain
        assert "ncl.train" in chain
        assert "scenario.step" in chain
        assert chain[-1] == "scenario.run"

    def test_epoch_spans_carry_loss(self, traced):
        result, _ = traced
        epochs = [s for s in result.trace.spans if s.name == "train.epoch"]
        assert epochs
        assert all("loss" in s.attrs for s in epochs)

    def test_store_metrics_recorded(self, traced):
        result, _ = traced
        names = {m.name for m in result.trace.metrics}
        assert {
            "kernel.calls",
            "store.bytes_encoded",
            "store.bytes_decoded",
            "store.shards_decoded",
        } <= names

    def test_ncl_results_carry_their_own_trace(self, traced):
        result, _ = traced
        step = result.steps[0]
        assert isinstance(step.trace, TraceReport)
        assert "ncl.train" in {s.name for s in step.trace.spans}

    def test_chrome_export_covers_every_span(self, traced):
        result, _ = traced
        payload = to_chrome(result.trace.spans)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == result.trace.num_spans


class TestEnvExport:
    def test_trace_path_writes_jsonl_on_completion(
        self, shared, monkeypatch, tmp_path
    ):
        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(target))
        result = run_scenario(get("single-step"), "replay4ncl", **shared)
        assert result.trace is not None
        assert target.exists()
        spans, metrics = read_jsonl(target)
        names = {s.name for s in spans}
        assert "scenario.run" in names and "kernel.lif_forward" in names
        assert any(m.name == "kernel.calls" for m in metrics)


class TestDtypeCensus:
    """Every kernel call of a ci-scale run, pre-training included, is
    float32: ``kernel.calls`` counters and ``kernel.*`` spans carry the
    sweep's ``dtype`` tag, so a promoted layer shows up in any trace."""

    @pytest.mark.parametrize("insertion", [3, 2], ids=lambda i: f"L{i}")
    def test_single_step_run_calls_only_float32_kernels(self, env, insertion):
        generator, _ = env
        experiment = get_scale("ci").experiment
        experiment = experiment.replace(ncl=experiment.ncl.replace(insertion_layer=insertion))
        with use_recorder(Recorder()) as recorder:
            run_scenario(
                get("single-step"), "replay4ncl", generator=generator, experiment=experiment
            )
        calls = [m for m in recorder.metrics() if m.name == "kernel.calls"]
        kernels = {m.tag_dict()["kernel"] for m in calls}
        assert {"lif_forward", "lif_backward", "readout_forward", "readout_backward"} <= kernels
        assert {m.tag_dict()["dtype"] for m in calls} == {"float32"}
        spans = [s for s in recorder.spans() if s.name.startswith("kernel.")]
        assert spans and {s.attrs["dtype"] for s in spans} == {"float32"}
