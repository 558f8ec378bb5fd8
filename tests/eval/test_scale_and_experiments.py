"""Tests for scale presets and the experiment registry."""

import io
import struct
import zipfile

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.eval import experiments, get_scale
from repro.eval.scale import SCALES


class TestScalePresets:
    @pytest.mark.parametrize("name", sorted(SCALES))
    def test_presets_construct(self, name):
        preset = get_scale(name)
        assert preset.name == name
        assert preset.shd.num_classes == preset.experiment.network.num_classes

    def test_unknown_scale(self):
        with pytest.raises(ConfigError):
            get_scale("galactic")

    def test_timestep_ratio_invariant(self):
        # DESIGN.md: ncl/pretrain timesteps = 0.4 at every scale, so the
        # 20% latent-memory relationship is scale-invariant.
        for name in SCALES:
            preset = get_scale(name)
            ratio = preset.experiment.ncl.timesteps / preset.experiment.pretrain.timesteps
            assert ratio == pytest.approx(0.4)

    def test_paper_scale_matches_paper(self):
        preset = get_scale("paper")
        assert preset.experiment.network.layer_sizes == (700, 200, 100, 50, 20)
        assert preset.experiment.pretrain.timesteps == 100
        assert preset.experiment.ncl.timesteps == 40
        assert preset.experiment.num_pretrain_classes == 19
        assert preset.experiment.pretrain.learning_rate == pytest.approx(1e-3)

    def test_description(self):
        assert "net=" in get_scale("ci").description


class TestExperimentRegistry:
    def test_registry_covers_every_figure(self):
        expected = {"fig1a", "fig2", "fig8", "fig10", "fig11", "fig12",
                    "fig13", "headline"}
        assert set(experiments.available_experiments()) == expected

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            experiments.run("fig99", scale="ci")

    def test_context_cached(self):
        a = experiments.context("ci")
        b = experiments.context("ci")
        assert a is b

    def test_pretrain_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        experiments._CONTEXTS.clear()
        ctx1 = experiments.context("ci")
        acc1 = ctx1.pretrained.test_accuracy
        # Second context build must load from disk (empty history marks
        # a cache hit) and agree on the accuracy.
        experiments._CONTEXTS.clear()
        ctx2 = experiments.context("ci")
        assert ctx2.pretrained.test_accuracy == pytest.approx(acc1)
        assert len(ctx2.pretrained.history) == 0
        experiments._CONTEXTS.clear()

    @pytest.mark.parametrize("damage", ["truncate", "flip-byte", "wrong-w_rec-shape"])
    def test_damaged_disk_cache_is_a_miss(self, tmp_path, monkeypatch, damage):
        # A damaged archive re-pretrains and rewrites the file instead of
        # crashing every figure run with a raw zipfile error.
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        monkeypatch.setattr(experiments, "_CONTEXTS", {})
        fresh = experiments.context("ci").pretrained.network.state_dict()
        (path,) = tmp_path.glob("pretrain-*.npz")
        raw = bytearray(path.read_bytes())
        if damage == "truncate":
            del raw[len(raw) // 2 :]
        elif damage == "wrong-w_rec-shape":
            # A whole, readable archive whose hidden0/w_rec does not fit
            # the 24-neuron layer.
            with np.load(path) as archive:
                members = {key: archive[key] for key in archive.files}
            members["hidden0/w_rec"] = np.zeros((3, 3), dtype=np.float32)
            buffer = io.BytesIO()
            np.savez(buffer, **members)
            raw = bytearray(buffer.getvalue())
        else:
            # One byte inside the stored w_ff payload: past the zip local
            # header (30 bytes + name + extra) and the 128-byte .npy header.
            with zipfile.ZipFile(path) as archive:
                start = archive.getinfo("hidden0/w_ff.npy").header_offset
            name_len, extra_len = struct.unpack("<HH", raw[start + 26 : start + 30])
            raw[start + 30 + name_len + extra_len + 128 + 8] ^= 0xFF
        path.write_bytes(bytes(raw))

        monkeypatch.setattr(experiments, "_CONTEXTS", {})
        rebuilt = experiments.context("ci").pretrained
        assert len(rebuilt.history) > 0  # pre-trained again, not loaded
        for layer, params in fresh.items():
            for name, value in params.items():
                np.testing.assert_array_equal(
                    rebuilt.network.state_dict()[layer][name], value
                )
        reloaded = experiments._load_pretrained(get_scale("ci"))
        assert reloaded is not None  # the cache file was rewritten whole
        np.testing.assert_array_equal(
            reloaded.network.state_dict()["hidden0"]["w_ff"],
            fresh["hidden0"]["w_ff"],
        )


class TestFigureRuns:
    """End-to-end runs at ci scale for the cheap figures."""

    def test_fig12_runs(self):
        result = experiments.run("fig12", scale="ci")
        savings = result.get_series("memory-saving").y
        assert all(0.0 < s < 0.5 for s in savings)

    def test_fig1a_runs(self):
        result = experiments.run("fig1a", scale="ci")
        assert result.scalars["accuracy_drop"] > 0.0
        assert len(result.get_series("old-tasks").y) == \
            get_scale("ci").experiment.ncl.epochs

    def test_headline_runs(self):
        result = experiments.run("headline", scale="ci")
        for key in ("latency_speedup", "memory_saving", "energy_saving"):
            assert key in result.scalars
        assert result.scalars["latency_speedup"] > 1.0
