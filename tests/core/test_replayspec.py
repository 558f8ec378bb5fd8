"""ReplaySpec: validation and promotion into every run entry point.

One frozen, validated object for all replay/store configuration.  The
legacy per-entry-point kwargs (``replay_store_dir``, ``store_root``,
``store_shard_samples``, ...) shipped one deprecation cycle as warning
shims and are now gone: passing them is a ``TypeError``, and the specs
below are the only spelling.
"""

import numpy as np
import pytest

from repro.core import NaiveFinetune, Replay4NCL, ReplaySpec
from repro.errors import ConfigError


class TestReplaySpecValidation:
    def test_default_is_dense(self):
        spec = ReplaySpec()
        assert not spec.store_backed
        assert spec.describe() == "dense in-memory replay"

    def test_store_dir_normalised_to_path(self, tmp_path):
        from pathlib import Path

        spec = ReplaySpec(store_dir=str(tmp_path / "store"))
        assert isinstance(spec.store_dir, Path)
        assert spec.store_backed

    def test_store_options_require_store_dir(self):
        with pytest.raises(ConfigError, match="require store_dir"):
            ReplaySpec(shard_samples=4)
        with pytest.raises(ConfigError, match="require store_dir"):
            ReplaySpec(prefetch=True)
        with pytest.raises(ConfigError, match="require store_dir"):
            ReplaySpec(overwrite=True)
        with pytest.raises(ConfigError, match="require store_dir"):
            ReplaySpec(federation_budget_bytes=1024)

    def test_invalid_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="shard_samples"):
            ReplaySpec(store_dir=tmp_path, shard_samples=0)
        with pytest.raises(ConfigError, match="federation_budget_bytes"):
            ReplaySpec(store_dir=tmp_path, federation_budget_bytes=-1)

    def test_member_view(self, tmp_path):
        spec = ReplaySpec(
            store_dir=tmp_path,
            shard_samples=8,
            prefetch=False,
            federation_budget_bytes=4096,
        )
        member = spec.member("step-001")
        assert member.store_dir == tmp_path / "step-001"
        assert member.shard_samples == 8
        assert member.prefetch is False
        # Federation-level fields are stripped: the runner owns them.
        assert member.federation_budget_bytes is None

    def test_prefetch_has_no_effect(
        self, ci_pretrained, ci_split, ci_preset, tmp_path, monkeypatch
    ):
        from repro.replaystore.prefetch import PrefetchingStream

        def refuse(*args, **kwargs):
            raise AssertionError("the library must not build PrefetchingStream")

        monkeypatch.setattr(PrefetchingStream, "__init__", refuse)
        runs = [
            Replay4NCL(ci_preset.experiment).run(
                ci_pretrained.network,
                ci_split,
                replay=ReplaySpec(
                    store_dir=tmp_path / f"store-{mode}", prefetch=mode
                ),
            )
            for mode in (None, True, False)
        ]
        reference = runs[0]
        for other in runs[1:]:
            assert other.history == reference.history
            for p_ref, p_other in zip(
                reference.network.parameters(), other.network.parameters()
            ):
                np.testing.assert_array_equal(p_ref.data, p_other.data)

    def test_member_requires_store(self):
        with pytest.raises(ConfigError, match="store-backed"):
            ReplaySpec().member("step-000")

    def test_fields_are_the_five_store_options(self):
        # run_fingerprint hashes repr(replay): these names are its input.
        import dataclasses

        assert [f.name for f in dataclasses.fields(ReplaySpec)] == [
            "store_dir",
            "shard_samples",
            "overwrite",
            "prefetch",
            "federation_budget_bytes",
        ]

    @pytest.mark.parametrize(
        "knob, value", [("federation_policy", "fifo"), ("federation_seed", 7)]
    )
    def test_eviction_rule_knobs_are_gone(self, tmp_path, knob, value):
        with pytest.raises(TypeError, match=knob):
            ReplaySpec(store_dir=tmp_path, **{knob: value})

    def test_federation_options_rejected_on_single_run(
        self, ci_pretrained, ci_split, ci_preset, tmp_path
    ):
        method = Replay4NCL(ci_preset.experiment)
        spec = ReplaySpec(store_dir=tmp_path, federation_budget_bytes=4096)
        with pytest.raises(ConfigError, match="multi-step"):
            method.run(ci_pretrained.network, ci_split, replay=spec)

    def test_bare_path_promoted_to_spec(
        self, ci_pretrained, ci_split, ci_preset, tmp_path
    ):
        result = Replay4NCL(ci_preset.experiment).run(
            ci_pretrained.network,
            ci_split,
            replay=tmp_path / "store",
        )
        assert result.replay_store_path == str(tmp_path / "store")


class TestLegacyKwargsRemoved:
    """The deprecated kwargs are gone, not silently accepted."""

    def test_method_run_rejects_legacy_kwargs(
        self, ci_pretrained, ci_split, ci_preset, tmp_path
    ):
        method = NaiveFinetune(ci_preset.experiment)
        with pytest.raises(TypeError):
            method.run(
                ci_pretrained.network,
                ci_split,
                replay_store_dir=tmp_path / "store",
            )

    def test_method_run_rejects_non_spec_replay(
        self, ci_pretrained, ci_split, ci_preset
    ):
        with pytest.raises(ConfigError, match="ReplaySpec or a store path"):
            Replay4NCL(ci_preset.experiment).run(
                ci_pretrained.network,
                ci_split,
                replay=42,
            )
