"""Validation tests for the configuration dataclasses."""

import pytest

from repro.config import (
    ENV_FLAGS,
    PAPER_LAYER_SIZES,
    ExperimentConfig,
    NCLConfig,
    NetworkConfig,
    PretrainConfig,
    env_flag,
    env_value,
    trace_selection,
)
from repro.errors import ConfigError


class TestNetworkConfig:
    def test_paper_defaults(self):
        cfg = NetworkConfig()
        assert cfg.layer_sizes == PAPER_LAYER_SIZES == (700, 200, 100, 50, 20)
        assert cfg.num_weight_layers == 4  # L=4 as in the paper
        assert cfg.num_classes == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"layer_sizes": (10, 5)},
            {"layer_sizes": (10, 0, 5)},
            {"beta": 0.0},
            {"beta": 1.0},
            {"threshold": 0.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            NetworkConfig(**kwargs)

    def test_replace(self):
        cfg = NetworkConfig().replace(beta=0.9)
        assert cfg.beta == 0.9
        assert NetworkConfig().beta == 0.95  # original untouched


class TestPretrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"timesteps": 0},
            {"batch_size": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            PretrainConfig(**kwargs)

    def test_paper_defaults(self):
        cfg = PretrainConfig()
        assert cfg.learning_rate == pytest.approx(1e-3)  # Alg. 1 line 2
        assert cfg.timesteps == 100


class TestNCLConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timesteps": 0},
            {"learning_rate_divisor": 0.0},
            {"base_learning_rate": 0.0},
            {"insertion_layer": -1},
            {"replay_fraction": 0.0},
            {"replay_fraction": 1.5},
            {"adjust_interval": 0},
            {"epochs": 0},
            {"batch_size": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            NCLConfig(**kwargs)

    def test_paper_defaults(self):
        cfg = NCLConfig()
        assert cfg.timesteps == 40  # Fig. 8 Observation B
        assert cfg.learning_rate_divisor == 100.0  # Alg. 1 line 6
        assert cfg.adjust_interval == 5  # Alg. 1 inputs
        assert cfg.insertion_layer == 3  # the headline layer


class TestExperimentConfig:
    def test_defaults_are_paper(self):
        cfg = ExperimentConfig()
        assert cfg.num_pretrain_classes == 19  # 19+1 class-incremental

    def test_rejects_bad_class_count(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(num_pretrain_classes=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(num_pretrain_classes=20)

    def test_rejects_insertion_beyond_network(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(ncl=NCLConfig(insertion_layer=4))

    def test_rejects_bad_sample_counts(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(samples_per_class=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(test_samples_per_class=0)

    def test_replace_revalidates(self):
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError):
            cfg.replace(num_pretrain_classes=25)


class TestEnvFlags:
    """The consolidated REPRO_* environment-variable registry."""

    def test_declared_flags_are_complete(self):
        names = [flag.name for flag in ENV_FLAGS]
        assert names == [
            "REPRO_BENCH_SCALE",
            "REPRO_CACHE",
            "REPRO_TRACE",
        ]
        assert len(set(names)) == len(names)

    def test_every_flag_documented(self):
        for flag in ENV_FLAGS:
            assert flag.name.startswith("REPRO_")
            assert flag.description and flag.values and flag.default is not None

    def test_env_flag_lookup(self):
        assert env_flag("REPRO_CACHE").default == "./.repro_cache"
        with pytest.raises(ConfigError, match="declared flags"):
            env_flag("REPRO_TURBO")

    @pytest.mark.parametrize("name", [flag.name for flag in ENV_FLAGS])
    def test_env_value_defaults_when_unset(self, monkeypatch, name):
        monkeypatch.delenv(name, raising=False)
        assert env_value(name) == env_flag(name).default

    def test_env_value_reads_the_environment_raw(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "  ./cache dir ")
        assert env_value("REPRO_CACHE") == "  ./cache dir "

    def test_env_value_follows_every_environment_write(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "ci")
        assert env_value("REPRO_BENCH_SCALE") == "ci"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert env_value("REPRO_BENCH_SCALE") == "paper"
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert env_value("REPRO_BENCH_SCALE") == "bench"

    def test_env_value_rejects_undeclared_flags(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH", "0")
        with pytest.raises(ConfigError, match="declared flags"):
            env_value("REPRO_PREFETCH")

    def test_trace_selection_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert trace_selection() == (False, None)

    @pytest.mark.parametrize("raw", ["0", "false", "OFF", ""])
    def test_trace_selection_off_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE", raw)
        assert trace_selection() == (False, None)

    @pytest.mark.parametrize("raw", ["1", "true", "ON"])
    def test_trace_selection_on_without_path(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE", raw)
        assert trace_selection() == (True, None)

    def test_trace_selection_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "  /tmp/run/trace.jsonl  ")
        assert trace_selection() == (True, "/tmp/run/trace.jsonl")
