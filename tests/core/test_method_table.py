"""The closed method table and each method's storage policy."""

import pytest

from repro.config import ExperimentConfig
from repro.core.raw_replay import RawInputReplay
from repro.core.registry import METHODS, available_methods, get_method
from repro.core.replay4ncl import Replay4NCL
from repro.core.spikinglr import SPIKINGLR_COMPRESSION_FACTOR, SpikingLR
from repro.core.strategies import NCLMethod
from repro.errors import ConfigError


class TestMethodTable:
    def test_available_methods_sorted(self):
        assert available_methods() == ["naive", "raw", "replay4ncl", "spikinglr"]

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_get_method_returns_table_class(self, name):
        cls = get_method(name)
        assert cls is METHODS[name]
        assert issubclass(cls, NCLMethod)

    def test_unknown_method_names_the_choices(self):
        with pytest.raises(ConfigError, match=r"unknown method 'sgd'; available: \["):
            get_method("sgd")


class TestStoragePolicy:
    """Replay4NCL and raw replay store uncompressed; SpikingLR cycles 2x."""

    @pytest.mark.parametrize("cls", [Replay4NCL, RawInputReplay])
    def test_uncompressed_methods(self, cls):
        method = cls(ExperimentConfig())
        assert method.compression_factor() == 1
        assert method.decompress_for_replay() is False

    def test_spikinglr_compress_cycle(self):
        method = SpikingLR(ExperimentConfig())
        assert method.compression_factor() == SPIKINGLR_COMPRESSION_FACTOR == 2
        assert method.decompress_for_replay() is True

    def test_raw_replay_runs_at_pretrain_resolution(self):
        config = ExperimentConfig()
        method = RawInputReplay(config)
        assert method.ncl_timesteps() == config.pretrain.timesteps
        assert method.insertion_layer() == 0
