"""Fixture corpus: one firing and one passing fixture per rule.

Each fixture is an inline module linted via ``lint_source`` with a
virtual ``relpath`` that places it inside (or outside) the rule's scope.
"""

from textwrap import dedent

from repro.lint import lint_source


def rule_ids_of(source, relpath):
    return [f.rule for f in lint_source(dedent(source), relpath=relpath)]


class TestGlobalRngRule:
    def test_fires_on_numpy_global_rng(self):
        src = """
        import numpy as np

        def sample():
            return np.random.default_rng().random()
        """
        assert rule_ids_of(src, "repro/snn/foo.py") == ["RPL001"]

    def test_fires_on_stdlib_random(self):
        src = """
        import random

        def sample():
            return random.random()
        """
        assert rule_ids_of(src, "repro/core/foo.py") == ["RPL001"]

    def test_fires_through_import_alias(self):
        src = """
        from numpy import random as nr

        def sample():
            return nr.shuffle([1, 2])
        """
        assert rule_ids_of(src, "repro/core/foo.py") == ["RPL001"]

    def test_passes_explicit_state_constructors(self):
        src = """
        import numpy as np
        import random

        def build(seed):
            keyed = random.Random(seed)
            return np.random.Generator(np.random.PCG64(seed)), keyed
        """
        assert rule_ids_of(src, "repro/snn/foo.py") == []

    def test_passes_threaded_generator_and_seeding_helpers(self):
        src = """
        from repro.seeding import default_rng, spawn

        def sample(rng=None):
            rng = rng or default_rng()
            return rng.random() + spawn(1, "x").random()
        """
        assert rule_ids_of(src, "repro/training/foo.py") == []

    def test_excluded_inside_seeding_module(self):
        src = """
        import numpy as np

        def default_rng(seed=None):
            return np.random.default_rng(seed)
        """
        assert rule_ids_of(src, "repro/seeding.py") == []

    def test_excluded_inside_data_package(self):
        src = """
        import numpy as np

        def synthesize(seed):
            return np.random.default_rng(seed)
        """
        assert rule_ids_of(src, "repro/data/synthetic.py") == []

    def test_local_variable_named_random_is_not_resolved(self):
        src = """
        def run(random):
            return random.random()
        """
        assert rule_ids_of(src, "repro/core/foo.py") == []


class TestWallClockRule:
    def test_fires_on_time_reads(self):
        src = """
        import time

        def stamp():
            return time.time(), time.perf_counter()
        """
        assert rule_ids_of(src, "repro/obs/recorder.py") == ["RPL002", "RPL002"]

    def test_fires_on_datetime_now(self):
        src = """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
        assert rule_ids_of(src, "repro/eval/foo.py") == ["RPL002"]

    def test_passes_injected_clock(self):
        src = """
        def stamp(clock):
            return clock.now()
        """
        assert rule_ids_of(src, "repro/obs/recorder.py") == []

    def test_excluded_inside_clock_modules(self):
        src = """
        import time

        def now():
            return time.monotonic()
        """
        assert rule_ids_of(src, "repro/obs/clock.py") == []


class TestEnvAccessRule:
    def test_fires_on_environ_read(self):
        src = """
        import os

        def cache_root():
            return os.environ.get("REPRO_CACHE", "")
        """
        assert rule_ids_of(src, "repro/eval/foo.py") == ["RPL003"]

    def test_fires_once_per_use(self):
        src = """
        import os

        def flag():
            return os.environ["REPRO_TRACE"]
        """
        findings = lint_source(dedent(src), relpath="repro/obs/foo.py")
        assert [f.rule for f in findings] == ["RPL003"]

    def test_fires_on_getenv_and_from_import(self):
        src = """
        import os
        from os import environ

        def read():
            return os.getenv("X"), environ["Y"]
        """
        assert rule_ids_of(src, "repro/hw/foo.py") == ["RPL003", "RPL003"]

    def test_passes_env_value_helper(self):
        src = """
        from repro.config import env_value

        def cache_root():
            return env_value("REPRO_CACHE")
        """
        assert rule_ids_of(src, "repro/eval/foo.py") == []

    def test_excluded_inside_config_module(self):
        src = """
        import os

        def env_value(name):
            return os.environ.get(name, "")
        """
        assert rule_ids_of(src, "repro/config.py") == []


class TestAtomicWriteRule:
    def test_fires_on_bare_truncating_open(self):
        src = """
        def commit(path, text):
            with open(path, "w") as handle:
                handle.write(text)
        """
        assert rule_ids_of(src, "repro/replaystore/store.py") == ["RPL004"]

    def test_fires_on_json_dump_and_write_text(self):
        src = """
        import json

        def commit(path, payload):
            path.write_text("x")
            with open(path) as handle:
                json.dump(payload, handle)
        """
        assert rule_ids_of(src, "repro/scenario/checkpoint.py") == [
            "RPL004",
            "RPL004",
        ]

    def test_passes_atomic_helpers_and_reads(self):
        src = """
        from repro.ioutil import atomic_write_json

        def commit(path, payload):
            with open(path) as handle:
                handle.read()
            atomic_write_json(path, payload)
        """
        assert rule_ids_of(src, "repro/replaystore/store.py") == []

    def test_passes_write_bytes_for_immutable_shards(self):
        src = """
        def append_shard(path, payload):
            path.write_bytes(payload)
        """
        assert rule_ids_of(src, "repro/replaystore/store.py") == []

    def test_only_applies_to_persistence_modules(self):
        src = """
        def dump(path, text):
            with open(path, "w") as handle:
                handle.write(text)
        """
        assert rule_ids_of(src, "repro/eval/foo.py") == []


class TestErrorTaxonomyRule:
    def test_fires_on_bare_builtin_raises(self):
        src = """
        def check(x):
            if x < 0:
                raise ValueError(f"bad {x}")
            raise RuntimeError
        """
        assert rule_ids_of(src, "repro/core/foo.py") == ["RPL005", "RPL005"]

    def test_passes_taxonomy_and_legitimate_builtins(self):
        src = """
        from repro.errors import ConfigError

        def check(x):
            if x < 0:
                raise ConfigError(f"bad {x}")
            raise NotImplementedError
        """
        assert rule_ids_of(src, "repro/core/foo.py") == []

    def test_passes_bare_reraise(self):
        src = """
        def check(x):
            try:
                x()
            except KeyError:
                raise
        """
        assert rule_ids_of(src, "repro/core/foo.py") == []


class TestLazyStepsRule:
    def test_fires_on_eager_list_return(self):
        src = """
        class Scenario:
            def steps(self):
                return [self._build(i) for i in range(10)]
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == ["RPL006"]

    def test_fires_on_list_call_return(self):
        src = """
        class Scenario:
            def steps(self):
                return list(self._iter())
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == ["RPL006"]

    def test_passes_generator_function(self):
        src = """
        class Scenario:
            def steps(self):
                for i in range(10):
                    yield self._build(i)
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == []

    def test_passes_lazy_iterator_return(self):
        src = """
        class Scenario:
            def steps(self):
                return iter(self._lazy())
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == []

    def test_nested_defs_do_not_mask_eager_return(self):
        src = """
        class Scenario:
            def steps(self):
                def inner():
                    yield 1
                return [step for step in inner()]
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == ["RPL006"]

    def test_only_applies_inside_scenario_package(self):
        src = """
        class NotAScenario:
            def steps(self):
                return [1, 2, 3]
        """
        assert rule_ids_of(src, "repro/eval/foo.py") == []


class TestFrozenSpecRule:
    def test_fires_on_unfrozen_dataclass(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class StepSpec:
            name: str
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == ["RPL007"]

    def test_fires_on_explicit_frozen_false(self):
        src = """
        from dataclasses import dataclass

        @dataclass(frozen=False)
        class StepSpec:
            name: str
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == ["RPL007"]

    def test_passes_frozen_dataclass(self):
        src = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class StepSpec:
            name: str
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == []

    def test_passes_plain_class(self):
        src = """
        class Helper:
            pass
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == []

    def test_only_applies_to_spec_modules(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class MutableAccumulator:
            total: float = 0.0
        """
        assert rule_ids_of(src, "repro/training/foo.py") == []


class TestNoPrintRule:
    def test_fires_on_print_in_library_code(self):
        src = """
        def report(x):
            print(x)
        """
        assert rule_ids_of(src, "repro/core/foo.py") == ["RPL008"]

    def test_passes_shadowed_print(self):
        src = """
        from repro.lint.runner import format_text as print

        def report(findings):
            return print(findings)
        """
        assert rule_ids_of(src, "repro/core/foo.py") == []

    def test_excluded_inside_cli_modules(self):
        src = """
        def main():
            print("hello")
        """
        assert rule_ids_of(src, "repro/cli.py") == []
        assert rule_ids_of(src, "repro/__main__.py") == []


class TestNumpySaveRule:
    def test_fires_on_path_destination(self):
        src = """
        import numpy as np

        def store(path, arr):
            np.savez(path, data=arr)
        """
        assert rule_ids_of(src, "repro/eval/foo.py") == ["RPL009"]

    def test_fires_on_savez_compressed_and_save(self):
        src = """
        import numpy as np

        def store(path, arr):
            np.save(path, arr)
            np.savez_compressed(path, data=arr)
        """
        assert rule_ids_of(src, "repro/data/foo.py") == ["RPL009", "RPL009"]

    def test_fires_through_file_keyword(self):
        src = """
        import numpy as np

        def store(path, arr):
            np.savez(file=path, data=arr)
        """
        assert rule_ids_of(src, "repro/eval/foo.py") == ["RPL009"]

    def test_passes_atomic_open_handle(self):
        src = """
        import numpy as np
        from repro.ioutil import atomic_open

        def store(path, arr):
            with atomic_open(path, "wb") as handle:
                np.savez(handle, data=arr)
        """
        assert rule_ids_of(src, "repro/scenario/foo.py") == []

    def test_fires_on_non_atomic_handle_name(self):
        src = """
        import numpy as np

        def store(path, arr):
            with open(path, "wb") as handle:
                np.savez(handle, data=arr)
        """
        # The bare open is RPL004 territory; the handle it yields is
        # not atomic, so RPL009 still fires on the save call.
        assert "RPL009" in rule_ids_of(src, "repro/eval/foo.py")

    def test_passes_unrelated_savez_attribute(self):
        src = """
        class Archiver:
            def savez(self, path):
                return path

        def store(archiver, path):
            archiver.savez(path)
        """
        assert rule_ids_of(src, "repro/eval/foo.py") == []
