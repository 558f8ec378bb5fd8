"""Federated replay: store-backed sequential step time and rebalance.

- ``test_sequential_step`` — a full store-backed ``run_scenario`` (2
  continual steps, ci experiment scale, replay persisted into a per-step
  federation) timed end to end.  Each step reads its member store back
  once, so the row's ``extra_info`` records one shard decode per stored
  shard per step.
- ``test_federated_rebalance`` times the between-steps budget-eviction
  pass (class-balanced survivor choice + cross-member shard rewrite),
  sized by ``REPRO_BENCH_SCALE`` like the other storage benches.
"""

import itertools
import os
import shutil

import numpy as np
import pytest

from repro import obs
from repro.replaystore import FederatedReplayStore, ReplayStore

#: (stored_frames, samples per member, channels, shard_samples)
_SCALE_SIZES = {
    "ci": (16, 48, 48, 8),
    "bench": (40, 192, 128, 16),
    "paper": (40, 768, 256, 32),
}


def _sizes():
    scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
    if scale not in _SCALE_SIZES:
        raise ValueError(
            f"unknown REPRO_BENCH_SCALE {scale!r}; expected one of "
            f"{sorted(_SCALE_SIZES)}"
        )
    return _SCALE_SIZES[scale]


# ----------------------------------------------------------------------
# Store-backed sequential NCL, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sequential_scenario():
    """Generator, experiment and pre-trained network at the ci experiment scale.

    The experiment scale stays ``ci`` regardless of REPRO_BENCH_SCALE:
    the row isolates the storage path's contribution to step time, and
    larger simulator workloads only drown it in SNN compute.
    """
    from repro.core.pipeline import pretrain
    from repro.data.synthetic_shd import SyntheticSHD
    from repro.data.tasks import make_class_incremental
    from repro.eval.scale import get_scale

    preset = get_scale("ci")
    generator = SyntheticSHD(preset.shd, seed=preset.experiment.seed)
    exp = preset.experiment.replace(num_pretrain_classes=3)
    base_split = make_class_incremental(
        generator,
        exp.samples_per_class,
        exp.test_samples_per_class,
        num_pretrain_classes=3,
    )
    pretrained = pretrain(exp, base_split)
    return generator, exp, pretrained


def test_sequential_step(benchmark, sequential_scenario, tmp_path):
    from repro.core import Replay4NCL, ReplaySpec
    from repro.scenario import SequentialScenario, run_scenario

    generator, exp, pretrained = sequential_scenario
    counter = itertools.count()

    def step():
        root = tmp_path / f"fed-{next(counter)}"
        return run_scenario(
            SequentialScenario(steps_count=2, base_classes=3),
            Replay4NCL,
            generator=generator,
            experiment=exp,
            pretrained=pretrained,
            replay=ReplaySpec(store_dir=root, shard_samples=8),
        )

    result = benchmark(step)
    assert result.store_root is not None
    # One untimed traced run: every step decodes each of its shards once.
    recorder = obs.Recorder()
    with obs.use_recorder(recorder):
        traced = step()
    decoded = sum(e.total for e in recorder.metrics() if e.name == "store.shards_decoded")
    federation = FederatedReplayStore.open(traced.store_root)
    shards = sum(store.num_shards for _name, store in federation.members())
    benchmark.extra_info["shards_decoded"] = decoded
    benchmark.extra_info["shards_stored"] = shards
    assert decoded == shards


# ----------------------------------------------------------------------
# Between-steps maintenance: budgeted cross-member eviction
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def federation(tmp_path_factory):
    frames, samples, channels, shard_samples = _sizes()
    rng = np.random.default_rng(0)
    root = tmp_path_factory.mktemp("bench-federation") / "fed"
    fed = FederatedReplayStore.create(root)
    for k in range(3):
        store = ReplayStore.create(
            root / f"task-{k}",
            stored_frames=frames,
            num_channels=channels,
            generated_timesteps=frames,
            shard_samples=shard_samples,
        )
        store.append(
            (rng.random((frames, samples, channels)) < 0.1).astype(np.float32),
            rng.integers(0, 10, samples),
        )
        fed.adopt(f"task-{k}")
    return fed


def test_federated_rebalance(benchmark, federation, tmp_path):
    """Budget-eviction pass between steps: survivor choice + member rewrite."""
    source = federation

    def rebalance():
        # Fresh copy per round: rebalance mutates the member stores.
        root = tmp_path / "round"
        if root.exists():
            shutil.rmtree(root)
        shutil.copytree(source.root, root)
        fed = FederatedReplayStore.open(root)
        fed.configure(budget_bytes=fed.bytes_for(fed.num_samples // 2))
        return fed.rebalance()

    result = benchmark(rebalance)
    assert result > 0
