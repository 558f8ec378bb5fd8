"""Micro-benchmarks of the library's hot paths (wall-clock).

These are conventional pytest-benchmark timings (many rounds) of the
kernels the figure experiments are built from: the SNN forward pass at
the paper's two timestep settings, the BPTT training step, the fused
sequence kernels against their per-step reference, and the Fig. 7
codec.  They exist so regressions in the substrate show up
independently of the (analytically-modelled) paper metrics.

Sizes honour ``REPRO_BENCH_SCALE`` (``ci`` shrinks timesteps/batch for
a smoke pass; ``bench`` is the default; ``paper`` matches the paper's
SHD setting).  ``benchmarks/check_regression.py`` runs this file at the
``ci`` scale and gates CI on the fused-vs-per-step speedup plus the
committed timing baseline.
"""

import os

import numpy as np
import pytest

from repro.autograd import cross_entropy
from repro.compression import BitpackCodec, TemporalSubsampleCodec
from repro.config import NetworkConfig
from repro.snn import LIFParameters, RecurrentLIFLayer, SpikingNetwork
from repro.training import Adam

#: (T_pretrain, T_ncl, batch) per scale; mirrors Fig. 8's 100-vs-40
#: timestep comparison at bench scale.
_SCALE_SIZES = {
    "ci": (40, 16, 4),
    "bench": (100, 40, 8),
    "paper": (100, 40, 32),
}


def _sizes():
    scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
    if scale not in _SCALE_SIZES:
        # Fail fast: a typo'd scale would silently benchmark the wrong
        # workload and poison baseline comparisons.
        raise ValueError(
            f"unknown REPRO_BENCH_SCALE {scale!r}; expected one of "
            f"{sorted(_SCALE_SIZES)}"
        )
    return _SCALE_SIZES[scale]


@pytest.fixture(scope="module")
def network():
    return SpikingNetwork(
        NetworkConfig(layer_sizes=(140, 64, 48, 32, 10), beta=0.95), seed=0
    )


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def _raster(rng, timesteps, batch=8, channels=140):
    return (rng.random((timesteps, batch, channels)) < 0.05).astype(np.float32)


def test_forward_t100(benchmark, network, rng):
    t_long, _, batch = _sizes()
    x = _raster(rng, t_long, batch)
    network.set_trainable(False)
    benchmark(lambda: network.forward(x))
    network.set_trainable(True)


def test_forward_t40(benchmark, network, rng):
    _, t_short, batch = _sizes()
    x = _raster(rng, t_short, batch)
    network.set_trainable(False)
    benchmark(lambda: network.forward(x))
    network.set_trainable(True)


def test_bptt_training_step_t40(benchmark, network, rng):
    _, t_short, batch = _sizes()
    x = _raster(rng, t_short, batch)
    labels = rng.integers(0, 10, batch)
    optimizer = Adam(network.trainable_parameters(), learning_rate=1e-4)

    def step():
        result = network.forward(x)
        loss = cross_entropy(result.logits, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()

    benchmark(step)


# ----------------------------------------------------------------------
# Fused sequence kernel vs. the per-step reference (single LIF layer,
# forward + backward).  check_regression.py asserts the speedup ratio of
# this pair, so the two benches must stay workload-identical.
# ----------------------------------------------------------------------

def _lif_layer():
    return RecurrentLIFLayer(
        140, 64, LIFParameters(beta=0.95), recurrent=True,
        rng=np.random.default_rng(0),
    )


def _lif_forward_backward(layer, x, g_up):
    out = layer.forward(x)
    out.backward(g_up)
    for p in layer.parameters():
        p.zero_grad()


@pytest.fixture(scope="module")
def lif_workload(rng):
    t_long, _, batch = _sizes()
    x = _raster(rng, t_long, batch)
    g_up = rng.standard_normal((t_long, batch, 64)).astype(np.float32)
    return x, g_up


def test_fused_lif_forward_backward(benchmark, lif_workload):
    layer = _lif_layer()
    layer.use_fused = True
    x, g_up = lif_workload
    benchmark(_lif_forward_backward, layer, x, g_up)
    assert layer.last_forward_path == "fused"


def test_per_step_lif_forward_backward(benchmark, lif_workload):
    layer = _lif_layer()
    layer.use_fused = False
    x, g_up = lif_workload
    benchmark(_lif_forward_backward, layer, x, g_up)
    assert layer.last_forward_path == "steps"


# ----------------------------------------------------------------------
# Per-backend rows: the same fused workloads pinned to each registered
# kernel backend (REPRO_BACKEND).  Unavailable backends skip, so the
# rows degrade gracefully on runners without a C compiler;
# check_regression.py asserts the C backend beats numpy on at least one
# kernel whenever its rows are present.
# ----------------------------------------------------------------------

_BACKEND_NAMES = ("numpy", "c")


def _require_backend(name, monkeypatch):
    from repro.snn import backends

    executor = backends.get_backend(name)
    ok, reason = executor.availability()
    if not ok:
        pytest.skip(f"backend {name!r} unavailable: {reason}")
    monkeypatch.setenv("REPRO_BACKEND", name)


@pytest.mark.parametrize("backend_name", _BACKEND_NAMES)
def test_backend_lif_forward_backward(
    benchmark, lif_workload, backend_name, monkeypatch
):
    _require_backend(backend_name, monkeypatch)
    layer = _lif_layer()
    layer.use_fused = True
    x, g_up = lif_workload
    benchmark(_lif_forward_backward, layer, x, g_up)
    assert layer.last_forward_path == "fused"


@pytest.mark.parametrize("backend_name", _BACKEND_NAMES)
def test_backend_readout_forward_backward(benchmark, rng, backend_name, monkeypatch):
    from repro.autograd import Tensor
    from repro.snn.kernels import leaky_readout_sequence

    _require_backend(backend_name, monkeypatch)
    t_long, _, batch = _sizes()
    x = (rng.random((t_long, batch, 64)) < 0.1).astype(np.float32)
    w = (np.random.default_rng(1).standard_normal((64, 10)) * 0.3).astype(np.float32)
    g_up = np.ones((t_long, batch, 10), dtype=np.float32)

    def run():
        w_out = Tensor(w, requires_grad=True)
        trajectory = leaky_readout_sequence(Tensor(x), w_out, beta=0.9)
        trajectory.backward(g_up)

    benchmark(run)


# ----------------------------------------------------------------------
# Tracing overhead: exactly the obs calls one fused LIF forward+backward
# issues (2x counter + 2x span) with tracing disabled, i.e. the no-op
# cost the instrumentation adds to every kernel sweep when REPRO_TRACE
# is off.  check_regression.py gates this row at < 2% of the fused
# kernel's own mean so the disabled path stays effectively free.
# ----------------------------------------------------------------------

def test_trace_disabled_overhead(benchmark, monkeypatch):
    from repro import obs

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert not obs.enabled()

    def disabled_calls():
        obs.count("kernel.calls", backend="numpy", kernel="lif_forward")
        with obs.span("kernel.lif_forward", category="kernel", backend="numpy"):
            pass
        obs.count("kernel.calls", backend="numpy", kernel="lif_backward")
        with obs.span("kernel.lif_backward", category="kernel", backend="numpy"):
            pass

    benchmark(disabled_calls)


def test_subsample_codec_roundtrip(benchmark, rng):
    raster = (rng.random((100, 64, 64)) < 0.1).astype(np.float32)
    codec = TemporalSubsampleCodec(2)
    benchmark(lambda: codec.decompress(codec.compress(raster), 100))


def test_bitpack_roundtrip(benchmark, rng):
    raster = (rng.random((100, 64, 64)) < 0.1).astype(np.float32)
    codec = BitpackCodec()

    def roundtrip():
        packed, shape = codec.compress(raster)
        return codec.decompress(packed, shape)

    benchmark(roundtrip)


def test_store_shard_roundtrip(benchmark, rng):
    """Replay-store shard encode+decode (the store-backed replay path's
    per-cache-miss cost); in-memory so the timing is filesystem-free."""
    from repro.replaystore import decode_shard, encode_shard

    t_long, _, batch = _sizes()
    raster = (rng.random((t_long, 8 * batch, 64)) < 0.1).astype(np.float32)
    labels = rng.integers(0, 10, 8 * batch)

    benchmark(lambda: decode_shard(encode_shard(raster, labels)))


def test_checkpoint_roundtrip(benchmark, network, tmp_path):
    """Scenario checkpoint commit + verified restore (the crash-safe
    resume path's per-step-boundary cost: network archive write, sha256,
    atomic manifest rename, then a full integrity-checked load)."""
    from repro.core.strategies import EpochCost, NCLResult
    from repro.scenario.checkpoint import ScenarioCheckpoint, run_fingerprint
    from repro.training.metrics import EpochRecord, TrainingHistory

    results = [
        NCLResult(
            method="replay4ncl",
            insertion_layer=2,
            timesteps=16,
            history=TrainingHistory(
                records=[EpochRecord(epoch=e, loss=1.0 / (e + 1)) for e in range(4)]
            ),
            final_old_accuracy=0.5,
            final_new_accuracy=0.5,
            final_overall_accuracy=0.5,
            latent_storage_bytes=1024,
            latent_stored_frames=16,
            epoch_costs=[],
            prepare_cost=EpochCost(),
            network=network,
        )
        for _ in range(2)
    ]
    checkpoint = ScenarioCheckpoint(tmp_path / "ckpt")
    fingerprint = run_fingerprint(
        scenario="bench", method="replay4ncl", experiment="bench", replay=None
    )

    def roundtrip():
        checkpoint.save(
            fingerprint=fingerprint,
            scenario="bench",
            method="replay4ncl",
            steps_completed=len(results),
            pretrain_accuracy=0.9,
            step_names=[f"step-{k}" for k in range(len(results))],
            rows=[[0.5] * (k + 2) for k in range(len(results))],
            results=results,
            network=network,
        )
        return checkpoint.load(fingerprint=fingerprint)

    state = benchmark(roundtrip)
    assert state.steps_completed == len(results)
