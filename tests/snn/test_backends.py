"""Parity, fallback and probe tests for the one kernel executor.

The C kernels are pinned bitwise (``np.array_equal``) to the numpy
reference sweeps; a failed probe, or arrays the kernels do not take,
run those reference sweeps instead.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
import repro
from repro import config, obs
from repro.autograd import Tensor
from repro.snn import backends
from repro.snn.backends import CffiExecutor, SweepSpec
from repro.snn.backends import cffi_c, numpy_ref
from repro.snn.kernels import leaky_readout_sequence, lif_sequence
from repro.snn.layers import RecurrentLIFLayer
from repro.snn.neurons import LIFParameters
from repro.snn.threshold import PerNeuronAdaptiveThreshold


def _unchecked_c():
    """A C executor probed without its self-check.

    The parity tests below are that check at full strength: a kernel
    that breaks bitwise parity fails them here, where a self-checked
    executor would turn unavailable and skip them.
    """
    executor = CffiExecutor()
    executor._self_check = lambda: None
    return executor


C_EXECUTOR = _unchecked_c()
C_AVAILABLE, C_REASON = C_EXECUTOR.availability()
needs_c = pytest.mark.skipif(not C_AVAILABLE, reason=f"C backend: {C_REASON}")


#: The active executor's own probe result (it builds the kernels).
ACTIVE_PROBE = backends.active().availability()


def _pin(monkeypatch, name):
    """Run the active executor's sweeps on ``name`` by forcing its probe result."""
    assert ACTIVE_PROBE[0] or name == "numpy", ACTIVE_PROBE[1]
    monkeypatch.setattr(backends.active(), "_probe", (name == "c", ACTIVE_PROBE[1]))


# ----------------------------------------------------------------------
# Parity: every backend pinned to the numpy reference sweeps.
# ----------------------------------------------------------------------

#: LIF operating points: ``NetworkConfig``'s default (beta 0.95, Vthr
#: 1.0), the one every run trains; a leakier, lower-threshold neuron; and
#: a fast-leak, low-threshold one that fires most (about 40% of the
#: time on these inputs, often on consecutive steps, so the hard reset
#: runs back to back).  An executor that folded either constant into its
#: kernel would pass at one point only.
_SPECS = {
    "lif": SweepSpec(beta=0.9, vthr=0.65),
    "lif-config": SweepSpec(beta=0.95, vthr=1.0),
    "lif-saturated": SweepSpec(beta=0.5, vthr=0.25),
}


#: (B, N) sweep shapes: B = 1 takes BLAS's gemv, and B = 36, N = 64 (the
#: bench shape) reaches the blocked gemm kernels a toy shape never does.
_SHAPES = [pytest.param(b, n, id=f"B{b}-N{n}") for b in (1, 2, 36) for n in (6, 64)]


#: Sweep lengths: T = 1 runs no carry (and no recurrent product), T = 2
#: the first carry, longer sweeps the steady state.
_TIMESTEPS = [1, 2, 6]


def _w_rec(rng, n_out, dtype=np.float32):
    return (rng.standard_normal((n_out, n_out)) * 0.4).astype(dtype)


def _executors():
    return [
        pytest.param(C_EXECUTOR if C_AVAILABLE else None, id="c", marks=needs_c)
    ]


def _assert_parity(executor, got, want):
    assert np.array_equal(np.asarray(got), np.asarray(want)), "bitwise parity violated"


def _assert_route(calls, dtype):
    """float32 sweeps run the C kernels; float64 ones the reference only."""
    assert bool(calls) == (np.dtype(dtype) == np.float32)


class TestSweepParity:
    @pytest.mark.parametrize("executor", _executors())
    @pytest.mark.parametrize("spec_name", sorted(_SPECS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("timesteps", _TIMESTEPS, ids=lambda t: f"T{t}")
    @pytest.mark.parametrize("batch,n_out", _SHAPES)
    def test_lif_sweeps_match_reference(
        self, monkeypatch, executor, spec_name, dtype, timesteps, batch, n_out
    ):
        calls = _count_kernel_calls(monkeypatch, executor)
        spec = _SPECS[spec_name]
        rng = np.random.default_rng(7)
        ff = rng.standard_normal((timesteps, batch, n_out)).astype(dtype)
        w_rec = _w_rec(rng, n_out, dtype)
        want_m, want_s, want_vthr = numpy_ref.lif_forward_sweep(ff, w_rec, spec)
        got_m, got_s, got_vthr = executor.lif_forward(ff, w_rec, spec)
        _assert_parity(executor, got_m, want_m)
        _assert_parity(executor, got_s, want_s)
        assert got_vthr is spec.vthr and want_vthr is spec.vthr

        g = rng.standard_normal(ff.shape).astype(dtype)
        surrogate = rng.random(ff.shape).astype(dtype)
        want_g = numpy_ref.lif_reverse_sweep(g, surrogate, want_m, want_s, w_rec, spec)
        got_g = executor.lif_backward(g, surrogate, got_m, got_s, w_rec, spec)
        _assert_parity(executor, got_g, want_g)
        _assert_route(calls, dtype)

    @pytest.mark.parametrize("executor", _executors())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("timesteps", _TIMESTEPS, ids=lambda t: f"T{t}")
    @pytest.mark.parametrize(
        "batch,classes", [(1, 4), (3, 5), (36, 20)], ids=["B1-C4", "B3-C5", "B36-C20"]
    )
    def test_readout_sweeps_match_reference(
        self, monkeypatch, executor, dtype, timesteps, batch, classes
    ):
        calls = _count_kernel_calls(monkeypatch, executor)
        rng = np.random.default_rng(11)
        projected = rng.standard_normal((timesteps, batch, classes)).astype(dtype)
        _assert_parity(
            executor,
            executor.readout_forward(projected, 0.8),
            numpy_ref.readout_forward_sweep(projected, 0.8),
        )
        g = rng.standard_normal(projected.shape).astype(dtype)
        _assert_parity(
            executor,
            executor.readout_backward(g, 0.8),
            numpy_ref.readout_backward_sweep(g, 0.8),
        )
        _assert_route(calls, dtype)

    @pytest.mark.parametrize("executor", _executors())
    @pytest.mark.parametrize("spec_name", sorted(_SPECS))
    @pytest.mark.parametrize("per_neuron", [True, False], ids=["per-neuron", "scalar"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("timesteps", [3, 8], ids=lambda t: f"T{t}")
    @pytest.mark.parametrize("batch,n_out", _SHAPES)
    def test_controller_sweeps_match_reference(
        self, monkeypatch, executor, spec_name, per_neuron, dtype, timesteps, batch, n_out
    ):
        """A dynamic threshold drives both executors' sweeps identically."""
        calls = _count_kernel_calls(monkeypatch, executor)
        spec = replace(_SPECS[spec_name], vthr=None)
        rng = np.random.default_rng(13)
        ff = (rng.standard_normal((timesteps, batch, n_out)) * 0.8).astype(dtype)
        w_rec = _w_rec(rng, n_out, dtype)

        def controller():
            if per_neuron:
                return PerNeuronAdaptiveThreshold(
                    num_neurons=n_out, timesteps=8, adjust_interval=2
                )
            return oracle.ScalarAdaptiveThreshold(timesteps=8, adjust_interval=2)

        want = numpy_ref.lif_forward_sweep(ff, w_rec, spec, controller())
        got = executor.lif_forward(ff, w_rec, spec, controller())
        assert want[2].shape == (timesteps, n_out) and want[2].dtype == dtype
        assert len(np.unique(want[2])) > 1  # the threshold really moved
        for g, w in zip(got, want):
            _assert_parity(executor, g, w)

        g = rng.standard_normal(ff.shape).astype(dtype)
        surrogate = rng.random(ff.shape).astype(dtype)
        _assert_parity(
            executor,
            executor.lif_backward(g, surrogate, got[0], got[1], w_rec, spec),
            numpy_ref.lif_reverse_sweep(g, surrogate, want[0], want[1], w_rec, spec),
        )
        _assert_route(calls, dtype)

    @needs_c
    def test_single_timestep_edge(self):
        """T=1 exercises the no-carry branches of every sweep."""
        spec = _SPECS["lif"]
        rng = np.random.default_rng(3)
        ff = rng.standard_normal((1, 2, 4)).astype(np.float32)
        w_rec = _w_rec(rng, 4)
        executor = CffiExecutor()
        m, s, _ = executor.lif_forward(ff, w_rec, spec)
        want = numpy_ref.lif_forward_sweep(ff, w_rec, spec)
        _assert_parity(executor, m, want[0])
        _assert_parity(executor, s, want[1])
        g = rng.standard_normal(ff.shape).astype(np.float32)
        _assert_parity(
            executor,
            executor.lif_backward(g, np.ones_like(g), m, s, w_rec, spec),
            numpy_ref.lif_reverse_sweep(g, np.ones_like(g), *want[:2], w_rec, spec),
        )


def _count_kernel_calls(monkeypatch, executor) -> list:
    """Record the name of every C kernel ``executor`` calls from now on."""
    calls = []

    class CountingLib:
        def __init__(self, lib):
            self._lib = lib

        def __getattr__(self, name):
            kernel = getattr(self._lib, name)

            def counted(*args):
                calls.append(name)
                return kernel(*args)

            return counted

    monkeypatch.setattr(executor, "_lib", CountingLib(executor._lib))
    return calls


@needs_c
class TestCBackendThroughKernels:
    """End-to-end: the fused kernels produce bitwise-identical training
    quantities (outputs *and* gradients) on the C kernels and on the
    reference a failed probe leaves."""

    def _grads(self, monkeypatch, backend_name):
        _pin(monkeypatch, backend_name)
        params = LIFParameters(beta=0.9, threshold=0.6)
        rng = np.random.default_rng(0)
        x = Tensor((rng.random((7, 3, 5)) < 0.3).astype(np.float32))
        w_ff = Tensor(
            rng.standard_normal((5, 6)).astype(np.float32) * 0.5, requires_grad=True
        )
        w_rec = Tensor(
            rng.standard_normal((6, 6)).astype(np.float32) * 0.3, requires_grad=True
        )
        w_out = Tensor(
            rng.standard_normal((6, 4)).astype(np.float32) * 0.5, requires_grad=True
        )

        spikes = lif_sequence(x, w_ff, params, w_rec=w_rec)
        trajectory = leaky_readout_sequence(spikes, w_out, beta=0.8)
        trajectory.backward(trajectory.data * 2.0)  # d sum(logits^2)
        return {
            "spikes": spikes.data.copy(),
            "trajectory": trajectory.data.copy(),
            "gw_ff": w_ff.grad.copy(),
            "gw_rec": w_rec.grad.copy(),
            "gw_out": w_out.grad.copy(),
        }

    def test_bitwise_training_quantities(self, monkeypatch):
        reference = self._grads(monkeypatch, "numpy")
        compiled = self._grads(monkeypatch, "c")
        for key, want in reference.items():
            assert np.array_equal(compiled[key], want), f"{key} diverged bitwise"

    def test_masked_readout_gradients_bitwise(self, monkeypatch):
        """A class mask keeps the logits and every gradient float32, so
        the masked backward runs the kernels and c == numpy holds."""
        from repro.config import NetworkConfig
        from repro.snn.network import SpikingNetwork
        from repro.training.losses import readout_cross_entropy

        x = (np.random.default_rng(0).random((10, 3, 12)) < 0.3).astype(np.float32)
        grads = {}
        for name in ("numpy", "c"):
            _pin(monkeypatch, name)
            net = SpikingNetwork(NetworkConfig(layer_sizes=(12, 8, 6, 4)), seed=1)
            logits = net.forward(x, class_mask=np.array([1, 1, 0, 0], bool)).logits
            assert logits.data.dtype == np.float32
            readout_cross_entropy(logits, np.array([0, 1, 0])).backward()
            grads[name] = [p.grad for p in net.parameters()]
            assert all(g.dtype == np.float32 for g in grads[name])
        for got, want in zip(grads["c"], grads["numpy"]):
            assert np.array_equal(got, want)

    def test_controller_layer_bitwise_across_backends(self, monkeypatch):
        """A layer under a per-neuron controller: c == numpy bitwise; the
        oracle's outputs are bitwise and its gradients within tolerance."""
        rng = np.random.default_rng(9)
        x = (rng.random((12, 3, 5)) < 0.4).astype(np.float32)
        g_up = rng.standard_normal((12, 3, 6)).astype(np.float32)
        layer = RecurrentLIFLayer(
            5, 6, LIFParameters(beta=0.9), rng=np.random.default_rng(4)
        )
        runs = {}
        for name in ("numpy", "c"):
            _pin(monkeypatch, name)
            controller = PerNeuronAdaptiveThreshold(num_neurons=6, timesteps=12)
            out = layer.forward(x, controller)
            out.backward(g_up)
            runs[name] = [out.data.copy()] + [p.grad for p in layer.parameters()]
            for p in layer.parameters():
                p.zero_grad()
        controller = PerNeuronAdaptiveThreshold(num_neurons=6, timesteps=12)
        spikes, backward = oracle.layer_forward(layer, x, controller)
        runs["oracle"] = [spikes, *backward(g_up)[1:]]
        for got, want in zip(runs["c"], runs["numpy"]):
            assert np.array_equal(got, want), "c diverged bitwise"
        assert np.array_equal(runs["oracle"][0], runs["numpy"][0])
        oracle.assert_grads_close(runs["numpy"][1:], runs["oracle"][1:])

    @pytest.mark.parametrize("spec_name", sorted(_SPECS))
    def test_static_recurrent_sweep_is_one_kernel_call(self, monkeypatch, spec_name):
        """No per-timestep Python loop: one C call per direction."""
        executor = CffiExecutor()
        assert executor.availability()[0]
        calls = _count_kernel_calls(monkeypatch, executor)
        spec = _SPECS[spec_name]
        rng = np.random.default_rng(2)
        ff = rng.standard_normal((20, 36, 64)).astype(np.float32)
        w_rec = (rng.standard_normal((64, 64)) * 0.2).astype(np.float32)
        membrane, spikes, _ = executor.lif_forward(ff, w_rec, spec)
        assert calls == ["lif_forward"]
        executor.lif_backward(ff, np.ones_like(ff), membrane, spikes, w_rec, spec)
        assert calls == ["lif_forward", "lif_backward"]

    def test_unsupported_dtype_falls_back_to_reference(self):
        executor = CffiExecutor()
        spec = _SPECS["lif"]
        rng = np.random.default_rng(1)
        ff = rng.standard_normal((4, 2, 3)).astype(np.float16)
        w_rec = _w_rec(rng, 3, np.float16)
        want = numpy_ref.lif_forward_sweep(ff, w_rec, spec)
        got = executor.lif_forward(ff, w_rec, spec)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _kernel_tags(recorder) -> set:
    """``(kernel, backend, dtype)`` of every ``kernel.calls`` series and span."""
    calls = {
        (m.tag_dict()["kernel"], m.tag_dict()["backend"], m.tag_dict()["dtype"])
        for m in recorder.metrics()
        if m.name == "kernel.calls"
    }
    spans = {
        (s.name.removeprefix("kernel."), s.attrs["backend"], s.attrs["dtype"])
        for s in recorder.spans()
        if s.category == "kernel"
    }
    assert calls == spans
    return calls


def _network_pass(seed=1):
    """One training forward + backward of a small network: logits and grads."""
    from repro.config import NetworkConfig
    from repro.snn.network import SpikingNetwork
    from repro.training.losses import readout_cross_entropy

    x = (np.random.default_rng(seed).random((10, 3, 12)) < 0.3).astype(np.float32)
    net = SpikingNetwork(NetworkConfig(layer_sizes=(12, 8, 6, 4)), seed=seed)
    logits = net.forward(x).logits
    readout_cross_entropy(logits, np.array([0, 1, 3])).backward()
    return [logits.data.copy()] + [p.grad.copy() for p in net.parameters()]


def _raise(error):
    def fail(*args):
        raise error

    return fail


#: How a probe can fail: cause -> (setup on monkeypatch, needs a built
#: library, a word its reason carries).
_PROBE_FAILURES = {
    "no-cffi": (lambda mp: mp.setitem(sys.modules, "cffi", None), False, "cffi"),
    "no-compiler": (
        lambda mp: mp.setattr(cffi_c, "_find_compiler", lambda: None), False, "compiler"
    ),
    "no-blas": (
        lambda mp: mp.setattr(
            cffi_c, "_bind_numpy_blas", _raise(OSError("undefined symbol: cblas_sgemm"))
        ),
        True,
        "BLAS",
    ),
    "self-check": (
        lambda mp: mp.setattr(
            CffiExecutor, "_self_check", _raise(AssertionError("forward sweep mismatch"))
        ),
        True,
        "self-check",
    ),
}


def _failed_probe(monkeypatch, cause) -> CffiExecutor:
    """A fresh executor whose probe failed for ``cause``, already probed."""
    setup, _, word = _PROBE_FAILURES[cause]
    setup(monkeypatch)
    executor = CffiExecutor()
    ok, reason = executor.availability()
    assert not ok and word in reason
    return executor


def _float32_sweep(sweep):
    """``(reference function, float32 arguments)`` of one of the four sweeps."""
    rng = np.random.default_rng(17)
    spec = _SPECS["lif"]
    ff = rng.standard_normal((6, 2, 5)).astype(np.float32)
    w_rec = _w_rec(rng, 5)
    membrane, spikes, _ = numpy_ref.lif_forward_sweep(ff, w_rec, spec)
    g = rng.standard_normal(ff.shape).astype(np.float32)
    surrogate = rng.random(ff.shape).astype(np.float32)
    return {
        "lif_forward": (numpy_ref.lif_forward_sweep, (ff, w_rec, spec)),
        "lif_backward": (
            numpy_ref.lif_reverse_sweep, (g, surrogate, membrane, spikes, w_rec, spec)
        ),
        "readout_forward": (numpy_ref.readout_forward_sweep, (ff, 0.8)),
        "readout_backward": (numpy_ref.readout_backward_sweep, (g, 0.8)),
    }[sweep]


class TestOnePath:
    """The one executor: C where the probe passed and the arrays fit, the
    reference otherwise, with each sweep tagged by the path that ran it."""

    @needs_c
    def test_failed_probe_runs_the_reference_bitwise(self, monkeypatch):
        runs = {}
        for name in ("c", "numpy"):
            _pin(monkeypatch, name)
            assert backends.active().name == name
            with obs.use_recorder(obs.Recorder()) as recorder:
                runs[name] = _network_pass()
            assert {backend for _, backend, _ in _kernel_tags(recorder)} == {name}
        for got, want in zip(runs["numpy"], runs["c"]):
            assert np.array_equal(got, want), "the reference diverged from C bitwise"

    @needs_c
    @pytest.mark.parametrize(
        "dtype,probe,path",
        [
            pytest.param(np.float32, "c", "c", id="f32"),
            pytest.param(np.float64, "c", "numpy", id="f64"),
            pytest.param(np.float32, "numpy", "numpy", id="f32-failed-probe"),
        ],
    )
    def test_kernel_tags_name_the_path_that_ran(self, monkeypatch, dtype, probe, path):
        _pin(monkeypatch, probe)
        rng = np.random.default_rng(5)
        x = Tensor((rng.random((6, 2, 5)) < 0.4).astype(dtype))
        w_ff = Tensor(rng.standard_normal((5, 4)).astype(dtype), requires_grad=True)
        w_rec = Tensor((rng.standard_normal((4, 4)) * 0.3).astype(dtype), requires_grad=True)
        w_out = Tensor(rng.standard_normal((4, 3)).astype(dtype), requires_grad=True)
        with obs.use_recorder(obs.Recorder()) as recorder:
            spikes = lif_sequence(x, w_ff, LIFParameters(beta=0.9, threshold=0.6), w_rec)
            logits = leaky_readout_sequence(spikes, w_out, beta=0.8)
            logits.backward(np.ones_like(logits.data))
        kernels = ("lif_forward", "lif_backward", "readout_forward", "readout_backward")
        dtype_name = np.dtype(dtype).name
        assert _kernel_tags(recorder) == {(k, path, dtype_name) for k in kernels}

    def test_a_network_pass_reads_no_environment(self, monkeypatch):
        backends.active().availability()  # the probe reads REPRO_CACHE once
        reads = []
        original = config.env_value

        def counted(name):
            reads.append(name)
            return original(name)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, "env_value", None) is original:
                monkeypatch.setattr(module, "env_value", counted)
        with obs.use_recorder(obs.Recorder()):
            _network_pass()
        assert reads == []

    def test_active_is_the_one_executor(self):
        executor = backends.active()
        assert isinstance(executor, CffiExecutor) and backends.active() is executor
        assert executor.name == ("c" if executor.availability()[0] else "numpy")

    @pytest.mark.parametrize("value", ["numpy", "c", "torch", "cuda"])
    def test_a_set_repro_backend_is_ignored(self, monkeypatch, value):
        """The variable that once picked the path neither picks it nor raises."""
        name = backends.active().name
        want = _network_pass()
        monkeypatch.setenv("REPRO_BACKEND", value)
        assert backends.active().name == name
        for got, expected in zip(_network_pass(), want):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("cause", sorted(_PROBE_FAILURES))
    @pytest.mark.parametrize(
        "sweep", ["lif_forward", "lif_backward", "readout_forward", "readout_backward"]
    )
    def test_each_failed_probe_runs_every_sweep_on_the_reference(
        self, monkeypatch, cause, sweep
    ):
        """However the probe fails, no sweep reaches a kernel, even one the
        failed self-check left loaded, and each returns the reference's bits."""
        if _PROBE_FAILURES[cause][1] and not C_AVAILABLE:
            pytest.skip(C_REASON)
        executor = _failed_probe(monkeypatch, cause)
        reference, args = _float32_sweep(sweep)
        calls = _count_kernel_calls(monkeypatch, executor)
        got = getattr(executor, sweep)(*args)
        want = reference(*args)
        assert calls == []
        assert executor.name == "numpy"
        assert executor.path(*(a for a in args if isinstance(a, np.ndarray))) == "numpy"
        got, want = (r if isinstance(r, tuple) else (r,) for r in (got, want))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.asarray(g).dtype == np.asarray(w).dtype
            assert np.array_equal(g, w)


def _strided(a: np.ndarray) -> np.ndarray:
    """``a``'s values in a non-contiguous view (every other last-axis slot)."""
    base = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
    base[..., ::2] = a
    view = base[..., ::2]
    assert not view.flags.c_contiguous
    return view


def _layout(a: np.ndarray, case: str) -> np.ndarray:
    """``a`` cast or re-laid out as a fallback case names it."""
    if case == "fortran":
        out = np.asfortranarray(a)
        assert not out.flags.c_contiguous
        return out
    if case == "strided":
        return _strided(a)
    return a.astype(case)


#: A backward argument is one of these; ``w_rec`` is the recurrent weight.
_BACKWARD_ARGS = ("g_spikes", "surrogate", "membrane", "spikes", "w_rec")


def _forward_cases():
    """(case id, {arg: change}, dtype, takes the kernel) for ``lif_forward``."""
    return [
        ("float16", {"ff": "float16", "w_rec": "float16"}, np.float16, False),
        ("float64", {}, np.float64, False),
        ("ff-f64-w_rec-f32", {"ff": "float64"}, np.float32, False),
        ("ff-f32-w_rec-f64", {"w_rec": "float64"}, np.float32, False),
        ("w_rec-fortran-f32", {"w_rec": "fortran"}, np.float32, False),
        ("w_rec-fortran-f64", {"w_rec": "fortran"}, np.float64, False),
        ("ff-strided-f32", {"ff": "strided"}, np.float32, True),
        ("ff-strided-f64", {"ff": "strided"}, np.float64, False),
    ]


def _backward_cases():
    """(case id, {arg: change}, dtype, takes the kernel) for ``lif_backward``."""
    every = dict.fromkeys(_BACKWARD_ARGS, "float16")
    cases = [("float16", every, np.float16, False), ("float64", {}, np.float64, False)]
    for name in _BACKWARD_ARGS:
        cases.append((f"{name}-f64-in-f32", {name: "float64"}, np.float32, False))
        cases.append((f"{name}-f32-in-f64", {name: "float32"}, np.float64, False))
    for dtype, suf in ((np.float32, "f32"), (np.float64, "f64")):
        cases.append((f"w_rec-fortran-{suf}", {"w_rec": "fortran"}, dtype, False))
        for name in _BACKWARD_ARGS[:-1]:
            takes_kernel = dtype == np.float32
            cases.append((f"{name}-strided-{suf}", {name: "strided"}, dtype, takes_kernel))
    return cases


def _params(cases):
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@needs_c
class TestReferenceFallback:
    """The C executor takes only float32 inputs with a C-contiguous
    ``w_rec``; it hands anything else (float64 in any layout included) to
    the numpy reference, and copies a strided float32 stack before its
    kernel runs.  Either way the result is the reference's, bitwise, and
    in its dtype."""

    @staticmethod
    def _assert_same(got, want):
        for g, w in zip(got, want):
            assert np.asarray(g).dtype == np.asarray(w).dtype
            assert np.array_equal(g, w), "the C executor left the reference result"

    @pytest.mark.parametrize("spec_name", sorted(_SPECS))
    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "controller"])
    @pytest.mark.parametrize("changes,dtype,takes_kernel", _params(_forward_cases()))
    def test_lif_forward(self, monkeypatch, spec_name, dynamic, changes, dtype, takes_kernel):
        rng = np.random.default_rng(21)
        ff = rng.standard_normal((7, 3, 5)).astype(dtype)
        w_rec = _w_rec(rng, 5, dtype)
        ff, w_rec = (
            _layout(a, changes[name]) if name in changes else a
            for name, a in (("ff", ff), ("w_rec", w_rec))
        )
        spec = _SPECS[spec_name]
        if dynamic:
            spec = replace(spec, vthr=None)

        def controller():
            if dynamic:
                return PerNeuronAdaptiveThreshold(num_neurons=5, timesteps=7, adjust_interval=2)
            return None

        want = numpy_ref.lif_forward_sweep(ff, w_rec, spec, controller())
        calls = _count_kernel_calls(monkeypatch, C_EXECUTOR)
        got = C_EXECUTOR.lif_forward(ff, w_rec, spec, controller())
        assert bool(calls) == takes_kernel
        self._assert_same(got, want)

    @pytest.mark.parametrize("spec_name", sorted(_SPECS))
    @pytest.mark.parametrize("changes,dtype,takes_kernel", _params(_backward_cases()))
    def test_lif_backward(self, monkeypatch, spec_name, changes, dtype, takes_kernel):
        rng = np.random.default_rng(22)
        spec = _SPECS[spec_name]
        ff = rng.standard_normal((7, 3, 5)).astype(dtype)
        w_rec = _w_rec(rng, 5, dtype)
        membrane, spikes, _ = numpy_ref.lif_forward_sweep(ff, w_rec, spec)
        args = {
            "g_spikes": rng.standard_normal(ff.shape).astype(dtype),
            "surrogate": rng.random(ff.shape).astype(dtype),
            "membrane": membrane,
            "spikes": spikes,
            "w_rec": w_rec,
        }
        args = {k: _layout(a, changes[k]) if k in changes else a for k, a in args.items()}
        want = numpy_ref.lif_reverse_sweep(**args, spec=spec)
        calls = _count_kernel_calls(monkeypatch, C_EXECUTOR)
        got = C_EXECUTOR.lif_backward(**args, spec=spec)
        assert calls == (["lif_backward"] if takes_kernel else [])
        self._assert_same([got], [want])

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize(
        "case,dtype,takes_kernel",
        [
            pytest.param("float16", np.float16, False, id="float16"),
            pytest.param("float64", np.float64, False, id="float64"),
            pytest.param("strided", np.float32, True, id="strided-f32"),
            pytest.param("strided", np.float64, False, id="strided-f64"),
        ],
    )
    def test_readout(self, monkeypatch, direction, case, dtype, takes_kernel):
        rng = np.random.default_rng(23)
        stack = _layout(rng.standard_normal((6, 3, 4)).astype(dtype), case)
        reference = getattr(numpy_ref, f"readout_{direction}_sweep")
        want = reference(stack, 0.8)
        calls = _count_kernel_calls(monkeypatch, C_EXECUTOR)
        got = getattr(C_EXECUTOR, f"readout_{direction}")(stack, 0.8)
        assert calls == ([f"readout_{direction}"] if takes_kernel else [])
        self._assert_same([got], [want])


class TestDegradation:
    """A failed probe says why, and leaves every sweep on the reference."""

    def test_auto_falls_back_to_numpy(self, monkeypatch):
        """With no compiler the one executor takes the reference by itself,
        and a network pass keeps its bits."""
        want = _network_pass()
        monkeypatch.setattr(cffi_c, "_find_compiler", lambda: None)
        monkeypatch.setattr(backends, "_EXECUTOR", CffiExecutor())
        assert backends.active().name == "numpy"
        with obs.use_recorder(obs.Recorder()) as recorder:
            got = _network_pass()
        assert {backend for _, backend, _ in _kernel_tags(recorder)} == {"numpy"}
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_missing_cffi_probe(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "cffi", None)
        executor = CffiExecutor()
        ok, reason = executor.availability()
        assert not ok
        assert "cffi" in reason

    def test_missing_compiler_probe(self, monkeypatch):
        monkeypatch.setattr(cffi_c, "_find_compiler", lambda: None)
        executor = CffiExecutor()
        ok, reason = executor.availability()
        assert not ok
        assert "compiler" in reason

    def test_missing_blas_symbols_degrade(self, monkeypatch):
        if not C_AVAILABLE:
            pytest.skip(C_REASON)
        monkeypatch.setattr(cffi_c, "_BLAS_SYMBOLS", ("no_such_sgemm", "no_such_sgemv"))
        executor = CffiExecutor()
        ok, reason = executor.availability()
        assert not ok
        assert "BLAS" in reason
        assert executor.name == "numpy"

    def test_failing_self_check_degrades(self, monkeypatch):
        if not C_AVAILABLE:
            pytest.skip(C_REASON)

        def broken(self):
            raise AssertionError("forward sweep mismatch")

        monkeypatch.setattr(CffiExecutor, "_self_check", broken)
        executor = CffiExecutor()
        ok, reason = executor.availability()
        assert not ok
        assert "self-check" in reason

    def test_probe_result_is_cached(self, monkeypatch):
        executor = CffiExecutor()
        calls = []

        def probe():
            calls.append(1)
            return False, "down"

        monkeypatch.setattr(executor, "_probe_once", probe)
        executor.availability()
        executor.availability()
        assert len(calls) == 1


class TestKernelSource:
    def test_float32_kernels_only(self):
        source = cffi_c.kernel_source()
        for name in ("lif_forward", "lif_backward", "readout_forward", "readout_backward"):
            assert f"void {name}(" in source
        assert "double *" not in source

    def test_no_unprotected_fma_flags(self):
        assert "-ffp-contract=off" in cffi_c._CFLAGS
        assert "-fno-fast-math" in cffi_c._CFLAGS


# ----------------------------------------------------------------------
# Build cache: the shared library and its FFI module live side by side
# under one digest; a warm probe parses no C and still self-checks.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def built_cache(tmp_path_factory):
    """A ``REPRO_CACHE`` holding one cold build (library + FFI module)."""
    if not C_AVAILABLE:
        pytest.skip(C_REASON)
    root = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE", str(root))
        ok, reason = CffiExecutor().availability()
    assert ok, reason
    return root


def _cache_copy(built_cache, tmp_path, monkeypatch):
    shutil.copytree(built_cache, tmp_path / "cache")
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
    return cffi_c._build_paths(cffi_c._find_compiler())


def _counting_self_check(monkeypatch) -> list:
    calls = []
    original = CffiExecutor._self_check

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(CffiExecutor, "_self_check", counted)
    return calls


class TestBuildCache:
    def test_cold_probe_writes_library_and_ffi_module(self, built_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(built_cache))
        lib_path, ffi_path = cffi_c._build_paths(cffi_c._find_compiler())
        assert os.path.isfile(lib_path) and os.path.isfile(ffi_path)
        # One digest names both, next to each other.
        assert ffi_path == lib_path[: -len(".so")] + "-ffi.py"
        leftovers = set(os.listdir(os.path.dirname(lib_path))) - {
            os.path.basename(p) for p in (lib_path, ffi_path, lib_path[:-3] + ".c")
        }
        assert not leftovers  # no temp files or directories stay behind

    def test_digest_covers_the_declarations(self, monkeypatch):
        compiler = cffi_c._find_compiler() or "cc"
        before = cffi_c._build_paths(compiler)
        monkeypatch.setattr(cffi_c, "_BLAS_SYMBOLS", ("other_sgemm", "other_sgemv"))
        after = cffi_c._build_paths(compiler)
        assert before[0] != after[0] and before[1] != after[1]

    def test_warm_probe_in_a_new_process_parses_no_c(self, built_cache):
        script = (
            "import json, sys\n"
            "from repro.snn.backends.cffi_c import CffiExecutor\n"
            "checks = []\n"
            "original = CffiExecutor._self_check\n"
            "CffiExecutor._self_check = lambda self: (checks.append(1), original(self))\n"
            "ok, reason = CffiExecutor().availability()\n"
            "print(json.dumps({'ok': ok, 'reason': reason, 'checks': len(checks),\n"
            "                  'pycparser': 'pycparser' in sys.modules}))\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "REPRO_CACHE": str(built_cache), "PYTHONPATH": str(src)}
        before = sorted(os.listdir(built_cache / "ckernels"))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["ok"], report["reason"]
        assert report["checks"] == 1
        assert not report["pycparser"]
        assert sorted(os.listdir(built_cache / "ckernels")) == before  # nothing rebuilt

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "empty", "no-ffi"])
    def test_damaged_ffi_module_is_rebuilt(self, built_cache, tmp_path, monkeypatch, damage):
        _, ffi_path = _cache_copy(built_cache, tmp_path, monkeypatch)
        with open(ffi_path, "rb") as handle:
            pristine = handle.read()
        damaged = {
            "truncate": pristine[: len(pristine) // 2],
            "garbage": bytes(range(256)) * 4,
            "empty": b"",
            "no-ffi": b"import _cffi_backend\nx = 1\n",
        }[damage]
        with open(ffi_path, "wb") as handle:
            handle.write(damaged)
        checks = _counting_self_check(monkeypatch)
        ok, reason = CffiExecutor().availability()
        assert ok, reason
        assert checks == [1]
        with open(ffi_path, "rb") as handle:
            assert handle.read() == pristine

    def test_unwritable_ffi_module_makes_backend_unavailable(
        self, built_cache, tmp_path, monkeypatch
    ):
        _, ffi_path = _cache_copy(built_cache, tmp_path, monkeypatch)
        with open(ffi_path, "w") as handle:
            handle.write("ffi = (")

        def refuse(path):
            raise OSError("read-only cache")

        monkeypatch.setattr(cffi_c, "_write_ffi", refuse)
        ok, reason = CffiExecutor().availability()
        assert not ok
        assert "FFI module" in reason and "read-only cache" in reason


@needs_c
def test_read_only_inputs_take_the_kernels():
    # Memoized recordings and cached rasters are read-only; the kernels
    # take their buffers as they are, with the same bits.
    rng = np.random.default_rng(4)
    ff = rng.standard_normal((6, 2, 5)).astype(np.float32)
    w_rec = (rng.standard_normal((5, 5)) * 0.3).astype(np.float32)
    ff.flags.writeable = False
    w_rec.flags.writeable = False
    spec = _SPECS["lif"]
    want = numpy_ref.lif_forward_sweep(ff, w_rec, spec)
    got = C_EXECUTOR.lif_forward(ff, w_rec, spec)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestExecutorContract:
    def test_abstract_surface(self):
        """The executor's public surface is the probe, the path and the four
        sweeps, each taking its numpy_ref contract's arguments by name."""
        import inspect

        sweeps = {
            "lif_forward": numpy_ref.lif_forward_sweep,
            "lif_backward": numpy_ref.lif_reverse_sweep,
            "readout_forward": numpy_ref.readout_forward_sweep,
            "readout_backward": numpy_ref.readout_backward_sweep,
        }
        public = {name for name in dir(CffiExecutor) if not name.startswith("_")}
        assert public == {"availability", "name", "path", *sweeps}
        for method, reference in sweeps.items():
            params = list(inspect.signature(getattr(CffiExecutor, method)).parameters)
            assert params[1:] == list(inspect.signature(reference).parameters)

    def test_sweep_spec_frozen(self):
        spec = SweepSpec(beta=0.9, vthr=0.5)
        with pytest.raises(AttributeError):
            spec.beta = 0.1
