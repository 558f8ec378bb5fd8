"""Parity, selection and degradation tests for the kernel backends.

Every registered backend is pinned bitwise (``np.array_equal``) to the
numpy reference executor.
"""

import sys

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ConfigError
from repro.snn import backends
from repro.snn.backends import (
    CffiExecutor,
    NumpyExecutor,
    SequenceExecutor,
    SweepSpec,
    register_backend,
)
from repro.snn.backends import base as backends_base
from repro.snn.backends import cffi_c, numpy_ref
from repro.snn.kernels import cuba_lif_sequence, leaky_readout_sequence, lif_sequence
from repro.snn.neurons import LIFParameters

C_AVAILABLE, C_REASON = backends.get_backend("c").availability()
needs_c = pytest.mark.skipif(not C_AVAILABLE, reason=f"C backend: {C_REASON}")


@pytest.fixture(autouse=True)
def _isolated_registry():
    """Snapshot the registry + active memo around every test."""
    snapshot = dict(backends_base._REGISTRY)
    backends_base._invalidate_active()
    yield
    backends_base._REGISTRY.clear()
    backends_base._REGISTRY.update(snapshot)
    backends_base._invalidate_active()


# ----------------------------------------------------------------------
# Parity: every backend pinned to the numpy reference sweeps.
# ----------------------------------------------------------------------

_SPECS = {
    "lif-hard": SweepSpec(beta=0.9, vthr=0.65, hard=True, alpha=None),
    "lif-soft": SweepSpec(beta=0.85, vthr=0.7, hard=False, alpha=None),
    "cuba-hard": SweepSpec(beta=0.9, vthr=0.6, hard=True, alpha=0.5),
    "per-neuron-vthr": SweepSpec(
        beta=0.9,
        vthr=np.linspace(0.4, 0.9, 6, dtype=np.float32),
        hard=True,
        alpha=None,
    ),
}


def _executors():
    return [
        pytest.param(CffiExecutor() if C_AVAILABLE else None, id="c", marks=needs_c)
    ]


def _assert_parity(executor, got, want):
    assert executor.parity == "bitwise"
    assert np.array_equal(np.asarray(got), np.asarray(want)), "bitwise parity violated"


class TestSweepParity:
    @pytest.mark.parametrize("executor", _executors())
    @pytest.mark.parametrize("spec_name", sorted(_SPECS))
    @pytest.mark.parametrize("recurrent", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lif_sweeps_match_reference(self, executor, spec_name, recurrent, dtype):
        spec = _SPECS[spec_name]
        rng = np.random.default_rng(7)
        ff = rng.standard_normal((6, 3, 6)).astype(dtype)
        w_rec = (
            (rng.standard_normal((6, 6)) * 0.4).astype(dtype) if recurrent else None
        )
        want_m, want_s = numpy_ref.lif_forward_sweep(ff, w_rec, spec)
        got_m, got_s = executor.lif_forward(ff, w_rec, spec)
        _assert_parity(executor, got_m, want_m)
        _assert_parity(executor, got_s, want_s)

        g = rng.standard_normal(ff.shape).astype(dtype)
        surrogate = rng.random(ff.shape).astype(dtype)
        want_g = numpy_ref.lif_reverse_sweep(g, surrogate, want_m, want_s, w_rec, spec)
        got_g = executor.lif_backward(g, surrogate, got_m, got_s, w_rec, spec)
        _assert_parity(executor, got_g, want_g)

    @pytest.mark.parametrize("executor", _executors())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_readout_sweeps_match_reference(self, executor, dtype):
        rng = np.random.default_rng(11)
        projected = rng.standard_normal((8, 4, 5)).astype(dtype)
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

    @needs_c
    def test_single_timestep_edge(self):
        """T=1 exercises the no-carry branches of every sweep."""
        spec = _SPECS["lif-hard"]
        ff = np.random.default_rng(3).standard_normal((1, 2, 4)).astype(np.float32)
        executor = CffiExecutor()
        m, s = executor.lif_forward(ff, None, spec)
        want = numpy_ref.lif_forward_sweep(ff, None, spec)
        _assert_parity(executor, m, want[0])
        _assert_parity(executor, s, want[1])


@needs_c
class TestCBackendThroughKernels:
    """End-to-end: the fused kernels produce bitwise-identical training
    quantities (outputs *and* gradients) under ``REPRO_BACKEND=c``."""

    def _grads(self, monkeypatch, backend_name):
        monkeypatch.setenv("REPRO_BACKEND", backend_name)
        backends_base._invalidate_active()
        params = LIFParameters(beta=0.9, threshold=0.6, reset_mode="zero")
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
        loss = (trajectory * trajectory).sum()
        loss.backward()
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

    def test_cuba_sequence_bitwise(self, monkeypatch):
        params = LIFParameters(beta=0.9, threshold=0.55, reset_mode="subtract")
        rng = np.random.default_rng(5)
        x = (rng.random((6, 2, 4)) < 0.4).astype(np.float32)
        w_ff = rng.standard_normal((4, 5)).astype(np.float32) * 0.6
        results = {}
        for name in ("numpy", "c"):
            monkeypatch.setenv("REPRO_BACKEND", name)
            backends_base._invalidate_active()
            out = cuba_lif_sequence(
                Tensor(x), Tensor(w_ff, requires_grad=True), params, alpha=0.45
            )
            out.sum().backward()
            results[name] = out.data.copy()
        assert np.array_equal(results["numpy"], results["c"])

    def test_unsupported_dtype_falls_back_to_reference(self):
        executor = CffiExecutor()
        spec = _SPECS["lif-hard"]
        ff = np.random.default_rng(1).standard_normal((4, 2, 3)).astype(np.float16)
        want = numpy_ref.lif_forward_sweep(ff, None, spec)
        got = executor.lif_forward(ff, None, spec)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# ----------------------------------------------------------------------
# Registry + selection semantics.
# ----------------------------------------------------------------------


class _StubExecutor(NumpyExecutor):
    name = "numpy"

    def availability(self):
        return True, "stub shadowing the reference"


class TestRegistry:
    def test_all_backends_priority_order(self):
        names = [b.name for b in backends.all_backends()]
        assert names == ["c", "numpy"]

    def test_reregistration_latest_wins(self):
        stub = _StubExecutor()
        register_backend(stub)
        assert backends.get_backend("numpy") is stub

    def test_register_rejects_abstract_name(self):
        class Nameless(NumpyExecutor):
            name = "abstract"

        with pytest.raises(ConfigError, match="concrete"):
            register_backend(Nameless())

    def test_register_rejects_unknown_parity(self):
        class BadParity(NumpyExecutor):
            name = "bad"
            parity = "vibes"

        with pytest.raises(ConfigError, match="parity"):
            register_backend(BadParity())

    def test_get_backend_unknown_name(self):
        with pytest.raises(ConfigError, match="registered backends"):
            backends.get_backend("cuda")

    def test_torch_is_not_a_backend(self, monkeypatch):
        with pytest.raises(ConfigError, match="registered backends"):
            backends.get_backend("torch")
        monkeypatch.setenv("REPRO_BACKEND", "torch")
        with pytest.raises(ConfigError, match="REPRO_BACKEND"):
            backends.active()

    def test_numpy_always_available(self):
        assert NumpyExecutor() in type(NumpyExecutor()).__mro__ or True
        ok, reason = backends.get_backend("numpy").availability()
        assert ok and "numpy" in reason


class TestSelection:
    def test_explicit_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert backends.active().name == "numpy"

    def test_active_memoised_until_env_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        first = backends.active()
        assert backends.active() is first
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert backends.active().name in ("c", "numpy")

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cuda")
        with pytest.raises(ConfigError, match="REPRO_BACKEND"):
            backends.active()

    def test_auto_prefers_fastest_available(self):
        selected = backends.select_backend("auto")
        for candidate in backends.all_backends():
            if candidate.availability()[0]:
                assert selected is candidate
                break

    def test_selection_report_shape(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        rows = backends.selection_report()
        assert {row["name"] for row in rows} == {"numpy", "c"}
        assert sum(row["selected"] for row in rows) == 1
        for row in rows:
            assert row["reason"]
            assert row["parity"] == "bitwise"


class TestDegradation:
    """auto falls back gracefully; explicit requests fail loudly."""

    def _force_unavailable(self, monkeypatch, name, reason):
        executor = backends.get_backend(name)
        monkeypatch.setattr(executor, "availability", lambda: (False, reason))

    def test_auto_falls_back_to_numpy(self, monkeypatch):
        self._force_unavailable(monkeypatch, "c", "no C compiler (cc / gcc / clang)")
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert backends.active().name == "numpy"

    def test_explicit_unavailable_names_dependency(self, monkeypatch):
        self._force_unavailable(
            monkeypatch, "c", "no C compiler (cc / gcc / clang) on PATH"
        )
        with pytest.raises(ConfigError, match="no C compiler"):
            backends.select_backend("c")

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

    def test_kernel_access_when_unavailable_raises(self, monkeypatch):
        monkeypatch.setattr(cffi_c, "_find_compiler", lambda: None)
        executor = CffiExecutor()
        with pytest.raises(ConfigError, match="unavailable"):
            executor._kernel("lif_forward", np.float32)


class TestKernelSource:
    def test_both_dtype_variants_present(self):
        source = cffi_c.kernel_source()
        for suffix in ("f32", "f64"):
            for name in (
                "lif_forward",
                "lif_backward",
                "readout_forward",
                "readout_backward",
            ):
                assert f"{name}_{suffix}" in source

    def test_no_unprotected_fma_flags(self):
        assert "-ffp-contract=off" in cffi_c._CFLAGS
        assert "-fno-fast-math" in cffi_c._CFLAGS


class TestExecutorContract:
    def test_abstract_surface(self):
        assert {
            "availability",
            "lif_forward",
            "lif_backward",
            "readout_forward",
            "readout_backward",
        } <= {
            name
            for name in dir(SequenceExecutor)
            if not name.startswith("_")
        }

    def test_sweep_spec_frozen(self):
        spec = SweepSpec(beta=0.9, vthr=0.5, hard=True)
        with pytest.raises(AttributeError):
            spec.beta = 0.1
