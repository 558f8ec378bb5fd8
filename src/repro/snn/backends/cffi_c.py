"""Hand-written C executor for the fused sequence sweeps (via cffi).

The interpreter-bound part of the fused kernels is the per-timestep
chain of small elementwise ufunc calls; this backend runs that chain in
compiled C.  The C kernels replicate the reference association order
documented in :mod:`repro.snn.backends.numpy_ref` **exactly** and are
compiled with ``-fno-fast-math -ffp-contract=off`` so the compiler can
neither reassociate nor fuse multiplies and adds — the backend declares
(and the parity suite enforces) *bitwise* parity with numpy.  ``-O3``
vectorizes the branch-free elementwise loops; each lane evaluates the
same scalar expression on its own element, so nothing reassociates.

GEMMs never move to C: BLAS accumulation order is the bitwise anchor
and is not reproducible by a naive loop (measured, not assumed — see
``docs/reproducibility.md``).  Feedforward layers and the leaky readout
therefore run their whole time loop in one C call, while recurrent
layers — and any layer under a dynamic threshold controller — run a
hybrid loop: Python performs each step's recurrent projection (numpy)
and controller call, and C performs the elementwise state update, which
still removes most of the per-step interpreter overhead.

The shared library is built lazily on first use via the system C
compiler, cached per process and on disk (keyed by a hash of the C
source, under ``$REPRO_CACHE/ckernels``).  When cffi or a compiler is
missing, or the compiled kernels fail their bitwise self-check, the
backend reports itself unavailable with the reason — ``auto`` selection
then falls back to numpy.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from shutil import which

import numpy as np

from repro.config import env_value
from repro.snn.backends import numpy_ref
from repro.snn.backends.base import SequenceExecutor, SweepSpec, register_backend

__all__ = ["CffiExecutor", "kernel_source"]

# One macro-generated body per dtype: float ("f32") and double ("f64").
# Arithmetic mirrors numpy_ref line for line; every expression relies on
# C's left-to-right association for + and - so the accumulation order
# matches the documented tape order.
_TEMPLATE = r"""
static void lif_step_{suf}(
    long B, long N,
    const {ctype} *current, const {ctype} *v_prev, const {ctype} *s_prev,
    const {ctype} *vthr, double beta, int hard,
    int has_alpha, double alpha, {ctype} *syn,
    {ctype} *v_out, {ctype} *s_out)
{{
    const {ctype} beta_c = ({ctype})beta;
    const {ctype} alpha_c = ({ctype})alpha;
    long i = 0;
    for (long b = 0; b < B; b++) {{
        for (long n = 0; n < N; n++, i++) {{
            {ctype} cur = current[i];
            {ctype} vp = v_prev ? v_prev[i] : ({ctype})0.0;
            {ctype} sp = s_prev ? s_prev[i] : ({ctype})0.0;
            if (has_alpha) {{
                syn[i] = syn[i] * alpha_c + cur;
                cur = syn[i];
            }}
            {ctype} v = hard
                ? vp * (({ctype})1.0 - sp) * beta_c + cur
                : vp * beta_c - sp * vthr[n] + cur;
            v_out[i] = v;
            s_out[i] = (v - vthr[n] > ({ctype})0.0) ? ({ctype})1.0 : ({ctype})0.0;
        }}
    }}
}}

void lif_forward_{suf}(
    long T, long B, long N,
    const {ctype} *ff, const {ctype} *vthr, double beta, int hard,
    int has_alpha, double alpha, {ctype} *syn,
    {ctype} *membrane, {ctype} *spikes)
{{
    const long BN = B * N;
    for (long t = 0; t < T; t++) {{
        const {ctype} *v_prev = t ? membrane + (t - 1) * BN : 0;
        const {ctype} *s_prev = t ? spikes + (t - 1) * BN : 0;
        lif_step_{suf}(B, N, ff + t * BN, v_prev, s_prev, vthr, beta, hard,
                       has_alpha, alpha, syn,
                       membrane + t * BN, spikes + t * BN);
    }}
}}

void lif_forward_step_{suf}(
    long B, long N,
    const {ctype} *current, const {ctype} *v_prev, const {ctype} *s_prev,
    const {ctype} *vthr, double beta, int hard,
    int has_alpha, double alpha, {ctype} *syn,
    {ctype} *v_out, {ctype} *s_out)
{{
    lif_step_{suf}(B, N, current, v_prev, s_prev, vthr, beta, hard,
                   has_alpha, alpha, syn, v_out, s_out);
}}

void lif_backward_step_{suf}(
    long B, long N,
    const {ctype} *g_spikes_t, const {ctype} *surrogate_t,
    const {ctype} *gs_rec, const {ctype} *membrane_prev,
    const {ctype} *spikes_prev, const {ctype} *vthr, double beta, int hard,
    int has_alpha, double alpha, int have_carry,
    {ctype} *gs_reset, {ctype} *gv_carry, {ctype} *gj_carry, {ctype} *gj_out)
{{
    /* One branch-free loop per case; gj_out holds gV until read. */
    const {ctype} beta_c = ({ctype})beta;
    const {ctype} alpha_c = ({ctype})alpha;
    const long BN = B * N;
    {ctype} *gv = gj_out;
    if (!have_carry) {{
        for (long i = 0; i < BN; i++) gv[i] = g_spikes_t[i] * surrogate_t[i];
    }} else if (gs_rec) {{
        for (long i = 0; i < BN; i++)
            gv[i] = ((g_spikes_t[i] + gs_reset[i]) + gs_rec[i]) * surrogate_t[i]
                    + gv_carry[i];
    }} else {{
        for (long i = 0; i < BN; i++)
            gv[i] = (g_spikes_t[i] + gs_reset[i]) * surrogate_t[i] + gv_carry[i];
    }}
    if (membrane_prev && hard) {{
        for (long i = 0; i < BN; i++) {{
            {ctype} gv_beta = gv[i] * beta_c;
            gs_reset[i] = -(gv_beta * membrane_prev[i]);
            gv_carry[i] = gv_beta * (({ctype})1.0 - spikes_prev[i]);
        }}
    }} else if (membrane_prev) {{
        for (long b = 0; b < B; b++) {{
            const long o = b * N;
            for (long n = 0; n < N; n++) {{
                gs_reset[o + n] = (-gv[o + n]) * vthr[n];
                gv_carry[o + n] = gv[o + n] * beta_c;
            }}
        }}
    }}
    if (has_alpha) {{
        /* J[t] feeds V[t] directly and J[t+1] through the alpha decay. */
        if (have_carry)
            for (long i = 0; i < BN; i++) gj_out[i] = gv[i] + gj_carry[i];
        for (long i = 0; i < BN; i++) gj_carry[i] = gj_out[i] * alpha_c;
    }}
}}

void lif_backward_{suf}(
    long T, long B, long N,
    const {ctype} *g_spikes, const {ctype} *surrogate,
    const {ctype} *membrane, const {ctype} *spikes,
    const {ctype} *vthr, long vthr_stride, double beta, int hard,
    int has_alpha, double alpha,
    {ctype} *gs_reset, {ctype} *gv_carry, {ctype} *gj_carry,
    {ctype} *g_current)
{{
    const long BN = B * N;
    for (long t = T - 1; t >= 0; t--) {{
        const {ctype} *m_prev = t ? membrane + (t - 1) * BN : 0;
        const {ctype} *s_prev = t ? spikes + (t - 1) * BN : 0;
        lif_backward_step_{suf}(B, N, g_spikes + t * BN, surrogate + t * BN,
                                0, m_prev, s_prev, vthr + t * vthr_stride,
                                beta, hard,
                                has_alpha, alpha, (t < T - 1),
                                gs_reset, gv_carry, gj_carry,
                                g_current + t * BN);
    }}
}}

void readout_forward_{suf}(
    long T, long BC, const {ctype} *projected, double beta,
    {ctype} *trajectory)
{{
    const {ctype} beta_c = ({ctype})beta;
    for (long t = 0; t < T; t++) {{
        const {ctype} *prev = t ? trajectory + (t - 1) * BC : 0;
        for (long i = 0; i < BC; i++) {{
            {ctype} m = prev ? prev[i] : ({ctype})0.0;
            trajectory[t * BC + i] = m * beta_c + projected[t * BC + i];
        }}
    }}
}}

void readout_backward_{suf}(
    long T, long BC, const {ctype} *g_trajectory, double beta,
    {ctype} *g_membrane)
{{
    const {ctype} beta_c = ({ctype})beta;
    for (long t = T - 1; t >= 0; t--) {{
        for (long i = 0; i < BC; i++) {{
            {ctype} gm = g_trajectory[t * BC + i];
            if (t < T - 1) gm = gm + g_membrane[(t + 1) * BC + i] * beta_c;
            g_membrane[t * BC + i] = gm;
        }}
    }}
}}
"""

_CDEF_TEMPLATE = """
void lif_forward_{suf}(long, long, long, const {ctype} *, const {ctype} *,
                       double, int, int, double, {ctype} *, {ctype} *, {ctype} *);
void lif_forward_step_{suf}(long, long, const {ctype} *, const {ctype} *,
                            const {ctype} *, const {ctype} *, double, int, int,
                            double, {ctype} *, {ctype} *, {ctype} *);
void lif_backward_{suf}(long, long, long, const {ctype} *, const {ctype} *,
                        const {ctype} *, const {ctype} *, const {ctype} *,
                        long, double, int, int, double, {ctype} *, {ctype} *,
                        {ctype} *, {ctype} *);
void lif_backward_step_{suf}(long, long, const {ctype} *, const {ctype} *,
                             const {ctype} *, const {ctype} *, const {ctype} *,
                             const {ctype} *, double, int, int, double, int,
                             {ctype} *, {ctype} *, {ctype} *, {ctype} *);
void readout_forward_{suf}(long, long, const {ctype} *, double, {ctype} *);
void readout_backward_{suf}(long, long, const {ctype} *, double, {ctype} *);
"""

_DTYPES = {"f32": "float", "f64": "double"}

#: Compiler flags that make the C arithmetic IEEE-exact: no value
#: reassociation, no contraction of a*b+c into fma(a, b, c) — either
#: would change rounding and break bitwise parity with numpy.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")


def kernel_source() -> str:
    """The complete C source of the kernels (both dtype variants)."""
    return "\n".join(
        _TEMPLATE.format(suf=suf, ctype=ctype) for suf, ctype in _DTYPES.items()
    )


def _cache_dir() -> str:
    root = env_value("REPRO_CACHE")
    return os.path.join(root, "ckernels")


def _find_compiler() -> str | None:
    for candidate in ("cc", "gcc", "clang"):
        path = which(candidate)
        if path:
            return path
    return None


def _compile(compiler: str, source: str) -> str:
    """Compile ``source`` into a cached shared library; return its path.

    The library name embeds a hash of the source and flags, so editing
    the kernels naturally invalidates the on-disk cache.
    """
    digest = hashlib.sha256(
        (source + " ".join(_CFLAGS) + compiler).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"reprokernels-{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache, exist_ok=True)
    src_path = os.path.join(cache, f"reprokernels-{digest}.c")
    with open(src_path, "w") as handle:
        handle.write(source)
    # Build into a temp name then rename: concurrent processes racing on
    # the same cache see either nothing or a complete library.
    fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_path, src_path],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp_path, lib_path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    return lib_path


class CffiExecutor(SequenceExecutor):
    """Compiled-C executor (module docstring has the full story)."""

    name = "c"
    parity = "bitwise"
    priority = 10

    def __init__(self):
        self._ffi = None
        self._lib = None
        self._probe: tuple[bool, str] | None = None

    # -- build / probe -------------------------------------------------
    def availability(self) -> tuple[bool, str]:
        """Probe cffi + a C compiler and build/self-check the kernels.

        The probe runs once per process; its result (and reason) is
        cached.  Any failure — missing cffi, no compiler on PATH, a
        compile error, or a bitwise self-check mismatch — makes the
        backend unavailable with that reason.
        """
        if self._probe is None:
            self._probe = self._probe_once()
        return self._probe

    def _probe_once(self) -> tuple[bool, str]:
        try:
            import cffi  # noqa: F401
        except ImportError:
            return False, "the cffi package is not importable (pip install cffi)"
        compiler = _find_compiler()
        if compiler is None:
            return False, "no C compiler (cc / gcc / clang) on PATH"
        try:
            self._build(compiler)
        except Exception as error:  # build failures become reasons, not crashes
            return False, f"kernel compilation failed: {error}"
        try:
            self._self_check()
        except Exception as error:
            return False, f"compiled kernels failed their bitwise self-check: {error}"
        return True, f"compiled C kernels via {compiler} (bitwise vs numpy)"

    def _build(self, compiler: str) -> None:
        import cffi

        ffi = cffi.FFI()
        for suf, ctype in _DTYPES.items():
            ffi.cdef(_CDEF_TEMPLATE.format(suf=suf, ctype=ctype))
        lib_path = _compile(compiler, kernel_source())
        self._lib = ffi.dlopen(lib_path)
        self._ffi = ffi

    def _self_check(self) -> None:
        """Assert bitwise parity with numpy on a canonical tiny workload.

        Guards against compilers that contract or reassociate despite
        the flags: such a toolchain silently demotes this backend to
        unavailable instead of corrupting trajectory reproducibility.
        """
        # The probe deliberately avoids repro.seeding: a broken toolchain
        # must be diagnosed before this backend touches any repro module,
        # and the fixed seed carries no experiment state.
        rng = np.random.default_rng(0)  # repro-lint: disable=RPL001 -- fixed-seed toolchain probe, independent of experiment seeding
        for dtype in (np.float32, np.float64):
            ff = rng.standard_normal((5, 3, 4)).astype(dtype)
            w_rec = rng.standard_normal((4, 4)).astype(dtype) * dtype(0.3)
            for w in (None, w_rec):
                for spec in (
                    SweepSpec(beta=0.9, vthr=0.7, hard=True, alpha=None),
                    SweepSpec(beta=0.9, vthr=0.7, hard=False, alpha=0.5),
                ):
                    want = numpy_ref.lif_forward_sweep(ff, w, spec)[:2]
                    got = self.lif_forward(ff, w, spec)[:2]
                    if not all(np.array_equal(a, b) for a, b in zip(want, got)):
                        raise AssertionError("forward sweep mismatch")
                    g = rng.standard_normal(ff.shape).astype(dtype)
                    surrogate = rng.random(ff.shape).astype(dtype)
                    want_g = numpy_ref.lif_reverse_sweep(g, surrogate, *want, w, spec)
                    got_g = self.lif_backward(g, surrogate, *got, w, spec)
                    if not np.array_equal(want_g, got_g):
                        raise AssertionError("reverse sweep mismatch")
            traj = numpy_ref.readout_forward_sweep(ff, 0.8)
            if not np.array_equal(traj, self.readout_forward(ff, 0.8)):
                raise AssertionError("readout forward mismatch")
            if not np.array_equal(
                numpy_ref.readout_backward_sweep(ff, 0.8),
                self.readout_backward(ff, 0.8),
            ):
                raise AssertionError("readout backward mismatch")

    # -- helpers -------------------------------------------------------
    _SUFFIXES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

    def _kernel(self, name: str, dtype) -> tuple[object, str]:
        if self._lib is None:
            # Reached only when a caller bypasses selection; the probe
            # (availability) is what normally builds the library.
            ok, reason = self.availability()
            if not ok:
                from repro.errors import ConfigError

                raise ConfigError(f"C kernel backend unavailable: {reason}")
        suf = self._SUFFIXES[np.dtype(dtype)]
        ctype = "float *" if suf == "f32" else "double *"
        return getattr(self._lib, f"{name}_{suf}"), ctype

    def _ptr(self, ctype: str, array: np.ndarray):
        return self._ffi.cast(ctype, array.ctypes.data)

    def _supported(self, *arrays: np.ndarray) -> bool:
        return all(np.dtype(a.dtype) in self._SUFFIXES for a in arrays)

    @staticmethod
    def _vthr_array(vthr, n: int, dtype) -> tuple[np.ndarray, int]:
        """Contiguous thresholds plus their per-step stride (0 if static)."""
        # numpy computes `v - vthr` with a python-float threshold by
        # value-casting it to the array dtype first (NEP 50) — the same
        # cast this broadcast performs, so scalar and per-neuron paths
        # agree bitwise.
        vthr = np.asarray(vthr, dtype=dtype)
        if vthr.ndim == 2:  # per-step [T, N] record of a controller sweep
            return np.ascontiguousarray(vthr), n
        return np.ascontiguousarray(np.broadcast_to(vthr, (n,))), 0

    # -- contract ------------------------------------------------------
    def lif_forward(self, ff, w_rec, spec, controller=None):
        """C (or hybrid numpy-GEMM + C) forward recurrence."""
        if not self._supported(ff):
            return numpy_ref.lif_forward_sweep(ff, w_rec, spec, controller)
        timesteps, batch, n_out = ff.shape
        dtype = ff.dtype
        ff = np.ascontiguousarray(ff)
        membrane = np.empty_like(ff)
        spikes = np.empty_like(ff)
        has_alpha = spec.alpha is not None
        syn = np.zeros((batch, n_out), dtype=dtype)
        alpha = spec.alpha if has_alpha else 0.0
        beta, hard = float(spec.beta), int(spec.hard)
        if controller is None:
            vthr, _ = self._vthr_array(spec.vthr, n_out, dtype)
            if w_rec is None:
                kernel, ctype = self._kernel("lif_forward", dtype)
                kernel(
                    timesteps, batch, n_out,
                    self._ptr(ctype, ff), self._ptr(ctype, vthr),
                    beta, hard, int(has_alpha), float(alpha),
                    self._ptr(ctype, syn),
                    self._ptr(ctype, membrane), self._ptr(ctype, spikes),
                )
                return membrane, spikes, spec.vthr
        else:
            vthr = np.empty((timesteps, n_out), dtype=dtype)
            value = controller.value
        # Hybrid loop: numpy owns the per-step recurrent projection (BLAS
        # is the bitwise anchor) and Python the controller call; C owns
        # the elementwise state update.
        step, ctype = self._kernel("lif_forward_step", dtype)
        size = batch * n_out
        current = np.empty((batch, n_out), dtype=dtype)
        rec = np.empty((batch, n_out), dtype=dtype)
        s_prev = np.zeros((batch, n_out), dtype=dtype)
        p_ff = self._ptr(ctype, ff)
        p_cur = self._ptr(ctype, current)
        p_vthr = self._ptr(ctype, vthr)
        p_syn = self._ptr(ctype, syn)
        p_membrane = self._ptr(ctype, membrane)
        p_spikes = self._ptr(ctype, spikes)
        null = self._ffi.NULL
        for t in range(timesteps):
            off = t * size
            p_in = p_ff + off
            if w_rec is not None:
                np.matmul(s_prev, w_rec, out=rec)
                np.add(ff[t], rec, out=current)
                p_in = p_cur
            p_thr = p_vthr
            if controller is not None:
                vthr[t] = value  # the dtype cast the tape applies
                p_thr = p_vthr + t * n_out
            step(
                batch, n_out, p_in,
                p_membrane + off - size if t else null,
                p_spikes + off - size if t else null,
                p_thr, beta, hard, int(has_alpha), float(alpha), p_syn,
                p_membrane + off, p_spikes + off,
            )
            s_prev = spikes[t]
            if controller is not None:
                counts = s_prev.sum(axis=0)
                value = controller.step(t, counts, counts * t)
        return membrane, spikes, (spec.vthr if controller is None else vthr)

    def lif_backward(self, g_spikes, surrogate, membrane, spikes, w_rec, spec):
        """C (or hybrid) reverse BPTT sweep returning ``gI``."""
        if not self._supported(g_spikes, surrogate, membrane, spikes):
            return numpy_ref.lif_reverse_sweep(
                g_spikes, surrogate, membrane, spikes, w_rec, spec
            )
        timesteps, batch, n_out = spikes.shape
        dtype = spikes.dtype
        g_spikes = np.ascontiguousarray(g_spikes, dtype=dtype)
        surrogate = np.ascontiguousarray(surrogate, dtype=dtype)
        membrane = np.ascontiguousarray(membrane)
        spikes = np.ascontiguousarray(spikes)
        g_current = np.empty_like(spikes)
        vthr, vthr_stride = self._vthr_array(spec.vthr, n_out, dtype)
        has_alpha = spec.alpha is not None
        alpha = spec.alpha if has_alpha else 0.0
        scratch = [np.empty((batch, n_out), dtype=dtype) for _ in range(3)]
        if w_rec is None:
            kernel, ctype = self._kernel("lif_backward", dtype)
            kernel(
                timesteps, batch, n_out,
                self._ptr(ctype, g_spikes), self._ptr(ctype, surrogate),
                self._ptr(ctype, membrane), self._ptr(ctype, spikes),
                self._ptr(ctype, vthr), vthr_stride,
                float(spec.beta), int(spec.hard), int(has_alpha), float(alpha),
                *(self._ptr(ctype, s) for s in scratch),
                self._ptr(ctype, g_current),
            )
            return g_current
        step, ctype = self._kernel("lif_backward_step", dtype)
        size = batch * n_out
        w_rec_t = np.ascontiguousarray(w_rec.T)  # the reference sweep's copy
        gs_rec = np.empty((batch, n_out), dtype=dtype)
        p = {
            "g": self._ptr(ctype, g_spikes),
            "surr": self._ptr(ctype, surrogate),
            "m": self._ptr(ctype, membrane),
            "s": self._ptr(ctype, spikes),
            "gj": self._ptr(ctype, g_current),
            "gs_rec": self._ptr(ctype, gs_rec),
            "vthr": self._ptr(ctype, vthr),
        }
        p_scratch = [self._ptr(ctype, s) for s in scratch]
        null = self._ffi.NULL
        beta, hard = float(spec.beta), int(spec.hard)
        for t in range(timesteps - 1, -1, -1):
            off = t * size
            have_carry = t < timesteps - 1
            step(
                batch, n_out, p["g"] + off, p["surr"] + off,
                p["gs_rec"] if have_carry else null,
                p["m"] + off - size if t else null,
                p["s"] + off - size if t else null,
                p["vthr"] + t * vthr_stride, beta, hard, int(has_alpha), float(alpha),
                int(have_carry), *p_scratch, p["gj"] + off,
            )
            if t > 0:
                np.matmul(g_current[t], w_rec_t, out=gs_rec)
        return g_current

    def readout_forward(self, projected, beta):
        """Whole readout integration in one C call."""
        if not self._supported(projected):
            return numpy_ref.readout_forward_sweep(projected, beta)
        projected = np.ascontiguousarray(projected)
        trajectory = np.empty_like(projected)
        kernel, ctype = self._kernel("readout_forward", projected.dtype)
        timesteps = projected.shape[0]
        kernel(
            timesteps, projected.size // timesteps,
            self._ptr(ctype, projected), float(beta),
            self._ptr(ctype, trajectory),
        )
        return trajectory

    def readout_backward(self, g_trajectory, beta):
        """Whole readout reverse sweep in one C call."""
        if not self._supported(g_trajectory):
            return numpy_ref.readout_backward_sweep(g_trajectory, beta)
        g_trajectory = np.ascontiguousarray(g_trajectory)
        g_membrane = np.empty_like(g_trajectory)
        kernel, ctype = self._kernel("readout_backward", g_trajectory.dtype)
        timesteps = g_trajectory.shape[0]
        kernel(
            timesteps, g_trajectory.size // timesteps,
            self._ptr(ctype, g_trajectory), float(beta),
            self._ptr(ctype, g_membrane),
        )
        return g_membrane


register_backend(CffiExecutor())
