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

BLAS accumulation order is the bitwise anchor and is not reproducible
by a naive loop (measured, not assumed — see ``docs/reproducibility.md``),
so the kernels never reimplement a GEMM: the per-step recurrent
product calls the gemm/gemv of the OpenBLAS library numpy itself links,
with exactly the arguments numpy's ``matmul`` passes.  Every sweep —
forward or reverse, and the leaky readout — is therefore one C call.
Only a forward sweep under a dynamic threshold controller (Alg. 1)
loops in Python, calling the same C step once per timestep around
``controller.step``.

The kernels come in float32 and float64 (see ``_DTYPES`` for why both
run); arrays of any other dtype, or of mixed dtypes, take the numpy
reference.

The shared library is built lazily on first use via the system C
compiler, cached per process and on disk under ``$REPRO_CACHE/ckernels``.
Beside it sits cffi's out-of-line ABI module of the C declarations, so
only the first process parses them (with pycparser); later ones execute
that module.  One digest of the C source, the declarations, the flags
and the compiler names both files.  The bitwise self-check runs on
every probe, cached files or not.  When cffi, a compiler or
numpy's BLAS symbols are missing, or the compiled kernels fail their
bitwise self-check, the backend reports itself unavailable with the
reason — ``auto`` selection then falls back to numpy.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import tempfile
from shutil import rmtree, which

import numpy as np

from repro.config import env_value
from repro.snn.backends import numpy_ref
from repro.snn.backends.base import SequenceExecutor, SweepSpec

__all__ = ["CffiExecutor", "kernel_source"]

_PRELUDE = r"""
#include <string.h>
typedef long long blasint;  /* numpy's OpenBLAS is the ILP64 build */
enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };
"""

# One macro-generated body per dtype: float ("f32") and double ("f64").
# Arithmetic mirrors numpy_ref line for line; every expression relies on
# C's left-to-right association for + and - so the accumulation order
# matches the documented tape order.
_TEMPLATE = r"""
/* numpy's own CBLAS gemm/gemv, resolved once by set_blas_{suf}. */
typedef void (*gemm_{suf}_t)(int, int, int, blasint, blasint, blasint, {ctype},
                             const {ctype} *, blasint, const {ctype} *, blasint,
                             {ctype}, {ctype} *, blasint);
typedef void (*gemv_{suf}_t)(int, int, blasint, blasint, {ctype},
                             const {ctype} *, blasint, const {ctype} *, blasint,
                             {ctype}, {ctype} *, blasint);
static gemm_{suf}_t gemm_{suf};
static gemv_{suf}_t gemv_{suf};

void set_blas_{suf}(void *gemm, void *gemv)
{{
    gemm_{suf} = (gemm_{suf}_t)gemm;
    gemv_{suf} = (gemv_{suf}_t)gemv;
}}

/* out = s @ w for C-contiguous [B, N] s and [N, N] w: exactly the BLAS
   call numpy's matmul makes (gemv for a single row), so the bits match. */
static void rec_gemm_{suf}(long B, long N, const {ctype} *s, const {ctype} *w,
                           {ctype} *out)
{{
    if (B == 1)
        gemv_{suf}(ROW_MAJOR, TRANS, N, N, 1.0, w, N, s, 1, 0.0, out, 1);
    else
        gemm_{suf}(ROW_MAJOR, NO_TRANS, NO_TRANS, B, N, N, 1.0, s, N, w, N,
                   0.0, out, N);
}}

static void lif_step_{suf}(
    long B, long N,
    const {ctype} *current, const {ctype} *v_prev, const {ctype} *s_prev,
    const {ctype} *vthr, double beta, int has_alpha, double alpha, {ctype} *syn,
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
            {ctype} v = vp * (({ctype})1.0 - sp) * beta_c + cur;
            v_out[i] = v;
            s_out[i] = (v - vthr[n] > ({ctype})0.0) ? ({ctype})1.0 : ({ctype})0.0;
        }}
    }}
}}

/* Step t of the forward sweep; rec is [B, N] scratch. */
void lif_forward_step_{suf}(
    long t, long B, long N,
    const {ctype} *ff, const {ctype} *w_rec, const {ctype} *vthr,
    double beta, int has_alpha, double alpha,
    {ctype} *syn, {ctype} *rec, {ctype} *membrane, {ctype} *spikes)
{{
    const long BN = B * N;
    const {ctype} *current = ff + t * BN;
    /* The reference's t = 0 GEMM runs on the zero state; spikes[0]
       holds it until this step writes the step's spikes there. */
    if (!t) memset(spikes, 0, BN * sizeof({ctype}));
    rec_gemm_{suf}(B, N, t ? spikes + (t - 1) * BN : spikes, w_rec, rec);
    for (long i = 0; i < BN; i++) rec[i] = current[i] + rec[i];
    lif_step_{suf}(B, N, rec,
                   t ? membrane + (t - 1) * BN : 0,
                   t ? spikes + (t - 1) * BN : 0,
                   vthr, beta, has_alpha, alpha, syn,
                   membrane + t * BN, spikes + t * BN);
}}

void lif_forward_{suf}(
    long T, long B, long N,
    const {ctype} *ff, const {ctype} *w_rec, const {ctype} *vthr,
    double beta, int has_alpha, double alpha,
    {ctype} *syn, {ctype} *rec, {ctype} *membrane, {ctype} *spikes)
{{
    for (long t = 0; t < T; t++)
        lif_forward_step_{suf}(t, B, N, ff, w_rec, vthr, beta, has_alpha,
                               alpha, syn, rec, membrane, spikes);
}}

static void lif_backward_step_{suf}(
    long BN,
    const {ctype} *g_spikes_t, const {ctype} *surrogate_t, const {ctype} *gs_rec,
    const {ctype} *membrane_prev, const {ctype} *spikes_prev,
    double beta, int has_alpha, double alpha, int have_carry,
    {ctype} *gs_reset, {ctype} *gv_carry, {ctype} *gj_carry, {ctype} *gj_out)
{{
    /* One branch-free loop per case; gj_out holds gV until read. */
    const {ctype} beta_c = ({ctype})beta;
    const {ctype} alpha_c = ({ctype})alpha;
    {ctype} *gv = gj_out;
    if (!have_carry) {{
        for (long i = 0; i < BN; i++) gv[i] = g_spikes_t[i] * surrogate_t[i];
    }} else {{
        for (long i = 0; i < BN; i++)
            gv[i] = ((g_spikes_t[i] + gs_reset[i]) + gs_rec[i]) * surrogate_t[i]
                    + gv_carry[i];
    }}
    if (membrane_prev) {{
        for (long i = 0; i < BN; i++) {{
            {ctype} gv_beta = gv[i] * beta_c;
            gs_reset[i] = -(gv_beta * membrane_prev[i]);
            gv_carry[i] = gv_beta * (({ctype})1.0 - spikes_prev[i]);
        }}
    }}
    if (has_alpha) {{
        /* J[t] feeds V[t] directly and J[t+1] through the alpha decay. */
        if (have_carry)
            for (long i = 0; i < BN; i++) gj_out[i] = gv[i] + gj_carry[i];
        for (long i = 0; i < BN; i++) gj_carry[i] = gj_out[i] * alpha_c;
    }}
}}

/* w_rec_t is the C-contiguous W_rec^T. */
void lif_backward_{suf}(
    long T, long B, long N,
    const {ctype} *g_spikes, const {ctype} *surrogate,
    const {ctype} *membrane, const {ctype} *spikes, const {ctype} *w_rec_t,
    double beta, int has_alpha, double alpha,
    {ctype} *gs_reset, {ctype} *gv_carry, {ctype} *gj_carry, {ctype} *gs_rec,
    {ctype} *g_current)
{{
    const long BN = B * N;
    for (long t = T - 1; t >= 0; t--) {{
        lif_backward_step_{suf}(BN, g_spikes + t * BN, surrogate + t * BN,
                                gs_rec,
                                t ? membrane + (t - 1) * BN : 0,
                                t ? spikes + (t - 1) * BN : 0,
                                beta, has_alpha, alpha, t < T - 1,
                                gs_reset, gv_carry, gj_carry, g_current + t * BN);
        if (t > 0)
            rec_gemm_{suf}(B, N, g_current + t * BN, w_rec_t, gs_rec);
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
void set_blas_{suf}(void *, void *);
void lif_forward_{suf}(long, long, long, const {ctype} *, const {ctype} *,
                       const {ctype} *, double, int, double, {ctype} *,
                       {ctype} *, {ctype} *, {ctype} *);
void lif_forward_step_{suf}(long, long, long, const {ctype} *, const {ctype} *,
                            const {ctype} *, double, int, double, {ctype} *,
                            {ctype} *, {ctype} *, {ctype} *);
void lif_backward_{suf}(long, long, long, const {ctype} *, const {ctype} *,
                        const {ctype} *, const {ctype} *, const {ctype} *,
                        double, int, double, {ctype} *, {ctype} *, {ctype} *,
                        {ctype} *, {ctype} *);
void readout_forward_{suf}(long, long, const {ctype} *, double, {ctype} *);
void readout_backward_{suf}(long, long, const {ctype} *, double, {ctype} *);
"""

#: The compiled variants.  float32 is the library's dtype; float64 runs
#: too: the trainer's gradient clip scales float32 gradients by a numpy
#: float64 scalar, which promotes them (NEP 50), so a clipped layer's
#: weights train on in float64 — in practice the NCL phase's learning
#: layers, in every NCL step.
_DTYPES = {"f32": "float", "f64": "double"}

#: Compiler flags that make the C arithmetic IEEE-exact: no value
#: reassociation, no contraction of a*b+c into fma(a, b, c) — either
#: would change rounding and break bitwise parity with numpy.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

#: The ILP64 CBLAS entry points numpy's bundled OpenBLAS
#: (scipy-openblas64) exports, as (gemm, gemv) per dtype suffix.
_BLAS_SYMBOLS = {
    "f32": ("scipy_cblas_sgemm64_", "scipy_cblas_sgemv64_"),
    "f64": ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_"),
}


def kernel_source() -> str:
    """The complete C source of the kernels (both dtype variants)."""
    return _PRELUDE + "\n".join(
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


def _cdef() -> str:
    """Every C declaration the executor binds: kernels and numpy's BLAS.

    The BLAS entry points are declared ``void f(void)`` only to take
    their addresses.
    """
    kernels = "".join(
        _CDEF_TEMPLATE.format(suf=suf, ctype=ctype) for suf, ctype in _DTYPES.items()
    )
    names = [name for pair in _BLAS_SYMBOLS.values() for name in pair]
    return kernels + "".join(f"void {name}(void);\n" for name in names)


def _build_paths(compiler: str) -> tuple[str, str]:
    """Cache paths of the shared library and its FFI module.

    Both names embed one digest of the C source, the declarations, the
    flags and the compiler, so editing any of them invalidates both.
    """
    digest = hashlib.sha256(
        (kernel_source() + _cdef() + " ".join(_CFLAGS) + compiler).encode()
    ).hexdigest()[:16]
    stem = os.path.join(_cache_dir(), f"reprokernels-{digest}")
    return stem + ".so", stem + "-ffi.py"


def _compile(compiler: str, lib_path: str) -> None:
    """Compile the kernels into ``lib_path`` unless it is already there."""
    if os.path.exists(lib_path):
        return
    cache = os.path.dirname(lib_path)
    os.makedirs(cache, exist_ok=True)
    src_path = lib_path[: -len(".so")] + ".c"
    with open(src_path, "w") as handle:
        handle.write(kernel_source())
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


def _write_ffi(ffi_path: str) -> None:
    """Parse the declarations once into cffi's out-of-line ABI module.

    This is the only step that needs cffi's C parser (pycparser); later
    processes execute the written module instead.
    """
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_cdef())
    ffi.set_source("_reprokernels_ffi", None)
    cache = os.path.dirname(ffi_path)
    os.makedirs(cache, exist_ok=True)
    # Generate in a private directory then rename, as for the library.
    tmp_dir = tempfile.mkdtemp(dir=cache)
    try:
        os.replace(ffi.compile(tmpdir=tmp_dir, verbose=False), ffi_path)
    finally:
        rmtree(tmp_dir)


def _load_ffi(ffi_path: str):
    """The ``ffi`` object of a written FFI module."""
    with open(ffi_path) as handle:
        code = compile(handle.read(), ffi_path, "exec")
    namespace: dict = {}
    exec(code, namespace)  # our own generated module, trusted as the .so is
    return namespace["ffi"]


def _bind_numpy_blas(ffi, lib) -> None:
    """Hand the kernels the gemm/gemv of the BLAS numpy's matmul calls.

    ``dlsym`` on numpy's core extension module also searches that
    module's dependencies, so this finds the BLAS library numpy links
    (already mapped in this process, thread settings included) without
    knowing its hashed file name.
    """
    from numpy._core import _multiarray_umath

    blas = ffi.dlopen(_multiarray_umath.__file__)
    for suf, names in _BLAS_SYMBOLS.items():
        getattr(lib, f"set_blas_{suf}")(
            *(ffi.cast("void *", getattr(blas, name)) for name in names)
        )


class CffiExecutor(SequenceExecutor):
    """Compiled-C executor (module docstring has the full story)."""

    name = "c"

    def __init__(self):
        self._ffi = None
        self._lib = None
        self._probe: tuple[bool, str] | None = None

    # -- build / probe -------------------------------------------------
    def availability(self) -> tuple[bool, str]:
        """Probe cffi + a C compiler and build/self-check the kernels.

        The probe runs once per process; its result (and reason) is
        cached.  Any failure — missing cffi, no compiler on PATH, a
        compile error, numpy's BLAS symbols not found, or a bitwise
        self-check mismatch — makes the backend unavailable with that
        reason.
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
            ffi, lib = self._build(compiler)
        except Exception as error:  # build failures become reasons, not crashes
            return False, f"kernel build (compile or FFI module) failed: {error}"
        try:
            _bind_numpy_blas(ffi, lib)
        except Exception as error:
            return False, f"numpy's BLAS (cblas gemm/gemv) is not resolvable: {error}"
        self._ffi, self._lib = ffi, lib
        try:
            self._self_check()
        except Exception as error:
            return False, f"compiled kernels failed their bitwise self-check: {error}"
        return True, f"compiled C kernels via {compiler} on numpy's BLAS (bitwise vs numpy)"

    def _build(self, compiler: str) -> tuple:
        lib_path, ffi_path = _build_paths(compiler)
        _compile(compiler, lib_path)
        try:
            ffi = _load_ffi(ffi_path)
        except Exception:  # missing, truncated or garbage: write it afresh
            _write_ffi(ffi_path)
            ffi = _load_ffi(ffi_path)
        return ffi, ffi.dlopen(lib_path)

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
        # B = 1 takes BLAS's gemv, B >= 2 its gemm.
        for dtype, batch in itertools.product((np.float32, np.float64), (1, 3)):
            ff = rng.standard_normal((5, batch, 4)).astype(dtype)
            w_rec = rng.standard_normal((4, 4)).astype(dtype) * dtype(0.3)
            for alpha in (None, 0.5):
                spec = SweepSpec(beta=0.9, vthr=0.7, alpha=alpha)
                want = numpy_ref.lif_forward_sweep(ff, w_rec, spec)[:2]
                got = self.lif_forward(ff, w_rec, spec)[:2]
                if not all(np.array_equal(a, b) for a, b in zip(want, got)):
                    raise AssertionError("forward sweep mismatch")
                g = rng.standard_normal(ff.shape).astype(dtype)
                surrogate = rng.random(ff.shape).astype(dtype)
                want_g = numpy_ref.lif_reverse_sweep(g, surrogate, *want, w_rec, spec)
                got_g = self.lif_backward(g, surrogate, *got, w_rec, spec)
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
        ctype = "float[]" if suf == "f32" else "double[]"
        return getattr(self._lib, f"{name}_{suf}"), ctype

    def _ptr(self, ctype: str, array: np.ndarray):
        # A view of the C-contiguous buffer (read-only ones too), which
        # decays to a pointer and supports ``p + offset``.
        return self._ffi.from_buffer(ctype, array)

    def _supported(self, *arrays: np.ndarray, w_rec=None) -> bool:
        """True when the kernels take these arrays; else the reference does.

        Every array must share one compiled dtype.  The kernels' GEMM is
        matmul's call for a C-contiguous weight, so another layout takes
        the reference too.
        """
        if w_rec is not None:
            if not w_rec.flags.c_contiguous:
                return False
            arrays += (w_rec,)
        dtype = arrays[0].dtype
        return dtype in self._SUFFIXES and all(a.dtype == dtype for a in arrays)

    # -- contract ------------------------------------------------------
    def lif_forward(self, ff, w_rec, spec, controller=None):
        """Forward recurrence in one C call (per step under a controller)."""
        if not self._supported(ff, w_rec=w_rec):
            return numpy_ref.lif_forward_sweep(ff, w_rec, spec, controller)
        timesteps, batch, n_out = ff.shape
        dtype = ff.dtype
        ff = np.ascontiguousarray(ff)
        membrane = np.empty_like(ff)
        spikes = np.empty_like(ff)
        syn = np.zeros((batch, n_out), dtype=dtype)
        rec = np.empty((batch, n_out), dtype=dtype)
        alpha = 0.0 if spec.alpha is None else float(spec.alpha)
        consts = (float(spec.beta), int(spec.alpha is not None), alpha)
        if controller is None:
            # numpy computes `v - vthr` with a python-float threshold by
            # value-casting it to the array dtype first (NEP 50) — the
            # same cast this fill performs.
            vthr = np.full(n_out, spec.vthr, dtype=dtype)
        else:
            vthr = np.empty((timesteps, n_out), dtype=dtype)
        kernel, ctype = self._kernel(
            "lif_forward" if controller is None else "lif_forward_step", dtype
        )
        p_ff, p_w, p_vthr, *p_state = (
            self._ptr(ctype, a) for a in (ff, w_rec, vthr, syn, rec, membrane, spikes)
        )
        if controller is None:
            kernel(timesteps, batch, n_out, p_ff, p_w, p_vthr, *consts, *p_state)
            return membrane, spikes, spec.vthr
        value = controller.value
        for t in range(timesteps):
            vthr[t] = value  # the dtype cast the tape applies
            kernel(t, batch, n_out, p_ff, p_w, p_vthr + t * n_out, *consts, *p_state)
            counts = spikes[t].sum(axis=0)
            value = controller.step(t, counts, counts * t)
        return membrane, spikes, vthr

    def lif_backward(self, g_spikes, surrogate, membrane, spikes, w_rec, spec):
        """Reverse BPTT sweep returning ``gI``, in one C call."""
        if not self._supported(g_spikes, surrogate, membrane, spikes, w_rec=w_rec):
            return numpy_ref.lif_reverse_sweep(
                g_spikes, surrogate, membrane, spikes, w_rec, spec
            )
        timesteps, batch, n_out = spikes.shape
        # w_rec_t: the reference sweep's contiguous W_rec^T copy.
        arrays = [
            np.ascontiguousarray(a) for a in (g_spikes, surrogate, membrane, spikes, w_rec.T)
        ]
        g_current = np.empty_like(arrays[3])
        alpha = 0.0 if spec.alpha is None else float(spec.alpha)
        scratch = [np.empty((batch, n_out), dtype=spikes.dtype) for _ in range(4)]
        kernel, ctype = self._kernel("lif_backward", spikes.dtype)
        kernel(
            timesteps, batch, n_out,
            *(self._ptr(ctype, a) for a in arrays),
            float(spec.beta), int(spec.alpha is not None), alpha,
            *(self._ptr(ctype, s) for s in scratch),
            self._ptr(ctype, g_current),
        )
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
