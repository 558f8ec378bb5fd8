"""The executor of the fused sequence sweeps: hand-written C kernels via cffi.

The interpreter-bound part of the fused kernels is the per-timestep
chain of small elementwise ufunc calls; this executor runs that chain in
compiled C.  The C kernels replicate the reference association order
documented in :mod:`repro.snn.backends.numpy_ref` **exactly** and are
compiled with ``-fno-fast-math -ffp-contract=off`` so the compiler can
neither reassociate nor fuse multiplies and adds — their self-check and
the parity suite hold them *bitwise* to the numpy reference.  ``-O3``
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

The kernels are float32 only, the library's one dtype; arrays of any
other dtype (float64 gradchecks, say), or of mixed dtypes, take the
numpy reference sweeps, as does every sweep when the kernels did not
build or failed their self-check.

The shared library is built lazily on first use via the system C
compiler, cached per process and on disk under ``$REPRO_CACHE/ckernels``.
Beside it sits cffi's out-of-line ABI module of the C declarations, so
only the first process parses them (with pycparser); later ones execute
that module.  One digest of the C source, the declarations, the flags
and the compiler names both files.  The bitwise self-check runs on
every probe, cached files or not.  When cffi, a compiler or
numpy's BLAS symbols are missing, or the compiled kernels fail their
bitwise self-check, the probe reports why and every sweep runs the
numpy reference.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from shutil import rmtree, which

import numpy as np

from repro.config import env_value
from repro.snn.backends import numpy_ref
from repro.snn.backends.numpy_ref import SweepSpec

__all__ = ["CffiExecutor", "kernel_source"]

# Arithmetic mirrors numpy_ref line for line; every expression relies on
# C's left-to-right association for + and - so the accumulation order
# matches the documented per-step order.
_SOURCE = r"""
#include <string.h>
typedef long long blasint;  /* numpy's OpenBLAS is the ILP64 build */
enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };

/* numpy's own CBLAS sgemm/sgemv, resolved once by set_blas. */
typedef void (*gemm_t)(int, int, int, blasint, blasint, blasint, float,
                       const float *, blasint, const float *, blasint,
                       float, float *, blasint);
typedef void (*gemv_t)(int, int, blasint, blasint, float,
                       const float *, blasint, const float *, blasint,
                       float, float *, blasint);
static gemm_t blas_gemm;
static gemv_t blas_gemv;

void set_blas(void *gemm, void *gemv)
{
    blas_gemm = (gemm_t)gemm;
    blas_gemv = (gemv_t)gemv;
}

/* out = s @ w for C-contiguous [B, N] s and [N, N] w: exactly the BLAS
   call numpy's matmul makes (gemv for a single row), so the bits match. */
static void rec_gemm(long B, long N, const float *s, const float *w, float *out)
{
    if (B == 1)
        blas_gemv(ROW_MAJOR, TRANS, N, N, 1.0, w, N, s, 1, 0.0, out, 1);
    else
        blas_gemm(ROW_MAJOR, NO_TRANS, NO_TRANS, B, N, N, 1.0, s, N, w, N,
                  0.0, out, N);
}

static void lif_step(
    long B, long N,
    const float *current, const float *v_prev, const float *s_prev,
    const float *vthr, double beta, float *v_out, float *s_out)
{
    const float beta_c = (float)beta;
    long i = 0;
    for (long b = 0; b < B; b++) {
        for (long n = 0; n < N; n++, i++) {
            float vp = v_prev ? v_prev[i] : 0.0f;
            float sp = s_prev ? s_prev[i] : 0.0f;
            float v = vp * (1.0f - sp) * beta_c + current[i];
            v_out[i] = v;
            s_out[i] = (v - vthr[n] > 0.0f) ? 1.0f : 0.0f;
        }
    }
}

/* Step t of the forward sweep; rec is [B, N] scratch. */
void lif_forward_step(
    long t, long B, long N,
    const float *ff, const float *w_rec, const float *vthr, double beta,
    float *rec, float *membrane, float *spikes)
{
    const long BN = B * N;
    const float *current = ff + t * BN;
    /* The reference's t = 0 GEMM runs on the zero state; spikes[0]
       holds it until this step writes the step's spikes there. */
    if (!t) memset(spikes, 0, BN * sizeof(float));
    rec_gemm(B, N, t ? spikes + (t - 1) * BN : spikes, w_rec, rec);
    for (long i = 0; i < BN; i++) rec[i] = current[i] + rec[i];
    lif_step(B, N, rec,
             t ? membrane + (t - 1) * BN : 0,
             t ? spikes + (t - 1) * BN : 0,
             vthr, beta, membrane + t * BN, spikes + t * BN);
}

void lif_forward(
    long T, long B, long N,
    const float *ff, const float *w_rec, const float *vthr, double beta,
    float *rec, float *membrane, float *spikes)
{
    for (long t = 0; t < T; t++)
        lif_forward_step(t, B, N, ff, w_rec, vthr, beta, rec, membrane, spikes);
}

static void lif_backward_step(
    long BN,
    const float *g_spikes_t, const float *surrogate_t, const float *gs_rec,
    const float *membrane_prev, const float *spikes_prev,
    double beta, int have_carry,
    float *gs_reset, float *gv_carry, float *gv)
{
    /* One branch-free loop per case; gv is gI[t], written in place. */
    const float beta_c = (float)beta;
    if (!have_carry) {
        for (long i = 0; i < BN; i++) gv[i] = g_spikes_t[i] * surrogate_t[i];
    } else {
        for (long i = 0; i < BN; i++)
            gv[i] = ((g_spikes_t[i] + gs_reset[i]) + gs_rec[i]) * surrogate_t[i]
                    + gv_carry[i];
    }
    if (membrane_prev) {
        for (long i = 0; i < BN; i++) {
            float gv_beta = gv[i] * beta_c;
            gs_reset[i] = -(gv_beta * membrane_prev[i]);
            gv_carry[i] = gv_beta * (1.0f - spikes_prev[i]);
        }
    }
}

/* w_rec_t is the C-contiguous W_rec^T. */
void lif_backward(
    long T, long B, long N,
    const float *g_spikes, const float *surrogate,
    const float *membrane, const float *spikes, const float *w_rec_t,
    double beta, float *gs_reset, float *gv_carry, float *gs_rec,
    float *g_current)
{
    const long BN = B * N;
    for (long t = T - 1; t >= 0; t--) {
        lif_backward_step(BN, g_spikes + t * BN, surrogate + t * BN, gs_rec,
                          t ? membrane + (t - 1) * BN : 0,
                          t ? spikes + (t - 1) * BN : 0,
                          beta, t < T - 1, gs_reset, gv_carry, g_current + t * BN);
        if (t > 0)
            rec_gemm(B, N, g_current + t * BN, w_rec_t, gs_rec);
    }
}

void readout_forward(
    long T, long BC, const float *projected, double beta, float *trajectory)
{
    const float beta_c = (float)beta;
    for (long t = 0; t < T; t++) {
        const float *prev = t ? trajectory + (t - 1) * BC : 0;
        for (long i = 0; i < BC; i++) {
            float m = prev ? prev[i] : 0.0f;
            trajectory[t * BC + i] = m * beta_c + projected[t * BC + i];
        }
    }
}

void readout_backward(
    long T, long BC, const float *g_trajectory, double beta, float *g_membrane)
{
    const float beta_c = (float)beta;
    for (long t = T - 1; t >= 0; t--) {
        for (long i = 0; i < BC; i++) {
            float gm = g_trajectory[t * BC + i];
            if (t < T - 1) gm = gm + g_membrane[(t + 1) * BC + i] * beta_c;
            g_membrane[t * BC + i] = gm;
        }
    }
}
"""

_CDEF = """
void set_blas(void *, void *);
void lif_forward(long, long, long, const float *, const float *, const float *,
                 double, float *, float *, float *);
void lif_forward_step(long, long, long, const float *, const float *,
                      const float *, double, float *, float *, float *);
void lif_backward(long, long, long, const float *, const float *, const float *,
                  const float *, const float *, double, float *, float *,
                  float *, float *);
void readout_forward(long, long, const float *, double, float *);
void readout_backward(long, long, const float *, double, float *);
"""

#: Compiler flags that make the C arithmetic IEEE-exact: no value
#: reassociation, no contraction of a*b+c into fma(a, b, c) — either
#: would change rounding and break bitwise parity with numpy.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

#: The float32 ILP64 CBLAS entry points numpy's bundled OpenBLAS
#: (scipy-openblas64) exports, as (gemm, gemv).
_BLAS_SYMBOLS = ("scipy_cblas_sgemm64_", "scipy_cblas_sgemv64_")


def kernel_source() -> str:
    """The complete C source of the float32 kernels."""
    return _SOURCE


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
    return _CDEF + "".join(f"void {name}(void);\n" for name in _BLAS_SYMBOLS)


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
    lib.set_blas(*(ffi.cast("void *", getattr(blas, name)) for name in _BLAS_SYMBOLS))


class CffiExecutor:
    """The four sweeps: on the C kernels where they run, else the reference.

    A sweep runs the compiled kernels when the probe
    (:meth:`availability`) built them and they passed their bitwise
    self-check, and the arrays are ones the kernels take
    (:meth:`_supported`).  Otherwise it returns the numpy reference
    sweep's result, which is the same bits.  All array arguments and
    results are numpy ``[T, B, N]`` stacks; the module docstring has
    the full story.
    """

    def __init__(self):
        self._ffi = None
        self._lib = None
        self._probe: tuple[bool, str] | None = None

    @property
    def name(self) -> str:
        """The path a float32 sweep takes: ``"c"`` after a passed probe, else ``"numpy"``."""
        return "c" if self.availability()[0] else "numpy"

    def path(self, *arrays: np.ndarray, w_rec=None) -> str:
        """The path a sweep of these arrays takes, ``"c"`` or ``"numpy"``."""
        return "c" if self._supported(*arrays, w_rec=w_rec) else "numpy"

    # -- build / probe -------------------------------------------------
    def availability(self) -> tuple[bool, str]:
        """Probe cffi + a C compiler and build/self-check the kernels.

        The probe runs once per executor, on first use; its result (and
        reason) is cached.  Any failure — missing cffi, no compiler on
        PATH, a compile error, numpy's BLAS symbols not found, or a
        bitwise self-check mismatch — returns ``(False, reason)`` and
        leaves every sweep on the reference.  Never raises.
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
        # Open the sweeps to the kernels so the self-check runs them; the
        # caller overwrites this result with the one returned below.
        self._probe = (
            True, f"compiled C kernels via {compiler} on numpy's BLAS (bitwise vs numpy)"
        )
        try:
            self._self_check()
        except Exception as error:
            return False, f"compiled kernels failed their bitwise self-check: {error}"
        return self._probe

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
        the flags: such a toolchain leaves every sweep on the reference
        instead of corrupting trajectory reproducibility.
        """
        # The probe deliberately avoids repro.seeding: a broken toolchain
        # must be diagnosed before the kernels touch any repro module,
        # and the fixed seed carries no experiment state.
        rng = np.random.default_rng(0)  # repro-lint: disable=RPL001 -- fixed-seed toolchain probe, independent of experiment seeding
        # B = 1 takes BLAS's gemv, B >= 2 its gemm.
        for batch in (1, 3):
            ff = rng.standard_normal((5, batch, 4)).astype(np.float32)
            w_rec = rng.standard_normal((4, 4)).astype(np.float32) * np.float32(0.3)
            spec = SweepSpec(beta=0.9, vthr=0.7)
            want = numpy_ref.lif_forward_sweep(ff, w_rec, spec)[:2]
            got = self.lif_forward(ff, w_rec, spec)[:2]
            if not all(np.array_equal(a, b) for a, b in zip(want, got)):
                raise AssertionError("forward sweep mismatch")
            g = rng.standard_normal(ff.shape).astype(np.float32)
            surrogate = rng.random(ff.shape).astype(np.float32)
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
    def _ptr(self, array: np.ndarray):
        # A view of the C-contiguous buffer (read-only ones too), which
        # decays to a pointer and supports ``p + offset``.
        return self._ffi.from_buffer("float[]", array)

    def _supported(self, *arrays: np.ndarray, w_rec=None) -> bool:
        """True when the kernels take these arrays; else the reference does.

        The probe must have passed.  Every array must be float32, the
        kernels' one dtype.  Their GEMM is matmul's call for a
        C-contiguous weight, so another layout takes the reference too.
        """
        if not self.availability()[0]:
            return False
        if w_rec is not None:
            if not w_rec.flags.c_contiguous:
                return False
            arrays += (w_rec,)
        return all(a.dtype == np.float32 for a in arrays)

    # -- sweeps (numpy_ref has the contract) ----------------------------
    def lif_forward(self, ff, w_rec, spec, controller=None):
        """Forward recurrence in one C call (per step under a controller)."""
        if not self._supported(ff, w_rec=w_rec):
            return numpy_ref.lif_forward_sweep(ff, w_rec, spec, controller)
        timesteps, batch, n_out = ff.shape
        ff = np.ascontiguousarray(ff)
        membrane = np.empty_like(ff)
        spikes = np.empty_like(ff)
        rec = np.empty((batch, n_out), dtype=np.float32)
        beta = float(spec.beta)
        if controller is None:
            # numpy computes `v - vthr` with a python-float threshold by
            # value-casting it to the array dtype first (NEP 50) — the
            # same cast this fill performs.
            vthr = np.full(n_out, spec.vthr, dtype=np.float32)
        else:
            vthr = np.empty((timesteps, n_out), dtype=np.float32)
        kernel = self._lib.lif_forward if controller is None else self._lib.lif_forward_step
        p_ff, p_w, p_vthr, *p_state = (
            self._ptr(a) for a in (ff, w_rec, vthr, rec, membrane, spikes)
        )
        if controller is None:
            kernel(timesteps, batch, n_out, p_ff, p_w, p_vthr, beta, *p_state)
            return membrane, spikes, spec.vthr
        value = controller.value
        for t in range(timesteps):
            vthr[t] = value  # the dtype cast the per-step oracle applies
            kernel(t, batch, n_out, p_ff, p_w, p_vthr + t * n_out, beta, *p_state)
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
        scratch = [np.empty((batch, n_out), dtype=np.float32) for _ in range(3)]
        self._lib.lif_backward(
            timesteps, batch, n_out,
            *(self._ptr(a) for a in arrays),
            float(spec.beta),
            *(self._ptr(s) for s in scratch),
            self._ptr(g_current),
        )
        return g_current

    def readout_forward(self, projected, beta):
        """Whole readout integration in one C call."""
        if not self._supported(projected):
            return numpy_ref.readout_forward_sweep(projected, beta)
        projected = np.ascontiguousarray(projected)
        trajectory = np.empty_like(projected)
        timesteps = projected.shape[0]
        self._lib.readout_forward(
            timesteps, projected.size // timesteps,
            self._ptr(projected), float(beta), self._ptr(trajectory),
        )
        return trajectory

    def readout_backward(self, g_trajectory, beta):
        """Whole readout reverse sweep in one C call."""
        if not self._supported(g_trajectory):
            return numpy_ref.readout_backward_sweep(g_trajectory, beta)
        g_trajectory = np.ascontiguousarray(g_trajectory)
        g_membrane = np.empty_like(g_trajectory)
        timesteps = g_trajectory.shape[0]
        self._lib.readout_backward(
            timesteps, g_trajectory.size // timesteps,
            self._ptr(g_trajectory), float(beta), self._ptr(g_membrane),
        )
        return g_membrane
