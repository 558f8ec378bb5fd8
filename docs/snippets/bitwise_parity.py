"""Runnable docs example: the sweep path in use against the numpy reference."""

import numpy as np

from repro.snn.backends import SweepSpec, active
from repro.snn.backends.numpy_ref import lif_forward_sweep

rng = np.random.default_rng(0)
ff = rng.standard_normal((20, 4, 32)).astype(np.float32)
w_rec = (rng.standard_normal((32, 32)) * 0.2).astype(np.float32)
spec = SweepSpec(beta=0.9, vthr=0.6)

reference_membrane, reference_spikes, _ = lif_forward_sweep(ff, w_rec, spec)
executor = active()
membrane, spikes, _ = executor.lif_forward(ff, w_rec, spec)

# Either path is bitwise: the C kernels must match the reference to the
# last bit, and without them the sweep *is* the reference.
assert np.array_equal(membrane, reference_membrane)
assert np.array_equal(spikes, reference_spikes)
print(f"path {executor.name!r} matches the reference bitwise")
