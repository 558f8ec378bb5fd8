"""The float32 contract of the NCL phase.

Every array the library trains is float32.  An NCL run of any method,
at any insertion layer, must leave its learning layers float32: a
parameter promoted to float64 (by the gradient clip, say) would take the
numpy reference for every later sweep and drift from the C kernels.
"""

import numpy as np
import pytest

from repro.core.registry import METHODS


@pytest.mark.parametrize("insertion", [1, 2, 3], ids=lambda i: f"L{i}")
@pytest.mark.parametrize("name", sorted(METHODS))
def test_ncl_run_keeps_parameters_float32(ci_preset, ci_pretrained, ci_split, name, insertion):
    experiment = ci_preset.experiment
    experiment = experiment.replace(ncl=experiment.ncl.replace(insertion_layer=insertion))
    result = METHODS[name](experiment).run(ci_pretrained.network, ci_split)
    params = result.network.trainable_parameters()
    assert params
    assert all(p.data.dtype == np.float32 for p in params)
