"""Experiment reproduction: one function per paper figure/table.

Usage::

    from repro.eval import experiments
    result = experiments.run("fig11", scale="bench")
    print(result.format_text())

Figure ids: ``fig1a``, ``fig2``, ``fig8``, ``fig10``, ``fig11``,
``fig12``, ``fig13``, ``headline``.  Scales: ``ci`` (tiny, for tests),
``bench`` (default for benchmarks), ``paper`` (the full configuration —
CPU-hours).  See :mod:`repro.eval.figures` for the experiment index and
:mod:`repro.eval.scale` for the scale definitions.
"""

from repro.eval import experiments
from repro.eval.ascii_plot import ascii_bars, ascii_curve
from repro.eval.results import ExperimentResult, Series
from repro.eval.scale import SCALES, ScalePreset, get_scale

__all__ = [
    "experiments",
    "ExperimentResult",
    "Series",
    "ScalePreset",
    "SCALES",
    "get_scale",
    "ascii_curve",
    "ascii_bars",
]
