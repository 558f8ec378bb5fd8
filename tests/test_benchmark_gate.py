"""The micro-benchmark gate (``benchmarks/check_regression.py``) still bites.

Synthetic rows just either side of each limit: the 4x baseline
tolerance and the 2% disabled-tracing limit.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
_SPEC = importlib.util.spec_from_file_location("check_regression", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

BASE = 1e-3


@pytest.mark.parametrize("ratio, fails", [(4.01, True), (3.99, False)])
def test_baseline_tolerance(ratio, fails):
    baseline = {"benchmarks": {"test_row": BASE}}
    failures = gate.check_baseline({"test_row": ratio * BASE}, baseline, 4.0)
    assert bool(failures) == fails


def test_missing_row_fails_unless_backend_optional():
    baseline = {"benchmarks": {"test_row": BASE, "test_backend_x[c]": BASE}}
    failures = gate.check_baseline({}, baseline, 4.0)
    assert len(failures) == 1 and "test_row" in failures[0]


@pytest.mark.parametrize("fraction, fails", [(0.0201, True), (0.0199, False)])
def test_trace_overhead_limit(fraction, fails):
    times = {gate.FUSED_BENCH: BASE, gate.TRACE_OVERHEAD_BENCH: fraction * BASE}
    assert bool(gate.check_trace_overhead(times)) == fails


def test_gate_reads_the_fastest_round(tmp_path):
    results = tmp_path / "results.json"
    results.write_text(json.dumps({"benchmarks": [
        {"name": "test_row", "stats": {"min": 1.0, "mean": 1.8, "max": 3.0}},
    ]}))
    assert gate.load_times(results) == {"test_row": 1.0}
