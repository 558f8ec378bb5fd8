"""Fast test of the benchmark itself, at reduced size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest e2ebench/test_e2ebench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_workload_emits_every_metric_and_tracing_is_bitwise_neutral(workload, tmp_path):
    plain = worker.run_repeat(workload, 3, tmp_path / "plain", traced=False, reduced=True)
    traced = worker.run_repeat(workload, 3, tmp_path / "traced", traced=True, reduced=True)

    assert traced["matrix_hex"] == plain["matrix_hex"]
    assert traced["latent_bytes"] == plain["latent_bytes"]
    steps = worker.expected_steps(workload, reduced=True)
    assert plain["steps"] == plain["callbacks"] == len(plain["step_intervals_s"]) == steps

    end_to_end = run.end_to_end([plain], [plain["setup_s"]])
    assert {name: m["unit"] for name, m in end_to_end.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in end_to_end.values())

    values, table = traced["tracer"].metrics(traced["recorder"], plain["wall_s"])
    assert {name: unit for name, (_, unit) in values.items()} == _units("per_layer")
    wall = values["obs.traced_wall_s"][0]
    assert sum(seconds for _, seconds in table) == pytest.approx(wall, rel=1e-9)
    shares = [v for name, (v, _) in values.items() if name.endswith("self_frac")]
    assert sum(shares) + values["unattributed_frac"][0] == pytest.approx(1.0, rel=1e-9)
    if workload in worker.STORE_BACKED:
        assert values["replaystore.shards_decoded"][0] > 0
        assert values["scenario.checkpoint_calls"][0] > 0
    else:
        assert values["replaystore.gather_calls"][0] == 0


def test_tracer_restores_every_patched_entry_point():
    from repro.snn.network import SpikingNetwork
    from repro.data.loaders import DataLoader

    before = (SpikingNetwork.predict, DataLoader.__iter__)
    tracer = worker.Tracer()
    tracer.install()
    assert SpikingNetwork.predict is not before[0]
    tracer.unpatch()
    assert (SpikingNetwork.predict, DataLoader.__iter__) == before


def test_reference_check_accepts_itself_and_rejects_a_changed_matrix(tmp_path):
    result = worker.run_repeat("single-step", 5, tmp_path, traced=False, reduced=True)
    reference = run.reference_row(result)
    assert run.check_reference(result, reference) is None
    reference["matrix"] = [[1.0 - v for v in row] for row in reference["matrix"]]
    assert run.check_reference(result, reference) is not None


def test_without_library_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "single-step",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
