"""One repeat of one workload, in a fresh process (run by ``run.py``).

Usage: ``python3 e2ebench/worker.py --workload NAME --seed N --tmp DIR
[--traced] [--reduced]`` prints one JSON line with the repeat's timings,
its accuracy matrix (as exact float64 bytes) and, when traced, its
per-layer metrics.  ``--warm`` only performs the imports and the kernel
backend probe, which builds the compiled-kernel disk cache;
``--setup-only`` stops at the end of set-up and prints ``setup_s``.

Set-up time starts at the top of this file, before any import: it covers
imports, the kernel backend probe and synthesis of the first step's data,
up to the first ``pretrain`` call.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.core import pipeline  # noqa: E402
from repro.core.replayspec import ReplaySpec  # noqa: E402
from repro.data.synthetic_shd import SyntheticSHD  # noqa: E402
from repro.eval.scale import get_scale  # noqa: E402
from repro.scenario import SequentialScenario, StreamingScenario, run_scenario  # noqa: E402
from repro.scenario import get as get_scenario  # noqa: E402
from repro.snn.backends import active  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import STEPS, WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Store-backed workloads: steps after which the run stops and resumes
#: from its checkpoint, and a federation byte budget small enough that
#: rebalances evict.
STORE_BACKED = {
    "stream-store": {"stop_after": 12, "budget_bytes": 4000},
    "seq-store": {"stop_after": 1, "budget_bytes": 8000},
}


def build(workload: str, seed: int, reduced: bool):
    """``(experiment, generator, scenario)`` of a workload at ``seed``.

    ``reduced`` shrinks epochs and the stream (the benchmark's own fast
    test); every code path of the full size still runs.
    """
    if workload == "stream-store":
        preset = get_scale("ci")
        scenario = StreamingScenario(tasks=3, chunks_per_task=2 if reduced else 8)
    elif workload == "seq-store":
        preset = get_scale("bench")
        scenario = SequentialScenario(steps_count=2)
    else:
        preset = get_scale("bench")
        scenario = get_scenario("single-step")
    experiment = preset.experiment.replace(seed=seed)
    if workload == "insertion-l2":
        experiment = experiment.replace(ncl=experiment.ncl.replace(insertion_layer=2))
    if reduced:
        experiment = experiment.replace(
            pretrain=experiment.pretrain.replace(epochs=2),
            ncl=experiment.ncl.replace(epochs=2),
        )
    return experiment, SyntheticSHD(preset.shd, seed=seed), scenario


def expected_steps(workload: str, reduced: bool) -> int:
    if workload == "stream-store" and reduced:
        return 6
    return STEPS[workload]


def set_up(workload: str, seed: int, reduced: bool):
    """Backend probe and the first step's data: the end of set-up."""
    backend = active().name
    experiment, generator, scenario = build(workload, seed, reduced)
    first = next(scenario.steps(generator, experiment))
    return backend, experiment, generator, scenario, first


def run_repeat(workload: str, seed: int, tmp: Path, traced: bool, reduced: bool) -> dict:
    """Set up, pre-train and run the scenario once; time every phase."""
    backend, experiment, generator, scenario, first = set_up(workload, seed, reduced)
    setup_end = time.perf_counter()

    tracer = Tracer() if traced else None
    recorder = obs.Recorder() if traced else obs.current()
    ticks: list[float] = []

    def on_step(index, result):
        ticks.append(time.perf_counter())

    with obs.use_recorder(recorder):
        if tracer is not None:
            tracer.install()
            tracer.begin()
        try:
            start = time.perf_counter()
            pretrained = _spanned(tracer, "core.pretrain", "core", pipeline.pretrain, experiment, first.split)
            pretrain_s = time.perf_counter() - start
            common = dict(generator=generator, experiment=experiment, pretrained=pretrained, on_step=on_step)
            intervals: list[float] = []
            store = STORE_BACKED.get(workload)
            if store is not None:
                stop_after = 3 if reduced and workload == "stream-store" else store["stop_after"]
                common.update(
                    replay=ReplaySpec(
                        store_dir=tmp / "store",
                        shard_samples=2,
                        prefetch=True,
                        federation_budget_bytes=store["budget_bytes"],
                    ),
                    checkpoint=tmp / "checkpoint",
                )
                calls = [dict(max_steps=stop_after), dict(resume=True)]
            else:
                calls = [{}]
            for extra in calls:
                mark = time.perf_counter()
                count = len(ticks)
                result = _spanned(
                    tracer, "scenario.run", "scenario", run_scenario, scenario, "replay4ncl", **common, **extra
                )
                new = ticks[count:]
                intervals.extend(np.diff([mark] + new).tolist())
            end = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.finish()
                tracer.unpatch()

    matrix = np.ascontiguousarray(result.accuracy_matrix, dtype=np.float64)
    out = {
        "backend": backend,
        "setup_s": setup_end - _T0,
        "wall_s": end - setup_end,
        "pretrain_s": pretrain_s,
        "step_intervals_s": intervals,
        "step_s_p50": statistics.median(intervals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latent_bytes": int(result.steps[-1].latent_storage_bytes),
        "avg_accuracy": float(result.average_accuracy),
        "steps": len(result.steps),
        "callbacks": len(ticks),
        "matrix_shape": list(matrix.shape),
        "matrix_hex": matrix.tobytes().hex(),
    }
    if tracer is not None:
        out["tracer"] = tracer
        out["recorder"] = recorder
    return out


def _spanned(tracer, name, layer, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, layer, fn, *args, **kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tmp", type=Path)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--reduced", action="store_true")
    parser.add_argument("--baseline-wall", type=float, default=0.0)
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.warm:
        print(json.dumps({"backend": active().name, "repro": obs.__file__}))
        return 0
    if args.setup_only:
        set_up(args.workload, args.seed, args.reduced)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    try:
        out = run_repeat(args.workload, args.seed, args.tmp, args.traced, args.reduced)
    except Exception as error:  # reported as failed steps, never swallowed
        import traceback

        traceback.print_exc()
        print(json.dumps({"error": f"{type(error).__name__}: {error}"}))
        return 0
    tracer = out.pop("tracer", None)
    recorder = out.pop("recorder", None)
    if tracer is not None:
        baseline = args.baseline_wall or out["wall_s"]
        values, table = tracer.metrics(recorder, baseline)
        out["per_layer"] = {name: [value, unit] for name, (value, unit) in values.items()}
        out["self_time_table"] = table
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
