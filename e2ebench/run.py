"""End-to-end benchmark of the Replay4NCL reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload single-step --seed 1 --seconds 55 --trace 0

Each repeat runs one workload in a fresh process (``worker.py``): set-up,
``repro.core.pipeline.pretrain``, then ``repro.scenario.run_scenario``
with ``pretrained=`` and ``on_step=``.  Untraced repeats run back to back
(one client, closed loop) for about ``--seconds``, with at least three.
Their phase times are reported as means (see ``end_to_end``), set-up
time as a median.  With ``--trace 1`` one traced repeat of the same
seed follows and gives the per-layer metrics.  Every repeat's outputs
are checked (see ``check_repeat``); the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.

Exit status is 0 whenever a result is printed.  A checkout without the
library's sources, or a kernel warm-up that fails, exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("single-step", "insertion-l2", "seq-store", "stream-store")
#: Continual steps each workload runs (the ``step_s_p50`` sample count).
STEPS = {"single-step": 1, "insertion-l2": 1, "seq-store": 2, "stream-store": 24}

#: Whole-run budget: no repeat starts once it would likely end past it,
#: and a repeat still running at the deadline is killed (a failure).
DEADLINE_S = 165.0

#: The timed window always holds at least this many untraced repeats.
MIN_REPEATS = 3

#: Set-up time is the median of this many samples (repeats plus
#: set-up-only workers).
SETUP_SAMPLES = 9

#: A traced repeat takes at most about this many untraced ones.
TRACED_COST = 1.25

#: Thread-count variables pinned to 1 for every worker: BLAS runs on one
#: core, so on a small shared host a run measures the program rather
#: than the scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Reference outputs recorded per (workload, seed); see ``check_reference``.
REFERENCE = HERE / "reference.json"
REFERENCE_FALLBACK_SEED = 0
#: A numerics-changing commit may move the accuracy matrix: the mean
#: absolute difference over its lower triangle may reach this bound.
#: ``latent_bytes`` must match exactly.
MATRIX_MEAN_ABS_TOLERANCE = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pretrain_s": "s",
    "step_s_p50": "s",
    "peak_rss_mb": "MB",
    "latent_bytes": "B",
}


class HarnessError(Exception):
    """The benchmark cannot run here (no sources, warm-up failed)."""


def child_env(root: Path, tmp: Path) -> tuple[dict, dict]:
    """Environment for workers: ``REPRO_*`` scrubbed, sources on the path.

    ``TMPDIR`` points into the checkout, so temporary files (the kernel
    compiler's included) stay inside it.  BLAS threads are pinned to one
    (``THREAD_VARS``).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    scrubbed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env, scrubbed


def run_worker(args: list[str], env: dict, root: Path, timeout: float) -> dict:
    """Run one worker process to completion; return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repeat timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    result = json.loads(lines[-1])
    if "error" in result:
        sys.stderr.write(proc.stderr)
    return result


def matrix_of(result: dict) -> np.ndarray:
    raw = bytes.fromhex(result["matrix_hex"])
    return np.frombuffer(raw, dtype=np.float64).reshape(result["matrix_shape"])


def check_repeat(result: dict, workload: str) -> list[str]:
    """Checks every repeat must pass on its own."""
    if "error" in result:
        return [result["error"]]
    problems = []
    steps = STEPS[workload]
    if result["steps"] != steps or result["callbacks"] != steps:
        problems.append(
            f"ran {result['steps']} steps with {result['callbacks']} callbacks, "
            f"expected {steps}"
        )
    matrix = matrix_of(result)
    lower = np.tril(np.ones(matrix.shape, dtype=bool))
    if matrix.shape != (steps + 1, steps + 1):
        problems.append(f"accuracy matrix shape {matrix.shape}")
    elif not np.all(np.isfinite(matrix[lower])) or not np.all(np.isnan(matrix[~lower])):
        problems.append("accuracy matrix is not finite and lower-triangular")
    elif np.any(matrix[lower] < 0) or np.any(matrix[lower] > 1):
        problems.append("accuracy outside [0, 1]")
    if result["latent_bytes"] <= 0:
        problems.append("latent_bytes is not positive")
    return problems


def same_outputs(a: dict, b: dict) -> bool:
    """Bitwise equality of the accuracy matrix and ``latent_bytes``."""
    return (
        a["matrix_hex"] == b["matrix_hex"]
        and a["matrix_shape"] == b["matrix_shape"]
        and a["latent_bytes"] == b["latent_bytes"]
    )


def check_reference(result: dict, reference: dict) -> str | None:
    """Compare with recorded outputs; None when within tolerance."""
    matrix = matrix_of(result)
    expected = np.full(matrix.shape, np.nan)
    rows = reference["matrix"]
    if len(rows) != matrix.shape[0]:
        return f"matrix has {matrix.shape[0]} sessions, reference {len(rows)}"
    for i, row in enumerate(rows):
        expected[i, : len(row)] = row
    if result["latent_bytes"] != reference["latent_bytes"]:
        return f"latent_bytes {result['latent_bytes']} != reference {reference['latent_bytes']}"
    lower = np.tril(np.ones(matrix.shape, dtype=bool))
    error = float(np.mean(np.abs(matrix[lower] - expected[lower])))
    if error > MATRIX_MEAN_ABS_TOLERANCE:
        return f"accuracy matrix differs from reference by {error:.3f} (mean abs)"
    return None


def reference_row(result: dict) -> dict:
    """The stored form of a repeat's outputs (lower-triangular rows)."""
    matrix = matrix_of(result)
    rows = [matrix[i, : i + 1].tolist() for i in range(matrix.shape[0])]
    return {"matrix": rows, "latent_bytes": result["latent_bytes"]}


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.perf_counter()
    root = Path.cwd()
    try:
        return bench(args, root, begin)
    except HarnessError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 2


def bench(args, root: Path, begin: float) -> int:
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no library sources at {root / 'src' / 'repro'}")
    tmp_root = root / ".e2ebench_tmp" / str(os.getpid())
    (tmp_root / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        env, scrubbed = child_env(root, tmp_root / "tmp")
        # Warm-up: imports (bytecode cache) and the compiled-kernel disk
        # cache under ./.repro_cache, so no timed repeat pays for a build.
        warm = run_worker(["--warm"], env, root, timeout=900)
        if "error" in warm:
            raise HarnessError(f"warm-up failed: {warm['error']}")
        if not Path(warm["repro"]).resolve().is_relative_to(root / "src"):
            raise HarnessError(f"repro imported from {warm['repro']}, not this checkout")
        deadline = max(begin + DEADLINE_S, time.perf_counter() + 60.0)
        return measure(args, root, env, scrubbed, warm, tmp_root, deadline)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_root.parent.rmdir()
        except OSError:
            pass


def measure(args, root, env, scrubbed, warm, tmp_root, deadline) -> int:
    workload, seed = args.workload, args.seed
    counter = itertools.count()

    def repeat(run_seed: int, traced: bool = False, baseline: float = 0.0) -> dict:
        extra = ["--traced", "--baseline-wall", repr(baseline)] if traced else []
        tmp = tmp_root / f"r{next(counter)}"
        return run_worker(
            ["--workload", workload, "--seed", str(run_seed), "--tmp", str(tmp), *extra],
            env,
            root,
            timeout=deadline - time.perf_counter(),
        )

    def setup_only() -> dict:
        return run_worker(
            ["--setup-only", "--workload", workload, "--seed", str(seed)],
            env,
            root,
            timeout=deadline - time.perf_counter(),
        )

    # Set-up alone is cheap: sample it more often than whole repeats.  The
    # first sample also prices the others.
    start = time.perf_counter()
    alone = setup_only()
    setup_cost = time.perf_counter() - start
    extra_setups = [] if "error" in alone else [alone["setup_s"]]

    references = load_reference().get(workload, {})
    # A seed without recorded outputs costs one more repeat (the fallback
    # check below).
    needs_fallback = str(seed) not in references

    # Untraced repeats, back to back.  The whole measurement (these, the
    # traced repeat with ``--trace 1``, a fallback repeat and the set-up
    # samples still missing) takes about ``--seconds``: no repeat starts
    # once it would likely end past that.
    untraced: list[dict] = []
    durations: list[float] = []
    while True:
        now = time.perf_counter()
        if durations:
            typical = statistics.median(durations)
            # This repeat and the traced one each give a set-up sample too.
            missing = max(0, SETUP_SAMPLES - len(extra_setups) - len(untraced) - 1 - args.trace)
            rest = (1 + needs_fallback + args.trace * TRACED_COST) * typical + missing * setup_cost
            if len(untraced) >= MIN_REPEATS and now + rest - start > args.seconds:
                break
            if now + 2.5 * max(durations) > deadline:
                break
        untraced.append(repeat(seed))
        durations.append(time.perf_counter() - now)

    good = [r for r in untraced if "error" not in r]
    repeats = list(untraced)
    traced = None
    if args.trace:
        baseline = statistics.median(r["wall_s"] for r in good) if good else 0.0
        traced = repeat(seed, traced=True, baseline=baseline)
        repeats.append(traced)
    sampled = len(good) + len(extra_setups) + (traced is not None and "error" not in traced)
    while good and sampled < SETUP_SAMPLES and time.perf_counter() + 5.0 < deadline:
        alone = setup_only()
        if "error" in alone:
            break
        extra_setups.append(alone["setup_s"])
        sampled += 1

    # Output checks; a repeat failing any of them fails all its steps.
    problems = [check_repeat(result, workload) for result in repeats]
    ok = [i for i, found in enumerate(problems) if not found]
    if ok:
        anchor = repeats[ok[0]]
        for i in ok[1:]:
            if not same_outputs(anchor, repeats[i]):
                problems[i].append(f"repeat {i} differs bitwise from repeat {ok[0]}")
        if not needs_fallback:
            mismatch = check_reference(anchor, references[str(seed)])
            if mismatch:
                for i in ok:
                    problems[i].append(f"seed {seed}: {mismatch}")
        else:
            # No reference for this seed: check one untimed repeat of a
            # seed that has one.
            fallback = repeat(REFERENCE_FALLBACK_SEED)
            repeats.append(fallback)
            found = check_repeat(fallback, workload)
            if not found:
                expected = references.get(str(REFERENCE_FALLBACK_SEED))
                mismatch = (
                    check_reference(fallback, expected)
                    if expected
                    else "no reference outputs recorded"
                )
                if mismatch:
                    found.append(f"seed {REFERENCE_FALLBACK_SEED}: {mismatch}")
            problems.append(found)

    steps = STEPS[workload]
    attempted = steps * len(repeats)
    failed = steps * sum(1 for found in problems if found)
    for i, found in enumerate(problems):
        for problem in found:
            print(f"check failed (repeat {i}): {problem}")

    good = [r for i, r in enumerate(untraced) if not problems[i]]
    traced_ok = traced is not None and not problems[len(untraced)]
    if traced_ok:
        extra_setups.append(traced["setup_s"])
    e2e = end_to_end(good, [r["setup_s"] for r in good] + extra_setups) if good else {}
    report(args, warm, scrubbed, env, e2e, good, traced, len(untraced))
    metrics = {}
    if args.trace:
        if traced_ok:
            for name, (value, unit) in traced["per_layer"].items():
                metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = e2e
    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def end_to_end(good: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics of the checked untraced repeats.

    Phase times are means over the repeats.  On a small shared host the
    machine switches between a fast and a slow speed every few seconds,
    so a phase of about a second takes one of two times; the median of
    such a sample jumps from one to the other, the mean moves smoothly
    with the share of slow spells.  ``setup_s`` and peak RSS are medians.
    """
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(r["wall_s"] for r in good),
        "pretrain_s": statistics.mean(r["pretrain_s"] for r in good),
        "step_s_p50": statistics.mean(r["step_s_p50"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "latent_bytes": good[0]["latent_bytes"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def report(args, warm, scrubbed, env, e2e, good, traced, n_untraced) -> None:
    """Human-readable lines ahead of the JSON result."""
    blas = {k: env.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"backend {warm['backend']}; cpu_count {os.cpu_count()}; BLAS threads {blas}")
    print(f"REPRO_* variables scrubbed for timed runs: {scrubbed or 'none set'}")
    print(f"untraced repeats {n_untraced} (checked ok {len(good)}), steps per repeat {STEPS[args.workload]}")
    for name, entry in e2e.items():
        print(f"  {name:<14} {entry['value']:.6g} {entry['unit']}")
    if good:
        for name in ("wall_s", "pretrain_s", "step_s_p50"):
            values = sorted(r[name] for r in good)
            print(
                f"  {name} over {len(values)} repeats: median {statistics.median(values):.6g}, "
                f"max {values[-1]:.6g}; all {', '.join(f'{v:.3f}' for v in values)}"
            )
        accuracy = statistics.median(r["avg_accuracy"] for r in good)
        print(f"  avg_accuracy   {accuracy:.6g} fraction (checked against the reference)")
    if traced is not None and "self_time_table" in traced:
        wall = traced["per_layer"]["obs.traced_wall_s"][0]
        print(f"traced repeat: wall {wall:.4f} s; self-time by layer")
        for layer, seconds in traced["self_time_table"]:
            print(f"  {layer:<13} {seconds:9.4f} s  {seconds / wall:7.2%}")
        overhead = traced["per_layer"]["obs.trace_overhead_frac"][0]
        print(f"  trace overhead vs untraced median wall: {overhead:+.2%}")


if __name__ == "__main__":
    sys.exit(main())
