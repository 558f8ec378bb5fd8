"""CI gate for the micro-kernel benchmarks.

Runs ``bench_micro_kernels.py`` (at ``REPRO_BENCH_SCALE=ci`` unless the
environment says otherwise) and fails when either

1. the fused LIF forward+backward kernel is less than ``--min-speedup``
   times faster than the per-step reference — this ratio is
   machine-independent, so it is the primary gate; or
2. any benchmark's mean time regressed beyond ``--tolerance`` times the
   committed baseline (``baseline_ci.json``) — absolute wall-clock
   varies across runners, so the margin is deliberately generous and
   only catches order-of-magnitude regressions (e.g. a kernel silently
   falling back to the per-step path).

Regenerate the baseline after an intentional performance change::

    python benchmarks/check_regression.py --update

Exit code 0 = pass, 1 = regression, 2 = harness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCH_FILE = BENCH_DIR / "bench_micro_kernels.py"
BASELINE_FILE = BENCH_DIR / "baseline_ci.json"
RESULTS_JSON = BENCH_DIR / "results" / "micro_kernels.json"

FUSED_BENCH = "test_fused_lif_forward_backward"
PER_STEP_BENCH = "test_per_step_lif_forward_backward"

TRACE_OVERHEAD_BENCH = "test_trace_disabled_overhead"
#: Disabled-path tracing calls (per fused fwd+bwd) must cost less than
#: this fraction of the fused kernel row itself.
TRACE_OVERHEAD_LIMIT = 0.02

#: Per-backend rows (test_backend_*[name]) skip when their backend is
#: unavailable on a runner, so they are optional in baseline checks.
BACKEND_ROW_PREFIX = "test_backend_"
#: Kernels with per-backend rows; the C gate needs a win on >= 1 of them.
BACKEND_KERNELS = ("lif_forward_backward", "readout_forward_backward")


def run_benchmarks(results_json: Path) -> None:
    """Invoke pytest-benchmark on the micro-kernel bench file."""
    env = dict(os.environ)
    env.setdefault("REPRO_BENCH_SCALE", "ci")
    # Tracing exports would tax the timed paths.
    env.pop("REPRO_TRACE", None)
    results_json.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_FILE),
        "-q",
        "--benchmark-only",
        f"--benchmark-json={results_json}",
    ]
    completed = subprocess.run(cmd, env=env, cwd=BENCH_DIR.parent)
    if completed.returncode != 0:
        print(f"benchmark run failed (exit {completed.returncode})", file=sys.stderr)
        raise SystemExit(2)


def load_means(results_json: Path) -> dict[str, float]:
    """Benchmark name -> mean seconds from a pytest-benchmark JSON."""
    if not results_json.exists():
        print(
            f"results JSON not found: {results_json} "
            "(run without --skip-run to generate it)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    payload = json.loads(results_json.read_text())
    means: dict[str, float] = {}
    for bench in payload.get("benchmarks", []):
        means[bench["name"]] = float(bench["stats"]["mean"])
    if not means:
        print(f"no benchmarks found in {results_json}", file=sys.stderr)
        raise SystemExit(2)
    return means


def check_speedup(means: dict[str, float], min_speedup: float) -> list[str]:
    failures: list[str] = []
    fused = means.get(FUSED_BENCH)
    per_step = means.get(PER_STEP_BENCH)
    if fused is None or per_step is None:
        failures.append(
            f"speedup pair missing from results: need {FUSED_BENCH} and {PER_STEP_BENCH}"
        )
        return failures
    speedup = per_step / fused
    line = (
        f"fused LIF fwd+bwd: {fused * 1e6:.1f} us, per-step: {per_step * 1e6:.1f} us "
        f"-> speedup {speedup:.2f}x (required >= {min_speedup:.2f}x)"
    )
    print(line)
    if speedup < min_speedup:
        failures.append(f"fused kernel speedup regressed: {line}")
    return failures


def check_backend_speedup(means: dict[str, float]) -> list[str]:
    """The C backend must beat numpy on at least one kernel.

    Skipped (not failed) when the C rows are absent — runners without a
    C compiler legitimately fall back to the reference backend.
    """
    failures: list[str] = []
    compared = wins = 0
    for kernel in BACKEND_KERNELS:
        reference = means.get(f"{BACKEND_ROW_PREFIX}{kernel}[numpy]")
        compiled = means.get(f"{BACKEND_ROW_PREFIX}{kernel}[c]")
        if reference is None or compiled is None:
            continue
        compared += 1
        ratio = reference / compiled
        print(
            f"C backend {kernel}: {compiled * 1e6:.1f} us vs numpy "
            f"{reference * 1e6:.1f} us -> {ratio:.2f}x"
        )
        if ratio > 1.0:
            wins += 1
    if compared == 0:
        print("C backend rows absent (backend unavailable here); gate skipped")
    elif wins == 0:
        failures.append(
            f"C backend beat numpy on 0 of {compared} kernels (expected >= 1)"
        )
    return failures


def check_trace_overhead(
    means: dict[str, float], limit: float = TRACE_OVERHEAD_LIMIT
) -> list[str]:
    """The disabled-tracing no-op path must stay below ``limit`` of the
    fused kernel's own mean — instrumentation may not tax the default
    (untraced) hot path measurably."""
    failures: list[str] = []
    overhead = means.get(TRACE_OVERHEAD_BENCH)
    fused = means.get(FUSED_BENCH)
    if overhead is None or fused is None:
        failures.append(
            f"trace overhead pair missing from results: need "
            f"{TRACE_OVERHEAD_BENCH} and {FUSED_BENCH}"
        )
        return failures
    fraction = overhead / fused
    line = (
        f"disabled tracing: {overhead * 1e9:.0f} ns of obs calls per fused "
        f"fwd+bwd ({fraction * 100:.3f}% of the {fused * 1e6:.1f} us kernel; "
        f"limit {limit * 100:.0f}%)"
    )
    print(line)
    if fraction > limit:
        failures.append(f"disabled-tracing overhead regressed: {line}")
    return failures


def check_baseline(
    means: dict[str, float], baseline: dict, tolerance: float
) -> list[str]:
    failures: list[str] = []
    for name, base_mean in sorted(baseline["benchmarks"].items()):
        current = means.get(name)
        if current is None:
            if name.startswith(BACKEND_ROW_PREFIX):
                # Optional row: the backend that produced the baseline
                # number is unavailable on this runner (skipped bench).
                print(f"{name}: skipped (backend unavailable on this runner)")
                continue
            failures.append(f"benchmark {name} present in baseline but not in results")
            continue
        ratio = current / base_mean
        status = "ok" if ratio <= tolerance else "REGRESSED"
        print(
            f"{name}: {current * 1e6:.1f} us vs baseline {base_mean * 1e6:.1f} us "
            f"({ratio:.2f}x, limit {tolerance:.1f}x) {status}"
        )
        if ratio > tolerance:
            failures.append(
                f"{name} regressed {ratio:.2f}x over baseline "
                f"({current * 1e6:.1f} us vs {base_mean * 1e6:.1f} us)"
            )
    return failures


def write_baseline(means: dict[str, float]) -> None:
    payload = {
        "scale": os.environ.get("REPRO_BENCH_SCALE", "ci"),
        "note": (
            "Mean seconds per benchmark from a reference run of "
            "bench_micro_kernels.py; regenerate with "
            "`python benchmarks/check_regression.py --update`."
        ),
        "benchmarks": {name: means[name] for name in sorted(means)},
    }
    BASELINE_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote baseline for {len(means)} benchmarks to {BASELINE_FILE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="required fused-vs-per-step LIF speedup (default 3.0)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=4.0,
        help="allowed slowdown vs the committed baseline (default 4.0x; "
        "absolute timings vary widely across CI runners)",
    )
    parser.add_argument(
        "--skip-run",
        action="store_true",
        help="reuse an existing results JSON instead of re-running the bench",
    )
    parser.add_argument(
        "--results-json",
        type=Path,
        default=RESULTS_JSON,
        help=f"pytest-benchmark JSON path (default {RESULTS_JSON})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite baseline_ci.json from this run instead of checking",
    )
    args = parser.parse_args(argv)

    if not args.skip_run:
        run_benchmarks(args.results_json)
    means = load_means(args.results_json)

    if args.update:
        write_baseline(means)
        return 0

    failures = check_speedup(means, args.min_speedup)
    failures += check_backend_speedup(means)
    failures += check_trace_overhead(means)
    if BASELINE_FILE.exists():
        baseline = json.loads(BASELINE_FILE.read_text())
        failures += check_baseline(means, baseline, args.tolerance)
    else:
        print(f"warning: no baseline at {BASELINE_FILE}; speedup gate only")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall benchmark gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
