"""Record the reference outputs ``run.py`` checks every run against.

Usage (from the repository root)::

    python3 e2ebench/record_reference.py [--seeds 32] [WORKLOAD ...]

Runs one untraced repeat per workload (default: all) and seed
``0 .. seeds-1`` and writes their accuracy matrices (lower-triangular
rows) and ``latent_bytes`` to ``e2ebench/reference.json``, keeping the
entries of workloads not named.  Re-record only when a
commit changes the numerics on purpose, and say so in its description.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("workloads", nargs="*", choices=run.WORKLOADS, default=list(run.WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    table = run.load_reference()
    scratch = root / ".e2ebench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        env, _ = run.child_env(root, Path(tmp))
        for workload in args.workloads:
            table[workload] = {}
            for seed in range(args.seeds):
                result = run.run_worker(
                    ["--workload", workload, "--seed", str(seed), "--tmp", f"{tmp}/{workload}-{seed}"],
                    env,
                    root,
                    timeout=600,
                )
                problems = run.check_repeat(result, workload)
                if problems:
                    print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                table[workload][str(seed)] = run.reference_row(result)
                print(f"{workload} seed {seed}: avg accuracy {result['avg_accuracy']:.4f}")
    try:
        scratch.rmdir()
    except OSError:
        pass
    ordered = {name: table[name] for name in run.WORKLOADS if name in table}
    run.REFERENCE.write_text(json.dumps(ordered, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
