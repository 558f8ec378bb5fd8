"""Command-line interface: reproduce paper figures from the shell.

Usage::

    python -m repro list                      # figures, scales, scenarios, methods
    python -m repro run fig11 --scale bench   # reproduce one figure
    python -m repro run all --scale ci        # everything, quickly
    python -m repro scenario list             # scenarios and methods
    python -m repro scenario run sequential --scale ci   # CL metrics for one run
    python -m repro scenario run task-incremental --steps 2   # task-IL (masked readout)
    python -m repro info                      # version, inventory, kernel path
    python -m repro store stats runs/buffer   # replay-store maintenance
    python -m repro store federate runs/seq   # compose per-task stores
    python -m repro trace summary runs/trace.jsonl   # top spans + metrics
    python -m repro trace export runs/trace.jsonl    # Chrome/Perfetto JSON
    python -m repro lint src/repro            # invariant linter (RPL rules)
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Replay4NCL (DAC 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments and scales")
    sub.add_parser("info", help="print version, inventory and the kernel path in use")

    run = sub.add_parser("run", help="reproduce a paper figure/table")
    run.add_argument("experiment", help="figure id (fig1a, fig2, ..., headline) or 'all'")
    run.add_argument("--scale", default="bench", help="ci | bench | paper")
    run.add_argument("--save-dir", default=None, help="write <id>.json/.csv here")
    run.add_argument("--no-plot", action="store_true", help="omit ASCII plots")

    scenario = sub.add_parser(
        "scenario", help="scenario-first continual-learning runs"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="built-in scenarios and methods")
    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario end-to-end and print its CL metrics"
    )
    scenario_run.add_argument(
        "name", help="scenario name (see `repro scenario list`)"
    )
    scenario_run.add_argument(
        "--method", default="replay4ncl",
        help="NCL method registry name (default replay4ncl)",
    )
    scenario_run.add_argument("--scale", default="ci", help="ci | bench | paper")
    scenario_run.add_argument(
        "--steps", type=int, default=None,
        help="override the scenario's steps_count (multi-step scenarios "
        "such as sequential/task-incremental only)",
    )
    scenario_run.add_argument(
        "--store-dir", default=None,
        help="persist replay via a store federation at this directory "
        "(default: dense in-memory replay)",
    )
    scenario_run.add_argument(
        "--shard-samples", type=int, default=None,
        help="samples per shard on the store-backed path",
    )
    scenario_run.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing federation at --store-dir",
    )
    scenario_run.add_argument(
        "--budget-bytes", type=int, default=None,
        help="global federation byte budget across all steps' stores",
    )
    scenario_run.add_argument(
        "--checkpoint-dir", default=None,
        help="persist a resumable checkpoint here after every step",
    )
    scenario_run.add_argument(
        "--resume", action="store_true",
        help="continue from the checkpoint at --checkpoint-dir "
        "(bitwise-identical to an uninterrupted run)",
    )
    scenario_run.add_argument(
        "--stop-after", type=int, default=None, metavar="K",
        help="stop after K steps (simulates an interrupted stream; "
        "pair with --checkpoint-dir, then --resume to finish)",
    )

    from repro.lint import all_rules

    rule_ids = [rule.id for rule in all_rules()]
    lint = sub.add_parser(
        "lint",
        help=f"run the invariant linter (AST rules {rule_ids[0]}-"
        f"{rule_ids[-1]}; exit 2 on findings)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files/directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is the versioned findings schema CI "
        "archives)",
    )

    trace = sub.add_parser(
        "trace", help="summarize or convert recorded trace files (REPRO_TRACE)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="top spans + metric table of a trace JSONL file"
    )
    trace_summary.add_argument("path", help="trace JSONL file (REPRO_TRACE=<path>)")
    trace_summary.add_argument(
        "--top", type=int, default=10, help="span names to show (default 10)"
    )
    trace_summary.add_argument(
        "--tree", action="store_true", help="also print the span tree"
    )
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace JSONL to Chrome trace_event JSON (Perfetto)",
    )
    trace_export.add_argument("path", help="trace JSONL file (REPRO_TRACE=<path>)")
    trace_export.add_argument(
        "-o", "--output", default=None,
        help="output file (default: <path> with a .chrome.json suffix)",
    )

    compare = sub.add_parser(
        "compare", help="paper-vs-measured table from saved benchmark results"
    )
    compare.add_argument(
        "--results", default="benchmarks/results",
        help="directory holding <figure>.json results",
    )

    store = sub.add_parser("store", help="inspect on-disk replay stores and federate them")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    inspect = store_sub.add_parser("inspect", help="per-shard table of a store")
    inspect.add_argument("root", help="store directory (holds index.json)")
    stats = store_sub.add_parser(
        "stats", help="aggregate stats + latent-memory model cross-check"
    )
    stats.add_argument("root", help="store directory (holds index.json)")
    federate = store_sub.add_parser(
        "federate",
        help="compose per-task stores under one budget (create/extend/rebalance)",
    )
    federate.add_argument(
        "root", help="federation directory (member stores are subdirectories)"
    )
    federate.add_argument(
        "--members", nargs="*", default=None,
        help="member names to adopt, in task order (default: every "
        "not-yet-adopted subdirectory holding a store index, sorted)",
    )
    federate.add_argument(
        "--budget-bytes", type=int, default=None,
        help="global byte budget enforced across all members "
        "(default: none; on an existing federation, updates its budget)",
    )
    return parser


def _print_registries() -> None:
    """Scenario + method name listing shared by `list` and `scenario list`."""
    from repro.core import available_methods
    from repro.scenario import available as available_scenarios
    from repro.scenario import get as get_scenario

    print("scenarios:")
    for name in available_scenarios():
        print(f"  {name}: {get_scenario(name).describe()}")
    print("methods:")
    for name in available_methods():
        print(f"  {name}")


def _cmd_list() -> int:
    from repro.eval import experiments
    from repro.eval.scale import SCALES, get_scale

    print("experiments:")
    for name in experiments.available_experiments():
        print(f"  {name}")
    print("scales:")
    for name in sorted(SCALES):
        print(f"  {get_scale(name).description}")
    _print_registries()
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.eval.experiments import run_scenario_at_scale

    if args.scenario_command == "list":
        _print_registries()
        return 0

    scenario = args.name
    if args.steps is not None:
        from repro.scenario import get as get_scenario

        try:
            scenario = get_scenario(args.name, steps_count=args.steps)
        except TypeError as error:
            if "steps_count" not in str(error):
                raise  # a genuine bug inside the factory, not a bad flag
            print(
                f"error: scenario {args.name!r} does not take --steps",
                file=sys.stderr,
            )
            return 2

    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.stop_after is not None and args.stop_after <= 0:
        print("error: --stop-after must be positive", file=sys.stderr)
        return 2

    replay = None
    if args.store_dir is not None:
        from repro.core import ReplaySpec

        replay = ReplaySpec(
            store_dir=args.store_dir,
            shard_samples=args.shard_samples,
            overwrite=args.overwrite,
            federation_budget_bytes=args.budget_bytes,
        )
    elif (
        args.shard_samples is not None
        or args.overwrite
        or args.budget_bytes is not None
    ):
        print(
            "error: --shard-samples/--overwrite/--budget-bytes require --store-dir",
            file=sys.stderr,
        )
        return 2
    extra = {}
    if args.checkpoint_dir is not None:
        extra["checkpoint"] = args.checkpoint_dir
        extra["resume"] = args.resume
    if args.stop_after is not None:
        extra["max_steps"] = args.stop_after
    result = run_scenario_at_scale(
        scenario, args.method, scale=args.scale, replay=replay, **extra
    )
    print(result.describe())
    if args.stop_after is not None and args.checkpoint_dir is not None:
        print(
            f"(stopped after {len(result.steps)} step(s); resume with "
            f"--checkpoint-dir {args.checkpoint_dir} --resume)"
        )
    return 0


def _cmd_info() -> int:
    import repro
    from repro.snn import backends

    print(f"repro {repro.__version__} — Replay4NCL (DAC 2025) reproduction")
    print(
        "packages: autograd, snn, data, compression, replaystore, training, "
        "core, scenario, hw, eval, obs, lint"
    )
    # The sweep path in use (c or numpy) and why: the kernel probe's reason.
    executor = backends.active()
    print(f"kernels: {executor.name} ({executor.availability()[1]})")
    print("see docs/index.md for the documentation and README.md for the quickstart")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.eval import experiments

    if args.experiment == "all":
        names = experiments.available_experiments()
    else:
        names = [args.experiment]
    for name in names:
        result = experiments.run(name, scale=args.scale)
        print(result.format_text(plot=not args.no_plot))
        print()
        if args.save_dir:
            json_path, csv_path = result.save(args.save_dir)
            print(f"saved {json_path} and {csv_path}")
    return 0


def _cmd_store_federate(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.replaystore import FederatedReplayStore
    from repro.replaystore.federation import FEDERATION_INDEX_NAME
    from repro.replaystore.store import INDEX_NAME

    root = Path(args.root)
    if (root / FEDERATION_INDEX_NAME).exists():
        federation = FederatedReplayStore.open(root)
        # An explicit budget retrofits the stored ledger; omitted, it stays.
        if args.budget_bytes is not None:
            federation.configure(budget_bytes=args.budget_bytes)
    else:
        federation = FederatedReplayStore.create(root, budget_bytes=args.budget_bytes)
    if args.members is not None:
        candidates = list(args.members)
    else:
        candidates = sorted(
            child.name
            for child in root.iterdir()
            if child.is_dir()
            and (child / INDEX_NAME).exists()
            and child.name not in federation.member_names
        )
    for name in candidates:
        federation.adopt(name)
        print(f"adopted {name} ({federation.member(name).num_samples} samples)")
    evicted = federation.rebalance()
    stats = federation.stats()
    member_samples = {name: row.num_samples for name, row in stats.members.items()}
    print(f"{federation!r}")
    print(f"members:        {member_samples}")
    print(f"samples:        {stats.num_samples}")
    print(f"class counts:   {stats.class_counts}")
    _print_bytes(stats)
    if stats.budget_bytes is not None:
        print(f"budget:         {stats.modelled_bytes} / {stats.budget_bytes} B "
              f"({stats.budget_utilization:.1%} used, "
              f"{evicted} evicted this pass)")
    return 0


def _print_bytes(stats) -> None:
    """The byte lines every store report shares (model, payload, disk)."""
    print(f"model bytes:    {stats.modelled_bytes} "
          f"(payload saving {stats.payload_saving:.1%})")
    print(f"payload bytes:  {stats.payload_bytes}")
    print(f"disk bytes:     {stats.disk_bytes} "
          f"(format overhead {stats.format_overhead_bytes} B)")


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.replaystore import ReplayStore

    if args.store_command == "federate":
        return _cmd_store_federate(args)
    store = ReplayStore.open(args.root)
    if args.store_command == "inspect":
        print(f"{store!r}  T={store.meta.stored_frames} C={store.meta.num_channels} "
              f"factor={store.meta.codec_factor} Lins={store.meta.insertion_layer}")
        print(f"{'shard':>5s} {'file':20s} {'samples':>7s} {'codec':>8s} "
              f"{'payload B':>10s} {'offset':>7s}")
        for i, shard in enumerate(store.shards):
            print(f"{i:5d} {shard.file:20s} {shard.num_samples:7d} "
                  f"{shard.codec:>8s} {shard.payload_bytes:10d} "
                  f"{shard.payload_offset:7d}")
        return 0
    stats = store.stats()
    print(f"samples:        {stats.num_samples} in {stats.num_shards} shards")
    print(f"geometry:       T={stats.stored_frames} C={stats.num_channels}")
    print(f"codec shards:   {stats.codec_shards}")
    print(f"class counts:   {stats.class_counts}")
    _print_bytes(stats)
    print(f"payload/sample: {stats.bytes_per_sample:.1f} B")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import format_json, format_text, lint_paths

    findings = lint_paths(args.paths)
    if args.format == "json":
        print(format_json(findings))
    else:
        print(format_text(findings))
    return 2 if findings else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import TraceReport, read_jsonl, write_chrome

    spans, metrics = read_jsonl(args.path)
    if args.trace_command == "summary":
        report = TraceReport(spans=spans, metrics=metrics)
        print(report.describe(top=args.top))
        if args.tree:
            print()
            print(report.tree())
        return 0
    output = (
        Path(args.output)
        if args.output is not None
        else Path(args.path).with_suffix(".chrome.json")
    )
    write_chrome(output, spans)
    print(f"wrote {len(spans)} spans to {output} (load in Perfetto/chrome://tracing)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.eval.paper_targets import compare_to_paper, format_comparison

    rows = compare_to_paper(args.results)
    print(format_comparison(rows))
    if all(row["measured"] is None for row in rows):
        print(
            f"\nno results found in {args.results!r} — run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "info":
            return _cmd_info()
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "lint":
            return _cmd_lint(args)
        return _cmd_run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
