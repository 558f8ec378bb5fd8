"""Mobile-agent scenario: the paper's Fig. 1(b) motivation, end to end.

An SNN-based drone is pre-trained to recognize a set of acoustic
commands, then deployed to a remote environment where a new command
class appears.  Retraining naively forgets the old commands
(catastrophic forgetting); Replay4NCL learns the new one on-device
within a tight latency/energy/memory envelope.

The script compares three strategies on the embedded-neuromorphic cost
model and prints a mission-readiness table.

Run:  python examples/mobile_agent_ncl.py [--scale ci|bench]
"""

import argparse

from repro.core import NaiveFinetune, Replay4NCL, SpikingLR
from repro.core.pipeline import pretrain
from repro.data import SyntheticSHD, make_class_incremental
from repro.eval.scale import get_scale
from repro.hw import CostModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=("ci", "bench"))
    parser.add_argument("--battery-j", type=float, default=50.0,
                        help="energy budget available for on-device adaptation")
    args = parser.parse_args()

    preset = get_scale(args.scale)
    experiment = preset.experiment

    print("== Phase 1: lab pre-training ==")
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    split = make_class_incremental(
        generator,
        experiment.samples_per_class,
        experiment.test_samples_per_class,
        num_pretrain_classes=experiment.num_pretrain_classes,
    )
    pretrained = pretrain(experiment, split)
    print(f"   command-set accuracy before deployment: {pretrained.test_accuracy:.3f}")

    print("\n== Phase 2: field adaptation — a new command class appears ==")
    strategies = [
        ("naive-retrain", NaiveFinetune(experiment)),
        ("spikinglr", SpikingLR(experiment)),
        ("replay4ncl", Replay4NCL(experiment)),
    ]
    results = [(name, method.run(pretrained.network, split))
               for name, method in strategies]

    for name, result in results:
        print(f"   {name:14s} old commands: {result.final_old_accuracy:.3f}  "
              f"new command: {result.final_new_accuracy:.3f}")

    print("\n== Phase 3: mission readiness on the embedded target ==")
    model = CostModel()
    print(model.report(results).format_table())
    print(f"\n   adaptation budget: {args.battery_j:.0f} J")
    for name, result in results:
        cost = model.run_cost(result)
        verdict = "OK" if cost.energy_j <= args.battery_j else "EXCEEDS BUDGET"
        forgot = result.final_old_accuracy < pretrained.test_accuracy - 0.35
        mission = "mission-ready" if not forgot else "FORGOT OLD COMMANDS"
        print(f"   {name:14s} {cost.energy_j:8.3g} J  {cost.latency_s:8.3g} s  "
              f"[{verdict}] [{mission}]")


if __name__ == "__main__":
    main()
