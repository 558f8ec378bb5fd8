"""Cost the same NCL run on three hardware targets.

The paper targets embedded neuromorphic deployments; this example shows
how the latency/energy picture shifts between an event-driven embedded
SoC, a Loihi-class chip, and a dense edge-GPU-like accelerator — using
identical op-count ledgers from one Replay4NCL run.

Run:  python examples/hardware_profile_comparison.py [--scale ci|bench]
"""

import argparse

from repro.core import Replay4NCL, SpikingLR
from repro.core.pipeline import pretrain
from repro.data import SyntheticSHD, make_class_incremental
from repro.eval.scale import get_scale
from repro.hw import CostModel, edge_gpu_like, embedded_neuromorphic, loihi_like


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=("ci", "bench"))
    args = parser.parse_args()

    preset = get_scale(args.scale)
    experiment = preset.experiment
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    split = make_class_incremental(
        generator,
        experiment.samples_per_class,
        experiment.test_samples_per_class,
        num_pretrain_classes=experiment.num_pretrain_classes,
    )
    pretrained = pretrain(experiment, split)
    sota = SpikingLR(experiment).run(pretrained.network, split)
    ours = Replay4NCL(experiment).run(pretrained.network, split)

    print(f"{'profile':24s} {'method':12s} {'latency [s]':>12s} {'energy [J]':>12s} "
          f"{'speedup':>8s} {'saving':>8s}")
    for profile in (embedded_neuromorphic(), loihi_like(), edge_gpu_like()):
        model = CostModel(profile)
        sota_cost, ours_cost = model.run_cost(sota), model.run_cost(ours)
        print(f"{profile.name:24s} {'spikinglr':12s} "
              f"{sota_cost.latency_s:12.4g} {sota_cost.energy_j:12.4g}")
        print(
            f"{'':24s} {'replay4ncl':12s} "
            f"{ours_cost.latency_s:12.4g} {ours_cost.energy_j:12.4g} "
            f"{sota_cost.latency_s / ours_cost.latency_s:7.2f}x "
            f"{1 - ours_cost.energy_j / sota_cost.energy_j:7.1%}"
        )


if __name__ == "__main__":
    main()
