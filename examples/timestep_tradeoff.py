"""Explore the timestep/accuracy/cost trade-off (paper §III-A, Fig. 8).

Sweeps the NCL timestep T* for Replay4NCL and prints, per setting:
old/new-task accuracy, modelled per-epoch latency, and latent memory —
the numbers an embedded deployment would use to pick T*.

Run:  python examples/timestep_tradeoff.py [--scale ci|bench]
"""

import argparse

from repro.core import Replay4NCL
from repro.core.pipeline import pretrain
from repro.data import SyntheticSHD, make_class_incremental
from repro.eval.ascii_plot import ascii_bars
from repro.eval.scale import get_scale
from repro.hw import CostModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=("ci", "bench"))
    args = parser.parse_args()

    preset = get_scale(args.scale)
    experiment = preset.experiment
    t_pre = experiment.pretrain.timesteps

    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    split = make_class_incremental(
        generator,
        experiment.samples_per_class,
        experiment.test_samples_per_class,
        num_pretrain_classes=experiment.num_pretrain_classes,
    )
    pretrained = pretrain(experiment, split)
    print(f"pre-train accuracy at T={t_pre}: {pretrained.test_accuracy:.3f}\n")

    model = CostModel()
    fractions = (1.0, 0.6, 0.4, 0.2)
    rows = {}
    print(f"{'T*':>5s} {'old acc':>8s} {'new acc':>8s} {'epoch lat':>10s} {'latent B':>9s}")
    for fraction in fractions:
        timesteps = max(int(round(t_pre * fraction)), 2)
        result = Replay4NCL(experiment, timesteps=timesteps).run(
            pretrained.network, split
        )
        latency = model.epoch_cost(result.epoch_costs[0]).latency_s
        rows[f"T{timesteps}"] = result.final_old_accuracy
        print(
            f"{timesteps:5d} {result.final_old_accuracy:8.3f} "
            f"{result.final_new_accuracy:8.3f} {latency:10.3g} "
            f"{result.latent_storage_bytes:9d}"
        )

    print("\nold-task accuracy by timestep:")
    print(ascii_bars({"old-acc": rows}))
    print(
        "\nPaper guidance (Fig. 8 Observation B): about 40% of the "
        "pre-training timesteps is the floor below which accuracy "
        "degrades without stronger compensation."
    )


if __name__ == "__main__":
    main()
