"""Quickstart: train a spiking network, then learn a new class with Replay4NCL.

Walks the paper's full pipeline at a small scale (about a minute on a
laptop CPU), using the scenario-first run API:

1. synthesize an SHD-like event dataset and pre-train on the old
   classes (Alg. 1 lines 1-5),
2. run the ``single-step`` scenario (the paper's 19+1 protocol) with
   Replay4NCL — and with SpikingLR for reference — via
   ``run_scenario``, which also reports the standard continual-learning
   metrics (average accuracy, forgetting, backward transfer),
3. report accuracy, latent memory, and modelled latency/energy.

Run:  python examples/quickstart.py [--scale ci|bench]
"""

import argparse

from repro.core.pipeline import pretrain
from repro.data import SyntheticSHD
from repro.eval.scale import get_scale
from repro.hw import CostModel
from repro.scenario import get as get_scenario
from repro.scenario import run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=("ci", "bench"),
                        help="preset size (ci is fastest)")
    args = parser.parse_args()

    preset = get_scale(args.scale)
    experiment = preset.experiment

    print(f"# 1. Synthesizing data and pre-training ({preset.description})")
    generator = SyntheticSHD(preset.shd, seed=experiment.seed)
    scenario = get_scenario("single-step")
    first = next(scenario.steps(generator, experiment))
    print(f"   {first.split.describe()}")
    pretrained = pretrain(experiment, first.split)
    print(f"   pre-train test accuracy: {pretrained.test_accuracy:.3f}")

    print("# 2. Continual learning with Replay4NCL (and SpikingLR for reference)")
    shared = dict(generator=generator, experiment=experiment, pretrained=pretrained)
    ours = run_scenario(scenario, "replay4ncl", **shared)
    sota = run_scenario(scenario, "spikinglr", **shared)
    print(f"   {ours.steps[0].summary()}")
    print(f"   {sota.steps[0].summary()}")
    print(f"   replay4ncl CL metrics: avg={ours.average_accuracy:.3f} "
          f"forgetting={ours.forgetting:+.3f} BWT={ours.backward_transfer:+.3f}")

    print("# 3. Embedded cost comparison (analytic hardware model)")
    report = CostModel().report(
        [("spikinglr", sota.steps[0]), ("replay4ncl", ours.steps[0])]
    )
    print(report.format_table())


if __name__ == "__main__":
    main()
