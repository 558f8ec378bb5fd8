"""One reproduction function per paper figure/table.

Every function takes an :class:`~repro.eval.experiments.ExperimentContext`
and returns an :class:`~repro.eval.results.ExperimentResult` whose series
mirror the rows/curves the paper plots.  Latency/energy numbers come from
one :class:`~repro.hw.CostModel` on the default embedded-neuromorphic
profile; all normalisations follow the paper's (stated in each docstring).
"""

from __future__ import annotations

import numpy as np

from repro import seeding
from repro.core.latent_replay import LatentReplayBuffer
from repro.core.replay4ncl import Replay4NCL
from repro.core.spikinglr import SpikingLR
from repro.core.strategies import NaiveFinetune, NCLResult
from repro.eval.experiments import ExperimentContext
from repro.eval.results import ExperimentResult, Series
from repro.hw.cost import CostModel

__all__ = [
    "fig1a",
    "fig2",
    "fig8",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "headline",
    "FIGURES",
]


# ----------------------------------------------------------------------
# Shared runners
# ----------------------------------------------------------------------

def _with_insertion(ctx: ExperimentContext, insertion: int):
    return ctx.preset.experiment.replace(
        ncl=ctx.preset.experiment.ncl.replace(insertion_layer=insertion)
    )


def _run_spikinglr(
    ctx: ExperimentContext, insertion: int, timesteps: int | None = None,
    epochs: int | None = None,
) -> NCLResult:
    def factory():
        config = _with_insertion(ctx, insertion)
        if epochs is not None:
            config = config.replace(ncl=config.ncl.replace(epochs=epochs))
        method = SpikingLR(config, timesteps=timesteps)
        return method.run(ctx.pretrained.network, ctx.split)

    return ctx.cached_run(("spikinglr", insertion, timesteps, epochs), factory)


def _run_replay4ncl(
    ctx: ExperimentContext, insertion: int, timesteps: int | None = None,
    adaptive: bool | None = None, epochs: int | None = None,
) -> NCLResult:
    def factory():
        config = _with_insertion(ctx, insertion)
        if epochs is not None:
            config = config.replace(ncl=config.ncl.replace(epochs=epochs))
        method = Replay4NCL(config, timesteps=timesteps, adaptive_threshold=adaptive)
        return method.run(ctx.pretrained.network, ctx.split)

    return ctx.cached_run(("replay4ncl", insertion, timesteps, adaptive, epochs), factory)


def _run_naive(ctx: ExperimentContext) -> NCLResult:
    def factory():
        return NaiveFinetune(ctx.preset.experiment).run(
            ctx.pretrained.network, ctx.split
        )

    return ctx.cached_run(("naive",), factory)


def _epoch_axis(history) -> tuple:
    return tuple(r.epoch for r in history.records)


# ----------------------------------------------------------------------
# Fig. 1(a): catastrophic forgetting of the baseline
# ----------------------------------------------------------------------

def fig1a(ctx: ExperimentContext) -> ExperimentResult:
    """Old-task accuracy collapse while the baseline learns a new class."""
    result = ExperimentResult(
        experiment_id="fig1a",
        title="Catastrophic forgetting in the baseline network",
        scale=ctx.preset.name,
    )
    naive = _run_naive(ctx)
    epochs = _epoch_axis(naive.history)
    result.add_series(Series(
        name="old-tasks", x=epochs, y=tuple(naive.history.old_task_curve),
        x_label="epoch", y_label="top1",
    ))
    result.add_series(Series(
        name="new-task", x=epochs, y=tuple(naive.history.new_task_curve),
        x_label="epoch", y_label="top1",
    ))
    drop = ctx.pretrained.test_accuracy - naive.final_old_accuracy
    result.scalars["pretrain_accuracy"] = ctx.pretrained.test_accuracy
    result.scalars["final_old_accuracy"] = naive.final_old_accuracy
    result.scalars["accuracy_drop"] = drop
    result.add_note(
        "paper: old-task accuracy drops sharply as the unprotected network "
        "learns the new class; reproduced when accuracy_drop is large"
    )
    return result


# ----------------------------------------------------------------------
# Fig. 2: SpikingLR overheads + aggressive timestep reduction
# ----------------------------------------------------------------------

def fig2(ctx: ExperimentContext) -> ExperimentResult:
    """(a) SpikingLR latency/energy vs the no-NCL baseline across LR
    insertion layers (normalized to the baseline); (b) accuracy collapse
    when SpikingLR's timestep is cut aggressively (100 -> 20 equivalent).
    """
    result = ExperimentResult(
        experiment_id="fig2",
        title="Case study: SpikingLR overheads and timestep reduction",
        scale=ctx.preset.name,
    )
    model = CostModel()

    base = model.run_cost(_run_naive(ctx))

    layers = tuple(range(ctx.pretrained.network.num_weight_layers))
    latency_ratio, energy_ratio = [], []
    for lins in layers:
        cost = model.run_cost(_run_spikinglr(ctx, lins))
        latency_ratio.append(cost.latency_s / base.latency_s)
        energy_ratio.append(cost.energy_j / base.energy_j)
    result.add_series(Series(
        name="spikinglr-latency-vs-baseline", x=layers, y=tuple(latency_ratio),
        x_label="LR insertion layer", y_label="normalized latency",
    ))
    result.add_series(Series(
        name="spikinglr-energy-vs-baseline", x=layers, y=tuple(energy_ratio),
        x_label="LR insertion layer", y_label="normalized energy",
    ))

    # (b) aggressive timestep reduction on the replay pipeline.
    t_full = ctx.preset.experiment.pretrain.timesteps
    t_low = max(t_full // 5, 1)  # the paper's 100 -> 20
    full = _run_spikinglr(ctx, ctx.preset.experiment.ncl.insertion_layer)
    low = _run_spikinglr(ctx, ctx.preset.experiment.ncl.insertion_layer, timesteps=t_low)
    result.add_series(Series(
        name=f"old-acc-T{t_full}", x=_epoch_axis(full.history),
        y=tuple(full.history.old_task_curve), x_label="epoch", y_label="top1",
    ))
    result.add_series(Series(
        name=f"old-acc-T{t_low}", x=_epoch_axis(low.history),
        y=tuple(low.history.old_task_curve), x_label="epoch", y_label="top1",
    ))
    result.scalars["max_latency_overhead"] = max(latency_ratio)
    result.scalars["max_energy_overhead"] = max(energy_ratio)
    result.scalars["accuracy_drop_from_reduction"] = (
        full.final_old_accuracy - low.final_old_accuracy
    )
    result.add_note(
        "paper: SpikingLR costs multiples of the baseline and collapses "
        "under aggressive timestep reduction without compensation"
    )
    return result


# ----------------------------------------------------------------------
# Fig. 8: timestep sweep (Observations A-C)
# ----------------------------------------------------------------------

def fig8(ctx: ExperimentContext) -> ExperimentResult:
    """Accuracy profiles and latency for T ∈ {100%, 60%, 40%, 20%} of the
    pre-training timestep, on the replay pipeline without enhancements.
    Latency is normalized to the 100% setting (paper Fig. 8b).
    """
    result = ExperimentResult(
        experiment_id="fig8",
        title="Timestep optimization case study",
        scale=ctx.preset.name,
    )
    t_full = ctx.preset.experiment.pretrain.timesteps
    fractions = (1.0, 0.6, 0.4, 0.2)
    insertion = ctx.preset.experiment.ncl.insertion_layer
    model = CostModel()

    latencies, finals_old, finals_new = [], [], []
    for fraction in fractions:
        timesteps = max(int(round(t_full * fraction)), 1)
        run = _run_spikinglr(ctx, insertion, timesteps=timesteps)
        label = f"T{timesteps}"
        result.add_series(Series(
            name=f"old-acc-{label}", x=_epoch_axis(run.history),
            y=tuple(run.history.old_task_curve), x_label="epoch", y_label="top1",
        ))
        result.add_series(Series(
            name=f"new-acc-{label}", x=_epoch_axis(run.history),
            y=tuple(run.history.new_task_curve), x_label="epoch", y_label="top1",
        ))
        latencies.append(model.run_cost(run).latency_s)
        finals_old.append(run.final_old_accuracy)
        finals_new.append(run.final_new_accuracy)

    timestep_axis = tuple(max(int(round(t_full * f)), 1) for f in fractions)
    result.add_series(Series(
        name="latency-normalized", x=timestep_axis,
        y=tuple(value / latencies[0] for value in latencies),
        x_label="timesteps", y_label="normalized latency",
    ))
    result.add_series(Series(
        name="final-old-acc", x=timestep_axis, y=tuple(finals_old),
        x_label="timesteps", y_label="top1",
    ))
    result.add_series(Series(
        name="final-new-acc", x=timestep_axis, y=tuple(finals_new),
        x_label="timesteps", y_label="top1",
    ))
    result.scalars["old_acc_drop_at_20pct"] = finals_old[0] - finals_old[-1]
    result.add_note(
        "Observation A: aggressive reduction hurts old-task accuracy; "
        "B: ~40% of the original timesteps is the usable floor; "
        "C: latency falls with the timestep"
    )
    return result


# ----------------------------------------------------------------------
# Fig. 10: both methods across insertion layers
# ----------------------------------------------------------------------

def fig10(ctx: ExperimentContext) -> ExperimentResult:
    """Accuracy, processing time, and energy across LR insertion layers.

    SpikingLR vs Replay4NCL over panels (a)-(c); latency/energy are
    normalized to SpikingLR at insertion layer 0 (the paper's SOTA
    reference).
    """
    result = ExperimentResult(
        experiment_id="fig10",
        title="SpikingLR vs Replay4NCL across LR insertion layers",
        scale=ctx.preset.name,
    )
    model = CostModel()
    layers = tuple(range(ctx.pretrained.network.num_weight_layers))

    table: dict[str, list[float]] = {
        "spikinglr-old": [], "spikinglr-new": [],
        "replay4ncl-old": [], "replay4ncl-new": [],
        "spikinglr-latency": [], "replay4ncl-latency": [],
        "spikinglr-energy": [], "replay4ncl-energy": [],
    }
    for lins in layers:
        sota = _run_spikinglr(ctx, lins)
        ours = _run_replay4ncl(ctx, lins)
        table["spikinglr-old"].append(sota.final_old_accuracy)
        table["spikinglr-new"].append(sota.final_new_accuracy)
        table["replay4ncl-old"].append(ours.final_old_accuracy)
        table["replay4ncl-new"].append(ours.final_new_accuracy)
        sota_cost, ours_cost = model.run_cost(sota), model.run_cost(ours)
        table["spikinglr-latency"].append(sota_cost.latency_s)
        table["replay4ncl-latency"].append(ours_cost.latency_s)
        table["spikinglr-energy"].append(sota_cost.energy_j)
        table["replay4ncl-energy"].append(ours_cost.energy_j)

    ref_latency = table["spikinglr-latency"][0]
    ref_energy = table["spikinglr-energy"][0]
    for key in ("spikinglr-latency", "replay4ncl-latency"):
        table[key] = [v / ref_latency for v in table[key]]
    for key in ("spikinglr-energy", "replay4ncl-energy"):
        table[key] = [v / ref_energy for v in table[key]]

    labels = {
        "spikinglr-old": "top1", "spikinglr-new": "top1",
        "replay4ncl-old": "top1", "replay4ncl-new": "top1",
        "spikinglr-latency": "normalized latency",
        "replay4ncl-latency": "normalized latency",
        "spikinglr-energy": "normalized energy",
        "replay4ncl-energy": "normalized energy",
    }
    for name, values in table.items():
        result.add_series(Series(
            name=name, x=layers, y=tuple(values),
            x_label="LR insertion layer", y_label=labels[name],
        ))

    speedups = [
        s / r for s, r in zip(table["spikinglr-latency"], table["replay4ncl-latency"])
    ]
    savings = [
        1.0 - r / s for s, r in zip(table["spikinglr-energy"], table["replay4ncl-energy"])
    ]
    result.scalars["max_latency_speedup"] = max(speedups)
    result.scalars["max_energy_saving"] = max(savings)
    result.add_note(
        "paper markers: comparable accuracy (1), up to 2.34x speed-up (2), "
        "up to 56.7% energy saving (3)"
    )
    return result


# ----------------------------------------------------------------------
# Fig. 11: layer-3 profiles across epochs (headline accuracy)
# ----------------------------------------------------------------------

def fig11(ctx: ExperimentContext) -> ExperimentResult:
    """Layer-3 profiles across epochs (the headline accuracy figure).

    Old-task accuracy vs epoch (a) plus cumulative latency (b) and
    energy (c) at epoch checkpoints, for the headline insertion layer.
    Bars are normalized to SpikingLR at the first checkpoint, as in the
    paper ("Normalized to SOTA Epoch 10").
    """
    result = ExperimentResult(
        experiment_id="fig11",
        title="Epoch profiles at the headline LR insertion layer",
        scale=ctx.preset.name,
    )
    insertion = ctx.preset.experiment.ncl.insertion_layer
    model = CostModel()

    sota = _run_spikinglr(ctx, insertion)
    ours = _run_replay4ncl(ctx, insertion)

    def epochs_cost(run: NCLResult, epochs: int | None = None):
        return model.run_cost(run, epochs, include_prepare=False)

    result.add_series(Series(
        name="spikinglr-old-acc", x=_epoch_axis(sota.history),
        y=tuple(sota.history.old_task_curve), x_label="epoch", y_label="top1",
    ))
    result.add_series(Series(
        name="replay4ncl-old-acc", x=_epoch_axis(ours.history),
        y=tuple(ours.history.old_task_curve), x_label="epoch", y_label="top1",
    ))

    epochs = len(sota.history)
    checkpoints = tuple(
        max(1, int(round(epochs * f))) for f in (0.2, 0.6, 1.0)
    )  # the paper's 10/30/50 of a 50-epoch run
    ref = epochs_cost(sota, checkpoints[0])
    for label, run in (("spikinglr", sota), ("replay4ncl", ours)):
        cumulative = [epochs_cost(run, c) for c in checkpoints]
        result.add_series(Series(
            name=f"{label}-cumulative-latency", x=checkpoints,
            y=tuple(cost.latency_s / ref.latency_s for cost in cumulative),
            x_label="epoch", y_label="normalized latency",
        ))
        result.add_series(Series(
            name=f"{label}-cumulative-energy", x=checkpoints,
            y=tuple(cost.energy_j / ref.energy_j for cost in cumulative),
            x_label="epoch", y_label="normalized energy",
        ))

    result.scalars["spikinglr_final_old_acc"] = sota.final_old_accuracy
    result.scalars["replay4ncl_final_old_acc"] = ours.final_old_accuracy
    sota_cost, ours_cost = epochs_cost(sota), epochs_cost(ours)
    result.scalars["per_epoch_latency_speedup"] = (
        sota_cost.latency_s / ours_cost.latency_s
    )

    # Time-to-quality: epochs each method needs to reach the SOTA final
    # old-task accuracy (minus a small tolerance), in cumulative seconds.
    target = sota.final_old_accuracy - 0.01
    sota_epoch = sota.history.epochs_to_reach(target, task="old")
    ours_epoch = ours.history.epochs_to_reach(target, task="old")
    if sota_epoch is not None and ours_epoch is not None:
        sota_time = epochs_cost(sota, sota_epoch + 1).latency_s
        ours_time = epochs_cost(ours, ours_epoch + 1).latency_s
        if ours_time > 0:
            result.scalars["time_to_quality_speedup"] = sota_time / ours_time
    result.scalars["energy_saving"] = 1.0 - ours_cost.energy_j / sota_cost.energy_j
    result.add_note(
        "paper markers: accuracy improvement for old tasks (4: 90.43% vs "
        "86.22%), latency saving (5, headline 4.88x incl. convergence), "
        "energy saving (6, headline 36.43%)"
    )
    return result


# ----------------------------------------------------------------------
# Fig. 12: latent memory sizes
# ----------------------------------------------------------------------

def fig12(ctx: ExperimentContext) -> ExperimentResult:
    """Latent memory across LR insertion layers 1..L-1.

    Normalized to SpikingLR at layer 1 (the paper omits layer 0, whose
    "latent" data is the raw input).  Only buffer generation runs — no
    training needed.
    """
    result = ExperimentResult(
        experiment_id="fig12",
        title="Latent memory: SpikingLR vs Replay4NCL",
        scale=ctx.preset.name,
    )
    exp = ctx.preset.experiment
    network = ctx.pretrained.network
    replay = ctx.split.pretrain_train.sample_fraction(
        exp.ncl.replay_fraction, seeding.default_rng(exp.seed)
    )
    layers = tuple(range(1, network.num_weight_layers))

    sota_bytes, ours_bytes = [], []
    for lins in layers:
        sota_buffer, _ = LatentReplayBuffer.generate(
            network, replay, insertion_layer=lins,
            timesteps=exp.pretrain.timesteps, compression_factor=2,
        )
        ours_buffer, _ = LatentReplayBuffer.generate(
            network, replay, insertion_layer=lins,
            timesteps=exp.ncl.timesteps, compression_factor=1,
        )
        sota_bytes.append(sota_buffer.storage_bytes())
        ours_bytes.append(ours_buffer.storage_bytes())

    reference = sota_bytes[0]
    result.add_series(Series(
        name="spikinglr-memory", x=layers,
        y=tuple(b / reference for b in sota_bytes),
        x_label="LR insertion layer", y_label="normalized latent memory",
    ))
    result.add_series(Series(
        name="replay4ncl-memory", x=layers,
        y=tuple(b / reference for b in ours_bytes),
        x_label="LR insertion layer", y_label="normalized latent memory",
    ))
    savings = [1.0 - o / s for s, o in zip(sota_bytes, ours_bytes)]
    result.add_series(Series(
        name="memory-saving", x=layers, y=tuple(savings),
        x_label="LR insertion layer", y_label="fraction saved",
    ))
    result.scalars["min_saving"] = min(savings)
    result.scalars["max_saving"] = max(savings)
    result.add_note("paper: 20%-21.88% latent memory saving across layers")
    return result


# ----------------------------------------------------------------------
# Fig. 13: long-training convergence
# ----------------------------------------------------------------------

def fig13(ctx: ExperimentContext) -> ExperimentResult:
    """New-task accuracy over a 3x-longer training run.

    The paper's 150 epochs vs the usual 50: Replay4NCL's lower learning
    rate gives a smoother curve and equal-or-better late accuracy.
    """
    result = ExperimentResult(
        experiment_id="fig13",
        title="Long-training accuracy profiles (new task)",
        scale=ctx.preset.name,
    )
    insertion = ctx.preset.experiment.ncl.insertion_layer
    epochs = ctx.preset.experiment.ncl.epochs * 3
    sota = _run_spikinglr(ctx, insertion, epochs=epochs)
    ours = _run_replay4ncl(ctx, insertion, epochs=epochs)
    result.add_series(Series(
        name="spikinglr-new-acc", x=_epoch_axis(sota.history),
        y=tuple(sota.history.new_task_curve), x_label="epoch", y_label="top1",
    ))
    result.add_series(Series(
        name="replay4ncl-new-acc", x=_epoch_axis(ours.history),
        y=tuple(ours.history.new_task_curve), x_label="epoch", y_label="top1",
    ))

    def smoothness(curve: list[float]) -> float:
        """Mean absolute epoch-to-epoch change (lower = smoother)."""
        arr = np.asarray(curve)
        return float(np.abs(np.diff(arr)).mean()) if arr.size > 1 else 0.0

    result.scalars["spikinglr_final_new_acc"] = sota.final_new_accuracy
    result.scalars["replay4ncl_final_new_acc"] = ours.final_new_accuracy
    result.scalars["spikinglr_curve_roughness"] = smoothness(
        sota.history.new_task_curve
    )
    result.scalars["replay4ncl_curve_roughness"] = smoothness(
        ours.history.new_task_curve
    )
    result.add_note(
        "paper marker 7: Replay4NCL shows better learning convergence "
        "(smoother curve) thanks to the lower NCL learning rate"
    )
    return result


# ----------------------------------------------------------------------
# Headline table (abstract / §V key results)
# ----------------------------------------------------------------------

def headline(ctx: ExperimentContext) -> ExperimentResult:
    """The abstract's four numbers, at the headline insertion layer.

    Old-task Top-1 (ours vs SOTA), latency speed-up, latent memory
    saving, and energy saving.
    """
    result = ExperimentResult(
        experiment_id="headline",
        title="Headline comparison (paper abstract)",
        scale=ctx.preset.name,
    )
    insertion = ctx.preset.experiment.ncl.insertion_layer
    model = CostModel()

    sota = _run_spikinglr(ctx, insertion)
    ours = _run_replay4ncl(ctx, insertion)
    sota_cost = model.run_cost(sota, include_prepare=False)
    ours_cost = model.run_cost(ours, include_prepare=False)

    result.scalars["spikinglr_old_acc"] = sota.final_old_accuracy
    result.scalars["replay4ncl_old_acc"] = ours.final_old_accuracy
    result.scalars["spikinglr_new_acc"] = sota.final_new_accuracy
    result.scalars["replay4ncl_new_acc"] = ours.final_new_accuracy
    result.scalars["latency_speedup"] = sota_cost.latency_s / ours_cost.latency_s
    result.scalars["memory_saving"] = (
        1.0 - ours.latent_storage_bytes / sota.latent_storage_bytes
    )
    result.scalars["energy_saving"] = 1.0 - ours_cost.energy_j / sota_cost.energy_j

    methods = ("spikinglr", "replay4ncl")
    result.add_series(Series(
        name="old-acc", x=methods,
        y=(sota.final_old_accuracy, ours.final_old_accuracy),
        x_label="method", y_label="top1",
    ))
    result.add_series(Series(
        name="new-acc", x=methods,
        y=(sota.final_new_accuracy, ours.final_new_accuracy),
        x_label="method", y_label="top1",
    ))
    result.add_series(Series(
        name="latent-bytes", x=methods,
        y=(float(sota.latent_storage_bytes), float(ours.latent_storage_bytes)),
        x_label="method", y_label="bytes",
    ))
    result.add_note(
        "paper: 90.43% vs 86.22% old-task top-1, 4.88x latency speed-up "
        "(incl. convergence), 20% latent memory saving, 36.43% energy saving"
    )
    return result


FIGURES = {
    "fig1a": fig1a,
    "fig2": fig2,
    "fig8": fig8,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "headline": headline,
}
