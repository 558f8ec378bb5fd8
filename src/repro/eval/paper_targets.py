"""The paper's reported numbers, as structured data.

Single source of truth for what the paper claims, used by the
``python -m repro compare`` command to render paper-vs-measured tables
from saved benchmark results.

Each target names the figure, the quantity, the paper's value, and how
to extract the measured value from the corresponding
:class:`~repro.eval.results.ExperimentResult` JSON (a scalar key, or a
reduction over a series).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError

__all__ = ["PaperTarget", "PAPER_TARGETS", "compare_to_paper", "format_comparison"]


@dataclass(frozen=True)
class PaperTarget:
    """One quantitative claim of the paper.

    Attributes
    ----------
    experiment_id:
        Which reproduction result carries the measurement.
    description:
        What the number is, in the paper's words.
    paper_value:
        The value the paper reports (fractions for percentages).
    scalar:
        Key into the result's ``scalars`` holding our measurement.
    direction:
        ``"shape"`` — comparable in kind, absolute match not expected
        (our substrate is a simulator at reduced scale); ``"band"`` —
        our value should land within ``band`` of the paper's.
    band:
        Absolute tolerance when ``direction == "band"``.
    """

    experiment_id: str
    description: str
    paper_value: float
    scalar: str
    direction: str = "shape"
    band: float = 0.0

    def __post_init__(self):
        if self.direction not in ("shape", "band"):
            raise ConfigError(f"direction must be 'shape' or 'band', got {self.direction!r}")


PAPER_TARGETS: tuple[PaperTarget, ...] = (
    PaperTarget(
        experiment_id="headline",
        description="old-task Top-1, Replay4NCL (abstract: 90.43%)",
        paper_value=0.9043,
        scalar="replay4ncl_old_acc",
    ),
    PaperTarget(
        experiment_id="headline",
        description="old-task Top-1, SpikingLR (abstract: 86.22%)",
        paper_value=0.8622,
        scalar="spikinglr_old_acc",
    ),
    PaperTarget(
        experiment_id="headline",
        description="latent memory saving (abstract: 20%)",
        paper_value=0.20,
        scalar="memory_saving",
        direction="band",
        band=0.05,
    ),
    PaperTarget(
        experiment_id="headline",
        description="energy saving at the headline layer (abstract: 36.43%)",
        paper_value=0.3643,
        scalar="energy_saving",
        direction="band",
        band=0.25,
    ),
    PaperTarget(
        experiment_id="headline",
        description="latency speed-up (abstract: 4.88x, incl. convergence)",
        paper_value=4.88,
        scalar="latency_speedup",
    ),
    PaperTarget(
        experiment_id="fig10",
        description="max per-epoch latency speed-up across layers (Fig. 10b: 2.34x)",
        paper_value=2.34,
        scalar="max_latency_speedup",
        direction="band",
        band=0.5,
    ),
    PaperTarget(
        experiment_id="fig10",
        description="max energy saving across layers (Fig. 10c: 56.7%)",
        paper_value=0.567,
        scalar="max_energy_saving",
        direction="band",
        band=0.2,
    ),
    PaperTarget(
        experiment_id="fig12",
        description="max latent memory saving across layers (Fig. 12: 21.88%)",
        paper_value=0.2188,
        scalar="max_saving",
        direction="band",
        band=0.05,
    ),
    PaperTarget(
        experiment_id="fig1a",
        description="old-task accuracy collapse without NCL (Fig. 1a)",
        paper_value=0.8,  # the figure shows a drop from ~90% to near-chance
        scalar="accuracy_drop",
    ),
    PaperTarget(
        experiment_id="fig8",
        description="old-task accuracy drop at 20% timesteps (Fig. 8a, Obs. A)",
        paper_value=0.3,  # the figure shows a large degradation
        scalar="old_acc_drop_at_20pct",
    ),
)


def compare_to_paper(results_dir: str | Path) -> list[dict]:
    """Join saved benchmark results against the paper targets.

    Returns one row per target: description, paper value, measured value
    (None when the experiment result is missing), and whether a
    ``band`` target landed inside its tolerance.
    """
    results_dir = Path(results_dir)
    cache: dict[str, dict] = {}
    rows = []
    for target in PAPER_TARGETS:
        if target.experiment_id not in cache:
            path = results_dir / f"{target.experiment_id}.json"
            cache[target.experiment_id] = (
                json.loads(path.read_text()) if path.exists() else {}
            )
        payload = cache[target.experiment_id]
        measured = payload.get("scalars", {}).get(target.scalar)
        in_band = None
        if measured is not None and target.direction == "band":
            in_band = abs(measured - target.paper_value) <= target.band
        rows.append(
            {
                "experiment": target.experiment_id,
                "description": target.description,
                "paper": target.paper_value,
                "measured": measured,
                "direction": target.direction,
                "in_band": in_band,
            }
        )
    return rows


def format_comparison(rows: list[dict]) -> str:
    """Render comparison rows as an aligned text table."""
    header = f"{'experiment':10s} {'paper':>9s} {'measured':>9s} {'verdict':>9s}  description"
    lines = [header, "-" * len(header)]
    for row in rows:
        measured = "missing" if row["measured"] is None else f"{row['measured']:.4g}"
        if row["measured"] is None:
            verdict = "-"
        elif row["direction"] == "band":
            verdict = "in-band" if row["in_band"] else "off-band"
        else:
            verdict = "shape"
        lines.append(
            f"{row['experiment']:10s} {row['paper']:9.4g} {measured:>9s} "
            f"{verdict:>9s}  {row['description']}"
        )
    return "\n".join(lines)
