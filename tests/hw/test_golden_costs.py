"""Golden cost numbers: the cost model's floats, pinned bit for bit.

The values were recorded as ``float.hex`` from the two models the cost
model replaced (a latency model and an energy model that each counted
every epoch themselves), on the synthetic ledgers below.  Any change to
the counting rules, the pricing formulas, or the order of the float
operations (``compute + codec + barriers``; summing the per-epoch costs,
then adding the preparation; slicing before summing) moves at least one
of them.
"""

import pytest

from repro.core.strategies import EpochCost
from repro.hw import CostModel, edge_gpu_like, embedded_neuromorphic, loihi_like
from repro.snn.state import LayerTraceEntry, SpikeTrace

PROFILES = (embedded_neuromorphic, loihi_like, edge_gpu_like)


def _trace(*layers):
    trace = SpikeTrace()
    for name, n_in, n_out, recurrent, inputs, outputs, timesteps, batch in layers:
        trace.add(LayerTraceEntry(
            name=name, n_in=n_in, n_out=n_out, recurrent=recurrent,
            input_spike_count=inputs, output_spike_count=outputs,
            timesteps=timesteps, batch=batch,
        ))
    return trace


def _ledgers():
    """Five epochs (train traces, frozen traces, codec cells) and a prepare."""
    full = _trace(
        ("hidden0", 700, 200, True, 12345.0, 6789.5, 100, 16),
        ("hidden1", 200, 200, True, 6789.5, 3210.25, 100, 16),
        ("readout", 200, 20, False, 3210.25, 0.0, 100, 16),
    )
    back = _trace(
        ("hidden1", 200, 200, True, 411.0, 97.0, 40, 7),
        ("readout", 200, 20, False, 97.0, 0.0, 40, 7),
    )
    readout = _trace(("readout", 200, 20, False, 1.0 / 3.0, 0.0, 40, 3))
    frozen = _trace(("hidden0", 700, 200, True, 999.125, 1234.0, 40, 32))
    epochs = [
        EpochCost(train_traces=[full, back], frozen_traces=[frozen],
                  decompressed_cells=1_234_567),
        EpochCost(train_traces=[back], frozen_traces=[frozen, frozen]),
        EpochCost(train_traces=[readout, back, readout], decompressed_cells=77),
        EpochCost(frozen_traces=[frozen], decompressed_cells=3),
        EpochCost(),
    ]
    prepare = EpochCost(frozen_traces=[full, frozen], decompressed_cells=4_000_001)
    return epochs, prepare


class _Run:
    """The two ledger fields of an NCLResult the cost model reads."""

    def __init__(self):
        self.epoch_costs, self.prepare_cost = _ledgers()


GOLDEN = {
    "embedded-neuromorphic": {
        "epoch_latency": (
            "0x1.4178fe10082d4p-6", "0x1.770920e5fea20p-9", "0x1.6dc170f07a735p-10",
            "0x1.df78315040457p-11", "0x0.0p+0", "0x1.549ae413dda4ep-7",
        ),
        "epoch_energy": (
            "0x1.6e7f7bb538864p-10", "0x1.700733d9d6e07p-13", "0x1.4826b782d4eaep-14",
            "0x1.e57b507e5d88ep-15", "0x0.0p+0", "0x1.5e303ff7c50b3p-11",
        ),
        "cumulative_latency": (
            "0x0.0p+0", "0x1.4178fe10082d4p-6", "0x1.705a222cc8018p-6",
            "0x1.8736393bcfa8bp-6", "0x1.9631fac651aaep-6", "0x1.9631fac651aaep-6",
            "0x1.9631fac651aaep-6",
        ),
        "cumulative_energy": (
            "0x0.0p+0", "0x1.6e7f7bb538864p-10", "0x1.9c80623073625p-10",
            "0x1.b102cda8a0b10p-10", "0x1.c02ea82c939d4p-10", "0x1.c02ea82c939d4p-10",
            "0x1.c02ea82c939d4p-10",
        ),
        "run_latency": {True: "0x1.203fb668203eap-5", False: "0x1.9631fac651aaep-6"},
        "run_energy": {True: "0x1.37a364143b117p-9", False: "0x1.c02ea82c939d4p-10"},
    },
    "loihi-like": {
        "epoch_latency": (
            "0x1.6e9dd921f855fp-4", "0x1.5e74718e5a17cp-6", "0x1.8ae3520e2e85cp-7",
            "0x1.a8090446c7cbcp-8", "0x0.0p+0", "0x1.0f5f730ac22e7p-5",
        ),
        "epoch_energy": (
            "0x1.3ceaec90e440ep-7", "0x1.254efa40942e6p-9", "0x1.4309fc95bd52bp-10",
            "0x1.667602a817f4ap-11", "0x0.0p+0", "0x1.d4ca92fa1e524p-9",
        ),
        "cumulative_latency": (
            "0x0.0p+0", "0x1.6e9dd921f855fp-4", "0x1.c63af5858edbep-4",
            "0x1.f7975fc754acap-4", "0x1.090bf805e094bp-3", "0x1.090bf805e094bp-3",
            "0x1.090bf805e094bp-3",
        ),
        "cumulative_energy": (
            "0x0.0p+0", "0x1.3ceaec90e440ep-7", "0x1.863eab21094c8p-7",
            "0x1.ae9feab3c0f6dp-7", "0x1.c5074ade42762p-7", "0x1.c5074ade42762p-7",
            "0x1.c5074ade42762p-7",
        ),
        "run_latency": {True: "0x1.4ce3d4c891205p-3", False: "0x1.090bf805e094bp-3"},
        "run_energy": {True: "0x1.1d1cf7ce65056p-6", False: "0x1.c5074ade42762p-7"},
    },
    "edge-gpu-like": {
        "epoch_latency": (
            "0x1.7163f9619bca8p-4", "0x1.6cc09d947af6cp-6", "0x1.8e078b3ed6e32p-7",
            "0x1.c1a122338d747p-8", "0x0.0p+0", "0x1.0a492f39779cbp-5",
        ),
        "epoch_energy": (
            "0x1.d18e69d655f1cp-2", "0x1.ccb1318727cf4p-4", "0x1.f2f42ac918f84p-5",
            "0x1.1d1a74a61e734p-5", "0x0.0p+0", "0x1.4ffb8b0549282p-3",
        ),
        "cumulative_latency": (
            "0x0.0p+0", "0x1.7163f9619bca8p-4", "0x1.cc9420c6ba883p-4",
            "0x1.fe55122e95649p-4", "0x1.0d379228e71dfp-3", "0x1.0d379228e71dfp-3",
            "0x1.0d379228e71dfp-3",
        ),
        "cumulative_energy": (
            "0x0.0p+0", "0x1.d18e69d655f1cp-2", "0x1.225d5b1c0ff2cp-1",
            "0x1.418c9dc8a1824p-1", "0x1.535e451303697p-1", "0x1.535e451303697p-1",
            "0x1.535e451303697p-1",
        ),
        "run_latency": {True: "0x1.4fc9ddf745052p-3", False: "0x1.0d379228e71dfp-3"},
        "run_energy": {True: "0x1.a75d27d455b38p-1", False: "0x1.535e451303697p-1"},
    },
}


@pytest.fixture(params=PROFILES, ids=lambda factory: factory.__name__)
def model(request):
    return CostModel(request.param())


def _golden(model, key):
    return GOLDEN[model.profile.name][key]


def test_epoch_costs(model):
    run = _Run()
    costs = [model.epoch_cost(cost) for cost in run.epoch_costs + [run.prepare_cost]]
    assert [c.latency_s.hex() for c in costs] == list(_golden(model, "epoch_latency"))
    assert [c.energy_j.hex() for c in costs] == list(_golden(model, "epoch_energy"))


@pytest.mark.parametrize("include_prepare", [True, False])
def test_run_cost(model, include_prepare):
    cost = model.run_cost(_Run(), include_prepare=include_prepare)
    assert cost.latency_s.hex() == _golden(model, "run_latency")[include_prepare]
    assert cost.energy_j.hex() == _golden(model, "run_energy")[include_prepare]


@pytest.mark.parametrize("epochs", range(7))
def test_cumulative_cost(model, epochs):
    cost = model.run_cost(_Run(), epochs, include_prepare=False)
    assert float(cost.latency_s).hex() == _golden(model, "cumulative_latency")[epochs]
    assert float(cost.energy_j).hex() == _golden(model, "cumulative_energy")[epochs]
