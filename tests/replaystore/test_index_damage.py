"""Damaged ``index.json`` / ``federation.json`` raise ``StoreError`` only.

Each case opens a handle on a structurally or type-damaged index and
asks for its stats: the damage must surface as the store's own error
class, never as a raw ``AttributeError``/``TypeError``/``ValueError``.
Indexes written by older versions that still carry fields this version
dropped (``tombstones``, ``member_samples``) must keep opening.
"""

import json

import numpy as np
import pytest

from repro.errors import StoreError
from repro.replaystore import FederatedReplayStore, ReplayStore, ReplayStream
from repro.replaystore.federation import FEDERATION_INDEX_NAME
from repro.replaystore.store import INDEX_NAME


def whole(value):
    return lambda payload: value


def field(key, value):
    return lambda payload: {**payload, key: value}


def without(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def nested(outer, key, value):
    def damage(payload):
        payload[outer][key] = value
        return payload

    return damage


def nested_without(outer, key):
    def damage(payload):
        del payload[outer][key]
        return payload

    return damage


def shard_field(key, value):
    def damage(payload):
        payload["shards"][0][key] = value
        return payload

    return damage


def shard_without(key):
    def damage(payload):
        del payload["shards"][0][key]
        return payload

    return damage


def first_shard(value):
    def damage(payload):
        payload["shards"][0] = value
        return payload

    return damage


CASES = [
    pytest.param("store", whole([]), id="store-top-level-list"),
    pytest.param("federation", whole([]), id="federation-top-level-list"),
    pytest.param("store", field("generation", "x"), id="store-generation-str"),
    pytest.param("store", shard_field("labels", "ab"), id="shard-labels-str"),
    pytest.param("store", shard_field("num_samples", "x"), id="shard-num-samples-str"),
    pytest.param("federation", field("budget_bytes", "x"), id="federation-budget-str"),
    pytest.param("federation", field("seed", "x"), id="federation-seed-str"),
    pytest.param("federation", field("rebalances", "x"), id="federation-rebalances-str"),
    pytest.param("federation", field("geometry", "x"), id="federation-geometry-str"),
    # Whole-payload damage.
    pytest.param("store", whole(None), id="store-top-level-null"),
    pytest.param("store", whole("index"), id="store-top-level-str"),
    pytest.param("federation", whole(7), id="federation-top-level-int"),
    # Store header.
    pytest.param("store", without("version"), id="store-version-missing"),
    pytest.param("store", field("version", "1"), id="store-version-str"),
    pytest.param("store", field("generation", None), id="store-generation-null"),
    pytest.param("store", field("generation", 1.5), id="store-generation-float"),
    pytest.param("store", without("meta"), id="store-meta-missing"),
    pytest.param("store", field("meta", []), id="store-meta-list"),
    pytest.param("store", nested("meta", "stored_frames", "x"), id="meta-frames-str"),
    pytest.param("store", nested("meta", "shard_samples", 2.5), id="meta-shard-samples-float"),
    pytest.param("store", nested("meta", "num_channels", 0), id="meta-channels-zero"),
    pytest.param("store", nested("meta", "codec_factor", 0), id="meta-codec-factor-zero"),
    pytest.param("store", nested_without("meta", "num_channels"), id="meta-channels-missing"),
    pytest.param("store", without("shards"), id="store-shards-missing"),
    pytest.param("store", field("shards", "x"), id="store-shards-str"),
    pytest.param("store", field("shards", {}), id="store-shards-object"),
    # Shard-table rows.
    pytest.param("store", first_shard(3), id="shard-row-int"),
    pytest.param("store", first_shard([]), id="shard-row-list"),
    pytest.param("store", shard_without("file"), id="shard-file-missing"),
    pytest.param("store", shard_field("file", 3), id="shard-file-int"),
    pytest.param("store", shard_field("file", "../shard-00000.bin"), id="shard-file-traversal"),
    pytest.param("store", shard_field("file", INDEX_NAME), id="shard-file-not-a-shard"),
    pytest.param("store", shard_field("codec", 3), id="shard-codec-int"),
    pytest.param("store", shard_field("payload_bytes", "x"), id="shard-payload-bytes-str"),
    pytest.param("store", shard_field("payload_offset", 1.5), id="shard-payload-offset-float"),
    pytest.param("store", shard_field("labels", None), id="shard-labels-null"),
    pytest.param("store", shard_field("labels", [0.5, 1.5, 0.5]), id="shard-labels-float"),
    pytest.param("store", shard_field("labels", [0]), id="shard-labels-count-mismatch"),
    # Federation ledger.
    pytest.param("federation", without("version"), id="federation-version-missing"),
    pytest.param("federation", field("version", 2), id="federation-version-foreign"),
    pytest.param("federation", without("seed"), id="federation-seed-missing"),
    pytest.param("federation", field("budget_bytes", 1.5), id="federation-budget-float"),
    pytest.param("federation", field("policy", 3), id="federation-policy-int"),
    pytest.param("federation", without("members"), id="federation-members-missing"),
    pytest.param("federation", field("members", "task-0"), id="federation-members-str"),
    pytest.param("federation", field("members", [0]), id="federation-members-int-entry"),
    pytest.param("federation", field("pending_removal", "x"), id="federation-pending-str"),
    pytest.param(
        "federation",
        nested_without("geometry", "num_channels"),
        id="federation-geometry-missing-field",
    ),
    pytest.param(
        "federation", nested("geometry", "stored_frames", "x"), id="federation-geometry-field-str"
    ),
]


@pytest.fixture
def federation(tmp_path):
    fed = FederatedReplayStore.create(tmp_path / "fed")
    store = ReplayStore.create(
        tmp_path / "fed" / "task-0",
        stored_frames=4,
        num_channels=6,
        generated_timesteps=4,
        shard_samples=3,
    )
    rng = np.random.default_rng(0)
    store.append((rng.random((4, 5, 6)) < 0.3).astype(np.float32), np.arange(5) % 2)
    fed.adopt("task-0")
    return fed


def index_of(federation, target):
    """The damaged index's path and the opener that must reject it."""
    if target == "store":
        return federation.root / "task-0" / INDEX_NAME, ReplayStore.open
    return federation.root / FEDERATION_INDEX_NAME, FederatedReplayStore.open


@pytest.mark.parametrize("target, damage", CASES)
def test_damaged_index_raises_store_error(federation, target, damage):
    path, opener = index_of(federation, target)
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    with pytest.raises(StoreError):
        opener(path.parent).stats()


@pytest.mark.parametrize("target", ["store", "federation"])
@pytest.mark.parametrize("text", ["", "{not json", "\x00\xff"], ids=["empty", "bad-json", "binary"])
def test_unparseable_index_raises_store_error(federation, target, text):
    path, opener = index_of(federation, target)
    path.write_text(text)
    with pytest.raises(StoreError, match="corrupt"):
        opener(path.parent)


def test_legacy_store_index_with_tombstones_opens(federation):
    root = federation.root / "task-0"
    dense = ReplayStream(ReplayStore.open(root)).materialize()
    path = root / INDEX_NAME
    payload = json.loads(path.read_text())
    payload["tombstones"] = [{"file": "shard-00000.bin", "generation": 0}]
    path.write_text(json.dumps(payload))

    store = ReplayStore.open(root)
    assert store.num_samples == 5
    np.testing.assert_array_equal(ReplayStream(store).materialize(), dense)
    # The next commit writes this version's index, without the field.
    store.compact()
    assert "tombstones" not in json.loads(path.read_text())


def test_legacy_federation_index_with_member_samples_opens(federation):
    path = federation.root / FEDERATION_INDEX_NAME
    payload = json.loads(path.read_text())
    payload["member_samples"] = [5]
    path.write_text(json.dumps(payload))

    fed = FederatedReplayStore.open(federation.root)
    assert fed.member_names == ["task-0"]
    assert fed.stats().member_samples == {"task-0": 5}
    fed.configure(seed=4)
    assert "member_samples" not in json.loads(path.read_text())
