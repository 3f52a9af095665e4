"""ClusterSim wire-up: every table that workers or shards only read is
built once and shared, so assembling a cluster is linear in workers +
shards + keys.  Built, never run: these are the largest clusters in the
suite."""

from __future__ import annotations

import pytest

from repro.models import resnet50
from repro.sim import ClusterConfig, ClusterSim
from repro.strategies import p3


def build(**config) -> ClusterSim:
    return ClusterSim(resnet50(), p3(), ClusterConfig(**config))


@pytest.fixture(scope="module")
def rack() -> ClusterSim:
    return build(n_workers=1024)


def test_shard_key_tables_partition_placed_in_order(rack):
    position = {pk.key: i for i, pk in enumerate(rack.placed)}
    seen = []
    assert rack.keys_by_server is rack.plan_artifacts.keys_by_server
    for shard in rack.servers:
        assert shard.keys is rack.keys_by_server[shard.sid]
        assert all(pk.server == shard.sid and pk.key == key
                   for key, pk in shard.keys.items())
        order = [position[key] for key in shard.keys]
        assert order == sorted(order)
        seen += order
    assert sorted(seen) == list(range(len(rack.placed)))


def test_workers_and_shards_share_one_table_each(rack):
    model = rack.model
    assert rack.fwd_times == [float(t) for t in model.forward_times(1.0)]
    assert rack.bwd_times == [float(t) for t in model.backward_times(1.0)]
    assert rack.keys_per_layer == tuple(len(k) for k in rack.keys_by_layer)
    assert rack.client_machines == list(range(1024))
    assert rack.clients == list(range(1024))
    for worker in rack.workers:
        assert worker.fwd_times is rack.fwd_times
        assert worker.bwd_times is rack.bwd_times
        assert worker.keys_per_layer is rack.keys_per_layer
        assert worker._server_machine is rack.key_server_machine
        # Per-worker mutable state is the worker's own.
        assert worker.params_arrived is not rack.keys_per_layer
    for shard in rack.servers:
        assert shard._all_recipients is rack.clients
        assert shard._recipient_machine is rack.client_machines


def test_two_tier_wireup():
    cluster = build(n_workers=64, placement="two_tier", agg_group_size=8)
    groups = [list(range(8 * g, 8 * g + 8)) for g in range(8)]
    assert [agg.members for agg in cluster.aggregators] == groups
    assert [agg.machine for agg in cluster.aggregators] == [8 * g for g in range(8)]
    for agg in cluster.aggregators:
        assert agg._recipient_machine == {w: w for w in agg.members}
        assert agg.keys is cluster.keys
    assert cluster.client_machines == [8 * g for g in range(8)]
    for shard in cluster.servers:
        assert shard._all_recipients is cluster.clients == list(range(8))
        assert shard._recipient_machine is cluster.client_machines
    for worker in cluster.workers:
        table = cluster.group_key_machine[worker.wid // 8]
        assert worker._server_machine is table
        assert list(table) == list(cluster.keys)
        assert set(table.values()) == {8 * (worker.wid // 8)}


def test_plan_tables_are_shared_across_clusters(rack):
    """The per-plan tables live in :class:`PlanArtifacts`: a cluster
    built from another's artifacts reads the same objects."""
    other = ClusterSim(resnet50(), p3(),
                       ClusterConfig(n_workers=1024, bandwidth_gbps=25.0),
                       artifacts=rack.plan_artifacts)
    assert other.keys_by_server is rack.keys_by_server
    assert other.keys_per_layer is rack.keys_per_layer
    for mine, theirs in zip(other.servers, rack.servers):
        assert mine.keys is theirs.keys
