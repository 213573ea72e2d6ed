"""AllReduce: ring and PEEL-allgather variants."""

import pytest

from repro.collectives import CollectiveEnv, Gpu, Group, resolve_scheme, shard_bytes
from repro.sim import SimConfig
from repro.topology import FatTree, LeafSpine

MSG = 16 * 2**20


def group_of(topo, n):
    hosts = sorted(topo.hosts)[:n]
    gpus = tuple(Gpu(h, 0) for h in hosts)
    return Group(gpus[0], gpus)


class TestCompletion:
    @pytest.mark.parametrize("name", ["allreduce-ring", "allreduce-peel"])
    def test_completes(self, name):
        topo = LeafSpine(4, 8, 2)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        handle = resolve_scheme(name).launch(env, group_of(topo, 8), MSG, 0.0)
        env.run()
        assert handle.complete

    @pytest.mark.parametrize("name", ["allreduce-ring", "allreduce-peel"])
    def test_every_host_finishes(self, name):
        topo = FatTree(4)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        group = group_of(topo, 6)
        handle = resolve_scheme(name).launch(env, group, MSG, 0.0)
        env.run()
        assert handle.complete
        assert set(handle.host_done_at) == set(group.hosts)

    @pytest.mark.parametrize("name", ["allreduce-ring", "allreduce-peel"])
    def test_single_host_trivial(self, name):
        topo = LeafSpine(2, 2, 2)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        handle = resolve_scheme(name).launch(env, group_of(topo, 1), MSG, 0.0)
        env.run()
        assert handle.complete


class TestShape:
    def test_cct_floor_two_phases(self):
        """AllReduce moves ~2(N-1)/N of the message per NIC; CCT must be at
        least two phase serializations of a shard chain."""
        topo = LeafSpine(4, 8, 2)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        group = group_of(topo, 8)
        n = len(group.hosts)
        handle = resolve_scheme("allreduce-ring").launch(env, group, MSG, 0.0)
        env.run()
        shard = shard_bytes(MSG, n)
        floor = 2 * (n - 1) * shard * 8 / topo.link_bps
        assert handle.cct_s >= 0.8 * floor

    def test_peel_variant_moves_fewer_bytes(self):
        topo = FatTree(8, hosts_per_tor=4)
        totals = {}
        for name in ("allreduce-ring", "allreduce-peel"):
            env = CollectiveEnv(topo, SimConfig(segment_bytes=262144))
            handle = resolve_scheme(name).launch(
                env, group_of(topo, 16), 64 * 2**20, 0.0
            )
            env.run()
            assert handle.complete
            totals[name] = env.network.total_bytes_sent()
        assert totals["allreduce-peel"] < totals["allreduce-ring"]

    def test_reduce_scatter_precedes_allgather(self):
        """No shard may finish its broadcast before its owner finished the
        reduce-scatter chain: completion times must exceed one phase."""
        topo = LeafSpine(4, 4, 2)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        group = group_of(topo, 6)
        n = len(group.hosts)
        handle = resolve_scheme("allreduce-peel").launch(env, group, MSG, 0.0)
        env.run()
        shard = shard_bytes(MSG, n)
        one_phase = (n - 1) * shard * 8 / topo.link_bps
        assert min(handle.host_done_at.values()) >= 0.8 * one_phase
