"""Allgather collectives: correctness and bandwidth shape."""

import pytest

from repro.collectives import (
    CollectiveEnv,
    Gpu,
    Group,
    PeelAllgather,
    RingAllgather,
    resolve_scheme,
    shard_bytes,
)
from repro.sim import SimConfig
from repro.topology import FatTree, LeafSpine

MSG = 8 * 2**20


def group_of(topo, n):
    hosts = sorted(topo.hosts)[:n]
    gpus = tuple(Gpu(h, 0) for h in hosts)
    return Group(gpus[0], gpus)


class TestShardMath:
    def test_even_split(self):
        assert shard_bytes(1024, 4) == 256

    def test_rounds_up(self):
        assert shard_bytes(1000, 3) == 334

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            shard_bytes(1000, 0)


class TestCompletion:
    @pytest.mark.parametrize("name", ["allgather-ring", "allgather-peel"])
    def test_completes_on_leafspine(self, name):
        topo = LeafSpine(4, 8, 2)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        handle = resolve_scheme(name).launch(env, group_of(topo, 8), MSG, 0.0)
        env.run()
        assert handle.complete
        assert handle.cct_s > 0

    @pytest.mark.parametrize("name", ["allgather-ring", "allgather-peel"])
    def test_completes_on_fattree(self, name):
        topo = FatTree(4)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        handle = resolve_scheme(name).launch(env, group_of(topo, 6), MSG, 0.0)
        env.run()
        assert handle.complete

    @pytest.mark.parametrize("name", ["allgather-ring", "allgather-peel"])
    def test_single_host_trivial(self, name):
        topo = LeafSpine(2, 2, 2)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        handle = resolve_scheme(name).launch(env, group_of(topo, 1), MSG, 0.0)
        env.run()
        assert handle.complete

    def test_every_host_must_finish(self):
        """The source's host receives too (unlike Broadcast)."""
        topo = LeafSpine(2, 4, 2)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        group = group_of(topo, 5)
        handle = RingAllgather().launch(env, group, MSG, 0.0)
        assert group.hosts[0] in handle.pending_hosts
        env.run()
        assert handle.complete
        assert set(handle.host_done_at) == set(group.hosts)


class TestBandwidthShape:
    def test_peel_moves_fewer_bytes(self):
        topo = FatTree(8, hosts_per_tor=4)
        results = {}
        for name in ("allgather-ring", "allgather-peel"):
            env = CollectiveEnv(topo, SimConfig(segment_bytes=262144))
            handle = resolve_scheme(name).launch(env, group_of(topo, 16), 64 * 2**20, 0.0)
            env.run()
            assert handle.complete
            results[name] = env.network.total_bytes_sent()
        assert results["allgather-peel"] < 0.7 * results["allgather-ring"]

    def test_cct_scales_with_message(self):
        topo = LeafSpine(4, 4, 2)
        ccts = []
        for msg in (2 * 2**20, 8 * 2**20):
            env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
            handle = PeelAllgather().launch(env, group_of(topo, 8), msg, 0.0)
            env.run()
            ccts.append(handle.cct_s)
        assert ccts[1] > 2 * ccts[0]
