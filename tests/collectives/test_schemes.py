"""Every broadcast scheme: delivery correctness and structural properties."""

import pytest

from repro.collectives import (
    BinaryTreeBroadcast,
    CollectiveEnv,
    Gpu,
    Group,
    OptimalBroadcast,
    OrcaBroadcast,
    PeelBroadcast,
    RingBroadcast,
    resolve_scheme,
)
from repro.sim import SimConfig
from repro.topology import FatTree, LeafSpine, asymmetric

MSG = 2 * 2**20

ALL_SCHEMES = [
    "ring", "tree", "optimal", "orca", "orca:controller_overhead=false",
    "peel", "peel:programmable_cores=true",
]


def display_name(scheme: str) -> str:
    """Test ids name each scheme as result rows do (``peel+cores``)."""
    return resolve_scheme(scheme).name


def group_on(topo, hosts, gpus_per_host=2):
    gpus = tuple(Gpu(h, i) for h in hosts for i in range(gpus_per_host))
    return Group(source=gpus[0], members=gpus)


@pytest.fixture
def env():
    return CollectiveEnv(LeafSpine(4, 8, 2), SimConfig(segment_bytes=65536))


class TestAllSchemesDeliver:
    @pytest.mark.parametrize("name", ALL_SCHEMES, ids=display_name)
    def test_delivers_leafspine(self, name, env):
        hosts = [h for h in sorted(env.topo.hosts)][:8]
        group = group_on(env.topo, hosts)
        handle = resolve_scheme(name).launch(env, group, MSG, arrival_s=0.0)
        env.run()
        assert handle.complete, name
        assert handle.cct_s > 0

    @pytest.mark.parametrize("name", ALL_SCHEMES, ids=display_name)
    def test_delivers_fattree(self, name):
        env = CollectiveEnv(FatTree(4), SimConfig(segment_bytes=65536))
        hosts = env.topo.hosts[:6]
        group = group_on(env.topo, hosts)
        handle = resolve_scheme(name).launch(env, group, MSG, arrival_s=0.0)
        env.run()
        assert handle.complete, name

    @pytest.mark.parametrize("name", ["ring", "tree", "peel"])
    def test_delivers_on_asymmetric_fabric(self, name):
        topo, _ = asymmetric(LeafSpine(4, 8, 2), 0.2, seed=4)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=65536))
        group = group_on(topo, topo.hosts[:8])
        handle = resolve_scheme(name).launch(env, group, MSG, arrival_s=0.0)
        env.run()
        assert handle.complete, name

    @pytest.mark.parametrize("name", ALL_SCHEMES, ids=display_name)
    def test_single_host_group_is_nvlink_only(self, name, env):
        host = env.topo.hosts[0]
        group = group_on(env.topo, [host], gpus_per_host=8)
        handle = resolve_scheme(name).launch(env, group, MSG, arrival_s=0.0)
        env.run()
        assert handle.complete
        assert handle.cct_s == pytest.approx(MSG / env.config.nvlink_bytes_per_s)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            resolve_scheme("carrier-pigeon")


class TestRingStructure:
    def test_each_receiver_fed_by_one_unicast(self, env):
        group = group_on(env.topo, env.topo.hosts[:5])
        RingBroadcast().launch(env, group, MSG, 0.0)
        env.run()
        # Ring of 5 hosts => 4 hops: total bytes = 4 paths x path length.
        total = env.network.total_bytes_sent()
        assert total >= MSG * 4 * 2  # every hop at least 2 links

    def test_ring_bytes_scale_with_group(self):
        sizes = []
        for n in (3, 6):
            env = CollectiveEnv(LeafSpine(4, 8, 2), SimConfig(segment_bytes=65536))
            group = group_on(env.topo, env.topo.hosts[:n])
            RingBroadcast().launch(env, group, MSG, 0.0)
            env.run()
            sizes.append(env.network.total_bytes_sent())
        assert sizes[1] > sizes[0] * 1.5


class TestTreeStructure:
    def test_internal_hosts_relay_twice(self, env):
        group = group_on(env.topo, env.topo.hosts[:7])
        BinaryTreeBroadcast().launch(env, group, MSG, 0.0)
        env.run()
        # 6 receivers -> 6 unicasts; source sends 2 of them itself.
        src_uplink = env.network.ports[
            group.source.host, env.topo.tor_of(group.source.host)
        ]
        assert src_uplink.bytes_sent == 2 * MSG


class TestMulticastSchemes:
    def test_optimal_single_copy_per_link(self, env):
        group = group_on(env.topo, env.topo.hosts[:8])
        OptimalBroadcast().launch(env, group, MSG, 0.0)
        env.run()
        loads = [v for v in env.network.link_bytes().values() if v]
        assert all(v == MSG for v in loads)

    def test_peel_static_at_most_prefix_copies(self, env):
        group = group_on(env.topo, env.topo.hosts[:8])
        plan = env.peel().plan(group.source.host, group.receiver_hosts)
        PeelBroadcast().launch(env, group, MSG, 0.0)
        env.run()
        src_uplink = env.network.ports[
            group.source.host, env.topo.tor_of(group.source.host)
        ]
        assert src_uplink.bytes_sent == MSG * max(1, len(plan.static_trees))

    def test_peel_cores_converges_to_single_copy(self):
        """With a zero-latency controller the refined mode engages at t=0,
        so the source sends one copy, like optimal."""
        from repro.core import ControllerModel

        env = CollectiveEnv(
            LeafSpine(4, 8, 2),
            SimConfig(segment_bytes=65536),
            controller=ControllerModel(mean_s=0.0, std_s=0.0),
        )
        group = group_on(env.topo, env.topo.hosts[:8])
        PeelBroadcast(programmable_cores=True).launch(env, group, MSG, 0.0)
        env.run()
        src_uplink = env.network.ports[
            group.source.host, env.topo.tor_of(group.source.host)
        ]
        assert src_uplink.bytes_sent == MSG


class TestOrca:
    def test_setup_delay_slows_start(self):
        ccts = {}
        for name in ("orca", "orca:controller_overhead=false"):
            env = CollectiveEnv(LeafSpine(4, 8, 2), SimConfig(segment_bytes=65536))
            group = group_on(env.topo, env.topo.hosts[:8])
            handle = resolve_scheme(name).launch(env, group, MSG, 0.0)
            env.run()
            ccts[name] = handle.cct_s
        assert ccts["orca"] > ccts["orca:controller_overhead=false"]

    def test_agent_relays_to_other_servers(self):
        env = CollectiveEnv(LeafSpine(4, 8, 2), SimConfig(segment_bytes=65536))
        # Group: source rack 0 + both hosts of rack 1; with one GPU NIC per
        # server the agent must unicast to its rack sibling through the ToR.
        hosts = ["host:l0:0", "host:l1:0", "host:l1:1"]
        group = group_on(env.topo, hosts)
        scheme = OrcaBroadcast(controller_overhead=False, gpus_per_server=1)
        handle = scheme.launch(env, group, MSG, 0.0)
        env.run()
        assert handle.complete
        agent_uplink = env.network.ports["host:l1:0", "leaf:1"]
        assert agent_uplink.bytes_sent == MSG

    def test_agent_uses_nvlink_within_server(self):
        env = CollectiveEnv(LeafSpine(4, 8, 2), SimConfig(segment_bytes=65536))
        hosts = ["host:l0:0", "host:l1:0", "host:l1:1"]
        group = group_on(env.topo, hosts)
        # Default server model: both rack-1 endpoints share one server, so
        # the sibling fills over NVLink and the agent never re-sends.
        handle = OrcaBroadcast(controller_overhead=False).launch(
            env, group, MSG, 0.0
        )
        env.run()
        assert handle.complete
        agent_uplink = env.network.ports["host:l1:0", "leaf:1"]
        assert agent_uplink.bytes_sent == 0

    def test_source_rack_has_no_trunk(self):
        env = CollectiveEnv(LeafSpine(4, 8, 2), SimConfig(segment_bytes=65536))
        hosts = ["host:l0:0", "host:l0:1"]  # same rack as the source
        group = group_on(env.topo, hosts)
        handle = OrcaBroadcast(controller_overhead=False).launch(env, group, MSG, 0.0)
        env.run()
        assert handle.complete
        spine_bytes = sum(
            p.bytes_sent
            for (u, v), p in env.network.ports.items()
            if u.startswith("spine") or v.startswith("spine")
        )
        assert spine_bytes == 0
