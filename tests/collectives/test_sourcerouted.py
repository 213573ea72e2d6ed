"""Source-routed schemes: header budgets, strip maps, state accounting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, run
from repro.collectives import (
    BertBroadcast,
    CollectiveEnv,
    ElmoBroadcast,
    Gpu,
    Group,
)
from repro.collectives.multicast import steiner_tree
from repro.faults import FaultSchedule
from repro.sim import SimConfig
from repro.topology import FatTree
from repro.topology.addressing import NodeKind, kind_of

KB = 1024
MSG = 256 * KB


def fresh_env(k=4, hosts_per_tor=2):
    return CollectiveEnv(
        FatTree(k, hosts_per_tor=hosts_per_tor),
        SimConfig(segment_bytes=64 * KB),
    )


def group_of(env, hosts):
    members = tuple(Gpu(h, 0) for h in hosts)
    return Group(members[0], members)


@st.composite
def host_subsets(draw):
    """A source plus 2–7 receivers on the 16-host FatTree(4)."""
    topo = FatTree(4, hosts_per_tor=2)
    hosts = sorted(topo.hosts)
    size = draw(st.integers(min_value=3, max_value=8))
    picked = draw(
        st.lists(
            st.sampled_from(hosts), min_size=size, max_size=size, unique=True
        )
    )
    return picked


class TestHeaderBudget:
    @given(hosts=host_subsets(), budget=st.sampled_from((8, 16, 64)))
    @settings(max_examples=25, deadline=None)
    def test_elmo_encoding_respects_budget(self, hosts, budget):
        env = fresh_env()
        tree = steiner_tree(env.topo, hosts[0], hosts[1:])
        enc = ElmoBroadcast(header_bytes=budget)._encode(env, tree, "g")
        assert enc.header_bytes <= budget
        # Whatever was packed strips to zero by the leaves.
        assert sum(enc.strip_bytes.values()) == enc.header_bytes
        # Every forwarding switch is either in the header or an s-rule.
        switches = {
            n for n in tree.children_map
            if kind_of(n) is not NodeKind.HOST and tree.children_map[n]
        }
        assert switches == set(enc.strip_bytes) | set(enc.demand)

    @given(hosts=host_subsets())
    @settings(max_examples=25, deadline=None)
    def test_bert_labels_cover_tree_with_zero_state(self, hosts):
        env = fresh_env()
        tree = steiner_tree(env.topo, hosts[0], hosts[1:])
        enc = BertBroadcast()._encode(env, tree, "g")
        assert enc.header_bytes > 0
        assert sum(enc.strip_bytes.values()) == enc.header_bytes
        assert enc.demand == {}

    def test_elmo_tiny_budget_falls_back_to_s_rules(self):
        env = fresh_env()
        hosts = sorted(env.topo.hosts)[:8]
        tree = steiner_tree(env.topo, hosts[0], hosts[1:])
        enc = ElmoBroadcast(header_bytes=2)._encode(env, tree, "g")
        assert enc.demand, "a 2-byte budget cannot hold the whole tree"
        assert all(keys == [("group", "g")] for keys in enc.demand.values())


def scenario(scheme, fault_schedule=None, hosts_n=6):
    topo = FatTree(4, hosts_per_tor=2)
    hosts = sorted(topo.hosts)[:hosts_n]
    members = tuple(Gpu(h, 0) for h in hosts)
    from repro.workloads import CollectiveJob

    job = CollectiveJob(0.0, Group(members[0], members), MSG)
    return ScenarioSpec(
        topology=topo,
        scheme=scheme,
        jobs=(job,),
        config=SimConfig(segment_bytes=64 * KB),
        check_invariants=True,
        fault_schedule=fault_schedule,
    )


def tree_fault(spec):
    """A schedule killing one switch-switch edge of the job's own tree."""
    env = CollectiveEnv(spec.topology, spec.config)
    group = spec.jobs[0].group
    receivers = [g.host for g in group.members if g.host != group.source.host]
    tree = steiner_tree(env.topo, group.source.host, receivers)
    for child, parent in sorted(tree.parent.items()):
        if kind_of(child) is not NodeKind.HOST:
            return FaultSchedule().link_down(parent, child, 1e-5)
    raise AssertionError("tree has no switch-switch edge")


class TestExactlyOnce:
    @given(scheme=st.sampled_from(("elmo", "bert", "rsbf", "lipsin",
                                   "ip-multicast", "elmo:header_bytes=4")))
    @settings(max_examples=6, deadline=None)
    def test_fault_recovery_delivers_exactly_once(self, scheme):
        spec = scenario(scheme)
        faulted = ScenarioSpec(
            **{
                **{f.name: getattr(spec, f.name)
                   for f in spec.__dataclass_fields__.values()},
                "fault_schedule": tree_fault(spec),
            }
        )
        result = run(faulted)
        # check_invariants=True makes the byte-conservation ledger fatal:
        # duplicate or lost segments (including mis-stripped headers on
        # repair paths) would have raised before we get here.
        assert len(result.ccts) == 1 and result.ccts[0] > 0
        assert len(result.repeels) >= 1


class TestHeaderCharging:
    def test_headers_inflate_fabric_bytes(self):
        # Same trees, same jobs: LIPSIN pays 32 B per segment on every
        # hop, IP multicast pays nothing (its cost is TCAM state).
        lipsin = run(scenario("lipsin"))
        ipmc = run(scenario("ip-multicast"))
        assert lipsin.header_overhead_bytes > 0
        assert ipmc.header_overhead_bytes == 0
        assert lipsin.total_bytes > ipmc.total_bytes

    def test_state_axis(self):
        bert = run(scenario("bert"))
        ipmc = run(scenario("ip-multicast"))
        assert bert.per_group_tcam_peak == 0
        assert ipmc.per_group_tcam_peak > 0
