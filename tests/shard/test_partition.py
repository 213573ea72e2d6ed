"""Partition planning: zones, traffic-closure coupling, shard assignment."""

import pytest

from repro.collectives import Gpu, Group
from repro.faults import FaultSchedule
from repro.shard import (
    CORE_ZONE,
    ShardPartitionError,
    plan_partition,
    pod_local_jobs,
    zone_of,
)
from repro.topology import FatTree
from repro.workloads import CollectiveJob

KB = 1024


def pod_job(topo, pod, hosts=3, arrival=0.0):
    names = sorted(h for h in topo.hosts if h.split(":")[1] == f"p{pod}")[:hosts]
    members = tuple(Gpu(h, 0) for h in names)
    return CollectiveJob(arrival, Group(members[0], members), 64 * KB)


class TestZones:
    def test_every_fattree_node_zones(self):
        topo = FatTree(4)
        for node in topo.graph.nodes:
            kind, index = zone_of(node)
            if node.startswith("core"):
                assert (kind, index) == CORE_ZONE
            else:
                assert kind == "pod"
                assert 0 <= index < 4

    def test_hosts_and_switches_share_their_pod_zone(self):
        topo = FatTree(4)
        assert zone_of(topo.tors_in_pod(2)[0]) == zone_of(
            topo.aggs_in_pod(2)[0]
        )


class TestPlanPartition:
    def test_pod_local_jobs_split_over_shards(self):
        topo = FatTree(4)
        jobs = [pod_job(topo, p, arrival=p * 1e-6) for p in range(4)]
        plan = plan_partition(topo, jobs, 2)
        # 4 pods + core = 5 components, dealt round-robin over 2 shards.
        assert len(plan.components) == 5
        assert sorted(plan.jobs_for(0) + plan.jobs_for(1)) == [0, 1, 2, 3]
        for g, job in enumerate(jobs):
            shard = plan.job_shard[g]
            for gpu in job.group.members:
                assert plan.shard_of_node(gpu.host) == shard

    def test_jobs_for_preserves_global_order(self):
        topo = FatTree(4)
        jobs = [pod_job(topo, p % 4, arrival=p * 1e-6) for p in range(8)]
        plan = plan_partition(topo, jobs, 4)
        for shard in range(4):
            indices = plan.jobs_for(shard)
            assert indices == sorted(indices)

    def test_multi_pod_group_welds_components(self):
        topo = FatTree(4)
        hosts = [
            sorted(h for h in topo.hosts if h.split(":")[1] == f"p{p}")[0]
            for p in range(4)
        ]
        members = tuple(Gpu(h, 0) for h in hosts)
        spanning = CollectiveJob(0.0, Group(members[0], members), 64 * KB)
        with pytest.raises(ShardPartitionError, match="component"):
            plan_partition(topo, [spanning], 2)

    def test_more_shards_than_components_rejected(self):
        topo = FatTree(4)
        jobs = [pod_job(topo, p) for p in range(4)]
        with pytest.raises(ShardPartitionError, match="cannot run 8 shards"):
            plan_partition(topo, jobs, 8)

    def test_cross_pod_fault_couples_zones(self):
        topo = FatTree(4)
        jobs = [pod_job(topo, p) for p in range(4)]
        agg = topo.aggs_in_pod(0)[0]
        core = next(n for n in topo.graph.neighbors(agg)
                    if n.startswith("core"))
        schedule = FaultSchedule().link_down(agg, core, at_s=1e-6)
        plan = plan_partition(topo, jobs, 2, fault_schedule=schedule)
        # The agg-core fault welds pod 0 with the core component.
        assert plan.shard_of_node(agg) == plan.shard_of_node(core)
        assert len(plan.components) == 4


class TestPodLocalJobs:
    def test_groups_are_pod_confined_and_deterministic(self):
        topo = FatTree(4)
        a = pod_local_jobs(topo, 3, 3, 64 * KB, seed=4)
        b = pod_local_jobs(topo, 3, 3, 64 * KB, seed=4)
        assert a == b
        assert len(a) == 12
        for job in a:
            pods = {gpu.host.split(":")[1] for gpu in job.group.members}
            assert len(pods) == 1
        arrivals = [job.arrival_s for job in a]
        assert arrivals == sorted(arrivals)

    def test_tenants_assigned_round_robin_in_timeline_order(self):
        topo = FatTree(4)
        jobs = pod_local_jobs(topo, 2, 3, 64 * KB, seed=1,
                              tenants=("a", "b", "c"))
        assert [j.tenant for j in jobs] == ["a", "b", "c"] * 2 + ["a", "b"]
