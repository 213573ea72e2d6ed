"""ServeRuntime end-to-end: admission, queueing, SLOs, fault recovery."""

import pytest

from repro.api import segment_bytes_for
from repro.collectives import Gpu, Group
from repro.faults import FaultSchedule
from repro.serve import (
    CompositeAdmission,
    LinkLoadAdmission,
    ServeRuntime,
    TcamAdmission,
    serve_jobs,
)
from repro.sim import SimConfig
from repro.topology import FatTree
from repro.workloads import CollectiveJob, TenantSpec, generate_jobs, generate_tenant_jobs

KB = 1024
MESSAGE = 64 * KB


def topo4() -> FatTree:
    return FatTree(4, hosts_per_tor=2)


def config_for(message: int = MESSAGE) -> SimConfig:
    return SimConfig(segment_bytes=segment_bytes_for(message))


def stream(topo, num_jobs=20, num_gpus=8, load=0.5, seed=4):
    return generate_jobs(
        topo, num_jobs, num_gpus, MESSAGE,
        offered_load=load, gpus_per_host=1, seed=seed,
    )


class TestServing:
    def test_peel_serves_with_zero_switch_updates(self):
        topo = topo4()
        report, runtime = serve_jobs(
            topo, "peel", stream(topo), config_for(), check_invariants=True
        )
        assert report.total.submitted == 20
        assert report.total.completed == 20
        assert report.switch_updates == 0
        assert report.peak_entries_per_switch > 0  # boot-time prefix rules
        assert report.cache_hit_rate > 0
        assert report.total.cct.p99_s > 0

    def test_orca_installs_and_removes_per_group(self):
        topo = topo4()
        report, runtime = serve_jobs(topo, "orca", stream(topo), config_for())
        assert report.switch_updates > 0
        # All groups departed: every per-group entry was removed again.
        assert all(len(t) == 0 for t in runtime.state.tables.values())

    def test_small_tcam_queues_orca(self):
        topo = topo4()
        report, _ = serve_jobs(
            topo, "orca", stream(topo, load=0.9), config_for(),
            admission=TcamAdmission(), tcam_capacity=1,
        )
        assert report.queued_jobs > 0
        assert report.total.completed == 20  # the queue drained eventually
        assert report.total.mean_queue_s > 0

    def test_link_budget_rejects_oversized_messages(self):
        topo = topo4()
        report, _ = serve_jobs(
            topo, "peel", stream(topo, num_jobs=5), config_for(),
            admission=LinkLoadAdmission(max_outstanding_bytes=MESSAGE // 2),
        )
        assert report.total.rejected == 5
        assert report.total.completed == 0

    def test_degenerate_single_host_group_completes_instantly(self):
        topo = topo4()
        host = sorted(topo.hosts)[0]
        gpus = (Gpu(host, 0), Gpu(host, 1))
        job = CollectiveJob(0.0, Group(gpus[0], gpus), MESSAGE)
        report, runtime = serve_jobs(topo, "peel", [job], config_for())
        assert runtime.records[0].status == "done"
        assert report.total.cct.p99_s == 0.0

    def test_per_tenant_rows(self):
        topo = topo4()
        jobs = generate_tenant_jobs(
            topo,
            (
                TenantSpec("a", 6, 8, MESSAGE, offered_load=0.4),
                TenantSpec("b", 4, 4, MESSAGE // 2, offered_load=0.2),
            ),
            gpus_per_host=1,
            seed=9,
        )
        report, _ = serve_jobs(topo, "peel", jobs, config_for())
        assert [t.tenant for t in report.tenants] == ["a", "b"]
        assert report.tenants[0].submitted == 6
        assert report.tenants[1].submitted == 4
        assert report.total.submitted == 10

    def test_report_refuses_while_jobs_are_in_flight(self):
        topo = topo4()
        runtime = ServeRuntime(topo, "peel", config_for())
        runtime.submit_all(stream(topo, num_jobs=3))
        with pytest.raises(RuntimeError, match="in flight"):
            runtime.report()

    def test_rejects_unknown_scheme_and_bad_queue(self):
        with pytest.raises(ValueError, match="scheme registry"):
            ServeRuntime(topo4(), "carrier-pigeon")
        with pytest.raises(ValueError, match="max_queue"):
            ServeRuntime(topo4(), "peel", max_queue=-1)
        # Any registry scheme can serve now — host relays included.
        assert ServeRuntime(topo4(), "ring").scheme_name == "ring"

    def test_queue_capacity_overflow_rejects(self):
        topo = topo4()
        report, _ = serve_jobs(
            topo, "orca", stream(topo, load=0.9), config_for(),
            admission=TcamAdmission(), tcam_capacity=1, max_queue=2,
        )
        assert report.total.rejected > 0
        assert report.total.completed + report.total.rejected == 20


class TestServingUnderFaults:
    def test_midstream_flap_completes_and_invalidates_cache(self):
        topo = topo4()
        jobs = stream(topo, num_jobs=12, load=0.8)
        core = sorted(n for n in topo.graph.nodes if n.startswith("core"))[0]
        agg = sorted(topo.graph.neighbors(core))[0]
        mid = jobs[len(jobs) // 2].arrival_s
        schedule = FaultSchedule().link_flap(
            core, agg, down_at_s=mid, up_at_s=jobs[-1].arrival_s * 2 + 1.0
        )
        report, runtime = serve_jobs(
            topo, "peel", jobs, config_for(),
            admission=CompositeAdmission(
                TcamAdmission(), LinkLoadAdmission(8 * MESSAGE)
            ),
            check_invariants=True, fault_schedule=schedule,
        )
        assert report.total.completed == 12
        assert report.cache_invalidations >= 2  # down + up
        assert report.switch_updates == 0  # faults never touch PEEL rules
