"""Proactive F-resilient protection: planning, failover, accounting.

The reactive/proactive boundary lives on the golden fault scenario — the
same loaded-link cut inside the 100 µs detection window must re-peel when
unprotected and flip to a pre-installed backup (with a strictly lower CCT)
when protected.
"""

import pytest

from repro.api import ScenarioSpec, run
from repro.core import Peel, build_protection
from repro.experiments import failover
from repro.experiments.scenarios import fault_scenario, protected_fault_scenario
from repro.serve import Demand, FabricState, PlanCache, ServeRuntime
from repro.sim import SimConfig
from repro.topology import LeafSpine
from repro.workloads import generate_jobs

KB = 1024


class TestBuildProtection:
    def topo_plan(self, resilience=1):
        topo = LeafSpine(2, 4, 2)
        hosts = topo.hosts[:6]
        plan = Peel(topo, resilience=resilience).plan(hosts[0], hosts[1:])
        return topo, plan

    def test_plan_carries_protection(self):
        _topo, plan = self.topo_plan()
        assert plan.protection is not None
        assert plan.protection.entries

    def test_unprotected_plan_has_none(self):
        topo = LeafSpine(2, 4, 2)
        hosts = topo.hosts[:6]
        plan = Peel(topo).plan(hosts[0], hosts[1:])
        assert plan.protection is None

    def test_host_links_never_protected(self):
        _topo, plan = self.topo_plan()
        for _idx, link in plan.protection.entries:
            assert not any(node.startswith("host:") for node in link)

    def test_resilience_validation(self):
        topo = LeafSpine(2, 4, 2)
        with pytest.raises(ValueError):
            Peel(topo, resilience=-1)
        with pytest.raises(ValueError):
            build_protection(topo, [], topo.hosts[0], 0)

    def test_tcam_demand_is_per_group(self):
        """Two groups on one plan each hold their own fast-failover
        entries: one per replication point of every backup alternative."""
        _topo, plan = self.topo_plan()
        counts = plan.protection.entry_counts
        expected: dict[str, int] = {}
        for entry in plan.protection.entries.values():
            for backup in entry.backups:
                for switch in backup.children_map:
                    if not switch.startswith("host:"):
                        expected[switch] = expected.get(switch, 0) + 1
        assert counts == expected
        assert plan.protection.total_entries() == sum(expected.values())
        assert plan.protection.peak_entries_per_switch() == max(
            expected.values()
        )
        state = FabricState(capacity=64)
        state.install_group("group-a", Demand(private=counts))
        state.install_group("group-b", Demand(private=counts))
        for switch, count in counts.items():
            assert len(state.table(switch)) == 2 * count
        state.remove_group("group-a")
        assert sum(len(t) for t in state.tables.values()) == (
            plan.protection.total_entries()
        )


class TestReactiveProactiveBoundary:
    """The golden fault scenario, cut inside the detection window."""

    @pytest.fixture(scope="class")
    def reactive(self):
        spec, _cuts = fault_scenario()
        return run(spec)

    @pytest.fixture(scope="class")
    def protected(self):
        spec, _cuts = protected_fault_scenario(1)
        return run(spec)

    def test_unprotected_run_repeels(self, reactive):
        assert reactive.repeels != []
        assert reactive.failovers == []
        assert reactive.protection == 0
        assert reactive.backup_tcam_entries == 0

    def test_protected_run_takes_local_failover(self, protected):
        assert protected.repeels == []
        assert [type(f).__name__ for f in protected.failovers] == ["Failover"]
        assert protected.protection == 1

    def test_failover_cct_strictly_below_reactive(self, reactive, protected):
        assert protected.ccts[0] < reactive.ccts[0]

    def test_failover_happens_at_cut_not_detection(self, reactive, protected):
        # The re-peel pays the 100 us detection delay after the cut; the
        # local failover fires at the cut event itself.
        cut_t = protected.failovers[0].time_s
        repeel_t = reactive.repeels[0].time_s
        assert repeel_t == pytest.approx(cut_t + 100e-6)

    def test_backup_entries_reported_against_budget(self, protected):
        assert protected.backup_tcam_entries > 0
        assert protected.backup_tcam_peak_per_switch > 0
        # LeafSpine(2, 4, 2): identifier width 2 -> 2^3 - 1 static rules.
        assert protected.static_rule_budget == 7
        assert (
            protected.backup_tcam_peak_per_switch
            <= protected.backup_tcam_entries
        )

    def test_protection_zero_is_byte_identical_to_default(self, reactive):
        spec, _cuts = protected_fault_scenario(0)
        again = run(spec)
        assert again.ccts == reactive.ccts
        assert again.trace_digest == reactive.trace_digest
        assert again.repeels == reactive.repeels


class TestFailoverExperiment:
    def test_serial_matches_workers(self):
        serial = failover.run(protection_levels=(0, 1), jobs=1)
        parallel = failover.run(protection_levels=(0, 1), jobs=4)
        assert serial == parallel

    def test_rows_and_table(self):
        rows = failover.run(protection_levels=(0, 1), jobs=1)
        by_f = {row.protection: row for row in rows}
        assert by_f[0].recovery == "reactive re-peel"
        assert by_f[1].recovery == "local failover"
        assert by_f[1].cct_s < by_f[0].cct_s
        assert by_f[1].backup_tcam_entries > 0
        assert by_f[1].static_rule_budget == 7
        table = failover.format_table(rows)
        assert "local failover" in table
        assert "budget/switch" in table


class TestUnprotectedLinkFallsBack:
    def test_cut_outside_any_tree_is_harmless(self):
        # Cutting a link no primary tree crosses must neither fail over
        # nor re-peel — protection never invents work.
        topo = LeafSpine(2, 4, 2)
        message = 256 * KB
        job = generate_jobs(topo, 1, 4, message, gpus_per_host=1, seed=7)[0]
        plan = Peel(topo, resilience=1).plan(
            job.group.source.host, job.group.receiver_hosts
        )
        used = {
            tuple(sorted(e))
            for tree in plan.static_trees
            for e in tree.edges
        }
        spare = next(
            (u, v)
            for u, v in sorted(topo.graph.edges)
            if tuple(sorted((u, v))) not in used
            and not u.startswith("host:")
            and not v.startswith("host:")
        )
        from repro.faults import FaultSchedule

        schedule = FaultSchedule().link_down(*spare, at_s=10e-6)
        result = run(ScenarioSpec(
            topology=topo,
            scheme="peel",
            jobs=(job,),
            config=SimConfig(segment_bytes=64 * KB, seed=7),
            check_invariants=True,
            fault_schedule=schedule,
            protection=1,
        ))
        assert result.failovers == []
        assert result.repeels == []
        assert result.invariant_violations == []


class TestServeProtection:
    def test_ff_entries_ride_group_lifecycle(self):
        topo = LeafSpine(2, 4, 2)
        jobs = generate_jobs(
            topo, 4, 6, 128 * KB, offered_load=0.5, gpus_per_host=1, seed=3
        )
        runtime = ServeRuntime(
            topo, "peel", SimConfig(segment_bytes=64 * KB, seed=3),
            protection=1,
        )
        runtime.submit_all(jobs)
        runtime.run()
        report = runtime.report()
        # Static prefix rules alone would mean zero serving-time updates;
        # the fast-failover entries install and remove per group.
        assert report.switch_updates > 0
        baseline = 7  # static prefix rules per switch at width 2
        assert report.peak_entries_per_switch > baseline
        # All groups done: every per-group ff entry was removed again.
        for switch, table in runtime.state.tables.items():
            assert len(table) <= baseline, switch

    def test_unprotected_serve_has_no_group_state(self):
        topo = LeafSpine(2, 4, 2)
        jobs = generate_jobs(
            topo, 2, 6, 128 * KB, offered_load=0.5, gpus_per_host=1, seed=3
        )
        runtime = ServeRuntime(
            topo, "peel", SimConfig(segment_bytes=64 * KB, seed=3)
        )
        runtime.submit_all(jobs)
        runtime.run()
        assert runtime.report().switch_updates == 0

    def test_plan_cache_keys_by_resilience(self):
        topo = LeafSpine(2, 4, 2)
        cache = PlanCache()
        hosts = topo.hosts[:5]
        plain = Peel(topo)
        protected = Peel(topo, resilience=1)
        a = cache.get(plain, hosts[0], hosts[1:])
        b = cache.get(protected, hosts[0], hosts[1:])
        assert a.protection is None
        assert b.protection is not None
        assert cache.misses == 2  # same shape, different resilience: no alias
        assert cache.get(protected, hosts[0], hosts[1:]) is b
        assert cache.hits == 1
