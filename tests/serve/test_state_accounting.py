"""Serving's switch-state accounting, pinned to known counts.

The ``(updates, peak, overflow, queued)`` tuples below were measured on
the keyed accounting that counted private entries one key at a time; the
counted accounting must reproduce them exactly.
"""

import pytest

from repro.serve import (
    FabricState,
    FifoAdmission,
    ServeRuntime,
    TcamAdmission,
)
from repro.sim import SimConfig
from repro.topology import LeafSpine
from repro.topology.failures import fail_random_uplinks
from repro.workloads import generate_jobs

KB = 1024


def fabric(failed: bool) -> LeafSpine:
    topo = LeafSpine(4, 8, 2)
    if failed:
        # 15 static prefix rules per switch (identifier width 3).
        fail_random_uplinks(topo, 0.1, seed=0)
    return topo


def serve(scheme, admission, capacity, seed, failed, protection):
    topo = fabric(failed)
    jobs = generate_jobs(
        topo, 40, 6, 128 * KB, offered_load=0.8, gpus_per_host=1, seed=seed
    )
    runtime = ServeRuntime(
        topo, scheme, SimConfig(segment_bytes=64 * KB, seed=seed),
        admission=admission, tcam_capacity=capacity, protection=protection,
    )
    runtime.submit_all(jobs)
    runtime.run()
    return runtime


class TestPinnedCounts:
    @pytest.mark.parametrize(
        "admission, capacity, expected",
        [
            (FifoAdmission, 12, (1200, 65, 600, 0)),
            (FifoAdmission, 4096, (1200, 65, 0, 0)),
            (TcamAdmission, 20, (1200, 20, 0, 36)),
        ],
    )
    def test_protected_peel(self, admission, capacity, expected):
        report = serve(
            "peel", admission(), capacity, seed=3, failed=True, protection=1
        ).report()
        assert (
            report.switch_updates,
            report.peak_entries_per_switch,
            report.tcam_overflow_events,
            report.queued_jobs,
        ) == expected

    @pytest.mark.parametrize(
        "scheme, expected",
        [("orca", (350, 3, 0, 34)), ("ip-multicast", (88, 3, 0, 7))],
    )
    def test_per_group_schemes(self, scheme, expected):
        report = serve(
            scheme, TcamAdmission(), 3, seed=4, failed=False, protection=0
        ).report()
        assert (
            report.switch_updates,
            report.peak_entries_per_switch,
            report.tcam_overflow_events,
            report.queued_jobs,
        ) == expected


class TestOneLedger:
    def test_protected_pass_leaves_only_the_runtime_ledger(self):
        """Serving accounts switch state in ``runtime.state`` alone: after a
        protected pass it is back to its deploy-once rules, and no other
        switch-state ledger on the runtime or its env holds an entry."""
        topo = LeafSpine(4, 8, 2)
        jobs = generate_jobs(
            topo, 60, 6, 128 * KB, offered_load=0.5, gpus_per_host=1, seed=3
        )
        runtime = ServeRuntime(
            topo, "peel", SimConfig(segment_bytes=64 * KB, seed=3),
            protection=1,
        )
        runtime.submit_all(jobs)
        runtime.run()
        runtime.report()
        assert sum(len(t) for t in runtime.state.tables.values()) == 180
        others = [
            name
            for owner in (runtime, runtime.env)
            for name, value in vars(owner).items()
            if isinstance(value, FabricState) and value is not runtime.state
            and any(len(t) for t in value.tables.values())
        ]
        assert others == []


class TestFeasibleReservesStaticRules:
    def test_never_fitting_jobs_are_rejected_not_queued(self):
        """With 15 of 16 entries taken by deploy-once prefix rules, no job's
        3-5 fast-failover entries can ever fit a switch: all are rejected
        at arrival, and the run reports instead of stalling."""
        runtime = serve(
            "peel", TcamAdmission(), 16, seed=3, failed=True, protection=1
        )
        assert {r.status for r in runtime.records} == {"rejected"}
        report = runtime.report()
        assert report.total.rejected == 40
        assert report.queued_jobs == 0
        assert report.switch_updates == 0

    def test_feasible_subtracts_preinstalled_entries(self):
        state = FabricState(capacity=4)
        state.preinstall(["sw"], [("prefix", 0), ("prefix", 1)])
        assert state.feasible({"sw": [("group", 7), ("group", 8)]})
        assert not state.feasible({"sw": [("a",), ("b",), ("c",)]})
        assert state.feasible({"other": [("a",), ("b",), ("c",)]})


class TestPlanLookups:
    def lookups(self, protection):
        runtime = serve(
            "peel", FifoAdmission(), 4096, seed=3, failed=True,
            protection=protection,
        )
        cache = runtime.env.plan_cache
        return runtime, cache.hits + cache.misses

    def test_protected_jobs_look_their_plan_up_twice(self):
        """Once for the demand and route edges, once at launch."""
        runtime, lookups = self.lookups(protection=1)
        assert lookups == 2 * len(runtime.records)

    def test_unprotected_jobs_look_their_plan_up_twice(self):
        runtime, lookups = self.lookups(protection=0)
        assert lookups == 2 * len(runtime.records)

    def test_finished_records_pin_no_plans(self):
        runtime, _lookups = self.lookups(protection=1)
        assert all(r.status == "done" for r in runtime.records)
        assert all(r._plan is None for r in runtime.records)
