"""Admission policies: ADMIT / QUEUE / REJECT decisions in isolation."""

import pytest

from repro.api import segment_bytes_for
from repro.serve import (
    CompositeAdmission,
    Decision,
    FifoAdmission,
    LinkLoadAdmission,
    ServeRuntime,
    TcamAdmission,
)
from repro.sim import SimConfig
from repro.topology import FatTree
from repro.workloads import generate_jobs

KB = 1024
MESSAGE = 64 * KB


def make_runtime(scheme: str, tcam_capacity: int = 8) -> ServeRuntime:
    return ServeRuntime(
        FatTree(4, hosts_per_tor=2),
        scheme,
        SimConfig(segment_bytes=segment_bytes_for(MESSAGE)),
        tcam_capacity=tcam_capacity,
    )


def one_record(runtime: ServeRuntime, num_gpus: int = 8):
    job = generate_jobs(
        runtime.env.topo, 1, num_gpus, MESSAGE, gpus_per_host=1, seed=2
    )[0]
    return runtime.submit(job)


class TestFifo:
    def test_always_admits(self):
        runtime = make_runtime("orca", tcam_capacity=1)
        record = one_record(runtime)
        assert FifoAdmission().decide(record, runtime) is Decision.ADMIT


class TestTcam:
    def test_stateless_scheme_always_admits(self):
        runtime = make_runtime("peel", tcam_capacity=1)
        record = one_record(runtime)
        assert runtime.demand_for(record) == {}
        assert TcamAdmission().decide(record, runtime) is Decision.ADMIT

    def test_admits_when_entries_fit(self):
        runtime = make_runtime("orca")
        record = one_record(runtime)
        assert TcamAdmission().decide(record, runtime) is Decision.ADMIT

    def test_queues_when_tables_are_full(self):
        runtime = make_runtime("orca", tcam_capacity=1)
        record = one_record(runtime)
        blockers = {
            switch: [("blocker",)] for switch in runtime.demand_for(record)
        }
        runtime.state.install_group("blocker", blockers)
        assert TcamAdmission().decide(record, runtime) is Decision.QUEUE

    def test_rejects_the_standalone_infeasible(self):
        """A demand that cannot fit even an empty fabric would deadlock the
        FIFO head forever; it is turned away instead."""
        runtime = make_runtime("orca", tcam_capacity=1)
        record = one_record(runtime)
        record._demand = {"agg:p0:0": [("a",), ("b,")]}  # 2 entries, cap 1
        assert TcamAdmission().decide(record, runtime) is Decision.REJECT


class TestLinkLoad:
    def test_admits_on_an_idle_fabric(self):
        runtime = make_runtime("peel")
        record = one_record(runtime)
        policy = LinkLoadAdmission(max_outstanding_bytes=4 * MESSAGE)
        assert policy.decide(record, runtime) is Decision.ADMIT

    def test_queues_when_a_route_link_is_loaded(self):
        runtime = make_runtime("peel")
        record = one_record(runtime)
        policy = LinkLoadAdmission(max_outstanding_bytes=4 * MESSAGE)
        edge = runtime.route_edges_for(record)[0]
        runtime.link_outstanding[edge] = 4 * MESSAGE
        assert policy.decide(record, runtime) is Decision.QUEUE

    def test_rejects_a_message_bigger_than_the_budget(self):
        runtime = make_runtime("peel")
        record = one_record(runtime)
        policy = LinkLoadAdmission(max_outstanding_bytes=MESSAGE // 2)
        assert policy.decide(record, runtime) is Decision.REJECT

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            LinkLoadAdmission(max_outstanding_bytes=0)


class _Fixed:
    def __init__(self, decision: Decision) -> None:
        self.decision = decision
        self.name = f"fixed-{decision.value}"

    def decide(self, record, runtime) -> Decision:
        return self.decision


class TestComposite:
    def test_most_restrictive_verdict_wins(self):
        runtime = make_runtime("peel")
        record = one_record(runtime)
        admit, queue, reject = (
            _Fixed(Decision.ADMIT), _Fixed(Decision.QUEUE), _Fixed(Decision.REJECT)
        )
        assert CompositeAdmission(admit).decide(record, runtime) is Decision.ADMIT
        assert (
            CompositeAdmission(admit, queue).decide(record, runtime)
            is Decision.QUEUE
        )
        assert (
            CompositeAdmission(queue, reject, admit).decide(record, runtime)
            is Decision.REJECT
        )

    def test_requires_at_least_one_policy(self):
        with pytest.raises(ValueError):
            CompositeAdmission()

    def test_name_concatenates(self):
        policy = CompositeAdmission(TcamAdmission(), FifoAdmission())
        assert policy.name == "tcam+fifo"
