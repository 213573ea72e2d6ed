"""Scenario runner behaviour through ``repro.api.run``."""

import pytest

from repro.api import ScenarioSpec, run, segment_bytes_for
from repro.sim import SimConfig
from repro.topology import LeafSpine
from repro.workloads import generate_jobs


@pytest.fixture
def small_setup():
    topo = LeafSpine(4, 8, 4)
    jobs = generate_jobs(
        topo, 4, num_gpus=8, message_bytes=2**20, gpus_per_host=1, seed=1
    )
    return topo, jobs


def run_scenario(topo, scheme, jobs, **options):
    return run(
        ScenarioSpec(
            topology=topo, scheme=scheme, jobs=tuple(jobs), config=SimConfig(),
            **options,
        )
    )


class TestRunner:
    def test_returns_all_ccts(self, small_setup):
        topo, jobs = small_setup
        result = run_scenario(topo, "peel", jobs)
        assert len(result.ccts) == len(jobs)
        assert all(c > 0 for c in result.ccts)
        assert result.total_bytes > 0

    def test_accepts_scheme_instance(self, small_setup):
        from repro.collectives import RingBroadcast

        topo, jobs = small_setup
        result = run_scenario(topo, RingBroadcast(), jobs)
        assert result.scheme == "ring"

    def test_same_workload_is_reproducible(self, small_setup):
        topo, jobs = small_setup
        a = run_scenario(topo, "optimal", jobs)
        b = run_scenario(topo, "optimal", jobs)
        assert a.ccts == b.ccts

    def test_stall_detection(self, small_setup):
        topo, jobs = small_setup
        with pytest.raises(RuntimeError, match="never completed"):
            run_scenario(topo, "optimal", jobs, max_events=3)


class TestSegmentSizing:
    def test_small_messages_floor(self):
        assert segment_bytes_for(2**20) == 65536

    def test_large_messages_bounded_count(self):
        size = segment_bytes_for(512 * 2**20)
        assert 512 * 2**20 / size <= 65

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            segment_bytes_for(0)

    @pytest.mark.parametrize(
        "message", [1500, 2048, 4096, 10 * 1024, 63 * 1024, 2**20, 512 * 2**20]
    )
    def test_never_exceeds_message(self, message):
        """Regression: a 1 KiB message used to get a 64 KiB segment size."""
        assert segment_bytes_for(message) <= max(message, 1500)

    def test_sub_mtu_message_uses_mtu_floor(self):
        # SimConfig refuses segment_bytes below one MTU; the actual segment
        # emitted for a 1 KiB message is still 1 KiB (segments_for caps it).
        assert segment_bytes_for(1024) == 1500
        assert SimConfig(segment_bytes=segment_bytes_for(1024)).segments_for(
            1024
        ) == [1024]

    def test_mid_size_message_is_single_segment(self):
        assert segment_bytes_for(10 * 1024) == 10 * 1024

    def test_config_accepts_every_sizing(self):
        for message in (1024, 1500, 8 * 1024, 2**20, 64 * 2**20):
            SimConfig(segment_bytes=segment_bytes_for(message))


class TestCorrectnessWiring:
    def test_invariants_clean_on_small_scenario(self, small_setup):
        topo, jobs = small_setup
        result = run_scenario(topo, "peel", jobs, check_invariants=True)
        assert result.invariant_violations == []
        assert result.failure_drops == 0
        assert result.repeels == []

    def test_defaults_skip_correctness_tooling(self, small_setup):
        topo, jobs = small_setup
        result = run_scenario(topo, "peel", jobs)
        assert result.invariant_violations == []
        assert result.trace_digest is None
