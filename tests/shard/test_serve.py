"""Sharded serving: report reconstruction, identity, and refusal paths."""

import dataclasses

import pytest

from repro.serve import LinkLoadAdmission, ServeRuntime
from repro.serve.cache import PlanCache
from repro.shard import (
    SHARDABLE_SERVE_SCHEMES,
    ServeShardSpec,
    ShardedServe,
    ShardError,
    pod_local_jobs,
    serve_sharded,
)
from repro.sim import SimConfig
from repro.topology import FatTree

KB = 1024


@pytest.fixture(scope="module")
def campaign():
    topo = FatTree(4)
    jobs = pod_local_jobs(
        topo, 3, 3, 64 * KB, seed=3, tenants=("train", "infer")
    )
    config = SimConfig(segment_bytes=64 * KB, seed=3)
    sspec = ServeShardSpec(
        topology=topo,
        scheme="peel",
        jobs=tuple(jobs),
        shards=2,
        config=config,
        record_trace=True,
        event_digest=True,
    )
    serial = ServeRuntime(topo, "peel", config, record_trace=True)
    serial.env.sim.attach_digest()
    serial.submit_all(list(jobs))
    serial.run()
    return sspec, serial


def _loaded_campaign(message_bytes: int) -> ServeShardSpec:
    topo = FatTree(4)
    jobs = pod_local_jobs(
        topo, 3, 3, message_bytes, seed=0, tenants=("train", "infer"),
        offered_load=0.9,
    )
    return ServeShardSpec(
        topology=topo,
        scheme="peel",
        jobs=tuple(jobs),
        shards=2,
        config=SimConfig(segment_bytes=64 * KB, seed=0),
    )


class TestShardedServe:
    def test_report_and_digests_match_serial(self, campaign):
        sspec, serial = campaign
        result = serve_sharded(sspec)
        assert result.report == serial.report()
        assert result.trace_digest == serial.env.trace.digest()
        assert result.event_digest == serial.env.sim.event_digest.hexdigest()
        assert result.events_processed == serial.env.sim.processed
        assert result.shards == 2
        assert result.windows >= 1

    def test_process_mode_matches(self, campaign):
        sspec, serial = campaign
        result = serve_sharded(sspec, processes=True)
        assert result.report == serial.report()
        assert result.trace_digest == serial.env.trace.digest()

    def test_four_shards_match(self, campaign):
        sspec, serial = campaign
        result = serve_sharded(dataclasses.replace(sspec, shards=4))
        assert result.report == serial.report()
        assert result.trace_digest == serial.env.trace.digest()

    def test_job_rows_are_globally_ordered(self, campaign):
        sspec, _ = campaign
        result = serve_sharded(sspec)
        indices = [row[0] for row in result.job_rows]
        assert indices == list(range(len(sspec.jobs)))

    def test_campaign_object_runs_once(self, campaign):
        sspec, _ = campaign
        serve = ShardedServe(sspec)
        serve.run()
        with pytest.raises(RuntimeError, match="already run"):
            serve.run()


class TestServeRefusals:
    def test_needs_two_shards(self, campaign):
        sspec, _ = campaign
        with pytest.raises(ShardError, match="shards >= 2"):
            ShardedServe(dataclasses.replace(sspec, shards=1))

    def test_unshardable_scheme(self, campaign):
        sspec, _ = campaign
        assert "orca" not in SHARDABLE_SERVE_SCHEMES
        with pytest.raises(ShardError, match="not shardable"):
            ShardedServe(dataclasses.replace(sspec, scheme="orca"))

    def test_network_rng_draw_refused(self):
        """At 0.9 load, 256 KB jobs queue into the ECN band; ramp marking
        draws the shared fabric RNG, which per-shard runs cannot order."""
        with pytest.raises(ShardError, match="serve shard 1 drew from the network RNG"):
            serve_sharded(_loaded_campaign(256 * KB))

    def test_queued_job_refused(self):
        """A link-load cap of one message makes arrivals wait in the FIFO,
        whose order couples admission across shards."""
        loaded = dataclasses.replace(
            _loaded_campaign(64 * KB), admission=LinkLoadAdmission(64 * KB)
        )
        with pytest.raises(ShardError, match="serve shard 0 queued 4 jobs"):
            serve_sharded(loaded)

    def test_plan_cache_eviction_refused(self, campaign):
        """A shard that evicts cache entries cannot reproduce the serial
        LRU (eviction order couples to global recency), so it refuses."""
        sspec, _ = campaign
        tiny = dataclasses.replace(sspec, plan_cache_size=1)
        with pytest.raises(ShardError, match="evicted"):
            serve_sharded(tiny)

    def test_plan_cache_size_matches_serial_when_shared(self, campaign):
        """With the same oversized cache on both sides, cache counters
        partition exactly."""
        sspec, _ = campaign
        big = dataclasses.replace(sspec, plan_cache_size=1 << 12)
        result = serve_sharded(big)
        serial = ServeRuntime(
            sspec.topology, "peel", sspec.config, record_trace=True,
            plan_cache=PlanCache(1 << 12),
        )
        serial.submit_all(list(sspec.jobs))
        serial.run()
        assert result.report == serial.report()
