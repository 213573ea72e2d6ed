"""Sharded scenario runs: golden byte-identity, refusals, snapshot/resume."""

import dataclasses

import pytest

from repro.api import run
from repro.experiments.scenarios import shard_scenario
from repro.obs import Observability
from repro.replay import Snapshot
from repro.shard import ShardedScenarioRun, ShardError, validate_spec
from repro.sim import SimConfig

from .specs import ecn_drawing_spec


@pytest.fixture(scope="module")
def golden():
    spec, cuts = shard_scenario(shards=2)
    serial = run(dataclasses.replace(spec, shards=1))
    return spec, cuts, serial


def assert_matches(serial, sharded):
    assert sharded.trace_digest == serial.trace_digest
    assert sharded.replay.event_digest == serial.replay.event_digest
    assert sharded.ccts == serial.ccts
    assert sharded.replay.events_processed == serial.replay.events_processed
    assert sharded.total_bytes == serial.total_bytes


class TestGoldenScenario:
    def test_api_run_dispatches_to_shards(self, golden):
        spec, _, serial = golden
        assert_matches(serial, run(spec))

    def test_process_mode_matches(self, golden):
        spec, _, serial = golden
        from repro.shard import run_sharded

        assert_matches(serial, run_sharded(spec, processes=True))

    def test_kept_trace_lines_match_serial(self, golden):
        from repro.api import ScenarioRun

        spec, _, _ = golden
        kept = dataclasses.replace(spec, keep_trace_events=True)
        serial_run = ScenarioRun(dataclasses.replace(kept, shards=1))
        serial_run.finish()
        sharded_run = ShardedScenarioRun(kept)
        sharded_run.finish()
        assert sharded_run.trace_events == serial_run.env.trace.events

    def test_closing_an_unfinished_process_run_ends_its_workers(self, golden):
        """Each worker closes the coordinator pipe ends it inherited, so
        closing a shard reaches its worker as EOF and it exits cleanly."""
        spec, _, _ = golden
        sharded_run = ShardedScenarioRun(spec, processes=True)
        for shard in sharded_run.shards:
            shard.close()
        assert [shard._proc.exitcode for shard in sharded_run.shards] == [0, 0]

    def test_windows_advance_and_drain(self, golden):
        spec, _, _ = golden
        sharded_run = ShardedScenarioRun(spec)
        sharded_run.finish()
        assert sharded_run.drained
        assert sharded_run.windows_run >= 1
        assert len(sharded_run.shards) == 2


class TestSnapshotResume:
    def test_mid_run_snapshot_resumes_byte_identical(self, golden):
        spec, cuts, serial = golden
        for cut in cuts:
            sharded_run = ShardedScenarioRun(spec)
            sharded_run.run_until(cut)
            blob = sharded_run.snapshot().to_bytes()
            resumed = Snapshot.from_bytes(blob).restore()
            result = resumed.finish()
            assert_matches(serial, result)
            assert result.replay.resumed


class TestRefusals:
    def test_unshardable_scheme(self, golden):
        spec, _, _ = golden
        bad = dataclasses.replace(spec, scheme="orca")
        with pytest.raises(ShardError, match="not shardable"):
            validate_spec(bad)

    def test_ecmp_schemes_are_shardable(self, golden):
        """ring/tree draw per-job ECMP streams now, so the partition
        accepts them (the old refusal is lifted)."""
        spec, _, _ = golden
        for scheme in ("ring", "tree", "allreduce-ring", "allgather-ring"):
            validate_spec(dataclasses.replace(spec, scheme=scheme))

    def test_max_events_budget(self, golden):
        spec, _, _ = golden
        bad = dataclasses.replace(spec, max_events=100)
        with pytest.raises(ShardError, match="max_events"):
            validate_spec(bad)

    def test_invariant_watchdog(self, golden):
        spec, _, _ = golden
        bad = dataclasses.replace(spec, check_invariants=True)
        with pytest.raises(ShardError, match="watchdog"):
            validate_spec(bad)
        # Watchdog off is the documented escape hatch.
        validate_spec(dataclasses.replace(bad, invariant_watchdog=False))

    def test_periodic_sampling_obs(self, golden):
        spec, _, _ = golden
        bad = dataclasses.replace(spec, obs=Observability())
        with pytest.raises(ShardError, match="sampling"):
            validate_spec(bad)

    def test_wire_loss(self, golden):
        spec, _, _ = golden
        lossy = dataclasses.replace(
            spec.config, loss_probability=0.01
        )
        bad = dataclasses.replace(spec, config=lossy)
        with pytest.raises(ShardError, match="loss_probability"):
            validate_spec(bad)

    def test_network_rng_draw_refused_after_the_run(self):
        with pytest.raises(ShardError, match="shard 1 drew from the network RNG"):
            run(ecn_drawing_spec())

    def test_refusal_happens_at_run_time_too(self, golden):
        spec, _, _ = golden
        bad = dataclasses.replace(spec, scheme="orca")
        with pytest.raises(ShardError, match="not shardable"):
            run(bad)


class TestCheckedInvariantsVariant:
    def test_invariants_on_with_watchdog_off_matches_serial(self, golden):
        spec, _, _ = golden
        checked = dataclasses.replace(
            spec, check_invariants=True, invariant_watchdog=False
        )
        serial = run(dataclasses.replace(checked, shards=1))
        sharded = run(checked)
        assert_matches(serial, sharded)
        assert sharded.invariant_violations == serial.invariant_violations


def test_simconfig_default_has_no_loss():
    # The validate_spec loss gate assumes the default config is lossless.
    assert SimConfig().loss_probability == 0.0
