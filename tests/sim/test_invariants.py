"""InvariantChecker: ledger accounting, violation detection, watchdog."""

import pytest

from repro.collectives import CollectiveEnv, Gpu, Group, resolve_scheme
from repro.sim import InvariantChecker, InvariantViolation, SimConfig
from repro.sim.packet import Segment
from repro.topology import LeafSpine

MB = 2**20


def small_group(topo, n):
    members = tuple(Gpu(h, 0) for h in topo.hosts[:n])
    return Group(source=members[0], members=members)


def run_broadcast(scheme="peel", message=MB, raise_immediately=True, n=8):
    topo = LeafSpine(2, 4, 2)
    env = CollectiveEnv(
        topo,
        SimConfig(segment_bytes=64 * 1024),
        check_invariants=True,
        raise_on_violation=raise_immediately,
    )
    handle = resolve_scheme(scheme).launch(env, small_group(topo, n), message, 0.0)
    env.run()
    return env, handle


class TestCleanRuns:
    def test_peel_run_is_clean(self):
        env, handle = run_broadcast("peel")
        assert handle.complete
        assert env.finalize_checks() == []
        assert env.invariants.ok

    @pytest.mark.parametrize("scheme", ["optimal", "ring", "tree", "orca"])
    def test_all_schemes_clean(self, scheme):
        env, handle = run_broadcast(scheme)
        assert handle.complete
        assert env.finalize_checks() == []

    def test_ledger_balances_after_drain(self):
        env, _ = run_broadcast("peel")
        inv = env.invariants
        assert inv.in_flight_bytes == 0
        assert inv.in_flight_copies == 0
        assert inv.created_bytes == (
            inv.delivered_bytes + inv.wasted_bytes + inv.lost_bytes
        )
        assert inv.created_bytes >= MB  # at least the message itself
        assert inv.checks > 0

    def test_every_receiver_accepted_every_segment(self):
        env, _ = run_broadcast("peel")
        transfer = env.network.transfers[0]
        for host in transfer.receivers:
            accepted = env.invariants._accepted[(transfer, host)]
            assert accepted == set(range(transfer.num_segments))

    def test_summary_mentions_ok(self):
        env, _ = run_broadcast("peel")
        env.finalize_checks()
        assert "invariants ok" in env.invariants.summary()


class TestCorruptedRuns:
    def test_double_delivery_is_caught(self):
        """The acceptance check: seed a duplicate segment into a finished
        broadcast and the checker must flag the double count."""
        env, handle = run_broadcast("peel")
        assert handle.complete
        transfer = env.network.transfers[0]
        route = transfer.static_trees[0]
        dup = Segment(transfer, 0, transfer.segment_sizes[0], route)
        env.network.host(transfer.src_host).send(dup)
        with pytest.raises(InvariantViolation, match="exactly-once"):
            env.run()

    def test_double_delivery_collected_when_not_raising(self):
        env, handle = run_broadcast("peel", raise_immediately=False)
        transfer = env.network.transfers[0]
        route = transfer.static_trees[0]
        dup = Segment(transfer, 0, transfer.segment_sizes[0], route)
        env.network.host(transfer.src_host).send(dup)
        env.run()
        kinds = {v.invariant for v in env.invariants.violations}
        assert "exactly-once" in kinds
        assert not env.invariants.ok
        assert "violation" in env.invariants.summary()

    def test_out_of_range_segment_is_caught(self):
        env, _ = run_broadcast("peel", raise_immediately=False)
        transfer = env.network.transfers[0]
        route = transfer.static_trees[0]
        bogus = Segment(transfer, transfer.num_segments + 3, 1500, route)
        env.network.host(transfer.src_host).send(bogus)
        env.run()
        kinds = {v.invariant for v in env.invariants.violations}
        assert "segment-shape" in kinds

    def test_corrupted_ledger_fails_finalize(self):
        env, _ = run_broadcast("peel", raise_immediately=False)
        env.invariants.in_flight_bytes += 512  # simulate a leaked copy
        violations = env.finalize_checks()
        assert any(v.invariant == "byte-conservation" for v in violations)

    def test_negative_buffer_is_caught_by_scan(self):
        env, _ = run_broadcast("peel", raise_immediately=False)
        switch = next(
            node
            for name, node in env.network.nodes.items()
            if name.startswith("leaf")
        )
        switch.buffered_bytes = -1
        env.invariants.scan()
        kinds = {v.invariant for v in env.invariants.violations}
        assert "occupancy" in kinds


class TestWatchdog:
    def test_wedged_port_trips_deadlock(self):
        """A permanently paused uplink stops all progress; the watchdog
        must flag the stall instead of letting the run hang silently."""
        topo = LeafSpine(2, 4, 2)
        env = CollectiveEnv(
            topo,
            SimConfig(segment_bytes=64 * 1024),
            check_invariants=True,
        )
        group = small_group(topo, 8)
        source = group.source.host
        uplink = env.network.ports[source, topo.tor_of(source)]
        uplink.paused = True  # nobody will ever resume it
        resolve_scheme("peel").launch(env, group, 256 * 1024, 0.0)
        with pytest.raises(InvariantViolation, match="deadlock"):
            env.run()

    def test_watchdog_rearms_across_idle_gaps(self):
        """Two broadcasts separated by dead air: the watchdog disarms when
        the fabric drains and must not misfire across the gap."""
        topo = LeafSpine(2, 4, 2)
        env = CollectiveEnv(
            topo, SimConfig(segment_bytes=64 * 1024), check_invariants=True
        )
        scheme = resolve_scheme("peel")
        h1 = scheme.launch(env, small_group(topo, 8), MB, 0.0)
        h2 = scheme.launch(env, small_group(topo, 8), MB, 0.5)  # long gap
        env.run()
        assert h1.complete and h2.complete
        assert env.finalize_checks() == []

    def test_rejects_bad_interval(self):
        topo = LeafSpine(2, 2, 1)
        env = CollectiveEnv(topo)
        with pytest.raises(ValueError):
            InvariantChecker(env.network, watchdog_interval_s=0.0)


class TestSkidBound:
    def test_override_wins(self):
        topo = LeafSpine(2, 2, 1)
        env = CollectiveEnv(topo)
        checker = InvariantChecker(env.network, pfc_skid_bytes=12345.0)
        assert checker.pfc_skid_bytes == 12345.0

    def test_default_scales_with_fanout(self):
        topo = LeafSpine(2, 4, 2)
        env = CollectiveEnv(topo)
        checker = InvariantChecker(env.network)
        cfg = env.network.config
        assert checker.pfc_skid_bytes >= 2 * cfg.segment_bytes
